#!/usr/bin/env python3
"""Tests for the benchmark's comparison logic, on synthetic samples.

    python3 perfbench/test_compare.py
"""

import copy
import json
import os
import random
import re
import sys
import tempfile
import unittest

sys.dont_write_bytecode = True
HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import compare  # noqa: E402
import run  # noqa: E402

BENCHMARK = os.path.join(ROOT, "BENCHMARK.json")


def catalogue(name):
    """The (metric, unit) pairs bench.ml declares under [name]."""
    with open(os.path.join(HERE, "bench.ml")) as f:
        src = f.read()
    start = src.index("let %s =" % name)
    block = src[start:src.index("\nlet ", start + 1)]
    return re.findall(r'\("([^"]+)", "([^"]+)"\)', block)


class Synthetic:
    """Ten runs per workload with 3% noise around fixed medians."""

    def __init__(self, bench, seed):
        self.rng = random.Random(seed)
        self.bench = bench

    def runs(self, slow_workload=None, wall_factor=1.0):
        out = {}
        for w in self.bench["workloads"]:
            per = {}
            for m in self.bench["end_to_end"]:
                values = [100.0 * (1.0 + self.rng.gauss(0.0, 0.03)) for _ in range(10)]
                if w["name"] == slow_workload and m["name"] in ("sim_rate", "transitions_per_s"):
                    # Every run takes [wall_factor] times as long.
                    values = [v / wall_factor for v in values]
                per[m["name"]] = values
            out[w["name"]] = per
        return out


class CompareTest(unittest.TestCase):
    def setUp(self):
        self.bench = compare.load_benchmark(BENCHMARK)
        self.metrics = self.bench["end_to_end"]

    def verdicts(self, rows):
        return {(r["workload"], r["metric"]): r["verdict"] for r in rows}

    def test_slowdown_of_one_workload_is_a_regression(self):
        gen = Synthetic(self.bench, 1)
        before = gen.runs()
        after = gen.runs(slow_workload="coded_q64", wall_factor=1.2)
        v = self.verdicts(compare.compare(before, after, self.metrics))
        self.assertEqual(v[("coded_q64", "sim_rate")], "regression")
        self.assertEqual(v[("coded_q64", "transitions_per_s")], "regression")
        others = [k for k, verdict in v.items() if k[0] != "coded_q64" and verdict != "ok"]
        self.assertEqual(others, [])

    def test_same_distribution_passes(self):
        for seed in range(20):
            gen = Synthetic(self.bench, 100 + seed)
            rows = compare.compare(gen.runs(), gen.runs(), self.metrics)
            self.assertTrue(rows)
            self.assertEqual([r for r in rows if r["verdict"] != "ok"], [])

    def test_wide_spread_is_unresolved_not_ok(self):
        m = {"name": "sim_rate", "unit": "simtime/s", "better": "higher", "bound": 0.1}
        before = {"w": {"sim_rate": [60.0, 80.0, 100.0, 120.0, 140.0]}}
        after = {"w": {"sim_rate": [95.0, 100.0, 105.0, 110.0, 90.0]}}
        self.assertEqual(compare.compare(before, after, [m])[0]["verdict"], "unresolved")
        # ... unless every run of the change beats every run of the parent.
        after = {"w": {"sim_rate": [150.0, 160.0, 170.0]}}
        self.assertEqual(compare.compare(before, after, [m])[0]["verdict"], "ok")

    def test_lower_is_better_direction(self):
        m = {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25}
        before = {"w": {"setup_s": [1.0, 1.01, 0.99, 1.0]}}
        after = {"w": {"setup_s": [1.3, 1.31, 1.29, 1.3]}}
        self.assertEqual(compare.compare(before, after, [m])[0]["verdict"], "regression")
        self.assertEqual(compare.compare(after, before, [m])[0]["verdict"], "ok")

    def test_spread_matches_statistics_quantiles(self):
        values = [10.0, 11.0, 12.0, 13.0, 14.0, 15.0, 16.0, 17.0, 18.0, 19.0]
        # quantiles(n=4), exclusive method: 11.75 and 17.25 around 14.5.
        self.assertAlmostEqual(compare.spread(values), (17.25 - 11.75) / 14.5)

    def test_benchmark_json_parses_back_into_the_same_metrics(self):
        with open(BENCHMARK) as f:
            raw = json.load(f)
        self.assertEqual(json.loads(json.dumps(self.bench)), raw)
        for section, name in (("end_to_end", "end_to_end_units"), ("per_layer", "per_layer_units")):
            declared = [(m["name"], m["unit"]) for m in self.bench[section]]
            self.assertEqual(declared, catalogue(name), section)
        self.assertEqual([w["name"] for w in self.bench["workloads"]], run.WORKLOADS)

    def test_malformed_benchmark_json_is_refused(self):
        def refused(mutate):
            bad = copy.deepcopy(self.bench)
            mutate(bad)
            with tempfile.TemporaryDirectory() as d:
                path = os.path.join(d, "BENCHMARK.json")
                with open(path, "w") as f:
                    json.dump(bad, f)
                with self.assertRaises(ValueError):
                    compare.load_benchmark(path)

        refused(lambda b: b["end_to_end"][0].update(bound=0.3))
        refused(lambda b: b.update(end_to_end=[m for m in b["end_to_end"] if m["name"] != "setup_s"]))
        refused(lambda b: b["per_layer"].append(dict(b["per_layer"][0])))
        refused(lambda b: b.update(paths=["../outside"]))
        refused(lambda b: b.update(extra=1))

    def test_read_runs_pairs_manifests_with_results(self):
        text = "".join(
            "manifest: %s\n%s\n" % (
                json.dumps({"workload": w, "seed": s}),
                json.dumps({"correct": True, "attempted": 3, "failed": 0,
                            "metrics": {"sim_rate": {"value": float(s), "unit": "simtime/s"}}}))
            for w in ("a", "b") for s in (1, 2, 3))
        with tempfile.TemporaryDirectory() as d:
            path = os.path.join(d, "runs.txt")
            with open(path, "w") as f:
                f.write("some table line\n" + text)
            values, failed = compare.read_runs(path)
        self.assertEqual(values, {"a": {"sim_rate": [1.0, 2.0, 3.0]},
                                  "b": {"sim_rate": [1.0, 2.0, 3.0]}})
        self.assertEqual(failed, {"a": 0, "b": 0})


if __name__ == "__main__":
    unittest.main()
