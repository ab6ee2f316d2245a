#!/usr/bin/env python3
"""Comparison logic for the scenario benchmark.

Collect the output of several run.py invocations in one file per tree
(one manifest line and one result line per run), then:

    python3 perfbench/compare.py spread RUNS          # per-metric median and spread
    python3 perfbench/compare.py diff BEFORE AFTER    # regression verdicts, exit 1 on any

A metric regresses on a workload when the median of the AFTER runs is
worse than the median of the BEFORE runs either by more than the metric's
bound in BENCHMARK.json, or by more than the BEFORE runs' own noise band
(their spread) while the AFTER run is worse in at least nine tenths of
all (BEFORE, AFTER) run pairs.  Where the BEFORE runs spread wider than the bound, a change that
is not a regression is "unresolved" rather than "ok", unless every AFTER
run beats every BEFORE run.  Spread is the interquartile distance over the
median, as statistics.quantiles(values, n=4) gives the quartiles.
"""

import json
import os
import re
import statistics
import sys

sys.dont_write_bytecode = True

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
PATH = re.compile(r"^[A-Za-z0-9_./-]{1,200}$")
KEYS = {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}


def load_benchmark(path):
    """Parse BENCHMARK.json and check it against the format the benchmark
    is run under; raises ValueError on the first problem."""
    with open(path) as f:
        text = f.read()
    if len(text.encode()) > 64 * 1024:
        raise ValueError("file larger than 64 KiB")
    bench = json.loads(text)
    if set(bench) != KEYS:
        raise ValueError("keys %s" % sorted(set(bench) ^ KEYS))
    cmd = bench["command"]
    if not (isinstance(cmd, list) and 1 <= len(cmd) <= 32
            and all(isinstance(a, str) and len(a) <= 200 for a in cmd)):
        raise ValueError("command")
    paths = bench["paths"]
    if not (isinstance(paths, list) and 1 <= len(paths) <= 16):
        raise ValueError("paths")
    for p in paths:
        if not (isinstance(p, str) and PATH.match(p)) or p.startswith("/") or ".." in p.split("/"):
            raise ValueError("path %r" % p)
    rs = bench["run_seconds"]
    if not (isinstance(rs, int) and not isinstance(rs, bool) and 1 <= rs <= 60):
        raise ValueError("run_seconds")
    names = set()

    def named(entry, keys):
        if not isinstance(entry, dict) or set(entry) != keys:
            raise ValueError("entry %r" % (entry,))
        if not (isinstance(entry["name"], str) and NAME.match(entry["name"])):
            raise ValueError("name %r" % (entry["name"],))
        if entry["name"] in names:
            raise ValueError("name %s used twice" % entry["name"])
        names.add(entry["name"])

    wl = bench["workloads"]
    if not (isinstance(wl, list) and 2 <= len(wl) <= 8):
        raise ValueError("workloads")
    for w in wl:
        named(w, {"name", "why"})
        if not (isinstance(w["why"], str) and 0 < len(w["why"]) <= 200 and "\n" not in w["why"]):
            raise ValueError("why of %s" % w["name"])
    for section, lo, hi, keys in (("end_to_end", 1, 16, {"name", "unit", "better", "bound"}),
                                  ("per_layer", 1, 128, {"name", "unit", "better"})):
        ms = bench[section]
        if not (isinstance(ms, list) and lo <= len(ms) <= hi):
            raise ValueError(section)
        for m in ms:
            named(m, keys)
            if not (isinstance(m["unit"], str) and UNIT.match(m["unit"])):
                raise ValueError("unit of %s" % m["name"])
            if m["better"] not in ("higher", "lower"):
                raise ValueError("better of %s" % m["name"])
            if "bound" in m:
                b = m["bound"]
                if not (isinstance(b, (int, float)) and not isinstance(b, bool) and 0 < b <= 0.25):
                    raise ValueError("bound of %s" % m["name"])
    setup = [m for m in bench["end_to_end"] if m["name"] == "setup_s"]
    if not (setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"):
        raise ValueError("setup_s missing or malformed")
    return bench


def spread(values):
    """Interquartile distance over the median."""
    q = statistics.quantiles(values, n=4)
    return (q[2] - q[0]) / statistics.median(values)


def worse_by(before, after, better):
    """How much worse [after] is than [before], as a share of [before]
    (negative = better)."""
    change = (after - before) / before
    return -change if better == "higher" else change


def compare(before, after, metrics):
    """Verdict per (workload, metric).

    [before] and [after] map workload -> metric -> list of values;
    [metrics] are BENCHMARK.json end_to_end entries.  Returns a list of
    dicts with keys workload, metric, before, after, worse_by, spread,
    verdict, where verdict is "regression", "unresolved" or "ok"."""
    rows = []
    for workload in sorted(set(before) & set(after)):
        for m in metrics:
            b = before[workload].get(m["name"])
            a = after[workload].get(m["name"])
            if not b or not a:
                continue
            mb, ma = statistics.median(b), statistics.median(a)
            worse = worse_by(mb, ma, m["better"])
            s = spread(b) if len(b) >= 2 else float("inf")
            if m["better"] == "higher":
                all_better = min(a) > max(b)
            else:
                all_better = max(a) < min(b)
            # Of all (before, after) run pairs, the share the AFTER run loses.
            lost = sum(1 for x in b for y in a if worse_by(x, y, m["better"]) > 0)
            outside_noise = worse > s and lost >= 0.9 * len(a) * len(b)
            if worse > m["bound"] or outside_noise:
                verdict = "regression"
            elif s > m["bound"] and not all_better:
                verdict = "unresolved"
            else:
                verdict = "ok"
            rows.append({"workload": workload, "metric": m["name"], "before": mb, "after": ma,
                         "worse_by": worse, "spread": s, "verdict": verdict})
    return rows


def read_runs(path):
    """Parse concatenated run.py output: every manifest line names the
    workload of the result line that follows it.  Returns
    (values, failed) with values: workload -> metric -> [value] and
    failed: workload -> number of failed runs."""
    values, failed = {}, {}
    workload = None
    with open(path) as f:
        for line in f:
            if line.startswith("manifest: "):
                workload = json.loads(line[len("manifest: "):]).get("workload")
            elif line.startswith("{") and workload is not None:
                result = json.loads(line)
                per = values.setdefault(workload, {})
                for name, m in result["metrics"].items():
                    per.setdefault(name, []).append(m["value"])
                failed[workload] = failed.get(workload, 0) + result["failed"]
                workload = None
    return values, failed


def main(argv):
    here = os.path.dirname(os.path.abspath(__file__))
    bench = load_benchmark(os.path.join(os.path.dirname(here), "BENCHMARK.json"))
    metrics = bench["end_to_end"]
    if len(argv) == 2 and argv[0] == "spread":
        values, failed = read_runs(argv[1])
        bounds = {m["name"]: m["bound"] for m in metrics}
        for workload in sorted(values):
            print("%s (failed runs: %d)" % (workload, failed[workload]))
            for name, vs in sorted(values[workload].items()):
                s = spread(vs) if len(vs) >= 2 else float("nan")
                flag = "" if name not in bounds or s <= bounds[name] / 3 else "  above bound/3"
                print("  %-20s n=%-3d median %-14.6g spread %.3f%s"
                      % (name, len(vs), statistics.median(vs), s, flag))
        return 0
    if len(argv) == 3 and argv[0] == "diff":
        before, _ = read_runs(argv[1])
        after, failed = read_runs(argv[2])
        rows = compare(before, after, metrics)
        for r in rows:
            print("%-16s %-18s before %-12.6g after %-12.6g worse by %+7.3f spread %.3f  %s"
                  % (r["workload"], r["metric"], r["before"], r["after"], r["worse_by"],
                     r["spread"], r["verdict"]))
        bad = [r for r in rows if r["verdict"] == "regression"] or any(failed.values())
        return 1 if bad else 0
    print(__doc__, file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
