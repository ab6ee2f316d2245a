#!/usr/bin/env python3
"""Build and run the scenario benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seconds S     # summary table

Run from the root of a checkout.  The benchmark executable is built from
source with dune (into the checkout's own _build), then run once.  Its
human-readable tables are passed through, followed by a manifest line
(what was run, on what build) and, as the last line, one JSON object with
the keys correct / attempted / failed / metrics.  Exits non-zero without
printing a result when the build fails or the output is malformed.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

sys.dont_write_bytecode = True

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
EXE = os.path.join(ROOT, "_build", "default", "perfbench", "bench.exe")
WORKLOADS = ["example1_stable", "syndrome_k4", "coded_q64", "fluid_flash_1e6", "agent_sharded"]
RUN_TIMEOUT_S = 170


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def build():
    # The dune cache lives outside the checkout; keep every build write
    # inside it.
    env = dict(os.environ, DUNE_CACHE="disabled")
    try:
        proc = subprocess.run(
            ["dune", "build", "--root", ROOT, "./perfbench/bench.exe"],
            cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
            text=True, timeout=850)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail("build did not run: %s" % e)
    if proc.returncode != 0 or not os.path.exists(EXE):
        sys.stderr.write(proc.stdout)
        fail("build failed")


def build_info():
    """Compiler and source identity for the manifest."""
    info = {}
    try:
        flambda = subprocess.run(["ocamlopt", "-config-var", "flambda"], stdout=subprocess.PIPE,
                                 stderr=subprocess.DEVNULL, text=True, timeout=30).stdout.strip()
        info["flambda"] = flambda == "true"
    except (OSError, subprocess.TimeoutExpired):
        info["flambda"] = None
    info["git_rev"] = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            rev = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], stdout=subprocess.PIPE,
                                 stderr=subprocess.DEVNULL, text=True, timeout=30)
            if rev.returncode == 0:
                info["git_rev"] = rev.stdout.strip()
        except (OSError, subprocess.TimeoutExpired):
            pass
    # A digest of the sources the benchmark builds, which identifies the
    # tree when the checkout carries no git metadata.
    h = hashlib.sha256()
    for top in ("lib", "perfbench"):
        for dirpath, dirnames, filenames in sorted(os.walk(os.path.join(ROOT, top))):
            dirnames.sort()
            for name in sorted(filenames):
                if name.endswith((".ml", ".mli")) or name == "dune":
                    path = os.path.join(dirpath, name)
                    h.update(os.path.relpath(path, ROOT).encode())
                    with open(path, "rb") as f:
                        h.update(f.read())
    info["source_sha256"] = h.hexdigest()
    return info


def expected_metrics(trace):
    path = os.path.join(ROOT, "BENCHMARK.json")
    with open(path) as f:
        bench = json.load(f)
    return {m["name"]: m["unit"] for m in bench["per_layer" if trace else "end_to_end"]}


def valid_result(result, trace):
    if not isinstance(result, dict) or set(result) != {"correct", "attempted", "failed", "metrics"}:
        return "result keys"
    if not isinstance(result["correct"], bool):
        return "correct is not a boolean"
    for k in ("attempted", "failed"):
        if not isinstance(result[k], int) or isinstance(result[k], bool) or result[k] < 0:
            return k + " is not a whole number"
    if result["attempted"] < 1:
        return "nothing attempted"
    want = expected_metrics(trace)
    got = result["metrics"]
    if set(got) != set(want):
        return "metrics differ from BENCHMARK.json: %s" % sorted(set(got) ^ set(want))
    for name, m in got.items():
        if set(m) != {"value", "unit"} or m["unit"] != want[name]:
            return "metric %s malformed" % name
        if not isinstance(m["value"], (int, float)) or isinstance(m["value"], bool):
            return "metric %s is not a number" % name
    return None


def run_one(workload, seed, seconds, trace, info):
    """Run one workload; returns (manifest, result) after passing the
    human-readable lines through."""
    cmd = [EXE, workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "1" if trace else "0"]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("%s timed out" % workload)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or len(lines) < 2 or not lines[-2].startswith("manifest: "):
        sys.stdout.write(proc.stdout)
        fail("%s exited with %d" % (workload, proc.returncode))
    for line in lines[:-2]:
        print(line)
    try:
        manifest = json.loads(lines[-2][len("manifest: "):])
        result = json.loads(lines[-1])
    except ValueError as e:
        fail("%s printed malformed JSON: %s" % (workload, e))
    problem = valid_result(result, trace)
    if problem:
        fail("%s: %s" % (workload, problem))
    manifest.update(info)
    return manifest, result


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()
    if args.seconds < 1:
        fail("--seconds must be at least 1")
    build()
    info = build_info()
    if args.workload != "all":
        manifest, result = run_one(args.workload, args.seed, args.seconds, args.trace == 1, info)
        print("manifest: " + json.dumps(manifest, sort_keys=True))
        print(json.dumps(result))
        return
    rows = []
    for w in WORKLOADS:
        _, result = run_one(w, args.seed, args.seconds, args.trace == 1, info)
        rows.append((w, result))
    print()
    print("manifest: " + json.dumps(info, sort_keys=True))
    names = list(rows[0][1]["metrics"])
    for w, result in rows:
        print(w)
        for name in names:
            m = result["metrics"][name]
            print("  %-24s %18.6g %s" % (name, m["value"], m["unit"]))
        print("  %-24s %18d of %d runs" % ("runs_failed", result["failed"], result["attempted"]))
    if any(r["failed"] or not r["correct"] for _, r in rows):
        sys.exit(1)


if __name__ == "__main__":
    main()
