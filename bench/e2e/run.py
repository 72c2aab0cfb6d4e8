#!/usr/bin/env python3
"""Build and run the end-to-end sort benchmark (bench/e2e).

One run of one workload; the result JSON is the last line of stdout:

    python3 bench/e2e/run.py --workload uniform --seed 1 --seconds 20 --trace 0

Every workload, K seeds each (seed, seed+1, ...), each run in its own
process; records go to OUT/results.jsonl and each metric's run-to-run
spread is printed next to its bound from BENCHMARK.json:

    python3 bench/e2e/run.py --seed 1 --repeat 10 [--trace 1] [--out DIR]

The benchmark is built from source on first use (CMake, into
.bench_build/e2e).  Exit status is non-zero when the build fails, any
output is wrong, or a run reports metrics other than BENCHMARK.json names.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

import compare

ROOT = Path(__file__).resolve().parents[2]
HERE = ROOT / "bench" / "e2e"
BUILD = ROOT / ".bench_build" / "e2e"
BINARY = BUILD / "e2e_bench"
RUN_TIMEOUT_S = 170


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def build():
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        log("run.py: the library sources (CMakeLists.txt, src/) are missing; "
            "run from a full checkout of the repository")
        sys.exit(2)
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not (BUILD / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD), "--target", "e2e_bench",
                  "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            log("run.py: build failed:", " ".join(cmd))
            sys.exit(1)


def metric_names(bench, trace):
    return [m["name"] for m in bench["per_layer" if trace else "end_to_end"]]


def run_once(bench, workload, seed, seconds, trace, out_dir):
    """Run the benchmark binary once; returns (exit code, stdout lines, result)."""
    cmd = [str(BINARY), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace), "--out", str(out_dir)]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"run.py: {workload} seed {seed} did not finish in {RUN_TIMEOUT_S} s")
        return 1, [], None
    lines = proc.stdout.splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        log(f"run.py: {workload} seed {seed} printed no result (exit {proc.returncode})")
        return proc.returncode or 1, lines, None
    want = metric_names(bench, trace)
    if sorted(result["metrics"]) != sorted(want):
        log("run.py: metric names differ from BENCHMARK.json:",
            sorted(set(result["metrics"]) ^ set(want)))
        return 1, lines[:-1], None
    return proc.returncode, lines, result


def quartile_spread(values):
    """(median, (q3 - q1) / median) as statistics.quantiles gives them."""
    q1, med, q3 = compare.quartiles(values)
    return med, (q3 - q1) / med if med else float("inf")


def print_spreads(bench, records, trace):
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    units = {m["name"]: m["unit"] for m in bench["end_to_end"] + bench["per_layer"]}
    for w in [w["name"] for w in bench["workloads"]]:
        runs = [r["result"] for r in records if r["workload"] == w]
        if not runs:
            continue
        print(f"\n{w}: {len(runs)} runs")
        print(f"  {'metric':44} {'median':>14} {'unit':8} {'spread':>8} {'bound':>7}")
        for name in metric_names(bench, trace):
            med, spread = quartile_spread([r["metrics"][name]["value"] for r in runs])
            bound = bounds.get(name)
            flag = ""
            if bound is not None and name != "setup_s":
                flag = "ok" if spread < bound / 3 else ("within" if spread <= bound else "WIDE")
            btxt = f"{bound:.2f}" if bound is not None else "-"
            print(f"  {name:44} {med:14.6g} {units[name]:8} {spread:8.4f} {btxt:>7} {flag}")


def main():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in bench["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=workloads,
                    help="run this workload once (default: every workload)")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--repeat", type=int, default=1,
                    help="runs per workload, seeds seed..seed+K-1")
    ap.add_argument("--out", default=str(ROOT / "bench" / "e2e" / "out"),
                    help="directory for results.jsonl and TRACE_*.json")
    args = ap.parse_args()

    build()
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)

    if args.workload and args.repeat == 1:
        code, lines, result = run_once(bench, args.workload, args.seed, args.seconds,
                                       args.trace, out_dir)
        print("\n".join(lines), flush=True)
        return code if result is not None else (code or 1)

    records, status = [], 0
    for k in range(args.repeat):
        seed = args.seed + k
        for w in [args.workload] if args.workload else workloads:
            code, lines, result = run_once(bench, w, seed, args.seconds, args.trace, out_dir)
            if result is None or code != 0 or not result["correct"]:
                status = 1
                log("\n".join(lines))
            if result is None:
                continue
            log(f"run.py: {w} seed {seed}: attempted {result['attempted']} "
                f"failed {result['failed']}")
            records.append({"workload": w, "seed": seed, "trace": args.trace,
                            "result": result})
    with open(out_dir / "results.jsonl", "w") as f:
        for r in records:
            f.write(json.dumps(r) + "\n")
    print_spreads(bench, records, args.trace)
    return status


if __name__ == "__main__":
    sys.exit(main())
