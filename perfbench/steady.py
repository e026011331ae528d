"""Steadiness report: repeat each workload over several seeds and summarize.

    python3 perfbench/steady.py                      # 10 seeds, every workload
    python3 perfbench/steady.py --seeds 1            # one run per workload
    python3 perfbench/steady.py --workloads small-jobs --seeds 5 --first-seed 100

Each run is the command from BENCHMARK.json in a fresh process, from the root
of the checkout. For every end-to-end metric it prints the median, the first
and third quartiles (statistics.quantiles, n=4) and the spread (q3 - q1) /
median, and flags a spread above the metric's bound (setup_s is reported but
not flagged: only its median is bounded). fail_frac is failed / attempted of
each run. The environment and every run's values are written to
.bench_out/steady-<time>.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_once(cmd, workload, seed, seconds, trace):
    argv = cmd + ["--workload", workload, "--seed", str(seed),
                  "--seconds", str(seconds), "--trace", str(trace)]
    t0 = time.perf_counter()
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=900)
    wall = time.perf_counter() - t0
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(argv)} exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    env = next((json.loads(l.split(" ", 2)[2]) for l in lines if l.startswith("# environment ")), {})
    return json.loads(lines[-1]), env, wall


def summarize(values):
    med = statistics.median(values)
    if len(values) < 2:
        return med, med, med, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med if med else float("inf")


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    args = ap.parse_args(argv)

    bounds = {m["name"]: m for m in bench["end_to_end"]}
    record = {"benchmark": bench, "runs": {}, "environment": None}
    flagged = []
    for workload in args.workloads.split(","):
        runs = []
        for seed in range(args.first_seed, args.first_seed + args.seeds):
            result, env, wall = run_once(bench["command"], workload, seed, args.seconds, 0)
            record["environment"] = env
            runs.append({"seed": seed, "wall_s": wall, **result})
            print(f"# {workload} seed {seed}: correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']} wall={wall:.1f}s",
                  flush=True)
        record["runs"][workload] = runs
        print(f"{workload}: {len(runs)} runs")
        print(f"  {'metric':20s} {'unit':>6s} {'median':>12s} {'q1':>12s} {'q3':>12s} "
              f"{'spread':>8s} {'bound':>6s}")
        series = {name: [r["metrics"][name]["value"] for r in runs] for name in bounds}
        series["fail_frac"] = [r["failed"] / r["attempted"] for r in runs]
        for name, values in series.items():
            med, q1, q3, spread = summarize(values)
            spec = bounds.get(name)
            unit = spec["unit"] if spec else "ratio"
            bound = f"{spec['bound']:.2f}" if spec else "-"
            flag = ""
            if spec and name != "setup_s" and spread > spec["bound"]:
                flag = "  SPREAD ABOVE BOUND"
                flagged.append((workload, name))
            elif spec and name != "setup_s" and spread > spec["bound"] / 3:
                flag = "  above bound/3"
            print(f"  {name:20s} {unit:>6s} {med:12.6g} {q1:12.6g} {q3:12.6g} "
                  f"{spread:8.4f} {bound:>6s}{flag}")
        if not all(r["correct"] for r in runs):
            flagged.append((workload, "correct"))
    print("# environment " + json.dumps(record["environment"]))
    out = ROOT / ".bench_out"
    out.mkdir(exist_ok=True)
    path = out / f"steady-{time.strftime('%Y%m%d-%H%M%S')}.json"
    path.write_text(json.dumps(record, indent=1))
    print(f"# runs written to {path.relative_to(ROOT)}")
    if flagged:
        print("# flagged: " + ", ".join(f"{w}/{m}" for w, m in flagged))
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
