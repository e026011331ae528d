"""Smoke test of the benchmark itself.

    python3 perfbench/smoke.py

1. Short runs of small-jobs (--seconds 1, --trace 0 and 1) end with a
   well-formed result line that holds exactly the metrics BENCHMARK.json
   names for that mode, each with its unit.
2. Every checker passes the program's real output and flags a corrupted copy
   of it: a perturbed sink amplitude, an altered netlist device value, and a
   perturbed number in every other kind of output.
3. In a directory holding only BENCHMARK.json and the benchmark, with no
   sources to build, the benchmark exits non-zero and prints no result.

Exits 0 when every check holds; prints each failure otherwise.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
PERTURB = 1e-6  # far above reference.TOL

failures: list = []


def expect(ok: bool, what: str):
    print(("ok    " if ok else "FAIL  ") + what)
    if not ok:
        failures.append(what)


def run_bench(trace: int, cwd: Path = ROOT):
    argv = BENCH["command"] + ["--workload", "small-jobs", "--seed", "7",
                               "--seconds", "1", "--trace", str(trace)]
    return subprocess.run(argv, cwd=cwd, capture_output=True, text=True, timeout=600)


def check_result_lines():
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        proc = run_bench(trace)
        expect(proc.returncode == 0, f"--trace {trace} exits 0")
        try:
            result = json.loads(proc.stdout.strip().splitlines()[-1])
        except (ValueError, IndexError):
            expect(False, f"--trace {trace} last line is JSON")
            continue
        expect(sorted(result) == ["attempted", "correct", "failed", "metrics"],
               f"--trace {trace} result keys")
        expect(result["correct"] is True and result["attempted"] >= 1, f"--trace {trace} correct")
        want = {m["name"]: m["unit"] for m in BENCH[key]}
        got = {k: v["unit"] for k, v in result["metrics"].items()}
        expect(got == want, f"--trace {trace} emits every {key} metric with its unit")
        expect(all(isinstance(v["value"], (int, float)) for v in result["metrics"].values()),
               f"--trace {trace} values are numbers")


def _perturb(obj):
    if isinstance(obj, float):
        return obj * (1.0 + PERTURB) + PERTURB
    if isinstance(obj, list):
        return [_perturb(v) for v in obj]
    if isinstance(obj, dict):
        return {k: _perturb(v) for k, v in obj.items()}
    return obj


def corrupt(job, result):
    """A copy of a job's output with numbers moved by PERTURB."""
    if job.controlled is not None:
        return "general_linear" if result == "unitary" else "unitary"
    rc, out, err = result[-1]
    if job.kind.startswith("trajectory"):
        head, *rows = out.strip().splitlines()
        rows = [",".join([k, repr(float(r) * (1 + PERTURB)), t, p])
                for k, r, t, p in (row.split(",") for row in rows)]
        out = "\n".join([head] + rows) + "\n"
    else:
        out = json.dumps(_perturb(json.loads(out)))
    return result[:-1] + [(rc, out, err)]


def check_checkers():
    import run

    anbit = run.import_package()
    sys.path.insert(0, str(HERE))
    import workloads

    work = ROOT / ".bench_work" / "smoke"
    work.mkdir(parents=True, exist_ok=True)
    try:
        client = run.Client(anbit)
        sim = workloads.SimLarge(7, work).cycle(0)[:12]  # the 50-edge circuits
        small = workloads.SmallJobs(7, work).cycle(0)
        for job in sim + small:
            run.write_inputs([job])
            result = client.run(job)
            tag = job.check(result)
            expect(tag is None, f"{job.kind} passes its real output ({tag})")
            expect(job.check(corrupt(job, result)) is not None, f"{job.kind} flags a perturbed output")

        # one perturbed sink amplitude, nothing else changed
        job = sim[0]
        result = client.run(job)
        obj = json.loads(result[0][1])
        obj["outputs"]["t"]["amps"][0][0] += PERTURB * max(abs(obj["outputs"]["t"]["amps"][0][0]), 1.0)
        expect(job.check([(0, json.dumps(obj), "")]) is not None, "simulate flags one perturbed sink amplitude")

        # one altered netlist device value, analyzed by the program itself
        job = workloads.CompileNetlist(7, work).cycle(0)[0]
        run.write_inputs([job])
        result = client.run(job)
        expect(job.check(result) is None, f"{job.kind} passes its real output")
        netlist = job.cli[0][1]
        lines = Path(netlist).read_text().splitlines()
        i = next(k for k, line in enumerate(lines) if line.startswith("PS "))
        tag, wire, value = lines[i].split()
        lines[i] = f"{tag} {wire} {float(value) + 1e-3!r}"
        Path(netlist).write_text("\n".join(lines) + "\n")
        analyzed = client.run(workloads.Job(kind="analyze", check=None, cli=[job.cli[1]]))
        expect(job.check(result[:1] + analyzed) is not None, "analyze check flags an altered device value")
    finally:
        shutil.rmtree(work, ignore_errors=True)


def check_no_sources():
    bare = ROOT / ".bench_work" / "smoke-bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        bare.mkdir(parents=True)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in BENCH["paths"]:
            shutil.copytree(ROOT / path, bare / path, ignore=shutil.ignore_patterns("__pycache__"))
        proc = run_bench(0, cwd=bare)
        last = (proc.stdout.strip().splitlines() or [""])[-1]
        expect(proc.returncode != 0 and not last.startswith("{"),
               "without sources: exits non-zero, prints no result")
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main() -> int:
    check_checkers()
    check_no_sources()
    check_result_lines()
    print(f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
