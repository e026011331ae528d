"""anbit benchmark: one closed-loop client driving `anbit.cli.main` in-process.

    python3 perfbench/run.py --workload sim-large --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the package is imported from its
`src/` directory. One client sends each job only after the previous one
returned. Jobs come in whole cycles (see workloads.py) until --seconds have
passed and at least MIN_JOBS jobs ran. Every output is checked against an
independent numpy reference (reference.py).

--trace 0 reports the end-to-end metrics, with job times scaled to a
reference host speed by a calibration kernel timed between jobs (speed.py);
raw wall times are printed on a comment line. --trace 1 runs the workload's
fixed number of trace cycles twice, untraced and then with layer spans
installed (spans.py), reports per-layer metrics per job plus the tracing
overhead, and adds the scaling probe on the re-anchor sizes and the
seed-defect probe (probe.py).

The last stdout line is one JSON object with keys correct, attempted, failed
and metrics. `failed` counts the jobs that raised, exited non-zero or missed
the tolerance. The workloads are drawn so that no job fails at the seed; the
seed's known defects are counted by the seed-defect probe instead. `correct`
is false when a failure is not one of reference.KNOWN_SEED_FAILURES.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

MIN_JOBS = 100
SETUP_REPEATS = 9
# BLAS threads per workload (default 1), capped at nproc. sim-large's SVDs of
# up to 1600 rows gain from a second thread: with one, its p90 spread across
# runs rose from 0.07 to 0.19. compile-netlist's products of 62-98-wire
# matrices lose: with two, its p90 spread was 0.15, with one 0.02.
BLAS_THREADS = {"sim-large": 2}
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

END_TO_END_UNITS = {
    "setup_s": "s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "throughput_jobs_s": "1/s",
    "peak_rss_mb": "MB",
}

# per-layer metric -> (span or counter, statistic, unit); all per job of the traced pass
PER_JOB_LAYERS = {
    "circuits.solve.calls": ("circuits.solve", "calls", "calls/job"),
    "circuits.solve.ms": ("circuits.solve", "ms", "ms/job"),
    "circuits.solve.edges": ("circuits.solve.edges", "count", "edges/job"),
    "circuits.solve.singular": ("circuits.solve.singular", "count", "count/job"),
    "lowering.forward_transfer.calls": ("lowering.forward_transfer", "calls", "calls/job"),
    "lowering.forward_transfer.ms": ("lowering.forward_transfer", "ms", "ms/job"),
    "lowering.backward_transfer.calls": ("lowering.backward_transfer", "calls", "calls/job"),
    "lowering.backward_transfer.ms": ("lowering.backward_transfer", "ms", "ms/job"),
    "lowering.check_fb_symmetry.self_ms": ("lowering.check_fb_symmetry", "self_ms", "ms/job"),
    "lowering.scattering_matrix.self_ms": ("lowering.scattering_matrix", "self_ms", "ms/job"),
    "lowering.lower.self_ms": ("lowering.lower", "self_ms", "ms/job"),
    "lowering.devices": ("lowering.devices", "count", "devices/job"),
    "lowering.wires": ("lowering.wires", "count", "wires/job"),
    "serialization.netlist_to_text.ms": ("serialization.netlist_to_text", "ms", "ms/job"),
    "serialization.netlist_from_text.ms": ("serialization.netlist_from_text", "ms", "ms/job"),
    "serialization.bytes_out": ("serialization.bytes_out", "count", "bytes/job"),
    "decompositions.euler.ms": ("decompositions.euler", "ms", "ms/job"),
    "decompositions.svd2.ms": ("decompositions.svd2", "ms", "ms/job"),
    "decompositions.pauli_decompose.ms": ("decompositions.pauli_decompose", "ms", "ms/job"),
    "decompositions.mostow_synthesize.ms": ("decompositions.mostow_synthesize", "ms", "ms/job"),
    "gates.GateMatrix.calls": ("gates.GateMatrix", "calls", "calls/job"),
    "gates.GateMatrix.ms": ("gates.GateMatrix", "ms", "ms/job"),
    "gates.controlled.ms": ("gates.controlled", "ms", "ms/job"),
    "serialization.gate_from_obj.ms": ("serialization.gate_from_obj", "ms", "ms/job"),
    "serialization.dumps.ms": ("serialization.dumps", "ms", "ms/job"),
    "measurement.measure.ms": ("measurement.measure", "ms", "ms/job"),
    "algebra.to_bloch.ms": ("algebra.to_bloch", "ms", "ms/job"),
    "cli.self_ms": ("cli", "self_ms", "ms/job"),
    "serialization.circuit_from_obj.ms": ("serialization.circuit_from_obj", "ms", "ms/job"),
}


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def import_package():
    """Import anbit from this checkout's src/, never from anywhere else."""
    sys.path.insert(0, str(SRC))
    import anbit.cli

    if Path(anbit.cli.__file__).resolve().parent != (SRC / "anbit").resolve():
        raise SystemExit(f"error: imported anbit from {anbit.cli.__file__}, not {SRC}")
    return anbit


def blas_threads(workload: str) -> int:
    return min(BLAS_THREADS.get(workload, 1), os.cpu_count() or 1)


def child_env() -> dict:
    """This process's environment, BLAS threads included, importing from src/."""
    return dict(os.environ, PYTHONPATH=str(SRC))


def measure_setup() -> dict:
    """Median time of `import anbit.cli` in a fresh interpreter (.pyc warm).

    Each import is bracketed by interpreter-kernel timings (speed.py); returns
    the median raw and the median scaled time.
    """
    import speed as speed_mod

    code = (
        "import time; t = time.perf_counter(); import anbit.cli; "
        "print(time.perf_counter() - t); print(anbit.cli.__file__)"
    )
    speed = speed_mod.Speed("interpreter")
    raw, scaled = [], []
    for i in range(SETUP_REPEATS + 1):
        speed.sample()
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-c", code], env=child_env(), cwd=ROOT,
            capture_output=True, text=True, timeout=60, check=True,
        )
        end = time.perf_counter()
        speed.sample()
        elapsed, where = proc.stdout.split("\n")[:2]
        if Path(where).resolve().parent != (SRC / "anbit").resolve():
            raise SystemExit(f"error: setup probe imported anbit from {where}")
        if i:  # the first import writes the bytecode cache
            raw.append(float(elapsed))
            scaled.append(float(elapsed) * speed.factor(start, end))
    return {"raw": statistics.median(raw), "scaled": statistics.median(scaled)}


def environment(threads: int) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    sha = None
    if (ROOT / ".git").exists():  # an exported checkout has no history to ask
        try:
            sha = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10,
            ).stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": threads,
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "git_sha": sha,
    }


class Client:
    """The single closed-loop client: runs jobs one after another."""

    def __init__(self, anbit, tracer=None):
        self.anbit, self.tracer = anbit, tracer

    def run(self, job):
        if self.tracer is None:
            return self._run(job)
        with self.tracer.span("job"):
            return self._run(job)

    def _run(self, job):
        if job.controlled is not None:
            gates = self.anbit.gates
            entries, n = job.controlled
            try:
                return gates.controlled(gates.GateMatrix(entries), n).embedded.gate_class.value
            except Exception as exc:  # a failed job is recorded, the client keeps going
                return f"raised:{type(exc).__name__}"
        outs = []
        for argv, save in job.cli:
            out, err = io.StringIO(), io.StringIO()
            with redirect_stdout(out), redirect_stderr(err):
                rc = self._main(argv)
            outs.append((rc, out.getvalue(), err.getvalue()))
            if rc != 0:
                break
            if save is not None:
                with open(save, "w", encoding="utf-8") as fh:
                    fh.write(out.getvalue())
        return outs

    def _main(self, argv) -> int:
        try:
            if self.tracer is None:
                return self.anbit.cli.main(argv)
            with self.tracer.span("cli"):
                return self.anbit.cli.main(argv)
        except SystemExit as exc:  # argparse rejected the arguments
            return exc.code if isinstance(exc.code, int) else 2
        except Exception as exc:  # escaped the CLI's own handlers
            sys.stderr.write(json.dumps({"error": type(exc).__name__, "message": str(exc)}) + "\n")
            return -1


class Tally:
    """Job times and check outcomes of one pass."""

    def __init__(self):
        self.spans: list = []  # (start, end, speed kernel) of each job, perf_counter times
        self.tags: Counter = Counter()

    @property
    def attempted(self) -> int:
        return len(self.spans)

    @property
    def wall(self) -> float:
        return sum(end - start for start, end, _ in self.spans)

    @property
    def failed(self) -> int:
        return sum(self.tags.values())

    @property
    def unexpected(self) -> Counter:
        import reference

        return Counter({t: n for t, n in self.tags.items() if t not in reference.KNOWN_SEED_FAILURES})

    def scaled(self, speed) -> list:
        """Job times scaled to the reference host speed."""
        return [(end - start) * speed.factor(start, end, kernel) for start, end, kernel in self.spans]


def write_inputs(jobs):
    for job in jobs:
        for path, text in job.files.items():
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text)


def run_cycle(client, jobs, tally: Tally, speed):
    write_inputs(jobs)
    results = []
    for job in jobs:
        speed.between_jobs()
        start = time.perf_counter()
        results.append(client.run(job))
        tally.spans.append((start, time.perf_counter(), job.kernel))
    for job, result in zip(jobs, results):
        tag = job.check(result)
        if tag is not None:
            tally.tags[tag] += 1


def timing_metrics(times, setup_s) -> dict:
    deciles = statistics.quantiles(times, n=10, method="inclusive")
    return {
        "setup_s": setup_s,
        "latency_p50_ms": 1e3 * deciles[4],
        "latency_p90_ms": 1e3 * deciles[8],
        "throughput_jobs_s": len(times) / sum(times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def warm_up(client, workload, speed):
    jobs = workload.cycle(10**6)[: workload.warmup_jobs]
    run_cycle(client, jobs, Tally(), speed)


def run_untraced(anbit, workload, seconds, setup) -> dict:
    import speed as speed_mod

    speed = speed_mod.Speed(*workload.kernels)
    client = Client(anbit)
    warm_up(client, workload, speed)
    tally = Tally()
    start = time.perf_counter()
    cycles = 0
    while cycles == 0 or time.perf_counter() - start < seconds or tally.attempted < MIN_JOBS:
        run_cycle(client, workload.cycle(cycles), tally, speed)
        cycles += 1
    speed.sample()  # brackets the last job
    raw = [end - start for start, end, _ in tally.spans]
    return {
        "tally": tally,
        "metrics": timing_metrics(tally.scaled(speed), setup["scaled"]),
        "raw": timing_metrics(raw, setup["raw"]),
        "cycles": cycles,
        "kernel_ms": {k: 1e3 * statistics.median(s) for k, s in speed.seconds.items()},
    }


def run_traced(anbit, workload) -> dict:
    import probe
    import spans
    import speed as speed_mod

    speed = speed_mod.Speed(*workload.kernels)
    client = Client(anbit)
    warm_up(client, workload, speed)
    plain = Tally()
    for c in range(workload.trace_cycles):
        run_cycle(client, workload.cycle(c), plain, speed)

    tracer = spans.Tracer()
    restore = tracer.install()
    try:
        traced = Tally()
        client = Client(anbit, tracer)
        for c in range(workload.trace_cycles):
            run_cycle(client, workload.cycle(c), traced, speed)
    finally:
        restore()
    speed.sample()

    probe_metrics, probe_tags = probe.run(anbit, workload.seed)
    defect_counts, defect_tags = probe.seed_defects(Client(anbit), workload.work, workload.seed)
    layers = tracer.layers()
    jobs = traced.attempted
    metrics = {}
    for metric, (source, stat, unit) in PER_JOB_LAYERS.items():
        calls, total, own = layers.get(source, (0, 0.0, 0.0))
        value = {
            "calls": calls,
            "ms": 1e3 * total,
            "self_ms": 1e3 * own,
            "count": tracer.counts.get(source, 0),
        }[stat]
        metrics[metric] = (value / jobs, unit)
    overhead = sum(traced.scaled(speed)) / sum(plain.scaled(speed)) - 1.0
    metrics["trace.overhead_frac"] = (overhead, "ratio")
    for metric, value in probe_metrics.items():
        metrics[metric] = (value, "ms")
    for metric, value in defect_counts.items():
        metrics[metric] = (value, "count")
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    tracer.write(out_dir / f"spans-{workload.name}-seed{workload.seed}.csv")
    # the traced pass is the one reported; the others can still make it incorrect
    unexpected = traced.unexpected + plain.unexpected + probe_tags + defect_tags
    return {"tally": traced, "metrics": metrics, "unexpected": unexpected}


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "anbit" / "cli.py").is_file():
        raise SystemExit(f"error: no anbit sources under {SRC}; run from a source checkout")
    # BLAS reads its thread count when numpy loads, so fix it before any import
    threads = blas_threads(args.workload)
    os.environ.update({var: str(threads) for var in BLAS_VARS})
    sys.path.insert(0, str(HERE))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        raise SystemExit(f"error: unknown workload {args.workload!r}; "
                         f"choose from {sorted(workloads.WORKLOADS)}")
    setup = None if args.trace else measure_setup()
    anbit = import_package()
    work = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        workload = workloads.WORKLOADS[args.workload](args.seed, work)
        if args.trace:
            res = run_traced(anbit, workload)
            metrics = {k: {"value": v, "unit": u} for k, (v, u) in res["metrics"].items()}
        else:
            res = run_untraced(anbit, workload, args.seconds, setup)
            metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in res["metrics"].items()}
    finally:
        shutil.rmtree(work, ignore_errors=True)

    tally = res["tally"]
    fail_frac = {"fail_frac": {"value": tally.failed / tally.attempted, "unit": "ratio"}}
    print("# environment " + json.dumps(environment(threads)))
    if not args.trace:
        print(f"# {args.workload} seed {args.seed}: {res['cycles']} cycles, {tally.attempted} jobs, "
              f"{tally.wall:.3f} s of jobs, kernel medians "
              + ", ".join(f"{k} {ms:.4f} ms" for k, ms in res["kernel_ms"].items()))
        print("# end-to-end " + json.dumps({**metrics, **fail_frac}))
        raw = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in res["raw"].items()}
        print("# end-to-end, raw wall times " + json.dumps({**raw, **fail_frac}))
    print("# failures " + json.dumps(dict(tally.tags)))
    unexpected = res.get("unexpected", tally.unexpected)
    if unexpected:
        print("# unexpected failures " + json.dumps(dict(unexpected)))
    print(json.dumps({
        "correct": not unexpected,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
