"""Print one SHA-256 per benchmark workload over every CLI output of some cycles.

    PYTHONPATH=src python scripts/output_digest.py --seed 1 --cycles 2

Draws the jobs of cycles 0..N-1 of each workload from perfbench/workloads.py
(read, not changed), writes their input files into a temporary directory and
runs every CLI invocation through `anbit.cli.main` in this process, one after
another as the benchmark client does; a job's saved stdout (a lowered
netlist) feeds its next invocation. Each workload's digest covers the exit
code, stdout and stderr of every invocation in order, with the temporary
directory's path replaced by a fixed token. Library jobs (no CLI) are
skipped. Two package trees whose outputs are byte-identical print the same
lines, so running this once against each shows that a change kept them.
BLAS runs on one thread unless the environment says otherwise.
"""

import argparse
import hashlib
import io
import os
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")  # before numpy loads BLAS

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
sys.path.insert(0, str(PERFBENCH))

import workloads  # noqa: E402  (perfbench/workloads.py; it imports perfbench/reference.py)

from anbit import cli  # noqa: E402


def _run(argv) -> tuple:
    """(exit code, stdout, stderr) of one `anbit` invocation."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            rc = cli.main(argv)
        except SystemExit as exc:  # argparse rejected the arguments
            rc = exc.code if isinstance(exc.code, int) else 2
        except Exception as exc:  # escaped the CLI's own handlers: part of the output too
            rc = -1
            err.write(f"{type(exc).__name__}: {exc}\n")
    return rc, out.getvalue(), err.getvalue()


def digest(name: str, seed: int, cycles: int) -> str:
    """SHA-256 of every CLI output of cycles 0..cycles-1 of workload `name`."""
    h = hashlib.sha256()
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        workload = workloads.WORKLOADS[name](seed, work)
        for c in range(cycles):
            jobs = workload.cycle(c)
            for job in jobs:
                for path, text in job.files.items():
                    Path(path).write_text(text, encoding="utf-8")
            for job in jobs:
                for argv, save in job.cli:
                    rc, out, err = _run(argv)
                    for part in (str(rc), out.replace(tmp, "<work>"), err.replace(tmp, "<work>")):
                        h.update(part.encode("utf-8"))
                        h.update(b"\0")
                    if rc != 0:
                        break
                    if save is not None:
                        Path(save).write_text(out, encoding="utf-8")
    return h.hexdigest()


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--cycles", type=int, required=True)
    ap.add_argument("--workloads", nargs="+", choices=sorted(workloads.WORKLOADS), default=list(workloads.WORKLOADS))
    args = ap.parse_args(argv)
    for name in args.workloads:
        print(f"{name} {digest(name, args.seed, args.cycles)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
