"""Run one workload of the sla benchmark and print its metrics.

    python3 benchmarks/run.py --workload train-predict --seed 0 --seconds 15 --trace 0

With ``--trace 0`` it measures the end-to-end metrics with tracing off;
with ``--trace 1`` it makes one untraced and one traced pass and reports
the per-layer metrics.  Human-readable lines come first; the last line of
standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  The exit code is 1 when an
output check failed and 2 when the package could not be imported from
this checkout's ``src/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

THREAD_VARIABLES = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def import_sla_from_checkout():
    """Import ``sla`` from this checkout's ``src/``, never from an installed
    copy, which would measure other code."""
    sys.path.insert(0, SRC)
    try:
        import sla
    except ImportError as exc:
        print(f"error: cannot import sla from {SRC}: {exc}", file=sys.stderr)
        sys.exit(2)
    location = os.path.dirname(os.path.abspath(sla.__file__))
    if os.path.commonpath([location, SRC]) != SRC:
        print(f"error: imported sla from {location}, not from {SRC}", file=sys.stderr)
        sys.exit(2)
    return sla


def _git(*args: str) -> str | None:
    try:
        done = subprocess.run(
            ["git", "-C", ROOT, *args], capture_output=True, text=True, timeout=30
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def _cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def provenance(sla) -> dict:
    """Machine facts and the code measured."""
    import numpy
    import scipy

    in_repo = _git("rev-parse", "--show-toplevel") == ROOT
    status = _git("status", "--porcelain") if in_repo else None
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "thread_env": {k: os.environ[k] for k in THREAD_VARIABLES if k in os.environ},
        "git_commit": _git("rev-parse", "HEAD") if in_repo else None,
        "git_dirty": None if status is None else bool(status),
        "sla_file": sla.__file__,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="also write the full result, with spans, to this JSON file")
    args = parser.parse_args(argv)

    sla = import_sla_from_checkout()
    sys.path.insert(0, HERE)
    import layers
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(workloads.WORKLOADS)}")
    workload = workloads.WORKLOADS[args.workload]
    facts = provenance(sla)
    print("provenance " + json.dumps(facts, sort_keys=True), flush=True)
    if args.trace:
        run, units = workloads.trace(workload, args.seed), layers.UNITS
    else:
        run, units = workloads.measure(workload, args.seed, args.seconds), workloads.UNITS

    for note in run.notes:
        print(note)
    for name, value in run.metrics.items():
        print(f"{args.workload:17s} {name:46s} {value:14.6f} {units[name]}")
    failed = run.checks.failed
    print(f"{args.workload:17s} {'ops_attempted':46s} {run.attempted:14d} count")
    print(f"{args.workload:17s} {'ops_failed':46s} {failed:14d} count")
    result = {
        "correct": failed == 0,
        "attempted": run.attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": units[name]} for name, value in run.metrics.items()
        },
    }
    if args.out:
        record = dict(result, workload=args.workload, seed=args.seed, seconds=args.seconds,
                      trace=args.trace, provenance=facts, notes=run.notes)
        if run.spans is not None:
            record["spans"] = run.spans
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(record, fh)
    print(json.dumps(result), flush=True)
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
