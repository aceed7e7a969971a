"""Record the learners' calls in a benchmark workload, and replay them under
two ``src`` trees: each tree's time, and whether it gives the same bytes.

``record`` runs passes of a workload from ``benchmarks/workloads.py``, each
on its own corpus as ``benchmarks/run.py`` draws them, with the ``sla`` on
``PYTHONPATH``. It saves the arguments of every ``learners._fit_l1_binary``
call (one binary L1 solve) and every ``learners.train_gbt`` call:

    PYTHONPATH=src python tests/learner_replay.py record calls.pkl \\
        --workload search-doclogreg --seed 0 --passes 3

``replay`` runs every recorded call under each tree, in a fresh process per
tree and repeat, with the trees' order alternating between repeats. For
each function it prints the number of calls, each tree's best total time
and how many calls gave byte-identical outputs under both trees. It exits
1 if any call's output differs, or if a tree's outputs change between its
repeats:

    python tests/learner_replay.py replay calls.pkl ../parent/src src --repeats 5

``time CALLS`` is one such run, with the ``sla`` on ``PYTHONPATH``; it
prints its times and output digests as JSON.  The recording is a pickle,
so replay only recordings you made.  pytest does not collect this file.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import os
import pickle
import subprocess
import sys
import time
import warnings
from pathlib import Path

import numpy as np

BENCHMARKS = Path(__file__).resolve().parent.parent / "benchmarks"
FUNCTIONS = ("_fit_l1_binary", "train_gbt")


def _rebind(old, new) -> None:
    """Bind ``new`` wherever a loaded ``sla`` module binds ``old``."""
    for name, module in list(sys.modules.items()):
        if name == "sla" or name.startswith("sla."):
            for attr, value in list(vars(module).items()):
                if value is old:
                    setattr(module, attr, new)


def record(path: Path, workload_name: str, seed: int, passes: int) -> int:
    sys.path.insert(0, str(BENCHMARKS))
    import workloads
    from sla import learners

    calls: list[tuple[str, bytes]] = []

    def recorder(name: str):
        original = getattr(learners, name)

        def recorded(*args, **kwargs):
            # pickled now, as the arguments stand at the call
            calls.append((name, pickle.dumps((args, kwargs))))
            return original(*args, **kwargs)

        _rebind(original, recorded)

    for name in FUNCTIONS:
        recorder(name)
    workload = workloads.WORKLOADS[workload_name]
    for index in range(passes):
        inputs = workloads.make_inputs(workload, workloads.pass_seed(seed, index))
        workloads.run_pass(workload, inputs, workloads.Checks())
    path.write_bytes(pickle.dumps(calls))
    counts = {name: sum(1 for n, _ in calls if n == name) for name in FUNCTIONS}
    print(f"{path}: " + ", ".join(f"{counts[n]} {n} calls" for n in FUNCTIONS))
    return 0


def _digest(result) -> str:
    """sha256 over the bytes of each array, and the repr of each other value,
    of a returned tuple or dataclass."""
    if dataclasses.is_dataclass(result):
        result = [getattr(result, f.name) for f in dataclasses.fields(result)]
    h = hashlib.sha256()
    for part in result:
        h.update(part.tobytes() if isinstance(part, np.ndarray) else repr(part).encode())
    return h.hexdigest()


def time_calls(path: Path) -> int:
    from sla import learners

    calls = [(name, *pickle.loads(blob)) for name, blob in pickle.loads(path.read_bytes())]
    times = dict.fromkeys(FUNCTIONS, 0.0)
    digests: dict[str, list[str]] = {name: [] for name in FUNCTIONS}
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # solves that stop at max_iter
        for name, args, kwargs in calls:
            function = getattr(learners, name)
            start = time.perf_counter()
            result = function(*args, **kwargs)
            times[name] += time.perf_counter() - start
            digests[name].append(_digest(result))
    json.dump({"sla": learners.__file__, "times": times, "digests": digests}, sys.stdout)
    return 0


def replay(path: Path, trees: list[Path], repeats: int) -> int:
    best = [dict.fromkeys(FUNCTIONS, float("inf")) for _ in trees]
    digests: list[dict | None] = [None] * len(trees)
    where = [""] * len(trees)
    unstable = []
    for repeat in range(repeats):
        order = range(len(trees)) if repeat % 2 == 0 else reversed(range(len(trees)))
        for i in order:
            env = dict(os.environ, PYTHONPATH=str(trees[i].resolve()))
            run = subprocess.run(
                [sys.executable, __file__, "time", str(path)],
                env=env, capture_output=True, text=True, check=True,
            )
            result = json.loads(run.stdout)
            where[i] = result["sla"]
            if digests[i] is None:
                digests[i] = result["digests"]
            elif digests[i] != result["digests"]:
                unstable.append(trees[i])
            for name, seconds in result["times"].items():
                best[i][name] = min(best[i][name], seconds)

    for tree, module in zip(trees, where):
        print(f"# {tree}: {module}")
    print(f"{'function':<16} {'calls':>6} {'first s':>9} {'second s':>9} {'ratio':>7}  identical")
    differ = False
    for name in FUNCTIONS:
        first, second = (d[name] for d in digests)
        same = sum(a == b for a, b in zip(first, second))
        differ |= same != len(first)
        a, b = best[0][name], best[1][name]
        ratio = f"{b / a:7.3f}" if a > 0 else f"{'-':>7}"
        print(f"{name:<16} {len(first):>6} {a:9.3f} {b:9.3f} {ratio}  {same}/{len(first)}")
    for tree in sorted(set(unstable)):
        print(f"{tree}: outputs changed between repeats", file=sys.stderr)
    return 1 if differ or unstable else 0


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    commands = parser.add_subparsers(dest="command", required=True)
    rec = commands.add_parser("record", help="record the learner calls of a workload's passes")
    rec.add_argument("calls", type=Path)
    rec.add_argument("--workload", required=True)
    rec.add_argument("--seed", type=int, default=0)
    rec.add_argument("--passes", type=int, default=3)
    rep = commands.add_parser("replay", help="replay recorded calls under two src trees")
    rep.add_argument("calls", type=Path)
    rep.add_argument("trees", type=Path, nargs=2, metavar="SRC")
    rep.add_argument("--repeats", type=int, default=5)
    one = commands.add_parser("time", help="replay recorded calls once, with the sla on PYTHONPATH")
    one.add_argument("calls", type=Path)
    args = parser.parse_args(argv)
    if args.command == "record":
        return record(args.calls, args.workload, args.seed, args.passes)
    if args.command == "replay":
        return replay(args.calls, args.trees, args.repeats)
    return time_calls(args.calls)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
