"""Replay a fixed CLI chain and print a checksum of every output it writes.

For one fixed synthetic corpus, runs ``tune`` (3 trials x 3 folds),
``train`` from the tuned configuration, ``predict`` and ``evaluate`` for
every method, ``train`` and ``predict`` of ``sla`` and ``no_join`` at fixed
stage orders that differ, of ``sla`` and ``doc-boost`` with fixed deep,
subsampled trees and of ``sla`` with integers for float parameters, and a
small ``learning-curve`` for ``sla`` and
``doc-boost`` through ``sla.cli.main``, then prints one ``sha256  path``
line per output file, with paths relative to the output directory.  Each
bundle that ``train`` writes is loaded and saved again, as
``model.resaved.json`` next to it; the replay stops if those bytes differ
from the bundle's, so a bundle reader that changes a value (an integer
read back as a float, say) cannot pass.
Manifests are left out, since they record paths and timings.  Two
checkouts whose listings are equal wrote the same bytes.  The listing
starts with ``#`` lines that name the Python, numpy and scipy versions and
the CPU model, since numpy's kernels may round differently elsewhere;
comparisons skip them.  ``--against LISTING`` also diffs the listing with
one saved from another checkout, and exits 1 if they differ:

    PYTHONPATH=../other/src python tests/replay_outputs.py /tmp/old > old.txt
    PYTHONPATH=src python tests/replay_outputs.py /tmp/new --against old.txt

``--check`` diffs it with the checked-in listing, ``tests/replay.sha256``;
a change that means to change an output regenerates that file in the same
commit:

    PYTHONPATH=src python tests/replay_outputs.py /tmp/new --check
    PYTHONPATH=src python tests/replay_outputs.py /tmp/new > tests/replay.sha256

The ``sla`` that runs is the one on ``PYTHONPATH``.  pytest does not
collect this file; ``test_replay.py`` runs the check.
"""

from __future__ import annotations

import argparse
import contextlib
import difflib
import hashlib
import io
import json
import platform
import sys
from pathlib import Path

import numpy
import scipy

from sla import cli
from sla.tuning import METHODS, FittedVariant

LISTING = Path(__file__).with_name("replay.sha256")

GEN_CONFIG = {
    "cancer": "colon",
    "num_docs": 36,
    "lines_per_doc": [14, 18],
    "attributes": [
        {
            "attribute": "grade",
            "values": ["grade 1", "grade 2", "grade 3", "not reported"],
            "weights": [0.4, 0.35, 0.15, 0.1],
        }
    ],
    "synoptic_probability": 0.8,
    "rare_phrasing_rate": 0.3,
    "seed": 11,
}

# one scored pipeline variant and one baseline
CURVE_METHODS = ("sla", "doc-boost")
# fixed configurations, each with the methods trained on it, that a tuned
# configuration may never give: stages that read different vocabularies,
# for a joined and an unjoined variant, deep, subsampled trees, for the
# stage-1 line scorer and for doc-boost, and integers where the parameters
# are floats, which the model bundle must keep as written
FIXED_RUNS = {
    "fixed-orders": ({"line_ngram_n": 2, "final_ngram_n": 4}, ("sla", "no_join")),
    "fixed-trees": ({"max_depth": 7, "subsample": 0.5}, ("sla", "doc-boost")),
    "integer-params": ({"C": 1, "subsample": 1, "l2_lambda": 2}, ("sla",)),
}


def _run(*argv: str) -> None:
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(list(argv))
    if code != 0:
        raise SystemExit(f"sla {' '.join(argv)} exited {code}")


def _train(*argv: str) -> None:
    """``sla train`` with ``argv``, whose last item is the bundle path, then
    the bundle loaded and saved again next to it as ``model.resaved.json``;
    SystemExit if the bytes differ."""
    _run("train", *argv)
    bundle = Path(argv[-1])
    text = json.dumps(FittedVariant.load(str(bundle)).to_dict()) + "\n"
    bundle.with_name("model.resaved.json").write_text(text, encoding="utf-8")
    if text.encode("utf-8") != bundle.read_bytes():
        raise SystemExit(f"{bundle}: loading and saving the bundle changed its bytes")


def replay(out: Path) -> None:
    """Write the corpus, every method's tune, train, predict and evaluate
    outputs, the models and predictions of each of ``FIXED_RUNS``, and the
    learning curves of ``CURVE_METHODS`` under ``out``."""
    out.mkdir(parents=True, exist_ok=True)
    config = out / "gen.json"
    config.write_text(json.dumps(GEN_CONFIG), encoding="utf-8")
    corpus = str(out / "corpus.jsonl")
    _run("synth", "--config", str(config), "--out", corpus)
    for method in METHODS:
        tuned, model, preds, report = (
            str(out / method / n) for n in ("tune", "model.json", "preds.jsonl", "eval.json")
        )
        _run("tune", "--corpus", corpus, "--attribute", "grade", "--variant", method,
             "--trials", "3", "--folds", "3", "--seed", "0", "--out", tuned)
        _train("--corpus", corpus, "--attribute", "grade", "--variant", method,
               "--params", str(Path(tuned) / "best.json"), "--out", model)
        _run("predict", "--model", model, "--corpus", corpus, "--out", preds)
        _run("evaluate", "--corpus", corpus, "--preds", preds, "--out", report)
    for name, (params, methods) in FIXED_RUNS.items():
        fixed = out / f"{name}.json"
        fixed.write_text(json.dumps(params), encoding="utf-8")
        for method in methods:
            model, preds = (str(out / method / name / n) for n in ("model.json", "preds.jsonl"))
            _train("--corpus", corpus, "--attribute", "grade", "--variant", method,
                   "--params", str(fixed), "--out", model)
            _run("predict", "--model", model, "--corpus", corpus, "--out", preds)
    for method in CURVE_METHODS:
        _run("learning-curve", "--corpus", corpus, "--attribute", "grade", "--variant", method,
             "--sizes", "12", "--runs", "1", "--trials", "2", "--folds", "2",
             "--out", str(out / method / "curve"))


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment() -> list[str]:
    """The ``#`` lines that open a listing made here."""
    return [
        f"# python {platform.python_version()}\n",
        f"# numpy {numpy.__version__}\n",
        f"# scipy {scipy.__version__}\n",
        f"# cpu {_cpu_model()}\n",
    ]


def read_listing(path: Path) -> tuple[list[str], list[str]]:
    """The ``#`` lines of a saved listing, and its other lines."""
    lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
    return [x for x in lines if x.startswith("#")], [x for x in lines if not x.startswith("#")]


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description="Replay a fixed CLI chain and hash its outputs.")
    parser.add_argument("out", type=Path, help="directory to write the outputs under")
    compare = parser.add_mutually_exclusive_group()
    compare.add_argument(
        "--against", type=Path, metavar="LISTING", help="a saved listing to diff this one with"
    )
    compare.add_argument(
        "--check", action="store_const", const=LISTING, dest="against",
        help=f"diff this listing with the checked-in one, {LISTING.name}",
    )
    args = parser.parse_args(argv)
    replay(args.out)
    listing = []
    for path in sorted(p for p in args.out.rglob("*") if p.is_file()):
        if path.name == "manifest.json" or path.name.endswith(".manifest.json"):
            continue
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
        listing.append(f"{digest}  {path.relative_to(args.out).as_posix()}\n")
    sys.stdout.writelines(environment() + listing)
    if args.against is None:
        return 0
    header, saved = read_listing(args.against)
    if header and header != environment():
        sys.stderr.write(f"{args.against} was made on another machine:\n" + "".join(header))
    diff = list(difflib.unified_diff(saved, listing, str(args.against), "this checkout"))
    sys.stderr.writelines(diff)
    verdict = "differ from" if diff else "identical to"
    print(f"{len(listing)} outputs; {verdict} {args.against}", file=sys.stderr)
    return 1 if diff else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
