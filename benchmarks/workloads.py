"""The benchmark's workloads and how one run measures them.

Each workload stands for one thing users run (``tune``, ``train``,
``predict``) and calls only public functions of ``sla``.  A run is a closed
loop: one caller in one process, each call waiting for the previous one,
no ``--jobs``.  See README.md in this directory for why each workload was
chosen.
"""

from __future__ import annotations

import dataclasses
import os
import resource
import statistics
import sys
import tempfile
import time
from dataclasses import dataclass

import numpy as np

import sla
from sla.corpus import schema_value_order

from layers import TARGETS, layer_metrics
from speed import SpeedProbe, deferred_samples
from tracer import Tracer

HERE = os.path.dirname(os.path.abspath(__file__))

ATTRIBUTE = "grade"
GRADE_5 = ("grade 1", "grade 2", "grade 3", "grade 4", "not reported")

# The seed handed to random_search, which fixes the trial configurations
# (and, with the labels, the folds).  It is part of the workload, like the
# trial count: the configurations tried set most of a search's cost, and
# drawing them from --seed made the doc-logreg search take 4.4 to 13.6 s
# across seeds 0-9.  --seed draws the corpus and the split.
SEARCH_SEED = 0

# held-out documents that check_repeat predicts again
REPEAT_DOCS = 50

# Each pass predicts its held-out documents SWEEPS times over, and a
# document's latency is the fastest of its sweeps.  A shared machine stalls
# single predictions for a scheduler tick or more; one such stall in a
# hundred documents would otherwise set p99.  Later sweeps must repeat the
# first one's outputs.
SWEEPS = 2

# End-to-end metric name -> unit.
UNITS = {
    "setup_s": "s",
    "fit_s": "s",
    "predict_docs_per_s": "1/s",
    "predict_doc_ms_p50": "ms",
    "predict_doc_ms_p99": "ms",
    "heldout_micro_f1": "ratio",
    "peak_rss_mb": "MB",
}


def family_a(seed: int, num_docs: int) -> sla.GenConfig:
    """Corpus family A of acceptance criterion 1: colon, 30-38 lines per
    document, grade plus lymphovascular and perineural invasion, with
    misleading qualified mentions."""
    return sla.GenConfig(
        cancer="colon",
        num_docs=num_docs,
        lines_per_doc=(30, 38),
        attributes=(
            sla.synth.SynthAttribute("grade", GRADE_5, weights=(0.3, 0.3, 0.2, 0.1, 0.1)),
            sla.synth.SynthAttribute(
                "lymphovascular_invasion",
                ("present", "absent", "not reported"),
                weights=(0.4, 0.5, 0.1),
            ),
            sla.synth.SynthAttribute(
                "perineural_invasion",
                ("present", "absent", "not reported"),
                weights=(0.35, 0.55, 0.1),
            ),
        ),
        synoptic_probability=0.8,
        rare_phrasing_rate=0.5,
        seed=seed,
    )


@dataclass(frozen=True)
class Workload:
    """One workload.  With ``trials`` set it is a search workload:
    random_search, then a refit of the best configuration.  Otherwise it
    trains ``hyper`` once and round-trips the model bundle.  Either way it
    then predicts every held-out document, one at a time.  A run makes at
    least ``min_passes`` passes, each on its own corpus."""

    name: str
    variant: str
    train_docs: int
    heldout_docs: int
    f1_floor: float
    min_passes: int
    trials: int = 0
    folds: int = 0
    space: dict | None = None
    hyper: dict | None = None

    def search_space(self):
        return None if self.space is None else sla.tuning.SearchSpace(self.space)


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="search-doclogreg",
            variant="doc-logreg",
            train_docs=32,
            heldout_docs=500,
            f1_floor=0.6,
            # the search's cost, and the n-gram order of the configuration it
            # picks, change from one corpus to the next: average three (four
            # made runs of about a minute, too long for the time budget)
            min_passes=3,
            trials=8,
            folds=3,
            space={"ngram_n": (1, 2, 3, 4), "C": sla.tuning.log_grid(-2, 4, 13)},
        ),
        Workload(
            name="tune-sla",
            variant="sla",
            train_docs=64,
            heldout_docs=500,
            f1_floor=0.9,
            min_passes=2,
            trials=3,
            folds=4,
        ),
        Workload(
            name="train-predict",
            variant="sla",
            train_docs=128,
            heldout_docs=500,
            f1_floor=0.95,
            min_passes=2,
            hyper={"line_ngram_n": 3, "final_ngram_n": 3, "k": 3},
        ),
    )
}


def tiny(workload: Workload) -> Workload:
    """A seconds-long version of a workload, for smoke tests.  Its F1 floor
    is 0: a model fitted on 8 documents has no accuracy to promise."""
    return dataclasses.replace(
        workload,
        train_docs=8,
        heldout_docs=6,
        f1_floor=0.0,
        trials=min(workload.trials, 1),
        folds=min(workload.folds, 2),
    )


# ---------------------------------------------------------------------------
# checks
# ---------------------------------------------------------------------------


class Checks:
    """Output checks.  A failed check is printed on stderr and counts as
    one failed op."""

    def __init__(self) -> None:
        self.failed = 0

    def expect(self, ok: bool, message: str) -> None:
        if not ok:
            self.failed += 1
            print(f"CHECK FAILED: {message}", file=sys.stderr, flush=True)


@dataclass(frozen=True)
class Inputs:
    seed: int
    train: list
    heldout: list
    golds: tuple
    schemas: dict


def pass_seed(seed: int, index: int) -> int:
    """The corpus seed of pass ``index`` of a run with ``--seed seed``.
    Any integer is a seed; SeedSequence itself takes only non-negative ones."""
    return int(np.random.SeedSequence((seed % 2**64, index)).generate_state(1)[0])


def make_inputs(workload: Workload, seed: int) -> Inputs:
    """Generate and split the workload's corpus: the timed part of set-up."""
    schemas = sla.load_schemas()
    docs = sla.generate_corpus(family_a(seed, workload.train_docs + workload.heldout_docs))
    split = sla.split_corpus(docs, workload.train_docs, seed=seed)
    # through the module attribute, so the traced run sees the call
    train = sla.corpus.select_documents(docs, split.train_ids)
    heldout = sla.corpus.select_documents(docs, split.test_ids)
    golds = tuple(
        sla.compose_label(
            d.annotations[ATTRIBUTE].values,
            schema_value_order(schemas, d.report.cancer, ATTRIBUTE),
        )
        for d in heldout
    )
    return Inputs(seed, train, heldout, golds, schemas)


Interval = tuple[float, float]


@dataclass
class PassResult:
    """Outputs of one pass over a workload, and the (start, end) clock
    readings of its timed steps."""

    best: dict | None
    labels: tuple
    rationales: tuple
    ops: int
    search: Interval | None
    train: Interval
    roundtrip: Interval | None
    sweeps: list[Interval]
    docs: list[list[Interval]]  # per sweep, one interval per held-out document

    def outputs(self) -> tuple:
        return (self.best, self.labels, self.rationales)

    @property
    def end(self) -> float:
        return self.sweeps[-1][1]


def _check_predictions(checks: Checks, model, heldout, predicted) -> None:
    """Labels lie in the model's class set; rationales are disjoint, inside
    the report, at most k segments."""
    classes = _classes(model)
    for doc, (label, rationale) in zip(heldout, predicted):
        checks.expect(label in classes, f"doc {doc.report.id}: label {label!r} not in {classes}")
        if rationale is not None:
            _check_rationale(checks, doc, rationale, model.k)


def _check_rationale(checks: Checks, doc, rationale, k: int) -> None:
    segments = rationale.segments
    where = f"doc {doc.report.id}"
    checks.expect(len(segments) <= k, f"{where}: {len(segments)} segments for k={k}")
    prev_end = -1
    for seg in segments:
        checks.expect(
            prev_end < seg.start <= seg.end < len(doc.report.lines),
            f"{where}: segment ({seg.start}, {seg.end}) overlaps or leaves the report",
        )
        prev_end = seg.end


def _fit(workload: Workload, inputs: Inputs, best: dict | None):
    """The workload's model fit: the refit of ``best`` on a search workload,
    train_sla otherwise.  Returns an SlaModel, or a baseline's
    FittedVariant."""
    if workload.trials:
        fitted = sla.fit_variant(
            workload.variant, inputs.train, ATTRIBUTE, best, seed=inputs.seed, schemas=inputs.schemas
        )
        return fitted.sla_model or fitted
    return sla.train_sla(
        inputs.train, ATTRIBUTE, hyper=sla.SlaHyperParams(**workload.hyper), schemas=inputs.schemas
    )


def _classes(model) -> tuple:
    if isinstance(model, sla.SlaModel):
        return model.final_classifier.classes
    return model.baseline.linear.classes


def _predict(model, doc):
    """Label and rationale (None for a baseline) of one document."""
    if isinstance(model, sla.SlaModel):
        prediction = sla.predict_sla(model, doc.report)
        return prediction.label, prediction.rationale
    return model.predict_label(doc), None


def _segments(rationale) -> tuple | None:
    if rationale is None:
        return None
    return tuple((s.start, s.end, s.weight) for s in rationale.segments)


def run_pass(workload: Workload, inputs: Inputs, checks: Checks) -> PassResult:
    clock = time.perf_counter
    best = search = roundtrip = None
    if workload.trials:
        start = clock()
        best, _ = sla.random_search(
            inputs.train,
            ATTRIBUTE,
            space=workload.search_space(),
            trials=workload.trials,
            folds=workload.folds,
            seed=SEARCH_SEED,
            variant=workload.variant,
            schemas=inputs.schemas,
        )
        search = (start, clock())
    start = clock()
    model = _fit(workload, inputs, best)
    train = (start, clock())
    if not workload.trials:
        with tempfile.TemporaryDirectory(prefix=".bundle-", dir=HERE) as tmp:
            path = os.path.join(tmp, "model.json")
            start = clock()
            sla.save_model(model, path)
            model = sla.load_model(path)
            roundtrip = (start, clock())

    sweeps, docs, predictions = [], [], []
    for _ in range(SWEEPS):
        times, predicted = [], []
        sweep_start = clock()
        for doc in inputs.heldout:
            with deferred_samples():
                start = clock()
                predicted.append(_predict(model, doc))
                times.append((start, clock()))
        sweeps.append((sweep_start, clock()))
        docs.append(times)
        predictions.append([(label, _segments(rationale)) for label, rationale in predicted])
        if len(predictions) == 1:
            _check_predictions(checks, model, inputs.heldout, predicted)

    labels = tuple(label for label, _ in predictions[0])
    rationales = tuple(segments for _, segments in predictions[0])
    for sweep, again in enumerate(predictions[1:], start=1):
        for doc, first, repeat in zip(inputs.heldout, predictions[0], again):
            checks.expect(
                repeat == first,
                f"{workload.name}: sweep {sweep} predicts doc {doc.report.id} as {repeat!r}, "
                f"sweep 0 as {first!r}",
            )
    return PassResult(
        best=best,
        labels=labels,
        rationales=rationales,
        ops=(2 if search else 1) + SWEEPS * len(inputs.heldout),
        search=search,
        train=train,
        roundtrip=roundtrip,
        sweeps=sweeps,
        docs=docs,
    )


def check_repeat(checks: Checks, workload: Workload, inputs: Inputs, result: PassResult) -> None:
    """Fit the pass's model again (its search is repeated by the traced run)
    and predict its first REPEAT_DOCS held-out documents: labels and
    rationale must be the same."""
    model = _fit(workload, inputs, result.best)
    for i, doc in enumerate(inputs.heldout[:REPEAT_DOCS]):
        label, rationale = _predict(model, doc)
        again, first = (label, _segments(rationale)), (result.labels[i], result.rationales[i])
        checks.expect(
            again == first,
            f"{workload.name}: a repeated fit predicts doc {doc.report.id} as {again!r}, "
            f"the first fit as {first!r}",
        )


# ---------------------------------------------------------------------------
# one run
# ---------------------------------------------------------------------------


@dataclass
class RunResult:
    metrics: dict[str, float]
    attempted: int
    checks: Checks
    notes: list[str]
    spans: list | None = None


def _timed_inputs(workload: Workload, seed: int) -> tuple[Inputs, Interval]:
    start = time.perf_counter()
    inputs = make_inputs(workload, seed)
    return inputs, (start, time.perf_counter())


def _wall(interval: Interval) -> float:
    return interval[1] - interval[0]


def _check_f1(checks: Checks, workload: Workload, result: PassResult, inputs: Inputs) -> float:
    f1 = sla.micro_f1(list(result.labels), list(inputs.golds))
    checks.expect(
        f1 >= workload.f1_floor,
        f"{workload.name}: held-out micro-F1 {f1:.4f} below the floor {workload.f1_floor}",
    )
    return f1


def measure(workload: Workload, seed: int, seconds: float, setups: int = 5) -> RunResult:
    """Untraced run.  Pass ``i`` fits and predicts on its own corpus, drawn
    from ``pass_seed(seed, i)``, so a run averages over several corpora.
    The corpora of the first ``setups`` passes are set up first; later ones
    just before their pass.  Passes go on until ``seconds`` have gone, and
    there are at least ``workload.min_passes``.  Reports the end-to-end metrics, in
    seconds at nominal machine speed (see speed.py), as medians over
    set-ups and passes."""
    checks = Checks()
    passes: list[PassResult] = []
    f1_values: list[float] = []
    setup_intervals: list[Interval] = []
    upcoming: list[Inputs] = []
    first_inputs = None

    def set_up() -> None:
        inputs, interval = _timed_inputs(workload, pass_seed(seed, len(setup_intervals)))
        upcoming.append(inputs)
        setup_intervals.append(interval)

    with SpeedProbe() as probe:
        for _ in range(setups):
            set_up()
        started = time.perf_counter()
        while len(passes) < workload.min_passes or time.perf_counter() - started < seconds:
            if not upcoming:
                set_up()
            inputs = upcoming.pop(0)
            first_inputs = first_inputs or inputs
            passes.append(run_pass(workload, inputs, checks))
            f1_values.append(_check_f1(checks, workload, passes[-1], inputs))
    check_repeat(checks, workload, first_inputs, passes[0])

    def timings(duration) -> dict[str, float]:
        fit = [sum(duration(i) for i in (p.search, p.train) if i) for p in passes]
        setup = statistics.median(duration(i) for i in setup_intervals)
        if passes[0].roundtrip:
            setup += statistics.median(duration(p.roundtrip) for p in passes)
        # a document's latency is the fastest of its sweeps (see SWEEPS)
        doc_ms = np.array(
            [min(map(duration, doc)) for p in passes for doc in zip(*p.docs)]
        ) * 1000.0
        return {
            "setup_s": setup,
            "fit_s": statistics.median(fit),
            "predict_docs_per_s": statistics.median(
                len(times) / duration(sweep)
                for p in passes
                for sweep, times in zip(p.sweeps, p.docs)
            ),
            "predict_doc_ms_p50": float(np.percentile(doc_ms, 50)),
            "predict_doc_ms_p99": float(np.percentile(doc_ms, 99)),
        }

    metrics = timings(lambda i: probe.normalize(*i))
    # the first min_passes passes only, so that the value does not depend
    # on how many passes the machine's speed allowed
    metrics["heldout_micro_f1"] = statistics.mean(f1_values[: workload.min_passes])
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    raw = timings(_wall)
    run_slowdown = probe.slowdown(setup_intervals[0][0], passes[-1].end)
    notes = [
        f"passes {len(passes)}; predict samples {len(passes[0].docs[0]) * len(passes)} documents "
        f"x {SWEEPS} sweeps; "
        f"probe samples {len(probe.durations)}, mean slowdown {run_slowdown:.3f}",
        "raw wall times: " + ", ".join(f"{k} {v:.6g}" for k, v in raw.items()),
        "search_s " + " ".join(f"{_wall(p.search):.3f}" for p in passes if p.search)
        + "; train_s " + " ".join(f"{_wall(p.train):.3f}" for p in passes)
        + "; fit_s at nominal speed "
        + " ".join(f"{sum(probe.normalize(*i) for i in (p.search, p.train) if i):.3f}" for p in passes),
        "heldout_micro_f1 per pass " + " ".join(f"{f:.4f}" for f in f1_values),
        "best configs " + "; ".join(str(p.best) for p in passes),
    ]
    return RunResult(metrics, sum(p.ops for p in passes), checks, notes)


def trace(workload: Workload, seed: int) -> RunResult:
    """Traced run: one untraced set-up and pass, then the same under the
    tracer.  Reports the per-layer metrics and the tracing overhead (the
    difference of the two wall times).  The traced pass repeats the
    untraced one, search included, and must give the same outputs."""
    checks = Checks()
    inputs, (start, _) = _timed_inputs(workload, pass_seed(seed, 0))
    plain = run_pass(workload, inputs, checks)
    plain_s = plain.end - start
    with Tracer(TARGETS) as tracer:
        inputs, (start, _) = _timed_inputs(workload, pass_seed(seed, 0))
        traced = run_pass(workload, inputs, checks)
        traced_s = traced.end - start
    differ = [
        name
        for name, a, b in zip(("best config", "labels", "rationales"), traced.outputs(), plain.outputs())
        if a != b
    ]
    checks.expect(
        not differ,
        f"{workload.name}: the traced pass gave other {', '.join(differ)} than the untraced one",
    )
    _check_f1(checks, workload, traced, inputs)
    notes = [f"untraced {plain_s:.3f} s, traced {traced_s:.3f} s"]
    notes += [f"absent: {key}" for key in tracer.absent]
    notes += [f"count errors: {key} x{n}" for key, n in tracer.count_errors.items()]
    return RunResult(
        layer_metrics(tracer, traced_s - plain_s),
        plain.ops + traced.ops,
        checks,
        notes,
        spans=tracer.spans,
    )
