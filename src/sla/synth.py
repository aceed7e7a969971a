"""Synthetic report generator with planted line-level signals.

Each generated document follows the anatomy of a semi-structured report:
a header block, a gross-description section of distractor lines, an
optional synoptic section of "cue: value" lines, and a comment section.
Every attribute's value is expressed verbatim on exactly one planted line
(the synoptic line when the document has a synoptic section), optionally
echoed on extra lines with different phrasing, and optionally shadowed by
a qualified mention of a *conflicting* value ("would be X but cannot be
determined..."), which is never highlighted.  Distractor lines never pair
an attribute's cue phrase with a conflicting value.

"not reported" is drawn like any other value; such documents get no
planted line and an empty highlight set.

Generation is deterministic per (config, seed): documents draw from
per-document child streams, so the corpus is reproducible even if
documents are generated in parallel.
"""

from __future__ import annotations

import json
from dataclasses import MISSING, asdict, dataclass, fields
from typing import Sequence

import numpy as np

from .corpus import (
    CANCERS,
    NOT_REPORTED,
    SCHEMES,
    EnrichedAnnotation,
    LabeledDocument,
    Report,
    read_json,
)

DEFAULT_CUES = {
    "tumor_site": "tumor site",
    "histologic_type": "histologic type",
    "procedure": "procedure",
    "laterality": "specimen laterality",
    "grade": "histologic grade",
    "lymphovascular_invasion": "lymphovascular invasion",
    "perineural_invasion": "perineural invasion",
}

DEFAULT_LEXICON = (
    "tan", "pink", "firm", "soft", "unremarkable", "serosa", "mucosa",
    "fragment", "aggregate", "cassette", "formalin", "fixed", "submitted",
    "representative", "portion", "wall", "thickness", "surface", "smooth",
    "nodular", "hemorrhagic", "congested", "attached", "adjacent",
    "dissected", "identified", "grossly", "sectioning", "reveals", "cut",
    "probe", "oriented", "stained", "blocks", "summary", "measuring",
    "approximately", "specimen", "tissue", "pericolic",
)


@dataclass(frozen=True)
class SynthAttribute:
    """One attribute to plant: its value pool and sampling weights."""

    attribute: str
    values: tuple[str, ...]
    weights: tuple[float, ...] | None = None
    cue: str | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "values", tuple(self.values))
        if not self.values:
            raise ValueError(f"attribute {self.attribute!r}: empty value pool")
        if self.weights is not None:
            object.__setattr__(self, "weights", tuple(float(w) for w in self.weights))
            if len(self.weights) != len(self.values):
                raise ValueError(f"attribute {self.attribute!r}: weights/values mismatch")
            if any(w < 0 for w in self.weights) or sum(self.weights) <= 0:
                raise ValueError(f"attribute {self.attribute!r}: bad weights")

    @property
    def cue_phrase(self) -> str:
        if self.cue is not None:
            return self.cue
        return DEFAULT_CUES.get(self.attribute, self.attribute.replace("_", " "))


@dataclass(frozen=True)
class GenConfig:
    cancer: str = "colon"
    num_docs: int = 100
    lines_per_doc: tuple[int, int] = (14, 22)
    attributes: tuple[SynthAttribute, ...] = ()
    synoptic_probability: float = 1.0
    distractor_lexicon: tuple[str, ...] = DEFAULT_LEXICON
    rare_phrasing_rate: float = 0.0
    multi_label_rate: float = 0.0
    echo_lines: tuple[int, int] = (0, 0)
    scheme: str = "minimal"
    seed: int = 0

    def __post_init__(self) -> None:
        if self.cancer not in CANCERS:
            raise ValueError(f"unknown cancer {self.cancer!r}")
        if self.num_docs < 1:
            raise ValueError("num_docs must be >= 1")
        if not self.attributes:
            raise ValueError("at least one attribute is required")
        object.__setattr__(self, "attributes", tuple(self.attributes))
        object.__setattr__(self, "lines_per_doc", tuple(self.lines_per_doc))
        object.__setattr__(self, "echo_lines", tuple(self.echo_lines))
        object.__setattr__(self, "distractor_lexicon", tuple(self.distractor_lexicon))
        lo, hi = self.lines_per_doc
        if not 1 <= lo <= hi:
            raise ValueError("lines_per_doc must be a (min, max) range with 1 <= min <= max")
        elo, ehi = self.echo_lines
        if not 0 <= elo <= ehi:
            raise ValueError("echo_lines must be a (min, max) range with 0 <= min <= max")
        for rate_name in ("synoptic_probability", "rare_phrasing_rate", "multi_label_rate"):
            rate = getattr(self, rate_name)
            if not 0.0 <= rate <= 1.0:
                raise ValueError(f"{rate_name} must be in [0, 1]")
        if self.scheme not in SCHEMES:
            raise ValueError(f"unknown scheme {self.scheme!r}")
        if len(self.distractor_lexicon) < 4:
            raise ValueError("distractor lexicon needs at least 4 words")
        names = [a.attribute for a in self.attributes]
        if len(set(names)) != len(names):
            raise ValueError("duplicate attribute names")
        a = len(self.attributes)
        worst = 5 + 1 + a + a * ehi + a + 2  # headers + synoptic + echoes + qualified + slack
        if lo < worst:
            raise ValueError(
                f"lines_per_doc min {lo} too small for {a} attributes with up to "
                f"{ehi} echoes each; need at least {worst}"
            )


# ---------------------------------------------------------------------------
# line templates
# ---------------------------------------------------------------------------


def _words(rng: np.random.Generator, lexicon: Sequence[str], n: int) -> list[str]:
    return [lexicon[int(i)] for i in rng.integers(0, len(lexicon), size=n)]


def _distractor_line(rng: np.random.Generator, lexicon: Sequence[str]) -> str:
    form = int(rng.integers(0, 7))
    w = _words(rng, lexicon, 4)
    n1, n2, n3 = (int(i) for i in rng.integers(1, 10, size=3))
    if form == 0:
        return f"the specimen measures {n1} x {n2} x {n3} cm"
    if form == 1:
        return f"sections are submitted in cassette {n1}"
    if form == 2:
        return f"received {w[0]} and {w[1]} in formalin"
    if form == 3:
        return f"the {w[0]} margin is {w[1]} and {w[2]}"
    if form == 4:
        return f"representative {w[0]} sections {w[1]} submitted"
    if form == 5:
        return f"block {n1} {w[0]} {w[1]}"
    return " ".join(w)


def _mention_line(rng: np.random.Generator, cue: str, phrase: str) -> str:
    form = int(rng.integers(0, 3))
    if form == 0:
        return f"the {cue} is {phrase}"
    if form == 1:
        return f"{cue}: {phrase}"
    return f"{cue} of {phrase} identified"


def _echo_line(rng: np.random.Generator, cue: str, phrase: str) -> str:
    form = int(rng.integers(0, 3))
    if form == 0:
        return f"note {cue} {phrase} confirmed on review"
    if form == 1:
        return f"addendum {cue} remains {phrase}"
    return f"re-review shows {cue} of {phrase}"


def _qualified_line(cue: str, other: str) -> str:
    return f"if assessed the {cue} would be {other} but cannot be determined due to treatment effect"


# ---------------------------------------------------------------------------
# generation
# ---------------------------------------------------------------------------


def _draw_values(rng: np.random.Generator, spec: SynthAttribute, multi_rate: float) -> tuple[str, ...]:
    vals = np.array(spec.values, dtype=object)
    if spec.weights is not None:
        p = np.asarray(spec.weights, dtype=np.float64)
        p = p / p.sum()
    else:
        p = np.full(len(vals), 1.0 / len(vals))
    non_nr = [i for i, v in enumerate(spec.values) if v != NOT_REPORTED]
    if len(non_nr) >= 2 and rng.random() < multi_rate:
        sub_p = p[non_nr] / p[non_nr].sum()
        picks = rng.choice(len(non_nr), size=2, replace=False, p=sub_p)
        chosen = [spec.values[non_nr[int(i)]] for i in picks]
        # keep declared (schema) order for composition
        return tuple(v for v in spec.values if v in chosen)
    pick = int(rng.choice(len(vals), p=p))
    return (spec.values[pick],)


def _generate_doc(index: int, config: GenConfig, rng: np.random.Generator) -> LabeledDocument:
    lo, hi = config.lines_per_doc
    target = int(rng.integers(lo, hi + 1))
    synoptic = bool(rng.random() < config.synoptic_probability)

    # ``items`` are (text, marker) where marker tags planted/echo lines
    plans = []
    for spec in config.attributes:
        values = _draw_values(rng, spec, config.multi_label_rate)
        phrase = " and ".join(values)
        planted = values != (NOT_REPORTED,)
        n_echo = int(rng.integers(config.echo_lines[0], config.echo_lines[1] + 1)) if planted else 0
        qualified = None
        others = [v for v in spec.values if v not in values and v != NOT_REPORTED]
        if others and rng.random() < config.rare_phrasing_rate:
            qualified = str(others[int(rng.integers(0, len(others)))])
        plans.append((spec, values, phrase, planted, n_echo, qualified))

    header = [
        (f"accession number syn-{config.cancer}-{index:04d}", None),
        (f"specimen {config.cancer} resection", None),
        ("clinical history " + " ".join(_words(rng, config.distractor_lexicon, 3)), None),
    ]

    floating: list[tuple[str, tuple[str, str] | None]] = []
    synoptic_block: list[tuple[str, tuple[str, str] | None]] = []
    if synoptic:
        synoptic_block.append(("synoptic comment:", None))
    for spec, values, phrase, planted, n_echo, qualified in plans:
        cue = spec.cue_phrase
        if planted:
            if synoptic:
                synoptic_block.append((f"{cue}: {phrase}", (spec.attribute, "planted")))
            else:
                floating.append((_mention_line(rng, cue, phrase), (spec.attribute, "planted")))
            for _ in range(n_echo):
                floating.append((_echo_line(rng, cue, phrase), (spec.attribute, "echo")))
        if qualified is not None:
            floating.append((_qualified_line(cue, qualified), None))

    fixed = len(header) + 2 + len(synoptic_block)  # +2 section headers
    n_distract = target - fixed - len(floating)
    gross: list[tuple[str, tuple[str, str] | None]] = []
    comment: list[tuple[str, tuple[str, str] | None]] = []
    for _ in range(n_distract):
        line = (_distractor_line(rng, config.distractor_lexicon), None)
        (gross if rng.random() < 0.65 else comment).append(line)
    for item in floating:
        section = gross if rng.random() < 0.7 else comment
        pos = int(rng.integers(0, len(section) + 1))
        section.insert(pos, item)

    items = (
        header
        + [("gross description:", None)]
        + gross
        + synoptic_block
        + [("comment:", None)]
        + comment
    )
    lines = tuple(text for text, _ in items)

    planted_idx: dict[str, list[int]] = {}
    echo_idx: dict[str, list[int]] = {}
    for i, (_, marker) in enumerate(items):
        if marker is None:
            continue
        attr, kind = marker
        (planted_idx if kind == "planted" else echo_idx).setdefault(attr, []).append(i)

    report = Report(id=f"syn-{config.cancer}-{index:04d}", cancer=config.cancer, lines=lines)
    annotations = {}
    for spec, values, phrase, planted, n_echo, qualified in plans:
        supports = planted_idx.get(spec.attribute, [])
        if config.scheme == "full":
            supports = sorted(supports + echo_idx.get(spec.attribute, []))
        annotations[spec.attribute] = EnrichedAnnotation(
            attribute=spec.attribute,
            values=values,
            line_indices=tuple(supports),
            scheme=config.scheme,
        )
    return LabeledDocument(report=report, annotations=annotations)


def generate_corpus(config: GenConfig) -> list[LabeledDocument]:
    """Generate the corpus for a config.  Deterministic given config.seed;
    the "minimal" and "full" schemes of the same config yield identical
    report text and differ only in annotation highlights."""
    children = np.random.SeedSequence(config.seed).spawn(config.num_docs)
    return [
        _generate_doc(i, config, np.random.default_rng(child)) for i, child in enumerate(children)
    ]


# ---------------------------------------------------------------------------
# config file I/O (used by the CLI)
# ---------------------------------------------------------------------------


def config_to_dict(config: GenConfig) -> dict:
    """The config as the JSON object ``config_from_dict`` reads, every field
    included."""
    return json.loads(json.dumps(asdict(config)))


# the keys of a config and of its attributes that may be absent
_DEFAULTED = tuple(
    f.name for cls in (GenConfig, SynthAttribute) for f in fields(cls) if f.default is not MISSING
)


def config_from_dict(payload: dict) -> GenConfig:
    """A ``GenConfig`` from the keys that are present; an absent key takes
    its field's default."""
    return read_json(payload, GenConfig, "generator config", _DEFAULTED)


def load_gen_config(path: str) -> GenConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return config_from_dict(json.load(fh))
