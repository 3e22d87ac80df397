"""Fusion scoring, delta rewards, and the scorer plug-in contract.

The fused score combines similarity, quality (MOS), and intelligibility:

    sc = sim + lambda1 * (mos / 5) - lambda2 * intell

and the per-step reward is the difference of consecutive fused scores,
so the episode return telescopes to net score improvement.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Protocol

import numpy as np


class ScorerFault(RuntimeError):
    """An external or plug-in scorer misbehaved (protocol violation,
    malformed output, lost connection). Distinct from an out-of-range score."""


class ScoreRangeError(ValueError):
    """A scorer emitted a value outside its declared range.

    Raised instead of clamping: a corrupted reward silently poisons
    training, so it must be loud.
    """


SCORE_RANGES = {"sim": (0.0, 1.0), "mos": (0.0, 5.0), "intell": (0.0, 1.0)}


def _check_range(kind: str, value: float) -> float:
    lo, hi = SCORE_RANGES[kind]
    value = float(value)
    if not (lo <= value <= hi):  # False for NaN and +-inf too
        raise ScoreRangeError(f"{kind} score {value} outside [{lo}, {hi}]")
    return value


def check_ranges(parts: dict[str, np.ndarray]) -> None:
    """_check_range over whole arrays of scores, keyed by kind; the first bad
    value of a kind raises with the scalar message. An empty array passes."""
    for kind, values in parts.items():
        lo, hi = SCORE_RANGES[kind]
        # NaN anywhere makes both reductions NaN and fails; ufuncs skip ndarray.min's wrapper
        if values.size and not (np.minimum.reduce(values) >= lo
                                and np.maximum.reduce(values) <= hi):
            _check_range(kind, values[~((values >= lo) & (values <= hi))][0])


@dataclass(frozen=True)
class ScoreTriple:
    """(similarity in [0,1], MOS in [0,5], intelligibility error in [0,1])."""

    sim: float
    mos: float
    intell: float

    def __post_init__(self):
        _check_range("sim", self.sim)
        _check_range("mos", self.mos)
        _check_range("intell", self.intell)


@dataclass(frozen=True)
class RewardWeights:
    """The fused score's (lambda1, lambda2); a weight of 0 drops its term."""

    lambda1: float = 0.5
    lambda2: float = 0.1

    def __post_init__(self):
        if not (0 <= self.lambda1 < math.inf and 0 <= self.lambda2 < math.inf):
            raise ValueError(f"reward weights must be finite and non-negative, got "
                             f"lambda1={self.lambda1}, lambda2={self.lambda2}")


def fuse_scores(t: ScoreTriple, w: RewardWeights = RewardWeights()):
    """Fused score. MOS is divided by 5 to unify the scales.

    ``t`` may hold floats (a ScoreTriple) or equal-length arrays, which
    give an array of fused scores; inputs are never modified. With
    default weights the result lies in [-0.1, 1.5].
    """
    return t.sim + w.lambda1 * (t.mos / 5.0) - w.lambda2 * t.intell


@dataclass(frozen=True)
class ScoreContext:
    """What a scorer may need besides the speech itself."""

    target_voiceprint: np.ndarray | None = None
    text_id: int | None = None


class Scorer(Protocol):
    """A single-dimension scorer plug-in.

    ``kind`` is one of "sim", "mos", "intell"; ``score`` must be
    deterministic for equal inputs and return a value inside the
    declared range of its kind.
    """

    kind: str

    def score(self, speech: np.ndarray, context: ScoreContext) -> float: ...


def score_speech(scorer: Scorer, speech: np.ndarray, context: ScoreContext) -> float:
    """Invoke a scorer plug-in and range-check its output.

    A ScorerFault from the plug-in propagates unchanged; an in-band but
    out-of-range value raises ScoreRangeError.
    """
    if scorer.kind not in SCORE_RANGES:
        raise ValueError(f"unknown scorer kind {scorer.kind!r}")
    value = scorer.score(np.asarray(speech, dtype=np.float64), context)
    return _check_range(scorer.kind, value)


def cosine_similarity_score(v: np.ndarray, target: np.ndarray) -> float:
    """Map cosine similarity affinely to [0, 1]: (1 + cos) / 2.

    A zero-norm vector has no direction; by convention the score is 0.5
    (the orthogonality midpoint).
    """
    v = np.asarray(v, dtype=np.float64)
    target = np.asarray(target, dtype=np.float64)
    # np.linalg.norm(v) is this sqrt of the dot product
    nv = math.sqrt(v.dot(v))
    nt = math.sqrt(target.dot(target))
    if nv == 0.0 or nt == 0.0:
        return 0.5
    cos = float(v.dot(target)) / (nv * nt)
    cos = max(-1.0, min(1.0, cos))
    return (1.0 + cos) / 2.0
