"""Fusion scoring, delta rewards, and the scorer plug-in contract."""

from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from asrrl.scoring import (
    RewardWeights,
    SCORE_RANGES,
    ScoreContext,
    ScoreRangeError,
    ScoreTriple,
    ScorerFault,
    check_ranges,
    cosine_similarity_score,
    fuse_scores,
    score_speech,
)

triples = st.tuples(
    st.floats(0.0, 1.0), st.floats(0.0, 5.0), st.floats(0.0, 1.0)
).map(lambda t: ScoreTriple(*t))


def test_fuse_scores_all_best():
    assert fuse_scores(ScoreTriple(1.0, 5.0, 0.0)) == pytest.approx(1.5, abs=1e-15)


def test_fuse_scores_all_worst():
    assert fuse_scores(ScoreTriple(0.0, 0.0, 1.0)) == pytest.approx(-0.1, abs=1e-15)


def test_fuse_scores_hand_arithmetic():
    # 0.42 + 0.5*(4.12/5) - 0.1*0.25 = 0.807
    assert abs(fuse_scores(ScoreTriple(0.42, 4.12, 0.25)) - 0.807) <= 1e-12


def test_fuse_scores_on_arrays_matches_scalar_and_keeps_inputs():
    rng = np.random.default_rng(0)
    sim, mos, intell = rng.random(50), 5.0 * rng.random(50), rng.random(50)
    kept = sim.copy()
    w = RewardWeights(lambda1=0.3, lambda2=0.7)
    sc = fuse_scores(SimpleNamespace(sim=sim, mos=mos, intell=intell), w)
    assert sc is not sim
    np.testing.assert_array_equal(sim, kept)
    assert sc.tolist() == [fuse_scores(ScoreTriple(*t), w)
                           for t in zip(sim, mos, intell)]


def test_triple_rejects_out_of_range():
    kinds = ("sim", "mos", "intell")
    check_ranges({k: np.array([0.0, 0.5, hi]) for k, hi in zip(kinds, (1, 5, 1))})
    for bad in [(1.1, 5.0, 0.0), (-0.1, 0.0, 0.0), (0.5, 5.5, 0.0),
                (0.5, 1.0, 2.0), (float("nan"), 1.0, 0.0), (0.5, float("inf"), 0.0)]:
        with pytest.raises(ScoreRangeError):
            ScoreTriple(*bad)
        # the array form, with the bad triple between two good rows
        with pytest.raises(ScoreRangeError):
            check_ranges({k: np.array([ok, v, ok])
                          for k, v, ok in zip(kinds, bad, (0.5, 2.0, 0.5))})
    with pytest.raises(ScoreRangeError, match="mos score 5.5 outside"):
        check_ranges({"mos": np.array([1.0, 5.5, 6.0])})
    # NaN and both infinities fail the range comparison for every kind
    good = {"sim": 0.5, "mos": 2.0, "intell": 0.5}
    for kind in kinds:
        for bad in (float("nan"), float("inf"), float("-inf")):
            with pytest.raises(ScoreRangeError, match=f"{kind} score {bad} outside"):
                ScoreTriple(**{**good, kind: bad})
            with pytest.raises(ScoreRangeError, match=f"{kind} score {bad} outside"):
                check_ranges({kind: np.array([good[kind], bad, good[kind]])})


def test_check_ranges_is_the_four_op_check():
    # the reference: a value passes when lo <= value and value <= hi, and
    # the first value that does not is the one named
    rng = np.random.default_rng(3)
    kinds = ("sim", "mos", "intell")
    specials = (float("nan"), float("inf"), float("-inf"), -0.1, 5.5, 1.5, -0.0)
    for _ in range(300):
        kind = kinds[rng.integers(3)]
        lo, hi = SCORE_RANGES[kind]
        values = rng.uniform(lo, hi, rng.integers(0, 9))
        for i in rng.integers(0, max(len(values), 1), rng.integers(0, 3)):
            if len(values):
                values[i] = specials[rng.integers(len(specials))]
        ok = (values >= lo) & (values <= hi)
        if ok.all():
            check_ranges({kind: values})
        else:
            with pytest.raises(ScoreRangeError,
                               match=f"^{kind} score {values[~ok][0]} outside"):
                check_ranges({kind: values})


@settings(max_examples=300, deadline=None)
@given(t=triples)
def test_fused_range_certificate(t):
    assert -0.1 <= fuse_scores(t) <= 1.5


def _bits(x):
    return np.float64(x).tobytes()


@settings(max_examples=200, deadline=None)
@given(t=triples, lam=st.floats(0.0, 1e6))
def test_a_zero_lambda_drops_its_term_bitwise(t, lam):
    assert _bits(fuse_scores(t, RewardWeights(0.0, lam))) == _bits(t.sim - lam * t.intell)
    assert _bits(fuse_scores(t, RewardWeights(lam, 0.0))) == _bits(t.sim + lam * (t.mos / 5.0))


def test_fuse_scores_monotonicity():
    base = ScoreTriple(0.5, 2.5, 0.5)
    sc = fuse_scores(base)
    assert fuse_scores(ScoreTriple(0.6, 2.5, 0.5)) > sc
    assert fuse_scores(ScoreTriple(0.5, 3.0, 0.5)) > sc
    assert fuse_scores(ScoreTriple(0.5, 2.5, 0.6)) < sc


def test_negative_weights_rejected():
    with pytest.raises(ValueError):
        RewardWeights(lambda1=-0.5)


# -- scorer plug-ins -------------------------------------------------------

class _ConstScorer:
    def __init__(self, kind, value):
        self.kind = kind
        self.value = value

    def score(self, speech, context):
        return self.value


def test_score_speech_range_checks_by_kind():
    ctx = ScoreContext()
    assert score_speech(_ConstScorer("mos", 4.2), np.zeros(3), ctx) == 4.2
    with pytest.raises(ScoreRangeError):
        score_speech(_ConstScorer("sim", 1.2), np.zeros(3), ctx)
    with pytest.raises(ValueError, match="unknown scorer kind"):
        score_speech(_ConstScorer("loudness", 0.5), np.zeros(3), ctx)


def test_scorer_fault_propagates_distinct_from_range_error():
    class Faulty:
        kind = "sim"

        def score(self, speech, context):
            raise ScorerFault("backend died")

    with pytest.raises(ScorerFault):
        score_speech(Faulty(), np.zeros(3), ScoreContext())
    assert not issubclass(ScorerFault, ScoreRangeError)
    assert not issubclass(ScoreRangeError, ScorerFault)


def test_cosine_similarity_score():
    v = np.array([1.0, 2.0, -0.5])
    assert cosine_similarity_score(v, v) == pytest.approx(1.0)
    assert cosine_similarity_score(v, -v) == pytest.approx(0.0)
    assert cosine_similarity_score(np.array([1.0, 0.0]),
                                   np.array([0.0, 1.0])) == pytest.approx(0.5)
    # zero-norm convention
    assert cosine_similarity_score(np.zeros(3), v) == 0.5
    assert cosine_similarity_score(v, np.zeros(3)) == 0.5
