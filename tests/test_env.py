"""Synthetic environments, the episode contract, and the grid oracle."""

import math
import os
import re
import sys
import threading
import time
import warnings
from types import SimpleNamespace

import numpy as np
import pytest

from asrrl import env as envmod
from asrrl.core import FSAction, SSAction, StateLayout
from asrrl.env import (
    COLUMN_SUM_MIN_ROWS,
    EpisodeError,
    SpeakerProfile,
    SyntheticVoiceEnv,
    TradeoffEnv,
    _sum_squares,
    oracle_best,
    oracle_zoom,
)
from asrrl.harness import finetune_proxy
from asrrl.scoring import (RewardWeights, ScoreContext, ScoreRangeError, ScoreTriple,
                           cosine_similarity_score, fuse_scores)
from asrrl.seeding import substream


def _env(**kw):
    kw.setdefault("d_e", 4)
    kw.setdefault("d_t", 3)
    return SyntheticVoiceEnv(**kw)


def _profile(env, seed=0, k=1):
    return env.make_profile(0, substream(seed, "corpus"), k=k)


# -- synthesis -------------------------------------------------------------

def test_synth_deterministic_and_bounded():
    env = _env(seed=5)
    env2 = _env(seed=5)
    f_t, e = np.arange(3.0), np.array([0.1, -0.2, 0.0, 0.3])
    s1, s2 = env.synth(f_t, e), env2.synth(f_t, e)
    np.testing.assert_array_equal(s1, s2)
    assert np.max(np.abs(s1)) <= 1.0


def test_synth_rejects_wrong_shapes():
    env = _env()
    with pytest.raises(ValueError):
        env.synth(np.zeros(2), np.zeros(4))
    with pytest.raises(ValueError):
        env.synth(np.zeros(3), np.zeros(5))


@pytest.mark.parametrize("f_rows,e_rows", [(None, None), (None, 5), (5, 5), (5, None),
                                           (5, 1), (1, 5)])
def test_synth_is_the_allocating_formula_bitwise_and_leaves_inputs(f_rows, e_rows):
    env = _env(seed=4)
    rng = substream(4, "synth")
    f_t = rng.standard_normal((f_rows, 3) if f_rows else 3)
    e = rng.standard_normal((e_rows, 4) if e_rows else 4)
    f_copy, e_copy = f_t.copy(), e.copy()
    f_t.flags.writeable = e.flags.writeable = False
    got = env.synth(f_t, e)
    want = np.tanh(f_t @ env.W1.T + e @ env.W2.T + env.b)
    assert got.shape == want.shape and got.tobytes() == want.tobytes()
    assert f_t.tobytes() == f_copy.tobytes() and e.tobytes() == e_copy.tobytes()
    assert not np.shares_memory(got, f_t) and not np.shares_memory(got, e)


def test_target_voiceprint_is_calibration_synthesis():
    env = _env(seed=9)
    p = _profile(env)
    vp = env.voiceprint(env.f_t_cal, p.true_embedding)
    np.testing.assert_array_equal(vp, p.target_voiceprint)


def test_sim_is_one_at_optimum_on_calibration_text():
    env = _env(seed=9)
    p = _profile(env)
    t = env.score_state(env.f_t_cal, p.true_embedding, p)
    assert t.sim == pytest.approx(1.0, abs=1e-12)


def test_shell_scores_inside_radii():
    env = _env(seed=9)
    p = _profile(env)
    e = p.true_embedding  # well inside the shell by construction
    assert np.linalg.norm(e) <= env.r_shell
    t = env.score_state(env.f_t_cal, e, p)
    assert t.mos == 5.0 and t.intell == 0.0


def test_shell_scores_decay_outside():
    env = _env(seed=9)
    p = _profile(env)
    far = 10.0 * np.ones(4)
    t = env.score_state(env.f_t_cal, far, p)
    assert t.mos < 5.0 and t.intell > 0.0


def test_optimum_dominates_grid_d2():
    env = SyntheticVoiceEnv(d_e=2, d_t=3, seed=3)
    p = env.make_profile(0, substream(3, "corpus"), k=1)
    sc_star = env.fused(env.f_t_cal, p.true_embedding, p)
    g = np.linspace(-1.0, 1.0, 41)
    grid = np.stack(np.meshgrid(g, g, indexing="ij"), axis=-1).reshape(-1, 2)
    sc = env.fused_batch(env.f_t_cal, grid, p)
    assert sc_star >= np.max(sc) - 1e-12


@pytest.mark.parametrize("toggles", [(True, True), (False, True),
                                     (True, False), (False, False)])
@pytest.mark.parametrize("kind", ["voice", "tradeoff"])
def test_fused_batch_matches_scalar_fused(kind, toggles):
    # the two paths compute the voiceprint with different matrix products,
    # so they agree to a few ulps, not bit for bit
    # toggles keep (mos, intell) at their default lambda or drop them with 0
    w = RewardWeights(0.5 * toggles[0], 0.1 * toggles[1])
    if kind == "voice":
        env = SyntheticVoiceEnv(d_e=4, d_t=3, seed=2, weights=w)
    else:
        env = _tenv(weights=w)
    rng = substream(5, "fused-batch")
    for i in range(8):
        p = env.make_profile(i, rng, k=1)
        f_t = rng.standard_normal(env.d_t)
        E = p.refs[0] + rng.choice([0.01, 0.1, 1.0]) * rng.standard_normal((64, env.d_e))
        scalar = [env.fused(f_t, e, p) for e in E]
        np.testing.assert_allclose(env.fused_batch(f_t, E, p), scalar,
                                   rtol=0, atol=2e-15)


def _reference_triple_batch(env, F, E, target):
    """score_rows' (sim, mos, intell) in the allocating form: a where-masked
    cosine under errstate and one exp per shell score."""
    vp = env.synth(F, E).dot(env.V.T)
    nv = np.sqrt((vp * vp).sum(axis=1))
    if target.ndim == 1:
        dot, nt = vp.dot(target), math.sqrt(target.dot(target))
    else:
        dot, nt = np.einsum("ij,ij->i", vp, target), np.sqrt((target * target).sum(axis=1))
    with np.errstate(invalid="ignore", divide="ignore"):
        cos = dot / (nv * nt)
    cos = np.where((nv == 0) | (nt == 0), 0.0, np.minimum(np.maximum(cos, -1.0), 1.0))
    excess = np.maximum(0.0, np.sqrt((E * E).sum(axis=1)) - env.r_shell)
    return ((1.0 + cos) / 2.0, 5.0 * np.exp(-env.SHELL_RATE * excess),
            1.0 - np.exp(-env.SHELL_RATE * excess))


@pytest.mark.parametrize("d_e", [1, 3, 16])
@pytest.mark.parametrize("rows", [1, 7, 86, 16_384])
@pytest.mark.parametrize("per_row", [False, True])
def test_score_rows_is_the_reference_formula_bitwise(d_e, rows, per_row):
    env = SyntheticVoiceEnv(d_e=d_e, d_t=3, seed=6)
    rng = substream(6, "score-rows")
    profiles = [env.make_profile(i, rng, k=1) for i in range(rows if per_row else 1)]
    # rows inside and well outside the shell, and the origin
    E = profiles[0].refs[0] + rng.choice([0.01, 0.1, 1.0], (rows, 1)) * rng.standard_normal(
        (rows, d_e))
    E[rows // 2] = 0.0
    if per_row:
        F = rng.standard_normal((rows, env.d_t))
        target = np.stack([p.target_voiceprint for p in profiles])
        fused = fuse_scores(env.score_rows(F, E, target), env.weights)
    else:
        F, target = rng.standard_normal(env.d_t), profiles[0].target_voiceprint
        fused = env.fused_batch(F, E, profiles[0])
    got = env.score_rows(F, E, target)
    want = _reference_triple_batch(env, F, E, target)
    for kind, w in zip(("sim", "mos", "intell"), want):
        assert getattr(got, kind).tobytes() == w.tobytes(), kind
    want_fused = fuse_scores(SimpleNamespace(sim=want[0], mos=want[1], intell=want[2]),
                             env.weights)
    assert fused.tobytes() == want_fused.tobytes()


def test_sum_squares_is_numpys_row_sum_bitwise():
    rng = np.random.default_rng(23)
    for width in range(1, 131):
        for rows in (1, 7, COLUMN_SUM_MIN_ROWS - 1, COLUMN_SUM_MIN_ROWS, 700):
            # zeros and magnitudes whose squares underflow, overflow or neither
            X = rng.standard_normal((rows, width)) * 10.0 ** rng.integers(
                -200, 200, (rows, width))
            X[rng.random((rows, width)) < 0.2] = 0.0
            with np.errstate(over="ignore"):
                got, want = _sum_squares(X), (X * X).sum(axis=1)
            assert got.tobytes() == want.tobytes(), (width, rows)
    X = rng.standard_normal((COLUMN_SUM_MIN_ROWS + 9, 16))
    X[::7, 1], X[::5, 5], X[::11, 0] = np.nan, np.inf, -np.inf
    for width in (3, 8, 16):
        got, want = _sum_squares(X[:, :width]), (X[:, :width] ** 2).sum(axis=1)
        assert np.isnan(got).any() and np.array_equal(got, want, equal_nan=True), width


@pytest.mark.parametrize("per_row", [False, True])
def test_score_rows_of_a_large_batch_equal_its_small_chunks_bitwise(per_row):
    env = SyntheticVoiceEnv(d_e=3, d_t=2, seed=29)
    rng = substream(29, "chunks")
    # OpenBLAS rounds synth(...) @ V.T differently below about 1,000 rows
    # (its small-matrix kernel), so V picks one speech feature per voiceprint
    # element with a power-of-two gain: exact in any summation order, which
    # leaves the norms, cosines and shell scores as the only batch-size
    # dependence under test
    env.V = np.zeros((env.d_v, env.d_s))
    env.V[np.arange(env.d_v), rng.permutation(env.d_s)[:env.d_v]] = 2.0 ** rng.integers(
        -2, 3, env.d_v)
    p = env.make_profile(0, rng, k=1)
    E = p.refs[0] + rng.choice([0.01, 0.1, 1.0], (5000, 1)) * rng.standard_normal((5000, 3))
    if per_row:
        F = rng.standard_normal((5000, env.d_t))
        T = np.stack([env.make_profile(i, rng, k=1).target_voiceprint for i in range(5000)])
        chunks = [(F[i:i + 20], E[i:i + 20], T[i:i + 20]) for i in range(0, 5000, 20)]
    else:
        F, T = rng.standard_normal(env.d_t), p.target_voiceprint
        chunks = [(F, E[i:i + 20], T) for i in range(0, 5000, 20)]
    whole = env.score_rows(F, E, T)
    parts = [env.score_rows(*c) for c in chunks]
    for kind in ("sim", "mos", "intell"):
        joined = np.concatenate([getattr(x, kind) for x in parts])
        assert getattr(whole, kind).tobytes() == joined.tobytes(), kind


def test_score_state_is_the_two_exp_shell_bitwise():
    for d_e in (1, 3, 16):
        env = SyntheticVoiceEnv(d_e=d_e, d_t=3, seed=6)
        rng = substream(d_e, "score-state")
        p = env.make_profile(0, rng, k=1)
        for scale in (0.0, 0.01, 0.1, 1.0):
            e = p.refs[0] + scale * rng.standard_normal(d_e)
            f_t = rng.standard_normal(env.d_t)
            t = env.score_state(f_t, e, p)
            excess = np.maximum(0.0, math.sqrt(e.dot(e)) - env.r_shell)
            want = (cosine_similarity_score(env.voiceprint(f_t, e), p.target_voiceprint),
                    5.0 * np.exp(-env.SHELL_RATE * excess),
                    1.0 - np.exp(-env.SHELL_RATE * excess))
            assert ([float(x).hex() for x in (t.sim, t.mos, t.intell)]
                    == [float(x).hex() for x in want])


def test_score_rows_zero_norm_targets_score_one_half_without_warnings():
    env = _env(seed=9)
    rng = substream(9, "zero-norm")
    E = 0.1 * rng.standard_normal((5, 4))
    F = rng.standard_normal((5, 3))
    targets = rng.standard_normal((5, env.d_v))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        plain = env.score_rows(F, E, targets)
        # every row against one zero target
        zero = env.score_rows(F[0], E, np.zeros(env.d_v))
        # one zero row among per-row targets; the other rows score as usual
        targets[2] = 0.0
        mixed = env.score_rows(F, E, targets)
    assert (zero.sim == 0.5).all()
    assert mixed.sim[2] == 0.5 and plain.sim[2] != 0.5
    assert np.delete(mixed.sim, 2).tobytes() == np.delete(plain.sim, 2).tobytes()


def test_voice_env_holds_numpy_spreads_as_floats():
    """A float32 spread used to meet the 1e300 bound in float32, an
    overflow warning."""
    env = SyntheticVoiceEnv(3, 3, sigma_ref=np.float32(0.05))
    plain = SyntheticVoiceEnv(3, 3, sigma_ref=float(np.float32(0.05)))
    assert type(env.sigma_ref) is float and env.sigma_ref == plain.sigma_ref
    assert env.r_shell == plain.r_shell


def test_make_profile_counts_and_spread():
    env = _env(seed=1)
    rng = substream(1, "corpus")
    profiles = [env.make_profile(i, rng, k=3) for i in range(10)]
    assert len(profiles) == 10
    assert all(p.refs.shape == (3, 4) for p in profiles)
    # refs scatter around e* with sd sigma_ref per coordinate
    d = np.concatenate([(p.refs - p.true_embedding).ravel() for p in profiles])
    assert abs(d.std() - env.sigma_ref) / env.sigma_ref < 0.35


# -- episode contract ------------------------------------------------------

def test_reset_ss_uses_first_reference():
    env = _env(scenario="ss")
    p = _profile(env)
    env.reset(p, np.zeros(3))
    np.testing.assert_array_equal(env.embedding, p.refs[0])


def test_reset_fs_uses_mean_init():
    env = _env(scenario="fs")
    p = _profile(env, k=3)
    env.reset(p, np.zeros(3))
    np.testing.assert_allclose(env.embedding, p.refs.mean(axis=0), atol=1e-15)


def test_reset_scenario_k_mismatch():
    ss, fs = _env(scenario="ss"), _env(scenario="fs")
    p1, p3 = _profile(ss, k=1), _profile(ss, k=3)
    with pytest.raises(ValueError):
        ss.reset(p3, np.zeros(3))
    with pytest.raises(ValueError):
        fs.reset(p1, np.zeros(3))


def test_reset_is_deterministic():
    env = _env(seed=4)
    p = _profile(env, seed=4)
    f_t = np.array([0.5, -1.0, 2.0])
    s1 = env.reset(p, f_t)
    s2 = env.reset(p, f_t)
    np.testing.assert_array_equal(s1, s2)


def test_zero_delta_step_has_zero_reward():
    env = _env(scenario="ss")
    p = _profile(env)
    env.reset(p, np.zeros(3))
    tr = env.step(SSAction(np.zeros(4)))
    assert tr.reward == 0.0


def test_fs_uniform_logits_zero_reward():
    env = _env(scenario="fs")
    p = _profile(env, k=3)
    env.reset(p, np.zeros(3))
    tr = env.step(FSAction(np.zeros(3)))
    assert tr.reward == 0.0
    assert tr.done  # single-step budget


def test_ss_terminates_at_three_steps():
    env = _env(scenario="ss")
    p = _profile(env)
    env.reset(p, np.zeros(3))
    flags = [env.step(SSAction(np.zeros(4))).done for _ in range(3)]
    assert flags == [False, False, True]
    with pytest.raises(EpisodeError):
        env.step(SSAction(np.zeros(4)))


def test_wrong_action_kind_rejected():
    env = _env(scenario="ss")
    p = _profile(env)
    env.reset(p, np.zeros(3))
    with pytest.raises(EpisodeError):
        env.step(FSAction(np.zeros(1)))


def test_step_before_reset_rejected():
    env = _env()
    with pytest.raises(EpisodeError):
        env.step(SSAction(np.zeros(4)))


def test_rewards_telescope_to_net_improvement():
    env = _env(scenario="ss", seed=8)
    rng = substream(8, "episodes")
    p = _profile(env, seed=8)
    for _ in range(20):
        f_t = rng.standard_normal(3)
        env.reset(p, f_t)
        sc0 = env.initial_fused
        total, fused = 0.0, sc0
        done = False
        while not done:
            tr = env.step(SSAction(np.tanh(rng.standard_normal(4))))
            total += tr.reward
            fused, done = tr.fused, tr.done
        assert abs(total - (fused - sc0)) <= 1e-9


def _segments(layout, state):
    """The named segments of a flattened state, sliced by segment_dims()."""
    dims = layout.segment_dims()
    return dict(zip(dims, np.split(state, np.cumsum(list(dims.values()))[:-1])))


def test_posterior_segments_present_when_enabled():
    layout = StateLayout(d_t=3, d_e=4, d_v=8, include_f_rv=True,
                         include_e_s=True, include_f_sv=True)
    env = _env(layout=layout)
    p = _profile(env)
    f_t = np.ones(3)
    state = env.reset(p, f_t)
    segs = _segments(layout, state)
    s_s = env.synth(f_t, p.refs[0])
    np.testing.assert_allclose(segs["e_s"], env.E_post @ s_s, atol=1e-12)
    np.testing.assert_allclose(segs["f_sv"], env.V @ s_s, atol=1e-12)
    np.testing.assert_allclose(segs["f_rv"], env.V @ s_s, atol=1e-12)
    # the prior voiceprint is frozen at reset while posteriors track e
    tr = env.step(SSAction(np.ones(4)))
    segs2 = _segments(layout, tr.next_state)
    np.testing.assert_array_equal(segs2["f_rv"], segs["f_rv"])
    assert not np.array_equal(segs2["e_s"], segs["e_s"])


def test_plugin_scorers_match_internal_path():
    """External scorers composed through score_state equal the built-in triple."""
    env = _env(seed=2)
    p = _profile(env, seed=2)

    class SimScorer:
        kind = "sim"

        def score(self, speech, context: ScoreContext):
            return cosine_similarity_score(env.V @ speech, context.target_voiceprint)

    class Const:
        def __init__(self, kind, value):
            self.kind, self.value = kind, value

        def score(self, speech, context):
            return self.value

    # refs stay inside the quality shell, so mos/intell are constant there
    scored = SyntheticVoiceEnv(d_e=4, d_t=3, seed=2)
    scored.scorers = {"sim": SimScorer(), "mos": Const("mos", 5.0),
                      "intell": Const("intell", 0.0)}
    f_t = substream(2, "texts").standard_normal(3)
    direct = env.score_state(f_t, p.refs[0], p)
    via_plugins = scored.score_state(f_t, p.refs[0], p)
    assert abs(direct.sim - via_plugins.sim) <= 1e-12
    assert direct.mos == via_plugins.mos and direct.intell == via_plugins.intell
    # lockstep: the plug-ins score every row, each with its own target
    profiles = [_profile(env, seed=s) for s in range(5)]
    F = substream(3, "texts").standard_normal((5, 3))
    E = np.stack([q.refs[0] for q in profiles])
    targets = np.stack([q.target_voiceprint for q in profiles])
    rows = scored.score_rows(F, E, targets)
    internal = env.score_rows(F, E, targets)
    for i, q in enumerate(profiles):
        one = scored.score_state(F[i], E[i], q)
        assert abs(rows.sim[i] - one.sim) <= 1e-12
        assert abs(rows.sim[i] - internal.sim[i]) <= 1e-12
        assert rows.mos[i] == one.mos and rows.intell[i] == one.intell


class _SpeechScorer:
    """A plug-in whose score follows the speech; it records each target."""

    def __init__(self, kind, top):
        self.kind, self.top, self.targets = kind, top, []

    def score(self, speech, context):
        self.targets.append(context.target_voiceprint)
        return self.top * (1.0 + np.tanh(speech.sum())) / 2.0


@pytest.mark.parametrize("kind", ["voice", "tradeoff"])
def test_plugin_fused_batch_matches_score_state(kind):
    """fused_batch scores every row through the plug-ins, each with the
    speaker's target, as score_state does for one embedding."""
    scorers = {"sim": _SpeechScorer("sim", 1.0), "mos": _SpeechScorer("mos", 5.0)}
    env = _env(seed=2) if kind == "voice" else _tenv()
    env.scorers = scorers
    rng = substream(4, "plugin-batch")
    p = env.make_profile(0, rng, k=1)
    f_t = rng.standard_normal(env.d_t)
    E = p.refs[0] + 0.1 * rng.standard_normal((16, env.d_e))
    batch = env.fused_batch(f_t, E, p)
    one = [fuse_scores(env.score_state(f_t, e, p), env.weights) for e in E]
    np.testing.assert_allclose(batch, one, rtol=0, atol=1e-12)
    assert np.ptp(batch) > 0
    for scorer in scorers.values():
        assert len(scorer.targets) == 2 * len(E)
        assert all(np.array_equal(t, p.target_voiceprint) for t in scorer.targets)


class _OutOfRangeAfter:
    kind = "sim"

    def __init__(self, after):
        self.after, self.calls = after, 0

    def score(self, speech, context):
        self.calls += 1
        return 1.5 if self.calls > self.after else 0.5


def test_out_of_range_plugin_raises_from_batch_paths():
    env = _env(d_e=2, seed=3)
    p = _profile(env, seed=3)
    f_t = env.f_t_cal
    env.scorers = {"sim": _OutOfRangeAfter(0)}
    with pytest.raises(ScoreRangeError, match="sim score 1.5"):
        env.fused_batch(f_t, p.refs, p)
    with pytest.raises(ScoreRangeError, match="sim score 1.5"):
        oracle_best(env, p, f_t, (-0.2, 0.2, 5))
    # the scalar start is in range; the first stencil row is not
    env.scorers = {"sim": _OutOfRangeAfter(1)}
    with pytest.raises(ScoreRangeError, match="sim score 1.5"):
        finetune_proxy(env, p, f_t, steps=3)
    assert env.scorers["sim"].calls == 2


# -- grid oracle -----------------------------------------------------------

def test_oracle_recovers_known_optimum_1d():
    env = SyntheticVoiceEnv(d_e=1, d_t=2, seed=7)
    env.r_shell = 1.0
    e_star = np.array([0.3])
    target = env.voiceprint(env.f_t_cal, e_star)
    p = SpeakerProfile(0, e_star, np.array([[0.1]]), target)
    e_best, _ = oracle_best(env, p, env.f_t_cal, (-1.0, 1.0, 201))
    assert abs(e_best[0] - 0.3) <= 0.01 + 1e-12


def test_oracle_rejects_empty_and_oversized_grids():
    env = SyntheticVoiceEnv(d_e=2, d_t=2, seed=7)
    p = env.make_profile(0, substream(7, "corpus"), k=1)
    with pytest.raises(ValueError):
        oracle_best(env, p, env.f_t_cal, (-1.0, 1.0, 0))
    with pytest.raises(ValueError, match="16000000"):
        oracle_best(env, p, env.f_t_cal, (-1.0, 1.0, 4000))
    # the point count is checked before any axis is built
    with pytest.MonkeyPatch.context() as mp:
        def linspace_spy(*args, **kwargs):
            raise AssertionError(f"np.linspace{args} called for an oversized grid")
        mp.setattr(np, "linspace", linspace_spy)
        with pytest.raises(ValueError, match="1000000000 points"):
            oracle_best(env, p, env.f_t_cal, [(-1.0, 1.0, 10**9), (-1.0, 1.0, 1)])
    bad = [((0.5, -0.5, 11), "bounds"), ((0.0, np.nan, 11), "bounds"),
           ((-np.inf, 1.0, 11), "bounds"), ((0.0, 1.0, 2.7), "points"),
           ((0.0, 1.0, np.nan), "points"), ((0.0, 1.0, np.inf), "points"),
           ((0.0, 1.0, -3), "points")]
    for spec, what in bad:
        with pytest.raises(ValueError, match=f"grid dimension 1: {what}"):
            oracle_best(env, p, env.f_t_cal, [(-1.0, 1.0, 3), spec])
    # an integral float point count is a count
    assert oracle_best(env, p, env.f_t_cal, (-1.0, 1.0, 3.0))[1] == \
        oracle_best(env, p, env.f_t_cal, (-1.0, 1.0, 3))[1]


def test_oracle_dominates_raw_reference():
    env = SyntheticVoiceEnv(d_e=2, d_t=2, seed=11)
    rng = substream(11, "corpus")
    for i in range(5):
        p = env.make_profile(i, rng, k=1)
        f_t = rng.standard_normal(2)
        lim = float(np.max(np.abs(p.refs))) + 0.1
        _, sc = oracle_best(env, p, f_t, (-lim, lim, 41))
        slack = env.fused_batch(f_t, p.refs[:1], p)[0] * 0.0 + 2 * lim / 40
        assert sc >= env.fused(f_t, p.refs[0], p) - slack


def _meshgrid_argmax(env, p, f_t, specs):
    """The grid's best row and score from one fused_batch over every point."""
    axes = [np.linspace(lo, hi, n) for lo, hi, n in specs]
    points = np.stack([m.ravel() for m in np.meshgrid(*axes, indexing="ij")], axis=1)
    sc = env.fused_batch(f_t, points, p)
    i = int(np.argmax(sc))  # the first of tied maxima
    return points[i], sc[i]


def _cpus(monkeypatch, n):
    """Make oracle_best see n CPUs available to the process."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)))


WORKERS = (1, 2, 3, 8)


def test_oracle_chunks_match_one_meshgrid_argmax_and_ties_go_first(monkeypatch):
    # each block cap splits these grids in another way: slabs of two axes,
    # of the last axis alone, the whole grid in one block, or a last axis
    # longer than a block (rows enumerated one by one); every grid that takes
    # more than one block ends in a ragged one. Each count of CPUs deals the
    # blocks to as many threads, up to one per block
    caps = (7, 64, 200, 1000)
    for d_e, points in ((1, (303,)), (2, (37, 23)), (3, (11, 6, 13))):
        env = SyntheticVoiceEnv(d_e=d_e, d_t=2, seed=17)
        p = env.make_profile(0, substream(17, "corpus"), k=1)
        lim = float(np.max(np.abs(p.refs))) + 0.1
        specs = [(-lim, lim, n) for n in points]
        want_e, want_sc = _meshgrid_argmax(env, p, env.f_t_cal, specs)
        for cap in caps:
            monkeypatch.setattr(envmod, "ORACLE_BLOCK_ROWS", cap)
            for workers in WORKERS:
                _cpus(monkeypatch, workers)
                e_best, sc = oracle_best(env, p, env.f_t_cal, specs)
                assert e_best.tobytes() == want_e.tobytes() and sc == want_sc, \
                    (d_e, cap, workers)
    # the tradeoff score ignores axis 1, so every row of one axis-0 value
    # ties: the first (axis 1 at its low end) wins when the tied rows sit in
    # one block (an 11-point slab, from cap 64) and when they straddle blocks
    # (1,001 points, longer than every block)
    tenv = TradeoffEnv(np.array([1.0, 0.0]), 0.2, d_t=2)
    tp = tenv.make_profile(0, substream(0, "s"), k=1)
    for specs in ([(-1.0, 1.0, 41), (-0.5, 0.5, 11)], [(-0.6, 0.4, 41), (-0.5, 0.5, 1001)]):
        want_e, want_sc = _meshgrid_argmax(tenv, tp, np.zeros(2), specs)
        assert want_e[1] == -0.5
        for cap in caps:
            monkeypatch.setattr(envmod, "ORACLE_BLOCK_ROWS", cap)
            for workers in WORKERS:
                _cpus(monkeypatch, workers)
                e_best, sc = oracle_best(tenv, tp, np.zeros(2), specs)
                assert e_best.tobytes() == want_e.tobytes() and sc == want_sc, \
                    (cap, workers)


def _block_of(rows):
    """The block that holds rows, on a 40 x 25 grid over [-1, 1]^2 in blocks
    of four 25-row slabs (ORACLE_BLOCK_ROWS = 100)."""
    return int(round((rows[0, 0] + 1.0) * 39 / 2)) // 4


def test_oracle_nan_ties_and_all_minus_inf_fold_as_the_serial_loop(monkeypatch):
    # a block whose argmax is NaN never wins, even with finite rows above
    # the best; a grid that ties everywhere returns its first row, even when
    # block 0 finishes last; a grid scored -inf everywhere has no best row
    env = SyntheticVoiceEnv(d_e=2, d_t=2, seed=17)
    p = env.make_profile(0, substream(17, "corpus"), k=1)
    specs = [(-1.0, 1.0, 40), (-1.0, 1.0, 25)]
    monkeypatch.setattr(envmod, "ORACLE_BLOCK_ROWS", 100)
    fused = env.fused_batch

    unpatched = oracle_best(env, p, env.f_t_cal, specs)
    nan_blocks = {2, 7, _block_of(unpatched[0][None])}  # the winner's too

    def nan_in_blocks(f_t, rows, profile):
        sc = fused(f_t, rows, profile)
        if _block_of(rows) in nan_blocks:
            sc[5::9] = np.nan
        return sc

    def tie_with_block_0_last(f_t, rows, profile):
        if _block_of(rows) == 0:
            time.sleep(0.02)
        return np.ones(len(rows))

    for score, want in ((nan_in_blocks, None), (tie_with_block_0_last, [-1.0, -1.0]),
                        (lambda f_t, rows, profile: np.full(len(rows), -np.inf), "none")):
        monkeypatch.setattr(env, "fused_batch", score)
        got = set()
        for workers in WORKERS:
            _cpus(monkeypatch, workers)
            e_best, sc = oracle_best(env, p, env.f_t_cal, specs)
            got.add((None if e_best is None else e_best.tobytes(), sc))
        assert len(got) == 1, score
        e_best, sc = got.pop()
        if want is None:
            assert -np.inf < sc < unpatched[1]
        elif want == "none":
            assert e_best is None and sc == -np.inf
        else:
            assert e_best == np.array(want).tobytes() and sc == 1.0


def test_oracle_raises_the_earliest_failing_blocks_error(monkeypatch):
    # block 5 fails after block 9 has failed on another thread; the serial
    # loop raises block 5's error, and so does every count of workers
    env = SyntheticVoiceEnv(d_e=2, d_t=2, seed=17)
    p = env.make_profile(0, substream(17, "corpus"), k=1)
    specs = [(-1.0, 1.0, 40), (-1.0, 1.0, 25)]
    monkeypatch.setattr(envmod, "ORACLE_BLOCK_ROWS", 100)
    fused = env.fused_batch

    def failing(f_t, rows, profile):
        b = _block_of(rows)
        if b == 5:
            time.sleep(0.02)
        if b in (5, 9):
            raise ValueError(f"block {b} failed")
        return fused(f_t, rows, profile)

    monkeypatch.setattr(env, "fused_batch", failing)
    threads = threading.active_count()
    for workers in WORKERS:
        _cpus(monkeypatch, workers)
        with pytest.raises(ValueError, match="block 5 failed"):
            oracle_best(env, p, env.f_t_cal, specs)
        assert threading.active_count() == threads, workers


def test_oracle_interrupt_in_the_callers_run_joins_every_helper(monkeypatch):
    # block 0 is the first block of run 0, which the calling thread searches;
    # the interrupt is raised once the helpers' runs have ended
    env = SyntheticVoiceEnv(d_e=2, d_t=2, seed=17)
    p = env.make_profile(0, substream(17, "corpus"), k=1)
    specs = [(-1.0, 1.0, 40), (-1.0, 1.0, 25)]
    monkeypatch.setattr(envmod, "ORACLE_BLOCK_ROWS", 100)
    fused, raised_on = env.fused_batch, []

    def interrupted(f_t, rows, profile):
        if _block_of(rows) == 0:
            raised_on.append(threading.get_ident())
            raise KeyboardInterrupt
        time.sleep(0.002)
        return fused(f_t, rows, profile)

    monkeypatch.setattr(env, "fused_batch", interrupted)
    threads = threading.active_count()
    for workers in (2, 8):
        _cpus(monkeypatch, workers)
        with pytest.raises(KeyboardInterrupt):
            oracle_best(env, p, env.f_t_cal, specs)
        assert threading.active_count() == threads, workers
    assert raised_on == [threading.get_ident()] * 2


@pytest.mark.parametrize("score", [-np.inf, np.nan])
def test_oracle_zoom_names_the_round_without_a_best_row(monkeypatch, score):
    env = SyntheticVoiceEnv(d_e=2, d_t=2, seed=17)
    p = env.make_profile(0, substream(17, "corpus"), k=1)
    monkeypatch.setattr(env, "fused_batch",
                        lambda f_t, rows, profile: np.full(len(rows), score))
    assert oracle_best(env, p, env.f_t_cal, (-1.0, 1.0, 5)) == (None, -np.inf)
    with pytest.raises(ValueError, match="oracle_zoom round 1 of 4"):
        oracle_zoom(env, p, env.f_t_cal, -1.0, 1.0, points=5)


def test_oracle_helpers_run_under_the_callers_errstate(monkeypatch):
    # a new thread starts with numpy's default errstate ("warn"); the
    # helpers copy the caller's. exp(-z) of the sigmoid overflows where
    # the projection z is below about -709
    tenv = TradeoffEnv(np.array([1.0, 0.0]), 0.2, d_t=2)
    tp = tenv.make_profile(0, substream(0, "s"), k=1)
    specs = [(-800.0, 800.0, 41), (-1.0, 1.0, 101)]
    threads = threading.active_count()
    got = set()
    for workers in (1, 2):
        _cpus(monkeypatch, workers)
        with np.errstate(over="raise"), pytest.raises(FloatingPointError):
            oracle_best(tenv, tp, np.zeros(2), specs)
        with np.errstate(over="ignore"):
            e_best, sc = oracle_best(tenv, tp, np.zeros(2), specs)
        got.add((e_best.tobytes(), sc))
        assert threading.active_count() == threads
    assert len(got) == 1
    # which thread scores which block is up to the scheduler; a block that
    # sleeps lets the helper in, and every block sees the caller's errstate
    fused, seen = tenv.fused_batch, []

    def recording(f_t, rows, profile):
        seen.append((threading.get_ident(), np.geterr()["over"]))
        time.sleep(0.002)
        return fused(f_t, rows, profile)

    monkeypatch.setattr(tenv, "fused_batch", recording)
    monkeypatch.setattr(envmod, "ORACLE_BLOCK_ROWS", 101)  # one slab a block
    with np.errstate(over="ignore"):
        assert oracle_best(tenv, tp, np.zeros(2), specs)[0].tobytes() == e_best.tobytes()
    assert len(seen) == 41 and {over for _, over in seen} == {"ignore"}
    assert len({ident for ident, _ in seen}) == 2


def test_oracle_deals_each_block_once_under_fast_thread_switching(monkeypatch):
    # 8 workers on fewer cores, switching threads every microsecond: runs
    # that overlapped or left a gap would score a block twice or skip one
    env = SyntheticVoiceEnv(d_e=2, d_t=2, seed=17)
    p = env.make_profile(0, substream(17, "corpus"), k=1)
    specs = [(-1.0, 1.0, 40), (-1.0, 1.0, 25)]
    monkeypatch.setattr(envmod, "ORACLE_BLOCK_ROWS", 25)  # one slab a block
    want = oracle_best(env, p, env.f_t_cal, specs)
    fused, firsts = env.fused_batch, []

    def recording(f_t, rows, profile):
        firsts.append(rows[0, 0])
        return fused(f_t, rows, profile)

    monkeypatch.setattr(env, "fused_batch", recording)
    _cpus(monkeypatch, 8)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(20):
            firsts.clear()
            e_best, sc = oracle_best(env, p, env.f_t_cal, specs)
            assert sorted(firsts) == np.linspace(-1.0, 1.0, 40).tolist()
            assert e_best.tobytes() == want[0].tobytes() and sc == want[1]
    finally:
        sys.setswitchinterval(interval)


class _ThreadRecorder:
    kind = "mos"

    def __init__(self):
        self.threads = set()

    def score(self, speech, context):
        self.threads.add(threading.get_ident())
        return 4.0


def test_oracle_plugins_and_one_cpu_start_no_thread(monkeypatch):
    env = SyntheticVoiceEnv(d_e=2, d_t=2, seed=17)
    p = env.make_profile(0, substream(17, "corpus"), k=1)
    specs = [(-1.0, 1.0, 40), (-1.0, 1.0, 25)]
    monkeypatch.setattr(envmod, "ORACLE_BLOCK_ROWS", 100)
    want = oracle_best(env, p, env.f_t_cal, specs)

    def no_thread(*args, **kwargs):
        raise AssertionError("oracle_best started a thread")

    monkeypatch.setattr(threading, "Thread", no_thread)
    _cpus(monkeypatch, 1)
    e_best, sc = oracle_best(env, p, env.f_t_cal, specs)
    assert e_best.tobytes() == want[0].tobytes() and sc == want[1]
    # plug-in scorers need not be thread-safe: they score on the caller's thread
    _cpus(monkeypatch, 8)
    env.scorers = {"mos": _ThreadRecorder()}
    oracle_best(env, p, env.f_t_cal, specs)
    assert env.scorers["mos"].threads == {threading.get_ident()}


@pytest.mark.parametrize("points", [2, 4, 40])
def test_oracle_zoom_returns_its_best_round(monkeypatch, points):
    # with an even points, a window's grid misses the previous argmax, so a
    # later round can score below an earlier one
    rounds = []
    best = envmod.oracle_best

    def recording(*args):
        rounds.append(best(*args))
        return rounds[-1]

    monkeypatch.setattr(envmod, "oracle_best", recording)
    for seed in range(10):
        env = SyntheticVoiceEnv(d_e=2, d_t=2, seed=seed)
        rng = substream(seed, "corpus")
        for speaker in range(3):
            p = env.make_profile(speaker, rng, k=1)
            lim = float(np.max(np.abs(p.refs))) + 0.1
            rounds.clear()
            e_best, sc = oracle_zoom(env, p, env.f_t_cal, -lim, lim, points=points)
            assert len(rounds) == 4
            assert sc == max(r[1] for r in rounds), (seed, speaker)
            first = next(r for r in rounds if r[1] == sc)
            assert e_best.tobytes() == first[0].tobytes()


def test_oracle_zoom_refines_monotonically():
    env = SyntheticVoiceEnv(d_e=2, d_t=2, seed=13)
    p = env.make_profile(0, substream(13, "corpus"), k=1)
    f_t = env.f_t_cal
    _, coarse = oracle_best(env, p, f_t, (-0.3, 0.3, 21))
    _, fine = oracle_zoom(env, p, f_t, -0.3, 0.3, points=21)
    assert fine >= coarse - 1e-15
    # the refined optimum approaches the true one
    assert fine <= env.fused(env.f_t_cal, p.true_embedding, p) + 1e-9


# -- tradeoff environment --------------------------------------------------

def _tenv(tau=0.2, d=3, **kw):
    w = np.zeros(d)
    w[0] = 1.0
    return TradeoffEnv(w, tau, **kw)


def test_tradeoff_requires_unit_direction_and_positive_tau():
    with pytest.raises(ValueError):
        TradeoffEnv(np.array([1.0, 1.0]), 0.2)
    with pytest.raises(ValueError):
        TradeoffEnv(np.array([1.0, 0.0]), 0.0)


def test_tradeoff_boundary_scores():
    env = _tenv(tau=0.2)
    p = env.make_profile(0, substream(0, "s"), k=1)
    at_tau = np.array([0.2, 5.0, -3.0])  # w.e = tau; other coords ignored
    t = env.score_state(np.zeros(4), at_tau, p)
    assert t.mos == 5.0 and t.intell == 0.0
    assert env.score_state(np.zeros(4), np.zeros(3), p).sim == pytest.approx(0.5)


def test_tradeoff_direction_is_monotone():
    env = _tenv(tau=0.2)
    p = env.make_profile(0, substream(0, "s"), k=1)
    lo = env.score_state(np.zeros(4), np.array([0.2, 0, 0]), p)
    hi = env.score_state(np.zeros(4), np.array([1.2, 0, 0]), p)
    assert hi.sim > lo.sim
    assert hi.mos < lo.mos
    assert hi.intell > lo.intell


def test_tradeoff_score_state_is_the_projection_formula_bitwise():
    """The scalar kernel is the row kernel on one embedding: e @ w is the
    dot float(w @ e), and the same scalar operations follow it."""
    rng = np.random.default_rng(8)
    for d in (1, 3, 8, 16):
        w = rng.standard_normal(d)
        env = TradeoffEnv(w / np.linalg.norm(w), 0.2, d_t=2)
        p = env.make_profile(0, substream(0, "s"), k=1)
        E = rng.standard_normal((400, d)) * rng.choice([0.05, 0.3, 2.0], size=(400, 1))
        past_tau = 0
        for e in E:
            z = float(env.w @ e)
            past_tau += z > env.tau
            want = [float(v) for v in env._scores_from_proj(z)]
            t = env.score_state(np.zeros(2), e, p)
            got = [t.sim, t.mos, t.intell]
            assert np.array(got).tobytes() == np.array(want).tobytes(), (d, e)
            want_fused = fuse_scores(ScoreTriple(*want), env.weights)  # of Python floats
            assert float(env.fused(np.zeros(2), e, p)).hex() == want_fused.hex(), (d, e)
        assert 50 <= past_tau <= 350, past_tau


@pytest.mark.parametrize("kw,text", [
    ({"sigma_star": math.nan}, "sigma_star must be finite and >= 0, got nan"),
    ({"sigma_ref": -1.0}, "sigma_ref must be finite and >= 0, got -1.0"),
    ({"sigma_star": math.inf}, "sigma_star must be finite and >= 0, got inf"),
    ({"sigma_star": 1e160}, "sigma_star=1e+160 is too large at d_e=3"),
])
def test_voice_env_refuses_spreads_it_cannot_score(kw, text):
    """A spread that is not finite and >= 0, or one at which squared norms
    overflow, is a ValueError naming it; a NaN sigma_star used to build an
    env whose first score failed as "mos score nan"."""
    with pytest.raises(ValueError, match=re.escape(text)):
        SyntheticVoiceEnv(d_e=3, d_t=2, **kw)
