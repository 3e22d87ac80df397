"""Synthetic environments, the episode contract, and the grid oracle."""

import numpy as np
import pytest

from asrrl.core import FSAction, SSAction, StateLayout
from asrrl.env import (
    ORACLE_BLOCK_ROWS,
    EpisodeError,
    SpeakerProfile,
    SyntheticVoiceEnv,
    TradeoffEnv,
    oracle_best,
    oracle_zoom,
)
from asrrl.harness import finetune_proxy
from asrrl.scoring import (RewardWeights, ScoreContext, ScoreRangeError,
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
    e = p.true_embedding  # well inside both shells by construction
    assert np.linalg.norm(e) <= min(env.r_mos, env.r_in)
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
    w = RewardWeights(enable_mos=toggles[0], enable_intell=toggles[1])
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
    scored = SyntheticVoiceEnv(
        d_e=4, d_t=3, seed=2,
        scorers={"sim": SimScorer(), "mos": Const("mos", 5.0),
                 "intell": Const("intell", 0.0)},
    )
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
    env = _env(seed=2, scorers=scorers) if kind == "voice" else _tenv(scorers=scorers)
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
    env = SyntheticVoiceEnv(d_e=1, d_t=2, seed=7, r_mos=1.0, r_in=1.0)
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


def test_oracle_chunks_match_one_meshgrid_argmax_and_ties_go_first():
    env = SyntheticVoiceEnv(d_e=2, d_t=2, seed=17)
    p = env.make_profile(0, substream(17, "corpus"), k=1)
    lim = float(np.max(np.abs(p.refs))) + 0.1
    e_best, sc = oracle_best(env, p, env.f_t_cal, (-lim, lim, 501))
    axis = np.linspace(-lim, lim, 501)
    mesh = np.meshgrid(axis, axis, indexing="ij")
    points = np.stack([m.ravel() for m in mesh], axis=1)
    # at least three whole blocks and a ragged tail
    assert len(points) >= 3 * ORACLE_BLOCK_ROWS and len(points) % ORACLE_BLOCK_ROWS
    want = env.fused_batch(env.f_t_cal, points, p)
    i = int(np.argmax(want))
    assert e_best.tobytes() == points[i].tobytes() and sc == want[i]
    # the tradeoff score ignores axis 1, so every value there ties
    tenv = TradeoffEnv(np.array([1.0, 0.0]), 0.2, d_t=2)
    tp = tenv.make_profile(0, substream(0, "s"), k=1)
    e_best, _ = oracle_best(tenv, tp, np.zeros(2), [(-1.0, 1.0, 41), (-0.5, 0.5, 11)])
    assert e_best[1] == -0.5
    # 1,001 tied rows per axis-0 value: first wins both when the optimum's
    # rows sit inside one block and when they straddle two
    straddles = []
    for lo, hi in ((-1.0, 1.0), (-0.6, 0.4)):
        e_best, _ = oracle_best(tenv, tp, np.zeros(2), [(lo, hi, 41), (-0.5, 0.5, 1001)])
        assert e_best[1] == -0.5
        first = 1001 * int(np.flatnonzero(np.linspace(lo, hi, 41) == e_best[0])[0])
        straddles.append(first // ORACLE_BLOCK_ROWS != (first + 1000) // ORACLE_BLOCK_ROWS)
    assert straddles == [False, True]


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
    return TradeoffEnv(w, tau, seed=0, **kw)


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
