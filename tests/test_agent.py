"""Policy network, GAE, PPO updates, and checkpointing."""

import io
import json
import math
import re
import warnings
from contextlib import contextmanager
from dataclasses import asdict, fields

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import stats

from asrrl import agent
from asrrl.agent import (
    Adam,
    CheckpointError,
    PolicyNetwork,
    RolloutBatch,
    UpdateRejected,
    action_log_prob,
    gae,
    gaussian_log_prob,
    load_checkpoint,
    ppo_loss_and_grads,
    ppo_update,
    save_checkpoint,
    select_action,
    tanh_correction,
)
from asrrl.core import RLConfig, SSAction, StateLayout
from asrrl.harness import ExperimentSpec, gen_corpus, train
from asrrl.seeding import substream


def _policy(scenario="ss", encoder="segments", hidden=4, d_t=2, d_e=2, k=2,
            seed=0):
    layout = StateLayout(d_t=d_t, d_e=d_e)
    return PolicyNetwork(layout, scenario, k=k, hidden=hidden, encoder=encoder,
                         rng=np.random.default_rng(seed))


# -- GAE -------------------------------------------------------------------

def _gae_rows(rewards, values, dones, gamma, gae_lambda):
    """GAE row by row over concatenated episodes, each ending where dones
    is True: the reference for gae's (episodes, steps) form."""
    n = len(rewards)
    advantages = np.zeros(n)
    last = 0.0
    for t in range(n - 1, -1, -1):
        nonterminal = 0.0 if dones[t] else 1.0
        next_value = values[t + 1] if (t + 1 < n and not dones[t]) else 0.0
        delta = rewards[t] + gamma * next_value * nonterminal - values[t]
        last = delta + gamma * gae_lambda * nonterminal * last
        advantages[t] = last
    return advantages, advantages + values


def _episode_ends(episodes, steps):
    dones = np.zeros((episodes, steps), dtype=bool)
    dones[:, -1] = True
    return dones.ravel()


def test_gae_hand_computed():
    adv, ret = gae([[1.0, 1.0, 1.0]], [[0.0, 0.0, 0.0]], gamma=0.5, gae_lambda=1.0)
    np.testing.assert_allclose(adv, [[1.75, 1.5, 1.0]], atol=1e-12)
    np.testing.assert_allclose(ret, adv, atol=1e-12)


def test_gae_gamma_zero_is_td_residual():
    r = np.array([[0.3, -0.2, 0.5]])
    v = np.array([[0.1, 0.4, -0.1]])
    adv, _ = gae(r, v, gamma=0.0, gae_lambda=0.95)
    np.testing.assert_allclose(adv, r - v, atol=1e-12)


def test_gae_zero_inputs():
    adv, ret = gae(np.zeros((2, 5)), np.zeros((2, 5)), 0.9, 0.95)
    assert not adv.any() and not ret.any()


@pytest.mark.parametrize("steps", [1, 3, 5])
@pytest.mark.parametrize("gamma", [0.0, 0.3, 1.0])
@pytest.mark.parametrize("gae_lambda", [0.0, 0.95, 1.0])
def test_gae_bit_equal_to_row_by_row_reference(steps, gamma, gae_lambda):
    rng = np.random.default_rng(steps)
    r = rng.standard_normal((11, steps))
    v = rng.standard_normal((11, steps))
    adv, ret = gae(r, v, gamma, gae_lambda)
    want_adv, want_ret = _gae_rows(r.ravel(), v.ravel(), _episode_ends(11, steps),
                                   gamma, gae_lambda)
    assert adv.shape == ret.shape == (11, steps)
    assert adv.tobytes() == want_adv.tobytes()
    assert ret.tobytes() == want_ret.tobytes()


def test_gae_episodes_are_independent():
    # each episode's row equals gae of that row alone
    rng = np.random.default_rng(4)
    r, v = rng.standard_normal((6, 3)), rng.standard_normal((6, 3))
    adv, ret = gae(r, v, 0.9, 0.9)
    for i in range(len(r)):
        a, b = gae(r[i:i + 1], v[i:i + 1], 0.9, 0.9)
        assert a.tobytes() == adv[i:i + 1].tobytes()
        assert b.tobytes() == ret[i:i + 1].tobytes()
    # a non-finite reward stays in its own episode
    r[2, 1] = np.inf
    adv, _ = gae(r, v, 0.9, 0.9)
    assert np.isfinite(np.delete(adv, 2, axis=0)).all()


def test_gae_validates_inputs():
    with pytest.raises(ValueError):
        gae([[1.0]], [[1.0, 2.0]], 0.9, 0.9)
    with pytest.raises(ValueError, match=r"\(episodes, steps\)"):
        gae([1.0, 2.0], [0.0, 0.0], 0.9, 0.9)
    with pytest.raises(ValueError):
        gae([[1.0]], [[0.0]], 1.5, 0.9)


def test_single_episode_advantages_are_standardized():
    batch = RolloutBatch(states=np.zeros((1, 3, 2)), raw_actions=np.zeros((1, 3, 1)),
                         log_probs=np.zeros((1, 3)), rewards=np.array([[1.0, -2.0, 0.5]]),
                         values=np.zeros((1, 3))).compute_advantages(0.9, 0.95)
    assert batch.advantages.shape == (1, 3)
    assert abs(batch.advantages.mean()) <= 1e-12
    assert abs(batch.advantages.std() - 1.0) <= 1e-12


# -- distributions ---------------------------------------------------------

def test_gaussian_log_prob_matches_scipy():
    rng = np.random.default_rng(0)
    raw = rng.standard_normal((5, 3))
    mean = rng.standard_normal((5, 3))
    log_std = np.array([-0.5, 0.0, 0.3])
    got = gaussian_log_prob(raw, mean, log_std)
    want = stats.norm.logpdf(raw, loc=mean, scale=np.exp(log_std)).sum(axis=1)
    np.testing.assert_allclose(got, want, atol=1e-12)


def test_tanh_correction_matches_naive_formula():
    u = np.linspace(-3, 3, 13).reshape(1, -1)
    naive = np.log(1.0 - np.tanh(u) ** 2).sum(axis=1)
    np.testing.assert_allclose(tanh_correction(u), naive, rtol=1e-10)


def test_tanh_correction_stable_for_large_inputs():
    assert np.isfinite(tanh_correction(np.array([[50.0, -50.0]]))).all()


def test_tanh_correction_matches_logaddexp_form():
    """The |u| form agrees with 2*(log 2 - u - softplus(-2u)) to rounding,
    one value per row and summed over a 258x16 batch, finite everywhere."""
    def logaddexp_form(u):
        return (2.0 * (np.log(2.0) - u - np.logaddexp(0.0, -2.0 * u))).sum(axis=-1)

    points = np.array([0.0, 1e-300, -1e-300, 0.5, -0.5, 20.0, -20.0, 50.0, -50.0,
                       400.0, -400.0, 800.0, -800.0]).reshape(-1, 1)
    batch = np.random.default_rng(3).standard_normal((258, 16))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        for u in (points, batch):
            got = tanh_correction(u)
            assert np.isfinite(got).all()
            np.testing.assert_allclose(got, logaddexp_form(u), rtol=1e-13, atol=1e-14)
    assert tanh_correction(points[:3]).tolist() == [0.0, 0.0, 0.0]


def test_select_action_mode_deterministic_and_bounded():
    policy = _policy("ss")
    state = np.arange(policy.state_dim, dtype=float)
    a1, lp1, v1, _ = select_action(policy, state, mode="mode")
    a2, lp2, v2, _ = select_action(policy, state, mode="mode")
    np.testing.assert_array_equal(a1.delta, a2.delta)
    assert lp1 == lp2 and v1 == v2
    assert np.max(np.abs(a1.delta)) <= 1.0


def test_select_action_log_prob_recomputed_independently():
    policy = _policy("ss")
    rng = np.random.default_rng(3)
    state = rng.standard_normal(policy.state_dim)
    action, lp, _, raw = select_action(policy, state, rng=rng)
    mean, log_std, _, _ = policy.forward(state)
    base = stats.norm.logpdf(raw, loc=mean[0], scale=np.exp(log_std)).sum()
    corr = np.log(1.0 - np.tanh(raw) ** 2).sum()
    assert abs(lp - (base - corr)) <= 1e-9
    np.testing.assert_allclose(action.delta, np.tanh(raw), atol=1e-15)


def test_select_action_fs_returns_logits():
    policy = _policy("fs", k=3)
    action, lp, _, raw = select_action(policy, np.zeros(policy.state_dim),
                                       rng=np.random.default_rng(0))
    assert action.logits.shape == (3,)
    np.testing.assert_array_equal(action.logits, raw)
    assert np.isfinite(lp)


def test_select_action_sampling_needs_rng():
    policy = _policy("ss")
    with pytest.raises(ValueError):
        select_action(policy, np.zeros(policy.state_dim))


@pytest.mark.filterwarnings("ignore:invalid value encountered")
def test_forward_raises_on_nonfinite_params():
    policy = _policy("ss")
    policy.params["mean.W"][:] = np.inf
    with pytest.raises(FloatingPointError, match="parameter norms"):
        policy.forward(np.zeros(policy.state_dim))
    policy = _policy("ss")
    policy.params["value.W"][1, 0] = np.nan
    with pytest.raises(FloatingPointError, match="parameter norms"):
        policy.forward(np.ones(policy.state_dim))


def test_forward_clamps_log_std_like_np_clip():
    policy = _policy("ss", d_e=6)
    raw = np.array([-7.5, -5.0, -4.999, 1.999, 2.0, 9.0])
    policy.params["log_std"][:] = raw
    _, log_std, _, _ = policy.forward(np.zeros(policy.state_dim))
    want = np.clip(raw, agent.LOG_STD_MIN, agent.LOG_STD_MAX)
    assert log_std.tobytes() == want.tobytes()
    assert log_std.tolist() == [-5.0, -5.0, -4.999, 1.999, 2.0, 2.0]
    # the parameter itself is left as it was
    assert policy.params["log_std"].tobytes() == raw.tobytes()


# -- PPO -------------------------------------------------------------------

def _batch(policy, n=30, seed=0):
    """n random steps as n // 3 episodes of 3 steps."""
    rng = np.random.default_rng(seed)
    states = rng.standard_normal((n, policy.state_dim))
    mean, log_std, value, _ = policy.forward(states)
    raw = mean + np.exp(log_std) * rng.standard_normal(mean.shape)
    lp = action_log_prob(policy, raw, mean, log_std)
    rewards = rng.standard_normal(n) * 0.1
    shape = (n // 3, 3)
    return RolloutBatch(
        states=states.reshape(*shape, -1), raw_actions=raw.reshape(*shape, -1),
        log_probs=lp.reshape(shape), rewards=rewards.reshape(shape),
        values=value.reshape(shape),
    ).compute_advantages(0.3, 0.95)


def test_batch_keeps_the_row_layout_bits():
    # the episodes are the rows a flat, done-flagged batch held, and
    # their advantages are the row-by-row ones, standardized
    policy = _policy("ss", encoder="segments", hidden=4)
    batch = _batch(policy, n=24, seed=5)
    rng = np.random.default_rng(5)
    states = rng.standard_normal((24, policy.state_dim))
    mean, log_std, value, _ = policy.forward(states)
    raw = mean + np.exp(log_std) * rng.standard_normal(mean.shape)
    lp = action_log_prob(policy, raw, mean, log_std)
    rewards = rng.standard_normal(24) * 0.1
    adv, ret = _gae_rows(rewards, value, _episode_ends(8, 3), 0.3, 0.95)
    adv = (adv - adv.mean()) / adv.std()
    for got, want in ((batch.states, states), (batch.raw_actions, raw),
                      (batch.log_probs, lp), (batch.rewards, rewards),
                      (batch.values, value), (batch.advantages, adv),
                      (batch.returns, ret)):
        assert got.shape[:2] == (8, 3)
        assert got.tobytes() == want.tobytes()


def test_ppo_pass_reads_steps_episode_after_episode():
    # the same rows as one-step episodes give the same bits
    policy = _policy("ss")
    batch = _batch(policy, n=24, seed=5)
    rows = RolloutBatch(*(a.reshape(24, 1, *a.shape[2:])
                          for a in (getattr(batch, f.name) for f in fields(batch))))
    kw = dict(clip_epsilon=0.2, value_coef=0.5, entropy_coef=0.01)
    loss, grads, report = ppo_loss_and_grads(policy, batch, **kw)
    want_loss, want_grads, want_report = ppo_loss_and_grads(policy, rows, **kw)
    assert loss == want_loss and report == want_report
    assert grads.tobytes() == want_grads.tobytes()


@pytest.mark.parametrize("scenario", ["ss", "fs"])
@pytest.mark.parametrize("encoder", ["segments"])
def test_gradients_match_finite_differences(scenario, encoder):
    policy = _policy(scenario, encoder=encoder)
    assert policy.flat.size <= 200
    batch = _batch(policy)

    def loss():
        val, _, _ = ppo_loss_and_grads(policy, batch, clip_epsilon=0.2,
                                       value_coef=0.5, entropy_coef=0.01)
        return val

    _, flat_grads, _ = ppo_loss_and_grads(policy, batch, clip_epsilon=0.2,
                                          value_coef=0.5, entropy_coef=0.01)
    grads = policy.views(flat_grads)
    h = 1e-6
    worst = 0.0
    for name, arr in policy.params.items():
        flat = arr.ravel()
        g = grads[name].ravel()
        for i in range(flat.size):
            keep = flat[i]
            flat[i] = keep + h
            up = loss()
            flat[i] = keep - h
            dn = loss()
            flat[i] = keep
            fd = (up - dn) / (2 * h)
            denom = max(abs(fd), abs(g[i]), 1e-8)
            worst = max(worst, abs(fd - g[i]) / denom)
    assert worst <= 1e-4, f"max relative gradient error {worst:.3e}"


def test_ppo_update_moves_toward_advantage():
    policy = _policy("ss", hidden=8)
    batch = _batch(policy, n=63)
    before = [ppo_loss_and_grads(policy, batch, clip_epsilon=0.2,
                                 value_coef=0.5, entropy_coef=0.0)[0]]
    report = ppo_update(policy, batch, RLConfig(update_epochs=10, entropy_coef=0.0),
                        Adam(policy.flat, 1e-2))
    after = ppo_loss_and_grads(policy, batch, clip_epsilon=0.2,
                               value_coef=0.5, entropy_coef=0.0)[0]
    assert after < before[0]
    assert {"loss", "policy_loss", "value_loss", "entropy",
            "approx_kl", "max_ratio"} <= set(report)


def test_ppo_rejects_exploded_ratio():
    policy = _policy("ss")
    batch = _batch(policy)
    batch.log_probs = batch.log_probs - 50.0  # fake stale behavior policy
    with pytest.raises(UpdateRejected):
        ppo_loss_and_grads(policy, batch, clip_epsilon=0.2,
                           value_coef=0.5, entropy_coef=0.01)


def test_log_std_stays_clamped_after_updates():
    policy = _policy("ss")
    policy.params["log_std"][:] = 1.9
    batch = _batch(policy)
    ppo_update(policy, batch, RLConfig(update_epochs=3), Adam(policy.flat, 10.0))
    assert np.all(policy.params["log_std"] <= 2.0)
    assert np.all(policy.params["log_std"] >= -5.0)


def test_advantage_normalization():
    policy = _policy("ss")
    batch = _batch(policy, n=63)
    assert abs(batch.advantages.mean()) <= 1e-9
    assert abs(batch.advantages.std() - 1.0) <= 1e-9


def test_adam_first_step_size_is_lr():
    params = np.array([1.0, -2.0])
    opt = Adam(params, lr=0.05)
    opt.step(params, np.array([3.7, -0.002]))
    # bias-corrected first step moves by ~lr regardless of gradient scale
    np.testing.assert_allclose(params, [1.0 - 0.05, -2.0 + 0.05], atol=1e-6)


class _PerKeyAdam:
    """Adam as one update per parameter array, the reference for the flat one."""

    def __init__(self, params, lr):
        self.lr, self.t = lr, 0
        self.m = {k: np.zeros_like(v) for k, v in params.items()}
        self.v = {k: np.zeros_like(v) for k, v in params.items()}

    def step(self, params, grads):
        self.t += 1
        bc1 = 1.0 - Adam.BETA1 ** self.t
        bc2 = 1.0 - Adam.BETA2 ** self.t
        for k, g in grads.items():
            self.m[k] = Adam.BETA1 * self.m[k] + (1 - Adam.BETA1) * g
            self.v[k] = Adam.BETA2 * self.v[k] + (1 - Adam.BETA2) * g * g
            params[k] -= self.lr * (self.m[k] / bc1) / (np.sqrt(self.v[k] / bc2) + Adam.EPS)


def test_flat_adam_bit_equal_to_per_key_adam():
    policy = _policy("ss", hidden=8)
    ref = {k: v.copy() for k, v in policy.params.items()}
    flat_opt, ref_opt = Adam(policy.flat, 3e-3), _PerKeyAdam(ref, 3e-3)
    rng = np.random.default_rng(5)
    for _ in range(50):
        g = rng.standard_normal(policy.flat.size) * rng.choice([1e-6, 1.0, 1e3])
        flat_opt.step(policy.flat, g)
        ref_opt.step(ref, {k: v.copy() for k, v in policy.views(g).items()})
    for k, v in ref.items():
        assert policy.params[k].tobytes() == v.tobytes(), k


def test_ppo_grads_survive_later_calls():
    policy = _policy("ss")
    batch = _batch(policy)
    kw = dict(clip_epsilon=0.2, value_coef=0.5, entropy_coef=0.01)
    _, grads, _ = ppo_loss_and_grads(policy, batch, **kw)
    assert grads.shape == policy.flat.shape
    kept = grads.copy()
    policy.flat += 1e-3 * np.random.default_rng(1).standard_normal(policy.flat.size)
    _, again, _ = ppo_loss_and_grads(policy, batch, **kw)
    assert not np.array_equal(policy.views(again)["mean.W"], policy.views(kept)["mean.W"])
    np.testing.assert_array_equal(grads, kept)


@pytest.mark.parametrize("epochs", [1, 3])
def test_ppo_update_steps_adam_on_the_objectives_gradient_bitwise(epochs):
    # each epoch is Adam.step on a copy, fed ppo_loss_and_grads' flat gradient,
    # then the log_std clamp
    policy = _policy("ss", hidden=8)
    batch = _batch(policy, n=63)
    cfg = RLConfig(update_epochs=epochs)
    ref = _policy("ss", hidden=8)
    ref_opt = Adam(ref.flat, 1e-2)
    report = ppo_update(policy, batch, cfg, Adam(policy.flat, 1e-2))
    for _ in range(epochs):
        _, g, want_report = ppo_loss_and_grads(
            ref, batch, clip_epsilon=cfg.clip_epsilon, value_coef=cfg.value_coef,
            entropy_coef=cfg.entropy_coef)
        ref_opt.step(ref.flat, g)
        np.clip(ref.params["log_std"], agent.LOG_STD_MIN, agent.LOG_STD_MAX,
                out=ref.params["log_std"])
    assert report == want_report
    assert policy.flat.tobytes() == ref.flat.tobytes()
    assert not np.array_equal(policy.flat, _policy("ss", hidden=8).flat)


@pytest.mark.parametrize("scenario", ["ss", "fs"])
def test_ppo_update_computes_the_squash_term_once(scenario, monkeypatch):
    # the raw actions do not change between epochs: one tanh_correction per
    # SS update, whatever the epoch count, and none in FS
    calls = []
    real = agent.tanh_correction
    monkeypatch.setattr(agent, "tanh_correction",
                        lambda raw: calls.append(raw.shape) or real(raw))
    policy = _policy(scenario, hidden=8)
    batch = _batch(policy, n=63)
    calls.clear()
    ppo_update(policy, batch, RLConfig(update_epochs=4), Adam(policy.flat, 1e-2))
    assert calls == ([batch.raw_actions.shape] if scenario == "ss" else [])


def test_ppo_loss_without_the_squash_term_computes_it_bitwise():
    policy = _policy("ss", hidden=8)
    batch = _batch(policy, n=63)
    policy.flat += 0.05 * np.random.default_rng(3).standard_normal(policy.flat.size)
    kw = dict(clip_epsilon=0.2, value_coef=0.5, entropy_coef=0.01)
    loss, grads, report = ppo_loss_and_grads(policy, batch, **kw)
    squash = tanh_correction(batch.raw_actions)
    given_loss, given_grads, given_report = ppo_loss_and_grads(policy, batch, **kw,
                                                               squash=squash)
    assert loss == given_loss and report == given_report
    assert grads.tobytes() == given_grads.tobytes()
    assert report["max_ratio"] != 1.0  # the policy moved off the batch's
    # and the given term is the one subtracted
    assert ppo_loss_and_grads(policy, batch, **kw, squash=squash + 0.1)[2] != report


@pytest.mark.parametrize("encoder", ["segments"])
def test_forward_bit_equal_across_batch_sizes(encoder):
    six_segments = StateLayout(d_t=3, d_e=2, d_v=4, include_f_rv=True,
                               include_e_s=True, include_f_sv=True)

    def make():
        return PolicyNetwork(six_segments, "ss", hidden=16, encoder=encoder,
                             rng=np.random.default_rng(3))

    policy = make()
    rng = np.random.default_rng(4)
    for n in (1, 258, 86, 1, 258):
        X = rng.standard_normal((n, policy.state_dim))
        got, want = policy.forward(X), make().forward(X)
        for a, b in zip(got[:3], want[:3]):
            assert a.tobytes() == b.tobytes()


def _reference_forward(policy, X):
    """The forward pass over per-row tokens, sep included, as tanh(X_seg @ W + g)."""
    p = policy.params
    tokens = [np.tanh(X[:, off:off + dim] @ p[W] + p[g])
              for W, g, off, dim in policy._segments]
    h2 = np.tanh(sum(tokens) / len(tokens) @ p["trunk.W"] + p["trunk.b"])
    return h2 @ p["mean.W"] + p["mean.b"], (h2 @ p["value.W"] + p["value.b"]).ravel()


def test_sep_weight_never_trained_and_forward_matches_per_row_sep(tmp_path):
    corpus = gen_corpus(11, 50, 1, 16, 8, 4, tmp_path / "c.tsv", sigma_ref=0.05)
    cfg = RLConfig(d_e=16, d_t=8, k=1, seed=0, train_iters=3)
    spec = ExperimentSpec(config=cfg, scenario="ss", out_dir=tmp_path, run_id="r")
    policy, _ = train(spec, corpus, write_outputs=False)
    init = PolicyNetwork(policy.layout, "ss", hidden=cfg.hidden,
                         rng=substream(0, "policy-init"))
    assert policy.params["enc.sep.W"].tobytes() == init.params["enc.sep.W"].tobytes()
    assert policy.params["enc.sep.g"].tobytes() != init.params["enc.sep.g"].tobytes()
    rng = np.random.default_rng(6)
    X = policy.layout.flatten(rng.standard_normal((40, 8)), rng.standard_normal((40, 16)))
    mean, _, value, _ = policy.forward(X)
    ref_mean, ref_value = _reference_forward(policy, X)
    assert mean.tobytes() == ref_mean.tobytes()
    assert value.tobytes() == ref_value.tobytes()


# -- checkpoints -----------------------------------------------------------

def test_checkpoint_roundtrip_bit_exact(tmp_path):
    policy = _policy("ss", hidden=8)
    rng = np.random.default_rng(42)
    rng.standard_normal(17)  # advance the stream to a nontrivial state
    path = tmp_path / "ck.json"
    save_checkpoint(policy, path, config=RLConfig(d_e=2, d_t=2, hidden=8),
                    step=123, rng=rng)
    loaded, cfg, step, rng2 = load_checkpoint(path)
    assert step == 123 and cfg.hidden == 8
    for name, arr in policy.params.items():
        np.testing.assert_array_equal(loaded.params[name], arr)
        assert np.shares_memory(loaded.params[name], loaded.flat)
    np.testing.assert_array_equal(rng2.standard_normal(8),
                                  rng.standard_normal(8))
    states = np.random.default_rng(1).standard_normal((100, policy.state_dim))
    for s in states:
        a1, _, _, _ = select_action(policy, s, mode="mode")
        a2, _, _, _ = select_action(loaded, s, mode="mode")
        np.testing.assert_array_equal(a1.delta, a2.delta)
    before = loaded.params["trunk.W"].copy()
    ppo_update(loaded, _batch(loaded), RLConfig(update_epochs=2), Adam(loaded.flat, 1e-2))
    assert not np.array_equal(loaded.params["trunk.W"], before)


def test_checkpoint_bytes_equal_json_dump_encoding(tmp_path):
    policy = _policy("ss", hidden=8)
    ppo_update(policy, _batch(policy), RLConfig(update_epochs=3), Adam(policy.flat, 1e-2))
    config = RLConfig(d_e=2, d_t=2, hidden=8)
    path = tmp_path / "ck.json"
    save_checkpoint(policy, path, config=config, step=9)
    cfg = {**asdict(config), "scenario": "ss", "layout": asdict(policy.layout)}
    doc = {"version": 1, "config": cfg, "step": 9, "rng": "", "params": {
        name: {"shape": list(arr.shape), "data": [float(x) for x in arr.ravel()]}
        for name, arr in policy.params.items()}}
    buf = io.StringIO()
    json.dump(doc, buf)
    assert path.read_bytes() == buf.getvalue().encode("utf-8")


def test_numpy_config_values_save_as_their_declared_types(tmp_path):
    # RLConfig accepts numpy numbers, which json.dumps refuses (np.int64,
    # np.float32); train wrote train.csv and then died with no checkpoint
    corpus = gen_corpus(5, 6, 1, 2, 2, 2, tmp_path / "c.tsv")
    for run_id, seed in (("py", 1), ("np", np.int64(1))):
        cfg = RLConfig(d_e=2, d_t=2, k=1, seed=seed, train_iters=2, rollout_batch=12,
                       hidden=4)
        train(ExperimentSpec(config=cfg, out_dir=tmp_path, run_id=run_id), corpus)
    assert (tmp_path / "np" / "checkpoint.json").read_bytes() == \
        (tmp_path / "py" / "checkpoint.json").read_bytes()
    path = tmp_path / "lr.json"
    save_checkpoint(_policy("ss"), path,
                    config=RLConfig(d_e=2, d_t=2, hidden=4, k=2,
                                    learning_rate=np.float32(3e-4)))
    cfg = load_checkpoint(path)[1]
    assert type(cfg.learning_rate) is float
    assert cfg.learning_rate == float(np.float32(3e-4)) != 3e-4


def test_save_checkpoint_refuses_an_invalid_config(tmp_path):
    """An invalid config raises ValueError before anything is written; it
    used to give a file that load_checkpoint refuses."""
    path = tmp_path / "ck.json"
    with pytest.raises(ValueError, match="gamma must be in"):
        save_checkpoint(_policy("ss"), path, config=RLConfig(d_e=2, d_t=2, gamma=2.0))
    assert not path.exists()


def test_checkpoint_truncated_file_reports_offset(tmp_path):
    policy = _policy("ss")
    path = tmp_path / "ck.json"
    save_checkpoint(policy, path, config=RLConfig(d_e=2, d_t=2))
    blob = path.read_text()
    path.write_text(blob[: len(blob) // 2])
    with pytest.raises(CheckpointError, match="offset"):
        load_checkpoint(path)


def test_checkpoint_version_gate(tmp_path):
    policy = _policy("ss")
    path = tmp_path / "ck.json"
    save_checkpoint(policy, path, config=RLConfig(d_e=2, d_t=2))
    doc = json.loads(path.read_text())
    doc["version"] = 99
    path.write_text(json.dumps(doc))
    with pytest.raises(CheckpointError, match="version"):
        load_checkpoint(path)


def test_checkpoint_shape_mismatch_names_parameter(tmp_path):
    policy = _policy("ss")
    path = tmp_path / "ck.json"
    save_checkpoint(policy, path, config=RLConfig(d_e=2, d_t=2, hidden=4, k=2))
    doc = json.loads(path.read_text())
    doc["params"]["mean.b"]["data"].append(0.0)
    doc["params"]["mean.b"]["shape"] = [3]
    path.write_text(json.dumps(doc))
    with pytest.raises(CheckpointError, match="mean.b"):
        load_checkpoint(path)


def test_failed_checkpoint_write_keeps_previous_file(tmp_path, monkeypatch):
    policy = _policy("ss")
    path = tmp_path / "ck.json"
    save_checkpoint(policy, path, config=RLConfig(d_e=2, d_t=2), step=1)
    before = path.read_bytes()

    real = agent.replace_on_success

    @contextmanager
    def half_write(target):
        with real(target) as fh:
            class DiskFull:  # writes half the document, then fails
                def write(self, text):
                    fh.write(text[: len(text) // 2])
                    raise OSError("disk full")
            yield DiskFull()

    monkeypatch.setattr(agent, "replace_on_success", half_write)
    with pytest.raises(OSError, match="disk full"):
        save_checkpoint(policy, path, config=RLConfig(d_e=2, d_t=2), step=2)
    assert path.read_bytes() == before
    assert list(tmp_path.iterdir()) == [path]


def test_checkpoint_missing_file(tmp_path):
    with pytest.raises(CheckpointError):
        load_checkpoint(tmp_path / "absent.json")


def _param_edit(name, key, value):
    """A checkpoint edit that sets params[name][key] (data[i] for key ("data", i))."""
    def edit(doc):
        entry = doc["params"][name]
        if isinstance(key, tuple):
            entry[key[0]][key[1]] = value
        else:
            entry[key] = value
        return doc
    return edit


def _rng_edit(state):
    """A checkpoint edit that stores state (a dict, or a function of the saved
    one) as the rng."""
    def edit(doc):
        saved = json.loads(bytes.fromhex(doc["rng"]))
        doc["rng"] = json.dumps(state(saved) if callable(state) else state).encode().hex()
        return doc
    return edit


@pytest.mark.parametrize("mutate, match", [
    pytest.param(lambda doc: [1, 2], "JSON object", id="not-object"),
    pytest.param(lambda doc: {"version": 1}, "missing config, params, step",
                 id="version-only"),
    pytest.param(lambda doc: {k: v for k, v in doc.items() if k != "step"},
                 "missing step", id="no-step"),
    pytest.param(lambda doc: {**doc, "config": {**doc["config"], "warp": 1}},
                 "warp", id="unknown-config-key"),
    pytest.param(lambda doc: {**doc, "config": {
        **doc["config"], "layout": {**doc["config"]["layout"], "d_x": 1}}},
                 "d_x", id="unknown-layout-key"),
    pytest.param(lambda doc: {**doc, "config": {
        k: v for k, v in doc["config"].items() if k != "layout"}},
                 "layout", id="no-layout"),
    pytest.param(lambda doc: {**doc, "params": {
        n: {"data": e["data"]} for n, e in doc["params"].items()}},
                 "shape", id="param-without-shape"),
    pytest.param(lambda doc: {**doc, "config": {**doc["config"], "gamma": 7.0}},
                 "gamma", id="invalid-config-value"),
    # a JSON integer past float64's range used to escape as an OverflowError
    pytest.param(lambda doc: {**doc, "config": {**doc["config"], "gamma": 10**400}},
                 "gamma past float64's range", id="config-int-past-float-range"),
    pytest.param(lambda doc: {**doc, "params": 5}, "params", id="params-not-object"),
    pytest.param(lambda doc: {**doc, "step": "many"}, "step", id="bad-step"),
    # step is a JSON integer >= 0 and rng a string ("" for none), never coerced
    *[pytest.param(lambda doc, k=k, v=v: {**doc, k: v}, re.escape(f"{k} {v!r}"), id=name)
      for k, v, name in [("step", 2.7, "step-fraction"), ("step", 5.0, "step-float"),
                         ("step", "5", "step-string"), ("step", True, "step-bool"),
                         ("step", -3, "step-negative"), ("step", None, "step-null"),
                         ("rng", [], "rng-list"), ("rng", 0, "rng-zero"),
                         ("rng", False, "rng-false"), ("rng", None, "rng-null")]],
    # an int setting is a JSON integer, a float one any JSON number, never a bool
    *[pytest.param(lambda doc, k=k, v=v: {**doc, "config": {**doc["config"], k: v}},
                   re.escape(f"{k}={v!r}"), id=f"config-{k}-{v!r}")
      for k, v in [("steps_ss", 3.0), ("seed", 1.5), ("train_iters", 2.5),
                   ("hidden", 8.0), ("update_epochs", True), ("k", True),
                   ("rollout_batch", 7.9), ("gamma", True), ("encoder", 3)]],
    pytest.param(lambda doc: {**doc, "rng": "zz"}, "rng", id="bad-rng-hex"),
    pytest.param(lambda doc: {**doc, "rng": json.dumps(
        {"bit_generator": "Nope"}).encode().hex()}, "rng", id="unknown-bit-generator"),
    pytest.param(_param_edit("trunk.b", "shape", ["x"]), "shape", id="shape-of-strings"),
    pytest.param(_param_edit("trunk.b", "shape", "4"), "shape", id="shape-a-string"),
    pytest.param(_param_edit("trunk.b", "shape", [4.0]), "shape", id="shape-of-floats"),
    pytest.param(_param_edit("trunk.W", ("data", 5), math.nan), "non-finite",
                 id="nan-parameter"),
    pytest.param(_param_edit("mean.b", ("data", 0), -math.inf), "non-finite",
                 id="infinite-parameter"),
    pytest.param(_rng_edit(lambda s: {**s, "state": {**s["state"], "state": 2**200}}),
                 "rng", id="pcg64-state-too-large"),
    pytest.param(_rng_edit(lambda s: {**s, "state": {**s["state"], "state": -1}}),
                 "rng", id="pcg64-state-negative"),
    pytest.param(_rng_edit({"bit_generator": "MT19937", "state": {"key": [1, 2, 3], "pos": 0}}),
                 "rng", id="mt19937-short-key"),
])
def test_checkpoint_malformed_document_is_a_checkpoint_error(tmp_path, mutate, match):
    path = tmp_path / "ck.json"
    save_checkpoint(_policy("ss"), path,
                    config=RLConfig(d_e=2, d_t=2, hidden=4, k=2),
                    rng=np.random.default_rng(0))
    load_checkpoint(path)  # intact before the edit
    path.write_text(json.dumps(mutate(json.loads(path.read_text()))))
    with pytest.raises(CheckpointError, match=match):
        load_checkpoint(path)


def test_checkpoint_rng_names_only_a_numpy_bit_generator(tmp_path, monkeypatch):
    """The rng's bit_generator is looked up among numpy's bit generators, so
    a checkpoint cannot make the loader call another np.random function."""
    calls = []
    monkeypatch.setattr(np.random, "seed", lambda *args: calls.append(args))
    path = tmp_path / "ck.json"
    save_checkpoint(_policy("ss"), path, config=RLConfig(d_e=2, d_t=2, hidden=4, k=2),
                    rng=np.random.default_rng(0))
    doc = _rng_edit({"bit_generator": "seed"})(json.loads(path.read_text()))
    path.write_text(json.dumps(doc))
    with pytest.raises(CheckpointError, match="rng"):
        load_checkpoint(path)
    assert calls == []


# arbitrary JSON, kept small: ints past 2**64 and 2**128, NaN and infinities
_json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-2**200, 2**200) | st.floats() | st.text(max_size=4),
    lambda inner: (st.lists(inner, max_size=3)
                   | st.dictionaries(st.text(max_size=3), inner, max_size=3)),
    max_leaves=6)
# where the value goes: a whole params entry, its shape, its data or one
# datum; step; the rng field, or one field of the rng state it encodes
_fuzz_sites = ([("params", n, *key) for n in ("trunk.W", "value.b", "log_std")
                for key in ((), ("shape",), ("data",), ("data", 0))]
               + [("step",), ("rng",), ("rng", "state", "state"), ("rng", "state", "inc"),
                  ("rng", "has_uint32"), ("rng", "uinteger")]
               + [("config", k) for k in ("steps_ss", "seed", "train_iters",
                                          "update_epochs", "gamma")])


@settings(max_examples=200, deadline=None)
@given(site=st.sampled_from(_fuzz_sites), value=_json_values)
@example(site=("step",), value=2.7)
@example(site=("step",), value="5")
@example(site=("step",), value=True)
@example(site=("step",), value=-3)
@example(site=("rng",), value=[])
@example(site=("rng",), value=0)
@example(site=("rng",), value=False)
@example(site=("config", "steps_ss"), value=3.0)
@example(site=("config", "seed"), value=1.5)
@example(site=("config", "train_iters"), value=2.5)
@example(site=("config", "hidden"), value=8.0)
@example(site=("config", "update_epochs"), value=True)
@example(site=("config", "k"), value=True)
@example(site=("config", "rollout_batch"), value=7.9)
def test_checkpoint_fuzzed_field_loads_or_is_a_checkpoint_error(tmp_path_factory, site, value):
    """Each load returns a policy with finite parameters, a config whose int
    settings are ints, a step that is a JSON integer >= 0 and an rng that is
    None only for an rng of "", or raises CheckpointError."""
    path = tmp_path_factory.getbasetemp() / "fuzzed.json"
    save_checkpoint(_policy("ss"), path, config=RLConfig(d_e=2, d_t=2, hidden=4, k=2),
                    rng=np.random.default_rng(0))
    doc = json.loads(path.read_text())
    in_rng = site[0] == "rng" and len(site) > 1
    root = node = json.loads(bytes.fromhex(doc["rng"])) if in_rng else doc
    for key in site[in_rng:-1]:
        node = node[key]
    node[site[-1]] = value
    if in_rng:
        doc["rng"] = json.dumps(root).encode().hex()
    path.write_text(json.dumps(doc))
    try:
        policy, config, step, rng = load_checkpoint(path)
    except CheckpointError:
        return
    assert np.isfinite(policy.flat).all()
    assert all(type(getattr(config, f.name)) is int for f in fields(config)
               if f.type == "int")
    assert type(step) is int and step >= 0
    assert (rng is None) == (site == ("rng",) and value == "")
