"""State layout, action algebra, and config validation."""

import dataclasses
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from asrrl.core import (
    RLConfig,
    SSAction,
    FSAction,
    StateLayout,
    apply_ss,
    fuse_fs,
    mean_init,
    softmax,
)
from asrrl.scoring import RewardWeights


# -- state layout ----------------------------------------------------------

def test_flatten_minimal():
    # [f_t | sep | e]
    s = StateLayout(d_t=2, d_e=1).flatten(np.array([1.0, 2.0]), np.array([3.0]))
    assert s.tolist() == [1.0, 2.0, 0.0, 3.0]


def test_flatten_with_prior_voiceprint():
    layout = StateLayout(d_t=1, d_e=1, d_v=1, include_f_rv=True)
    s = layout.flatten(np.array([1.0]), np.array([2.0]), f_rv=np.array([9.0]))
    assert s.tolist() == [1.0, 0.0, 2.0, 9.0]
    with pytest.raises(ValueError, match="f_rv"):
        layout.flatten(np.array([1.0]), np.array([2.0]))


def test_flatten_segment_order_is_fixed():
    layout = StateLayout(d_t=1, d_e=2, d_v=1, include_f_rv=True,
                         include_e_s=True, include_f_sv=True)
    s = layout.flatten(np.array([1.0]), np.array([2.0, 3.0]),
                       f_rv=np.array([4.0]), e_s=np.array([5.0, 6.0]),
                       f_sv=np.array([7.0]))
    assert s.tolist() == [1.0, 0.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0]
    assert list(layout.segment_dims()) == ["f_t", "sep", "e", "f_rv", "e_s", "f_sv"]


def test_empty_text_segment_rejected():
    with pytest.raises(ValueError):
        StateLayout(d_t=0, d_e=1)


def test_flatten_rejects_wrong_length_and_names_segment():
    layout = StateLayout(d_t=2, d_e=3)
    with pytest.raises(ValueError, match="f_t"):
        layout.flatten(np.zeros(5), np.zeros(3))
    with pytest.raises(ValueError, match="e "):
        layout.flatten(np.zeros(2), np.zeros(4))
    # a segment must have one row per embedding row: none is broadcast
    for f_t in (np.zeros(2), np.zeros((1, 2)), np.zeros((3, 2))):
        with pytest.raises(ValueError, match="f_t"):
            layout.flatten(f_t, np.zeros((4, 3)))


def test_flatten_rejects_nonfinite():
    layout = StateLayout(d_t=1, d_e=1)
    with pytest.raises(ValueError):
        layout.flatten(np.array([np.nan]), np.array([0.0]))


@settings(max_examples=50, deadline=None)
@given(
    d_t=st.integers(1, 6), d_e=st.integers(1, 6), d_v=st.integers(1, 4),
    f_rv=st.booleans(), e_s=st.booleans(), f_sv=st.booleans(),
    seed=st.integers(0, 2**31),
)
def test_segment_dims_slice_flatten(d_t, d_e, d_v, f_rv, e_s, f_sv, seed):
    """Slicing a flattened state by segment_dims() in order recovers each
    segment exactly."""
    layout = StateLayout(d_t=d_t, d_e=d_e, d_v=d_v, include_f_rv=f_rv,
                         include_e_s=e_s, include_f_sv=f_sv)
    rng = np.random.default_rng(seed)
    segs = {"f_t": rng.standard_normal(d_t), "e": rng.standard_normal(d_e)}
    if f_rv:
        segs["f_rv"] = rng.standard_normal(d_v)
    if e_s:
        segs["e_s"] = rng.standard_normal(d_e)
    if f_sv:
        segs["f_sv"] = rng.standard_normal(d_v)
    state = layout.flatten(**segs)
    assert state.shape == (layout.size,)
    dims = layout.segment_dims()
    back = dict(zip(dims, np.split(state, np.cumsum(list(dims.values()))[:-1])))
    assert back["sep"].tolist() == [0.0]
    for name, seg in segs.items():
        np.testing.assert_array_equal(back[name], seg)


# -- SS action -------------------------------------------------------------

def test_apply_ss_example():
    e = apply_ss(np.array([0.1, 0.2]), np.array([1.0, -1.0]), 0.001)
    np.testing.assert_allclose(e, [0.101, 0.199], rtol=0, atol=1e-15)


def test_apply_ss_zero_delta_is_identity():
    e = np.array([0.3, -0.4])
    np.testing.assert_array_equal(apply_ss(e, np.zeros(2), 0.001), e)


def test_apply_ss_never_mutates_input():
    e = np.array([0.5])
    apply_ss(e, np.array([1.0]), 0.001)
    assert e[0] == 0.5


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2**31), d=st.integers(1, 8))
def test_apply_ss_movement_bound(seed, d):
    rng = np.random.default_rng(seed)
    e = rng.standard_normal(d)
    delta = np.tanh(rng.standard_normal(d) * 3)
    e2 = apply_ss(e, delta, 0.001)
    assert np.max(np.abs(e2 - e)) <= 0.001 + 1e-15


def test_apply_ss_rejects_out_of_range_delta():
    with pytest.raises(ValueError):
        apply_ss(np.zeros(1), np.array([1.5]), 0.001)


def test_apply_ss_rejects_nonfinite_delta():
    with pytest.raises(ValueError):
        apply_ss(np.zeros(1), np.array([np.inf]), 0.001)


def test_apply_ss_rejects_bad_scale_and_shape():
    with pytest.raises(ValueError):
        apply_ss(np.zeros(2), np.zeros(2), 0.0)
    with pytest.raises(ValueError):
        apply_ss(np.zeros(2), np.zeros(3), 0.001)


# -- FS fusion -------------------------------------------------------------

def test_fuse_fs_singleton_is_identity():
    w, e = fuse_fs([np.array([0.4, 0.6])], np.array([7.7]))
    assert w.tolist() == [1.0]
    np.testing.assert_array_equal(e, [0.4, 0.6])


def test_fuse_fs_uniform_equals_mean():
    refs = [np.array([1.0, 0.0]), np.array([0.0, 1.0]), np.array([1.0, 1.0])]
    _, e = fuse_fs(refs, np.zeros(3))
    np.testing.assert_allclose(e, [2 / 3, 2 / 3], atol=1e-15)


def test_fuse_fs_hand_softmax():
    refs = [np.array([1.0, 0.0]), np.array([0.0, 1.0])]
    w, e = fuse_fs(refs, np.array([np.log(2.0), 0.0]))
    np.testing.assert_allclose(w, [2 / 3, 1 / 3], atol=1e-15)
    np.testing.assert_allclose(e, [2 / 3, 1 / 3], atol=1e-15)


def test_fuse_fs_rejects_empty_and_mismatch():
    with pytest.raises(ValueError):
        fuse_fs(np.zeros((0, 2)), np.zeros(0))
    with pytest.raises(ValueError):
        fuse_fs(np.zeros((2, 2)), np.zeros(3))


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**31), k=st.integers(1, 8))
def test_fusion_weights_on_simplex(seed, k):
    rng = np.random.default_rng(seed)
    w = softmax(rng.standard_normal(k) * 50)
    assert abs(w.sum() - 1.0) <= 1e-12
    assert np.all(w >= 0.0)


def test_softmax_overflow_safe():
    w = softmax(np.array([1000.0, 0.0]))
    assert np.isfinite(w).all() and abs(w.sum() - 1.0) <= 1e-12


def test_mean_init():
    m = mean_init([np.array([1.0, 3.0]), np.array([3.0, 5.0])])
    np.testing.assert_array_equal(m, [2.0, 4.0])
    single = np.array([[0.5, 0.5]])
    np.testing.assert_array_equal(mean_init(single), [0.5, 0.5])
    with pytest.raises(ValueError):
        mean_init(np.zeros((0, 2)))
    # SS episodes start from mean_init too, so one reference must come back
    # bit for bit
    for r in np.random.default_rng(3).standard_normal((500, 1, 16)):
        assert mean_init(r).tobytes() == r[0].tobytes()


# -- config ----------------------------------------------------------------

def test_config_defaults_match_reference_settings():
    cfg = RLConfig()
    assert cfg.gamma == 0.3
    assert cfg.lambda1 == 0.5 and cfg.lambda2 == 0.1
    assert cfg.action_scale == 0.001
    assert cfg.steps_ss == 3 and cfg.steps_fs == 1
    cfg.validate()


FLOAT_SETTINGS = [f.name for f in dataclasses.fields(RLConfig) if f.type == "float"]


@pytest.mark.parametrize("bad", [
    {"gamma": 1.5}, {"gamma": -0.1}, {"action_scale": 0.0},
    {"lambda1": -1.0}, {"steps_ss": 0}, {"clip_epsilon": 0.0},
    {"encoder": "transformer"}, {"k": 0}, {"hidden": 0}, {"train_iters": -1},
] + [{name: v} for name in FLOAT_SETTINGS for v in (math.nan, math.inf, -math.inf)]
  # an integer past float64's range, which float() refuses with an OverflowError
  + [{name: v} for name in FLOAT_SETTINGS for v in (10**400, -10**400)])
def test_config_validation_rejects(bad):
    with pytest.raises(ValueError, match="|".join(bad)):
        RLConfig(**bad).validate()


def test_config_rejects_an_action_scale_that_overflows_the_embedding():
    """steps_ss moves of action_scale reach d_e * (steps_ss * action_scale)**2
    in squared norm; above 1e300 that is a ValueError naming all three, also
    where the product overflows a float or an int is too large for one."""
    edge = math.sqrt(1e300 / 16) / 3
    for cfg in (RLConfig(action_scale=1e300), RLConfig(action_scale=edge * 1.001),
                RLConfig(action_scale=1.0, steps_ss=10 ** 400)):
        with pytest.raises(ValueError, match=re.escape(
                f"action_scale={cfg.action_scale!r} is too large for "
                f"steps_ss={cfg.steps_ss} moves at d_e=16: d_e * (steps_ss * "
                f"action_scale)**2 must be at most 1e+300")):
            cfg.validate()
    RLConfig(action_scale=edge * 0.999).validate()


def test_config_validation_names_a_negative_seed():
    with pytest.raises(ValueError, match="seed=-1"):
        RLConfig(seed=-1).validate()
    RLConfig(seed=0).validate()


def test_config_float_settings_are_the_float_fields():
    assert FLOAT_SETTINGS == ["gamma", "lambda1", "lambda2", "action_scale",
                              "gae_lambda", "clip_epsilon", "learning_rate",
                              "entropy_coef", "value_coef"]
    RLConfig(train_iters=0).validate()


INT_SETTINGS = [f.name for f in dataclasses.fields(RLConfig) if f.type == "int"]


def test_config_settings_of_the_wrong_type_are_refused():
    """An int setting takes an integer, numpy's too, and a float setting any
    real number; a bool is neither, and encoder is a string."""
    assert INT_SETTINGS == ["d_e", "d_t", "k", "steps_ss", "steps_fs", "update_epochs",
                            "rollout_batch", "hidden", "train_iters", "seed"]
    for name in INT_SETTINGS:
        for bad in (2.0, 2.5, True, "2", None):
            with pytest.raises(ValueError, match=re.escape(f"{name}={bad!r} (need int)")):
                RLConfig(**{name: bad}).validate()
        RLConfig(**{name: np.int64(2)}).validate()
    for name in FLOAT_SETTINGS:
        for bad in (True, False, "0.1", None):
            with pytest.raises(ValueError, match=re.escape(f"{name}={bad!r} (need float)")):
                RLConfig(**{name: bad}).validate()
        RLConfig(**{name: 1}).validate()
        RLConfig(**{name: np.float64(0.1)}).validate()
    with pytest.raises(ValueError, match=re.escape("encoder=3 (need str)")):
        RLConfig(encoder=3).validate()


def test_validate_gives_each_setting_its_declared_python_type():
    """validate() converts in place before its range checks: a float32
    action_scale used to meet the 1e300 bound in float32, an overflow
    warning."""
    cfg = RLConfig(action_scale=np.float32(1e-3), seed=np.int64(2), gamma=1)
    assert cfg.validate() is cfg
    assert type(cfg.action_scale) is float and cfg.action_scale == float(np.float32(1e-3))
    assert type(cfg.seed) is int and type(cfg.gamma) is float


@pytest.mark.parametrize("lambdas", [(math.nan, 0.1), (0.5, math.inf), (-1.0, 0.1)])
def test_reward_weights_reject_nonfinite_or_negative(lambdas):
    with pytest.raises(ValueError, match="lambda1"):
        RewardWeights(*lambdas)


def test_with_overrides_returns_new_validated_config():
    cfg = RLConfig()
    cfg2 = cfg.with_overrides(gamma=0.99)
    assert cfg.gamma == 0.3 and cfg2.gamma == 0.99
    with pytest.raises(ValueError):
        cfg.with_overrides(gamma=2.0)


def test_actions_are_frozen_and_validated():
    a = SSAction(np.array([0.5]))
    with pytest.raises(AttributeError):
        a.delta = np.zeros(1)
    with pytest.raises(ValueError):
        FSAction(np.array([[1.0]]))
