"""PPO learner: policy/value network, GAE, clipped updates, checkpoints.

The network is small enough that forward and backward passes are written
directly in numpy. That keeps every parameter in float64 (checkpoints
round-trip bit-exactly) and makes the finite-difference gradient test an
independent check of the analytic gradients rather than a tautology.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field

import numpy as np

from .core import Action, FSAction, RLConfig, SSAction, StateLayout
from .files import replace_on_success

LOG_STD_MIN = -5.0
LOG_STD_MAX = 2.0
LOG_STD_INIT = -0.5
LOG_2PI = math.log(2.0 * math.pi)
MAX_RATIO = 1e3


class CheckpointError(RuntimeError):
    """Unreadable, corrupt, or version-incompatible checkpoint."""


class UpdateRejected(RuntimeError):
    """A PPO batch produced pathological importance ratios."""


def _xavier(rng, fan_in, fan_out):
    return rng.standard_normal((fan_in, fan_out)) / math.sqrt(fan_in)


class PolicyNetwork:
    """Gaussian policy + value head over the flattened state vector.

    The encoder projects each state segment to the hidden width with its
    own weights plus a learned segment embedding, tanh, and mean-pools the
    segment tokens; "segments" is its only value. One more tanh layer
    feeds linear mean/value heads. The log-std is a free parameter vector
    that starts at -0.5 and is clamped to [-5, 2].
    """

    def __init__(self, layout: StateLayout, scenario: str, *, k: int = 1,
                 hidden: int = 64, encoder: str = "segments",
                 rng: np.random.Generator | None = None):
        if scenario not in ("ss", "fs"):
            raise ValueError(f"scenario must be 'ss' or 'fs', got {scenario!r}")
        if encoder != "segments":
            raise ValueError(f"unknown encoder {encoder!r}")
        rng = rng or np.random.default_rng(0)
        self.layout = layout
        self.scenario = scenario
        self.k = int(k)
        self.hidden = int(hidden)
        self.action_dim = layout.d_e if scenario == "ss" else self.k
        self.state_dim = layout.size
        H = self.hidden
        p: dict[str, np.ndarray] = {}
        self._segments = []  # (weight key, bias key, start, dim)
        off = 0
        for name, dim in layout.segment_dims().items():
            self._segments.append((f"enc.{name}.W", f"enc.{name}.g", off, dim))
            off += dim
            p[f"enc.{name}.W"] = _xavier(rng, dim, H)
            p[f"enc.{name}.g"] = 0.1 * rng.standard_normal(H)
        p["trunk.W"] = _xavier(rng, H, H)
        p["trunk.b"] = np.zeros(H)
        # near-zero initial mean keeps the starting policy close to the
        # identity refinement
        p["mean.W"] = 0.01 * _xavier(rng, H, self.action_dim)
        p["mean.b"] = np.zeros(self.action_dim)
        p["value.W"] = _xavier(rng, H, 1)
        p["value.b"] = np.zeros(1)
        p["log_std"] = np.full(self.action_dim, LOG_STD_INIT)
        ends = np.cumsum([v.size for v in p.values()])
        self._slices = [(k, slice(e - v.size, e), v.shape)
                        for (k, v), e in zip(p.items(), ends)]
        self.flat = np.concatenate([v.ravel() for v in p.values()])
        self.params = self.views(self.flat)
        # (rows, hidden) slabs: h1, h2, two backward temporaries, one token
        # per segment; forward grows it to the most rows seen
        self._work = np.empty((4 + len(self._segments), 0, H))

    def views(self, flat: np.ndarray) -> dict[str, np.ndarray]:
        """Named views into a vector laid out like self.flat."""
        return {k: flat[sl].reshape(shape) for k, sl, shape in self._slices}

    # -- forward / backward ------------------------------------------------
    def forward(self, states: np.ndarray):
        """Batched forward pass. Returns (mean, log_std, value, cache); the
        cache is valid until the next forward call."""
        X = np.array(states, dtype=np.float64, copy=None, ndmin=2)
        if X.shape[1] != self.state_dim:
            raise ValueError(
                f"state length {X.shape[1]} does not match layout size {self.state_dim}"
            )
        p = self.params
        if self._work.shape[1] < len(X):
            self._work = np.empty((self._work.shape[0], len(X), self.hidden))
        h1, h2, d1, d2, *slabs = self._work[:, :len(X)]
        tokens = []
        for (W, g, off, dim), t in zip(self._segments, slabs):
            if W == "enc.sep.W":
                # the sep column is always SEP_VALUE = 0, so its token is
                # tanh(g) in every row and enc.sep.W is never used
                t = np.tanh(p[g])
            else:
                np.matmul(X[:, off:off + dim], p[W], out=t)
                t += p[g]
                np.tanh(t, out=t)
            tokens.append(t)
        np.copyto(h1, tokens[0])
        for t in tokens[1:]:
            h1 += t
        h1 /= len(tokens)
        np.matmul(h1, p["trunk.W"], out=h2)
        h2 += p["trunk.b"]
        np.tanh(h2, out=h2)
        # .dot is @, and maximum-then-minimum is np.clip, with less call overhead
        mean = h2.dot(p["mean.W"]) + p["mean.b"]
        value = (h2.dot(p["value.W"]) + p["value.b"]).ravel()
        log_std = np.minimum(np.maximum(p["log_std"], LOG_STD_MIN), LOG_STD_MAX)
        if not (np.isfinite(mean).all() and np.isfinite(value).all()):
            norms = {k: float(np.linalg.norm(v)) for k, v in p.items()}
            raise FloatingPointError(
                f"non-finite network output; parameter norms: {norms}"
            )
        return mean, log_std, value, {"X": X, "tokens": tokens, "h1": h1, "h2": h2,
                                      "tmp": (d1, d2)}

    def backward(self, cache, dmean: np.ndarray, dvalue: np.ndarray) -> np.ndarray:
        """Gradient of a scalar loss given dloss/dmean and dloss/dvalue, as
        a new vector laid out like self.flat; the log_std entries are 0."""
        p = self.params
        h2, h1, X, (d1, d2) = cache["h2"], cache["h1"], cache["X"], cache["tmp"]
        flat = np.zeros(self.flat.size)
        grads = self.views(flat)
        np.matmul(h2.T, dmean, out=grads["mean.W"])
        dmean.sum(axis=0, out=grads["mean.b"])
        dv = dvalue.reshape(-1, 1)
        np.matmul(h2.T, dv, out=grads["value.W"])
        dv.sum(axis=0, out=grads["value.b"])
        np.matmul(dmean, p["mean.W"].T, out=d1)
        np.multiply(dv, p["value.W"].T, out=d2)  # a one-term product: dv @ value.W.T
        d1 += d2  # dh2
        np.multiply(h2, h2, out=d2)
        np.subtract(1.0, d2, out=d2)
        d1 *= d2  # da2
        np.matmul(h1.T, d1, out=grads["trunk.W"])
        d1.sum(axis=0, out=grads["trunk.b"])
        np.matmul(d1, p["trunk.W"].T, out=d2)  # dh1
        d2 /= len(self._segments)
        for (W, g, off, dim), t in zip(self._segments, cache["tokens"]):
            np.multiply(t, t, out=d1)
            np.subtract(1.0, d1, out=d1)
            d1 *= d2
            if W != "enc.sep.W":
                np.matmul(X[:, off:off + dim].T, d1, out=grads[W])
            d1.sum(axis=0, out=grads[g])
        return flat


def gaussian_log_prob(raw: np.ndarray, mean: np.ndarray, log_std: np.ndarray) -> np.ndarray:
    """Diagonal Gaussian log-density of raw samples, summed over dims."""
    z = (raw - mean) / np.exp(log_std)
    return (-0.5 * z * z - log_std - 0.5 * LOG_2PI).sum(axis=-1)


def tanh_correction(raw: np.ndarray) -> np.ndarray:
    """Sum of log|d tanh(u)/du| per sample: the squash change of variables."""
    # log(1 - tanh(u)^2) = 2*(log 2 - |u| - log1p(exp(-2|u|))); exp(-2|u|) <= 1
    a = np.abs(raw)
    return (2.0 * (math.log(2.0) - a - np.log1p(np.exp(-2.0 * a)))).sum(axis=-1)


def action_log_prob(policy: PolicyNetwork, raw: np.ndarray, mean: np.ndarray,
                    log_std: np.ndarray, squash: np.ndarray | None = None) -> np.ndarray:
    """An SS policy's log-probs subtract squash, tanh_correction(raw) when not given."""
    lp = gaussian_log_prob(raw, mean, log_std)
    if policy.scenario == "ss":
        lp = lp - (tanh_correction(raw) if squash is None else squash.reshape(lp.shape))
    return lp


def select_action(policy: PolicyNetwork, state: np.ndarray,
                  rng: np.random.Generator | None = None, mode: str = "sample",
                  ) -> tuple[Action, float, float, np.ndarray]:
    """Sample (or take the mode of) the policy at one state.

    Returns (action, log_prob, value, raw) where raw is the pre-squash
    Gaussian sample needed to recompute log-probs during updates.
    """
    if mode not in ("sample", "mode"):
        raise ValueError(f"mode must be 'sample' or 'mode', got {mode!r}")
    mean, log_std, value, _ = policy.forward(state)
    if mode == "sample":
        if rng is None:
            raise ValueError("sampling requires an rng")
        raw = mean + np.exp(log_std) * rng.standard_normal(policy.action_dim)
    else:
        raw = mean
    lp = float(action_log_prob(policy, raw, mean, log_std)[0])
    raw = raw[0]
    if policy.scenario == "ss":
        action: Action = SSAction(np.tanh(raw))
    else:
        action = FSAction(raw.copy())
    return action, lp, float(value[0]), raw


def gae(rewards, values, gamma: float, gae_lambda: float):
    """Generalized advantage estimation over complete episodes of one
    horizon: (episodes, steps) arrays, run backward over the step axis.

    Returns (advantages, returns) with returns = advantages + values.
    """
    rewards = np.asarray(rewards, dtype=np.float64)
    values = np.asarray(values, dtype=np.float64)
    if rewards.ndim != 2 or rewards.shape != values.shape:
        raise ValueError(f"need (episodes, steps) arrays, got {rewards.shape}, {values.shape}")
    if not (0.0 <= gamma <= 1.0 and 0.0 <= gae_lambda <= 1.0):
        raise ValueError("gamma and gae_lambda must lie in [0, 1]")
    advantages = np.empty_like(rewards)
    next_value = last = 0.0  # nothing follows an episode's last step
    for t in range(rewards.shape[1] - 1, -1, -1):
        delta = rewards[:, t] + gamma * next_value - values[:, t]
        last = delta + gamma * gae_lambda * last
        advantages[:, t] = last
        next_value = values[:, t]
    return advantages, advantages + values


@dataclass
class RolloutBatch:
    states: np.ndarray       # (episodes, steps, state_dim)
    raw_actions: np.ndarray  # (episodes, steps, action_dim), pre-squash
    log_probs: np.ndarray    # (episodes, steps)
    rewards: np.ndarray
    values: np.ndarray
    advantages: np.ndarray = field(default=None)
    returns: np.ndarray = field(default=None)

    def compute_advantages(self, gamma, gae_lambda):
        """GAE, with advantages standardized when the batch has 2+ steps."""
        adv, ret = gae(self.rewards, self.values, gamma, gae_lambda)
        if adv.size > 1:
            std = adv.std()
            if std > 1e-8:
                adv = (adv - adv.mean()) / std
        self.advantages = adv
        self.returns = ret
        return self


class Adam:
    """Plain Adam over one flat parameter vector, with the standard constants."""

    BETA1, BETA2, EPS = 0.9, 0.999, 1e-8

    def __init__(self, params: np.ndarray, lr: float):
        self.lr = lr
        self.m = np.zeros_like(params)
        self.v = np.zeros_like(params)
        self.t = 0

    def step(self, params: np.ndarray, grads: np.ndarray):
        self.t += 1
        bc1 = 1.0 - self.BETA1 ** self.t
        bc2 = 1.0 - self.BETA2 ** self.t
        self.m = self.BETA1 * self.m + (1 - self.BETA1) * grads
        self.v = self.BETA2 * self.v + (1 - self.BETA2) * grads * grads
        params -= self.lr * (self.m / bc1) / (np.sqrt(self.v / bc2) + self.EPS)


def ppo_loss_and_grads(policy: PolicyNetwork, batch: RolloutBatch, *,
                       clip_epsilon: float, value_coef: float, entropy_coef: float,
                       squash: np.ndarray | None = None):
    """One forward/backward pass of the clipped PPO objective.

    Returns (loss scalar, gradient, report dict). The loss is the
    minimized quantity: -surrogate + value_coef * value MSE
    - entropy_coef * entropy. The gradient is a new vector laid out like
    policy.flat, the one Adam.step takes; policy.views(gradient) names it.
    An SS policy's log-probs subtract squash, tanh_correction(batch.raw_actions),
    computed here when not given; FS ignores it.
    """
    if batch.advantages is None:
        raise ValueError("batch advantages not computed")
    if clip_epsilon <= 0:
        raise ValueError("clip_epsilon must be positive")
    # one row per step, episode-major: views of the (episodes, steps) arrays
    states, raws, log_probs, A, returns = (a.reshape(-1, *a.shape[2:]) for a in (
        batch.states, batch.raw_actions, batch.log_probs, batch.advantages, batch.returns))
    n = len(A)
    mean, log_std, value, cache = policy.forward(states)
    lp_new = action_log_prob(policy, raws, mean, log_std, squash)
    ratio = np.exp(lp_new - log_probs)
    max_ratio = float(np.max(ratio))
    if max_ratio > MAX_RATIO:
        raise UpdateRejected(
            f"importance ratio exploded (max {max_ratio:.3e} > {MAX_RATIO:g})"
        )
    unclipped = ratio * A
    clipped = np.minimum(np.maximum(ratio, 1.0 - clip_epsilon), 1.0 + clip_epsilon) * A  # np.clip
    surrogate = np.minimum(unclipped, clipped)
    policy_loss = -surrogate.mean()
    v_err = value - returns
    value_loss = float(np.mean(v_err * v_err))
    entropy = float(np.sum(log_std) + 0.5 * policy.action_dim * (1.0 + LOG_2PI))
    loss = policy_loss + value_coef * value_loss - entropy_coef * entropy

    # gradient of the min(.,.) w.r.t. log-prob: flows only where the
    # unclipped branch is active (the clip has zero slope elsewhere)
    use_unclipped = unclipped <= clipped
    dlp = np.where(use_unclipped, -A * ratio, 0.0) / n
    var = np.exp(2.0 * log_std)
    diff = raws - mean
    dmean = dlp[:, None] * diff / var
    # d log-prob / d log-std = z^2 - 1 per dimension
    g_log_std = (dlp[:, None] * (diff * diff / var - 1.0)).sum(axis=0)
    g_log_std -= entropy_coef  # entropy term, per dimension
    dvalue = value_coef * 2.0 * v_err / n
    grads = policy.backward(cache, dmean, dvalue)
    grads[-policy.action_dim:] = g_log_std  # log_std is the last parameter
    report = {
        "loss": float(loss),
        "policy_loss": float(policy_loss),
        "value_loss": value_loss,
        "entropy": entropy,
        "approx_kl": float(np.mean(log_probs - lp_new)),
        "max_ratio": max_ratio,
    }
    return float(loss), grads, report


def ppo_update(policy: PolicyNetwork, batch: RolloutBatch, config: RLConfig,
               optimizer: Adam) -> dict:
    """Run config.update_epochs full-batch optimizer steps on the clipped
    objective with config's clip_epsilon, value_coef and entropy_coef;
    returns the last report. An overflow or invalid operation in an epoch
    is a FloatingPointError naming the epoch and the learning rate."""
    if config.update_epochs < 1:
        raise ValueError("update_epochs must be >= 1")
    report = {}
    # the raw actions do not change between epochs, so neither does the squash term
    squash = tanh_correction(batch.raw_actions) if policy.scenario == "ss" else None
    log_std = policy.params["log_std"]
    for epoch in range(1, config.update_epochs + 1):
        try:
            with np.errstate(over="raise", invalid="raise"):
                _, grads, report = ppo_loss_and_grads(
                    policy, batch, clip_epsilon=config.clip_epsilon,
                    value_coef=config.value_coef, entropy_coef=config.entropy_coef,
                    squash=squash)
                optimizer.step(policy.flat, grads)
        except FloatingPointError as exc:
            raise FloatingPointError(
                f"PPO update epoch {epoch} of {config.update_epochs} at learning_rate="
                f"{config.learning_rate!r}: {exc}") from None
        np.maximum(log_std, LOG_STD_MIN, out=log_std)  # np.clip, in place
        np.minimum(log_std, LOG_STD_MAX, out=log_std)
    return report


# -- checkpointing ---------------------------------------------------------

CHECKPOINT_VERSION = 1


def _rng_to_hex(rng: np.random.Generator | None) -> str:
    if rng is None:
        return ""
    state = json.dumps(rng.bit_generator.state, sort_keys=True)
    return state.encode("utf-8").hex()


def _rng_from_hex(hex_state: str) -> np.random.Generator | None:
    if not hex_state:
        return None
    state = json.loads(bytes.fromhex(hex_state).decode("utf-8"))
    # by name among numpy's bit generators, never any other np.random callable
    bg = {c.__name__: c for c in np.random.BitGenerator.__subclasses__()}[state["bit_generator"]]()
    bg.state = state
    return np.random.Generator(bg)


def save_checkpoint(policy: PolicyNetwork, path, *, config: RLConfig,
                    step: int = 0, rng: np.random.Generator | None = None) -> None:
    """Write a single JSON checkpoint with exact float64 round-trip; a
    failed write leaves the previous file at path untouched. An invalid
    config raises ValueError before anything is written."""
    # validate() turns numpy numbers, which json refuses, into the declared Python types
    cfg = asdict(config.validate())
    cfg["scenario"] = policy.scenario
    cfg["layout"] = asdict(policy.layout)
    doc = {
        "version": CHECKPOINT_VERSION,
        "config": cfg,
        "step": int(step),
        "rng": _rng_to_hex(rng),
        "params": {
            name: {"shape": list(arr.shape), "data": arr.ravel().tolist()}
            for name, arr in policy.params.items()
        },
    }
    with replace_on_success(path) as fh:
        # shortest round-trip decimals; dumps, unlike dump, is C-encoded
        fh.write(json.dumps(doc))


def load_checkpoint(path) -> tuple[PolicyNetwork, RLConfig, int, np.random.Generator | None]:
    """Load a checkpoint; returns (policy, config, step, rng)."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise CheckpointError(f"cannot read checkpoint: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise CheckpointError(
            f"corrupt checkpoint: invalid JSON at offset {exc.pos}"
        ) from exc
    if not isinstance(doc, dict):
        raise CheckpointError(
            f"corrupt checkpoint: expected a JSON object, got {type(doc).__name__}"
        )
    if doc.get("version") != CHECKPOINT_VERSION:
        raise CheckpointError(
            f"unsupported checkpoint version {doc.get('version')!r}, "
            f"expected {CHECKPOINT_VERSION}"
        )
    missing = [key for key in ("config", "params", "step") if key not in doc]
    if missing:
        raise CheckpointError(f"corrupt checkpoint: missing {', '.join(missing)}")
    if not isinstance(doc["params"], dict):
        raise CheckpointError("corrupt checkpoint: params is not a JSON object")
    try:
        cfg = dict(doc["config"])
        scenario = cfg.pop("scenario")
        layout = StateLayout(**cfg.pop("layout"))
        config = RLConfig(**cfg).validate()
        policy = PolicyNetwork(
            layout, scenario, k=config.k, hidden=config.hidden,
            encoder=config.encoder, rng=np.random.default_rng(0),
        )
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise CheckpointError(f"corrupt checkpoint config: {exc!r}") from exc
    for name, arr in policy.params.items():
        if name not in doc["params"]:
            raise CheckpointError(f"checkpoint missing parameter {name!r}")
        entry = doc["params"][name]
        try:
            data, shape = np.asarray(entry["data"], dtype=np.float64), entry["shape"]
        except (KeyError, OverflowError, TypeError, ValueError) as exc:
            raise CheckpointError(f"corrupt parameter {name!r}: {exc!r}") from exc
        # 64.0 == 64 and True == 1, so the entries' types are checked too
        if (shape != list(arr.shape) or not all(type(n) is int for n in shape)
                or data.size != arr.size):
            raise CheckpointError(
                f"parameter {name!r} has shape {shape!r} with {data.size} values, "
                f"expected shape {list(arr.shape)}"
            )
        if not np.isfinite(data).all():
            raise CheckpointError(f"parameter {name!r} has non-finite values")
        arr[...] = data.reshape(arr.shape)
    step, hex_rng = doc["step"], doc.get("rng", "")
    if type(step) is not int or step < 0:  # not a bool, a float or a string
        raise CheckpointError(f"corrupt checkpoint step {step!r}: need an integer >= 0")
    if type(hex_rng) is not str:
        raise CheckpointError(f"corrupt checkpoint rng {hex_rng!r}: need a hex string")
    try:  # a bit generator refuses a bad state with errors of several kinds
        rng = _rng_from_hex(hex_rng)
    except Exception as exc:
        raise CheckpointError(f"corrupt checkpoint rng: {exc!r}") from exc
    return policy, config, step, rng
