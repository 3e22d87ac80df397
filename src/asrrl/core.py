"""Domain types and the pure state/action algebra.

Everything in this module is value-semantic: functions take and return
plain float64 numpy arrays and small frozen dataclasses, never mutate
their inputs, and are safe to call from any number of threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace
from typing import Sequence

import numpy as np

SEP_VALUE = 0.0


def _as_vector(x, name: str, rows: bool = False) -> np.ndarray:
    """x as a finite float64 1-d vector, or with rows=True also an (N, d)
    batch of row vectors."""
    arr = np.asarray(x, dtype=np.float64)
    if arr.ndim != 1 and not (rows and arr.ndim == 2):
        kind = "a 1-d vector or an (N, d) row batch" if rows else "a 1-d vector"
        raise ValueError(f"{name} must be {kind}, got shape {arr.shape}")
    if not np.isfinite(arr).all():
        raise ValueError(f"{name} contains non-finite components")
    return arr


@dataclass(frozen=True)
class StateLayout:
    """Dimensions and enabled segments of the flattened state vector.

    ``include_f_t`` exists only for the state-representation ablation;
    the embedding segment ``e`` can never be disabled.
    """

    d_t: int
    d_e: int
    d_v: int = 0
    include_f_t: bool = True
    include_f_rv: bool = False
    include_e_s: bool = False
    include_f_sv: bool = False

    def __post_init__(self):
        if self.d_e < 1:
            raise ValueError(f"d_e must be >= 1, got {self.d_e}")
        if self.include_f_t and self.d_t < 1:
            raise ValueError(f"d_t must be >= 1, got {self.d_t}")
        if (self.include_f_rv or self.include_f_sv) and self.d_v < 1:
            raise ValueError("voiceprint segments enabled but d_v < 1")

    def segment_dims(self) -> dict[str, int]:
        dims = {}
        if self.include_f_t:
            dims["f_t"] = self.d_t
        dims["sep"] = 1
        dims["e"] = self.d_e
        if self.include_f_rv:
            dims["f_rv"] = self.d_v
        if self.include_e_s:
            dims["e_s"] = self.d_e
        if self.include_f_sv:
            dims["f_sv"] = self.d_v
        return dims

    @property
    def size(self) -> int:
        return sum(self.segment_dims().values())

    def flatten(
        self,
        f_t: np.ndarray | None,
        e: np.ndarray,
        f_rv: np.ndarray | None = None,
        e_s: np.ndarray | None = None,
        f_sv: np.ndarray | None = None,
    ) -> np.ndarray:
        """Concatenate segments in the fixed order [f_t | sep | e | f_rv? | e_s? | f_sv?].

        Segments are 1-d vectors, giving one state, or (N, dim) row
        batches, giving (N, size) states.
        """
        provided = {"f_t": f_t, "e": e, "f_rv": f_rv, "e_s": e_s, "f_sv": f_sv}
        lead = np.shape(e)[:-1]
        dims = self.segment_dims()
        out = np.empty(lead + (sum(dims.values()),))
        off = 0
        for name, dim in dims.items():
            seg = SEP_VALUE if name == "sep" else provided[name]
            if seg is None:
                raise ValueError(f"segment {name} is enabled but was not provided")
            if name != "sep":
                seg = _as_vector(seg, name, rows=True)
                if seg.shape != lead + (dim,):
                    raise ValueError(f"segment {name} has shape {seg.shape}, "
                                     f"expected {lead + (dim,)}")
            out[..., off:off + dim] = seg
            off += dim
        return out


@dataclass(frozen=True)
class SSAction:
    """Additive refinement of the embedding; components in [-1, 1] pre-scale."""

    delta: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "delta", _as_vector(self.delta, "delta"))


@dataclass(frozen=True)
class FSAction:
    """Unnormalized fusion logits over k reference embeddings."""

    logits: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "logits", _as_vector(self.logits, "logits"))


Action = SSAction | FSAction


def apply_ss(e: np.ndarray, delta: np.ndarray, action_scale: float) -> np.ndarray:
    """Refine an embedding: e' = e + action_scale * delta.

    delta must be squashed to [-1, 1] already, which bounds the per-step
    movement by action_scale in the infinity norm. e and delta are both
    vectors or both (N, d_e) row batches.
    """
    e = _as_vector(e, "e", rows=True)
    delta = _as_vector(delta, "delta", rows=True)
    if delta.shape != e.shape:
        raise ValueError(f"delta has shape {delta.shape}, expected {e.shape}")
    if action_scale <= 0:
        raise ValueError(f"action_scale must be positive, got {action_scale}")
    if np.abs(delta).max() > 1.0 + 1e-12:
        raise ValueError("delta components must lie in [-1, 1]")
    return e + action_scale * delta


def softmax(logits: np.ndarray) -> np.ndarray:
    """Softmax over the last axis."""
    z = logits - np.max(logits, axis=-1, keepdims=True)
    w = np.exp(z)
    return w / w.sum(axis=-1, keepdims=True)


def fuse_fs(
    refs: Sequence[np.ndarray] | np.ndarray, logits: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Fuse reference embeddings with softmax(logits) weights.

    Returns (weights, e_fusion) with weights on the probability simplex.
    refs (k, d_e) with logits (k,) fuse one episode; refs (N, k, d_e) with
    logits (N, k) fuse N, row by row.
    """
    refs = np.asarray(refs, dtype=np.float64)
    logits = _as_vector(logits, "logits", rows=True)
    if refs.ndim != logits.ndim + 1 or refs.shape[-2] < 1:
        raise ValueError(
            "refs must be a non-empty list of equal-dimension embeddings"
        )
    if not np.isfinite(refs).all():
        raise ValueError("refs contain non-finite components")
    if logits.shape != refs.shape[:-1]:
        raise ValueError(
            f"got {logits.shape[-1]} logits for {refs.shape[-2]} references"
        )
    weights = softmax(logits)
    # a (1, k) @ (k, d_e) product: bit-equal to weights @ refs for one row
    e_fusion = (weights[..., None, :] @ refs)[..., 0, :]
    return weights, e_fusion


def mean_init(refs: Sequence[np.ndarray] | np.ndarray) -> np.ndarray:
    """Componentwise mean of the reference embeddings: the initial
    embedding of every episode and baseline (at k=1, exactly refs[0]).
    refs (N, k, d_e) gives the N means, each bit-equal to its own call."""
    refs = np.asarray(refs, dtype=np.float64)
    if refs.ndim not in (2, 3) or refs.shape[-2] < 1:
        raise ValueError(
            "refs must be a non-empty list of equal-dimension embeddings"
        )
    if not np.isfinite(refs).all():
        raise ValueError("refs contain non-finite components")
    # the sum over the count is what refs.mean(axis=-2) computes
    return refs.sum(axis=-2) / refs.shape[-2]


@dataclass
class RLConfig:
    """Training and environment configuration with standard defaults."""

    d_e: int = 16
    d_t: int = 8
    k: int = 3
    gamma: float = 0.3
    lambda1: float = 0.5
    lambda2: float = 0.1
    steps_ss: int = 3
    steps_fs: int = 1
    action_scale: float = 0.001
    gae_lambda: float = 0.95
    clip_epsilon: float = 0.2
    learning_rate: float = 3e-4
    update_epochs: int = 4
    rollout_batch: int = 256
    entropy_coef: float = 0.01
    value_coef: float = 0.5
    hidden: int = 64
    encoder: str = "segments"
    train_iters: int = 200
    seed: int = 0

    def validate(self) -> "RLConfig":
        bad = [f"{f.name}={getattr(self, f.name)}" for f in fields(self)
               if f.type == "float" and not math.isfinite(getattr(self, f.name))]
        if bad:
            raise ValueError(f"settings must be finite, got {', '.join(bad)}")
        if not (0.0 <= self.gamma <= 1.0):
            raise ValueError(f"gamma must be in [0, 1], got {self.gamma}")
        if not (0.0 <= self.gae_lambda <= 1.0):
            raise ValueError(f"gae_lambda must be in [0, 1], got {self.gae_lambda}")
        if self.lambda1 < 0 or self.lambda2 < 0:
            raise ValueError(f"lambda1={self.lambda1}, lambda2={self.lambda2}: need >= 0")
        if self.steps_ss < 1 or self.steps_fs < 1:
            raise ValueError(f"steps_ss={self.steps_ss}, steps_fs={self.steps_fs}: need >= 1")
        if self.action_scale <= 0:
            raise ValueError("action_scale must be positive")
        if self.clip_epsilon <= 0:
            raise ValueError("clip_epsilon must be positive")
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be positive")
        if self.update_epochs < 1 or self.rollout_batch < 1:
            raise ValueError("update_epochs and rollout_batch must be >= 1")
        if self.d_e < 1 or self.d_t < 1 or self.k < 1 or self.hidden < 1:
            raise ValueError("dimensions d_e, d_t, k, hidden must be >= 1")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got seed={self.seed}")
        if self.train_iters < 0:
            raise ValueError(f"train_iters must be >= 0, got {self.train_iters}")
        if self.encoder not in ("segments", "mlp"):
            raise ValueError(f"unknown encoder {self.encoder!r}")
        return self

    def with_overrides(self, **kwargs) -> "RLConfig":
        return replace(self, **kwargs).validate()

