"""Seeded synthetic environments and the brute-force grid oracle.

Two environments share one scoring entry (score_rows, for one embedding
or a batch of rows) and the episode helpers that run_episodes plays on:

* SyntheticVoiceEnv — a frozen random "TTS model" with a hidden optimal
  embedding per speaker. Speech is a feature vector s = tanh(W1 f_t +
  W2 e + b); similarity compares the voiceprint projection V s against
  the speaker's calibration voiceprint; quality and intelligibility
  penalize embeddings that leave a norm shell.
* TradeoffEnv — a one-direction space where pushing similarity past a
  threshold strictly costs quality, for the reward-ablation studies.

All matrices are drawn once from the seed and never mutated, so a fixed
(seed, profile, text, action sequence) reproduces episodes bit-exactly.
"""

from __future__ import annotations

import contextvars
import math
import os
import threading
from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np

from .core import (NORM_SQ_MAX, FSAction, SSAction, Action, RLConfig, StateLayout,
                   apply_ss, fuse_fs, mean_init)
from .scoring import (
    RewardWeights,
    ScoreContext,
    ScoreTriple,
    check_ranges,
    cosine_similarity_score,
    fuse_scores,
    score_speech,
)
from .seeding import substream


@dataclass
class SpeakerProfile:
    """Hidden optimum, noisy reference embeddings, calibration voiceprint."""

    speaker_id: int
    true_embedding: np.ndarray
    refs: np.ndarray  # (k, d_e)
    target_voiceprint: np.ndarray

    @property
    def k(self) -> int:
        return int(self.refs.shape[0])


@dataclass
class Transition:
    next_state: np.ndarray
    reward: float
    score: ScoreTriple
    fused: float
    done: bool


class EpisodeError(RuntimeError):
    """Misuse of the episode protocol (stepping when done, wrong action kind)."""


class _EnvBase:
    """Episode mechanics shared by both synthetic environments.

    Subclasses provide score components via ``_triple_batch`` (rows; by
    default also one embedding, through ``_triple``) and speech synthesis
    via ``synth``. The stateless helpers (``state``, ``prior_voiceprint``,
    ``move``, ``score_rows``) take one episode's vectors or (N, .) row batches;
    harness.run_episodes and the reset/step protocol play on them.
    """

    def __init__(self, layout: StateLayout, scenario: str, step_budget: int | None,
                 action_scale: float, weights: RewardWeights):
        if scenario not in ("ss", "fs"):
            raise ValueError(f"scenario must be 'ss' or 'fs', got {scenario!r}")
        if step_budget is None:
            step_budget = RLConfig.steps_ss if scenario == "ss" else RLConfig.steps_fs
        self.layout = layout
        self.scenario = scenario
        self.step_budget = int(step_budget)
        self.action_scale = float(action_scale)
        self.weights = weights
        self.scorers = {}  # kind -> plug-in scorer; set after construction
        # mutable episode state
        self._profile: SpeakerProfile | None = None
        self._f_t: np.ndarray | None = None
        self._e: np.ndarray | None = None
        self._f_rv: np.ndarray | None = None
        self._step_count = 0
        self._done = True
        self._sc_prev = 0.0

    # -- hooks -------------------------------------------------------------
    def synth(self, f_t: np.ndarray, e: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def _triple(self, f_t, e, target) -> ScoreTriple:
        """The scores of one embedding e (d_e,): the row kernel on it."""
        return ScoreTriple(*self._triple_batch(f_t, e, target))

    def _triple_batch(self, f_t, E, target):
        """(sim, mos, intell) arrays for the rows of E. f_t is one text
        (d_t,) or one per row (N, d_t); target is one voiceprint or one
        per row (N, d_v)."""
        raise NotImplementedError

    def _posterior(self, s_s: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(posterior embedding, posterior voiceprint) from synthesized speech."""
        raise NotImplementedError

    def check_refs(self, k: int) -> None:
        """SS refines exactly one reference; FS fuses two or more."""
        if self.scenario == "ss" and k != 1:
            raise ValueError(f"SS scenario needs exactly 1 reference, got {k}")
        if self.scenario == "fs" and k < 2:
            raise ValueError(f"FS scenario needs k >= 2 references, got {k}")

    # -- scoring -----------------------------------------------------------
    def score_state(self, f_t: np.ndarray, e: np.ndarray,
                    profile: SpeakerProfile) -> ScoreTriple:
        return self.score_rows(f_t, e, profile.target_voiceprint)

    def fused_batch(self, f_t: np.ndarray, E: np.ndarray,
                    profile: SpeakerProfile) -> float | np.ndarray:
        """Fused score of one embedding E (d_e,), or array of the rows of E (N, d_e)."""
        return fuse_scores(self.score_rows(f_t, E, profile.target_voiceprint),
                           self.weights)

    fused = fused_batch

    def score_rows(self, F: np.ndarray, E: np.ndarray, targets: np.ndarray):
        """Scores of one embedding E (d_e,) as a ScoreTriple, or (sim, mos, intell)
        arrays of the N rows of E (N, d_e), for one text F and target or one per
        row. Plug-ins replace their kind through score_speech; a score out of
        range raises ScoreRangeError."""
        if E.ndim == 1:  # the scalar kernel: under half the time of a one-row batch
            triple = self._triple(F, E, targets)
            if not self.scorers:
                return triple
            ctx, s_s = ScoreContext(target_voiceprint=targets), self.synth(F, E)
            parts = {"sim": triple.sim, "mos": triple.mos, "intell": triple.intell}
            for kind, scorer in self.scorers.items():
                parts[kind] = score_speech(scorer, s_s, ctx)
            return ScoreTriple(**parts)
        sim, mos, intell = self._triple_batch(F, E, targets)
        parts = {"sim": sim, "mos": mos, "intell": intell}
        check_ranges(parts)
        if self.scorers:
            speech = self.synth(F, E)
            targets = np.broadcast_to(targets, (len(speech), targets.shape[-1]))
            for kind, scorer in self.scorers.items():
                parts[kind] = np.array([
                    score_speech(scorer, s_s, ScoreContext(target_voiceprint=t))
                    for s_s, t in zip(speech, targets)])
        return SimpleNamespace(**parts)

    # -- episode protocol --------------------------------------------------
    def prior_voiceprint(self, f_t: np.ndarray, e: np.ndarray) -> np.ndarray | None:
        """The f_rv segment, frozen at reset: the voiceprint of the initial
        embedding, or None when the layout leaves it out."""
        if not self.layout.include_f_rv:
            return None
        return self._posterior(self.synth(f_t, e))[1]

    def state(self, f_t: np.ndarray, e: np.ndarray,
              f_rv: np.ndarray | None) -> np.ndarray:
        """Flattened state; e_s and f_sv are the posteriors of synth(f_t, e)."""
        e_s = f_sv = None
        if self.layout.include_e_s or self.layout.include_f_sv:
            e_s, f_sv = self._posterior(self.synth(f_t, e))
        return self.layout.flatten(f_t, e, f_rv, e_s, f_sv)

    def move(self, e: np.ndarray, refs: np.ndarray, u: np.ndarray) -> np.ndarray:
        """Embedding after one action: SS adds action_scale * u (the squashed
        delta) to e; FS fuses refs with logits u."""
        if self.scenario == "ss":
            return apply_ss(e, u, self.action_scale)
        return fuse_fs(refs, u)[1]

    def reset(self, profile: SpeakerProfile, f_t: np.ndarray) -> np.ndarray:
        self.check_refs(profile.k)
        f_t = np.asarray(f_t, dtype=np.float64)
        self._profile = profile
        self._f_t = f_t
        self._e = mean_init(profile.refs)
        self._f_rv = self.prior_voiceprint(f_t, self._e)
        self._step_count = 0
        self._done = False
        self._sc_prev = self.fused(f_t, self._e, profile)
        return self.state(f_t, self._e, self._f_rv)

    @property
    def initial_fused(self) -> float:
        """Fused score of the initial state (sc_0), cached at reset."""
        return self._sc_prev if self._step_count == 0 else math.nan

    def step(self, action: Action) -> Transition:
        if self._done or self._profile is None:
            raise EpisodeError("episode is finished; call reset() first")
        if self.scenario == "ss":
            if not isinstance(action, SSAction):
                raise EpisodeError("SS scenario expects an SSAction")
            u = action.delta
        else:
            if not isinstance(action, FSAction):
                raise EpisodeError("FS scenario expects an FSAction")
            u = action.logits
        self._e = self.move(self._e, self._profile.refs, u)
        self._step_count += 1
        self._done = self._step_count >= self.step_budget
        triple = self.score_state(self._f_t, self._e, self._profile)
        sc = fuse_scores(triple, self.weights)
        reward = sc - self._sc_prev
        self._sc_prev = sc
        return Transition(
            next_state=self.state(self._f_t, self._e, self._f_rv),
            reward=reward,
            score=triple,
            fused=sc,
            done=self._done,
        )

    @property
    def embedding(self) -> np.ndarray:
        return None if self._e is None else self._e.copy()


class SyntheticVoiceEnv(_EnvBase):
    """Frozen random voice space with a recoverable hidden optimum."""

    # fixed shape of the space: the corpus header does not record these
    MU_NORM = 0.05       # norm of the hidden population mean
    SIGNAL_BOOST = 2.5   # voiceprint gain along the population direction
    SHELL_RATE = 4.0     # MOS decay and intelligibility-error growth outside the shell
    W2_SCALE = 2.0
    B_SCALE = 0.02

    def __init__(self, d_e: int, d_t: int, *, d_s: int = 32, d_v: int = 8,
                 seed: int = 0, scenario: str = "ss", step_budget: int | None = None,
                 action_scale: float = 0.001, weights: RewardWeights = RewardWeights(),
                 layout: StateLayout | None = None, sigma_star: float = 0.005,
                 sigma_ref: float = 0.05):
        layout = layout or StateLayout(d_t=d_t, d_e=d_e, d_v=d_v)
        super().__init__(layout, scenario, step_budget, action_scale, weights)
        self.d_e, self.d_t, self.d_s, self.d_v = d_e, d_t, d_s, d_v
        self.seed = int(seed)
        self.sigma_star, self.sigma_ref = float(sigma_star), float(sigma_ref)
        self.check_spreads(d_e, self.sigma_star, self.sigma_ref)
        # the quality/intelligibility shell sits at 1.5x the expected
        # reference norm: references score well, runaway norms do not,
        # and the hidden optimum lies safely inside
        ref_norm = math.sqrt(self.MU_NORM ** 2
                             + (self.sigma_star ** 2 + self.sigma_ref ** 2) * d_e)
        self.r_shell = 1.5 * ref_norm
        # small text/bias pathways keep tanh in its linear regime, so the
        # voiceprint angle responds to embedding moves at the default
        # 0.001 action scale
        w1_scale = 0.06 / math.sqrt(d_t)
        rng = substream(self.seed, "env-matrices")
        self.W1 = w1_scale * rng.standard_normal((d_s, d_t))
        self.W2 = self.W2_SCALE * rng.standard_normal((d_s, d_e))
        self.b = self.B_SCALE * rng.standard_normal(d_s)
        self.V = rng.standard_normal((d_v, d_s)) / math.sqrt(d_s)
        # speakers cluster around a hidden population mean; the voiceprint
        # projection responds more strongly along that direction, which is
        # what gives refinement policies measurable similarity headroom
        mu_dir = rng.standard_normal(d_e)
        mu_dir /= np.linalg.norm(mu_dir)
        self.mu = self.MU_NORM * mu_dir
        u = self.W2 @ mu_dir
        u /= np.linalg.norm(u)
        self.V = self.V + (self.SIGNAL_BOOST - 1.0) * np.outer(self.V @ u, u)
        self.E_post = rng.standard_normal((d_e, d_s)) / math.sqrt(d_s)
        self.f_t_cal = rng.standard_normal(d_t)

    @staticmethod
    def check_spreads(d_e: int, sigma_star: float, sigma_ref: float) -> None:
        """ValueError naming a spread unless both are finite and >= 0 and
        (sigma_star² + sigma_ref²)·d_e, a reference's expected squared
        distance from the population mean, is at most NORM_SQ_MAX (1e300)."""
        spreads = {"sigma_ref": sigma_ref, "sigma_star": sigma_star}
        for key, value in spreads.items():
            if not (math.isfinite(value) and value >= 0):
                raise ValueError(f"{key} must be finite and >= 0, got {value!r}")
        if (sigma_star * sigma_star + sigma_ref * sigma_ref) * d_e > NORM_SQ_MAX:
            key = max(spreads, key=spreads.get)
            raise ValueError(f"{key}={spreads[key]!r} is too large at d_e={d_e}: (sigma_star**2 "
                             f"+ sigma_ref**2) * d_e must be at most {NORM_SQ_MAX:g}")

    # -- world model -------------------------------------------------------
    def synth(self, f_t: np.ndarray, e: np.ndarray) -> np.ndarray:
        """Speech features of a text and an embedding; either may also be
        an (N, .) row batch, giving (N, d_s)."""
        f_t = np.asarray(f_t, dtype=np.float64)
        e = np.asarray(e, dtype=np.float64)
        if f_t.shape[-1:] != (self.d_t,) or f_t.ndim > 2:
            raise ValueError(f"f_t has shape {f_t.shape}, expected ({self.d_t},)")
        if e.shape[-1:] != (self.d_e,) or e.ndim > 2:
            raise ValueError(f"e has shape {e.shape}, expected ({self.d_e},)")
        # x @ M.T is bit-equal to M @ x for a vector x and to x.dot(M.T), which
        # costs less per call (@ is faster on oracle blocks of E). The sum is
        # built in place in whichever product already has the output shape:
        # IEEE addition commutes, so this is tanh((A + B) + b) bit for bit, with
        # one (N, d_s) array; more per oracle block cost page faults (README)
        a, x = f_t.dot(self.W1.T), e @ self.W2.T
        if a.ndim > x.ndim or a.size > x.size:
            a, x = x, a
        x += a
        x += self.b
        return np.tanh(x, out=x)

    def voiceprint(self, f_t: np.ndarray, e: np.ndarray) -> np.ndarray:
        return self.V.dot(self.synth(f_t, e))

    def _posterior(self, s_s: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        return s_s @ self.E_post.T, s_s @ self.V.T

    def make_profile(self, speaker_id: int, rng: np.random.Generator,
                     k: int = 1) -> SpeakerProfile:
        """Draw a speaker: hidden optimum plus k noisy reference embeddings."""
        e_star = self.mu + self.sigma_star * rng.standard_normal(self.d_e)
        refs = e_star + self.sigma_ref * rng.standard_normal((k, self.d_e))
        target = self.voiceprint(self.f_t_cal, e_star)
        return SpeakerProfile(speaker_id, e_star, refs, target)

    # -- scoring -----------------------------------------------------------
    def _shell_scores(self, e_norm):
        decay = np.exp(-self.SHELL_RATE * np.maximum(0.0, e_norm - self.r_shell))
        return 5.0 * decay, 1.0 - decay

    def _triple(self, f_t, e, target) -> ScoreTriple:
        # overrides the row-kernel default: under half the time of a one-row batch
        vp = self.voiceprint(f_t, e)
        sim = cosine_similarity_score(vp, target)
        mos, intell = self._shell_scores(math.sqrt(e.dot(e)))
        return ScoreTriple(sim=sim, mos=float(mos), intell=float(intell))

    def _triple_batch(self, f_t, E, target):
        E = np.asarray(E, dtype=np.float64)
        vp = self.synth(f_t, E).dot(self.V.T)
        # np.linalg.norm and np.clip spelled out: the same IEEE operations
        nv = np.sqrt(_sum_squares(vp))
        if target.ndim == 1:
            dot, nt = vp.dot(target), math.sqrt(target.dot(target))
        else:
            dot, nt = np.einsum("ij,ij->i", vp, target), np.sqrt(_sum_squares(target))
        den = nv * nt
        if den.all():  # errstate costs more than the division
            cos = dot / den
        else:  # a zero norm scores cos 0 (sim 0.5); nv * nt may also underflow
            with np.errstate(invalid="ignore", divide="ignore"):
                cos = dot / den
            cos[(nv == 0) | (nt == 0)] = 0.0
        np.minimum(np.maximum(cos, -1.0, out=cos), 1.0, out=cos)
        sim = np.divide(np.add(cos, 1.0, out=cos), 2.0, out=cos)
        mos, intell = self._shell_scores(np.sqrt(_sum_squares(E)))
        return sim, mos, intell


# From this many rows _sum_squares adds whole columns: numpy reduces each row
# of a .sum(axis=1) in its own inner-loop call, which on rows of 3 to 8
# elements costs more than the arithmetic, while the column form costs a few
# numpy calls whatever the row count. The two cross near 50 rows at 3 columns
# and near 160 at 8, and the threshold keeps a margin; from 16 columns the
# column form is the slower at every row count timed (README). Fine-tune
# steps (2 * d_e + 1 rows: 7 at d_e=3, 33 at d_e=16), training (86) and
# evaluation (min(texts, 100): 4 on ss_ref) batches stay below the threshold,
# oracle blocks above it.
COLUMN_SUM_MIN_ROWS = 256


def _sum_squares(X: np.ndarray) -> np.ndarray:
    """(X * X).sum(axis=1), bit for bit. From COLUMN_SUM_MIN_ROWS rows of at
    most 8 columns, the columns are added as whole arrays in the order of
    numpy's pairwise sum of one row: in sequence below 8 columns, and as the
    tree ((c0+c1)+(c2+c3))+((c4+c5)+(c6+c7)) at 8. Squares are never -0.0,
    so starting from the first column rather than from 0.0 gives the same
    bits."""
    Q = X * X
    n = Q.shape[1]
    if len(Q) < COLUMN_SUM_MIN_ROWS or n > 8:
        return Q.sum(axis=1)
    if n == 8:
        Q = Q[:, 0::2] + Q[:, 1::2]  # (c0+c1), (c2+c3), (c4+c5), (c6+c7)
        Q = Q[:, 0::2] + Q[:, 1::2]
        return Q[:, 0] + Q[:, 1]
    s = Q[:, 0].copy()
    for j in range(1, n):
        s += Q[:, j]
    return s


class TradeoffEnv(_EnvBase):
    """Similarity/quality tradeoff along one direction.

    sim = sigmoid(w.e); past the threshold tau, quality decays and the
    intelligibility error grows, so a similarity-only reward provably
    sacrifices quality.
    """

    SIGMA_REF = 0.2  # spread of speaker centers and of references around them

    def __init__(self, w: np.ndarray, tau: float, *, d_t: int = 4,
                 scenario: str = "ss", step_budget: int | None = None,
                 action_scale: float = 0.001, weights: RewardWeights = RewardWeights(),
                 layout: StateLayout | None = None):
        w = np.asarray(w, dtype=np.float64)
        if abs(np.linalg.norm(w) - 1.0) > 1e-9:
            raise ValueError(f"direction w must be unit-norm, got |w| = {np.linalg.norm(w)}")
        if tau <= 0:
            raise ValueError(f"threshold tau must be positive, got {tau}")
        d_e = w.shape[0]
        layout = layout or StateLayout(d_t=d_t, d_e=d_e)
        super().__init__(layout, scenario, step_budget, action_scale, weights)
        self.w = w
        self.tau = float(tau)
        self.d_e, self.d_t = d_e, d_t

    def synth(self, f_t, e):
        return np.tanh(np.asarray(e, dtype=np.float64))

    def _posterior(self, s_s):
        return s_s, s_s

    def make_profile(self, speaker_id: int, rng: np.random.Generator,
                     k: int = 1) -> SpeakerProfile:
        center = self.SIGMA_REF * rng.standard_normal(self.d_e)
        refs = center + self.SIGMA_REF * rng.standard_normal((k, self.d_e))
        return SpeakerProfile(speaker_id, center, refs, self.w.copy())

    def _triple_batch(self, f_t, E, target):
        z = np.asarray(E, dtype=np.float64) @ self.w
        excess = np.maximum(0.0, z - self.tau)
        return 1.0 / (1.0 + np.exp(-z)), 5.0 * np.exp(-excess), 1.0 - np.exp(-excess)


MAX_GRID_POINTS = 10_000_000
# oracle_best scores the grid in blocks of at most this many rows. A block is
# whole slabs (the trailing axes that fit in it), so the slab coordinates are
# laid out once per call and each block writes only its leading columns; at
# d_s=32 a (rows, d_s) float64 temporary is 1 MB, and a block's temporaries
# stay in the 4 MiB L2 and are reused by the allocator. Of the caps timed on a
# 128^3 grid and a 41-point zoom, 4,096 was the fastest (README)
ORACLE_BLOCK_ROWS = 4_096


def oracle_best(env: _EnvBase, profile: SpeakerProfile, f_t: np.ndarray,
                grid_spec: tuple[float, float, int] | list[tuple[float, float, int]],
                ) -> tuple[np.ndarray, float]:
    """Exhaustive argmax of the fused score over a regular grid.

    grid_spec is (lo, hi, points) applied to every embedding dimension, or
    one such triple per dimension. Equal scores go to the lexicographically
    smallest embedding (first in enumeration order) whatever the block size,
    but a row's score can move by an ulp with the row count of its BLAS
    call: near-ties (about 1e-15 apart) may resolve otherwise under another
    ORACLE_BLOCK_ROWS. A grid scored -inf or NaN everywhere gives
    (None, -inf). Each CPU the process may run on searches one contiguous
    run of blocks (the calling thread and helper threads), in the same bytes
    as on one; plug-in scorers score on the calling thread alone. An error,
    KeyboardInterrupt included, is raised once every run has ended, and it
    is the first in grid order, the one a serial loop raises. Each dimension
    needs finite lo <= hi and an integral points >= 1; ValueError names the
    first that has not, and a grid of more than MAX_GRID_POINTS points
    raises ValueError before anything is allocated.
    """
    d_e = profile.true_embedding.shape[0]
    if isinstance(grid_spec, tuple):
        specs = [grid_spec] * d_e
    else:
        specs = list(grid_spec)
        if len(specs) != d_e:
            raise ValueError(f"got {len(specs)} grid specs for {d_e} dimensions")
    for dim, (lo, hi, n) in enumerate(specs):
        if not (math.isfinite(lo) and math.isfinite(hi) and lo <= hi):
            raise ValueError(f"grid dimension {dim}: bounds ({lo}, {hi}) must be "
                             f"finite with lo <= hi")
        if not (n >= 1 and float(n).is_integer()):
            raise ValueError(f"grid dimension {dim}: points must be an integer "
                             f">= 1, got {n}")
    shape = [int(n) for _, _, n in specs]
    total = math.prod(shape)
    if total > MAX_GRID_POINTS:
        raise ValueError(f"grid has {total} points, limit is {MAX_GRID_POINTS}")
    axes = [np.linspace(lo, hi, n) for (lo, hi, _), n in zip(specs, shape)]
    # the slab is axes j:, the longest run of trailing axes after the first
    # whose points fit in a block (a grid that fits whole takes one block);
    # when the last axis alone exceeds a block, the slab has no axes and one
    # row, and the blocks enumerate the grid row by row
    j = next((j for j in range(1, d_e) if math.prod(shape[j:]) <= ORACLE_BLOCK_ROWS), d_e)
    slab = math.prod(shape[j:])
    n_slabs = total // slab
    per_block = min(ORACLE_BLOCK_ROWS // slab, n_slabs)
    n_blocks = -(-n_slabs // per_block)

    def search(blocks):
        """The best score over a run of blocks and a copy of its row, in
        grid order (ties: the first)."""
        block = np.empty((per_block * slab, d_e))
        grid = block.reshape(per_block, *shape[j:], d_e)
        for k in range(j, d_e):
            grid[..., k] = axes[k].reshape(-1, *[1] * (d_e - 1 - k))
        slabs = block.reshape(per_block, slab, d_e)
        best_e, best_sc = None, -np.inf
        for b in blocks:
            start = b * per_block
            count = min(per_block, n_slabs - start)
            # row-major flat indices of the slabs enumerate the grid lexicographically
            lead = np.unravel_index(np.arange(start, start + count), shape[:j])
            for k, idx in enumerate(lead):
                slabs[:count, :, k] = axes[k][idx][:, None]
            rows = block[:count * slab]
            sc = env.fused_batch(f_t, rows, profile)
            i = int(np.argmax(sc))
            if sc[i] > best_sc:  # ties keep the earlier block; a NaN never wins
                best_sc, best_e = float(sc[i]), rows[i].copy()  # the block is rewritten
        return best_e, best_sc

    # plug-in scorers need not be thread-safe, so they score on this thread
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
    workers = 1 if env.scorers else min(cpus, n_blocks)
    found = [None] * workers  # each run's (row, score), or the error that ended it

    def run(w):
        try:
            found[w] = search(range(n_blocks * w // workers, n_blocks * (w + 1) // workers))
        except BaseException as exc:
            found[w] = exc

    # the calling thread searches run 0 and helper threads the others; numpy
    # releases the GIL in the array work. A new thread starts with numpy's
    # default errstate, so each helper runs in a copy of the caller's context
    helpers = []
    try:
        for w in range(1, workers):
            t = threading.Thread(target=contextvars.copy_context().run, args=(run, w))
            t.start()
            helpers.append(t)
        run(0)
    finally:  # also on KeyboardInterrupt: no helper outlives the call
        for t in helpers:
            t.join()
    for got in found:  # in grid order, so the first error is the serial loop's
        if isinstance(got, BaseException):
            raise got
    return found[int(np.argmax([sc for _, sc in found]))]


def oracle_zoom(env, profile: SpeakerProfile, f_t: np.ndarray,
                lo: float, hi: float, *, points: int = 41):
    """Brute-force grid argmax with iterative zoom.

    Runs oracle_best on [lo, hi]^d_e, then re-grids a one-cell window
    around the argmax, for four rounds. Width shrinks by (points-1)/2 per
    round, so four 41-point rounds resolve ~8000x finer than the first
    grid while scoring only 4 * points**d_e candidates. Returns the best
    round's argmax and score (ties: the earliest round): with an even
    points, a window's grid misses the previous argmax, and a later round
    can score lower. A round whose grid has no best row (oracle_best's
    (None, -inf)) raises ValueError naming the round.
    """
    d_e = profile.true_embedding.shape[0]
    los = np.full(d_e, float(lo))
    his = np.full(d_e, float(hi))
    rounds = []
    for r in range(4):
        specs = [(los[i], his[i], points) for i in range(d_e)]
        e, sc = oracle_best(env, profile, f_t, specs)
        if e is None:
            raise ValueError(f"oracle_zoom round {r + 1} of 4: every grid point "
                             f"scores -inf or NaN")
        rounds.append((e, sc))
        h = (his - los) / max(points - 1, 1)
        los, his = e - h, e + h
    return rounds[int(np.argmax([sc for _, sc in rounds]))]
