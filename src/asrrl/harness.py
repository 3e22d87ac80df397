"""Experiment harness: corpus generation, training/eval runs, baselines,
hyperparameter sweeps, ablations, and CSV emission.

All randomness flows from one root seed through named substreams
(corpus, policy-init, rollout, ...), so two sweep points differ only
through the swept parameter.
"""

from __future__ import annotations

import csv
import itertools
import math
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .agent import (
    Adam,
    PolicyNetwork,
    RolloutBatch,
    action_log_prob,
    load_checkpoint,
    ppo_update,
    save_checkpoint,
    select_action,  # not called here: perfbench's tracer wraps harness.select_action
)
from .core import RLConfig, StateLayout, mean_init
from .env import (EpisodeError, SpeakerProfile, SyntheticVoiceEnv, TradeoffEnv,
                  oracle_zoom)
from .files import replace_on_success
from .scoring import RewardWeights, fuse_scores
from .seeding import substream


class ConfigError(ValueError):
    """Invalid configuration or incompatible inputs (exit code 2)."""


class DivergenceError(RuntimeError):
    """Training collapsed below the raw baseline (exit code 3)."""


CORPUS_MAGIC = "ASRRL-CORPUS"
CORPUS_VERSION = "v1"

RUN_COLUMNS = [
    "run_id", "scenario", "gamma", "action_scale", "steps", "seed",
    "episode", "speaker", "variant", "sim", "mos", "intell", "fused",
]


# -- corpus ----------------------------------------------------------------

@dataclass
class Corpus:
    meta: dict
    profiles: list[SpeakerProfile]
    texts: list[np.ndarray]  # per speaker: (texts_per_speaker, d_t)

    def split(self, eval_frac: float) -> tuple[list[int], list[int]]:
        return split_speakers(len(self.profiles), eval_frac)


def split_speakers(n_speakers: int, eval_frac: float) -> tuple[list[int], list[int]]:
    """(train, eval) indices; the tail max(1, round(n * eval_frac)) are held out."""
    if not (math.isfinite(eval_frac) and eval_frac >= 0):
        raise ConfigError(f"eval fraction must be finite and >= 0, got {eval_frac!r}")
    n_eval = max(1, int(round(n_speakers * eval_frac)))
    if n_eval >= n_speakers:
        raise ConfigError(f"eval fraction {eval_frac} leaves no training speakers")
    idx = list(range(n_speakers))
    return idx[:-n_eval], idx[-n_eval:]


def _fmt_vec(v: np.ndarray) -> str:
    return ",".join(repr(float(x)) for x in v)


def _parse_rows(s: str, n_rows: int, width: int, where: str,
                name: str) -> np.ndarray:
    """A record field of ';'-separated vectors of ','-separated finite
    floats, as an (n_rows, width) array; anything else is a ConfigError."""
    rows = s.split(";")
    if len(rows) != n_rows:
        raise ConfigError(f"{where}: {name} has {len(rows)} vectors, "
                          f"header says {n_rows}")
    out = np.empty((n_rows, width))
    for i, row in enumerate(rows):
        vals = row.split(",")
        if len(vals) != width:
            raise ConfigError(f"{where}: {name} vector {i} has {len(vals)} "
                              f"values, header says {width}")
        try:
            out[i] = [float(x) for x in vals]
        except ValueError:
            raise ConfigError(f"{where}: {name} vector {i} is not numeric: "
                              f"{row!r}") from None
        if not np.isfinite(out[i]).all():
            raise ConfigError(f"{where}: {name} vector {i} is not finite: {row!r}")
    return out


CORPUS_META_KEYS = {
    "d_e": int, "d_t": int, "d_v": int, "d_s": int, "k": int, "seed": int,
    "n_speakers": int, "texts_per_speaker": int,
    "sigma_ref": float, "sigma_star": float,
}


def gen_corpus(seed: int, n_speakers: int, k_refs: int, d_e: int, d_t: int,
               texts_per_speaker: int, path, *, force: bool = False,
               sigma_ref: float = 0.05) -> Corpus:
    """Generate a synthetic speaker corpus and write it to path.

    The file is self-describing: a versioned header carries every
    dimension and seed needed to reconstruct the matching environment.
    It is written whole or not at all.
    """
    for name, n in [("n_speakers", n_speakers), ("k_refs", k_refs),
                    ("d_e", d_e), ("d_t", d_t),
                    ("texts_per_speaker", texts_per_speaker)]:
        if n < 1:
            raise ConfigError(f"{name} must be >= 1, got {n}")
    if not (math.isfinite(sigma_ref) and sigma_ref >= 0):
        raise ConfigError(f"sigma_ref must be finite and >= 0, got {sigma_ref}")
    if isinstance(seed, bool) or not isinstance(seed, (int, np.integer)) or seed < 0:
        raise ConfigError(f"seed must be a non-negative integer, got {seed!r}")
    path = Path(path)
    if path.exists() and not force:
        raise FileExistsError(f"{path} exists; pass force=True / --force to overwrite")
    env = SyntheticVoiceEnv(d_e=d_e, d_t=d_t, seed=seed, sigma_ref=sigma_ref)
    rng = substream(seed, "corpus")
    meta = {
        "d_e": d_e, "d_t": d_t, "d_v": env.d_v, "d_s": env.d_s, "k": k_refs,
        "seed": int(seed), "n_speakers": n_speakers,
        "texts_per_speaker": texts_per_speaker,
        "sigma_ref": sigma_ref, "sigma_star": env.sigma_star,
    }
    profiles, texts = [], []
    for i in range(n_speakers):
        profiles.append(env.make_profile(i, rng, k=k_refs))
        texts.append(rng.standard_normal((texts_per_speaker, d_t)))
    header = " ".join(
        [CORPUS_MAGIC, CORPUS_VERSION]
        + [f"{k}={meta[k]!r}" if isinstance(meta[k], float) else f"{k}={meta[k]}"
           for k in CORPUS_META_KEYS]
    )
    with replace_on_success(path, newline="\n") as fh:
        fh.write(header + "\n")
        for p, t in zip(profiles, texts):
            fields = [
                str(p.speaker_id),
                _fmt_vec(p.true_embedding),
                ";".join(_fmt_vec(r) for r in p.refs),
                _fmt_vec(p.target_voiceprint),
                ";".join(_fmt_vec(row) for row in t),
            ]
            fh.write("\t".join(fields) + "\n")
    return Corpus(meta, profiles, texts)


def load_corpus(path) -> Corpus:
    path = Path(path)
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().strip().split()
        if header[:2] != [CORPUS_MAGIC, CORPUS_VERSION]:
            raise ConfigError(f"{path} is not a {CORPUS_MAGIC} {CORPUS_VERSION} file")
        meta = {}
        for tok in header[2:]:
            key, _, val = tok.partition("=")
            if key not in CORPUS_META_KEYS:
                raise ConfigError(f"{path}:1: unknown corpus header key {key!r}")
            if key in meta:
                raise ConfigError(f"{path}:1: header key {key!r} repeated")
            kind = CORPUS_META_KEYS[key]
            try:
                meta[key] = kind(val)
            except ValueError:
                raise ConfigError(f"{path}:1: header {key}={val!r} is not "
                                  f"{'an integer' if kind is int else 'a number'}") from None
            least = 0 if key == "seed" else 1  # a seed may be 0, a size or count not
            if kind is int and meta[key] < least:
                raise ConfigError(f"{path}:1: header {key} must be >= {least}, "
                                  f"got {meta[key]}")
        missing = set(CORPUS_META_KEYS) - set(meta)
        if missing:
            raise ConfigError(f"{path}:1: corpus header missing keys {sorted(missing)}")
        for key in ("sigma_ref", "sigma_star"):
            if not (math.isfinite(meta[key]) and meta[key] >= 0):
                raise ConfigError(f"{path}:1: header {key} must be finite and >= 0, "
                                  f"got {meta[key]!r}")
        d_e = meta["d_e"]
        profiles, texts = [], []
        for lineno, line in enumerate(fh, 2):
            line = line.rstrip("\n")
            if not line:
                continue
            where = f"{path}:{lineno}"
            fields = line.split("\t")
            if len(fields) != 5:
                raise ConfigError(f"{where}: {len(fields)} fields, expected 5")
            sid, e_star, refs, vp, txts = fields
            try:
                sid = int(sid)
            except ValueError:
                raise ConfigError(f"{where}: speaker id {sid!r} is not an integer") from None
            if sid != len(profiles):
                raise ConfigError(f"{where}: speaker id {sid} at record {len(profiles)}; "
                                  f"ids must number the records from 0")
            profiles.append(SpeakerProfile(
                sid,
                _parse_rows(e_star, 1, d_e, where, "e_star")[0],
                _parse_rows(refs, meta["k"], d_e, where, "refs"),
                _parse_rows(vp, 1, meta["d_v"], where, "voiceprint")[0],
            ))
            texts.append(_parse_rows(txts, meta["texts_per_speaker"], meta["d_t"],
                                     where, "texts"))
    if len(profiles) != meta["n_speakers"]:
        raise ConfigError(
            f"corpus has {len(profiles)} records, header says {meta['n_speakers']}"
        )
    return Corpus(meta, profiles, texts)


# -- experiment spec -------------------------------------------------------

TRADEOFF_TAU = 0.2
TRADEOFF_SPEAKERS = 20
TRADEOFF_TEXTS = 4


@dataclass
class ExperimentSpec:
    """One experiment. The reward lambdas always come from ``config``;
    ``weights`` contributes only its ``enable_*`` term toggles."""

    config: RLConfig = field(default_factory=RLConfig)
    scenario: str = "ss"
    env_kind: str = "voice"  # voice | tradeoff
    eval_frac: float = 0.2
    eval_episodes: int = 100
    run_id: str = "run"
    out_dir: Path = Path("runs")
    weights: RewardWeights = field(default_factory=RewardWeights)
    include_f_t: bool = True
    include_f_rv: bool = False
    include_e_s: bool = False
    include_f_sv: bool = False

    def __post_init__(self):
        # runs again on every dataclasses.replace, so the two never drift
        self.weights = replace(self.weights, lambda1=self.config.lambda1,
                               lambda2=self.config.lambda2)

    def layout(self, d_v: int = 0) -> StateLayout:
        return StateLayout(
            d_t=self.config.d_t, d_e=self.config.d_e, d_v=d_v,
            include_f_t=self.include_f_t, include_f_rv=self.include_f_rv,
            include_e_s=self.include_e_s, include_f_sv=self.include_f_sv,
        )

    @property
    def step_budget(self) -> int:
        return self.config.steps_ss if self.scenario == "ss" else self.config.steps_fs

    @property
    def run_dir(self) -> Path:
        return Path(self.out_dir) / self.run_id


def build_env(spec: ExperimentSpec, corpus: Corpus | None):
    """Environment plus (profiles, texts) for a spec.

    The voice environment is reconstructed from the corpus header; the
    tradeoff environment draws its speakers on the fly from the seed.
    """
    cfg = spec.config
    if spec.env_kind == "voice":
        if corpus is None:
            raise ConfigError("voice environment requires a corpus")
        m = corpus.meta
        if m["d_e"] != cfg.d_e or m["d_t"] != cfg.d_t:
            raise ConfigError(
                f"corpus dims (d_e={m['d_e']}, d_t={m['d_t']}) do not match "
                f"config (d_e={cfg.d_e}, d_t={cfg.d_t})"
            )
        if spec.scenario == "fs" and m["k"] != cfg.k:  # SS ignores cfg.k
            raise ConfigError(f"corpus has k={m['k']} references, the FS config k={cfg.k}")
        env = SyntheticVoiceEnv(
            d_e=m["d_e"], d_t=m["d_t"], d_s=m["d_s"], d_v=m["d_v"],
            seed=m["seed"], scenario=spec.scenario,
            step_budget=spec.step_budget, action_scale=cfg.action_scale,
            weights=spec.weights, layout=spec.layout(d_v=m["d_v"]),
            sigma_star=m["sigma_star"], sigma_ref=m["sigma_ref"],
        )
        try:
            env.check_refs(m["k"])
        except ValueError as exc:
            raise ConfigError(f"corpus has k={m['k']}: {exc}") from None
        return env, corpus.profiles, corpus.texts
    if spec.env_kind == "tradeoff":
        rng = substream(cfg.seed, "tradeoff-env")
        w = rng.standard_normal(cfg.d_e)
        w /= np.linalg.norm(w)
        env = TradeoffEnv(
            w, TRADEOFF_TAU, d_t=cfg.d_t, scenario=spec.scenario,
            step_budget=spec.step_budget, action_scale=cfg.action_scale,
            weights=spec.weights, layout=spec.layout(),
        )
        srng = substream(cfg.seed, "tradeoff-speakers")
        k = 1 if spec.scenario == "ss" else cfg.k
        profiles = [env.make_profile(i, srng, k=k) for i in range(TRADEOFF_SPEAKERS)]
        texts = [srng.standard_normal((TRADEOFF_TEXTS, cfg.d_t))
                 for _ in range(TRADEOFF_SPEAKERS)]
        return env, profiles, texts
    raise ConfigError(f"unknown env kind {spec.env_kind!r}")


# -- training --------------------------------------------------------------

def _score_row(spec, episode, speaker, variant, triple, fused):
    """One RUN_COLUMNS row of a train or evaluation run; triple is a
    ScoreTriple or a (sim, mos, intell) tuple."""
    cfg = spec.config
    return {
        "run_id": spec.run_id, "scenario": spec.scenario, "gamma": cfg.gamma,
        "action_scale": cfg.action_scale, "steps": spec.step_budget,
        "seed": cfg.seed, "episode": episode, "speaker": speaker,
        "variant": variant, "sim": float(triple[0]), "mos": float(triple[1]),
        "intell": float(triple[2]), "fused": float(fused),
    }


def run_episode(env, policy: PolicyNetwork | None, profile, f_t, *,
                rng=None, mode="sample"):
    """One episode of run_episodes, with zero noise for mode="mode" or, for
    "sample", one rng.standard_normal((steps, action_dim)) draw: the stream
    that select_action draws step by step."""
    if mode not in ("sample", "mode"):
        raise ValueError(f"mode must be 'sample' or 'mode', got {mode!r}")
    if mode == "sample" and rng is None:
        raise ValueError("sampling requires an rng")
    shape = (env.step_budget, policy.action_dim)
    noise = np.zeros(shape) if mode == "mode" else rng.standard_normal(shape)
    return run_episodes(env, policy, profile.refs, profile.target_voiceprint, f_t, noise)


def run_episodes(env, policy: PolicyNetwork, refs, targets, F, noise):
    """Play one episode, or N in lockstep, with one policy forward and one
    score_rows call per step. One episode takes refs (k, d_e), a target
    (d_v,), a text (d_t,) and noise (steps, action_dim); N take each with a
    leading N axis. Step t's raw action is mean + exp(log_std) * noise[..., t, :].
    Returns the per-step "states", "raws", "log_probs", "rewards" and "values"
    as ([N,] steps, ...) arrays, and "initial_fused", "final_fused" and
    "final_scores": floats and a ScoreTriple for one episode, (N,) arrays for N.
    """
    if policy.scenario != env.scenario:
        raise EpisodeError(f"{policy.scenario} policy in a {env.scenario} environment")
    env.check_refs(refs.shape[-2])
    E = mean_init(refs)
    lead, steps = E.shape[:-1], env.step_budget
    if noise.shape != lead + (steps, policy.action_dim):
        raise ValueError(f"noise has shape {noise.shape}, expected "
                         f"{lead + (steps, policy.action_dim)}")
    f_rv = env.prior_voiceprint(F, E)
    sc0 = sc = fuse_scores(env.score_rows(F, E, targets), env.weights)
    per_step = []
    for t in range(steps):
        states = env.state(F, E, f_rv)
        mean, log_std, values, _ = policy.forward(states)
        # forward gives (rows, .) outputs; one episode drops the row axis
        mean, values = mean.reshape(lead + mean.shape[1:]), values.reshape(lead)
        raws = mean + np.exp(log_std) * noise[..., t, :]
        E = env.move(E, refs, np.tanh(raws) if env.scenario == "ss" else raws)
        scores = env.score_rows(F, E, targets)
        sc_prev, sc = sc, fuse_scores(scores, env.weights)
        per_step.append({"states": states, "raws": raws,
                         "log_probs": action_log_prob(policy, raws, mean, log_std),
                         "rewards": sc - sc_prev, "values": values})
    # step-major, then ([N,] steps, ...); np.stack costs 5x np.array on one episode
    return {**{k: np.ascontiguousarray(np.array([s[k] for s in per_step]).swapaxes(0, len(lead)))
               for k in per_step[0]},
            "initial_fused": sc0, "final_fused": sc, "final_scores": scores}


def train(spec: ExperimentSpec, corpus: Corpus | None = None, *,
          write_outputs: bool = True):
    """Train a PPO policy on split_speakers' train split; returns (policy, rows).

    Writes <out_dir>/<run_id>/train.csv and checkpoint.json unless
    write_outputs is False. Aborts with DivergenceError if the fused
    score stays far below each episode's raw starting score for 100
    consecutive episodes.
    """
    cfg = spec.config.validate()
    env, profiles, texts = build_env(spec, corpus)
    train_idx, _ = split_speakers(len(profiles), spec.eval_frac)
    policy = PolicyNetwork(
        env.layout, spec.scenario, k=cfg.k, hidden=cfg.hidden,
        encoder=cfg.encoder, rng=substream(cfg.seed, "policy-init"),
    )
    rng = substream(cfg.seed, "rollout")
    opt = Adam(policy.flat, cfg.learning_rate)
    steps = spec.step_budget
    texts_arr = np.stack(texts)  # every speaker has the same number of texts
    refs = np.stack([p.refs for p in profiles])
    targets = np.stack([p.target_voiceprint for p in profiles])
    n_texts = texts_arr.shape[1]
    # every episode takes exactly `steps` steps
    n_episodes = -(-cfg.rollout_batch // steps)
    rows = []
    episode = 0
    diverged_streak = 0
    for _ in range(cfg.train_iters):
        # three bulk draws, in this order: speakers, texts, sampling noise
        picks = [train_idx[i] for i in rng.integers(len(train_idx), size=n_episodes)]
        F = texts_arr[picks, rng.integers(n_texts, size=n_episodes)]
        noise = rng.standard_normal((n_episodes, steps, policy.action_dim))
        eps = run_episodes(env, policy, refs[picks], targets[picks], F, noise)
        init, final, scores = eps["initial_fused"], eps["final_fused"], eps["final_scores"]
        diverged = final < init - 0.5 * np.abs(init)
        triples = zip(scores.sim.tolist(), scores.mos.tolist(), scores.intell.tolist())
        for si, triple, sc, sc0, bad in zip(picks, triples, final.tolist(),
                                            init.tolist(), diverged.tolist()):
            rows.append(_score_row(spec, episode, profiles[si].speaker_id, "rl",
                                   triple, sc))
            episode += 1
            diverged_streak = diverged_streak + 1 if bad else 0
            if diverged_streak >= 100:
                raise DivergenceError(
                    f"fused score below half the raw baseline for "
                    f"{diverged_streak} consecutive episodes "
                    f"(last: {sc:.4f} vs raw {sc0:.4f})"
                )
        batch = RolloutBatch(*(
            eps[k] for k in ("states", "raws", "log_probs", "rewards", "values")
        )).compute_advantages(cfg.gamma, cfg.gae_lambda)
        ppo_update(policy, batch, cfg, opt)
    if write_outputs:
        spec.run_dir.mkdir(parents=True, exist_ok=True)
        write_rows(spec.run_dir / "train.csv", rows)
        save_checkpoint(policy, spec.run_dir / "checkpoint.json", config=cfg,
                        step=episode, rng=rng)
    return policy, rows


# -- evaluation ------------------------------------------------------------

@dataclass
class EvalResult:
    rows: list[dict]

    def variants(self) -> list[str]:
        return sorted({r["variant"] for r in self.rows})

    def per_speaker_mean(self, variant: str, metric: str) -> dict[int, float]:
        acc: dict[int, list[float]] = {}
        for r in self.rows:
            if r["variant"] == variant:
                acc.setdefault(r["speaker"], []).append(r[metric])
        return {s: float(np.mean(v)) for s, v in acc.items()}

    def mean(self, variant: str, metric: str) -> float:
        vals = [r[metric] for r in self.rows if r["variant"] == variant]
        if not vals:
            raise ValueError(f"no {variant!r} rows to average; have {self.variants()}")
        return float(np.mean(vals))

    def summary(self) -> list[dict]:
        out = []
        for variant in self.variants():
            sel = [r for r in self.rows if r["variant"] == variant]
            row = {"variant": variant, "n": len(sel)}
            for metric in ("sim", "mos", "intell", "fused"):
                vals = np.array([r[metric] for r in sel])
                row[f"{metric}_mean"] = float(vals.mean())
                row[f"{metric}_std"] = float(vals.std())
            out.append(row)
        return out


def evaluate(policy: PolicyNetwork, spec: ExperimentSpec,
             corpus: Corpus | None = None, *, split: str = "eval",
             variants: tuple[str, ...] = ("rl", "raw")) -> EvalResult:
    """Mode-action evaluation on split_speakers' "eval" or "train" split.

    The rl variant plays spec.eval_episodes episodes per speaker, episode
    i on text i % n_texts, in one lockstep run_episodes call with zero
    noise; its rows are within about 1e-16 of one-at-a-time play. Each
    baseline scores one embedding per (speaker, text): raw the mean of
    the references, finetune finetune_proxy's best, oracle the grid
    oracle's (oracle_best refuses grids too large for d_e). A text's
    baseline rows come in the order raw, finetune, oracle, whatever the
    order of variants. Another variant or split, rl without a policy or
    with eval_episodes not an integer >= 1, or a policy of another state
    layout or, in FS, another k is a ConfigError.
    """
    unknown = sorted(set(variants) - {"rl", "raw", "finetune", "oracle"})
    if unknown or ("rl" in variants and policy is None):
        raise ConfigError(f"cannot evaluate {unknown or ['rl']} here: the variants are "
                          f"rl (which needs a policy), raw, finetune and oracle")
    if split not in ("eval", "train"):
        raise ConfigError(f"unknown split {split!r}: the splits are eval and train")
    n = spec.eval_episodes
    if "rl" in variants and (isinstance(n, bool) or not isinstance(n, (int, np.integer))
                             or n < 1):
        raise ConfigError(f"eval_episodes must be an integer >= 1, got {n!r}")
    cfg = spec.config
    env, profiles, texts = build_env(spec, corpus)
    if policy is not None and policy.layout != env.layout:
        raise ConfigError(f"policy state layout {policy.layout} does not match "
                          f"the environment's {env.layout}")
    if policy is not None and policy.scenario == "fs" and policy.k != profiles[0].k:
        raise ConfigError(f"FS policy has k={policy.k}, the speakers k={profiles[0].k}")
    train_idx, eval_idx = split_speakers(len(profiles), spec.eval_frac)
    idx = eval_idx if split == "eval" else train_idx
    baselines = [v for v in ("raw", "finetune", "oracle") if v in variants]
    margin = (spec.step_budget * cfg.action_scale
              + 4.0 * getattr(env, "sigma_ref", 0.0)
              + 4.0 * getattr(env, "sigma_star", 0.0))
    rows = []
    for si in idx:
        profile, spk_texts = profiles[si], texts[si]
        if "rl" in variants:  # n episodes in lockstep, zero noise, episode i on text i % n_texts
            eps = run_episodes(env, policy, np.repeat(profile.refs[None], n, 0),
                               profile.target_voiceprint, np.resize(spk_texts, (n, cfg.d_t)),
                               np.zeros((n, spec.step_budget, policy.action_dim)))
            s, fused = eps["final_scores"], eps["final_fused"]
            rows += [_score_row(spec, ei, profile.speaker_id, "rl", t, t[3]) for ei, t
                     in enumerate(np.column_stack([s.sim, s.mos, s.intell, fused]).tolist())]
        lim = float(np.max(np.abs(profile.refs))) + margin
        for ti, f_t in enumerate(spk_texts):
            for variant in baselines:
                # read from the module at each call, so a replaced
                # harness.finetune_proxy or oracle_zoom (perfbench wraps both) runs
                if variant == "raw":
                    e = mean_init(profile.refs)
                elif variant == "finetune":
                    e, _ = finetune_proxy(env, profile, f_t)
                else:
                    e, _ = oracle_zoom(env, profile, f_t, -lim, lim)
                triple = env.score_state(f_t, e, profile)
                rows.append(_score_row(spec, ti, profile.speaker_id, variant,
                                       triple, fuse_scores(triple, spec.weights)))
    return EvalResult(rows)


def evaluate_checkpoint(checkpoint_path, corpus_path, *, split: str = "eval",
                        spec: ExperimentSpec | None = None) -> EvalResult:
    """Load a checkpoint and corpus and evaluate under the checkpoint's
    config and state layout; build_env rejects a corpus of other dimensions."""
    policy, cfg, _, _ = load_checkpoint(checkpoint_path)
    corpus = load_corpus(corpus_path)
    flags = {k: v for k, v in vars(policy.layout).items() if k.startswith("include_")}
    spec = replace(spec or ExperimentSpec(), config=cfg, scenario=policy.scenario,
                   **flags)
    return evaluate(policy, spec, corpus, split=split)


# -- fine-tune proxy baseline ----------------------------------------------

def finetune_proxy(env, profile, f_t, *, steps: int = 2000,
                   step_size: float = 0.01):
    """Gradient ascent on the fused score w.r.t. the embedding.

    Central finite differences with step h = 1e-4 stand in for
    fine-tuning a real model; each step scores the stencil e + [0; hI; -hI]
    in one fused_batch call. Returns (best embedding, best fused score)
    over the whole trajectory, starting from the raw embedding's score.
    """
    if steps < 1:
        raise ConfigError(f"steps must be >= 1, got {steps}")
    if not (math.isfinite(step_size) and step_size >= 0):
        raise ConfigError(f"step_size must be finite and >= 0, got {step_size}")
    h = 1e-4
    e = mean_init(profile.refs)
    d = e.shape[0]
    best_e, best_sc = e.copy(), env.fused(f_t, e, profile)
    stencil = np.concatenate([np.zeros((1, d)), h * np.eye(d), -h * np.eye(d)])
    for _ in range(steps):
        sc = env.fused_batch(f_t, e + stencil, profile)
        if sc[0] > best_sc:
            best_sc, best_e = float(sc[0]), e
        grad = (sc[1:d + 1] - sc[d + 1:]) / (2 * h)
        if not np.isfinite(grad).all():
            raise FloatingPointError("non-finite fused-score gradient at "
                                     f"coordinate {np.argmin(np.isfinite(grad))}")
        e = e + step_size * grad
    sc = float(env.fused_batch(f_t, e[None], profile)[0])
    if sc > best_sc:
        best_sc, best_e = sc, e
    return best_e, best_sc


# -- sweeps and ablations --------------------------------------------------

SWEEP_AXES = ("gamma", "action_scale", "steps", "lambda1", "lambda2")


def _apply_axis(spec: ExperimentSpec, axis: str, value: float) -> ExperimentSpec:
    if axis == "steps":
        if not float(value).is_integer():
            raise ConfigError(f"steps must be a whole number, got {value}")
        axis, value = ("steps_ss" if spec.scenario == "ss" else "steps_fs"), int(value)
    return replace(spec, config=spec.config.with_overrides(**{axis: value}))


def sweep(spec: ExperimentSpec, axis: str, values, corpus: Corpus | None = None):
    """One full train+evaluate per axis value, with shared seeds.

    Returns (long rows, per-value summary rows) and writes
    sweep_<axis>.csv / sweep_<axis>_summary.csv under out_dir/run_id.
    """
    if axis not in SWEEP_AXES:
        raise ConfigError(f"unknown sweep axis {axis!r}; choose from {SWEEP_AXES}")
    values = list(values)
    if not values:
        raise ConfigError("sweep needs at least one value")
    if len(set(values)) != len(values):
        raise ConfigError(f"duplicate sweep values: {values}")
    # every value is checked before the first point trains
    points = [_apply_axis(spec, axis, value) for value in values]
    long_rows, summary_rows = [], []
    for value, point in zip(values, points):
        point = replace(point, run_id=f"{spec.run_id}-{axis}-{value}")
        policy, _ = train(point, corpus, write_outputs=False)
        result = evaluate(policy, point, corpus)
        for r in result.rows:
            long_rows.append({**r, "axis": axis, "value": value})
        for s in result.summary():
            summary_rows.append({"axis": axis, "value": value, **s})
    spec.run_dir.mkdir(parents=True, exist_ok=True)
    write_rows(spec.run_dir / f"sweep_{axis}.csv", long_rows,
               columns=["axis", "value"] + RUN_COLUMNS)
    write_rows(spec.run_dir / f"sweep_{axis}_summary.csv", summary_rows)
    return long_rows, summary_rows


SCORE_TERM_VARIANTS = {
    # Reward-term toggles: (enable_mos, enable_intell)
    "sim+mos+intell": (True, True),
    "sim+intell": (False, True),
    "sim+mos": (True, False),
    "sim_only": (False, False),
}


def ablate(spec: ExperimentSpec, mode: str, corpus: Corpus | None = None):
    """Reward-term or state-segment ablation grid.

    mode="score_terms": 4 reward variants trained on the tradeoff
    environment. mode="state_segments": the 16-cell grid over prior
    segments {f_rv, f_t} x posterior segments {e_s, f_sv} on the voice
    environment; the embedding segment itself can never be disabled.
    Every cell is evaluated under spec.weights, whatever reward it
    trained on.
    """
    if mode == "score_terms":
        cells = {name: replace(spec, env_kind="tradeoff", weights=replace(
                     spec.weights, enable_mos=en_mos, enable_intell=en_int))
                 for name, (en_mos, en_int) in SCORE_TERM_VARIANTS.items()}
    elif mode == "state_segments":
        cells = {f"frv{int(f_rv)}_ft{int(f_t)}_es{int(e_s)}_fsv{int(f_sv)}": replace(
                     spec, env_kind="voice", include_f_rv=f_rv, include_f_t=f_t,
                     include_e_s=e_s, include_f_sv=f_sv)
                 for f_rv, f_t, e_s, f_sv in itertools.product((False, True), repeat=4)}
    else:
        raise ConfigError(
            f"unknown ablation mode {mode!r}; choose score_terms or state_segments"
        )
    rows = []
    for name, point in cells.items():
        point = replace(point, run_id=f"{spec.run_id}-{name}")
        policy, _ = train(point, corpus, write_outputs=False)
        result = evaluate(policy, replace(point, weights=spec.weights), corpus)
        rows += [{**r, "ablation": name} for r in result.rows]
    spec.run_dir.mkdir(parents=True, exist_ok=True)
    write_rows(spec.run_dir / f"ablate_{mode}.csv", rows,
               columns=["ablation"] + RUN_COLUMNS)
    return rows


# -- CSV -------------------------------------------------------------------

def write_rows(path, rows: list[dict], columns: list[str] | None = None) -> None:
    """RFC-4180 CSV with a header row, written whole or not at all."""
    if columns is None:
        columns = list(rows[0].keys()) if rows else RUN_COLUMNS
    with replace_on_success(path, newline="") as fh:
        # the bytes csv.DictWriter(extrasaction="ignore") writes, less overhead
        writer = csv.writer(fh)
        writer.writerow(columns)
        writer.writerows([row.get(c, "") for c in columns] for row in rows)


def read_rows(path) -> list[dict]:
    with open(path, "r", encoding="utf-8", newline="") as fh:
        return list(csv.DictReader(fh))


# -- flat config files -----------------------------------------------------

def parse_config_file(path) -> RLConfig:
    """Flat key=value config with # comments; every RLConfig field works, once."""
    import dataclasses

    fields = {f.name: f.type for f in dataclasses.fields(RLConfig)}
    overrides = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            key, sep, val = line.partition("=")
            key, val = key.strip(), val.strip()
            if not sep or key not in fields:
                raise ConfigError(f"{path}:{lineno}: unknown or malformed entry {raw.strip()!r}")
            if key in overrides:
                raise ConfigError(f"{path}:{lineno}: key {key!r} repeated")
            kind = str if key == "encoder" else int if fields[key] in ("int", int) else float
            try:
                overrides[key] = kind(val)
            except ValueError:
                raise ConfigError(f"{path}:{lineno}: {key} must be {kind.__name__}, "
                                  f"got {val!r}") from None
    try:
        return RLConfig().with_overrides(**overrides)
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"{path}: {exc}") from exc
