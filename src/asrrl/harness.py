"""Experiment harness: corpus generation, training/eval runs, baselines,
hyperparameter sweeps, ablations, and CSV emission.

All randomness flows from one root seed through named substreams
(corpus, policy-init, rollout, ...), so two sweep points differ only
through the swept parameter.
"""

from __future__ import annotations

import csv
import io
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
from .core import SETTING_TYPES, RLConfig, StateLayout, mean_init
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


def _parse_fields(fields: list[str], shapes, where: str) -> list[np.ndarray]:
    """A record's vector fields as (n_rows, width) arrays, for shapes'
    (name, n_rows, width), through one float conversion and one finiteness
    check. A record that fails a count, the conversion or the check goes
    field by field through _parse_rows, whose ConfigError names the first
    bad vector."""
    if [[r.count(",") for r in f.split(";")] for f in fields] == [
            [w - 1] * n for _, n, w in shapes]:
        try:
            vals = np.array(list(map(float, ",".join(fields).replace(";", ",").split(","))))
        except ValueError:
            pass
        else:
            if np.isfinite(vals).all():
                out, at = [], 0
                for _, n, w in shapes:
                    out.append(vals[at:at + n * w].reshape(n, w))
                    at += n * w
                return out
    return [_parse_rows(f, n, w, where, name) for f, (name, n, w) in zip(fields, shapes)]


def _check_count(name: str, value, least: int = 1) -> None:
    """ConfigError naming name unless value is an integer, not a bool, >= least."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < least:
        kind = "non-negative" if least == 0 else "positive"
        raise ConfigError(f"{name} must be a {kind} integer, got {value!r}")


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
    It is written whole or not at all. sigma_ref must be finite, >= 0 and
    small enough that (sigma_star² + sigma_ref²)·d_e <= 1e300 (sigma_star
    is the environment's 0.005). Each count must be an integer (not a
    bool) >= 1 and the seed one >= 0; anything else is a ConfigError.
    """
    for name, n in [("n_speakers", n_speakers), ("k_refs", k_refs),
                    ("d_e", d_e), ("d_t", d_t),
                    ("texts_per_speaker", texts_per_speaker)]:
        _check_count(name, n)
    _check_count("seed", seed, least=0)
    try:
        env = SyntheticVoiceEnv(d_e=d_e, d_t=d_t, seed=seed, sigma_ref=sigma_ref)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    path = Path(path)
    if path.exists() and not force:
        raise FileExistsError(f"{path} exists; pass force=True / --force to overwrite")
    rng = substream(seed, "corpus")
    meta = {
        "d_e": d_e, "d_t": d_t, "d_v": env.d_v, "d_s": env.d_s, "k": k_refs,
        "seed": seed, "n_speakers": n_speakers,
        "texts_per_speaker": texts_per_speaker,
        "sigma_ref": sigma_ref, "sigma_star": env.sigma_star,
    }
    meta = {key: kind(meta[key]) for key, kind in CORPUS_META_KEYS.items()}
    profiles, texts = [], []
    for i in range(n_speakers):
        profiles.append(env.make_profile(i, rng, k=k_refs))
        texts.append(rng.standard_normal((texts_per_speaker, d_t)))
    header = " ".join([CORPUS_MAGIC, CORPUS_VERSION] + [f"{k}={v!r}" for k, v in meta.items()])
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
    """The corpus gen_corpus wrote to path. Any other content is a
    ConfigError naming path:line: among others a header spread
    (sigma_ref, sigma_star) that is not finite, >= 0 and small enough that
    (sigma_star² + sigma_ref²)·d_e <= 1e300, and for a record the first bad
    vector in field order (its count, else its numbers, else their
    finiteness). Values parse as float() parses them."""
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
            if kind is int:  # a seed may be 0, a size or count not
                _check_count(f"{path}:1: header {key}", meta[key],
                             least=0 if key == "seed" else 1)
        missing = set(CORPUS_META_KEYS) - set(meta)
        if missing:
            raise ConfigError(f"{path}:1: corpus header missing keys {sorted(missing)}")
        try:
            SyntheticVoiceEnv.check_spreads(meta["d_e"], meta["sigma_star"], meta["sigma_ref"])
        except ValueError as exc:
            raise ConfigError(f"{path}:1: header {exc}") from None
        d_e = meta["d_e"]
        shapes = [("e_star", 1, d_e), ("refs", meta["k"], d_e),
                  ("voiceprint", 1, meta["d_v"]),
                  ("texts", meta["texts_per_speaker"], meta["d_t"])]
        profiles, texts = [], []
        for lineno, line in enumerate(fh, 2):
            line = line.rstrip("\n")
            if not line:
                continue
            where = f"{path}:{lineno}"
            fields = line.split("\t")
            if len(fields) != 5:
                raise ConfigError(f"{where}: {len(fields)} fields, expected 5")
            sid = fields[0]
            try:
                sid = int(sid)
            except ValueError:
                raise ConfigError(f"{where}: speaker id {sid!r} is not an integer") from None
            if sid != len(profiles):
                raise ConfigError(f"{where}: speaker id {sid} at record {len(profiles)}; "
                                  f"ids must number the records from 0")
            e_star, refs, vp, txts = _parse_fields(fields[1:], shapes, where)
            profiles.append(SpeakerProfile(sid, e_star[0], refs, vp[0]))
            texts.append(txts)
    if len(profiles) != meta["n_speakers"]:
        raise ConfigError(
            f"corpus has {len(profiles)} records, header says {meta['n_speakers']}"
        )
    return Corpus(meta, profiles, texts)


# -- experiment spec -------------------------------------------------------

TRADEOFF_TAU = 0.2
TRADEOFF_SPEAKERS = 20
TRADEOFF_TEXTS = 4
EVAL_EPISODES = 100  # rl rows per evaluated speaker
FINETUNE_STEP_SIZE = 0.01  # finetune_proxy's gradient-ascent step


@dataclass
class ExperimentSpec:
    """One experiment; the reward lambdas are config's lambda1 and lambda2."""

    config: RLConfig = field(default_factory=RLConfig)
    scenario: str = "ss"
    env_kind: str = "voice"  # voice | tradeoff
    eval_frac: float = 0.2
    run_id: str = "run"
    out_dir: Path = Path("runs")
    include_f_t: bool = True
    include_f_rv: bool = False
    include_e_s: bool = False
    include_f_sv: bool = False

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
    weights = RewardWeights(cfg.lambda1, cfg.lambda2)
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
            weights=weights, layout=spec.layout(d_v=m["d_v"]),
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
            weights=weights, layout=spec.layout(),
        )
        srng = substream(cfg.seed, "tradeoff-speakers")
        k = 1 if spec.scenario == "ss" else cfg.k
        profiles = [env.make_profile(i, srng, k=k) for i in range(TRADEOFF_SPEAKERS)]
        texts = [srng.standard_normal((TRADEOFF_TEXTS, cfg.d_t))
                 for _ in range(TRADEOFF_SPEAKERS)]
        return env, profiles, texts
    raise ConfigError(f"unknown env kind {spec.env_kind!r}")


# -- training --------------------------------------------------------------

def _run_head(spec) -> dict:
    """The RUN_COLUMNS that one run's rows share, in column order."""
    cfg = spec.config
    return {"run_id": spec.run_id, "scenario": spec.scenario, "gamma": cfg.gamma,
            "action_scale": cfg.action_scale, "steps": spec.step_budget, "seed": cfg.seed}


def _score_rows(spec, variant, episodes, speakers, scores) -> list[dict]:
    """RUN_COLUMNS rows of a run: row i is episode episodes[i] of speaker
    speakers[i] (ints), scored scores[i] = (sim, mos, intell, fused) as floats."""
    head = _run_head(spec)
    return [{**head, "episode": e, "speaker": s, "variant": variant,
             "sim": sim, "mos": mos, "intell": intell, "fused": fused}
            for e, s, (sim, mos, intell, fused)
            in zip(episodes, speakers, np.asarray(scores, dtype=float).tolist())]


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
    Returns the per-step "states", "raws", "means", "rewards" and "values" as
    ([N,] steps, ...) arrays, the policy's clamped "log_std" (action_dim,), and
    "initial_fused", "final_fused" and "final_scores": floats and a ScoreTriple
    for one episode, (N,) arrays for N. It computes no log-probs: train takes
    them in one action_log_prob pass over "raws", "means" and "log_std".
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
        per_step.append({"states": states, "raws": raws, "means": mean,
                         "rewards": sc - sc_prev, "values": values})
    # step-major, then ([N,] steps, ...); np.stack costs 5x np.array on one episode
    eps = {k: np.ascontiguousarray(np.array([s[k] for s in per_step]).swapaxes(0, len(lead)))
           for k in per_step[0]}
    return {**eps, "log_std": log_std, "initial_fused": sc0, "final_fused": sc,
            "final_scores": scores}


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
    train_idx = np.array(split_speakers(len(profiles), spec.eval_frac)[0])
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
    picked, scores = [], []  # per iteration: (episodes,) picks, (episodes, 4) scores
    streak, at = 0, np.arange(n_episodes)  # diverged episodes in a row, across iterations
    for it in range(1, cfg.train_iters + 1):
        # three bulk draws, in this order: speakers, texts, sampling noise
        picks = train_idx[rng.integers(len(train_idx), size=n_episodes)]
        F = texts_arr[picks, rng.integers(n_texts, size=n_episodes)]
        noise = rng.standard_normal((n_episodes, steps, policy.action_dim))
        eps = run_episodes(env, policy, refs[picks], targets[picks], F, noise)
        init, final, t = eps["initial_fused"], eps["final_fused"], eps["final_scores"]
        # each episode's streak: its distance to the last good episode, the
        # ones before this iteration standing at index -1 - streak
        run = at - np.maximum.accumulate(
            np.where(final < init - 0.5 * np.abs(init), -1 - streak, at))
        if run.max() >= 100:
            i = int(np.argmax(run >= 100))
            raise DivergenceError(
                f"fused score below half the raw baseline for {run[i]} consecutive "
                f"episodes (last: {final[i]:.4f} vs raw {init[i]:.4f})")
        streak = int(run[-1])
        picked.append(picks)
        scores.append(np.column_stack([t.sim, t.mos, t.intell, final]))
        # the policy is fixed for the rollout: one log-prob pass over every step
        log_probs = action_log_prob(policy, eps["raws"], eps["means"], eps["log_std"])
        batch = RolloutBatch(eps["states"], eps["raws"], log_probs, eps["rewards"],
                             eps["values"])
        try:  # after an overflowing update, values near 1e300 overflow here first
            with np.errstate(over="raise", invalid="raise"):
                batch.compute_advantages(cfg.gamma, cfg.gae_lambda)
        except FloatingPointError as exc:
            raise FloatingPointError(f"advantages of iteration {it} of {cfg.train_iters} at "
                                     f"learning_rate={cfg.learning_rate!r}: {exc}") from None
        ppo_update(policy, batch, cfg, opt)
    speakers = [profiles[i].speaker_id for i in np.ravel(picked).tolist()]
    scores = np.array(scores).reshape(-1, 4)
    if write_outputs:
        spec.run_dir.mkdir(parents=True, exist_ok=True)
        # write_rows' bytes for the rows below: csv.writer quotes the shared
        # columns once, and it writes an int as str and a float as repr
        line = io.StringIO(newline="")
        csv.writer(line).writerow([*_run_head(spec).values(), ""])
        head = line.getvalue()[:-len("\r\n")]
        with replace_on_success(spec.run_dir / "train.csv", newline="") as fh:
            csv.writer(fh).writerow(RUN_COLUMNS)
            fh.write("".join([
                f"{head}{e},{s},rl,{a!r},{b!r},{c!r},{d!r}\r\n"
                for e, (s, (a, b, c, d)) in enumerate(zip(speakers, scores.tolist()))]))
        save_checkpoint(policy, spec.run_dir / "checkpoint.json", config=cfg,
                        step=len(speakers), rng=rng)
    rows = _score_rows(spec, "rl", range(len(speakers)), speakers, scores)
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
        """Per variant: the row count n and each score's mean and std; rl's
        n and std count evaluate's copied rows as separate episodes."""
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

    The rl variant writes EVAL_EPISODES rows per speaker, episode i on
    text i % n_texts. Zero-noise play is deterministic, so each of the
    speaker's m = min(n_texts, EVAL_EPISODES) distinct texts is played
    once, in one lockstep run_episodes call, and episode i copies row
    i % m; the rows are within about 1e-16 of one-at-a-time play. Each
    baseline scores one embedding per (speaker, text): raw the mean of
    the references, finetune finetune_proxy's best, oracle the grid
    oracle's (oracle_best refuses grids too large for d_e). A text's
    baseline rows come in the order raw, finetune, oracle, whatever the
    order of variants. Another variant or split, rl without a policy, or
    a policy of another state layout or, in FS, another k is a ConfigError.
    """
    unknown = sorted(set(variants) - {"rl", "raw", "finetune", "oracle"})
    if unknown or ("rl" in variants and policy is None):
        raise ConfigError(f"cannot evaluate {unknown or ['rl']} here: the variants are "
                          f"rl (which needs a policy), raw, finetune and oracle")
    if split not in ("eval", "train"):
        raise ConfigError(f"unknown split {split!r}: the splits are eval and train")
    n = EVAL_EPISODES
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
        if "rl" in variants:
            # zero-noise play is deterministic: each of the m distinct texts is
            # played once in lockstep, and episode i copies text i % m's row
            m = min(len(spk_texts), n)
            eps = run_episodes(env, policy, np.repeat(profile.refs[None], m, 0),
                               profile.target_voiceprint, spk_texts[:m],
                               np.zeros((m, spec.step_budget, policy.action_dim)))
            s = eps["final_scores"]
            scores = np.column_stack([s.sim, s.mos, s.intell, eps["final_fused"]])
            rows += _score_rows(spec, "rl", range(n), [profile.speaker_id] * n,
                                scores[np.arange(n) % m])
        raw = mean_init(profile.refs)
        lim = float(np.max(np.abs(profile.refs))) + margin
        for ti, f_t in enumerate(spk_texts):
            for variant in baselines:
                # read from the module at each call, so a replaced
                # harness.finetune_proxy or oracle_zoom (perfbench wraps both) runs
                if variant == "raw":
                    e = raw
                elif variant == "finetune":
                    e, _ = finetune_proxy(env, profile, f_t)
                else:
                    e, _ = oracle_zoom(env, profile, f_t, -lim, lim)
                t = env.score_state(f_t, e, profile)
                rows += _score_rows(spec, variant, [ti], [profile.speaker_id],
                                    [[t.sim, t.mos, t.intell, fuse_scores(t, env.weights)]])
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

def finetune_proxy(env, profile, f_t, *, steps: int = 2000):
    """Gradient ascent on the fused score w.r.t. the embedding.

    Central finite differences with step h = 1e-4 stand in for
    fine-tuning a real model; each step scores the stencil e + [0; hI; -hI]
    in one fused_batch call. Returns (best embedding, best fused score)
    over the whole trajectory, starting from the raw embedding's score
    (ties: the earliest point). steps must be an integer (not a bool)
    >= 1; anything else is a ConfigError.
    """
    _check_count("steps", steps)
    h = 1e-4
    e = mean_init(profile.refs)
    d = e.shape[0]
    path, scores = [e.copy()], [env.fused(f_t, e, profile)]
    stencil = np.concatenate([np.zeros((1, d)), h * np.eye(d), -h * np.eye(d)])
    for _ in range(steps):
        sc = env.fused_batch(f_t, e + stencil, profile)
        path.append(e)
        scores.append(float(sc[0]))
        grad = (sc[1:d + 1] - sc[d + 1:]) / (2 * h)
        if not np.isfinite(grad).all():
            raise FloatingPointError("non-finite fused-score gradient at "
                                     f"coordinate {np.argmin(np.isfinite(grad))}")
        e = e + FINETUNE_STEP_SIZE * grad
    path.append(e)
    scores.append(float(env.fused_batch(f_t, e[None], profile)[0]))
    best = int(np.argmax(scores))
    return path[best], scores[best]


# -- sweeps and ablations --------------------------------------------------

SWEEP_AXES = ("gamma", "action_scale", "steps", "lambda1", "lambda2")


def _apply_axis(spec: ExperimentSpec, axis: str, value: float) -> ExperimentSpec:
    if axis == "steps":
        if not float(value).is_integer():
            raise ConfigError(f"steps must be a whole number, got {value}")
        axis, value = ("steps_ss" if spec.scenario == "ss" else "steps_fs"), int(value)
    return replace(spec, config=spec.config.with_overrides(**{axis: value}))


def _run_study(spec: ExperimentSpec, cells, corpus: Corpus | None, name: str) -> list[dict]:
    """Each (labels, cell) in order: train under the cell's config, evaluate
    under it with spec.config's lambda1 and lambda2 (every cell scored under
    the study's reward), label the rows. A failing cell raises as its own
    type before anything is written; else out_dir/run_id/<name>.csv gets
    the rows whole, label columns first, and they are returned."""
    rows, lambdas = [], {"lambda1": spec.config.lambda1, "lambda2": spec.config.lambda2}
    for labels, cell in cells:
        policy, _ = train(cell, corpus, write_outputs=False)
        judge = replace(cell, config=replace(cell.config, **lambdas))
        rows += [{**labels, **r} for r in evaluate(policy, judge, corpus).rows]
    spec.run_dir.mkdir(parents=True, exist_ok=True)
    write_rows(spec.run_dir / f"{name}.csv", rows, columns=[*cells[0][0]] + RUN_COLUMNS)
    return rows


def sweep(spec: ExperimentSpec, axis: str, values, corpus: Corpus | None = None):
    """One _run_study cell per axis value, with shared seeds: each trains
    with its value and is scored under spec.config's reward, so a lambda
    sweep compares its policies on one yardstick. Returns (long rows,
    per-value summary rows) and writes sweep_<axis>.csv and
    sweep_<axis>_summary.csv under out_dir/run_id."""
    if axis not in SWEEP_AXES:
        raise ConfigError(f"unknown sweep axis {axis!r}; choose from {SWEEP_AXES}")
    values = list(values)
    if not values:
        raise ConfigError("sweep needs at least one value")
    if len(set(values)) != len(values):
        raise ConfigError(f"duplicate sweep values: {values}")
    # every value is checked before the first point trains
    cells = [({"axis": axis, "value": value},
              replace(_apply_axis(spec, axis, value), run_id=f"{spec.run_id}-{axis}-{value}"))
             for value in values]
    long_rows = _run_study(spec, cells, corpus, f"sweep_{axis}")
    summary_rows = [{"axis": axis, "value": value, **s} for value in values
                    for s in EvalResult([r for r in long_rows if r["value"] == value]).summary()]
    write_rows(spec.run_dir / f"sweep_{axis}_summary.csv", summary_rows)
    return long_rows, summary_rows


SCORE_TERM_VARIANTS = {
    # the lambdas a reward variant sets to 0, dropping their terms
    "sim+mos+intell": (),
    "sim+intell": ("lambda1",),
    "sim+mos": ("lambda2",),
    "sim_only": ("lambda1", "lambda2"),
}


def ablate(spec: ExperimentSpec, mode: str, corpus: Corpus | None = None):
    """Reward-term or state-segment ablation grid, run through _run_study.

    mode="score_terms": 4 reward variants trained on the tradeoff
    environment. mode="state_segments": the 16-cell grid over prior
    segments {f_rv, f_t} x posterior segments {e_s, f_sv} on the voice
    environment; the embedding segment itself can never be disabled.
    Every cell is evaluated under spec.config's reward, whatever reward it
    trained on. Writes and returns ablate_<mode>.csv's rows.
    """
    if mode == "score_terms":
        cells = {name: replace(spec, env_kind="tradeoff",
                               config=spec.config.with_overrides(**dict.fromkeys(zeroed, 0.0)))
                 for name, zeroed in SCORE_TERM_VARIANTS.items()}
    elif mode == "state_segments":
        cells = {f"frv{int(f_rv)}_ft{int(f_t)}_es{int(e_s)}_fsv{int(f_sv)}": replace(
                     spec, env_kind="voice", include_f_rv=f_rv, include_f_t=f_t,
                     include_e_s=e_s, include_f_sv=f_sv)
                 for f_rv, f_t, e_s, f_sv in itertools.product((False, True), repeat=4)}
    else:
        raise ConfigError(f"unknown ablation mode {mode!r}; "
                          "choose score_terms or state_segments")
    return _run_study(spec, [({"ablation": name}, replace(cell, run_id=f"{spec.run_id}-{name}"))
                             for name, cell in cells.items()], corpus, f"ablate_{mode}")


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


# -- flat config files -----------------------------------------------------

def parse_config_file(path, **fixed) -> RLConfig:
    """Flat key=value config with # comments; every RLConfig field but the
    corpus's d_e, d_t and k works, once. fixed (those three, a --seed) is
    laid over the file's settings before the one validation."""
    overrides = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            key, sep, val = line.partition("=")
            key, val = key.strip(), val.strip()
            if not sep or key not in SETTING_TYPES:
                raise ConfigError(f"{path}:{lineno}: unknown or malformed entry {raw.strip()!r}")
            if key in ("d_e", "d_t", "k"):
                raise ConfigError(f"{path}:{lineno}: {key} cannot be set here; "
                                  f"the corpus sets it")
            if key in overrides:
                raise ConfigError(f"{path}:{lineno}: key {key!r} repeated")
            kind = SETTING_TYPES[key]
            try:
                overrides[key] = kind(val)
            except ValueError:
                raise ConfigError(f"{path}:{lineno}: {key} must be {kind.__name__}, "
                                  f"got {val!r}") from None
    try:
        return RLConfig(**{**overrides, **fixed}).validate()
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"{path}: {exc}") from exc
