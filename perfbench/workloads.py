"""The benchmark's workloads: set-up, one unit of work, gates and metrics.

Every workload is a closed loop driven by one caller process: the next
operation starts only when the previous one has returned. ``scored_eval``
adds exactly one scorer subprocess. Corpora are the paper's reference
corpora (fixed seeds, as in the acceptance criteria); the workload seed
drives the policy seed, and on ``oracle_lowdim``, which has no policy,
the pair that gets the full-grid search.

A unit of work repeats exactly with the same seed, so each unit's quality
fingerprint must equal the warm-up unit's.
"""

from __future__ import annotations

import hashlib
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from asrrl import env as envmod
from asrrl import harness
from asrrl.agent import PolicyNetwork, load_checkpoint
from asrrl.core import RLConfig
from asrrl.external_scorer import ExternalScorerClient
from asrrl.seeding import substream
from benchstats import median, tail
from calibrate import (CHUNK_NOMINAL_S, NOMINAL_S, NUMPY_NOMINAL_S, chunk_kernel,
                       numpy_kernel, reference, scaled)
from tracing import Patches

HERE = Path(__file__).resolve().parent
clock = time.perf_counter


class Gates:
    """Counts correctness checks and failures (ops_failed_frac)."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.fail(what)

    def fail(self, what: str) -> None:
        self.failed += 1
        if len(self.messages) < 20:
            self.messages.append(what)


def _corpus(workdir: Path, seed, n_speakers, k, d_e, d_t, texts, sigma_ref):
    """Generate the corpus file, then load it back as training does."""
    path = workdir / "corpus.tsv"
    harness.gen_corpus(seed, n_speakers, k, d_e, d_t, texts, path,
                       force=True, sigma_ref=sigma_ref)
    return path, harness.load_corpus(path)


def _digest(*parts) -> str:
    h = hashlib.sha256()
    for p in parts:
        h.update(p if isinstance(p, bytes) else repr(p).encode())
    return h.hexdigest()


class Workload:
    """Shared loop plumbing; subclasses define the work itself."""

    name = ""

    def __init__(self, seed: int, workdir: Path, gates: Gates):
        self.seed = int(seed)
        self.workdir = workdir
        self.gates = gates
        self.patches = Patches()

    def install_hooks(self) -> None:
        """End-to-end hooks, active in traced and untraced runs alike.

        Each telescoping check costs a few microseconds per episode.
        """
        run_episode = harness.run_episode
        gates = self.gates

        def checked_episode(*args, **kwargs):
            ep = run_episode(*args, **kwargs)
            net = ep["final_fused"] - ep["initial_fused"]
            total = math.fsum(ep["rewards"])
            gates.check(abs(total - net) <= 1e-9,
                        f"reward telescoping off by {abs(total - net):.3e}")
            return ep

        self.patches.set(harness, "run_episode", checked_episode)

    def verify(self, u: dict) -> None:
        """Correctness gates that need more calls into the package; run
        outside the timed and traced unit. Sets u["fingerprint"]."""

    def close(self) -> None:
        self.patches.restore()

    # subclasses: setup(), unit() -> dict, summarize(units) -> (e2e, named)
    # and probe_inputs() -> (policy, env, profile, f_t)


class SSRef(Workload):
    """The paper's reference SS setup (acceptance criterion 6 corpus): one
    fixed-length train(write_outputs=True), then evaluate_checkpoint on the
    held-out speakers."""

    name = "ss_ref"
    # seed, speakers, k, d_e, d_t, texts per speaker, sigma_ref
    corpus_args = (11, 50, 1, 16, 8, 4, 0.05)
    train_iters = 30

    def setup(self):
        self.corpus_path, self.corpus = _corpus(self.workdir, *self.corpus_args)
        m = self.corpus.meta
        cfg = RLConfig(d_e=m["d_e"], d_t=m["d_t"], k=m["k"], seed=self.seed,
                       train_iters=self.train_iters)
        self.spec = harness.ExperimentSpec(
            config=cfg, scenario="ss", out_dir=self.workdir, run_id="run")
        self.env, self.profiles, self.texts = harness.build_env(self.spec, self.corpus)
        self.policy = PolicyNetwork(
            self.env.layout, "ss", k=cfg.k, hidden=cfg.hidden,
            encoder=cfg.encoder, rng=substream(cfg.seed, "policy-init"))
        self.run_dir = self.workdir / "run"

    def install_hooks(self):
        super().install_hooks()
        ppo_update = harness.ppo_update
        self.iters: list[tuple[float, float]] = []

        # An iteration runs from train() start or the end of the kernel
        # after the previous ppo_update return, to the next return.
        def clocked_update(*args, **kwargs):
            report = ppo_update(*args, **kwargs)
            t = clock()
            self.iters.append((t - self.iter_start, self.ref_s))
            self.ref_s = reference()
            self.iter_start = clock()
            return report

        self.patches.set(harness, "ppo_update", clocked_update)

    def unit(self) -> dict:
        self.iters = []
        self.ref_s = reference()
        self.iter_start = clock()
        policy, rows = harness.train(self.spec, self.corpus, write_outputs=True)
        t1 = clock()
        # the output writing after the last update counts with the last
        # iteration
        last_s, last_ref = self.iters[-1]
        self.iters[-1] = (last_s + t1 - self.iter_start, last_ref)
        ckpt = self.run_dir / "checkpoint.json"
        ref_before = reference(5)
        t2 = clock()
        result = harness.evaluate_checkpoint(ckpt, self.corpus_path, spec=self.spec)
        t3 = clock()
        # the call takes about 0.5 s, so the kernel brackets it
        eval_ref = (ref_before + reference(5)) / 2
        return {
            "steps": len(rows) * self.spec.step_budget,
            "iters": list(self.iters),
            "eval_s": t3 - t2,
            "eval_ref_s": eval_ref,
            "eval_episodes": sum(1 for r in result.rows if r["variant"] == "rl"),
            "checkpoint_bytes": ckpt.stat().st_size,
            "policy": policy,
            "result": result,
        }

    def verify(self, u: dict) -> None:
        g = self.gates
        policy, result = u.pop("policy"), u.pop("result")
        ckpt = self.run_dir / "checkpoint.json"
        loaded = load_checkpoint(ckpt)[0]
        g.check(loaded.params.keys() == policy.params.keys() and all(
            loaded.params[k].tobytes() == v.tobytes()
            for k, v in policy.params.items()), "checkpoint round trip not bit-exact")
        rl, raw = result.mean("rl", "fused"), result.mean("raw", "fused")
        u["heldout_rl_minus_raw"] = rl - raw
        g.check(rl >= raw, f"held-out rl fused {rl:.6f} < raw {raw:.6f}")
        u["fingerprint"] = _digest(ckpt.read_bytes(),
                                   (self.run_dir / "train.csv").read_bytes(),
                                   [(r["variant"], r["fused"]) for r in result.rows])

    def summarize(self, units):
        iters = [x for u in units for x in u["iters"]]
        steps = sum(u["steps"] for u in units)
        episodes = sum(u["eval_episodes"] for u in units)

        def metrics(scale):
            iter_ms = [1e3 * scale(t, r) for t, r in iters]
            t, p, n = tail(iter_ms)
            return {
                "train_steps_per_s": 1e3 * steps / sum(iter_ms),
                "train_iter_ms_p50": median(iter_ms),
                "train_iter_ms_tail": t,
                "eval_episodes_per_s": episodes / sum(scale(u["eval_s"], u["eval_ref_s"])
                                                      for u in units),
            }, {"percentile": p, "samples": n}

        named, tail_at = metrics(scaled)
        named["heldout_rl_minus_raw"] = units[0]["heldout_rl_minus_raw"]
        e2e = {
            "primary_per_s": named["train_steps_per_s"],
            "op_ms_p50": named["train_iter_ms_p50"],
            "secondary_per_s": named["eval_episodes_per_s"],
        }
        return e2e, {**named, "tail": tail_at, "raw": metrics(lambda t, r: t)[0]}

    def probe_inputs(self):
        return self.policy, self.env, self.profiles[0], self.texts[0][0]


class OracleLowdim(Workload):
    """No policy: grid oracle with zoom, the scalar fine-tune proxy, and one
    full-grid oracle_best call (acceptance criterion 7 corpus)."""

    name = "oracle_lowdim"
    corpus_args = (21, 25, 1, 3, 4, 4, 0.02)
    finetune_steps = 100
    grid_points = 128      # per dimension: 128**3 = 2,097,152 points

    def setup(self):
        self.corpus_path, self.corpus = _corpus(self.workdir, *self.corpus_args)
        m = self.corpus.meta
        self.spec = harness.ExperimentSpec(
            config=RLConfig(d_e=m["d_e"], d_t=m["d_t"], k=m["k"], seed=self.seed),
            scenario="ss", out_dir=self.workdir)
        self.env, self.profiles, self.texts = harness.build_env(self.spec, self.corpus)
        _, self.eval_idx = self.corpus.split(self.spec.eval_frac)
        self.grid_speaker = self.eval_idx[self.seed % len(self.eval_idx)]
        self.grid_text = (self.seed // len(self.eval_idx)) % m["texts_per_speaker"]

    def install_hooks(self):
        super().install_hooks()
        oracle_zoom = harness.oracle_zoom
        self.pairs: list[tuple[float, float]] = []  # (seconds, kernel seconds)
        self.finetunes: list[tuple[float, float]] = []  # (seconds, kernel seconds)
        self.finetuned: list[float] = []

        # Each pair's fine-tune runs right after its oracle search, so the
        # batched and the scalar scoring path alternate through the run
        # and see the same machine. finetune_proxy is looked up at call
        # time, where a traced run has wrapped it; its spans nest in the
        # oracle_zoom span. The search spends its time in numpy calls over
        # arrays of 41**3 rows, and is scaled by a numpy kernel of that
        # shape, not by the Python one (NOTES.md).
        def zoom_then_finetune(env, profile, f_t, *args, **kwargs):
            ref_s = reference(3, numpy_kernel)
            t0 = clock()
            out = oracle_zoom(env, profile, f_t, *args, **kwargs)
            self.pairs.append((clock() - t0, ref_s))
            ref_s = reference()
            t0 = clock()
            self.finetuned.append(harness.finetune_proxy(
                env, profile, f_t, steps=self.finetune_steps)[1])
            self.finetunes.append((clock() - t0, ref_s))
            return out

        self.patches.set(harness, "oracle_zoom", zoom_then_finetune)

    def unit(self) -> dict:
        g = self.gates
        self.pairs, self.finetunes, self.finetuned = [], [], []
        result = harness.evaluate(None, self.spec, self.corpus,
                                  variants=("raw", "oracle"))
        fused = {(r["variant"], r["speaker"], r["episode"]): r["fused"]
                 for r in result.rows}
        # evaluate searches the pairs in the order of their raw rows
        pairs = [(r["speaker"], r["episode"]) for r in result.rows
                 if r["variant"] == "raw"]
        g.check(len(self.finetuned) == len(pairs),
                f"{len(self.finetuned)} fine-tunes for {len(pairs)} pairs")
        for (s, e), sc in zip(pairs, self.finetuned):
            raw, orc = fused[("raw", s, e)], fused[("oracle", s, e)]
            g.check(raw <= orc, f"pair {s}/{e}: raw {raw:.6f} above oracle {orc:.6f}")
            g.check(sc >= raw, f"pair {s}/{e}: finetune {sc:.6f} below raw {raw:.6f}")

        profile = self.profiles[self.grid_speaker]
        f_t = self.texts[self.grid_speaker][self.grid_text]
        lim = float(np.max(np.abs(profile.refs))) + 4.0 * self.env.sigma_ref
        ref_before = reference(1, chunk_kernel)
        t4 = clock()
        e_best, sc_best = envmod.oracle_best(self.env, profile, f_t,
                                             (-lim, lim, self.grid_points))
        t5 = clock()
        # the call takes about 1.5 s, so the kernel brackets it
        grid_ref = (ref_before + reference(1, chunk_kernel)) / 2
        raw = fused[("raw", self.grid_speaker, self.grid_text)]
        g.check(sc_best >= raw, f"full grid {sc_best:.6f} below raw {raw:.6f}")
        return {
            "pairs": list(self.pairs),
            "finetunes": list(self.finetunes),
            "grid_s": t5 - t4,
            "grid_ref_s": grid_ref,
            "grid_points": self.grid_points ** len(profile.true_embedding),
            "fingerprint": _digest(sorted(fused.items()), self.finetuned,
                                   e_best.tobytes(), sc_best),
        }

    def summarize(self, units):
        pairs = [x for u in units for x in u["pairs"]]
        finetunes = [x for u in units for x in u["finetunes"]]
        steps = self.finetune_steps * len(finetunes)
        points = sum(u["grid_points"] for u in units)

        def metrics(scale):
            pair_ms = [1e3 * scale(t, r, NUMPY_NOMINAL_S) for t, r in pairs]
            t, p, n = tail(pair_ms)
            return {
                "oracle_pairs_per_s": 1e3 * len(pair_ms) / sum(pair_ms),
                "grid_points_per_s": points / sum(
                    scale(u["grid_s"], u["grid_ref_s"], CHUNK_NOMINAL_S) for u in units),
                "finetune_steps_per_s": steps / sum(
                    scale(t, r, NOMINAL_S) for t, r in finetunes),
                "oracle_pair_ms_p50": median(pair_ms),
                "oracle_pair_ms_tail": t,
            }, {"percentile": p, "samples": n}

        named, tail_at = metrics(scaled)
        e2e = {
            "primary_per_s": named["grid_points_per_s"],
            "op_ms_p50": named["oracle_pair_ms_p50"],
            "secondary_per_s": named["finetune_steps_per_s"],
        }
        raw = metrics(lambda t, r, nominal: t)[0]
        return e2e, {**named, "tail": tail_at, "raw": raw}

    def probe_inputs(self):
        policy = PolicyNetwork(self.env.layout, "ss", rng=substream(self.seed, "probe"))
        return policy, self.env, self.profiles[0], self.texts[0][0]


class ScoredEval(Workload):
    """Mode-action episodes whose similarity comes from an external scorer
    subprocess, then the same episodes with the built-in scorer."""

    name = "scored_eval"
    corpus_args = SSRef.corpus_args
    episodes_per_speaker = 20

    def setup(self):
        self.corpus_path, self.corpus = _corpus(self.workdir, *self.corpus_args)
        m = self.corpus.meta
        self.spec = harness.ExperimentSpec(
            config=RLConfig(d_e=m["d_e"], d_t=m["d_t"], k=m["k"], seed=self.seed),
            scenario="ss", out_dir=self.workdir)
        self.env, self.profiles, self.texts = harness.build_env(self.spec, self.corpus)
        self.plain_env, _, _ = harness.build_env(self.spec, self.corpus)
        _, self.eval_idx = self.corpus.split(self.spec.eval_frac)
        cfg = self.spec.config
        self.policy = PolicyNetwork(
            self.env.layout, "ss", k=1, hidden=cfg.hidden, encoder=cfg.encoder,
            rng=substream(cfg.seed, "policy-init"))
        self.client = ExternalScorerClient.spawn(
            [sys.executable, str(HERE / "scorer_server.py")], kind="sim")
        # Caller and scorer share one CPU. Left to the scheduler, they
        # share a CPU in some stretches and not in others, and the round
        # trip flips between about 85 and 135 microseconds. On CPUs of
        # their own, the round trip follows two CPUs' speeds, of which the
        # reference kernel, run by the caller, sees one (NOTES.md).
        cpu = sorted(os.sched_getaffinity(0))[:1]
        os.sched_setaffinity(0, cpu)
        os.sched_setaffinity(self.client._proc.pid, cpu)
        # one round trip, so set-up ends with the scorer ready
        self.client.wait(self.client.submit("sim", [0.0]))
        self.env.scorers = {"sim": self.client}

    def install_hooks(self):
        super().install_hooks()
        score = self.client.score
        gates = self.gates
        self.rtt_s: list[float] = []

        def timed_score(speech, context):
            t0 = clock()
            value = score(speech, context)
            self.rtt_s.append(clock() - t0)
            gates.check(0.0 <= value <= 1.0, f"scorer reply {value} out of range")
            return value

        self.client.score = timed_score

    def unit(self) -> dict:
        """Each episode with the external scorer, then the same episode with
        the built-in one, so both alternate through the run. The kernel
        time before each pair of episodes goes with both and with the
        episode's round trips."""
        scored, plain, scored_s, plain_s, rtts = [], [], [], [], []
        for si in self.eval_idx:
            texts = self.texts[si]
            for ei in range(self.episodes_per_speaker):
                f_t = texts[ei % len(texts)]
                ref_s = reference()
                self.rtt_s = []
                for env, fused, times in ((self.env, scored, scored_s),
                                          (self.plain_env, plain, plain_s)):
                    t0 = clock()
                    ep = harness.run_episode(env, self.policy, self.profiles[si],
                                             f_t, mode="mode")
                    times.append((clock() - t0, ref_s))
                    fused.append(ep["final_fused"])
                rtts.extend((t, ref_s) for t in self.rtt_s)
        return {
            "scored": scored_s,
            "plain": plain_s,
            "rtts": rtts,
            "fingerprint": _digest(scored, plain),
        }

    def summarize(self, units):
        scored = [x for u in units for x in u["scored"]]
        plain = [x for u in units for x in u["plain"]]
        rtts = [x for u in units for x in u["rtts"]]

        def metrics(scale):
            rtt_us = [1e6 * scale(t, r) for t, r in rtts]
            t, p, n = tail(rtt_us)
            return {
                "scored_episodes_per_s": len(scored) / sum(scale(t, r) for t, r in scored),
                "scorer_rtt_us_p50": median(rtt_us),
                "scorer_rtt_us_tail": t,
                "unscored_episodes_per_s": len(plain) / sum(scale(t, r) for t, r in plain),
            }, {"percentile": p, "samples": n}

        named, tail_at = metrics(scaled)
        e2e = {
            "primary_per_s": named["scored_episodes_per_s"],
            "op_ms_p50": named["scorer_rtt_us_p50"] / 1e3,
            "secondary_per_s": named["unscored_episodes_per_s"],
        }
        return e2e, {**named, "tail": tail_at, "raw": metrics(lambda t, r: t)[0]}

    def probe_inputs(self):
        return self.policy, self.plain_env, self.profiles[0], self.texts[0][0]

    def close(self):
        super().close()
        client = getattr(self, "client", None)
        if client is None:
            return
        try:
            client.close()  # closes the pipe; the server exits on EOF
        except subprocess.TimeoutExpired:
            pass  # killed below
        finally:
            proc = client._proc
            if proc.poll() is None:
                proc.kill()
            proc.wait()


WORKLOADS = {w.name: w for w in (SSRef, OracleLowdim, ScoredEval)}


def probe_batch_sizes(policy, env, profile, f_t, sizes=(1, 16, 256, 4096),
                      budget_s=0.2) -> dict[str, float]:
    """Microseconds per row of PolicyNetwork.forward and env.fused_batch at
    fixed batch sizes, each the median of repeats filling budget_s."""
    rng = np.random.default_rng(0)
    out = {}
    for b in sizes:
        X = 0.05 * rng.standard_normal((b, policy.state_dim))
        E = profile.refs[0] + 0.01 * rng.standard_normal((b, profile.refs.shape[1]))
        for key, call in ((f"agent.forward.us_per_row.b{b}", lambda: policy.forward(X)),
                          (f"env.fused_batch.us_per_row.b{b}",
                           lambda: env.fused_batch(f_t, E, profile))):
            times = []
            end = clock() + budget_s
            while clock() < end or len(times) < 3:
                t0 = clock()
                call()
                times.append(clock() - t0)
            out[key] = 1e6 * median(times) / b
    return out
