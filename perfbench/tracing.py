"""Span tracing of the asrrl modules from outside the package.

The tracer wraps public functions and methods at run time, replacing each
name where its caller looks it up (a module global or a class attribute),
and restores the originals afterwards. Spans stay in memory as
[name, start, end, parent index, run id, work, error] and are written out
when the benchmark ends. Nothing under ``src/`` is edited.
"""

from __future__ import annotations

import functools
import json
import time

import numpy as np

from asrrl import agent, core, env, external_scorer, harness
from benchstats import median, ratio, self_times


def _rows(args, kwargs):
    states = args[1] if len(args) > 1 else kwargs["states"]
    return 1 if np.ndim(states) == 1 else len(states)


def _batch_rows(args, kwargs):
    return len(args[2] if len(args) > 2 else kwargs["E"])


def _grid_points(args, kwargs):
    profile = args[1] if len(args) > 1 else kwargs["profile"]
    spec = args[3] if len(args) > 3 else kwargs["grid_spec"]
    specs = [spec] * len(profile.true_embedding) if isinstance(spec, tuple) else spec
    return int(np.prod([int(n) for _, _, n in specs]))


# (owner, attribute, span name, work counter). The owner is where the
# caller looks the name up: harness imports agent and env functions by
# name, so those are replaced in the harness namespace.
TARGETS = [
    (harness, "train", "harness.train", None),
    (harness, "evaluate", "harness.evaluate", None),
    (harness, "evaluate_checkpoint", "harness.evaluate_checkpoint", None),
    (harness, "run_episode", "harness.run_episode", None),
    (harness, "gen_corpus", "harness.gen_corpus", None),
    (harness, "load_corpus", "harness.load_corpus", None),
    (harness, "write_rows", "harness.write_rows", None),
    (harness, "finetune_proxy", "harness.finetune_proxy", None),
    (env._EnvBase, "reset", "env.reset", None),
    (env._EnvBase, "step", "env.step", None),
    (env._EnvBase, "score_state", "env.score_state", None),
    (env._EnvBase, "fused", "env.fused", None),
    (env._EnvBase, "fused_batch", "env.fused_batch", _batch_rows),
    (env.SyntheticVoiceEnv, "synth", "env.synth", None),
    (env, "oracle_best", "env.oracle_best", _grid_points),
    (harness, "oracle_zoom", "env.oracle_zoom", None),
    (harness, "select_action", "agent.select_action", None),
    (agent.PolicyNetwork, "forward", "agent.forward", _rows),
    (agent.PolicyNetwork, "backward", "agent.backward", None),
    (harness, "ppo_update", "agent.ppo_update", None),
    (agent.RolloutBatch, "compute_advantages", "agent.compute_advantages", None),
    (agent.Adam, "step", "agent.adam_step", None),
    (harness, "save_checkpoint", "agent.save_checkpoint", None),
    (harness, "load_checkpoint", "agent.load_checkpoint", None),
    (core.StateLayout, "flatten", "core.flatten", None),
    (env, "apply_ss", "core.apply_ss", None),
    (env, "fuse_scores", "scoring.fuse_scores", None),
    (harness, "fuse_scores", "scoring.fuse_scores", None),
    (env, "score_speech", "scoring.score_speech", None),
    (external_scorer.ExternalScorerClient, "submit", "external_scorer.submit", None),
    (external_scorer.ExternalScorerClient, "wait", "external_scorer.wait", None),
]


class Patches:
    """Replaces names at run time and puts the originals back."""

    def __init__(self):
        self._saved = []

    def set(self, owner, attr, value) -> None:
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def restore(self) -> None:
        for owner, attr, value in reversed(self._saved):
            setattr(owner, attr, value)
        self._saved.clear()


class Tracer:
    """Records nested spans while installed; see module docstring."""

    def __init__(self):
        self.spans: list[list] = []
        self.run_id = "setup"
        self._stack: list[int] = []
        self._patches = Patches()

    def _wrap(self, fn, name, work):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else None, self.run_id,
                   work(args, kwargs) if work else 1, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = clock()
            try:
                return fn(*args, **kwargs)
            except BaseException as exc:
                rec[6] = type(exc).__name__
                raise
            finally:
                rec[2] = clock()
                stack.pop()

        return traced

    def install(self, run_id) -> None:
        self.run_id = run_id
        for owner, attr, name, work in TARGETS:
            self._patches.set(owner, attr, self._wrap(getattr(owner, attr), name, work))

    def restore(self) -> None:
        self._patches.restore()
        self._stack.clear()

    FIELDS = ("name", "start", "end", "parent", "run", "work", "error")

    def write(self, path) -> None:
        """One JSON array per span, after a header line naming the fields;
        parent is the index of the parent span in this file."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(self.FIELDS) + "\n")
            for rec in self.spans:
                fh.write(json.dumps(rec) + "\n")


class SpanTable:
    """The spans of one run id, with per-name totals for the metrics."""

    # ancestors whose presence the metrics ask about, one bit each
    SCOPES = ("harness.train", "harness.run_episode")

    def __init__(self, spans: list[list], run_id):
        idx = [i for i, s in enumerate(spans) if s[4] == run_id]
        local = {g: i for i, g in enumerate(idx)}
        self.spans = [spans[g] for g in idx]
        parents = [local.get(s[3]) for s in self.spans]
        selfs = self_times([(s[1], s[2], p) for s, p in zip(self.spans, parents)])
        # scope[i]: bit set of SCOPES names among span i's strict ancestors;
        # parents precede children, so one forward pass suffices
        bits = {n: 1 << k for k, n in enumerate(self.SCOPES)}
        scope = []
        for s, p in zip(self.spans, parents):
            scope.append(0 if p is None else scope[p] | bits.get(self.spans[p][0], 0))
        self._bits = bits
        self._by_name: dict[str, list] = {}
        for row in zip(self.spans, selfs, scope):
            self._by_name.setdefault(row[0][0], []).append(row)

    def _select(self, name, under=None):
        bit = self._bits[under] if under else 0
        return [(s, st) for s, st, sc in self._by_name.get(name, ())
                if (sc & bit) == bit]

    def calls(self, name, under=None) -> int:
        return len(self._select(name, under))

    def ms(self, name, under=None) -> float:
        return 1e3 * sum(s[2] - s[1] for s, _ in self._select(name, under))

    def self_ms(self, name) -> float:
        return 1e3 * sum(st for _, st in self._select(name))

    def work(self, name, under=None) -> int:
        return sum(s[5] for s, _ in self._select(name, under))

    def errors(self, prefix) -> int:
        return sum(1 for s in self.spans if s[0].startswith(prefix) and s[6])

    def max_in_flight(self) -> int:
        """Most scorer requests sent and not yet collected at any time."""
        events = sorted((s[2], +1 if s[0].endswith("submit") else -1)
                        for s in self.spans
                        if s[0] in ("external_scorer.submit", "external_scorer.wait")
                        and not s[6])
        level = peak = 0
        for _, delta in events:
            level += delta
            peak = max(peak, level)
        return peak


def unit_metrics(t: SpanTable) -> dict[str, float]:
    """Per-layer metrics of one traced unit of work."""
    episodes = t.calls("harness.run_episode")
    scored = t.calls("env.score_state", under="harness.run_episode")
    steps = t.calls("env.step", under="harness.run_episode")
    train_ms = t.ms("harness.train")
    return {
        "harness.run_episode.calls": episodes,
        "harness.run_episode.self_ms": t.self_ms("harness.run_episode"),
        "harness.train.ms": train_ms,
        "harness.rollout_share": ratio(
            t.ms("harness.run_episode", under="harness.train"), train_ms),
        "harness.write_rows.ms": t.ms("harness.write_rows"),
        "harness.finetune_proxy.ms": t.ms("harness.finetune_proxy"),
        "env.reset.calls": t.calls("env.reset"),
        "env.reset.self_ms": t.self_ms("env.reset"),
        "env.step.calls": t.calls("env.step"),
        "env.step.self_ms": t.self_ms("env.step"),
        "env.score_state.calls": t.calls("env.score_state"),
        "env.score_state.ms": t.ms("env.score_state"),
        "env.score_state.calls_per_episode": ratio(scored, episodes),
        "env.scoring_useful_ratio": ratio(steps + episodes, scored),
        "env.fused.calls": t.calls("env.fused"),
        "env.fused.ms": t.ms("env.fused"),
        "env.fused_batch.calls": t.calls("env.fused_batch"),
        "env.fused_batch.rows": t.work("env.fused_batch"),
        "env.fused_batch.ms": t.ms("env.fused_batch"),
        "env.oracle_best.points": t.work("env.oracle_best"),
        "env.oracle_best.ms": t.ms("env.oracle_best"),
        "env.synth.calls": t.calls("env.synth"),
        "agent.select_action.calls": t.calls("agent.select_action"),
        "agent.select_action.self_ms": t.self_ms("agent.select_action"),
        "agent.forward.calls": t.calls("agent.forward"),
        "agent.forward.rows_per_call": ratio(
            t.work("agent.forward", under="harness.run_episode"),
            t.calls("agent.forward", under="harness.run_episode")),
        "agent.forward.ms": t.ms("agent.forward"),
        "agent.backward.ms": t.ms("agent.backward"),
        "agent.ppo_update.ms": t.ms("agent.ppo_update"),
        "agent.update_share": ratio(
            t.ms("agent.ppo_update", under="harness.train"), train_ms),
        "agent.compute_advantages.ms": t.ms("agent.compute_advantages"),
        "agent.adam_step.ms": t.ms("agent.adam_step"),
        "agent.save_checkpoint.ms": t.ms("agent.save_checkpoint"),
        "agent.load_checkpoint.ms": t.ms("agent.load_checkpoint"),
        "core.flatten.calls": t.calls("core.flatten"),
        "core.flatten.ms": t.ms("core.flatten"),
        "core.apply_ss.calls": t.calls("core.apply_ss"),
        "scoring.fuse_scores.calls": t.calls("scoring.fuse_scores"),
        "scoring.score_speech.calls": t.calls("scoring.score_speech"),
        "scoring.score_speech.ms": t.ms("scoring.score_speech"),
        "external_scorer.requests": t.calls("external_scorer.submit"),
        "external_scorer.faults": t.errors("external_scorer."),
        "external_scorer.submit.ms": t.ms("external_scorer.submit"),
        "external_scorer.wait.ms": t.ms("external_scorer.wait"),
        "external_scorer.max_in_flight": t.max_in_flight(),
    }


def setup_metrics(t: SpanTable) -> dict[str, float]:
    """Per-layer metrics of the set-up phase (corpus I/O)."""
    return {"harness.gen_corpus.ms": t.ms("harness.gen_corpus"),
            "harness.load_corpus.ms": t.ms("harness.load_corpus")}


def layer_metrics(tracer: Tracer, unit_ids) -> dict[str, float]:
    """Set-up metrics plus the median over traced units of each unit metric."""
    out = setup_metrics(SpanTable(tracer.spans, "setup"))
    per_unit = [unit_metrics(SpanTable(tracer.spans, u)) for u in unit_ids]
    for key in per_unit[0]:
        out[key] = median([m[key] for m in per_unit])
    return out
