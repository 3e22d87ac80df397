"""Corpus I/O, training/eval harness, sweeps, ablations, CSV, CLI."""

import csv
import io
import itertools
import json
import math
import os
import re
import subprocess
import sys
import threading
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import asrrl.harness as harness
from asrrl import cli
from asrrl.agent import (CheckpointError, PolicyNetwork, UpdateRejected, action_log_prob,
                         load_checkpoint, save_checkpoint, select_action)
from asrrl.core import RLConfig, StateLayout, mean_init
from asrrl.env import SyntheticVoiceEnv, TradeoffEnv
from asrrl.harness import (
    ConfigError,
    DivergenceError,
    ExperimentSpec,
    build_env,
    evaluate,
    evaluate_checkpoint,
    finetune_proxy,
    gen_corpus,
    load_corpus,
    parse_config_file,
    sweep,
    train,
    write_rows,
)
from asrrl.scoring import ScoreRangeError, cosine_similarity_score, fuse_scores
from asrrl.seeding import substream

def _read_csv(path) -> list[dict]:
    with open(path, "r", encoding="utf-8", newline="") as fh:
        return list(csv.DictReader(fh))


def _tiny_spec(tmp_path, corpus, **over):
    kw = dict(hidden=8, rollout_batch=16, train_iters=2,
              seed=corpus.meta["seed"])
    kw.update(over)
    cfg = RLConfig(d_e=corpus.meta["d_e"], d_t=corpus.meta["d_t"],
                   k=corpus.meta["k"], **kw)
    return ExperimentSpec(config=cfg, scenario="ss" if corpus.meta["k"] == 1
                          else "fs", run_id="t", out_dir=tmp_path)


@pytest.fixture()
def corpus(tmp_path):
    return gen_corpus(7, 8, 1, 4, 3, 2, tmp_path / "c.tsv")


# -- corpus ----------------------------------------------------------------

def test_gen_corpus_deterministic_bytes(tmp_path):
    p1, p2 = tmp_path / "a.tsv", tmp_path / "b.tsv"
    gen_corpus(3, 5, 2, 4, 3, 2, p1)
    gen_corpus(3, 5, 2, 4, 3, 2, p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_gen_corpus_refuses_overwrite(tmp_path):
    path = tmp_path / "c.tsv"
    gen_corpus(3, 2, 1, 2, 2, 1, path)
    with pytest.raises(FileExistsError):
        gen_corpus(3, 2, 1, 2, 2, 1, path)
    gen_corpus(4, 2, 1, 2, 2, 1, path, force=True)  # --force path


def test_gen_corpus_count_contract(tmp_path):
    c = gen_corpus(0, 10, 3, 4, 3, 2, tmp_path / "c.tsv")
    assert len(c.profiles) == 10
    assert all(p.refs.shape == (3, 4) for p in c.profiles)
    assert all(t.shape == (2, 3) for t in c.texts)


def test_gen_corpus_validates_sizes(tmp_path):
    with pytest.raises(ConfigError):
        gen_corpus(0, 0, 1, 2, 2, 1, tmp_path / "c.tsv")
    # a reference spread that is not finite and >= 0 fails before any file
    for sigma_ref in (math.nan, math.inf, -0.01):
        with pytest.raises(ConfigError, match="sigma_ref"):
            gen_corpus(0, 2, 1, 2, 2, 1, tmp_path / "c.tsv", sigma_ref=sigma_ref)
    assert not (tmp_path / "c.tsv").exists()
    gen_corpus(0, 2, 1, 2, 2, 1, tmp_path / "c.tsv", sigma_ref=0.0)


def test_gen_corpus_rejects_seeds_that_are_not_nonnegative_integers(tmp_path):
    for seed in (-1, 1.5, 2.0, "3", None, True):
        with pytest.raises(ConfigError, match="seed"):
            gen_corpus(seed, 2, 1, 2, 2, 1, tmp_path / "c.tsv")
    assert not (tmp_path / "c.tsv").exists()
    assert gen_corpus(np.int64(3), 2, 1, 2, 2, 1, tmp_path / "c.tsv").meta["seed"] == 3


def test_gen_corpus_writes_numpy_numbers_as_python_ones(tmp_path):
    """A np.float64 spread used to be written as sigma_ref=np.float64(0.05),
    a header load_corpus refuses."""
    want = gen_corpus(1, 3, 1, 2, 2, 1, tmp_path / "py.tsv", sigma_ref=0.05)
    gen_corpus(np.int64(1), np.int64(3), 1, np.int64(2), 2, 1, tmp_path / "np.tsv",
               sigma_ref=np.float64(0.05))
    assert (tmp_path / "np.tsv").read_bytes() == (tmp_path / "py.tsv").read_bytes()
    assert load_corpus(tmp_path / "np.tsv").meta == want.meta


def test_gen_corpus_rejects_a_spread_past_the_float_range(tmp_path):
    """(sigma_star² + sigma_ref²)·d_e above 1e300 is a ConfigError naming
    sigma_ref and its value, before any file is written or refused; at
    1e160 the environment used to raise OverflowError."""
    path = tmp_path / "c.tsv"
    edge = math.sqrt(1e300 / 3)
    for sigma_ref in (1e160, edge * 1.001):
        with pytest.raises(ConfigError, match=re.escape(
                f"sigma_ref={sigma_ref!r} is too large at d_e=3: (sigma_star**2 "
                f"+ sigma_ref**2) * d_e must be at most 1e+300")):
            gen_corpus(1, 6, 1, 3, 4, 1, path, sigma_ref=sigma_ref)
    assert not path.exists()
    gen_corpus(1, 6, 1, 3, 4, 1, path, sigma_ref=edge * 0.999)
    with pytest.raises(ConfigError, match="sigma_ref=1e"):
        gen_corpus(1, 6, 1, 3, 4, 1, path, sigma_ref=1e160)  # checked before the file


@pytest.mark.parametrize("key", ["sigma_ref", "sigma_star"])
def test_load_corpus_rejects_a_header_spread_past_the_float_range(tmp_path, corpus, key):
    path = tmp_path / "c.tsv"
    header, rest = path.read_text().split("\n", 1)
    path.write_text(re.sub(f"{key}=\\S+", f"{key}=1e200", header) + "\n" + rest)
    with pytest.raises(ConfigError) as exc:
        load_corpus(path)
    assert str(exc.value) == (f"{path}:1: header {key}=1e+200 is too large at d_e=4: "
                              f"(sigma_star**2 + sigma_ref**2) * d_e must be at most 1e+300")


def test_reference_spread_matches_chi_moment(tmp_path):
    c = gen_corpus(1, 1000, 1, 6, 2, 1, tmp_path / "c.tsv", sigma_ref=0.05)
    dists = [np.linalg.norm(p.refs[0] - p.true_embedding) for p in c.profiles]
    expected = 0.05 * np.sqrt(6)
    assert abs(np.mean(dists) - expected) / expected <= 0.2


def test_load_corpus_roundtrip(tmp_path, corpus):
    back = load_corpus(tmp_path / "c.tsv")
    assert back.meta == corpus.meta
    for a, b in zip(back.profiles, corpus.profiles):
        assert a.speaker_id == b.speaker_id
        np.testing.assert_array_equal(a.true_embedding, b.true_embedding)
        np.testing.assert_array_equal(a.refs, b.refs)
        np.testing.assert_array_equal(a.target_voiceprint, b.target_voiceprint)
    for a, b in zip(back.texts, corpus.texts):
        np.testing.assert_array_equal(a, b)


def test_corpus_header_rebuilds_the_generating_env(tmp_path, monkeypatch):
    built = []

    def recording_env(*args, **kwargs):
        built.append(SyntheticVoiceEnv(*args, **kwargs))
        return built[-1]

    monkeypatch.setattr(harness, "SyntheticVoiceEnv", recording_env)
    gen_corpus(5, 4, 1, 3, 2, 2, tmp_path / "h.tsv", sigma_ref=0.03)
    monkeypatch.undo()
    assert len(built) == 1
    corpus = load_corpus(tmp_path / "h.tsv")
    env, _, _ = build_env(_tiny_spec(tmp_path, corpus), corpus)
    for name in ("W1", "W2", "b", "V", "E_post", "mu", "f_t_cal", "r_shell"):
        want = np.asarray(getattr(built[0], name))
        got = np.asarray(getattr(env, name))
        assert got.shape == want.shape and got.tobytes() == want.tobytes(), name


def test_load_corpus_rejects_bad_header(tmp_path):
    bad = tmp_path / "bad.tsv"
    bad.write_text("NOT-A-CORPUS v1 d_e=2\n")
    with pytest.raises(ConfigError):
        load_corpus(bad)
    bad.write_text("ASRRL-CORPUS v1 d_e=2 bogus=3\n")
    with pytest.raises(ConfigError, match="bogus"):
        load_corpus(bad)
    bad.write_text("ASRRL-CORPUS v1 d_e=2\n")
    with pytest.raises(ConfigError, match="missing"):
        load_corpus(bad)


def test_load_corpus_checks_record_count(tmp_path, corpus):
    path = tmp_path / "c.tsv"
    lines = path.read_text().splitlines(keepends=True)
    path.write_text("".join(lines[:-1]))
    with pytest.raises(ConfigError, match="records"):
        load_corpus(path)


def _one_short(field, i=0):
    """A record field with its vector i one value short."""
    vecs = field.split(";")
    vecs[i] = vecs[i].rsplit(",", 1)[0]
    return ";".join(vecs)


# (edit of a record's fields, what the ConfigError names after path:line)
CORRUPT_RECORDS = [
    (lambda f: f[:1] + [_one_short(f[1])] + f[2:], "e_star"),
    (lambda f: f[:2] + [_one_short(f[2])] + f[3:], "refs"),
    (lambda f: f[:2] + [f[2] + ";" + f[2]] + f[3:], "refs"),
    (lambda f: f[:3] + [_one_short(f[3])] + f[4:], "voiceprint"),
    (lambda f: f[:4] + [_one_short(f[4], -1)], "texts"),
    (lambda f: f[:4] + [f[4].rsplit(";", 1)[0]], "texts"),
    (lambda f: f[:4], "4 fields"),
    (lambda f: f[:1] + [f[1].replace(",", ",x", 1)] + f[2:], "e_star"),
    (lambda f: ["two"] + f[1:], "speaker id"),
    # non-finite values parse as floats but are no embedding or text
    (lambda f: f[:1] + ["nan," + f[1].split(",", 1)[1]] + f[2:],
     "e_star vector 0 is not finite"),
    (lambda f: f[:3] + ["inf," + f[3].split(",", 1)[1]] + f[4:],
     "voiceprint vector 0 is not finite"),
    (lambda f: f[:2] + [f[2].rsplit(",", 1)[0] + ",-1e999"] + f[3:],
     "refs vector 0 is not finite"),
    (lambda f: f[:4] + [f[4].rsplit(",", 1)[0] + ",-inf"],
     "texts vector 1 is not finite"),
    # a second speaker 0 would merge two speakers' rows
    (lambda f: ["0"] + f[1:], "speaker id 0 at record 2"),
]
# (edit of the header line, what the ConfigError names after path:1)
CORRUPT_HEADERS = [(lambda f: [f[0] + " d_e=4"], "header key 'd_e' repeated")]


def _corrupt(path, edit, lineno=4):
    """Rewrite the record on line lineno (speaker 2) with edit."""
    lines = path.read_text().split("\n")
    lines[lineno - 1] = "\t".join(edit(lines[lineno - 1].split("\t")))
    path.write_text("\n".join(lines))


@pytest.mark.parametrize("edit,field", CORRUPT_RECORDS + CORRUPT_HEADERS)
def test_load_corpus_names_line_and_field(tmp_path, corpus, edit, field):
    path = tmp_path / "c.tsv"
    lineno = 1 if (edit, field) in CORRUPT_HEADERS else 4
    _corrupt(path, edit, lineno)
    with pytest.raises(ConfigError, match=f"c.tsv:{lineno}: {field}"):
        load_corpus(path)


# A record's vector fields in the corpus fixture's shapes (d_e=4, k=1,
# d_v=8, two texts of d_t=3), then {field index: replacement} with the full
# ConfigError text after path:line. Each pins the parser's order: the first
# bad vector in field order, and in a vector its count, then its numbers,
# then their finiteness.
GOOD_FIELDS = ["0.1,0.2,0.3,0.4", "0.5,0.6,0.7,0.8", ",".join(["0.25"] * 8), "1,2,3;4,5,6"]
PARSER_PARITY = [
    # two faults: the earlier field's vector wins, whatever the faults are
    ({1: "0.5,x,0.7,0.8", 3: "1,2;4,5,6"}, "refs vector 0 is not numeric: '0.5,x,0.7,0.8'"),
    ({0: "0.1,0.2,0.3,inf", 2: "0.25"}, "e_star vector 0 is not finite: '0.1,0.2,0.3,inf'"),
    ({3: "1,2,3;4,5"}, "texts vector 1 has 2 values, header says 3"),
    # compensating counts: one vector a value short, the next a value long
    ({3: "1,2;3,4,5,6"}, "texts vector 0 has 2 values, header says 3"),
    ({1: "0.5,0.6,0.7,0.8;0.9"}, "refs has 2 vectors, header says 1"),
    # a trailing comma and an empty value
    ({0: "0.1,0.2,0.3,0.4,"}, "e_star vector 0 has 5 values, header says 4"),
    ({0: "0.1,,0.3,0.4"}, "e_star vector 0 is not numeric: '0.1,,0.3,0.4'"),
    ({3: "1,2,3;"}, "texts vector 1 has 1 values, header says 3"),
    # a non-numeric value after a non-finite one: in one vector the numbers
    # are checked first, across vectors the earlier vector wins
    ({3: "1,inf,x;4,5,6"}, "texts vector 0 is not numeric: '1,inf,x'"),
    ({3: "1,nan,3;4,x,6"}, "texts vector 0 is not finite: '1,nan,3'"),
    ({2: "0,0,0,0,0,0,0,-inf", 3: "1,x,3;4,5,6"},
     "voiceprint vector 0 is not finite: '0,0,0,0,0,0,0,-inf'"),
]


def _write_record(path, fields):
    """Replace the vector fields of the record on line 4 (speaker 2)."""
    _corrupt(path, lambda f: f[:1] + fields)


@pytest.mark.parametrize("edits,text", PARSER_PARITY)
def test_load_corpus_error_text_names_the_first_bad_vector(tmp_path, corpus, edits, text):
    path = tmp_path / "c.tsv"
    fields = list(GOOD_FIELDS)
    _write_record(path, fields)
    load_corpus(path)
    for i, value in edits.items():
        fields[i] = value
    _write_record(path, fields)
    with pytest.raises(ConfigError) as exc:
        load_corpus(path)
    assert str(exc.value) == f"{path}:4: {text}"


def test_load_corpus_parses_values_as_float_does(tmp_path, corpus):
    """Every spelling float() accepts loads with float()'s bits."""
    path = tmp_path / "c.tsv"
    fields = ["1_0, 1.0,1E-3,-0.0", "2.5e-3 ,1_000.5,+7,.5",
              ",".join(["1e-320"] * 7 + ["-3.25E+2"]), "1,2,3;4,5,6"]
    _write_record(path, fields)
    c = load_corpus(path)
    got = [c.profiles[2].true_embedding, c.profiles[2].refs[0],
           c.profiles[2].target_voiceprint, c.texts[2].ravel()]
    for g, field in zip(got, fields):
        want = np.array([float(x) for x in field.replace(";", ",").split(",")])
        assert g.tobytes() == want.tobytes(), field


def test_split_takes_tail_for_eval(corpus):
    train_idx, eval_idx = corpus.split(0.25)
    assert train_idx == [0, 1, 2, 3, 4, 5] and eval_idx == [6, 7]
    with pytest.raises(ConfigError, match="1.0 leaves no training speakers"):
        corpus.split(1.0)
    assert corpus.split(0.0) == (list(range(7)), [7])


@pytest.mark.parametrize("eval_frac", [float("nan"), float("inf"), -float("inf"), -0.5])
def test_split_rejects_fractions_that_are_not_finite_and_nonnegative(eval_frac):
    with pytest.raises(ConfigError, match=re.escape(f"got {eval_frac!r}")):
        harness.split_speakers(8, eval_frac)


# -- build_env -------------------------------------------------------------

def test_build_env_checks_dims_and_k(tmp_path, corpus):
    spec = _tiny_spec(tmp_path, corpus)
    spec = replace(spec, config=spec.config.with_overrides(d_e=9))
    with pytest.raises(ConfigError, match="d_e"):
        build_env(spec, corpus)
    fs = replace(_tiny_spec(tmp_path, corpus), scenario="fs")
    with pytest.raises(ConfigError, match="k >= 2"):
        build_env(fs, corpus)


def test_build_env_names_both_k_of_an_fs_mismatch(tmp_path):
    """FS fuses the corpus's k references, so a config of another k is a
    ConfigError naming both; SS ignores the config's k."""
    corpus = gen_corpus(3, 5, 2, 4, 3, 2, tmp_path / "k2.tsv")
    fs = _tiny_spec(tmp_path, corpus)
    assert fs.scenario == "fs"
    for k in (3, 5):
        spec = replace(fs, config=fs.config.with_overrides(k=k))
        with pytest.raises(ConfigError, match=f"k=2 .*k={k}"):
            build_env(spec, corpus)
    ss_corpus = gen_corpus(3, 5, 1, 4, 3, 2, tmp_path / "k1.tsv")
    ss = _tiny_spec(tmp_path, ss_corpus)
    build_env(replace(ss, config=ss.config.with_overrides(k=3)), ss_corpus)


def test_build_env_requires_corpus_for_voice(tmp_path, corpus):
    with pytest.raises(ConfigError):
        build_env(_tiny_spec(tmp_path, corpus), None)


# -- training --------------------------------------------------------------

def test_train_writes_outputs_and_checkpoint_roundtrips(tmp_path, corpus):
    spec = _tiny_spec(tmp_path, corpus)
    policy, rows = train(spec, corpus)
    run_dir = tmp_path / "t"
    assert (run_dir / "train.csv").exists()
    assert (run_dir / "checkpoint.json").exists()
    assert rows and set(rows[0]) == set(harness.RUN_COLUMNS)
    result = evaluate_checkpoint(run_dir / "checkpoint.json",
                                 tmp_path / "c.tsv", spec=spec)
    direct = evaluate(policy, spec, corpus)
    assert result.summary() == direct.summary()


def test_run_episode_scores_each_state_once(corpus, monkeypatch):
    spec = _tiny_spec(None, corpus)
    env, profiles, texts = build_env(spec, corpus)
    policy = PolicyNetwork(env.layout, "ss", k=1, hidden=8,
                           rng=substream(0, "policy-init"))
    calls = []
    score_rows = env.score_rows
    monkeypatch.setattr(env, "score_rows",
                        lambda *a: calls.append(1) or score_rows(*a))
    ep = harness.run_episode(env, policy, profiles[0], texts[0][0],
                             rng=substream(0, "rollout"))
    # one score at the start, one per step
    assert len(calls) == 1 + spec.step_budget
    assert ep["rewards"].shape == (spec.step_budget,)
    assert ep["final_fused"] == fuse_scores(ep["final_scores"], env.weights)
    assert ep["rewards"].sum() == pytest.approx(
        ep["final_fused"] - ep["initial_fused"], abs=1e-12)


@pytest.mark.parametrize("n", [1, 86])
def test_train_takes_one_log_prob_pass_per_iteration(tmp_path, corpus, monkeypatch, n):
    """run_episode and run_episodes compute no log-probs. train makes one
    action_log_prob call per iteration, over the stacked (episodes, steps,
    action_dim) arrays; step t's log-probs keep the bits of a per-step call
    on that step's rows."""
    spec = _tiny_spec(tmp_path, corpus, rollout_batch=3 * n)
    env, profiles, texts = build_env(spec, corpus)
    policy = PolicyNetwork(env.layout, "ss", k=1, hidden=8,
                           rng=substream(0, "policy-init"))
    calls, batches = [], []
    real, update = harness.action_log_prob, harness.ppo_update
    monkeypatch.setattr(harness, "action_log_prob",
                        lambda p, raw, *a: calls.append(raw.shape) or real(p, raw, *a))
    monkeypatch.setattr(harness, "ppo_update", lambda p, batch, *rest: (
        batches.append((batch, p.flat.copy())) or update(p, batch, *rest)))
    steps, dim = spec.step_budget, policy.action_dim
    eps = harness.run_episode(env, policy, profiles[0], texts[0][0],
                              rng=substream(0, "rollout"))
    assert eps["means"].shape == eps["raws"].shape == (steps, dim)
    picks = substream(1, "picks").integers(len(profiles), size=n)
    eps = harness.run_episodes(
        env, policy, np.stack([profiles[i].refs for i in picks]),
        np.stack([profiles[i].target_voiceprint for i in picks]),
        np.stack([texts[i][0] for i in picks]),
        substream(1, "noise").standard_normal((n, steps, dim)))
    assert eps["means"].shape == (n, steps, dim) and eps["log_std"].shape == (dim,)
    assert calls == []
    policy, _ = train(spec, corpus, write_outputs=False)
    assert calls == [(n, steps, dim)] * spec.config.train_iters == [(n, steps, dim)] * 2
    for batch, flat in batches:
        policy.flat[:] = flat
        for t in range(steps):
            mean, log_std, _, _ = policy.forward(batch.states[:, t])
            want = real(policy, batch.raw_actions[:, t], mean, log_std)
            assert batch.log_probs[:, t].tobytes() == want.tobytes(), t


def _with_log_probs(policy, ep):
    """An episode of run_episode(s) with "log_probs" in place of "means" and
    "log_std": the one action_log_prob pass that train makes."""
    ep = dict(ep)
    ep["log_probs"] = action_log_prob(policy, ep["raws"], ep.pop("means"), ep.pop("log_std"))
    return ep


def _lockstep_case(case):
    """(env, policy, profiles, texts) with a policy whose mean moves."""
    rng = substream(5, "lockstep-case")
    if case == "tradeoff-ss":
        w = rng.standard_normal(4)
        env = TradeoffEnv(w / np.linalg.norm(w), 0.2, d_t=3, action_scale=0.1)
    else:
        layout = None
        if case == "ss-segments":
            layout = StateLayout(d_t=3, d_e=4, d_v=8, include_f_rv=True,
                                 include_e_s=True, include_f_sv=True)
        env = SyntheticVoiceEnv(d_e=4, d_t=3, seed=5, action_scale=0.05,
                                scenario=case[:2], layout=layout)
    k = 3 if env.scenario == "fs" else 1
    policy = PolicyNetwork(env.layout, env.scenario, k=k, hidden=8,
                           rng=substream(5, "policy-init"))
    policy.params["mean.W"] *= 100.0
    profiles = [env.make_profile(i, rng, k=k) for i in range(6)]
    return env, policy, profiles, rng.standard_normal((6, 3))


def _protocol_episode(env, policy, profile, f_t, *, rng=None, mode="sample"):
    """One episode played through env.reset / env.step / select_action,
    with run_episode's keys: an implementation independent of run_episodes."""
    state = env.reset(profile, f_t)
    sc0 = env.initial_fused
    steps = {k: [] for k in ("states", "raws", "log_probs", "rewards", "values")}
    done = False
    while not done:
        action, lp, value, raw = select_action(policy, state, rng=rng, mode=mode)
        tr = env.step(action)
        for key, x in zip(steps, (state, raw, lp, tr.reward, value)):
            steps[key].append(x)
        state, done = tr.next_state, tr.done
    return {**{k: np.array(v) for k, v in steps.items()},
            "initial_fused": sc0, "final_fused": tr.fused, "final_scores": tr.score}


class _VoiceprintSim:
    """A plug-in sim scorer: the built-in cosine score of the voiceprint."""

    kind = "sim"

    def __init__(self, env):
        self.env = env

    def score(self, speech, context):
        return cosine_similarity_score(self.env.V @ speech, context.target_voiceprint)


@pytest.mark.parametrize("mode", ["mode", "sample"])
@pytest.mark.parametrize("case", ["ss", "ss-segments", "fs", "tradeoff-ss", "ss-plugin"])
def test_run_episode_equals_the_reset_step_protocol_bitwise(case, mode):
    """run_episode plays bit for bit what reset/step/select_action play, on
    every key, and leaves the rng where select_action's draws leave it."""
    env, policy, profiles, F = _lockstep_case(case.replace("-plugin", ""))
    if case.endswith("plugin"):
        env.scorers = {"sim": _VoiceprintSim(env)}
    rewards = []
    for i, profile in enumerate(profiles):
        rngs = [substream(i, "noise"), substream(i, "noise")]
        got = _with_log_probs(policy, harness.run_episode(env, policy, profile, F[i],
                                                          rng=rngs[0], mode=mode))
        want = _protocol_episode(env, policy, profile, F[i], rng=rngs[1], mode=mode)
        assert got.keys() == want.keys()
        for key, w in want.items():
            g = got[key]
            if isinstance(w, np.ndarray):
                assert g.shape == w.shape and g.tobytes() == w.tobytes(), key
            else:
                assert type(g) is type(w) and g == w, key
        assert rngs[0].bit_generator.state == rngs[1].bit_generator.state
        rewards.extend(got["rewards"])
    assert np.ptp(rewards) > 0  # the moves are real


@pytest.mark.parametrize("case", ["ss", "ss-segments", "fs", "tradeoff-ss"])
def test_run_episodes_match_run_episode(case):
    """Lockstep rows, scored by the row kernel, equal one-episode play,
    scored by the scalar kernel, on the same draws; each row's rewards
    telescope (train's episodes go through run_episodes)."""
    env, policy, profiles, F = _lockstep_case(case)
    shape = (env.step_budget, policy.action_dim)
    noise = np.stack([substream(i, "noise").standard_normal(shape)
                      for i in range(len(profiles))])
    refs = np.stack([p.refs for p in profiles])
    targets = np.stack([p.target_voiceprint for p in profiles])
    eps = _with_log_probs(policy, harness.run_episodes(env, policy, refs, targets, F, noise))
    assert eps["states"].shape == (len(profiles), env.step_budget, env.layout.size)
    for i, profile in enumerate(profiles):
        ep = _with_log_probs(policy, harness.run_episode(env, policy, profile, F[i],
                                                         rng=substream(i, "noise")))
        for key in ("states", "raws", "log_probs", "rewards", "values"):
            np.testing.assert_allclose(eps[key][i], ep[key], rtol=0, atol=1e-12)
        for key in ("initial_fused", "final_fused"):
            assert abs(eps[key][i] - ep[key]) <= 1e-12
        for kind in ("sim", "mos", "intell"):
            assert abs(getattr(eps["final_scores"], kind)[i]
                       - getattr(ep["final_scores"], kind)) <= 1e-12
        net = eps["final_fused"][i] - eps["initial_fused"][i]
        assert abs(math.fsum(eps["rewards"][i]) - net) <= 1e-9
    # the moves are real: the embedding leaves its start
    assert np.ptp(eps["rewards"]) > 0


def test_train_draws_match_one_at_a_time_play(tmp_path, corpus, monkeypatch):
    """Each iteration makes three bulk draws from the rollout stream, in this
    order: speakers, texts, then every step's noise. Episode i plays what
    run_episode plays with noise[i] as its standard normal draws; the PPO
    batch holds one episode per row, in draw order, and the checkpoint saves
    the stream in the state it reached."""
    batches, snapshots = [], []
    update = harness.ppo_update

    def recording_update(policy, batch, *rest):
        batches.append(batch)
        snapshots.append(policy.flat.copy())
        return update(policy, batch, *rest)

    monkeypatch.setattr(harness, "ppo_update", recording_update)
    spec = _tiny_spec(tmp_path, corpus, train_iters=2)
    _, rows = train(spec, corpus)
    env, profiles, texts = build_env(spec, corpus)
    train_idx, _ = corpus.split(spec.eval_frac)
    policy = PolicyNetwork(env.layout, "ss", k=1, hidden=8)
    n, steps = 6, spec.step_budget  # ceil(rollout_batch 16 / 3 steps)

    class NoiseBlock:
        """Stand-in rng whose one standard normal draw is a given block."""

        def __init__(self, block):
            self.blocks = iter([block])

        def standard_normal(self, size):
            block = next(self.blocks)
            assert block.shape == size
            return block

    rng = substream(spec.config.seed, "rollout")
    for it, (batch, flat) in enumerate(zip(batches, snapshots)):
        speakers = rng.integers(len(train_idx), size=n)
        text_idx = rng.integers(texts[0].shape[0], size=n)
        noise = rng.standard_normal((n, steps, policy.action_dim))
        policy.flat[:] = flat
        played = []
        for i, row in enumerate(rows[it * n:(it + 1) * n]):
            si = train_idx[speakers[i]]
            ep = _with_log_probs(policy, harness.run_episode(
                env, policy, profiles[si], texts[si][text_idx[i]], rng=NoiseBlock(noise[i])))
            assert row["speaker"] == profiles[si].speaker_id
            assert abs(row["fused"] - ep["final_fused"]) <= 1e-12
            played.append(ep)
        for field, key in (("states", "states"), ("raw_actions", "raws"),
                           ("log_probs", "log_probs"), ("rewards", "rewards"),
                           ("values", "values")):
            np.testing.assert_allclose(getattr(batch, field),
                                       np.stack([ep[key] for ep in played]),
                                       rtol=0, atol=1e-12)
    _, _, step, saved = load_checkpoint(tmp_path / "t" / "checkpoint.json")
    assert step == len(rows) == 2 * n
    assert saved.bit_generator.state == rng.bit_generator.state


def test_train_rejects_out_of_range_scores(tmp_path, corpus, monkeypatch):
    """A score out of range or non-finite, from a plug-in or from the env's
    own scoring, at the first or a later step, raises ScoreRangeError."""
    class Plugin:
        kind = "sim"

        def __init__(self, value, after):
            self.value, self.after, self.calls = value, after, 0

        def score(self, speech, context):
            self.calls += 1
            return self.value if self.calls > self.after else 0.5

    def bad_internal_intell(env):
        triple_batch, calls = env._triple_batch, []

        def shifted(*args):
            calls.append(1)
            sim, mos, intell = triple_batch(*args)
            return sim, mos, intell + (2.0 if len(calls) > 2 else 0.0)

        env._triple_batch = shifted

    cases = [
        (lambda env: setattr(env, "scorers", {"sim": Plugin(1.5, 0)}), "sim score 1.5"),
        (lambda env: setattr(env, "scorers", {"sim": Plugin(float("nan"), 20)}),
         "sim score nan"),
        (bad_internal_intell, "intell score"),
    ]
    real = harness.build_env
    spec = _tiny_spec(tmp_path, corpus)
    for sabotage, match in cases:
        def sabotaged(*args):
            env, profiles, texts = real(*args)
            sabotage(env)
            return env, profiles, texts

        monkeypatch.setattr(harness, "build_env", sabotaged)
        with pytest.raises(ScoreRangeError, match=match):
            train(spec, corpus, write_outputs=False)


def test_zero_learning_rate_is_a_no_op(tmp_path, corpus):
    spec = _tiny_spec(tmp_path, corpus, learning_rate=1e-300)
    policy, _ = train(spec, corpus, write_outputs=False)
    env, _, _ = build_env(spec, corpus)
    fresh = PolicyNetwork(env.layout, "ss", k=1, hidden=8,
                          rng=substream(spec.config.seed, "policy-init"))
    for name, arr in fresh.params.items():
        np.testing.assert_allclose(policy.params[name], arr, atol=1e-12)


def test_divergence_guard_aborts(tmp_path, corpus, monkeypatch):
    real = harness.run_episodes

    def sabotaged(*args):
        eps = real(*args)
        eps["final_fused"] = eps["initial_fused"] - np.abs(eps["initial_fused"])
        return eps

    monkeypatch.setattr(harness, "run_episodes", sabotaged)
    spec = _tiny_spec(tmp_path, corpus, train_iters=30)
    with pytest.raises(DivergenceError, match="100 consecutive"):
        train(spec, corpus, write_outputs=False)


@pytest.mark.parametrize("start", [3, 6])
def test_divergence_streak_crosses_iterations(tmp_path, corpus, monkeypatch, start):
    """The streak runs over train's episodes in order, across iterations of
    6 episodes (rollout_batch 16, 3 steps): 99 diverged in a row do not
    abort and one good episode resets the count; the 100th aborts at that
    episode, quoting its fused and raw scores as the per-episode loop did.
    start 3 puts the streaks mid-iteration, start 6 at a boundary."""
    real, bad, seen = harness.run_episodes, set(), []

    def sabotaged(*args):
        eps = real(*args)
        init = eps["initial_fused"]
        lo = sum(len(f) for _, f in seen)
        at = lo + np.arange(len(init))
        eps["final_fused"] = np.where(np.isin(at, list(bad)),
                                      init - np.abs(init) - 1e-3 * at, init)
        seen.append((init, eps["final_fused"]))
        return eps

    monkeypatch.setattr(harness, "run_episodes", sabotaged)
    spec = _tiny_spec(tmp_path, corpus, train_iters=40)
    bad.update(range(start, start + 99), range(start + 100, start + 199))
    train(spec, corpus, write_outputs=False)
    assert len(seen) == 40
    bad.clear()
    seen.clear()
    bad.update(range(start, start + 100))
    with pytest.raises(DivergenceError) as exc:
        train(spec, corpus, write_outputs=False)
    last = start + 99
    assert len(seen) == last // 6 + 1  # no episode after the 100th ran
    init, final = (float(x[last % 6]) for x in seen[-1])
    assert str(exc.value) == (f"fused score below half the raw baseline for 100 "
                              f"consecutive episodes (last: {final:.4f} vs raw {init:.4f})")


# -- evaluation ------------------------------------------------------------

def test_evaluate_row_counts_and_summary_consistency(tmp_path, corpus):
    spec = _tiny_spec(tmp_path, corpus)
    policy, _ = train(spec, corpus, write_outputs=False)
    result = evaluate(policy, spec, corpus)
    _, eval_idx = corpus.split(spec.eval_frac)
    rl_rows = [r for r in result.rows if r["variant"] == "rl"]
    assert len(rl_rows) == len(eval_idx) * harness.EVAL_EPISODES
    # summary must be recomputable from the raw rows
    for srow in result.summary():
        sel = [r for r in result.rows if r["variant"] == srow["variant"]]
        assert srow["n"] == len(sel)
        assert abs(srow["fused_mean"]
                   - np.mean([r["fused"] for r in sel])) <= 1e-9


def _assert_rows_match_one_at_a_time_play(spec, corpus, policy, monkeypatch):
    """evaluate's rl rows against one-at-a-time mode play of every episode
    index, episode i on text i % n_texts: the same rows in the same order,
    every field but the scores equal, and the scores within 1e-12 (the
    lockstep forward and batch scorer round differently from one row).
    evaluate plays each speaker's m = min(n_texts, EVAL_EPISODES) distinct
    texts in one m-row call, and its row i equals its row i % m bit for bit
    in every field but the episode."""
    env, profiles, texts = build_env(spec, corpus)
    _, eval_idx = harness.split_speakers(len(profiles), spec.eval_frac)
    n = harness.EVAL_EPISODES
    m = min(len(texts[eval_idx[0]]), n)
    want = []
    for si in eval_idx:
        for ei in range(n):
            ep = harness.run_episode(env, policy, profiles[si],
                                     texts[si][ei % len(texts[si])], mode="mode")
            t = ep["final_scores"]
            want += harness._score_rows(spec, "rl", [ei], [profiles[si].speaker_id],
                                        [[t.sim, t.mos, t.intell, ep["final_fused"]]])
    real, played = harness.run_episodes, []
    with monkeypatch.context() as mp:
        mp.setattr(harness, "run_episodes", lambda *args: played.append(args[4]) or real(*args))
        rows = evaluate(policy, spec, corpus, variants=("rl",)).rows
    assert [F.shape for F in played] == [(m, env.d_t)] * len(eval_idx)
    for F, si in zip(played, eval_idx):
        np.testing.assert_array_equal(F, texts[si][:m])
    scores = ("sim", "mos", "intell", "fused")
    assert len(rows) == len(want)
    for i, got in enumerate(rows):
        first = rows[i - i % n + i % n % m]
        assert ({k: repr(v) for k, v in got.items() if k != "episode"}
                == {k: repr(v) for k, v in first.items() if k != "episode"})
    for got, w in zip(rows, want):
        assert list(got) == list(w)
        assert ({k: v for k, v in got.items() if k not in scores}
                == {k: v for k, v in w.items() if k not in scores})
        for k in scores:
            assert type(got[k]) is float and abs(got[k] - w[k]) <= 1e-12, k
    assert len({r["fused"] for r in rows}) > 1


@pytest.mark.parametrize("n_texts", [1, 2, 3, 4, 101])
@pytest.mark.parametrize("n", [1, 3, 7, 100])
def test_evaluate_rows_match_one_at_a_time_play(tmp_path, monkeypatch, n, n_texts):
    """run_episodes on n copies of a speaker's refs with its target
    broadcast, its texts cycled and zero noise, plays episode i within
    1e-12 of one-at-a-time mode play on text i % n_texts; at
    n = EVAL_EPISODES, evaluate's own rows match too. With one text that is
    one 1-row call per speaker and 100 equal rows; with 101 texts, episode
    i is on text i."""
    corpus = gen_corpus(9, 10, 1, 4, 3, n_texts, tmp_path / "c.tsv")
    spec = _tiny_spec(tmp_path, corpus)
    env, profiles, texts = build_env(spec, corpus)
    policy = PolicyNetwork(env.layout, "ss", k=1, hidden=8,
                           rng=substream(3, "policy-init"))
    policy.params["mean.W"] *= 100.0  # the mode action moves the embedding
    _, eval_idx = corpus.split(spec.eval_frac)
    for si in eval_idx:
        profile, spk_texts = profiles[si], texts[si]
        eps = harness.run_episodes(env, policy, np.repeat(profile.refs[None], n, 0),
                                   profile.target_voiceprint, np.resize(spk_texts, (n, env.d_t)),
                                   np.zeros((n, spec.step_budget, policy.action_dim)))
        assert eps["final_fused"].shape == (n,)
        for i in range(n):
            ep = harness.run_episode(env, policy, profile, spk_texts[i % n_texts], mode="mode")
            for key in ("initial_fused", "final_fused"):
                assert abs(eps[key][i] - ep[key]) <= 1e-12, key
            for kind in ("sim", "mos", "intell"):
                assert abs(getattr(eps["final_scores"], kind)[i]
                           - getattr(ep["final_scores"], kind)) <= 1e-12, kind
            np.testing.assert_allclose(eps["rewards"][i], ep["rewards"], rtol=0, atol=1e-12)
        assert np.ptp(eps["rewards"]) > 0  # the moves are real
    if n == harness.EVAL_EPISODES:
        _assert_rows_match_one_at_a_time_play(spec, corpus, policy, monkeypatch)


@pytest.mark.parametrize("case", ["fs-k3", "tradeoff"])
def test_evaluate_rows_match_one_at_a_time_play_in_fs_and_tradeoff(tmp_path, monkeypatch,
                                                                   case):
    if case == "fs-k3":
        corpus = gen_corpus(9, 10, 3, 4, 3, 3, tmp_path / "c.tsv")
        spec = _tiny_spec(tmp_path, corpus)
    else:
        corpus = None
        spec = ExperimentSpec(config=RLConfig(d_e=4, d_t=3, k=1, hidden=8, seed=3,
                                              action_scale=0.1),
                              env_kind="tradeoff")
    env, _, _ = build_env(spec, corpus)
    policy = PolicyNetwork(env.layout, spec.scenario, k=spec.config.k, hidden=8,
                           rng=substream(3, "policy-init"))
    policy.params["mean.W"] *= 100.0
    _assert_rows_match_one_at_a_time_play(spec, corpus, policy, monkeypatch)


def test_evaluate_rl_rewards_telescope_in_one_call_per_speaker(tmp_path, monkeypatch):
    """evaluate plays each evaluated speaker's distinct texts in one
    run_episodes call of min(n_texts, EVAL_EPISODES) rows, every episode's
    rewards sum to its net fused gain, and each speaker still gets
    EVAL_EPISODES rl rows."""
    n_texts = 3
    corpus = gen_corpus(9, 10, 1, 4, 3, n_texts, tmp_path / "c.tsv")
    spec = _tiny_spec(tmp_path, corpus)
    env, _, _ = build_env(spec, corpus)
    policy = PolicyNetwork(env.layout, "ss", k=1, hidden=8,
                           rng=substream(3, "policy-init"))
    policy.params["mean.W"] *= 100.0
    real, played = harness.run_episodes, []

    def checked(*args):
        eps = real(*args)
        played.append(eps)
        return eps

    monkeypatch.setattr(harness, "run_episodes", checked)
    rows = evaluate(policy, spec, corpus, variants=("rl", "raw")).rows
    _, eval_idx = corpus.split(spec.eval_frac)
    assert len(played) == len(eval_idx)
    m = min(n_texts, harness.EVAL_EPISODES)
    for eps in played:
        assert eps["rewards"].shape == (m, spec.step_budget)
        for i in range(m):
            net = eps["final_fused"][i] - eps["initial_fused"][i]
            assert abs(math.fsum(eps["rewards"][i]) - net) <= 1e-9
    assert np.ptp(np.concatenate([eps["rewards"] for eps in played])) > 0
    assert (sum(r["variant"] == "rl" for r in rows)
            == len(eval_idx) * harness.EVAL_EPISODES)


def test_evaluate_rejects_variants_it_cannot_play(tmp_path, corpus):
    spec = _tiny_spec(tmp_path, corpus)
    policy, _ = train(spec, corpus, write_outputs=False)
    with pytest.raises(ConfigError, match="'orcale'.*raw, finetune and oracle"):
        evaluate(policy, spec, corpus, variants=("orcale",))
    with pytest.raises(ConfigError, match="rl"):
        evaluate(None, spec, corpus)
    with pytest.raises(ConfigError, match="rl"):
        evaluate(None, spec, corpus, variants=("raw", "rl"))
    # raw and oracle need no policy
    result = evaluate(None, spec, corpus, variants=("raw",))
    assert result.variants() == ["raw"]
    with pytest.raises(ValueError, match="no 'rl' rows"):
        result.mean("rl", "fused")
    assert math.isfinite(result.mean("raw", "fused"))


def test_evaluate_rejects_unknown_split(tmp_path, corpus):
    spec = _tiny_spec(tmp_path, corpus)
    with pytest.raises(ConfigError, match="'evl'.*eval and train"):
        evaluate(None, spec, corpus, split="evl", variants=("raw",))
    for split, speakers in (("eval", {6, 7}), ("train", set(range(6)))):
        result = evaluate(None, spec, corpus, split=split, variants=("raw",))
        assert {r["speaker"] for r in result.rows} == speakers


def _held_out_case(tmp_path, env_kind):
    """(spec with eval_frac 0.3, corpus or None, speaker count) for an environment."""
    cfg = RLConfig(d_e=3, d_t=2, k=1, hidden=8, rollout_batch=64, train_iters=3,
                   action_scale=0.1, seed=5)
    corpus = None
    if env_kind == "voice":
        corpus = gen_corpus(5, 10, 1, 3, 2, 2, tmp_path / "c.tsv")
    spec = ExperimentSpec(config=cfg, env_kind=env_kind, eval_frac=0.3, run_id="h",
                          out_dir=tmp_path)
    return spec, corpus, len(corpus.profiles) if corpus else harness.TRADEOFF_SPEAKERS


@pytest.mark.parametrize("env_kind", ["voice", "tradeoff"])
def test_evaluate_holds_out_the_tail_speakers_in_either_environment(tmp_path, env_kind):
    spec, corpus, n = _held_out_case(tmp_path, env_kind)
    eval_spk, train_spk = (
        {r["speaker"] for r in evaluate(None, spec, corpus, split=split, variants=("raw",)).rows}
        for split in ("eval", "train"))
    assert not eval_spk & train_spk
    assert eval_spk | train_spk == set(range(n))
    assert eval_spk == set(range(n - round(n * 0.3), n))


@pytest.mark.parametrize("env_kind", ["voice", "tradeoff"])
def test_train_plays_only_training_speakers_in_either_environment(tmp_path, env_kind):
    spec, corpus, n = _held_out_case(tmp_path, env_kind)
    _, rows = train(spec, corpus, write_outputs=False)
    assert rows and {r["speaker"] for r in rows} <= set(range(n - round(n * 0.3)))


def test_evaluate_raw_fs_variant_scores_mean_init(tmp_path):
    corpus = gen_corpus(2, 6, 3, 4, 3, 2, tmp_path / "fs.tsv")
    spec = _tiny_spec(tmp_path, corpus)
    assert spec.scenario == "fs"
    result = evaluate(None, spec, corpus, variants=("raw",))
    env, profiles, texts = build_env(spec, corpus)
    _, eval_idx = corpus.split(spec.eval_frac)
    for r in result.rows:
        p = profiles[r["speaker"]]
        f_t = texts[r["speaker"]][r["episode"]]
        assert r["fused"] == pytest.approx(
            env.fused(f_t, mean_init(p.refs), p), abs=1e-12)


@pytest.mark.parametrize("refs", [1, 3], ids=["ss", "fs"])
def test_evaluate_finetune_rows_are_at_least_raw(tmp_path, refs):
    corpus = gen_corpus(2, 8, refs, 4, 3, 2, tmp_path / "c.tsv")
    spec = _tiny_spec(tmp_path, corpus)
    rows = evaluate(None, spec, corpus, variants=("raw", "finetune")).rows
    raw = {(r["speaker"], r["episode"]): r["fused"] for r in rows if r["variant"] == "raw"}
    ft = {(r["speaker"], r["episode"]): r["fused"] for r in rows
          if r["variant"] == "finetune"}
    _, eval_idx = corpus.split(spec.eval_frac)
    assert len(ft) == len(eval_idx) * corpus.meta["texts_per_speaker"]
    assert ft.keys() == raw.keys()
    assert all(ft[key] >= raw[key] for key in ft)
    assert any(ft[key] > raw[key] for key in ft)


def test_evaluate_finetune_row_scores_the_proxy_embedding(tmp_path, corpus):
    spec = _tiny_spec(tmp_path, corpus)
    env, profiles, texts = build_env(spec, corpus)
    rows = evaluate(None, spec, corpus, variants=("finetune",)).rows
    assert rows
    for r in rows:
        p = profiles[r["speaker"]]
        f_t = texts[r["speaker"]][r["episode"]]
        t = env.score_state(f_t, finetune_proxy(env, p, f_t)[0], p)
        assert [r] == harness._score_rows(spec, "finetune", [r["episode"]], [p.speaker_id],
                                          [[t.sim, t.mos, t.intell, fuse_scores(t, env.weights)]])


def test_evaluate_baseline_rows_come_raw_finetune_oracle(tmp_path, monkeypatch):
    """Each text's baseline rows come raw, finetune, oracle whatever the
    order of variants; the proxy and the oracle are looked up per call."""
    corpus = gen_corpus(5, 5, 1, 2, 3, 3, tmp_path / "c.tsv")
    spec = _tiny_spec(tmp_path, corpus)
    env, _, _ = build_env(spec, corpus)
    policy = PolicyNetwork(env.layout, "ss", k=1, hidden=8,
                           rng=substream(3, "policy-init"))
    proxy, zoom, calls = harness.finetune_proxy, harness.oracle_zoom, []
    monkeypatch.setattr(harness, "finetune_proxy", lambda *a, **kw: (
        calls.append("finetune") or proxy(*a, steps=50)))
    monkeypatch.setattr(harness, "oracle_zoom", lambda *a, **kw: (
        calls.append("oracle") or zoom(*a, **kw)))
    want = None
    for order in itertools.permutations(("raw", "finetune", "oracle", "rl")):
        calls.clear()
        rows = evaluate(policy, spec, corpus, variants=order).rows
        baseline = [(r["speaker"], r["episode"], r["variant"]) for r in rows
                    if r["variant"] != "rl"]
        assert baseline == [(4, t, v) for t in range(3)  # speaker 4 is held out
                            for v in ("raw", "finetune", "oracle")], order
        assert calls == ["finetune", "oracle"] * 3
        want = want or rows
        assert rows == want


def test_evaluate_checkpoint_rejects_wrong_corpus(tmp_path, corpus):
    spec = _tiny_spec(tmp_path, corpus)
    train(spec, corpus)
    other = gen_corpus(7, 4, 1, 5, 3, 2, tmp_path / "other.tsv")
    assert other.meta["d_e"] == 5
    with pytest.raises(ConfigError, match="d_e"):
        evaluate_checkpoint(tmp_path / "t" / "checkpoint.json",
                            tmp_path / "other.tsv")


def test_evaluate_rejects_a_policy_of_another_layout_of_equal_size(tmp_path):
    corpus = gen_corpus(4, 5, 1, 16, 8, 2, tmp_path / "c.tsv")
    spec = _tiny_spec(tmp_path, corpus)
    env, _, _ = build_env(spec, corpus)
    other = StateLayout(d_t=8, d_e=16, d_v=corpus.meta["d_v"],
                        include_f_t=False, include_f_rv=True)
    assert list(other.segment_dims()) == ["sep", "e", "f_rv"]
    assert other.size == env.layout.size == 25
    policy = PolicyNetwork(other, "ss", k=1, hidden=8, rng=substream(3, "policy-init"))
    with pytest.raises(ConfigError) as exc:
        evaluate(policy, spec, corpus)
    assert str(other) in str(exc.value) and str(env.layout) in str(exc.value)


def test_an_fs_policy_of_another_k_is_rejected_before_it_plays(tmp_path, capsys):
    """A k=3 FS checkpoint on a k=2 corpus of the same dimensions, from
    evaluate_checkpoint, evaluate and the CLI, is a ConfigError naming both k."""
    k3 = gen_corpus(6, 5, 3, 4, 3, 2, tmp_path / "k3.tsv")
    gen_corpus(6, 5, 2, 4, 3, 2, tmp_path / "k2.tsv")
    k2 = load_corpus(tmp_path / "k2.tsv")
    policy, _ = train(_tiny_spec(tmp_path, k3), k3)
    checkpoint = tmp_path / "t" / "checkpoint.json"
    with pytest.raises(ConfigError, match="k=2 .*k=3"):
        evaluate_checkpoint(checkpoint, tmp_path / "k2.tsv")
    with pytest.raises(ConfigError, match="k=3, .*k=2"):
        evaluate(policy, _tiny_spec(tmp_path, k2), k2)
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        cli.main(["eval", "--checkpoint", str(checkpoint),
                  "--corpus", str(tmp_path / "k2.tsv")])
    err = capsys.readouterr().err
    assert exc.value.code == 2 and "k=2" in err and "k=3" in err and "logits" not in err


@pytest.mark.parametrize("flags", [dict(include_f_rv=True),
                                   dict(include_f_t=False, include_f_rv=True)],
                         ids=["ft_sep_e_frv", "sep_e_frv"])
def test_evaluate_checkpoint_plays_the_checkpoint_layout(tmp_path, flags):
    corpus = gen_corpus(4, 5, 1, 16, 8, 2, tmp_path / "c.tsv")
    spec = replace(_tiny_spec(tmp_path, corpus), **flags)
    policy, _ = train(spec, corpus)
    result = evaluate_checkpoint(tmp_path / "t" / "checkpoint.json", tmp_path / "c.tsv")
    want = evaluate(policy, spec, corpus)
    assert result.rows == [{**r, "run_id": "run"} for r in want.rows]


# -- fine-tune proxy -------------------------------------------------------

def test_finetune_nonfinite_gradient_names_coordinate(tmp_path, corpus):
    spec = _tiny_spec(tmp_path, corpus)
    env, profiles, texts = build_env(spec, corpus)
    fused_batch = env.fused_batch

    def nan_at_backward_point_2(f_t, E, profile):
        sc = fused_batch(f_t, E, profile)
        sc[1 + env.d_e + 2] = np.nan  # rows: e, e + h*I, e - h*I
        return sc

    env.fused_batch = nan_at_backward_point_2
    with pytest.raises(FloatingPointError, match="coordinate 2"):
        finetune_proxy(env, profiles[0], texts[0][0], steps=1)


def _scalar_finetune(env, profile, f_t, steps, step_size=0.01, h=1e-4):
    """Reference: one scalar fused call per stencil point."""
    e = mean_init(profile.refs)
    best_e, best_sc = e.copy(), env.fused(f_t, e, profile)
    for _ in range(steps):
        grad = np.empty(e.shape[0])
        for i in range(e.shape[0]):
            ep, em = e.copy(), e.copy()
            ep[i] += h
            em[i] -= h
            grad[i] = (env.fused(f_t, ep, profile) - env.fused(f_t, em, profile)) / (2 * h)
        e = e + step_size * grad
        sc = env.fused(f_t, e, profile)
        if sc > best_sc:
            best_sc, best_e = sc, e.copy()
    return best_e, best_sc


def test_finetune_matches_scalar_reference_in_one_call_per_step(tmp_path, corpus):
    """fused_batch and fused differ by a few ulps (up to 2.2e-16), which a
    2h = 2e-4 difference quotient turns into ~1e-12 per gradient entry
    and a step of size 0.01 into ~1e-14 per coordinate. After 300 steps
    the gap measured at most 1e-13 in e and 7e-16 in the score; the
    bounds below leave 100x room."""
    spec = _tiny_spec(tmp_path, corpus)
    env, profiles, texts = build_env(spec, corpus)
    calls = {"fused": 0, "fused_batch": 0}
    for name in calls:
        real = getattr(env, name)

        def counted(*a, _real=real, _name=name):
            calls[_name] += 1
            return _real(*a)

        setattr(env, name, counted)
    for p, f_t in ((profiles[0], texts[0][0]), (profiles[5], texts[5][1])):
        for counter in calls:
            calls[counter] = 0
        e, sc = finetune_proxy(env, p, f_t, steps=300)
        assert calls == {"fused": 1, "fused_batch": 301}
        e_ref, sc_ref = _scalar_finetune(env, p, f_t, steps=300)
        assert np.max(np.abs(e - e_ref)) <= 1e-11
        assert abs(sc - sc_ref) <= 1e-13
        assert sc >= env.fused(f_t, mean_init(p.refs), p)


def test_finetune_validates_steps(tmp_path, corpus):
    spec = _tiny_spec(tmp_path, corpus)
    env, profiles, texts = build_env(spec, corpus)
    with pytest.raises(ConfigError):
        finetune_proxy(env, profiles[0], texts[0][0], steps=0)


# -- sweeps and ablations --------------------------------------------------

def test_sweep_refuses_duplicates_and_unknown_axis(tmp_path, corpus):
    spec = _tiny_spec(tmp_path, corpus)
    with pytest.raises(ConfigError, match="duplicate"):
        sweep(spec, "gamma", [0.3, 0.3], corpus)
    with pytest.raises(ConfigError, match="axis"):
        sweep(spec, "temperature", [1.0], corpus)
    with pytest.raises(ConfigError):
        sweep(spec, "gamma", [], corpus)
    # a fractional step budget would run as its floor under its own label
    with pytest.raises(ConfigError, match="whole number"):
        sweep(spec, "steps", [1.0, 1.5], corpus)
    assert not (tmp_path / "t").exists()


@pytest.mark.parametrize("axis", ["gamma", "lambda1"])
def test_sweep_emits_complete_csvs(tmp_path, corpus, axis):
    spec = _tiny_spec(tmp_path, corpus)
    long_rows, summary = sweep(spec, axis, [0.0, 0.9], corpus)
    assert {r["value"] for r in long_rows} == {0.0, 0.9}
    got = _read_csv(tmp_path / "t" / f"sweep_{axis}.csv")
    assert len(got) == len(long_rows)
    assert list(got[0]) == ["axis", "value"] + harness.RUN_COLUMNS
    assert (tmp_path / "t" / f"sweep_{axis}_summary.csv").exists()
    assert {s["value"] for s in summary} == {0.0, 0.9}
    # every cell is scored under spec.config's reward: the raw embeddings,
    # which no training moves, score the same in every cell, whatever the axis
    raw = {value: [(r["sim"], r["mos"], r["intell"], r["fused"]) for r in long_rows
                   if r["value"] == value and r["variant"] == "raw"] for value in (0.0, 0.9)}
    assert raw[0.0] and raw[0.0] == raw[0.9]


@pytest.mark.parametrize("command, error, code", [
    (["sweep", "--axis", "gamma", "--values", "0.3,0.6"], DivergenceError, 3),
    (["ablate", "--mode", "score_terms"], ConfigError, 2)], ids=["sweep", "ablate"])
def test_study_whose_second_cell_fails_writes_nothing(tmp_path, monkeypatch, command,
                                                      error, code):
    """The first failing cell, in cell order, reaches cli.main as its own
    type: no study CSV is created, and one that was there keeps its bytes."""
    corpus_path = tmp_path / "c.tsv"
    _cli("gen-data", "--seed", "3", "--speakers", "6", "--refs", "1",
         "--dim-e", "3", "--dim-t", "2", "--texts", "2", "--out", str(corpus_path))
    cfg_path = tmp_path / "cfg"
    cfg_path.write_text("train_iters=1\nrollout_batch=8\nhidden=4\n")
    trained, real_train = [], harness.train

    def fail_second(cell, corpus, **kw):
        trained.append(cell.run_id)
        if len(trained) == 2:
            raise error(f"cell {cell.run_id} failed")
        return real_train(cell, corpus, **kw)

    monkeypatch.setattr(harness, "train", fail_second)
    run_dir = tmp_path / "runs" / "s"
    outs = ([f"sweep_{command[2]}.csv", f"sweep_{command[2]}_summary.csv"]
            if command[0] == "sweep" else [f"ablate_{command[2]}.csv"])
    argv = command + ["--corpus", str(corpus_path), "--config", str(cfg_path),
                      "--out", str(tmp_path / "runs"), "--run-id", "s"]

    def run_and_fail():
        trained.clear()
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == code
        assert len(trained) == 2 and trained[0] != trained[1]  # the first cell trained

    run_and_fail()
    assert not [out for out in outs if (run_dir / out).exists()]
    run_dir.mkdir(parents=True, exist_ok=True)
    for out in outs:
        (run_dir / out).write_bytes(b"old,bytes\r\n")
    run_and_fail()
    assert [(run_dir / out).read_bytes() for out in outs] == [b"old,bytes\r\n"] * len(outs)


def test_ablate_score_terms_emits_four_variants(tmp_path):
    cfg = RLConfig(d_e=3, d_t=2, k=1, hidden=8, rollout_batch=8,
                   train_iters=1, action_scale=0.1, seed=0)
    spec = ExperimentSpec(config=cfg, scenario="ss", run_id="ab",
                          out_dir=tmp_path)
    rows = harness.ablate(spec, "score_terms", None)
    names = {r["ablation"] for r in rows}
    assert names == {"sim+mos+intell", "sim+intell", "sim+mos", "sim_only"}
    assert (tmp_path / "ab" / "ablate_score_terms.csv").exists()


def test_ablate_score_terms_trains_on_zeroed_lambdas_and_scores_under_the_spec(
        tmp_path, monkeypatch):
    """Each score_terms cell trains on spec.config with the lambdas that
    SCORE_TERM_VARIANTS names set to 0, and every cell's rows are evaluated,
    and fused, under spec.config itself."""
    cfg = RLConfig(d_e=3, d_t=2, k=1, hidden=8, rollout_batch=8, train_iters=1,
                   action_scale=0.1, seed=0, lambda1=0.7, lambda2=0.3)
    spec = ExperimentSpec(config=cfg, scenario="ss", run_id="ab", out_dir=tmp_path)
    trained, evaluated = {}, {}
    real_train, real_evaluate = harness.train, harness.evaluate

    def spy_train(point, corpus, **kw):
        trained[point.run_id] = point
        return real_train(point, corpus, **kw)

    def spy_evaluate(policy, point, corpus, **kw):
        evaluated[point.run_id] = point
        return real_evaluate(policy, point, corpus, **kw)

    monkeypatch.setattr(harness, "train", spy_train)
    monkeypatch.setattr(harness, "evaluate", spy_evaluate)
    rows = harness.ablate(spec, "score_terms", None)
    zeroed = {"sim+mos+intell": (0.7, 0.3), "sim+intell": (0.0, 0.3),
              "sim+mos": (0.7, 0.0), "sim_only": (0.0, 0.0)}
    assert list(trained) == list(evaluated) == [f"ab-{n}" for n in zeroed]
    for name, (l1, l2) in zeroed.items():
        point = trained[f"ab-{name}"]
        assert point.env_kind == "tradeoff"
        assert point.config == replace(cfg, lambda1=l1, lambda2=l2)
        assert evaluated[f"ab-{name}"] == replace(point, config=cfg)
    assert {r["ablation"] for r in rows} == set(zeroed)
    for r in rows:
        assert r["fused"] == r["sim"] + 0.7 * (r["mos"] / 5.0) - 0.3 * r["intell"]


def test_ablate_state_segments_covers_16_cells(tmp_path, corpus):
    spec = replace(_tiny_spec(tmp_path, corpus), run_id="seg")
    spec = replace(spec, config=spec.config.with_overrides(train_iters=1,
                                                           rollout_batch=8))
    rows = harness.ablate(spec, "state_segments", corpus)
    assert len({r["ablation"] for r in rows}) == 16


def test_ablate_unknown_mode(tmp_path, corpus):
    with pytest.raises(ConfigError):
        harness.ablate(_tiny_spec(tmp_path, corpus), "everything", corpus)


# -- CSV and config files --------------------------------------------------

def test_write_read_rows_roundtrip_with_quoting(tmp_path):
    rows = [{"a": "x,y", "b": 'say "hi"'}, {"a": "", "b": "plain"}]
    path = tmp_path / "r.csv"
    write_rows(path, rows, columns=["a", "b"])
    assert _read_csv(path) == rows


@pytest.mark.parametrize("case", ["run_columns", "extra_keys", "missing_key",
                                  "columns_none"])
def test_write_rows_bytes_equal_dictwriter(tmp_path, case):
    spec = ExperimentSpec(run_id='run "q", x')
    rows = harness._score_rows(spec, "rl", range(4), [3] * 4,
                               [[0.1 * i, 4.5, 1e-17, -0.0 if i else 1 / 3] for i in range(4)])
    columns = harness.RUN_COLUMNS
    if case == "extra_keys":
        rows = [{**r, "extra": "x,y", "note": None} for r in rows]
    elif case == "missing_key":
        rows = [{k: v for k, v in r.items() if k != "mos" or i % 2}
                for i, r in enumerate(rows)]
    elif case == "columns_none":
        columns = None
    path = tmp_path / "out.csv"
    write_rows(path, rows, columns=columns)
    want = io.StringIO(newline="")
    writer = csv.DictWriter(want, fieldnames=columns or list(rows[0]),
                            extrasaction="ignore")
    writer.writeheader()
    writer.writerows(rows)
    assert path.read_bytes() == want.getvalue().encode("utf-8")


@pytest.mark.parametrize("run_id", ['a,"b', "two\nlines", "plain"])
@pytest.mark.parametrize("case", ["ss", "ss-no-iterations", "fs"])
def test_train_csv_has_the_bytes_write_rows_writes(tmp_path, case, run_id):
    """train writes train.csv from its score arrays; the file has the bytes
    that write_rows writes for the rows train returns (header only without
    iterations), and those rows have RUN_COLUMNS as keys, in order, with
    str, int and float values."""
    corpus = gen_corpus(7, 8, 3 if case == "fs" else 1, 4, 3, 2, tmp_path / "c.tsv")
    iters = 0 if case == "ss-no-iterations" else 2
    spec = replace(_tiny_spec(tmp_path, corpus, train_iters=iters), run_id=run_id)
    _, rows = train(spec, corpus)
    write_rows(tmp_path / "want.csv", rows)
    assert (spec.run_dir / "train.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()
    assert len(rows) == iters * -(-16 // spec.step_budget)
    types = dict.fromkeys(harness.RUN_COLUMNS, float)
    types.update(run_id=str, scenario=str, steps=int, seed=int, episode=int,
                 speaker=int, variant=str)
    for i, r in enumerate(rows):
        assert list(r) == harness.RUN_COLUMNS
        assert {k: type(v) for k, v in r.items()} == types
        assert (r["run_id"], r["episode"], r["variant"]) == (run_id, i, "rl")
    if rows:
        assert _read_csv(spec.run_dir / "train.csv")[0]["run_id"] == run_id


def test_write_rows_whole_file_through_links_and_pipes(tmp_path):
    target = tmp_path / "real.csv"
    write_rows(target, [{"a": 1}])

    class Broken(dict):
        def get(self, *args):
            raise RuntimeError("row failed")

    # a row that fails mid-file leaves the previous file and no temporary
    with pytest.raises(RuntimeError, match="row failed"):
        write_rows(target, [{"a": 2}, Broken(a=3)])
    assert target.read_text() == "a\n1\n"
    link = tmp_path / "link.csv"
    link.symlink_to(target)
    write_rows(link, [{"a": 4}])
    assert link.is_symlink() and target.read_text() == "a\n4\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["link.csv", "real.csv"]
    # a pipe is written through, not replaced by a file
    fifo = tmp_path / "fifo"
    os.mkfifo(fifo)
    got = []
    reader = threading.Thread(target=lambda: got.append(fifo.read_text()),
                              daemon=True)
    reader.start()
    write_rows(fifo, [{"a": 5}])
    reader.join(timeout=10)
    assert not reader.is_alive() and got == ["a\n5\n"] and fifo.is_fifo()


def test_parse_config_file(tmp_path):
    path = tmp_path / "cfg"
    path.write_text("# comment\ngamma = 0.9  # inline\nhidden=32\n"
                    "encoder = segments\n\n")
    cfg = parse_config_file(path)
    assert cfg.gamma == 0.9 and cfg.hidden == 32 and cfg.encoder == "segments"


def test_parse_config_file_rejects_a_repeated_key_with_line(tmp_path):
    path = tmp_path / "cfg"
    path.write_text("# c\ngamma=0.3\nhidden=8\ngamma = 0.9\n")
    with pytest.raises(ConfigError, match=":4: key 'gamma' repeated"):
        parse_config_file(path)


def test_parse_config_file_rejects_unknown_key_with_line(tmp_path):
    path = tmp_path / "cfg"
    path.write_text("gamma=0.5\nwarp_drive=1\n")
    with pytest.raises(ConfigError, match=":2:"):
        parse_config_file(path)


def test_parse_config_file_rejects_invalid_value(tmp_path):
    path = tmp_path / "cfg"
    path.write_text("gamma=7\n")
    with pytest.raises(ConfigError):
        parse_config_file(path)
    # a value that does not parse is named with its line and key
    for text, where in (("hidden=8\ngamma=0.5x\n", ":2: gamma must be float, got '0.5x'"),
                        ("# c\n\nhidden=2.5\n", ":3: hidden must be int, got '2.5'"),
                        ("lambda1=nan\n", "lambda1=nan")):
        path.write_text(text)
        with pytest.raises(ConfigError, match=re.escape(where)):
            parse_config_file(path)


# -- CLI -------------------------------------------------------------------

def _cli(*argv):
    return cli.run(list(argv))


def test_cli_full_pipeline(tmp_path, capsys):
    corpus_path = tmp_path / "c.tsv"
    assert _cli("gen-data", "--seed", "7", "--speakers", "6", "--refs", "1",
                "--dim-e", "3", "--dim-t", "2", "--texts", "2",
                "--out", str(corpus_path)) == 0
    cfg_path = tmp_path / "cfg"
    cfg_path.write_text("train_iters=2\nrollout_batch=16\nhidden=8\n")
    assert _cli("train", "--corpus", str(corpus_path), "--out",
                str(tmp_path / "runs"), "--run-id", "r1",
                "--config", str(cfg_path)) == 0
    ck = tmp_path / "runs" / "r1" / "checkpoint.json"
    assert ck.exists()
    assert _cli("eval", "--checkpoint", str(ck), "--corpus",
                str(corpus_path), "--out", str(tmp_path / "eval.csv")) == 0
    assert (tmp_path / "eval.csv").exists()
    assert _cli("baseline", "--method", "raw", "--corpus", str(corpus_path),
                "--config", str(cfg_path)) == 0
    out = capsys.readouterr().out
    assert "raw" in out and "sim=" in out


def test_cli_fs_pipeline_takes_scenario_from_corpus(tmp_path, capsys):
    """A --refs 3 corpus trains, evaluates and baselines as FS with no
    scenario flag; the corpus decides, and --scenario is not an option."""
    corpus_path = tmp_path / "fs.tsv"
    assert _cli("gen-data", "--seed", "7", "--speakers", "6", "--refs", "3",
                "--dim-e", "3", "--dim-t", "2", "--texts", "2",
                "--out", str(corpus_path)) == 0
    cfg_path = tmp_path / "cfg"
    cfg_path.write_text("train_iters=2\nrollout_batch=16\nhidden=8\n")
    assert _cli("train", "--corpus", str(corpus_path), "--out",
                str(tmp_path / "runs"), "--run-id", "fs",
                "--config", str(cfg_path)) == 0
    ck = tmp_path / "runs" / "fs" / "checkpoint.json"
    assert load_checkpoint(ck)[0].scenario == "fs"
    assert _cli("eval", "--checkpoint", str(ck), "--corpus",
                str(corpus_path), "--out", str(tmp_path / "eval.csv")) == 0
    rows = _read_csv(tmp_path / "eval.csv")
    assert rows and {(r["scenario"], r["steps"]) for r in rows} == {("fs", "1")}
    assert _cli("baseline", "--method", "raw", "--corpus", str(corpus_path),
                "--config", str(cfg_path)) == 0
    assert "raw" in capsys.readouterr().out
    with pytest.raises(SystemExit) as exc:
        _cli("train", "--corpus", str(corpus_path), "--scenario", "fs")
    assert exc.value.code == 2


def test_cli_finetune_baseline_scores_every_eval_row(tmp_path, capsys):
    corpus_path = tmp_path / "c.tsv"
    assert _cli("gen-data", "--seed", "7", "--speakers", "10", "--refs", "1",
                "--dim-e", "3", "--dim-t", "2", "--texts", "3",
                "--out", str(corpus_path)) == 0
    capsys.readouterr()
    assert _cli("baseline", "--method", "finetune", "--corpus", str(corpus_path)) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 1
    assert re.match(r"\s*finetune  n=6 ", lines[0]), lines  # 2 eval speakers x 3 texts
    with pytest.raises(SystemExit) as exc:
        cli.main(["baseline", "--method", "finetune", "--corpus", str(corpus_path),
                  "--ft-steps", "10"])
    assert exc.value.code == 2


def test_cli_spreads_and_action_scales_past_the_float_range_exit_2(tmp_path, capsys):
    """A corpus spread or an action_scale at which squared norms overflow is
    a config error (2) with one stderr line naming it, no RuntimeWarning
    and no output; gen-data used to end in an OverflowError, and train and
    sweep in overflow warnings."""
    corpus_path, out = tmp_path / "c.tsv", tmp_path / "runs"

    def exits_2(argv, *names):
        capsys.readouterr()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(SystemExit) as exc:
                cli.main(argv)
        assert exc.value.code == 2, argv
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and all(n in err for n in names), err

    gen = ["gen-data", "--seed", "1", "--speakers", "6", "--refs", "1",
           "--dim-e", "3", "--dim-t", "4", "--out", str(corpus_path)]
    exits_2(gen + ["--sigma-ref", "1e160"], "sigma_ref=1e+160", "d_e=3")
    assert not corpus_path.exists()
    assert _cli(*gen) == 0
    good = corpus_path.read_text()
    bad = tmp_path / "bad.tsv"
    for key in ("sigma_ref", "sigma_star"):
        header, rest = good.split("\n", 1)
        bad.write_text(re.sub(f"{key}=\\S+", f"{key}=1e200", header) + "\n" + rest)
        for cmd in (["train"], ["baseline", "--method", "raw"]):
            exits_2(cmd + ["--corpus", str(bad), "--out", str(out)],
                    f"bad.tsv:1: header {key}=1e+200")
    cfg_path = tmp_path / "cfg"
    cfg_path.write_text("train_iters=1\nrollout_batch=8\nhidden=4\naction_scale=1e300\n")
    exits_2(["train", "--corpus", str(corpus_path), "--config", str(cfg_path),
             "--out", str(out)], "action_scale=1e+300", "steps_ss=3", "d_e=3")
    exits_2(["sweep", "--corpus", str(corpus_path), "--axis", "action_scale",
             "--values", "1e308", "--out", str(out)],
            "action_scale=1e+308", "steps_ss=3", "d_e=3")
    assert not out.exists()


def test_cli_config_file_is_checked_at_the_corpus_d_e(tmp_path, capsys):
    """A config file is validated once, with the corpus's d_e: on a d_e=3
    corpus, 3 * (3e149)**2 is within the 1e300 bound, and it used to be
    refused at the default d_e=16."""
    corpus_path, cfg_path = tmp_path / "c.tsv", tmp_path / "cfg"
    assert _cli("gen-data", "--seed", "1", "--speakers", "6", "--refs", "1",
                "--dim-e", "3", "--dim-t", "4", "--out", str(corpus_path)) == 0
    train = ["train", "--corpus", str(corpus_path), "--config", str(cfg_path),
             "--out", str(tmp_path / "runs")]
    cfg_path.write_text("train_iters=1\nrollout_batch=8\nhidden=4\naction_scale=1e149\n")
    assert _cli(*train) == 0
    cfg_path.write_text("train_iters=1\nrollout_batch=8\nhidden=4\naction_scale=3e149\n")
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        cli.main(train)
    assert exc.value.code == 2
    assert "action_scale=3e+149 is too large for steps_ss=3 moves at d_e=3:" in \
        capsys.readouterr().err


def test_cli_exit_codes(tmp_path, capsys):
    corpus_path = tmp_path / "c.tsv"
    _cli("gen-data", "--seed", "1", "--speakers", "3", "--refs", "1",
         "--dim-e", "2", "--dim-t", "2", "--out", str(corpus_path))
    # a non-finite or out-of-range setting is a config error (2) naming it
    for line in ("learning_rate=nan", "entropy_coef=nan", "value_coef=inf",
                 "lambda1=nan", "clip_epsilon=nan", "hidden=0",
                 "action_scale=nan", "train_iters=-1"):
        cfg_path = tmp_path / "bad.cfg"
        cfg_path.write_text(f"train_iters=1\nrollout_batch=8\nhidden=4\n{line}\n")
        capsys.readouterr()
        with pytest.raises(SystemExit) as exc:
            cli.main(["train", "--corpus", str(corpus_path), "--config", str(cfg_path),
                      "--out", str(tmp_path / "runs")])
        assert exc.value.code == 2, line
        assert line.split("=")[0] in capsys.readouterr().err, line
    # the corpus alone sets d_e, d_t and k: a config file that sets one is a
    # config error (2) naming the line and the key, even at the corpus's value
    for line in ("d_e=8", "d_t = 2", "k=3", "k=1"):
        cfg_path.write_text(f"train_iters=1\n{line}\n")
        capsys.readouterr()
        with pytest.raises(SystemExit) as exc:
            cli.main(["train", "--corpus", str(corpus_path), "--config", str(cfg_path),
                      "--out", str(tmp_path / "runs")])
        assert exc.value.code == 2, line
        key = line.split("=")[0].strip()
        assert (f"bad.cfg:2: {key} cannot be set here; the corpus sets it"
                in capsys.readouterr().err), line
    assert not (tmp_path / "runs").exists()
    # overwriting without --force is an I/O error (4)
    with pytest.raises(SystemExit) as exc:
        cli.main(["gen-data", "--seed", "1", "--speakers", "3", "--refs", "1",
                  "--dim-e", "2", "--dim-t", "2", "--out", str(corpus_path)])
    assert exc.value.code == 4
    # duplicate sweep values are a config error (2)
    with pytest.raises(SystemExit) as exc:
        cli.main(["sweep", "--corpus", str(corpus_path), "--axis", "gamma",
                  "--values", "0.3,0.3", "--out", str(tmp_path / "runs")])
    assert exc.value.code == 2
    # a fractional step budget is a config error (2)
    with pytest.raises(SystemExit) as exc:
        cli.main(["sweep", "--corpus", str(corpus_path), "--axis", "steps",
                  "--values", "1,1.5", "--out", str(tmp_path / "runs")])
    assert exc.value.code == 2
    # a malformed corpus record is a config error (2)
    for edit, _ in CORRUPT_RECORDS:
        bad = tmp_path / "bad.tsv"
        bad.write_text(corpus_path.read_text())
        _corrupt(bad, edit)
        with pytest.raises(SystemExit) as exc:
            cli.main(["train", "--corpus", str(bad), "--out", str(tmp_path / "runs")])
        assert exc.value.code == 2
    # a header value that does not parse, a non-finite or negative sigma, a
    # dimension or count below 1 or a negative seed is a config error (2)
    # naming path:1 and the key
    header, rest = corpus_path.read_text().split("\n", 1)
    for key, bad_value in (("sigma_star", "nan"), ("sigma_star", "-5.0"),
                           ("sigma_ref", "inf"), ("sigma_ref", "abc"), ("d_e", "abc"),
                           ("d_e", "2.5"), ("d_v", "-3"), ("k", "0"), ("seed", "-1")):
        bad = tmp_path / "bad.tsv"
        bad.write_text(re.sub(f"{key}=\\S+", f"{key}={bad_value}", header) + "\n" + rest)
        capsys.readouterr()
        with pytest.raises(SystemExit) as exc:
            cli.main(["train", "--corpus", str(bad), "--out", str(tmp_path / "runs")])
        assert exc.value.code == 2, (key, bad_value)
        assert f"bad.tsv:1: header {key}" in capsys.readouterr().err
    # missing corpus file (4)
    with pytest.raises(SystemExit) as exc:
        cli.main(["train", "--corpus", str(tmp_path / "absent.tsv")])
    assert exc.value.code == 4
    # missing, truncated or malformed checkpoint (4)
    truncated = tmp_path / "truncated.json"
    truncated.write_text('{"version": 1, "config": {"d_e"')
    not_object = tmp_path / "list.json"
    not_object.write_text("[1, 2]")
    version_only = tmp_path / "version_only.json"
    version_only.write_text('{"version": 1}')
    for ck in (tmp_path / "absent.json", truncated, not_object, version_only):
        with pytest.raises(SystemExit) as exc:
            cli.main(["eval", "--checkpoint", str(ck), "--corpus", str(corpus_path)])
        assert exc.value.code == 4, ck.name
    # so is a step that is not a JSON integer >= 0 or an rng that is not a string
    ck = tmp_path / "ck.json"
    save_checkpoint(PolicyNetwork(StateLayout(d_t=2, d_e=2), "ss", hidden=4), ck,
                    config=RLConfig(d_e=2, d_t=2, hidden=4))
    doc = json.loads(ck.read_text())
    for key, bad in (("step", 2.7), ("step", "5"), ("step", True), ("step", -3),
                     ("rng", []), ("rng", 0), ("rng", False)):
        ck.write_text(json.dumps({**doc, key: bad}))
        capsys.readouterr()
        with pytest.raises(SystemExit) as exc:
            cli.main(["eval", "--checkpoint", str(ck), "--corpus", str(corpus_path)])
        assert exc.value.code == 4, (key, bad)
        assert f"corrupt checkpoint {key} {bad!r}" in capsys.readouterr().err
    # and a config field of the wrong type, which eval would otherwise trip over
    # (this layout matches the corpus, so the intact checkpoint evaluates)
    save_checkpoint(PolicyNetwork(StateLayout(d_t=2, d_e=2, d_v=8), "ss", hidden=4), ck,
                    config=RLConfig(d_e=2, d_t=2, hidden=4))
    assert _cli("eval", "--checkpoint", str(ck), "--corpus", str(corpus_path)) == 0
    doc = json.loads(ck.read_text())
    ck.write_text(json.dumps({**doc, "config": {**doc["config"], "steps_ss": 3.0}}))
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        cli.main(["eval", "--checkpoint", str(ck), "--corpus", str(corpus_path)])
    assert exc.value.code == 4
    assert "steps_ss=3.0 (need int)" in capsys.readouterr().err


def test_cli_settings_too_large_for_memory_exit_2(tmp_path, capsys, monkeypatch):
    """numpy's MemoryError (here raised by a stand-in for train, with the
    text numpy gives for steps_ss=1000000000000) is one config error line,
    exit 2, and no traceback."""
    corpus_path = tmp_path / "c.tsv"
    _cli("gen-data", "--seed", "1", "--speakers", "6", "--refs", "1",
         "--dim-e", "3", "--dim-t", "2", "--out", str(corpus_path))
    text = ("Unable to allocate 21.8 TiB for an array with shape "
            "(1, 1000000000000, 3) and data type float64")

    def too_large(*args, **kwargs):
        raise MemoryError(text)

    monkeypatch.setattr(cli, "train", too_large)
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        cli.main(["train", "--corpus", str(corpus_path), "--out", str(tmp_path / "runs")])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err == f"config error: not enough memory for these settings: {text}\n"
    assert "Traceback" not in err


def test_cli_training_blowups_exit_3_and_a_nan_checkpoint_exits_4(tmp_path, capsys):
    corpus_path = tmp_path / "c.tsv"
    _cli("gen-data", "--seed", "1", "--speakers", "3", "--refs", "1",
         "--dim-e", "2", "--dim-t", "2", "--out", str(corpus_path))
    cfg_path = tmp_path / "run.cfg"
    train_argv = ["train", "--corpus", str(corpus_path), "--config", str(cfg_path),
                  "--out", str(tmp_path / "runs")]
    # a step size that overflows the next PPO epoch: one FloatingPointError
    # line, with no numpy warning before it, under Python's default filters
    cfg_path.write_text("train_iters=3\nrollout_batch=8\nhidden=4\nlearning_rate = 1e300\n")
    src = str(Path(harness.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-W", "default", "-m", "asrrl.cli", *train_argv],
                          env={**os.environ, "PYTHONPATH": src}, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 3, proc.stderr
    assert proc.stderr.count("\n") == 1, proc.stderr
    assert proc.stderr.startswith("divergence abort: PPO update epoch 2 of 4 at "
                                  "learning_rate=1e+300: overflow"), proc.stderr
    assert not (tmp_path / "runs").exists()
    # in process too, where the test run turns any RuntimeWarning into an error
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        cli.main(train_argv)
    assert exc.value.code == 3
    assert capsys.readouterr().err == proc.stderr
    # with one epoch the overflow first shows in the next iteration's
    # advantages, which run under the same errstate: one line again
    c6 = tmp_path / "c6.tsv"
    _cli("gen-data", "--seed", "1", "--speakers", "6", "--refs", "1",
         "--dim-e", "4", "--dim-t", "3", "--texts", "2", "--out", str(c6))
    cfg_path.write_text("learning_rate = 1e300\nupdate_epochs = 1\ntrain_iters = 5\n"
                        "rollout_batch = 12\nhidden = 8\n")
    proc = subprocess.run([sys.executable, "-W", "default", "-m", "asrrl.cli", "train",
                           "--corpus", str(c6), "--config", str(cfg_path),
                           "--out", str(tmp_path / "runs")],
                          env={**os.environ, "PYTHONPATH": src}, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 3, proc.stderr
    assert proc.stderr.count("\n") == 1, proc.stderr
    assert proc.stderr.startswith("divergence abort: advantages of iteration 2 of 5 at "
                                  "learning_rate=1e+300: overflow"), proc.stderr
    assert not (tmp_path / "runs").exists()
    # a rejected PPO batch
    cfg_path.write_text("train_iters=1\nrollout_batch=8\nhidden=4\n")

    def reject(*args):
        raise UpdateRejected("importance ratio exploded (max 2e+03 > 1e+03)")

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(harness, "ppo_update", reject)
        with pytest.raises(SystemExit) as exc:
            cli.main(train_argv)
    assert exc.value.code == 3
    assert "importance ratio exploded" in capsys.readouterr().err
    # a NaN parameter is refused at load (4) before any forward pass
    assert _cli(*train_argv) == 0
    checkpoint = tmp_path / "runs" / "run" / "checkpoint.json"
    doc = json.loads(checkpoint.read_text())
    doc["params"]["trunk.W"]["data"][3] = math.nan
    checkpoint.write_text(json.dumps(doc))
    with pytest.raises(SystemExit) as exc:
        cli.main(["eval", "--checkpoint", str(checkpoint), "--corpus", str(corpus_path)])
    assert exc.value.code == 4
    assert "parameter 'trunk.W' has non-finite values" in capsys.readouterr().err


def test_the_mlp_encoder_is_refused_everywhere(tmp_path, corpus, capsys):
    """The one encoder is "segments": "mlp" is a ValueError from RLConfig and
    PolicyNetwork, a ConfigError from a config file (CLI exit 2) and a
    CheckpointError from a checkpoint (CLI exit 4)."""
    with pytest.raises(ValueError, match="unknown encoder 'mlp'"):
        RLConfig(encoder="mlp").validate()
    with pytest.raises(ValueError, match="unknown encoder 'mlp'"):
        PolicyNetwork(StateLayout(d_t=2, d_e=2), "ss", encoder="mlp")
    cfg_path = tmp_path / "mlp.cfg"
    cfg_path.write_text("train_iters=1\nencoder = mlp\n")
    with pytest.raises(ConfigError, match="unknown encoder 'mlp'"):
        parse_config_file(cfg_path)
    corpus_path = tmp_path / "c.tsv"
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        cli.main(["train", "--corpus", str(corpus_path), "--config", str(cfg_path),
                  "--out", str(tmp_path / "runs")])
    assert exc.value.code == 2 and "unknown encoder 'mlp'" in capsys.readouterr().err
    assert not (tmp_path / "runs").exists()
    train(_tiny_spec(tmp_path, corpus), corpus)
    checkpoint = tmp_path / "t" / "checkpoint.json"
    doc = json.loads(checkpoint.read_text())
    doc["config"]["encoder"] = "mlp"
    checkpoint.write_text(json.dumps(doc))
    with pytest.raises(CheckpointError, match="unknown encoder 'mlp'"):
        load_checkpoint(checkpoint)
    with pytest.raises(SystemExit) as exc:
        cli.main(["eval", "--checkpoint", str(checkpoint), "--corpus", str(corpus_path)])
    assert exc.value.code == 4 and "unknown encoder 'mlp'" in capsys.readouterr().err


def test_cli_negative_seeds_and_bad_sweep_values_are_named(tmp_path, capsys):
    """A negative seed from gen-data, train or a config line, and a sweep
    value that is not a number, exit 2 naming the setting and the value."""
    corpus_path = tmp_path / "c.tsv"

    def exit_2(*argv):
        capsys.readouterr()
        with pytest.raises(SystemExit) as exc:
            cli.main(list(argv))
        assert exc.value.code == 2, argv
        return capsys.readouterr().err

    assert "seed must be a non-negative integer, got -1" in exit_2(
        "gen-data", "--seed", "-1", "--speakers", "3", "--refs", "1", "--dim-e", "2",
        "--dim-t", "2", "--out", str(corpus_path))
    assert not corpus_path.exists()
    _cli("gen-data", "--seed", "1", "--speakers", "3", "--refs", "1",
         "--dim-e", "2", "--dim-t", "2", "--out", str(corpus_path))
    runs = ["--corpus", str(corpus_path), "--out", str(tmp_path / "runs")]
    assert "seed=-1" in exit_2("train", "--seed", "-1", *runs)
    cfg_path = tmp_path / "bad.cfg"
    cfg_path.write_text("train_iters=1\nseed = -2\n")
    assert "seed=-2" in exit_2("train", "--config", str(cfg_path), *runs)
    err = exit_2("sweep", "--axis", "gamma", "--values", "0.1,abc", *runs)
    assert "--values" in err and "'abc'" in err
    assert not (tmp_path / "runs").exists()


def test_cli_config_lambdas_reach_the_reward(tmp_path):
    corpus_path = tmp_path / "c.tsv"
    _cli("gen-data", "--seed", "7", "--speakers", "6", "--refs", "1",
         "--dim-e", "3", "--dim-t", "2", "--texts", "2", "--out", str(corpus_path))
    cfg_path = tmp_path / "cfg"
    cfg_path.write_text("train_iters=1\nrollout_batch=16\nhidden=8\n"
                        "lambda1=0.0\nlambda2=0.2\n")
    assert _cli("train", "--corpus", str(corpus_path), "--out",
                str(tmp_path / "runs"), "--run-id", "r", "--config",
                str(cfg_path)) == 0
    assert _cli("eval", "--checkpoint", str(tmp_path / "runs" / "r" / "checkpoint.json"),
                "--corpus", str(corpus_path), "--out", str(tmp_path / "eval.csv")) == 0
    # library callers get the config lambdas too
    corpus = load_corpus(corpus_path)
    spec = ExperimentSpec(config=parse_config_file(cfg_path).with_overrides(
        d_e=3, d_t=2, k=1), run_id="lib", out_dir=tmp_path / "runs")
    policy, _ = train(spec, corpus)
    write_rows(tmp_path / "lib_eval.csv", evaluate(policy, spec, corpus).rows)
    for name in ("runs/r/train.csv", "eval.csv", "runs/lib/train.csv",
                 "lib_eval.csv"):
        rows = _read_csv(tmp_path / name)
        assert rows and any(float(r["mos"]) > 0 for r in rows)
        for r in rows:
            assert float(r["fused"]) == float(r["sim"]) - 0.2 * float(r["intell"])
    # each sweep point trains with its own lambda1 and is scored under the
    # base spec's lambdas: lambda1=0.0 from the config file, lambda2=0.1
    base = replace(spec, config=spec.config.with_overrides(lambda2=0.1))
    long_rows, _ = sweep(base, "lambda1", [0.0, 1.0], corpus)
    assert {r["value"] for r in long_rows} == {0.0, 1.0}
    for r in long_rows:
        assert r["fused"] == r["sim"] - 0.1 * r["intell"]
