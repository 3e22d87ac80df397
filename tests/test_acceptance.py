"""Acceptance criteria for the refinement-RL package.

Each test prints a PASS line with the measured quantities so a full run
doubles as an acceptance report:  pytest -v -s tests/test_acceptance.py
"""

import json
import socket
import threading
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from scipy import stats

from asrrl import cli
from asrrl.agent import ppo_loss_and_grads, select_action
from asrrl.core import FSAction, RLConfig, SSAction, fuse_fs, mean_init
from asrrl.env import SyntheticVoiceEnv, oracle_zoom
from asrrl.external_scorer import ExternalScorerClient
from asrrl.harness import (
    ExperimentSpec,
    SCORE_TERM_VARIANTS,
    build_env,
    evaluate,
    finetune_proxy,
    gen_corpus,
    run_episode,
    train,
    write_rows,
)
from asrrl.scoring import RewardWeights, ScoreTriple, ScorerFault, fuse_scores
from asrrl.seeding import substream

from test_agent import _batch, _policy
from test_harness import _read_csv


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("acceptance")


@pytest.fixture(scope="module")
def reference_corpus(workdir):
    # 40 train + 10 eval speakers at the reference dimensions
    return gen_corpus(11, 50, 1, 16, 8, 4, workdir / "reference.tsv",
                      sigma_ref=0.05)


def _spec(corpus, out_dir, **cfg_over):
    cfg = RLConfig(d_e=corpus.meta["d_e"], d_t=corpus.meta["d_t"],
                   k=corpus.meta["k"], **cfg_over)
    scenario = "ss" if corpus.meta["k"] == 1 else "fs"
    return ExperimentSpec(config=cfg, scenario=scenario, out_dir=out_dir)


def test_criterion_1_fused_score_exactness():
    assert abs(fuse_scores(ScoreTriple(0.42, 4.12, 0.25)) - 0.807) <= 1e-12
    assert abs(fuse_scores(ScoreTriple(1.0, 5.0, 0.0)) - 1.5) <= 1e-12
    assert abs(fuse_scores(ScoreTriple(0.0, 0.0, 1.0)) - (-0.1)) <= 1e-12
    print("\nPASS criterion 1: fused score arithmetic exact to 1e-12")


def test_criterion_2_reward_telescoping():
    t0 = time.monotonic()
    worst = 0.0
    for scenario, k in (("ss", 1), ("fs", 3)):
        env = SyntheticVoiceEnv(d_e=6, d_t=4, seed=17, scenario=scenario)
        rng = substream(17, "telescoping")
        for i in range(500):
            p = env.make_profile(i, rng, k=k)
            env.reset(p, rng.standard_normal(4))
            sc0 = env.initial_fused
            total, done = 0.0, False
            while not done:
                if scenario == "ss":
                    a = SSAction(np.tanh(rng.standard_normal(6)))
                else:
                    a = FSAction(rng.standard_normal(k))
                tr = env.step(a)
                total += tr.reward
                done = tr.done
            worst = max(worst, abs(total - (tr.fused - sc0)))
    elapsed = time.monotonic() - t0
    assert worst <= 1e-9
    assert elapsed < 10.0
    print(f"\nPASS criterion 2: 1000 episodes telescope, "
          f"worst residual {worst:.2e} in {elapsed:.1f}s")


def test_criterion_3_fs_degeneracies():
    rng = substream(23, "fs-degeneracies")
    ref = rng.standard_normal((1, 5))
    w, e = fuse_fs(ref, np.array([3.3]))
    assert w.tolist() == [1.0]
    np.testing.assert_array_equal(e, ref[0])
    refs = rng.standard_normal((4, 5))
    _, e = fuse_fs(refs, np.zeros(4))
    np.testing.assert_allclose(e, mean_init(refs), atol=1e-15)
    logits = rng.standard_normal((100_000, 6)) * 20
    z = logits - logits.max(axis=1, keepdims=True)
    ws = np.exp(z)
    ws /= ws.sum(axis=1, keepdims=True)
    assert np.max(np.abs(ws.sum(axis=1) - 1.0)) <= 1e-12
    assert ws.min() >= 0.0
    print("\nPASS criterion 3: k=1 identity, uniform=mean, "
          "10^5 fusion weights on the simplex")


def test_criterion_4_movement_certificate():
    env = SyntheticVoiceEnv(d_e=8, d_t=4, seed=29, scenario="ss")
    policy = _policy("ss", d_t=4, d_e=8, hidden=8)
    rng = substream(29, "movement")
    max_move = 0.0
    for i in range(100):
        p = env.make_profile(i, rng, k=1)
        state = env.reset(p, rng.standard_normal(4))
        steps = 0
        done = False
        while not done:
            e_before = env.embedding
            action, _, _, _ = select_action(policy, state, rng=rng)
            tr = env.step(action)
            max_move = max(max_move,
                           float(np.max(np.abs(env.embedding - e_before))))
            state, done = tr.next_state, tr.done
            steps += 1
        assert steps == 3
    fs_env = SyntheticVoiceEnv(d_e=8, d_t=4, seed=29, scenario="fs")
    p = fs_env.make_profile(0, rng, k=3)
    fs_env.reset(p, rng.standard_normal(4))
    assert fs_env.step(FSAction(rng.standard_normal(3))).done
    assert max_move <= 0.001 + 1e-15
    print(f"\nPASS criterion 4: max per-step movement {max_move:.6f} <= 0.001; "
          "episodes end at exactly 3 (SS) / 1 (FS) steps")


def test_criterion_5_gradient_check():
    t0 = time.monotonic()
    policy = _policy("ss", encoder="segments", hidden=4)
    n_params = policy.flat.size
    assert n_params <= 200
    batch = _batch(policy, n=24, seed=5)
    kw = dict(clip_epsilon=0.2, value_coef=0.5, entropy_coef=0.01)
    _, flat_grads, _ = ppo_loss_and_grads(policy, batch, **kw)
    grads = policy.views(flat_grads)
    h = 1e-6
    worst = 0.0
    for name, arr in policy.params.items():
        flat, g = arr.ravel(), grads[name].ravel()
        for i in range(flat.size):
            keep = flat[i]
            flat[i] = keep + h
            up, _, _ = ppo_loss_and_grads(policy, batch, **kw)
            flat[i] = keep - h
            dn, _, _ = ppo_loss_and_grads(policy, batch, **kw)
            flat[i] = keep
            fd = (up - dn) / (2 * h)
            worst = max(worst, abs(fd - g[i]) / max(abs(fd), abs(g[i]), 1e-8))
    elapsed = time.monotonic() - t0
    assert worst <= 1e-4
    assert elapsed < 30.0
    print(f"\nPASS criterion 5: analytic vs central-difference gradients on "
          f"{n_params} params, max rel err {worst:.2e} in {elapsed:.1f}s")


def test_criterion_6_learning_headroom(reference_corpus, workdir):
    seeds = range(5)
    sim_raw, sim_rl, fused_raw, fused_rl = [], [], [], []
    per_seed = []
    for seed in seeds:
        t0 = time.monotonic()
        spec = _spec(reference_corpus, workdir, seed=seed)
        policy, _ = train(spec, reference_corpus, write_outputs=False)
        res = evaluate(policy, spec, reference_corpus)
        raw_s = res.per_speaker_mean("raw", "sim")
        rl_s = res.per_speaker_mean("rl", "sim")
        raw_f = res.per_speaker_mean("raw", "fused")
        rl_f = res.per_speaker_mean("rl", "fused")
        for sp in sorted(raw_s):
            sim_raw.append(raw_s[sp])
            sim_rl.append(rl_s[sp])
            fused_raw.append(raw_f[sp])
            fused_rl.append(rl_f[sp])
        per_seed.append(time.monotonic() - t0)
        assert per_seed[-1] < 600.0  # 10-minute budget per seed
    gain = float(np.mean(sim_rl) - np.mean(sim_raw))
    test = stats.ttest_rel(fused_rl, fused_raw, alternative="greater")
    assert test.pvalue < 0.01
    assert gain >= 0.02
    print(f"\nPASS criterion 6: held-out sim gain {gain:.4f} >= 0.02, "
          f"fused paired p={test.pvalue:.2e} < 0.01 over 5 seeds "
          f"({max(per_seed):.0f}s/seed max)")


def test_criterion_7_oracle_sandwich(workdir):
    corpus = gen_corpus(21, 25, 1, 3, 4, 4, workdir / "low_dim.tsv",
                        sigma_ref=0.02)
    spec = _spec(corpus, workdir, seed=21)
    policy, _ = train(spec, corpus, write_outputs=False)
    res = evaluate(policy, spec, corpus, variants=("raw", "rl", "oracle"))
    raw = res.per_speaker_mean("raw", "fused")
    rl = res.per_speaker_mean("rl", "fused")
    orc = res.per_speaker_mean("oracle", "fused")
    slack = 1e-6  # grid resolution after zoom refinement
    for sp in sorted(raw):
        assert raw[sp] <= rl[sp] + 1e-9, f"speaker {sp}: raw above rl"
        assert rl[sp] <= orc[sp] + slack, f"speaker {sp}: rl above oracle"
    lo = min(rl[s] - raw[s] for s in raw)
    hi = min(orc[s] - rl[s] for s in raw)
    print(f"\nPASS criterion 7: raw <= rl <= oracle on all "
          f"{len(raw)} eval speakers (min margins {lo:.4f} / {hi:.4f})")


def test_criterion_8_finetune_proxy_parity(workdir):
    corpus = gen_corpus(31, 10, 1, 1, 4, 4, workdir / "one_dim.tsv",
                        sigma_ref=0.02)
    spec = _spec(corpus, workdir, seed=31)
    env, profiles, texts = build_env(spec, corpus)
    worst = 0.0
    for p in profiles:
        f_t = texts[p.speaker_id][0]
        e_ft, _ = finetune_proxy(env, p, f_t, steps=2000)
        lim = float(np.max(np.abs(p.refs))) + 0.2
        e_or, _ = oracle_zoom(env, p, f_t, -lim, lim, points=41)
        worst = max(worst, abs(float(e_ft[0]) - float(e_or[0])))
    assert worst <= 1e-3

    # RL-vs-finetune comparison CSV across reference counts
    rows = []
    for k in (2, 3, 5):
        ck = gen_corpus(31, 10, k, 4, 3, 2, workdir / f"k{k}.tsv")
        sp = _spec(ck, workdir, seed=31, train_iters=20, rollout_batch=64)
        pol, _ = train(sp, ck, write_outputs=False)
        res = evaluate(pol, sp, ck)
        envk, profs, txts = build_env(sp, ck)
        _, eval_idx = ck.split(sp.eval_frac)
        for si in eval_idx:
            _, ft_sc = finetune_proxy(envk, profs[si], txts[si][0], steps=200)
            rows.append({"k": k, "speaker": si,
                         "rl_fused": res.per_speaker_mean("rl", "fused")[si],
                         "finetune_fused": ft_sc})
    out = workdir / "rl_vs_finetune.csv"
    write_rows(out, rows, columns=["k", "speaker", "rl_fused",
                                   "finetune_fused"])
    assert len(_read_csv(out)) == len(rows) and len(rows) == 6
    print(f"\nPASS criterion 8: 2000-step proxy within {worst:.1e} of the "
          f"grid oracle; comparison CSV covers k in {{2,3,5}}")


def test_criterion_9_score_ablation_direction(workdir):
    d_sim, d_mos = [], []
    for seed in range(5):
        cfg = RLConfig(d_e=8, d_t=4, k=1, seed=seed, action_scale=0.1,
                       train_iters=120)
        spec = ExperimentSpec(config=cfg, scenario="ss", env_kind="tradeoff",
                              out_dir=workdir, run_id=f"abl{seed}")
        out = {}
        for name in ("sim+mos+intell", "sim_only"):
            zeroed = dict.fromkeys(SCORE_TERM_VARIANTS[name], 0.0)
            point = replace(spec, config=cfg.with_overrides(**zeroed),
                            run_id=f"abl{seed}-{name}")
            policy, _ = train(point, None, write_outputs=False)
            res = evaluate(policy, replace(point, config=cfg), None,
                           variants=("rl",))
            out[name] = (res.mean("rl", "sim"), res.mean("rl", "mos"))
        d_sim.append(out["sim_only"][0] - out["sim+mos+intell"][0])
        d_mos.append(out["sim+mos+intell"][1] - out["sim_only"][1])
    assert all(d >= 0.05 for d in d_sim), d_sim
    assert all(d >= 0.05 for d in d_mos), d_mos
    print(f"\nPASS criterion 9: sim-only raises sim by >= "
          f"{min(d_sim):.3f} and costs mos by >= {min(d_mos):.3f} "
          "across 5 seeds (margins >= 0.05)")


def test_criterion_10_sweep_axes(workdir):
    corpus_path = workdir / "sweep.tsv"
    gen_corpus(41, 10, 1, 4, 3, 2, corpus_path)
    cfg_path = workdir / "sweep.cfg"
    cfg_path.write_text("train_iters=10\nrollout_batch=32\nhidden=16\n")
    axes = {
        "gamma": "0,0.3,0.9,0.99",
        "action_scale": "1e-4,1e-3,1e-2,1e-1",
        "steps": "1,2,3,4,5",
    }
    for axis, values in axes.items():
        code = cli.run(["sweep", "--corpus", str(corpus_path),
                        "--out", str(workdir / "sweeps"), "--run-id", "sw",
                        "--config", str(cfg_path),
                        "--axis", axis, "--values", values])
        assert code == 0
        rows = _read_csv(workdir / "sweeps" / "sw" / f"sweep_{axis}.csv")
        got = {float(r["value"]) for r in rows}
        want = {float(v) for v in values.split(",")}
        assert got == want
        assert all(r["sim"] != "" and r["fused"] != "" for r in rows)
    print("\nPASS criterion 10: sweep command completes all three axes "
          "(4 gammas, 4 scales, 5 step budgets) with complete CSVs")


def test_criterion_11_determinism(workdir):
    a, b = workdir / "det_a.tsv", workdir / "det_b.tsv"
    gen_corpus(51, 6, 1, 4, 3, 2, a)
    corpus = gen_corpus(51, 6, 1, 4, 3, 2, b)
    assert a.read_bytes() == b.read_bytes()
    spec = _spec(corpus, workdir, seed=51, train_iters=5, rollout_batch=32,
                 hidden=16)
    spec = replace(spec, run_id="det")
    policy, _ = train(spec, corpus)
    s1 = evaluate(policy, spec, corpus).summary()
    s2 = evaluate(policy, spec, corpus).summary()
    assert s1 == s2
    ck = workdir / "det" / "checkpoint.json"
    from asrrl.agent import load_checkpoint, save_checkpoint
    loaded, cfg, step, rng = load_checkpoint(ck)
    for name, arr in policy.params.items():
        np.testing.assert_array_equal(loaded.params[name], arr)
    ck2 = workdir / "det" / "checkpoint2.json"
    save_checkpoint(loaded, ck2, config=cfg, step=step, rng=rng)
    assert ck.read_bytes() == ck2.read_bytes()
    print("\nPASS criterion 11: byte-identical corpora, exact summary "
          "reproduction, bit-exact checkpoint round-trip")


def test_criterion_12_external_scorer_protocol():
    a, b = socket.socketpair()
    client = ExternalScorerClient(a.makefile("rb"), a.makefile("wb"))
    sr, sw = b.makefile("rb"), b.makefile("wb")

    def serve():
        held = []
        for line in sr:
            msg = json.loads(line)
            held.append({"id": msg["id"], "score": msg["speech"][0]})
            if len(held) >= 7:
                for reply in reversed(held):
                    sw.write((json.dumps(reply) + "\n").encode())
                sw.flush()
                held.clear()

    threading.Thread(target=serve, daemon=True).start()
    rng = np.random.default_rng(3)
    mismatches, total = 0, 0
    for _ in range(205):  # 205 batches of 49 -> 10045 matchings
        ids = [client.submit("sim", [i * 1e-4])
               for i in range(total, total + 49)]
        total += 49
        for req_id in rng.permutation(ids):
            if client.wait(int(req_id)) != req_id * 1e-4:
                mismatches += 1
    assert mismatches == 0

    req = client.submit("sim", [0.5])
    sw.write(b"%%% not json %%%\n")
    sw.flush()
    with pytest.raises(ScorerFault):
        client.wait(req)
    for s in (a, b):
        s.close()
    print(f"\nPASS criterion 12: {total} out-of-order matchings, "
          "0 mismatches; malformed line raises a scorer fault")
