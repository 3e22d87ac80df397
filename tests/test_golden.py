"""Outputs that stay the same bit for bit, against tests/golden.json.

Each case rebuilds its output from the setup stored beside its hashes.
On the machine that wrote the file (the same numpy version, OpenBLAS
configuration string, `platform.machine()` and numpy CPU features), every
sha256 prefix must match. Elsewhere BLAS and numpy may run other kernels,
which round differently, so there the test compares the stored
per-speaker (per-cell for the study commands) mean fused scores, and the
grid oracle's best score, to 1e-12 instead of the hashes.
"""

import csv
import hashlib
import json
import platform
from pathlib import Path

import numpy as np
import pytest

from asrrl import cli
from asrrl.core import RLConfig
from asrrl.env import oracle_best
from asrrl.harness import (ExperimentSpec, build_env, evaluate, evaluate_checkpoint,
                           gen_corpus, train, write_rows)

GOLDEN = json.loads(Path(__file__).with_name("golden.json").read_text())


def _machine() -> dict:
    try:
        cfg = np.show_config(mode="dicts")
        blas = cfg["Build Dependencies"]["blas"].get("openblas configuration")
        simd = cfg["SIMD Extensions"]
    except (TypeError, KeyError):  # a numpy without show_config's dicts mode
        blas = simd = None
    return {"numpy": np.__version__, "blas": blas,
            "platform_machine": platform.machine(), "cpu_features": simd}


def _sha(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()[:12]


def _spec(case, corpus, tmp_path) -> ExperimentSpec:
    m = corpus.meta
    cfg = RLConfig(d_e=m["d_e"], d_t=m["d_t"], k=m["k"], **case["config"])
    return ExperimentSpec(config=cfg, scenario="ss", run_id=case["run_id"],
                          out_dir=tmp_path)


def _check(case, hashes, result):
    if _machine() == GOLDEN["machine"]:
        assert hashes == case["sha256"]
    for variant, want in case["per_speaker_fused"].items():
        got = result.per_speaker_mean(variant, "fused")
        assert sorted(got) == sorted(int(s) for s in want), variant
        for s, x in want.items():
            assert abs(got[int(s)] - x) <= 1e-12, (variant, s)


@pytest.mark.parametrize("name", ["ss_ref", "oracle_lowdim", "finetune_oracle"])
def test_golden_outputs(tmp_path, name):
    case = GOLDEN[name]
    corpus_path = tmp_path / "corpus.tsv"
    corpus = gen_corpus(**case["corpus"], path=corpus_path)
    spec = _spec(case, corpus, tmp_path)
    hashes = {}
    if name == "ss_ref":
        train(spec, corpus)
        for out in ("train.csv", "checkpoint.json"):
            hashes[out] = _sha(spec.run_dir / out)
        result = evaluate_checkpoint(spec.run_dir / "checkpoint.json", corpus_path, spec=spec)
        key = "evaluate_checkpoint_rows"
    elif name == "oracle_lowdim":
        result = evaluate(None, spec, corpus, variants=("raw",))
        key = "evaluate_raw_rows"
    else:
        result = evaluate(None, spec, corpus, variants=("finetune", "oracle"))
        key = "evaluate_finetune_oracle_rows"
    write_rows(tmp_path / "rows.csv", result.rows)
    hashes[key] = _sha(tmp_path / "rows.csv")
    _check(case, hashes, result)


def test_golden_oracle_grid(tmp_path):
    """One full 128^3 oracle_best grid on the oracle_lowdim corpus: its best
    embedding's bytes and score, whichever CPUs search its blocks."""
    case = GOLDEN["oracle_grid"]
    corpus = gen_corpus(**case["corpus"], path=tmp_path / "corpus.tsv")
    m = corpus.meta
    cfg = RLConfig(d_e=m["d_e"], d_t=m["d_t"], k=m["k"], **case["config"])
    env, profiles, texts = build_env(ExperimentSpec(config=cfg), corpus)
    profile = profiles[case["speaker"]]
    lim = float(np.max(np.abs(profile.refs))) + 4.0 * case["corpus"]["sigma_ref"]
    e_best, sc_best = oracle_best(env, profile, texts[case["speaker"]][case["text"]],
                                  (-lim, lim, case["points"]))
    if _machine() == GOLDEN["machine"]:
        digest = hashlib.sha256(e_best.tobytes() + repr(sc_best).encode()).hexdigest()
        assert {"oracle_best": digest[:12]} == case["sha256"]
    assert abs(sc_best - case["sc_best"]) <= 1e-12


def _cell_means(path) -> dict[str, float]:
    """Mean fused score per "cell/variant" of a sweep or ablate CSV, a cell
    being the swept value or the ablation name."""
    fused: dict[str, list[float]] = {}
    with open(path, newline="") as fh:
        for row in csv.DictReader(fh):
            cell = row["ablation"] if "ablation" in row else row["value"]
            fused.setdefault(f"{cell}/{row['variant']}", []).append(float(row["fused"]))
    return {key: sum(xs) / len(xs) for key, xs in fused.items()}


def test_golden_studies(tmp_path):
    """The sweep and ablate commands end to end through cli.run, which
    reads the config file and lays the corpus's dimensions over it. The
    lambda1 sweep pins the study scoring rule: every cell is fused with
    the config file's lambdas, whatever lambda1 it trained with."""
    case = GOLDEN["studies"]
    corpus_path, cfg_path = tmp_path / "corpus.tsv", tmp_path / "config.txt"
    gen_corpus(**case["corpus"], path=corpus_path)
    cfg_path.write_text("".join(f"{k}={v}\n" for k, v in case["config"].items()))
    for argv in case["commands"]:
        assert cli.run(argv + ["--corpus", str(corpus_path), "--config", str(cfg_path),
                               "--out", str(tmp_path), "--run-id", case["run_id"]]) == 0
    run_dir = tmp_path / case["run_id"]
    if _machine() == GOLDEN["machine"]:
        assert {out: _sha(run_dir / out) for out in case["sha256"]} == case["sha256"]
    for out, want in case["per_cell_fused"].items():
        got = _cell_means(run_dir / out)
        assert sorted(got) == sorted(want), out
        for key, x in want.items():
            assert abs(got[key] - x) <= 1e-12, (out, key)
