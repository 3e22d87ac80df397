"""Outputs that stay the same bit for bit, against tests/golden.json.

Each case rebuilds its output from the setup stored beside its hashes.
On the machine that wrote the file (the same numpy version, OpenBLAS
configuration string, `platform.machine()` and numpy CPU features), every
sha256 prefix must match. Elsewhere BLAS and numpy may run other kernels,
which round differently, so there the test compares the stored
per-speaker mean fused scores to 1e-12 instead of the hashes.
"""

import hashlib
import json
import platform
from pathlib import Path

import numpy as np
import pytest

from asrrl.core import RLConfig
from asrrl.harness import (ExperimentSpec, evaluate, evaluate_checkpoint, gen_corpus,
                           train, write_rows)

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
