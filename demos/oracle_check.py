"""Sandwich a trained policy between the raw baseline and the grid oracle.

At d_e=3 the fused score can be maximized by brute force, which bounds
what any policy could achieve. The trained policy should land between
the untouched encoder embedding and that bound for every held-out
speaker. Also shows the fine-tune proxy (gradient ascent on the fused
score) converging to the oracle optimum at d_e=1.
"""

from pathlib import Path

import numpy as np

from asrrl import ExperimentSpec, RLConfig, evaluate, gen_corpus, train
from asrrl.env import oracle_zoom
from asrrl.harness import build_env, finetune_proxy

OUT = Path("demo_runs")


def main() -> None:
    OUT.mkdir(exist_ok=True)
    corpus = gen_corpus(21, 25, 1, 3, 4, 4, OUT / "lowdim.tsv", force=True,
                        sigma_ref=0.02)
    spec = ExperimentSpec(config=RLConfig(d_e=3, d_t=4, k=1, seed=21),
                          scenario="ss", run_id="oracle", out_dir=OUT)
    policy, _ = train(spec, corpus, write_outputs=False)
    result = evaluate(policy, spec, corpus, variants=("raw", "rl", "oracle"))
    raw = result.per_speaker_mean("raw", "fused")
    rl = result.per_speaker_mean("rl", "fused")
    orc = result.per_speaker_mean("oracle", "fused")
    print("speaker   raw      rl       oracle")
    for sp in sorted(raw):
        print(f"{sp:>4}    {raw[sp]:.4f}  {rl[sp]:.4f}  {orc[sp]:.4f}")

    print("\nfine-tune proxy vs grid oracle at d_e=1:")
    c1 = gen_corpus(31, 3, 1, 1, 4, 1, OUT / "onedim.tsv", force=True,
                    sigma_ref=0.02)
    s1 = ExperimentSpec(config=RLConfig(d_e=1, d_t=4, k=1, seed=31),
                        scenario="ss", out_dir=OUT)
    env, profiles, texts = build_env(s1, c1)
    for p in profiles:
        f_t = texts[p.speaker_id][0]
        e_ft, _ = finetune_proxy(env, p, f_t, steps=2000)
        lim = float(np.max(np.abs(p.refs))) + 0.2
        e_or, _ = oracle_zoom(env, p, f_t, -lim, lim)
        print(f"  speaker {p.speaker_id}: finetune {e_ft[0]:+.5f} "
              f"oracle {e_or[0]:+.5f}  |diff| {abs(e_ft[0]-e_or[0]):.1e}")


if __name__ == "__main__":
    main()
