"""Show why the reward needs the quality term.

On the tradeoff environment, pushing the embedding along one direction
keeps raising similarity but — past a threshold — destroys quality. A
policy trained on similarity alone happily crosses that threshold; the
full fused reward stops at it. Both policies are scored under the full
triple so the comparison is apples to apples, on the tradeoff speakers
held out from training.
"""

from pathlib import Path

from asrrl import ExperimentSpec, RLConfig, ablate
from asrrl.harness import EvalResult, SCORE_TERM_VARIANTS

OUT = Path("demo_runs")


def main() -> None:
    cfg = RLConfig(d_e=8, d_t=4, k=1, seed=0, action_scale=0.1,
                   train_iters=120)
    spec = ExperimentSpec(config=cfg, scenario="ss", out_dir=OUT, run_id="ablation")
    rows = ablate(spec, "score_terms")
    print(f"{'reward':>16}  {'sim':>6}  {'mos':>6}  {'intell':>6}")
    for name in SCORE_TERM_VARIANTS:
        res = EvalResult([r for r in rows if r["ablation"] == name])
        print(f"{name:>16}  {res.mean('rl', 'sim'):.4f}  "
              f"{res.mean('rl', 'mos'):.4f}  {res.mean('rl', 'intell'):.4f}")
    print("\nsim-only buys similarity at a steep quality (mos) cost.")


if __name__ == "__main__":
    main()
