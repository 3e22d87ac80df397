"""Command-line front-end.

Exit codes: 0 success, 2 config error, 3 divergence abort, 4 I/O error
(including an unreadable or malformed checkpoint).
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from pathlib import Path

from .agent import CheckpointError
from .core import RLConfig, mean_init
from .harness import (
    ConfigError,
    DivergenceError,
    ExperimentSpec,
    ablate,
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

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DIVERGED = 3
EXIT_IO = 4


def _add_common(p):
    p.add_argument("--corpus", required=True, help="corpus file path")
    p.add_argument("--out", default="runs", help="output directory")
    p.add_argument("--run-id", default="run")
    p.add_argument("--scenario", choices=["ss", "fs"], default="ss")
    p.add_argument("--config", help="flat key=value config file")
    p.add_argument("--seed", type=int, help="override the config seed")


def _spec_from_args(args, corpus) -> ExperimentSpec:
    cfg = parse_config_file(args.config) if args.config else RLConfig()
    cfg = cfg.with_overrides(
        d_e=corpus.meta["d_e"], d_t=corpus.meta["d_t"], k=corpus.meta["k"],
        **({"seed": args.seed} if args.seed is not None else {}),
    )
    return ExperimentSpec(config=cfg, scenario=args.scenario,
                          run_id=args.run_id, out_dir=Path(args.out))


def _print_summary(result):
    for row in result.summary():
        print(
            f"{row['variant']:>8}  n={row['n']:<5d} "
            f"sim={row['sim_mean']:.4f}±{row['sim_std']:.4f}  "
            f"mos={row['mos_mean']:.4f}±{row['mos_std']:.4f}  "
            f"intell={row['intell_mean']:.4f}±{row['intell_std']:.4f}  "
            f"fused={row['fused_mean']:.4f}±{row['fused_std']:.4f}"
        )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="asrrl",
        description="RL refinement of speaker embeddings in a synthetic voice space",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-data", help="generate a synthetic speaker corpus")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--speakers", type=int, required=True)
    p.add_argument("--refs", type=int, required=True)
    p.add_argument("--dim-e", type=int, required=True)
    p.add_argument("--dim-t", type=int, required=True)
    p.add_argument("--texts", type=int, default=4)
    p.add_argument("--sigma-ref", type=float, default=0.05)
    p.add_argument("--out", required=True)
    p.add_argument("--force", action="store_true")

    p = sub.add_parser("train", help="train a PPO policy")
    _add_common(p)

    p = sub.add_parser("eval", help="evaluate a checkpoint on held-out speakers")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--corpus", required=True)
    p.add_argument("--split", choices=["eval", "train"], default="eval")
    p.add_argument("--out", help="optional CSV path for the raw rows")

    p = sub.add_parser("baseline", help="raw / finetune / oracle baselines")
    p.add_argument("--method", choices=["raw", "finetune", "oracle"], required=True)
    _add_common(p)
    p.add_argument("--ft-steps", type=int, default=2000)
    p.add_argument("--ft-step-size", type=float, default=0.01)

    p = sub.add_parser("sweep", help="hyperparameter sweep (full run per value)")
    _add_common(p)
    p.add_argument("--axis", required=True,
                   choices=["gamma", "action_scale", "steps", "lambda1", "lambda2"])
    p.add_argument("--values", required=True,
                   help="comma-separated values, e.g. 0,0.3,0.9,0.99")

    p = sub.add_parser("ablate", help="reward-term or state-segment ablation")
    _add_common(p)
    p.add_argument("--mode", choices=["score_terms", "state_segments"], required=True)
    return parser


def run(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "gen-data":
        gen_corpus(args.seed, args.speakers, args.refs, args.dim_e, args.dim_t,
                   args.texts, args.out, force=args.force,
                   sigma_ref=args.sigma_ref)
        print(f"wrote corpus {args.out}")
        return EXIT_OK

    if args.command == "eval":
        result = evaluate_checkpoint(args.checkpoint, args.corpus,
                                     split=args.split)
        _print_summary(result)
        if args.out:
            write_rows(args.out, result.rows)
        return EXIT_OK

    corpus = load_corpus(args.corpus)
    spec = _spec_from_args(args, corpus)

    if args.command == "train":
        train(spec, corpus)
        run_dir = Path(spec.out_dir) / spec.run_id
        print(f"wrote {run_dir / 'checkpoint.json'} and {run_dir / 'train.csv'}")
        return EXIT_OK

    if args.command == "baseline":
        if args.method in ("raw", "oracle"):
            result = evaluate(None, spec, corpus, variants=(args.method,))
            _print_summary(result)
            return EXIT_OK
        env, profiles, texts = build_env(spec, corpus)
        _, eval_idx = corpus.split(spec.eval_frac)
        rows = []
        for si in eval_idx:
            profile = profiles[si]
            f_t = texts[si][0]
            _, best_sc = finetune_proxy(env, profile, f_t, steps=args.ft_steps,
                                        step_size=args.ft_step_size)
            rows.append({"speaker": profile.speaker_id,
                         "raw_fused": env.fused(f_t, mean_init(profile.refs), profile),
                         "finetune_fused": best_sc})
        for r in rows:
            print(f"speaker {r['speaker']}: raw {r['raw_fused']:.4f} "
                  f"-> finetune {r['finetune_fused']:.4f}")
        return EXIT_OK

    if args.command == "sweep":
        values = [float(v) for v in args.values.split(",") if v != ""]
        sweep(spec, args.axis, values, corpus)
        run_dir = Path(spec.out_dir) / spec.run_id
        print(f"wrote {run_dir / f'sweep_{args.axis}.csv'}")
        return EXIT_OK

    if args.command == "ablate":
        spec = replace(spec, env_kind="tradeoff" if args.mode == "score_terms"
                       else "voice")
        ablate(spec, args.mode, corpus)
        run_dir = Path(spec.out_dir) / spec.run_id
        print(f"wrote {run_dir / f'ablate_{args.mode}.csv'}")
        return EXIT_OK

    raise ConfigError(f"unhandled command {args.command!r}")


def main(argv=None) -> None:
    try:
        code = run(argv)
    except (ConfigError, ValueError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        code = EXIT_CONFIG
    except DivergenceError as exc:
        print(f"divergence abort: {exc}", file=sys.stderr)
        code = EXIT_DIVERGED
    except (OSError, CheckpointError) as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        code = EXIT_IO
    sys.exit(code)


if __name__ == "__main__":
    main()
