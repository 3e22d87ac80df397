"""Command-line front-end.

Exit codes: 0 success, 2 config error (also settings that need more
memory than the machine has, and a corpus spread or an action_scale at
which squared embedding norms would overflow), 3 divergence abort (also a
non-finite or rejected PPO update), 4 I/O error (also a bad checkpoint).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .agent import CheckpointError, UpdateRejected
from .core import RLConfig
from .harness import (
    SWEEP_AXES,
    ConfigError,
    DivergenceError,
    ExperimentSpec,
    ablate,
    evaluate,
    evaluate_checkpoint,
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
    p.add_argument("--config", help="flat key=value config file")
    p.add_argument("--seed", type=int, help="override the config seed")


def _spec_from_args(args, corpus) -> ExperimentSpec:
    """The corpus fixes the dimensions and the scenario: SS for one
    reference per speaker, FS for several."""
    m = corpus.meta
    fixed = {"d_e": m["d_e"], "d_t": m["d_t"], "k": m["k"],
             **({"seed": args.seed} if args.seed is not None else {})}
    cfg = parse_config_file(args.config, **fixed) if args.config else RLConfig(**fixed).validate()
    return ExperimentSpec(config=cfg, scenario="ss" if m["k"] == 1 else "fs",
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

    p = sub.add_parser("sweep", help="hyperparameter sweep (full run per value)")
    _add_common(p)
    p.add_argument("--axis", required=True, choices=SWEEP_AXES)
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
        print(f"wrote {spec.run_dir / 'checkpoint.json'} and {spec.run_dir / 'train.csv'}")
        return EXIT_OK

    if args.command == "baseline":
        _print_summary(evaluate(None, spec, corpus, variants=(args.method,)))
        return EXIT_OK

    if args.command == "sweep":
        try:
            values = [float(v) for v in args.values.split(",") if v != ""]
        except ValueError as exc:  # float names the token
            raise ConfigError(f"--values: {exc}") from None
        sweep(spec, args.axis, values, corpus)
        print(f"wrote {spec.run_dir / f'sweep_{args.axis}.csv'}")
        return EXIT_OK

    if args.command == "ablate":
        ablate(spec, args.mode, corpus)
        print(f"wrote {spec.run_dir / f'ablate_{args.mode}.csv'}")
        return EXIT_OK

    raise ConfigError(f"unhandled command {args.command!r}")


def main(argv=None) -> None:
    try:
        code = run(argv)
    except (ConfigError, ValueError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        code = EXIT_CONFIG
    except MemoryError as exc:  # numpy names the array it could not allocate
        print(f"config error: not enough memory for these settings: {exc}", file=sys.stderr)
        code = EXIT_CONFIG
    except (DivergenceError, FloatingPointError, UpdateRejected) as exc:
        print(f"divergence abort: {exc}", file=sys.stderr)
        code = EXIT_DIVERGED
    except (OSError, CheckpointError) as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        code = EXIT_IO
    sys.exit(code)


if __name__ == "__main__":
    main()
