"""Command-line interface.

Subcommands map onto the pipeline stages (each one loads its prerequisites
from the output directory and fails with a clear message if an earlier stage
has not run), plus enrollment/verification utilities and the gradient
verification battery.

Exit codes: 0 on success, 1 for contract/configuration errors (including
unknown subcommands), 2 for I/O errors such as missing or corrupt files.
"""

from __future__ import annotations

import argparse
import sys
from typing import Callable, Sequence

from .config import PipelineConfig
from .errors import PalmveinError, StageError
from .gradcheck import run_battery
from .pipeline import calibrated_threshold, enroll, run_full_pipeline, run_stages, \
    verify_probe

__all__ = ["main"]


def _add_global_flags(parser: argparse.ArgumentParser, suppress: bool) -> None:
    # On subparsers the default is SUPPRESS so a flag given before the
    # subcommand is not clobbered by the subparser's default.
    default = argparse.SUPPRESS if suppress else None
    parser.add_argument("--config", default=default, metavar="PATH",
                        help="key=value config file (defaults apply if omitted)")
    parser.add_argument("--seed", type=int, default=default, metavar="U64",
                        help="master seed, overrides the config file")
    parser.add_argument("--out", default=default, metavar="DIR",
                        help="output directory, overrides the config file")


def _build_config(args: argparse.Namespace) -> PipelineConfig:
    cfg = (PipelineConfig.from_file(args.config)
           if getattr(args, "config", None) else PipelineConfig())
    overrides = {}
    if getattr(args, "seed", None) is not None:
        overrides["seed"] = args.seed
    if getattr(args, "out", None) is not None:
        overrides["out"] = args.out
    return cfg.override(**overrides) if overrides else cfg


def _print_report(report) -> None:
    print(f"eer={report.eer!r}")
    print(f"crr={report.crr!r}")
    print(f"di={report.di!r}")
    print(f"n_genuine={report.counts[0]} n_impostor={report.counts[1]}")


def _stage_command(indices: Sequence[int]) -> Callable:
    def handler(cfg: PipelineConfig, args: argparse.Namespace) -> int:
        run_stages(cfg, list(indices), progress=print)
        return 0
    return handler


def _cmd_eval(cfg: PipelineConfig, args: argparse.Namespace) -> int:
    results = run_stages(cfg, [10], progress=print)
    _print_report(results[10])
    print(f"report written to {cfg.out_dir / 'report'}")
    return 0


def _cmd_run_all(cfg: PipelineConfig, args: argparse.Namespace) -> int:
    report = run_full_pipeline(cfg, progress=print)
    _print_report(report)
    return 0


def _cmd_enroll(cfg: PipelineConfig, args: argparse.Namespace) -> int:
    path = enroll(cfg)
    print(f"enrollment written to {path}")
    return 0


def _cmd_verify(cfg: PipelineConfig, args: argparse.Namespace) -> int:
    threshold = calibrated_threshold(cfg) if args.threshold is None else args.threshold
    distance, accepted = verify_probe(cfg, args.probe, threshold,
                                      enrollment=args.enrollment)
    print(f"distance {distance!r}")
    print("ACCEPT" if accepted else "REJECT")
    return 0


def _cmd_gradcheck(cfg: PipelineConfig, args: argparse.Namespace) -> int:
    cases = run_battery(trials=args.trials, progress=print)
    ok = all(c.passed for c in cases)
    print(f"gradient battery: {'PASS' if ok else 'FAIL'} "
          f"({sum(c.passed for c in cases)}/{len(cases)} cases)")
    return 0 if ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="palmvein",
        description="Palm-vein verification pipeline: synthetic data, learned "
                    "image transforms, triplet-trained embeddings, evaluation.")
    _add_global_flags(parser, suppress=False)
    sub = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")

    def add(name: str, help_text: str, handler: Callable) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help_text)
        _add_global_flags(p, suppress=True)
        p.set_defaults(handler=handler)
        return p

    add("gen-data", "generate the synthetic dataset (stage 1)",
        _stage_command([1]))
    add("transform", "compute texture-code and ray-transform targets (stage 2)",
        _stage_command([2]))
    add("train-ced", "train both encoder-decoders (stages 3-4)",
        _stage_command([3, 4]))
    add("finetune-stack", "finetune the stacked transform and assemble feature "
        "images (stages 5-6)", _stage_command([5, 6]))
    add("pretrain-ae", "autoencoder-pretrain the extractor trunk (stage 7)",
        _stage_command([7]))
    add("train-triplet", "triplet-train the feature extractor (stage 8)",
        _stage_command([8]))
    add("finetune-e2e", "jointly finetune transforms + extractor (stage 9)",
        _stage_command([9]))
    add("eval", "evaluate gallery vs probe and emit the report (stage 10)",
        _cmd_eval)
    add("run-all", "run every stage in order", _cmd_run_all)
    add("enroll", "embed the gallery into an enrollment file", _cmd_enroll)

    verify = add("verify", "score one probe image against an enrollment",
                 _cmd_verify)
    verify.add_argument("--probe", required=True, metavar="PGM",
                        help="probe image to score")
    verify.add_argument("--threshold", type=float, default=None, metavar="T",
                        help="accept iff distance < T (default: the run's EER "
                             "threshold, from report/metrics.csv)")
    verify.add_argument("--enrollment", default=None, metavar="PATH",
                        help="enrollment file (default: <out>/enrollment.vfw)")

    gradcheck = add("gradcheck", "finite-difference gradient battery",
                    _cmd_gradcheck)
    gradcheck.add_argument("--trials", type=int, default=20, metavar="N",
                           help="randomized trials per case (default 20)")
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse prints usage itself; remap its error exit code to 1
        return 0 if exc.code in (0, None) else 1

    try:
        cfg = _build_config(args)
        return args.handler(cfg, args)
    except StageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2 if isinstance(exc.__cause__, OSError) else 1
    except OSError as exc:  # includes corrupt-weights errors
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except PalmveinError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
