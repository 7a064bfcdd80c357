"""Command-line front end.

Two subcommands: `explain` runs the full pipeline on one WAV file and writes
an explanation bundle; `stability` repeats the attribution across seeds and
sample counts and writes Jaccard tables. Set MIDLIME_LOG=debug|info|warning
to control verbosity on stderr.

Exit codes: 0 success, 2 configuration error, 3 predictor/transport error,
4 audio or file I/O error, 5 internal error (numeric, or a forked helper
process that ended without its results).
"""

from __future__ import annotations

import argparse
import logging
import os
import sys

from .dsp import StftConfig
from .errors import (
    AudioIOError,
    ConfigError,
    MidlimeError,
    PredictorError,
    StageError,
)
from .lime import LimeConfig
from .pipeline import RunConfig, run_explanation, run_stability
from .segmentation import SegmentationConfig

log = logging.getLogger("midlime")

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_PREDICTOR = 3
EXIT_AUDIO = 4
EXIT_NUMERIC = 5


def _setup_logging() -> None:
    level_name = os.environ.get("MIDLIME_LOG", "warning").upper()
    level = getattr(logging, level_name, None)
    if not isinstance(level, int):
        level = logging.WARNING
    logging.basicConfig(
        level=level,
        stream=sys.stderr,
        format="%(levelname)s %(name)s: %(message)s",
    )


def exit_code_for(exc: BaseException) -> int:
    cause = exc
    while isinstance(cause, StageError):
        cause = cause.cause
    if isinstance(cause, ConfigError):
        return EXIT_CONFIG
    if isinstance(cause, PredictorError):
        return EXIT_PREDICTOR
    if isinstance(cause, (AudioIOError, OSError)):
        return EXIT_AUDIO
    return EXIT_NUMERIC


def _add_common_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--audio", required=True, help="input WAV file (PCM16 or float32)")
    p.add_argument("--predictor", default="builtin",
                   help='builtin | constant | exec:"CMD" (default: builtin)')
    p.add_argument("--target", default="auto",
                   help="auto | mid:NAME | mid:IDX (emotion:NAME|IDX also accepted)")
    p.add_argument("--kernel-width", type=float, default=0.25,
                   help="proximity kernel width (default: 0.25)")
    p.add_argument("--ratio-threshold", type=float, default=1e-6,
                   help="p-value to |weight| selection cutoff (default: 1e-6)")
    p.add_argument("--fill", default="silence",
                   choices=["silence", "silence-floor", "segment-mean", "global-mean"],
                   help="what masked segments become (default: silence)")
    p.add_argument("--alpha", type=float, default=0.0,
                   help="surrogate ridge strength; 0 = plain weighted least squares")
    p.add_argument("--scale", type=float, default=25.0,
                   help="segmentation scale parameter (default: 25)")
    p.add_argument("--min-size", type=int, default=40,
                   help="minimum segment area in pixels (default: 40)")
    p.add_argument("--sigma", type=float, default=0.8,
                   help="segmentation pre-smoothing sigma (default: 0.8)")
    p.add_argument("--frame-size", type=int, default=2048,
                   help="analysis frame size, power of two (default: 2048)")
    p.add_argument("--hop", type=int, default=512, help="analysis hop (default: 512)")
    p.add_argument("--window", default="hann", choices=["hann", "rect"],
                   help="analysis window (default: hann)")
    p.add_argument("--floor-db", type=float, default=-80.0,
                   help="dB floor for the spectrogram view (default: -80)")
    p.add_argument("--predictor-seed", type=int, default=0,
                   help="seed of the builtin synthetic predictor (default: 0)")
    p.add_argument("--workers", type=int, default=1,
                   help="workers that evaluate the predictor, at most one per "
                        "usable CPU: exec: children, else processes that split "
                        "explain's prediction blocks or stability's attributions "
                        "(default: 1)")
    p.add_argument("--batch-size", type=int, default=256,
                   help="most mask rows per exec: request (default: 256)")
    p.add_argument("--timeout", type=float, default=30.0,
                   help="external predictor timeout in seconds (default: 30)")
    p.add_argument("--out", required=True, help="output directory")


def _parse_int_list(raw: str, flag: str) -> list[int]:
    try:
        values = [int(part) for part in raw.split(",") if part.strip() != ""]
    except ValueError:
        raise ConfigError(f"{flag} expects comma-separated integers, got {raw!r}") from None
    if not values:
        raise ConfigError(f"{flag} must list at least one integer")
    return values


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="midlime",
        description="Explain a black-box music-emotion predictor: per-segment "
                    "spectrogram attribution plus linear-head effects, with "
                    "audible renderings of the explanation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    explain = sub.add_parser("explain", help="explain one clip and write a bundle")
    _add_common_flags(explain)
    explain.add_argument("--samples", type=int, default=50000,
                         help="perturbation sample count (default: 50000)")
    explain.add_argument("--seed", type=int, default=42,
                         help="sampling seed (default: 42)")
    explain.add_argument("--gl-iters", type=int, default=32,
                         help="phase-retrieval iterations for resynthesis (default: 32)")
    explain.add_argument("--synth-gain", type=float, default=1.0,
                         help="gain for add/subtract resynthesis modes (default: 1.0)")

    # No abbreviations, so that explain's --seed is refused, not read as --seeds.
    stability = sub.add_parser(
        "stability", help="repeat the attribution across seeds and sample counts",
        allow_abbrev=False)
    _add_common_flags(stability)
    stability.add_argument("--seeds", default="1,2,3,4,5",
                           help="comma-separated seeds (default: 1,2,3,4,5)")
    stability.add_argument("--sample-counts", default="1000,50000",
                           help="comma-separated sample counts (default: 1000,50000)")
    return parser


def _run_config(args: argparse.Namespace) -> RunConfig:
    # stability takes no explain-only flag: it sets each run's seed and
    # sample count itself, and synthesises no audio.
    lime_only, run_only = {}, {}
    if args.command == "explain":
        lime_only = {"n_samples": args.samples, "seed": args.seed}
        run_only = {"gl_iterations": args.gl_iters, "synth_gain": args.synth_gain}
    return RunConfig(
        audio_path=args.audio,
        out_dir=args.out,
        predictor=args.predictor,
        target=args.target,
        lime=LimeConfig(
            kernel_width=args.kernel_width,
            fill=args.fill,
            ridge_alpha=args.alpha,
            ratio_threshold=args.ratio_threshold,
            **lime_only,
        ),
        segmentation=SegmentationConfig(
            scale=args.scale, min_size=args.min_size, sigma=args.sigma),
        stft=StftConfig(
            frame_size=args.frame_size, hop_size=args.hop,
            window=args.window, floor_db=args.floor_db),
        workers=args.workers,
        batch_size=args.batch_size,
        timeout=args.timeout,
        predictor_seed=args.predictor_seed,
        **run_only,
    )


def main(argv: list[str] | None = None) -> int:
    _setup_logging()
    args = build_parser().parse_args(argv)
    try:
        config = _run_config(args)
        if args.command == "explain":
            bundle = run_explanation(config)
            report = bundle.report
            print(f"wrote bundle to {bundle.out_dir}")
            print(f"target: {report['target']['kind']}:{report['target']['name']}")
            print(f"segments: {report['segments']['count']}, selected: "
                  f"{report['selected']['total']} "
                  f"({report['selected']['positive']} positive, "
                  f"{report['selected']['negative']} negative)")
        else:
            seeds = _parse_int_list(args.seeds, "--seeds")
            counts = _parse_int_list(args.sample_counts, "--sample-counts")
            results = run_stability(config, seeds, counts)
            print(f"wrote stability tables to {config.out_dir}")
            for count in counts:
                score = results[count]["score"]
                print(f"n_samples={count}: mean pairwise jaccard "
                      f"{score.mean_pairwise_jaccard:.4f}")
    except (MidlimeError, OSError) as exc:
        log.debug("failure detail", exc_info=True)
        print(f"error: {exc}", file=sys.stderr)
        return exit_code_for(exc)
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
