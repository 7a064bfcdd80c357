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
from dataclasses import asdict, fields

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
    # Each flag's dest is the name of the config field it sets. The paths
    # are required, so the help shows no default for them.
    p.add_argument("--audio", dest="audio_path", required=True, default=argparse.SUPPRESS,
                   help="input WAV file (PCM16 or float32)")
    p.add_argument("--predictor", help='builtin | constant | exec:"CMD"')
    p.add_argument("--target",
                   help="auto | mid:NAME | mid:IDX (emotion:NAME|IDX also accepted)")
    p.add_argument("--kernel-width", type=float, help="proximity kernel width")
    p.add_argument("--ratio-threshold", type=float,
                   help="p-value to |weight| selection cutoff")
    p.add_argument("--fill",
                   choices=["silence", "silence-floor", "segment-mean", "global-mean"],
                   help="what masked segments become; silence is silence-floor")
    p.add_argument("--alpha", dest="ridge_alpha", type=float,
                   help="surrogate ridge strength; 0 = plain weighted least squares")
    p.add_argument("--scale", type=float, help="segmentation scale parameter")
    p.add_argument("--min-size", type=int, help="minimum segment area in pixels")
    p.add_argument("--sigma", type=float, help="segmentation pre-smoothing sigma")
    p.add_argument("--frame-size", type=int, help="analysis frame size, power of two")
    p.add_argument("--hop", dest="hop_size", type=int, help="analysis hop")
    p.add_argument("--window", choices=["hann", "rect"], help="analysis window")
    p.add_argument("--floor-db", type=float, help="dB floor for the spectrogram view")
    p.add_argument("--predictor-seed", type=int,
                   help="seed of the builtin synthetic predictor")
    p.add_argument("--workers", type=int,
                   help="workers that evaluate the predictor, at most one per "
                        "usable CPU: exec: children, else processes that split "
                        "explain's prediction blocks or stability's attributions")
    p.add_argument("--batch-size", type=int, help="most mask rows per exec: request")
    p.add_argument("--timeout", type=float, help="external predictor timeout in seconds")
    p.add_argument("--out", dest="out_dir", required=True, default=argparse.SUPPRESS,
                   help="output directory")


def _parse_int_list(raw: str, flag: str) -> list[int]:
    try:
        values = [int(part) for part in raw.split(",") if part.strip() != ""]
    except ValueError:
        raise ConfigError(f"{flag} expects comma-separated integers, got {raw!r}") from None
    if not values:
        raise ConfigError(f"{flag} must list at least one integer")
    return values


def _field_defaults() -> dict:
    """The default of each field of the run that names only its paths, by
    field name; the fill by its value, as the help shows it."""
    run = asdict(RunConfig(audio_path="", out_dir=""))
    lime, segmentation, stft = run.pop("lime"), run.pop("segmentation"), run.pop("stft")
    del run["audio_path"], run["out_dir"]
    return {**run, **lime, **segmentation, **stft, "fill": lime["fill"].value}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="midlime",
        description="Explain a black-box music-emotion predictor: per-segment "
                    "spectrogram attribution plus linear-head effects, with "
                    "audible renderings of the explanation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    formatter = argparse.ArgumentDefaultsHelpFormatter

    explain = sub.add_parser("explain", help="explain one clip and write a bundle",
                             formatter_class=formatter)
    _add_common_flags(explain)
    explain.add_argument("--samples", dest="n_samples", type=int,
                         help="perturbation sample count")
    explain.add_argument("--seed", type=int, help="sampling seed")
    explain.add_argument("--gl-iters", dest="gl_iterations", type=int,
                         help="phase-retrieval iterations for resynthesis")
    explain.add_argument("--synth-gain", type=float,
                         help="gain for add/subtract resynthesis modes")

    # No abbreviations, so that explain's --seed is refused, not read as --seeds.
    stability = sub.add_parser(
        "stability", help="repeat the attribution across seeds and sample counts",
        allow_abbrev=False, formatter_class=formatter)
    _add_common_flags(stability)
    stability.add_argument("--seeds", default="1,2,3,4,5", help="comma-separated seeds")
    stability.add_argument("--sample-counts", default="1000,50000",
                           help="comma-separated sample counts")
    # stability also gets explain's defaults, which its runs replace or do
    # not read: it sets each run's seed and sample count, and synthesises
    # no audio.
    for command in (explain, stability):
        command.set_defaults(**_field_defaults())
    return parser


def _run_config(args: argparse.Namespace) -> RunConfig:
    given = vars(args)

    def values(cls) -> dict:
        return {f.name: given[f.name] for f in fields(cls) if f.name in given}

    return RunConfig(**values(RunConfig), lime=LimeConfig(**values(LimeConfig)),
                     segmentation=SegmentationConfig(**values(SegmentationConfig)),
                     stft=StftConfig(**values(StftConfig)))


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
