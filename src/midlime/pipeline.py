"""End-to-end run: audio in, explanation bundle out.

Stage order: decode audio, STFT + dB view, segmentation, predictor start,
full-clip prediction (the all-ones mask row of the run's one instance),
effects decomposition, target resolution, per-segment attribution, masked
spectrogram rendering, audio resynthesis, bundle writing. The predictor and
target strings are refused before the audio is read, every sample count the
command will draw is checked against the segments before the predictor
starts, and the predictor stops when the attribution ends. Every
computation happens before the first byte is written, and the files are
written into a hidden sibling directory that one rename publishes, so an
output directory is either complete or absent, even if the process is
killed.

In-process work runs side by side only in processes that `_spread` forks
on Linux: `explain`'s prediction blocks (after sampling) or `stability`'s
attributions on the `--workers` count, resolved once to at most one per
usable CPU (for exec:, that many children instead), and the four
resynthesised clips on the usable CPUs. Helpers share their inputs
copy-on-write and pipe their results back to the main process, which
writes everything, so no process count changes a byte.
"""

from __future__ import annotations

import json
import logging
import math
import os
import pickle
import resource
import shutil
import signal
import sys
import threading
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from . import __version__
from .audio import AudioClip, decode_wav, encode_wav
from .dsp import (
    SCALE_MAGNITUDE,
    ComplexSpectrogram,
    Spectrogram,
    StftConfig,
    griffin_lim,
    magnitude_db,
    stft,
)
from .effects import (
    EffectsMatrix,
    head_discrepancy,
    instance_effects,
    top_effect,
    write_effects_csv,
)
from .errors import (
    AudioIOError,
    ConfigError,
    MidlimeError,
    ShapeMismatchError,
    StageError,
)
from .lime import (
    Instance,
    LimeConfig,
    LimeExplanation,
    MaskBatch,
    check_sample_count,
    explain_instance,
    explanation_to_json,
    stability_score,
)
from .predictor import (
    BuiltinPredictor,
    ConstantPredictor,
    ExternalPredictor,
    PredictorCapabilities,
)
from .segmentation import (
    SegmentationConfig,
    SegmentMap,
    felzenszwalb_segment,
    write_segment_csv,
)

log = logging.getLogger("midlime")

BUNDLE_FILES = {
    "prediction": "prediction.json",
    "effects": "effects.csv",
    "explanation": "explanation.json",
    "segments": "segments.csv",
    "pos_mask": "pos_mask.csv",
    "neg_mask": "neg_mask.csv",
    "masked_pos": "masked_pos.wav",
    "masked_neg": "masked_neg.wav",
    "modified_add": "modified_add.wav",
    "modified_sub": "modified_sub.wav",
    "report": "report.json",
}

STABILITY_FILES = {
    "pairs": "stability.csv",
    "summary": "stability_summary.csv",
    "report": "report.json",
}

MODE_MASK_ONLY = "mask-only"
MODE_ADD = "add"
MODE_SUBTRACT = "subtract"


@dataclass(frozen=True)
class RunConfig:
    audio_path: str
    out_dir: str
    predictor: str = "builtin"
    target: str = "auto"
    lime: LimeConfig = field(default_factory=LimeConfig)
    segmentation: SegmentationConfig = field(default_factory=SegmentationConfig)
    stft: StftConfig = field(default_factory=StftConfig)
    gl_iterations: int = 32
    synth_gain: float = 1.0
    workers: int = 1
    batch_size: int = 256
    timeout: float = 30.0
    predictor_seed: int = 0

    def __post_init__(self):
        if self.gl_iterations < 0:
            raise ConfigError(f"gl_iterations must be >= 0, got {self.gl_iterations}")
        if not 0 <= self.synth_gain < math.inf:
            raise ConfigError(
                f"synth_gain must be finite and >= 0, got {self.synth_gain}")
        if not 0 < self.timeout < math.inf:
            raise ConfigError(
                f"timeout must be finite and positive, got {self.timeout}")
        if self.workers < 1 or self.batch_size < 1:
            raise ConfigError("workers and batch_size must be >= 1")
        if self.target != "auto" and not self.target.startswith(("mid:", "emotion:")):
            raise ConfigError(f"cannot parse target {self.target!r}; expected auto, "
                              "mid:NAME, mid:INDEX, emotion:NAME or emotion:INDEX")


@dataclass(frozen=True)
class ExplanationBundle:
    out_dir: Path
    files: dict
    report: dict
    explanation: LimeExplanation


class _Stages:
    """The run's clock: the wall time and the peak RSS at the end of each
    stage, in stage order. Only the main process enters a stage, so every
    run lists the same stages at any worker count. `lap()` records the
    innermost open stage so far; its end records it again.

    A failure inside a stage is raised as a `StageError` of that stage,
    unless it is one already.
    """

    def __init__(self):
        self.started = time.perf_counter()
        self.timings: dict = {}
        self.peaks: dict = {}
        self._open: list[tuple[str, float]] = []

    @contextmanager
    def __call__(self, name: str):
        self._open.append((name, time.perf_counter()))
        log.info("stage %s: start", name)
        try:
            yield
        except StageError:
            raise
        except (MidlimeError, OSError) as exc:
            raise StageError(name, exc) from exc
        finally:
            self.lap()
            self._open.pop()
            log.info("stage %s: %.3fs", name, self.timings[name])

    def lap(self) -> None:
        name, started = self._open[-1]
        self.timings[name] = round(time.perf_counter() - started, 6)
        self.peaks[name] = _peak_rss_mb()


def _usable_cpus() -> int:
    """How many CPUs this process may run on, by its affinity mask if any."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def make_predictor(spec_string: str, *, seed: int = 0, timeout: float = 30.0,
                   batch_size: int = 256, workers: int = 1):
    """The predictor handle of a CLI-style predictor string, not started:
    its `start()` returns the capabilities."""
    if spec_string == "builtin":
        return BuiltinPredictor(seed)
    if spec_string == "constant":
        return ConstantPredictor()
    if spec_string.startswith("exec:"):
        return ExternalPredictor(spec_string[len("exec:"):], timeout=timeout,
                                 batch_size=batch_size,
                                 children=workers)
    raise ConfigError(
        f"unknown predictor {spec_string!r}; expected builtin, constant, or exec:CMD"
    )


def _resolve_target(target: str, caps: PredictorCapabilities,
                    effects: EffectsMatrix | None,
                    emotion: np.ndarray) -> dict:
    """Map the target string, whose syntax `RunConfig` checked, to a
    concrete output dimension."""
    if target == "auto":
        if effects is None:
            raise ConfigError(
                "target=auto needs a predictor that exposes its linear head; "
                "pass an explicit mid:NAME target instead"
            )
        emotion_index = int(np.argmax(emotion))
        mid_index, effect_value = top_effect(effects, emotion_index)
        return {
            "kind": "mid",
            "index": mid_index,
            "name": caps.mid_names[mid_index],
            "auto": {
                "emotion_index": emotion_index,
                "emotion_name": caps.emotion_names[emotion_index],
                "effect_value": effect_value,
            },
        }
    kind, key = target.split(":", 1)
    names = caps.mid_names if kind == "mid" else caps.emotion_names
    if key in names:
        index = names.index(key)
    else:
        try:
            index = int(key)
        except ValueError:
            raise ConfigError(
                f"{kind} target {key!r} is neither a known name "
                f"{list(names)} nor an index"
            ) from None
        if not 0 <= index < len(names):
            raise ConfigError(
                f"{kind} index {index} out of range 0..{len(names) - 1}"
            )
    return {"kind": kind, "index": index, "name": names[index], "auto": None}


def synthesize_modified(
    original: ComplexSpectrogram,
    seg_map: SegmentMap,
    row: np.ndarray,
    mode: str,
    gain: float = 1.0,
    *,
    iterations: int = 32,
) -> AudioClip:
    """Magnitude-domain edit of the segments that the mask row `row` keeps,
    inverted to audio.

    mask-only keeps the segments and zeroes the rest; add scales them up by
    (1 + gain); subtract scales them down, clamped at zero. A gain that
    overflows the edited magnitude is a `ConfigError`. Inversion runs with
    the original phase as the starting point.
    """
    if not 0 <= gain < math.inf:
        raise ConfigError(f"gain must be finite and >= 0, got {gain}")
    if mode not in (MODE_MASK_ONLY, MODE_ADD, MODE_SUBTRACT):
        raise ConfigError(f"unknown synthesis mode {mode!r}")
    if seg_map.labels.shape != original.values.shape:
        raise ShapeMismatchError(
            f"segment map {seg_map.labels.shape} does not match "
            f"spectrogram {original.values.shape}"
        )
    selected = seg_map.pixels(row)
    magnitude = np.abs(original.values)
    # Checked below: a huge gain on a selected pixel makes inf. Selecting
    # first keeps unselected pixels at gain * 0 = 0, so only a rendering
    # that is truly infinite is refused.
    with np.errstate(over="ignore"):
        if mode == MODE_MASK_ONLY:
            edited = np.where(selected, magnitude, 0.0)
        elif mode == MODE_ADD:
            edited = magnitude + gain * (magnitude * selected)
        else:
            edited = np.maximum(magnitude - gain * (magnitude * selected), 0.0)
    del magnitude, selected
    if not np.isfinite(edited).all():
        raise ConfigError(f"gain {gain} overflows the edited magnitude")
    target = Spectrogram(values=edited, scale=SCALE_MAGNITUDE,
                         config=original.config, sample_rate=original.sample_rate)
    return griffin_lim(target, original.config, iterations, init_phase=original)


@dataclass(frozen=True)
class _Prepared:
    """What both run paths share: worker counts, input views, the instance
    that LIME masks, predictor, target, segments."""

    workers: int
    lime_workers: int
    clip: AudioClip
    cspec: ComplexSpectrogram
    instance: Instance
    predictor: object
    caps: PredictorCapabilities
    mid: np.ndarray
    emotion: np.ndarray
    effects: EffectsMatrix | None
    discrepancy: np.ndarray | None
    target: dict
    segments: dict

    @property
    def target_label(self) -> str:
        return f"{self.target['kind']}:{self.target['name']}"


def _prepare(config: RunConfig, stage: _Stages,
             counts: Sequence[int]) -> _Prepared:
    """Shared front half: the output path, the worker count and the predictor
    handle, so that a bad path or predictor string costs no work; audio,
    analysis, segmentation; then a check of each of the sample `counts` the
    command will draw against the segments, so that a count too small costs
    no predictor start; then predictor start, the predictor's input spec,
    prediction, effects and target."""
    _check_out_dir(Path(config.out_dir))
    workers = min(config.workers, _usable_cpus())
    predictor = make_predictor(
        config.predictor, seed=config.predictor_seed, timeout=config.timeout,
        batch_size=config.batch_size, workers=workers,
    )
    # exec: LIME work stays in this process: a forked helper would share the
    # gateway's pipes and children, and the gateway already spreads each
    # block over its children.
    lime_workers = 1 if isinstance(predictor, ExternalPredictor) else workers
    with stage("audio"):
        try:
            clip = decode_wav(config.audio_path)
        except FileNotFoundError as exc:
            raise AudioIOError(f"cannot read {config.audio_path}: {exc}") from exc
    with stage("analysis"):
        cspec = stft(clip, config.stft)
        dbspec = magnitude_db(cspec)
    with stage("segmentation"):
        seg_map = felzenszwalb_segment(dbspec, config.segmentation)
        segments = _segment_summary(seg_map)
    log.info("segmented into %d regions of %d to %d pixels, median %g",
             segments["count"], segments["min_area"], segments["max_area"],
             segments["median_area"])
    for count in counts:
        check_sample_count(count, seg_map.segment_count)
    with stage("predictor"):
        caps = predictor.start()
    try:
        _check_input_spec(caps, dbspec)
        with stage("prediction"):
            instance = Instance(dbspec, seg_map, config.lime.fill)
            ones = np.ones((1, seg_map.segment_count), dtype=np.uint8)
            (mid,), (emotion,) = predictor.predict(MaskBatch(instance, ones))
        effects = discrepancy = None
        if caps.linear_head is not None:
            with stage("effects"):
                effects = instance_effects(mid, caps.linear_head,
                                           caps.mid_names, caps.emotion_names)
                discrepancy = head_discrepancy(effects, emotion)
        with stage("target"):
            target_info = _resolve_target(config.target, caps, effects, emotion)
    except BaseException:
        predictor.close()
        raise
    return _Prepared(workers, lime_workers, clip, cspec, instance, predictor, caps,
                     mid, emotion, effects, discrepancy, target_info, segments)


def _segment_summary(seg_map: SegmentMap) -> dict:
    """Segment count and the smallest, median and largest area in pixels."""
    areas = np.bincount(seg_map.labels.ravel(), minlength=seg_map.segment_count)
    return {"count": seg_map.segment_count, "min_area": int(areas.min()),
            "median_area": float(np.median(areas)), "max_area": int(areas.max())}


def _check_input_spec(caps: PredictorCapabilities, dbspec: Spectrogram) -> None:
    """Refuse a spectrogram whose shape the predictor does not take."""
    for key, size in zip(("bins", "frames"), dbspec.shape):
        want = caps.input_spec[key]
        if want != "variable" and want != size:
            raise ConfigError(
                f"the predictor takes {want} {key}, the spectrogram has {size}; "
                "change the analysis settings or the clip"
            )


def _target_fn(predictor, target_info):
    position = 0 if target_info["kind"] == "mid" else 1
    index = target_info["index"]

    def fn(batch):
        return predictor.predict(batch)[position][:, index]

    return fn


def run_explanation(config: RunConfig) -> ExplanationBundle:
    """The whole workflow; returns the bundle and leaves it on disk."""
    stage = _Stages()
    prep = _prepare(config, stage, [config.lime.n_samples])
    seg_map = prep.instance.seg_map
    try:
        with stage("lime"):
            explanation = explain_instance(
                _target_fn(prep.predictor, prep.target), prep.instance,
                config.lime, target=prep.target_label,
                map=lambda fn, blocks: _spread(fn, blocks, prep.lime_workers),
            )
            # The selections as mask rows: positive, then negative.
            rows = np.zeros((2, seg_map.segment_count), dtype=np.uint8)
            rows[0, list(explanation.positive_ids)] = 1
            rows[1, list(explanation.negative_ids)] = 1
            pos_row, neg_row = rows
    finally:
        predictor_exit = prep.predictor.close()
    # Nothing predicts after this stage: free what the predictor kept on the
    # instance (an exec: run's request texts) before synthesis.
    prep.instance.forget()
    log.info("selected %d segments (%d positive, %d negative)",
             len(explanation.selected), len(explanation.positive_ids),
             len(explanation.negative_ids))
    # The mask CSVs keep the selected pixels and put the silence floor
    # elsewhere, whatever fill the attribution used.
    with stage("render"):
        spec = prep.instance.spec
        pos_mask, neg_mask = (np.where(seg_map.pixels(row), spec.values,
                                       spec.config.floor_db) for row in rows)
    # The four renderings share only read-only inputs, so they run side by
    # side as `_spread` says, on the usable CPUs whatever `--workers` says,
    # with the same bytes as one after another. Mask-only ignores the gain.
    jobs = {"masked_pos": (pos_row, MODE_MASK_ONLY),
            "masked_neg": (neg_row, MODE_MASK_ONLY),
            "modified_add": (pos_row, MODE_ADD),
            "modified_sub": (neg_row, MODE_SUBTRACT)}

    def render(job: tuple) -> AudioClip:
        return synthesize_modified(prep.cspec, seg_map, *job, config.synth_gain,
                                   iterations=config.gl_iterations)

    with stage("synthesis"):
        clips = dict(zip(jobs, _spread(render, list(jobs.values()), _usable_cpus())))

    caps = prep.caps
    names = {k: v for k, v in BUNDLE_FILES.items()
             if k != "effects" or prep.effects is not None}
    report = {
        **_report(config, prep, predictor_exit),
        "selected": {
            "total": len(explanation.selected),
            "positive": len(explanation.positive_ids),
            "negative": len(explanation.negative_ids),
        },
        "files": names,
    }

    def write(tmp: Path) -> None:
        path = {k: tmp / v for k, v in names.items()}
        _write_json(path["prediction"], {
            "mid_names": list(caps.mid_names),
            "mid": [float(v) for v in prep.mid],
            "emotion_names": list(caps.emotion_names),
            "emotion": [float(v) for v in prep.emotion],
        })
        if prep.effects is not None:
            write_effects_csv(prep.effects, caps.linear_head, path["effects"])
        _write_json(path["explanation"], explanation_to_json(explanation))
        write_segment_csv(seg_map, path["segments"])
        _write_csv(path["pos_mask"], pos_mask)
        _write_csv(path["neg_mask"], neg_mask)
        for key in ("masked_pos", "masked_neg", "modified_add", "modified_sub"):
            encode_wav(clips[key], path[key])
        _write_report(path["report"], report, stage)

    out_dir = Path(config.out_dir)
    with stage("write"):
        _publish(out_dir, write)
    return ExplanationBundle(out_dir=out_dir,
                             files={k: out_dir / v for k, v in names.items()},
                             report=report, explanation=explanation)


def _report(config: RunConfig, prep: _Prepared, predictor_exit: int | None) -> dict:
    """The report sections that both commands write: the input, every
    effective parameter, the predictor, the target and the segments."""
    caps = prep.caps
    predictor = {
        "mid_names": list(caps.mid_names),
        "emotion_names": list(caps.emotion_names),
        "has_linear_head": caps.linear_head is not None,
        "exit_code": predictor_exit,
        **prep.predictor.counters,
    }
    return {
        "version": __version__,
        "audio": {
            "path": str(config.audio_path),
            "sample_rate": prep.clip.sample_rate,
            "samples": len(prep.clip.samples),
            "duration_s": round(prep.clip.duration, 6),
        },
        "config": {
            "predictor": config.predictor,
            "predictor_seed": config.predictor_seed,
            "target_requested": config.target,
            "stft": asdict(config.stft),
            "segmentation": asdict(config.segmentation),
            "lime": config.lime.echo(),
            "gl_iterations": config.gl_iterations,
            "synth_gain": config.synth_gain,
            "workers": prep.workers,
            "batch_size": config.batch_size,
            "timeout": config.timeout,
        },
        "predictor": predictor,
        "target": prep.target,
        "prediction": {
            "mid": [float(v) for v in prep.mid],
            "emotion": [float(v) for v in prep.emotion],
        },
        "linear_head_discrepancy": (
            [float(v) for v in prep.discrepancy]
            if prep.discrepancy is not None else None
        ),
        "spectrogram": dict(zip(("bins", "frames"), prep.instance.spec.shape)),
        "segments": prep.segments,
    }


def _write_report(path: Path, report: dict, stage: _Stages) -> None:
    """Write `report` with the stage timings so far, the open `write` stage's
    up to now, the total, the CPU time so far, the peak RSS at the end of
    each of those stages that this process ran and its peak RSS now."""
    stage.lap()
    report["timings_s"] = {**stage.timings,
                           "total": round(time.perf_counter() - stage.started, 6)}
    # User plus system time of this process and of every child it reaped.
    report["cpu_s"] = round(sum(u.ru_utime + u.ru_stime for u in map(
        resource.getrusage, (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN))), 6)
    report["peak_rss_mb_by_stage"] = dict(stage.peaks)
    report["peak_rss_mb"] = _peak_rss_mb()
    _write_json(path, report)


def _peak_rss_mb() -> float:
    """This process's peak resident set so far, in MiB: the smaller of
    `ru_maxrss`, which also holds a vfork launcher's peak from before the
    exec, and Linux's `VmHWM`, which sums exact page counts and so runs a
    few hundred KiB ahead of `ru_maxrss` while the peak is live."""
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    # ru_maxrss is in bytes on macOS and in KiB elsewhere.
    peak /= 1024.0 * 1024.0 if sys.platform == "darwin" else 1024.0
    try:
        with open("/proc/self/status", "rb") as status:
            for line in status:
                if line.startswith(b"VmHWM:"):
                    return min(peak, int(line.split()[1]) / 1024.0)
    except OSError:
        pass
    return peak


def _check_out_dir(out_dir: Path) -> None:
    """Refuse an output path that the bundle could not be renamed onto."""
    if out_dir.is_symlink():
        raise ConfigError(
            f"output path {out_dir} is a symbolic link; pass a new or empty directory"
        )
    if os.path.lexists(out_dir) and (not out_dir.is_dir() or any(out_dir.iterdir())):
        raise ConfigError(
            f"output path {out_dir} exists and is not an empty directory; "
            "pass a new or empty directory"
        )
    # `_publish` creates the missing directories, so the nearest existing
    # ancestor must be a directory.
    ancestor = next(p for p in out_dir.parents if os.path.lexists(p))
    if not ancestor.is_dir():
        raise ConfigError(
            f"output path {out_dir} lies below {ancestor}, which is not a directory"
        )


def _publish(out_dir: Path, write: Callable[[Path], None]) -> None:
    """Write a bundle with `write(tmp)`, then publish `tmp` as `out_dir`.

    `tmp` is a fresh hidden sibling, `.<name>.<random>`, made by a plain
    mkdir so that it gets the mode `out_dir` would get. One rename, which
    replaces an absent or empty `out_dir`, publishes it, and any exception
    removes it. A killed process may leave `tmp` behind, but never a partial
    `out_dir`.
    """
    out_dir.parent.mkdir(parents=True, exist_ok=True)
    tmp = out_dir.parent / f".{out_dir.name}.{os.urandom(6).hex()}"
    tmp.mkdir()
    try:
        write(tmp)
        os.rename(tmp, out_dir)
    except BaseException:
        shutil.rmtree(tmp, ignore_errors=True)
        raise


def _write_csv(path: Path, values: np.ndarray) -> None:
    """The bytes of ``np.savetxt(path, values, fmt="%.17g", delimiter=",")``.

    Each distinct value, keyed by its bit pattern so that -0.0 keeps its
    own text, is formatted once. `values` is 2-D; most pixels of a masked
    spectrogram hold the floor, so it has far fewer distinct values than cells.
    """
    bits = np.ascontiguousarray(values, dtype=np.float64).view(np.uint64)
    keys, inverse = np.unique(bits, return_inverse=True)
    texts = np.array(["%.17g" % v for v in keys.view(np.float64).tolist()], dtype=object)
    rows = texts[inverse.reshape(bits.shape)].tolist()
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("".join(",".join(row) + "\n" for row in rows))


def _write_json(path: Path, payload: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")


def run_stability(config: RunConfig, seeds: Sequence[int],
                  sample_counts: Sequence[int]) -> dict:
    """Re-run the attribution per (seed, sample count); write Jaccard tables.

    Returns {sample_count: {"score": StabilityScore, "selected_counts": [...]}}
    and writes stability.csv (pairwise), stability_summary.csv and a
    report.json whose `runs` hold the time and selected count of each
    attribution. The attributions are the items of one `lime` stage, spread
    over the resolved workers as `_spread` says, with the same bytes as one
    after another. A failing attribution is a `StageError` named
    `lime[n=N,seed=S]`.
    """
    seeds = [int(s) for s in seeds]
    sample_counts = [int(c) for c in sample_counts]
    if len(seeds) < 2:
        raise ConfigError(f"stability needs at least 2 seeds, got {len(seeds)}")
    if not sample_counts:
        raise ConfigError("stability needs at least one sample count")
    # A repeat would compare a seed with itself, or write a count's rows twice.
    for name, values in (("seed", seeds), ("sample count", sample_counts)):
        repeated = sorted({v for v in values if values.count(v) > 1})
        if repeated:
            raise ConfigError(f"stability {name}s must differ; repeated: "
                              f"{', '.join(map(str, repeated))}")

    # Built up front, so that a bad count is refused before any work; count
    # by count, seed by seed.
    lime_configs = [replace(config.lime, seed=seed, n_samples=count)
                    for count in sample_counts for seed in seeds]

    stage = _Stages()
    prep = _prepare(config, stage, sample_counts)
    fn = _target_fn(prep.predictor, prep.target)

    def attribute(lime: LimeConfig) -> tuple[LimeExplanation, float]:
        name = f"lime[n={lime.n_samples},seed={lime.seed}]"
        started = time.perf_counter()
        try:
            explanation = explain_instance(fn, prep.instance, lime,
                                           target=prep.target_label)
        except (MidlimeError, OSError) as exc:
            raise StageError(name, exc) from exc
        seconds = round(time.perf_counter() - started, 6)
        log.info("attribution %s: %.3fs", name, seconds)
        return explanation, seconds

    try:
        # Each attribution names its own failure; a helper that dies fails
        # the stage.
        with stage("lime"):
            done = _spread(attribute, lime_configs, prep.lime_workers)
    finally:
        predictor_exit = prep.predictor.close()
    explanations = [explanation for explanation, _ in done]
    runs = [{"sample_count": lime.n_samples, "seed": lime.seed, "lime_s": seconds,
             "selected": len(explanation.selected)}
            for lime, (explanation, seconds) in zip(lime_configs, done)]
    results: dict = {}
    for k, count in enumerate(sample_counts):
        of_count = explanations[k * len(seeds):(k + 1) * len(seeds)]
        results[count] = {
            "score": stability_score(of_count),
            "selected_counts": [len(e.selected) for e in of_count],
        }
    report = _report(config, prep, predictor_exit)
    # Each run takes its seed and sample count from these lists, and no
    # run synthesises audio.
    echo = report["config"]
    del echo["lime"]["n_samples"], echo["lime"]["seed"]
    del echo["gl_iterations"], echo["synth_gain"]
    echo.update(seeds=seeds, sample_counts=sample_counts)
    report.update(runs=runs, files=STABILITY_FILES)

    def write(tmp: Path) -> None:
        with open(tmp / STABILITY_FILES["pairs"], "w", encoding="utf-8") as fh:
            fh.write("sample_count,seed_i,seed_j,jaccard\n")
            for count in sample_counts:
                for i, j, value in results[count]["score"].per_pair:
                    fh.write(f"{count},{seeds[i]},{seeds[j]},{value!r}\n")
        with open(tmp / STABILITY_FILES["summary"], "w", encoding="utf-8") as fh:
            fh.write("sample_count,mean_pairwise_jaccard,seeds,selected_counts\n")
            for count in sample_counts:
                score = results[count]["score"]
                counts = " ".join(str(c) for c in results[count]["selected_counts"])
                fh.write(f"{count},{score.mean_pairwise_jaccard!r},"
                         f"{' '.join(map(str, seeds))},{counts}\n")
        _write_report(tmp / STABILITY_FILES["report"], report, stage)

    with stage("write"):
        _publish(Path(config.out_dir), write)
    return results


def _spread(run: Callable, items: Sequence, processes: int) -> list:
    """`[run(item) for item in items]`, with item i run in process i mod P.

    P = min(`processes`, len(items)) on Linux when no other Python thread is
    alive, else 1. Process 0 is this one; P - 1 forked helpers share
    everything copy-on-write, pipe back their pickled results and exit.
    Each process stops at its first failure; once all are reaped, the
    lowest index's failure is raised as it was raised, as one process
    would. A helper that ends without sending its results is a
    `MidlimeError` at once. No helper outlives this call.
    """
    processes = min(processes, len(items))
    # macOS system libraries are not fork-safe, and a fork copies only the
    # calling thread of a threaded caller.
    if processes <= 1 or sys.platform != "linux" or threading.active_count() > 1:
        return [run(item) for item in items]

    done = [None] * len(items)
    failures = []

    def collect(p: int, made: list, failure: Exception | None) -> None:
        done[p:p + len(made) * processes:processes] = made
        if failure is not None:
            failures.append((p + len(made) * processes, failure))

    helpers: dict[int, int] = {}   # pid -> read end of its pipe, until reaped
    try:
        for p in range(1, processes):
            read, write = os.pipe()
            try:
                pid = os.fork()
            except OSError:
                os.close(read)
                os.close(write)
                raise
            if pid == 0:
                _helper(write, [*helpers.values(), read], run, items[p::processes])
            os.close(write)
            helpers[pid] = read
        collect(0, *_run_share(run, items[::processes]))
        for p, pid in enumerate(list(helpers), 1):
            # To EOF before the wait: a share may not fit in the pipe buffer.
            with open(helpers[pid], "rb", closefd=False) as pipe:
                data = pipe.read()
            _, status = os.waitpid(pid, 0)
            os.close(helpers.pop(pid))
            # A helper exits with 0 only once it has sent all it made.
            code = os.waitstatus_to_exitcode(status)
            if code != 0:
                how = (f"was killed by signal {-code}" if code < 0
                       else f"exited with code {code}")
                raise MidlimeError(f"helper process {pid} {how} before it "
                                   "sent all its results")
            collect(p, *pickle.loads(data))
        if failures:
            raise min(failures, key=lambda f: f[0])[1]
    finally:
        for pid, read in helpers.items():
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            os.close(read)
    return done


def _run_share(run: Callable, share: Sequence) -> tuple[list, Exception | None]:
    """`run` each item of `share` until one fails; the results and failure."""
    made = []
    try:
        for item in share:
            made.append(run(item))
    except Exception as exc:
        return made, exc
    return made, None


def _helper(write: int, inherited: list[int], run: Callable, share: Sequence):
    """A forked helper's whole life: close the pipe ends that belong to
    others, run its share, send the pickled (results, failure) down `write`
    and exit with 0, or with 1 if it cannot send them all."""
    code = 1
    try:
        for fd in inherited:
            os.close(fd)
        data = pickle.dumps(_run_share(run, share))
        with open(write, "wb") as pipe:
            pipe.write(data)
        code = 0
    finally:
        os._exit(code)
