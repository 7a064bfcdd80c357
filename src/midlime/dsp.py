"""Short-time Fourier analysis and synthesis.

Conventions used throughout:

* Analysis frame ``t`` is the windowed DFT of ``samples[t*hop : t*hop + frame]``;
  no padding, so the frame count is ``(len - frame) // hop + 1``.
* Inversion is the least-squares overlap-add estimate: frames are windowed
  again and the sum is divided by the accumulated squared window. With this
  inverse the Griffin-Lim spectral error is non-increasing by construction.
* Griffin-Lim iterates only the frames whose target magnitude is not all
  zero. A silent frame would add only +-0 to the overlap-add sum, so
  skipping it changes no bit (see `_griffin_lim`); a mask-only target is
  silent outside its segments, so most of its frames are skipped.
* dB conversion is ``20*log10(|X| + 1e-10)`` clamped at a floor; the epsilon
  only guards against -inf, the clamp dominates it.
"""

from __future__ import annotations

import logging
import math
from collections.abc import Iterable, Iterator
from dataclasses import dataclass

import numpy as np

from . import rng
from .audio import AudioClip
from .errors import (
    ConfigError,
    InputTooShortError,
    ScaleMismatchError,
    ShapeMismatchError,
)

log = logging.getLogger(__name__)

SCALE_DB = "db"
SCALE_MAGNITUDE = "magnitude"

_LOG_EPS = 1e-10

# Frames per block in synthesis and in Griffin-Lim's re-analysis; Griffin-Lim
# cuts its blocks at the edges of each run of live frames as well. Each frame
# is transformed on its own and the frames covering a sample are added in
# increasing frame order whatever the block, so it sets memory and speed,
# never bits. At 2048-sample frames a block's temporaries are about 2 MB,
# which stays in a core's L2; 64 was slower and 96 slower still.
_FRAME_BLOCK = 32


def window_samples(kind: str, frame_size: int) -> np.ndarray:
    """Analysis window of the given kind (periodic variant)."""
    if kind == "hann":
        n = np.arange(frame_size)
        return 0.5 - 0.5 * np.cos(2.0 * np.pi * n / frame_size)
    if kind == "rect":
        return np.ones(frame_size)
    raise ConfigError(f"unknown window kind '{kind}'")


def _overlap_add_is_constant(window: np.ndarray, hop: int) -> bool:
    # Overlap-add a stack of shifted windows and test the fully covered
    # interior for constancy.
    frame = len(window)
    shifts = frame // hop + 8
    total = np.zeros(hop * shifts + frame)
    for i in range(shifts):
        total[i * hop:i * hop + frame] += window
    interior = total[frame:hop * shifts]
    if interior.size == 0:
        return False
    mean = interior.mean()
    return mean > 0 and (interior.max() - interior.min()) <= 1e-8 * mean


@dataclass(frozen=True)
class StftConfig:
    """Analysis parameters; the window/hop pair must overlap-add to a constant."""

    frame_size: int = 2048
    hop_size: int = 512
    window: str = "hann"
    floor_db: float = -80.0

    def __post_init__(self):
        if self.frame_size < 2 or self.frame_size & (self.frame_size - 1):
            raise ConfigError(f"frame_size must be a power of two, got {self.frame_size}")
        if not 0 < self.hop_size <= self.frame_size:
            raise ConfigError(
                f"hop_size must be in (0, frame_size], got {self.hop_size}"
            )
        if not np.isfinite(self.floor_db):
            raise ConfigError("floor_db must be finite")
        w = window_samples(self.window, self.frame_size)
        if not _overlap_add_is_constant(w, self.hop_size):
            raise ConfigError(
                f"window '{self.window}' does not overlap-add to a constant "
                f"at hop {self.hop_size} (inversion would be lossy)"
            )

    @property
    def bin_count(self) -> int:
        return self.frame_size // 2 + 1


@dataclass(frozen=True)
class ComplexSpectrogram:
    """One-sided complex STFT, shape (frame_size/2 + 1, frames)."""

    values: np.ndarray
    config: StftConfig
    sample_rate: int

    def __post_init__(self):
        values = np.asarray(self.values, dtype=np.complex128)
        if values.ndim != 2:
            raise ShapeMismatchError(f"expected 2-D values, got shape {values.shape}")
        if values.shape[0] != self.config.bin_count:
            raise ShapeMismatchError(
                f"{values.shape[0]} rows inconsistent with frame_size "
                f"{self.config.frame_size} (expected {self.config.bin_count})"
            )
        if not np.all(np.isfinite(values.real)) or not np.all(np.isfinite(values.imag)):
            raise ValueError("complex spectrogram contains non-finite values")
        object.__setattr__(self, "values", values)

    @property
    def shape(self) -> tuple[int, int]:
        return self.values.shape


@dataclass(frozen=True)
class Spectrogram:
    """Real spectrogram in either dB or linear-magnitude scale."""

    values: np.ndarray
    scale: str
    config: StftConfig
    sample_rate: int

    def __post_init__(self):
        values = np.asarray(self.values, dtype=np.float64)
        if values.ndim != 2:
            raise ShapeMismatchError(f"expected 2-D values, got shape {values.shape}")
        if not np.all(np.isfinite(values)):
            raise ValueError("spectrogram contains non-finite values")
        if self.scale == SCALE_DB:
            if values.size and values.min() < self.config.floor_db:
                raise ValueError(
                    f"dB values below floor {self.config.floor_db}: min {values.min()}"
                )
        elif self.scale == SCALE_MAGNITUDE:
            if values.size and values.min() < 0:
                raise ValueError("linear magnitudes must be non-negative")
        else:
            raise ScaleMismatchError(f"unknown scale '{self.scale}'")
        object.__setattr__(self, "values", values)

    @property
    def shape(self) -> tuple[int, int]:
        return self.values.shape


def stft(clip: AudioClip, config: StftConfig) -> ComplexSpectrogram:
    """Forward STFT; frames are hop-spaced windows with no padding."""
    x = clip.samples
    frame, hop = config.frame_size, config.hop_size
    if len(x) < frame:
        raise InputTooShortError(
            f"clip of {len(x)} samples is shorter than one frame ({frame})"
        )
    window = window_samples(config.window, frame)
    values = _analyse(_frames(x, frame, hop), window).T.copy()
    return ComplexSpectrogram(values=values, config=config, sample_rate=clip.sample_rate)


def _frames(x: np.ndarray, frame: int, hop: int) -> np.ndarray:
    """The analysis frames of `x` as a read-only strided view, one per row."""
    return np.lib.stride_tricks.sliding_window_view(x, frame)[::hop]


def _analyse(frames: np.ndarray, window: np.ndarray) -> np.ndarray:
    """Frame-major STFT of `frames`: row ``t`` holds the spectrum of row ``t``."""
    return np.fft.rfft(frames * window, axis=1)


def istft(spec: ComplexSpectrogram) -> AudioClip:
    """Least-squares inverse of stft; output spans (frames-1)*hop + frame samples."""
    config = spec.config
    w = window_samples(config.window, config.frame_size)
    n_frames = spec.values.shape[1]
    den = _window_sum(w, config.hop_size, n_frames)
    frame_major = spec.values.T
    samples = _synthesise(((t, frame_major[t:t + _FRAME_BLOCK])
                           for t in range(0, n_frames, _FRAME_BLOCK)),
                          w, config.hop_size, den)
    return AudioClip(samples=samples, sample_rate=spec.sample_rate)


def _window_sum(window: np.ndarray, hop: int, n_frames: int) -> np.ndarray:
    """The overlap-added squared window, the denominator of the inverse."""
    out = _overlap_zeros(n_frames, len(window), hop)
    _overlap_add(out, np.broadcast_to(window * window, (n_frames, len(window))), 0, hop)
    return out[:(n_frames - 1) * hop + len(window)]


def _synthesise(spectra: Iterable[tuple[int, np.ndarray]], window: np.ndarray,
                hop: int, den: np.ndarray) -> np.ndarray:
    """Least-squares overlap-add inverse of a frame-major spectrum.

    `spectra` gives ``(first_frame, rows)`` blocks in increasing frame
    order; each block is inverted, windowed and added into the output from
    frame ``first_frame`` on before the next is read. A frame that no block
    holds adds nothing.
    """
    frame = len(window)
    out = _overlap_zeros((len(den) - frame) // hop + 1, frame, hop)
    for first, spec in spectra:
        frames = np.fft.irfft(spec, n=frame, axis=1)
        frames *= window
        _overlap_add(out, frames, first, hop)
    num = out[:len(den)]
    return np.divide(num, den, out=np.zeros_like(num), where=den > 0)


def _overlap_zeros(n_frames: int, frame: int, hop: int) -> np.ndarray:
    """The zeroed sum that `_overlap_add` adds `n_frames` frames into: whole
    hops, (frames-1)*hop + frame samples rounded up."""
    return np.zeros((n_frames - 1 + -(-frame // hop)) * hop)


def _overlap_add(out: np.ndarray, frames: np.ndarray, first: int, hop: int) -> None:
    """Add hop-spaced rows, frame `first` onward, into `out` in place.

    Each frame is cut into hop-sized chunks (the last one partial when hop
    does not divide the frame), and chunk ``c`` of every frame is added at
    once. Going from the last chunk to the first adds the frames covering a
    sample in increasing frame order. Blocks added in frame order into one
    zeroed `out` therefore give every sample the sum of a per-frame loop
    that starts from 0.0, with the same bits.
    """
    n_frames, frame = frames.shape
    blocks = out.reshape(-1, hop)
    for c in range(-(-frame // hop) - 1, -1, -1):
        part = frames[:, c * hop:(c + 1) * hop]
        blocks[first + c:first + c + n_frames, :part.shape[1]] += part


def magnitude_db(spec: ComplexSpectrogram) -> Spectrogram:
    """Magnitude in dB, clamped at the config's floor."""
    values = np.maximum(20.0 * np.log10(np.abs(spec.values) + _LOG_EPS),
                        spec.config.floor_db)
    return Spectrogram(values=values, scale=SCALE_DB, config=spec.config,
                       sample_rate=spec.sample_rate)


def griffin_lim(
    target_magnitude: Spectrogram,
    config: StftConfig | None = None,
    iterations: int = 60,
    init_phase: ComplexSpectrogram | None = None,
    seed: int = 0,
) -> AudioClip:
    """Iterative phase retrieval for a linear-magnitude target.

    Starts from the given phase (or seed-derived random phase), then
    alternates inversion and re-analysis, replacing the magnitude with the
    target each round. The per-iteration spectral error
    ``|| |STFT(x_i)| - target ||_F`` never increases.
    """
    for x in _griffin_lim(target_magnitude, config, iterations, init_phase, seed):
        pass
    return AudioClip(samples=x, sample_rate=target_magnitude.sample_rate)


def griffin_lim_trace(
    target_magnitude: Spectrogram,
    config: StftConfig | None = None,
    iterations: int = 60,
    init_phase: ComplexSpectrogram | None = None,
    seed: int = 0,
) -> tuple[AudioClip, np.ndarray]:
    """griffin_lim plus the spectral-error trajectory (length iterations + 1):
    the error of the initial signal, then of each iteration's."""
    cfg = target_magnitude.config if config is None else config
    errors = []
    for x in _griffin_lim(target_magnitude, cfg, iterations, init_phase, seed):
        errors.append(_spectral_error(x, target_magnitude.values, cfg))
    clip = AudioClip(samples=x, sample_rate=target_magnitude.sample_rate)
    return clip, np.asarray(errors)


def _griffin_lim(
    target_magnitude: Spectrogram,
    config: StftConfig | None,
    iterations: int,
    init_phase: ComplexSpectrogram | None,
    seed: int,
) -> Iterator[np.ndarray]:
    """The loop behind both entry points: yields the signal after the
    initial synthesis and after each iteration.

    It analyses, projects and resynthesises only the live frames, those
    whose target column is not all zero. Skipping a silent frame changes no
    bit. It projects to a spectrum of +-0 whatever its phase, so its
    ``irfft`` and its window product are +-0 as well. The overlap-add sum
    starts at +0.0 and never becomes -0.0, because round to nearest gives
    -0.0 only for (-0) + (-0); adding +-0 to it is therefore the identity,
    and the live frames are still added in increasing frame order. Random
    starting phases depend only on (bin, frame), so a live frame starts
    where it would if every frame were visited.
    """
    if target_magnitude.scale != SCALE_MAGNITUDE:
        raise ScaleMismatchError(
            f"target must be linear magnitude, got scale '{target_magnitude.scale}'"
        )
    if iterations < 0:
        raise ConfigError(f"iterations must be >= 0, got {iterations}")
    cfg = target_magnitude.config if config is None else config
    target = target_magnitude.values
    if target.shape[0] != cfg.bin_count:
        raise ShapeMismatchError(
            f"target has {target.shape[0]} bins, config expects {cfg.bin_count}"
        )
    if init_phase is not None and init_phase.values.shape != target.shape:
        raise ShapeMismatchError(
            f"init_phase shape {init_phase.values.shape} != target {target.shape}"
        )

    # Frame-major from here on: row t is frame t, so every FFT runs along
    # contiguous rows, and the squared-window sum is computed once. Every
    # pass walks the blocks, at most `_FRAME_BLOCK` frames each, so no
    # full-size spectrum, frame array or magnitude is ever held.
    live = target.any(axis=0)
    blocks = _live_blocks(live)
    log.info("griffin-lim iterates %d of %d frames", np.count_nonzero(live), len(live))
    target = target.T
    n_frames, bins = target.shape
    w = window_samples(cfg.window, cfg.frame_size)
    hop = cfg.hop_size
    den = _window_sum(w, hop, n_frames)

    def initial(t: int, stop: int) -> np.ndarray:
        block = target[t:stop]
        if init_phase is None:
            phase = 2.0 * np.pi * rng.uniform_grid(
                seed, np.arange(bins), np.arange(t, stop)).T
            return block * np.exp(1j * phase)
        spec = np.array(init_phase.values[:, t:stop].T, order="C")
        _project(spec, block, np.abs(spec))
        return spec

    def reprojected(x: np.ndarray) -> Iterator[tuple[int, np.ndarray]]:
        """The spectra of `x`'s frames in `blocks` given the target
        magnitude, as ``(first_frame, rows)`` pairs."""
        frames = _frames(x, len(w), hop)
        for t, stop in blocks:
            spec = _analyse(frames[t:stop], w)
            _project(spec, target[t:stop], np.abs(spec))
            yield t, spec

    x = _synthesise(((t, initial(t, stop)) for t, stop in blocks), w, hop, den)
    yield x
    for _ in range(iterations):
        x = _synthesise(reprojected(x), w, hop, den)
        yield x


def _spectral_error(x: np.ndarray, target: np.ndarray, config: StftConfig) -> float:
    """``|| |STFT(x)| - target ||_F`` over every frame of the bin-major
    `target`: the squares summed per block of `_FRAME_BLOCK` frames, and
    the blocks' sums added by `math.fsum`."""
    w = window_samples(config.window, config.frame_size)
    frames = _frames(x, len(w), config.hop_size)
    target = target.T
    return math.sqrt(math.fsum(
        float(np.square(np.abs(_analyse(frames[t:t + _FRAME_BLOCK], w))
                        - target[t:t + _FRAME_BLOCK]).sum())
        for t in range(0, len(target), _FRAME_BLOCK)))


def _live_blocks(live: np.ndarray) -> list[tuple[int, int]]:
    """``(start, stop)`` frame ranges of at most `_FRAME_BLOCK` frames that
    cover the True entries of `live` in order, cut at the edges of each run
    of them."""
    edges = np.flatnonzero(np.diff(live, prepend=False, append=False))
    return [(t, min(t + _FRAME_BLOCK, stop))
            for start, stop in edges.reshape(-1, 2).tolist()
            for t in range(start, stop, _FRAME_BLOCK)]


def _project(spec: np.ndarray, target: np.ndarray, magnitude: np.ndarray) -> None:
    """Give ``spec`` the target magnitude and keep its phase, in place.

    ``spec * (target / |spec|)``, the real scale applied to the real and
    imaginary parts; a cell with ``|spec| == 0`` takes phase 0. ``magnitude``
    is ``|spec|`` and is overwritten with the scale.
    """
    zero = magnitude == 0.0
    scale = np.divide(target, magnitude, out=magnitude, where=~zero)
    spec.real *= scale
    spec.imag *= scale
    if zero.any():
        spec[zero] = target[zero]
