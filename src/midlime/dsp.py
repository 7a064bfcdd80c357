"""Short-time Fourier analysis and synthesis.

Conventions used throughout:

* Analysis frame ``t`` is the windowed DFT of ``samples[t*hop : t*hop + frame]``;
  no padding, so the frame count is ``(len - frame) // hop + 1``.
* Inversion is the least-squares overlap-add estimate: frames are windowed
  again and the sum is divided by the accumulated squared window. With this
  inverse the Griffin-Lim spectral error is non-increasing by construction.
* dB conversion is ``20*log10(|X| + 1e-10)`` clamped at a floor; the epsilon
  only guards against -inf, the clamp dominates it.
"""

from __future__ import annotations

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

SCALE_DB = "db"
SCALE_MAGNITUDE = "magnitude"

_LOG_EPS = 1e-10


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
    values = _analyse(x, window_samples(config.window, frame), hop).T.copy()
    return ComplexSpectrogram(values=values, config=config, sample_rate=clip.sample_rate)


def _analyse(x: np.ndarray, window: np.ndarray, hop: int) -> np.ndarray:
    """Frame-major STFT: row ``t`` holds the spectrum of frame ``t``."""
    frames = np.lib.stride_tricks.sliding_window_view(x, len(window))[::hop]
    return np.fft.rfft(frames * window, axis=1)


def istft(spec: ComplexSpectrogram) -> AudioClip:
    """Least-squares inverse of stft; output spans (frames-1)*hop + frame samples."""
    samples = _istft_array(spec.values, spec.config)
    return AudioClip(samples=samples, sample_rate=spec.sample_rate)


def _istft_array(values: np.ndarray, config: StftConfig) -> np.ndarray:
    w = window_samples(config.window, config.frame_size)
    den = _window_sum(w, config.hop_size, values.shape[1])
    return _synthesise(values.T, w, config.hop_size, den)


def _window_sum(window: np.ndarray, hop: int, n_frames: int) -> np.ndarray:
    """The overlap-added squared window, the denominator of the inverse."""
    return _overlap_add(np.broadcast_to(window * window, (n_frames, len(window))), hop)


def _synthesise(spec: np.ndarray, window: np.ndarray, hop: int,
                den: np.ndarray) -> np.ndarray:
    """Least-squares overlap-add inverse of a frame-major spectrum."""
    frames = np.fft.irfft(spec, n=len(window), axis=1)
    frames *= window
    num = _overlap_add(frames, hop)
    return np.divide(num, den, out=np.zeros_like(num), where=den > 0)


def _overlap_add(frames: np.ndarray, hop: int) -> np.ndarray:
    """Sum hop-spaced rows into one signal of (rows-1)*hop + frame samples.

    Each frame is cut into hop-sized chunks (the last one partial when hop
    does not divide the frame), and chunk ``c`` of every frame is added at
    once. Going from the last chunk to the first adds the frames covering a
    sample in increasing frame order, starting from 0.0, which is the order
    of a per-frame loop, so the sums have the same bits.
    """
    n_frames, frame = frames.shape
    chunks = -(-frame // hop)
    out = np.zeros((n_frames - 1 + chunks) * hop)
    blocks = out.reshape(-1, hop)
    for c in range(chunks - 1, -1, -1):
        part = frames[:, c * hop:(c + 1) * hop]
        blocks[c:c + n_frames, :part.shape[1]] += part
    return out[:(n_frames - 1) * hop + frame]


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
    clip, _ = _griffin_lim(target_magnitude, config, iterations, init_phase, seed,
                           trace=False)
    return clip


def griffin_lim_trace(
    target_magnitude: Spectrogram,
    config: StftConfig | None = None,
    iterations: int = 60,
    init_phase: ComplexSpectrogram | None = None,
    seed: int = 0,
) -> tuple[AudioClip, np.ndarray]:
    """griffin_lim plus the spectral-error trajectory (length iterations + 1)."""
    return _griffin_lim(target_magnitude, config, iterations, init_phase, seed,
                        trace=True)


def _griffin_lim(
    target_magnitude: Spectrogram,
    config: StftConfig | None,
    iterations: int,
    init_phase: ComplexSpectrogram | None,
    seed: int,
    trace: bool,
) -> tuple[AudioClip, np.ndarray]:
    """The loop behind both entry points; only a trace pays for the errors
    and for the analysis of the final signal, which only the errors use."""
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
    # contiguous rows, and the squared-window sum is computed once.
    target = np.ascontiguousarray(target.T)
    if init_phase is None:
        phase = 2.0 * np.pi * rng.uniform_grid(
            seed, np.arange(target.shape[1]), np.arange(target.shape[0])
        ).T
        spec = target * np.exp(1j * phase)
    else:
        spec = np.array(init_phase.values.T, order="C")
        _project(spec, target, np.abs(spec))
    w = window_samples(cfg.window, cfg.frame_size)
    hop = cfg.hop_size
    den = _window_sum(w, hop, target.shape[0])
    # Each spectrum is dropped once it is synthesised, so that no two are
    # alive while the next one is analysed.
    x = _synthesise(spec, w, hop, den)
    del spec
    errors = []
    for _ in range(iterations):
        spec = _analyse(x, w, hop)
        magnitude = np.abs(spec)
        if trace:
            errors.append(float(np.linalg.norm(magnitude - target)))
        _project(spec, target, magnitude)
        del magnitude
        x = _synthesise(spec, w, hop, den)
        del spec
    if trace:
        errors.append(float(np.linalg.norm(np.abs(_analyse(x, w, hop)) - target)))
    clip = AudioClip(samples=x, sample_rate=target_magnitude.sample_rate)
    return clip, np.asarray(errors)


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
