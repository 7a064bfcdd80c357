"""Benchmark inputs: seeded test clips written as 16-bit PCM WAV files.

The recipes are kept here rather than imported from the test suite or the
package, so that edits there cannot move the benchmark. The 3 s clip follows
the test fixture: a sustained pad chord with four short noise bursts. The
6 s clip continues the burst pattern every 0.75 s, and the 1 s clip is the
first second of the 3 s clip. The workload seed picks the burst noise; seed
0 reproduces the test fixture's noise exactly.
"""

from __future__ import annotations

import wave
from pathlib import Path

import numpy as np

SAMPLE_RATE = 22050
BURST_PERIOD_S = 0.75
FIRST_ONSET_S = 0.25
BURST_LENGTH_S = 0.09

_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_M1 = np.uint64(0xBF58476D1CE4E5B9)
_M2 = np.uint64(0x94D049BB133111EB)


def _mix64(z: np.ndarray) -> np.ndarray:
    """splitmix64 finalizer; uint64 products wrap mod 2**64."""
    z = np.asarray(z, dtype=np.uint64)
    with np.errstate(over="ignore"):
        z = (z ^ (z >> np.uint64(30))) * _M1
        z = (z ^ (z >> np.uint64(27))) * _M2
    return z ^ (z >> np.uint64(31))


def uniform_noise(seed: int, n: int) -> np.ndarray:
    """White noise in [-1, 1): the counter generator at (seed, row 0, col i)."""
    with np.errstate(over="ignore"):
        key = _mix64(np.uint64(seed & 0xFFFFFFFFFFFFFFFF) + _GAMMA)
        row = _mix64(key ^ np.uint64(0))
        cells = _mix64(row ^ (np.arange(n, dtype=np.uint64) * _GAMMA))
    return 2.0 * ((cells >> np.uint64(11)) * 2.0 ** -53) - 1.0


def burst_clip(duration_s: float, seed: int) -> np.ndarray:
    """Pad chord plus a decaying noise burst every 0.75 s from 0.25 s on."""
    t = np.arange(int(duration_s * SAMPLE_RATE)) / SAMPLE_RATE
    x = (0.12 * np.sin(2 * np.pi * 220.0 * t) + 0.10 * np.sin(2 * np.pi * 277.18 * t)
         + 0.08 * np.sin(2 * np.pi * 329.63 * t))
    n = int(BURST_LENGTH_S * SAMPLE_RATE)
    envelope = np.exp(-np.arange(n) / (0.012 * SAMPLE_RATE))
    k = 0
    while FIRST_ONSET_S + k * BURST_PERIOD_S + BURST_LENGTH_S < duration_s:
        i0 = int((FIRST_ONSET_S + k * BURST_PERIOD_S) * SAMPLE_RATE)
        x[i0:i0 + n] += 0.22 * uniform_noise(90 + k + 1000 * seed, n) * envelope
        k += 1
    return np.clip(x, -0.98, 0.98)


def clip_for(recipe: str, seed: int) -> np.ndarray:
    if recipe == "3s":
        return burst_clip(3.0, seed)
    if recipe == "6s":
        return burst_clip(6.0, seed)
    if recipe == "1s":
        return burst_clip(3.0, seed)[:SAMPLE_RATE]
    raise ValueError(f"unknown clip recipe {recipe!r}")


def quantize_pcm16(x: np.ndarray) -> np.ndarray:
    """Round half away from zero at full scale 32768, clipped to int16."""
    y = np.clip(x, -1.0, 1.0) * 32768.0
    q = np.where(y >= 0, np.floor(y + 0.5), np.ceil(y - 0.5))
    return np.clip(q, -32768, 32767).astype("<i2")


def write_wav(path: Path, pcm: np.ndarray) -> None:
    with wave.open(str(path), "wb") as fh:
        fh.setnchannels(1)
        fh.setsampwidth(2)
        fh.setframerate(SAMPLE_RATE)
        fh.writeframes(pcm.astype("<i2").tobytes())


def read_wav(path: Path) -> tuple[np.ndarray, int]:
    """Mono PCM16 samples as float64 in [-1, 1), and the sample rate."""
    with wave.open(str(path), "rb") as fh:
        if fh.getnchannels() != 1 or fh.getsampwidth() != 2:
            raise ValueError(f"{path.name}: expected mono 16-bit PCM")
        rate = fh.getframerate()
        raw = fh.readframes(fh.getnframes())
    return np.frombuffer(raw, dtype="<i2").astype(np.float64) / 32768.0, rate
