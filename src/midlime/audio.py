"""Minimal WAV audio I/O.

Reads RIFF/WAVE containers holding 16-bit PCM or 32-bit IEEE float samples,
mono or stereo (stereo is downmixed by channel mean). Writes 16-bit PCM mono.
Nothing else: codec plumbing is deliberately out of scope.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import UnsupportedFormatError, WavDecodeError

_PCM = 1
_IEEE_FLOAT = 3


@dataclass(frozen=True)
class AudioClip:
    """Mono audio as float64 samples, nominally in [-1, 1]."""

    samples: np.ndarray
    sample_rate: int

    def __post_init__(self):
        samples = np.asarray(self.samples, dtype=np.float64)
        if samples.ndim != 1:
            raise ValueError(f"samples must be 1-D, got shape {samples.shape}")
        if not np.all(np.isfinite(samples)):
            raise ValueError("samples contain NaN or Inf")
        if self.sample_rate <= 0:
            raise ValueError(f"sample_rate must be positive, got {self.sample_rate}")
        object.__setattr__(self, "samples", samples)

    @property
    def duration(self) -> float:
        return len(self.samples) / self.sample_rate


def decode_wav(path: str | Path) -> AudioClip:
    """Read a WAV file into a normalized mono clip.

    Raises WavDecodeError (naming the offending chunk) for malformed
    containers and UnsupportedFormatError for codecs outside the
    PCM16/float32, mono/stereo subset.
    """
    data = Path(path).read_bytes()
    if len(data) < 12:
        raise WavDecodeError("file too short for a RIFF header", chunk="RIFF")
    if data[0:4] != b"RIFF":
        raise WavDecodeError("missing RIFF magic", chunk="RIFF")
    if data[8:12] != b"WAVE":
        raise WavDecodeError("RIFF form type is not WAVE", chunk="WAVE")

    fmt = payload = None
    pos = 12
    while pos + 8 <= len(data):
        cid = data[pos:pos + 4]
        (size,) = struct.unpack_from("<I", data, pos + 4)
        body = data[pos + 8:pos + 8 + size]
        if len(body) < size:
            raise WavDecodeError(
                f"chunk '{cid.decode('ascii', 'replace')}' truncated "
                f"({len(body)} of {size} bytes)",
                chunk=cid.decode("ascii", "replace"),
            )
        if cid == b"fmt ":
            if size < 16:
                raise WavDecodeError("fmt chunk shorter than 16 bytes", chunk="fmt ")
            fmt = struct.unpack_from("<HHIIHH", body, 0)
        elif cid == b"data":
            payload = body
        pos += 8 + size + (size & 1)  # chunks are word-aligned

    if fmt is None:
        raise WavDecodeError("no fmt chunk found", chunk="fmt ")
    if payload is None:
        raise WavDecodeError("no data chunk found", chunk="data")

    audio_format, channels, sample_rate, _, _, bits = fmt
    if sample_rate == 0:
        raise WavDecodeError("fmt chunk gives sample rate 0", chunk="fmt ")
    _check_rate(sample_rate)
    if channels not in (1, 2):
        raise UnsupportedFormatError(f"{channels} channels; only mono/stereo supported")
    if audio_format == _PCM and bits == 16:
        raw = np.frombuffer(payload[: len(payload) - len(payload) % (2 * channels)],
                            dtype="<i2")
        samples = raw.astype(np.float64) / 32768.0
    elif audio_format == _IEEE_FLOAT and bits == 32:
        raw = np.frombuffer(payload[: len(payload) - len(payload) % (4 * channels)],
                            dtype="<f4")
        if not np.all(np.isfinite(raw)):
            raise WavDecodeError("data chunk contains non-finite samples", chunk="data")
        samples = np.clip(raw.astype(np.float64), -1.0, 1.0)
    else:
        raise UnsupportedFormatError(
            f"format tag {audio_format} with {bits} bits per sample not supported"
        )
    if channels == 2:
        samples = samples.reshape(-1, 2).mean(axis=1)
    return AudioClip(samples=samples, sample_rate=int(sample_rate))


def encode_wav(clip: AudioClip, path: str | Path) -> None:
    """Write a clip as 16-bit PCM mono WAV.

    Samples are clamped to [-1, 1], then quantized with round half away
    from zero at full scale 32768 (the +1.0 endpoint clips to +32767).
    """
    _check_rate(clip.sample_rate)
    x = np.clip(clip.samples, -1.0, 1.0) * 32768.0
    q = np.where(x >= 0, np.floor(x + 0.5), np.ceil(x - 0.5))
    pcm = np.clip(q, -32768, 32767).astype("<i2")

    body = pcm.tobytes()
    header = struct.pack(
        "<4sI4s4sIHHIIHH4sI",
        b"RIFF", 36 + len(body), b"WAVE",
        b"fmt ", 16, _PCM, 1, clip.sample_rate,
        clip.sample_rate * 2, 2, 16,
        b"data", len(body),
    )
    Path(path).write_bytes(header + body)


def _check_rate(rate: int) -> None:
    """Refuse a rate whose PCM16 byte rate, 2 * rate, overflows its uint32."""
    if rate > 2**31 - 1:
        raise UnsupportedFormatError(f"sample rate {rate} Hz; at most {2**31 - 1} supported")
