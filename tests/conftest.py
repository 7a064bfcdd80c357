"""Shared fixtures: deterministic audio clips, segment maps, planted black boxes.

All randomness goes through the package's counter-based generator, never
through numpy's global RNG, so every fixture is bit-stable across runs,
machines and worker counts.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.special import ndtri

import midlime
from midlime import rng
from midlime.audio import AudioClip, encode_wav
from midlime.dsp import SCALE_DB, Spectrogram, StftConfig
from midlime.lime import Instance, MaskBatch
from midlime.segmentation import SegmentMap

TESTS_DIR = Path(__file__).parent
CHILD_SCRIPT = TESTS_DIR / "children" / "child.py"
GOLDEN_DIR = TESTS_DIR / "golden"

SAMPLE_RATE = 22050


def child_command(mode: str = "echo") -> str:
    return f"{sys.executable} {CHILD_SCRIPT} --mode {mode}"


def recorded_requests(directory) -> list[list[tuple[int, int, int]]]:
    """Per child, the (id, rows, bytes) of each request it received, in
    order, from the files that child.py's --record writes to `directory`."""
    return [[tuple(map(int, line.split())) for line in path.read_text().splitlines()]
            for path in sorted(Path(directory).iterdir())]


# Writes the line that the Python expression in argv[2] makes: as its
# handshake reply if argv[1] is "handshake", else after good capabilities as
# its reply to the first predict request. Then waits for one more line.
BAD_LINE_CHILD = (
    "import json, sys\n"
    "when, bad = sys.argv[1], eval(sys.argv[2])\n"
    "sys.stdin.readline()\n"
    "if when == 'prediction':\n"
    "    print(json.dumps({'type': 'capabilities',"
    " 'mid_names': ['m' + str(i) for i in range(7)],"
    " 'emotion_names': ['e' + str(i) for i in range(8)],"
    " 'linear_head': None}), flush=True)\n"
    "    sys.stdin.readline()\n"
    "print(bad, flush=True)\n"
    "sys.stdin.readline()\n"
)

# Expressions for BAD_LINE_CHILD of lines that `json.loads` cannot read
# without raising something other than `JSONDecodeError`.
UNREADABLE_LINES = pytest.mark.parametrize("bad", [
    "'{\"type\":\"prediction\",\"id\":' + '7' * 5000 + '}'",
    "'[' * 100000 + ']' * 100000",
], ids=["5000-digit-integer", "deeply-nested"])


@pytest.fixture
def spawned(monkeypatch) -> list[subprocess.Popen]:
    """Every process that `subprocess.Popen` starts during the test, in
    order; any still running at the end are killed."""
    procs: list[subprocess.Popen] = []
    popen = subprocess.Popen

    def recording_popen(*args, **kwargs):
        procs.append(popen(*args, **kwargs))
        return procs[-1]

    monkeypatch.setattr(subprocess, "Popen", recording_popen)
    yield procs
    for proc in procs:
        if proc.poll() is None:
            proc.kill()
            proc.wait()


def package_env() -> dict:
    """The environment for a child interpreter that imports this midlime."""
    package_root = str(Path(midlime.__file__).resolve().parents[1])
    return {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [package_root, os.environ.get("PYTHONPATH")]))}


def sine(freq: float, t: np.ndarray) -> np.ndarray:
    return np.sin(2.0 * np.pi * freq * t)


def uniform_noise(seed: int, n: int) -> np.ndarray:
    """White noise in [-1, 1) from the counter generator."""
    return 2.0 * rng.uniform_grid(seed, np.arange(1), np.arange(n))[0] - 1.0


def make_fixture_samples(duration: float = 3.0) -> np.ndarray:
    """Sustained pad chord with four short percussive bursts on top."""
    t = np.arange(int(duration * SAMPLE_RATE)) / SAMPLE_RATE
    pad = (0.12 * sine(220.0, t) + 0.10 * sine(277.18, t) + 0.08 * sine(329.63, t))
    x = pad.copy()
    for k, onset in enumerate((0.25, 1.0, 1.75, 2.5)):
        i0 = int(onset * SAMPLE_RATE)
        n = int(0.09 * SAMPLE_RATE)
        envelope = np.exp(-np.arange(n) / (0.012 * SAMPLE_RATE))
        x[i0:i0 + n] += 0.22 * uniform_noise(90 + k, n) * envelope
    return np.clip(x, -0.98, 0.98)


def make_tone_burst_samples(duration: float = 3.0,
                            burst_freq: float = 1200.0,
                            burst_span: tuple[float, float] = (1.2, 1.8),
                            burst_amp: float = 0.15) -> np.ndarray:
    """Quiet low pad plus one isolated tone burst in a clean band."""
    t = np.arange(int(duration * SAMPLE_RATE)) / SAMPLE_RATE
    x = 0.05 * sine(220.0, t)
    lo, hi = (int(s * SAMPLE_RATE) for s in burst_span)
    ramp = min(256, (hi - lo) // 4)
    envelope = np.ones(hi - lo)
    envelope[:ramp] = np.linspace(0.0, 1.0, ramp)
    envelope[-ramp:] = np.linspace(1.0, 0.0, ramp)
    x[lo:hi] += burst_amp * envelope * sine(burst_freq, t[lo:hi])
    return x


@pytest.fixture(scope="session")
def fixture_wav(tmp_path_factory) -> Path:
    path = tmp_path_factory.mktemp("audio") / "fixture.wav"
    encode_wav(AudioClip(samples=make_fixture_samples(), sample_rate=SAMPLE_RATE), path)
    return path


@pytest.fixture(scope="session")
def tone_burst_wav(tmp_path_factory) -> Path:
    path = tmp_path_factory.mktemp("audio") / "tone_burst.wav"
    encode_wav(AudioClip(samples=make_tone_burst_samples(), sample_rate=SAMPLE_RATE),
               path)
    return path


def db_spec(values: np.ndarray, config: StftConfig | None = None,
            sample_rate: int = SAMPLE_RATE) -> Spectrogram:
    return Spectrogram(values=np.asarray(values, dtype=np.float64), scale=SCALE_DB,
                       config=config or StftConfig(), sample_rate=sample_rate)


def block_map(height: int, width: int, block_h: int, block_w: int) -> SegmentMap:
    """Rectangular grid of segments; exact and fast for synthetic tests."""
    assert height % block_h == 0 and width % block_w == 0
    rows = np.arange(height)[:, None] // block_h
    cols = np.arange(width)[None, :] // block_w
    labels = rows * (width // block_w) + cols
    count = (height // block_h) * (width // block_w)
    return SegmentMap(labels=labels.astype(np.int32), segment_count=count)


def unmasked(spec: Spectrogram, rows: int = 1) -> MaskBatch:
    """`rows` all-ones mask rows over `spec` as one segment: the batch in
    which a predictor scores `spec` itself."""
    seg_map = SegmentMap(labels=np.zeros(spec.values.shape, dtype=np.int32),
                         segment_count=1)
    return MaskBatch(Instance(spec, seg_map, "silence"),
                     np.ones((rows, 1), dtype=np.uint8))


def selection_row(seg_map: SegmentMap, ids) -> np.ndarray:
    """The uint8 mask row that keeps the segments `ids`."""
    row = np.zeros(seg_map.segment_count, dtype=np.uint8)
    row[np.asarray(ids, dtype=np.intp)] = 1
    return row


def random_db_image(seed: int, height: int, width: int,
                    low: float = -60.0, high: float = -20.0) -> np.ndarray:
    u = rng.uniform_grid(seed, np.arange(height), np.arange(width))
    return low + (high - low) * u


class PlantedBlackBox:
    """Affine-in-the-mask scalar predictor with known coefficients.

    Works on spectrograms masked with the silence-floor fill: a segment reads
    as 'off' exactly when its mean sits at the floor (the base image stays
    strictly above it). Optional observation noise is a pure function of the
    mask bits, so the same perturbation always yields the same value no
    matter which seed or chunk produced it.
    """

    def __init__(self, seg_map: SegmentMap, base: Spectrogram,
                 coefficients: np.ndarray, intercept: float = 0.5,
                 noise_sigma: float = 0.0, noise_seed: int = 7):
        self.seg_map = seg_map
        self.base = base
        self.coefficients = np.asarray(coefficients, dtype=np.float64)
        self.intercept = float(intercept)
        self.noise_sigma = float(noise_sigma)
        self.noise_seed = int(noise_seed)
        self._labels = seg_map.labels.ravel()
        self._counts = np.bincount(self._labels, minlength=seg_map.segment_count)
        self._floor = base.config.floor_db

    def mask_of(self, spec: Spectrogram) -> np.ndarray:
        sums = np.bincount(self._labels, weights=spec.values.ravel(),
                           minlength=self.seg_map.segment_count)
        means = sums / self._counts
        return (means > self._floor + 1e-9).astype(np.float64)

    def _noise(self, mask: np.ndarray) -> float:
        packed = np.packbits(mask.astype(np.uint8))
        padded = np.zeros(-(-len(packed) // 8) * 8, dtype=np.uint8)
        padded[:len(packed)] = packed
        words = padded.view(np.uint64)
        key = np.uint64(rng.derive(self.noise_seed, 1))
        for w in words:
            with np.errstate(over="ignore"):
                key = rng.mix64(key ^ w)[()]
        u = (int(key) >> 11) * 2.0 ** -53
        u = min(max(u, 1e-12), 1.0 - 1e-12)
        return float(ndtri(u))

    def __call__(self, batch) -> list[float]:
        out = []
        for spec in batch:
            mask = self.mask_of(spec)
            value = self.intercept + float(self.coefficients @ mask)
            if self.noise_sigma > 0.0:
                value += self.noise_sigma * self._noise(mask)
            out.append(value)
        return out


def planted_coefficients(n_segments: int, support: int, seed: int,
                         magnitude_low: float = 0.05,
                         magnitude_high: float = 1.0,
                         jitter_count: int = 0,
                         jitter_band: tuple[float, float] = (0.05, 0.075),
                         strong_low: float = 0.15) -> tuple[np.ndarray, np.ndarray]:
    """Sparse coefficient vector plus the sorted planted ids.

    Without jitter, magnitudes are uniform in [magnitude_low, magnitude_high].
    With jitter, `jitter_count` coefficients sit in the narrow jitter band and
    the rest in [strong_low, magnitude_high].
    """
    order = np.argsort(rng.uniform_grid(rng.derive(seed, 0), np.arange(1),
                                        np.arange(n_segments))[0], kind="stable")
    ids = np.sort(order[:support])
    u = rng.uniform_grid(rng.derive(seed, 1), np.arange(2), np.arange(support))
    signs = np.where(u[0] < 0.5, -1.0, 1.0)
    if jitter_count:
        lo, hi = jitter_band
        magnitudes = strong_low + (magnitude_high - strong_low) * u[1]
        magnitudes[:jitter_count] = lo + (hi - lo) * u[1, :jitter_count]
    else:
        magnitudes = magnitude_low + (magnitude_high - magnitude_low) * u[1]
    coefficients = np.zeros(n_segments)
    coefficients[ids] = signs * magnitudes
    return coefficients, ids


def planted_fixture(n_segments: int = 300, support: int = 40, seed: int = 11,
                    noise_sigma: float = 0.0, jitter_count: int = 0):
    """Standard planted setup: 60x80 image, 300 grid segments, known support."""
    assert n_segments == 300
    seg_map = block_map(60, 80, 4, 4)
    base = db_spec(random_db_image(rng.derive(seed, 2), 60, 80))
    coefficients, ids = planted_coefficients(
        n_segments, support, seed, jitter_count=jitter_count)
    box = PlantedBlackBox(seg_map, base, coefficients, intercept=0.5,
                          noise_sigma=noise_sigma, noise_seed=seed)
    return box, coefficients, ids, base, seg_map
