"""Output checks for benchmark runs, against computations made apart from
the program.

The dB spectrogram is recomputed here with plain numpy from the PCM samples
the benchmark itself wrote. The builtin predictor is exactly affine in the
mask under the silence fill: its mid-level output j is a constant plus
sum_s m_s * a_s, where a_s sums (v - floor) over the pixels of segment s that
fall in the stub's rectangles (see BuiltinPredictor.regions). The echo child
is affine too, with a_s = sum over segment s of (v - floor) / pixels. An
exact surrogate fit must therefore select exactly the segments with a
nonzero a_s, with weights a_s and r^2 = 1.
"""

from __future__ import annotations

import hashlib
import json
from itertools import combinations
from pathlib import Path

import numpy as np

from inputs import read_wav

ZERO_TOL = 1e-9      # |a_s| at or below this share of max |a| counts as zero
WEIGHT_RTOL = 1e-8   # surrogate weight vs closed form, relative to max |a|
MASK_ATOL = 1e-9     # dB, mask CSV vs the recomputed spectrogram
WAV_FILES = ("masked_pos.wav", "masked_neg.wav", "modified_add.wav", "modified_sub.wav")


def db_spectrogram(x: np.ndarray, frame: int, hop: int, floor_db: float) -> np.ndarray:
    """Periodic-Hann STFT without padding, 20*log10(|X| + 1e-10), floored."""
    window = 0.5 - 0.5 * np.cos(2.0 * np.pi * np.arange(frame) / frame)
    count = (len(x) - frame) // hop + 1
    starts = hop * np.arange(count)
    frames = x[starts[:, None] + np.arange(frame)[None, :]] * window
    magnitude = np.abs(np.fft.rfft(frames, axis=1)).T
    return np.maximum(20.0 * np.log10(magnitude + 1e-10), floor_db)


def _numbers(path: Path, dtype) -> np.ndarray:
    """Every comma-separated number in a CSV file, header line skipped if any."""
    text = path.read_text(encoding="utf-8")
    if not text[:1].isdigit() and text[:1] != "-":
        text = text.split("\n", 1)[1]
    return np.array(text.replace(",", " ").split(), dtype=dtype)


def read_labels(path: Path, shape: tuple[int, int]) -> np.ndarray:
    table = _numbers(path, np.int64).reshape(-1, 3)
    h, w = shape
    if len(table) != h * w or not (
            np.array_equal(table[:, 0], np.repeat(np.arange(h), w))
            and np.array_equal(table[:, 1], np.tile(np.arange(w), h))):
        raise ValueError(f"segments.csv does not list every pixel of {h}x{w} in order")
    return table[:, 2].reshape(h, w)


def builtin_coefficients(v, labels, count, floor_db, rects) -> np.ndarray:
    """a_s for one mid-level output of the builtin stub."""
    (p0, p1, q0, q1), (n0, n1, m0, m1) = rects
    lift = v - floor_db
    pos = np.bincount(labels[p0:p1, q0:q1].ravel(), weights=lift[p0:p1, q0:q1].ravel(),
                      minlength=count) / ((p1 - p0) * (q1 - q0))
    neg = np.bincount(labels[n0:n1, m0:m1].ravel(), weights=lift[n0:n1, m0:m1].ravel(),
                      minlength=count) / ((n1 - n0) * (m1 - m0))
    return pos - 0.5 * neg


def echo_coefficients(v, labels, count, floor_db) -> np.ndarray:
    return np.bincount(labels.ravel(), weights=(v - floor_db).ravel(),
                       minlength=count) / v.size


def builtin_auto_target(v: np.ndarray, stub) -> int:
    """The mid index `--target auto` picks for the builtin stub on v."""
    mids = np.array([
        v[p0:p1, q0:q1].mean() - 0.5 * v[n0:n1, m0:m1].mean() + stub.offsets[j]
        for j, ((p0, p1, q0, q1), (n0, n1, m0, m1)) in enumerate(stub.regions(v.shape))
    ])
    emotion = stub.head.weights @ mids + stub.head.bias
    return int(np.argmax(stub.head.weights[int(np.argmax(emotion))] * mids))


def support(coefficients: np.ndarray) -> np.ndarray:
    scale = float(np.max(np.abs(coefficients), initial=0.0))
    return np.flatnonzero(np.abs(coefficients) > ZERO_TOL * scale)


def bundle_digest(out_dir: Path, skip=("report.json",)) -> str:
    digest = hashlib.sha256()
    for path in sorted(out_dir.iterdir()):
        if path.name not in skip:
            digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def check_explanation(out_dir: Path, v: np.ndarray, frame: int, hop: int,
                      floor_db: float, coefficients_for) -> list[str]:
    """Checks (a)/(b), (c) and (e) on one explain bundle; returns problems.

    `coefficients_for(labels, count, target)` gives the closed-form a_s.
    """
    problems = []
    report = json.loads((out_dir / "report.json").read_text(encoding="utf-8"))
    listed = set(report["files"].values())
    present = {p.name for p in out_dir.iterdir()}
    if listed != present:
        problems.append(f"bundle files {sorted(present)} != report list {sorted(listed)}")
    shape = (report["spectrogram"]["bins"], report["spectrogram"]["frames"])
    if shape != v.shape:
        return problems + [f"spectrogram {shape} != recomputed {v.shape}"]
    labels = read_labels(out_dir / "segments.csv", shape)
    count = report["segments"]["count"]
    if labels.min() != 0 or labels.max() != count - 1:
        problems.append(f"labels span {labels.min()}..{labels.max()}, count {count}")

    a = coefficients_for(labels, count, report["target"])
    expected = support(a)
    expl = json.loads((out_dir / "explanation.json").read_text(encoding="utf-8"))
    chosen = np.array(sorted(s["segment"] for s in expl["selected"]), dtype=np.int64)
    if not np.array_equal(chosen, expected):
        missing = sorted(set(expected.tolist()) - set(chosen.tolist()))
        extra = sorted(set(chosen.tolist()) - set(expected.tolist()))
        problems.append(f"selected set differs: missing {missing[:8]}, extra {extra[:8]}")
    else:
        scale = float(np.max(np.abs(a)))
        worst = max((abs(s["weight"] - a[s["segment"]]) for s in expl["selected"]),
                    default=0.0)
        if worst > WEIGHT_RTOL * scale:
            problems.append(f"weights off by {worst / scale:.3g} of max |a|")
    positive = sorted(int(s) for s in expected if a[s] > 0)
    negative = sorted(int(s) for s in expected if a[s] < 0)
    if expl["positive_ids"] != positive or expl["negative_ids"] != negative:
        problems.append("positive_ids / negative_ids do not match the closed-form signs")
    if not abs(expl["r_squared"] - 1.0) <= 1e-8:
        problems.append(f"r_squared {expl['r_squared']!r} is not 1")

    for name, ids in (("pos_mask.csv", positive), ("neg_mask.csv", negative)):
        want = np.where(np.isin(labels, ids), v, floor_db)
        got = _numbers(out_dir / name, np.float64)
        if got.size != want.size:
            problems.append(f"{name} holds {got.size} values, expected {want.size}")
        elif not np.max(np.abs(got - want.ravel())) <= MASK_ATOL:
            problems.append(f"{name} differs from the recomputed masked spectrogram")

    length = (shape[1] - 1) * hop + frame
    for name in WAV_FILES:
        try:
            samples, _ = read_wav(out_dir / name)
        except (OSError, ValueError, EOFError) as exc:
            problems.append(f"{name} does not decode: {exc}")
            continue
        if len(samples) != length or not np.all(np.isfinite(samples)):
            problems.append(f"{name} holds {len(samples)} samples, expected {length}")
    return problems


def check_stability(out_dir: Path, seeds: list[int], counts: list[int],
                    support_size: int) -> list[str]:
    """Check (d): every pairwise Jaccard is 1 and every count is the support."""
    problems = []
    rows = (out_dir / "stability.csv").read_text(encoding="utf-8").splitlines()
    want = [f"{c},{seeds[i]},{seeds[j]},1.0" for c in counts
            for i, j in combinations(range(len(seeds)), 2)]
    if rows[1:] != want:
        problems.append(f"stability.csv rows {rows[1:4]}... != {want[:3]}...")
    summary = (out_dir / "stability_summary.csv").read_text(encoding="utf-8").splitlines()
    seed_text = " ".join(map(str, seeds))
    counts_text = " ".join([str(support_size)] * len(seeds))
    want = [f"{c},1.0,{seed_text},{counts_text}" for c in counts]
    if summary[1:] != want:
        problems.append(f"stability_summary.csv rows {summary[1:]} != {want}")
    return problems
