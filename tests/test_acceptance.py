"""Acceptance gate: one test per shipped guarantee, one printed verdict each.

Run `pytest -v tests/test_acceptance.py` to see a PASS/FAIL line per
criterion. Every test here re-derives its expectation from an independent
oracle (naive reference implementations, closed-form constructions, planted
ground truth) rather than from the code under test.
"""

import time
from pathlib import Path

import numpy as np
import pytest
from scipy.special import ndtri

from midlime import rng
from midlime.audio import AudioClip, decode_wav
from midlime.cli import main as cli_main
from midlime.dsp import (
    SCALE_MAGNITUDE,
    Spectrogram,
    StftConfig,
    griffin_lim,
    griffin_lim_trace,
    magnitude_db,
    stft,
)
from midlime.effects import instance_effects, top_effect
from midlime.errors import MidlimeError
from midlime.lime import (
    Instance,
    LimeConfig,
    MaskBatch,
    explain_instance,
    fit_surrogate,
    sample_masks,
    select_features,
    stability_score,
)
from midlime.pipeline import MODE_ADD, synthesize_modified
from midlime.predictor import ExternalPredictor, LinearHead
from midlime.segmentation import SegmentationConfig, SegmentMap, felzenszwalb_segment

from conftest import (
    child_command,
    db_spec,
    make_tone_burst_samples,
    planted_fixture,
    random_db_image,
    selection_row,
    sine,
    uniform_noise,
)
from naive_reference import naive_felzenszwalb, same_partition

SAMPLE_RATE = 22050


def _verdict(capsys, name: str, ok: bool, detail: str = "") -> None:
    with capsys.disabled():
        suffix = f" ({detail})" if detail else ""
        print(f"\nacceptance {name}: {'PASS' if ok else 'FAIL'}{suffix}")
    assert ok, f"{name}{': ' + detail if detail else ''}"


def _normal_noise(seed: int, n: int) -> np.ndarray:
    u = rng.uniform_grid(seed, np.arange(1), np.arange(n))[0]
    return ndtri(np.clip(u, 1e-12, 1.0 - 1e-12))


def _ks_statistic(p_values: np.ndarray) -> float:
    p = np.sort(np.asarray(p_values))
    n = len(p)
    grid = np.arange(1, n + 1) / n
    return float(max(np.max(grid - p), np.max(p - (grid - 1 / n))))


def test_01_exact_linear_recovery(capsys):
    box, coefficients, planted_ids, base, seg_map = planted_fixture()
    started = time.perf_counter()
    expl = explain_instance(box, Instance(base, seg_map, "silence"),
                            LimeConfig(n_samples=50000, seed=5),
                            target="mid:planted")
    elapsed = time.perf_counter() - started

    weight_gap = float(np.max(np.abs(expl.fit.weights - coefficients)))
    selected_ids = sorted(s.segment for s in expl.selected)
    exact_support = selected_ids == list(planted_ids)
    r2 = expl.fit.r_squared

    ok = (weight_gap <= 1e-3 and exact_support and r2 >= 1.0 - 1e-9
          and elapsed < 60.0)
    _verdict(capsys, "exact-linear-recovery", ok,
             f"max|w-coef| {weight_gap:.2e}, support "
             f"{'exact' if exact_support else 'WRONG'}, r2 {r2:.12f}, "
             f"{elapsed:.1f}s")


def test_02_stability_improves_with_samples(capsys):
    box, _, _, base, seg_map = planted_fixture(noise_sigma=0.18, jitter_count=8)
    instance = Instance(base, seg_map, "silence")
    seeds = [1, 2, 3, 4, 5]

    def mean_jaccard(n_samples: int) -> float:
        explanations = [
            explain_instance(box, instance, LimeConfig(n_samples=n_samples, seed=s),
                             target="mid:planted")
            for s in seeds
        ]
        return stability_score(explanations).mean_pairwise_jaccard

    low = mean_jaccard(1000)
    high = mean_jaccard(50000)
    ok = high >= 0.9 and high > low
    _verdict(capsys, "stability-vs-samples", ok,
             f"mean jaccard {low:.3f} @1k -> {high:.3f} @50k")


def test_03_null_model_p_values(capsys):
    # One large fit: 300 coefficient p-values vs Uniform[0,1] at the 1%
    # level (asymptotic Kolmogorov-Smirnov critical value).
    masks = sample_masks(300, LimeConfig(n_samples=2000, seed=321))
    noise = _normal_noise(rng.derive(654, 0), 2000)
    fit = fit_surrogate(masks, noise, np.ones(2000), 0.0)
    ks = _ks_statistic(fit.p_values)
    ks_critical = 1.6276 / np.sqrt(300)

    # 100 independent trials: the selector should come up empty almost always.
    empty = 0
    for trial in range(100):
        m = sample_masks(300, LimeConfig(n_samples=1000, seed=1000 + trial))
        y = _normal_noise(rng.derive(2000 + trial, 0), 1000)
        f = fit_surrogate(m, y, np.ones(1000), 0.0)
        if len(select_features(f, 1e-6)) == 0:
            empty += 1

    ok = ks <= ks_critical and empty >= 95
    _verdict(capsys, "null-model-p-values", ok,
             f"KS {ks:.4f} (crit {ks_critical:.4f}), "
             f"empty selections {empty}/100")


def test_04_segmentation_matches_naive_reference(capsys):
    config = SegmentationConfig(scale=25.0, min_size=40, sigma=0.8)
    agree = 0
    min_size_ok = True
    for seed in range(100, 120):
        image = random_db_image(seed, 64, 64)
        ours = felzenszwalb_segment(db_spec(image), config)
        naive = naive_felzenszwalb(image, 25.0, 40, 0.8)
        if same_partition(ours.labels, naive):
            agree += 1
        if np.bincount(ours.labels.ravel()).min() < 40:
            min_size_ok = False

    constant = felzenszwalb_segment(db_spec(np.full((64, 64), -30.0)), config)
    ok = agree == 20 and min_size_ok and constant.segment_count == 1
    _verdict(capsys, "segmentation-oracle", ok,
             f"{agree}/20 partitions equal, min-size "
             f"{'held' if min_size_ok else 'VIOLATED'}, constant -> "
             f"{constant.segment_count} segment(s)")


def test_05_phase_retrieval_error_descends(capsys):
    config = StftConfig(frame_size=256, hop_size=64)
    monotone = True
    worst_ratio = 0.0
    for seed in range(10):
        values = 0.05 + rng.uniform_grid(rng.derive(4000 + seed, 0),
                                         np.arange(129), np.arange(40))
        target = Spectrogram(values=values, scale=SCALE_MAGNITUDE,
                             config=config, sample_rate=SAMPLE_RATE)
        _, errors = griffin_lim_trace(target, config, iterations=40, seed=seed)
        ratios = errors[1:] / np.maximum(errors[:-1], 1e-300)
        worst_ratio = max(worst_ratio, float(np.max(ratios)))
        if np.any(errors[1:] > errors[:-1] * (1.0 + 1e-7) + 1e-15):
            monotone = False

    t = np.arange(SAMPLE_RATE) / SAMPLE_RATE
    clean = (0.4 * sine(330.0, t) + 0.2 * sine(554.37, t)
             + 0.05 * uniform_noise(77, SAMPLE_RATE))
    clip = AudioClip(samples=clean, sample_rate=SAMPLE_RATE)
    cspec = stft(clip, config)
    magnitude = Spectrogram(values=np.abs(cspec.values), scale=SCALE_MAGNITUDE,
                            config=config, sample_rate=SAMPLE_RATE)
    rebuilt = griffin_lim(magnitude, config, iterations=0, init_phase=cspec)
    n = min(len(rebuilt.samples), len(clean))
    interior = slice(config.frame_size, n - config.frame_size)
    err = clean[interior] - rebuilt.samples[interior]
    snr = 10.0 * np.log10(np.sum(clean[interior] ** 2) / np.sum(err**2))

    ok = monotone and snr >= 60.0
    _verdict(capsys, "phase-retrieval", ok,
             f"worst step ratio {worst_ratio:.9f}, true-phase SNR {snr:.1f} dB")


def test_06_effects_additivity_and_argmax(capsys):
    worst_gap = 0.0
    argmax_ok = True
    for trial in range(1000):
        w = 2.0 * rng.uniform_grid(rng.derive(5000 + trial, 0),
                                   np.arange(8), np.arange(7)) - 1.0
        b = 2.0 * rng.uniform_grid(rng.derive(5000 + trial, 1),
                                   np.arange(1), np.arange(8))[0] - 1.0
        mid = 2.0 * rng.uniform_grid(rng.derive(5000 + trial, 2),
                                     np.arange(1), np.arange(7))[0] - 1.0
        head = LinearHead(weights=w, bias=b)
        effects = instance_effects(mid, head)
        direct = w @ mid + b
        gap = float(np.max(np.abs(effects.effects.sum(axis=1) + b - direct)))
        worst_gap = max(worst_gap, gap)
        for i in range(8):
            j, value = top_effect(effects, i)
            row = w[i] * mid
            if j != int(np.argmax(row)) or value != float(row[j]):
                argmax_ok = False

    ok = worst_gap <= 1e-9 and argmax_ok
    _verdict(capsys, "effects-additivity", ok,
             f"max additivity gap {worst_gap:.2e} over 1000 heads, "
             f"argmax {'all matched' if argmax_ok else 'MISMATCH'}")


def test_07_runs_are_byte_deterministic(capsys, fixture_wav, tmp_path):
    compared = ["explanation.json", "effects.csv", "masked_pos.wav",
                "masked_neg.wav", "modified_add.wav", "modified_sub.wav",
                "prediction.json", "segments.csv", "pos_mask.csv",
                "neg_mask.csv"]

    def run(out: Path, workers: int) -> dict[str, bytes]:
        code = cli_main([
            "explain", "--audio", str(fixture_wav), "--out", str(out),
            "--samples", "800", "--frame-size", "1024", "--hop", "512",
            "--gl-iters", "3", "--seed", "42", "--workers", str(workers),
        ])
        assert code == 0
        return {name: (out / name).read_bytes() for name in compared}

    first = run(tmp_path / "a", 1)
    second = run(tmp_path / "b", 1)
    third = run(tmp_path / "c", 3)
    same_flags = [n for n in compared if first[n] == second[n]]
    other_workers = [n for n in compared if first[n] == third[n]]

    ok = len(same_flags) == len(compared) and len(other_workers) == len(compared)
    _verdict(capsys, "byte-determinism", ok,
             f"{len(same_flags)}/{len(compared)} identical across reruns, "
             f"{len(other_workers)}/{len(compared)} across worker counts")


def test_08_protocol_relay_and_reassembly(capsys):
    # A 6 x 8 dB spectrogram whose 48 pixels are 48 segments, so that the
    # mask rows make 50 000 different spectrograms.
    config = StftConfig(frame_size=16, hop_size=4)
    u = rng.uniform_grid(9100, np.arange(1), np.arange(48))[0]
    seg_map = SegmentMap(labels=np.arange(48, dtype=np.int32).reshape(6, 8),
                         segment_count=48)
    instance = Instance(db_spec((-60.0 + 40.0 * u).reshape(6, 8), config), seg_map,
                        "silence")
    masks = sample_masks(48, LimeConfig(n_samples=50000, seed=9100))
    expected = np.array([sum(instance.render(row).values.ravel().tolist()) / 48.0
                         for row in masks])

    errors = 0
    with ExternalPredictor(child_command("echo"), timeout=120.0,
                           batch_size=256) as gateway:
        try:
            results = gateway.predict(MaskBatch(instance, masks))
            mids = results[0][:, 0]
            if not np.allclose(mids, expected, rtol=1e-12, atol=0):
                errors += 1
        except MidlimeError:
            errors += 1

    reordered_match = False
    with ExternalPredictor(child_command("reorder"), timeout=60.0,
                           batch_size=64) as gateway:
        results = gateway.predict(MaskBatch(instance, masks[:2000]))
        mids = results[0][:, 0]
        reordered_match = bool(np.allclose(mids, expected[:2000],
                                           rtol=1e-12, atol=0))

    ok = errors == 0 and reordered_match
    _verdict(capsys, "protocol-conformance", ok,
             f"50k relay transport errors {errors}, out-of-order replies "
             f"{'reassembled' if reordered_match else 'WRONG'}")


def test_09_modification_audio(capsys, tone_burst_wav):
    config = StftConfig(frame_size=1024, hop_size=512)
    clip = decode_wav(tone_burst_wav)
    cspec = stft(clip, config)
    dbspec = magnitude_db(cspec)
    seg_map = felzenszwalb_segment(dbspec, SegmentationConfig())

    # Burst support: 1200 Hz +/- 250 Hz, frames fully inside the burst.
    bin_hz = SAMPLE_RATE / config.frame_size
    rows = slice(int(950 / bin_hz), int(np.ceil(1450 / bin_hz)) + 1)
    frame_lo = int(np.ceil(1.25 * SAMPLE_RATE / config.hop_size))
    frame_hi = int((1.75 * SAMPLE_RATE - config.frame_size) / config.hop_size)
    frames = slice(frame_lo, frame_hi + 1)
    core = dbspec.values[rows, frames] > config.floor_db + 1.0
    burst_ids = np.unique(seg_map.labels[rows, frames][core])

    def band_rms(samples: np.ndarray) -> float:
        spec = stft(AudioClip(samples=samples, sample_rate=SAMPLE_RATE), config)
        return float(np.sqrt(np.mean(np.abs(spec.values[rows, frames]) ** 2)))

    burst = selection_row(seg_map, burst_ids)
    boosted = synthesize_modified(cspec, seg_map, burst, MODE_ADD, 1.0, iterations=8)
    ratio = band_rms(boosted.samples) / band_rms(clip.samples)

    noop = synthesize_modified(cspec, seg_map, burst, MODE_ADD, 0.0, iterations=8)
    n = min(len(noop.samples), len(clip.samples))
    interior = slice(config.frame_size, n - config.frame_size)
    err = clip.samples[interior] - noop.samples[interior]
    snr = 10.0 * np.log10(np.sum(clip.samples[interior] ** 2) / np.sum(err**2))

    ok = 1.6 <= ratio <= 2.4 and snr >= 60.0
    _verdict(capsys, "modification-audio", ok,
             f"band level ratio {ratio:.3f} (want 2.0 +/- 20%), "
             f"gain-0 SNR {snr:.1f} dB")
