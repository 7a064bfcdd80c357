"""STFT, dB mapping, inversion, Griffin-Lim: examples plus oracle checks."""

import logging
import tracemalloc

import numpy as np
import pytest

from midlime.audio import AudioClip
from midlime.dsp import (
    SCALE_DB,
    SCALE_MAGNITUDE,
    ComplexSpectrogram,
    Spectrogram,
    StftConfig,
    griffin_lim,
    griffin_lim_trace,
    istft,
    magnitude_db,
    stft,
    window_samples,
)
from midlime.errors import (
    ConfigError,
    InputTooShortError,
    ScaleMismatchError,
    ShapeMismatchError,
)

from midlime import dsp, pipeline
from midlime.segmentation import SegmentationConfig, felzenszwalb_segment

from conftest import SAMPLE_RATE, make_fixture_samples, selection_row, uniform_noise
from naive_reference import full_size_griffin_lim, naive_griffin_lim, naive_istft

SMALL = StftConfig(frame_size=256, hop_size=64)


def snr_db(reference: np.ndarray, estimate: np.ndarray) -> float:
    noise = reference - estimate
    signal_power = float(np.sum(reference**2))
    noise_power = float(np.sum(noise**2))
    if noise_power == 0.0:
        return np.inf
    return 10.0 * np.log10(signal_power / noise_power)


def interior(x: np.ndarray, frame_size: int) -> np.ndarray:
    return x[frame_size:-frame_size]


def sine_clip(freq: float, sr: int = 8000, seconds: float = 1.0) -> AudioClip:
    t = np.arange(int(sr * seconds)) / sr
    return AudioClip(samples=0.5 * np.sin(2 * np.pi * freq * t), sample_rate=sr)


class TestConfig:
    def test_defaults(self):
        cfg = StftConfig()
        assert cfg.frame_size == 2048 and cfg.hop_size == 512
        assert cfg.window == "hann" and cfg.floor_db == -80.0
        assert cfg.bin_count == 1025

    def test_rejects_non_power_of_two_frame(self):
        with pytest.raises(ConfigError):
            StftConfig(frame_size=1000, hop_size=250)

    def test_rejects_bad_hop(self):
        with pytest.raises(ConfigError):
            StftConfig(frame_size=256, hop_size=0)
        with pytest.raises(ConfigError):
            StftConfig(frame_size=256, hop_size=257)

    def test_rejects_non_finite_floor(self):
        with pytest.raises(ConfigError):
            StftConfig(floor_db=float("nan"))

    def test_rejects_overlap_add_violations(self):
        # periodic Hann at hop == frame leaves gaps between windows
        with pytest.raises(ConfigError):
            StftConfig(frame_size=256, hop_size=256)
        # rectangular window tiles exactly at hop == frame
        StftConfig(frame_size=256, hop_size=256, window="rect")

    def test_rejects_unknown_window(self):
        with pytest.raises(ConfigError):
            StftConfig(window="kaiser")

    def test_window_samples(self):
        w = window_samples("hann", 8)
        expected = 0.5 - 0.5 * np.cos(2 * np.pi * np.arange(8) / 8)
        assert np.allclose(w, expected, atol=1e-15)
        assert np.array_equal(window_samples("rect", 8), np.ones(8))


class TestStft:
    def test_bin_center_sine_peaks_in_its_row(self):
        k = 16
        sr = 8000
        clip = sine_clip(k * sr / SMALL.frame_size, sr=sr)
        spec = stft(clip, SMALL)
        magnitude = np.abs(spec.values)
        assert np.all(np.argmax(magnitude, axis=0) == k)

    def test_zero_clip_gives_zero_spectrogram(self):
        spec = stft(AudioClip(samples=np.zeros(4000), sample_rate=8000), SMALL)
        assert np.all(spec.values == 0.0)
        frames = (4000 - SMALL.frame_size) // SMALL.hop_size + 1
        assert spec.values.shape == (SMALL.bin_count, frames)

    def test_too_short_input(self):
        with pytest.raises(InputTooShortError):
            stft(AudioClip(samples=np.zeros(255), sample_rate=8000), SMALL)
        # exactly one frame is fine
        spec = stft(AudioClip(samples=np.zeros(256), sample_rate=8000), SMALL)
        assert spec.values.shape == (129, 1)

    def test_frame_zero_matches_naive_dft(self):
        from naive_reference import naive_dft

        x = uniform_noise(21, 600)
        clip = AudioClip(samples=x, sample_rate=8000)
        spec = stft(clip, SMALL)
        windowed = x[:SMALL.frame_size] * window_samples("hann", SMALL.frame_size)
        expected = naive_dft(windowed)
        assert np.allclose(spec.values[:, 0], expected,
                           atol=1e-8 * np.max(np.abs(expected)))

    def test_per_frame_energy_matches_windowed_signal(self):
        x = uniform_noise(22, 2000)
        clip = AudioClip(samples=x, sample_rate=8000)
        spec = stft(clip, SMALL)
        w = window_samples("hann", SMALL.frame_size)
        n = SMALL.frame_size
        for frame in range(spec.values.shape[1]):
            seg = x[frame * SMALL.hop_size:frame * SMALL.hop_size + n] * w
            coeffs = spec.values[:, frame]
            one_sided = (np.abs(coeffs[0])**2 + np.abs(coeffs[-1])**2
                         + 2.0 * np.sum(np.abs(coeffs[1:-1])**2))
            time_energy = n * float(np.sum(seg**2))
            assert one_sided == pytest.approx(time_energy, rel=1e-6)

    def test_complex_spectrogram_validates_rows(self):
        with pytest.raises(ShapeMismatchError):
            ComplexSpectrogram(values=np.zeros((100, 4), dtype=complex),
                               config=SMALL, sample_rate=8000)


class TestDbMapping:
    def _complex(self, magnitudes: np.ndarray) -> ComplexSpectrogram:
        cfg = StftConfig(frame_size=8, hop_size=2)
        values = np.broadcast_to(np.asarray(magnitudes, dtype=float)[:, None],
                                 (5, 3)).astype(complex)
        return ComplexSpectrogram(values=values, config=cfg, sample_rate=8000)

    def test_unit_magnitude_is_zero_db(self):
        spec = magnitude_db(self._complex(np.ones(5)))
        assert spec.scale == SCALE_DB
        assert np.max(np.abs(spec.values)) < 1e-8

    def test_zero_magnitude_clamps_to_floor(self):
        spec = magnitude_db(self._complex(np.zeros(5)))
        assert np.all(spec.values == spec.config.floor_db)

    def test_tenth_magnitude_is_minus_twenty_db(self):
        spec = magnitude_db(self._complex(np.full(5, 0.1)))
        assert np.allclose(spec.values, -20.0, atol=1e-6)

    def test_spectrogram_scale_invariants(self):
        cfg = StftConfig(frame_size=8, hop_size=2)
        with pytest.raises(ValueError):
            Spectrogram(values=np.full((5, 3), -90.0), scale=SCALE_DB,
                        config=cfg, sample_rate=8000)
        with pytest.raises(ValueError):
            Spectrogram(values=np.full((5, 3), -0.1), scale=SCALE_MAGNITUDE,
                        config=cfg, sample_rate=8000)
        with pytest.raises(ScaleMismatchError):
            Spectrogram(values=np.full((5, 3), 0.0), scale="power",
                        config=cfg, sample_rate=8000)


class TestInversion:
    def test_istft_round_trip_interior(self):
        for seed in range(5):
            x = uniform_noise(seed, 3000)
            clip = AudioClip(samples=x, sample_rate=8000)
            spec = stft(clip, SMALL)
            back = istft(spec)
            n = len(back.samples)
            assert snr_db(interior(x[:n], SMALL.frame_size),
                          interior(back.samples, SMALL.frame_size)) >= 60.0

    def test_true_phase_zero_iterations_reconstructs(self):
        x = 0.4 * np.sin(2 * np.pi * 440 * np.arange(8000) / 8000)
        clip = AudioClip(samples=x, sample_rate=8000)
        cspec = stft(clip, SMALL)
        target = Spectrogram(values=np.abs(cspec.values), scale=SCALE_MAGNITUDE,
                             config=SMALL, sample_rate=8000)
        out, errors = griffin_lim_trace(target, SMALL, 0, init_phase=cspec)
        assert len(errors) == 1
        n = len(out.samples)
        assert snr_db(interior(x[:n], SMALL.frame_size),
                      interior(out.samples, SMALL.frame_size)) >= 60.0

    def test_zero_magnitude_gives_silence(self):
        target = Spectrogram(values=np.zeros((129, 20)), scale=SCALE_MAGNITUDE,
                             config=SMALL, sample_rate=8000)
        out = griffin_lim(target, SMALL, 5, seed=3)
        assert np.all(out.samples == 0.0)

    def test_sine_converges_from_random_phase(self):
        clip = sine_clip(440.0)
        cspec = stft(clip, SMALL)
        target = Spectrogram(values=np.abs(cspec.values), scale=SCALE_MAGNITUDE,
                             config=SMALL, sample_rate=8000)
        out, errors = griffin_lim_trace(target, SMALL, 60, seed=5)
        assert len(errors) == 61
        # classic guarantee: the projection error never increases
        for before, after in zip(errors, errors[1:]):
            assert after <= before * (1.0 + 1e-7) + 1e-15
        reached = stft(out, SMALL)
        rel = (np.linalg.norm(np.abs(reached.values) - target.values)
               / np.linalg.norm(target.values))
        assert rel <= 0.1

    def test_error_trace_monotone_on_random_targets(self):
        for seed in range(4):
            values = uniform_noise(seed + 50, 129 * 12).reshape(129, 12)
            target = Spectrogram(values=np.abs(values), scale=SCALE_MAGNITUDE,
                                 config=SMALL, sample_rate=8000)
            _, errors = griffin_lim_trace(target, SMALL, 25, seed=seed)
            for before, after in zip(errors, errors[1:]):
                assert after <= before * (1.0 + 1e-7) + 1e-15

    def test_deterministic_per_seed(self):
        values = np.abs(uniform_noise(60, 129 * 10)).reshape(129, 10)
        target = Spectrogram(values=values, scale=SCALE_MAGNITUDE,
                             config=SMALL, sample_rate=8000)
        a = griffin_lim(target, SMALL, 8, seed=1)
        b = griffin_lim(target, SMALL, 8, seed=1)
        c = griffin_lim(target, SMALL, 8, seed=2)
        assert np.array_equal(a.samples, b.samples)
        assert not np.array_equal(a.samples, c.samples)

    def test_peak_memory_of_a_full_size_job(self):
        # A 6 s clip's job is 1025 x 255. Holding the last iteration's
        # spectrum while the next one was analysed peaked at 18.9 MB, and
        # full-size spectra, frames and magnitudes at 14.8 MB. Frames in
        # blocks of 32, with no frame-major copy of the target: 5.6 MB.
        cfg = StftConfig()
        clip = AudioClip(samples=0.5 * uniform_noise(95, 2048 + 254 * 512),
                         sample_rate=SAMPLE_RATE)
        cspec = stft(clip, cfg)
        target = Spectrogram(values=np.abs(cspec.values), scale=SCALE_MAGNITUDE,
                             config=cfg, sample_rate=SAMPLE_RATE)
        tracemalloc.start()
        try:
            griffin_lim(target, cfg, 4, init_phase=cspec)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 7.2e6

    def test_rejects_db_scale_target(self):
        cfg = StftConfig(frame_size=8, hop_size=2)
        target = Spectrogram(values=np.zeros((5, 4)), scale=SCALE_DB,
                             config=cfg, sample_rate=8000)
        with pytest.raises(ScaleMismatchError):
            griffin_lim(target, cfg, 3)

    def test_rejects_wrong_bin_count(self):
        cfg = StftConfig(frame_size=8, hop_size=2)
        target = Spectrogram(values=np.ones((6, 4)), scale=SCALE_MAGNITUDE,
                             config=cfg, sample_rate=8000)
        with pytest.raises(ShapeMismatchError):
            griffin_lim(target, cfg, 3)

    def test_rejects_mismatched_init_phase(self):
        clip = sine_clip(440.0)
        cspec = stft(clip, SMALL)
        target = Spectrogram(values=np.abs(cspec.values[:, :5]),
                             scale=SCALE_MAGNITUDE, config=SMALL, sample_rate=8000)
        with pytest.raises(ShapeMismatchError):
            griffin_lim(target, SMALL, 2, init_phase=cspec)


def oracle_gap(fast: np.ndarray, slow: np.ndarray) -> float:
    """Largest sample difference as a share of the oracle's largest sample."""
    assert fast.shape == slow.shape
    return float(np.max(np.abs(fast - slow)) / np.max(np.abs(slow)))


def complex_noise(seed: int, bins: int, frames: int) -> np.ndarray:
    return (uniform_noise(seed, bins * frames)
            + 1j * uniform_noise(seed + 1, bins * frames)).reshape(bins, frames)


class TestLoopAgainstOracle:
    """The frame-major loop against the per-frame loop it replaced."""

    @pytest.mark.parametrize("frame, hop, window", [
        (2048, 512, "hann"), (512, 256, "hann"), (64, 16, "hann"),
        (256, 256, "rect"), (2048, 3, "hann"),
    ])
    def test_istft_matches_per_frame_overlap_add_bit_for_bit(self, frame, hop, window):
        cfg = StftConfig(frame_size=frame, hop_size=hop, window=window)
        block = dsp._FRAME_BLOCK
        for seed, n_frames in ((1, 1), (3, 2), (5, 9), (7, block + 1), (9, 2 * block + 1)):
            values = complex_noise(seed, cfg.bin_count, n_frames)
            spec = ComplexSpectrogram(values=values, config=cfg, sample_rate=8000)
            fast = istft(spec).samples
            slow = naive_istft(values, frame, hop, window)
            assert fast.tobytes() == slow.tobytes()

    def test_synthesis_modes_match_oracle_on_fixture(self, monkeypatch):
        cfg = StftConfig()
        cspec = stft(AudioClip(samples=make_fixture_samples(), sample_rate=SAMPLE_RATE),
                     cfg)
        seg_map = felzenszwalb_segment(magnitude_db(cspec), SegmentationConfig())
        modes = (pipeline.MODE_MASK_ONLY, pipeline.MODE_ADD, pipeline.MODE_SUBTRACT)
        row = selection_row(seg_map, np.arange(0, seg_map.segment_count, 3))
        fast = {mode: pipeline.synthesize_modified(cspec, seg_map, row, mode,
                                                   iterations=32)
                for mode in modes}

        def oracle(target, config, iterations, init_phase):
            samples = naive_griffin_lim(target.values, config.frame_size,
                                        config.hop_size, config.window, iterations,
                                        init_phase=init_phase.values)
            return AudioClip(samples=samples, sample_rate=target.sample_rate)

        monkeypatch.setattr(pipeline, "griffin_lim", oracle)
        for mode in modes:
            slow = pipeline.synthesize_modified(cspec, seg_map, row, mode,
                                                iterations=32)
            assert oracle_gap(fast[mode].samples, slow.samples) <= 1e-9

    def test_frame_blocks_match_the_full_size_loop_bit_for_bit(self):
        block = dsp._FRAME_BLOCK
        for n_frames in (1, block - 1, block, block + 1, 2 * block + 1):
            values = 0.1 + np.abs(uniform_noise(100 + n_frames, 129 * n_frames)
                                  ).reshape(129, n_frames)
            target = Spectrogram(values=values, scale=SCALE_MAGNITUDE,
                                 config=SMALL, sample_rate=8000)
            init = complex_noise(200 + n_frames, 129, n_frames)
            init_phase = ComplexSpectrogram(values=init, config=SMALL, sample_rate=8000)
            for kwargs, start in (({"seed": 6}, {"seed": 6}),
                                  ({"init_phase": init_phase}, {"init_phase": init})):
                out, errors = griffin_lim_trace(target, SMALL, 6, **kwargs)
                samples, full_errors = full_size_griffin_lim(
                    values, SMALL.frame_size, SMALL.hop_size, SMALL.window, 6, **start)
                assert out.samples.tobytes() == samples.tobytes()
                # The trace adds its squares block by block.
                np.testing.assert_allclose(errors, full_errors, rtol=1e-12)

    def test_random_phase_start_matches_oracle(self):
        for seed in range(4):
            values = np.abs(uniform_noise(seed + 70, 129 * 16)).reshape(129, 16)
            target = Spectrogram(values=values, scale=SCALE_MAGNITUDE,
                                 config=SMALL, sample_rate=8000)
            fast = griffin_lim(target, SMALL, 25, seed=seed).samples
            slow = naive_griffin_lim(values, SMALL.frame_size, SMALL.hop_size,
                                     SMALL.window, 25, seed=seed)
            assert oracle_gap(fast, slow) <= 1e-9

    def test_trace_returns_the_same_samples(self):
        values = np.abs(uniform_noise(80, 129 * 12)).reshape(129, 12)
        target = Spectrogram(values=values, scale=SCALE_MAGNITUDE,
                             config=SMALL, sample_rate=8000)
        init = ComplexSpectrogram(values=complex_noise(81, 129, 12), config=SMALL,
                                  sample_rate=8000)
        for iterations in (0, 1, 7):
            for kwargs in ({"seed": 4}, {"init_phase": init}):
                plain = griffin_lim(target, SMALL, iterations, **kwargs).samples
                traced, errors = griffin_lim_trace(target, SMALL, iterations, **kwargs)
                assert plain.tobytes() == traced.samples.tobytes()
                assert len(errors) == iterations + 1

    def test_zero_analysis_cell_takes_phase_zero(self):
        values = 0.1 + np.abs(uniform_noise(90, 129 * 10)).reshape(129, 10)
        target = Spectrogram(values=values, scale=SCALE_MAGNITUDE,
                             config=SMALL, sample_rate=8000)
        init = np.ones((129, 10), dtype=complex)
        init[::3, ::2] = 0.0
        init_phase = ComplexSpectrogram(values=init, config=SMALL, sample_rate=8000)
        for iterations in (0, 5):
            out = griffin_lim(target, SMALL, iterations, init_phase=init_phase).samples
            assert np.all(np.isfinite(out))
            slow = naive_griffin_lim(values, SMALL.frame_size, SMALL.hop_size,
                                     SMALL.window, iterations, init_phase=init)
            assert oracle_gap(out, slow) <= 1e-9


N_FRAMES = 2 * dsp._FRAME_BLOCK + 12
# The frames whose target is silent, by where they fall.
SILENT = {
    "first": range(0, 5),
    "middle-short": range(10, 10 + dsp._FRAME_BLOCK // 2),
    "middle-long": range(8, 8 + dsp._FRAME_BLOCK + 5),
    "last": range(N_FRAMES - 7, N_FRAMES),
    "all-but-one": [t for t in range(N_FRAMES) if t != N_FRAMES // 2],
    "all": range(N_FRAMES),
}


class TestSilentFrames:
    """A plain run skips the frames whose target is all zero, with the bits
    of the loop that visits every frame."""

    @staticmethod
    def target_with(silent, seed: int) -> np.ndarray:
        values = 0.1 + np.abs(uniform_noise(seed, 129 * N_FRAMES)).reshape(129, N_FRAMES)
        values[:, list(silent)] = 0.0
        return values

    @pytest.mark.parametrize("silent", SILENT.values(), ids=SILENT.keys())
    def test_skip_matches_the_full_size_loop_bit_for_bit(self, silent):
        values = self.target_with(silent, 300)
        target = Spectrogram(values=values, scale=SCALE_MAGNITUDE, config=SMALL,
                             sample_rate=8000)
        init = complex_noise(301, 129, N_FRAMES)
        init_phase = ComplexSpectrogram(values=init, config=SMALL, sample_rate=8000)
        for kwargs, start in (({"seed": 7}, {"seed": 7}),
                              ({"init_phase": init_phase}, {"init_phase": init})):
            out = griffin_lim(target, SMALL, 5, **kwargs).samples
            samples, _ = full_size_griffin_lim(
                values, SMALL.frame_size, SMALL.hop_size, SMALL.window, 5, **start)
            assert out.tobytes() == samples.tobytes()
            # The trace gives the same bits.
            traced, _ = griffin_lim_trace(target, SMALL, 5, **kwargs)
            assert traced.samples.tobytes() == out.tobytes()

    def test_a_plain_run_analyses_only_the_live_frames(self, monkeypatch):
        analysed = []
        real = dsp._analyse

        def counting(frames, window):
            analysed.append(len(frames))
            return real(frames, window)

        monkeypatch.setattr(dsp, "_analyse", counting)
        silent = SILENT["middle-long"]
        target = Spectrogram(values=self.target_with(silent, 302), scale=SCALE_MAGNITUDE,
                             config=SMALL, sample_rate=8000)
        live = N_FRAMES - len(silent)
        griffin_lim(target, SMALL, 6, seed=1)
        assert sum(analysed) == 6 * live
        assert max(analysed) <= dsp._FRAME_BLOCK
        analysed.clear()
        # The trace iterates the live frames too, then measures each of
        # its 7 signals over every frame.
        griffin_lim_trace(target, SMALL, 6, seed=1)
        assert sum(analysed) == 6 * live + 7 * N_FRAMES

    def test_logs_the_frames_it_iterates(self, caplog):
        target = Spectrogram(values=self.target_with(SILENT["first"], 303),
                             scale=SCALE_MAGNITUDE, config=SMALL, sample_rate=8000)
        with caplog.at_level(logging.INFO, logger="midlime"):
            griffin_lim(target, SMALL, 2, seed=1)
        assert [r.getMessage() for r in caplog.records if r.name == "midlime.dsp"] == [
            f"griffin-lim iterates {N_FRAMES - 5} of {N_FRAMES} frames"]
