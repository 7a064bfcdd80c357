"""Graph-based segmentation against a naive longhand reference."""

import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.ndimage import correlate1d

from midlime import rng, segmentation
from midlime.errors import ConfigError, InputTooSmallError, ScaleMismatchError
from midlime.segmentation import (
    SegmentationConfig,
    SegmentMap,
    _build_edges,
    _edge_blocks,
    felzenszwalb_segment,
    gaussian_smooth,
    write_segment_csv,
)

from conftest import block_map, db_spec, random_db_image
from naive_reference import (
    lexsort_edges,
    naive_felzenszwalb,
    naive_gaussian_smooth,
    same_partition,
)

DEFAULTS = SegmentationConfig(scale=25.0, min_size=40, sigma=0.8)


class TestConfig:
    def test_defaults(self):
        cfg = SegmentationConfig()
        assert (cfg.scale, cfg.min_size, cfg.sigma) == (25.0, 40, 0.8)

    def test_validation(self):
        with pytest.raises(ConfigError):
            SegmentationConfig(scale=0.0)
        with pytest.raises(ConfigError):
            SegmentationConfig(min_size=0)
        with pytest.raises(ConfigError):
            SegmentationConfig(sigma=-0.1)


class TestSegmentMapType:
    def test_rejects_gaps_in_labels(self):
        labels = np.array([[0, 0], [2, 2]])
        with pytest.raises(ValueError):
            SegmentMap(labels=labels, segment_count=3)

    def test_rejects_wrong_count(self):
        labels = np.array([[0, 1], [0, 1]])
        with pytest.raises(ValueError):
            SegmentMap(labels=labels, segment_count=3)


class TestGaussianSmooth:
    def test_sigma_zero_is_identity(self):
        image = random_db_image(1, 12, 9)
        out = gaussian_smooth(image, 0.0)
        assert np.array_equal(out, image)
        assert out is not image  # caller's array stays untouched

    def test_constant_image_unchanged(self):
        image = np.full((16, 16), 3.25)
        assert np.allclose(gaussian_smooth(image, 1.7), 3.25, atol=1e-9)

    def test_impulse_response(self):
        image = np.zeros((17, 17))
        image[8, 8] = 1.0
        out = gaussian_smooth(image, 1.0)
        radius = 4
        x = np.arange(-radius, radius + 1, dtype=float)
        kernel = np.exp(-0.5 * x**2)
        kernel /= kernel.sum()
        assert out[8, 8] == pytest.approx(kernel[radius] ** 2, abs=1e-12)
        assert out.sum() == pytest.approx(1.0, abs=1e-6)

    @settings(max_examples=60, deadline=None)
    @given(image=arrays(np.float64, st.tuples(st.integers(1, 30), st.integers(1, 30)),
                        elements=st.floats(-200.0, 200.0)),
           sigma=st.sampled_from([0.3, 0.8, 1.7, 3.0]))
    @example(image=np.array([[-12.5]]), sigma=3.0)
    @example(image=np.linspace(-80.0, 0.0, 9).reshape(1, 9), sigma=1.7)
    @example(image=np.linspace(-80.0, 0.0, 9).reshape(9, 1), sigma=0.3)
    def test_bit_identical_to_scipy_correlate1d(self, image, sigma):
        # One-pixel-wide images and kernels wider than the image included.
        radius = int(math.ceil(4.0 * sigma))
        x = np.arange(-radius, radius + 1, dtype=np.float64)
        kernel = np.exp(-(x * x) / (2.0 * sigma * sigma))
        kernel /= kernel.sum()
        expected = correlate1d(correlate1d(image, kernel, axis=0, mode="nearest"),
                               kernel, axis=1, mode="nearest")
        assert gaussian_smooth(image, sigma).tobytes() == expected.tobytes()

    def test_matches_direct_convolution(self):
        for seed, sigma in ((3, 0.8), (4, 1.5), (5, 2.3)):
            image = random_db_image(seed, 14, 11)
            fast = gaussian_smooth(image, sigma)
            slow = naive_gaussian_smooth(image, sigma)
            assert np.allclose(fast, slow, atol=1e-10)


class TestFelzenszwalb:
    def test_constant_image_is_one_segment(self):
        spec = db_spec(np.full((20, 20), -30.0))
        seg = felzenszwalb_segment(spec, DEFAULTS)
        assert seg.segment_count == 1
        assert np.all(seg.labels == 0)

    def test_two_halves_split_at_the_boundary(self):
        values = np.full((20, 20), 0.0)
        values[:, :10] = -80.0
        spec = db_spec(values)
        seg = felzenszwalb_segment(
            spec, SegmentationConfig(scale=25.0, min_size=40, sigma=0.0))
        assert seg.segment_count == 2
        assert np.all(seg.labels[:, :10] == seg.labels[0, 0])
        assert np.all(seg.labels[:, 10:] == seg.labels[0, 19])
        assert seg.labels[0, 0] != seg.labels[0, 19]

    def test_matches_naive_reference_on_random_images(self):
        for seed in (10, 11, 12):
            image = random_db_image(seed, 64, 64)
            seg = felzenszwalb_segment(db_spec(image), DEFAULTS)
            reference = naive_felzenszwalb(image, 25.0, 40, 0.8)
            assert same_partition(seg.labels, reference)

    @given(data=st.data(), height=st.integers(1, 40), width=st.integers(2, 40),
           seed=st.integers(0, 2**32 - 1), levels=st.integers(2, 5),
           step=st.sampled_from([2.5, 5.0, 12.5]),
           scale=st.sampled_from([2.5, 5.0, 25.0, 300.0]), sigma=st.sampled_from([0.0, 0.8]))
    @settings(max_examples=60, deadline=None)
    def test_matches_naive_reference_on_tied_weights(self, data, height, width, seed,
                                                     levels, step, scale, sigma):
        # A few intensity levels make many edge weights tie, so the tie order
        # decides which merges happen; a block at the -80 dB floor is a
        # plateau of zero-weight edges.
        u = rng.uniform_grid(seed, np.arange(height), np.arange(width))
        image = -60.0 + step * np.floor(levels * u)
        r0, r1 = sorted(data.draw(st.tuples(st.integers(0, height), st.integers(0, height))))
        c0, c1 = sorted(data.draw(st.tuples(st.integers(0, width), st.integers(0, width))))
        image[r0:r1, c0:c1] = -80.0
        n = height * width
        min_size = data.draw(st.sampled_from([m for m in (1, 40, n // 2 + 1) if m <= n]))
        seg = felzenszwalb_segment(db_spec(image),
                                   SegmentationConfig(scale, min_size, sigma))
        # The reference gets the library's smoothing: its own longhand blur
        # rounds differently, and one ulp reorders tied weights.
        reference = naive_felzenszwalb(gaussian_smooth(image, sigma), scale, min_size, 0.0)
        assert same_partition(seg.labels, reference)
        first_seen: dict[int, int] = {}
        for root in reference.ravel().tolist():
            first_seen.setdefault(root, len(first_seen))
        expected = np.array([first_seen[root] for root in reference.ravel().tolist()])
        assert np.array_equal(seg.labels, expected.reshape(height, width))

    @given(image=st.tuples(st.integers(1, 12), st.integers(1, 12))
           .filter(lambda shape: shape[0] * shape[1] >= 2)
           .flatmap(lambda shape: st.one_of(
               # Few integer levels make most weights tie.
               arrays(np.float64, shape, elements=st.integers(-2, 2).map(float)),
               arrays(np.float64, shape, elements=st.floats(-80.0, 0.0)),
               # Overflowing differences give inf and NaN weights.
               arrays(np.float64, shape, elements=st.sampled_from(
                   [0.0, 1.7e308, -1.7e308, np.inf, -np.inf])))))
    @example(image=np.array([[0.0, 1.0, 1.0, 0.0, 2.0, 2.0, 1.0]]))
    @example(image=np.array([[0.0, 1.0, 1.0, 0.0, 2.0, 2.0, 1.0]]).T)
    @example(image=np.array([[0.0, 1.0], [1.0, 0.0]]))
    @settings(max_examples=150, deadline=None)
    def test_edges_match_the_per_direction_lexsort(self, image):
        # Blocks of 5 edges, so that most images decode in several blocks.
        with np.errstate(over="ignore", invalid="ignore"), \
                mock.patch.object(segmentation, "_BLOCK", 5):
            order, weights = _build_edges(image)
            blocks = list(_edge_blocks(order, image.shape[1]))
            p_ref, q_ref, w_ref = lexsort_edges(image)
        assert all(len(block[0]) == 5 for block in blocks[:-1])
        slots, p, q = (np.concatenate(parts) for parts in zip(*blocks))
        w = weights[slots]
        assert order.dtype == p.dtype == q.dtype == np.int32
        assert np.array_equal(p, p_ref) and np.array_equal(q, q_ref)
        assert w.tobytes() == w_ref.tobytes()

    def test_labels_do_not_depend_on_the_edge_block(self, monkeypatch):
        # A tied image at 20 x 30 has 2 301 edges, so blocks of 7 split both
        # passes mid-run, ties included.
        tied = -60.0 + 5.0 * np.floor(3 * rng.uniform_grid(8, np.arange(20),
                                                           np.arange(30)))
        images = (random_db_image(16, 48, 40), tied)
        configs = (DEFAULTS, SegmentationConfig(scale=5.0, min_size=40, sigma=0.0))
        expected = [felzenszwalb_segment(db_spec(image), config).labels
                    for image, config in zip(images, configs)]
        monkeypatch.setattr(segmentation, "_BLOCK", 7)
        for image, config, labels in zip(images, configs, expected):
            assert np.array_equal(
                felzenszwalb_segment(db_spec(image), config).labels, labels)

    def test_single_pixel_is_one_segment(self):
        seg = felzenszwalb_segment(db_spec(np.full((1, 1), -30.0)),
                                   SegmentationConfig(min_size=1))
        assert seg.segment_count == 1 and seg.labels.tolist() == [[0]]

    def test_peak_memory_on_a_full_size_spectrogram(self):
        # A 6 s clip is 1025 x 255 pixels and 1 041 662 edges. The edge list
        # held as Python tuples peaked at 233 MB, and as three lists of
        # Python objects at 158 MB. Full-size origin, target and weight
        # arrays peaked at 58.4 MB; decoding them block by block from the
        # scan order, 37.6 MB.
        image = random_db_image(18, 1025, 255, low=-80.0, high=0.0)
        tracemalloc.start()
        try:
            felzenszwalb_segment(db_spec(image), DEFAULTS)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 49e6

    def test_labels_are_compact_and_first_appearance_ordered(self):
        image = random_db_image(13, 48, 48)
        seg = felzenszwalb_segment(db_spec(image), DEFAULTS)
        flat = seg.labels.ravel()
        first_seen = []
        for label in flat.tolist():
            if label not in first_seen:
                first_seen.append(label)
        assert first_seen == list(range(seg.segment_count))

    def test_min_size_invariant(self):
        for seed in (14, 15):
            image = random_db_image(seed, 56, 40)
            seg = felzenszwalb_segment(db_spec(image), DEFAULTS)
            areas = np.bincount(seg.labels.ravel(), minlength=seg.segment_count)
            assert areas.min() >= DEFAULTS.min_size

    def test_rejects_images_smaller_than_min_size(self):
        spec = db_spec(np.full((5, 5), -30.0))
        with pytest.raises(InputTooSmallError):
            felzenszwalb_segment(spec, DEFAULTS)

    def test_rejects_magnitude_scale(self):
        from midlime.dsp import SCALE_MAGNITUDE, Spectrogram, StftConfig

        spec = Spectrogram(values=np.ones((20, 20)), scale=SCALE_MAGNITUDE,
                           config=StftConfig(), sample_rate=22050)
        with pytest.raises(ScaleMismatchError):
            felzenszwalb_segment(spec, DEFAULTS)

    def test_deterministic(self):
        image = random_db_image(16, 40, 40)
        a = felzenszwalb_segment(db_spec(image), DEFAULTS)
        b = felzenszwalb_segment(db_spec(image), DEFAULTS)
        assert np.array_equal(a.labels, b.labels)
        assert a.segment_count == b.segment_count


class TestSerialization:
    def test_csv_layout(self, tmp_path):
        seg = block_map(4, 4, 2, 2)
        path = tmp_path / "segments.csv"
        write_segment_csv(seg, path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "row,col,label"
        assert len(lines) == 1 + 16
        assert lines[1] == "0,0,0"
        assert lines[-1] == "3,3,3"

    @pytest.mark.parametrize("height, width", [(9, 13), (13, 9), (1, 40), (40, 1), (1, 1)])
    def test_csv_bytes_match_savetxt(self, tmp_path, height, width):
        # Every pixel its own segment, ids shuffled, so labels run to three digits.
        n = height * width
        labels = ((np.arange(n) * 7919) % n).reshape(height, width)
        seg = SegmentMap(labels=labels, segment_count=n)
        ours = tmp_path / "ours.csv"
        write_segment_csv(seg, ours)
        table = np.column_stack([np.repeat(np.arange(height), width),
                                 np.tile(np.arange(width), height), labels.ravel()])
        reference = tmp_path / "reference.csv"
        np.savetxt(reference, table, fmt="%d", delimiter=",",
                   header="row,col,label", comments="")
        assert ours.read_bytes() == reference.read_bytes()
