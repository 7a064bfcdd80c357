"""Graph-based segmentation against a naive longhand reference."""

import hashlib
import logging
import math
import re
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.ndimage import correlate1d

from midlime import rng, segmentation
from midlime.audio import decode_wav
from midlime.dsp import StftConfig, magnitude_db, stft
from midlime.errors import (
    ConfigError,
    InputTooSmallError,
    ScaleMismatchError,
    ShapeMismatchError,
)
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
    scan_felzenszwalb,
)

DEFAULTS = SegmentationConfig(scale=25.0, min_size=40, sigma=0.8)

# Small images whose edge weights tie, or are inf or NaN.
EDGE_IMAGES = (
    st.tuples(st.integers(1, 12), st.integers(1, 12))
    .filter(lambda shape: shape[0] * shape[1] >= 2)
    .flatmap(lambda shape: st.one_of(
        # Few integer levels make most weights tie.
        arrays(np.float64, shape, elements=st.integers(-2, 2).map(float)),
        arrays(np.float64, shape, elements=st.floats(-80.0, 0.0)),
        # Overflowing differences give inf and NaN weights.
        arrays(np.float64, shape, elements=st.sampled_from(
            [0.0, 1.7e308, -1.7e308, np.inf, -np.inf])))))


@st.composite
def tied_images(draw):
    """A few intensity levels, and a block at the -80 dB floor: a plateau of
    zero-weight edges."""
    height, width = draw(st.integers(1, 40)), draw(st.integers(2, 40))
    u = rng.uniform_grid(draw(st.integers(0, 2**32 - 1)), np.arange(height),
                         np.arange(width))
    image = -60.0 + draw(st.sampled_from([2.5, 5.0, 12.5])) * np.floor(
        draw(st.integers(2, 5)) * u)
    r0, r1 = sorted(draw(st.tuples(st.integers(0, height), st.integers(0, height))))
    c0, c1 = sorted(draw(st.tuples(st.integers(0, width), st.integers(0, width))))
    image[r0:r1, c0:c1] = -80.0
    return image


def as_db(image: np.ndarray) -> np.ndarray:
    """`image` moved into a dB spectrogram's range, -80 dB up to a finite
    maximum. Smoothing two 1.7e308 taps overflows to inf, so a sigma above
    0 still gives inf and NaN weights."""
    return np.maximum(np.nan_to_num(image, posinf=1.7e308, neginf=-80.0), -80.0)


def labels_sha256(seg: SegmentMap) -> str:
    return hashlib.sha256(seg.labels.tobytes()).hexdigest()


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

    @pytest.mark.parametrize("labels", [
        [[0, -1], [1, 1]],
        [[0, 1], [2, 1]],
        # int32 casts of these wrap to 1 and to -2**31.
        [[0, 2**32 + 1]],
        [[0, 2**31]],
    ])
    def test_checks_the_range_before_the_cast(self, labels):
        with pytest.raises(ValueError, match=r"labels must cover 0\.\.1"):
            SegmentMap(labels=np.array(labels, dtype=np.int64), segment_count=2)

    @settings(max_examples=150, deadline=None)
    @given(data=st.data(), height=st.integers(1, 12), width=st.integers(1, 12),
           seed=st.integers(0, 2**32 - 1))
    def test_pixels_are_the_labels_in_the_row(self, data, height, width, seed):
        count = data.draw(st.integers(1, height * width), label="count")
        labels = (np.random.default_rng(seed).permutation(height * width) % count
                  ).reshape(height, width)
        ids = sorted(data.draw(st.sets(st.integers(0, count - 1)), label="ids"))
        row = np.zeros(count, dtype=np.uint8)
        row[ids] = 1
        pixels = SegmentMap(labels=labels, segment_count=count).pixels(row)
        assert pixels.dtype == bool
        assert np.array_equal(pixels, np.isin(labels, ids))

    @pytest.mark.parametrize("shape", [(8,), (12,), (1, 9), ()])
    def test_pixels_refuse_a_row_of_the_wrong_shape(self, shape):
        seg_map = block_map(6, 6, 2, 2)  # 9 segments
        with pytest.raises(ShapeMismatchError, match="does not match segment count 9"):
            seg_map.pixels(np.ones(shape, dtype=np.uint8))


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

    @given(data=st.data(), image=tied_images(),
           scale=st.sampled_from([2.5, 5.0, 25.0, 300.0]), sigma=st.sampled_from([0.0, 0.8]))
    @settings(max_examples=60, deadline=None)
    def test_matches_naive_reference_on_tied_weights(self, data, image, scale, sigma):
        # A few intensity levels make many edge weights tie, so the tie order
        # decides which merges happen.
        n = image.size
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
        assert np.array_equal(seg.labels, expected.reshape(image.shape))

    @given(image=EDGE_IMAGES)
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

    @given(data=st.data(), image=st.one_of(EDGE_IMAGES.map(as_db), tied_images()),
           scale=st.sampled_from([2.5, 25.0, 300.0]), sigma=st.sampled_from([0.0, 0.8]))
    @settings(max_examples=80, deadline=None)
    def test_labels_do_not_depend_on_the_round_share(self, data, image, scale, sigma):
        # A share of 0 sends every edge through numpy's rounds, one of 2
        # sends none; each at the default block and at blocks of 7 edges.
        n = image.size
        min_size = data.draw(st.sampled_from([m for m in (1, 2, n // 2 + 1) if m <= n]))
        config = SegmentationConfig(scale, min_size, sigma)
        with np.errstate(over="ignore", invalid="ignore"):
            expected = scan_felzenszwalb(gaussian_smooth(image, sigma), scale, min_size)
            for share in (0.0, 2.0):
                for block in (segmentation._BLOCK, 7):
                    with mock.patch.object(segmentation, "_ROUND_SHARE", share), \
                            mock.patch.object(segmentation, "_BLOCK", block):
                        labels = felzenszwalb_segment(db_spec(image), config).labels
                    assert np.array_equal(labels, expected), (share, block)

    @pytest.mark.parametrize("share", [0.0, 2.0])
    def test_bounds_are_exact_to_the_last_bit(self, monkeypatch, share):
        # The first edge joins two pixels, whose bound becomes 0 + 0.1 / 2
        # in float64. A second edge of exactly that weight joins; one a bit
        # above does not, in numpy's rounds (share 0) and in the scan (2).
        monkeypatch.setattr(segmentation, "_ROUND_SHARE", share)
        config = SegmentationConfig(scale=0.1, min_size=1, sigma=0.0)
        bound = 0.0 + 0.1 / 2
        for weight, labels in ((bound, [[0, 0, 0]]),
                               (np.nextafter(bound, 1.0), [[0, 0, 1]])):
            seg = felzenszwalb_segment(db_spec(np.array([[0.0, 0.0, weight]])), config)
            assert seg.labels.tolist() == labels

    @pytest.mark.parametrize("share", [None, 0.0, 2.0])
    def test_full_size_labels_keep_their_bytes(self, fixture_wav, monkeypatch, share):
        # The 3 s fixture as the CLI reads it; the digest is that of the
        # edge-at-a-time scan that preceded numpy's rounds.
        if share is not None:
            monkeypatch.setattr(segmentation, "_ROUND_SHARE", share)
        spec = magnitude_db(stft(decode_wav(fixture_wav), StftConfig()))
        seg = felzenszwalb_segment(spec, DEFAULTS)
        assert seg.segment_count == 474
        assert labels_sha256(seg) == (
            "ea8717c47077f6ab26bd9976f555d54f1138762fc7bc2f27426b67ce709335b0")

    def test_full_size_random_image_keeps_its_bytes(self):
        seg = felzenszwalb_segment(db_spec(random_db_image(18, 1025, 255)), DEFAULTS)
        assert seg.segment_count == 382
        assert labels_sha256(seg) == (
            "9a0aedd45d23bef48494d221fd26b88a9a0a6a63ddffd9635c611fdc297c44ba")

    @pytest.mark.parametrize("share", [None, 0.0, 2.0])
    def test_logs_where_each_edge_was_decided(self, caplog, monkeypatch, share):
        if share is not None:
            monkeypatch.setattr(segmentation, "_ROUND_SHARE", share)
        image = random_db_image(16, 48, 40)
        with caplog.at_level(logging.INFO, logger="midlime"):
            felzenszwalb_segment(db_spec(image), DEFAULTS)
        lines = [record.getMessage() for record in caplog.records
                 if record.name == "midlime.segmentation"]
        assert len(lines) == 1
        edges, internal, in_rounds, scanned, post_merge = map(
            int, re.findall(r"\d+", lines[0]))
        h, w = image.shape
        assert edges == h * (w - 1) + (h - 1) * w + 2 * (h - 1) * (w - 1)
        assert internal + in_rounds + scanned == edges
        assert 0 < post_merge < edges
        if share == 0.0:
            assert scanned == 0 and in_rounds > 0
        if share == 2.0:
            assert in_rounds == 0 and scanned > 0

    def test_single_pixel_is_one_segment(self):
        seg = felzenszwalb_segment(db_spec(np.full((1, 1), -30.0)),
                                   SegmentationConfig(min_size=1))
        assert seg.segment_count == 1 and seg.labels.tolist() == [[0]]

    def test_peak_memory_on_a_full_size_spectrogram(self):
        # A 6 s clip is 1025 x 255 pixels and 1 041 662 edges. The edge list
        # held as Python tuples peaked at 233 MB, and as three lists of
        # Python objects at 158 MB. Full-size origin, target and weight
        # arrays peaked at 58.4 MB; decoding them block by block from the
        # scan order, 37.6 MB; with the union-find state in array buffers
        # and numpy deciding most edges in rounds, 31.1 MB.
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
