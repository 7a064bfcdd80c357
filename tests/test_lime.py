"""Perturbation sampling, the weighted surrogate, selection, stability."""

import ast
import json
import math
import re
import time
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from dataclasses import FrozenInstanceError
from pathlib import Path

import numpy as np
import pytest
import scipy.special
import scipy.stats
from hypothesis import given, settings
from hypothesis import strategies as st

from midlime import lime as lime_module
from midlime import rng
from midlime.errors import (
    CapabilitiesError,
    ComparabilityError,
    ConfigError,
    PredictionValueError,
    ProtocolError,
    RankDeficiencyError,
    ScaleMismatchError,
    ShapeMismatchError,
)
from midlime.lime import (
    FillStrategy,
    Instance,
    LimeConfig,
    LimeExplanation,
    MaskBatch,
    SelectedFeature,
    SurrogateFit,
    apply_mask,
    design,
    explain_instance,
    explanation_to_json,
    fit_surrogate,
    jaccard,
    proximity_weights,
    sample_masks,
    select_features,
    solve,
    stability_score,
)
from midlime.predictor import _MID_BLOCK, BuiltinPredictor, ConstantPredictor

from conftest import (
    PlantedBlackBox,
    block_map,
    db_spec,
    planted_fixture,
    random_db_image,
    unmasked,
)
from naive_reference import (
    blas_weighted_gram,
    broadcast_cholesky,
    broadcast_inverse_lower,
    broadcast_matmul,
    naive_proximity,
    naive_wls,
    one_shot_masked_mids,
)


def small_setup(n_rows=6, n_cols=8, block=2, seed=2):
    seg_map = block_map(n_rows, n_cols, block, block)
    base = db_spec(random_db_image(seed, n_rows, n_cols))
    return seg_map, base


def planted_small(noise=0.0):
    """12 grid segments, 3 planted coefficients, known intercept."""
    seg_map = block_map(6, 8, 2, 2)
    base = db_spec(random_db_image(3, 6, 8))
    coefficients = np.zeros(12)
    coefficients[[2, 7, 9]] = (1.5, -0.8, 0.4)
    box = PlantedBlackBox(seg_map, base, coefficients, intercept=0.25,
                          noise_sigma=noise)
    return box, coefficients, base, seg_map


class TestFillStrategy:
    def test_coerce_accepts_alias(self):
        assert FillStrategy.coerce("silence") is FillStrategy.SILENCE_FLOOR
        assert FillStrategy.coerce("segment-mean") is FillStrategy.SEGMENT_MEAN
        assert FillStrategy.coerce(FillStrategy.GLOBAL_MEAN) is FillStrategy.GLOBAL_MEAN

    def test_coerce_rejects_unknown(self):
        with pytest.raises(ConfigError):
            FillStrategy.coerce("zeros")


class TestLimeConfig:
    def test_defaults(self):
        cfg = LimeConfig()
        assert cfg.n_samples == 50000
        assert cfg.kernel_width == 0.25
        assert cfg.fill is FillStrategy.SILENCE_FLOOR
        assert cfg.ridge_alpha == 0.0
        assert cfg.ratio_threshold == 1e-6
        assert cfg.seed == 42

    def test_validation(self):
        with pytest.raises(ConfigError):
            LimeConfig(n_samples=2)
        with pytest.raises(ConfigError):
            LimeConfig(kernel_width=0.0)
        with pytest.raises(ConfigError):
            LimeConfig(ratio_threshold=0.0)
        for alpha in (-1.0, float("nan"), float("inf")):
            with pytest.raises(ConfigError):
                LimeConfig(ridge_alpha=alpha)

    @pytest.mark.parametrize("width", [1e-300, 1e-162, 1e200])
    def test_a_width_whose_square_is_no_float_is_refused(self, width):
        # The proximity weights divide by the square: 0.0, or OverflowError.
        with pytest.raises(ConfigError,
                           match=re.escape(f"kernel_width {width} has no float square")):
            LimeConfig(kernel_width=width)

    @pytest.mark.parametrize("width", [1e-154, 1e150, math.inf])
    def test_a_width_with_a_float_square_is_accepted(self, width):
        masks = sample_masks(20, LimeConfig(n_samples=40, seed=1))
        weights = proximity_weights(masks, LimeConfig(kernel_width=width).kernel_width)
        assert np.all(np.isfinite(weights))

    def test_echo_round_trips_through_json(self):
        echo = LimeConfig(seed=9).echo()
        assert json.loads(json.dumps(echo)) == echo
        assert echo["fill"] == "silence-floor"


class TestSampleMasks:
    def test_row_zero_and_reproducibility(self):
        cfg = LimeConfig(n_samples=5, seed=0)
        a = sample_masks(3, cfg)
        b = sample_masks(3, cfg)
        assert np.array_equal(a[0], np.ones(3, dtype=np.uint8))
        assert np.array_equal(a, b)
        assert a.shape == (5, 3)

    def test_entries_binary_and_mean_centered(self):
        masks = sample_masks(300, LimeConfig(n_samples=50000, seed=1))
        assert set(np.unique(masks)) <= {0, 1}
        assert abs(float(masks[1:].mean()) - 0.5) < 0.01

    def test_different_seeds_differ(self):
        a = sample_masks(16, LimeConfig(n_samples=64, seed=0))
        b = sample_masks(16, LimeConfig(n_samples=64, seed=1))
        assert np.any(a != b)

    def test_blocked_fill_equals_one_shot_grid(self):
        n = 2 * lime_module._MASK_BLOCK + 5
        masks = sample_masks(37, LimeConfig(n_samples=n, seed=9))
        grid = rng.bernoulli_grid(9, np.arange(1, n), np.arange(37))
        assert masks[1:].tobytes() == grid.tobytes()

    def test_peak_memory_stays_near_the_mask_matrix(self):
        # 50 000 x 474 uint8 masks are 23.7 MB; a one-shot 64-bit grid peaked
        # near 600 MB, blocks of 4 096 rows at 70.4 MB and blocks of 512 at
        # 29.5 MB.
        tracemalloc.start()
        try:
            sample_masks(474, LimeConfig(n_samples=50000, seed=0))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 38e6

    def test_underdetermined_config_rejected(self):
        with pytest.raises(ConfigError):
            sample_masks(10, LimeConfig(n_samples=11, seed=0))

    def test_mask_set_validation(self):
        masks = sample_masks(3, LimeConfig(n_samples=20, seed=0))
        masks[4, 1] = 2
        with pytest.raises(ValueError):
            fit_surrogate(masks, np.arange(20.0), np.ones(20))
        with pytest.raises(ValueError):
            fit_surrogate(np.full((20, 3), 0.5), np.arange(20.0), np.ones(20))


class TestApplyMask:
    def test_all_ones_is_identity(self):
        seg_map, base = small_setup()
        out = apply_mask(base, seg_map, np.ones(seg_map.segment_count),
                         FillStrategy.SILENCE_FLOOR)
        assert out is base

    def test_all_zeros_silence_floor(self):
        seg_map, base = small_setup()
        out = Instance(base, seg_map, FillStrategy.SILENCE_FLOOR).render(
            np.zeros(seg_map.segment_count))
        assert np.all(out.values == base.config.floor_db)

    def test_segment_mean_fill(self):
        seg_map = block_map(4, 4, 4, 2)  # two vertical segments
        base = db_spec(random_db_image(5, 4, 4))
        out = Instance(base, seg_map, FillStrategy.SEGMENT_MEAN).render(np.array([1, 0]))
        assert np.array_equal(out.values[:, :2], base.values[:, :2])
        expected = base.values[:, 2:].mean()
        assert np.allclose(out.values[:, 2:], expected, atol=1e-12)

    def test_global_mean_fill(self):
        seg_map = block_map(4, 4, 4, 2)
        base = db_spec(random_db_image(6, 4, 4))
        out = Instance(base, seg_map, FillStrategy.GLOBAL_MEAN).render(np.array([0, 1]))
        assert np.allclose(out.values[:, :2], base.values.mean(), atol=1e-12)
        assert np.array_equal(out.values[:, 2:], base.values[:, 2:])

    def test_rejects_wrong_mask_length(self):
        seg_map, base = small_setup()
        with pytest.raises(ShapeMismatchError):
            apply_mask(base, seg_map, np.ones(seg_map.segment_count + 1),
                       FillStrategy.SILENCE_FLOOR)


class TestInstance:
    def test_rejects_magnitude_scale(self):
        from midlime.dsp import SCALE_MAGNITUDE, Spectrogram, StftConfig

        seg_map = block_map(4, 4, 2, 2)
        spec = Spectrogram(values=np.ones((4, 4)), scale=SCALE_MAGNITUDE,
                           config=StftConfig(), sample_rate=22050)
        with pytest.raises(ScaleMismatchError):
            Instance(spec, seg_map, FillStrategy.SILENCE_FLOOR)

    def test_rejects_mismatched_map(self):
        seg_map = block_map(4, 4, 2, 2)
        base = db_spec(random_db_image(7, 6, 6))
        with pytest.raises(ShapeMismatchError):
            Instance(base, seg_map, FillStrategy.SILENCE_FLOOR)

    @pytest.mark.parametrize("extra", [-1, 3])
    def test_render_refuses_a_row_of_the_wrong_length(self, extra):
        seg_map, base = small_setup()
        instance = Instance(base, seg_map, FillStrategy.SILENCE_FLOOR)
        with pytest.raises(ShapeMismatchError, match="does not match segment count"):
            instance.render(np.ones(seg_map.segment_count + extra, dtype=np.uint8))

    def test_all_ones_render_has_apply_masks_values(self):
        seg_map, base = small_setup()
        ones = np.ones(seg_map.segment_count, dtype=np.uint8)
        rendered = Instance(base, seg_map, FillStrategy.SILENCE_FLOOR).render(ones)
        assert rendered.values.tobytes() == apply_mask(
            base, seg_map, ones, FillStrategy.SILENCE_FLOOR).values.tobytes()

    def test_coerces_the_fill_and_computes_the_filler(self):
        seg_map, base = small_setup()
        instance = Instance(base, seg_map, "silence")
        assert instance.fill is FillStrategy.SILENCE_FLOOR
        assert np.all(instance.filler == base.config.floor_db)
        with pytest.raises(ConfigError):
            Instance(base, seg_map, "zeros")

    def test_memo_builds_each_key_once_across_threads(self):
        seg_map, base = small_setup()
        instance = Instance(base, seg_map, FillStrategy.GLOBAL_MEAN)
        built = []

        def build(inst):
            assert inst is instance
            built.append(1)
            time.sleep(0.01)  # long enough for the other threads to arrive
            return object()

        with ThreadPoolExecutor(max_workers=4) as pool:
            got = list(pool.map(lambda _: instance.memo("key", build), range(32),
                                timeout=30))
        assert len(built) == 1
        assert all(g is got[0] for g in got)
        assert instance.memo("other", build) is not got[0]
        assert len(built) == 2

    def test_forget_drops_the_memo(self):
        seg_map, base = small_setup()
        instance = Instance(base, seg_map, FillStrategy.GLOBAL_MEAN)
        first = instance.memo("key", lambda inst: object())
        instance.forget()
        assert instance.memo("key", lambda inst: object()) is not first


class TestProximity:
    def test_all_ones_weight_is_one(self):
        assert proximity_weights(np.ones((1, 10)), 0.25)[0] == pytest.approx(1.0)

    def test_all_zeros_defined_case(self):
        expected = math.exp(-1.0 / 0.25**2)
        assert proximity_weights(np.zeros((1, 10)), 0.25)[0] == pytest.approx(expected)

    def test_hand_computed_half_mask(self):
        d = 1.0 - 1.0 / math.sqrt(2.0)
        expected = math.exp(-(d * d) / 0.0625)
        got = proximity_weights(np.array([[1, 1, 0, 0]]), 0.25)[0]
        assert got == pytest.approx(expected, rel=1e-12)

    def test_matches_naive_loop(self):
        masks = sample_masks(12, LimeConfig(n_samples=40, seed=3))
        fast = proximity_weights(masks, 0.3)
        slow = naive_proximity(masks, 0.3)
        assert np.allclose(fast, slow, rtol=1e-12)

    def test_equals_scalar_exp_per_row(self):
        masks = sample_masks(50, LimeConfig(n_samples=300, seed=4))
        expected = []
        for row in masks:
            d = 1.0 - math.sqrt(int(row.sum()) / 50)
            expected.append(math.exp(-(d * d) / 0.25**2))
        assert np.array_equal(proximity_weights(masks, 0.25), np.array(expected))


class TestFitSurrogate:
    def _random_problem(self, seed, n=200, k=6, alpha=0.0):
        masks = sample_masks(k, LimeConfig(n_samples=n, seed=seed))
        noise = scipy.stats.norm.ppf(
            np.clip(rng.uniform_grid(seed + 100, np.arange(1), np.arange(n))[0],
                    1e-12, 1 - 1e-12))
        coef = np.linspace(-1, 1, k)
        targets = 0.3 + masks @ coef + 0.05 * noise
        weights = proximity_weights(masks, 0.25)
        return masks, targets, weights

    def test_constant_targets(self):
        masks = sample_masks(5, LimeConfig(n_samples=50, seed=1))
        fit = fit_surrogate(masks, np.full(50, 2.5), np.ones(50))
        assert np.max(np.abs(fit.weights)) <= 1e-9
        assert fit.intercept == pytest.approx(2.5, abs=1e-9)
        assert fit.r_squared == 0.0
        assert fit.dof == 50 - 5 - 1

    @pytest.mark.parametrize("seed, value", [(1, -80.0), (2, 0.3)])
    def test_a_one_segment_constant_target_selects_nothing(self, seed, value):
        # The popcount-0 rows weigh e^-16, so the design is near-singular,
        # and a float solve left a weight of about -1e-7 with p near 1e-46.
        masks = sample_masks(1, LimeConfig(n_samples=300, seed=seed))
        fit = fit_surrogate(masks, np.full(300, value), proximity_weights(masks, 0.25))
        assert fit.intercept == value and fit.r_squared == 0.0
        assert fit.weights.tolist() == fit.std_errors.tolist() == [0.0]
        assert fit.p_values.tolist() == [1.0]
        assert select_features(fit, 1e-6) == ()

    def test_a_target_constant_on_the_weighted_rows_is_fitted_exactly(self):
        masks = sample_masks(5, LimeConfig(n_samples=80, seed=3))
        weights, targets = np.ones(80), np.full(80, 2.5)
        weights[:10], targets[:10] = 0.0, 7.0
        fit = fit_surrogate(masks, targets, weights)
        assert fit.intercept == 2.5 and not fit.weights.any()
        assert fit.p_values.tolist() == [1.0] * 5 and fit.dof == 80 - 5 - 1

    def test_exact_linear_recovery(self):
        masks = sample_masks(6, LimeConfig(n_samples=120, seed=2))
        targets = 2.0 * masks[:, 0] - 1.0 * masks[:, 1] + 0.5
        weights = proximity_weights(masks, 0.25)
        fit = fit_surrogate(masks, targets, weights, alpha=0.0)
        expected = np.array([2.0, -1.0, 0, 0, 0, 0])
        assert np.allclose(fit.weights, expected, atol=1e-8)
        assert fit.intercept == pytest.approx(0.5, abs=1e-8)
        assert fit.p_values[0] < 1e-12 and fit.p_values[1] < 1e-12
        assert fit.r_squared >= 1.0 - 1e-9

    def test_hand_enumerated_normal_equations(self):
        combos = np.array([[0, 0], [0, 1], [1, 0], [1, 1]], dtype=np.uint8)
        masks = np.vstack([combos, combos])  # every combo twice
        y = np.array([0.2, 1.0, 2.0, 3.5, 0.4, 1.2, 2.4, 3.1])
        ones = np.ones(8)
        # normal equations written out longhand: X = [1 | m0 | m1]
        lhs = np.array([[8.0, 4.0, 4.0],
                        [4.0, 4.0, 2.0],
                        [4.0, 2.0, 4.0]])
        rhs = np.array([y.sum(),
                        y[2] + y[3] + y[6] + y[7],
                        y[1] + y[3] + y[5] + y[7]])
        beta = np.linalg.solve(lhs, rhs)
        fit = fit_surrogate(masks, y, ones)
        assert fit.intercept == pytest.approx(beta[0], abs=1e-10)
        assert np.allclose(fit.weights, beta[1:], atol=1e-10)
        assert fit.dof == 5

    def test_matches_naive_reference_unpenalized(self):
        masks, targets, weights = self._random_problem(seed=4)
        fit = fit_surrogate(masks, targets, weights, alpha=0.0)
        w, b, se, p, r2 = naive_wls(masks, targets, weights, alpha=0.0)
        assert np.allclose(fit.weights, w, atol=1e-9)
        assert fit.intercept == pytest.approx(b, abs=1e-9)
        assert np.allclose(fit.std_errors, se[1:], atol=1e-9)
        assert np.allclose(fit.p_values, p[1:], atol=1e-9)
        assert fit.r_squared == pytest.approx(r2, abs=1e-9)

    def test_matches_naive_reference_ridge(self):
        masks, targets, weights = self._random_problem(seed=5)
        fit = fit_surrogate(masks, targets, weights, alpha=0.7)
        w, b, se, p, r2 = naive_wls(masks, targets, weights, alpha=0.7)
        assert np.allclose(fit.weights, w, atol=1e-9)
        assert fit.intercept == pytest.approx(b, abs=1e-9)
        assert np.allclose(fit.std_errors, se[1:], atol=1e-9)
        assert np.allclose(fit.p_values, p[1:], atol=1e-9)

    def test_ridge_shrinks_coefficients(self):
        masks, targets, weights = self._random_problem(seed=6)
        free = fit_surrogate(masks, targets, weights, alpha=0.0)
        shrunk = fit_surrogate(masks, targets, weights, alpha=50.0)
        assert np.linalg.norm(shrunk.weights) < np.linalg.norm(free.weights)
        # the intercept is not penalized
        assert abs(shrunk.intercept) > 1e-3

    @pytest.mark.parametrize("alpha", [-1.0, float("nan"), float("inf")])
    def test_rejects_negative_or_non_finite_alpha(self, alpha):
        masks, targets, weights = self._random_problem(seed=3)
        with pytest.raises(ConfigError):
            fit_surrogate(masks, targets, weights, alpha=alpha)

    def test_rank_deficiency(self):
        column = sample_masks(1, LimeConfig(n_samples=40, seed=7))
        masks = np.hstack([column, column])  # identical features
        with pytest.raises(RankDeficiencyError):
            fit_surrogate(masks, np.arange(40.0), np.ones(40))

    def test_near_collinear_columns_rejected(self):
        # columns 1 and 2 differ only in one row, and that row weighs nothing
        masks = sample_masks(3, LimeConfig(n_samples=40, seed=7))
        masks[:, 2] = masks[:, 1]
        masks[5, 2] = 1 - masks[5, 1]
        weights = np.ones(40)
        weights[5] = 1e-14
        with pytest.raises(RankDeficiencyError):
            fit_surrogate(masks, np.arange(40.0), weights)

    @pytest.mark.parametrize("alpha", [0.0, 0.7])
    def test_panel_width_does_not_change_bits(self, monkeypatch, alpha):
        masks, targets, weights = self._random_problem(seed=13, n=300, k=150)
        wide = fit_surrogate(masks, targets, weights, alpha=alpha)
        monkeypatch.setattr(lime_module, "_PANEL", 7)
        narrow = fit_surrogate(masks, targets, weights, alpha=alpha)
        assert np.array_equal(wide.weights, narrow.weights)
        assert np.array_equal(wide.std_errors, narrow.std_errors)
        assert wide.intercept == narrow.intercept

    def test_normal_matrix_is_exact_per_weight_class(self):
        masks, _, weights = self._random_problem(seed=14, n=400, k=30)
        pi = weights * (400 / math.fsum(weights))
        gram = lime_module._weighted_gram(masks, pi)
        design = np.hstack([np.ones((400, 1)), masks])
        assert np.allclose(gram, design.T @ (pi[:, None] * design), rtol=1e-13)
        order = np.argsort(rng.uniform_grid(15, np.arange(1), np.arange(400))[0])
        assert np.array_equal(gram, lime_module._weighted_gram(masks[order], pi[order]))

    def test_p_values_in_unit_interval_and_se_nonnegative(self):
        masks, targets, weights = self._random_problem(seed=9)
        fit = fit_surrogate(masks, targets, weights)
        assert np.all(fit.p_values >= 0.0) and np.all(fit.p_values <= 1.0)
        assert np.all(fit.std_errors >= 0.0)

    def test_null_p_values_close_to_uniform(self):
        n, k = 2000, 300
        masks = sample_masks(k, LimeConfig(n_samples=n, seed=12))
        noise = scipy.stats.norm.ppf(
            np.clip(rng.uniform_grid(rng.derive(555, 0), np.arange(1),
                                     np.arange(n))[0],
                    1e-12, 1 - 1e-12))
        fit = fit_surrogate(masks, noise, np.ones(n))
        stat = scipy.stats.kstest(fit.p_values, "uniform").statistic
        assert stat <= 0.05


def fit_fields(fit: SurrogateFit) -> tuple:
    """Every field of a fit, the arrays as their bytes."""
    return (fit.weights.tobytes(), fit.intercept, fit.std_errors.tobytes(),
            fit.p_values.tobytes(), fit.r_squared, fit.dof)


class TestDesignAndSolve:
    @pytest.mark.parametrize("alpha", [0.0, 0.5])
    def test_one_design_solves_three_targets_as_fresh_fits(self, alpha):
        masks, noisy, weights = TestFitSurrogate()._random_problem(seed=21, n=300, k=40)
        exact = 2.0 * masks[:, 0] - 1.0 * masks[:, 1] + 0.5
        constant = np.full(300, -1.25)
        shared = design(masks, weights, alpha)
        fits = [solve(shared, y) for y in (noisy, exact, constant)]
        for y, fit in zip((noisy, exact, constant), fits):
            assert fit_fields(fit) == fit_fields(fit_surrogate(masks, y, weights, alpha))
        assert fits[0].r_squared < 1.0 - 1e-6 and fits[0].p_values.min() > 0.0

    def test_design_arrays_are_read_only(self):
        masks, _, weights = TestFitSurrogate()._random_problem(seed=22)
        shared = design(masks, weights, 0.7)
        for name in ("masks", "weights", "factor", "variance"):
            with pytest.raises(ValueError, match="read-only"):
                getattr(shared, name)[0] = 1
        with pytest.raises(FrozenInstanceError):
            shared.dof = 0
        # The design holds a view; the caller's matrix stays writable.
        assert masks.flags.writeable and np.shares_memory(shared.masks, masks)

    def test_solve_checks_the_target(self):
        masks, targets, weights = TestFitSurrogate()._random_problem(seed=23)
        shared = design(masks, weights)
        with pytest.raises(ShapeMismatchError, match="do not match 200 masks"):
            solve(shared, targets[:-1])
        bad = targets.copy()
        bad[3] = np.nan
        with pytest.raises(ValueError, match="targets must be finite"):
            solve(shared, bad)


# Class sizes on both sides of the 64-row word boundaries of the packed gram.
CLASS_SIZES = (1, 63, 64, 65, 128, 129)
# Matrix orders on both sides of the 64-wide panels, and p = 1.
ORDERS = (1, 2, 5, 63, 64, 65, 130)


def binary_matrix(seed: int, n: int, k: int) -> np.ndarray:
    return rng.bernoulli_grid(seed, np.arange(n), np.arange(k))


def spd_matrix(kind: str, p: int, seed: int) -> np.ndarray:
    """A symmetric positive definite p x p matrix: weighted counts of 0/1
    columns, a block diagonal of such, or the identity."""
    def counts(q, stream):
        masks = binary_matrix(rng.derive(seed, stream), 3 * q + 8, q)
        pi = proximity_weights(masks, 0.25)
        return lime_module._weighted_gram(masks, pi)[1:, 1:]

    if kind == "identity":
        return np.eye(p)
    if kind == "counts":
        return counts(p, 0)
    a = np.zeros((p, p))
    start = 0
    while start < p:
        size = min(p - start, 1 + start % 7)
        a[start:start + size, start:start + size] = counts(size, start)
        start += size
    return a


def assert_no_negative_zero(m: np.ndarray) -> None:
    assert not np.signbit(m[m == 0.0]).any()


class TestFitKernels:
    """The BLAS-free kernels against their BLAS and broadcast forms, byte
    for byte (`naive_reference`)."""

    @settings(max_examples=80, deadline=None)
    @given(seed=st.integers(0, 2**31 - 1),
           n_seg=st.sampled_from([1, 2, 7, 63, 64, 65, 130]),
           sizes=st.lists(st.sampled_from(CLASS_SIZES), min_size=1, max_size=4),
           values=st.lists(st.floats(0.0, 1e3), min_size=4, max_size=4, unique=True),
           zero_class=st.booleans(),
           dtype=st.sampled_from([np.uint8, np.bool_, np.float64]))
    def test_gram_has_the_bytes_of_the_blas_counts(self, seed, n_seg, sizes, values,
                                                   zero_class, dtype):
        values = np.array(values[:len(sizes)])
        if zero_class:
            values[0] = 0.0
        n = sum(sizes)
        masks = binary_matrix(seed, n, n_seg).astype(dtype)
        shuffle = np.argsort(rng.uniform_grid(seed + 1, np.arange(1), np.arange(n))[0])
        pi = np.repeat(values, sizes)[shuffle]
        gram = lime_module._weighted_gram(masks, pi)
        assert gram.tobytes() == blas_weighted_gram(masks, pi).tobytes()

    def test_gram_counts_a_class_of_ones_exactly(self):
        # 129 all-ones rows: every count is 129, over three words.
        gram = lime_module._weighted_gram(np.ones((129, 3), dtype=np.uint8),
                                          np.full(129, 0.5))
        assert np.array_equal(gram, np.full((4, 4), 64.5))

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**31 - 1), p=st.sampled_from(ORDERS),
           kind=st.sampled_from(["counts", "blocks", "identity"]))
    def test_factor_and_inverse_have_the_bytes_of_broadcast_terms(self, seed, p, kind):
        a = spd_matrix(kind, p, seed)
        try:
            ref_u, ref_pivots = broadcast_cholesky(a)
        except RankDeficiencyError:
            with pytest.raises(RankDeficiencyError):
                lime_module._cholesky(a)
            return
        u, pivots = lime_module._cholesky(a)
        assert u.tobytes() == ref_u.tobytes()
        assert pivots.tobytes() == ref_pivots.tobytes()
        x_inv = lime_module._inverse_lower(u)
        assert x_inv.tobytes() == broadcast_inverse_lower(u).tobytes()
        assert_no_negative_zero(u)
        assert_no_negative_zero(x_inv)
        assert (lime_module._matmul(x_inv.T, x_inv).tobytes()
                == broadcast_matmul(x_inv.T, x_inv).tobytes())

    @settings(max_examples=60, deadline=None)
    @given(shape=st.tuples(st.integers(1, 9), st.integers(1, 9), st.integers(1, 9)),
           data=st.data())
    def test_matmul_has_the_bytes_of_broadcast_terms(self, shape, data):
        rows, inner, cols = shape
        entries = st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.1, -3.5, 1e-300, -2e300])
        a = np.array(data.draw(st.lists(entries, min_size=rows * inner,
                                        max_size=rows * inner))).reshape(rows, inner)
        b = np.array(data.draw(st.lists(entries, min_size=inner * cols,
                                        max_size=inner * cols))).reshape(inner, cols)
        with np.errstate(over="ignore", invalid="ignore", under="ignore"):
            assert lime_module._matmul(a, b).tobytes() == broadcast_matmul(a, b).tobytes()

    def test_a_seeded_negative_zero_keeps_its_sign_under_einsum_terms(self):
        # Outside what a fit passes in: an upper entry of -0.0 that the
        # -0.0 product 0.0 * -1.0 reaches. The broadcast term makes the
        # entry +0.0; einsum's term is +0.0 and leaves it at -0.0.
        a = np.array([[1.0, 0.0, -1.0], [0.0, 1.0, -0.0], [-1.0, -0.0, 2.0]])
        u, _ = lime_module._cholesky(a)
        ref, _ = broadcast_cholesky(a)
        assert np.signbit(u[1, 2]) and not np.signbit(ref[1, 2])


BLAS_ENTRY_POINTS = ("matmul", "dot", "vdot", "inner", "tensordot")


class TestNoBlas:
    @pytest.fixture
    def refuse_blas(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a BLAS product was called")

        for name in BLAS_ENTRY_POINTS:
            monkeypatch.setattr(np, name, refuse)

    @pytest.mark.parametrize("alpha", [0.0, 0.7])
    def test_fit_makes_no_blas_call(self, refuse_blas, alpha):
        masks = sample_masks(70, LimeConfig(n_samples=400, seed=8))
        targets = 0.3 + (masks * np.linspace(-1, 1, 70)).sum(axis=1)
        fit = fit_surrogate(masks, targets, proximity_weights(masks, 0.25), alpha)
        assert np.all(np.isfinite(fit.weights))

    def test_builtin_explain_makes_no_blas_call(self, fixture_instance, refuse_blas):
        spec, seg_map = fixture_instance
        predictor = BuiltinPredictor(seed=0)
        config = LimeConfig(n_samples=seg_map.segment_count + 130, seed=5)
        with ThreadPoolExecutor(2) as pool:
            expl = explain_instance(lambda batch: predictor.predict(batch)[0][:, 2],
                                    Instance(spec, seg_map, config.fill), config,
                                    map=pool.map)
        assert expl.selected

    def test_package_source_names_no_blas_product(self):
        package = Path(lime_module.__file__).parent
        for path in sorted(package.glob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                assert not isinstance(node, ast.MatMult), path.name
                if isinstance(node, ast.Attribute):
                    assert node.attr not in BLAS_ENTRY_POINTS, (path.name, node.attr)


# 10**7 is beyond any fit here; there a lambda taken from the wrong one of
# x and y in the continued fraction loses 4e-10, relative.
TAIL_DOFS = [1, 2, 3, 5, 10, 30, 130, 217, 1530, 4000, 49077, 10**5, 10**7]
TAIL_T = np.concatenate([[0.0], np.logspace(-6, 3.5, 4000)])


def scipy_two_sided(dof, t):
    return 2.0 * scipy.special.stdtr(dof, -np.abs(t))


def assert_near_scipy(p, ref):
    """1e-10 relative, 1e-11 where p <= 1e-6, 1e-300 absolute below 1e-300."""
    normal = ref >= 1e-300
    rel = np.abs(p[normal] - ref[normal]) / ref[normal]
    assert rel.max(initial=0.0) <= 1e-10
    assert rel[ref[normal] <= 1e-6].max(initial=0.0) <= 1e-11
    assert np.abs(p[~normal] - ref[~normal]).max(initial=0.0) <= 1e-300


class TestTwoSidedT:
    @pytest.mark.parametrize("dof", TAIL_DOFS)
    def test_matches_scipy(self, dof):
        p = lime_module._t_two_sided(dof, TAIL_T)
        assert TAIL_T[0] == 0.0 and p[0] == 1.0
        assert_near_scipy(p, scipy_two_sided(dof, TAIL_T))

    def test_limits_and_signs(self):
        t = np.array([np.inf, -np.inf, 1e200, np.nan, 5e-324, -0.0, -2.5, 2.5])
        p = lime_module._t_two_sided(7, t)
        assert p[:3].tolist() == [0.0, 0.0, 0.0]
        assert np.isnan(p[3])
        assert p[4:6].tolist() == [1.0, 1.0]
        assert p[6] == p[7] == pytest.approx(scipy_two_sided(7, 2.5), rel=1e-13)
        assert lime_module._t_two_sided(7, np.array([])).shape == (0,)

    @settings(max_examples=25, deadline=None)
    @given(dof=st.sampled_from(TAIL_DOFS), seed=st.integers(0, 2**32 - 1))
    def test_entry_bits_do_not_depend_on_the_vector(self, dof, seed):
        tail = lime_module._t_two_sided
        order = np.argsort(rng.uniform_grid(seed, np.arange(1),
                                            np.arange(TAIL_T.size))[0])
        full = tail(dof, TAIL_T)
        shuffled = np.empty_like(full)
        shuffled[order] = tail(dof, TAIL_T[order])
        assert np.array_equal(full, shuffled)
        for i in order[:20]:
            assert tail(dof, TAIL_T[i:i + 1])[0] == full[i]

    def test_noisy_planted_fit_matches_scipy(self):
        box, _, _, base, seg_map = planted_fixture(noise_sigma=0.18, jitter_count=8)
        expl = explain_instance(box, Instance(base, seg_map, "silence"),
                                LimeConfig(n_samples=1150, seed=4))
        fit = expl.fit
        ref = scipy_two_sided(fit.dof, fit.weights / fit.std_errors)
        assert fit.std_errors.min() > 0
        assert ((ref > 1e-300) & (ref < 1e-6)).sum() >= 10
        assert_near_scipy(fit.p_values, ref)


class TestSelectFeatures:
    def _fit(self, weights, p_values, intercept=0.0):
        weights = np.asarray(weights, dtype=np.float64)
        return SurrogateFit(
            weights=weights,
            intercept=intercept,
            std_errors=np.full(len(weights), 0.1),
            p_values=np.asarray(p_values, dtype=np.float64),
            r_squared=0.9,
            dof=100,
        )

    def test_ratio_rule_accepts(self):
        fit = self._fit([0.05], [1e-8])
        selected = select_features(fit, 1e-6)
        assert len(selected) == 1
        assert selected[0].segment == 0

    def test_ratio_rule_rejects(self):
        fit = self._fit([0.01], [0.5])
        assert select_features(fit, 1e-6) == ()

    def test_boundary_is_inclusive(self):
        fit = self._fit([0.1], [1e-7])  # ratio exactly 1e-6
        assert len(select_features(fit, 1e-6)) == 1

    def test_orders_by_magnitude_then_segment(self):
        fit = self._fit([0.2, -0.5, 0.2, 0.9], [1e-12] * 4)
        selected = select_features(fit, 1e-6)
        assert [s.segment for s in selected] == [3, 1, 0, 2]

    def test_numerically_zero_weights_never_selected(self):
        # an interpolating fit can hand float-noise coefficients absurd
        # t statistics; the magnitude gauge must screen them out
        fit = self._fit([1.0, 1e-15], [1e-300, 0.0])
        selected = select_features(fit, 1e-6)
        assert [s.segment for s in selected] == [0]

    def test_rejects_bad_threshold(self):
        with pytest.raises(ConfigError):
            select_features(self._fit([0.1], [0.5]), 0.0)

    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=40, deadline=None)
    def test_threshold_monotonicity(self, seed):
        k = 12
        u = rng.uniform_grid(seed, np.arange(2), np.arange(k))
        fit = self._fit(2.0 * u[0] - 1.0, u[1] ** 4)
        loose = {s.segment for s in select_features(fit, 1e-2)}
        tight = {s.segment for s in select_features(fit, 1e-4)}
        assert tight <= loose


class TestExplainInstance:
    def test_exact_linear_black_box_recovered(self):
        box, coefficients, base, seg_map = planted_small()
        config = LimeConfig(n_samples=600, seed=4)
        expl = explain_instance(box, Instance(base, seg_map, "silence"), config)
        assert np.allclose(expl.fit.weights, coefficients, atol=1e-6)
        assert {s.segment for s in expl.selected} == {2, 7, 9}
        assert expl.positive_ids == (2, 9)
        assert expl.negative_ids == (7,)
        assert expl.fit.r_squared >= 1.0 - 1e-9
        assert expl.prediction_at_ones == pytest.approx(
            0.25 + coefficients.sum(), abs=1e-12)

    def test_constant_black_box_selects_nothing(self):
        seg_map, base = small_setup()

        def constant(batch):
            return [1.25] * len(batch)

        expl = explain_instance(constant, Instance(base, seg_map, "silence"),
                                LimeConfig(n_samples=200, seed=5))
        assert expl.selected == ()
        assert expl.positive_ids == () and expl.negative_ids == ()

    def test_reruns_are_byte_identical(self):
        box, _, base, seg_map = planted_small()
        config = LimeConfig(n_samples=400, seed=6)
        texts = [json.dumps(explanation_to_json(
                     explain_instance(box, Instance(base, seg_map, "silence"), config,
                                      target="mid:m")),
                     indent=2)
                 for _ in range(2)]
        assert texts[0] == texts[1]

    def test_batch_size_and_workers_do_not_change_the_result(self, monkeypatch):
        box, _, base, seg_map = planted_small()
        config = LimeConfig(n_samples=300, seed=7)
        instance = Instance(base, seg_map, "silence")

        def explain(block, **kwargs):
            monkeypatch.setattr(lime_module, "_PREDICT_BLOCK", block)
            return explain_instance(box, instance, config, **kwargs)

        baseline = explain(300)
        chunked = explain(17)
        with ThreadPoolExecutor(3) as pool:
            threaded = explain(32, map=pool.map)
        for other in (chunked, threaded):
            assert np.array_equal(baseline.fit.weights, other.fit.weights)
            assert baseline.selected == other.selected

    def test_predict_gets_blocks_of_256_rows(self):
        box, _, base, seg_map = planted_small()
        sizes = []

        def sized(batch):
            sizes.append(len(batch))
            return box(batch)

        explain_instance(sized, Instance(base, seg_map, "silence"),
                         LimeConfig(n_samples=600, seed=7))
        assert sizes == [256, 256, 88]

    def test_non_finite_prediction_reports_global_index(self, monkeypatch):
        monkeypatch.setattr(lime_module, "_PREDICT_BLOCK", 16)
        seg_map, base = small_setup()
        counter = {"n": 0}

        def flaky(batch):
            out = []
            for _ in batch:
                out.append(float("nan") if counter["n"] == 37 else 0.5)
                counter["n"] += 1
            return out

        with pytest.raises(PredictionValueError) as info:
            explain_instance(flaky, Instance(base, seg_map, "silence"),
                             LimeConfig(n_samples=100, seed=8))
        assert info.value.index == 37

    def test_wrong_reply_count_is_transport_error(self, monkeypatch):
        from midlime.errors import TransportError

        monkeypatch.setattr(lime_module, "_PREDICT_BLOCK", 25)
        seg_map, base = small_setup()

        def short(batch):
            return [0.5] * (len(batch) - 1)

        with pytest.raises(TransportError):
            explain_instance(short, Instance(base, seg_map, "silence"),
                             LimeConfig(n_samples=100, seed=9))

    @pytest.mark.parametrize("make, attr, value", [
        (lambda: ProtocolError("bad line", line="{oops"), "line", "{oops"),
        (lambda: CapabilitiesError("bad names", field="mid_names"),
         "field", "mid_names"),
        (lambda: PredictionValueError("nan", index=3), "index", 35),
    ], ids=["protocol", "capabilities", "prediction-value"])
    def test_predictor_errors_keep_type_and_attributes(self, make, attr, value,
                                                        monkeypatch):
        monkeypatch.setattr(lime_module, "_PREDICT_BLOCK", 16)
        seg_map, base = small_setup()
        seen = {"rows": 0}

        def failing_third_chunk(batch):
            if seen["rows"] == 32:
                raise make()
            seen["rows"] += len(batch)
            return [0.5] * len(batch)

        original = make()
        with pytest.raises(type(original)) as info:
            explain_instance(failing_third_chunk, Instance(base, seg_map, "silence"),
                             LimeConfig(n_samples=100, seed=8))
        assert type(info.value) is type(original)
        assert getattr(info.value, attr) == value
        assert str(info.value) == f"while predicting mask rows 32..47: {original}"

    def test_invalid_worker_and_batch_args(self):
        # The block of rows per call is LIME's own, and the caller's `map`
        # spreads the blocks; both keywords are gone.
        seg_map, base = small_setup()
        for keyword in ("batch_size", "workers"):
            with pytest.raises(TypeError, match=keyword):
                explain_instance(lambda b: [0.0] * len(b),
                                 Instance(base, seg_map, "silence"),
                                 LimeConfig(n_samples=100, seed=1), **{keyword: 2})

    @pytest.mark.parametrize("fill", [FillStrategy.SEGMENT_MEAN, FillStrategy.GLOBAL_MEAN])
    def test_refuses_an_instance_of_another_fill(self, fill):
        # The bundle's config echo names the fill, so it must be the one used.
        seg_map, base = small_setup()
        calls = []
        with pytest.raises(ConfigError, match=f"fills with {fill.value}"):
            explain_instance(lambda b: calls.append(b) or [0.0] * len(b),
                             Instance(base, seg_map, fill),
                             LimeConfig(n_samples=100, seed=1))
        assert calls == []


class TestStability:
    def _explanation(self, segments, target="mid:x"):
        selected = tuple(
            SelectedFeature(segment=s, weight=1.0, p_value=1e-9)
            for s in segments
        )
        fit = SurrogateFit(weights=np.zeros(10), intercept=0.0,
                           std_errors=np.zeros(10), p_values=np.ones(10),
                           r_squared=0.0, dof=9)
        return LimeExplanation(
            target=target, prediction_at_ones=0.0,
            selected=selected,
            positive_ids=tuple(segments), negative_ids=(),
            fit=fit, config=LimeConfig(n_samples=20, seed=0),
        )

    def test_jaccard_examples(self):
        assert jaccard({1, 2, 3}, {1, 2, 3}) == 1.0
        assert jaccard({1, 2}, {3, 4}) == 0.0
        assert jaccard({1, 2, 3}, {2, 3, 4}) == 0.5
        assert jaccard(set(), set()) == 1.0

    def test_score_over_three_sets(self):
        explanations = [self._explanation(s) for s in
                        ([1, 2, 3], [2, 3, 4], [1, 2, 3])]
        score = stability_score(explanations)
        assert score.mean_pairwise_jaccard == pytest.approx((0.5 + 1.0 + 0.5) / 3)
        assert len(score.per_pair) == 3

    def test_requires_two_explanations(self):
        with pytest.raises(ConfigError):
            stability_score([self._explanation([1])])

    def test_mixed_targets_rejected(self):
        with pytest.raises(ComparabilityError):
            stability_score([self._explanation([1], target="mid:a"),
                             self._explanation([1], target="mid:b")])


class TestSerialization:
    def test_json_schema(self):
        box, _, base, seg_map = planted_small()
        expl = explain_instance(box, Instance(base, seg_map, "silence"),
                                LimeConfig(n_samples=300, seed=10),
                                target="mid:melodiousness")
        payload = explanation_to_json(expl)
        assert set(payload) == {
            "target", "target_value", "prediction_at_ones", "selected",
            "positive_ids", "negative_ids", "r_squared", "config_echo",
        }
        assert payload["target"] == "mid:melodiousness"
        assert payload["target_value"] == payload["prediction_at_ones"]
        for entry in payload["selected"]:
            assert set(entry) == {"segment", "weight", "p_value"}
        assert json.loads(json.dumps(payload, allow_nan=False))["selected"] \
            == payload["selected"]


@pytest.fixture(scope="module")
def fixture_instance(fixture_wav):
    """The 3 s fixture's dB spectrogram (1025 x 126) and its segment map."""
    from midlime.audio import decode_wav
    from midlime.dsp import StftConfig, magnitude_db, stft
    from midlime.segmentation import SegmentationConfig, felzenszwalb_segment

    dbspec = magnitude_db(stft(decode_wav(fixture_wav), StftConfig()))
    return dbspec, felzenszwalb_segment(dbspec, SegmentationConfig())


def unmasked_scores(predictor, specs) -> np.ndarray:
    """Mids and emotions, side by side, of each spectrogram scored as itself."""
    return np.vstack([np.hstack(predictor.predict(unmasked(spec))) for spec in specs])


class TestMaskBatch:
    """Closed-form scores of mask rows against the dense path as the oracle."""

    @pytest.fixture(params=["fixture-3s", "planted-small"])
    def instance(self, request):
        if request.param == "fixture-3s":
            return request.getfixturevalue("fixture_instance")
        _, _, base, seg_map = planted_small()
        return base, seg_map

    @staticmethod
    def _rows(seg_map, count=48):
        """All ones first, then sampled rows, then all zeros."""
        n_seg = seg_map.segment_count
        masks = sample_masks(n_seg, LimeConfig(n_samples=n_seg + 2, seed=3))
        return np.vstack([masks[:count - 1], np.zeros((1, n_seg), dtype=np.uint8)])

    @pytest.mark.parametrize("fill", list(FillStrategy))
    @pytest.mark.parametrize("predictor", [BuiltinPredictor(seed=0), ConstantPredictor()],
                             ids=["builtin", "constant"])
    def test_closed_form_matches_dense_path(self, instance, fill, predictor,
                                            monkeypatch):
        base, seg_map = instance
        masks = self._rows(seg_map)
        dense = unmasked_scores(predictor, MaskBatch(Instance(base, seg_map, fill), masks))

        def no_render(self, row):
            raise AssertionError("the predictor rendered a mask row")

        monkeypatch.setattr(Instance, "render", no_render)
        batch = MaskBatch(Instance(base, seg_map, fill), masks)
        fast = np.hstack(predictor.predict(batch))
        # Relative to the largest magnitude of each output over the batch.
        assert np.all(np.abs(fast - dense) <= 1e-12 * np.abs(dense).max(axis=0))
        assert np.array_equal(fast[0], unmasked_scores(predictor, [base])[0])
        assert np.array_equal(fast[0], dense[0])

    @pytest.mark.parametrize("rows", [1, _MID_BLOCK - 1, _MID_BLOCK, _MID_BLOCK + 1, 256])
    def test_row_blocks_match_the_one_shot_closed_form(self, instance, rows):
        base, seg_map = instance
        n_seg = seg_map.segment_count
        masks = sample_masks(n_seg, LimeConfig(n_samples=max(rows, n_seg + 2),
                                               seed=4))[:rows]
        fill = FillStrategy.SEGMENT_MEAN
        predictor = BuiltinPredictor(seed=0)
        batch = MaskBatch(Instance(base, seg_map, fill), masks)
        mids = predictor._masked_mids(batch)
        assert mids.tobytes() == one_shot_masked_mids(predictor, batch).tobytes()
        # Rendered and scored 16 rows at a time, so that few are alive.
        dense = np.vstack([predictor._mids(np.stack([s.values for s in batch[i:i + 16]]))
                           for i in range(0, rows, 16)])
        assert np.all(np.abs(mids - dense) <= 1e-12 * np.abs(dense).max(axis=0))

    @pytest.mark.parametrize("fill", list(FillStrategy))
    def test_items_equal_apply_mask_and_render_once(self, instance, fill, monkeypatch):
        base, seg_map = instance
        masks = self._rows(seg_map, count=12)
        expected = [Instance(base, seg_map, fill).render(row) for row in masks]
        rendered = []
        render = Instance.render
        monkeypatch.setattr(Instance, "render",
                            lambda self, row: rendered.append(row.copy())
                            or render(self, row))
        batch = MaskBatch(Instance(base, seg_map, fill), masks)
        assert len(batch) == len(masks) and rendered == []
        for item, want in zip(batch, expected):
            assert np.array_equal(item.values, want.values)
            assert item.scale == want.scale and item.config == want.config
        # Iteration rendered each row once, in order.
        assert np.array_equal(np.array(rendered), masks)
        rendered.clear()
        assert [s.values.shape for s in batch[1:3]] == [base.values.shape] * 2
        assert np.array_equal(batch[-1].values, expected[-1].values)
        assert np.array_equal(np.array(rendered), masks[[1, 2, -1]])
        with pytest.raises(IndexError):
            batch[len(masks)]

    def test_mask_rows_are_read_only(self):
        _, _, base, seg_map = planted_small()
        batch = MaskBatch(Instance(base, seg_map, "silence"),
                          np.ones((2, 12), dtype=np.uint8))
        with pytest.raises(ValueError):
            batch.masks[0, 0] = 0

    @pytest.mark.parametrize("entry", [0.5, -1.0, 2])
    def test_refuses_entries_other_than_0_and_1(self, entry):
        _, _, base, seg_map = planted_small()
        instance = Instance(base, seg_map, "silence")
        row = [1.0] * 12
        row[0] = entry
        with pytest.raises(ValueError, match="mask entries must be 0 or 1"):
            MaskBatch(instance, [row])

    @pytest.mark.parametrize("dtype", [np.uint8, bool, np.float64])
    def test_accepts_0_1_rows_of_uint8_bool_and_float(self, dtype):
        _, _, base, seg_map = planted_small()
        rows = sample_masks(12, LimeConfig(n_samples=20, seed=8))
        batch = MaskBatch(Instance(base, seg_map, "silence"), rows.astype(dtype))
        assert batch.masks.dtype == np.uint8
        assert np.array_equal(batch.masks, rows)

    def test_rejects_mask_width(self):
        _, _, base, seg_map = planted_small()
        instance = Instance(base, seg_map, "silence")
        for masks in (np.ones((2, 11), dtype=np.uint8), np.ones(12, dtype=np.uint8)):
            with pytest.raises(ShapeMismatchError):
                MaskBatch(instance, masks)

    def test_builtin_coefficients_are_built_once_per_instance(self, monkeypatch):
        _, _, base, seg_map = planted_small()
        predictor = BuiltinPredictor(seed=0)
        built = []
        coefficients = BuiltinPredictor._coefficients
        monkeypatch.setattr(BuiltinPredictor, "_coefficients",
                            lambda self, instance: built.append(instance)
                            or coefficients(self, instance))
        monkeypatch.setattr(lime_module, "_PREDICT_BLOCK", 8)
        config = LimeConfig(n_samples=48, seed=6)

        instance = Instance(base, seg_map, config.fill)

        def explain():
            with ThreadPoolExecutor(2) as pool:
                return explain_instance(lambda b: predictor.predict(b)[0][:, 0],
                                        instance, config, map=pool.map)

        first = explain()
        second = explain()
        assert built == [instance]
        assert first.fit.weights.tobytes() == second.fit.weights.tobytes()
