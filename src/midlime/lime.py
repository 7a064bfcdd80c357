"""Perturbation-based attribution of a scalar predictor to spectrogram segments.

The instance is represented as a binary vector over segments. Perturbed
samples blank out subsets of segments, the black box is queried on each, and
a proximity-weighted least-squares surrogate is fitted with exact
per-coefficient inference. Features are kept when the p-value is tiny
relative to the coefficient magnitude, which makes the kept count adaptive
instead of fixed. All sampling is counter-based, so results are independent
of chunking and of where the caller's `map` scores the blocks.
"""

from __future__ import annotations

import math
import threading
from collections.abc import Sequence
from dataclasses import asdict, dataclass
from enum import Enum
from typing import Callable

import numpy as np

from . import rng
from .dsp import SCALE_DB, Spectrogram
from .errors import (
    ComparabilityError,
    ConfigError,
    MidlimeError,
    PredictionValueError,
    RankDeficiencyError,
    ScaleMismatchError,
    ShapeMismatchError,
    TransportError,
)
from .segmentation import SegmentMap


class FillStrategy(str, Enum):
    """What masked-out pixels become."""

    SILENCE_FLOOR = "silence-floor"
    SEGMENT_MEAN = "segment-mean"
    GLOBAL_MEAN = "global-mean"

    @classmethod
    def coerce(cls, value) -> "FillStrategy":
        if isinstance(value, cls):
            return value
        aliases = {"silence": cls.SILENCE_FLOOR}
        try:
            return aliases.get(value) or cls(value)
        except ValueError:
            raise ConfigError(
                f"unknown fill strategy {value!r}; expected one of "
                f"{[m.value for m in cls]}"
            ) from None


@dataclass(frozen=True)
class LimeConfig:
    n_samples: int = 50000
    kernel_width: float = 0.25
    fill: FillStrategy = FillStrategy.SILENCE_FLOOR
    ridge_alpha: float = 0.0
    ratio_threshold: float = 1e-6
    seed: int = 42

    def __post_init__(self):
        object.__setattr__(self, "fill", FillStrategy.coerce(self.fill))
        if self.n_samples < 3:
            raise ConfigError(f"n_samples must be >= 3, got {self.n_samples}")
        if not self.kernel_width > 0:
            raise ConfigError(f"kernel_width must be positive, got {self.kernel_width}")
        # `proximity_weights` divides by the square.
        try:
            square = float(self.kernel_width) ** 2
        except OverflowError:
            square = 0.0
        if square == 0.0:
            raise ConfigError(f"kernel_width {self.kernel_width} has no float square")
        if not self.ratio_threshold > 0:
            raise ConfigError(
                f"ratio_threshold must be positive, got {self.ratio_threshold}"
            )
        if not 0 <= self.ridge_alpha < math.inf:
            raise ConfigError(
                f"ridge_alpha must be finite and >= 0, got {self.ridge_alpha}")

    def echo(self) -> dict:
        return {**asdict(self), "fill": self.fill.value}


@dataclass(frozen=True)
class SurrogateFit:
    weights: np.ndarray
    intercept: float
    std_errors: np.ndarray
    p_values: np.ndarray
    r_squared: float
    dof: int


@dataclass(frozen=True)
class Design:
    """What a surrogate fit computes before it reads a target: the mask
    matrix, the proximity weights rescaled to trace n, the upper Cholesky
    factor U of the (ridge) normal matrix, the per-coefficient variance
    factors that sigma^2 scales into squared standard errors, and the
    residual dof. Every array is read-only, so one design serves any number
    of targets, also from several threads.
    """

    masks: np.ndarray
    weights: np.ndarray
    factor: np.ndarray
    variance: np.ndarray
    dof: int


@dataclass(frozen=True)
class SelectedFeature:
    segment: int
    weight: float
    p_value: float


@dataclass(frozen=True)
class LimeExplanation:
    target: str | None
    prediction_at_ones: float
    selected: tuple[SelectedFeature, ...]
    positive_ids: tuple[int, ...]
    negative_ids: tuple[int, ...]
    fit: SurrogateFit
    config: LimeConfig


# Mask rows per block of the sampler. Each cell depends only on (seed, row,
# col), so it sets memory and speed, never bits: at 512 rows the generator's
# uint64 intermediates stay a few MB at a thousand segments.
_MASK_BLOCK = 512


def check_sample_count(n_samples: int, n_segments: int) -> None:
    """Refuse a sample count that leaves the fit over `n_segments` segments
    no residual degree of freedom."""
    if n_segments < 1:
        raise ConfigError(f"need at least one segment, got {n_segments}")
    if n_samples < n_segments + 2:
        raise ConfigError(
            f"n_samples {n_samples} cannot overdetermine {n_segments} "
            f"segments; need at least {n_segments + 2}"
        )


def _check_binary(masks: np.ndarray) -> None:
    """Refuse mask entries other than 0 and 1."""
    # On uint8, max() checks that without a copy of the matrix.
    if masks.dtype == np.uint8:
        binary = masks.max(initial=0) <= 1
    else:
        binary = ((masks == 0) | (masks == 1)).all()
    if not binary:
        raise ValueError("mask entries must be 0 or 1")


def sample_masks(n_segments: int, config: LimeConfig) -> np.ndarray:
    """uint8 masks, (n_samples, n_segments): row 0 all ones, the rows below
    i.i.d. fair coins keyed by (seed, row, col)."""
    check_sample_count(config.n_samples, n_segments)
    masks = np.empty((config.n_samples, n_segments), dtype=np.uint8)
    masks[0] = 1
    cols = np.arange(n_segments)
    for start in range(1, config.n_samples, _MASK_BLOCK):
        stop = min(start + _MASK_BLOCK, config.n_samples)
        masks[start:stop] = rng.bernoulli_grid(config.seed, np.arange(start, stop), cols)
    return masks


class Instance:
    """The one instance that a LIME run masks: a dB spectrogram, its segment
    map and the fill, checked once, with the filler pixels that masked-out
    segments take.

    Predictors keep their per-instance work in `memo`, which builds each key
    once, also when several threads share the instance.
    """

    def __init__(self, spec: Spectrogram, seg_map: SegmentMap, fill: FillStrategy):
        if spec.scale != SCALE_DB:
            raise ScaleMismatchError(
                f"masking operates on dB spectrograms, got '{spec.scale}'")
        if seg_map.labels.shape != spec.values.shape:
            raise ShapeMismatchError(
                f"segment map {seg_map.labels.shape} does not match spectrogram "
                f"{spec.values.shape}"
            )
        self.spec = spec
        self.seg_map = seg_map
        self.fill = FillStrategy.coerce(fill)
        values = spec.values
        if self.fill is FillStrategy.SILENCE_FLOOR:
            self.filler = np.full_like(values, spec.config.floor_db)
        elif self.fill is FillStrategy.SEGMENT_MEAN:
            flat = seg_map.labels.ravel()
            sums = np.bincount(flat, weights=values.ravel(), minlength=seg_map.segment_count)
            counts = np.bincount(flat, minlength=seg_map.segment_count)
            self.filler = (sums / counts)[seg_map.labels]
        else:
            self.filler = np.full_like(values, values.mean())
        self._memo: dict = {}
        self._lock = threading.Lock()

    def render(self, row: np.ndarray) -> Spectrogram:
        """The spectrogram of one mask row, its dropped segments filled."""
        spec = self.spec
        return Spectrogram(values=np.where(self.seg_map.pixels(row), spec.values,
                                           self.filler),
                           scale=spec.scale, config=spec.config,
                           sample_rate=spec.sample_rate)

    def memo(self, key, build: Callable[["Instance"], object]):
        """`build(self)`, built on the first call with `key` and kept while
        the instance lives, so keep only data whose size the instance fixes."""
        with self._lock:
            if key not in self._memo:
                self._memo[key] = build(self)
            return self._memo[key]

    def forget(self) -> None:
        """Drop every memoised value; a later `memo` call builds its key again."""
        with self._lock:
            self._memo.clear()


class MaskBatch(Sequence):
    """The spectrograms that a block of mask rows renders, as a read-only sequence.

    It holds the `Instance` and the uint8 mask rows, one per item, whose
    entries must be 0 or 1; it is the one input of every predictor. A
    predictor that is affine in the mask can score `masks` directly and
    never render. Any other consumer indexes the batch: item i is
    `instance.render(masks[i])`, rendered on each access and not kept.
    """

    def __init__(self, instance: Instance, masks: np.ndarray):
        masks = np.asarray(masks)
        # Checked before the cast, which would turn 0.5 into 0 and -1 into 255.
        _check_binary(masks)
        masks = masks.astype(np.uint8, copy=False).view()
        count = instance.seg_map.segment_count
        if masks.ndim != 2 or masks.shape[1] != count:
            raise ShapeMismatchError(
                f"mask block {masks.shape} does not match segment count {count}"
            )
        masks.flags.writeable = False
        self.instance = instance
        self.masks = masks

    def __len__(self) -> int:
        return self.masks.shape[0]

    def __getitem__(self, index):
        # A slice renders row by row, so that each row is still in cache
        # when the Spectrogram checks it; one np.where over the whole block
        # took twice as long.
        if isinstance(index, slice):
            return [self.instance.render(row) for row in self.masks[index]]
        return self.instance.render(self.masks[index])


def apply_mask(spec: Spectrogram, seg_map: SegmentMap, mask: np.ndarray,
               fill: FillStrategy) -> Spectrogram:
    """Keep pixels of mask=1 segments; replace the rest per the fill strategy.

    The one-row `MaskBatch` of `mask` on a fresh `Instance`, rendered; an
    all-ones mask returns `spec` itself. Nothing in the package calls it:
    only the benchmark's trace hook keeps it, and `Instance.render` is the
    renderer.
    """
    batch = MaskBatch(Instance(spec, seg_map, fill), np.asarray(mask)[None, ...])
    if batch.masks.all():
        return spec
    return batch[0]


def proximity_weights(masks: np.ndarray, kernel_width: float) -> np.ndarray:
    """exp(-d^2 / width^2) with d the cosine distance to the all-ones mask.

    The weight depends only on a row's popcount, so it is computed once per
    popcount with the scalar `math.exp`; numpy's vectorised `exp` may round
    differently on CPUs with and without AVX512.
    """
    masks = np.atleast_2d(np.asarray(masks))
    n_segments = masks.shape[1]
    counts, inverse = np.unique(masks.sum(axis=1), return_inverse=True)
    width2 = float(kernel_width) ** 2
    per_count = []
    for k in counts.tolist():
        d = 1.0 - math.sqrt(k / n_segments)
        per_count.append(math.exp(-(d * d) / width2))
    return np.array(per_count, dtype=np.float64)[inverse]


# Mask rows per `predict` call; it sets memory and speed, never bits.
_PREDICT_BLOCK = 256
# Rows per block in the fixed-order accumulations over samples. It is part of
# the summation order, so changing it changes result bits.
_ROW_BLOCK = 1024
# Column panel width of the factorisations. Each entry sees the same
# operations in the same order whatever the width, so it only sets the speed.
_PANEL = 64
# Largest accepted ratio of the Cholesky pivots, a lower bound on cond(A).
_MAX_PIVOT_RATIO = 1e12
_SINGULAR = ("normal matrix is singular or near-singular; use ridge_alpha > 0 "
             "or more samples")


def _tree_sum(z: np.ndarray) -> np.ndarray:
    """Sum over axis 0 by a fixed pairwise tree of elementwise adds.

    Elementwise float arithmetic is correctly rounded under any SIMD width,
    so the result depends only on the values and on `z.shape[0]`.
    """
    while z.shape[0] > 1:
        half = z.shape[0] // 2
        top = z[:half] + z[half:2 * half]
        if z.shape[0] % 2:
            top[-1] += z[-1]
        z = top
    return z[0]


def _weighted_gram(masks: np.ndarray, pi: np.ndarray) -> np.ndarray:
    """X^T diag(pi) X for the design X = [1 | masks], as sum_v v * X_v^T X_v.

    X_v holds the rows whose weight is v. Its entries are 0/1, so X_v^T X_v
    is a matrix of integer counts. Each class's rows are packed 64 to a
    uint64 word per column of X, the class's last word padded with 0 bits,
    and a count is the popcount of the AND of two columns' words, summed
    over the class's words, exact in integers. The lower triangle is built
    in row panels of `_PANEL` rows; within a panel each entry adds
    v * count over the classes, smallest weight first, starting from 0.0.
    The strict upper triangle is the mirror image.
    """
    n, n_seg = masks.shape
    p = n_seg + 1
    values, inverse = np.unique(pi, return_inverse=True)
    order = np.argsort(inverse, kind="stable")
    sizes = np.bincount(inverse, minlength=len(values))
    spans = -(-sizes // 64)
    ends = np.cumsum(spans)
    firsts = ends - spans
    # Sorted row i is bit `slots[i]` of its column: its rank in its class,
    # counted from the class's first word.
    slots = np.arange(n) + (64 * firsts - (np.cumsum(sizes) - sizes))[inverse[order]]
    words = np.empty((ends[-1], p), dtype=np.uint64)
    bits = np.zeros((_PANEL, 64 * ends[-1]), dtype=np.uint8)
    for c0 in range(0, p, _PANEL):
        c1 = min(c0 + _PANEL, p)
        block = bits[:c1 - c0]
        if c0 == 0:
            block[0, slots] = 1
        lo = max(c0, 1)
        block[lo - c0:, slots] = masks[order, lo - 1:c1 - 1].T
        words[:, c0:c1] = np.packbits(block, axis=1, bitorder="little").view(np.uint64).T
    classes = list(zip(values.tolist(), firsts.tolist(), ends.tolist(), sizes.tolist()))
    gram = np.zeros((p, p))
    for i0 in range(0, p, _PANEL):
        i1 = min(i0 + _PANEL, p)
        panel = gram[i0:i1, :i1]
        both = np.empty(panel.shape, dtype=np.uint64)
        ones = np.empty(panel.shape, dtype=np.uint8)
        term = np.empty(panel.shape)
        for v, first, end, size in classes:
            np.bitwise_and(words[first, i0:i1, None], words[first, None, :i1], out=both)
            count = np.bitwise_count(both, out=ones)
            if end - first > 1:
                # No count exceeds the class size, so the smallest unsigned
                # type that holds the size holds every sum of popcounts.
                count = count.astype(np.min_scalar_type(size))
                for w in range(first + 1, end):
                    np.bitwise_and(words[w, i0:i1, None], words[w, None, :i1], out=both)
                    count += np.bitwise_count(both, out=ones)
            np.multiply(count, v, out=term)
            panel += term
        gram[:i0, i0:i1] = gram[i0:i1, :i0].T
    return gram


def _cholesky(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Upper factor U with U^T U = a, and the pivots (squared diagonal of U).

    Left-looking by column panels, with elementwise numpy operations only:
    entry (i, j) is reduced by U_ki * U_kj for k = 0..i-1 in that order and
    then scaled, which is the textbook right-looking order. A non-positive
    pivot raises RankDeficiencyError.

    The rank-1 terms come from `np.einsum`, which writes +0.0 where the
    product is -0.0, and the bits are still those of the plain product.
    x - (+0.0) and x - (-0.0) differ only for x = -0.0, and no upper
    entry that a term is subtracted from is ever -0.0:
    - the upper triangle of `a` has no -0.0, as a normal matrix of weights
      times counts starts at +0.0 and adds non-negative terms;
    - IEEE subtraction gives -0.0 only as (-0.0) - (+0.0);
    - row i is divided by a positive root, and the quotient may underflow
      to -0.0, but only after the row's last reduction.
    The terms land below the diagonal too, on entries that are never read
    and that the final `np.triu` sets to +0.0.
    """
    p = a.shape[0]
    u = np.triu(a)
    pivots = np.empty(p)
    for j0 in range(0, p, _PANEL):
        j1 = min(j0 + _PANEL, p)
        panel = u[j0:j1, j0:].copy()
        term = np.empty_like(panel)
        for k in range(j0):
            np.einsum("i,j->ij", u[k, j0:j1], u[k, j0:], out=term)
            panel -= term
        for i in range(j1 - j0):
            d = panel[i, i]
            pivots[j0 + i] = d
            if not d > 0:
                raise RankDeficiencyError(_SINGULAR)
            root = math.sqrt(d)
            panel[i, i] = root
            panel[i, i + 1:] /= root
            rest = term[:j1 - j0 - i - 1, :panel.shape[1] - i - 1]
            np.einsum("i,j->ij", panel[i, i + 1:j1 - j0], panel[i, i + 1:], out=rest)
            panel[i + 1:, i + 1:] -= rest
        u[j0:j1, j0:] = panel
    return np.triu(u), pivots


def _inverse_lower(u: np.ndarray) -> np.ndarray:
    """(U^T)^-1 by forward substitution on column panels of the identity.

    Entry (r, c) is reduced by U_kr * X_kc for k = c..r-1 in that order and
    then divided by U_rr, whatever the panel width. The rank-1 terms come
    from `np.einsum` with the same bits as the plain product, for the
    reason `_cholesky` gives: the panel starts as the identity, and row k
    is divided only after its last reduction.
    """
    p = u.shape[0]
    x = np.zeros((p, p))
    for c0 in range(0, p, _PANEL):
        c1 = min(c0 + _PANEL, p)
        panel = np.zeros((p - c0, c1 - c0))
        panel[:c1 - c0] = np.eye(c1 - c0)
        terms = np.empty_like(panel)
        for k in range(p - c0):
            row = panel[k]
            row /= u[c0 + k, c0 + k]
            term = terms[k + 1:]
            np.einsum("i,j->ij", u[c0 + k, c0 + k + 1:], row, out=term)
            panel[k + 1:] -= term
        x[c0:, c0:c1] = panel
    return x


def _cholesky_solve(u: np.ndarray, b: np.ndarray) -> np.ndarray:
    """x with U^T U x = b, by column-oriented forward and back substitution."""
    z = np.array(b, dtype=np.float64)
    p = z.shape[0]
    for k in range(p):
        z[k] /= u[k, k]
        z[k + 1:] -= u[k, k + 1:] * z[k]
    for k in range(p - 1, -1, -1):
        z[k] /= u[k, k]
        z[:k] -= u[:k, k] * z[k]
    return z


def _matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a @ b as a sum of outer products taken in column order.

    The `np.einsum` terms write +0.0 for a -0.0 product, which changes no
    bit: `out` starts at +0.0 and only adds, and x + (+0.0) differs from
    x + (-0.0) only for x = -0.0, which a sum gives only as (-0.0) + (-0.0).
    """
    out = np.zeros((a.shape[0], b.shape[1]))
    term = np.empty_like(out)
    for k in range(a.shape[1]):
        np.einsum("i,j->ij", a[:, k], b[k], out=term)
        out += term
    return out


def _moment(masks: np.ndarray, weighted: np.ndarray) -> np.ndarray:
    """X^T weighted for X = [1 | masks], in a fixed order over row blocks."""
    n, n_seg = masks.shape
    out = np.zeros(n_seg + 1)
    out[0] = math.fsum(weighted)
    for start in range(0, n, _ROW_BLOCK):
        block = masks[start:start + _ROW_BLOCK] * weighted[start:start + _ROW_BLOCK, None]
        out[1:] += _tree_sum(block)
    return out


def _fitted(masks: np.ndarray, beta: np.ndarray) -> np.ndarray:
    """X @ beta for X = [1 | masks], each row summed by a fixed tree."""
    n = masks.shape[0]
    out = np.empty(n)
    for start in range(0, n, _ROW_BLOCK):
        block = masks[start:start + _ROW_BLOCK].T * beta[1:, None]
        out[start:start + _ROW_BLOCK] = _tree_sum(block) + beta[0]
    return out


# Relative change of the continued fraction at which an entry counts as
# converged. The t tail needs at most about 60 steps at any dof; the step
# limit, Algorithm 708's, only guarantees that the loop ends.
_CF_EPS = 1e-15
_CF_MAX_STEPS = 10000
# B_2k / (2k (2k - 1)) for k = 1..7, the terms of Stirling's series.
_STIRLING = (1 / 12, -1 / 360, 1 / 1260, -1 / 1680, 1 / 1188, -691 / 360360, 1 / 156)


def _stirling_tail(z: float) -> float:
    """log Gamma(z) - (z - 1/2) log z + z - log(2 pi) / 2, for z >= 10."""
    w = 1.0 / (z * z)
    s = 0.0
    for c in reversed(_STIRLING):
        s = s * w + c
    return s / z


def _log_gamma_ratio(a: float) -> float:
    """log(Gamma(a + 1/2) / Gamma(a)), to a few ulp of its value.

    From a = 10 on, the difference of two `lgamma` values would keep only
    the absolute accuracy of lgamma(a), a few ulp of a log(a), 2e-11 at
    a = 5e4; Stirling's series writes the difference out instead.
    """
    if a < 10:
        return math.lgamma(a + 0.5) - math.lgamma(a)
    return (0.5 * math.log(a) + (a * math.log1p(0.5 / a) - 0.5)
            + (_stirling_tail(a + 0.5) - _stirling_tail(a)))


def _beta_fraction(a: float, b: float, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """I_x(a, b) * B(a, b) / (x^a y^b) per entry, where y = 1 - x.

    The continued fraction of Press et al., Numerical Recipes 6.4, in the
    contracted form of DiDonato & Morris (ACM TOMS 18(3), 1992, Algorithm
    708, BFRAC). It is written in lambda = (a + b) y - b = a - (a + b) x,
    taken from y when a > b and from x otherwise, as Algorithm 708 does, so
    that no step cancels two numbers near 1. It converges fast for
    x < (a + 1) / (a + b + 2). An entry leaves the iteration as soon as it has converged, and every
    step is an elementwise + - * /, so its bits depend only on its own
    (a, b, x, y).
    """
    out = np.empty_like(x)
    live = np.arange(x.size)
    c = ((a + b) * y - b if a > b else a - (a + b) * x) + 1.0
    c0 = b / a
    c1 = 1.0 / a + 1.0
    yp1 = y + 1.0
    p = 1.0
    s = a + 1.0
    an = np.zeros_like(x)
    bn = np.ones_like(x)
    an1 = np.ones_like(x)
    bn1 = c / c1
    r = c1 / c
    n = 0
    while live.size and n < _CF_MAX_STEPS:
        n += 1
        t = n / a
        w = n * (b - n) * x
        e = a / s
        alpha = (p * (p + c0) * e * e) * (w * x)
        e = (t + 1.0) / (c1 + t + t)
        beta = n + w / s + e * (c + n * yp1)
        p = t + 1.0
        s += 2.0
        an, an1 = an1, alpha * an + beta * an1
        bn, bn1 = bn1, alpha * bn + beta * bn1
        r0, r = r, an1 / bn1
        done = np.abs(r - r0) <= _CF_EPS * r
        out[live[done]] = r[done]
        keep = ~done
        live, x, c, yp1, r = live[keep], x[keep], c[keep], yp1[keep], r[keep]
        # Rescaled, so that the recurrences neither overflow nor underflow.
        an, bn = an[keep] / bn1[keep], bn[keep] / bn1[keep]
        an1, bn1 = r, np.ones_like(r)
    out[live] = r
    return out


def _t_two_sided(dof: int, t: np.ndarray) -> np.ndarray:
    """P(|T| >= |t|) for Student's t with `dof` degrees of freedom, per entry.

    That is I_x(a, b) with a = dof/2, b = 1/2 and x = dof / (dof + t^2), or
    1 - I_y(b, a) with y = 1 - x = t^2 / (dof + t^2) where x is at or above
    (a + 1) / (a + b + 2).
    Arrays see only + - * /. The logs and the exp are `math` scalars, as in
    `proximity_weights`, and log x is taken as -log1p(t^2 / dof), never as
    the log of a rounded number near 1. An entry's bits depend only on
    (dof, |t|). p is 1 where t^2 / (dof + t^2) underflows to 0, t = 0
    included, 0 where t^2 overflows, and NaN where t is.
    """
    t = np.abs(np.asarray(t, dtype=np.float64))
    a, b = 0.5 * dof, 0.5
    with np.errstate(over="ignore", invalid="ignore"):
        t2 = t * t
        y = t2 / (dof + t2)
    p = np.where(y == 0.0, 1.0, np.where(t2 == math.inf, 0.0, math.nan))
    live = np.flatnonzero((y > 0.0) & (t2 < math.inf))
    t2, y = t2[live], y[live]
    x = dof / (dof + t2)
    # x^a y^b / B(a, b), the same for both branches.
    log_norm = _log_gamma_ratio(a) - 0.5 * math.log(math.pi)
    front = np.array([math.exp(log_norm - a * math.log1p(q) + b * math.log(v))
                      for q, v in zip((t2 / dof).tolist(), y.tolist())])
    swap = x >= (a + 1.0) / (a + b + 2.0)
    keep = ~swap
    p[live[keep]] = front[keep] * _beta_fraction(a, b, x[keep], y[keep])
    p[live[swap]] = 1.0 - front[swap] * _beta_fraction(b, a, y[swap], x[swap])
    return p


def design(masks: np.ndarray, weights: np.ndarray, alpha: float = 0.0) -> Design:
    """The target-free half of `fit_surrogate`: checks, the rescaled
    weights, the normal matrix and its factor, and the variance factors.

    At alpha 0 the variance factors are the diagonal of A^-1, the plain
    WLS covariance over sigma^2; with ridge they are the diagonal of the
    sandwich A^-1 G A^-1, since the penalized estimator is biased. The
    normal matrix and the inverse are freed when the design returns.
    """
    m = np.asarray(masks).view()
    if m.ndim != 2 or m.shape[0] < 1 or m.shape[1] < 1:
        raise ShapeMismatchError(f"masks must be a non-empty 2-D matrix, got {m.shape}")
    # The exact counts of _weighted_gram hold for 0/1 entries only.
    _check_binary(m)
    w = np.asarray(weights, dtype=np.float64)
    n, n_seg = m.shape
    if w.shape != (n,):
        raise ShapeMismatchError(f"weights {w.shape} do not match {n} masks")
    if not np.all(np.isfinite(w)) or (w < 0).any() or math.fsum(w) <= 0:
        raise ValueError("weights must be finite, non-negative, not all zero")
    if not 0 <= alpha < math.inf:
        raise ConfigError(f"alpha must be finite and >= 0, got {alpha}")
    check_sample_count(n, n_seg)

    pi = w * (n / math.fsum(w))
    gram = _weighted_gram(m, pi)
    a = gram
    if alpha != 0:
        ridge = np.full(n_seg + 1, float(alpha))
        ridge[0] = 0.0
        a = gram + np.diag(ridge)
    if not np.all(np.isfinite(a)):
        raise RankDeficiencyError(_SINGULAR)
    u, pivots = _cholesky(a)
    if pivots.max() > _MAX_PIVOT_RATIO * pivots.min():
        raise RankDeficiencyError(_SINGULAR)

    x_inv = _inverse_lower(u)
    if alpha == 0:
        variance = _tree_sum(x_inv * x_inv)
    else:
        a_inv = _matmul(x_inv.T, x_inv)
        variance = _tree_sum(a_inv * _matmul(gram, a_inv))
    for array in (m, pi, u, variance):
        array.flags.writeable = False
    return Design(masks=m, weights=pi, factor=u, variance=variance, dof=n - n_seg - 1)


def solve(design: Design, targets: np.ndarray) -> SurrogateFit:
    """The fit of one target against `design`: the moment, the coefficients,
    the residual variance, the p-values and r^2.

    Each p-value is the Student-t tail of |w| / se at the design's residual
    dof, computed by `_t_two_sided` to within about 1e-12 of its value,
    relative. A target that takes one value on every row of positive weight
    gets that value as the intercept, weights 0, p-values 1 and r^2 0.
    """
    m, pi, u, dof = design.masks, design.weights, design.factor, design.dof
    y = np.asarray(targets, dtype=np.float64)
    if y.shape != (m.shape[0],):
        raise ShapeMismatchError(
            f"targets {y.shape} do not match {m.shape[0]} masks")
    if not np.all(np.isfinite(y)):
        raise ValueError("targets must be finite")
    weighted = y[pi > 0]
    if (weighted == weighted[0]).all():
        # The exact solution: solved in floats on a near-singular design,
        # it leaves noise weights that a t-test can select.
        coef = np.zeros(m.shape[1])
        return SurrogateFit(weights=coef, intercept=float(weighted[0]),
                            std_errors=coef.copy(), p_values=np.ones_like(coef),
                            r_squared=0.0, dof=dof)

    beta = _cholesky_solve(u, _moment(m, pi * y))
    resid = y - _fitted(m, beta)
    wrss = math.fsum(pi * resid * resid)
    sigma2 = max(wrss, 0.0) / dof

    cov_diag = np.maximum(design.variance * sigma2, 0.0)
    se = np.sqrt(cov_diag)

    coef = beta[1:]
    coef_se = se[1:]
    p = np.where(coef == 0.0, 1.0, 0.0)
    tested = coef_se > 0
    p[tested] = _t_two_sided(dof, coef[tested] / coef_se[tested])

    y_mean = math.fsum(pi * y) / math.fsum(pi)
    tss = math.fsum(pi * (y - y_mean) ** 2)
    r_squared = 0.0 if tss <= 0 else 1.0 - wrss / tss

    return SurrogateFit(
        weights=coef,
        intercept=float(beta[0]),
        std_errors=coef_se,
        p_values=np.clip(p, 0.0, 1.0),
        r_squared=float(r_squared),
        dof=dof,
    )


def fit_surrogate(masks: np.ndarray, targets: np.ndarray,
                  weights: np.ndarray, alpha: float = 0.0) -> SurrogateFit:
    """Weighted least squares with two-sided t-test p-values on 0/1 masks:
    `solve(design(masks, weights, alpha), targets)`.

    The fit makes no BLAS call, so the result is a fixed function of the
    inputs on any BLAS, thread count and SIMD width: sums over samples run
    in a fixed order of elementwise operations or through `math.fsum`, the
    0/1 mask entries are counted exactly by popcounts, and the normal
    matrix is factored by a hand-written Cholesky. The normal matrix is
    built once per distinct weight value, so the fit is fastest when the
    weights take few values, as proximity weights do (one per popcount).
    """
    return solve(design(masks, weights, alpha), targets)


def select_features(fit: SurrogateFit, ratio_threshold: float) -> tuple[SelectedFeature, ...]:
    """Keep segments with p/|w| at or below the threshold, heaviest first.

    A coefficient counts as nonzero only when it clears machine noise at the
    fit's own scale; on an interpolating fit the residual variance collapses
    and float-level coefficients would otherwise draw arbitrary t statistics.
    """
    if not ratio_threshold > 0:
        raise ConfigError(f"ratio_threshold must be positive, got {ratio_threshold}")
    scale = max(float(np.max(np.abs(fit.weights), initial=0.0)), abs(fit.intercept))
    tol = 1e-9 * scale
    out = []
    for j, (w, p) in enumerate(zip(fit.weights, fit.p_values)):
        if abs(w) > tol and p / abs(w) <= ratio_threshold:
            out.append(SelectedFeature(segment=j, weight=float(w), p_value=float(p)))
    out.sort(key=lambda s: (-abs(s.weight), s.segment))
    return tuple(out)


def explain_instance(
    predict: Callable[[MaskBatch], Sequence[float]],
    instance: Instance,
    config: LimeConfig,
    *,
    target: str | None = None,
    map: Callable = map,
) -> LimeExplanation:
    """Full attribution of one scalar output over one instance.

    `predict` gets `_PREDICT_BLOCK` mask rows at a time as a `MaskBatch` on
    `instance`, whose fill must be `config.fill`, and returns one finite
    real per row (the chosen output of the black box). `map(fn, blocks)`
    runs the blocks, in any thread or process, and returns fn's results in
    order.
    """
    if instance.fill is not config.fill:
        raise ConfigError(f"the instance fills with {instance.fill.value}, the "
                          f"config with {config.fill.value}")
    masks = sample_masks(instance.seg_map.segment_count, config)
    targets = _predict_masked(predict, instance, masks, map)
    weights = proximity_weights(masks, config.kernel_width)
    fit = fit_surrogate(masks, targets, weights, config.ridge_alpha)
    selected = select_features(fit, config.ratio_threshold)
    positive = tuple(sorted(s.segment for s in selected if s.weight > 0))
    negative = tuple(sorted(s.segment for s in selected if s.weight < 0))
    return LimeExplanation(
        target=target,
        prediction_at_ones=float(targets[0]),
        selected=selected,
        positive_ids=positive,
        negative_ids=negative,
        fit=fit,
        config=config,
    )


def _predict_masked(predict, instance, masks, map):
    n = masks.shape[0]
    bounds = [(s, min(s + _PREDICT_BLOCK, n)) for s in range(0, n, _PREDICT_BLOCK)]

    def eval_block(bound):
        start, stop = bound
        batch = MaskBatch(instance, masks[start:stop])
        try:
            values = predict(batch)
        except MidlimeError as exc:
            # The same exception, so that its type and attributes survive.
            exc.args = (f"while predicting mask rows {start}..{stop - 1}: {exc}",)
            if isinstance(exc, PredictionValueError) and exc.index is not None:
                exc.index += start
            raise
        arr = np.asarray(list(values), dtype=np.float64)
        if arr.shape != (stop - start,):
            raise TransportError(
                f"predictor returned {arr.shape} values for mask rows "
                f"{start}..{stop - 1} (expected {stop - start})"
            )
        bad = np.flatnonzero(~np.isfinite(arr))
        if bad.size:
            raise PredictionValueError(
                f"non-finite prediction at mask row {start + bad[0]}",
                index=int(start + bad[0]),
            )
        return arr

    return np.concatenate(list(map(eval_block, bounds)))


@dataclass(frozen=True)
class StabilityScore:
    mean_pairwise_jaccard: float
    per_pair: tuple[tuple[int, int, float], ...]


def jaccard(a, b) -> float:
    """Set overlap; two empty sets count as identical."""
    a, b = set(a), set(b)
    if not a and not b:
        return 1.0
    return len(a & b) / len(a | b)


def stability_score(explanations: Sequence[LimeExplanation]) -> StabilityScore:
    """Mean pairwise Jaccard of the selected-segment sets."""
    if len(explanations) < 2:
        raise ConfigError(f"need at least 2 explanations, got {len(explanations)}")
    targets = {e.target for e in explanations}
    if len(targets) > 1:
        raise ComparabilityError(
            f"explanations target different outputs: {sorted(map(str, targets))}"
        )
    sets = [frozenset(s.segment for s in e.selected) for e in explanations]
    pairs = []
    for i in range(len(sets)):
        for j in range(i + 1, len(sets)):
            pairs.append((i, j, jaccard(sets[i], sets[j])))
    mean = sum(p[2] for p in pairs) / len(pairs)
    return StabilityScore(mean_pairwise_jaccard=mean, per_pair=tuple(pairs))


def explanation_to_json(expl: LimeExplanation) -> dict:
    return {
        "target": expl.target,
        "target_value": expl.prediction_at_ones,
        "prediction_at_ones": expl.prediction_at_ones,
        "selected": [
            {"segment": s.segment, "weight": s.weight, "p_value": s.p_value}
            for s in expl.selected
        ],
        "positive_ids": list(expl.positive_ids),
        "negative_ids": list(expl.negative_ids),
        "r_squared": expl.fit.r_squared,
        "config_echo": expl.config.echo(),
    }
