"""Slow, deliberately independent reference implementations used as oracles.

Everything here favours clarity over speed: explicit Python loops, dict-based
union-find, O(n^2) transforms. Tests compare the fast library code against
these on small inputs.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import betainc

from midlime import rng
from midlime.dsp import window_samples
from midlime.errors import RankDeficiencyError
from midlime.lime import _tree_sum


def naive_gaussian_smooth(image: np.ndarray, sigma: float) -> np.ndarray:
    """Direct 2-D convolution with a replicate-padded Gaussian kernel."""
    if sigma <= 0.0:
        return np.array(image, dtype=np.float64)
    radius = int(math.ceil(4.0 * sigma))
    x = np.arange(-radius, radius + 1, dtype=np.float64)
    kernel_1d = np.exp(-0.5 * (x / sigma) ** 2)
    kernel_1d /= kernel_1d.sum()
    kernel = np.outer(kernel_1d, kernel_1d)
    padded = np.pad(np.asarray(image, dtype=np.float64), radius, mode="edge")
    h, w = image.shape
    out = np.empty((h, w))
    for r in range(h):
        for c in range(w):
            window = padded[r:r + 2 * radius + 1, c:c + 2 * radius + 1]
            out[r, c] = float((window * kernel).sum())
    return out


class _DictForest:
    """Union-find over arbitrary hashable nodes, no rank heuristics."""

    def __init__(self):
        self.parent: dict[int, int] = {}
        self.size: dict[int, int] = {}
        self.internal: dict[int, float] = {}

    def add(self, node: int) -> None:
        self.parent[node] = node
        self.size[node] = 1
        self.internal[node] = 0.0

    def find(self, node: int) -> int:
        while self.parent[node] != node:
            node = self.parent[node]
        return node

    def union(self, a: int, b: int, weight: float) -> None:
        ra, rb = self.find(a), self.find(b)
        self.parent[rb] = ra
        self.size[ra] += self.size.pop(rb)
        self.internal[ra] = weight
        self.internal.pop(rb)


_DIRECTIONS = ((0, 1), (1, 0), (1, 1), (1, -1))


def lexsort_edges(img: np.ndarray):
    """Origins, targets and weights of the 8-connected edges, built one
    direction at a time and ordered by one lexsort on (weight, origin,
    direction). Needs at least one edge."""
    h, w = img.shape
    flat = img.ravel()
    origins, targets, weights, dirs = [], [], [], []
    for d, (dr, dc) in enumerate(_DIRECTIONS):
        r0, r1 = max(0, -dr), h - max(0, dr)
        c0, c1 = max(0, -dc), w - max(0, dc)
        if r0 >= r1 or c0 >= c1:
            continue
        rr, cc = np.meshgrid(np.arange(r0, r1), np.arange(c0, c1), indexing="ij")
        p = (rr * w + cc).ravel()
        q = ((rr + dr) * w + (cc + dc)).ravel()
        origins.append(p)
        targets.append(q)
        weights.append(np.abs(flat[p] - flat[q]))
        dirs.append(np.full(p.shape, d, dtype=np.int8))
    p = np.concatenate(origins)
    q = np.concatenate(targets)
    wts = np.concatenate(weights)
    order = np.lexsort((np.concatenate(dirs), p, wts))
    return p[order], q[order], wts[order]


def naive_felzenszwalb(image: np.ndarray, scale: float, min_size: int,
                       sigma: float) -> np.ndarray:
    """Graph-based segmentation written longhand.

    Edge order: ascending weight, ties broken by source row, then source
    column, then direction index (east, south, south-east, south-west).
    Returns a label image; labels are arbitrary but consistent, callers
    should compare partitions rather than raw values.
    """
    smoothed = naive_gaussian_smooth(image, sigma)
    h, w = smoothed.shape
    edges = []
    for r in range(h):
        for c in range(w):
            for d, (dr, dc) in enumerate(_DIRECTIONS):
                r2, c2 = r + dr, c + dc
                if 0 <= r2 < h and 0 <= c2 < w:
                    weight = abs(smoothed[r, c] - smoothed[r2, c2])
                    edges.append((weight, r, c, d, r * w + c, r2 * w + c2))
    edges.sort(key=lambda e: e[:4])

    forest = _DictForest()
    for p in range(h * w):
        forest.add(p)

    for weight, _r, _c, _d, a, b in edges:
        ra, rb = forest.find(a), forest.find(b)
        if ra == rb:
            continue
        bound_a = forest.internal[ra] + scale / forest.size[ra]
        bound_b = forest.internal[rb] + scale / forest.size[rb]
        if weight <= min(bound_a, bound_b):
            forest.union(ra, rb, weight)

    for weight, _r, _c, _d, a, b in edges:
        ra, rb = forest.find(a), forest.find(b)
        if ra == rb:
            continue
        if forest.size[ra] < min_size or forest.size[rb] < min_size:
            forest.union(ra, rb, weight)

    labels = np.empty((h, w), dtype=np.int64)
    for r in range(h):
        for c in range(w):
            labels[r, c] = forest.find(r * w + c)
    return labels


def scan_felzenszwalb(smoothed: np.ndarray, scale: float, min_size: int) -> np.ndarray:
    """Both passes as one edge-at-a-time scan of `lexsort_edges`' order.

    Unlike `naive_felzenszwalb`, this takes an already smoothed image and
    accepts inf and NaN weights: the lexsort puts NaN weights last, in
    origin-then-direction order, and a NaN weight never passes a test.
    Labels are numbered in row-major order of each segment's first pixel.
    """
    h, w = smoothed.shape
    forest = _DictForest()
    for p in range(h * w):
        forest.add(p)
    p, q, weights = lexsort_edges(smoothed)
    edges = list(zip(p.tolist(), q.tolist(), weights.tolist()))
    for a, b, weight in edges:
        ra, rb = forest.find(a), forest.find(b)
        if ra == rb:
            continue
        bound_a = forest.internal[ra] + scale / forest.size[ra]
        bound_b = forest.internal[rb] + scale / forest.size[rb]
        if weight <= bound_a and weight <= bound_b:
            forest.union(ra, rb, weight)
    for a, b, weight in edges:
        ra, rb = forest.find(a), forest.find(b)
        if ra != rb and (forest.size[ra] < min_size or forest.size[rb] < min_size):
            forest.union(ra, rb, weight)
    first_seen: dict[int, int] = {}
    labels = [first_seen.setdefault(forest.find(p), len(first_seen))
              for p in range(h * w)]
    return np.array(labels).reshape(h, w)


def same_partition(a: np.ndarray, b: np.ndarray) -> bool:
    """True when two label images induce the same pixel partition."""
    if a.shape != b.shape:
        return False
    forward: dict[int, int] = {}
    backward: dict[int, int] = {}
    for la, lb in zip(a.ravel().tolist(), b.ravel().tolist()):
        if forward.setdefault(la, lb) != lb:
            return False
        if backward.setdefault(lb, la) != la:
            return False
    return True


def naive_dft(x: np.ndarray) -> np.ndarray:
    """O(n^2) DFT, returning the non-negative-frequency half."""
    n = len(x)
    k = np.arange(n // 2 + 1)
    angles = -2.0j * np.pi * np.outer(k, np.arange(n)) / n
    return np.exp(angles) @ np.asarray(x, dtype=np.float64)


def t_sf_via_beta(t_abs: np.ndarray, dof: int) -> np.ndarray:
    """Student-t survival function through the regularized incomplete beta."""
    t_abs = np.asarray(t_abs, dtype=np.float64)
    x = dof / (dof + t_abs ** 2)
    return 0.5 * betainc(dof / 2.0, 0.5, x)


def naive_wls(masks: np.ndarray, targets: np.ndarray, weights: np.ndarray,
              alpha: float = 0.0):
    """Textbook weighted ridge fit with per-coefficient two-sided p-values.

    Returns (coefficients, intercept, std_errors, p_values, r_squared). The
    linear algebra goes through pinv rather than a solver and the t-tail
    through the incomplete beta, so it shares no code path with the library.
    """
    n, k = masks.shape
    design = np.hstack([np.ones((n, 1)), np.asarray(masks, dtype=np.float64)])
    pi = np.asarray(weights, dtype=np.float64)
    pi = pi * (n / pi.sum())
    ident = np.eye(k + 1)
    ident[0, 0] = 0.0
    gram = design.T @ (pi[:, None] * design)
    a = gram + alpha * ident
    a_inv = np.linalg.pinv(a)
    beta = a_inv @ design.T @ (pi * targets)
    residuals = targets - design @ beta
    wrss = float(residuals @ (pi * residuals))
    dof = n - k - 1
    sigma2 = max(wrss, 0.0) / dof
    if alpha == 0.0:
        cov = a_inv * sigma2
    else:
        cov = a_inv @ gram @ a_inv * sigma2
    se = np.sqrt(np.clip(np.diag(cov), 0.0, None))
    p = np.ones(k + 1)
    for j in range(k + 1):
        if se[j] == 0.0:
            p[j] = 1.0 if beta[j] == 0.0 else 0.0
        else:
            p[j] = min(1.0, 2.0 * float(t_sf_via_beta(abs(beta[j] / se[j]), dof)))
    mean_w = float((pi * targets).sum() / pi.sum())
    tss = float((pi * (targets - mean_w) ** 2).sum())
    r2 = 0.0 if tss <= 0.0 else 1.0 - wrss / tss
    return beta[1:], float(beta[0]), se, p, r2


# The surrogate fit's kernels as they were with BLAS count products and
# broadcast rank-1 terms. The library's kernels must give the same bytes.
_PANEL = 64


def blas_weighted_gram(masks: np.ndarray, pi: np.ndarray) -> np.ndarray:
    """X^T diag(pi) X for X = [1 | masks], as sum_v v * X_v^T X_v with the
    counts X_v^T X_v taken by a float64 BLAS product, smallest v first."""
    n, n_seg = masks.shape
    values, inverse = np.unique(pi, return_inverse=True)
    order = np.argsort(inverse, kind="stable")
    stops = np.cumsum(np.bincount(inverse, minlength=len(values)))
    gram = np.zeros((n_seg + 1, n_seg + 1))
    counts = np.empty_like(gram)
    start = 0
    for v, stop in zip(values.tolist(), stops.tolist()):
        rows = np.empty((stop - start, n_seg + 1))
        rows[:, 0] = 1.0
        rows[:, 1:] = masks[order[start:stop]]
        np.matmul(rows.T.copy(), rows, out=counts)
        counts *= v
        gram += counts
        start = stop
    return gram


def broadcast_cholesky(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Upper Cholesky factor and pivots, rank-1 terms by broadcast multiply."""
    p = a.shape[0]
    u = np.triu(a)
    pivots = np.empty(p)
    for j0 in range(0, p, _PANEL):
        j1 = min(j0 + _PANEL, p)
        panel = u[j0:j1, j0:].copy()
        term = np.empty_like(panel)
        for k in range(j0):
            np.multiply(u[k, j0:j1, None], u[k, None, j0:], out=term)
            panel -= term
        for i in range(j1 - j0):
            d = panel[i, i]
            pivots[j0 + i] = d
            if not d > 0:
                raise RankDeficiencyError("singular")
            root = math.sqrt(d)
            panel[i, i] = root
            panel[i, i + 1:] /= root
            panel[i + 1:, i + 1:] -= panel[i, i + 1:j1 - j0, None] * panel[i, None, i + 1:]
        u[j0:j1, j0:] = panel
    return np.triu(u), pivots


def broadcast_inverse_lower(u: np.ndarray) -> np.ndarray:
    """(U^T)^-1 by forward substitution, rank-1 terms by broadcast multiply."""
    p = u.shape[0]
    x = np.zeros((p, p))
    for c0 in range(0, p, _PANEL):
        c1 = min(c0 + _PANEL, p)
        panel = np.zeros((p - c0, c1 - c0))
        panel[:c1 - c0] = np.eye(c1 - c0)
        scratch = np.empty(panel.size)
        for k in range(p - c0):
            row = panel[k]
            row /= u[c0 + k, c0 + k]
            below = p - c0 - k - 1
            term = scratch[:below * (c1 - c0)].reshape(below, c1 - c0)
            np.multiply(u[c0 + k, c0 + k + 1:, None], row[None, :], out=term)
            panel[k + 1:] -= term
        x[c0:, c0:c1] = panel
    return x


def broadcast_matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a @ b as a sum of broadcast outer products in column order."""
    out = np.zeros((a.shape[0], b.shape[1]))
    for k in range(a.shape[1]):
        out += a[:, k, None] * b[None, k, :]
    return out


def naive_proximity(masks: np.ndarray, kernel_width: float) -> np.ndarray:
    out = np.empty(len(masks))
    n_features = masks.shape[1]
    for i, row in enumerate(masks):
        k = float(np.sum(row))
        distance = 1.0 - math.sqrt(k / n_features)
        out[i] = math.exp(-(distance ** 2) / (kernel_width ** 2))
    return out


def naive_istft(values: np.ndarray, frame: int, hop: int, window: str) -> np.ndarray:
    """Least-squares overlap-add inverse, one frame at a time."""
    w = window_samples(window, frame)
    wsq = w * w
    n_frames = values.shape[1]
    length = (n_frames - 1) * hop + frame
    num = np.zeros(length)
    den = np.zeros(length)
    frames_t = np.fft.irfft(values, n=frame, axis=0)
    for t in range(n_frames):
        s = t * hop
        num[s:s + frame] += w * frames_t[:, t]
        den[s:s + frame] += wsq
    covered = den > 0
    out = np.zeros(length)
    out[covered] = num[covered] / den[covered]
    return out


def naive_stft(x: np.ndarray, frame: int, hop: int, window: str) -> np.ndarray:
    frames = np.lib.stride_tricks.sliding_window_view(x, frame)[::hop]
    return np.fft.rfft(frames * window_samples(window, frame), axis=1).T


def naive_griffin_lim(target: np.ndarray, frame: int, hop: int, window: str,
                      iterations: int, init_phase: np.ndarray | None = None,
                      seed: int = 0) -> np.ndarray:
    """Griffin-Lim with the target magnitude put back as target * exp(i*angle)."""
    if init_phase is not None:
        phase = np.angle(init_phase)
    else:
        phase = 2.0 * np.pi * rng.uniform_grid(
            seed, np.arange(target.shape[0]), np.arange(target.shape[1]))
    x = naive_istft(target * np.exp(1j * phase), frame, hop, window)
    for _ in range(iterations):
        analysis = naive_stft(x, frame, hop, window)
        x = naive_istft(target * np.exp(1j * np.angle(analysis)), frame, hop, window)
    return x


def full_size_griffin_lim(target: np.ndarray, frame: int, hop: int, window: str,
                          iterations: int, init_phase: np.ndarray | None = None,
                          seed: int = 0) -> tuple[np.ndarray, list[float]]:
    """Griffin-Lim that holds every frame at once: samples and error trace.

    Each iteration analyses all frames in one rfft, projects all of them onto
    the target magnitude and inverts them in one irfft, overlap-adding chunk
    by chunk with the frames covering a sample in increasing frame order.
    The samples are what the block-wise loop must reproduce bit for bit.
    """
    w = window_samples(window, frame)
    target = np.ascontiguousarray(target.T)
    n_frames, bins = target.shape
    length = (n_frames - 1) * hop + frame
    chunks = -(-frame // hop)

    def overlap_add(frames):
        out = np.zeros((n_frames - 1 + chunks) * hop)
        blocks = out.reshape(-1, hop)
        for c in range(chunks - 1, -1, -1):
            part = frames[:, c * hop:(c + 1) * hop]
            blocks[c:c + n_frames, :part.shape[1]] += part
        return out[:length]

    def project(spec, magnitude):
        zero = magnitude == 0.0
        scale = np.divide(target, magnitude, out=magnitude, where=~zero)
        spec.real *= scale
        spec.imag *= scale
        if zero.any():
            spec[zero] = target[zero]

    den = overlap_add(np.broadcast_to(w * w, (n_frames, frame)))

    def synthesise(spec):
        frames = np.fft.irfft(spec, n=frame, axis=1)
        frames *= w
        num = overlap_add(frames)
        return np.divide(num, den, out=np.zeros_like(num), where=den > 0)

    def analyse(x):
        frames = np.lib.stride_tricks.sliding_window_view(x, frame)[::hop]
        return np.fft.rfft(frames * w, axis=1)

    if init_phase is None:
        phase = 2.0 * np.pi * rng.uniform_grid(seed, np.arange(bins),
                                               np.arange(n_frames)).T
        spec = target * np.exp(1j * phase)
    else:
        spec = np.array(init_phase.T, order="C")
        project(spec, np.abs(spec))
    x = synthesise(spec)
    errors = []
    for _ in range(iterations):
        spec = analyse(x)
        magnitude = np.abs(spec)
        errors.append(float(np.linalg.norm(magnitude - target)))
        project(spec, magnitude)
        x = synthesise(spec)
    errors.append(float(np.linalg.norm(np.abs(analyse(x)) - target)))
    return x, errors


def one_shot_masked_mids(predictor, batch) -> np.ndarray:
    """The builtin's closed form over a whole MaskBatch in one `np.where`.

    The all-ones prediction minus, per row, the coefficients of its dropped
    segments summed by the segment tree; it builds the full (segments, rows,
    7) array that the row-blocked form must reproduce bit for bit.
    """
    instance = batch.instance
    base = instance.spec.values
    labels = instance.seg_map.labels
    count = instance.seg_map.segment_count
    lift = base - instance.filler

    def shift(rect):
        r0, r1, c0, c1 = rect
        sums = np.bincount(labels[r0:r1, c0:c1].ravel(),
                           weights=lift[r0:r1, c0:c1].ravel(), minlength=count)
        return sums / ((r1 - r0) * (c1 - c0))

    coef = np.empty((count, 7))
    for j, (pos, neg) in enumerate(predictor.regions(base.shape)):
        coef[:, j] = shift(pos) - 0.5 * shift(neg)
    dropped = np.where((batch.masks.T == 0)[:, :, None], coef[:, None, :], 0.0)
    return predictor._mids(np.stack([base])) - _tree_sum(dropped)
