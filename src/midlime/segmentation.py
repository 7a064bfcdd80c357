"""Graph-based spectrogram segmentation (Felzenszwalb-Huttenlocher style).

Pixels are graph nodes, 8-connected; edge weight is the absolute intensity
difference after Gaussian pre-smoothing. Edges are scanned in ascending
weight order and two components merge when the edge is no heavier than
``min(Int(C) + scale/|C|)`` over the two, where Int(C) is the largest weight
already absorbed into C; each root keeps that bound, updated at each merge.
The scan order comes from one stable sort of the weights laid out by
(pixel, direction), so ties fall to the row-major origin, then direction.
It is one array of edge slots, int32 up to 2**29 pixels, into
the flat weights. Each pass decodes origins, targets and weights from it one
block at a time and makes Python objects of that block only, so neither
holds all edges as decoded arrays or as objects. A second pass merges any
component smaller than ``min_size`` into its nearest neighbour (by edge
order). It visits only the edges between two distinct first-pass
components of which one is smaller than ``min_size``, in the same order.
That is exact: the pass only merges, so components only grow, and an edge
inside one component, or between two that already hold ``min_size``
pixels, can never pass its test. Roots are resolved for all pixels at
once in numpy, by pointer jumping on the parent array. Labels are then
compacted to 0..K-1 in row-major order of each segment's first pixel, so
results are reproducible bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dsp import SCALE_DB, Spectrogram
from .errors import ConfigError, InputTooSmallError, ScaleMismatchError, ShapeMismatchError


@dataclass(frozen=True)
class SegmentationConfig:
    scale: float = 25.0
    min_size: int = 40
    sigma: float = 0.8

    def __post_init__(self):
        if not (np.isfinite(self.scale) and self.scale > 0):
            raise ConfigError(f"scale must be positive, got {self.scale}")
        if self.min_size < 1:
            raise ConfigError(f"min_size must be >= 1, got {self.min_size}")
        if not (np.isfinite(self.sigma) and self.sigma >= 0):
            raise ConfigError(f"sigma must be >= 0, got {self.sigma}")


@dataclass(frozen=True)
class SegmentMap:
    """Dense label image; labels are exactly 0..segment_count-1, all present."""

    labels: np.ndarray
    segment_count: int

    def __post_init__(self):
        labels = np.asarray(self.labels)
        if labels.ndim != 2:
            raise ShapeMismatchError(f"labels must be 2-D, got shape {labels.shape}")
        if not np.issubdtype(labels.dtype, np.integer):
            raise ValueError(f"labels must be integers, got dtype {labels.dtype}")
        labels = labels.astype(np.int32)
        if labels.size == 0:
            raise ShapeMismatchError("label image is empty")
        counts = np.bincount(labels.ravel(), minlength=max(self.segment_count, 1))
        if labels.min() < 0 or labels.max() != self.segment_count - 1:
            raise ValueError(
                f"labels must cover 0..{self.segment_count - 1}, "
                f"got range [{labels.min()}, {labels.max()}]"
            )
        if len(counts) != self.segment_count or (counts == 0).any():
            raise ValueError("every label in 0..segment_count-1 must occur")
        object.__setattr__(self, "labels", labels)

    @property
    def shape(self) -> tuple[int, int]:
        return self.labels.shape


def gaussian_smooth(image: np.ndarray, sigma: float) -> np.ndarray:
    """Separable Gaussian blur with edge replication; sigma 0 is a copy."""
    image = np.asarray(image, dtype=np.float64)
    if image.ndim != 2:
        raise ShapeMismatchError(f"image must be 2-D, got shape {image.shape}")
    if not (np.isfinite(sigma) and sigma >= 0):
        raise ConfigError(f"sigma must be >= 0, got {sigma}")
    if sigma == 0:
        return image.copy()
    radius = int(math.ceil(4.0 * sigma))
    x = np.arange(-radius, radius + 1, dtype=np.float64)
    kernel = np.exp(-(x * x) / (2.0 * sigma * sigma))
    kernel /= kernel.sum()
    out = _correlate_nearest(image, kernel)
    return np.ascontiguousarray(_correlate_nearest(out.T, kernel).T)


def _correlate_nearest(a: np.ndarray, kernel: np.ndarray) -> np.ndarray:
    """Correlate the columns of `a` with a symmetric odd kernel.

    Edge rows are replicated. The sum runs in a fixed elementwise order,
    farthest tap pair first: ``a[i] * k[r]``, then ``(a[i-j] + a[i+j]) *
    k[r-j]`` added for j = r .. 1.
    """
    r = len(kernel) // 2
    n = a.shape[0]
    padded = np.pad(a, ((r, r), (0, 0)), mode="edge")
    out = a * kernel[r]
    for j in range(r, 0, -1):
        out += (padded[r - j:r - j + n] + padded[r + j:r + j + n]) * kernel[r - j]
    return out


# Edge direction offsets, in tie-break order: E, S, SE, SW. Each pixel owns
# the edges it originates, so every undirected edge appears exactly once.
_DIRECTIONS = ((0, 1), (1, 0), (1, 1), (1, -1))
# Edges are decoded from the scan order, and become Python objects, this many
# at a time. It sets memory and speed, never the labels.
_BLOCK = 1 << 16


def _build_edges(img: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The scan order of all edges, and the weights it indexes.

    The weights sit in one (h, w, 4) array whose flat index, the edge's
    slot, is ``4 * origin + direction``. The order lists the slots of the
    edges inside the image by ascending weight, ties broken by the row-major
    origin index (so by row, then column), then direction, so the scan is
    fully deterministic: one stable sort of the flat weights gives it, and
    the slots of edges that would leave the image are then dropped. Both
    come back flat; `_edge_blocks` decodes the order.
    """
    h, w = img.shape
    weights = np.zeros((h, w, len(_DIRECTIONS)))
    inside = np.zeros(weights.shape, dtype=bool)
    for d, (dr, dc) in enumerate(_DIRECTIONS):
        c0, c1 = max(0, -dc), w - max(0, dc)
        np.abs(img[:h - dr, c0:c1] - img[dr:, c0 + dc:c1 + dc],
               out=weights[:h - dr, c0:c1, d])
        inside[:h - dr, c0:c1, d] = True
    index = np.int32 if weights.size <= 2**31 else np.int64
    flat = weights.ravel()
    order = np.argsort(flat, kind="stable").astype(index, copy=False)
    return order[inside.ravel()[order]], flat


def _edge_blocks(order: np.ndarray, width: int):
    """Slots, origins and targets of the edges in scan order, `_BLOCK` edges
    at a time, with the dtype of `order`; an edge's weight is
    ``weights[slot]``."""
    offsets = np.array([dr * width + dc for dr, dc in _DIRECTIONS], dtype=order.dtype)
    for start in range(0, len(order), _BLOCK):
        slots = order[start:start + _BLOCK]
        p = slots >> 2
        yield slots, p, p + offsets[slots & 3]


def _find(parent: list[int], a: int) -> int:
    """Root of `a`, compressing the path to it."""
    root = a
    while parent[root] != root:
        root = parent[root]
    while parent[a] != root:
        parent[a], a = root, parent[a]
    return root


def _roots(parent: list[int], dtype) -> np.ndarray:
    """Every node's root, by pointer jumping until no pointer moves."""
    roots = np.asarray(parent, dtype=dtype)
    while True:
        up = roots[roots]
        if np.array_equal(up, roots):
            return roots
        roots = up


def felzenszwalb_segment(spec: Spectrogram, config: SegmentationConfig) -> SegmentMap:
    """Segment a dB spectrogram into contiguous regions."""
    if spec.scale != SCALE_DB:
        raise ScaleMismatchError(f"expected a dB spectrogram, got scale '{spec.scale}'")
    img = spec.values
    h, w = img.shape
    n = h * w
    if n < config.min_size:
        raise InputTooSmallError(
            f"{n} pixels cannot hold a segment of min_size {config.min_size}"
        )
    smoothed = gaussian_smooth(img, config.sigma)
    order, weights = _build_edges(smoothed)

    parent = list(range(n))
    size = [1] * n
    k = float(config.scale)
    # limit[r] is Int(C) + scale/|C| for the component rooted at r.
    limit = [k] * n

    # A node that is a root, or whose parent is one, needs no _find call.
    for slots, p_block, q_block in _edge_blocks(order, w):
        for p, q, weight in zip(p_block.tolist(), q_block.tolist(),
                                weights[slots].tolist()):
            ra = parent[p]
            if parent[ra] != ra:
                ra = _find(parent, p)
            rb = parent[q]
            if parent[rb] != rb:
                rb = _find(parent, q)
            if ra == rb:
                continue
            if weight <= limit[ra] and weight <= limit[rb]:
                sa, sb = size[ra], size[rb]
                if sa < sb:
                    ra, rb = rb, ra
                parent[rb] = ra
                size[ra] = sa + sb
                limit[ra] = weight + k / (sa + sb)

    # Post-merge: absorb undersized components, revisiting edges in the same
    # ascending order. Only edges between distinct first-pass components, one
    # of them undersized, can merge; components only grow.
    min_size = config.min_size
    roots = _roots(parent, order.dtype)
    small = (np.asarray(size) < min_size)[roots]
    for _, p_block, q_block in _edge_blocks(order, w):
        a, b = roots[p_block], roots[q_block]
        pending = (a != b) & (small[p_block] | small[q_block])
        for ra, rb in zip(a[pending].tolist(), b[pending].tolist()):
            if parent[ra] != ra:
                ra = _find(parent, ra)
            if parent[rb] != rb:
                rb = _find(parent, rb)
            if ra != rb and (size[ra] < min_size or size[rb] < min_size):
                if size[ra] < size[rb]:
                    ra, rb = rb, ra
                parent[rb] = ra
                size[ra] += size[rb]

    roots = _roots(parent, order.dtype)
    # Compact labels in order of first appearance (row-major scan).
    _, first_index, inverse = np.unique(roots, return_index=True, return_inverse=True)
    rank = np.argsort(np.argsort(first_index))
    labels = rank[inverse].astype(np.int32).reshape(h, w)
    return SegmentMap(labels=labels, segment_count=int(labels.max()) + 1)


def write_segment_csv(seg_map: SegmentMap, path) -> None:
    """Dense per-pixel dump: one `row,col,label` line per pixel.

    Each line joins the row number, a ",col," string made once per column
    and a label-and-newline string made once per label; one write per image
    row keeps memory flat. The bytes are those of ``np.savetxt(..., fmt="%d")``.
    """
    columns = [f",{c}," for c in range(seg_map.labels.shape[1])]
    names = [f"{label}\n" for label in range(seg_map.segment_count)]
    with open(path, "w", encoding="ascii", newline="") as fh:
        fh.write("row,col,label\n")
        for r, row in enumerate(seg_map.labels.tolist()):
            prefix = str(r)
            fh.write(prefix + prefix.join([c + names[label]
                                           for c, label in zip(columns, row)]))
