"""Graph-based spectrogram segmentation (Felzenszwalb-Huttenlocher style).

Pixels are graph nodes, 8-connected; edge weight is the absolute intensity
difference after Gaussian pre-smoothing. Edges are scanned in ascending
weight order and two components merge when the edge is no heavier than
``min(Int(C) + scale/|C|)`` over the two, where Int(C) is the largest weight
already absorbed into C; each root keeps that bound, updated at each merge.
The scan order is that of a stable sort of the weights laid out by
(pixel, direction), so ties fall to the row-major origin, then direction.
It is one array of edge slots, int32 up to 2**29 pixels, into
the flat weights. Each pass decodes origins, targets and weights from it one
block at a time, so neither holds all edges as decoded arrays or as objects.

The union-find state (parent, size and bound per node) lives in array
buffers that a Python scan indexes and numpy views share. numpy decides
most edges of a block, in rounds over the edges still pending:

- Each edge's endpoints are mapped to their current roots, and edges inside
  one component are dropped: components only grow, so the scan would skip
  them too (the filter of Filter-Kruskal).
- An edge is *independent* when neither of its roots occurs in an earlier
  pending edge of the block. Its merge test, and the merge, are applied to
  all independent edges at once, with the scan's comparisons and its
  ``weight + scale / (|A| + |B|)``.
- This is exact. No earlier pending edge touches an independent edge's two
  components, so those components are the same whether the earlier edges
  run first or not, and the independent edge leaves the earlier edges'
  components alone in turn: it commutes with each of them. Two independent
  edges share no root, so their merges touch disjoint components. The
  decisions read only the partition, the sizes and the bounds, never which
  node is the root.

Once fewer than ``_ROUND_SHARE`` of the pending edges are independent, the
rest of the block goes through the scan, in order. A second pass merges any
component smaller than ``min_size`` into its nearest neighbour (by edge
order). Each block of it is first filtered, in numpy, to the edges between
two distinct current components of which one is smaller than ``min_size``.
That is exact: the pass only merges, so components only grow, and an edge
inside one component, or between two that already hold ``min_size``
pixels, can never pass its test later. Roots are resolved for all pixels at
once in numpy, by pointer jumping on the parent array. Labels are then
compacted to 0..K-1 in row-major order of each segment's first pixel, so
results are reproducible bit for bit, whatever the block and the share.
"""

from __future__ import annotations

import array
import logging
import math
from dataclasses import dataclass

import numpy as np

from .dsp import SCALE_DB, Spectrogram
from .errors import ConfigError, InputTooSmallError, ScaleMismatchError, ShapeMismatchError

log = logging.getLogger(__name__)


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
        if labels.size == 0:
            raise ShapeMismatchError("label image is empty")
        # The range is checked on the caller's dtype, before the int32 cast
        # could wrap a label and before bincount sizes its counters by it.
        low, high = labels.min(), labels.max()
        if low < 0 or high != self.segment_count - 1:
            raise ValueError(
                f"labels must cover 0..{self.segment_count - 1}, "
                f"got range [{low}, {high}]"
            )
        if self.segment_count > labels.size:
            raise ValueError("every label in 0..segment_count-1 must occur")
        labels = labels.astype(np.int32)
        counts = np.bincount(labels.ravel(), minlength=max(self.segment_count, 1))
        if len(counts) != self.segment_count or (counts == 0).any():
            raise ValueError("every label in 0..segment_count-1 must occur")
        object.__setattr__(self, "labels", labels)

    @property
    def shape(self) -> tuple[int, int]:
        return self.labels.shape

    def pixels(self, row) -> np.ndarray:
        """The boolean image of the segments that a mask row keeps: pixel
        (i, j) is ``bool(row[labels[i, j]])``. `row` has one entry per segment."""
        row = np.asarray(row)
        if row.shape != (self.segment_count,):
            raise ShapeMismatchError(
                f"mask row {row.shape} does not match segment count {self.segment_count}"
            )
        return row.astype(bool)[self.labels]


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
# Edges are decoded from the scan order, and decided, this many at a time. It
# sets memory and speed, never the labels.
_BLOCK = 1 << 16
# A block's rounds stop once fewer than this share of its pending edges are
# independent, and the Python scan takes the rest. It sets speed, never the
# labels.
_ROUND_SHARE = 0.1


def _build_edges(img: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The scan order of all edges, and the weights it indexes.

    The weights sit in one (h, w, 4) array whose flat index, the edge's
    slot, is ``4 * origin + direction``. The order lists the slots of the
    edges inside the image by ascending weight, ties broken by the row-major
    origin index (so by row, then column), then direction, so the scan is
    fully deterministic. That is the order of a stable sort of the flat
    weights; it comes from numpy's faster default sort, whose runs of equal
    weights (NaN runs included) are then put back in slot order. The slots
    of edges that would leave the image are dropped. Both come back flat;
    `_edge_blocks` decodes the order.
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
    order = np.argsort(flat).astype(index, copy=False)
    order = order[inside.ravel()[order]]
    _repair_ties(order, flat[order])
    return order, flat


def _repair_ties(order: np.ndarray, sorted_weights: np.ndarray) -> None:
    """Put each run of equal weights in `order` back in ascending slot order.

    NaNs sort last and form one run. Only slots in runs of two or more are
    touched, by one lexsort on (run, slot).
    """
    if len(order) < 2:
        return
    nan = np.isnan(sorted_weights)
    same = (sorted_weights[1:] == sorted_weights[:-1]) | (nan[1:] & nan[:-1])
    tied = np.zeros(len(order), dtype=bool)
    tied[1:] = same
    tied[:-1] |= same
    at = np.flatnonzero(tied)
    if not len(at):
        return
    # A tied slot starts a run unless it equals the slot before it.
    run = np.cumsum(np.r_[False, ~same[at[1:] - 1]])
    slots = order[at]
    order[at] = slots[np.lexsort((slots, run))]


def _edge_blocks(order: np.ndarray, width: int):
    """Slots, origins and targets of the edges in scan order, `_BLOCK` edges
    at a time, with the dtype of `order`; an edge's weight is
    ``weights[slot]``."""
    offsets = np.array([dr * width + dc for dr, dc in _DIRECTIONS], dtype=order.dtype)
    for start in range(0, len(order), _BLOCK):
        slots = order[start:start + _BLOCK]
        p = slots >> 2
        yield slots, p, p + offsets[slots & 3]


def _find(parent: array.array, a: int) -> int:
    """Root of `a`, compressing the path to it."""
    root = a
    while parent[root] != root:
        root = parent[root]
    while parent[a] != root:
        parent[a], a = root, parent[a]
    return root


def _roots_of(parent: np.ndarray, nodes: np.ndarray) -> np.ndarray:
    """The roots of `nodes`, by pointer jumping; each node is then pointed
    straight at its root."""
    roots = parent[nodes]
    while True:
        up = parent[roots]
        if np.array_equal(up, roots):
            break
        roots = up
    parent[nodes] = roots
    return roots


def _first_touch(first: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Which edges (a[i], b[i]) touch two roots that no earlier edge touches.

    `first` holds its dtype's maximum for every node, and does so again on
    return; in between, ``np.minimum.at`` gives each root the least index of
    an edge that touches it.
    """
    index = np.arange(len(a), dtype=a.dtype)
    np.minimum.at(first, a, index)
    np.minimum.at(first, b, index)
    fresh = (first[a] == index) & (first[b] == index)
    first[a] = first[b] = np.iinfo(first.dtype).max
    return fresh


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

    # The union-find state lives in array buffers: the Python scan indexes
    # them directly, and numpy works on views of the same memory.
    index = order.dtype
    parent = array.array(index.char, np.arange(n, dtype=index).tobytes())
    size = array.array(index.char, [1]) * n
    k = float(config.scale)
    # limit[r] is Int(C) + scale/|C| for the component rooted at r.
    limit = array.array("d", [k]) * n
    parent_np = np.frombuffer(parent, dtype=index)
    size_np = np.frombuffer(size, dtype=index)
    limit_np = np.frombuffer(limit, dtype=np.float64)
    first = np.full(n, np.iinfo(index).max, dtype=index)
    internal = in_rounds = scanned = 0

    for slots, p_block, q_block in _edge_blocks(order, w):
        a = _roots_of(parent_np, p_block)
        b = _roots_of(parent_np, q_block)
        weight = weights[slots]
        while len(a):
            apart = a != b
            internal += len(a) - int(np.count_nonzero(apart))
            a, b, weight = a[apart], b[apart], weight[apart]
            fresh = _first_touch(first, a, b)
            decided = int(np.count_nonzero(fresh))
            if decided < _ROUND_SHARE * len(a):
                break
            in_rounds += decided
            ra, rb, wf = a[fresh], b[fresh], weight[fresh]
            join = (wf <= limit_np[ra]) & (wf <= limit_np[rb])
            ra, rb, wf = ra[join], rb[join], wf[join]
            sa, sb = size_np[ra], size_np[rb]
            swap = sa < sb
            ra, rb = np.where(swap, rb, ra), np.where(swap, ra, rb)
            total = sa + sb
            parent_np[rb] = ra
            size_np[ra] = total
            limit_np[ra] = wf + k / total.astype(np.float64)
            # Each joined root now points at a root, so one step finds the
            # new roots of the edges left.
            rest = ~fresh
            a, b, weight = parent_np[a[rest]], parent_np[b[rest]], weight[rest]
        scanned += len(a)
        # A node that is a root, or whose parent is one, needs no _find call.
        # Memoryviews yield the ints and floats that `.tolist()` would, with
        # no list of the whole block.
        for p, q, wt in zip(memoryview(a), memoryview(b), memoryview(weight)):
            ra = parent[p]
            if parent[ra] != ra:
                ra = _find(parent, p)
            rb = parent[q]
            if parent[rb] != rb:
                rb = _find(parent, q)
            if ra == rb:
                continue
            if wt <= limit[ra] and wt <= limit[rb]:
                sa, sb = size[ra], size[rb]
                if sa < sb:
                    ra, rb = rb, ra
                parent[rb] = ra
                size[ra] = sa + sb
                limit[ra] = wt + k / (sa + sb)

    # Post-merge: absorb undersized components, revisiting edges in the same
    # ascending order. Only edges between two distinct components, one of
    # them undersized, can merge, and both tests hold for the current roots:
    # components only grow.
    min_size = config.min_size
    post_merge = 0
    for _, p_block, q_block in _edge_blocks(order, w):
        a = _roots_of(parent_np, p_block)
        b = _roots_of(parent_np, q_block)
        pending = (a != b) & ((size_np[a] < min_size) | (size_np[b] < min_size))
        post_merge += int(np.count_nonzero(pending))
        for ra, rb in zip(memoryview(a[pending]), memoryview(b[pending])):
            if parent[ra] != ra:
                ra = _find(parent, ra)
            if parent[rb] != rb:
                rb = _find(parent, rb)
            if ra != rb and (size[ra] < min_size or size[rb] < min_size):
                if size[ra] < size[rb]:
                    ra, rb = rb, ra
                parent[rb] = ra
                size[ra] += size[rb]
    log.info("%d edges: %d dropped as internal, %d decided in numpy rounds, "
             "%d scanned; the post-merge visited %d",
             len(order), internal, in_rounds, scanned, post_merge)

    roots = _roots_of(parent_np, np.arange(n, dtype=index))
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
