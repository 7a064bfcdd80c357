"""Black-box predictor access.

Three implementations of the same contract: `start()` returns the
``PredictorCapabilities``, `predict(batch)` takes a ``MaskBatch``, mask rows
over one ``lime.Instance``, and returns two float64 matrices, the mid-level
values `(n, 7)` and the emotions `(n, 8)`, with row i for mask row i, and
`close()` stops the predictor. The unmasked spectrogram is the all-ones row.

* ``BuiltinPredictor``: a seeded synthetic model, affine end to end, whose
  ground truth is computable in closed form. Used by tests and as a default.
* ``ConstantPredictor``: the same vectors for every input.
* ``ExternalPredictor``: a gateway to a child process speaking a newline-
  delimited JSON protocol on stdin/stdout (see module docstring below).

The builtin and constant predictors score the mask rows without rendering
them. The gateway never renders them either: every pixel of a mask row is
its base or its filler pixel, so it writes each row's request text from two
texts per run of equal label, built once per instance. The bytes are those
that ``json.dumps`` writes for the rendered rows. A predictor that is not
affine in the mask indexes the batch, which renders the rows it reads.

The wire protocol, one UTF-8 JSON object per line:

* parent sends ``{"type": "handshake", "protocol": 1}``
* child replies ``{"type": "capabilities", "mid_names": [...7], "emotion_names":
  [...8], "linear_head": {"weights": [[...7] x8], "bias": [...8]} | null,
  "input_spec": {"bins": B | "variable", "frames": F | "variable"}}``
* parent sends ``{"type": "predict", "id": n, "shape": [B, F], "scale": "db",
  "batch": [flattened row-major arrays ...]}`` with increasing ids
* child replies ``{"type": "prediction", "id": n, "mid": [[...7] x items],
  "emotion": [[...8] x items]}`` in any order, with n the request's integer
  id; the gateway fills the rows of request n from it
* parent sends ``{"type": "shutdown"}`` and the child exits 0

The gateway may run several children of one command; each gets the
handshake, and they are stopped one at a time. A `predict` call is cut into
requests of at most `batch_size` rows, ``REQUEST_BYTES`` of text (or one
row) and an equal share per child, each sent to the child with the fewest
replies outstanding, so every child serves every call, in increasing ids.
A request's rows are made one at a time, each only as its child's pipe
drains, so the parent holds about one row of text per child, and
``REQUEST_BYTES`` bounds only the line that a child reads at once.
The child's stderr is inherited, so its diagnostics land in the host's logs.
"""

from __future__ import annotations

import fcntl
import functools
import json
import math
import os
import selectors
import shlex
import subprocess
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from itertools import islice
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from . import rng
from .errors import (
    CapabilitiesError,
    ConfigError,
    PredictionValueError,
    PredictorTimeoutError,
    ProtocolError,
    ProtocolVersionError,
    ShapeMismatchError,
    SpawnError,
    TransportError,
)
from .lime import Instance, MaskBatch, _tree_sum

PROTOCOL_VERSION = 1
# Most predict requests that await a reply from one child at any time.
WINDOW = 4
# Most bytes of one predict request, framing included, unless it holds one row:
# the line that a child reads at once.
REQUEST_BYTES = 1 << 22
MID_COUNT = 7
EMOTION_COUNT = 8
# Mask rows per block of the builtin's closed form. Its tree runs over
# segments, so a row's bits do not depend on the block it is in; the size
# sets memory and speed only: a block's (segments, rows, 7) terms stay in
# cache.
_MID_BLOCK = 32

# The literature names only some dimensions; the rest get neutral placeholders.
BUILTIN_MID_NAMES = (
    "melodiousness",
    "rhythmic_complexity",
    "articulation",
    "mid_4",
    "mid_5",
    "mid_6",
    "mid_7",
)
BUILTIN_EMOTION_NAMES = (
    "valence",
    "tension",
    "sadness",
    "energy",
    "emotion_5",
    "emotion_6",
    "emotion_7",
    "emotion_8",
)


@dataclass(frozen=True)
class LinearHead:
    """Final linear layer mapping 7 mid-level values to 8 emotion values."""

    weights: np.ndarray
    bias: np.ndarray

    def __post_init__(self):
        weights = np.asarray(self.weights, dtype=np.float64)
        bias = np.asarray(self.bias, dtype=np.float64)
        if weights.shape != (EMOTION_COUNT, MID_COUNT):
            raise ShapeMismatchError(
                f"head weights must be {EMOTION_COUNT}x{MID_COUNT}, got {weights.shape}"
            )
        if bias.shape != (EMOTION_COUNT,):
            raise ShapeMismatchError(f"head bias must have {EMOTION_COUNT} entries")
        if not (np.all(np.isfinite(weights)) and np.all(np.isfinite(bias))):
            raise ValueError("head entries must be finite")
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "bias", bias)

    def apply(self, mid: np.ndarray) -> np.ndarray:
        """W @ mid + b for one mid vector or a stack of them (last axis 7).

        The products are summed in mid-level index order, then the bias is
        added, so the result does not depend on the BLAS kernel as `@` does.
        """
        mid = np.asarray(mid, dtype=np.float64)
        out = mid[..., 0, None] * self.weights[:, 0]
        for j in range(1, MID_COUNT):
            out = out + mid[..., j, None] * self.weights[:, j]
        return out + self.bias


@dataclass(frozen=True)
class PredictorCapabilities:
    mid_names: tuple[str, ...]
    emotion_names: tuple[str, ...]
    linear_head: LinearHead | None
    input_spec: dict = field(default_factory=lambda: {"bins": "variable", "frames": "variable"})

    def __post_init__(self):
        mid = tuple(str(n) for n in self.mid_names)
        emo = tuple(str(n) for n in self.emotion_names)
        if len(mid) != MID_COUNT:
            raise CapabilitiesError(
                f"expected {MID_COUNT} mid names, got {len(mid)}", field="mid_names"
            )
        if len(emo) != EMOTION_COUNT:
            raise CapabilitiesError(
                f"expected {EMOTION_COUNT} emotion names, got {len(emo)}",
                field="emotion_names",
            )
        if not isinstance(self.input_spec, dict):
            raise CapabilitiesError("input_spec must be an object", field="input_spec")
        spec = {key: self.input_spec.get(key, "variable") for key in ("bins", "frames")}
        for key, value in spec.items():
            if value != "variable" and (type(value) is not int or value < 1):
                raise CapabilitiesError(
                    f'input_spec {key} must be "variable" or a positive integer, '
                    f"got {value!r}", field="input_spec")
        _check_names(mid, "mid_names")
        _check_names(emo, "emotion_names")
        object.__setattr__(self, "mid_names", mid)
        object.__setattr__(self, "emotion_names", emo)
        object.__setattr__(self, "input_spec", spec)


def _check_names(names: tuple[str, ...], name_field: str) -> None:
    """Refuse names that `effects.csv` cannot hold as plain fields, or that
    a `--target` could not tell apart: empty, repeated, or with a comma, a
    double quote or a line break."""
    for name in names:
        if not name or "," in name or '"' in name or name.splitlines() != [name]:
            raise CapabilitiesError(
                f"{name_field} entry {name!r} must be non-empty, without a comma, "
                "a double quote or a line break", field=name_field)
    repeated = sorted({name for name in names if names.count(name) > 1})
    if repeated:
        raise CapabilitiesError(f"{name_field} repeats {', '.join(map(repr, repeated))}",
                                field=name_field)


class _InProcessPredictor:
    """A predictor that runs in this process under the builtin names: it
    starts at once, and scores a MaskBatch from its mask rows, mid vectors
    by `_masked_mids` and emotions through its linear `head`. Nothing
    crosses a wire, so it has no counters."""

    @property
    def counters(self) -> dict:
        return {}

    def start(self) -> PredictorCapabilities:
        return PredictorCapabilities(
            mid_names=BUILTIN_MID_NAMES,
            emotion_names=BUILTIN_EMOTION_NAMES,
            linear_head=self.head,
        )

    def predict(self, batch: MaskBatch) -> tuple[np.ndarray, np.ndarray]:
        mids = self._masked_mids(batch)
        return mids, self.head.apply(mids)

    def close(self) -> None:
        pass


class BuiltinPredictor(_InProcessPredictor):
    """Seeded synthetic stand-in for a trained audio-to-emotion model.

    Each mid-level output is an affine functional of the input: the mean over
    a seeded excitatory rectangle minus half the mean over a seeded
    inhibitory rectangle, plus a seeded offset. Rectangles are fractional, so
    any spectrogram shape works and the functional for a given shape is fixed.
    Emotions are exactly W @ mid + b, so downstream linearity contracts can
    be verified in closed form. A `MaskBatch` is scored from its mask rows
    in closed form, without rendering a spectrogram.
    """

    def __init__(self, seed: int = 0):
        self.seed = int(seed)
        corners = rng.uniform_grid(rng.derive(self.seed, 0),
                                   np.arange(MID_COUNT), np.arange(8))
        self._pos_frac = corners[:, 0:4]
        self._neg_frac = corners[:, 4:8]
        self.offsets = (
            2.0 * rng.uniform_grid(rng.derive(self.seed, 1),
                                   np.arange(MID_COUNT), np.arange(1))[:, 0] - 1.0
        )
        head_w = 2.0 * rng.uniform_grid(rng.derive(self.seed, 2),
                                        np.arange(EMOTION_COUNT), np.arange(MID_COUNT)) - 1.0
        head_b = 2.0 * rng.uniform_grid(rng.derive(self.seed, 3),
                                        np.arange(EMOTION_COUNT), np.arange(1))[:, 0] - 1.0
        self.head = LinearHead(weights=head_w, bias=head_b)

    @staticmethod
    def _rect(frac: np.ndarray, extent: int) -> tuple[int, int]:
        start = int(frac[0] * 0.7 * extent)
        length = max(1, int(round((0.15 + 0.15 * frac[1]) * extent)))
        return start, min(extent, start + length)

    def regions(self, shape: tuple[int, int]) -> list[tuple[tuple[int, int, int, int], tuple[int, int, int, int]]]:
        """Pixel rectangles ((r0, r1, c0, c1) positive, same negative) per mid
        dimension, for closed-form oracles."""
        h, w = shape

        def rect(frac):
            return self._rect(frac[0:2], h) + self._rect(frac[2:4], w)

        return [(rect(self._pos_frac[j]), rect(self._neg_frac[j])) for j in range(MID_COUNT)]

    def _mids(self, stack: np.ndarray) -> np.ndarray:
        mids = np.empty((len(stack), MID_COUNT))
        for j, (pos, neg) in enumerate(self.regions(stack.shape[1:])):
            pos_mean = stack[:, pos[0]:pos[1], pos[2]:pos[3]].mean(axis=(1, 2))
            neg_mean = stack[:, neg[0]:neg[1], neg[2]:neg[3]].mean(axis=(1, 2))
            mids[:, j] = pos_mean - 0.5 * neg_mean + self.offsets[j]
        return mids

    def _masked_mids(self, batch: MaskBatch) -> np.ndarray:
        """Mid vectors of a MaskBatch without rendering it: per row, the
        all-ones prediction minus the coefficients of its dropped segments,
        added by a fixed pairwise tree over segments."""
        coef, ones = batch.instance.memo(("builtin", self.seed), self._coefficients)
        mids = np.empty((len(batch), MID_COUNT))
        mids[:] = ones
        dropped = batch.masks.T == 0
        for start in range(0, len(batch), _MID_BLOCK):
            rows = slice(start, start + _MID_BLOCK)
            mids[rows] -= _tree_sum(np.where(dropped[:, rows, None], coef[:, None, :], 0.0))
        return mids

    def _coefficients(self, instance: Instance) -> tuple[np.ndarray, np.ndarray]:
        """`instance`'s (segments, 7) coefficients and all-ones mids. Masking
        out segment s moves each rectangle mean by the sum of (base - filler)
        over its pixels in the rectangle, divided by the rectangle's area."""
        base = instance.spec.values
        labels = instance.seg_map.labels
        count = instance.seg_map.segment_count
        lift = base - instance.filler

        def shift(rect):
            r0, r1, c0, c1 = rect
            sums = np.bincount(labels[r0:r1, c0:c1].ravel(),
                               weights=lift[r0:r1, c0:c1].ravel(), minlength=count)
            return sums / ((r1 - r0) * (c1 - c0))

        coef = np.empty((count, MID_COUNT))
        for j, (pos, neg) in enumerate(self.regions(base.shape)):
            coef[:, j] = shift(pos) - 0.5 * shift(neg)
        # An all-ones row takes away a tree of +0.0 from these mids, so it
        # scores the unmasked spectrogram as a one-item stack, bit for bit.
        return coef, self._mids(np.stack([base]))


class ConstantPredictor(_InProcessPredictor):
    """Degenerate predictor returning the same vectors for every input."""

    def __init__(self, mid_value: float = 0.5):
        self._mid = np.full(MID_COUNT, float(mid_value))
        self.head = LinearHead(weights=np.zeros((EMOTION_COUNT, MID_COUNT)),
                               bias=np.zeros(EMOTION_COUNT))

    def _masked_mids(self, batch: MaskBatch) -> np.ndarray:
        return np.tile(self._mid, (len(batch), 1))


def _parse_capabilities(msg: dict) -> PredictorCapabilities:
    protocol = msg.get("protocol", PROTOCOL_VERSION)
    if type(protocol) is not int:
        raise ProtocolError(f"protocol must be an integer, got {protocol!r}")
    if protocol != PROTOCOL_VERSION:
        raise ProtocolVersionError(
            f"child speaks protocol {protocol}, this gateway speaks {PROTOCOL_VERSION}"
        )
    mid_names = msg.get("mid_names")
    emotion_names = msg.get("emotion_names")
    if not isinstance(mid_names, list):
        raise CapabilitiesError("mid_names missing or not a list", field="mid_names")
    if not isinstance(emotion_names, list):
        raise CapabilitiesError("emotion_names missing or not a list", field="emotion_names")
    head_msg = msg.get("linear_head")
    head = None
    if head_msg is not None:
        try:
            head = LinearHead(weights=np.asarray(head_msg["weights"], dtype=np.float64),
                              bias=np.asarray(head_msg["bias"], dtype=np.float64))
        except (KeyError, TypeError, ValueError, ShapeMismatchError) as exc:
            raise CapabilitiesError(f"malformed linear_head: {exc}",
                                    field="linear_head") from exc
    return PredictorCapabilities(mid_names=mid_names, emotion_names=emotion_names,
                                 linear_head=head,
                                 input_spec=msg.get("input_spec") or {})


def _unlike_field(a: PredictorCapabilities, b: PredictorCapabilities) -> str | None:
    """The first capabilities field in which `a` and `b` differ, if any."""
    for name in ("mid_names", "emotion_names", "input_spec"):
        if getattr(a, name) != getattr(b, name):
            return name
    heads = [None if c.linear_head is None
             else (c.linear_head.weights.tolist(), c.linear_head.bias.tolist())
             for c in (a, b)]
    return "linear_head" if heads[0] != heads[1] else None


# A predict request as `json.dumps(msg, separators=(",", ":"))` writes it,
# around its rows' pixel texts.
_PREDICT_HEAD = b'{"type":"predict","id":%d,"shape":[%d,%d],"scale":"db","batch":[['
_PREDICT_TAIL = b"]]}\n"


def _predict_line(cid: int, shape: tuple[int, int],
                  rows: Iterable[bytes]) -> Iterator[bytes]:
    """A predict request as its pieces, each made when it is drawn: head,
    rows with separators between them, tail."""
    yield _PREDICT_HEAD % (cid, *shape)
    for k, row in enumerate(rows):
        if k:
            yield b"],["
        yield row
    yield _PREDICT_TAIL


class _RunTexts:
    """The request texts of one instance's mask rows, by run.

    A run is a maximal stretch of one label in the row-major segment map.
    Each run has two texts, of its base pixels and of its filler pixels. A
    row's text joins, run by run, the one its mask bit for the run's label
    picks, which is the text of the row's rendered pixels. `row_bytes`
    bounds the length of any row's text: per run the longer of its two
    texts, plus the commas between runs.
    """

    def __init__(self, instance: Instance):
        labels = instance.seg_map.labels.ravel()
        starts = np.flatnonzero(np.diff(labels, prepend=-1))
        self.labels = labels[starts]
        bounds = starts.tolist() + [labels.size]

        def texts(values):
            reprs = list(map(float.__repr__, values.ravel().tolist()))
            return np.array([",".join(reprs[a:b]).encode()
                             for a, b in zip(bounds, bounds[1:])], dtype=object)

        self.filler_texts = texts(instance.filler)
        self.base_texts = texts(instance.spec.values)
        longer = np.maximum(np.fromiter(map(len, self.base_texts), np.int64),
                            np.fromiter(map(len, self.filler_texts), np.int64))
        self.row_bytes = int(longer.sum()) + len(longer) - 1

    def row(self, mask: np.ndarray) -> bytes:
        keep = mask.astype(bool)[self.labels]
        return b",".join(np.where(keep, self.base_texts, self.filler_texts).tolist())


def _drop_front(outbox: deque[memoryview], n: int) -> None:
    """Remove the first `n` bytes of `outbox`."""
    while n:
        view = outbox.popleft()
        if n < len(view):
            outbox.appendleft(view[n:])
            return
        n -= len(view)


class _Child:
    """One child process, and the reply bytes read from it but not yet taken."""

    def __init__(self, proc: subprocess.Popen):
        self.proc = proc
        self.buf = bytearray()

    def take_line(self) -> bytes | None:
        i = self.buf.find(b"\n")
        if i < 0:
            return None
        line = bytes(self.buf[:i])
        del self.buf[:i + 1]
        return line


def _reap(proc: subprocess.Popen) -> None:
    """Kill `proc` if it still runs, wait for it and close its pipes."""
    if proc.poll() is None:
        proc.kill()
    proc.wait()
    proc.stdin.close()
    proc.stdout.close()


def _locked(method):
    """`method`, run under its instance's `_lock`."""
    @functools.wraps(method)
    def locked(self, *args):
        with self._lock:
            return method(self, *args)
    return locked


class ExternalPredictor:
    """Gateway owning a pool of child predictor processes of one command.

    Requests are pipelined with a bounded window of outstanding requests per
    child, and every child's stdin/stdout are driven by one non-blocking
    event loop so a slow or bursty child cannot deadlock its pipe pair.
    `predict` works only between `start()` (or entering a `with` block) and
    `close()`. `start()` returns the capabilities, those of the running
    pool if it runs, and a `start()` that fails has closed its children.
    Threads may share a gateway: `start`, `predict` and `close` take one
    re-entrant lock, so their calls run one at a time. `counters` counts
    the requests, the items and the bytes that crossed the wire.
    """

    def __init__(self, command: str | Sequence[str], *, timeout: float = 30.0,
                 batch_size: int = 256, children: int = 1):
        try:
            argv = shlex.split(command) if isinstance(command, str) else list(command)
        except ValueError as exc:
            raise ConfigError(f"cannot parse predictor command {command!r}: {exc}") from None
        if not argv:
            raise ConfigError("empty predictor command")
        if not 0 < timeout < math.inf:
            raise ConfigError(f"timeout must be finite and positive, got {timeout}")
        if batch_size < 1:
            raise ConfigError(f"batch_size must be >= 1, got {batch_size}")
        if children < 1:
            raise ConfigError(f"children must be >= 1, got {children}")
        self._argv = argv
        self._timeout = float(timeout)
        self.batch_size = int(batch_size)
        self.children = int(children)
        self._pool: list[_Child] = []
        self._capabilities: PredictorCapabilities | None = None
        self._next_id = 0
        # Re-entrant, as a failed start() closes the pool while it holds it.
        self._lock = threading.RLock()
        self.counters = {"children": self.children, "requests": 0, "items": 0,
                         "bytes_out": 0, "bytes_in": 0}

    def __enter__(self) -> "ExternalPredictor":
        self.start()
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    @_locked
    def start(self) -> PredictorCapabilities:
        """Spawn the children, then shake hands with each in turn; every
        child must report the same capabilities. A failed spawn or handshake
        closes the children spawned so far before it raises."""
        if self._pool:
            return self._capabilities
        try:
            for _ in range(self.children):
                try:
                    proc = subprocess.Popen(
                        self._argv, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                        stderr=None, bufsize=0,
                    )
                except OSError as exc:
                    raise SpawnError(
                        f"cannot spawn predictor {self._argv!r}: {exc}") from exc
                self._pool.append(_Child(proc))
                flags = fcntl.fcntl(proc.stdin.fileno(), fcntl.F_GETFL)
                fcntl.fcntl(proc.stdin.fileno(), fcntl.F_SETFL, flags | os.O_NONBLOCK)
            first = None
            for k, child in enumerate(self._pool):
                lines: list[bytes] = []
                self._relay([child], [[self._encode(
                    {"type": "handshake", "protocol": PROTOCOL_VERSION})]], 1,
                    lines.append)
                line = lines[0]
                msg = self._decode(line)
                if msg.get("type") != "capabilities":
                    raise ProtocolError(
                        f"expected a capabilities reply, got type {msg.get('type')!r}",
                        line=line,
                    )
                caps = _parse_capabilities(msg)
                if first is None:
                    first = caps
                elif (unlike := _unlike_field(first, caps)) is not None:
                    raise CapabilitiesError(
                        f"predictor child {k} reports other {unlike} than child 0",
                        field=unlike)
        except BaseException:
            self.close()
            raise
        self._capabilities = first
        return first

    @_locked
    def predict(self, batch: MaskBatch) -> tuple[np.ndarray, np.ndarray]:
        if not self._pool:
            raise TransportError("predictor is not running; call start() first")
        # The batch's instance is checked already. A request is taken only
        # when a child's window has room for it, and each of its rows is
        # made from its own slice of masks only when that child's pipe drains.
        texts = batch.instance.memo("run_texts", _RunTexts)
        shape = batch.instance.spec.values.shape
        # A request is its head, its rows with "],[" between them, and its
        # tail; the head is longest for the largest id.
        frame = len(_PREDICT_HEAD % (self._next_id + len(batch), *shape) + _PREDICT_TAIL)
        step = max(1, min(self.batch_size, -(-len(batch) // len(self._pool)),
                          (REQUEST_BYTES - frame) // (texts.row_bytes + 3)))
        mids = np.empty((len(batch), MID_COUNT))
        emotions = np.empty((len(batch), EMOTION_COUNT))
        bounds = {self._next_id + k: (start, min(start + step, len(batch)))
                  for k, start in enumerate(range(0, len(batch), step))}
        self._next_id += len(bounds)

        # Replies pop their request from `bounds` while payloads are still
        # being written, so the payloads walk a copy of it.
        def payloads():
            for cid, (start, stop) in list(bounds.items()):
                self.counters["requests"] += 1
                self.counters["items"] += stop - start
                yield _predict_line(cid, shape, map(texts.row, batch.masks[start:stop]))

        self._relay(self._pool, payloads(), len(bounds),
                    lambda line: self._handle_prediction(line, bounds, mids, emotions))
        return mids, emotions

    @_locked
    def close(self) -> int | None:
        """Stop and reap the children one at a time, in order, each gone
        before the next is told to stop; returns 0, or the first nonzero
        exit code in child order."""
        children, self._pool = self._pool, []
        try:
            for child in children:
                proc = child.proc
                if proc.poll() is None:
                    try:
                        self._relay([child], [[self._encode({"type": "shutdown"})]], 0,
                                    lambda line: None)
                    except (TransportError, PredictorTimeoutError, OSError):
                        pass
                proc.stdin.close()
                try:
                    proc.wait(timeout=5.0)
                except subprocess.TimeoutExpired:
                    proc.kill()
                    proc.wait()
        finally:
            for child in children:
                _reap(child.proc)
        if not children:
            return None
        return next((c.proc.returncode for c in children if c.proc.returncode), 0)

    # -- wire helpers ------------------------------------------------------

    @staticmethod
    def _encode(msg: dict) -> bytes:
        return json.dumps(msg, separators=(",", ":")).encode("utf-8") + b"\n"

    @staticmethod
    def _decode(line: bytes) -> dict:
        # ValueError: bad UTF-8 or JSON, or an integer too long to convert.
        try:
            msg = json.loads(line.decode("utf-8"))
        except (ValueError, RecursionError) as exc:
            raise ProtocolError(f"child emitted a non-JSON line: {exc}",
                                line=line.decode("utf-8", "replace")) from exc
        if not isinstance(msg, dict):
            raise ProtocolError("child emitted a non-object JSON line",
                                line=line.decode("utf-8", "replace"))
        return msg

    def _relay(self, children: Sequence[_Child], payloads: Iterable[Iterable[bytes]],
               want: int, on_line: Callable[[bytes], None]) -> None:
        """Send `payloads` in order; hand `want` reply lines to `on_line`.

        Each payload is an iterable of pieces whose concatenation is one
        line. The next payload goes to the child with the fewest replies
        outstanding, the first on a tie, and is taken from `payloads` only
        while that child has fewer than `WINDOW`; it counts against the
        window from then on. A child's taken payloads wait in order, and
        their pieces are drawn into its outbox only while the outbox holds
        less than one `os.writev` batch of 64 pieces and less than one
        64 KiB pipe buffer. So the parent holds about one request row per
        child however long the requests are. The outbox holds views of the
        pieces, not copies, and drops each piece once it is written. Any
        read or write that makes progress, and taking a payload, restarts
        the timeout.
        """
        payloads = iter(payloads)
        pending = True
        feeds: list[deque[Iterator[bytes]]] = [deque() for _ in children]
        outboxes: list[deque[memoryview]] = [deque() for _ in children]
        queued = [0] * len(children)
        waiting = [0] * len(children)
        armed = [False] * len(children)
        got = 0
        sel = selectors.DefaultSelector()
        for k, child in enumerate(children):
            sel.register(child.proc.stdout, selectors.EVENT_READ, k)
        try:
            deadline = time.monotonic() + self._timeout
            while True:
                while pending:
                    k = waiting.index(min(waiting))
                    if waiting[k] >= WINDOW:
                        break
                    pieces = next(payloads, None)
                    pending = pieces is not None
                    if pending:
                        feeds[k].append(iter(pieces))
                        waiting[k] += 1
                        deadline = time.monotonic() + self._timeout
                # A feed left after this has put a piece in its outbox, so
                # the outboxes alone tell whether there is more to write.
                for k, (feed, outbox) in enumerate(zip(feeds, outboxes)):
                    while feed and len(outbox) < 64 and queued[k] < 1 << 16:
                        piece = next(feed[0], None)
                        if piece is None:
                            feed.popleft()
                        elif piece:
                            outbox.append(memoryview(piece))
                            queued[k] += len(piece)
                if not (pending or any(outboxes) or got < want):
                    break
                for k, child in enumerate(children):
                    if bool(outboxes[k]) != armed[k]:
                        if outboxes[k]:
                            sel.register(child.proc.stdin, selectors.EVENT_WRITE, k)
                        else:
                            sel.unregister(child.proc.stdin)
                        armed[k] = bool(outboxes[k])
                for k, child in enumerate(children):
                    line = child.take_line()
                    if line is not None:
                        break
                if line is not None:
                    on_line(line)
                    waiting[k] -= 1
                    got += 1
                    deadline = time.monotonic() + self._timeout
                    continue
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    raise PredictorTimeoutError(
                        f"predictor silent for {self._timeout}s with "
                        f"{want - got} of {want} replies outstanding"
                    )
                progressed = False
                for key, _ in sel.select(remaining):
                    child, outbox = children[key.data], outboxes[key.data]
                    proc = child.proc
                    if key.fileobj is proc.stdout:
                        chunk = os.read(proc.stdout.fileno(), 1 << 16)
                        if not chunk:
                            raise TransportError(
                                f"predictor closed stdout (exit code {proc.poll()})"
                            )
                        child.buf += chunk
                        self.counters["bytes_in"] += len(chunk)
                        progressed = True
                    else:
                        try:
                            n = os.writev(proc.stdin.fileno(), list(islice(outbox, 64)))
                        except BlockingIOError:
                            n = 0
                        except BrokenPipeError as exc:
                            raise TransportError(
                                f"predictor closed stdin pipe (exit code "
                                f"{proc.poll()})"
                            ) from exc
                        _drop_front(outbox, n)
                        queued[key.data] -= n
                        self.counters["bytes_out"] += n
                        progressed |= n > 0
                if progressed:
                    deadline = time.monotonic() + self._timeout
        finally:
            sel.close()

    def _handle_prediction(self, line: bytes, bounds: dict, mids: np.ndarray,
                           emotions: np.ndarray) -> None:
        """Check one prediction reply and fill its rows of `mids` and `emotions`."""
        msg = self._decode(line)
        if msg.get("type") != "prediction":
            raise ProtocolError(
                f"expected a prediction reply, got type {msg.get('type')!r}",
                line=line.decode("utf-8", "replace"),
            )
        cid = msg.get("id")
        if type(cid) is not int:
            raise ProtocolError(f"reply id must be an integer, got {cid!r}",
                                line=line.decode("utf-8", "replace"))
        if cid not in bounds:
            raise TransportError(
                f"prediction for unknown or already-answered id {cid!r}"
            )
        start, stop = bounds.pop(cid)
        count = stop - start
        mid_rows = msg.get("mid")
        emo_rows = msg.get("emotion")
        if (not isinstance(mid_rows, list) or not isinstance(emo_rows, list)
                or len(mid_rows) != count or len(emo_rows) != count):
            raise TransportError(
                f"chunk {cid} expected {count} items, got "
                f"{len(mid_rows) if isinstance(mid_rows, list) else '?'} mid / "
                f"{len(emo_rows) if isinstance(emo_rows, list) else '?'} emotion"
            )
        try:
            mid = np.asarray(mid_rows, dtype=np.float64)
            emo = np.asarray(emo_rows, dtype=np.float64)
        except (TypeError, ValueError, OverflowError) as exc:
            raise ProtocolError(
                f"non-numeric or ragged prediction rows in chunk {cid}: {exc}",
                line=line.decode("utf-8", "replace"),
            ) from exc
        if mid.shape != (count, MID_COUNT) or emo.shape != (count, EMOTION_COUNT):
            raise ProtocolError(
                f"prediction shapes {mid.shape}/{emo.shape} in chunk {cid}, "
                f"expected ({count}, {MID_COUNT})/({count}, {EMOTION_COUNT})",
                line=line.decode("utf-8", "replace"),
            )
        # float64 conversion also takes numeric strings, booleans and null;
        # the protocol allows JSON numbers only.
        if any(type(v) not in (int, float)
               for rows in (mid_rows, emo_rows) for row in rows for v in row):
            raise ProtocolError(
                f"prediction values in chunk {cid} must be JSON numbers",
                line=line.decode("utf-8", "replace"),
            )
        finite = np.isfinite(mid).all(axis=1) & np.isfinite(emo).all(axis=1)
        bad = np.flatnonzero(~finite)
        if bad.size:
            raise PredictionValueError(
                f"non-finite prediction for batch item {start + bad[0]}",
                index=int(start + bad[0]),
            )
        mids[start:stop] = mid
        emotions[start:stop] = emo
