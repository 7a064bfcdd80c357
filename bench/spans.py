"""In-memory span tracing of one midlime CLI process, and per-layer times.

`install` wraps public functions of the package (as the pipeline looks them
up) so that every call records a span: id, name, start, end, parent span,
run id, thread, and a few call attributes. Spans stay in memory and are
dumped once when the process ends.

`attribute` turns spans into per-span self times that add up to the root
span's duration even when worker threads overlap: each stretch of time is
shared equally by the spans active in it that have no active child.
"""

from __future__ import annotations

import functools
import sys
import threading
import time


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[dict] = []
        self._local = threading.local()
        self._main_stack: list[int] = []
        self._local.stack = self._main_stack
        self._lock = threading.Lock()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str, start: float | None = None) -> dict:
        stack = self._stack()
        # A worker thread's first span belongs to whatever the main thread
        # is waiting in, since that is where the work was handed out.
        parent_stack = stack or self._main_stack
        span = {"name": name, "start": time.monotonic() if start is None else start,
                "end": None, "parent": parent_stack[-1] if parent_stack else None,
                "run": self.run_id, "thread": threading.get_ident()}
        with self._lock:
            span["id"] = len(self.spans)
            self.spans.append(span)
        stack.append(span["id"])
        return span

    def close(self, span: dict, end: float | None = None) -> None:
        span["end"] = time.monotonic() if end is None else end
        stack = self._stack()
        if stack and stack[-1] == span["id"]:
            stack.pop()

    def wrap(self, name: str, fn, attrs=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(span)
            if attrs is not None:
                span.update(attrs(result, *args, **kwargs))
            return result
        return traced


def _sample_attrs(result, n_segments, config):
    return {"seed": int(config.seed), "rows": int(config.n_samples)}


def _render_attrs(result, spec, *args, **kwargs):
    # The all-ones row comes back as the input itself; nothing is computed.
    return {"pixels": 0 if result is spec else int(spec.values.size)}


def _segment_attrs(result, *args, **kwargs):
    return {"segments": int(result.segment_count)}


def _predict_attrs(result, self, batch, *args, **kwargs):
    return {"items": len(batch)}


def install(tracer: Tracer) -> None:
    """Wrap the layer boundaries inside an already imported midlime."""
    from midlime import lime, pipeline, predictor

    functions = [
        (lime, "sample_masks", "lime.sample", _sample_attrs),
        (lime, "fit_surrogate", "lime.fit", None),
        (lime, "select_features", "lime.select", None),
        (lime, "explain_instance", "lime.explain", None),
        (pipeline, "felzenszwalb_segment", "segmentation.segment", _segment_attrs),
        (pipeline, "griffin_lim", "dsp.griffin_lim", None),
        (pipeline, "make_predictor", "predictor.start", None),
        (pipeline, "run_explanation", "pipeline.run", None),
        (pipeline, "run_stability", "pipeline.run", None),
    ]
    for module, attr, name, attrs in functions:
        original = getattr(module, attr)
        traced = tracer.wrap(name, original, attrs)
        # Rebind every module-level reference, so calls made through a
        # `from .x import f` name are traced too.
        for mod in list(sys.modules.values()):
            if getattr(mod, "__name__", "").startswith("midlime") \
                    and getattr(mod, attr, None) is original:
                setattr(mod, attr, traced)
    # Only the renders of LIME's evaluation loop: the pipeline's own two
    # indicator renders for the mask CSVs stay in its self time.
    lime.apply_mask = tracer.wrap("lime.render", lime.apply_mask, _render_attrs)

    for cls in (predictor.BuiltinPredictor, predictor.ExternalPredictor):
        cls.predict = tracer.wrap("predictor.predict", cls.predict, _predict_attrs)
    predictor.ExternalPredictor.start = tracer.wrap(
        "predictor.handshake", predictor.ExternalPredictor.start)


def attribute(spans: list[dict]) -> dict[int, float]:
    """Self time per span id; the values add up to the covered wall time.

    Between consecutive span boundaries, the elapsed time is split equally
    among the active spans that have no active child span.
    """
    events = []
    for s in spans:
        events.append((s["start"], 1, s["id"]))
        events.append((s["end"], 0, s["id"]))
    events.sort()
    by_id = {s["id"]: s for s in spans}
    active_children = {s["id"]: 0 for s in spans}
    active: set[int] = set()
    leaves: set[int] = set()
    share = {s["id"]: 0.0 for s in spans}
    last = events[0][0] if events else 0.0
    for when, is_start, sid in events:
        if leaves and when > last:
            part = (when - last) / len(leaves)
            for leaf in leaves:
                share[leaf] += part
        last = when
        parent = by_id[sid]["parent"]
        if is_start:
            active.add(sid)
            leaves.add(sid)
            if parent in active:
                active_children[parent] += 1
                leaves.discard(parent)
        else:
            active.discard(sid)
            leaves.discard(sid)
            if parent in active:
                active_children[parent] -= 1
                if active_children[parent] == 0:
                    leaves.add(parent)
    return share
