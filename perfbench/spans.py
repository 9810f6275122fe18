"""In-memory spans, self times, and call-site wrapping for the traced run.

A span has a name, a start and end (``time.perf_counter`` seconds), the id of
the span that was open when it started, and free-form attributes. All spans
of one workload run share one trace id. Spans are kept in a list and written
once, when the run ends.

The package imports functions by name (``from .network import forward_batch``),
so a function is wrapped where it is looked up: ``wrap(simd2nn.training,
"forward_batch")`` replaces the name in ``simd2nn.training`` only, which is
the binding ``train`` and ``predict`` call. ``restore`` puts every original
back.
"""

import functools
import json
import time
import uuid
from contextlib import contextmanager


class Tracer:
    def __init__(self, trace_id: str | None = None):
        self.trace_id = trace_id or uuid.uuid4().hex
        self.spans: list[dict] = []
        self._open: list[int] = []
        self._patched: list[tuple[object, str, object]] = []
        self.paused = False

    @contextmanager
    def span(self, name: str, **attrs):
        """Record one span around the body; yields its mutable attrs dict."""
        if self.paused:
            yield attrs
            return
        sid = len(self.spans)
        rec = {
            "id": sid,
            "parent": self._open[-1] if self._open else None,
            "name": name,
            "start": time.perf_counter(),
            "end": None,
            "attrs": attrs,
        }
        self.spans.append(rec)
        self._open.append(sid)
        try:
            yield attrs
        finally:
            rec["end"] = time.perf_counter()
            self._open.pop()

    @contextmanager
    def pause(self):
        """Record nothing inside the body (used around the correctness oracles)."""
        before, self.paused = self.paused, True
        try:
            yield
        finally:
            self.paused = before

    def wrap(self, module, attr: str, name: str | None = None, describe=None) -> None:
        """Replace ``module.attr`` with a spanning wrapper.

        ``describe(args, kwargs, result)`` returns attributes for the span
        (shapes, byte counts); it runs after the call, inside the span.
        """
        original = getattr(module, attr)
        span_name = name or f"{module.__name__.rsplit('.', 1)[-1]}.{attr}"

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            with self.span(span_name) as attrs:
                result = original(*args, **kwargs)
                if describe is not None and not self.paused:
                    attrs.update(describe(args, kwargs, result))
                return result

        self._patched.append((module, attr, original))
        setattr(module, attr, wrapper)

    def restore(self) -> None:
        while self._patched:
            module, attr, original = self._patched.pop()
            setattr(module, attr, original)

    def write(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump({"trace_id": self.trace_id, "spans": self.spans}, fh)


def duration(span: dict) -> float:
    return span["end"] - span["start"]


def self_times(spans: list[dict]) -> dict[int, float]:
    """Span id -> its duration minus the part of it that its children cover."""
    children: dict[int, list[dict]] = {}
    for s in spans:
        if s["parent"] is not None:
            children.setdefault(s["parent"], []).append(s)
    out = {}
    for s in spans:
        covered = 0.0
        cursor = s["start"]
        for c in sorted(children.get(s["id"], ()), key=lambda c: c["start"]):
            lo, hi = max(c["start"], cursor), min(c["end"], s["end"])
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out[s["id"]] = duration(s) - covered
    return out


def by_name(spans: list[dict], name: str) -> list[dict]:
    return [s for s in spans if s["name"] == name]
