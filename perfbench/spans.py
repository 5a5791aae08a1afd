"""In-memory span recorder for traced benchmark runs.

A span is one timed call: its name, start and end (``time.perf_counter``
seconds), the id of the enclosing span and the op id it belongs to.  Span
names are ``<layer>.<call>``; the layer is the library module called
(``fock``, ``lengthop``, ``spectral``, ``doubling``, ``starprod``) or
``bench`` for the benchmark's own grouping spans.  Spans stay in memory
and are written as JSON lines once the run has ended.
"""
from __future__ import annotations

import json
import time
from collections import defaultdict
from pathlib import Path


class _Span:
    __slots__ = ("tracer", "record")

    def __init__(self, tracer: "Tracer", record: dict) -> None:
        self.tracer = tracer
        self.record = record

    def __enter__(self) -> "_Span":
        tracer = self.tracer
        self.record["id"] = len(tracer.spans)
        self.record["parent"] = tracer._open[-1] if tracer._open else None
        tracer.spans.append(self.record)
        tracer._open.append(self.record["id"])
        self.record["start"] = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        self.record["end"] = time.perf_counter()
        self.tracer._open.pop()


class _NoSpan:
    def __enter__(self) -> "_NoSpan":
        return self

    def __exit__(self, *exc) -> None:
        pass


_NO_SPAN = _NoSpan()


class Tracer:
    """Records nested spans when enabled; hands out a no-op span otherwise."""

    def __init__(self, enabled: bool) -> None:
        self.enabled = enabled
        self.tags: dict = {}  # attributes stamped on every span opened from now on
        self.spans: list[dict] = []
        self._open: list[int] = []

    def span(self, name: str, op: int | None = None, **attrs):
        if not self.enabled:
            return _NO_SPAN
        return _Span(self, {"name": name, "op": op, **self.tags, **attrs})

    def durations(self, name: str, **match) -> list[float]:
        """Durations of the spans called ``name`` whose attributes match."""
        return [
            s["end"] - s["start"]
            for s in self.spans
            if s["name"] == name and all(s.get(k) == v for k, v in match.items())
        ]

    def self_times(self) -> dict[str, float]:
        """Self time per layer, summed over every span but the ``bench`` ones.

        A span's self time is its duration minus the durations of its
        direct children; children never overlap, as one thread makes
        every call.
        """
        child_time: dict[int, float] = defaultdict(float)
        for s in self.spans:
            if s["parent"] is not None:
                child_time[s["parent"]] += s["end"] - s["start"]
        out: dict[str, float] = defaultdict(float)
        for s in self.spans:
            layer = s["name"].split(".", 1)[0]
            if layer != "bench":
                out[layer] += s["end"] - s["start"] - child_time[s["id"]]
        return dict(out)

    def write_jsonl(self, path: Path, header: dict) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as fh:
            fh.write(json.dumps(header) + "\n")
            for s in self.spans:
                fh.write(json.dumps(s) + "\n")
