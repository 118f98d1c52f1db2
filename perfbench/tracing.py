"""Spans around calls into polarmig's public layer functions.

Nothing in ``src/`` is edited: while a ``Tracer`` is installed, every module
of the package that holds one of the layer functions below (the defining
module, the package namespace and modules that imported the name, such as
``polarmig.pipeline``) has that name rebound to a timing wrapper, and the
dataset ``write``/``read`` methods are rebound on their classes.  Spans stay
in memory until ``write_jsonl`` is called at the end of a run.
"""

from __future__ import annotations

import json
import os
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np
from polarmig import ArrayDataSet, ImageField
from polarmig.dataset import MAGIC


@dataclass
class Span:
    name: str
    start: float
    end: float
    span_id: int
    parent: int | None
    run_id: str
    counts: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


def _triples(ds, points) -> dict:
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    n_rec = ds.geom.n1 * ds.geom.n2
    return {
        "points": pts.shape[0],
        "receivers": n_rec,
        "frequencies": ds.band.count,
        "triples": pts.shape[0] * n_rec * ds.band.count,
    }


def _grid_counts(geom, band) -> dict:
    n_rec = geom.n1 * geom.n2
    return {"receivers": n_rec, "frequencies": band.count, "cells": n_rec * band.count}


def _file_counts(path) -> dict:
    with open(path, "rb") as fh:
        head = fh.read(len(MAGIC) + 8)
    return {
        "bytes": os.path.getsize(path),
        "header_bytes": int.from_bytes(head[len(MAGIC):], "little"),
    }


def _migrate_name(args, kwargs, base):
    if base == "migrate.image":
        return base
    mode = kwargs.get("mode", args[2] if len(args) > 2 else "exact")
    return f"migrate.recover_{mode}"


# (owner, attribute, span name, counts before the call, counts from the result)
_FUNCTIONS = [
    ("polarmig.config", "parse_config", "config.parse_config", None, None),
    ("polarmig.forward", "coherency_synthesize", "forward.coherency_synthesize",
     lambda a, k: _grid_counts(a[0].geom, a[1]), None),
    ("polarmig.forward", "response_synthesize", "forward.response_synthesize",
     lambda a, k: _grid_counts(a[0].geom, a[1]), None),
    ("polarmig.stochastic", "stochastic_coherency_dataset", "stochastic.coherency_dataset",
     lambda a, k: {"bins": k.get("band_count", a[2] if len(a) > 2 else 0)}, None),
    ("polarmig.preprocess", "preprocess", "preprocess",
     lambda a, k: _grid_counts(a[0].geom, a[0].band),
     lambda r: {"regularized": r[1].regularized_count}),
    ("polarmig.migrate", "kirchhoff_band", "migrate.image",
     lambda a, k: _triples(a[0], a[1]), None),
    ("polarmig.migrate", "recover_alpha_field", "migrate.recover",
     lambda a, k: _triples(a[0], a[1]), None),
    ("polarmig.glyphs", "emit_glyphs", "glyphs.emit_glyphs", None, None),
    ("polarmig.pipeline", "run_pipeline", "pipeline", None, None),
]

_MIGRATE = {"kirchhoff_band", "recover_alpha_field"}


class Tracer:
    """In-memory span recorder that patches layer entry points while installed."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._next_id = 0
        # set to a list to record migrate calls as (fn, args, kwargs, seconds)
        self.recorded_calls: list | None = None

    @contextmanager
    def span(self, name: str, **counts):
        span_id = self._next_id
        self._next_id += 1
        parent = self._stack[-1] if self._stack else None
        rec = Span(name, time.perf_counter(), 0.0, span_id, parent, self.run_id, dict(counts))
        self._stack.append(span_id)
        try:
            yield rec
        finally:
            self._stack.pop()
            rec.end = time.perf_counter()
            self.spans.append(rec)

    def _wrap(self, fn, name, before, after, record=False):
        def wrapper(*args, **kwargs):
            label = _migrate_name(args, kwargs, name) if record else name
            counts = before(args, kwargs) if before else {}
            with self.span(label, **counts) as rec:
                result = fn(*args, **kwargs)
            if after:
                rec.counts.update(after(result))
            if record and self.recorded_calls is not None:
                self.recorded_calls.append((fn, args, kwargs, rec.duration))
            return result

        return wrapper

    def _wrap_io(self, fn, name, path_index):
        def wrapper(*args, **kwargs):
            path = args[path_index]
            with self.span(name) as rec:
                result = fn(*args, **kwargs)
            rec.counts.update(_file_counts(path))
            return result

        return wrapper

    @contextmanager
    def installed(self):
        """Rebind every layer entry point to its timing wrapper, then restore."""
        undo = []
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "polarmig" or n.startswith("polarmig."))]
        for owner, attr, name, before, after in _FUNCTIONS:
            orig = getattr(sys.modules[owner], attr)
            wrapper = self._wrap(orig, name, before, after, record=attr in _MIGRATE)
            for mod in modules:
                if getattr(mod, attr, None) is orig:
                    undo.append((mod, attr, orig))
                    setattr(mod, attr, wrapper)
        for cls in (ArrayDataSet, ImageField):
            write = cls.__dict__["write"]
            read = cls.__dict__["read"]
            undo += [(cls, "write", write), (cls, "read", read)]
            cls.write = self._wrap_io(write, "dataset.write", 1)
            cls.read = staticmethod(self._wrap_io(read.__func__, "dataset.read", 0))
        try:
            yield self
        finally:
            for owner, attr, orig in reversed(undo):
                setattr(owner, attr, orig)

    def self_times(self) -> dict[int, float]:
        """Span id -> duration minus the part of it its child spans cover."""
        children: dict[int, list[Span]] = {}
        for s in self.spans:
            if s.parent is not None:
                children.setdefault(s.parent, []).append(s)
        out = {}
        for s in self.spans:
            covered, cursor = 0.0, s.start
            for c in sorted(children.get(s.span_id, []), key=lambda c: c.start):
                lo, hi = max(c.start, cursor), min(c.end, s.end)
                if hi > lo:
                    covered += hi - lo
                    cursor = hi
            out[s.span_id] = s.duration - covered
        return out

    def roots(self, name: str) -> list[Span]:
        return sorted((s for s in self.spans if s.parent is None and s.name == name),
                      key=lambda s: s.start)

    def subtree(self, root: Span) -> list[Span]:
        """Spans nested under ``root`` (not including it)."""
        return [s for s in self.spans if root.start <= s.start and s.end <= root.end
                and s.span_id != root.span_id]

    def write_jsonl(self, path, header: dict) -> None:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"header": header}, sort_keys=True) + "\n")
            for s in sorted(self.spans, key=lambda s: s.start):
                fh.write(json.dumps({
                    "name": s.name, "start": s.start, "end": s.end, "id": s.span_id,
                    "parent": s.parent, "run_id": s.run_id, "counts": s.counts,
                }, sort_keys=True) + "\n")
