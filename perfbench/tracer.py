"""Span tracer that wraps polyseq's public functions from outside.

The program is not edited: each traced function is replaced, at every
``polyseq`` module attribute that binds it, by a wrapper that records a
span.  Spans live in memory as ``[name, start, end, parent, item]`` lists
and are written out once, when the run ends.
"""

from __future__ import annotations

import functools
import gzip
import json
import sys
import time
from collections import defaultdict

# (module, attribute) of every traced function; "graphs.sssr" is the method
# MolGraph.sssr.  The span name is "<module>.<attribute>".
TRACED = (
    ("psmiles", "parse"), ("psmiles", "canonical_form"), ("psmiles", "write"),
    ("psmiles", "random_augment"),
    ("graphs", "star_link"), ("graphs", "detect_backbone"), ("graphs", "sssr"),
    ("graphs", "auto_repeat_for_lga"), ("graphs", "featurize"),
    ("context", "build_context"),
    ("nets", "local_attention_layer"), ("nets", "gin_layer"),
    ("nets", "cross_modal_fusion"), ("nets", "forward_polymer"),
    ("wl", "wl_refine"), ("wl", "canonical_key"), ("wl", "primitive_reduce"),
    ("wl", "isomorphic"), ("wl", "translation_variants"),
    ("verify", "lga_deviation"), ("verify", "gin_deviation"),
    ("verify", "twin_suite"),
)
LAYERS = tuple(f"{mod}.{attr}" for mod, attr in TRACED)


class Tracer:
    """In-memory span recorder with per-function counters."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.item: int = -1      # id of the running item, -1 outside
        self.n_items = 0
        self.errors: dict[str, int] = defaultdict(int)
        # name -> list of observed values (one per call)
        self.values: dict[str, list[float]] = defaultdict(list)
        self._restore: list[tuple[object, str, object]] = []

    def span(self, name: str, fn, *args, **kwargs):
        """Run fn(*args, **kwargs) inside a span called name."""
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        rec = [name, time.perf_counter(), 0.0, parent, self.item]
        self.spans.append(rec)
        self._stack.append(idx)
        try:
            return fn(*args, **kwargs)
        except BaseException:
            self.errors[name] += 1
            raise
        finally:
            rec[2] = time.perf_counter()
            self._stack.pop()

    def run_item(self, fn):
        """fn() as the next item, in a span called "item"."""
        self.item = self.n_items
        self.n_items += 1
        try:
            return self.span("item", fn)
        finally:
            self.item = -1

    def _wrap(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = self.span(name, fn, *args, **kwargs)
            self._observe(name, args, result)
            return result
        return wrapper

    def install(self) -> None:
        """Wrap every traced function wherever a polyseq module binds it."""
        from polyseq.graphs import MolGraph

        mods = [m for n, m in sorted(sys.modules.items())
                if m is not None and (n == "polyseq"
                                      or n.startswith("polyseq."))]
        for mod, attr in TRACED:
            name = f"{mod}.{attr}"
            if name == "graphs.sssr":
                self._set(MolGraph, "sssr", self._wrap(name, MolGraph.sssr))
                continue
            orig = getattr(sys.modules[f"polyseq.{mod}"], attr)
            wrapper = self._wrap(name, orig)
            for m in mods:
                for key, value in list(vars(m).items()):
                    if value is orig:
                        self._set(m, key, wrapper)

    def uninstall(self) -> None:
        for obj, key, value in reversed(self._restore):
            setattr(obj, key, value)
        self._restore.clear()

    def _set(self, obj, key: str, value) -> None:
        self._restore.append((obj, key, getattr(obj, key)))
        setattr(obj, key, value)

    def _observe(self, name: str, args: tuple, result) -> None:
        """Counters taken at the layer boundary, outside the span's time."""
        v = self.values
        if name == "graphs.star_link":
            v["graphs.linked_atoms"].append(result.monomer.n)
        elif name == "graphs.auto_repeat_for_lga":
            v["graphs.auto_repeat_k"].append(result[1])
        elif name == "context.build_context":
            v["context.atoms"].append(result.n)
            v["context.pairs"].append(result.n * result.n)
        elif name == "wl.wl_refine":
            v["wl.wl_refine.rounds"].append(result.rounds)
        elif name == "wl.isomorphic":
            v["wl.isomorphic.match"].append(1.0 if result[0] else 0.0)
        elif name == "wl.primitive_reduce":
            v["wl.primitive_reduce.hit"].append(
                0.0 if result is args[0] else 1.0)
        elif name == "wl.translation_variants":
            v["wl.translation_variants.count"].append(len(result))

    def self_times(self) -> dict[str, float]:
        """Total self time per span name, in seconds.

        Self time is a span's duration minus the durations of its direct
        children; spans nest strictly, so children never overlap.
        """
        child = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        by_name: dict[str, float] = defaultdict(float)
        for i, (name, start, end, _, _) in enumerate(self.spans):
            by_name[name] += end - start - child[i]
        return by_name

    def dump(self, path) -> None:
        with gzip.open(path, "wt") as fh:
            for name, start, end, parent, item in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "item": item}) + "\n")
