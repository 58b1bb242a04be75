"""Span tracing of critforge from outside the package.

``Tracer.install`` replaces every public module-level function of the
layer modules with a timing wrapper, in every ``critforge`` namespace
that holds a reference to it, so calls between modules are seen too.
Spans are kept in flat arrays (name, start, end, parent, op) and
written out only when asked.  ``uninstall`` puts every original back.
"""

from __future__ import annotations

import gzip
import importlib
import inspect
from array import array
from collections import Counter
from time import perf_counter

LAYERS = (
    "graphcore",
    "exactlinalg",
    "arithstruct",
    "treedecomp",
    "mergestar",
    "enumeration",
    "construct",
    "chipfiring",
    "cli",
)

# Spans that recompute an answer the construction already has in hand.
VERIFY_SPANS = frozenset({
    "arithstruct.critical_group",
    "arithstruct.validate",
    "mergestar.starlike_critical_group",
})

# Constructions whose result is a tree built by the construct layer.
CONSTRUCTIONS = frozenset({
    "construct.realize_on_subdivision",
    "construct.broom_with_group",
    "construct.realize_group",
})


def _bits(m) -> int:
    return max((abs(x).bit_length() for row in m.rows for x in row), default=0)


def _smith_stats(args, result) -> dict:
    """Input size, and the largest entry of the input and of every matrix
    the decomposition hands back (a route without transforms has fewer).
    """
    m = args[0]
    nr, nc = m.shape
    mats = [m] + [getattr(result, k) for k in ("left", "d", "right") if hasattr(result, k)]
    return {"side": max(nr, nc), "cells": nr * nc, "bits": max(_bits(x) for x in mats)}


def _tail_stats(args, result) -> dict:
    return {"tail": len(result.tail_values)}


def _built_stats(args, result) -> dict:
    tree = result[0]
    given = args[0] if args and hasattr(args[0], "vertices") else None
    old = set(given.vertices) if given is not None else set()
    return {"made": sum(1 for v in tree.vertices if v not in old)}


def _enum_stats(args, result) -> dict:
    return {"structures": len(result)}


NOT_ADDITIVE = frozenset({
    "exactlinalg.max_side",
    "exactlinalg.max_entry_bits",
    "construct.max_tail",
    "construct.verify_share",
})

STAT_HOOKS = {
    "exactlinalg.smith_normal_form": _smith_stats,
    "construct.plan_broom": _tail_stats,
    "enumeration.enumerate_structures": _enum_stats,
    **{name: _built_stats for name in CONSTRUCTIONS},
}


class Tracer:
    """In-memory span recorder wrapping the critforge layer functions."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.name_of_span = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op_of_span = array("i")
        self.raised: set[int] = set()
        self.stats: dict[int, dict] = {}
        self.hook_s: dict[int, float] = {}
        self.op = -1
        self._stack = [-1]
        self._patched: list[tuple[object, str, object]] = []
        # One wrapper per function, kept across installs.
        self._wrappers: dict[int, object] = {}

    def _wrap(self, name: str, fn):
        nid = len(self.names)
        self.names.append(name)
        hook = STAT_HOOKS.get(name)
        stack = self._stack
        names, starts, ends = self.name_of_span, self.start, self.end
        parents, ops = self.parent, self.op_of_span

        def traced(*args, **kwargs):
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1])
            ops.append(self.op)
            ends.append(0.0)
            stack.append(idx)
            starts.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                ends[idx] = perf_counter()
                stack.pop()
                self.raised.add(idx)
                raise
            ends[idx] = perf_counter()
            stack.pop()
            if hook is not None:
                t0 = perf_counter()
                self.stats[idx] = hook(args, result)
                self.hook_s[idx] = perf_counter() - t0
            return result

        traced.__name__ = fn.__name__
        traced.__qualname__ = fn.__qualname__
        traced.__doc__ = fn.__doc__
        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        """Wrap the layer functions everywhere critforge refers to them."""
        if self._patched:
            raise RuntimeError("tracer already installed")
        modules = [importlib.import_module("critforge")] + [
            importlib.import_module(f"critforge.{layer}") for layer in LAYERS
        ]
        wrappers = self._wrappers
        for layer, mod in zip(LAYERS, modules[1:]):
            for attr, fn in vars(mod).items():
                if (attr.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != mod.__name__ or id(fn) in wrappers):
                    continue
                wrappers[id(fn)] = self._wrap(f"{layer}.{attr}", fn)
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None:
                    self._patched.append((mod, attr, value))
                    setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def write(self, path: str) -> None:
        """Write every span as a tab-separated line, gzip-compressed."""
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write("id\tname\tstart\tend\tparent\top\traised\n")
            for i in range(len(self.start)):
                fh.write(
                    f"{i}\t{self.names[self.name_of_span[i]]}\t{self.start[i]!r}\t"
                    f"{self.end[i]!r}\t{self.parent[i]}\t{self.op_of_span[i]}\t"
                    f"{int(i in self.raised)}\n"
                )

    def layer_metrics(self, passes: int = 1) -> dict[str, float]:
        """Per-layer self time and counts, per pass over ``passes`` passes.

        Maxima and the verify share are over all spans, not per pass.
        """
        n = len(self.start)
        names = [self.names[k] for k in self.name_of_span]
        dur = [self.end[i] - self.start[i] for i in range(n)]
        # A hook runs after its span closes but inside the parent span; its
        # time counts as a child of the parent, so no layer is charged.
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += dur[i] + self.hook_s.get(i, 0.0)
        layer_of = [name.split(".", 1)[0] for name in names]
        out: dict[str, float] = {f"{layer}.self_s": 0.0 for layer in LAYERS}
        calls = {layer: 0 for layer in LAYERS}
        for i in range(n):
            out[f"{layer_of[i]}.self_s"] += dur[i] - child[i]
            calls[layer_of[i]] += 1

        count = Counter(names)
        smith = [s for i, s in self.stats.items()
                 if names[i] == "exactlinalg.smith_normal_form"]
        out["exactlinalg.smith_calls"] = len(smith)
        out["exactlinalg.max_side"] = max((s["side"] for s in smith), default=0)
        out["exactlinalg.cells"] = sum(s["cells"] for s in smith)
        out["exactlinalg.max_entry_bits"] = max((s["bits"] for s in smith), default=0)
        out["arithstruct.validate_calls"] = count["arithstruct.validate"]
        out["arithstruct.group_calls"] = count["arithstruct.critical_group"]
        out["enumeration.structures"] = sum(
            s["structures"] for i, s in self.stats.items()
            if names[i] == "enumeration.enumerate_structures"
        )
        out["mergestar.starlike_calls"] = count["mergestar.starlike_critical_group"]
        out["mergestar.merge_calls"] = count["mergestar.merge_structures"]

        # Outermost construct spans carry the construction's inclusive time;
        # the topmost verification span inside each is its verify time.
        def ancestors(i: int):
            p = self.parent[i]
            while p >= 0:
                yield p
                p = self.parent[p]

        outer = [i for i in range(n) if layer_of[i] == "construct"
                 and not any(layer_of[a] == "construct" for a in ancestors(i))]
        made = 0
        for i in outer:
            if names[i] in CONSTRUCTIONS and i in self.stats:
                made += self.stats[i]["made"]
        verify = 0.0
        for i in range(n):
            if names[i] not in VERIFY_SPANS:
                continue
            up = list(ancestors(i))
            if any(names[a] in VERIFY_SPANS for a in up):
                continue
            if any(layer_of[a] == "construct" for a in up):
                verify += dur[i]
        construct_total = sum(dur[i] for i in outer)
        out["construct.vertices_made"] = made
        out["construct.max_tail"] = max(
            (s["tail"] for i, s in self.stats.items()
             if names[i] == "construct.plan_broom"), default=0)
        out["construct.verify_share"] = (
            100.0 * verify / construct_total if construct_total else 0.0
        )
        out["treedecomp.decomposition_calls"] = count["treedecomp.starlike_decomposition"]
        out["graphcore.calls"] = calls["graphcore"]
        out["chipfiring.ops"] = calls["chipfiring"]
        out["chipfiring.failed"] = sum(
            1 for i in self.raised if layer_of[i] == "chipfiring"
        )
        return {k: v if k in NOT_ADDITIVE else v / passes for k, v in out.items()}
