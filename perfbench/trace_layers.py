"""Spans and call counters around the package's layer boundaries.

The tracer replaces a function under every name the package's modules
look it up by (``smoothchains.orders.c23`` as well as
``smoothchains.admissible.c23``), so calls the package makes internally
are recorded too and no package file is edited.  A timed call records a
span: name, start, end, parent span and the element being checked.
Hot leaf functions only get call counters; a span each would mean
millions of spans.  Spans stay in memory until ``write_spans``.

A name that no longer exists in the package is reported as absent.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict

# (layer name, module, attribute, how).  "span" times each call, "drain"
# also drains the returned iterator inside the span (both package
# callers consume it whole with ``list``), "count" only counts calls.
LAYERS = (
    ("permutations.all_windows", "smoothchains.permutations", "all_windows", "drain"),
    ("permutations.length", "smoothchains.permutations", "length", "count"),
    ("admissible.is_smooth_pattern", "smoothchains.admissible", "is_smooth_pattern", "span"),
    ("admissible.c23", "smoothchains.admissible", "c23", "span"),
    ("admissible.c_t", "smoothchains.admissible", "c_t", "count"),
    ("bruhat.leq", "smoothchains.bruhat", "leq", "count"),
    ("bruhat.is_cover", "smoothchains.bruhat", "is_cover", "count"),
    ("orders.construct_compatible_order", "smoothchains.orders", "construct_compatible_order", "span"),
    ("orders.verify_order", "smoothchains.orders", "verify_order", "span"),
    ("orders.is_compatible", "smoothchains.orders", "is_compatible", "span"),
    ("orders.elementary_neighbors", "smoothchains.orders", "elementary_neighbors", "count"),
    ("orders.graph_connected", "smoothchains.orders", "graph_connected", "span"),
    ("orders.enumerate_compatible_orders", "smoothchains.orders", "enumerate_compatible_orders", "span"),
    ("ordering_engine.constrained_orders", "smoothchains.ordering_engine", "constrained_orders", "drain"),
    ("type_d.weyl_group", "smoothchains.type_d", "weyl_group", "span"),
    ("type_d.is_smooth", "smoothchains.type_d", "WeylGroupD.is_smooth", "count"),
    ("type_d.check_element", "smoothchains.type_d", "check_element", "span"),
    ("type_d.c23_below", "smoothchains.type_d", "c23_below", "span"),
    ("type_d.admissibility_violation_d", "smoothchains.type_d", "admissibility_violation_d", "span"),
    ("type_d.enumerate_compatible_orders_d", "smoothchains.type_d", "enumerate_compatible_orders_d", "span"),
    ("type_d.product_of_root_order", "smoothchains.type_d", "product_of_root_order", "span"),
)

NO_PARENT = -1


class Tracer:
    """Records spans and counts while installed; one per traced pass."""

    def __init__(self):
        # spans[i] = (name, start_ns, end_ns, parent index, element id)
        self.spans: list = []
        self.counts: dict[str, int] = defaultdict(int)
        self.element: str | None = None
        self.absent: list[str] = []
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    # ------------------------------------------------------- wrappers

    def _counted(self, name, fn):
        counts = self.counts
        key = name + ".calls"

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return counted

    def _timed(self, name, fn, drain):
        spans, stack, counts = self.spans, self._stack, self.counts
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else NO_PARENT
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
                if drain:
                    result = list(result)
                    counts[name + ".items"] += len(result)
            except ValueError:
                counts[name + ".refused"] += 1
                raise
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, start, end, parent, self.element)
            return iter(result) if drain else result

        return timed

    # --------------------------------------------------- installation

    def install(self) -> None:
        """Wrap every layer function under every name bound to it."""
        modules = [
            m for key, m in list(sys.modules.items())
            if key == "smoothchains" or key.startswith("smoothchains.")
        ]
        for name, module_name, attr, how in LAYERS:
            module = sys.modules.get(module_name)
            owner_name, _, leaf = attr.rpartition(".")
            owner = getattr(module, owner_name, None) if owner_name else module
            original = getattr(owner, leaf, None)
            if original is None:
                self.absent.append(f"{module_name}.{attr}")
                continue
            if how == "count":
                wrapper = self._counted(name, original)
            else:
                wrapper = self._timed(name, original, how == "drain")
            if owner_name:  # a method: the class is the only binding
                self._patch(owner, leaf, wrapper)
                continue
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is original:
                        self._patch(m, key, wrapper)

    def _patch(self, obj, attr, wrapper) -> None:
        self._restore.append((obj, attr, getattr(obj, attr)))
        setattr(obj, attr, wrapper)

    def uninstall(self) -> None:
        for obj, attr, original in reversed(self._restore):
            setattr(obj, attr, original)
        self._restore.clear()

    # ------------------------------------------------------- results

    def summary(self) -> dict:
        """Per-layer self seconds and counts, plus span coverage of elements.

        Self time is a span's duration minus its child spans'.
        ``top_level_element_s`` sums the spans the driver opened
        directly while checking an element.
        """
        child_ns = [0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent != NO_PARENT:
                child_ns[parent] += end - start
        out: dict = dict(self.counts)
        top_ns = 0
        for idx, (name, start, end, parent, element) in enumerate(self.spans):
            out[name + ".s"] = out.get(name + ".s", 0.0) + (end - start - child_ns[idx]) / 1e9
            out[name + ".calls"] = out.get(name + ".calls", 0) + 1
            if parent == NO_PARENT and element is not None:
                top_ns += end - start
        out["top_level_element_s"] = top_ns / 1e9
        out["absent"] = list(self.absent)
        return out

    def write_spans(self, path: str) -> None:
        """One tab-separated line per span, in the order the spans opened."""
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("id\tparent\telement\tname\tstart_ns\tend_ns\n")
            for idx, (name, start, end, parent, element) in enumerate(self.spans):
                handle.write(f"{idx}\t{parent}\t{element or ''}\t{name}\t{start}\t{end}\n")
