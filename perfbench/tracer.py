"""Spans and counts recorded from outside the package.

The tracer replaces public functions at the module attributes through
which their callers look them up (``bcopt.driver.residual``,
``bcopt.repset.non_profitable_solve``, ...), records one span per call
and restores every attribute when it is closed.  Nothing under ``src/``
changes.  ``Matroid.independent_mask`` and ``BCInstance.__init__`` are
the hottest calls, so they get counts only, no span.

A span is ``(name, start_ns, end_ns, parent, op)``; ``parent`` is the
index of the enclosing span or -1.  Spans stay in memory until the run
writes them out.
"""

from __future__ import annotations

import gzip
import sys
import time
import weakref
from collections import Counter
from typing import Any, Callable

# (module, attribute, span name).  Every place a caller looks the
# function up is listed, the package namespace that the benchmark's own
# ops use included, so no call escapes the trace.
SPANS = (
    ("bcopt.driver", "eptas_run", "driver.eptas_run"),
    ("bcopt.cli", "eptas_run", "driver.eptas_run"),
    ("bcopt.driver", "repset", "repset.repset"),
    ("bcopt.repset", "profit_classes", "model.profit_classes"),
    ("bcopt.exchange", "profit_classes", "model.profit_classes"),
    ("bcopt.repset", "exset_matching", "exchange.exset"),
    ("bcopt.repset", "exset_matroid_intersection", "exchange.exset"),
    ("bcopt.driver", "residual", "model.residual"),
    ("bcopt", "non_profitable_solve", "lagrangian.nps"),
    ("bcopt.driver", "non_profitable_solve", "lagrangian.nps"),
    ("bcopt.repset", "non_profitable_solve", "lagrangian.nps"),
    ("bcopt.cli", "non_profitable_solve", "lagrangian.nps"),
    ("bcopt.lagrangian", "lagrangian_search", "lagrangian.search"),
    ("bcopt.lagrangian", "relaxation_solve", "lagrangian.relax"),
    ("bcopt.lagrangian", "patch_matching", "lagrangian.patch"),
    ("bcopt.lagrangian", "patch_intersection", "lagrangian.patch"),
    ("bcopt.lagrangian", "max_weight_matching", "oracles.matching"),
    ("bcopt.lagrangian", "mi_extreme_chain", "oracles.mi_chain"),
    ("bcopt.oracles", "mi_extreme_chain", "oracles.mi_chain"),
    ("bcopt.cli", "load_instance", "serialize.load"),
    ("bcopt.cli", "canonical_json", "serialize.emit"),
)

# Calls that return a per-instance cached result: a call counts as a
# cache hit when it returns the very object an earlier call on the same
# instance returned.
CACHED = (
    ("bcopt.repset", "two_approx", "repset.two_approx"),
    ("bcopt.lagrangian", "brute_force_opt", "oracles.brute_force"),
    ("bcopt.repset", "brute_force_opt", "oracles.brute_force"),
    ("bcopt.cli", "brute_force_opt", "oracles.brute_force"),
)

# Generators: each resumption is a span, each yielded item is counted.
GENERATORS = (
    ("bcopt.driver", "iter_solutions", "oracles.iter_solutions", "driver.prefixes"),
    ("bcopt.repset", "iter_solutions", "oracles.iter_solutions",
     "repset.two_approx.candidates"),
)

# Plain call counters.
COUNTED = (("bcopt.exchange", "min_cost_basis", "exchange.basis_calls"),)


class Tracer:
    """Installs the wrappers on ``open()`` and removes them on ``close()``."""

    def __init__(self) -> None:
        self.spans: list[tuple[str, int, int, int, int]] = []
        self.counts: Counter[str] = Counter()
        self.op = -1
        self._stack: list[int] = []
        self._patched: list[tuple[Any, str, Any]] = []
        self.missing: list[str] = []
        # (name, id(instance)) -> (weak reference to the instance, result)
        self._seen: dict[tuple[str, int], tuple[weakref.ref, Any]] = {}

    # -- span bookkeeping ------------------------------------------------
    def _enter(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append((name, time.perf_counter_ns(), 0, parent, self.op))
        self._stack.append(idx)
        return idx

    def _exit(self, idx: int) -> None:
        self._stack.pop()
        name, start, _, parent, op = self.spans[idx]
        self.spans[idx] = (name, start, time.perf_counter_ns(), parent, op)

    def begin_op(self, op: int) -> None:
        """Open the root span of one benchmark op; spans below share its id."""
        self.op = op
        self._root = self._enter("op")

    def end_op(self) -> None:
        self._exit(self._root)

    # -- wrappers ----------------------------------------------------------
    def _span(self, name: str, fn: Callable) -> Callable:
        def wrapper(*args, **kwargs):
            idx = self._enter(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._exit(idx)

        return wrapper

    def _cached(self, name: str, fn: Callable) -> Callable:
        def wrapper(inst, *args, **kwargs):
            idx = self._enter(name)
            try:
                result = fn(inst, *args, **kwargs)
            finally:
                self._exit(idx)
            key = (name, id(inst))
            prior = self._seen.get(key)
            if prior is not None and prior[0]() is inst and prior[1] is result:
                self.counts[name + ".cache_hits"] += 1
            self._seen[key] = (weakref.ref(inst), result)
            return result

        return wrapper

    def _generator(self, name: str, counter: str, fn: Callable) -> Callable:
        def wrapper(*args, **kwargs):
            inner = fn(*args, **kwargs)
            while True:
                idx = self._enter(name)
                try:
                    item = next(inner)
                except StopIteration:
                    return
                finally:
                    self._exit(idx)
                self.counts[counter] += 1
                yield item

        return wrapper

    def _counted(self, counter: str, fn: Callable) -> Callable:
        def wrapper(*args, **kwargs):
            self.counts[counter] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _install(self, owner: Any, attr: str, make: Callable[[Any], Any]) -> None:
        """Replace owner.attr by make(old).  A site the package no longer
        has is listed in ``missing`` and left out, so a later version
        still runs; its metrics then read 0."""
        old = getattr(owner, "__dict__", {}).get(attr)
        if old is None:
            self.missing.append(f"{getattr(owner, '__name__', owner)}.{attr}")
            return
        self._patched.append((owner, attr, old))
        setattr(owner, attr, make(old))

    def open(self) -> None:
        mods = sys.modules
        for mod, attr, name in SPANS:
            self._install(mods.get(mod), attr, lambda fn, name=name: self._span(name, fn))
        for mod, attr, name in CACHED:
            self._install(mods.get(mod), attr,
                          lambda fn, name=name: self._cached(name, fn))
        for mod, attr, name, counter in GENERATORS:
            self._install(mods.get(mod), attr, lambda fn, name=name, counter=counter:
                          self._generator(name, counter, fn))
        for mod, attr, counter in COUNTED:
            self._install(mods.get(mod), attr,
                          lambda fn, counter=counter: self._counted(counter, fn))
        counts = self.counts

        def counting_indep(indep):
            def independent_mask(m, mask):
                counts["matroids.indep.calls"] += 1
                # the memo is the base class's own dict; a missing one
                # reads as no hits
                if mask in getattr(m, "_memo", ()):
                    counts["matroids.indep.memo_hits"] += 1
                return indep(m, mask)

            return independent_mask

        self._install(getattr(mods.get("bcopt.matroids"), "Matroid", None),
                      "independent_mask", counting_indep)
        self._install(getattr(mods.get("bcopt.model"), "BCInstance", None), "__init__",
                      lambda fn: self._counted("model.instance_builds", fn))

    def close(self) -> None:
        while self._patched:
            owner, attr, old = self._patched.pop()
            setattr(owner, attr, old)

    # -- analysis ------------------------------------------------------------
    def totals(self) -> tuple[Counter[str], Counter[str], Counter[str]]:
        """Per span name: inclusive seconds of the outermost spans, self
        seconds (duration minus direct children) and call count."""
        inclusive: Counter[str] = Counter()
        self_s: Counter[str] = Counter()
        calls: Counter[str] = Counter()
        child_ns = [0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        for i, (name, start, end, parent, _) in enumerate(self.spans):
            dur = end - start
            calls[name] += 1
            self_s[name] += (dur - child_ns[i]) / 1e9
            if not self._nested_in_same(i):
                inclusive[name] += dur / 1e9
        return inclusive, self_s, calls

    def _nested_in_same(self, i: int) -> bool:
        name = self.spans[i][0]
        parent = self.spans[i][3]
        while parent >= 0:
            if self.spans[parent][0] == name:
                return True
            parent = self.spans[parent][3]
        return False

    def child_names(self) -> list[set[str]]:
        """Names of the direct children of every span, by span index."""
        out: list[set[str]] = [set() for _ in self.spans]
        for name, _, _, parent, _ in self.spans:
            if parent >= 0:
                out[parent].add(name)
        return out

    def write(self, path: str) -> None:
        """Write every span as one tab-separated line, gzip-compressed."""
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write("name\tstart_ns\tend_ns\tparent\top\n")
            for name, start, end, parent, op in self.spans:
                fh.write(f"{name}\t{start}\t{end}\t{parent}\t{op}\n")
