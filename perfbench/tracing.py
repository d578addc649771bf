"""Outside-in tracing of the library's layers.

The tracer replaces chosen functions by wrappers for the length of one
traced pass and restores the originals afterwards; the library itself is
not modified.  A function is replaced wherever it is bound: a name the
solver imported with `from .poly import resultant` is a separate binding
from `poly.resultant`, so every loaded module (and the owning class, for
methods and their aliases such as `__rmul__ = __mul__`) is searched for
the original object.

Span wrappers record (name, start, end, parent, op) in memory.  Counter
wrappers only add up calls and time: they are used for the cyclotomic
arithmetic, which is called hundreds of thousands of times per pass.
"""

from __future__ import annotations

import sys
import time
import types
from functools import wraps

# (module, attribute path) of every function recorded as a span.
SPAN_TARGETS = (
    ("solver", "hypersurface_cosets"),
    ("solver", "variety_cosets"),
    ("solver", "binomial_cosets"),
    ("solver", "reduce_rank_deficient"),
    ("solver", "rescale_to_full_lattice"),
    ("solver", "minimal_level_normalize"),
    ("solver", "auxiliary_polynomials"),
    ("poly", "resultant"),
    ("poly", "multivariate_gcd"),
    ("poly", "cyclotomic_roots"),
    ("poly", "squarefree_part"),
    ("cosets", "maximal_filter"),
    ("cosets", "solve_exponent_congruences"),
    ("cosets", "TorsionCoset.lies_on"),
    ("cosets", "TorsionCoset.contains_point"),
    ("lattices", "hermite_normal_form"),
    ("lattices", "smith_normal_form"),
    ("lattices", "extend_to_basis"),
    ("oracle", "brute_force_points"),
    ("oracle", "cross_check"),
    ("cli", "parse_system"),
    ("cli", "report_to_json"),
    ("cli", "run"),
)

# Functions recorded as aggregate call count and time only.
COUNTER_TARGETS = (
    ("arith", "CyclotomicNumber.__mul__"),
    ("arith", "CyclotomicNumber.inverse"),
    ("arith", "CyclotomicNumber.minimal_level"),
)

# Public solve entries: their SolveReport's exact SolveStats are kept.
SOLVE_ENTRIES = ("solver.hypersurface_cosets", "solver.variety_cosets")
STATS_SUMMED = ("resultants", "subsolves", "splits")
STATS_MAXED = ("max_depth", "max_resultant_degree")


def _resolve(module: str, path: str):
    # (owner, original) for a dotted path below a library module
    owner = sys.modules[f"torsioncosets.{module}"]
    *outer, attr = path.split(".")
    for name in outer:
        owner = getattr(owner, name)
    return owner, owner.__dict__[attr]


def patch_everywhere(owner, original, replacement):
    """Bind `replacement` wherever `original` is bound: in `owner` (a
    module or class) and in every loaded module.  Returns the records
    that `unpatch` needs to restore the originals."""
    records = []
    holders = [owner] + [m for m in list(sys.modules.values())
                         if isinstance(m, types.ModuleType) and m is not owner]
    for holder in holders:
        namespace = getattr(holder, "__dict__", None)
        if namespace is None:
            continue
        for attr, value in list(namespace.items()):
            if value is original:
                setattr(holder, attr, replacement)
                records.append((holder, attr, original))
    return records


def unpatch(records):
    for holder, attr, original in reversed(records):
        setattr(holder, attr, original)


class Tracer:
    """Spans and counters of one traced pass.  `op` is set by the caller
    to the index of the operation running."""

    def __init__(self):
        self.spans: list[list] = []
        self.counters: dict[str, list] = {}
        self.solve_stats: list[dict] = []
        self.op = None
        self._stack: list[int] = []
        self._records: list = []

    def __enter__(self):
        try:
            for targets, wrap in ((SPAN_TARGETS, self._span),
                                  (COUNTER_TARGETS, self._counter)):
                for module, path in targets:
                    owner, original = _resolve(module, path)
                    wrapper = wrap(f"{module}.{path}", original)
                    self._records += patch_everywhere(owner, original,
                                                      wrapper)
        except BaseException:
            self.__exit__()
            raise
        return self

    def __exit__(self, *exc):
        unpatch(self._records)
        self._records = []

    def _span(self, name, fn):
        spans = self.spans
        stack = self._stack
        keep_stats = name in SOLVE_ENTRIES
        clock = time.perf_counter

        @wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(spans)
            record = [name, clock(), None, stack[-1] if stack else None,
                      self.op]
            spans.append(record)
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = clock()
                stack.pop()
            if keep_stats:
                self.solve_stats.append(result.stats.as_dict())
            return result
        return wrapper

    def _counter(self, name, fn):
        totals = self.counters.setdefault(name, [0, 0.0])
        clock = time.perf_counter

        @wraps(fn)
        def wrapper(*args, **kwargs):
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                totals[1] += clock() - start
                totals[0] += 1
        return wrapper

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer metrics: `<name>.calls`, `.incl_s`, `.self_s` of
        every span target, `.calls` and `.incl_s` of every counter
        target, and the summed (or maximal) SolveStats counts."""
        out = {}
        table = aggregate(self.spans)
        for module, path in SPAN_TARGETS:
            name = f"{module}.{path}"
            calls, incl, self_time = table.get(name, (0, 0.0, 0.0))
            out[f"{name}.calls"] = calls
            out[f"{name}.incl_s"] = incl
            out[f"{name}.self_s"] = self_time
        for module, path in COUNTER_TARGETS:
            name = f"{module}.{path}"
            calls, seconds = self.counters.get(name, (0, 0.0))
            out[f"{name}.calls"] = calls
            out[f"{name}.incl_s"] = seconds
        for key in STATS_SUMMED:
            out[f"solver.stats.{key}"] = sum(s[key] for s in self.solve_stats)
        for key in STATS_MAXED:
            out[f"solver.stats.{key}"] = max(
                (s[key] for s in self.solve_stats), default=0)
        return out

    def root_self_s(self) -> float:
        """Self time of the spans that have no parent: time spent in the
        outermost calls that no wrapped layer accounts for."""
        selfs = self_times(self.spans)
        return sum(t for t, span in zip(selfs, self.spans) if span[3] is None)


def self_times(spans) -> list[float]:
    """Duration of each span minus the part of its interval that its
    child spans cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for name, start, end, parent, op in spans:
        if parent is not None:
            children.setdefault(parent, []).append((start, end))
    out = []
    for index, (name, start, end, parent, op) in enumerate(spans):
        covered = 0.0
        reach = start
        for c_start, c_end in sorted(children.get(index, ())):
            c_start = max(c_start, reach)
            c_end = min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                reach = c_end
        out.append(end - start - covered)
    return out


def aggregate(spans) -> dict[str, tuple[int, float, float]]:
    """name -> (calls, inclusive seconds, self seconds).  Inclusive time
    counts only spans with no ancestor of the same name, so recursion is
    not counted twice; self time sums over every span."""
    selfs = self_times(spans)
    above: list[frozenset] = []
    table: dict[str, list] = {}
    for (name, start, end, parent, op), self_time in zip(spans, selfs):
        if parent is None:
            names_above = frozenset()
        else:
            names_above = above[parent] | {spans[parent][0]}
        above.append(names_above)
        row = table.setdefault(name, [0, 0.0, 0.0])
        row[0] += 1
        if name not in names_above:
            row[1] += end - start
        row[2] += self_time
    return {name: tuple(row) for name, row in table.items()}
