"""Spans around calls into pelliptic's layers, recorded from outside.

Each wrapped name is replaced where it is looked up (for example
``pelliptic.prange.pooled_margin``), so the program itself is unchanged and
removing the wrappers restores it. A span holds its name, start, end, parent
span and an optional note (a count taken from the arguments or the result).
Spans stay in memory until the run ends.
"""

from __future__ import annotations

import gzip
import itertools
import json
import threading
import time
from collections import defaultdict


class Tracer:
    """Collects spans from every thread; parents follow the call stack."""

    def __init__(self):
        self.spans = []   # (id, name, start, end, parent, note)
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = [0]
        return stack

    def wrap(self, name: str, fn, note=None):
        """fn wrapped in a span; note(args, result) gives the span's note."""
        spans, ids, clock = self.spans, self._ids, time.perf_counter

        def traced(*args, **kwargs):
            stack = self._stack()
            sid = next(ids)
            parent = stack[-1]
            stack.append(sid)
            start = clock()
            result = done = None
            try:
                result = fn(*args, **kwargs)
                done = True
                return result
            finally:
                end = clock()
                stack.pop()
                spans.append((sid, name, start, end, parent,
                              note(args, result) if note and done else None))

        traced.__wrapped__ = fn
        return traced

    def wrap_parallel_map(self, fn):
        """parallel_map whose worker calls record the map's span as parent."""
        spans, ids, clock = self.spans, self._ids, time.perf_counter

        def traced(work, items):
            items = list(items)
            stack = self._stack()
            sid = next(ids)
            parent = stack[-1]

            def adopted(item):
                inner = self._stack()
                inner.append(sid)
                try:
                    return work(item)
                finally:
                    inner.pop()

            stack.append(sid)
            start = clock()
            try:
                return fn(adopted, items)
            finally:
                end = clock()
                stack.pop()
                spans.append((sid, "runtime.parallel_map", start, end, parent, len(items)))

        traced.__wrapped__ = fn
        return traced

    def write(self, path):
        names = sorted({s[1] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        doc = {
            "fields": ["id", "name", "start_s", "end_s", "parent", "note"],
            "names": names,
            "spans": [[s[0], index[s[1]], s[2], s[3], s[4], s[5]] for s in self.spans],
        }
        with gzip.open(path, "wt", compresslevel=1, encoding="utf-8") as fh:
            json.dump(doc, fh)


def _directions(args, _result):
    return args[1].shape[0]


def _pool_note(args, _result):
    return [args[3] == 0.0, len(args[4].quadratics)]


def _cells(args, _result):
    grid = args[2]
    return (grid.N - 1) ** grid.n


def _iterations(_args, result):
    return int(result.nit)


class Instrumentation:
    """Installs the wrappers on entry and restores the originals on exit."""

    def __init__(self, tracer: Tracer):
        import pelliptic.cli as cli
        import pelliptic.conditions as conditions
        import pelliptic.integral as integral
        import pelliptic.prange as prange
        import pelliptic.solvability as solvability

        w = tracer.wrap
        self._plan = [
            (cli, "condition_range", lambda f: w("prange.condition_range", f)),
            (cli, "field_range", lambda f: w("prange.field_range", f)),
            (cli, "strong_margin", lambda f: w("conditions.strong_margin", f)),
            (cli, "lh_margin", lambda f: w("conditions.lh_margin", f)),
            (cli, "scalar_p_margin", lambda f: w("conditions.scalar_p_margin", f)),
            (cli, "falsify_integral", lambda f: w("integral.falsify_integral", f)),
            (cli, "sufficient_constant", lambda f: w("lame.sufficient_constant", f)),
            (cli, "admissibility", lambda f: w("lame.admissibility", f)),
            (cli, "worst_case_over_ratio", lambda f: w("solvability.worst_case_over_ratio", f)),
            (solvability, "sufficient_constant", lambda f: w("lame.sufficient_constant", f)),
            (prange, "condition_range", lambda f: w("prange.condition_range", f)),
            (prange, "pooled_margin", lambda f: w("conditions.pooled_margin", f, _pool_note)),
            (prange, "parallel_map", tracer.wrap_parallel_map),
            (conditions, "_minimize_directions", lambda f: w("conditions.search", f)),
            (conditions, "minimize", lambda f: w("conditions.polish", f, _iterations)),
            (conditions, "_eigvalsh_batch", lambda f: w("conditions.eigvalsh", f)),
            (conditions._StrongProblem, "values", lambda f: w("conditions.values", f, _directions)),
            (conditions._LHProblem, "values", lambda f: w("conditions.values", f, _directions)),
            (integral, "parallel_map", tracer.wrap_parallel_map),
            (integral, "discrete_quotient", lambda f: w("integral.discrete_quotient", f, _cells)),
            (integral, "random_test_grid", lambda f: w("integral.random_test_grid", f)),
            (integral, "_cell_tensors", lambda f: w("integral.cell_tensors", f)),
            (integral, "_pair_cells", lambda f: w("integral.pair_cells", f)),
            (integral, "sample_field", lambda f: w("tensors.sample_field", f)),
        ]
        self._saved = []

    def __enter__(self):
        for owner, attr, make in self._plan:
            original = getattr(owner, attr)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, make(original))
        return self

    def __exit__(self, *exc):
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()
        return False


# ---------------------------------------------------------------------------
# per-layer metrics

_SELF_TIMED = ("conditions.polish", "prange.condition_range", "prange.field_range",
               "integral.discrete_quotient", "cli.main")


def _covered(intervals, lo, hi) -> float:
    """Length of the union of intervals, clipped to [lo, hi]."""
    total, reach = 0.0, lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def layer_metrics(spans) -> dict:
    """Counts, busy time and self time per layer from a list of spans.

    Self time is a span's duration minus the part of it that its child
    spans cover (children running in parallel threads are merged first).
    """
    count = defaultdict(int)
    busy = defaultdict(float)
    notes = defaultdict(list)
    children = defaultdict(list)
    for _sid, name, start, end, parent, note in spans:
        count[name] += 1
        busy[name] += end - start
        if note is not None:
            notes[name].append(note)
        children[parent].append((start, end))
    own = defaultdict(float)
    for sid, name, start, end, _parent, _note in spans:
        if name in _SELF_TIMED:
            own[name] += (end - start) - _covered(children.get(sid, ()), start, end)

    pooled = notes["conditions.pooled_margin"]
    ranges = count["prange.condition_range"]
    directions = sum(notes["conditions.values"])
    cells = sum(notes["integral.discrete_quotient"])
    return {
        "conditions.values_calls": count["conditions.values"],
        "conditions.directions_evaluated": directions,
        "conditions.directions_per_values_call": _ratio(directions, count["conditions.values"]),
        "conditions.values_s": busy["conditions.values"],
        "conditions.eigvalsh_calls": count["conditions.eigvalsh"],
        "conditions.eigvalsh_s": busy["conditions.eigvalsh"],
        "conditions.polish_runs": count["conditions.polish"],
        "conditions.polish_iters": sum(notes["conditions.polish"]),
        "conditions.polish_self_s": own["conditions.polish"],
        "conditions.search_calls": count["conditions.search"],
        "conditions.pooled_margin_s": busy["conditions.pooled_margin"],
        "conditions.pool_size_max": max((size for _, size in pooled), default=0),
        "prange.condition_range_calls": ranges,
        "prange.pooled_margin_calls": len(pooled),
        "prange.pooled_margin_per_range": _ratio(len(pooled), ranges),
        "prange.anchor_passes_per_range": _ratio(sum(1 for anchor, _ in pooled if anchor), ranges),
        "prange.self_s": own["prange.condition_range"] + own["prange.field_range"],
        "prange.field_range_calls": count["prange.field_range"],
        "prange.field_range_s": busy["prange.field_range"],
        "runtime.parallel_map_calls": count["runtime.parallel_map"],
        "runtime.parallel_map_items": sum(notes["runtime.parallel_map"]),
        "runtime.parallel_map_s": busy["runtime.parallel_map"],
        "integral.cell_tensors_calls": count["integral.cell_tensors"],
        "integral.cell_tensors_s": busy["integral.cell_tensors"],
        "tensors.sample_field_calls": count["tensors.sample_field"],
        "tensors.sample_field_s": busy["tensors.sample_field"],
        "integral.falsify_calls": count["integral.falsify_integral"],
        "integral.trials": count["integral.discrete_quotient"],
        "integral.random_test_grid_s": busy["integral.random_test_grid"],
        "integral.pair_cells_s": busy["integral.pair_cells"],
        "integral.discrete_quotient_self_s": own["integral.discrete_quotient"],
        "integral.cells_per_s": _ratio(cells, busy["integral.discrete_quotient"]),
        "lame.sufficient_constant_calls": count["lame.sufficient_constant"],
        "lame.sufficient_constant_s": busy["lame.sufficient_constant"],
        "solvability.worst_case_calls": count["solvability.worst_case_over_ratio"],
        "solvability.worst_case_s": busy["solvability.worst_case_over_ratio"],
        "cli.calls": count["cli.main"],
        "cli.self_s": own["cli.main"],
    }
