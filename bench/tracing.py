"""Per-layer tracing by wrapping the public functions of each ifslab module.

Nothing in ``src/`` is changed: ``Tracer.install`` replaces each traced name
everywhere an ifslab module looks it up (``geometry.cylinder`` as well as
``words.cylinder``; class attributes such as ``Matrix2.__matmul__`` on the
class), and ``Tracer.uninstall`` puts the originals back.

Every wrapped call is timed, and its duration is charged to its caller, so a
layer's self time is its calls' time minus the time of the wrapped calls
they make.  Coarse calls (the CLI entry point and the solvers, searches and
geometry checks) are also kept as spans ``(name, start_ns, end_ns,
parent_span, job)``.  The many per-word and per-matrix calls (``moebius``
products and map evaluations, ``words`` cylinders and composition steps)
are only counted and timed, to keep the trace small.
"""

from __future__ import annotations

import sys
import time
from collections import Counter

from check import WORK_UNITS

LAYERS = ("moebius", "words", "pressure", "separation", "geometry", "cli")

# (module, attribute, kind, counter); kind is "span", "leaf" or "gen".
_MOEBIUS = [
    ("moebius", "Matrix2.__matmul__", "leaf", "moebius.matmul_calls"),
    ("moebius", "Matrix2.entry_distance", "leaf", "moebius.map_calls"),
    ("moebius", "MoebiusMap.__call__", "leaf", "moebius.map_calls"),
    ("moebius", "MoebiusMap.derivative_bounds", "leaf", "moebius.map_calls"),
    ("moebius", "MoebiusMap.image", "leaf", "moebius.map_calls"),
    ("moebius", "family_matrices", "leaf", None),
    ("moebius", "make_family", "span", None),
]
_WORDS = [
    ("words", "iter_compositions", "gen", "words.compositions"),
    ("words", "cylinder", "leaf", "words.cylinders"),
    ("words", "map_of_word", "leaf", "words.cylinders"),
    ("words", "chain_sorted", "leaf", None),
    ("words", "build_subsystem", "span", None),
]
_PRESSURE = [
    ("pressure", name, "span", "pressure.calls")
    for name in (
        "partition_sum",
        "pressure_estimate",
        "solve_level_dimension",
        "distortion_constant",
        "dimension_bracket",
        "subsystem_dimension_report",
    )
]
_SEPARATION = [
    ("separation", name, "span", "separation.calls")
    for name in (
        "overlap_search_maps",
        "exact_overlap_search",
        "sesc_metric",
        "fixed_point_probe",
        "diophantine_metric",
        "appendix_conjugacy_check",
        "residue_freeness_check",
        "relation_search_ABC",
    )
]
_GEOMETRY = [
    ("geometry", name, "span", "geometry.calls")
    for name in (
        "verify_lemma2",
        "verify_lemma4",
        "lemma4_extremal_threshold",
        "lemma4_extremal_disjoint",
        "lemma3_find_threshold",
        "nondegeneracy_certificate",
        "find_common_disjoint_parameter",
        "box_counting",
        "measure_stats",
        "natural_measure_stats",
    )
]
TARGETS = _MOEBIUS + _WORDS + _PRESSURE + _SEPARATION + _GEOMETRY + [("cli", "main", "span", None)]

COUNTERS = (
    "moebius.matmul_calls",
    "moebius.map_calls",
    "words.compositions",
    "words.cylinders",
    "pressure.calls",
    "pressure.norm_words",
    "pressure.distortion_words",
    "separation.calls",
    "separation.pairs_compared",
    "separation.words_searched",
    "geometry.calls",
    "geometry.pairs_checked",
    "geometry.grid_points",
)


def _record_results(counts: Counter, name: str, args, result, outermost: bool) -> None:
    """Work counts read from a finished call's arguments and report."""
    if name == "solve_level_dimension":
        counts["pressure.norm_words"] += result.word_count
    elif name == "distortion_constant":
        ifs, depth = args[0], args[1]
        counts["pressure.distortion_words"] += sum(len(ifs.maps) ** k for k in range(1, depth + 1))
    elif not outermost:
        return  # a search called by another search reports the same words
    elif name in ("sesc_metric", "diophantine_metric"):
        counts["separation.pairs_compared"] += result.pairs_compared
    elif name in ("overlap_search_maps", "exact_overlap_search", "relation_search_ABC"):
        counts["separation.words_searched"] += result.words_searched
    elif name in ("verify_lemma2", "verify_lemma4"):
        counts["geometry.pairs_checked"] += result.pairs_checked
    elif name == "nondegeneracy_certificate":
        counts["geometry.pairs_checked"] += len(result.witnesses) + len(result.missing)
        counts["geometry.grid_points"] += len(result.grid)
    elif name == "find_common_disjoint_parameter":
        prefixes = 2**result.level - 1
        counts["geometry.pairs_checked"] += len(result.grid) * prefixes * (prefixes - 1) // 2
        counts["geometry.grid_points"] += len(result.grid)


class Tracer:
    """Spans, per-layer self time and work counts of the calls made while installed."""

    def __init__(self) -> None:
        self.clock = time.perf_counter_ns
        self.stack: list[list] = []  # frames: [layer, child_ns, nearest span id]
        self.spans: list[tuple | None] = []
        self.self_ns: Counter = Counter()
        self.matmul_ns = 0
        self.counts: Counter = Counter()
        self.job: int | None = None
        self._saved: list[tuple[object, str, object]] = []

    # -- calls ---------------------------------------------------------------

    def call(self, name, layer, record, fn, args, kwargs):
        parent = self.stack[-1] if self.stack else None
        parent_span = parent[2] if parent else None
        span_id = None
        if record:
            span_id = len(self.spans)
            self.spans.append(None)
        frame = [layer, 0, span_id if record else parent_span]
        self.stack.append(frame)
        start = self.clock()
        try:
            return fn(*args, **kwargs)
        finally:
            end = self.clock()
            self.stack.pop()
            duration = end - start
            self.self_ns[layer] += duration - frame[1]
            if parent is not None:
                parent[1] += duration
            if record:
                self.spans[span_id] = (name, start, end, parent_span, self.job)
            if name == "__matmul__":
                self.matmul_ns += duration

    def _wrap(self, name, layer, kind, counter, fn):
        tracer = self
        short = name.rsplit(".", 1)[-1]

        if kind == "gen":
            def wrapper(*args, **kwargs):
                return tracer._iterate(short, layer, counter, fn(*args, **kwargs))
            return wrapper

        if kind == "leaf":
            def wrapper(*args, **kwargs):
                if counter:
                    tracer.counts[counter] += 1
                return tracer.call(short, layer, False, fn, args, kwargs)
            return wrapper

        def wrapper(*args, **kwargs):
            if counter:
                tracer.counts[counter] += 1
            outermost = not tracer.stack or tracer.stack[-1][0] != layer
            result = tracer.call(short, layer, True, fn, args, kwargs)
            _record_results(tracer.counts, short, args, result, outermost)
            return result

        return wrapper

    def _iterate(self, name, layer, counter, generator):
        """Run each step of a generator as a call, counting the items it yields."""
        while True:
            try:
                item = self.call(name, layer, False, next, (generator,), {})
            except StopIteration:
                return
            self.counts[counter] += 1
            yield item

    # -- patching ------------------------------------------------------------

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        modules = {key: mod for key, mod in sys.modules.items() if key == "ifslab" or key.startswith("ifslab.")}
        for module_name, attr, kind, counter in TARGETS:
            module = modules[f"ifslab.{module_name}"]
            if "." in attr:
                owner_name, method = attr.split(".")
                owner = getattr(module, owner_name)
                self._patch(owner, method, self._wrap(attr, module_name, kind, counter, vars(owner)[method]))
                continue
            original = getattr(module, attr)
            wrapper = self._wrap(attr, module_name, kind, counter, original)
            for mod in modules.values():
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, key, wrapper)

    def _patch(self, owner, key, value) -> None:
        self._saved.append((owner, key, vars(owner)[key]))
        setattr(owner, key, value)

    def uninstall(self) -> None:
        while self._saved:
            owner, key, original = self._saved.pop()
            setattr(owner, key, original)

    # -- results -------------------------------------------------------------

    def snapshot(self) -> dict:
        """Cumulative counts and self times, for differencing around one job."""
        data = {name: self.counts[name] for name in COUNTERS}
        data.update({f"{layer}.self_ns": self.self_ns[layer] for layer in LAYERS})
        data["moebius.matmul_ns"] = self.matmul_ns
        return data


def job_units(before: dict, after: dict) -> dict[str, int]:
    """The traced work units of one job, from snapshots taken around it."""
    return {name: after[name] - before[name] for name in WORK_UNITS}
