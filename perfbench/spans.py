"""Spans and counters recorded from outside learntags.

The tracer replaces public functions at the module names their callers
look up (``learntags.pipeline.select_k`` is the name ``run`` calls,
``learntags.cluster.lloyd_kmeans`` the one ``select_k`` calls) with
wrappers that record a span per call.  Nothing under ``src/`` changes.
A target that a later version of learntags no longer has is skipped,
and its metrics read 0.

Each span records its name, start, end and parent span, and every span
of one operation (a tag job or a match query) carries that operation's
id.  Spans stay in memory until ``write`` dumps them at the end of a run.
"""
from __future__ import annotations

import contextlib
import importlib
import itertools
import json
import time
from collections import Counter, defaultdict


def _subset_pair_work(counters, args, kwargs, result):
    counters["ingest.subset_pair_work"] += sum(len(s) ** 2 for s in result.values())


def _nmf_counts(counters, args, kwargs, result):
    iters = len(result.error_trace) - 1
    counters["quantify.nmf_iters"] += iters
    max_iters = kwargs.get("max_iters", args[2] if len(args) > 2 else None)
    counters["quantify.nmf_max_iter_hits"] += int(iters == max_iters)


def _lloyd_counts(counters, args, kwargs, result):
    # sse_trace[0] is the SSE of the seeding; one entry per iteration follows.
    counters["cluster.lloyd_iters"] += len(result.sse_trace) - 1


def _select_k_counts(counters, args, kwargs, result):
    clustering = result.clustering
    sizes = Counter(clustering.assignment.values())
    counters["cluster.kept"] += 1
    counters["cluster.k_gt1"] += int(clustering.k > 1)
    counters["cluster.fraction_sum"] += max(sizes.values()) / len(clustering.assignment)


def _apriori_counts(counters, args, kwargs, result):
    counters["mine.transactions"] += len(args[0])
    counters["mine.frequent_itemsets"] += len(result)


# (module, attribute, span name, counter hook).  The module is the one
# whose namespace the caller looks the attribute up in.
TARGETS = [
    ("learntags.ingest", "parse_ratings", "ingest.parse_ratings", None),
    ("learntags.ingest", "parse_profiles", "ingest.parse_profiles", None),
    ("learntags.ingest", "build_all_subsets", "ingest.build_all_subsets", _subset_pair_work),
    ("learntags.pipeline", "build_all_subsets", "ingest.build_all_subsets", _subset_pair_work),
    ("learntags.pipeline", "quantify_attribute", "quantify.quantify_attribute", None),
    ("learntags.cli", "quantify_attribute_detail", "quantify.quantify_attribute", None),
    ("learntags.quantify", "build_cooccurrence", "quantify.build_cooccurrence", None),
    ("learntags.quantify", "nmf", "quantify.nmf", _nmf_counts),
    ("learntags.pipeline", "to_feature_points", "cluster.to_feature_points", None),
    ("learntags.pipeline", "fit_normalization", "cluster.normalization", None),
    ("learntags.pipeline", "apply_normalization", "cluster.normalization", None),
    ("learntags.pipeline", "select_k", "cluster.select_k", _select_k_counts),
    ("learntags.cluster", "farthest_first_seeds", "cluster.farthest_first", None),
    ("learntags.cluster", "lloyd_kmeans", "cluster.lloyd", _lloyd_counts),
    ("learntags.cluster", "average_diameter", "cluster.average_diameter", None),
    ("learntags.pipeline", "largest_cluster", "cluster.largest_cluster", None),
    ("learntags.pipeline", "transaction_from_profile", "mine.transaction", None),
    ("learntags.pipeline", "apriori", "mine.apriori", _apriori_counts),
    ("learntags.pipeline", "select_tag", "mine.select_tag", None),
    ("learntags.pipeline", "run", "pipeline.run", None),
    ("learntags.pipeline", "save_store", "pipeline.save_store", None),
    ("learntags.pipeline", "render_report", "pipeline.render_report", None),
    ("learntags.cli", "load_store", "pipeline.load_store", None),
    ("learntags.cli", "match_resources", "pipeline.match_resources", None),
    ("learntags.cli", "dispatch", "cli.dispatch", None),
]


class Tracer:
    """Records spans while installed; the original functions run otherwise."""

    def __init__(self):
        self.spans: list[tuple[int, int | None, int | None, str, float, float]] = []
        self.counters: Counter = Counter()
        self.op_id: int | None = None
        self._stack: list[int] = []
        self._ids = itertools.count()
        self._originals: list[tuple[object, str, object]] = []
        self._wrappers: list[tuple[object, str, object]] = []
        for module_name, attr, name, hook in TARGETS:
            module = importlib.import_module(module_name)
            fn = getattr(module, attr, None)
            if fn is None:
                continue
            self._originals.append((module, attr, fn))
            self._wrappers.append((module, attr, self._wrap(fn, name, hook)))

    def _begin(self) -> tuple[int, int | None, float]:
        sid = next(self._ids)
        parent = self._stack[-1] if self._stack else None
        self._stack.append(sid)
        return sid, parent, time.perf_counter()

    def _end(self, name: str, sid: int, parent: int | None, start: float) -> None:
        end = time.perf_counter()
        self._stack.pop()
        self.spans.append((sid, parent, self.op_id, name, start, end))

    def _wrap(self, fn, name, hook):
        def traced(*args, **kwargs):
            opened = self._begin()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._end(name, *opened)
            if hook is not None:
                hook(self.counters, args, kwargs, result)
            return result
        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        for module, attr, wrapper in self._wrappers:
            setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, fn in self._originals:
            setattr(module, attr, fn)

    @contextlib.contextmanager
    def span(self, name: str):
        """A span opened by the benchmark itself, around one operation."""
        opened = self._begin()
        try:
            yield
        finally:
            self._end(name, *opened)

    def self_times(self, op_ids, scale: float = 1.0) -> tuple[dict, dict, Counter]:
        """Inclusive time, self time and call count per span name over the
        spans of the given operations, times multiplied by ``scale``.  Self
        time is the span's duration minus the durations of its child spans
        (calls are sequential)."""
        ops = set(op_ids)
        child_time: dict[int, float] = defaultdict(float)
        for sid, parent, op, name, start, end in self.spans:
            if op in ops and parent is not None:
                child_time[parent] += end - start
        total: dict[str, float] = defaultdict(float)
        own: dict[str, float] = defaultdict(float)
        calls: Counter = Counter()
        for sid, parent, op, name, start, end in self.spans:
            if op not in ops:
                continue
            total[name] += (end - start) * scale
            own[name] += (end - start - child_time[sid]) * scale
            calls[name] += 1
        return total, own, calls

    def write(self, path: str) -> None:
        origin = min((s[4] for s in self.spans), default=0.0)
        doc = [
            {"id": sid, "parent": parent, "op": op, "name": name,
             "start": start - origin, "end": end - origin}
            for sid, parent, op, name, start, end in sorted(self.spans)
        ]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)

