"""learntags benchmark: tag jobs and match queries on seeded corpora.

Run from the root of a learntags checkout:

    python3 perfbench/run.py --workload uniform --seed 88 --seconds 14 --trace 0

``perfbench/gen.py`` writes CORPORA corpora of the workload, from seeds
derived from ``--seed``, in a separate process, so the peak RSS counts
only what learntags builds.  Operations cycle over the corpora, so a run
measures several inputs of the same shape and the figures vary less from
seed to seed.  learntags is imported from ``src/`` of the checkout;
without it the run exits with code 2.  Load is a closed loop with one
client.

Each workload has a primary operation, timed for ``--seconds``:

* ``uniform``, ``skewed``, ``planted``: a tag job, i.e. ``pipeline.run``,
  then ``save_store`` and ``render_report``, on inputs parsed in set-up.
  After the timed loop, ``match`` queries run against the jobs' stores
  for another ``--seconds``, at least MIN_SECONDARY_QUERIES of them.
* ``match``: a ``learntags match`` query issued through ``cli.dispatch``
  with stdout captured, at least MIN_MATCH_QUERIES of them.  Set-up runs
  the tag jobs that write the queried stores; ``tag_s`` comes from them.

End-to-end metrics (``--trace 0``): ``setup_s`` (loading a corpus with
``parse_ratings`` and ``parse_profiles``, plus on ``match`` the tag job
that writes its store), ``tag_s`` and ``tag_cpu_s`` (wall and process CPU
time of a tag job) are medians per corpus, averaged over the corpora;
``match_p50_ms`` and ``match_p90_ms`` pool every query; ``peak_rss_mb``
is the process's peak RSS; ``ok_rate`` is 1 - failed / attempted
operations; ``planted_recovery`` is described at ``recovery``.  Every
time is scaled to a reference machine speed (see ``calibration_loop``);
the table printed before the result line gives the loop's median.

With ``--trace 1`` traced and untraced primary operations alternate.
The per-layer metrics are means per traced primary operation
(``ingest.parse_*_s`` per call), and the spans are written to
``.perfbench_traces/``.

Every operation's output is checked; one that raises, exits nonzero or
fails a check counts as failed.  Tag jobs: the report and the store must
equal the first job's on that corpus, the store must survive
``load_store`` after ``save_store``, and the first job's store must agree
with this file's own rescan of the ratings.  Queries: the ranking must
equal the one this file computes from the store.  For the seeds in
``digests.json`` every report and ranking must also match its recorded
digest.
"""
from __future__ import annotations

import os

# Pin the native thread pools before numpy loads.  The matrices are 5x5
# and the pipeline is single-threaded Python, so extra BLAS or OpenMP
# threads only compete with it for the cores.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import csv
import gc
import hashlib
import io
import itertools
import json
import re
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from collections import defaultdict

import numpy as np

from spans import Tracer

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

WORKLOADS = {"uniform": "tag", "skewed": "tag", "planted": "tag", "match": "match"}
CORPORA = 6
# Loading a corpus takes tens of milliseconds, so it is repeated and the
# median kept; on `match` a load is followed by a tag job, which is long
# enough to time once per corpus.
SETUP_REPS = {"tag": 7, "match": 1}
QUERY_LEARNERS = 5   # per corpus
TOP = 10
MIN_SECONDARY_QUERIES = 30
MIN_MATCH_QUERIES = 100
# Times are scaled to the speed at which calibration_loop takes this long.
CALIBRATION_REFERENCE_S = 0.010
CALIBRATION_WINDOW = 2   # calibration samples on each side of an operation

END_TO_END = {
    "setup_s": "s", "tag_s": "s", "tag_cpu_s": "s", "peak_rss_mb": "MB",
    "match_p50_ms": "ms", "match_p90_ms": "ms", "ok_rate": "ratio",
    "planted_recovery": "ratio",
}

# Per-layer metrics and the span each one reads.
SPAN_TIMES = [  # inclusive seconds per operation
    ("ingest.build_all_subsets_s", "ingest.build_all_subsets"),
    ("quantify.quantify_attribute_s", "quantify.quantify_attribute"),
    ("quantify.build_cooccurrence_s", "quantify.build_cooccurrence"),
    ("quantify.nmf_s", "quantify.nmf"),
    ("cluster.select_k_s", "cluster.select_k"),
    ("cluster.farthest_first_s", "cluster.farthest_first"),
    ("cluster.lloyd_s", "cluster.lloyd"),
    ("cluster.average_diameter_s", "cluster.average_diameter"),
    ("cluster.to_feature_points_s", "cluster.to_feature_points"),
    ("cluster.normalization_s", "cluster.normalization"),
    ("mine.transaction_s", "mine.transaction"),
    ("mine.apriori_s", "mine.apriori"),
    ("mine.select_tag_s", "mine.select_tag"),
    ("pipeline.run_s", "pipeline.run"),
    ("pipeline.save_store_s", "pipeline.save_store"),
    ("pipeline.render_report_s", "pipeline.render_report"),
    ("pipeline.load_store_s", "pipeline.load_store"),
    ("pipeline.match_resources_s", "pipeline.match_resources"),
]
SPAN_SELF_TIMES = [  # self seconds per operation
    ("pipeline.run_self_s", "pipeline.run"),
    ("cli.dispatch_self_s", "cli.dispatch"),
]
PER_CALL_TIMES = [  # inclusive seconds per call, set-up included
    ("ingest.parse_ratings_s", "ingest.parse_ratings"),
    ("ingest.parse_profiles_s", "ingest.parse_profiles"),
]
SPAN_CALLS = [  # calls per operation
    ("quantify.build_cooccurrence_calls", "quantify.build_cooccurrence"),
    ("cluster.farthest_first_calls", "cluster.farthest_first"),
    ("cluster.lloyd_calls", "cluster.lloyd"),
    ("mine.apriori_calls", "mine.apriori"),
]
COUNTERS = ["ingest.subset_pair_work", "quantify.nmf_iters", "quantify.nmf_max_iter_hits",
            "cluster.lloyd_iters", "mine.transactions", "mine.frequent_itemsets"]
RATIOS = ["cluster.fits_kept_ratio", "cluster.k_gt1_share", "cluster.cluster_fraction",
          "trace.overhead_frac"]


def per_layer_units() -> dict[str, str]:
    units = {name: "s" for name, _ in SPAN_TIMES + SPAN_SELF_TIMES + PER_CALL_TIMES}
    units.update({name: "count" for name, _ in SPAN_CALLS})
    units.update({name: "count" for name in COUNTERS})
    units.update({"pipeline.store_bytes": "B", "pipeline.skipped": "count"})
    units.update({name: "ratio" for name in RATIOS})
    return units


_TAG = r"\[(?:\d+|-), (?:\d+|-), (?:\[\d+-\d+\]|-), (?:-?\d+|-), (?:-?\d+|-)\]"
_REPORT_LINE = re.compile(rf"^[^\t]+\t{_TAG}(?: and {_TAG})*$")


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def query_digest(text: str) -> str:
    return digest(text)[:8]


def load_learntags():
    """Import learntags from the checkout's src/, or exit with code 2."""
    if not os.path.isfile(os.path.join(SRC, "learntags", "__init__.py")):
        print(f"error: no learntags package under {SRC}; "
              "run from the root of a learntags checkout", file=sys.stderr)
        sys.exit(2)
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    import learntags
    if os.path.dirname(os.path.dirname(os.path.abspath(learntags.__file__))) != SRC:
        print(f"error: learntags was imported from {learntags.__file__}, not {SRC}",
              file=sys.stderr)
        sys.exit(2)
    from learntags import cli, ingest, pipeline
    return cli, ingest, pipeline


class Corpus:
    """One generated corpus, what the benchmark reads from it with its own
    parser to check outputs, and the reference outputs of its first job."""

    def __init__(self, directory: str, seed: int, delta0: int):
        self.ratings = os.path.join(directory, "ratings.csv")
        self.profiles = os.path.join(directory, "profiles.csv")
        self.store = os.path.join(directory, "store.json")
        with open(self.profiles, encoding="utf-8", newline="") as fh:
            rows = list(csv.reader(fh))[1:]
        self.profile = {r[0]: tuple(int(v) for v in r[1:]) for r in rows}
        high: dict[str, set[str]] = defaultdict(set)
        with open(self.ratings, encoding="latin-1", newline="") as fh:
            for lid, rid, score in list(csv.reader(fh, delimiter=";"))[1:]:
                if int(score) >= delta0:
                    high[rid].add(lid)
        self.high_raters = {rid: sorted(m) for rid, m in high.items()}
        self.archetype = None
        truth = os.path.join(directory, "archetypes.json")
        if os.path.exists(truth):
            with open(truth, encoding="utf-8") as fh:
                self.archetype = {rid: tuple(a) for rid, a in json.load(fh).items()}
        ids = sorted(self.profile)
        pick = np.random.default_rng(seed).choice(
            len(ids), size=min(QUERY_LEARNERS, len(ids)), replace=False)
        self.learners = [ids[i] for i in pick]
        self.inputs = None        # (records, profiles) parsed by learntags
        self.ref_store = None     # outputs of the first tag job
        self.ref_report = None
        self.store_bytes = 0
        self.values = None        # quantified value maps, from `learntags quantify`
        self.expected: dict[str, str] = {}
        self.setup: list[float] = []   # scaled seconds per set-up of this corpus
        self.jobs: list[list] = []      # [wall s, CPU s, calibration index] per tag job


def nearest(values: dict[int, float], target: float) -> int:
    return min(sorted(values), key=lambda p: abs(values[p] - target))


def expected_ranking(store, profile: tuple, values: dict) -> str:
    """The `match` output for one learner, computed here from the store."""
    a1, a2, a3, a4, hours = profile
    scored = []
    for rid in sorted(store):
        best = None
        for tag in store[rid].tags:
            fields = [(tag.current_skill, lambda v: v == a1),
                      (tag.target_skill, lambda v: v == a2),
                      (tag.time_bin, lambda v: v.lower <= hours <= v.upper),
                      (tag.strategy_value, lambda v: nearest(values["strategy"], v) == a3),
                      (tag.presentation_value,
                       lambda v: nearest(values["presentation"], v) == a4)]
            present = [ok(v) for v, ok in fields if v is not None]
            score = sum(present) / len(present) if present else 0.0
            best = score if best is None else max(best, score)
        if best is not None:
            scored.append((rid, best))
    scored.sort(key=lambda rs: (-rs[1], rs[0]))
    return "".join(f"{rid}\t{score:.3f}\n" for rid, score in scored[:TOP])


def _tag_hits(tag, profile: tuple, values: dict) -> list[bool]:
    """Which of the five profile values (a1, a2, time bin, strategy,
    presentation) the tag carries."""
    a1, a2, a3, a4, hours = profile
    return [
        tag.current_skill == a1,
        tag.target_skill == a2,
        tag.time_bin is not None and tag.time_bin.lower <= hours <= tag.time_bin.upper,
        tag.strategy_value is not None and tag.strategy_value == values["strategy"][a3],
        tag.presentation_value is not None
        and tag.presentation_value == values["presentation"][a4],
    ]


def recovery(corpus: Corpus) -> float:
    """``planted_recovery`` of one corpus, a mean over tagged resources.

    With planted archetypes: the share of the resource's primary
    archetype's five values that its best tag carries.  Without them
    there is no truth to recover, so the metric is the share of the
    resource's high raters whose profile carries every field of its best
    tag: how many of its raters the tag describes.
    """
    store, values = corpus.ref_store, corpus.values
    shares = []
    for rid in sorted(store):
        if not store[rid].tags:
            continue
        tag = store[rid].tags[0]
        if corpus.archetype is not None:
            hits = _tag_hits(tag, corpus.archetype[rid], values)
            shares.append(sum(hits) / len(hits))
        else:
            present = [v is not None for v in (tag.current_skill, tag.target_skill, tag.time_bin,
                                               tag.strategy_value, tag.presentation_value)]
            raters = corpus.high_raters[rid]
            described = sum(
                all(h for h, p in zip(_tag_hits(tag, corpus.profile[lid], values), present) if p)
                for lid in raters
            )
            shares.append(described / len(raters))
    return statistics.fmean(shares) if shares else 0.0


def calibration_loop() -> tuple[float, float]:
    """Wall and CPU seconds taken by a fixed piece of pure-Python work.

    On a shared 2-vCPU VM the speed of the CPU drifts by a quarter within
    a minute, for wall and CPU time alike, and this loop drifts with it.
    A loop runs before every timed operation, and the operation's wall
    (CPU) time is scaled by CALIBRATION_REFERENCE_S over the median wall
    (CPU) time of the loops around it, which removes most of the drift
    from the reported times.
    """
    wall, cpu = time.perf_counter(), time.process_time()
    table = {}
    for i in range(7_500):
        table[(i * 7_919) % 10_007, i & 15] = i
    sorted(table.items())
    return time.perf_counter() - wall, time.process_time() - cpu


def percentile(values: list[float], q: int) -> float:
    """The q-th percentile, q in 1..99, by statistics.quantiles."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100)[q - 1]


class Bench:
    def __init__(self, args, workdir: str):
        self.cli, self.ingest, self.pipeline = load_learntags()
        self.args = args
        self.workload = args.workload
        self.primary = WORKLOADS[args.workload]
        self.config = self.pipeline.PipelineConfig()
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.workdir = workdir
        with open(os.path.join(HERE, "digests.json"), encoding="utf-8") as fh:
            recorded = json.load(fh)
        self.recorded = (recorded.get(args.workload, {}).get(str(args.seed))
                         if args.scale == 1.0 else None)
        self.tracer = None
        self.op_ids: list[int] = []
        self._next_op = itertools.count(1)
        self.samples: dict[str, int] = {}
        self.calibrations: list[tuple[float, float]] = []   # (wall s, CPU s)

    # -- operations -----------------------------------------------------

    def load_inputs(self, corpus: Corpus):
        with open(corpus.ratings, encoding="latin-1", newline="") as fh:
            records = self.ingest.parse_ratings(fh).records
        with open(corpus.profiles, encoding="utf-8", newline="") as fh:
            profiles = {p.learner_id: p for p in self.ingest.parse_profiles(fh).profiles}
        return records, profiles

    def tag_job(self, corpus: Corpus):
        store = self.pipeline.run(self.config, *corpus.inputs)
        self.pipeline.save_store(store, corpus.store)
        return store, self.pipeline.render_report(store)

    def match_query(self, corpus: Corpus, learner: str) -> tuple[int, str, str]:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = self.cli.dispatch([
                "match", "--ratings", corpus.ratings, "--profiles", corpus.profiles,
                "--store", corpus.store, "--learner", learner, "--top", str(TOP),
            ])
        return code, out.getvalue(), err.getvalue()

    def attempt(self, op, check, *args, traced: bool = False):
        """Run one timed operation and the check of its result.

        Returns (wall seconds, CPU seconds, calibration index), or None if
        the operation raised.  It counts as failed if it raised or failed
        its check.
        """
        self.attempted += 1
        timing = None
        try:
            result, *timing = self.timed(op, *args, traced=traced)
            problems = check(*args, *result)
        except Exception:
            problems = ["raised:\n" + traceback.format_exc()]
        if problems:
            self.failed += 1
            self.problems.extend(problems)
        return timing

    def timed(self, fn, *args, traced: bool = False):
        gc.collect()
        self.calibrations.append(calibration_loop())
        if traced:
            self.tracer.op_id = next(self._next_op)
            self.op_ids.append(self.tracer.op_id)
            self.tracer.install()
        try:
            wall0, cpu0 = time.perf_counter(), time.process_time()
            if traced:
                with self.tracer.span(f"op.{fn.__name__}"):
                    result = fn(*args)
            else:
                result = fn(*args)
            wall, cpu = time.perf_counter() - wall0, time.process_time() - cpu0
            return result, wall, cpu, len(self.calibrations) - 1
        finally:
            if traced:
                self.tracer.uninstall()
                self.tracer.op_id = None

    def scaled(self, seconds: float, k: int, cpu: bool = False) -> float:
        """Wall (or CPU) seconds at the reference speed, from the
        calibrations around the one taken before the operation."""
        window = self.calibrations[max(0, k - CALIBRATION_WINDOW):k + CALIBRATION_WINDOW + 1]
        return seconds * CALIBRATION_REFERENCE_S / statistics.median(c[cpu] for c in window)

    # -- checks ---------------------------------------------------------

    def check_job(self, corpus: Corpus, store, report: str) -> list[str]:
        """The first job on a corpus becomes its reference and is checked
        against the rescan; later jobs must reproduce it."""
        if corpus.ref_store is None:
            corpus.ref_store, corpus.ref_report = store, report
            corpus.store_bytes = os.path.getsize(corpus.store)
            corpus.values = self.quantified_values(corpus)
            problems = self.check_reference(corpus, store, report)
        else:
            problems = []
            if report != corpus.ref_report:
                problems.append("report differs from the corpus's first one")
            if store != corpus.ref_store:
                problems.append("store differs from the corpus's first one")
        if self.pipeline.load_store(corpus.store) != store:
            problems.append("load_store(save_store(store)) differs from store")
        return problems

    def check_reference(self, corpus: Corpus, store, report: str) -> list[str]:
        problems = []
        cfg, raters = self.config, corpus.high_raters
        if sorted(store) != sorted(raters):
            problems.append("store resources differ from the rated resources")
        tagged = 0
        for rid, cloud in store.items():
            p, size = cloud.provenance, len(raters.get(rid, ()))
            if p.subset_size != size:
                problems.append(f"{rid}: subset size {p.subset_size}, rescan {size}")
            if p.subset_size < cfg.min_subset:
                if cloud.tags or cloud.skipped is None:
                    problems.append(f"{rid}: small subset not skipped")
                continue
            if not cloud.tags:
                if cloud.skipped is None:
                    problems.append(f"{rid}: no tags and no skip reason")
                continue
            tagged += 1
            if not 1 <= p.chosen_k <= cfg.k_max or not 0 < p.cluster_size <= p.subset_size:
                problems.append(f"{rid}: provenance out of range: {p}")
            if p.support is None or p.support < cfg.support_sl:
                problems.append(f"{rid}: support {p.support} below {cfg.support_sl}")
        lines = report.splitlines()
        if len(lines) != tagged:
            problems.append(f"report has {len(lines)} lines for {tagged} tagged resources")
        problems += [f"bad report line {ln!r}" for ln in lines if not _REPORT_LINE.match(ln)]
        if (self.recorded is not None
                and digest(report) != self.recorded["reports"][self.corpora.index(corpus)]):
            problems.append("report digest differs from the recorded one")
        return problems

    def check_query(self, corpus: Corpus, learner: str, code: int, text: str,
                    err: str) -> list[str]:
        if code != 0:
            return [f"match for {learner} exited {code}: {err.strip()}"]
        want = corpus.expected.get(learner)
        if want is None:
            want = corpus.expected[learner] = expected_ranking(
                corpus.ref_store, corpus.profile[learner], corpus.values)
        problems = []
        if text != want:
            problems.append(f"ranking for {learner} differs from the expected one:\n"
                            f"got {text!r}\nwant {want!r}")
        if self.recorded is not None:
            recorded = self.recorded["queries"][self.corpora.index(corpus)]
            if query_digest(text) != recorded[corpus.learners.index(learner)]:
                problems.append(f"ranking digest for {learner} differs from the recorded one")
        return problems

    # -- phases ---------------------------------------------------------

    def prepare(self):
        gen = [sys.executable, os.path.join(HERE, "gen.py"), "--workload", self.workload,
               "--seed", str(self.args.seed), "--count", str(CORPORA),
               "--scale", str(self.args.scale), "--out", self.workdir]
        subprocess.run(gen, check=True, timeout=170)
        self.corpora = [
            Corpus(os.path.join(self.workdir, str(i)), CORPORA * self.args.seed + i,
                   self.config.delta0)
            for i in range(CORPORA)
        ]

    def quantified_values(self, corpus: Corpus) -> dict:
        """Value maps from `learntags quantify`, for the checks (untimed)."""
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = self.cli.dispatch(["quantify", "--ratings", corpus.ratings,
                                      "--profiles", corpus.profiles])
        if code != 0:
            raise RuntimeError(f"quantify exited {code}")
        doc = json.loads(out.getvalue())
        return {attr: {int(p): v for p, v in doc[attr]["values"].items()}
                for attr in ("strategy", "presentation")}

    def setup(self):
        """Load every corpus; on `match` each load is followed by the tag
        job that writes the queried store."""
        for rep in range(SETUP_REPS[self.primary]):
            for i, corpus in enumerate(self.corpora):
                traced = bool(self.args.trace) and (rep, i) != (0, 0)
                corpus.inputs, load_s, _, k = self.timed(self.load_inputs, corpus, traced=traced)
                seconds = self.scaled(load_s, k)
                if self.primary == "match":
                    timing = self.job_op(corpus)
                    seconds += self.scaled(timing[0], timing[2]) if timing else 0.0
                corpus.setup.append(seconds)

    def job_op(self, corpus: Corpus, traced: bool = False):
        timing = self.attempt(self.tag_job, self.check_job, corpus, traced=traced)
        if timing is not None:
            corpus.jobs.append(timing)
        return timing

    def query_op(self, i: int, traced: bool = False):
        corpus = self.corpora[i % CORPORA]
        learner = corpus.learners[i // CORPORA % len(corpus.learners)]
        return self.attempt(self.match_query, self.check_query, corpus, learner, traced=traced)

    def warm_up(self):
        """One untimed operation, so that imports and caches are settled."""
        if self.primary == "tag":
            self.job_op(self.corpora[0])
            self.corpora[0].jobs.clear()
        else:
            self.query_op(0)

    def run_untraced(self) -> dict:
        seconds = self.args.seconds
        self.setup()
        self.warm_up()
        if self.primary == "tag":
            start = time.perf_counter()
            i = 0
            while (time.perf_counter() - start < seconds
                   or min(len(c.jobs) for c in self.corpora) < 2):
                self.job_op(self.corpora[i % CORPORA])
                i += 1
            minimum = MIN_SECONDARY_QUERIES
        else:
            minimum = MIN_MATCH_QUERIES
        queries = []
        start = time.perf_counter()
        i = 0
        while time.perf_counter() - start < seconds or i < minimum:
            timing = self.query_op(i)
            if timing is not None:
                queries.append(timing)
            i += 1
        c = self.corpora
        query_s = [self.scaled(wall, k) for wall, _, k in queries]

        def per_corpus(x: Corpus, cpu: bool) -> float:
            return statistics.median(self.scaled(job[cpu], job[2], cpu) for job in x.jobs)

        self.samples = {"corpora": len(c), "setup_s": sum(len(x.setup) for x in c),
                        "tag_s": sum(len(x.jobs) for x in c), "match_ms": len(query_s)}
        return {
            "setup_s": statistics.fmean(statistics.median(x.setup) for x in c),
            "tag_s": statistics.fmean(per_corpus(x, False) for x in c),
            "tag_cpu_s": statistics.fmean(per_corpus(x, True) for x in c),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "match_p50_ms": 1000 * statistics.median(query_s),
            "match_p90_ms": 1000 * percentile(query_s, 90),
            "ok_rate": 1 - self.failed / self.attempted,
            "planted_recovery": statistics.fmean(recovery(x) for x in c),
        }

    def run_traced(self) -> dict:
        self.tracer = Tracer()
        self.setup()
        setup_ops, self.op_ids = self.op_ids, []
        self.warm_up()
        untraced, traced = [], []
        i = 0
        start = time.perf_counter()
        while time.perf_counter() - start < self.args.seconds or len(traced) < CORPORA:
            for trace, samples in ((False, untraced), (True, traced)):
                if self.primary == "tag":
                    timing = self.job_op(self.corpora[i // 2 % CORPORA], traced=trace)
                else:
                    timing = self.query_op(i, traced=trace)
                if timing is not None:
                    samples.append(timing)
                i += 1
        self.samples = {"corpora": CORPORA, "traced_ops": len(traced),
                        "untraced_ops": len(untraced)}
        out = os.path.join(ROOT, ".perfbench_traces")
        os.makedirs(out, exist_ok=True)
        self.tracer.write(os.path.join(out, f"{self.workload}-seed{self.args.seed}.json"))

        speed = CALIBRATION_REFERENCE_S / statistics.median(c[0] for c in self.calibrations)
        total, own, calls = self.tracer.self_times(self.op_ids, speed)
        n = len(self.op_ids)
        count = self.tracer.counters
        m = {name: total[span] / n for name, span in SPAN_TIMES}
        m.update({name: own[span] / n for name, span in SPAN_SELF_TIMES})
        all_total, _, all_calls = self.tracer.self_times(setup_ops + self.op_ids, speed)
        m.update({name: all_total[span] / max(all_calls[span], 1)
                  for name, span in PER_CALL_TIMES})
        m.update({name: calls[span] / n for name, span in SPAN_CALLS})
        m.update({name: count[name] / n for name in COUNTERS})
        m["pipeline.store_bytes"] = statistics.fmean(c.store_bytes for c in self.corpora)
        m["pipeline.skipped"] = statistics.fmean(
            sum(1 for cloud in c.ref_store.values() if cloud.skipped) for c in self.corpora)
        kept = count["cluster.kept"]
        m["cluster.fits_kept_ratio"] = kept / calls["cluster.lloyd"] if kept else 0.0
        m["cluster.k_gt1_share"] = count["cluster.k_gt1"] / kept if kept else 0.0
        m["cluster.cluster_fraction"] = count["cluster.fraction_sum"] / kept if kept else 0.0
        m["trace.overhead_frac"] = (
            statistics.median(self.scaled(wall, k) for wall, _, k in traced)
            / statistics.median(self.scaled(wall, k) for wall, _, k in untraced) - 1)
        self.layer_table = (total, own, calls, n)
        return m


def print_table(bench: Bench, metrics: dict, units: dict) -> None:
    print(f"workload {bench.workload}  seed {bench.args.seed}  "
          f"primary operation: {bench.primary}  samples {bench.samples}")
    print(f"calibration loop: median {1000 * statistics.median(c[0] for c in bench.calibrations):.2f}"
          f" ms wall, times below are scaled to {1000 * CALIBRATION_REFERENCE_S:.0f} ms")
    if bench.tracer is not None:
        total, own, calls, n = bench.layer_table
        print(f"{'span':32} {'calls/op':>10} {'incl s/op':>11} {'self s/op':>11}")
        for name in sorted(total, key=lambda s: -own[s]):
            print(f"{name:32} {calls[name] / n:10.1f} {total[name] / n:11.5f} "
                  f"{own[name] / n:11.5f}")
    for name, value in metrics.items():
        print(f"  {name:36} {value:14.6g} {units[name]}")
    print(f"  {'error_rate':36} {bench.failed / max(bench.attempted, 1):14.6g} "
          f"({bench.failed} failed of {bench.attempted} operations)")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="learntags benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=1.0,
                        help="corpus size factor; the self-test uses small ones")
    args = parser.parse_args(argv)

    load_learntags()
    workdir = os.path.join(ROOT, ".perfbench_work", f"{args.workload}-{args.seed}-{os.getpid()}")
    bench = Bench(args, workdir)
    try:
        bench.prepare()
        metrics = bench.run_traced() if args.trace else bench.run_untraced()
        units = per_layer_units() if args.trace else END_TO_END
    except Exception:
        traceback.print_exc()
        bench.failed = max(bench.failed, 1)
        bench.attempted = max(bench.attempted, 1)
        metrics, units = {}, {}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for problem in bench.problems[:20]:
        print("check failed:", problem, file=sys.stderr)
    if metrics:
        print_table(bench, metrics, units)
    correct = bench.failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
