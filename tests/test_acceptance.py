"""Acceptance gate: one test per criterion, one PASS/FAIL line each.

Every expectation is recomputed by an independent oracle inside the
test (exhaustive enumeration, rescans, distance scans) or checked as a
structural property; nothing is copied from pipeline output.  Run with
``pytest -rA`` to see the per-criterion lines in the summary.
"""
from __future__ import annotations

import re
from itertools import combinations
from time import perf_counter

import numpy as np
from scipy.spatial.distance import cdist

from conftest import (
    brute_force_frequent,
    build_subset,
    items_array,
    items_from_tag,
    itemset_of,
    lloyd_kmeans,
    make_blobs,
    random_transactions,
    recover_clusters,
    synth_corpus,
)
from learntags import (
    PipelineConfig,
    apriori,
    export_parcoords,
    export_values,
    farthest_first_seeds,
    group_rows,
    learner_table,
    nmf,
    quantify_nominal,
    render_report,
    run,
    save_store,
    sweep_k,
)

_TAG = r"\[(?:\d+|-), (?:\d+|-), (?:\[\d+-\d+\]|-), (?:\d+|-), (?:\d+|-)\]"
_LINE_RE = re.compile(rf"^[^\t]+\t{_TAG}(?: and {_TAG})*$")


def _report(n: int, description: str, failures: list[str]) -> None:
    print(f"{'PASS' if not failures else 'FAIL'} criterion {n}: {description}")
    assert not failures, f"criterion {n}: " + "; ".join(failures[:5])


def test_criterion_1_apriori_oracle():
    rng = np.random.default_rng(101)
    failures = []
    start = perf_counter()
    for i in range(200):
        transactions = random_transactions(rng, int(rng.integers(1, 13)))
        sl = float(rng.choice([0.05, 0.1, 0.25, 1 / 3, 0.5, 1.0]))
        got = {itemset_of(f.fields): (f.count, f.support)
               for f in apriori(items_array(transactions), sl)}
        want = brute_force_frequent(transactions, sl)
        if got != want:
            failures.append(f"instance {i} (sl={sl}) mismatches the oracle")
    elapsed = perf_counter() - start
    if elapsed >= 5.0:
        failures.append(f"took {elapsed:.1f}s, bound is 5s")
    _report(1, "Apriori matches exhaustive enumeration on 200 seeded instances",
            failures)


def test_criterion_2_nmf_monotonicity():
    rng = np.random.default_rng(202)
    failures = []
    start = perf_counter()
    for i in range(100):
        a = rng.random((5, 5)) * float(rng.integers(1, 20))
        factors = nmf(a, k=10, max_iters=120, tol=0.0,
                      seed=int(rng.integers(2**31)))
        trace = np.asarray(factors.error_trace)
        if np.any(np.diff(trace) > 1e-9 * trace[0]):
            failures.append(f"matrix {i}: error trace increased")
    rank1 = np.outer(rng.random(5) + 0.1, rng.random(5) + 0.1)
    factors = nmf(rank1, k=1, max_iters=5000, tol=0.0, seed=5)
    if factors.final_error >= 1e-6:
        failures.append(f"rank-1 error {factors.final_error:.2e} not < 1e-6")
    elapsed = perf_counter() - start
    if elapsed >= 10.0:
        failures.append(f"took {elapsed:.1f}s, bound is 10s")
    _report(2, "NMF error is monotone; rank-1 input reaches error < 1e-6",
            failures)


def test_criterion_3_kmeans_invariants():
    failures = []
    for inst in range(5):
        rng = np.random.default_rng(300 + inst)
        coords = rng.random((100, 5)) * 10
        for k in (2, 4, 7):
            seeds = farthest_first_seeds(coords, k, seed=inst)
            picked = coords[seeds]
            for j in range(1, k):
                dmin = cdist(coords, picked[:j]).min(axis=1)
                mine = cdist(picked[j:j + 1], picked[:j]).min()
                if mine < dmin.max() - 1e-9:
                    failures.append(f"inst {inst} k={k}: seed {j} not max-min")
            clustering = lloyd_kmeans(coords, seeds)
            trace = np.asarray(clustering.sse_trace)
            if np.any(np.diff(trace) > 1e-9 * trace[0]):
                failures.append(f"inst {inst} k={k}: SSE increased")
            labels = clustering.labels
            dists = cdist(coords, clustering.centroids)
            gap = dists[np.arange(len(coords)), labels] - dists.min(axis=1)
            if np.any(gap > 1e-9):
                failures.append(f"inst {inst} k={k}: assignment not nearest")
    _report(3, "k-means invariants hold (SSE, nearest centroid, max-min seeds)",
            failures)


def test_criterion_4_k_selection_blobs():
    failures = []
    cases = [
        (2, [(0.0,) * 5, (1.0,) * 5]),
        (3, [(0.0,) * 5, (1.0,) * 5, (1.0, 0.0, 1.0, 0.0, 1.0)]),
    ]
    for blobs, centers in cases:
        x = make_blobs(centers, per_blob=15, sigma=0.01, seed=40 + blobs)
        selection = sweep_k(x, k_max=8, gamma=2.0, seed=1)
        if selection.k != blobs:
            failures.append(f"{blobs} blobs: chose k={selection.k}")
        diam = {e.k: e.avg_diameter for e in selection.trace}
        if not diam[blobs - 1] > 2.0 * diam[blobs]:
            failures.append(f"{blobs} blobs: no jump at the merge step")
        for k in range(8, blobs, -1):
            if diam[k - 1] > 2.0 * diam[k]:
                failures.append(f"{blobs} blobs: spurious jump at k={k}")
    _report(4, "sweep_k recovers the blob count with the jump at the merge",
            failures)


def test_criterion_5_subset_rescan():
    records, profiles = synth_corpus(2000, 300, 50_000, seed=55)
    table = learner_table(records, profiles, delta0=6)
    failures = []
    want = {rid: build_subset(records, rid, delta0=6)
            for rid in {r.resource_id for r in records}}
    best: dict[tuple[str, str], int] = {}
    for r in records:
        key = (r.learner_id, r.resource_id)
        best[key] = max(best.get(key, 0), r.rating)
    got = {rid: [table.ids[i] for i in rows]
           for rid, rows in zip(table.resources, table.members)}
    if got != {rid: sorted(m) for rid, m in want.items() if m}:
        failures.append("membership differs from the rescan")
    for rid, members in got.items():
        low = [lid for lid in members if best[(lid, rid)] < 6]
        if low:
            failures.append(f"{rid}: members below threshold: {low[:3]}")
    _report(5, "subset membership matches an independent 50,000-rating rescan",
            failures)


def test_criterion_6_tag_validity_and_format():
    config = PipelineConfig(seed=13)
    records, profiles = synth_corpus(1000, 100, 5000, seed=13)
    store = run(config, records, profiles)
    clusters, strategy_values, presentation_values = recover_clusters(
        records, profiles, config)
    failures = []
    tagged = 0
    for rid in sorted(store):
        cloud = store[rid]
        if cloud.skipped is not None:
            continue
        tagged += 1
        transactions = clusters[rid]
        for tag in cloud.tags:
            counts = [
                sum(1 for t in transactions if candidate <= t.items)
                for candidate in items_from_tag(tag, strategy_values,
                                                presentation_values)
            ]
            support = max(counts) / len(transactions)
            if support < config.support_sl:
                failures.append(f"{rid}: recounted support {support:.3f}")
            if support != cloud.provenance.support:
                failures.append(f"{rid}: provenance disagrees with recount")
    if tagged == 0:
        failures.append("corpus produced no tagged resources")
    report = render_report(store)
    for line in report.splitlines():
        if not _LINE_RE.fullmatch(line):
            failures.append(f"grammar violation: {line!r}")
    if " and " not in report:
        failures.append("no multi-tag cloud in the corpus")
    if not re.search(r"\[\d+-\d+\]", report):
        failures.append("no time bin rendered")
    if not re.search(r"(, -|\[-)", report):
        failures.append("no placeholder rendered")
    _report(6, "tags have recounted support >= 0.1 and match the report grammar",
            failures)


def test_criterion_7_determinism(tmp_path):
    failures = []
    blobs = []
    for name in ("first", "second"):
        records, profiles = synth_corpus(400, 40, 8000, seed=77)
        store = run(PipelineConfig(seed=77), records, profiles)
        path = tmp_path / f"store_{name}.json"
        save_store(store, str(path))

        config = PipelineConfig(seed=77)
        table = learner_table(records, profiles, config.delta0)
        details = quantify_nominal(table, config)
        sv, pv = details["strategy"].values, details["presentation"].values
        values_doc = export_values(sv, "strategy", tmp_path / f"v_{name}.svg")

        biggest = max(table.members, key=len)
        coords = table.coords({"strategy": sv, "presentation": pv})
        group = group_rows(coords[biggest], config.k_max, config.gamma, config.seed)
        par_doc = export_parcoords(group.x, group.labels, tmp_path / f"p_{name}.svg")
        blobs.append((path.read_bytes(), values_doc.encode(), par_doc.encode()))
    for label, first, second in zip(("store", "values SVG", "parcoords SVG"),
                                    blobs[0], blobs[1]):
        if first != second:
            failures.append(f"{label} differs between identical runs")
    _report(7, "identical seeds give byte-identical store JSON and SVG exports",
            failures)


def test_criterion_8_scale():
    failures = []
    records, profiles = synth_corpus(5000, 500, 100_000, seed=88)
    start = perf_counter()
    store = run(PipelineConfig(seed=88), records, profiles)
    elapsed = perf_counter() - start
    if elapsed >= 60.0:
        failures.append(f"100,000-rating run took {elapsed:.1f}s, bound is 60s")
    if not any(cloud.tags for cloud in store.values()):
        failures.append("100,000-rating run tagged nothing")

    # paper-scale stretch: no time bound, must only complete in memory
    records, profiles = synth_corpus(278_858, 2_000, 1_149_780, seed=89,
                                     skew=0.9)
    store = run(PipelineConfig(seed=89), records, profiles)
    if not store:
        failures.append("stretch run produced an empty store")
    _report(8, "100,000-rating run under 60 s; 1,149,780-rating run completes",
            failures)


def test_criterion_9_similarity_report(tmp_path):
    failures = []
    cases = []
    records, profiles = synth_corpus(300, 30, 6000, seed=99)
    config = PipelineConfig(seed=99)
    details = quantify_nominal(learner_table(records, profiles, config.delta0), config)
    cases.extend(d.values for d in details.values())
    rng = np.random.default_rng(90)
    for _ in range(20):
        cases.append({p: float(rng.integers(0, 12)) for p in range(1, 6)})

    pair_re = re.compile(r"\((\d+),(\d+)\)")
    for i, values in enumerate(cases):
        doc = export_values(values, "strategy", tmp_path / "v.svg")
        annotated = {}
        for kind in ("nearest", "farthest"):
            text = re.search(rf">{kind}: ([^<]*)</text>", doc).group(1)
            annotated[kind] = {(int(a), int(b))
                               for a, b in pair_re.findall(text)}
        dists = {(a, b): abs(values[a] - values[b])
                 for a, b in combinations(sorted(values), 2)}
        lo, hi = min(dists.values()), max(dists.values())
        if annotated["nearest"] != {p for p, d in dists.items() if d == lo}:
            failures.append(f"case {i}: nearest pairs wrong")
        if annotated["farthest"] != {p for p, d in dists.items() if d == hi}:
            failures.append(f"case {i}: farthest pairs wrong")
    _report(9, "nearest/farthest annotations equal the exhaustive pair scan",
            failures)
