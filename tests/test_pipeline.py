"""Pipeline tests: run(), rendering, matching, and the JSON store."""
from __future__ import annotations

import builtins
import importlib
import json
import logging
import re
import tempfile
from collections import Counter
from dataclasses import asdict, fields
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from learntags import (
    KTraceEntry,
    LearnerProfile,
    PipelineConfig,
    Provenance,
    RatingRecord,
    Tag,
    TagCloud,
    TagStore,
    learner_table,
    load_store,
    match_resources,
    render_report,
    render_tag,
    run,
    save_store,
)
from learntags.ingest import MAX_HOURS, TimeBin, discretize_time
from learntags.pipeline import MAX_NMF_K, SKIP_NO_ITEMSET, SKIP_SMALL_SUBSET, STORE_SCHEMA

VALUE_MAPS = {
    "strategy": {1: 5.0, 2: 10.0, 3: 15.0, 4: 20.0, 5: 25.0},
    "presentation": {1: 2.0, 2: 4.0, 3: 6.0, 4: 8.0, 5: 10.0},
}


def tag_store(clouds: dict) -> TagStore:
    """Clouds built in a test, with the default config and fixed value maps."""
    return TagStore(clouds, PipelineConfig(), VALUE_MAPS)


def store_doc(resources: dict) -> dict:
    """A schema-2 store document around ``resources``, as save_store writes it."""
    return {
        "schema": STORE_SCHEMA,
        "config": asdict(PipelineConfig()),
        "values": {a: {str(p): v for p, v in m.items()} for a, m in VALUE_MAPS.items()},
        "resources": resources,
    }

TAG_FIELD = r"(?:\d+|-)"
TAG_BIN = r"(?:\[\d+-\d+\]|-)"
TAG_RE = re.compile(
    rf"^\[{TAG_FIELD}, {TAG_FIELD}, {TAG_BIN}, {TAG_FIELD}, {TAG_FIELD}\]$"
)


def parse_tag(text: str) -> Tag:
    """Inverse of render_tag, written for the round-trip test."""
    assert text.startswith("[") and text.endswith("]")
    fields = text[1:-1].split(", ")
    assert len(fields) == 5

    def opt_int(v):
        return None if v == "-" else int(v)

    bin_field = fields[2]
    if bin_field == "-":
        time_bin = None
    else:
        lo, hi = bin_field[1:-1].split("-")
        time_bin = TimeBin(int(lo), int(hi))
    return Tag(
        current_skill=opt_int(fields[0]),
        target_skill=opt_int(fields[1]),
        time_bin=time_bin,
        strategy_value=None if fields[3] == "-" else float(fields[3]),
        presentation_value=None if fields[4] == "-" else float(fields[4]),
    )


class TestPipelineConfig:
    def test_defaults_valid(self):
        config = PipelineConfig()
        assert (config.delta0, config.support_sl, config.nmf_k) == (6, 0.1, 10)
        assert (config.k_max, config.gamma, config.min_subset) == (8, 2.0, 10)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"delta0": 0},
            {"delta0": 11},
            {"support_sl": 0.0},
            {"support_sl": 1.5},
            {"nmf_k": 0},
            {"nmf_k": 1001},
            {"nmf_max_iters": 0},
            {"nmf_tol": -1.0},
            {"k_max": 0},
            {"gamma": 1.0},
            {"min_subset": 0},
            {"support_sl": float("nan")},
            {"nmf_tol": float("nan")},
            {"nmf_tol": float("inf")},
            {"gamma": float("nan")},
            {"gamma": float("inf")},
            {"seed": -1},
        ],
    )
    def test_bad_values_rejected(self, kwargs):
        with pytest.raises(ValueError):
            PipelineConfig(**kwargs)

    def test_features_bounded_above(self):
        """The bound is checked on the value; nothing of its size is built."""
        assert PipelineConfig(nmf_k=MAX_NMF_K).nmf_k == 1000
        for k in (MAX_NMF_K + 1, 10**8):
            with pytest.raises(ValueError, match=rf"^nmf_k must be <= 1000, got {k}$"):
                PipelineConfig(nmf_k=k)


class TestRun:
    def small_corpus(self, seed: int = 2):
        from conftest import synth_corpus

        return synth_corpus(200, 12, 4000, seed=seed)

    def test_all_low_ratings_give_empty_map(self):
        records = [RatingRecord(f"u{i}", "r1", 3) for i in range(30)]
        profiles = {
            f"u{i}": LearnerProfile(f"u{i}", 1, 2, 1, 1, 5) for i in range(30)
        }
        store = run(PipelineConfig(), records, profiles)
        assert dict(store) == {}
        assert store.config == PipelineConfig()

    def test_thin_subsets_recorded_as_skipped(self):
        records = [RatingRecord(f"u{i}", "r1", 9) for i in range(4)]
        profiles = {
            f"u{i}": LearnerProfile(f"u{i}", 1, 2, 1, 1, 5) for i in range(4)
        }
        store = run(PipelineConfig(), records, profiles)
        assert store["r1"].skipped == SKIP_SMALL_SUBSET
        assert store["r1"].tags == []
        assert store["r1"].provenance.subset_size == 4

    def test_info_summary_counts_each_skip_reason(self, caplog):
        records, profiles = self.small_corpus()
        records += [RatingRecord(lid, "thin", 9) for lid in sorted(profiles)[:4]]
        with caplog.at_level(logging.INFO, logger="learntags.pipeline"):
            store = run(PipelineConfig(seed=5, support_sl=0.5), records, profiles)
        skips = Counter(c.skipped for c in store.values())
        assert skips == {None: 2, SKIP_SMALL_SUBSET: 1, SKIP_NO_ITEMSET: 10}
        assert (f"tagged 2 of 13 resources (skipped: 1 {SKIP_SMALL_SUBSET}, "
                f"10 {SKIP_NO_ITEMSET}; 0 with no rating >= 6)") in caplog.messages

    def test_one_shot_ratings_read_once(self, caplog):
        """A generator of ratings gives the list's store and summary counts."""
        records, profiles = self.small_corpus()
        records += [RatingRecord(lid, "low", 3) for lid in sorted(profiles)[:5]]
        config = PipelineConfig(seed=5)
        want = run(config, records, profiles)
        with caplog.at_level(logging.INFO, logger="learntags.pipeline"):
            got = run(config, (r for r in records), profiles)
        assert got == want
        skips = Counter(c.skipped for c in want.values())
        assert len(want) == 12 and skips[None] > 0
        assert (f"tagged {skips[None]} of 13 resources (skipped: "
                f"{skips[SKIP_SMALL_SUBSET]} {SKIP_SMALL_SUBSET}, "
                f"{skips[SKIP_NO_ITEMSET]} {SKIP_NO_ITEMSET}; 1 with no rating >= 6)"
                ) in caplog.messages

    def test_deterministic_store_bytes(self, tmp_path):
        records, profiles = self.small_corpus()
        config = PipelineConfig(seed=5)
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        save_store(run(config, records, profiles), p1)
        save_store(run(config, list(records), dict(profiles)), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_tagged_resources_meet_thresholds(self):
        records, profiles = self.small_corpus()
        config = PipelineConfig(seed=5)
        store = run(config, records, profiles)
        assert any(cloud.tags for cloud in store.values())
        by_resource: dict[str, dict[str, int]] = {}
        for r in records:
            best = by_resource.setdefault(r.resource_id, {})
            best[r.learner_id] = max(best.get(r.learner_id, 0), r.rating)
        for rid, cloud in store.items():
            if cloud.skipped is not None:
                continue
            assert cloud.provenance.subset_size >= config.min_subset
            qualified = {
                lid for lid, score in by_resource[rid].items()
                if score >= config.delta0
            }
            assert len(qualified) == cloud.provenance.subset_size

    def test_tag_supports_recounted(self):
        from conftest import items_from_tag, recover_clusters

        records, profiles = self.small_corpus(seed=7)
        config = PipelineConfig(seed=3)
        store = run(config, records, profiles)
        clusters, strategy_values, presentation_values = recover_clusters(
            records, profiles, config
        )
        checked = 0
        for rid, cloud in store.items():
            if not cloud.tags:
                continue
            transactions = clusters[rid]
            assert cloud.provenance.cluster_size == len(transactions)
            for tag in cloud.tags:
                best = 0.0
                for items in items_from_tag(tag, strategy_values, presentation_values):
                    contained = sum(1 for t in transactions if items <= t.items)
                    best = max(best, contained / len(transactions))
                assert best >= config.support_sl
                assert best == pytest.approx(cloud.provenance.support)
                checked += 1
        assert checked > 0

    def test_each_learner_encoded_once(self, monkeypatch):
        import learntags.pipeline as pipeline
        from conftest import items_array, recover_clusters

        records, profiles = self.small_corpus()
        config = PipelineConfig(seed=5)
        tables = []
        mined = []
        build, mine = pipeline.learner_table, pipeline.tag_itemsets_batch
        monkeypatch.setattr(pipeline, "learner_table",
                            lambda *args: tables.append(build(*args)) or tables[-1])
        monkeypatch.setattr(pipeline, "tag_itemsets_batch",
                            lambda clusters, sl: mined.extend(clusters) or mine(clusters, sl))
        store = run(config, records, profiles)
        # One table per run, one row per subset member.
        assert len(tables) == 1
        members = {r.learner_id for r in records if r.rating >= config.delta0}
        assert tables[0].ids == sorted(members)
        # The table rows mined equal fresh encodings of every mined cluster.
        clusters, _, _ = recover_clusters(records, profiles, config)
        assert [m.tolist() for m in mined] == [
            items_array(clusters[rid]).tolist() for rid in sorted(clusters)]
        # Learners sit in several mined clusters, so encoding per cluster
        # member would have encoded more often.
        assert sum(c.provenance.cluster_size or 0 for c in store.values()) > len(members)

    def test_cooccurrence_built_once(self, monkeypatch):
        """One co-occurrence pass, over the one table the run coded."""
        import learntags.pipeline as pipeline

        quantify_module = importlib.import_module("learntags.quantify")
        records, profiles = self.small_corpus()
        tables, calls = [], []
        build_table, build = pipeline.learner_table, quantify_module.build_cooccurrence

        def counting(table):
            calls.append(table)
            return build(table)

        monkeypatch.setattr(pipeline, "learner_table",
                            lambda *args: tables.append(build_table(*args)) or tables[-1])
        monkeypatch.setattr(quantify_module, "build_cooccurrence", counting)
        run(PipelineConfig(seed=5), records, profiles)
        assert len(tables) == len(calls) == 1
        assert calls[0] is tables[0]

    def test_trace_hook_sees_every_clustered_resource(self):
        records, profiles = self.small_corpus()
        config = PipelineConfig(seed=5)
        seen: dict[str, list] = {}
        store = run(config, records, profiles, trace_hook=lambda r, t: seen.setdefault(r, t))
        clustered = {rid for rid, c in store.items() if c.skipped != SKIP_SMALL_SUBSET}
        assert set(seen) == clustered
        for rid, trace in seen.items():
            assert [e.k for e in trace][-1] == 1

    def test_one_rater_resource_is_swept_as_one_fit(self):
        """With min_subset 1 a one-row subset takes the shared sweep: one
        fit at k = 1 of SSE and diameter 0, its row the largest cluster,
        so the cloud is the rater's whole profile at support 1."""
        records, profiles = self.small_corpus()
        solo = profiles["u000007"]
        records.append(RatingRecord(solo.learner_id, "solo", 9))
        seen: dict[str, list] = {}
        store = run(PipelineConfig(seed=5, min_subset=1), records, profiles,
                    trace_hook=lambda r, t: seen.setdefault(r, t))
        assert seen["solo"] == [KTraceEntry(1, 0.0, 0.0)]
        strategy, presentation = (store.value_maps[a] for a in ("strategy", "presentation"))
        assert store["solo"] == TagCloud("solo", [Tag(
            solo.current_skill, solo.target_skill, discretize_time(max(solo.hours, 1)),
            strategy[solo.strategy], presentation[solo.presentation])],
            Provenance(subset_size=1, chosen_k=1, cluster_size=1, support=1.0))

    def test_store_carries_config_and_value_maps(self):
        from learntags import quantify_nominal

        records, profiles = self.small_corpus()
        config = PipelineConfig(seed=5)
        store = run(config, records, profiles)
        table = learner_table(records, profiles, config.delta0)
        details = quantify_nominal(table, config)
        assert store.config == config
        assert store.value_maps == {a: details[a].values for a in ("strategy", "presentation")}
        # The mapping side holds resource ids and clouds only.
        assert sorted(store) == table.resources == sorted(store.clouds)
        assert all(isinstance(c, TagCloud) for c in store.values())

    def test_hours_above_cap_name_the_learner(self):
        from conftest import high_ratings

        profiles = {"u1": LearnerProfile("u1", 1, 2, 1, 1, 5),
                    "u2": LearnerProfile("u2", 1, 2, 1, 1, MAX_HOURS + 1)}
        with pytest.raises(ValueError, match=rf"learner 'u2'.*{MAX_HOURS}"):
            learner_table(high_ratings({"r1": {"u1", "u2"}}), profiles, 10)
        huge = dict(profiles, u2=LearnerProfile("u2", 1, 2, 1, 1, 10**20))
        with pytest.raises(ValueError, match="learner 'u2'"):
            run(PipelineConfig(min_subset=1), [RatingRecord(lid, "r1", 9) for lid in huge], huge)


class TestRenderTag:
    def test_full_tag(self):
        tag = Tag(6, 6, TimeBin(41, 50), 24240.0, 20549.0)
        assert render_tag(tag) == "[6, 6, [41-50], 24240, 20549]"

    def test_partial_tag(self):
        tag = Tag(None, 6, TimeBin(41, 50), None, None)
        assert render_tag(tag) == "[-, 6, [41-50], -, -]"

    def test_values_rounded(self):
        tag = Tag(1, 2, None, 1234.49, 1234.51)
        assert render_tag(tag) == "[1, 2, -, 1234, 1235]"

    @pytest.mark.parametrize(
        "tag",
        [
            Tag(6, 6, TimeBin(41, 50), 24240.0, 20549.0),
            Tag(None, None, TimeBin(1, 10), None, 7.0),
            Tag(3, None, None, 12.0, None),
        ],
    )
    def test_render_parse_round_trip(self, tag):
        text = render_tag(tag)
        assert TAG_RE.match(text)
        assert render_tag(parse_tag(text)) == text


class TestMatchResources:
    def build_store(self) -> TagStore:
        """Two resources ranked with VALUE_MAPS: strategy 3 is 15.0 and
        presentation 4 is 8.0."""
        full = Tag(2, 5, TimeBin(21, 30), 15.0, 8.0)
        return tag_store({
            "match": TagCloud("match", [full], Provenance(20, 2, 12, 0.5)),
            "other": TagCloud(
                "other", [Tag(6, None, None, None, None)], Provenance(15, 1, 15, 0.4)
            ),
        })

    def test_exact_match_scores_one(self):
        profile = LearnerProfile("u1", 2, 5, 3, 4, 25)
        ranked = match_resources(profile, self.build_store(), top_n=2)
        assert ranked[0] == ("match", 1.0)

    def test_single_resource_always_returned(self):
        only = tag_store({"other": self.build_store()["other"]})
        profile = LearnerProfile("u1", 1, 2, 1, 1, 1)
        assert match_resources(profile, only, top_n=5) == [("other", 0.0)]

    def test_hours_below_one_match_the_first_bin(self):
        # The miner puts hours < 1 into [1-10], so such a tag describes them.
        store = tag_store({"r": TagCloud("r", [Tag(time_bin=TimeBin(1, 10))],
                                         Provenance(10, 1, 10, 1.0))})
        profile = LearnerProfile("u0", 1, 2, 1, 1, 0)
        assert match_resources(profile, store, top_n=1) == [("r", 1.0)]
        other = tag_store({"r": TagCloud("r", [Tag(time_bin=TimeBin(11, 20))],
                                         Provenance(10, 1, 10, 1.0))})
        assert match_resources(profile, other, top_n=1) == [("r", 0.0)]

    def test_validation(self):
        profile = LearnerProfile("u1", 1, 2, 1, 1, 1)
        with pytest.raises(ValueError, match="top_n"):
            match_resources(profile, self.build_store(), top_n=0)
        with pytest.raises(ValueError, match="empty"):
            match_resources(profile, tag_store({}), top_n=3)

    def test_ranks_with_the_stores_value_maps(self):
        """The same clouds rank differently under another run's value maps."""
        store = self.build_store()
        profile = LearnerProfile("u1", 2, 5, 3, 4, 25)
        assert match_resources(profile, store, top_n=1) == [("match", 1.0)]
        swapped = {"strategy": {**VALUE_MAPS["strategy"], 2: 15.0, 3: 10.0},
                   "presentation": VALUE_MAPS["presentation"]}
        moved = TagStore(store.clouds, store.config, swapped)
        assert match_resources(profile, moved, top_n=1) == [("match", 0.8)]

    @pytest.mark.parametrize("value", [10.0, 12.5])
    def test_nearest_parameter_ties_to_the_smaller_id(self, value):
        """Strategies 2 and 4 share 10.0, and 12.5 is as near 15.0 (id 3):
        each stored value maps to id 2, however many tags hold it."""
        values = {"strategy": {1: 5.0, 2: 10.0, 3: 15.0, 4: 10.0, 5: 25.0},
                  "presentation": VALUE_MAPS["presentation"]}
        tags = [Tag(strategy_value=value), Tag(1, None, None, value, None)]
        store = TagStore({"r": TagCloud("r", tags, Provenance(10, 1, 10, 0.5))},
                         PipelineConfig(), values)
        ranked = {strategy: match_resources(LearnerProfile("u", 2, 5, strategy, 1, 5), store, 1)
                  for strategy in (2, 3, 4)}
        assert ranked == {2: [("r", 1.0)], 3: [("r", 0.0)], 4: [("r", 0.0)]}

    def test_matches_independent_scoring(self):
        """20-resource seeded store against a second formula implementation."""
        import numpy as np

        rng = np.random.default_rng(14)
        sv = {p: float(rng.uniform(0, 100)) for p in range(1, 6)}
        pv = {p: float(rng.uniform(0, 100)) for p in range(1, 6)}
        def maybe(value, p=0.7):
            return value if rng.random() < p else None

        clouds = {}
        for i in range(20):
            tags = []
            for _ in range(int(rng.integers(1, 3))):
                lo = 1 + 10 * int(rng.integers(0, 6))
                tag = Tag(
                    maybe(int(rng.integers(1, 7))),
                    maybe(int(rng.integers(1, 7))),
                    maybe(TimeBin(lo, lo + 9)),
                    maybe(sv[int(rng.integers(1, 6))]),
                    maybe(pv[int(rng.integers(1, 6))]),
                )
                if all(
                    v is None
                    for v in (tag.current_skill, tag.target_skill, tag.time_bin,
                              tag.strategy_value, tag.presentation_value)
                ):
                    tag = Tag(1, None, None, None, None)
                tags.append(tag)
            clouds[f"r{i:02d}"] = TagCloud(f"r{i:02d}", tags, Provenance(10, 1, 10, 0.2))
        store = TagStore(clouds, PipelineConfig(), {"strategy": sv, "presentation": pv})
        profile = LearnerProfile("u1", 3, 5, 2, 4, 33)

        def nearest(values, target):
            return min(sorted(values), key=lambda p: abs(values[p] - target))

        def score_tag(t):
            present, matched = 0, 0
            if t.current_skill is not None:
                present += 1
                matched += t.current_skill == profile.current_skill
            if t.target_skill is not None:
                present += 1
                matched += t.target_skill == profile.target_skill
            if t.time_bin is not None:
                present += 1
                matched += t.time_bin.lower <= profile.hours <= t.time_bin.upper
            if t.strategy_value is not None:
                present += 1
                matched += nearest(sv, t.strategy_value) == profile.strategy
            if t.presentation_value is not None:
                present += 1
                matched += nearest(pv, t.presentation_value) == profile.presentation
            return matched / present if present else 0.0

        expected = sorted(
            ((rid, max(score_tag(t) for t in cloud.tags)) for rid, cloud in store.items()),
            key=lambda rs: (-rs[1], rs[0]),
        )[:7]
        assert match_resources(profile, store, top_n=7) == expected


class TestStore:
    def test_empty_store_round_trips(self, tmp_path):
        path = tmp_path / "store.json"
        store = tag_store({})
        save_store(store, path)
        assert path.read_text() == json.dumps(store_doc({}), indent=2, sort_keys=True) + "\n"
        assert load_store(path) == store

    def test_multi_tag_order_preserved(self, tmp_path):
        tags = [
            Tag(1, 2, TimeBin(1, 10), 5.0, 6.0),
            Tag(2, 3, None, None, 7.0),
        ]
        store = tag_store({"r1": TagCloud("r1", tags, Provenance(12, 2, 8, 0.25))})
        path = tmp_path / "store.json"
        save_store(store, path)
        loaded = load_store(path)
        assert loaded["r1"].tags == tags
        assert loaded["r1"].provenance == Provenance(12, 2, 8, 0.25)
        assert loaded["r1"].skipped is None

    def test_skip_reason_round_trips(self, tmp_path):
        store = tag_store({"r1": TagCloud("r1", [], Provenance(3), skipped=SKIP_SMALL_SUBSET)})
        path = tmp_path / "store.json"
        save_store(store, path)
        assert load_store(path)["r1"].skipped == SKIP_SMALL_SUBSET

    def test_500_resource_round_trip(self, tmp_path):
        import numpy as np

        rng = np.random.default_rng(18)
        store = {}
        for i in range(500):
            lo = 1 + 10 * int(rng.integers(0, 6))
            tag = Tag(
                int(rng.integers(1, 7)),
                int(rng.integers(1, 7)),
                TimeBin(lo, lo + 9) if rng.random() < 0.8 else None,
                float(np.round(rng.uniform(0, 3e4), 6)) if rng.random() < 0.8 else None,
                None,
            )
            store[f"r{i:03d}"] = TagCloud(
                f"r{i:03d}", [tag],
                Provenance(int(rng.integers(10, 99)), int(rng.integers(1, 9)),
                           int(rng.integers(2, 60)), float(rng.uniform(0.1, 1.0))),
            )
        store = tag_store(store)
        path = tmp_path / "store.json"
        save_store(store, path)
        loaded = load_store(path)
        assert loaded == store

        save_store(loaded, tmp_path / "again.json")
        assert (tmp_path / "again.json").read_bytes() == path.read_bytes()

    def test_malformed_file_reports_location(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{"r1": {"tags": [')
        with pytest.raises(ValueError, match="line|column|char"):
            load_store(path)

    def test_malformed_entry_names_resource(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(store_doc({"r9": {"tags": [{}], "provenance": {}}})))
        with pytest.raises(ValueError, match="r9"):
            load_store(path)

    @staticmethod
    def store_with(tmp_path, tag=None, provenance=None):
        """A one-resource store file with some fields replaced."""
        entry = {
            "tags": [{"current_skill": 2, "target_skill": 5, "time_bin": [41, 50],
                      "strategy_value": 12.5, "presentation_value": 3}],
            "provenance": {"subset_size": 12, "chosen_k": 2, "cluster_size": 8,
                           "support": 0.25},
        }
        entry["tags"][0].update(tag or {})
        entry["provenance"].update(provenance or {})
        path = tmp_path / "store.json"
        path.write_text(json.dumps(store_doc({"r7": entry})))
        return path

    def test_well_typed_fields_load(self, tmp_path):
        (tag,) = load_store(self.store_with(tmp_path))["r7"].tags
        assert tag == Tag(2, 5, TimeBin(41, 50), 12.5, 3)
        assert type(tag.time_bin) is TimeBin

    @pytest.mark.parametrize("record, name", [
        *[("tag", f.name) for f in fields(Tag)],
        *[("provenance", f.name) for f in fields(Provenance)],
        *[("config", f.name) for f in fields(PipelineConfig)],
    ])
    def test_string_in_any_field_rejected(self, tmp_path, record, name):
        if record == "config":
            doc = store_doc({})
            doc["config"][name] = "6"
            path = tmp_path / "store.json"
            path.write_text(json.dumps(doc))
            where = "malformed store config"
        else:
            path = self.store_with(tmp_path, **{record: {name: "6"}})
            where = "tag in resource 'r7'" if record == "tag" else "provenance of resource 'r7'"
        with pytest.raises(ValueError, match=rf"{where}: {name} must be .*, got '6'$"):
            load_store(path)

    def test_skill_given_as_string_rejected(self, tmp_path):
        path = self.store_with(tmp_path, tag={"current_skill": "6"})
        with pytest.raises(ValueError, match=r"resource 'r7'.*current_skill must be an int"):
            load_store(path)

    def test_skill_given_as_bool_rejected(self, tmp_path):
        path = self.store_with(tmp_path, tag={"target_skill": True})
        with pytest.raises(ValueError, match=r"resource 'r7'.*target_skill must be an int"):
            load_store(path)

    def test_value_given_as_string_rejected(self, tmp_path):
        path = self.store_with(tmp_path, tag={"strategy_value": "12.5"})
        with pytest.raises(ValueError, match=r"resource 'r7'.*strategy_value must be a number"):
            load_store(path)

    @pytest.mark.parametrize("bin_pair", [["a", 10], [41, 50, 60], [41], 41, [41.0, 50],
                                          [50, 41], [41, 51], [40, 49], [0, 9], [-9, 0]])
    def test_time_bin_not_two_ints_rejected(self, tmp_path, bin_pair):
        path = self.store_with(tmp_path, tag={"time_bin": bin_pair})
        with pytest.raises(ValueError, match=r"resource 'r7'.*time_bin must be null or two ints"):
            load_store(path)

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    @pytest.mark.parametrize("field", ["strategy_value", "presentation_value"])
    def test_non_finite_tag_value_rejected(self, tmp_path, field, value):
        path = self.store_with(tmp_path, tag={field: value})
        with pytest.raises(ValueError, match=rf"resource 'r7'.*{field} must be a number"):
            load_store(path)

    @pytest.mark.parametrize("skipped", [5, None, ["subset below threshold"]])
    def test_skip_reason_not_a_string_rejected(self, tmp_path, skipped):
        path = tmp_path / "store.json"
        path.write_text(json.dumps(store_doc({"r7": {"tags": [], "skipped": skipped, "provenance": {
            "subset_size": 3, "chosen_k": None, "cluster_size": None, "support": None}}})))
        with pytest.raises(ValueError, match=r"resource 'r7': skipped must be a string"):
            load_store(path)

    def test_tag_not_an_object_rejected(self, tmp_path):
        path = tmp_path / "store.json"
        path.write_text(json.dumps(store_doc({"r7": {"tags": [[1, 2]], "provenance": {
            "subset_size": 3, "chosen_k": None, "cluster_size": None, "support": None}}})))
        with pytest.raises(ValueError, match=r"tag in resource 'r7': expected an object"):
            load_store(path)

    @pytest.mark.parametrize("field, value", [
        ("subset_size", "12"), ("subset_size", None), ("chosen_k", 2.0),
        ("cluster_size", "8"), ("support", "0.25"), ("support", float("nan")),
        ("support", float("inf")),
    ])
    def test_provenance_mistyped_rejected(self, tmp_path, field, value):
        path = self.store_with(tmp_path, provenance={field: value})
        with pytest.raises(ValueError, match=rf"provenance of resource 'r7': {field} must be"):
            load_store(path)

    def test_save_replaces_the_store_atomically(self, tmp_path, monkeypatch):
        import learntags.pipeline as pipeline

        path = tmp_path / "store.json"
        save_store(tag_store({"r1": TagCloud("r1", [Tag(current_skill=1)],
                                             Provenance(10, 1, 5, 0.5))}), path)
        before = path.read_bytes()

        def failing_open(*args, **kwargs):
            """A file whose one write stops halfway with an error."""
            fh = builtins.open(*args, **kwargs)

            def write(text):
                type(fh).write(fh, text[:len(text) // 2])
                raise RuntimeError("disk full")

            fh.write = write
            return fh

        monkeypatch.setattr(pipeline, "open", failing_open, raising=False)
        with pytest.raises(RuntimeError, match="disk full"):
            save_store(tag_store({"r2": TagCloud("r2", [], Provenance(3))}), path)
        assert path.read_bytes() == before
        assert sorted(p.name for p in tmp_path.iterdir()) == ["store.json"]

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_value_not_saved(self, tmp_path, value):
        """save_store refuses what load_store would reject, and the
        previous store stays byte-identical."""
        path = tmp_path / "store.json"
        save_store(tag_store({"r1": TagCloud("r1", [Tag(current_skill=1)],
                                             Provenance(10, 1, 5, 0.5))}), path)
        before = path.read_bytes()
        bad = tag_store({"r2": TagCloud("r2", [Tag(strategy_value=value)],
                                        Provenance(10, 1, 5, 0.5))})
        with pytest.raises(ValueError, match="not JSON compliant"):
            save_store(bad, path)
        assert path.read_bytes() == before
        assert sorted(p.name for p in tmp_path.iterdir()) == ["store.json"]


stored_value_maps = st.fixed_dictionaries({
    attribute: st.fixed_dictionaries({
        p: st.floats(allow_nan=False, allow_infinity=False) for p in range(1, 6)})
    for attribute in ("strategy", "presentation")
})
configs = st.builds(
    PipelineConfig,
    delta0=st.integers(1, 10),
    support_sl=st.floats(0, 1, exclude_min=True),
    nmf_k=st.integers(1, 64),
    nmf_max_iters=st.integers(1, 10**6),
    nmf_tol=st.floats(0, 1),
    k_max=st.integers(1, 32),
    gamma=st.floats(1, 1e9, exclude_min=True),
    seed=st.integers(0, 2**40),
    min_subset=st.integers(1, 10**4),
)


class TestStoreHeader:
    """The schema-2 header: schema version, config and value maps."""

    @given(configs, stored_value_maps)
    def test_header_round_trips(self, config, value_maps):
        store = TagStore({"r1": TagCloud("r1", [Tag(1, 2, None, value_maps["strategy"][3], None)],
                                         Provenance(12, 2, 8, 0.25))},
                         config, value_maps)
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "store.json"
            save_store(store, path)
            loaded = load_store(path)
            assert loaded == store
            assert (loaded.config, loaded.value_maps) == (config, value_maps)
            save_store(loaded, Path(tmp) / "again.json")
            assert (Path(tmp) / "again.json").read_bytes() == path.read_bytes()

    def test_run_store_round_trips(self, tmp_path):
        from conftest import synth_corpus

        store = run(PipelineConfig(seed=5), *synth_corpus(200, 12, 4000, seed=2))
        save_store(store, tmp_path / "store.json")
        loaded = load_store(tmp_path / "store.json")
        assert loaded == store
        assert sorted(loaded) == sorted(store.clouds)

    def test_equality_compares_config_and_value_maps(self):
        store = tag_store({"r1": TagCloud("r1", [], Provenance(3), skipped=SKIP_SMALL_SUBSET)})
        assert store == tag_store(dict(store.clouds))
        assert store != TagStore(store.clouds, PipelineConfig(seed=1), VALUE_MAPS)
        moved = {**VALUE_MAPS, "strategy": {**VALUE_MAPS["strategy"], 3: 15.5}}
        assert store != TagStore(store.clouds, PipelineConfig(), moved)
        assert store != tag_store({})

    @staticmethod
    def write(tmp_path, doc) -> Path:
        path = tmp_path / "store.json"
        path.write_text(json.dumps(doc))
        return path

    def test_headerless_store_asks_for_a_rerun(self, tmp_path):
        old = {"r1": {"tags": [], "provenance": {"subset_size": 3, "chosen_k": None,
                                                 "cluster_size": None, "support": None}}}
        with pytest.raises(ValueError, match=r"no schema header.*re-run `learntags tag`"):
            load_store(self.write(tmp_path, old))

    @pytest.mark.parametrize("schema", [1, 3, "2", 2.0, True])
    def test_unknown_schema_rejected(self, tmp_path, schema):
        doc = dict(store_doc({}), schema=schema)
        with pytest.raises(ValueError, match=rf"store schema {re.escape(repr(schema))} is not"):
            load_store(self.write(tmp_path, doc))

    @pytest.mark.parametrize("field", ["config", "values", "resources"])
    def test_missing_header_field_named(self, tmp_path, field):
        doc = store_doc({})
        del doc[field]
        with pytest.raises(ValueError, match=rf"no {field} field"):
            load_store(self.write(tmp_path, doc))

    def test_value_map_missing_an_id_rejected(self, tmp_path):
        doc = store_doc({})
        del doc["values"]["strategy"]["4"]
        with pytest.raises(ValueError, match=r"strategy must map the ids 1\.\.5 to numbers"):
            load_store(self.write(tmp_path, doc))

    @pytest.mark.parametrize("value", ["6.0", None, True, [6.0], float("nan"), float("inf"),
                                       float("-inf")])
    def test_value_not_a_number_rejected(self, tmp_path, value):
        doc = store_doc({})
        doc["values"]["presentation"]["3"] = value
        with pytest.raises(ValueError, match=r"presentation must map the ids 1\.\.5 to numbers"):
            load_store(self.write(tmp_path, doc))

    def test_value_maps_for_other_attributes_rejected(self, tmp_path):
        doc = store_doc({})
        doc["values"]["hours"] = doc["values"].pop("presentation")
        with pytest.raises(ValueError, match=r"malformed store values: expected maps"):
            load_store(self.write(tmp_path, doc))

    @pytest.mark.parametrize("change, message", [
        ({"gamma": 1.0}, "gamma must exceed 1"),
        ({"delta0": 0}, "delta0 must be in 1..10"),
        ({"delta0": "6"}, "delta0 must be an int"),
        ({"k_max": 8.0}, "k_max must be an int"),
        ({"support_sl": None}, "support_sl must be a number"),
        ({"nmf_k": None, "features": 10}, "nmf_k must be an int"),
        ({"colour": "red"}, r"unknown fields \['colour'\]"),
        ({"nmf_tol": float("nan")}, "nmf_tol must be a number, got nan"),
        ({"gamma": float("inf")}, "gamma must be a number, got inf"),
        ({"seed": -1}, "seed must be >= 0, got -1"),
        ({"nmf_k": 1001}, "nmf_k must be <= 1000, got 1001"),
    ])
    def test_invalid_config_rejected(self, tmp_path, change, message):
        doc = store_doc({})
        doc["config"].update(change)
        with pytest.raises(ValueError, match=rf"malformed store config: {message}"):
            load_store(self.write(tmp_path, doc))

    def test_missing_config_field_named(self, tmp_path):
        doc = store_doc({})
        del doc["config"]["seed"]
        with pytest.raises(ValueError, match="malformed store config: no seed field"):
            load_store(self.write(tmp_path, doc))


class TestRenderReport:
    def test_lines_and_joining(self):
        store = {
            "b": TagCloud("b", [Tag(1, 2, None, None, None),
                                Tag(None, None, TimeBin(1, 10), None, None)],
                          Provenance(10, 1, 10, 0.5)),
            "a": TagCloud("a", [Tag(6, None, None, None, None)],
                          Provenance(10, 1, 10, 0.5)),
            "skipped": TagCloud("skipped", [], Provenance(2), skipped=SKIP_SMALL_SUBSET),
        }
        report = render_report(store)
        lines = report.splitlines()
        assert lines == [
            "a\t[6, -, -, -, -]",
            "b\t[1, 2, -, -, -] and [-, -, [1-10], -, -]",
        ]
        assert report.endswith("\n")

    def test_empty_store(self):
        assert render_report({}) == ""


class TestPackageExports:
    def test_every_exported_name_resolves_once(self):
        learntags = importlib.import_module("learntags")
        assert len(set(learntags.__all__)) == len(learntags.__all__)
        missing = [name for name in learntags.__all__ if not hasattr(learntags, name)]
        assert missing == []
