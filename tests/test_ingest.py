"""Ingest tests: file parsing, profile synthesis, time bins, and the
learner table's subsets and profile checks."""
from __future__ import annotations

import itertools
import json

import numpy as np
import pytest
from hypothesis import given, strategies as st

from learntags import (
    LearnerProfile,
    MalformedRowError,
    RatingRecord,
    discretize_time,
    find_profile,
    generate_profiles,
    learner_table,
    parse_profiles,
    parse_ratings,
    render_profiles,
    render_ratings,
)
from learntags.ingest import MAX_HOURS, TimeBin, _profile_violation
from learntags.mine import apriori

from conftest import build_subset, high_ratings

RATINGS_HEADER_LINE = '"User-ID";"ISBN";"Book-Rating"\n'

# Opaque id tokens: non-empty printable text without the characters the
# csv layer would have to escape differently per dialect.
id_text = st.text(
    alphabet=st.characters(min_codepoint=33, max_codepoint=126),
    min_size=1,
    max_size=12,
)


class TestParseRatings:
    def test_direct_field_mapping(self):
        stream = RATINGS_HEADER_LINE + '"276725";"034545104X";"7"\n'
        result = parse_ratings(stream)
        assert result.records == [RatingRecord("276725", "034545104X", 7)]
        assert result.dropped_zero == 0
        assert result.malformed == 0

    def test_rating_zero_dropped(self):
        stream = RATINGS_HEADER_LINE + '"276726";"0155061224";"0"\n'
        result = parse_ratings(stream)
        assert result.records == []
        assert result.dropped_zero == 1

    def test_header_mismatch_rejected(self):
        with pytest.raises(ValueError, match="header"):
            parse_ratings('"User";"ISBN";"Rating"\n"a";"b";"5"\n')

    def test_empty_stream_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            parse_ratings("")

    def test_unsplittable_row_reports_line(self):
        stream = RATINGS_HEADER_LINE + '"u1";"b1";"5"\n"u2";"' + "b" * 200_000 + '";"5"\n'
        with pytest.raises(MalformedRowError, match="line 3: field larger than field limit"):
            parse_ratings(stream)

    def test_seeded_malformed_rows_counted(self):
        """1000 data rows, 37 malformed; counts match a line validator."""
        rng = np.random.default_rng(1234)
        rows = []
        for i in range(963):
            rows.append(f'"u{i}";"b{rng.integers(50)}";"{rng.integers(0, 11)}"')
        breakers = [
            '"u";"b"',                 # missing field
            '"";"b";"5"',              # empty learner id
            '"u";"";"5"',              # empty resource id
            '"u";"b";"eleven"',        # non-integer rating
            '"u";"b";"11"',            # rating out of range
            '"u";"b";"-1"',            # rating out of range
        ]
        for i in range(37):
            rows.append(breakers[i % len(breakers)])
        order = rng.permutation(len(rows))
        stream = RATINGS_HEADER_LINE + "\n".join(rows[j] for j in order) + "\n"

        # independent per-line validation, no csv machinery
        expect_bad = 0
        expect_zero = 0
        for j in order:
            fields = rows[j].split(";")
            vals = [f[1:-1] for f in fields]
            ok = (
                len(vals) == 3
                and vals[0] != ""
                and vals[1] != ""
                and vals[2].lstrip("-").isdigit()
                and 0 <= int(vals[2]) <= 10
            )
            if not ok:
                expect_bad += 1
            elif int(vals[2]) == 0:
                expect_zero += 1

        result = parse_ratings(stream)
        assert expect_bad == 37
        assert result.malformed == expect_bad
        assert result.dropped_zero == expect_zero
        assert len(result.records) == 1000 - expect_bad - expect_zero

    @given(
        st.lists(
            st.tuples(id_text, id_text, st.integers(min_value=1, max_value=10)),
            max_size=30,
        )
    )
    def test_round_trip_identity(self, triples):
        records = [RatingRecord(u, b, r) for u, b, r in triples]
        parsed = parse_ratings(render_ratings(records))
        assert parsed.records == records
        assert parsed.malformed == 0
        assert parsed.dropped_zero == 0


class TestParseProfiles:
    HEADER = "learner_id,a1,a2,a3,a4,a5_hours\n"

    def test_direct_mapping(self):
        result = parse_profiles(self.HEADER + "u1,2,5,3,4,25\n")
        (p,) = result.profiles
        assert (p.learner_id, p.current_skill, p.target_skill) == ("u1", 2, 5)
        assert (p.strategy, p.presentation, p.hours) == (3, 4, 25)

    def test_target_must_exceed_current(self):
        result = parse_profiles(self.HEADER + "u2,4,4,1,1,10\n")
        assert result.profiles == []
        assert result.rejected == [(2, "a2 must exceed a1")]

    def test_boundary_values_accepted(self):
        result = parse_profiles(self.HEADER + "u3,1,6,5,5,60\n")
        (p,) = result.profiles
        assert (p.current_skill, p.target_skill, p.strategy, p.presentation, p.hours) == (
            1, 6, 5, 5, 60,
        )

    @pytest.mark.parametrize(
        "row,reason",
        [
            ("u,0,5,3,4,25", "a1 out of range 1..6"),
            ("u,2,7,3,4,25", "a2 out of range 1..6"),
            ("u,2,5,0,4,25", "a3 out of range 1..5"),
            ("u,2,5,3,6,25", "a4 out of range 1..5"),
            ("u,2,5,3,4,-1", "a5 must be non-negative"),
            ("u,2,5,3,4", "expected 6 fields, got 5"),
            (",2,5,3,4,25", "empty learner id"),
            ("u,2,5,x,4,25", "non-integer attribute value"),
        ],
    )
    def test_rejection_reasons(self, row, reason):
        result = parse_profiles(self.HEADER + row + "\n")
        assert result.profiles == []
        assert result.rejected == [(2, reason)]

    def test_hours_above_cap_rejected_with_line(self):
        stream = (self.HEADER + f"u1,2,5,3,4,{MAX_HOURS}\n"
                  f"u2,2,5,3,4,{MAX_HOURS + 1}\nu3,1,2,1,1,{10**20}\n")
        result = parse_profiles(stream)
        assert [(p.learner_id, p.hours) for p in result.profiles] == [("u1", MAX_HOURS)]
        reason = f"a5 above the cap of {MAX_HOURS} hours"
        assert result.rejected == [(3, reason), (4, reason)]

    def test_hours_cap_fits_the_mining_code_space(self):
        # The largest item codes a capped profile yields still count in apriori.
        top = (6, 6, 5, 5, (MAX_HOURS - 1) // 10 + 1)
        assert apriori(np.array([top]), 1.0)[-1].fields == top
        assert MAX_HOURS >= 10**6

    def test_duplicates_keep_last(self):
        stream = self.HEADER + "u1,2,5,3,4,25\nu1,1,6,2,2,40\n"
        result = parse_profiles(stream)
        (p,) = result.profiles
        assert (p.current_skill, p.hours) == (1, 40)
        assert result.duplicates == 1

    def test_round_trip_identity(self):
        profiles = generate_profiles([f"u{i}" for i in range(50)], seed=9)
        parsed = parse_profiles(render_profiles(profiles))
        assert parsed.profiles == profiles
        assert parsed.rejected == []


# One profiles data line of the kinds a file can hold: blank, the wrong
# field count, non-integer or out-of-range values, or valid, with ids from
# a small pool so that duplicates are common.
profile_field = st.one_of(
    st.integers(-1, 7).map(str),
    st.sampled_from([str(MAX_HOURS), str(MAX_HOURS + 1), str(10**20), "x", "1.5", ""]),
)
profile_line = st.one_of(
    st.just(""),
    st.builds(lambda lid, fields: ",".join([lid, *fields]),
              st.sampled_from(["u0", "u1", "u2", ""]),
              st.one_of(st.lists(profile_field, min_size=5, max_size=5),
                        st.lists(profile_field, max_size=7))),
    st.builds(lambda lid, a1, step, a3, a4, hours: f"{lid},{a1},{a1 + step},{a3},{a4},{hours}",
              st.sampled_from(["u0", "u1", "u2"]), st.integers(1, 5), st.integers(1, 5),
              st.integers(1, 5), st.integers(1, 5), st.integers(0, MAX_HOURS)),
)


class TestFindProfile:
    HEADER = TestParseProfiles.HEADER

    @given(lines=st.lists(profile_line, max_size=12),
           learner_id=st.sampled_from(["u0", "u1", "u2", "ghost"]))
    def test_matches_parse_profiles(self, lines, learner_id):
        """Oracle: the whole file's parse, cut to the one learner."""
        text = self.HEADER + "".join(line + "\n" for line in lines)
        whole = parse_profiles(text)
        found = find_profile(text, learner_id)
        assert found.profiles == [p for p in whole.profiles if p.learner_id == learner_id]
        assert found.rejected == whole.rejected
        assert found.duplicates == whole.duplicates
        own = [(line, reason) for line, reason in whole.rejected
               if lines[line - 2].split(",")[0] == learner_id]
        assert found.learner_rejected == (own[-1] if own else None)
        assert whole.learner_rejected is None

    def test_rejected_last_row_keeps_earlier_valid_one(self):
        stream = self.HEADER + "u1,2,5,3,4,25\nu2,1,2,1,1,5\nu1,5,2,3,4,25\n"
        result = find_profile(stream, "u1")
        assert result.profiles == [LearnerProfile("u1", 2, 5, 3, 4, 25)]
        assert result.rejected == [(4, "a2 must exceed a1")]
        assert result.learner_rejected == (4, "a2 must exceed a1")
        assert result.duplicates == 0

    def test_header_mismatch_rejected(self):
        with pytest.raises(ValueError, match="unexpected profiles header"):
            find_profile("learner,a1,a2,a3,a4,a5\nu1,2,5,3,4,25\n", "u1")
        with pytest.raises(ValueError, match="empty"):
            find_profile("", "u1")

    def test_unsplittable_row_reports_line(self):
        stream = self.HEADER + "u1,2,5,3,4,25\n" + "u" * 200_000 + ",2,5,3,4,25\n"
        with pytest.raises(MalformedRowError) as info:
            find_profile(stream, "u1")
        assert info.value.line == 3
        assert info.value.reason.startswith("field larger than field limit")

    def test_range_check_agrees_with_profile_violation(self):
        """Every row of a grid around the attribute bounds is accepted
        exactly when _profile_violation finds nothing, else rejected with
        its reason."""
        grid = list(itertools.product(range(8), range(8), range(7), range(7),
                                      (-1, 0, MAX_HOURS, MAX_HOURS + 1)))
        text = self.HEADER + "".join(f"u{i},{a1},{a2},{a3},{a4},{a5}\n"
                                     for i, (a1, a2, a3, a4, a5) in enumerate(grid))
        result = parse_profiles(text)
        verdicts = [_profile_violation(LearnerProfile(f"u{i}", *values))
                    for i, values in enumerate(grid)]
        assert result.rejected == [(i + 2, reason) for i, reason in enumerate(verdicts)
                                   if reason is not None]
        assert [p.learner_id for p in result.profiles] == [
            f"u{i}" for i, reason in enumerate(verdicts) if reason is None]


class TestGenerateProfiles:
    def test_deterministic(self):
        ids = [f"u{i}" for i in range(100)]
        assert generate_profiles(ids, seed=5) == generate_profiles(ids, seed=5)

    def test_empty_ids(self):
        assert generate_profiles([], seed=5) == []

    @pytest.mark.parametrize("ids", [["u1"], []])
    def test_negative_seed_named(self, ids):
        with pytest.raises(ValueError, match=r"^seed must be >= 0, got -1$"):
            generate_profiles(ids, seed=-1)

    def test_invariants_hold(self):
        for seed in range(5):
            for p in generate_profiles([f"u{i}" for i in range(500)], seed):
                assert 1 <= p.current_skill <= 5
                assert p.current_skill < p.target_skill <= 6
                assert 1 <= p.strategy <= 5
                assert 1 <= p.presentation <= 5
                assert 1 <= p.hours <= 60

    def test_strategy_frequencies_uniform(self):
        """Each a3 value within 5 standard errors of 10000/5 = 2000."""
        profiles = generate_profiles([f"u{i}" for i in range(10000)], seed=42)
        counts = np.bincount([p.strategy for p in profiles], minlength=6)[1:]
        se = np.sqrt(10000 * 0.2 * 0.8)
        assert counts.sum() == 10000
        assert np.all(np.abs(counts - 2000) <= 5 * se)


class TestTimeBin:
    def test_json_writes_the_pair(self):
        assert json.dumps(TimeBin(41, 50)) == "[41, 50]"

    def test_contains_its_hours(self):
        assert 45 in TimeBin(41, 50)
        assert 41 in TimeBin(41, 50) and 50 in TimeBin(41, 50)
        assert 40 not in TimeBin(41, 50) and 51 not in TimeBin(41, 50)

    def test_orders_by_bounds(self):
        assert TimeBin(1, 10) < TimeBin(11, 20)
        assert sorted([TimeBin(21, 30), TimeBin(1, 10)]) == [TimeBin(1, 10), TimeBin(21, 30)]

    def test_is_a_plain_pair(self):
        assert TimeBin(41, 50) == (41, 50)
        assert TimeBin(41, 50).label() == "[41-50]"


class TestDiscretizeTime:
    def test_paper_bins(self):
        assert discretize_time(45) == TimeBin(41, 50)
        assert discretize_time(51) == TimeBin(51, 60)

    def test_decade_edge(self):
        assert discretize_time(10) == TimeBin(1, 10)
        assert discretize_time(11) == TimeBin(11, 20)
        assert discretize_time(1) == TimeBin(1, 10)

    @pytest.mark.parametrize("hours", [0, -3])
    def test_nonpositive_rejected(self, hours):
        with pytest.raises(ValueError, match="time must be positive"):
            discretize_time(hours)

    @given(st.integers(min_value=1, max_value=10**6))
    def test_bin_contains_hours(self, hours):
        b = discretize_time(hours)
        assert b.lower <= hours <= b.upper
        assert b.upper - b.lower == 9
        assert b.lower % 10 == 1
        assert hours in b


def subsets_of(table) -> dict[str, set[str]]:
    """The learner table's subsets as learner-id sets by resource."""
    return {rid: {table.ids[i] for i in rows}
            for rid, rows in zip(table.resources, table.members)}


class TestBuildSubset:
    """The subsets of ``learner_table``, against the per-resource rescan in conftest."""

    RATINGS = [
        RatingRecord("u1", "r", 7),
        RatingRecord("u2", "r", 6),
        RatingRecord("u3", "r", 5),
    ]
    PROFILES = {lid: LearnerProfile(lid, 1, 2, 1, 1, 5) for lid in ("u1", "u2", "u3")}

    def test_threshold_boundary_inclusive(self):
        table = learner_table(self.RATINGS, self.PROFILES, delta0=6)
        assert subsets_of(table) == {"r": {"u1", "u2"}}

    def test_any_rating_qualifies(self):
        ratings = [RatingRecord("u1", "r", 2), RatingRecord("u1", "r", 9),
                   RatingRecord("u1", "r", 4), RatingRecord("u2", "r", 5)]
        table = learner_table(ratings, self.PROFILES, delta0=6)
        assert table.ids == ["u1"]
        assert subsets_of(table) == {"r": {"u1"}}

    def test_empty_ratings(self):
        table = learner_table([], {}, delta0=6)
        assert table.ids == [] and table.resources == [] and table.members == []
        assert table.attrs.shape == (0, 5)

    def test_absent_resource(self):
        table = learner_table(self.RATINGS + [RatingRecord("u1", "low", 3)], self.PROFILES,
                              delta0=6)
        assert table.resources == ["r"]

    @pytest.mark.parametrize("delta0", [0, 11])
    def test_delta0_bounds(self, delta0):
        with pytest.raises(ValueError, match=f"delta0 must be in 1..10, got {delta0}"):
            learner_table(self.RATINGS, self.PROFILES, delta0)

    def test_matches_independent_rescan(self):
        from conftest import synth_corpus

        records, profiles = synth_corpus(300, 40, 5000, seed=11)
        table = learner_table(records, profiles, delta0=6)

        oracle: dict[str, set] = {}
        for r in records:
            if r.rating >= 6:
                oracle.setdefault(r.resource_id, set()).add(r.learner_id)
        assert subsets_of(table) == oracle

    def test_all_subsets_equals_per_resource(self):
        from conftest import synth_corpus

        records, profiles = synth_corpus(100, 15, 800, seed=3)
        subsets = subsets_of(learner_table(records, profiles, delta0=6))
        for rid in {r.resource_id for r in records}:
            single = build_subset(records, rid, delta0=6)
            if single:
                assert subsets[rid] == single
            else:
                assert rid not in subsets

    @given(
        records=st.lists(
            st.builds(RatingRecord, st.sampled_from([f"u{i}" for i in range(8)]),
                      st.sampled_from([f"r{i}" for i in range(6)]), st.integers(1, 10)),
            max_size=60,
        ),
        delta0=st.integers(1, 10),
    )
    def test_rescan_property(self, records, delta0):
        """Repeated (learner, resource) pairs mixing low and high ratings,
        resources rated low only, any delta0: the table holds the rescan."""
        profiles = {f"u{i}": LearnerProfile(f"u{i}", 1, 2, 1, 1, 5) for i in range(8)}
        table = learner_table(records, profiles, delta0)
        rescan = {rid: build_subset(records, rid, delta0)
                  for rid in {r.resource_id for r in records}}
        assert table.resources == sorted(rid for rid, m in rescan.items() if m)
        for rid, rows in zip(table.resources, table.members):
            assert [table.ids[i] for i in rows] == sorted(rescan[rid])
        assert table.ids == sorted(set().union(*rescan.values()))


class TestLearnerTableChecks:
    """``learner_table`` is the one place that checks subset members' profiles."""

    def test_check_order(self):
        """A missing profile, then every strategy, then every presentation,
        then the hours cap: each fix exposes the next failure."""
        ratings = high_ratings({"r": {"u1", "u2", "u3", "u4"}})
        profiles = {
            "u1": LearnerProfile("u1", 1, 2, 1, 1, MAX_HOURS + 1),
            "u2": LearnerProfile("u2", 1, 2, 1, 0, 5),
            "u3": LearnerProfile("u3", 1, 2, 9, 1, 5),
        }
        with pytest.raises(KeyError, match="no profile for learner 'u4'"):
            learner_table(ratings, profiles, 10)
        profiles["u4"] = LearnerProfile("u4", 1, 2, 1, 1, 5)
        with pytest.raises(ValueError, match="learner 'u3' has strategy 9, expected 1..5"):
            learner_table(ratings, profiles, 10)
        profiles["u3"] = LearnerProfile("u3", 1, 2, 2, 1, 5)
        with pytest.raises(ValueError, match="learner 'u2' has presentation 0, expected 1..5"):
            learner_table(ratings, profiles, 10)
        profiles["u2"] = LearnerProfile("u2", 1, 2, 1, 2, 5)
        with pytest.raises(ValueError, match=rf"learner 'u1': a5 hours {MAX_HOURS + 1} above"):
            learner_table(ratings, profiles, 10)
        profiles["u1"] = LearnerProfile("u1", 1, 2, 1, 1, MAX_HOURS)
        assert learner_table(ratings, profiles, 10).ids == ["u1", "u2", "u3", "u4"]

    def test_profiles_of_non_members_are_not_read(self):
        profiles = {"u1": LearnerProfile("u1", 1, 2, 1, 1, 5),
                    "other": LearnerProfile("other", 1, 2, 7, 7, 10**20)}
        table = learner_table(high_ratings({"r": {"u1"}}), profiles, 10)
        assert table.ids == ["u1"]
        assert [m.tolist() for m in table.members] == [[0]]
