"""Ingest tests: file parsing, profile synthesis, time bins, and the
learner table's subsets and profile checks."""
from __future__ import annotations

import csv
import io
import itertools
import json
import sys
import tracemalloc

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
)
from learntags.ingest import (
    _DOC_ID_MAX,
    MAX_HOURS,
    ProfilesResult,
    TimeBin,
    _profile_violation,
    _read_document,
)
from learntags.mine import apriori

from conftest import (
    build_subset,
    high_ratings,
    oracle_parse_ratings,
    oracle_scan_profiles,
    render_ratings,
)

RATINGS_HEADER_LINE = '"User-ID";"ISBN";"Book-Rating"\n'

# Opaque id tokens: non-empty printable text without the characters the
# csv layer would have to escape differently per dialect.
id_text = st.text(
    alphabet=st.characters(min_codepoint=33, max_codepoint=126),
    min_size=1,
    max_size=12,
)

ARABIC_INDIC = str.maketrans("0123456789", "\u0660\u0661\u0662\u0663\u0664"
                                           "\u0665\u0666\u0667\u0668\u0669")


def int_texts(value: int) -> st.SearchStrategy[str]:
    """Texts of ``value`` as a data file may hold them: canonical half of
    the time, else padded, zero-led, signed, underscored or in
    Arabic-Indic digits, which ``int()`` also reads (for a negative value
    some are not integers at all)."""
    text = str(value)
    return st.one_of(st.just(text),
                     st.sampled_from([f" {text}", f"{text} ", f"0{text}", f"+{text}",
                                      "_".join(text), text.translate(ARABIC_INDIC)]))


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

    def test_equal_ids_share_one_object(self):
        """Equal ids are one str object across the records, from canonical
        and non-canonical rows alike, and across the two id columns."""
        stream = RATINGS_HEADER_LINE + '"u1";"b1";"7"\n"u1";"b2";"8"\n"b1";"u1";" 9"\n'
        first, second, third = parse_ratings(stream).records
        assert first.learner_id is second.learner_id is third.resource_id
        assert first.resource_id is third.learner_id

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

    def test_over_long_integer_called_too_long(self):
        """int() refuses more digits than the interpreter's limit; the row
        is rejected as too long, not as a non-integer."""
        limit = sys.get_int_max_str_digits()
        stream = (self.HEADER + "u1,2,5,3,4," + "1" * 5_000 + "\n"
                  + "u2,2,5,3,4," + "x" * 50 + "\n")
        result = parse_profiles(stream)
        assert result.profiles == []
        assert result.rejected == [(2, f"attribute value too long (over {limit} characters)"),
                                   (3, "non-integer attribute value")]

    def test_over_long_rating_is_malformed(self):
        stream = RATINGS_HEADER_LINE + '"u1";"b1";"' + "7" * 5_000 + '"\n"u1";"b2";"7"\n'
        result = parse_ratings(stream)
        assert result.records == [RatingRecord("u1", "b2", 7)]
        assert result.malformed == 1

    def test_hours_around_the_table_end(self):
        """999 is the last canonical text in the hours table; 1000 and
        0999 take the general check and parse to the same values."""
        stream = self.HEADER + "u1,2,5,3,4,999\nu2,2,5,3,4,1000\nu3,2,5,3,4,0999\n"
        result = parse_profiles(stream)
        assert [p.hours for p in result.profiles] == [999, 1000, 999]
        assert result.rejected == [] and result.duplicates == 0

    def test_crlf_and_quoted_fields(self):
        """Line ends and quoting are the reader's: the rows parse as their
        plain LF, unquoted form does, and a quoted newline moves the
        line numbers after it."""
        plain = self.HEADER + "u1,2,5,3,4,25\nu2,1,2,1,1,5\nu1,1,6,2,2,40\nu3,4,4,1,1,5\n"
        crlf = ('learner_id,a1,a2,a3,a4,a5_hours\r\n"u1",2,5,3,4,25\r\n'
                'u2,"1","2",1,1,5\r\n"u1",1,6,2,2,"40"\r\nu3,4,4,1,1,5\r\n')
        assert parse_profiles(crlf) == parse_profiles(plain)
        assert parse_profiles(plain).duplicates == 1
        shifted = self.HEADER + '"u\n0",1,2,1,1,5\nu3,4,4,1,1,5\n'
        assert parse_profiles(shifted).rejected == [(4, "a2 must exceed a1")]

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
# field count, non-integer or out-of-range values, or valid, and values on
# and around the bounds (the hours table ends at 999), canonical or in
# other texts int() reads, with ids from a small pool so that duplicates
# are common.  The csv layer's own forms ride along: quoted ids and
# fields, a quoted field holding a newline, which shifts every later line
# number, NUL bytes, and CRLF line ends (a line ending in "\r" gets its
# "\n" from the file).
profile_field = st.one_of(
    st.integers(-1, 7).flatmap(int_texts),
    st.sampled_from([str(MAX_HOURS), str(MAX_HOURS + 1), str(10**20), "x", "1.5", "",
                     "999", "1000", "0999"]),
)
profile_row = st.one_of(
    st.just(""),
    st.builds(lambda lid, fields: ",".join([lid, *fields]),
              st.sampled_from(["u0", "u1", "u2", ""]),
              st.one_of(st.lists(profile_field, min_size=5, max_size=5),
                        st.lists(profile_field, max_size=7))),
    st.builds(lambda lid, a1, step, a3, a4, hours: f"{lid},{a1},{a1 + step},{a3},{a4},{hours}",
              st.sampled_from(["u0", "u1", "u2"]), st.integers(1, 5), st.integers(1, 5),
              st.integers(1, 5), st.integers(1, 5),
              st.one_of(st.integers(0, MAX_HOURS), st.sampled_from([998, 999, 1000]))),
    st.builds(lambda lid, fields: ",".join([lid, *fields]),
              st.sampled_from(["u0", "u1", "u2"]),
              st.tuples(st.integers(0, 6), st.integers(0, 2), st.integers(0, 6),
                        st.integers(0, 6),
                        st.sampled_from([-1, 0, 45, 999, 1000, MAX_HOURS, MAX_HOURS + 1]))
              .map(lambda v: (v[0], v[0] + v[1], *v[2:]))
              .flatmap(lambda values: st.one_of(st.just(tuple(map(str, values))),
                                                st.tuples(*map(int_texts, values))))),
    st.builds(lambda lid, values: ",".join([lid, *map(str, values)]),
              st.sampled_from(["u0", "u1", ""]),
              st.tuples(st.integers(0, 7), st.integers(0, 7), st.integers(0, 6),
                        st.integers(0, 6), st.sampled_from([0, 45, 999, 1000]))),
    st.sampled_from(['"u1",2,5,3,4,25', '"u1","2","5","3","4","999"', 'u2,1,2,1,"1",1000',
                     '"u\n1",2,5,3,4,25', 'u1,2,5,3,4,"25\n"', 'u2,2,5,3,4,"2\n5"',
                     '"u0",2,"5\n\n",3,4,7', 'u\x001,2,5,3,4,25', 'u1,2,5,3,4,2\x005',
                     '"",2,5,3,4,25']),
)
profile_line = st.builds(str.__add__, profile_row, st.sampled_from(["", "\r"]))


def ids_by_line(text: str) -> dict[int, str]:
    """The first field of each non-blank data row of a profiles ``text``,
    by the line number the csv reader reports for the row."""
    reader = csv.reader(io.StringIO(text))
    next(reader)
    return {reader.line_num: row[0] for row in reader if row}


# Profiles documents of canonical rows only, which the parsers check as
# one document, with at most one perturbation that sends a document to
# the row loop: a quoted field, a blank line, a lone CR, a NUL, a BOM, a
# " 1" text, another non-canonical or out-of-range value, or a CRLF
# header, which leaves it canonical.  Ids hold spaces, non-ASCII text and
# separators that str.splitlines() would split at but the CSV reader does
# not, and run to _DOC_ID_MAX characters and one past it; a small pool
# makes duplicates common.
canonical_id = st.one_of(
    st.sampled_from(["u0", "u1", "u2", "a b", " u1", "\u00e9", "u\u00a01", "u\u20281",
                     "u\x851", "u\x0c1", "x" * _DOC_ID_MAX, "y" * (_DOC_ID_MAX + 1)]),
    st.text(st.characters(blacklist_characters=',"\r\n\x00', blacklist_categories=("Cs",)),
            min_size=1, max_size=6),
)
canonical_fields = st.builds(
    lambda lid, pair, a3, a4, hours: [lid, *map(str, (*pair, a3, a4, hours))],
    canonical_id,
    st.sampled_from([(a1, a2) for a1 in range(1, 7) for a2 in range(a1 + 1, 7)]),
    st.integers(1, 5), st.integers(1, 5), st.integers(0, 999))
ROW_PERTURBATIONS = ["quote", "space", "NUL", "lone CR", "value"]
PERTURBATIONS = [None, "blank", "BOM", "CRLF header", *ROW_PERTURBATIONS]
# Texts that are never canonical in an attribute column, or in the hours.
OFF_ATTRIBUTE = ["0", "7", "01", "+1", "\u0661"]
OFF_HOURS = ["1000", "00", "01", "+1", "\u0661"]


@st.composite
def canonical_documents(draw):
    """A profiles text, the ids of its rows, and whether it is canonical."""
    rows = draw(st.lists(canonical_fields, max_size=10))
    ends = draw(st.lists(st.sampled_from(["\n", "\r\n"]), min_size=len(rows),
                         max_size=len(rows)))
    if rows and draw(st.booleans()):
        ends[-1] = ""
    header = TestParseProfiles.HEADER
    perturbation = draw(st.sampled_from(PERTURBATIONS))
    if rows and perturbation in ROW_PERTURBATIONS:
        i = draw(st.integers(0, len(rows) - 1))
        k = draw(st.integers(0, 5))
        if perturbation == "value":
            k = max(k, 1)
            rows[i][k] = draw(st.sampled_from(OFF_HOURS if k == 5 else OFF_ATTRIBUTE))
        elif perturbation == "quote":
            rows[i][k] = f'"{rows[i][k]}"'
        elif perturbation == "space":
            rows[i][k] = " " + rows[i][k]
        elif perturbation == "NUL":
            rows[i][0] += "\x00"
        else:
            ends[i] = "\r"
    elif perturbation == "BOM":
        header = "\ufeff" + header
    elif perturbation == "CRLF header":
        header = header.replace("\n", "\r\n")
    lines = [",".join(fields) + end for fields, end in zip(rows, ends)]
    if perturbation == "blank":
        lines.insert(draw(st.integers(0, len(lines))), "\n")
    perturbed = perturbation in ("blank", "BOM") or rows and perturbation in ROW_PERTURBATIONS
    canonical = not perturbed and all(len(fields[0]) <= _DOC_ID_MAX for fields in rows)
    return header + "".join(lines), [fields[0] for fields in rows], canonical


# One ratings data line: blank, the wrong field count, an empty id, or a
# rating text that is canonical, another text int() reads, out of range
# or not an integer, with ids from a small pool so that learners repeat.
rating_text = st.one_of(st.sampled_from([-1, 0, 1, 7, 10, 11]).flatmap(int_texts),
                        st.sampled_from(["x", "", "1.5", "100"]))
rating_id = st.sampled_from(["u0", "u1", "b0", "b1", ""])
ratings_line = st.one_of(
    st.just(""),
    st.lists(st.one_of(rating_id, rating_text), max_size=5),
    st.tuples(rating_id, rating_id, rating_text),
).map(lambda fields: ";".join(f'"{f}"' for f in fields))


class TestMatchesRowwiseOracles:
    """The parsers' tables of canonical texts against the row-by-row
    ``int()`` checks they replaced (conftest)."""

    HEADER = TestParseProfiles.HEADER

    @given(lines=st.lists(ratings_line, max_size=15))
    def test_parse_ratings(self, lines):
        text = RATINGS_HEADER_LINE + "".join(line + "\n" for line in lines)
        result = parse_ratings(text)
        assert result == oracle_parse_ratings(text)
        assert all(type(r) is RatingRecord for r in result.records)

    @given(lines=st.lists(profile_line, max_size=12),
           learner_id=st.sampled_from(["u0", "u1", "u2", "ghost"]))
    def test_parse_and_find_profile(self, lines, learner_id):
        """Every field of both results, ``learner_rejected`` included,
        equals the row-by-row scan's."""
        text = self.HEADER + "".join(line + "\n" for line in lines)
        scanned, by_id = oracle_scan_profiles(text, learner_id)
        whole, found = parse_profiles(text), find_profile(text, learner_id)
        assert whole.profiles == [LearnerProfile(lid, *values) for lid, values in by_id.items()]
        assert found.profiles == ([LearnerProfile(learner_id, *by_id[learner_id])]
                                  if learner_id in by_id else [])
        assert (whole.duplicates, found.duplicates) == (scanned.duplicates, 0)
        for result in (whole, found):
            assert result.rejected == scanned.rejected
            assert all(type(p) is LearnerProfile for p in result.profiles)
        assert found.learner_rejected == scanned.learner_rejected
        assert whole.learner_rejected is None

    @staticmethod
    def assert_scans_like_oracle(make, learner_id):
        """``parse_profiles`` and ``find_profile`` of the input ``make()``
        returns equal the row-by-row scan's, or raise its error: a bad
        header's, or a MalformedRowError at the same line."""
        try:
            scanned, by_id = oracle_scan_profiles(make(), learner_id)
        except ValueError as expected:
            for parse in (parse_profiles, lambda stream: find_profile(stream, learner_id)):
                with pytest.raises(type(expected)) as info:
                    parse(make())
                assert str(info.value) == str(expected)
            return
        whole, found = parse_profiles(make()), find_profile(make(), learner_id)
        assert whole == ProfilesResult([LearnerProfile(lid, *values)
                                        for lid, values in by_id.items()],
                                       scanned.rejected, scanned.duplicates)
        own = [LearnerProfile(learner_id, *by_id[learner_id])] if learner_id in by_id else []
        assert found == ProfilesResult(own, scanned.rejected, 0, scanned.learner_rejected)
        assert all(type(p) is LearnerProfile for p in whole.profiles + found.profiles)

    @given(document=canonical_documents(), data=st.data())
    def test_canonical_documents(self, document, data):
        """A canonical document is checked as one, and a perturbed one goes
        to the row loop; both agree with the row-by-row scan, as a ``str``,
        as a stream that splits lines at CR, LF and CRLF alike, and as one
        that splits them at LF only."""
        text, ids, canonical = document
        learner_id = data.draw(st.sampled_from(ids + ["ghost", "", "u1,2"]))
        assert (_read_document(text)[0] is not None) == canonical
        assert (_read_document(io.StringIO(text, newline=""))[0] is not None) == canonical
        for make in (lambda: text, lambda: io.StringIO(text, newline=""),
                     lambda: io.StringIO(text)):
            self.assert_scans_like_oracle(make, learner_id)

    def test_document_check_refuses_every_other_value(self):
        """A one-row document is checked as one exactly when its row is
        valid and canonical: every (a1, a2, a3, a4) around the bounds, and
        hours texts around the table's end and in other forms."""
        for values in itertools.product(range(8), range(8), range(7), range(7)):
            text = self.HEADER + "u1,{},{},{},{},5\n".format(*values)
            valid = 1 <= values[0] < values[1] <= 6 and all(1 <= v <= 5 for v in values[2:])
            assert (_read_document(text)[0] is not None) == valid, values
        canonical = [str(v) for v in range(1000)]
        for hours in canonical + OFF_HOURS + [" 1", "1 ", "-0", "0x1"]:
            text = self.HEADER + f"u1,1,2,1,1,{hours}\n"
            assert (_read_document(text)[0] is not None) == (hours in canonical)
            self.assert_scans_like_oracle(lambda: text, "u1")

    @pytest.mark.parametrize("newline", [None, "", "\n", "\r", "\r\n"])
    def test_every_newline_mode_of_a_file(self, newline):
        """A file is read as its own newline mode splits it into lines:
        LF, CRLF and mixed line ends, and a lone CR inside a row, which
        only a universal-newlines mode reads as a line end."""
        rows = ["u1,2,5,3,4,25", "u2,1,2,1,1,5", "u1,1,6,2,2,40"]
        for ends in (["\n"] * 4, ["\r\n"] * 4, ["\r\n", "\n", "\r\n", ""],
                     ["\n", "\r", "\n", "\n"]):
            data = "".join(map(str.__add__, [self.HEADER.strip(), *rows], ends)).encode()
            self.assert_scans_like_oracle(
                lambda: io.TextIOWrapper(io.BytesIO(data), encoding="utf-8", newline=newline),
                "u1")

    def test_id_holding_a_comma_is_not_found(self):
        text = self.HEADER + "u1,2,5,3,4,25\n"
        found = find_profile(text, "u1,2")
        assert found == ProfilesResult([], [], 0)
        self.assert_scans_like_oracle(lambda: text, "u1,2")
        assert find_profile(text, "u1").profiles == [LearnerProfile("u1", 2, 5, 3, 4, 25)]

    def test_empty_learner_id_is_not_found(self):
        text = self.HEADER + "u1,2,5,3,4,25\n"
        assert find_profile(text, "") == ProfilesResult([], [], 0)
        rejected = text + ",2,5,3,4,25\n"
        assert find_profile(rejected, "").learner_rejected == (3, "empty learner id")
        for stream in (text, rejected):
            self.assert_scans_like_oracle(lambda: stream, "")

    def test_field_size_limit_below_the_id_cap(self):
        """Below _DOC_ID_MAX the CSV reader's size limit decides, so every
        document goes to the row loop, which raises at the long id."""
        text = self.HEADER + "u1,2,5,3,4,25\n" + "x" * _DOC_ID_MAX + ",1,2,1,1,5\n"
        assert _read_document(text)[0] is not None
        old = csv.field_size_limit(_DOC_ID_MAX - 1)
        try:
            assert _read_document(text)[0] is None
            with pytest.raises(MalformedRowError) as info:
                parse_profiles(text)
            assert (info.value.line, info.value.reason) == (
                3, f"field larger than field limit ({_DOC_ID_MAX - 1})")
            self.assert_scans_like_oracle(lambda: text, "u1")
            short = self.HEADER + "u1,2,5,3,4,25\nu1,1,2,1,1,5\n"
            self.assert_scans_like_oracle(lambda: short, "u1")
        finally:
            csv.field_size_limit(old)

    @given(lines=st.lists(profile_line, max_size=12), at=st.integers(0, 12))
    def test_unsplittable_row_raises_at_its_line(self, lines, at):
        """A bare CR inside an unquoted field, which the reader cannot
        split, raises at the line the row-by-row scan names."""
        lines.insert(at, "u1,2\r5,3,4,25")
        text = self.HEADER + "".join(line + "\n" for line in lines)
        with pytest.raises(MalformedRowError) as expected:
            oracle_scan_profiles(text)
        for parse in (parse_profiles, lambda text: find_profile(text, "u1")):
            with pytest.raises(MalformedRowError) as info:
                parse(text)
            assert (info.value.line, info.value.reason) == (expected.value.line,
                                                            expected.value.reason)


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
        assert found.duplicates == 0
        ids = ids_by_line(text)
        own = [(line, reason) for line, reason in whole.rejected if ids[line] == learner_id]
        assert found.learner_rejected == (own[-1] if own else None)
        assert whole.learner_rejected is None

    U1 = LearnerProfile("u1", 2, 5, 3, 4, 25)

    @pytest.mark.parametrize("rows, learner_id, expected", [
        pytest.param("u10,1,2,1,1,5\nu1x,1,3,1,1,6\nu1,2,5,3,4,25\nu100,1,4,1,1,7\n", "u1",
                     U1, id="prefix of other ids"),
        pytest.param("u1,2,5,3,4,25\nu2,1,2,1,1,5\n", "u1", U1, id="first row only"),
        pytest.param("u2,1,2,1,1,5\nu1,2,5,3,4,25", "u1", U1, id="last row, no final LF"),
        pytest.param("u2,1,2,1,1,5\r\nu1,2,5,3,4,25\r\nu3,1,2,1,1,5\r\n", "u1", U1,
                     id="CRLF"),
        pytest.param("u1,1,6,2,2,40\nu2,1,2,1,1,5\nu1,2,5,3,4,25\n", "u1", U1,
                     id="repeated, last wins"),
        pytest.param("u1,2,5,3,4,25\n", "u1,2", None, id="id holding a comma"),
        pytest.param("u1,2,5,3,4,25\n", "", None, id="empty id"),
        pytest.param("u1,2,5,3,4,25\n", "learner_id", None, id="the header's first field"),
        pytest.param("x" * _DOC_ID_MAX + ",2,5,3,4,25\n", "x" * (_DOC_ID_MAX + 1), None,
                     id="id over the cap"),
    ])
    def test_canonical_document_lookup(self, rows, learner_id, expected):
        """The learner's last row of a canonical document, as a ``str``
        and as a universal-newlines stream, as the row-by-row scan finds it."""
        text = self.HEADER + rows
        assert _read_document(text)[0] is not None
        own = [] if expected is None else [expected]
        for make in (lambda: text, lambda: io.StringIO(text, newline="")):
            assert find_profile(make(), learner_id) == ProfilesResult(own)
            TestMatchesRowwiseOracles.assert_scans_like_oracle(make, learner_id)

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


class TestDocumentMemory:
    """A canonical document is checked and searched in place: no list of
    its fields, no regex state that grows with its rows, and no copy of
    a ``str``'s body."""

    TEXT = TestParseProfiles.HEADER + "".join(
        f"u{i:06d},{1 + i % 5},6,{1 + i % 3},{1 + i % 4},{i % 1000}\n" for i in range(20_000))

    @staticmethod
    def peak_bytes(call) -> int:
        """The peak of the Python allocations that ``call()`` makes."""
        tracemalloc.start()
        try:
            call()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_read_document_peak(self):
        assert self.peak_bytes(lambda: _read_document(self.TEXT)) < 0.25 * len(self.TEXT)

    def test_find_profile_peak(self):
        assert find_profile(self.TEXT, "u010000").profiles == [
            LearnerProfile("u010000", 1, 6, 2, 1, 0)]
        assert self.peak_bytes(lambda: find_profile(self.TEXT, "u010000")) < 0.25 * len(self.TEXT)


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
