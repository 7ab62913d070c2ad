"""Rating and profile ingestion.

Parses the semicolon-delimited ratings file and the comma-separated
profiles file, or finds one learner's profile in it.  A profiles file
of canonical rows only (plain ids, valid attributes in their shortest
texts, hours below 1,000) is checked as one document by one regular
expression; any other file goes through a row loop, which alone
rejects rows and names their lines.  Ingest also synthesizes missing
profiles with a seeded generator, discretizes learning time into
decade bins, and in one pass over the ratings builds the learner
table that quantification, clustering and mining all read: every
learner who rated some resource at or above a threshold, coded once,
and each resource's high-rating subset as an array of the table's rows.
"""
from __future__ import annotations

import csv
import io
import itertools
import re
import sys
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Iterable, Mapping, NamedTuple

import numpy as np

RATINGS_HEADER = ("User-ID", "ISBN", "Book-Rating")
PROFILES_HEADER = ("learner_id", "a1", "a2", "a3", "a4", "a5_hours")

SKILL_LEVELS = range(1, 7)       # a1, a2
STRATEGY_IDS = range(1, 6)       # a3
PRESENTATION_IDS = range(1, 6)   # a4
# The nominal attributes, each named by its LearnerProfile field; they
# are columns 2 and 3 of the learner table's attrs.  Each has the
# parameter ids 1..N_PARAMS.
ATTRIBUTES = ("strategy", "presentation")
N_PARAMS = 5
# Largest a5 learning time accepted, in hours.  It keeps item codes small:
# mine.apriori codes an itemset as one mixed-radix int64 whose hours
# digit is the decade bin, so hours near 5e16 would overflow it.
MAX_HOURS = 10**6


class MalformedRowError(ValueError):
    """A data row that the CSV reader cannot split, such as one holding
    a field over the reader's size limit."""

    def __init__(self, line: int, reason: str):
        super().__init__(f"line {line}: {reason}")
        self.line = line
        self.reason = reason


class RatingRecord(NamedTuple):
    """One (learner, resource, rating) triple with rating in 1..10."""

    learner_id: str
    resource_id: str
    rating: int


class LearnerProfile(NamedTuple):
    """One learner's five attributes.

    current_skill/target_skill are 1..6 proficiency levels with
    target_skill strictly above current_skill; strategy and presentation
    are categorical ids 1..5; hours is available learning time, at
    most MAX_HOURS.
    """

    learner_id: str
    current_skill: int   # a1
    target_skill: int    # a2
    strategy: int        # a3, nominal
    presentation: int    # a4, nominal
    hours: int           # a5


class TimeBin(NamedTuple):
    """Decade-width, 1-based learning-time bin: [1-10], [11-20], ...  A
    ``(lower, upper)`` tuple, so ``json`` writes it as that pair."""

    lower: int
    upper: int

    def __contains__(self, hours: int) -> bool:
        return self.lower <= hours <= self.upper

    def label(self) -> str:
        return f"[{self.lower}-{self.upper}]"


@dataclass
class RatingsResult:
    records: list[RatingRecord]
    dropped_zero: int = 0      # implicit rating-0 rows
    malformed: int = 0


@dataclass
class ProfilesResult:
    profiles: list[LearnerProfile]
    rejected: list[tuple[int, str]] = field(default_factory=list)  # (line, reason)
    duplicates: int = 0  # counted by parse_profiles only
    learner_rejected: tuple[int, str] | None = None  # set by find_profile only


def _profile_violation(p: LearnerProfile) -> str | None:
    """Return the first constraint a profile violates, or None."""
    if p.current_skill not in SKILL_LEVELS:
        return "a1 out of range 1..6"
    if p.target_skill not in SKILL_LEVELS:
        return "a2 out of range 1..6"
    if p.target_skill <= p.current_skill:
        return "a2 must exceed a1"
    if p.strategy not in STRATEGY_IDS:
        return "a3 out of range 1..5"
    if p.presentation not in PRESENTATION_IDS:
        return "a4 out of range 1..5"
    if p.hours < 0:
        return "a5 must be non-negative"
    if p.hours > MAX_HOURS:
        return f"a5 above the cap of {MAX_HOURS} hours"
    return None


def _check_header(reader, header: tuple[str, ...], name: str) -> None:
    """Read the header row of a csv ``reader``, which must be ``header``."""
    first = next(reader, None)
    if first is None:
        raise ValueError(f"{name} stream is empty, expected a header row")
    if tuple(first) != header:
        raise ValueError(f"unexpected {name} header {first!r}, expected {list(header)!r}")


# The canonical texts of the ratings 0..10, of every valid (a1, a2, a3,
# a4) and of the ints 0..999 (the hours up to 999, and every attribute
# id), with their int values.  A row whose fields hit them needs no int()
# and no range check; any other text, such as " 7", "07" or "+7", and
# hours of 1000 or more take the general checks.
_RATING_OF = {str(v): v for v in range(11)}
_INT_OF = {str(v): v for v in range(1000)}
_VALID_ATTRS = {tuple(map(str, v)): v
                for v in itertools.product(SKILL_LEVELS, SKILL_LEVELS, STRATEGY_IDS,
                                           PRESENTATION_IDS)
                if v[0] < v[1]}
# Builds a record from the tuple of its fields, skipping the Python-level
# __new__ that NamedTuple gives the class.
_new_record = tuple.__new__


def _checked_rating(learner_id: str, resource_id: str, text: str) -> int | None:
    """The rating 0..10 of a 3-field ratings data row, or None if the row
    is malformed."""
    if not learner_id or not resource_id:
        return None
    try:
        rating = int(text)
    except ValueError:
        return None
    return rating if 0 <= rating <= 10 else None


def parse_ratings(stream: Iterable[str] | str) -> RatingsResult:
    """Parse a semicolon-delimited, fully quoted ratings file.

    Rows carrying rating 0 are implicit interactions and are dropped
    (counted in ``dropped_zero``).  Malformed rows are skipped and
    counted in ``malformed``; a row the CSV reader cannot split raises
    MalformedRowError.  Equal ids share one ``str`` object across the
    records.
    """
    if isinstance(stream, str):
        stream = io.StringIO(stream)
    reader = csv.reader(stream, delimiter=";", quotechar='"')
    result = RatingsResult(records=[])
    append = result.records.append
    share = {}.setdefault
    rating_of = _RATING_OF.get
    try:
        _check_header(reader, RATINGS_HEADER, "ratings")
        for row in reader:
            if len(row) == 3:
                learner_id, resource_id, text = row
                rating = rating_of(text)
                if rating is None or not (learner_id and resource_id):
                    rating = _checked_rating(learner_id, resource_id, text)
            elif row:
                rating = None
            else:
                continue
            if rating:
                append(_new_record(RatingRecord, (share(learner_id, learner_id),
                                                  share(resource_id, resource_id), rating)))
            elif rating is None:
                result.malformed += 1
            else:
                result.dropped_zero += 1
    except csv.Error as exc:
        raise MalformedRowError(reader.line_num, str(exc)) from None
    return result


def _checked_values(row: list[str]) -> tuple[int, ...] | str:
    """The five attribute values of a non-blank profiles data row, or the
    reason the row is rejected."""
    if len(row) != 6:
        return f"expected 6 fields, got {len(row)}"
    if not row[0]:
        return "empty learner id"
    try:
        values = tuple(map(int, row[1:]))
    except ValueError:
        # int() also refuses an integer text of more digits than the
        # interpreter's limit (4300 by default).
        limit = sys.get_int_max_str_digits()
        if limit and any(len(text) > limit for text in row[1:]):
            return f"attribute value too long (over {limit} characters)"
        return "non-integer attribute value"
    a1, a2, a3, a4, a5 = values
    # The ranges _profile_violation checks, in one comparison; it runs
    # only on a row that fails, to name the first range the row breaks.
    if 1 <= a1 < a2 <= 6 and 1 <= a3 <= 5 and 1 <= a4 <= 5 and 0 <= a5 <= MAX_HOURS:
        return values
    return _profile_violation(LearnerProfile(row[0], *values))


# The longest learner id a canonical profiles document holds.  Every
# field of such a document is within the CSV reader's default size
# limit, so a document is read by the row loop when the limit is lower.
_DOC_ID_MAX = 256
_HEADER_LINES = tuple(",".join(PROFILES_HEADER) + end for end in ("\n", "\r\n"))
# A profiles file body of canonical rows only: each an id of 1 to
# _DOC_ID_MAX characters, none of which the CSV reader treats specially
# (`,` `"` CR LF NUL); a valid (a1, a2); a3 and a4 in 1..5; hours in the
# canonical texts of 0..999, the hours _INT_OF holds.  Each row ends in
# LF or CRLF, the last one optionally.  The row loop accepts every such
# row, so a body that matches has no rejected rows.  The rows repeat
# possessively (*+): re keeps no backtracking state for each row.
_CANONICAL_ROW = (rf'[^,"\r\n\x00]{{1,{_DOC_ID_MAX}}},(?:1,[2-6]|2,[3-6]|3,[4-6]|4,[56]|5,6),'
                  r'[1-5],[1-5],(?:0|[1-9][0-9]{0,2})')
_CANONICAL_BODY = re.compile(rf"(?:{_CANONICAL_ROW}\r?\n)*+(?:{_CANONICAL_ROW})?")


def _read_document(stream: Iterable[str] | str) -> tuple[str | None, int, Iterable[str] | None]:
    """Read a profiles file as one document if it is canonical.

    Returns a text, the offset of the body in it, and no lines if the
    header line is the canonical one and the body after it matches
    ``_CANONICAL_BODY``: a ``str`` is checked in place and returned
    whole, a stream's rest is returned at offset 0.  Otherwise returns
    None, 0 and the lines for the row loop, header line included, split
    as the stream splits them (a ``str`` at LF).  A text stream's header
    line is read first, so a bad header is still reported before a bad
    byte further on; then, if the stream splits lines at CR, LF and CRLF
    alike (it was opened with a ``newline`` of "" or None), its rest is
    read whole.  A stream in another newline mode and any other iterable
    of lines are not read ahead of the row loop.
    """
    if isinstance(stream, str):
        start = stream.find("\n") + 1
        header, text = stream[:start], stream
    elif isinstance(stream, io.TextIOBase):
        header = stream.readline()
        # Only a universal-newlines stream reports the newline that ended
        # the header line; in another mode, a line of its text may hold
        # more than one row of a split at LF.
        if header not in _HEADER_LINES or stream.newlines is None:
            # readline() gives "" only at the end of the stream.
            return None, 0, itertools.chain([header] if header else [], stream)
        start, text = 0, stream.read()
    else:
        return None, 0, stream
    if (header in _HEADER_LINES and csv.field_size_limit() >= _DOC_ID_MAX
            and _CANONICAL_BODY.fullmatch(text, start)):
        return text, start, None
    return None, 0, (io.StringIO(stream) if isinstance(stream, str)
                     else itertools.chain([header], io.StringIO(text, newline="")))


def _scan_profiles(lines: Iterable[str], learner_id: str | None = None):
    """The row loop: split and check every row of the ``lines`` of a
    profiles file.  Returns its ProfilesResult without profiles,
    ``learner_rejected`` being ``learner_id``'s last rejected row, and
    the checked values of each learner's last valid row by learner id,
    as the pair (a1..a4, hours).

    A row of canonical texts is checked by table lookup, in the loop;
    every other non-blank row goes to ``_checked_values``.  The loop is
    the only source of rejection reasons, line numbers and
    MalformedRowError.
    """
    reader = csv.reader(lines)
    result = ProfilesResult(profiles=[])
    rejected = result.rejected
    by_id: dict[str, tuple[tuple[int, int, int, int], int]] = {}
    valid = 0
    attrs_of, hours_of = _VALID_ATTRS.get, _INT_OF.get
    try:
        _check_header(reader, PROFILES_HEADER, "profiles")
        for row in reader:
            if len(row) == 6:
                lid, a1, a2, a3, a4, text = row
                attrs = attrs_of((a1, a2, a3, a4))
                hours = hours_of(text)
                if attrs is not None and hours is not None and lid:
                    by_id[lid] = (attrs, hours)
                    valid += 1
                    continue
            elif not row:
                continue
            checked = _checked_values(row)
            if isinstance(checked, str):
                rejected.append((reader.line_num, checked))
                if row[0] == learner_id:
                    result.learner_rejected = rejected[-1]
            else:
                by_id[row[0]] = (checked[:4], checked[4])
                valid += 1
    except csv.Error as exc:
        raise MalformedRowError(reader.line_num, str(exc)) from None
    result.duplicates = valid - len(by_id)
    return result, by_id


def parse_profiles(stream: Iterable[str] | str) -> ProfilesResult:
    """Parse the comma-separated profiles file.

    Rows violating the attribute constraints, hours above MAX_HOURS
    included, are rejected with their line number and a reason;
    duplicate learner ids keep the last occurrence and bump ``duplicates``.
    A row the CSV reader cannot split raises MalformedRowError.

    A canonical document (see ``_read_document``) has no rejected rows,
    and its profiles are built column by column from its fields' texts;
    every other file goes through the row loop, ``_scan_profiles``.
    """
    text, start, lines = _read_document(stream)
    if text is None:
        result, by_id = _scan_profiles(lines)
        result.profiles = [_new_record(LearnerProfile, (lid, *attrs, hours))
                           for lid, (attrs, hours) in by_id.items()]
        return result
    body = text[start:]
    if "\r" in body:
        body = body.replace("\r\n", "\n")
    fields = body.replace("\n", ",").split(",")
    if len(fields) % 6:  # the empty text after a final newline
        fields.pop()
    ids = fields[::6]
    int_of = _INT_OF.__getitem__
    last = dict(zip(ids, map(_new_record, itertools.repeat(LearnerProfile),
                             zip(ids, *(map(int_of, fields[k::6]) for k in range(1, 6))))))
    return ProfilesResult(profiles=list(last.values()), duplicates=len(ids) - len(last))


def find_profile(stream: Iterable[str] | str, learner_id: str) -> ProfilesResult:
    """``parse_profiles`` of the profiles file with ``profiles`` cut to
    ``learner_id``'s, built from its last valid row, and ``duplicates``
    0: only ``parse_profiles`` counts them.

    ``rejected`` is that of the whole file, and ``learner_rejected`` the
    learner's last rejected row, if any.  A canonical document has no
    rejected rows, so its body is only searched, in place, for the
    learner's last row: the one after the body's last LF + id + ",", else
    the first.  An id no canonical row has, such as one that is empty or
    holds a comma, is not found there.  Every other file goes through the
    row loop.
    """
    text, start, lines = _read_document(stream)
    if text is None:
        result, by_id = _scan_profiles(lines, learner_id)
        result.duplicates = 0
        if learner_id in by_id:
            attrs, hours = by_id[learner_id]
            result.profiles.append(LearnerProfile(learner_id, *attrs, hours))
        return result
    at = text.rfind("\n" + learner_id + ",", start) + 1 or start
    if "," in learner_id or not text.startswith(learner_id + ",", at):
        return ProfilesResult(profiles=[])
    end = text.find("\n", at)
    row = text[at:end if end >= 0 else None].rstrip("\r").split(",")
    values = map(_INT_OF.__getitem__, row[1:])
    return ProfilesResult(profiles=[_new_record(LearnerProfile, (learner_id, *values))])


def render_profiles(profiles: Iterable[LearnerProfile]) -> str:
    """Write profiles back to the profiles file format (inverse of parse)."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(PROFILES_HEADER)
    writer.writerows(profiles)
    return out.getvalue()


def generate_profiles(learner_ids: list[str], seed: int) -> list[LearnerProfile]:
    """Synthesize one random profile per learner id, deterministically.

    a1 is uniform in 1..5, a2 uniform in (a1+1)..6 so target always
    exceeds current skill, a3 and a4 uniform in 1..5, and a5 uniform in
    1..60 hours.  The output is a pure function of (learner_ids, seed).
    """
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    if not learner_ids:
        return []
    rng = np.random.default_rng(seed)
    n = len(learner_ids)
    a1 = rng.integers(1, 6, size=n)
    a2 = rng.integers(a1 + 1, 7)
    a3 = rng.integers(1, 6, size=n)
    a4 = rng.integers(1, 6, size=n)
    a5 = rng.integers(1, 61, size=n)
    return [
        LearnerProfile(lid, int(a1[i]), int(a2[i]), int(a3[i]), int(a4[i]), int(a5[i]))
        for i, lid in enumerate(learner_ids)
    ]


def discretize_time(hours: int) -> TimeBin:
    """Return the decade bin containing ``hours`` (45 falls in [41-50])."""
    if hours < 1:
        raise ValueError("time must be positive")
    lower = (hours - 1) // 10 * 10 + 1
    return TimeBin(lower, lower + 9)


@dataclass
class LearnerTable:
    """Every high rater once, as one row each in learner-id order, and
    each resource's high-rating subset as an array of rows."""

    ids: list[str]              # learner id of each row, ascending
    resources: list[str]        # resources with a non-empty subset, ascending
    attrs: np.ndarray           # (n, 5) int64: a1, a2, a3, a4, hours
    items: np.ndarray           # (n, 5) int64 item codes: a1, a2, a3, a4, hours bin
    members: list[np.ndarray]   # per resource, its subset's rows ascending
    rated: int                  # resources rated at all, at any score

    def coords(self, value_maps: Mapping[str, Mapping[int, float]]) -> np.ndarray:
        """(n, 5) float64 clustering coordinates: ``attrs`` with each
        nominal id replaced by its quantified value from ``value_maps``."""
        coords = self.attrs.astype(np.float64)
        for col, attribute in enumerate(ATTRIBUTES, start=2):
            values = value_maps[attribute]
            coords[:, col] = [values[p] for p in self.attrs[:, col].tolist()]
        return coords


def learner_table(
    ratings: Iterable[RatingRecord],
    profiles: Mapping[str, LearnerProfile],
    delta0: int,
) -> LearnerTable:
    """Code, in one pass over ``ratings``, every learner who rated some
    resource at or above ``delta0``, rows in learner-id order.

    A learner joins a resource's subset if any of their ratings for it
    meets the threshold; only resources with a non-empty subset are in
    ``resources``, while ``rated`` counts every resource rated at all, so
    ``ratings`` may be a one-shot iterator.  ``items`` bins hours into
    1-based decades, hours below 1 falling into the first, [1-10].  The members' profiles are
    checked in this order: a missing profile raises a KeyError, then
    every strategy and then every presentation outside 1..5, then hours
    above ``MAX_HOURS`` raise a ValueError; each names the learner.
    """
    if not 1 <= delta0 <= 10:
        raise ValueError(f"delta0 must be in 1..10, got {delta0}")
    high: defaultdict[str, set[str]] = defaultdict(set)
    rated = set()
    for learner_id, resource_id, rating in ratings:
        rated.add(resource_id)
        if rating >= delta0:
            high[resource_id].add(learner_id)
    resources = sorted(high)
    ids = sorted(set().union(*high.values()))
    try:
        learners = [profiles[lid] for lid in ids]
    except KeyError as exc:
        raise KeyError(f"no profile for learner {exc.args[0]!r}") from None
    # Hours clipped so that any fit int64; the cap is checked below.
    attrs = np.array([(a1, a2, a3, a4, min(hours, MAX_HOURS + 1))
                      for _, a1, a2, a3, a4, hours in learners],
                     dtype=np.int64).reshape(len(ids), 5)
    # A nominal id outside 1..N_PARAMS has no quantified value and would
    # overrun the co-occurrence one-hot.  argwhere runs row by row, so
    # every strategy is checked first.
    nominal = attrs[:, 2:4].T
    bad = np.argwhere((nominal < 1) | (nominal > N_PARAMS))
    if bad.size:
        a, i = bad[0]
        raise ValueError(f"learner {ids[i]!r} has {ATTRIBUTES[a]} {nominal[a, i]}, "
                         f"expected 1..{N_PARAMS}")
    over = np.flatnonzero(attrs[:, 4] > MAX_HOURS)
    if over.size:
        lid = ids[over[0]]
        raise ValueError(f"learner {lid!r}: a5 hours {profiles[lid].hours} "
                         f"above the cap of {MAX_HOURS}")
    items = attrs.copy()
    items[:, 4] = (np.maximum(attrs[:, 4], 1) - 1) // 10 + 1
    index = {lid: i for i, lid in enumerate(ids)}
    members = [np.sort(np.fromiter(map(index.__getitem__, high[rid]), dtype=np.intp,
                                   count=len(high[rid])))
               for rid in resources]
    return LearnerTable(ids, resources, attrs, items, members, len(rated))
