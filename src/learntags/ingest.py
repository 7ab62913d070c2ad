"""Rating and profile ingestion.

Parses the semicolon-delimited ratings file and the comma-separated
profiles file, or finds one learner's profile in it, synthesizes
missing profiles with a seeded generator, discretizes learning time
into decade bins, and in one pass over the ratings builds the learner
table that quantification, clustering and mining all read: every
learner who rated some resource at or above a threshold, coded once,
and each resource's high-rating subset as an array of the table's rows.
"""
from __future__ import annotations

import csv
import io
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Mapping, NamedTuple

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


@dataclass(frozen=True, slots=True)
class RatingRecord:
    """One (learner, resource, rating) triple with rating in 1..10."""

    learner_id: str
    resource_id: str
    rating: int


@dataclass(frozen=True, slots=True)
class LearnerProfile:
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
    duplicates: int = 0
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


def _data_rows(reader, header: tuple[str, ...], name: str) -> Iterator[list[str]]:
    """The rows of a csv ``reader`` after its header row, which must be ``header``.

    A row the reader cannot split, such as one holding a field over the
    csv module's size limit, raises MalformedRowError with its line.
    """
    try:
        first = next(reader, None)
        if first is None:
            raise ValueError(f"{name} stream is empty, expected a header row")
        if tuple(first) != header:
            raise ValueError(f"unexpected {name} header {first!r}, expected {list(header)!r}")
        yield from reader
    except csv.Error as exc:
        raise MalformedRowError(reader.line_num, str(exc)) from None


def parse_ratings(stream: Iterable[str] | str) -> RatingsResult:
    """Parse a semicolon-delimited, fully quoted ratings file.

    Rows carrying rating 0 are implicit interactions and are dropped
    (counted in ``dropped_zero``).  Malformed rows are skipped and
    counted in ``malformed``; a row the CSV reader cannot split raises
    MalformedRowError.
    """
    if isinstance(stream, str):
        stream = io.StringIO(stream)
    reader = csv.reader(stream, delimiter=";", quotechar='"')
    result = RatingsResult(records=[])
    for row in _data_rows(reader, RATINGS_HEADER, "ratings"):
        if not row:
            continue
        reason = None
        if len(row) != 3:
            reason = f"expected 3 fields, got {len(row)}"
        else:
            learner_id, resource_id, rating_text = row
            if not learner_id or not resource_id:
                reason = "empty learner or resource id"
            else:
                try:
                    rating = int(rating_text)
                except ValueError:
                    reason = f"rating {rating_text!r} is not an integer"
                else:
                    if not 0 <= rating <= 10:
                        reason = f"rating {rating} outside 0..10"
        if reason is not None:
            result.malformed += 1
            continue
        if rating == 0:
            result.dropped_zero += 1
            continue
        result.records.append(RatingRecord(learner_id, resource_id, rating))
    return result


def render_ratings(records: Iterable[RatingRecord]) -> str:
    """Write records back to the ratings file format (inverse of parse)."""
    out = io.StringIO()
    writer = csv.writer(out, delimiter=";", quoting=csv.QUOTE_ALL, lineterminator="\n")
    writer.writerow(RATINGS_HEADER)
    for r in records:
        writer.writerow([r.learner_id, r.resource_id, r.rating])
    return out.getvalue()


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
        return "non-integer attribute value"
    a1, a2, a3, a4, a5 = values
    # The ranges _profile_violation checks, in one comparison; it runs
    # only on a row that fails, to name the first range the row breaks.
    if 1 <= a1 < a2 <= 6 and 1 <= a3 <= 5 and 1 <= a4 <= 5 and 0 <= a5 <= MAX_HOURS:
        return values
    return _profile_violation(LearnerProfile(row[0], *values))


def _profiles_reader(stream: Iterable[str] | str):
    """A csv reader of a profiles file, for its ``line_num``, and its data rows."""
    if isinstance(stream, str):
        stream = io.StringIO(stream)
    reader = csv.reader(stream)
    return reader, _data_rows(reader, PROFILES_HEADER, "profiles")


def parse_profiles(stream: Iterable[str] | str) -> ProfilesResult:
    """Parse the comma-separated profiles file.

    Rows violating the attribute constraints, hours above MAX_HOURS
    included, are rejected with their line number and a reason;
    duplicate learner ids keep the last occurrence and bump ``duplicates``.
    A row the CSV reader cannot split raises MalformedRowError.
    """
    result = ProfilesResult(profiles=[])
    by_id: dict[str, tuple[int, ...]] = {}
    reader, rows = _profiles_reader(stream)
    for row in rows:
        if not row:
            continue
        checked = _checked_values(row)
        if isinstance(checked, str):
            result.rejected.append((reader.line_num, checked))
            continue
        if row[0] in by_id:
            result.duplicates += 1
        by_id[row[0]] = checked
    result.profiles = [LearnerProfile(lid, *values) for lid, values in by_id.items()]
    return result


def find_profile(stream: Iterable[str] | str, learner_id: str) -> ProfilesResult:
    """``parse_profiles`` of the profiles file with ``profiles`` cut to
    ``learner_id``'s, built from its last valid row.

    Every row is still split and checked, so ``rejected`` and
    ``duplicates`` are those of the whole file; ``learner_rejected`` is
    the learner's last rejected row, if any.
    """
    result = ProfilesResult(profiles=[])
    valid_ids: list[str] = []
    found = None
    reader, rows = _profiles_reader(stream)
    for row in rows:
        if not row:
            continue
        checked = _checked_values(row)
        if isinstance(checked, str):
            result.rejected.append((reader.line_num, checked))
            if row[0] == learner_id:
                result.learner_rejected = result.rejected[-1]
            continue
        valid_ids.append(row[0])
        if row[0] == learner_id:
            found = checked
    result.duplicates = len(valid_ids) - len(set(valid_ids))
    if found is not None:
        result.profiles.append(LearnerProfile(learner_id, *found))
    return result


def render_profiles(profiles: Iterable[LearnerProfile]) -> str:
    """Write profiles back to the profiles file format (inverse of parse)."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(PROFILES_HEADER)
    for p in profiles:
        writer.writerow(
            [p.learner_id, p.current_skill, p.target_skill, p.strategy, p.presentation, p.hours]
        )
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
    ``resources``.  ``items`` bins hours into 1-based decades, hours
    below 1 falling into the first, [1-10].  The members' profiles are
    checked in this order: a missing profile raises a KeyError, then
    every strategy and then every presentation outside 1..5, then hours
    above ``MAX_HOURS`` raise a ValueError; each names the learner.
    """
    if not 1 <= delta0 <= 10:
        raise ValueError(f"delta0 must be in 1..10, got {delta0}")
    high: dict[str, set[str]] = {}
    for r in ratings:
        if r.rating >= delta0:
            high.setdefault(r.resource_id, set()).add(r.learner_id)
    resources = sorted(high)
    ids = sorted(set().union(*high.values()))
    rows = []
    for lid in ids:
        p = profiles.get(lid)
        if p is None:
            raise KeyError(f"no profile for learner {lid!r}")
        # Clipped so that any hours fit int64; the cap is checked below.
        rows.append((p.current_skill, p.target_skill, p.strategy, p.presentation,
                     min(p.hours, MAX_HOURS + 1)))
    attrs = np.array(rows, dtype=np.int64).reshape(len(ids), 5)
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
    members = [np.sort(np.fromiter((index[m] for m in high[rid]), dtype=np.intp,
                                   count=len(high[rid])))
               for rid in resources]
    return LearnerTable(ids, resources, attrs, items, members)
