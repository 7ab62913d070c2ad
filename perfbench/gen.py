"""Seeded corpus generators for the benchmark workloads.

Each generator writes the two CSV files the learntags CLI reads
(``ratings.csv``, semicolon-delimited and fully quoted, and
``profiles.csv``) and, for ``planted``, ``archetypes.json`` with the
ground truth that ``planted_recovery`` is scored against.  The output is
a pure function of (workload, seed).  The generators use numpy only and
never import learntags, so the program under test receives nothing but
the generated files.

Usage: python3 perfbench/gen.py --workload uniform --seed 88 --count 4 --out DIR
"""
from __future__ import annotations

import argparse
import csv
import json
import os

import numpy as np

# Sizes are scaled down from the ROADMAP corpora so that a tag job takes
# well under a second and a run fits many jobs and queries.  The shapes
# are kept: see the docstring of each generator for why the workload
# exists.
SIZES = {
    # learners, resources, ratings
    "uniform": (300, 30, 5_000),
    "skewed": (2_000, 6, 4_500),
    "match": (600, 30, 6_000),
}


def _profile_columns(rng: np.random.Generator, n: int):
    """The draws of ``learntags.generate_profiles``: a1 in 1..5, a2 above
    a1, a3 and a4 in 1..5, hours in 1..60."""
    a1 = rng.integers(1, 6, size=n)
    a2 = rng.integers(a1 + 1, 7)
    a3 = rng.integers(1, 6, size=n)
    a4 = rng.integers(1, 6, size=n)
    a5 = rng.integers(1, 61, size=n)
    return np.stack([a1, a2, a3, a4, a5], axis=1)


def synth_corpus(n_learners: int, n_resources: int, n_ratings: int, seed: int,
                 skew: float = 0.0):
    """The law of ``tests/conftest.py::synth_corpus``, draw for draw.

    Ratings are uniform in 1..10 from uniformly drawn learners; resources
    are uniform, or zipf-like with exponent ``skew``.  Every learner gets a
    uniform synthetic profile drawn from ``seed + 1``.
    """
    rng = np.random.default_rng(seed)
    li = rng.integers(n_learners, size=n_ratings)
    if skew > 0:
        w = 1.0 / (np.arange(1, n_resources + 1) + 10.0) ** skew
        ri = rng.choice(n_resources, size=n_ratings, p=w / w.sum())
    else:
        ri = rng.integers(n_resources, size=n_ratings)
    scores = rng.integers(1, 11, size=n_ratings)
    profiles = _profile_columns(np.random.default_rng(seed + 1), n_learners)
    return np.stack([li, ri, scores], axis=1), profiles


def _scaled(workload: str, scale: float) -> tuple[int, ...]:
    return tuple(max(2, round(v * scale)) for v in SIZES[workload])


def uniform(seed: int, scale: float):
    """The 100k acceptance corpus's law, scaled down.

    Uniform popularity and uniform profiles: no resource has structure,
    so every resource keeps k = 1 and the job is the k sweep plus mining.
    This is the cluster and mine workload and the near-bypass for
    quantification.
    """
    return synth_corpus(*_scaled("uniform", scale), seed) + (None,)


def skewed(seed: int, scale: float):
    """The stretch corpus's zipf-0.9 popularity law, scaled down.

    Many learners and a few very popular resources make the pair count
    large, so co-occurrence counting dominates the job as it does on the
    1,149,780-rating stretch corpus.  This is the quantify workload.
    """
    return synth_corpus(*_scaled("skewed", scale), seed, skew=0.9) + (None,)


def match(seed: int, scale: float):
    """A small uniform corpus whose store ``match`` queries read.

    The read side of the store (load, re-quantification, ranking) is
    touched by no tag workload.
    """
    return synth_corpus(*_scaled("match", scale), seed) + (None,)


PLANTED = {
    "learners": 1_500, "resources": 60, "archetypes": 5,
    "noise_learners": 0.15,   # share of learners with uniform profiles
    "fans": 30,               # high ratings from the primary archetype
    "second_fans": 8,         # high ratings from the secondary archetype
    "noise_high": 3,          # high ratings from noise learners
    "low": 40,                # low (1..5) ratings from anyone
}


def _archetypes(rng: np.random.Generator, n: int) -> np.ndarray:
    """n distinct archetype profiles; hours are the centre of a decade."""
    seen, rows = set(), []
    while len(rows) < n:
        a1 = int(rng.integers(1, 6))
        a2 = int(rng.integers(a1 + 1, 7))
        a3, a4 = (int(v) for v in rng.integers(1, 6, size=2))
        decade = int(rng.integers(0, 6))
        if (a1, a2, a3, a4, decade) in seen:
            continue
        seen.add((a1, a2, a3, a4, decade))
        rows.append((a1, a2, a3, a4, decade * 10 + 5))
    return np.array(rows, dtype=np.int64)


def planted(seed: int, scale: float):
    """Learners drawn from a few latent archetypes, resources rated highly
    mainly by one or two of them, plus uniform noise raters.

    It is the only workload where the diameter-jump rule picks k > 1, the
    Lloyd iterations do real work and mining sees a real subgroup, and the
    known primary archetype of each resource is what ``planted_recovery``
    scores the tags against.
    """
    c = PLANTED
    rng = np.random.default_rng(seed)
    n_arche = c["archetypes"]
    arche = _archetypes(rng, n_arche)
    n = max(50, round(c["learners"] * scale))
    n_resources = max(2, round(c["resources"] * scale))
    # Group sizes and archetype pairs are fixed, so the amount of work
    # varies little from seed to seed; the seed picks the archetypes,
    # which learners fall in each group and who rates what.
    order = rng.permutation(n)
    n_noise = round(n * c["noise_learners"])
    noise_ids = order[:n_noise]
    members = [order[n_noise + a::n_arche] for a in range(n_arche)]
    profiles = _profile_columns(rng, n)
    jitter = rng.integers(-4, 5, size=n)
    for a, group in enumerate(members):
        profiles[group, :4] = arche[a, :4]
        profiles[group, 4] = arche[a, 4] + jitter[group]

    def draw(pool, size):
        return rng.choice(pool, size=min(size, len(pool)), replace=False)

    rows, primary = [], []
    for r in range(n_resources):
        first = r % n_arche
        second = (first + 1 + (r // n_arche) % (n_arche - 1)) % n_arche
        primary.append(first)
        raters = np.concatenate([
            draw(members[first], c["fans"]),
            draw(members[second], c["second_fans"]),
            draw(noise_ids, c["noise_high"]),
        ])
        for u in raters:
            rows.append((u, r, int(rng.integers(6, 11))))
        for u in rng.integers(n, size=c["low"]):
            rows.append((u, r, int(rng.integers(1, 6))))
    order = rng.permutation(len(rows))
    ratings = np.array(rows, dtype=np.int64)[order]
    truth = {
        _resource_id(r): [int(v) for v in arche[a, :4]] + [int(arche[a, 4])]
        for r, a in enumerate(primary)
    }
    return ratings, profiles, truth


GENERATORS = {"uniform": uniform, "skewed": skewed, "planted": planted, "match": match}


def _learner_id(i: int) -> str:
    return f"u{i:06d}"


def _resource_id(i: int) -> str:
    return f"b{i:06d}"


def write_corpus(workload: str, seed: int, out: str, scale: float = 1.0) -> None:
    ratings, profiles, truth = GENERATORS[workload](seed, scale)
    os.makedirs(out, exist_ok=True)
    with open(os.path.join(out, "ratings.csv"), "w", encoding="latin-1", newline="") as fh:
        w = csv.writer(fh, delimiter=";", quoting=csv.QUOTE_ALL, lineterminator="\n")
        w.writerow(("User-ID", "ISBN", "Book-Rating"))
        w.writerows((_learner_id(u), _resource_id(r), int(s)) for u, r, s in ratings)
    with open(os.path.join(out, "profiles.csv"), "w", encoding="utf-8", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(("learner_id", "a1", "a2", "a3", "a4", "a5_hours"))
        w.writerows((_learner_id(i), *(int(v) for v in row)) for i, row in enumerate(profiles))
    if truth is not None:
        with open(os.path.join(out, "archetypes.json"), "w", encoding="utf-8") as fh:
            json.dump(truth, fh, sort_keys=True)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(GENERATORS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--count", type=int, default=1,
                        help="corpora to write, to OUT/0 .. OUT/COUNT-1 from seeds "
                             "COUNT * SEED + i")
    parser.add_argument("--scale", type=float, default=1.0,
                        help="size factor; 1 gives the benchmark's sizes")
    parser.add_argument("--out", required=True)
    args = parser.parse_args()
    for i in range(args.count):
        write_corpus(args.workload, args.count * args.seed + i,
                     os.path.join(args.out, str(i)), args.scale)


if __name__ == "__main__":
    main()
