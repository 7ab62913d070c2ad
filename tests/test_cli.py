"""CLI dispatch and SVG export tests.

The CLI is exercised through dispatch() with temp-file corpora so exit
codes and stdout/stderr behavior are tested without subprocess overhead.
SVG output is checked by parsing the documents back and recomputing the
geometry independently.
"""
from __future__ import annotations

import argparse
import importlib
import json
import os
import re
import xml.etree.ElementTree as ET
from itertools import combinations

import numpy as np
import pytest

from learntags import (
    PipelineConfig,
    RatingRecord,
    export_parcoords,
    export_values,
    extreme_pairs,
    find_profile,
    generate_profiles,
    TagStore,
    learner_table,
    load_store,
    match_resources,
    parse_profiles,
    quantify_nominal,
    render_profiles,
    render_ratings,
)
from learntags import ingest
from learntags.cli import _build_parser, _config_from, dispatch

SVG_NS = "{http://www.w3.org/2000/svg}"


def write_corpus(tmp_path, n_raters=12, seed=3):
    """Ratings + profiles CSVs with one taggable resource.

    b1 gets n_raters high ratings, b2 only two (below min_subset), and
    b3 only low ratings (empty subset).
    """
    ids = [f"u{i:02d}" for i in range(n_raters)]
    records = [RatingRecord(lid, "b1", 8) for lid in ids]
    records += [RatingRecord(lid, "b2", 9) for lid in ids[:2]]
    records += [RatingRecord(lid, "b3", 3) for lid in ids[:5]]
    ratings_path = tmp_path / "ratings.csv"
    ratings_path.write_text(render_ratings(records), encoding="latin-1")
    profiles_path = tmp_path / "profiles.csv"
    profiles_path.write_text(render_profiles(generate_profiles(ids, seed)),
                             encoding="utf-8")
    return str(ratings_path), str(profiles_path)


class TestExtremePairs:
    def test_mixed_values(self):
        values = {1: 0.0, 2: 10.0, 3: 4.0, 4: 5.0, 5: 4.5}
        nearest, farthest = extreme_pairs(values)
        assert nearest == [(3, 5), (4, 5)]
        assert farthest == [(1, 2)]

    def test_all_equal_values_tie_everywhere(self):
        values = {p: 2.5 for p in range(1, 6)}
        nearest, farthest = extreme_pairs(values)
        every = sorted(combinations(range(1, 6), 2))
        assert nearest == every
        assert farthest == every

    def test_two_parameters(self):
        nearest, farthest = extreme_pairs({1: 1.0, 2: 3.0})
        assert nearest == [(1, 2)]
        assert farthest == [(1, 2)]

    def test_single_parameter_rejected(self):
        with pytest.raises(ValueError):
            extreme_pairs({1: 1.0})

    def test_matches_exhaustive_scan(self):
        import numpy as np

        rng = np.random.default_rng(11)
        for _ in range(50):
            values = {p: float(rng.integers(0, 8)) for p in range(1, 6)}
            nearest, farthest = extreme_pairs(values)
            dists = {(a, b): abs(values[a] - values[b])
                     for a, b in combinations(sorted(values), 2)}
            assert set(nearest) == {p for p, d in dists.items()
                                    if d == min(dists.values())}
            assert set(farthest) == {p for p, d in dists.items()
                                     if d == max(dists.values())}


class TestExportValues:
    def test_annotation_lines(self, tmp_path):
        values = {1: 0.0, 2: 10.0, 3: 4.0, 4: 5.0, 5: 4.5}
        doc = export_values(values, "strategy", tmp_path / "v.svg")
        texts = [t.text for t in ET.fromstring(doc).iter(f"{SVG_NS}text")]
        assert "nearest: (3,5) (4,5)" in texts
        assert "farthest: (1,2)" in texts
        assert "strategy" in texts

    def test_marker_positions_follow_linear_scale(self, tmp_path):
        values = {1: 0.0, 2: 10.0, 3: 4.0, 4: 5.0, 5: 4.5}
        doc = export_values(values, "strategy", tmp_path / "v.svg")
        root = ET.fromstring(doc)
        xs = [float(c.get("cx")) for c in root.iter(f"{SVG_NS}circle")]
        expected = [50.0 + values[p] / 10.0 * 540.0 for p in sorted(values)]
        assert xs == pytest.approx(expected, abs=0.005)

    def test_equal_values_collapse_to_midpoint(self, tmp_path):
        doc = export_values({p: 7.0 for p in range(1, 6)}, "presentation",
                            tmp_path / "v.svg")
        root = ET.fromstring(doc)
        assert all(c.get("cx") == "320.00" for c in root.iter(f"{SVG_NS}circle"))

    def test_returns_written_document(self, tmp_path):
        path = tmp_path / "v.svg"
        doc = export_values({1: 1.0, 2: 2.0, 3: 3.0, 4: 4.0, 5: 5.0},
                            "strategy", path)
        assert path.read_text(encoding="utf-8") == doc


class TestExportParcoords:
    def test_single_point_sits_at_axis_bottoms(self, tmp_path):
        # min == max on every axis, so the scaled value is pinned to 0
        doc = export_parcoords(np.array([[2.0, 5.0, 1.5, 3.5, 25.0]]), [0], tmp_path / "p.svg")
        polys = list(ET.fromstring(doc).iter(f"{SVG_NS}polyline"))
        assert len(polys) == 1
        vertices = polys[0].get("points").split()
        assert vertices == [f"{60.0 + i * 130.0:.2f},350.00" for i in range(5)]

    def test_vertices_follow_min_max_scaling(self, tmp_path):
        x = np.array([
            (1.0, 4.0, 0.0, 2.0, 10.0),
            (3.0, 4.0, 1.0, 6.0, 40.0),
            (2.0, 4.0, 0.5, 4.0, 25.0),
        ])
        doc = export_parcoords(x, [0, 1, 0], tmp_path / "p.svg")
        polys = list(ET.fromstring(doc).iter(f"{SVG_NS}polyline"))
        assert len(polys) == 3
        mins = x.min(axis=0)
        maxs = x.max(axis=0)
        for poly, row in zip(polys, x):  # polylines in row order
            for i, vertex in enumerate(poly.get("points").split()):
                px, py = map(float, vertex.split(","))
                span = maxs[i] - mins[i]
                scaled = 0.0 if span == 0.0 else (row[i] - mins[i]) / span
                assert px == pytest.approx(60.0 + i * 130.0, abs=0.005)
                assert py == pytest.approx(350.0 - scaled * 310.0, abs=0.005)

    def test_colors_track_cluster_assignment(self, tmp_path):
        x = np.zeros((3, 5))
        x[:, 0] = [0.0, 1.0, 2.0]
        doc = export_parcoords(x, np.array([0, 1, 0]), tmp_path / "p.svg")
        polys = list(ET.fromstring(doc).iter(f"{SVG_NS}polyline"))
        strokes = [p.get("stroke") for p in polys]
        assert strokes[0] == strokes[2]
        assert strokes[0] != strokes[1]

    def test_missing_assignment_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="0 cluster labels for 1 rows"):
            export_parcoords(np.zeros((1, 5)), [], tmp_path / "p.svg")

    def test_empty_points_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="no points"):
            export_parcoords(np.zeros((0, 5)), [], tmp_path / "p.svg")


INPUT_FLAGS = ["--ratings", "--profiles", "--synth-seed"]
# Each subcommand's options in the order its help lists them.
OPTIONS = {
    "ingest-check": ["--ratings", "--profiles"],
    "synth-profiles": [*INPUT_FLAGS, "--out"],
    "quantify": [*INPUT_FLAGS, "--delta0", "--features", "--seed", "--out"],
    "tag": [*INPUT_FLAGS, "--delta0", "--support", "--features", "--kmax", "--gamma",
            "--min-subset", "--seed", "--out", "--trace"],
    "match": ["--store", "--profiles", "--learner", "--ratings", "--top"],
    "export-values": [*INPUT_FLAGS, "--delta0", "--features", "--seed", "--attribute", "--out"],
    "export-parcoords": [*INPUT_FLAGS, "--delta0", "--features", "--seed", "--kmax", "--gamma",
                         "--resource", "--out"],
}
# The commands with config flags, and the arguments each requires.
CONFIG_COMMANDS = {
    "quantify": [],
    "tag": [],
    "export-values": ["--out", "v.svg"],
    "export-parcoords": ["--resource", "b1", "--out", "p.svg"],
}


class TestParserDefaults:
    def test_config_flags_default_to_pipeline_config(self):
        for command, required in CONFIG_COMMANDS.items():
            args = _build_parser().parse_args([command, *required])
            assert _config_from(args) == PipelineConfig(), command

    @pytest.mark.parametrize("command", sorted(OPTIONS))
    def test_each_command_takes_only_the_flags_it_reads(self, command):
        action = next(a for a in _build_parser()._actions
                      if isinstance(a, argparse._SubParsersAction))
        options = [a.option_strings[0] for a in action.choices[command]._actions
                   if "--help" not in a.option_strings]
        assert options == OPTIONS[command]

    @pytest.mark.parametrize("argv", [
        ["quantify", "--gamma", "0.5"],
        ["export-values", "--out", "v.svg", "--kmax", "2"],
        ["export-parcoords", "--resource", "b1", "--out", "p.svg", "--support", "0.5"],
        ["ingest-check", "--synth-seed", "1"],
    ])
    def test_unread_flags_are_unrecognized(self, capsys, argv):
        assert dispatch(argv) == 1
        err = capsys.readouterr().err
        assert f"unrecognized arguments: {' '.join(argv[-2:])}" in err

    def test_unread_flag_reported_with_its_command_usage(self, capsys):
        assert dispatch(["quantify", "--ratings", "r.csv", "--profiles", "p.csv",
                         "--kmax", "2"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("usage: learntags quantify ")
        assert err.endswith("learntags quantify: error: unrecognized arguments: --kmax 2\n")

    @pytest.mark.parametrize("argv, prog, unknown", [
        (["--bogus", "quantify", "--ratings", "r.csv"], "learntags", "--bogus"),
        (["quantify", "--bogus", "--ratings", "r.csv"], "learntags quantify", "--bogus"),
        (["--bogus", "quantify", "--kmax", "2"], "learntags", "--bogus"),
    ])
    def test_unknown_flag_reported_by_the_parser_it_precedes(self, capsys, argv, prog,
                                                             unknown):
        assert dispatch(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"usage: {prog} [-h]")
        assert err.endswith(f"{prog}: error: unrecognized arguments: {unknown}\n")

    def test_help_exits_zero(self, capsys):
        assert dispatch(["--help"]) == 0
        assert "ingest-check" in capsys.readouterr().out

    def test_usage_errors_exit_one(self):
        assert dispatch([]) == 1
        assert dispatch(["no-such-command"]) == 1
        assert dispatch(["tag", "--no-such-flag"]) == 1


class TestIngestCheck:
    def test_clean_inputs(self, tmp_path, capsys):
        ratings, profiles = write_corpus(tmp_path)
        assert dispatch(["ingest-check", "--ratings", ratings,
                         "--profiles", profiles]) == 0
        out = capsys.readouterr().out
        assert "ratings: 19 kept, 0 zero-rated dropped, 0 malformed" in out
        assert "profiles: 12 kept, 0 rejected, 0 duplicates" in out

    def test_malformed_rows_flagged(self, tmp_path, capsys):
        path = tmp_path / "bad.csv"
        path.write_text('"User-ID";"ISBN";"Book-Rating"\n"u1";"b1"\n',
                        encoding="latin-1")
        assert dispatch(["ingest-check", "--ratings", str(path)]) == 1
        assert "1 malformed" in capsys.readouterr().out

    def test_oversized_profile_field_exits_one(self, tmp_path, capsys):
        path = tmp_path / "profiles.csv"
        path.write_text("learner_id,a1,a2,a3,a4,a5_hours\n" + "u" * 200_000 + ",1,2,1,1,5\n",
                        encoding="utf-8")
        assert dispatch(["ingest-check", "--profiles", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: line 2: field larger than field limit")
        assert "Traceback" not in err

    @pytest.mark.parametrize("command", ["ingest-check", "tag"])
    def test_undecodable_profiles_name_file_and_byte(self, tmp_path, capsys, command):
        ratings, _ = write_corpus(tmp_path)
        path = tmp_path / "profiles.csv"
        path.write_bytes(b"learner_id,a1,a2,a3,a4,a5_hours\nu00,1,2,1,1,5\n\xff\xfeu01,1,2,1,1,5\n")
        argv = [command, "--profiles", str(path)]
        assert dispatch(argv + (["--ratings", ratings] if command == "tag" else [])) == 1
        err = capsys.readouterr().err
        assert err == f"error: {path}: byte 46 (line 3) is not valid utf-8: invalid start byte\n"

    def test_undecodable_byte_offset_counts_from_file_start(self, tmp_path, capsys):
        """The text layer decodes in chunks; the offset is still the file's."""
        path = tmp_path / "profiles.csv"
        rows = b"".join(b"u%05d,1,2,1,1,5\n" % i for i in range(3000))
        path.write_bytes(b"learner_id,a1,a2,a3,a4,a5_hours\n" + rows + b"u9,1,2,1,1,\xe9\n")
        assert dispatch(["ingest-check", "--profiles", str(path)]) == 1
        offset = 32 + len(rows) + len(b"u9,1,2,1,1,")
        assert f"{path}: byte {offset} (line 3002) is not valid utf-8" in capsys.readouterr().err

    def test_no_inputs_is_a_usage_problem(self, capsys):
        assert dispatch(["ingest-check"]) == 1
        assert "error:" in capsys.readouterr().err

    def test_missing_file_exits_two(self, tmp_path, capsys):
        missing = str(tmp_path / "absent.csv")
        assert dispatch(["ingest-check", "--ratings", missing]) == 2
        assert missing in capsys.readouterr().err


class TestSynthProfiles:
    def test_covers_every_rater(self, tmp_path, capsys):
        ratings, _ = write_corpus(tmp_path)
        out = tmp_path / "synth.csv"
        assert dispatch(["synth-profiles", "--ratings", ratings,
                         "--synth-seed", "5", "--out", str(out)]) == 0
        result = parse_profiles(out.read_text(encoding="utf-8"))
        assert not result.rejected
        assert {p.learner_id for p in result.profiles} == {
            f"u{i:02d}" for i in range(12)
        }

    @pytest.mark.parametrize("seed", ["-1", "x"])
    def test_bad_synth_seed_is_a_usage_error(self, tmp_path, capsys, seed):
        """Checked when the arguments are parsed: no file is read and the
        error names the flag."""
        assert dispatch(["synth-profiles", "--ratings", str(tmp_path / "absent.csv"),
                         "--synth-seed", seed]) == 1
        err = capsys.readouterr().err
        assert err.startswith("usage: learntags synth-profiles ")
        assert err.endswith("learntags synth-profiles: error: argument --synth-seed: "
                            f"must be an integer >= 0, got '{seed}'\n")

    def test_existing_profiles_excluded(self, tmp_path):
        ratings, profiles = write_corpus(tmp_path)
        out = tmp_path / "synth.csv"
        assert dispatch(["synth-profiles", "--ratings", ratings,
                         "--profiles", profiles, "--out", str(out)]) == 0
        assert parse_profiles(out.read_text(encoding="utf-8")).profiles == []

    def test_rejected_rows_warned(self, tmp_path, capsys):
        """The warning quantify and tag print; a learner whose only row was
        rejected has no profile, so it is synthesized."""
        ratings, _ = write_corpus(tmp_path)
        profiles = tmp_path / "bad.csv"
        profiles.write_text("learner_id,a1,a2,a3,a4,a5_hours\nu00,3,3,1,1,5\nu01,1,2,1,1,5\n",
                            encoding="utf-8")
        out = tmp_path / "synth.csv"
        assert dispatch(["synth-profiles", "--ratings", ratings, "--profiles", str(profiles),
                         "--out", str(out)]) == 0
        assert capsys.readouterr().err == (
            "warning: 1 profile rows rejected (first at line 2: a2 must exceed a1)\n")
        synthesized = parse_profiles(out.read_text(encoding="utf-8")).profiles
        assert [p.learner_id for p in synthesized] == ["u00"] + [f"u{i:02d}" for i in range(2, 12)]

    def test_requires_ratings(self, capsys):
        assert dispatch(["synth-profiles"]) == 1
        assert "error:" in capsys.readouterr().err

    def test_deterministic(self, tmp_path, capsys):
        ratings, _ = write_corpus(tmp_path)
        first, second = tmp_path / "a.csv", tmp_path / "b.csv"
        dispatch(["synth-profiles", "--ratings", ratings,
                  "--synth-seed", "5", "--out", str(first)])
        dispatch(["synth-profiles", "--ratings", ratings,
                  "--synth-seed", "5", "--out", str(second)])
        assert first.read_bytes() == second.read_bytes()


class TestQuantify:
    def test_report_is_sorted_json(self, tmp_path):
        ratings, profiles = write_corpus(tmp_path)
        out = tmp_path / "quant.json"
        assert dispatch(["quantify", "--ratings", ratings,
                         "--profiles", profiles, "--out", str(out)]) == 0
        text = out.read_text(encoding="utf-8")
        report = json.loads(text)
        assert set(report) == {"presentation", "strategy"}
        assert sorted(map(int, report["strategy"]["values"])) == [1, 2, 3, 4, 5]
        assert text == json.dumps(report, indent=2, sort_keys=True) + "\n"

    def test_missing_profiles_and_synth_seed(self, tmp_path, capsys):
        ratings, _ = write_corpus(tmp_path)
        assert dispatch(["quantify", "--ratings", ratings]) == 1
        assert "no profiles" in capsys.readouterr().err


class TestTag:
    def test_writes_store_and_report(self, tmp_path, capsys):
        ratings, profiles = write_corpus(tmp_path)
        out = tmp_path / "store.json"
        assert dispatch(["tag", "--ratings", ratings, "--profiles", profiles,
                         "--out", str(out)]) == 0
        report = capsys.readouterr().out
        assert report.startswith("b1\t[")
        store = load_store(str(out))
        assert store["b1"].tags and store["b1"].skipped is None
        assert store["b2"].skipped is not None
        assert "b3" not in store

    def test_store_bytes_deterministic(self, tmp_path, capsys):
        ratings, profiles = write_corpus(tmp_path)
        first, second = tmp_path / "a.json", tmp_path / "b.json"
        for out in (first, second):
            assert dispatch(["tag", "--ratings", ratings, "--profiles",
                             profiles, "--seed", "7", "--out", str(out)]) == 0
        assert first.read_bytes() == second.read_bytes()

    def test_trace_sweeps_down_to_one(self, tmp_path, capsys):
        ratings, profiles = write_corpus(tmp_path)
        trace = tmp_path / "trace.tsv"
        assert dispatch(["tag", "--ratings", ratings, "--profiles", profiles,
                         "--trace", str(trace)]) == 0
        rows = [line.split("\t")
                for line in trace.read_text(encoding="utf-8").splitlines()]
        assert [r[0] for r in rows] == ["b1"] * len(rows)
        assert [int(r[1]) for r in rows] == list(range(len(rows), 0, -1))

    def test_synth_seed_fills_profile_gaps(self, tmp_path, capsys):
        ratings, _ = write_corpus(tmp_path)
        out = tmp_path / "store.json"
        assert dispatch(["tag", "--ratings", ratings, "--synth-seed", "4",
                         "--out", str(out)]) == 0
        assert "b1" in load_store(str(out))

    def test_missing_out_directory_names_store_path(self, tmp_path, capsys):
        ratings, profiles = write_corpus(tmp_path)
        out = str(tmp_path / "missing" / "store.json")
        assert dispatch(["tag", "--ratings", ratings, "--profiles", profiles,
                         "--out", out]) == 2
        err = capsys.readouterr().err
        assert f"error: cannot access {out}: " in err
        assert ".tmp" not in err

    def test_oversized_ratings_field_exits_one(self, tmp_path, capsys):
        _, profiles = write_corpus(tmp_path)
        ratings = tmp_path / "big.csv"
        ratings.write_text('"User-ID";"ISBN";"Book-Rating"\n"u00";"' + "9" * 200_000 + '";"8"\n',
                           encoding="latin-1")
        assert dispatch(["tag", "--ratings", str(ratings), "--profiles", profiles]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: line 2: field larger than field limit")
        assert "Traceback" not in err

    def test_hours_above_cap_exit_one(self, tmp_path, capsys):
        ratings = tmp_path / "ratings.csv"
        ratings.write_text(render_ratings(
            [RatingRecord(lid, "b1", 9) for lid in ("u1", "u2", "u3")]), encoding="latin-1")
        profiles = tmp_path / "profiles.csv"
        profiles.write_text("learner_id,a1,a2,a3,a4,a5_hours\n"
                            "u1,1,2,1,1,100000000000000000000\nu2,1,2,1,1,5\n"
                            "u3,2,3,1,1,7\n", encoding="utf-8")
        assert dispatch(["tag", "--ratings", str(ratings), "--profiles", str(profiles),
                         "--min-subset", "1"]) == 1
        err = capsys.readouterr().err
        assert f"first at line 2: a5 above the cap of {ingest.MAX_HOURS} hours" in err
        assert "no profile for learner 'u1'" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("flag", ["--support", "--gamma"])
    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_flag_exit_one(self, tmp_path, capsys, flag, value):
        ratings, profiles = write_corpus(tmp_path)
        assert dispatch(["tag", "--ratings", ratings, "--profiles", profiles,
                         flag, value]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {flag} must be finite, got {value}")
        assert "Traceback" not in err

    @pytest.mark.parametrize("flags", [["--seed", "-1"], ["--synth-seed", "-1"]])
    def test_negative_seed_exits_one(self, tmp_path, capsys, flags):
        ratings, _ = write_corpus(tmp_path)
        assert dispatch(["tag", "--ratings", ratings, "--synth-seed", "0", *flags]) == 1
        # The config's --seed is named by its flag; --synth-seed is checked
        # when the arguments are parsed, so the two cannot be confused.
        err = capsys.readouterr().err
        if flags[0] == "--seed":
            assert err == "error: --seed must be >= 0, got -1\n"
        else:
            assert err.startswith("usage: learntags tag ")
            assert err.endswith("learntags tag: error: argument --synth-seed: "
                                "must be an integer >= 0, got '-1'\n")

    @pytest.mark.parametrize("flag, value, expected", [
        ("--features", "0", "must be >= 1, got 0"),
        ("--features", "1001", "must be <= 1000, got 1001"),
        ("--kmax", "0", "must be >= 1, got 0"),
        ("--support", "0", "must be in (0, 1], got 0.0"),
        ("--min-subset", "0", "must be >= 1, got 0"),
    ])
    def test_config_error_names_the_flag(self, tmp_path, capsys, flag, value, expected):
        ratings, profiles = write_corpus(tmp_path)
        assert dispatch(["tag", "--ratings", ratings, "--profiles", profiles,
                         flag, value]) == 1
        assert capsys.readouterr().err == f"error: {flag} {expected}\n"


class TestMatch:
    def test_ranks_against_store(self, tmp_path, capsys):
        ratings, profiles = write_corpus(tmp_path)
        store = tmp_path / "store.json"
        dispatch(["tag", "--ratings", ratings, "--profiles", profiles,
                  "--out", str(store)])
        capsys.readouterr()
        assert dispatch(["match", "--ratings", ratings, "--profiles", profiles,
                         "--store", str(store), "--learner", "u00"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines
        for line in lines:
            rid, score = line.split("\t")
            assert rid == "b1"
            assert re.fullmatch(r"[01]\.\d{3}", score)

    def test_unknown_learner(self, tmp_path, capsys):
        ratings, profiles = write_corpus(tmp_path)
        store = tmp_path / "store.json"
        dispatch(["tag", "--ratings", ratings, "--profiles", profiles,
                  "--out", str(store)])
        capsys.readouterr()
        assert dispatch(["match", "--ratings", ratings, "--profiles", profiles,
                         "--store", str(store), "--learner", "ghost"]) == 1
        assert "ghost" in capsys.readouterr().err

    def test_undecodable_store_names_file_and_byte(self, tmp_path, capsys):
        _, profiles = write_corpus(tmp_path)
        store = tmp_path / "store.json"
        store.write_bytes(b'{\n  "schema": \xff}')
        assert dispatch(["match", "--profiles", profiles, "--store", str(store),
                         "--learner", "u00"]) == 1
        err = capsys.readouterr().err
        assert err == f"error: {store}: byte 14 (line 2) is not valid utf-8: invalid start byte\n"

    @pytest.mark.parametrize("top", ["0", "-1"])
    def test_top_below_one_is_a_usage_error(self, capsys, top):
        assert dispatch(["match", "--store", "s.json", "--profiles", "p.csv",
                         "--learner", "u00", "--top", top]) == 1
        err = capsys.readouterr().err
        assert err.startswith("usage: learntags match ")
        assert err.endswith(
            f"learntags match: error: argument --top: must be an integer >= 1, got '{top}'\n")

    def test_store_flag_required(self, capsys):
        assert dispatch(["match", "--learner", "u00"]) == 1

    def test_parses_profiles_once(self, tmp_path, capsys, monkeypatch):
        ratings, profiles = write_corpus(tmp_path)
        store = tmp_path / "store.json"
        dispatch(["tag", "--ratings", ratings, "--profiles", profiles,
                  "--out", str(store)])
        calls = []

        def counting(name, fn):
            return lambda fh, *args: calls.append((name, fh.name)) or fn(fh, *args)

        monkeypatch.setattr(ingest, "find_profile", counting("find_profile", find_profile))
        monkeypatch.setattr(ingest, "parse_profiles",
                            counting("parse_profiles", parse_profiles))
        assert dispatch(["match", "--ratings", ratings, "--profiles", profiles,
                         "--store", str(store), "--learner", "u00"]) == 0
        assert calls == [("find_profile", profiles)]

    @staticmethod
    def tagged_store(tmp_path) -> str:
        ratings, profiles = write_corpus(tmp_path)
        store = tmp_path / "store.json"
        assert dispatch(["tag", "--ratings", ratings, "--profiles", profiles,
                         "--out", str(store)]) == 0
        return str(store)

    def test_learner_with_only_rejected_rows_names_its_last_one(self, tmp_path, capsys):
        store = self.tagged_store(tmp_path)
        path = tmp_path / "bad.csv"
        path.write_text("learner_id,a1,a2,a3,a4,a5_hours\n"
                        "u01,3,3,1,1,5\nu00,1,2,1,1,5\nu02,1,2,9,1,5\n"
                        "u01,1,2,1,1,x\nu00,1,2,1,1,5\n", encoding="utf-8")
        capsys.readouterr()
        assert dispatch(["match", "--store", store, "--profiles", str(path),
                         "--learner", "u01"]) == 1
        assert capsys.readouterr().err == (
            "warning: 3 profile rows rejected (first at line 2: a2 must exceed a1)\n"
            "error: no profile for learner 'u01': its last row, line 5, was rejected "
            "(non-integer attribute value)\n")

    def test_learner_without_rows_keeps_the_plain_error(self, tmp_path, capsys):
        store = self.tagged_store(tmp_path)
        path = tmp_path / "bad.csv"
        path.write_text("learner_id,a1,a2,a3,a4,a5_hours\nu01,3,3,1,1,5\n",
                        encoding="utf-8")
        capsys.readouterr()
        assert dispatch(["match", "--store", store, "--profiles", str(path),
                         "--learner", "u00"]) == 1
        assert capsys.readouterr().err.splitlines()[1:] == [
            "error: no profile for learner 'u00'"]

    def test_undecodable_profiles_name_file_and_byte(self, tmp_path, capsys):
        store = self.tagged_store(tmp_path)
        path = tmp_path / "bad.csv"
        path.write_bytes(b"learner_id,a1,a2,a3,a4,a5_hours\nu00,1,2,1,1,5\n\xff\xfeu01,1,2,1,1,5\n")
        capsys.readouterr()
        assert dispatch(["match", "--store", store, "--profiles", str(path),
                         "--learner", "u00"]) == 1
        err = capsys.readouterr().err
        assert err == f"error: {path}: byte 46 (line 3) is not valid utf-8: invalid start byte\n"

    def test_oversized_profile_field_names_file_and_line(self, tmp_path, capsys):
        store = self.tagged_store(tmp_path)
        path = tmp_path / "big.csv"
        path.write_text("learner_id,a1,a2,a3,a4,a5_hours\nu00,1,2,1,1,5\n"
                        + "u" * 131_073 + ",1,2,1,1,5\n", encoding="utf-8")
        capsys.readouterr()
        assert dispatch(["match", "--store", store, "--profiles", str(path),
                         "--learner", "u00"]) == 1
        err = capsys.readouterr().err
        assert err == (f"error: line 3: field larger than field limit (131072), "
                       f"in {path}\n")

    def test_reads_no_ratings_and_builds_no_cooccurrence(self, tmp_path, capsys,
                                                          monkeypatch):
        quantify_module = importlib.import_module("learntags.quantify")
        ratings, profiles = write_corpus(tmp_path)
        store = tmp_path / "store.json"
        dispatch(["tag", "--ratings", ratings, "--profiles", profiles,
                  "--out", str(store)])
        calls = []

        def counting(name, fn):
            return lambda *args: calls.append(name) or fn(*args)

        monkeypatch.setattr(quantify_module, "build_cooccurrence",
                            counting("build_cooccurrence", quantify_module.build_cooccurrence))
        monkeypatch.setattr(ingest, "parse_ratings",
                            counting("parse_ratings", ingest.parse_ratings))
        assert dispatch(["match", "--ratings", ratings, "--profiles", profiles,
                         "--store", str(store), "--learner", "u00"]) == 0
        assert calls.count("build_cooccurrence") == 0
        assert calls.count("parse_ratings") == 0

    def test_succeeds_after_ratings_deleted(self, tmp_path, capsys):
        ratings, profiles = write_corpus(tmp_path)
        store = tmp_path / "store.json"
        dispatch(["tag", "--ratings", ratings, "--profiles", profiles,
                  "--out", str(store)])
        query = ["match", "--profiles", profiles, "--store", str(store), "--learner", "u03"]
        capsys.readouterr()
        assert dispatch(query + ["--ratings", ratings]) == 0
        before = capsys.readouterr().out
        os.remove(ratings)
        assert dispatch(query + ["--ratings", ratings]) == 0
        assert capsys.readouterr().out == before
        assert dispatch(query) == 0
        assert capsys.readouterr().out == before

    def test_help_says_ratings_not_read(self, capsys):
        assert dispatch(["match", "--help"]) == 0
        help_text = " ".join(capsys.readouterr().out.split())
        assert "--ratings RATINGS accepted for compatibility, not read" in help_text
        assert "--seed" not in help_text and "--synth-seed" not in help_text

    def test_profiles_flag_required(self, tmp_path, capsys):
        assert dispatch(["match", "--store", str(tmp_path / "s.json"),
                         "--learner", "u00"]) == 1
        assert "--profiles" in capsys.readouterr().err

    @pytest.mark.parametrize("corpus_seed, config_seed", [(2, 3), (7, 0), (11, 5)])
    def test_matches_requantified_ranking(self, tmp_path, capsys, corpus_seed, config_seed):
        """Oracle: the ranking from values quantified again from the ratings."""
        from conftest import synth_corpus

        records, by_id = synth_corpus(200, 12, 4000, seed=corpus_seed)
        ratings, profiles = tmp_path / "ratings.csv", tmp_path / "profiles.csv"
        ratings.write_text(render_ratings(records), encoding="latin-1")
        profiles.write_text(render_profiles(by_id.values()), encoding="utf-8")
        store_path = tmp_path / "store.json"
        assert dispatch(["tag", "--ratings", str(ratings), "--profiles", str(profiles),
                         "--seed", str(config_seed), "--out", str(store_path)]) == 0
        config = PipelineConfig(seed=config_seed)
        details = quantify_nominal(learner_table(records, by_id, config.delta0), config)
        loaded = load_store(str(store_path))
        store = TagStore(loaded.clouds, config, {a: details[a].values for a in details})
        for lid in sorted(by_id)[::10]:
            capsys.readouterr()
            assert dispatch(["match", "--profiles", str(profiles), "--store", str(store_path),
                             "--learner", lid, "--top", "12"]) == 0
            expected = match_resources(by_id[lid], store, top_n=12)
            assert capsys.readouterr().out == "".join(
                f"{rid}\t{score:.3f}\n" for rid, score in expected)

    @staticmethod
    def broken_store(tmp_path, breakage: str) -> str:
        ratings, profiles = write_corpus(tmp_path)
        path = tmp_path / "store.json"
        dispatch(["tag", "--ratings", ratings, "--profiles", profiles, "--out", str(path)])
        doc = json.loads(path.read_text(encoding="utf-8"))
        if breakage == "headerless":
            doc = doc["resources"]
        elif breakage == "schema":
            doc["schema"] = 3
        elif breakage == "missing id":
            del doc["values"]["strategy"]["5"]
        elif breakage == "not a number":
            doc["values"]["presentation"]["2"] = "4.0"
        elif breakage == "config":
            doc["config"]["k_max"] = 0
        path.write_text(json.dumps(doc), encoding="utf-8")
        return profiles

    @pytest.mark.parametrize("breakage, message", [
        ("headerless", "no schema header"),
        ("schema", "store schema 3 is not supported"),
        ("missing id", "strategy must map the ids 1..5"),
        ("not a number", "presentation must map the ids 1..5"),
        ("config", "malformed store config: k_max must be >= 1"),
    ])
    def test_bad_store_header_exits_one(self, tmp_path, capsys, breakage, message):
        profiles = self.broken_store(tmp_path, breakage)
        capsys.readouterr()
        assert dispatch(["match", "--profiles", profiles, "--store",
                         str(tmp_path / "store.json"), "--learner", "u00"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err
        assert "Traceback" not in err

    def test_deeply_nested_store_exits_one(self, tmp_path, capsys):
        """json's recursion limit is a ValueError naming the store, not a
        RecursionError traceback."""
        _, profiles = write_corpus(tmp_path)
        store = tmp_path / "deep.json"
        store.write_text("[" * 200_000, encoding="utf-8")
        assert dispatch(["match", "--profiles", profiles, "--store", str(store),
                         "--learner", "u00"]) == 1
        assert capsys.readouterr().err == f"error: store {str(store)!r} nests too deeply\n"

    # Edits of a tagged store that put in what no `learntags tag` run writes;
    # json writes the floats as NaN and Infinity, which json.load reads.
    UNWRITTEN = {
        "nan value": (lambda doc: doc["values"]["strategy"].update({"1": float("nan")}),
                      "strategy must map the ids 1..5 to numbers"),
        "infinite tag value": (
            lambda doc: doc["resources"]["b1"]["tags"][0].update(strategy_value=float("inf")),
            "strategy_value must be a number or null"),
        "nan support": (
            lambda doc: doc["resources"]["b1"]["provenance"].update(support=float("nan")),
            "support must be a number or null"),
        "numeric skip reason": (lambda doc: doc["resources"]["b2"].update(skipped=5),
                                "skipped must be a string, got 5"),
        "reversed bin": (lambda doc: doc["resources"]["b1"]["tags"][0].update(time_bin=[50, 41]),
                         "time_bin must be null or two ints [10j+1, 10j+10], got [50, 41]"),
        "nan tolerance": (lambda doc: doc["config"].update(nmf_tol=float("nan")),
                          "nmf_tol must be a number, got nan"),
    }

    # Edits that put a 200,000-element value where a store field belongs.
    HUGE = list(range(200_000))
    HUGE_VALUES = {
        "config": (lambda doc: doc.update(config=TestMatch.HUGE),
                   "malformed store config: expected an object, got [0, 1, 2"),
        "config field": (lambda doc: doc["config"].update(seed=TestMatch.HUGE),
                         "seed must be an int"),
        "values": (lambda doc: doc.update(values=TestMatch.HUGE), "malformed store values"),
        "value map": (lambda doc: doc["values"].update(strategy=TestMatch.HUGE),
                      "strategy must map the ids 1..5"),
        "schema": (lambda doc: doc.update(schema=TestMatch.HUGE), "store schema [0, 1, 2"),
        "tag field": (lambda doc: doc["resources"]["b1"]["tags"][0].update(
            current_skill="6" * 200_000), "current_skill must be an int or null"),
        "skip reason": (lambda doc: doc["resources"]["b2"].update(skipped=TestMatch.HUGE),
                        "skipped must be a string"),
        "resource id": (lambda doc: doc["resources"].update(
            {"b" * 200_000: {"tags": [], "provenance": TestMatch.HUGE}}),
            "malformed provenance of resource 'bbb"),
    }

    @pytest.mark.parametrize("edit", sorted(HUGE_VALUES))
    def test_huge_store_value_echo_is_short(self, tmp_path, capsys, edit):
        """The error names the field and cuts the value it echoes."""
        ratings, profiles = write_corpus(tmp_path)
        path = tmp_path / "store.json"
        assert dispatch(["tag", "--ratings", ratings, "--profiles", profiles,
                         "--out", str(path)]) == 0
        doc = json.loads(path.read_text(encoding="utf-8"))
        change, message = self.HUGE_VALUES[edit]
        change(doc)
        path.write_text(json.dumps(doc), encoding="utf-8")
        capsys.readouterr()
        assert dispatch(["match", "--profiles", profiles, "--store", str(path),
                         "--learner", "u00"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err
        assert err.count("\n") == 1 and len(err) < 250

    @pytest.mark.parametrize("edit", sorted(UNWRITTEN))
    def test_unwritten_store_values_exit_one(self, tmp_path, capsys, edit):
        ratings, profiles = write_corpus(tmp_path)
        path = tmp_path / "store.json"
        assert dispatch(["tag", "--ratings", ratings, "--profiles", profiles,
                         "--out", str(path)]) == 0
        doc = json.loads(path.read_text(encoding="utf-8"))
        change, message = self.UNWRITTEN[edit]
        change(doc)
        path.write_text(json.dumps(doc), encoding="utf-8")
        capsys.readouterr()
        assert dispatch(["match", "--profiles", profiles, "--store", str(path),
                         "--learner", "u00"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err
        assert "Traceback" not in err


class TestExportCommands:
    def test_export_values_roundtrip(self, tmp_path, capsys):
        ratings, profiles = write_corpus(tmp_path)
        out = tmp_path / "values.svg"
        assert dispatch(["export-values", "--ratings", ratings,
                         "--profiles", profiles, "--attribute", "presentation",
                         "--out", str(out)]) == 0
        root = ET.fromstring(out.read_text(encoding="utf-8"))
        assert root.tag == f"{SVG_NS}svg"
        assert len(list(root.iter(f"{SVG_NS}circle"))) == 5

    def test_export_values_bytes_deterministic(self, tmp_path, capsys):
        ratings, profiles = write_corpus(tmp_path)
        first, second = tmp_path / "a.svg", tmp_path / "b.svg"
        for out in (first, second):
            assert dispatch(["export-values", "--ratings", ratings,
                             "--profiles", profiles, "--seed", "9",
                             "--out", str(out)]) == 0
        assert first.read_bytes() == second.read_bytes()

    def test_bad_attribute_exits_one(self, tmp_path, capsys):
        ratings, profiles = write_corpus(tmp_path)
        assert dispatch(["export-values", "--ratings", ratings,
                         "--profiles", profiles, "--attribute", "hours",
                         "--out", str(tmp_path / "x.svg")]) == 1

    def test_export_parcoords_one_polyline_per_member(self, tmp_path, capsys):
        ratings, profiles = write_corpus(tmp_path)
        out = tmp_path / "par.svg"
        assert dispatch(["export-parcoords", "--ratings", ratings,
                         "--profiles", profiles, "--resource", "b1",
                         "--out", str(out)]) == 0
        root = ET.fromstring(out.read_text(encoding="utf-8"))
        assert len(list(root.iter(f"{SVG_NS}polyline"))) == 12
        assert len(list(root.iter(f"{SVG_NS}line"))) == 5

    def test_export_parcoords_unknown_resource(self, tmp_path, capsys):
        ratings, profiles = write_corpus(tmp_path)
        assert dispatch(["export-parcoords", "--ratings", ratings,
                         "--profiles", profiles, "--resource", "nope",
                         "--out", str(tmp_path / "x.svg")]) == 1
        assert "nope" in capsys.readouterr().err
