"""Command-line front end.

One subcommand per pipeline stage plus the SVG figure exports.  Exit
codes: 0 success, 1 validation problem, 2 I/O problem.  Diagnostics go
to stderr; data goes to --out or stdout.
"""
from __future__ import annotations

import argparse
import contextlib
import functools
import json
import sys

from . import ingest
from .pipeline import (
    PipelineConfig,
    match_resources,
    load_store,
    render_report,
    run,
    save_store,
)
from .quantify import quantification_report, quantify_nominal
from .cluster import group_rows
from .viz import export_parcoords, export_values  # re-exported CLI operations

_DEFAULTS = PipelineConfig()

# The flag, type and help of each PipelineConfig field a command can set;
# the parsed value lands under the field's name.
_CONFIG_FLAGS = {
    "delta0": ("--delta0", int, "high-rating threshold"),
    "support_sl": ("--support", float, "Apriori support level"),
    "nmf_k": ("--features", int, "independent features for NMF"),
    "k_max": ("--kmax", int, "largest cluster count swept"),
    "gamma": ("--gamma", float, "diameter jump factor"),
    "min_subset": ("--min-subset", int, "smallest subset worth tagging"),
    "seed": ("--seed", int, "RNG seed"),
}
_QUANTIFY_FIELDS = ("delta0", "nmf_k", "seed")


def _add_config_flags(sp: argparse.ArgumentParser, fields) -> None:
    for name in fields:
        flag, kind, text = _CONFIG_FLAGS[name]
        sp.add_argument(flag, dest=name, metavar=flag[2:].upper().replace("-", "_"),
                        type=kind, default=getattr(_DEFAULTS, name),
                        help=f"{text} (default %(default)s)")


def _int_at_least(low: int):
    """Argparse type of an integer flag whose values start at ``low``."""
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            value = low - 1
        if value < low:
            raise argparse.ArgumentTypeError(f"must be an integer >= {low}, got {text!r}")
        return value
    return parse


def _add_input_flags(sp: argparse.ArgumentParser, synth: bool = True) -> None:
    sp.add_argument("--ratings", help="ratings CSV path")
    sp.add_argument("--profiles", help="learner profiles CSV path")
    if synth:
        sp.add_argument("--synth-seed", type=_int_at_least(0), default=None,
                        help="synthesize profiles for raters missing from --profiles")


@functools.cache  # built once per process: a parse leaves the parser unchanged
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="learntags",
        description="Tag learning resources with the profiles of their high raters.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    sp = sub.add_parser("ingest-check", help="validate input files, print counts")
    _add_input_flags(sp, synth=False)

    sp = sub.add_parser("synth-profiles", help="write synthetic profiles for raters")
    _add_input_flags(sp, synth=False)
    sp.add_argument("--synth-seed", type=_int_at_least(0), default=0,
                    help="seed of the synthetic profiles (default %(default)s)")
    sp.add_argument("--out", help="output CSV path (default stdout)")

    sp = sub.add_parser("quantify", help="dump the nominal-attribute quantification")
    _add_input_flags(sp)
    _add_config_flags(sp, _QUANTIFY_FIELDS)
    sp.add_argument("--out", help="output JSON path (default stdout)")

    sp = sub.add_parser("tag", help="run the full pipeline and write the store")
    _add_input_flags(sp)
    _add_config_flags(sp, _CONFIG_FLAGS)
    sp.add_argument("--out", help="store JSON path")
    sp.add_argument("--trace", help="write the per-resource k-sweep trace here")

    sp = sub.add_parser("match", help="rank stored resources against one learner")
    sp.add_argument("--store", required=True, help="store JSON from `tag`")
    sp.add_argument("--profiles", required=True, help="learner profiles CSV path")
    sp.add_argument("--learner", required=True, help="learner id from --profiles")
    sp.add_argument("--ratings", help="accepted for compatibility, not read: each stored "
                                      "tag carries the parameter ids match compares")
    sp.add_argument("--top", type=_int_at_least(1), default=5,
                    help="entries to print (default %(default)s)")

    sp = sub.add_parser("export-values", help="strip chart of quantified values")
    _add_input_flags(sp)
    _add_config_flags(sp, _QUANTIFY_FIELDS)
    sp.add_argument("--attribute", choices=sorted(ingest.ATTRIBUTES),
                    default="strategy", help="attribute to plot (default %(default)s)")
    sp.add_argument("--out", required=True, help="SVG path")

    sp = sub.add_parser("export-parcoords", help="parallel coordinates for one subset")
    _add_input_flags(sp)
    _add_config_flags(sp, (*_QUANTIFY_FIELDS, "k_max", "gamma"))
    sp.add_argument("--resource", required=True, help="resource id to plot")
    sp.add_argument("--out", required=True, help="SVG path")

    for sp in sub.choices.values():  # so that a command reports its own usage errors
        sp.set_defaults(command_parser=sp)
    return parser


def _config_from(args: argparse.Namespace) -> PipelineConfig:
    """The config of the command's config flags, every other field at its
    default.  A value the config rejects is named by its flag."""
    fields = {name: getattr(args, name) for name in _CONFIG_FLAGS if hasattr(args, name)}
    try:
        return PipelineConfig(**fields)
    except ValueError as exc:
        # "<field> must ...", and only a field set from a flag can be out
        # of range: the others keep their valid defaults.
        name, _, rest = str(exc).partition(" ")
        raise ValueError(f"{_CONFIG_FLAGS[name][0]} {rest}") from None


def _read_ratings(path: str) -> ingest.RatingsResult:
    # latin-1 is 8-bit transparent, matching the dataset's encoding
    with _naming_file(path), open(path, "r", encoding="latin-1", newline="") as fh:
        return ingest.parse_ratings(fh)


@contextlib.contextmanager
def _naming_file(path: str):
    """Name ``path`` in the errors a bad byte or row of it raises while read.

    A UnicodeDecodeError gets the file's name, as ``filename``, and its
    offset in the whole file, for ``dispatch`` to print; a
    MalformedRowError gets the file's name after its reason.
    """
    try:
        yield
    except UnicodeDecodeError as exc:
        # A text stream decodes chunk by chunk, so exc.start counts from
        # the chunk; decoding the whole file again counts from its start.
        with open(path, "rb") as fh:
            raw = fh.read()
        try:
            raw.decode(exc.encoding)
        except UnicodeDecodeError as whole:
            exc = whole
        exc.filename = path
        raise exc from None
    except ingest.MalformedRowError as exc:
        raise ingest.MalformedRowError(exc.line, f"{exc.reason}, in {path}") from None


def _read_profiles(path: str) -> ingest.ProfilesResult:
    with _naming_file(path), open(path, "r", encoding="utf-8", newline="") as fh:
        return ingest.parse_profiles(fh)


def _warn_rejected(result: ingest.ProfilesResult) -> None:
    if result.rejected:
        line, reason = result.rejected[0]
        print(f"warning: {len(result.rejected)} profile rows rejected "
              f"(first at line {line}: {reason})", file=sys.stderr)


def _profiles_from(path: str) -> dict[str, ingest.LearnerProfile]:
    """The profiles of a --profiles file by learner id, warning of rejected rows."""
    result = _read_profiles(path)
    _warn_rejected(result)
    return {p.learner_id: p for p in result.profiles}


def _read_inputs(args: argparse.Namespace):
    """The rating records of --ratings and the profiles by learner id of
    --profiles, topped up synthetically when asked."""
    if args.ratings is None:
        raise ValueError("missing --ratings")
    records = _read_ratings(args.ratings).records
    by_id = _profiles_from(args.profiles) if args.profiles else {}
    if args.synth_seed is not None:
        rated = sorted({r.learner_id for r in records})
        missing = [lid for lid in rated if lid not in by_id]
        for p in ingest.generate_profiles(missing, args.synth_seed):
            by_id[p.learner_id] = p
    if not by_id:
        raise ValueError("no profiles: pass --profiles and/or --synth-seed")
    return records, by_id


def _write_text(text: str, path: str | None) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _cmd_ingest_check(args: argparse.Namespace) -> int:
    problems = 0
    if args.ratings is None and args.profiles is None:
        raise ValueError("nothing to check: pass --ratings and/or --profiles")
    if args.ratings:
        res = _read_ratings(args.ratings)
        print(f"ratings: {len(res.records)} kept, "
              f"{res.dropped_zero} zero-rated dropped, {res.malformed} malformed")
        problems += res.malformed
    if args.profiles:
        res = _read_profiles(args.profiles)
        print(f"profiles: {len(res.profiles)} kept, "
              f"{len(res.rejected)} rejected, {res.duplicates} duplicates")
        problems += len(res.rejected)
    return 1 if problems else 0


def _cmd_synth_profiles(args: argparse.Namespace) -> int:
    if args.ratings is None:
        raise ValueError("synth-profiles needs --ratings to know the learner ids")
    records = _read_ratings(args.ratings).records
    known = _profiles_from(args.profiles) if args.profiles else {}
    ids = sorted({r.learner_id for r in records} - known.keys())
    profiles = ingest.generate_profiles(ids, args.synth_seed)
    _write_text(ingest.render_profiles(profiles), args.out)
    return 0


def _quantify_details(args: argparse.Namespace, config: PipelineConfig):
    """The learner table of the input files and its quantification."""
    records, profiles = _read_inputs(args)
    table = ingest.learner_table(records, profiles, config.delta0)
    return table, quantify_nominal(table, config)


def _cmd_quantify(args: argparse.Namespace) -> int:
    config = _config_from(args)
    _, details = _quantify_details(args, config)
    doc = json.dumps(quantification_report(details), indent=2, sort_keys=True) + "\n"
    _write_text(doc, args.out)
    return 0


def _cmd_tag(args: argparse.Namespace) -> int:
    config = _config_from(args)
    records, profiles = _read_inputs(args)

    traces: list[str] = []

    def hook(rid, trace):
        for entry in trace:
            traces.append(f"{rid}\t{entry.k}\t{entry.sse!r}\t{entry.avg_diameter!r}")

    store = run(config, records, profiles,
                trace_hook=hook if args.trace else None)
    if args.trace:
        _write_text("\n".join(traces) + ("\n" if traces else ""), args.trace)
    if args.out:
        save_store(store, args.out)
    sys.stdout.write(render_report(store))
    return 0


def _cmd_match(args: argparse.Namespace) -> int:
    with _naming_file(args.store):
        store = load_store(args.store)
    path = args.profiles
    with _naming_file(path), open(path, "r", encoding="utf-8", newline="") as fh:
        result = ingest.find_profile(fh, args.learner)
    _warn_rejected(result)
    if not result.profiles:
        message = f"no profile for learner {args.learner!r}"
        if result.learner_rejected is not None:
            line, reason = result.learner_rejected
            message += f": its last row, line {line}, was rejected ({reason})"
        raise KeyError(message)
    ranked = match_resources(result.profiles[0], store, top_n=args.top)
    for rid, score in ranked:
        print(f"{rid}\t{score:.3f}")
    return 0


def _cmd_export_values(args: argparse.Namespace) -> int:
    config = _config_from(args)
    _, details = _quantify_details(args, config)
    export_values(details[args.attribute].values, args.attribute, args.out)
    return 0


def _cmd_export_parcoords(args: argparse.Namespace) -> int:
    config = _config_from(args)
    table, details = _quantify_details(args, config)
    if args.resource not in table.resources:
        raise KeyError(f"resource {args.resource!r} has no high-rating subset")
    rows = table.members[table.resources.index(args.resource)]
    coords = table.coords({a: details[a].values for a in ingest.ATTRIBUTES})
    group = group_rows(coords[rows], config.k_max, config.gamma, config.seed)
    export_parcoords(group.x, group.labels, args.out)
    return 0


_COMMANDS = {
    "ingest-check": _cmd_ingest_check,
    "synth-profiles": _cmd_synth_profiles,
    "quantify": _cmd_quantify,
    "tag": _cmd_tag,
    "match": _cmd_match,
    "export-values": _cmd_export_values,
    "export-parcoords": _cmd_export_parcoords,
}


def dispatch(argv: list[str]) -> int:
    """Parse argv and run one subcommand, mapping failures to exit codes."""
    parser = _build_parser()
    try:
        args, unknown = parser.parse_known_args(argv)
        # The top-level parser takes nothing but -h, so every argument
        # before the command name is its own to report; the rest are the
        # command's.
        ahead = argv[:argv.index(args.subcommand)]
        if ahead:
            parser.error(f"unrecognized arguments: {' '.join(ahead)}")
        if unknown:
            args.command_parser.error(f"unrecognized arguments: {' '.join(unknown)}")
    except SystemExit as exc:  # argparse exits on usage errors and --help
        return 0 if exc.code == 0 else 1
    try:
        return _COMMANDS[args.subcommand](args)
    except OSError as exc:
        name = exc.filename if exc.filename else exc
        print(f"error: cannot access {name}: {exc.strerror or exc}", file=sys.stderr)
        return 2
    except UnicodeDecodeError as exc:  # a ValueError whose first argument is the codec
        line = exc.object.count(b"\n", 0, exc.start) + 1
        print(f"error: {getattr(exc, 'filename', 'input')}: byte {exc.start} (line {line}) "
              f"is not valid {exc.encoding}: {exc.reason}", file=sys.stderr)
        return 1
    except (ValueError, KeyError) as exc:
        message = exc.args[0] if exc.args else exc
        print(f"error: {message}", file=sys.stderr)
        return 1


def main() -> int:
    return dispatch(sys.argv[1:])


if __name__ == "__main__":
    sys.exit(main())
