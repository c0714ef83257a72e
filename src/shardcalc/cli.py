"""Command-line front end: argument parsing, JSON input and output.

Subcommands
-----------
enumerate   shards of a support partition, one JSON object per line
derive      forest derivative of a functional, or dual derivative of a
            shard vector, read from a JSON file
stein-rank  shard count, relation rank, quotient dimension, series oracle
verify      run an audit suite; exit 0 iff every claim passes
oracle      the independent reference values (series dimension, chamber
            count) without touching the arrangement code
render      static SVG of the n=3 plane or the n=4 stereographic sphere

Conventions shared by every subcommand: `--format json|text` selects the
output encoding (JSON is the default), `--out FILE` writes to a file
instead of stdout (bare file names land in $SHARDCALC_OUTDIR when set),
and single-object JSON payloads carry a "schema": 1 version field.  All
output is byte-deterministic for fixed inputs and seed.  Exit codes:
0 success, 1 failed verification, 2 usage or input error, 3 internal
invariant violation or failed internal assertion (a replay bundle is
written and its path printed to stderr).  The SVG scenes themselves live
in shardcalc.svg.
"""

import argparse
import json
import os
import sys

from .arrangement import enumerate_shards
from .audit import (
    CHAMBER_COUNTS,
    SAMPLE_SEED,
    SUITES,
    full_audit,
    run_suite,
    zie_dimension,
)
from .calculus import (
    Functional,
    ShardVector,
    dual_forest_derivative,
    forest_derivative,
)
from .exactla import rat_str
from .forests import parse_forest
from .ground import GroundSet, Partition
from .steinmann import steinmann_relations
from .svg import forest_highlight, render

OUTDIR_ENV = "SHARDCALC_OUTDIR"

# Ground sets above LARGE_GROUND are refused without --allow-large, and
# above MAX_GROUND with it: the shard count grows like the resonance
# sequence (11292 at six, about 10^6 at seven).  The limit is set here,
# not read off the chamber table, so recording a count for seven labels
# does not admit seven-label runs.
LARGE_GROUND = 5
MAX_GROUND = 6


# --------------------------------------------------------- IO plumbing

def _outdir():
    return os.environ.get(OUTDIR_ENV) or os.getcwd()


def _resolve_out(path):
    if os.path.isabs(path) or os.path.dirname(path):
        return path
    return os.path.join(_outdir(), path)


def _emit(text, args):
    path = getattr(args, "out", None)
    if path:
        with open(_resolve_out(path), "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _dump(obj):
    return json.dumps(obj, indent=2) + "\n"


def _ground_from_partition_text(text):
    """Infer the ground set from the labels a partition names; braces
    around a block, as Partition.parse accepts, are no part of a label."""
    text = text.strip()
    if not (text.startswith("(") and text.endswith(")")):
        raise ValueError("partition text must be parenthesized: %r" % text)
    body = text[1:-1].replace("{", "").replace("}", "")
    if "," in body:
        labels = set()
        for block in body.split("|"):
            labels.update(p.strip() for p in block.split(","))
    else:
        labels = set(body.replace("|", ""))
    labels.discard("")
    if not labels:
        raise ValueError("empty partition text")
    return GroundSet(sorted(labels))


def _parse_labels_csv(text):
    labels = [p.strip() for p in text.split(",")]
    return GroundSet(labels)


def _ground_guard(n, allow_large):
    """n, if a ground of n labels may be built; call it before building."""
    if n > MAX_GROUND:
        raise ValueError(
            "ground sets above %d labels are refused, even with --allow-large"
            % MAX_GROUND)
    if n > LARGE_GROUND and not allow_large:
        raise ValueError(
            "ground sets above %d labels are slow; pass --allow-large"
            % LARGE_GROUND)
    return n


def _seed_arg(text):
    value = int(text)
    if not 0 <= value < 1 << 64:
        raise argparse.ArgumentTypeError("seed must fit in 64 bits")
    return value


def _load_json_file(path):
    try:
        if path == "-":
            return json.load(sys.stdin)
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except RecursionError:
        raise ValueError("JSON input nests too deeply: %s" % path) from None


def _stated_support(obj):
    """The support text a JSON payload states, or None."""
    stated = obj.get("support") if isinstance(obj, dict) else None
    if stated is not None and not isinstance(stated, str):
        raise ValueError("support must be partition text, got %s"
                         % json.dumps(stated))
    return stated


def _input_support(obj, args):
    """The support text of a JSON payload, cross-checked with --support."""
    stated = _stated_support(obj)
    if stated is None and args.support is None:
        raise ValueError(
            "input file carries no support; pass --support")
    if stated is not None and args.support is not None:
        g = _ground_from_partition_text(stated)
        if (Partition.parse(g, stated)
                != Partition.parse(g, args.support)):
            raise ValueError("--support %s does not match the file's %s"
                             % (args.support, stated))
    return stated if stated is not None else args.support


# --------------------------------------------------------- subcommands

def _cmd_enumerate(args):
    if args.n is not None:
        ground = GroundSet.of_size(_ground_guard(args.n, args.allow_large))
        P = Partition.one_block(ground)
    else:
        ground = (_parse_labels_csv(args.labels) if args.labels is not None
                  else _ground_from_partition_text(args.partition))
        P = Partition.parse(ground, args.partition)
    _ground_guard(ground.n, args.allow_large)
    shards = enumerate_shards(P)
    if args.format == "json":
        lines = [json.dumps(X.to_json_obj()) for X in shards]
    else:
        lines = [("%s %s" % (P.format(), X.id())).rstrip() for X in shards]
    _emit("\n".join(lines) + "\n", args)
    return 0


def _cmd_derive(args):
    obj = _load_json_file(args.input)
    support_text = _input_support(obj, args)
    ground = _ground_from_partition_text(support_text)
    _ground_guard(ground.n, args.allow_large)
    P = Partition.parse(ground, support_text)
    F = parse_forest(ground, args.forest)
    if args.dual:
        if P != F.target:
            raise ValueError(
                "a shard vector input must live over the forest target %s"
                % F.target.format())
        result = dual_forest_derivative(F, ShardVector.from_json_obj(P, obj))
    else:
        if P != F.source:
            raise ValueError(
                "a functional input must live over the forest source %s"
                % F.source.format())
        result = forest_derivative(F, Functional.from_json_obj(P, obj))
    if args.format == "json":
        payload = {"schema": 1}
        payload.update(result.to_json_obj())
        _emit(_dump(payload), args)
    else:
        lines = ["%s %s" % (result.to_json_obj()["kind"],
                            result.support.format())]
        for X, c in result.items():
            lines.append(("%s %s" % (X.id(), rat_str(c))).lstrip())
        _emit("\n".join(lines) + "\n", args)
    return 0


def _stein_rank_payload(ground):
    one = Partition.one_block(ground)
    shards = len(enumerate_shards(one))
    rank = steinmann_relations(ground).rank()
    qdim = shards - rank
    oracle = zie_dimension(ground.n)
    return {
        "schema": 1,
        "ground": list(ground.labels),
        "shards": shards,
        "relation_rank": rank,
        "quotient_dim": qdim,
        "oracle_dim": oracle,
        "agree": qdim == oracle,
    }


def _cmd_stein_rank(args):
    ground = (GroundSet.of_size(_ground_guard(args.n, args.allow_large))
              if args.n is not None else _parse_labels_csv(args.labels))
    _ground_guard(ground.n, args.allow_large)
    payload = _stein_rank_payload(ground)
    if args.format == "json":
        _emit(_dump(payload), args)
    else:
        lines = ["ground: %s" % ",".join(ground.labels)]
        for key in ("shards", "relation_rank", "quotient_dim", "oracle_dim"):
            lines.append("%s: %s" % (key.replace("_", " "), payload[key]))
        lines.append("agree: %s" % ("yes" if payload["agree"] else "NO"))
        _emit("\n".join(lines) + "\n", args)
    return 0 if payload["agree"] else 1


def _cmd_verify(args):
    seed = SAMPLE_SEED if args.seed is None else args.seed
    report = (full_audit(args.n, seed) if args.suite == "all"
              else run_suite(args.suite, args.n, seed))
    payload = {"schema": 1}
    payload.update(report.to_json_obj())
    if args.json:
        with open(_resolve_out(args.json), "w", encoding="utf-8") as fh:
            fh.write(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    if args.format == "json":
        _emit(json.dumps(payload, indent=2, sort_keys=True) + "\n", args)
    else:
        _emit(report.format_text() + "\n", args)
    return 0 if report.passed else 1


def _cmd_oracle(args):
    n = args.n
    payload = {
        "schema": 1,
        "n": n,
        "zie_dimension": zie_dimension(n),
        "chamber_count": CHAMBER_COUNTS.get(n),
    }
    if args.format == "json":
        _emit(_dump(payload), args)
    else:
        lines = ["n: %d" % n,
                 "zie dimension: %d" % payload["zie_dimension"],
                 "chamber count: %s"
                 % ("unknown" if payload["chamber_count"] is None
                    else payload["chamber_count"])]
        _emit("\n".join(lines) + "\n", args)
    return 0


def _cmd_render(args):
    highlight = None
    if args.forest and args.vector:
        raise ValueError("pass either --forest or --vector, not both")
    if args.forest:
        highlight = forest_highlight(GroundSet.of_size(args.n), args.forest)
    elif args.vector:
        obj = _load_json_file(args.vector)
        ground = GroundSet.of_size(args.n)
        one = Partition.one_block(ground)
        stated = _stated_support(obj)
        if stated is not None and Partition.parse(
                _ground_from_partition_text(stated), stated) != one:
            raise ValueError("highlight support must be the one-block "
                             "partition %s" % one.format())
        highlight = ShardVector.from_json_obj(one, obj)
    _emit(render(args.n, highlight), args)
    return 0


# ------------------------------------------------------------- parser

def _add_common(sub, fmt=True):
    if fmt:
        sub.add_argument("--format", choices=("json", "text"),
                         default="json", help="output encoding")
    sub.add_argument("--out", metavar="FILE",
                     help="write output to FILE (bare names land in "
                          "$%s when set)" % OUTDIR_ENV)


def build_parser():
    parser = argparse.ArgumentParser(
        prog="shardcalc",
        description="exact shard calculus for the adjoint braid "
                    "arrangement")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("enumerate",
                       help="list the shards of a support partition")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--partition", metavar="TEXT",
                       help='support partition, e.g. "(12|34)"')
    group.add_argument("--n", type=int, metavar="N",
                       help="one-block partition on labels 1..N")
    p.add_argument("--labels", metavar="CSV",
                   help="explicit ground labels for --partition")
    p.add_argument("--allow-large", action="store_true",
                   help="permit ground sets of up to %d labels" % MAX_GROUND)
    _add_common(p)
    p.set_defaults(func=_cmd_enumerate)

    p = sub.add_parser("derive",
                       help="forest derivative of a functional or dual "
                            "derivative of a shard vector")
    p.add_argument("--forest", required=True, metavar="TEXT",
                   help='forest text, e.g. "[[1,2],3]" or '
                        '"[[1,2],[3,4]]@L"')
    p.add_argument("--support", metavar="TEXT",
                   help="support partition of the input (cross-checked "
                        "against the file)")
    p.add_argument("--dual", action="store_true",
                   help="input is a shard vector over the forest target; "
                        "default input is a functional over the source")
    p.add_argument("input", metavar="FILE",
                   help="JSON file (- for stdin): a functional or shard "
                        "vector, or a bare map of shard id to rational")
    p.add_argument("--allow-large", action="store_true",
                   help="permit ground sets of up to %d labels" % MAX_GROUND)
    _add_common(p)
    p.set_defaults(func=_cmd_derive)

    p = sub.add_parser("stein-rank",
                       help="relation rank and quotient dimension against "
                            "the series oracle")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--n", type=int, metavar="N",
                       help="ground labels 1..N")
    group.add_argument("--labels", metavar="CSV",
                       help="explicit ground labels, comma separated")
    p.add_argument("--allow-large", action="store_true",
                   help="permit ground sets of up to %d labels" % MAX_GROUND)
    _add_common(p)
    p.set_defaults(func=_cmd_stein_rank)

    p = sub.add_parser("verify", help="run an audit suite")
    p.add_argument("--n", type=int, required=True, metavar="N")
    p.add_argument("--suite", default="all", choices=SUITES + ("all",))
    p.add_argument("--json", metavar="FILE",
                   help="also write the JSON report to FILE")
    p.add_argument("--seed", type=_seed_arg, metavar="U64",
                   help="seed for the sampled checks (default %d)"
                        % SAMPLE_SEED)
    _add_common(p)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("oracle",
                       help="independent reference values for one size")
    p.add_argument("--n", type=int, required=True, metavar="N")
    _add_common(p)
    p.set_defaults(func=_cmd_oracle)

    p = sub.add_parser("render",
                       help="SVG picture of the size-3 or size-4 "
                            "arrangement")
    p.add_argument("--n", type=int, required=True, choices=(3, 4))
    p.add_argument("--forest", metavar="TEXT",
                   help="highlight the dual derivative of the "
                        "zero-dimensional shard along this forest")
    p.add_argument("--vector", metavar="FILE",
                   help="highlight an explicit shard vector (JSON)")
    _add_common(p, fmt=False)
    p.set_defaults(func=_cmd_render)

    return parser


def _write_replay_bundle(exc, argv):
    import hashlib  # loads OpenSSL's libcrypto: only this exit-3 path needs it

    bundle = {
        "schema": 1,
        "kind": "replay",
        "error": str(exc),
        "argv": list(argv),
        "counterexample": getattr(exc, "counterexample", None),
    }
    text = json.dumps(bundle, indent=2, sort_keys=True) + "\n"
    digest = hashlib.sha256(text.encode("utf-8")).hexdigest()[:12]
    path = os.path.join(_outdir(), "replay-%s.json" % digest)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    return path


def main(argv=None):
    if argv is None:
        argv = sys.argv[1:]
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if (args.command == "enumerate" and args.labels is not None
                and args.partition is None):
            # --labels names the ground of --partition; no argparse group
            # can say that one option needs another
            parser.error("enumerate: argument --labels: not allowed "
                         "without argument --partition")
    except SystemExit as exc:
        return exc.code or 0
    try:
        return args.func(args)
    except AssertionError as exc:  # InvariantViolation and internal checks
        print("invariant violation: %s" % exc, file=sys.stderr)
        try:
            path = _write_replay_bundle(exc, argv)
        except OSError as err:
            print("no replay bundle written: %s" % err, file=sys.stderr)
        else:
            print("replay bundle: %s" % path, file=sys.stderr)
        return 3
    except (ValueError, OSError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2


def main_entry():
    sys.exit(main())


if __name__ == "__main__":
    main_entry()
