"""Command line interface.

Commands: validate, cohomology, classify, audit, verify-complex.
Each command loads its algebra file in one order: the grammar, then the
algebra laws, then the domain test, which runs only on a lawful spec.
`validate` reports the violated laws; every other command stops at the
first with exit 1.
Output is JSON (default) or text, byte-identical across runs with equal
inputs: JSON with the bytes of `json.dumps(payload, sort_keys=True,
indent=2)`, text as one `key: ` line per sorted field with the bytes of
`json.dumps(value, sort_keys=True)`.  Every field's value goes through
`json.dumps` except the representatives, which are streamed to stdout
one dense list at a time, so printing a large report holds neither its
whole text nor more than one dense representative in memory.  A dense
list is written as its nonzero cells spliced into one zero row shared by
every representative of its length, so its cost grows with the nonzeros
and the bytes, not with a per-cell encoder call.  Exit codes: 0
success, 1 file/validation or output error, 2 usage error, 3 degree cap
exceeded.
COHOMOLAB_MAX_DEGREE overrides the default cap.
"""

import argparse
import json
from json.encoder import encode_basestring_ascii
import numbers
import os
import sys

from .algebra import assess_domain, validate_algebra
from .complex import DEFAULT_DEGREE_CAP, DegreeCapExceeded, TAGS, verify_dd_zero
from .cohomology import CHAIN_MAPS, audit_chain_map, cohomology
from .fileformat import ParseError, format_rational, parse_algebra_file, parse_integer
from .operators import classify

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_USAGE = 2
EXIT_CAP = 3

# The library speaks cochain degrees: the degree-z group is ker d_z / im d_{z-1}.
# --convention names the printed degree, z - 1 under "shifted" (degree-n
# cocycles are (n+2)-linear) and z under "standard".  Shifted is the default
# because the chain maps J and K produce 4- and 3-linear cochains, which land
# exactly in the shifted degree-2 and degree-1 cocycle spaces.
SHIFTS = {"shifted": 1, "standard": 0}  # cochain degree minus printed degree

_rat = format_rational  # every scalar the CLI prints is a string made here

# the printed witness and certificate fields that hold indices or counts,
# which stay JSON numbers; every other number in them is an exact scalar
_INDEX_FIELDS = frozenset({"coord", "h0oo_dim", "tuple_flat"})


def _jsonable(obj):
    """Recursively convert witness values to JSON-stable primitives.

    A scalar and an index can both be an int, so the field name, not the
    type, tells them apart: numbers print through _rat unless their field
    is in _INDEX_FIELDS.  Dict keys are flat indices and print as strings.
    """
    if obj is None or isinstance(obj, (bool, str)):
        return obj
    if isinstance(obj, numbers.Rational):
        return _rat(obj)
    if isinstance(obj, dict):
        return {str(k): v if k in _INDEX_FIELDS else _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    return str(obj)


def _verdict_json(v):
    if v is None:
        return "not_applicable"
    return {
        "verdict": v.verdict,
        "witness": _jsonable(v.witness),
        "certificate": _jsonable(v.certificate),
    }


def _write_report(payload, write, pretty) -> None:
    """Pass payload to write in pieces: if pretty, as json.dumps(payload,
    sort_keys=True, indent=2) and a newline, else as one `key: ` line per
    sorted key holding json.dumps(value, sort_keys=True).

    Every value goes through json.dumps but the representatives, which are
    written one dense list at a time, each made only now: the nonzero
    cells spliced into one shared row of "0" cells per length.  The cells
    of that row have a fixed stride, and format_rational prints nothing
    that JSON escapes, so a nonzero is its printed scalar in quotes.
    """
    first, sep, nl = ("{\n  ", ",\n  ", "\n  ") if pretty else ("", "\n", "")
    for key in sorted(payload):
        value = payload[key]
        write(first + (encode_basestring_ascii(key) if pretty else key) + ": ")
        first = sep
        if key == "representatives" and value:
            outer, inner = (nl + "  ", nl + "    ") if pretty else ("", "")
            cell_sep = "," + (inner or " ")
            stride = 3 + len(cell_sep)
            zeros = {}  # length -> that many "0" cells
            opening = "[" + outer
            for m in value:
                length = m.dim ** (m.arity + 1)
                if length not in zeros:
                    zeros[length] = cell_sep.join(['"0"'] * length)
                row, pieces, at = zeros[length], [], 0
                for i, v in sorted(m.vec.items()):
                    pieces += (row[at:i * stride], '"' + _rat(v) + '"')
                    at = i * stride + 3
                pieces.append(row[at:])
                write(opening + "[" + inner + "".join(pieces) + outer + "]")
                opening = "," + (outer or " ")
            write(nl + "]")
        else:  # a raw newline never occurs inside a JSON string: this only indents
            write(json.dumps(value, sort_keys=True, indent=2 if pretty else None)
                  .replace("\n", nl))
    write("\n}\n" if pretty else "\n")


def _resolve_cap(args) -> int:
    if args.degree_cap is not None:
        return args.degree_cap
    env = os.environ.get("COHOMOLAB_MAX_DEGREE")
    if env is not None:
        try:
            return _non_negative(env)
        except argparse.ArgumentTypeError:
            raise ParseError(f"COHOMOLAB_MAX_DEGREE must be a non-negative integer, "
                             f"got {env!r}")
    return DEFAULT_DEGREE_CAP


def _int(text: str) -> int:
    """An integer option, spelled as the algebra file grammar spells integers."""
    try:
        return parse_integer(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")


def _non_negative(text: str) -> int:
    """A non-negative int: a sampling budget or a degree cap."""
    value = _int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be at least 0, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cohomolab",
        description="Exact cohomology and operator classification for "
                    "finite-dimensional commutative unital algebras.",
    )
    parser.add_argument("--format", choices=("json", "text"), default="json")
    parser.add_argument("--seed", type=_int, default=0)
    parser.add_argument("--trials", type=_non_negative, default=64)
    parser.add_argument("--degree-cap", type=_non_negative, default=None,
                        help=f"highest materialized cochain degree (default "
                             f"{DEFAULT_DEGREE_CAP}, or COHOMOLAB_MAX_DEGREE)")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check the algebra laws")
    p.add_argument("file")

    p = sub.add_parser("cohomology", help="quotient dimensions at a degree")
    p.add_argument("file")
    p.add_argument("--degree", type=_int, required=True)
    p.add_argument("--complex", choices=TAGS, default="full")
    p.add_argument("--convention", choices=tuple(SHIFTS), default="shifted")

    p = sub.add_parser("classify", help="Kadison/Wickstead verdicts")
    p.add_argument("file")

    p = sub.add_parser("audit", help="audit a chain map")
    p.add_argument("file")
    p.add_argument("--map", dest="map_name", required=True,
                   choices=CHAIN_MAPS)
    p.add_argument("--n", type=_int, default=1)
    p.add_argument("--convention", choices=tuple(SHIFTS), default="shifted")

    p = sub.add_parser("verify-complex", help="check d_{n+1} o d_n = 0")
    p.add_argument("file")
    p.add_argument("--max-degree", dest="max_n", type=_int, default=3)
    p.add_argument("--complex", choices=TAGS, default="full")
    return parser


def _run(args) -> tuple:
    cap = _resolve_cap(args)
    spec = parse_algebra_file(args.file)
    violations = validate_algebra(spec)
    if violations and args.command != "validate":
        first = violations[0]
        raise ParseError(f"algebra law violated: {first.law} at {first.indices}")
    if not violations:  # the domain tests mean nothing on a tensor that fails the laws
        spec = assess_domain(spec, trials=args.trials, seed=args.seed)
    base = {"algebra": spec.name, "command": args.command, "dim": spec.dim,
            "seed": args.seed}

    if args.command == "validate":
        base["valid"] = not violations
        base["domain_status"] = spec.domain_status
        base["violations"] = [
            {"law": v.law, "indices": list(v.indices), "detail": v.detail}
            for v in violations
        ]
        return base, EXIT_OK if not violations else EXIT_INPUT

    if args.command == "cohomology":
        report = cohomology(spec, args.degree + SHIFTS[args.convention],
                            tag=args.complex, cap=cap)
        base.update({
            "complex": args.complex,
            "convention": args.convention,
            "degree": args.degree,
            "dim_H": report.dim_H,
            "dim_coboundaries": report.dim_coboundaries,
            "dim_cocycles": report.dim_cocycles,
            "representatives": report.representatives,
        })
        return base, EXIT_OK

    if args.command == "classify":
        report = classify(spec, cap=cap)
        base.update({
            "domain_status": spec.domain_status,
            "h0mc_dim": report.h0mc_dim,
            "h0oo_dim": report.h0oo_dim,
            "kadison": _verdict_json(report.kadison),
            "wickstead": _verdict_json(report.wickstead),
        })
        return base, EXIT_OK

    if args.command == "audit":
        report = audit_chain_map(spec, args.map_name, n=args.n, cap=cap,
                                 trials=args.trials, seed=args.seed)
        base.update({
            "map": args.map_name,
            "n": args.n,
            "convention": args.convention,
            "target_degree": report.degree - SHIFTS[args.convention],
            "cocycle_preservation": {
                "pass": report.cocycle_preservation.ok,
                "witness": _jsonable(report.cocycle_preservation.witness),
            },
            "coboundary_preservation": {
                "pass": report.coboundary_preservation.ok,
                "witness": _jsonable(report.coboundary_preservation.witness),
            },
            "injectivity": {
                "pass": report.injectivity.ok,
                "witness": _jsonable(report.injectivity.witness),
            },
            "evaluator_agreement": report.evaluator_agreement,
        })
        return base, EXIT_OK

    if args.command == "verify-complex":
        report = verify_dd_zero(spec, args.max_n, tag=args.complex, cap=cap)
        base.update({
            "complex": args.complex,
            "max_degree": args.max_n,
            "all_zero": report.all_zero,
            "results": [
                {"n": n, "zero": entry is None,
                 "first_nonzero": None if entry is None else
                 {"row": entry[0], "col": entry[1], "value": _rat(entry[2])}}
                for n, entry in report.results
            ],
        })
        return base, EXIT_OK

    raise AssertionError(f"unhandled command {args.command}")


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else 0
    try:
        payload, code = _run(args)
    except DegreeCapExceeded as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_CAP
    except (OSError, ValueError) as exc:  # ParseError and the tag errors included
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_INPUT
    try:
        _write_report(payload, sys.stdout.write, args.format == "json")
        sys.stdout.flush()
    except OSError as exc:  # a closed pipe or a full disk
        # what is still buffered goes to the null device at exit, silently
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_INPUT
    return code


if __name__ == "__main__":
    sys.exit(main())
