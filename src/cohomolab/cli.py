"""Command line interface.

Commands: validate, cohomology, classify, audit, verify-complex.
Each command parses its algebra file, then checks the algebra laws:
`validate` reports the violated laws; every other command stops at the
first with exit 1.  The domain test runs only where its result is read,
and only on a lawful spec: in `validate`, in `classify`, and for the
ideal complex.
Output is JSON (default) or text, byte-identical across runs with equal
inputs: JSON with the bytes of `json.dumps(payload, sort_keys=True,
indent=2)`, text as one `key: ` line per sorted field with the bytes of
`json.dumps(value, sort_keys=True)`.  One encoder writes every value in
pieces, by its type, never by a field name: a Row (a sparse vector) as
the dict of its scalar strings keyed by index strings, and a Mat as its
dense rows, each made only as it is written, so a large report's text
and its dense rows are never all in memory.  It loads the json module
only for a string that JSON must escape.  Scalars of any size read and
print whatever Python's int-to-str digit limit, since fileformat
converts them in pieces; main leaves the limit as it is.
Exit codes: 0 success, 1 file/validation or output error, 2 usage error,
3 degree cap exceeded.
COHOMOLAB_MAX_DEGREE overrides the default cap.

The grammar is one table, GLOBAL_OPTIONS and COMMANDS.  An argv spelled
`[--format F] [--degree-cap N] COMMAND FILE [--opt VALUE]...` is read
from it directly, so a successful command loads neither argparse nor
json, unless its report holds a string that JSON must escape.  Help,
usage errors and every other spelling go to the argparse parser that
build_parser makes from the same table, the one source of help and
error text.

A CLI process, `python -m cohomolab.cli` or the `cohomolab` script,
enters through run: it flushes stdout and stderr after main and ends
with os._exit, skipping interpreter finalization, so atexit handlers
(coverage's subprocess hook among them) do not run.  Library and test
callers use main, which returns the exit code.
"""

import os
import sys
from types import SimpleNamespace

from .algebra import DOMAIN_UNCHECKED, assess_domain, validate_algebra
from .complex import DEFAULT_DEGREE_CAP, DegreeCapExceeded, TAGS, verify_dd_zero
from .cohomology import CHAIN_MAPS, audit_chain_map, cohomology
from .fileformat import ParseError, echo, format_rational, parse_algebra_file, parse_integer
from .linalg import Mat
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

_rat = format_rational  # every number the CLI prints, a JSON int or a scalar string, is made here


def _quote(text: str) -> str:
    if text.isascii() and text.isprintable() and '"' not in text and "\\" not in text:
        return '"' + text + '"'
    from json.encoder import encode_basestring_ascii  # json.dumps's escapes; json loads re

    return encode_basestring_ascii(text)


def _write_json(value, write, nl) -> None:
    """Pass value to write in pieces, as json.dumps(value, sort_keys=True)
    writes it if nl is empty, else as with indent=2, nl being a newline and
    the indent value is at.  A Mat is written as the list of its dense
    rows, and a Row, a dict with int keys, as the dict of its scalar
    strings.  A Row entry that is no exact scalar, or any other value
    json.dumps refuses, is a TypeError."""
    if value is None:
        return write("null")
    if isinstance(value, bool):
        return write("true" if value else "false")
    if isinstance(value, int):
        return write(_rat(value))
    if isinstance(value, str):
        return write(_quote(value))
    inner = nl and nl + "  "
    if isinstance(value, dict) and all(type(k) is int for k in value):  # a Row
        for v in value.values():
            if type(v) is bool or not hasattr(v, "denominator"):  # not a rational
                raise TypeError(f"a Row holds exact scalars, not {v!r}")
        value = {str(k): _rat(v) for k, v in value.items()}
    if isinstance(value, Mat):  # a Record, so a tuple: tested before tuple
        # each dense row is made only as it is written: its nonzero cells
        # spliced into one row of .ncols "0" cells, which have a fixed
        # stride; format_rational prints nothing that JSON escapes
        brackets, items, cells = "[]", value.rows, inner and inner + "  "
        cell_sep = "," + (cells or " ")
        stride = 3 + len(cell_sep)
        zeros = cell_sep.join(['"0"'] * value.ncols)
        head, tail = ("[" + cells, inner + "]") if value.ncols else ("[", "]")
        def put(sep, vec):
            pieces, at = [sep + head], 0
            for i, v in sorted(vec.items()):
                pieces += (zeros[at:i * stride], '"' + _rat(v) + '"')
                at = i * stride + 3
            pieces += (zeros[at:], tail)
            write("".join(pieces))
    elif isinstance(value, (list, tuple)):
        brackets, items = "[]", value
        def put(sep, item):
            write(sep)
            _write_json(item, write, inner)
    elif isinstance(value, dict) and all(isinstance(k, str) for k in value):
        brackets, items = "{}", sorted(value)
        def put(sep, key):
            write(sep + _quote(key) + ": ")
            _write_json(value[key], write, inner)
    else:
        raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")
    sep = brackets[0] + inner
    for item in items:
        put(sep, item)
        sep = "," + (inner or " ")
    write(nl + brackets[1] if sep[0] == "," else brackets)


def _write_report(payload, write, pretty) -> None:
    """Pass payload to write in pieces: if pretty, as json.dumps(payload,
    sort_keys=True, indent=2) and a newline, else as one `key: ` line per
    sorted key holding json.dumps(value, sort_keys=True)."""
    if pretty:
        _write_json(payload, write, "\n")
        return write("\n")
    for key in sorted(payload):
        write(key + ": ")
        _write_json(payload[key], write, "")
        write("\n")


def _resolve_cap(args) -> int:
    if args.degree_cap is not None:
        return args.degree_cap
    env = os.environ.get("COHOMOLAB_MAX_DEGREE")
    if env is not None:
        try:
            return _non_negative(env)
        except ValueError:
            raise ParseError(f"COHOMOLAB_MAX_DEGREE must be a non-negative integer, "
                             f"got {echo(env, repr)}")
    return DEFAULT_DEGREE_CAP


def _int(text: str) -> int:
    """An integer option, spelled as the algebra file grammar spells integers."""
    try:
        return parse_integer(text)
    except ValueError:
        raise ValueError(f"invalid int value: {echo(text, repr)}")


def _non_negative(text: str) -> int:
    """A non-negative int: a degree cap, from --degree-cap or COHOMOLAB_MAX_DEGREE."""
    value = _int(text)
    if value < 0:
        raise ValueError(f"must be at least 0, got {echo(value)}")
    return value


# The grammar, in one table.  An option is its flag and the keywords that
# argparse's add_argument takes for it: every option has a dest, and a value
# is checked by its choices or read by its type, an integer reader that
# raises ValueError.  GLOBAL_OPTIONS come before the command, and each
# command is its help line and the options that come after FILE.
GLOBAL_OPTIONS = (
    ("--format", {"dest": "format", "choices": ("json", "text"), "default": "json"}),
    ("--degree-cap", {"dest": "degree_cap", "type": _non_negative, "default": None,
                      "help": f"highest materialized cochain degree (default "
                              f"{DEFAULT_DEGREE_CAP}, or COHOMOLAB_MAX_DEGREE)"}),
)
_CONVENTION = ("--convention", {"dest": "convention", "choices": tuple(SHIFTS),
                                "default": "shifted"})
_COMPLEX = ("--complex", {"dest": "complex", "choices": TAGS, "default": "full"})
COMMANDS = {
    "validate": ("check the algebra laws", ()),
    "cohomology": ("quotient dimensions at a degree", (
        ("--degree", {"dest": "degree", "type": _int, "required": True}),
        _COMPLEX,
        _CONVENTION,
    )),
    "classify": ("Kadison/Wickstead verdicts", ()),
    "audit": ("audit a chain map", (
        ("--map", {"dest": "map_name", "choices": CHAIN_MAPS, "required": True}),
        ("--n", {"dest": "n", "type": _int, "default": 1}),
        _CONVENTION,
    )),
    "verify-complex": ("check d_{n+1} o d_n = 0", (
        ("--max-degree", {"dest": "max_n", "type": _int, "default": 3}),
        _COMPLEX,
    )),
}


def _read_options(options, argv, at, values):
    """Read `--opt VALUE` pairs of the options from argv[at:] into values,
    up to the first token that is none of their flags, and return its
    index; None if an option repeats or lacks its value, or a value is
    invalid."""
    flags = dict(options)
    while at < len(argv) and argv[at] in flags:
        spec = flags[argv[at]]
        if at + 1 == len(argv) or spec["dest"] in values:
            return None
        value = argv[at + 1]
        if "type" in spec:
            try:
                value = spec["type"](value)
            except ValueError:
                return None
        elif value not in spec["choices"]:
            return None
        values[spec["dest"]] = value
        at += 2
    return at


def _parse_canonical(argv):
    """The arguments of an argv spelled `[--format F] [--degree-cap N]
    COMMAND FILE [--opt VALUE]...`, read from the table without argparse.

    None for any other argv: help, a usage error, `--opt=value`, an
    abbreviation, a repeated option or a FILE that starts with `-`; argparse
    reads those.  Every value accepted here is a choice, none of which
    starts with `-`, or an integer, which argparse reads as a value too,
    so where this returns arguments parse_args returns equal ones.
    """
    values = {}
    at = _read_options(GLOBAL_OPTIONS, argv, 0, values)
    if (at is None or len(argv) < at + 2 or argv[at] not in COMMANDS
            or argv[at + 1].startswith("-")):
        return None
    command, file = argv[at], argv[at + 1]
    options = COMMANDS[command][1]
    if _read_options(options, argv, at + 2, values) != len(argv):
        return None
    for _, spec in GLOBAL_OPTIONS + options:
        if spec["dest"] not in values:
            if spec.get("required"):
                return None
            values[spec["dest"]] = spec.get("default")
    return SimpleNamespace(command=command, file=file, **values)


def _add_options(parser, options):
    """The argparse parser, with the table's options added: a type's
    ValueError becomes the ArgumentTypeError whose text argparse prints."""
    import argparse

    def checked(read):
        def convert(text):
            try:
                return read(text)
            except ValueError as exc:
                raise argparse.ArgumentTypeError(str(exc)) from None
        return convert

    for flag, spec in options:
        if "type" in spec:
            spec = dict(spec, type=checked(spec["type"]))
        parser.add_argument(flag, **spec)
    return parser


def build_parser():
    """The argparse parser of the command table: the reference grammar, and
    the source of every help and usage text."""
    import argparse

    parser = _add_options(argparse.ArgumentParser(
        prog="cohomolab",
        description="Exact cohomology and operator classification for "
                    "finite-dimensional commutative unital algebras.",
        exit_on_error=False,  # main words the error, see _usage_message
    ), GLOBAL_OPTIONS)
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (help_line, options) in COMMANDS.items():
        p = sub.add_parser(command, help=help_line)
        p.add_argument("file")
        _add_options(p, options)
    return parser


def _run(args) -> tuple:
    cap = _resolve_cap(args)
    spec = parse_algebra_file(args.file)
    violations = validate_algebra(spec)
    if violations and args.command != "validate":
        first = violations[0]
        raise ParseError(f"algebra law violated: {first.law} at {first.indices}")
    # "seed" is always 0: it stays while the benchmark's output pins include it
    base = {"algebra": spec.name, "command": args.command, "dim": spec.dim, "seed": 0}

    if args.command == "validate":
        base["valid"] = not violations
        # the domain tests mean nothing on a tensor that fails the laws
        base["domain_status"] = DOMAIN_UNCHECKED if violations else assess_domain(spec).status
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
            "domain_status": assess_domain(spec).status,
            "h0mc_dim": report.h0mc_dim,
            "h0oo_dim": report.h0oo_dim,
            "kadison": report.kadison._asdict(),
            "wickstead": report.wickstead._asdict() if report.wickstead else "not_applicable",
        })
        return base, EXIT_OK

    if args.command == "audit":
        report = audit_chain_map(spec, args.map_name, n=args.n, cap=cap)
        base.update({
            "map": args.map_name,
            "n": args.n,
            "convention": args.convention,
            "target_degree": report.degree - SHIFTS[args.convention],
            "evaluator_agreement": report.evaluator_agreement,
        })
        for check in ("cocycle_preservation", "coboundary_preservation", "injectivity"):
            result = getattr(report, check)
            base[check] = {"pass": result.ok, "witness": result.witness}
        witness = report.cocycle_preservation.witness
        if witness:  # its one scalar beside the Row and the indices
            base["cocycle_preservation"]["witness"] = dict(witness, value=_rat(witness["value"]))
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


def _usage_message(exc, argv) -> str:
    """argparse's message, except where it refused as the command the token
    after options it does not know (`--seed 1 classify`): then one naming them."""
    import argparse

    if exc.argument_name == "command":  # the probe reads argv as the parser does, sans choices
        probe = _add_options(argparse.ArgumentParser(add_help=False), GLOBAL_OPTIONS)
        probe.add_argument("command", nargs=argparse.PARSER)
        unknown = probe.parse_known_args(argv)[1]
        if unknown:
            return "unrecognized arguments: " + " ".join(unknown)
    return str(exc)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = _parse_canonical(argv)
    if args is None:  # help, a usage error or another spelling: argparse decides
        import argparse

        parser = build_parser()
        try:
            try:
                args = parser.parse_args(argv)
            except argparse.ArgumentError as exc:
                parser.error(_usage_message(exc, argv))
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


def run() -> None:
    """End the process with main's exit code, once stdout and stderr are
    flushed, and without finalization: module teardown, the last garbage
    collection and freeing every cached scalar cost more than main on a
    small algebra."""
    code = main()
    try:
        sys.stdout.flush()
    except OSError as exc:  # a closed pipe or a full disk, as main reports it
        sys.stderr.write(f"error: {exc}\n")
        code = EXIT_INPUT
    sys.stderr.flush()
    os._exit(code)


if __name__ == "__main__":
    run()
