"""Line-oriented algebra definition files.

Grammar (tokens whitespace-separated, '#' starts a comment):

    name <ident>
    dim <d>
    unit <d rationals>
    order none|atomic
    mult <i> <j> = <d rationals>     # one per unordered pair

Integers (dim, mult indices, and p and q of a rational) are an optional
sign followed by ASCII digits 0-9.  Rationals are written `p` or `p/q`
with q > 0.  The symmetric half of the mult table may be omitted; for
atomic algebras missing off-diagonal entries default to zero.
Serialization emits the canonical form, so parse -> serialize -> parse is
the identity.  Parsing checks the grammar only, and returns the whole
spec, equal to the constructor's for the same algebra; the caller checks
the algebra laws.  An error found on one line names it, a check on the
whole file names none, and a token or number an error echoes is cut
past 40 characters, with its length shown.
"""

import re

from .algebra import AlgebraSpec, ORDER_ATOMIC, ORDER_NONE, zero_element
from .linalg import div


class ParseError(ValueError):
    pass


_INTEGER = re.compile(r"[+-]?[0-9]+")
# Python converts between int and decimal text only up to a digit limit,
# 4,300 digits by default and never below 640, unless it is lifted; longer
# numbers are converted in halves of at most this many digits
_DIGITS = 600
_LIMIT = 10 ** _DIGITS


def _read_digits(digits: str) -> int:
    """The int of a string of ASCII digits, of any length."""
    if len(digits) <= _DIGITS:
        return int(digits)
    k = len(digits) // 2
    return _read_digits(digits[:-k]) * 10 ** k + _read_digits(digits[-k:])


def _decimal(x: int) -> str:
    """str(x) for an int of any size."""
    if -_LIMIT < x < _LIMIT:
        return str(x)
    if x < 0:
        return "-" + _decimal(-x)
    k = x.bit_length() * 3 // 20  # about half the digits: log10(2) > 3/10
    high, low = divmod(x, 10 ** k)
    return _decimal(high) + _decimal(low).zfill(k)


def parse_integer(tok: str) -> int:
    """The grammar's integer, of any length whatever the digit limit:
    int() alone would also take '1_0' and '٣'."""
    if not _INTEGER.fullmatch(tok):
        raise ValueError(f"not an integer: {tok!r}")
    value = _read_digits(tok.lstrip("+-"))
    return -value if tok[0] == "-" else value


def _echo(value, show=str) -> str:
    """`show` of a token or number, or of its first 40 characters and its length."""
    text = _decimal(value) if type(value) is int else str(value)
    return show(text) if len(text) <= 40 else f"{show(text[:40])}... ({len(text)} characters)"


def parse_rational(tok: str):
    """The rational as an exact scalar: an int when integral, else a Fraction."""
    try:
        num, den = tok.split("/") if "/" in tok else (tok, "1")
        num, den = parse_integer(num), parse_integer(den)
    except ValueError as exc:
        raise ParseError(f"malformed rational {_echo(tok, repr)}") from exc
    if den <= 0:
        raise ParseError(f"rational {_echo(tok, repr)} must have a positive denominator")
    return div(num, den)


def format_rational(x) -> str:
    """An exact scalar as `p` or `p/q`, of any size whatever the digit limit:
    the one formatter for every emitted scalar."""
    p = _decimal(x.numerator)
    return p if x.denominator == 1 else f"{p}/{_decimal(x.denominator)}"


def _rationals(toks) -> tuple:
    return tuple(parse_rational(t) for t in toks)


def _name(args) -> str:
    if len(args) != 1:
        raise ParseError("name takes one identifier")
    return args[0]


def _dim(args) -> int:
    try:
        (value,) = args
        dim = parse_integer(value)
    except ValueError:
        raise ParseError("dim takes one integer")
    if dim < 1:
        raise ParseError("dim must be >= 1")
    return dim


def _order(args) -> str:
    if args not in ([ORDER_NONE], [ORDER_ATOMIC]):
        raise ParseError("order must be 'none' or 'atomic'")
    return args[0]


# key: (reader giving its value or a ParseError, value when absent; None if required)
_HEADER = {"name": (_name, None), "dim": (_dim, None), "unit": (_rationals, None),
           "order": (_order, ORDER_NONE)}


def _read_mult(args, mult: dict) -> None:
    """Store the values of a `mult i j = <values>` line under its unordered pair."""
    if len(args) < 4 or args[2] != "=":
        raise ParseError("expected 'mult i j = <values>'")
    try:
        i, j = sorted((parse_integer(args[0]), parse_integer(args[1])))
    except ValueError:
        raise ParseError("mult indices must be integers")
    value = _rationals(args[3:])
    if (i, j) in mult:
        which = "duplicate" if mult[i, j] == value else "conflicting duplicate for"
        raise ParseError(f"{which} mult {_echo(i)} {_echo(j)}")
    mult[i, j] = value


def parse_algebra_text(text: str) -> AlgebraSpec:
    header, mult = {}, {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, *args = line.split()
        try:
            if key == "mult":
                _read_mult(args, mult)
            elif key in header:
                raise ParseError(f"duplicate {key}")
            elif key in _HEADER:
                header[key] = _HEADER[key][0](args)
            else:
                raise ParseError(f"unknown key {_echo(key, repr)}")
        except ParseError as exc:
            raise ParseError(f"line {lineno}: {exc}") from None
    for key, (_, default) in _HEADER.items():  # no value read is None
        if header.setdefault(key, default) is None:
            raise ParseError(f"missing {key}")
    dim, unit, order = header["dim"], header["unit"], header["order"]
    if len(unit) != dim:
        raise ParseError(f"unit has {len(unit)} coordinates, expected {_echo(dim)}")
    for i, j in mult:  # i <= j
        if i < 0 or j >= dim:
            raise ParseError(f"mult indices ({_echo(i)}, {_echo(j)}) out of range for dim {dim}")
    structure, zero = [], zero_element(dim)  # one tuple for every missing atomic cell
    for i in range(dim):
        row = []
        for j in range(dim):
            pair = (min(i, j), max(i, j))
            value = mult.get(pair, zero if order == ORDER_ATOMIC and i != j else None)
            if value is None:
                raise ParseError(f"missing mult entry for pair ({pair[0]}, {pair[1]})")
            if len(value) != dim:
                raise ParseError(f"mult {pair[0]} {pair[1]} has {len(value)} coordinates, "
                                 f"expected {dim}")
            row.append(value)
        structure.append(tuple(row))
    return AlgebraSpec(name=header["name"], dim=dim, structure=tuple(structure),
                       unit=unit, order_mode=order)


def serialize_algebra(spec: AlgebraSpec) -> str:
    lines = [
        f"name {spec.name}",
        f"dim {spec.dim}",
        "unit " + " ".join(format_rational(x) for x in spec.unit),
        f"order {spec.order_mode}",
    ]
    for i in range(spec.dim):
        for j in range(i, spec.dim):
            entry = spec.structure[i][j]
            if spec.order_mode == ORDER_ATOMIC and i != j and not any(entry):
                continue
            lines.append(f"mult {i} {j} = " + " ".join(format_rational(x) for x in entry))
    return "\n".join(lines) + "\n"


def parse_algebra_file(path: str) -> AlgebraSpec:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_algebra_text(fh.read())
