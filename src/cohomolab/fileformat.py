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
the identity.  Parsing checks the grammar only: the spec it returns has
domain status `unchecked`, and the caller checks the algebra laws, then
assesses the domain of a lawful spec.
"""

import re

from .algebra import AlgebraSpec, ORDER_ATOMIC, ORDER_NONE, zero_element
from .linalg import div


class ParseError(ValueError):
    pass


_INTEGER = re.compile(r"[+-]?[0-9]+")


def parse_integer(tok: str) -> int:
    """The grammar's integer: int() alone would also take '1_0' and '٣'."""
    if not _INTEGER.fullmatch(tok):
        raise ValueError(f"not an integer: {tok!r}")
    return int(tok)


def parse_rational(tok: str):
    """The rational as an exact scalar: an int when integral, else a Fraction."""
    try:
        num, den = tok.split("/") if "/" in tok else (tok, "1")
        num, den = parse_integer(num), parse_integer(den)
    except ValueError as exc:
        raise ParseError(f"malformed rational {tok!r}") from exc
    if den <= 0:
        raise ParseError(f"rational {tok!r} must have a positive denominator")
    return div(num, den)


def format_rational(x) -> str:
    """An exact scalar as `p` or `p/q`: the one formatter for every emitted scalar."""
    return str(x)


def parse_algebra_text(text: str) -> AlgebraSpec:
    name = None
    dim = None
    unit = None
    order = None
    mult = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        toks = line.split()
        key = toks[0]
        if key == "name":
            if name is not None:
                raise ParseError(f"line {lineno}: duplicate name")
            if len(toks) != 2:
                raise ParseError(f"line {lineno}: name takes one identifier")
            name = toks[1]
        elif key == "dim":
            if dim is not None:
                raise ParseError(f"line {lineno}: duplicate dim")
            try:
                (value,) = toks[1:]
                dim = parse_integer(value)
            except ValueError:
                raise ParseError(f"line {lineno}: dim takes one integer")
            if dim < 1:
                raise ParseError(f"line {lineno}: dim must be >= 1")
        elif key == "unit":
            if unit is not None:
                raise ParseError(f"line {lineno}: duplicate unit")
            unit = tuple(parse_rational(t) for t in toks[1:])
        elif key == "order":
            if order is not None:
                raise ParseError(f"line {lineno}: duplicate order")
            if len(toks) != 2 or toks[1] not in (ORDER_NONE, ORDER_ATOMIC):
                raise ParseError(f"line {lineno}: order must be 'none' or 'atomic'")
            order = toks[1]
        elif key == "mult":
            if len(toks) < 5 or toks[3] != "=":
                raise ParseError(f"line {lineno}: expected 'mult i j = <values>'")
            try:
                i, j = parse_integer(toks[1]), parse_integer(toks[2])
            except ValueError:
                raise ParseError(f"line {lineno}: mult indices must be integers")
            value = tuple(parse_rational(t) for t in toks[4:])
            pair = (min(i, j), max(i, j))
            if pair in mult:
                if mult[pair] != value:
                    raise ParseError(
                        f"line {lineno}: conflicting duplicate for mult {pair[0]} {pair[1]}"
                    )
                raise ParseError(f"line {lineno}: duplicate mult {pair[0]} {pair[1]}")
            mult[pair] = value
        else:
            raise ParseError(f"line {lineno}: unknown key {key!r}")

    if name is None:
        raise ParseError("missing name")
    if dim is None:
        raise ParseError("missing dim")
    if unit is None:
        raise ParseError("missing unit")
    if len(unit) != dim:
        raise ParseError(f"unit has {len(unit)} coordinates, expected {dim}")
    order = order or ORDER_NONE
    for pair in mult:
        if not (0 <= pair[0] < dim and 0 <= pair[1] < dim):
            raise ParseError(f"mult indices {pair} out of range for dim {dim}")
    structure = []
    for i in range(dim):
        row = []
        for j in range(dim):
            pair = (min(i, j), max(i, j))
            if pair in mult:
                value = mult[pair]
                if len(value) != dim:
                    raise ParseError(
                        f"mult {pair[0]} {pair[1]} has {len(value)} coordinates, expected {dim}"
                    )
                row.append(value)
            elif order == ORDER_ATOMIC and i != j:
                row.append(zero_element(dim))
            else:
                raise ParseError(f"missing mult entry for pair ({pair[0]}, {pair[1]})")
        structure.append(tuple(row))
    return AlgebraSpec(name=name, dim=dim, structure=tuple(structure),
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
            lines.append(
                f"mult {i} {j} = " + " ".join(format_rational(x) for x in entry)
            )
    return "\n".join(lines) + "\n"


def parse_algebra_file(path: str) -> AlgebraSpec:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_algebra_text(fh.read())
