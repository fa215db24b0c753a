"""Every dataclass field is read somewhere: a field nothing reads is dead state."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _is_dataclass(node) -> bool:
    for dec in node.decorator_list:
        target = dec.func if isinstance(dec, ast.Call) else dec
        if isinstance(target, ast.Name) and target.id == "dataclass":
            return True
    return False


def unread_fields(package_sources, reader_sources) -> list:
    """`Class.field` for each annotated dataclass field of package_sources
    whose name no attribute read in package_sources or reader_sources uses."""
    fields = []
    read = set()
    for source in list(package_sources) + list(reader_sources):
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
    for source in package_sources:
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.ClassDef) and _is_dataclass(node):
                fields.extend((node.name, s.target.id) for s in node.body
                              if isinstance(s, ast.AnnAssign) and isinstance(s.target, ast.Name))
    return sorted(f"{cls}.{name}" for cls, name in fields if name not in read)


def test_unread_fields_are_found():
    package = ("from dataclasses import dataclass\n"
               "@dataclass(frozen=True)\nclass A:\n    x: int\n    y: int\n")
    assert unread_fields([package], ["print(A(1, 2).x)\n"]) == ["A.y"]


def test_every_dataclass_field_is_read():
    def sources(folder):
        return [p.read_text(encoding="utf-8") for p in sorted((ROOT / folder).glob("*.py"))]
    assert unread_fields(sources("src/cohomolab"), sources("tests")) == []
