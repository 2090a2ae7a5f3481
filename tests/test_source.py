"""Source rules checked on the syntax tree of every module in the package."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "byzgather"


def test_no_module_reads_another_objects_private_attribute():
    # A graph fact or engine table read through another object's private
    # name is a copy of it in waiting; only self, cls and the namedtuple
    # method _replace may be reached with a leading underscore.
    paths = sorted(SRC.glob("*.py"))
    assert paths
    found = []
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not (isinstance(node, ast.Attribute) and node.attr.startswith("_")):
                continue
            if node.attr == "_replace" or (node.attr.startswith("__") and node.attr.endswith("__")):
                continue
            if isinstance(node.value, ast.Name) and node.value.id in ("self", "cls"):
                continue
            found.append(f"{path.name}:{node.lineno}: {ast.unparse(node)}")
    assert not found, "\n".join(found)
