"""Every field of the package's classes is read somewhere."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "envelope"
SOURCES = (PACKAGE, ROOT / "tests", ROOT / "perfbench")


def _trees(directory):
    return [ast.parse(path.read_text(), str(path))
            for path in sorted(directory.glob("*.py"))]


def test_every_annotated_field_is_read():
    """A field is read when some module of the package, its tests or its
    benchmark loads `.name`. The scan goes by name alone, so a field whose
    name another attribute shares still passes on that attribute's reads:
    an unread `order`, `scale` or `values` field would not be caught, as
    `.order`, `.scale` and `.values` are read elsewhere."""
    fields = {(cls.name, stmt.target.id)
              for tree in _trees(PACKAGE)
              for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
              for stmt in cls.body
              if isinstance(stmt, ast.AnnAssign)
              and isinstance(stmt.target, ast.Name)}
    read = {node.attr
            for directory in SOURCES for tree in _trees(directory)
            for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)
            and isinstance(node.ctx, ast.Load)}
    assert sorted(f"{cls}.{name}" for cls, name in fields
                  if name not in read) == []
