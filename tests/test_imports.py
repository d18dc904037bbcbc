"""Every name a source, test or benchmark file imports is read there."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
FILES = sorted([*ROOT.glob("src/scheme_forge/*.py"), *ROOT.glob("tests/*.py"),
                *ROOT.glob("benchmarks/*.py")])


def unread_imports(source: str) -> set[str]:
    """The names bound by the imports of ``source`` (``__future__`` aside)
    that no ``ast.Name`` reads."""
    tree = ast.parse(source)
    bound = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound.update(a.asname or a.name.partition(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound.update(a.asname or a.name for a in node.names)
    return bound - {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}


def test_unread_imports_are_found():
    assert unread_imports("from __future__ import annotations\n"
                          "import os.path, math\nimport numpy as np\n"
                          "from json import dumps, loads as parse\n"
                          "os.path.join(np.pi, parse)\n") == {"math", "dumps"}


def test_every_imported_name_is_read():
    assert len(FILES) > 20
    unread = {f"{path.relative_to(ROOT)}: {name}" for path in FILES
              for name in unread_imports(path.read_text())}
    assert not unread, sorted(unread)
