import ast
from pathlib import Path

import freecycle

MAX_LINE = 100
SOURCES = sorted(Path(freecycle.__file__).parent.glob("*.py"))


def test_no_source_line_exceeds_limit():
    long_lines = [
        f"{path.name}:{number}: {len(line)} characters"
        for path in SOURCES
        for number, line in enumerate(path.read_text().splitlines(), 1)
        if len(line) > MAX_LINE
    ]
    assert not long_lines, long_lines


def test_no_unused_top_level_import():
    # __init__.py imports to re-export; a name counts as used wherever it is read
    unused = []
    for path in SOURCES:
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in tree.body:
            if isinstance(node, ast.Import) or (
                isinstance(node, ast.ImportFrom) and node.module != "__future__"
            ):
                for alias in node.names:
                    name = alias.asname or alias.name.split(".")[0]
                    if name not in used:
                        unused.append(f"{path.name}:{node.lineno}: {alias.name}")
    assert not unused, unused
