from pathlib import Path

import freecycle

MAX_LINE = 100


def test_no_source_line_exceeds_limit():
    long_lines = [
        f"{path.name}:{number}: {len(line)} characters"
        for path in sorted(Path(freecycle.__file__).parent.glob("*.py"))
        for number, line in enumerate(path.read_text().splitlines(), 1)
        if len(line) > MAX_LINE
    ]
    assert not long_lines, long_lines
