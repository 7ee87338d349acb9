"""The package source keeps to lines of at most 100 characters."""

import pathlib

MAX_LINE = 100
SOURCE = pathlib.Path(__file__).parent.parent / "src" / "whlink"


def test_source_lines_fit_in_100_columns():
    paths = sorted(SOURCE.glob("*.py"))
    assert paths
    long_lines = [
        f"{path.name}:{number}: {len(line)} characters"
        for path in paths
        for number, line in enumerate(path.read_text().splitlines(), 1)
        if len(line) > MAX_LINE
    ]
    assert long_lines == []
