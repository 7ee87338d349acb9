"""The package source and its tests keep to lines of at most 100 characters."""

import pathlib

MAX_LINE = 100
TESTS = pathlib.Path(__file__).parent
SOURCE = TESTS.parent / "src" / "whlink"


def test_source_lines_fit_in_100_columns():
    sources, tests = sorted(SOURCE.glob("*.py")), sorted(TESTS.glob("*.py"))
    assert sources and tests
    long_lines = [
        f"{path.relative_to(TESTS.parent)}:{number}: {len(line)} characters"
        for path in sources + tests
        for number, line in enumerate(path.read_text().splitlines(), 1)
        if len(line) > MAX_LINE
    ]
    assert long_lines == []
