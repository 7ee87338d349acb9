"""Golden outputs of the README's command-line examples.

Each case runs ``whlink.cli.main`` in-process in both output formats and
compares stdout byte for byte with ``tests/golden/<case>.json`` or
``tests/golden/<case>.txt``, together with the exit code and an empty
stderr.  Both forms of each optional README flag are covered, and
``verify`` runs at ``--max-degree 12`` instead of the default bounds, and
again at ``--max-degree 24``, the bounds the benchmark's sweep times.

Regenerate the files, only when an output change is intended, with

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import io
import pathlib

import pytest

from whlink.cli import main

GOLDEN = pathlib.Path(__file__).parent / "golden"
FORMATS = {"json": "json", "text": "txt"}

CASES = {
    "genus": ["genus", "--weights", "1,2,3", "--degree", "7"],
    "link": ["link", "--weights", "15,10,6", "--degree", "30"],
    "cover": ["cover", "--weights", "1,1,1", "--degree", "3", "-k", "2"],
    "cover_skip_direct_path": [
        "cover", "--weights", "1,1,1", "--degree", "3", "-k", "2", "--skip-direct-path",
    ],
    "realize": ["realize", "8"],
    "realize_prime": ["realize", "8", "--prime", "7"],
    "smale_enum": ["smale-enum", "64"],
    "primes": ["primes", "--limit", "100"],
    "search": ["search", "--genus", "1", "--max-degree", "12"],
    "verify": ["verify", "--max-degree", "12"],
    "verify_24": ["verify", "--max-degree", "24"],
}


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def golden_path(case, fmt):
    return GOLDEN / f"{case}.{FORMATS[fmt]}"


@pytest.mark.parametrize("fmt", sorted(FORMATS))
@pytest.mark.parametrize("case", sorted(CASES))
def test_golden_output(case, fmt):
    code, out, err = run(CASES[case] + ["--format", fmt])
    assert code == 0
    assert err == ""
    assert out.encode() == golden_path(case, fmt).read_bytes()


def regenerate():
    GOLDEN.mkdir(exist_ok=True)
    for case, argv in CASES.items():
        for fmt in FORMATS:
            code, out, err = run(argv + ["--format", fmt])
            if code != 0 or err:
                raise SystemExit(f"{case} ({fmt}) exited {code}: {err}")
            golden_path(case, fmt).write_bytes(out.encode())


if __name__ == "__main__":
    regenerate()
