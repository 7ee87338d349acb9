"""The benchmark in ``bench/`` drives the program by name; these pin that contract."""

import importlib
import importlib.util
import os
import subprocess
import sys

import pytest

pytest.importorskip("sympy")

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH = os.path.join(ROOT, "bench")


def test_bench_self_test_passes():
    # every output check accepts the program's answers and catches planted wrong ones
    done = subprocess.run(
        [sys.executable, os.path.join(BENCH, "checks.py")],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stdout + done.stderr


def test_traced_names_resolve(monkeypatch):
    # a renamed function would otherwise stop the traced runs
    monkeypatch.syspath_prepend(BENCH)
    spec = importlib.util.spec_from_file_location("bench_run", os.path.join(BENCH, "run.py"))
    run = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(run)
    assert run.TRACED
    for name in run.TRACED:
        module_name, _, attr_path = name.partition(".")
        owner = importlib.import_module(f"whlink.{module_name}")
        for part in attr_path.split("."):
            owner = getattr(owner, part)
        assert callable(owner), name
