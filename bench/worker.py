"""The process that runs one workload against the program.

Started by ``run.py`` with a JSON job on stdin.  It imports ``whlink`` from
the checkout's ``src``, runs the workload as a closed loop with one client,
times a fixed calibration task between operations, and writes JSON lines
to stdout: every output of the first pass, then one summary line.  It
checks nothing itself except that a query repeated in a later pass prints
the same bytes as the first time; the checks run in the parent, so sympy
never loads into the process whose memory is measured.
"""

from __future__ import annotations

import functools
import hashlib
import io
import json
import math
import random
import resource
import sys
import traceback
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from time import perf_counter

from tracer import Tracer

# One sweep is ``whlink verify --max-degree 24``: 3 to 4 s, so a 20 s run
# has four to six of them.  At the default bounds (d <= 40) one sweep
# takes 20 to 33 s, a single sample per run.
SWEEP_BOUNDS = {"max_degree": 24, "max_k": 12}
# Grid rows whose expansion the parent re-derives with sympy, and the
# largest expansion degree sampled (the cli's default cap).
EXPANSION_SAMPLES = 12
EXPANSION_SAMPLE_MAX_DEGREE = 10_000


# The host's speed, sampled through the run: a fixed pure-Python task
# (rational sums and a dict of big integers, the kinds of work the program
# does) is timed before the first operation of each pass and then between
# operations, about every CALIBRATE_EVERY_S.  The parent scales each
# pass's timings by the mean of the samples taken during it.
CALIBRATE_EVERY_S = 0.05


def _calibration_task():
    total = Fraction(0)
    for i in range(1, 150):
        total += Fraction(i % 7 + 1, i)
    table = {}
    for i in range(6000):
        table[i % 251] = table.get(i % 251, 0) + i * i
    return total, table


class Calibrator:
    def __init__(self):
        self._samples = []
        self._due = perf_counter()

    def between_operations(self):
        if perf_counter() >= self._due:
            start = perf_counter()
            _calibration_task()
            end = perf_counter()
            self._samples.append(end - start)
            self._due = end + CALIBRATE_EVERY_S

    def take(self):
        """The samples so far; start anew, with a sample before the next operation."""
        samples, self._samples = self._samples, []
        self._due = 0.0
        return samples


def _passes(one_pass, calibrator, more):
    """Passes while ``more(passes)``, at least one, and the calibration samples of each."""
    passes, calibration = [], []
    while not passes or more(passes):
        passes.append(one_pass())
        calibration.append(calibrator.take())
    return passes, calibration


def _emit(record):
    sys.stdout.write(json.dumps(record) + "\n")


def _peak_rss_kib():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def run_queries(job, tracer, calibrator):
    from whlink import cli

    queries = job["queries"]
    first = [None] * len(queries)
    unstable = set()
    counts = {"attempted": 0, "failed": 0}

    def one_pass():
        latencies = []
        for i, argv in enumerate(queries):
            calibrator.between_operations()
            args = list(argv)
            out, err = io.StringIO(), io.StringIO()
            with redirect_stdout(out), redirect_stderr(err):
                start = perf_counter()
                try:
                    rc = cli.main(args)
                except Exception:  # a crash is one failed query, not the end of the run
                    rc = "uncaught"
                    traceback.print_exc()
                latencies.append(perf_counter() - start)
            text = out.getvalue()
            seen = (rc, hashlib.sha256(text.encode()).digest())
            if first[i] is None:
                first[i] = seen
                _emit({"i": i, "rc": rc, "out": text, "err": err.getvalue()})
            elif first[i] != seen:
                unstable.add(i)
            counts["attempted"] += 1
            counts["failed"] += rc != 0
        return latencies

    start = perf_counter()
    passes, calibration = _passes(one_pass, calibrator, lambda done: perf_counter() - start < job["seconds"])
    summary = {"passes": passes, "calibration_s": calibration, "peak_rss_kib": _peak_rss_kib()}
    if tracer is not None:
        tracer.install(job["traced"])
        traced = _passes(one_pass, calibrator, lambda done: len(done) < len(passes))
        summary["traced_passes"], summary["traced_calibration_s"] = traced
    summary.update(counts, unstable=sorted(unstable))
    return summary


def run_sweeps(job, tracer, calibrator):
    """One sweep through ``run_verification``, then the same sweep stage by stage.

    The whole sweep's report is what the parent checks.  The timed passes
    make the same calls as the sweep, split into short operations: the grid
    build, the relation check, and for each grid row its duality, oracle
    and cover checks, so that the host's speed is sampled between them.
    A pass is one sweep, and its time is the sum of its operations' times.
    The per-property totals of each pass that did not crash must equal
    the whole sweep's, or the run is not correct.
    """
    from whlink import verify

    max_degree, max_k = SWEEP_BOUNDS["max_degree"], SWEEP_BOUNDS["max_k"]
    failed = 0
    try:
        report = verify.run_verification(**SWEEP_BOUNDS).as_json()
    except Exception:  # a crash is one failed sweep, not the end of the run
        report = None
        failed += 1
        traceback.print_exc()
    _emit({"report": report})
    grid, _skipped = verify.build_grid(max_degree)

    def row_checks(row):
        # looked up on each call, so that a traced run calls the wrappers
        return [
            verify.check_genus_betti_duality([row]),
            verify.check_oracle_agreement([row]),
            verify.check_cover_two_path([row], max_k),
        ]

    def grid_build():
        verify.build_grid(max_degree)
        return []

    operations = [
        grid_build,
        lambda: [verify.check_group_ring_relation(min(max_degree, 40))],
        *[functools.partial(row_checks, row) for row in grid],
    ]
    totals = []

    def one_pass():
        nonlocal failed
        latencies = []
        checked = {}
        try:
            for operation in operations:
                calibrator.between_operations()
                start = perf_counter()
                properties = operation()
                latencies.append(perf_counter() - start)
                for prop in properties:
                    count = checked.setdefault(prop.name, [0, 0])
                    count[0] += prop.checked
                    count[1] += prop.failed
        except Exception:  # a crash is one failed sweep, not the end of the run
            failed += 1
            traceback.print_exc()
            return latencies + [math.inf] * (len(operations) - len(latencies))
        totals.append(checked)
        return latencies

    calibrator.take()  # not the whole sweep's
    start = perf_counter()
    # whole passes while the next is expected to end within --seconds
    passes, calibration = _passes(
        one_pass, calibrator, lambda done: perf_counter() - start + sum(done[-1]) <= job["seconds"]
    )
    summary = {"passes": passes, "calibration_s": calibration, "peak_rss_kib": _peak_rss_kib()}
    # the grid the sweep checked, for the parent to re-derive, sent after
    # the peak was read and before any tracing
    rows = [[list(ws.weights), ws.degree, g, div.as_json()] for ws, g, div in grid]
    _emit({"rows": rows, "samples": _expansion_samples(job["seed"], grid), "pass_totals": totals})
    del rows
    if tracer is not None:
        tracer.install(job["traced"])
        traced = _passes(one_pass, calibrator, lambda done: len(done) < len(passes))
        summary["traced_passes"], summary["traced_calibration_s"] = traced
    attempted = 1 + (2 if tracer is not None else 1) * len(passes)
    summary.update(attempted=attempted, failed=failed, unstable=[])
    return summary


def _expansion_samples(seed, grid):
    """A seeded sample of rows, expanded by the program's production route.

    Rows are drawn from those with a nonzero divisor of degree at most
    ``EXPANSION_SAMPLE_MAX_DEGREE``, polynomial or not: the parent decides
    with sympy whether each is a polynomial, and a refusal to expand,
    sent as None, is right exactly when it is not.
    """
    from whlink.errors import WhlinkError
    from whlink.invariants import char_poly_from_divisor

    candidates = []
    for i, (_ws, _g, div) in enumerate(grid):
        terms = div.as_json()
        if terms and sum(int(t["j"]) * int(t["num"]) for t in terms) <= EXPANSION_SAMPLE_MAX_DEGREE:
            candidates.append(i)
    picked = random.Random(f"verify-sweep:{seed}").sample(candidates, min(EXPANSION_SAMPLES, len(candidates)))
    samples = []
    for i in sorted(picked):
        try:
            samples.append([i, [str(a) for a in char_poly_from_divisor(grid[i][2])]])
        except WhlinkError:
            samples.append([i, None])
    return samples


def main():
    job = json.load(sys.stdin)
    sys.path.insert(0, job["src"])
    tracer = Tracer() if job["trace"] else None
    calibrator = Calibrator()
    if job["workload"] == "verify-sweep":
        summary = run_sweeps(job, tracer, calibrator)
    else:
        summary = run_queries(job, tracer, calibrator)
    if tracer is not None:
        summary["trace"] = tracer.as_json()
    _emit({"summary": summary})


if __name__ == "__main__":
    main()
