"""Benchmark of whlink: one workload, one run, one JSON line of results.

    python3 bench/run.py --workload verify-sweep|query-mix|huge-params \
        --seed N --seconds S --trace 0|1

Run from the root of a checkout that has ``src/whlink``.  The run measures
set-up in fresh interpreters, then starts one worker process that drives the
program through its public entry points for about S seconds (whole passes
over the query set, or whole sweeps, at least one), checks every output
against computations made apart from the program (``checks.py``), and
prints as its last line

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones; with ``--trace 1``
the worker replays the same operations with spans around calls into each
module and the metrics are the per-layer ones.  Details of the run (sample
counts, the tail percentile, errors, the span tree) go to
``.bench_results/`` in the checkout.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import compileall
import json
import math
import os
import statistics
import subprocess
import sys

import checks
import workloads
from tracer import span_calls, span_seconds

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
HERE = os.path.join(ROOT, "bench")
SRC = os.path.join(ROOT, "src")
RESULTS = os.path.join(ROOT, ".bench_results")

# Tail percentile per workload: the highest with at least ten distinct
# queries of the set beyond it (420 queries, 72 queries).  verify-sweep has
# four to six sweeps a run, too few for a tail, so its tail is its median.
TAIL_PERCENTILE = {"verify-sweep": 50.0, "query-mix": 97.5, "huge-params": 85.0}
# Module each workload's entry point lives in: what set-up imports.
ENTRY_MODULE = {"verify-sweep": "whlink.verify", "query-mix": "whlink.cli", "huge-params": "whlink.cli"}
SETUP_CHILDREN = 40
CHILD_TIMEOUT_S = 60
# Longest single operation the worker may start just before --seconds run
# out: a sweep, at up to 5 s on a 2-vCPU VM, with room to spare.
LONGEST_OP_S = 20
# Time of the worker's calibration task at this 2-vCPU VM's usual speed
# (Python 3.11).  Each pass's timings are scaled by it over the mean of the
# samples taken during the pass, so they read as wall time at that speed;
# see bench/README.md.
CALIBRATION_REFERENCE_S = 0.00175

_ORACLE = "verify.check_oracle_agreement"
_COVER = "verify.check_cover_two_path"
_GRID = "verify.build_grid"
_STAGES = (
    _GRID,
    "verify.check_group_ring_relation",
    "verify.check_genus_betti_duality",
    _ORACLE,
    _COVER,
)
_QUERY_KINDS = ("link", "cover", "genus", "realize", "smale-enum", "primes", "search")

# Per-layer time metrics: (metric, traced function, only under this span).
# Times are per operation of the workload (a sweep or a query), in the
# metric's unit.
LAYER_TIMES = [
    *[(f"{stage}_s", stage, None) for stage in _STAGES],
    ("realization.iter_integral_genus_systems_s", "realization.iter_integral_genus_systems", _GRID),
    ("invariants.milnor_orlik_divisor.base_s", "invariants.milnor_orlik_divisor", _GRID),
    ("invariants.char_poly_from_divisor_s", "invariants.char_poly_from_divisor", _ORACLE),
    ("invariants.oracle_expand_s", "invariants.oracle_expand", _ORACLE),
    ("polynomials.shifted_coefficient_s", "polynomials.shifted_coefficient", _ORACLE),
    ("divisor.reduced_value_at_one_s", "divisor.OrlikDivisor.reduced_value_at_one", _ORACLE),
    ("cover.cover_weights_s", "cover.cover_weights", _COVER),
    ("invariants.milnor_orlik_divisor.cover_s", "invariants.milnor_orlik_divisor", _COVER),
    ("cover.cover_divisor_s", "cover.cover_divisor", _COVER),
    ("cli.build_parser_ms", "cli.build_parser", None),
    ("cli.emit_json_ms", "cli._emit_json", None),
    ("invariants.link_invariants_ms", "invariants.link_invariants", None),
    ("cover.build_cover_ms", "cover.build_cover", None),
    ("realization.realize_ms", "realization.realize", None),
    ("realization.search_weight_systems_ms", "realization.search_weight_systems", None),
    ("smale.smale_decompositions_ms", "smale.smale_decompositions", None),
    ("primes.primes_4l_minus_1_ms", "primes.primes_4l_minus_1", None),
    ("divisor.encodes_polynomial_ms", "divisor.OrlikDivisor.encodes_polynomial", None),
    ("invariants.milnor_orlik_divisor_ms", "invariants.milnor_orlik_divisor", None),
    ("primes.factorize_ms", "primes.factorize", None),
    ("primes.is_prime_ms", "primes.is_prime", None),
]
TRACED = sorted({function for _metric, function, _within in LAYER_TIMES})


def _percentile(values, pct):
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(pct / 100 * len(ordered)) - 1)]


def measure_setup(module, children):
    """Seconds to import ``module`` in each of ``children`` fresh interpreters, in turn."""
    probe = os.path.join(HERE, "setup_probe.py")
    samples = []
    for _ in range(children):
        done = subprocess.run(
            [sys.executable, probe, SRC, module],
            capture_output=True,
            text=True,
            timeout=CHILD_TIMEOUT_S,
            check=True,
        )
        samples.append(float(done.stdout))
    return samples


def run_worker(job):
    # whole passes until --seconds run out, then a traced replay of as many
    timeout = (2 if job["trace"] else 1) * (job["seconds"] + LONGEST_OP_S) + 30
    done = subprocess.run(
        [sys.executable, os.path.join(HERE, "worker.py")],
        input=json.dumps(job),
        capture_output=True,
        text=True,
        timeout=timeout,
    )
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        raise SystemExit(f"worker exited with {done.returncode}")
    records = [json.loads(line) for line in done.stdout.splitlines()]
    return records[:-1], records[-1]["summary"]


def check_outputs(workload, queries, records, summary):
    """Errors found in the outputs, by the checks made apart from the program."""
    errors = [f"query {i} printed different output on a later pass" for i in summary["unstable"]]
    if workload == "verify-sweep":
        reports = [r["report"] for r in records if "report" in r]
        grid = next(r for r in records if "rows" in r)
        for report in reports:
            if report is not None:
                errors += checks.sweep_errors(report, grid["rows"], grid["samples"])
                whole = {p["name"]: [p["checked"], p["failed"]] for p in report["properties"]}
                for n, totals in enumerate(grid["pass_totals"]):
                    if totals != whole:
                        errors.append(f"pass {n} of the sweep stage by stage counted {totals}, the sweep {whole}")
        return errors, reports, grid["rows"]
    for record in records:
        if record["rc"] == 0:
            argv = queries[record["i"]]
            errors += [f"{' '.join(argv)}: {e}" for e in checks.query_errors(argv, record["out"])]
    return errors, None, None


def latencies(workload, passes):
    """Time of each operation of the workload: a query, or a sweep (a pass)."""
    if workload == "verify-sweep":
        return [sum(one_pass) for one_pass in passes]
    return [t for one_pass in passes for t in one_pass]


def scaled(passes, calibration):
    """Each pass's wall times, taken to the reference host speed by its calibration samples."""
    return [
        [t * CALIBRATION_REFERENCE_S / statistics.fmean(samples) for t in one_pass]
        for one_pass, samples in zip(passes, calibration)
    ]


def op_metrics(workload, passes):
    """Median, throughput and tail of the operations' times, in seconds."""
    times = latencies(workload, passes)
    return {
        "op_p50": statistics.median(times),
        "ops_per_s": len(times) / sum(times),
        "op_tail": _percentile(times, TAIL_PERCENTILE[workload]),
    }


def end_to_end_metrics(workload, summary, setup_s):
    ops = op_metrics(workload, scaled(summary["passes"], summary["calibration_s"]))
    return {
        "setup_s": (setup_s, "s"),
        "op_p50_ms": (ops["op_p50"] * 1000, "ms"),
        "ops_per_s": (ops["ops_per_s"], "1/s"),
        "op_tail_ms": (ops["op_tail"] * 1000, "ms"),
        "peak_rss_mib": (summary["peak_rss_kib"] / 1024, "MiB"),
    }


def _vacuous_checks(rows, max_k):
    """Checks the sweep makes on rows whose divisor is zero (a weight equals d).

    Such a row gets one duality check, three oracle checks (the two
    expansions, the root at t = 1 and the value there, all of the constant
    1) and three per coprime cover exponent: none of them can fail.
    """
    total = 0
    for weights, d, _g, _terms in rows:
        if d in weights:
            total += 4 + 3 * sum(1 for k in range(2, max_k + 1) if math.gcd(d, k) == 1)
    return total


def per_layer_metrics(queries, summary, reports, rows):
    spans = summary["trace"]["spans"]
    traced = [t for one_pass in summary["traced_passes"] for t in one_pass]
    # per operation of the workload: a query, or a sweep (one pass)
    ops = len(traced) if queries else len(summary["traced_passes"])
    metrics = {}
    for metric, function, within in LAYER_TIMES:
        scale = 1000 if metric.endswith("_ms") else 1
        metrics[metric] = (span_seconds(spans, function, within) / ops * scale, metric.rsplit("_", 1)[1])
    stages = sum(span_seconds(spans, stage) for stage in _STAGES)
    metrics["verify.unaccounted_s"] = ((sum(traced) - stages) / ops if stages else 0.0, "s")
    untraced = sum(map(sum, scaled(summary["passes"], summary["calibration_s"])))
    traced_scaled = sum(map(sum, scaled(summary["traced_passes"], summary["traced_calibration_s"])))
    metrics["trace.overhead_pct"] = ((traced_scaled - untraced) / untraced * 100, "%")
    by_kind = {kind: [] for kind in _QUERY_KINDS}
    for one_pass in summary["passes"]:
        for argv, t in zip(queries or [], one_pass):
            by_kind[argv[0]].append(t)
    for kind, times in by_kind.items():
        metrics[f"query.{kind}_p50_ms"] = (statistics.median(times) * 1000 if times else 0.0, "ms")

    report = next((r for r in reports or [] if r is not None), None)
    checked = sum(p["checked"] for p in report["properties"]) if report else 0
    substantive = checked - _vacuous_checks(rows, report["max_k"]) if report and rows else 0
    divisors = [json.dumps(r[3]) for r in rows or []]
    degrees = [sum(int(t["j"]) * int(t["num"]) for t in r[3]) for r in rows or []]
    counts = {
        "verify.systems": report["systems"] if report else 0,
        "verify.skipped_nonintegral": report["skipped_nonintegral"] if report else 0,
        "verify.vacuous_systems": sum(1 for r in rows or [] if r[1] in r[0]),
        "verify.checks": checked,
        "verify.substantive_checks": substantive,
        "cover.cells": span_calls(spans, "cover.cover_divisor", _COVER) // ops,
        "oracle.rows": span_calls(spans, "invariants.oracle_expand", _ORACLE) // ops,
        "oracle.distinct_divisors": len(set(divisors)),
        "oracle.max_poly_degree": max(degrees, default=0),
    }
    metrics.update({name: (value, "count") for name, value in counts.items()})
    metrics["verify.substantive_ratio"] = (substantive / checked if checked else 0.0, "ratio")
    metrics["oracle.distinct_ratio"] = (len(set(divisors)) / len(divisors) if divisors else 0.0, "ratio")
    return metrics


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(TAIL_PERCENTILE))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "whlink", "__init__.py")):
        raise SystemExit(f"no program to measure: {SRC}/whlink is missing")

    queries = None if args.workload == "verify-sweep" else workloads.inputs(args.workload, args.seed)
    # compile the program's bytecode first, as an installed package has it,
    # so that set-up does not depend on whether an earlier import wrote it
    compileall.compile_dir(os.path.join(SRC, "whlink"), quiet=1)
    # set-up is sampled half before and half after the worker, so that the
    # median spans the run rather than one moment of a shared machine
    setup_samples = []
    if not args.trace:
        setup_samples += measure_setup(ENTRY_MODULE[args.workload], SETUP_CHILDREN // 2)
    job = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "src": SRC,
        "queries": queries,
        "traced": TRACED,
    }
    records, summary = run_worker(job)
    if not args.trace:
        setup_samples += measure_setup(ENTRY_MODULE[args.workload], SETUP_CHILDREN - SETUP_CHILDREN // 2)
    errors, reports, rows = check_outputs(args.workload, queries, records, summary)
    if args.trace:
        metrics = per_layer_metrics(queries, summary, reports, rows)
    else:
        metrics = end_to_end_metrics(args.workload, summary, statistics.median(setup_samples))
    result = {
        "correct": not errors,
        "attempted": summary["attempted"],
        "failed": summary["failed"],
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    os.makedirs(RESULTS, exist_ok=True)
    details = {
        "args": vars(args),
        "result": result,
        "errors": errors,
        "samples": len([t for one_pass in summary["passes"] for t in one_pass]),
        "passes": len(summary["passes"]),
        "tail_percentile": TAIL_PERCENTILE[args.workload],
        "setup_samples_s": setup_samples,
        "pass_latencies_s": summary["passes"],
        "wall_time_metrics_s": op_metrics(args.workload, summary["passes"]),
        "calibration_s": summary["calibration_s"],
        "trace": summary.get("trace"),
    }
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(os.path.join(RESULTS, name), "w") as fh:
        json.dump(details, fh, indent=1)
    for error in errors[:20]:
        print(f"error: {error}", file=sys.stderr)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
