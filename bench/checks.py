"""Correctness checks made apart from the program.

Every check recomputes what an output must say from classical formulas,
with exact rationals and sympy 1.14, and never calls the program:

  * the Milnor-Orlik divisor prod_i (lam(u_i)/v_i - 1) by its subset
    expansion sum_S (-1)^(n-|S|) d^|S| / (prod_{i in S} w_i * L_S) lam(L_S),
    L_S = lcm{u_i : i in S};
  * Milnor's mu = prod_i (d/w_i - 1) = sum_j j c_j;
  * b = sum_j c_j, which is 2g for a curve (Orlik-Wagreich genus formula,
    (d-1)(d-2)/2 for a plane curve) and 0 for a coprime cover;
  * |H_2| = prod_j j^c_j when b = 0, which is k^(2g) for a cover;
  * Delta(t) = prod_j (t^j - 1)^c_j, checked as Delta * (denominator) =
    (numerator) in sympy's sparse integer polynomial ring;
  * sympy's factorint, partition, isprime and primerange for the
    number-theoretic outputs.

Each function returns a list of error strings; an empty list means the
output is right.  Run this file to self-test the checks: it takes correct
outputs from the program, plants one wrong answer at a time, and requires
every planted answer to be caught.

    python3 bench/checks.py
"""

from __future__ import annotations

import json
from fractions import Fraction
from itertools import combinations
from math import comb, gcd, lcm, prod

from sympy import ZZ, factorint, isprime, partition, primerange
from sympy.polys.rings import ring

_RING, _ = ring("t", ZZ)


# -- classical formulas --------------------------------------------------


def orlik_divisor(weights, d) -> dict:
    """Milnor-Orlik divisor {j: c_j} of the link of (weights; d), zeros dropped."""
    n = len(weights)
    ratios_u = [d // gcd(d, w) for w in weights]
    out = {}
    for size in range(n + 1):
        for subset in combinations(range(n), size):
            top = 1
            denom = 1
            for i in subset:
                top = lcm(top, ratios_u[i])
                denom *= weights[i]
            term = Fraction((-1) ** (n - size) * d**size, denom * top)
            out[top] = out.get(top, 0) + term
    return {j: c for j, c in out.items() if c}


def milnor_number(weights, d) -> Fraction:
    return prod(Fraction(d, w) - 1 for w in weights)


def genus_formula(weights, d) -> Fraction:
    """Orlik-Wagreich genus of the curve of a 3-variable system, exactly."""
    w1, w2, w3 = weights
    value = (
        Fraction(d * d, w1 * w2 * w3)
        - d * (Fraction(gcd(w1, w2), w1 * w2) + Fraction(gcd(w1, w3), w1 * w3) + Fraction(gcd(w2, w3), w2 * w3))
        + Fraction(gcd(d, w1), w1)
        + Fraction(gcd(d, w2), w2)
        + Fraction(gcd(d, w3), w3)
        - 1
    )
    return value / 2


def _binomial_block(j, c):
    """(t^j - 1)^c from the binomial theorem, in sympy's sparse ring."""
    return _RING({(j * i,): (-1) ** (c - i) * comb(c, i) for i in range(c + 1)})


def _numerator_denominator(divisor: dict):
    """prod_j (t^j - 1)^c_j as a fraction: the blocks with c_j > 0 over the rest."""
    numerator = _RING.one
    denominator = _RING.one
    for j, c in divisor.items():
        if c > 0:
            numerator *= _binomial_block(j, int(c))
        else:
            denominator *= _binomial_block(j, int(-c))
    return numerator, denominator


def is_polynomial(divisor: dict) -> bool:
    """Does the denominator of prod_j (t^j - 1)^c_j divide its numerator?"""
    numerator, denominator = _numerator_denominator(divisor)
    return numerator.rem(denominator) == 0


def expansion_errors(divisor: dict, coefficients: list) -> list:
    """Is prod_j (t^j - 1)^c_j the polynomial with these coefficients (constant first)?"""
    numerator, denominator = _numerator_denominator(divisor)
    poly = _RING({(i,): a for i, a in enumerate(coefficients) if a})
    if poly * denominator != numerator:
        return ["delta_poly differs from the sympy expansion of the divisor"]
    return []


def smallest_family_prime(k: int) -> int:
    p = 3
    while not (isprime(p) and gcd(p, k) == 1):
        p += 4
    return p


def smale_count(k: int) -> int:
    return prod(int(partition(e)) for e in factorint(k).values())


# -- output checks -------------------------------------------------------


def parse_divisor(terms) -> dict:
    return {int(t["j"]): Fraction(int(t["num"]), int(t["den"])) for t in terms}


def link_errors(rep, weights, d) -> list:
    """A link record (``link`` output, or the base or cover inside ``cover``)."""
    weights = tuple(weights)
    if rep["weights"] != list(weights) or rep["degree"] != d:
        return [f"record is for {rep['weights']}; {rep['degree']}, asked {weights}; {d}"]
    errors = []
    div = parse_divisor(rep["divisor"])
    if div != orlik_divisor(weights, d):
        errors.append("divisor differs from the Milnor-Orlik product")
    mu = milnor_number(weights, d)
    if sum(j * c for j, c in div.items()) != mu:
        errors.append(f"sum j c_j differs from Milnor's mu = {mu}")
    betti = sum(div.values())
    if rep["betti"] != betti:
        errors.append(f"betti {rep['betti']} differs from the coefficient sum {betti}")
    if len(weights) == 3:
        g = genus_formula(weights, d)
        if rep["genus"] != g or rep["betti"] != 2 * g:
            errors.append(f"genus {rep['genus']} / betti {rep['betti']} against formula genus {g}")
        if weights == (1, 1, 1) and rep["genus"] != (d - 1) * (d - 2) // 2:
            errors.append("plane curve genus is not (d-1)(d-2)/2")
    elif rep["genus"] is not None:
        errors.append("genus reported for a system that is not a curve")
    at_one = None
    if betti == 0:
        at_one = prod(Fraction(j) ** int(c) for j, c in div.items())
    if rep["delta_at_one"] != (None if at_one is None else str(at_one)):
        errors.append(f"delta_at_one {rep['delta_at_one']} differs from prod j^c_j = {at_one}")
    if rep["delta_poly"] is not None and not errors:
        coefficients = [int(a) for a in rep["delta_poly"]]
        if len(coefficients) - 1 != mu:
            errors.append(f"delta_poly has degree {len(coefficients) - 1}, mu is {mu}")
        elif sum(coefficients) != (at_one or 0):
            errors.append("delta_poly(1) differs from the value at t = 1")
        else:
            errors.extend(expansion_errors(div, coefficients))
    return errors


def cover_errors(out, weights, d, k, skip_direct_path=False) -> list:
    if out["k"] != k:
        return [f"cover for k = {out['k']}, asked {k}"]
    errors = link_errors(out["base"], weights, d)
    cover_weights = (d,) + tuple(k * w for w in weights)
    errors += link_errors(out["cover"], cover_weights, k * d)
    if out["cover"]["betti"] != 0:
        errors.append(f"cover has b_2 = {out['cover']['betti']}, not 0")
    expected = k ** (2 * genus_formula(weights, d))
    if out["cover"]["delta_at_one"] != str(expected):
        errors.append(f"|H_2| = {out['cover']['delta_at_one']}, not k^(2g) = {expected}")
    if skip_direct_path and out["paths_agree"] is not None:
        errors.append("paths_agree is not null, yet the direct path was skipped")
    elif not skip_direct_path and out["paths_agree"] is not True:
        errors.append("the two cover divisor paths were not both run and equal")
    return errors


def manifold_errors(m, k) -> list:
    orders = [p**s for p, s in ((x["prime"], x["exponent"]) for x in m["summands"])]
    errors = []
    if prod(orders) != k or any(not isprime(x["prime"]) for x in m["summands"]):
        errors.append(f"summands {m['label']} do not multiply to {k}")
    if m["h2_order"] != str(k * k):
        errors.append(f"manifold order {m['h2_order']} is not {k}^2")
    if m["elementary_divisors"] != [str(q) for q in sorted(orders * 2)]:
        errors.append(f"elementary divisors of {m['label']} are not the paired orders")
    return errors


def smale_errors(out, k) -> list:
    expected = smale_count(k)
    candidates = out["candidates"]
    errors = []
    if out["k"] != k or out["count"] != expected or len(candidates) != expected:
        errors.append(f"{out['count']} candidates for k = {k}, expected {expected}")
    if out["unique"] != (expected == 1):
        errors.append("unique flag disagrees with the count")
    summand_sets = {json.dumps(sorted(map(json.dumps, m["summands"]))) for m in candidates}
    if len(summand_sets) != len(candidates):
        errors.append("repeated candidate manifold")
    for m in candidates:
        errors += manifold_errors(m, k)
    return errors


def realize_errors(out, k, prime=None) -> list:
    """A ``realize`` certificate; ``prime`` is the family prime asked for, if any."""
    p = smallest_family_prime(k) if prime is None else prime
    if out["k"] != k or out["chosen_p"] != p:
        return [f"chosen_p {out['chosen_p']} for k = {k}, expected {p}"]
    weights = (1, (p + 1) // 4, (p - 1) // 2)
    family = out["family"]
    errors = []
    if (family["p"], family["l"], tuple(family["weights"]), family["degree"]) != (p, (p + 1) // 4, weights, p):
        errors.append(f"family member {family} is not (1, (p+1)/4, (p-1)/2; p)")
    if genus_formula(weights, p) != 1:
        errors.append("family member is not genus one")
    errors += cover_errors(out["cover"], weights, p, k)
    if out["h2_order"] != str(k * k):
        errors.append(f"h2_order {out['h2_order']} is not {k}^2")
    errors += smale_errors(
        {"k": k, "count": len(out["candidates"]), "unique": not out["group_undetermined"], "candidates": out["candidates"]},
        k,
    )
    expected_manifold = out["candidates"][0] if len(out["candidates"]) == 1 else None
    if out["manifold"] != expected_manifold:
        errors.append("manifold is not the unique candidate (or null when undetermined)")
    return errors


def primes_errors(out, limit) -> list:
    expected = [p for p in primerange(3, limit + 1) if p % 4 == 3]
    if out["limit"] != limit or out["primes"] != expected:
        return [f"primes up to {limit} differ from sympy's primes = 3 mod 4"]
    return []


def search_errors(out, genus, max_degree) -> list:
    systems = out["systems"]
    errors = []
    if out["target_genus"] != genus or out["max_degree"] != max_degree or out["count"] != len(systems):
        errors.append("search header disagrees with its hits")
    keys = [(s["degree"], tuple(s["weights"])) for s in systems]
    if len(set(keys)) != len(keys):
        errors.append("repeated search hit")
    for d, weights in keys:
        if len(weights) != 3 or d > max_degree or gcd(*weights) != 1 or genus_formula(weights, d) != genus:
            errors.append(f"hit {weights}; {d} does not have genus {genus} within degree {max_degree}")
    return errors


def genus_errors(out, weights, d) -> list:
    g = genus_formula(weights, d)
    if out["weights"] != list(weights) or out["degree"] != d or out["genus"] != g or out["fano_index"] != sum(weights):
        return [f"genus record {out} against formula genus {g}"]
    return []


def _flag(argv, name):
    return argv[argv.index(name) + 1]


def query_errors(argv, text) -> list:
    """Check the JSON printed for one cli argument list."""
    try:
        out = json.loads(text)
    except ValueError:
        return ["output is not JSON"]
    kind = argv[0]
    try:
        if kind in ("link", "cover", "genus"):
            weights = tuple(int(w) for w in _flag(argv, "--weights").split(","))
            d = int(_flag(argv, "--degree"))
            if kind == "link":
                return link_errors(out, weights, d)
            if kind == "cover":
                return cover_errors(out, weights, d, int(_flag(argv, "-k")), "--skip-direct-path" in argv)
            return genus_errors(out, weights, d)
        if kind == "realize":
            return realize_errors(out, int(argv[1]), int(_flag(argv, "--prime")) if "--prime" in argv else None)
        if kind == "smale-enum":
            return smale_errors(out, int(argv[1]))
        if kind == "primes":
            return primes_errors(out, int(_flag(argv, "--limit")))
        if kind == "search":
            return search_errors(out, int(_flag(argv, "--genus")), int(_flag(argv, "--max-degree")))
    except (KeyError, TypeError, ValueError) as exc:
        return [f"malformed output: {exc!r}"]
    return [f"no check for query kind {kind!r}"]


def row_errors(row, max_degree) -> list:
    """One regression-grid row [weights, degree, genus, divisor] of the sweep."""
    weights, d, g, terms = row
    weights = tuple(weights)
    if len(weights) != 3 or list(weights) != sorted(weights) or gcd(*weights) != 1 or not 1 <= d <= max_degree:
        return [f"row {weights}; {d} is not a sorted primitive system within the grid"]
    errors = []
    formula = genus_formula(weights, d)
    if g != formula:
        errors.append(f"row {weights}; {d}: genus {g}, formula gives {formula}")
    div = parse_divisor(terms)
    if div != orlik_divisor(weights, d):
        errors.append(f"row {weights}; {d}: divisor differs from the Milnor-Orlik product")
    elif sum(div.values()) != 2 * formula:
        errors.append(f"row {weights}; {d}: b_1 is not 2g")
    elif sum(j * c for j, c in div.items()) != milnor_number(weights, d):
        errors.append(f"row {weights}; {d}: sum j c_j is not mu")
    if weights == (1, 1, 1) and g != (d - 1) * (d - 2) // 2:
        errors.append(f"row {weights}; {d}: plane curve genus is not (d-1)(d-2)/2")
    return errors


def sweep_errors(report, rows, samples) -> list:
    """A verification report, its grid rows, and sampled expansions of rows."""
    errors = []
    if report["ok"] is not True:
        errors.append("report is not ok")
    for prop in report["properties"]:
        if prop["checked"] <= 0 or prop["failed"] != 0 or prop["failures"]:
            errors.append(f"property {prop['name']}: {prop['checked']} checked, {prop['failed']} failed")
    if not report["properties"]:
        errors.append("report has no properties")
    if rows is None:
        return errors
    if report["systems"] != len(rows):
        errors.append(f"report counts {report['systems']} systems, the grid has {len(rows)}")
    keys = {(tuple(r[0]), r[1]) for r in rows}
    if len(keys) != len(rows):
        errors.append("repeated grid row")
    for row in rows:
        errors += row_errors(row, report["max_degree"])
    for index, coefficients in samples:
        div = parse_divisor(rows[index][3])
        if coefficients is not None:
            errors += expansion_errors(div, [int(a) for a in coefficients])
        elif is_polynomial(div):
            errors.append(f"row {rows[index][:2]}: the program refused to expand a polynomial divisor")
    return errors


# -- self-test -----------------------------------------------------------

_SELF_TEST_QUERIES = [
    ["link", "--weights", "1,2,3", "--degree", "12"],
    ["link", "--weights", "1,1,1", "--degree", "5"],
    ["link", "--weights", "2,3,5", "--degree", "30"],
    ["cover", "--weights", "1,2,3", "--degree", "7", "-k", "3"],
    ["cover", "--weights", "1,1,1", "--degree", "3", "-k", "2", "--skip-direct-path"],
    ["genus", "--weights", "1,2,3", "--degree", "7"],
    ["realize", "12"],
    ["realize", "8", "--prime", "7"],
    ["smale-enum", "72"],
    ["primes", "--limit", "100"],
    ["search", "--genus", "1", "--max-degree", "12"],
]


def _plants(kind, out):
    """Yield (label, wrong output) pairs, each with one planted wrong answer."""

    def edited(edit):
        copy = json.loads(json.dumps(out))
        edit(copy)
        return copy

    def bump_divisor(rep):
        rep["divisor"][0]["num"] = str(int(rep["divisor"][0]["num"]) + 1)

    def bump_poly(rep):
        rep["delta_poly"][1] = str(int(rep["delta_poly"][1]) + 1)
        rep["delta_poly"][2] = str(int(rep["delta_poly"][2]) - 1)

    if kind == "link":
        yield "divisor", edited(bump_divisor)
        yield "betti", edited(lambda o: o.update(betti=o["betti"] + 2))
        if out["genus"] is not None:
            yield "genus", edited(lambda o: o.update(genus=o["genus"] + 1))
        if out["delta_poly"] is not None:
            yield "delta_poly", edited(bump_poly)
        yield "delta_at_one", edited(lambda o: o.update(delta_at_one="7"))
    elif kind == "cover":
        yield "cover betti", edited(lambda o: o["cover"].update(betti=1))
        yield "cover order", edited(lambda o: o["cover"].update(delta_at_one=str(int(o["cover"]["delta_at_one"]) * 2)))
        yield "cover divisor", edited(lambda o: bump_divisor(o["cover"]))
        yield "paths_agree", edited(lambda o: o.update(paths_agree=not o["paths_agree"]))
    elif kind == "genus":
        yield "genus", edited(lambda o: o.update(genus=o["genus"] + 1))
    elif kind == "realize":
        yield "chosen_p", edited(lambda o: o.update(chosen_p=11))
        yield "h2_order", edited(lambda o: o.update(h2_order=str(int(o["h2_order"]) + 1)))
        yield "candidates", edited(lambda o: o["candidates"].pop())
        yield "cover order", edited(lambda o: o["cover"]["cover"].update(delta_at_one="1"))
    elif kind == "smale-enum":
        yield "count", edited(lambda o: o.update(count=o["count"] + 1))
        yield "dropped candidate", edited(lambda o: (o["candidates"].pop(), o.update(count=o["count"] - 1)))
        yield "summand", edited(lambda o: o["candidates"][0]["summands"][0].update(exponent=9))
    elif kind == "primes":
        yield "dropped prime", edited(lambda o: o["primes"].pop(3))
        yield "extra prime", edited(lambda o: o["primes"].append(101))
    elif kind == "search":
        yield "wrong-genus hit", edited(lambda o: o["systems"][0].update(degree=o["systems"][0]["degree"] + 1))
        yield "count", edited(lambda o: o.update(count=o["count"] + 1))


def self_test(src: str) -> int:
    """Plant one wrong answer at a time into correct outputs; every one must be caught."""
    import contextlib
    import io
    import random
    import sys

    sys.path.insert(0, src)
    from whlink import cli, verify
    from whlink.invariants import char_poly_from_divisor

    missed = []
    caught = 0
    for argv in _SELF_TEST_QUERIES:
        argv = argv + ["--format", "json"]
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            rc = cli.main(argv)
        text = buf.getvalue()
        good = query_errors(argv, text) if rc == 0 else [f"exit code {rc}"]
        if good:
            missed.append(f"{' '.join(argv)}: correct output rejected: {good}")
            continue
        for label, wrong in _plants(argv[0], json.loads(text)):
            if query_errors(argv, json.dumps(wrong)):
                caught += 1
            else:
                missed.append(f"{argv[0]}: planted wrong {label} was not caught")

    report = verify.run_verification(max_degree=10, max_k=4).as_json()
    grid, _skipped = verify.build_grid(10)
    rows = [[list(ws.weights), ws.degree, g, div.as_json()] for ws, g, div in grid]
    index = next(i for i, (_ws, _g, div) in enumerate(grid) if div)
    samples = [(index, [str(a) for a in char_poly_from_divisor(grid[index][2])])]
    good = sweep_errors(report, rows, samples)
    if good:
        missed.append(f"sweep: correct report rejected: {good[:3]}")
    rng = random.Random(0)

    def planted_sweeps():
        bad = json.loads(json.dumps(report))
        bad["properties"][2]["failed"] = 1
        yield "failed property", bad, rows, samples
        bad = json.loads(json.dumps(report))
        bad["properties"][0]["checked"] = 0
        yield "empty property", bad, rows, samples
        bad = json.loads(json.dumps(report))
        bad["systems"] += 1
        yield "system count", bad, rows, samples
        bad_rows = json.loads(json.dumps(rows))
        bad_rows[index][2] += 1
        yield "row genus", report, bad_rows, samples
        bad_rows = json.loads(json.dumps(rows))
        bad_rows[index][3][0]["num"] = str(int(bad_rows[index][3][0]["num"]) - 1)
        yield "row divisor", report, bad_rows, samples
        coefficients = list(samples[0][1])
        i = rng.randrange(len(coefficients))
        coefficients[i] = str(int(coefficients[i]) + 1)
        yield "row expansion", report, rows, [(index, coefficients)]
        yield "refused expansion", report, rows, [(index, None)]

    for label, bad_report, bad_rows, bad_samples in planted_sweeps():
        if sweep_errors(bad_report, bad_rows, bad_samples):
            caught += 1
        else:
            missed.append(f"sweep: planted wrong {label} was not caught")
    for line in missed:
        print(f"FAIL {line}")
    print(f"self-test: {caught} planted wrong answers caught, {len(missed)} problems")
    return 1 if missed else 0


if __name__ == "__main__":
    import os
    import sys

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    sys.exit(self_test(os.path.join(root, "src")))
