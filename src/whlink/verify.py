"""Cross-validation sweeps pitting independent formulas against each other.

Four properties, each checkable by exhaustion over a bounded grid:

  * the divisor ring's product against raw root multisets;
  * twice the genus against the divisor's coefficient sum;
  * the production polynomial expansion against the brute-force one, and
    the latter's degree and value at t = 1 against the divisor's;
  * the two ways of computing a cover divisor, together with the vanishing
    of b_2 and the k^(2g) order law.

Every check that can fail is counted rather than raised, so one bad cell
does not hide the rest; the last three properties count
``invariants.genus_betti_check``, ``expansion_check`` and
``cover.cover_checks``, which ``link`` and ``cover`` raise on.  Each check
is one ``record(failure)`` call, where ``failure`` is None or the error or
text describing it, built only when the check fails.
"""

from __future__ import annotations

from math import gcd

from . import polynomials as poly
from .cover import cover_checks, cover_divisor, cover_weights
from .divisor import relation_holds
from .errors import InputError, NotAPolynomialError, require_int
from .invariants import char_poly_from_divisor, expansion_check, genus_betti_check, oracle_expand
from .realization import iter_integral_genus_systems

_FAILURE_CAP = 10
# Figures from a 2-vCPU Intel Xeon VM with Python 3.11.7, whose speed
# varies by about a third from run to run.  The grid grows as d^4 in the
# degree bound: `whlink verify` takes 5 s at --max-degree 40 and 12 s at 48
# for the whole process, all but about 1.5 s of it in the oracle stage; the
# (1,1,1; 48) oracle cell alone takes 1.0 s, and (1,1,1; 64) 6 s.
MAX_VERIFY_DEGREE = 48
# The cover stage grows linearly in the cover bound, about 0.09 s per unit
# of --max-k at --max-degree 48: `whlink verify --max-degree 48 --max-k 200`
# takes 28 s for the whole process, at 78 MiB resident.
MAX_VERIFY_K = 200


class PropertyCheck:
    """Counts of one property's checks, and the first failures' descriptions.

    ``record(failure)`` counts one check, which passed when ``failure`` is
    None; a failure within the cap is kept as ``str(failure)``.
    """

    def __init__(self, name: str):
        self.name = name
        self.checked = 0
        self.failed = 0
        self.failures = []

    def record(self, failure):
        self.checked += 1
        if failure is not None:
            self.failed += 1
            if len(self.failures) < _FAILURE_CAP:
                self.failures.append(str(failure))

    @property
    def ok(self) -> bool:
        return self.failed == 0


class VerificationReport:
    """The bounds of one ``run_verification``, its grid counts and its properties."""

    def __init__(self, max_degree, max_k, systems, skipped_nonintegral, checks):
        self.max_degree = max_degree
        self.max_k = max_k
        self.systems = systems
        self.skipped_nonintegral = skipped_nonintegral
        self.checks = checks

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.checks)

    def as_json(self) -> dict:
        report = dict(vars(self))
        report["properties"] = [dict(vars(c)) for c in report.pop("checks")]
        report["ok"] = self.ok
        return report


def check_group_ring_relation(max_index: int) -> PropertyCheck:
    """The ring's product lam(a) lam(b) against pairwise sums of root multisets."""
    check = PropertyCheck("group_ring_relation")
    for a in range(1, max_index + 1):
        for b in range(1, max_index + 1):
            ok = relation_holds(a, b)
            check.record(None if ok else f"relation fails for lam({a}) * lam({b})")
    return check


def check_genus_betti_duality(grid) -> PropertyCheck:
    """``invariants.genus_betti_check``, b_1 = 2g, on every row of the grid."""
    check = PropertyCheck("genus_betti_duality")
    for ws, g, div in grid:
        check.record(genus_betti_check(ws, g, div))
    return check


def check_oracle_agreement(grid) -> PropertyCheck:
    """Both polynomial expansions agree, and so do the values at t = 1.

    The oracle polynomial must pass ``invariants.expansion_check``, which
    ``link`` raises on for the production one.  The (t - 1)^multiplicity
    factor is then stripped off it by reading the matching coefficient of
    p(1 + s), which must equal the divisor-side product of the j^{c_j}.
    Grid divisors encode polynomials, so a route that refuses one fails.
    """
    check = PropertyCheck("oracle_agreement")
    for ws, _g, div in grid:
        try:
            pipeline = char_poly_from_divisor(div)
            oracle = oracle_expand(div)
            value = div.reduced_value_at_one()
        except NotAPolynomialError as exc:
            check.record(f"{ws}: {exc}")
            continue
        check.record(None if pipeline == oracle else f"{ws}: polynomial expansions disagree")
        check.record(expansion_check(ws, div, oracle, value))
        shifted = poly.shifted_coefficient(oracle, div.coefficient_sum())
        check.record(None if shifted == value else f"{ws}: value at t = 1 came out {shifted}")
    return check


def check_cover_two_path(grid, max_k: int) -> PropertyCheck:
    """``cover.cover_checks``, which ``build_cover`` raises on, for each coprime k.

    A cover divisor whose value at t = 1 is refused is one failed check.
    """
    check = PropertyCheck("cover_two_path")
    for ws, g, div in grid:
        for k in range(2, max_k + 1):
            if gcd(ws.degree, k) == 1:
                via = cover_divisor(div, k)
                try:
                    order = via.reduced_value_at_one()
                except NotAPolynomialError as exc:
                    check.record(f"{ws}, k={k}: {exc}")
                    continue
                for failure in cover_checks(ws, g, k, via, order, cover_weights(ws, k)):
                    check.record(failure)
    return check


def build_grid(max_degree: int) -> tuple:
    """The regression grid: (system, genus, divisor) triples, plus a skip count.

    Systems of integral genus that the link gate rejects (divisor None)
    have no link for the theorems to talk about, so they are counted, not
    swept.
    """
    rows = list(iter_integral_genus_systems(max_degree))
    grid = [row for row in rows if row[2] is not None]  # a linear cone's divisor is falsy
    return grid, len(rows) - len(grid)


def run_verification(max_degree: int, max_k: int) -> VerificationReport:
    """Run every sweep at the given bounds and collect one report.

    Bounds that leave a sweep empty, or that pass ``MAX_VERIFY_DEGREE`` or
    ``MAX_VERIFY_K``, raise ``InputError``: an empty sweep is no evidence,
    and one past the caps runs for minutes.
    """
    require_int(max_degree, 1, "max degree must be a positive integer")
    require_int(max_k, 2, "max k must be an integer >= 2")
    if max_degree > MAX_VERIFY_DEGREE:
        raise InputError(f"max degree must be at most {MAX_VERIFY_DEGREE}, got {max_degree}")
    if max_k > MAX_VERIFY_K:
        raise InputError(f"max k must be at most {MAX_VERIFY_K}, got {max_k}")
    grid, skipped = build_grid(max_degree)
    checks = [
        check_group_ring_relation(min(max_degree, 40)),
        check_genus_betti_duality(grid),
        check_oracle_agreement(grid),
        check_cover_two_path(grid, max_k),
    ]
    return VerificationReport(
        max_degree=max_degree,
        max_k=max_k,
        systems=len(grid),
        skipped_nonintegral=skipped,
        checks=checks,
    )
