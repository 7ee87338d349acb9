"""Cross-validation sweeps pitting independent formulas against each other.

Four properties, each checkable by exhaustion over a bounded grid:

  * the multiplication rule of the divisor ring against raw root multisets;
  * twice the genus against the divisor's coefficient sum;
  * the production polynomial expansion against the brute-force one,
    including the value at t = 1 after stripping t - 1 factors;
  * the two ways of computing a cover divisor, together with the vanishing
    of b_2 and the k^(2g) order law.

Every check that can fail is counted rather than raised, so one bad cell
does not hide the rest; the report carries a capped list of failure
descriptions for diagnosis.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import gcd

from . import polynomials as poly
from .cover import cover_divisor, cover_weights
from .divisor import relation_holds
from .errors import InputError, NotAPolynomialError, NotASmoothCurveError, require_int
from .invariants import char_poly_from_divisor, link_divisor, milnor_orlik_divisor, oracle_expand
from .realization import iter_integral_genus_systems

_FAILURE_CAP = 10
# Figures from a 2-vCPU Xeon VM, whose speed varies by about a third from
# run to run.  The grid grows as d^4 in the degree bound: the sweeps take
# 9 to 13 s at --max-degree 40 and 32 to 40 s at 48, all but 2 s of it in
# the oracle stage; the (1,1,1; 48) oracle cell alone takes 4 s, and
# (1,1,1; 64) 31 s.
MAX_VERIFY_DEGREE = 48
# The cover stage grows linearly in the cover bound, 0.13 to 0.20 s per unit
# of --max-k at --max-degree 48: `whlink verify --max-degree 48 --max-k 200`
# takes 80 s for the whole process, at 75 MiB resident.
MAX_VERIFY_K = 200


@dataclass
class PropertyCheck:
    name: str
    checked: int = 0
    failed: int = 0
    failures: list = field(default_factory=list)

    def record(self, ok: bool, describe):
        self.checked += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < _FAILURE_CAP:
                self.failures.append(describe())

    @property
    def ok(self) -> bool:
        return self.failed == 0

    def as_json(self) -> dict:
        return {
            "name": self.name,
            "checked": self.checked,
            "failed": self.failed,
            "failures": list(self.failures),
        }


@dataclass
class VerificationReport:
    max_degree: int
    max_k: int
    systems: int
    skipped_nonintegral: int
    checks: list

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.checks)

    def as_json(self) -> dict:
        return {
            "max_degree": self.max_degree,
            "max_k": self.max_k,
            "systems": self.systems,
            "skipped_nonintegral": self.skipped_nonintegral,
            "properties": [c.as_json() for c in self.checks],
            "ok": self.ok,
        }


def check_group_ring_relation(max_index: int = 40) -> PropertyCheck:
    """lam(a) lam(b) = gcd(a,b) lam(lcm(a,b)) against root multisets."""
    check = PropertyCheck("group_ring_relation")
    for a in range(1, max_index + 1):
        for b in range(1, max_index + 1):
            check.record(
                relation_holds(a, b),
                lambda a=a, b=b: f"relation fails for lam({a}) * lam({b})",
            )
    return check


def check_genus_betti_duality(grid) -> PropertyCheck:
    """Coefficient sum of the divisor equals twice the genus on the grid."""
    check = PropertyCheck("genus_betti_duality")
    for ws, g, div in grid:
        mult = div.coefficient_sum()
        check.record(
            mult == 2 * g,
            lambda ws=ws, g=g, mult=mult: f"{ws}: multiplicity {mult} != 2 * genus {g}",
        )
    return check


def check_oracle_agreement(grid) -> PropertyCheck:
    """Both polynomial expansions agree, and so do the values at t = 1.

    The value comparison strips the (t - 1)^multiplicity factor off the
    oracle polynomial by reading the matching coefficient of p(1 + s),
    then checks it against the divisor-side product of the j^{c_j}.  Grid
    divisors encode polynomials, so a route that refuses one fails.
    """
    check = PropertyCheck("oracle_agreement")
    for ws, _g, div in grid:
        try:
            pipeline = char_poly_from_divisor(div)
            oracle = oracle_expand(div)
        except NotAPolynomialError as exc:
            check.record(False, lambda ws=ws, exc=exc: f"{ws}: {exc}")
            continue
        check.record(
            pipeline == oracle,
            lambda ws=ws: f"{ws}: polynomial expansions disagree",
        )
        mult = div.coefficient_sum()
        vanishes = sum(oracle) == 0
        check.record(
            vanishes == (mult > 0),
            lambda ws=ws, mult=mult: (
                f"{ws}: t = 1 root presence disagrees with multiplicity {mult}"
            ),
        )
        value = poly.shifted_coefficient(oracle, mult)
        check.record(
            value == div.reduced_value_at_one(),
            lambda ws=ws, value=value: f"{ws}: value at t = 1 came out {value}",
        )
    return check


def check_cover_two_path(grid, max_k: int = 12) -> PropertyCheck:
    """Direct cover divisors match the lam(k) - 1 product; b_2 and order laws."""
    check = PropertyCheck("cover_two_path")
    for ws, g, div in grid:
        for k in range(2, max_k + 1):
            if gcd(ws.degree, k) != 1:
                continue
            direct = milnor_orlik_divisor(cover_weights(ws, k))
            via_relation = cover_divisor(div, k)
            check.record(
                direct == via_relation,
                lambda ws=ws, k=k: f"{ws}, k={k}: cover divisor paths disagree",
            )
            mult = via_relation.coefficient_sum()
            check.record(
                mult == 0,
                lambda ws=ws, k=k, mult=mult: f"{ws}, k={k}: b_2 = {mult}, expected 0",
            )
            order = via_relation.reduced_value_at_one()
            check.record(
                order == k ** (2 * g),
                lambda ws=ws, k=k, order=order: (
                    f"{ws}, k={k}: torsion order {order} != {k}^(2*{g})"
                ),
            )
    return check


def build_grid(max_degree: int) -> tuple:
    """The regression grid: (system, genus, divisor) triples, plus a skip count.

    Systems of integral genus that ``link_divisor`` rejects have no link
    for the theorems to talk about, so they are counted, not swept.
    """
    grid = []
    skipped = 0
    for ws, g in iter_integral_genus_systems(max_degree):
        try:
            grid.append((ws, g, link_divisor(ws)))
        except NotASmoothCurveError:
            skipped += 1
    return grid, skipped


def run_verification(max_degree: int = 40, max_k: int = 12) -> VerificationReport:
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
