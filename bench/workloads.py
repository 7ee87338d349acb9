"""Seeded inputs for the benchmark's workloads.

Only the benchmark sees the seed; the program receives the generated
argument lists.  Every set is stratified (one draw per stratum of a sorted
candidate list) so that two seeds give sets of the same make-up: the same
number of queries per kind and the same spread of sizes, hence the same
cost profile, while the individual queries differ.
"""

from __future__ import annotations

import itertools
import math
import random

from sympy import nextprime, prevprime

from checks import milnor_number

# README scale of the interactive user: degrees up to 40, exponents up to 200.
MIX_MAX_DEGREE = 40
MIX_MAX_K = 200
# Queries of each kind in one pass of query-mix, 420 in all.  The program
# records no use, so the mix gives each query subcommand of the README's
# command list the same weight; the README's optional flags
# (``cover --skip-direct-path``, ``realize --prime``) are on for every other
# query of their kind.
MIX_PER_KIND = 60
# Strata of link and cover queries fixed at their middle element: more
# than the ten queries beyond the tail percentile (bench/run.py), so the
# tail's work changes little from seed to seed.
MIX_FIXED_TOP = 10
# Family primes p = 3 mod 4 that ``realize --prime`` asks for, in turn,
# skipping one that divides k: the README's ``realize 8 --prime 7`` and the
# next few.
MIX_FAMILY_PRIMES = (7, 11, 19, 23, 31)
# The documented default expansion cap; used only to rank candidates by cost.
_EXPANSION_CAP = 10_000

# huge-params: degrees from 10**9 to 10**13, exponents below 10**12 (the
# factorization range the program promises).  Sizes sit at fixed points of
# those ranges and the seed moves each by at most 1%, so every seed has the
# same cost profile: the seed picks which numbers, not how large.
HUGE_LOG10_DEGREE = (9.0, 13.0)
# Queries of each kind (link, realize, smale-enum) in one pass: equal
# weights, as in query-mix.
HUGE_PER_KIND = 24
_JITTER = 0.01
# Fermat weight triples: z1^(d/w1) + z2^(d/w2) + z3^(d/w3) is quasi-smooth
# whenever every weight divides d.
_FERMAT_WEIGHTS = ((1, 1, 1), (1, 1, 2), (1, 2, 3), (1, 1, 3), (1, 3, 5), (2, 3, 5), (1, 2, 2))


def _has_invertible_polynomial(weights, d) -> bool:
    """Is sum_i z_i^a_i z_f(i) of degree d for some pointer map f, all a_i >= 2?

    f(i) = i is a Fermat term z_i^a_i.  A variable may be pointed at by at
    most one other variable, so f splits into chains and loops; these are
    the invertible (Berglund-Huebsch) polynomials, all quasi-smooth.  Such
    systems are valid input for every version of the program.
    """
    choices = []
    for i, w in enumerate(weights):
        targets = []
        for m, wm in enumerate(weights):
            rest = d if m == i else d - wm
            if rest > 0 and rest % w == 0 and rest // w >= 2:
                targets.append(m)
        if not targets:
            return False
        choices.append(targets)
    for f in itertools.product(*choices):
        pointed = [m for i, m in enumerate(f) if m != i]
        if len(pointed) == len(set(pointed)):
            return True
    return False


def invertible_systems(max_degree: int) -> list:
    """Sorted primitive triples (w1 <= w2 <= w3; d), d <= max_degree, of invertible type."""
    out = []
    for d in range(3, max_degree + 1):
        for w1 in range(1, d):
            for w2 in range(w1, d):
                for w3 in range(w2, d):
                    if math.gcd(math.gcd(w1, w2), w3) != 1:
                        continue
                    if _has_invertible_polynomial((w1, w2, w3), d):
                        out.append(((w1, w2, w3), d))
    return out


def _stratified(rng, candidates, count, key, fixed_top=0):
    """One draw from each of ``count`` equal rank strata of sorted candidates.

    The ``fixed_top`` most costly strata give their middle element instead
    of a random one: those queries set the tail, and fixing them keeps the
    tail's work the same from seed to seed.
    """
    ranked = sorted(candidates, key=key)
    out = []
    for i in range(count):
        lo = i * len(ranked) // count
        hi = max(lo + 1, (i + 1) * len(ranked) // count)
        pick = (lo + hi) // 2 if i >= count - fixed_top else rng.randrange(lo, hi)
        out.append(ranked[pick])
    return out


def _stratified_ints(rng, lo, hi, count):
    """One integer from each of ``count`` equal sub-ranges of [lo, hi]."""
    span = hi - lo + 1
    return [lo + i * span // count + rng.randrange(max(1, span // count)) for i in range(count)]


def _system_args(weights, d):
    return ["--weights", ",".join(map(str, weights)), "--degree", str(d)]


def _expansion_cost(mu):
    return mu if mu <= _EXPANSION_CAP else 0


def query_mix(seed: int) -> list:
    """The interactive user's queries, as cli argument lists, in seeded order."""
    rng = random.Random(f"query-mix:{seed}")
    pool = invertible_systems(MIX_MAX_DEGREE)
    mu = {s: milnor_number(*s) for s in pool}
    queries = []
    for ws, d in _stratified(rng, pool, MIX_PER_KIND, lambda s: (_expansion_cost(mu[s]), s), MIX_FIXED_TOP):
        queries.append(["link", *_system_args(ws, d)])
    pairs = [(s, k) for s in pool for k in range(2, MIX_MAX_K + 1) if math.gcd(s[1], k) == 1]

    def cover_cost(pair):
        s, k = pair
        return (_expansion_cost(mu[s]) + _expansion_cost((k - 1) * mu[s]), pair)

    covers = _stratified(rng, pairs, MIX_PER_KIND, cover_cost, MIX_FIXED_TOP)
    for i, ((ws, d), k) in enumerate(covers):
        queries.append(["cover", *_system_args(ws, d), "-k", str(k)] + ["--skip-direct-path"] * (i % 2))
    for ws, d in _stratified(rng, pool, MIX_PER_KIND, lambda s: s):
        queries.append(["genus", *_system_args(ws, d)])
    for i, k in enumerate(_stratified_ints(rng, 2, MIX_MAX_K, MIX_PER_KIND)):
        queries.append(["realize", str(k)] + (["--prime", str(_family_prime(i // 2, k))] if i % 2 else []))
    for k in _stratified_ints(rng, 2, MIX_MAX_K, MIX_PER_KIND):
        queries.append(["smale-enum", str(k)])
    for limit in _stratified_ints(rng, 3, 5000, MIX_PER_KIND):
        queries.append(["primes", "--limit", str(limit)])
    for i, max_degree in enumerate(_stratified_ints(rng, 3, 16, MIX_PER_KIND)):
        queries.append(["search", "--genus", str(i % 4), "--max-degree", str(max_degree)])
    rng.shuffle(queries)
    return [q + ["--format", "json"] for q in queries]


def _family_prime(turn, k):
    """The family prime for ``turn``, or the next one that does not divide k."""
    n = len(MIX_FAMILY_PRIMES)
    return next(p for p in (MIX_FAMILY_PRIMES[(turn + i) % n] for i in range(n)) if k % p)


def _jittered(rng, n):
    return int(n * (1 + rng.uniform(-_JITTER, _JITTER)))


def _prime_3_mod_4_near(n):
    p = nextprime(n)
    while p % 4 != 3:
        p = nextprime(p)
    return p


def _huge_k_values(rng, count):
    """Exponents below 10**12 of three kinds, ``count // 3`` of each.

    Semiprimes of a prime between 5 * 10**5 and 10**6 and its cofactor
    below 10**12 / p, and primes between 10**11 and 10**12, make trial
    division run far; a smooth number times one prime stops early.
    Exponents stay small so the Smale candidate lists stay short.
    """
    per_kind = count // 3
    out = []
    for i in range(per_kind):
        p = prevprime(_jittered(rng, 500_000 + 500_000 * (i + 0.5) // per_kind))
        out.append(p * prevprime(10**12 // p))
    for i in range(per_kind):
        out.append(prevprime(_jittered(rng, 10**11 + 9 * 10**11 * (i + 0.5) // per_kind)))
    for i in range(count - 2 * per_kind):
        smooth = 2 ** rng.randrange(1, 5) * 3 ** rng.randrange(0, 4) * 5 ** rng.randrange(0, 3)
        out.append(smooth * prevprime(_jittered(rng, 100_000 + 900_000 * (i + 0.5) // per_kind)))
    return out


def huge_params(seed: int) -> list:
    """Queries limited by the algorithm, as cli argument lists, in seeded order."""
    rng = random.Random(f"huge-params:{seed}")
    lo, hi = HUGE_LOG10_DEGREE
    queries = []
    for i in range(HUGE_PER_KIND):
        target = _jittered(rng, 10 ** (lo + (hi - lo) * (i + 0.5) / HUGE_PER_KIND))
        if i % 2 == 0:
            weights = _FERMAT_WEIGHTS[(i // 2) % len(_FERMAT_WEIGHTS)]
            step = math.lcm(*weights)
            d = target // step * step
        else:
            # the genus-one family (1, (p+1)/4, (p-1)/2; p), p = 3 mod 4 prime
            d = _prime_3_mod_4_near(target)
            weights = (1, (d + 1) // 4, (d - 1) // 2)
        queries.append(["link", *_system_args(weights, d)])
    for k in _huge_k_values(rng, HUGE_PER_KIND):
        queries.append(["realize", str(k)])
    for k in _huge_k_values(rng, HUGE_PER_KIND):
        queries.append(["smale-enum", str(k)])
    rng.shuffle(queries)
    return [q + ["--format", "json"] for q in queries]


def inputs(workload: str, seed: int) -> list:
    if workload == "query-mix":
        return query_mix(seed)
    if workload == "huge-params":
        return huge_params(seed)
    raise ValueError(f"no query set for workload {workload!r}")
