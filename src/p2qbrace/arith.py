"""Exact modular arithmetic underlying the metacyclic group constructions.

Moduli are plain positive ints.  Everything here is exact integer
arithmetic at desk scale (group orders are capped at 10**4 upstream), so
no big-number machinery is needed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

MAX_GROUP_ORDER = 10_000


def _check_modulus(m: int) -> None:
    if not isinstance(m, int) or m < 2:
        raise ValueError(f"modulus must be an integer >= 2, got {m!r}")


# Miller-Rabin with the first 13 primes as bases is exact below this
# bound (Sorenson and Webster, Math. Comp. 2017).
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
PRIME_TEST_BOUND = 3_317_044_064_679_887_385_961_981


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin test, exact for n < ``PRIME_TEST_BOUND``.

    Larger n raise ValueError rather than risk a wrong answer.
    """
    if n >= PRIME_TEST_BOUND:
        raise ValueError(f"primality is decided only below {PRIME_TEST_BOUND}, got {n}")
    if n < 2:
        return False
    for b in _MR_BASES:
        if n % b == 0:
            return n == b
    d, r = n - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for b in _MR_BASES:
        x = pow(b, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def mult_order(x: int, m: int) -> int:
    """Least d >= 1 with x**d = 1 (mod m).  Requires gcd(x, m) = 1."""
    _check_modulus(m)
    if math.gcd(x, m) != 1:
        raise ValueError(f"{x} is not invertible modulo {m}")
    d = 1
    y = x % m
    while y != 1:
        y = y * x % m
        d += 1
    return d


def canonical_action_exponent(order: int, m: int) -> int:
    """Smallest t in [2, m) of multiplicative order ``order`` modulo m.

    Returns 1 for order 1.  Picking the minimum makes every group built
    on top of this choice reproducible bit for bit across runs.  Raises
    if no exponent of the requested order exists modulo m.
    """
    _check_modulus(m)
    if order < 1:
        raise ValueError(f"order must be positive, got {order}")
    if order == 1:
        return 1
    for t in range(2, m):
        if math.gcd(t, m) == 1 and mult_order(t, m) == order:
            return t
    raise ValueError(f"no residue of multiplicative order {order} modulo {m}")


@dataclass(frozen=True)
class DivisibilityProfile:
    """How p and q sit relative to each other, and which group families exist.

    ``p_vs_q1`` is "none", "exact" or "square" according to whether p
    does not divide q-1, divides it exactly once, or p**2 divides it.
    ``g_types`` lists the applicable families of order p**2 q with cyclic
    Sylow p-subgroup: type 1 always, type 2 when p | q-1, type 3 when
    p**2 | q-1, type 4 when q | p-1.
    """

    p: int
    q: int
    p_vs_q1: str
    q_divides_p1: bool
    g_types: tuple[int, ...]


def divisibility_profile(p: int, q: int) -> DivisibilityProfile:
    # the bound first, so that a huge p or q never reaches the primality test
    if p * p * q > MAX_GROUP_ORDER:
        raise ValueError(f"p^2 q = {p * p * q} exceeds the supported bound {MAX_GROUP_ORDER}")
    if not is_prime(p):
        raise ValueError(f"p={p} is not prime")
    if not is_prime(q):
        raise ValueError(f"q={q} is not prime")
    if p == q:
        raise ValueError("p and q must be distinct primes")
    if p == 2:
        raise ValueError(
            "p must be odd: groups of order 4q admit regular subgroups whose "
            "Sylow 2-subgroups are not cyclic, which this package does not cover"
        )
    if (q - 1) % (p * p) == 0:
        p_vs_q1 = "square"
    elif (q - 1) % p == 0:
        p_vs_q1 = "exact"
    else:
        p_vs_q1 = "none"
    q_divides_p1 = (p - 1) % q == 0
    types = [1]
    if p_vs_q1 != "none":
        types.append(2)
    if p_vs_q1 == "square":
        types.append(3)
    if q_divides_p1:
        types.append(4)
    return DivisibilityProfile(
        p=p, q=q, p_vs_q1=p_vs_q1, q_divides_p1=q_divides_p1, g_types=tuple(types)
    )
