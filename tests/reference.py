"""Reference constructions that only the tests use.

The translations, the inversion conjugation and the regularity check give
the tests independent ways to name regular subgroups, and
``brute_force_regular`` is the closure search with no pruning at all,
which the tests compare ``closure_search_regular`` against.
``search_candidates`` is the search's candidate filter written as a plain
loop.  ``es_table`` and ``fs`` invert the partial geometric sums of
``arith.es``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable

import numpy as np

from p2qbrace import arith
from p2qbrace.groups import GroupElement, GroupSpec, aut_group
from p2qbrace.holomorph import HolElement, Holomorph, holo


def smallest_prime_factor(n: int) -> int:
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    d = 2
    while d * d <= n:
        if n % d == 0:
            return d
        d += 1
    return n


@dataclass(frozen=True)
class EsTable:
    """All values es(0), ..., es(m-1) for a fixed multiplier s modulo m.

    Only constructed when the values form a complete residue system, so
    the table is invertible.
    """

    s: int
    modulus: int
    values: tuple[int, ...]

    def inverse(self, r: int) -> int:
        return self.values.index(r % self.modulus)


@lru_cache(maxsize=None)
def es_table(s: int, m: int) -> EsTable:
    values = tuple(arith.es(k, s, m) for k in range(m))
    if sorted(values) != list(range(m)):
        raise ValueError(
            f"partial sums of s={s} do not cover all residues modulo {m}"
        )
    return EsTable(s=s % m, modulus=m, values=values)


def fs(r: int, s: int, m: int) -> int:
    """The unique k in [0, m) with es(k, s, m) = r (mod m).

    Needs s = 1 (mod p) for the smallest prime p dividing m, otherwise
    ``es`` is not injective on [0, m) and the lookup is refused.
    """
    p = smallest_prime_factor(m)
    if s % p != 1:
        raise ValueError(
            f"s={s} is not 1 modulo {p}, so the partial sums are not invertible mod {m}"
        )
    return es_table(s, m).inverse(r)


def search_candidates(spec: GroupSpec, x: int) -> set[int]:
    """Automorphisms alpha with y^alpha x != y for every y: the values
    gamma(x) can take when x is not the identity."""
    ag = aut_group(spec)
    keep = set(range(ag.size))
    for alpha in range(ag.size):
        for y in range(spec.n):
            image = spec.idx(spec.mul(spec.el(int(ag.aperm[alpha, y])), spec.el(x)))
            if image == y:
                keep.discard(alpha)
                break
    return keep


def inv(H: Holomorph, k):
    """Flat-index inverse, vectorized over numpy arrays."""
    a, g = np.divmod(k, H.n)
    ai = H.aut.ainv[a]
    return ai * H.n + H.aut.aperm[ai, H.spec.inv_table[g]]


def act(H: Holomorph, k, x):
    """Image of element index x under the permutation k."""
    a, g = np.divmod(k, H.n)
    return H.spec.mul_table[H.aut.aperm[a, x], g]


def rho(spec: GroupSpec, g: GroupElement) -> HolElement:
    """Right translation x -> x g."""
    h = holo(spec)
    return HolElement(h.aut.identity_idx, spec.idx(g))


def lambda_rep(spec: GroupSpec, g: GroupElement) -> HolElement:
    """Left translation x -> g x, written inside Aut(G) rho(G)."""
    h = holo(spec)
    gi = spec.idx(g)
    ginv = int(spec.inv_table[gi])
    return HolElement(int(h.aut.iota_map[ginv]), gi)


def conjugate_by_inv(spec: GroupSpec, h: HolElement) -> HolElement:
    """Conjugate of (alpha, g) by the inversion permutation of G.

    Inversion normalizes the holomorph; concretely (alpha, g) goes to
    (alpha * iota(g), g^-1), the permutation x -> g^-1 x^alpha.
    """
    H = holo(spec)
    alpha = int(H.aut.comp[h.alpha, H.aut.iota_map[h.g]])
    return HolElement(alpha, int(spec.inv_table[h.g]))


def is_regular(spec: GroupSpec, members: Iterable[HolElement]) -> bool:
    """Transitive with trivial stabilizers: |G| elements, closed under the
    product, and their images of the identity cover G exactly once."""
    H = holo(spec)
    mem = {H.flatten(m if isinstance(m, HolElement) else HolElement(*m)) for m in members}
    if len(mem) != spec.n:
        return False
    targets = {k % spec.n for k in mem}
    if len(targets) != spec.n:
        return False
    arr = np.fromiter(mem, dtype=np.int64)
    prods = H.mul(arr[:, None], arr[None, :])
    return bool(np.isin(prods, arr).all())


def brute_force_regular(spec: GroupSpec) -> set[tuple[tuple[int, int], ...]]:
    """Canonical keys of the regular subgroups generated by two
    fixed-point-free elements, closing every ordered pair in turn."""
    H = holo(spec)
    fpf = np.flatnonzero(H.fixed_point_free_mask)
    keys = set()
    for r in fpf:
        for s in fpf:
            members = np.array([H.identity, r, s])
            while members.size <= spec.n:
                new = np.union1d(members, H.mul(members[:, None], members[None, :]))
                if new.size == members.size:
                    break
                members = new
            if members.size == spec.n and is_regular(spec, [H.unflatten(k) for k in members]):
                keys.add(tuple(divmod(int(k), spec.n) for k in members))
    return keys
