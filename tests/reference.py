"""Reference constructions on the holomorph that only the tests use.

The translations, the inversion conjugation and the regularity check give
the tests independent ways to name regular subgroups, and
``brute_force_regular`` is the closure search with no pruning at all,
which the tests compare ``closure_search_regular`` against.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from p2qbrace.groups import GroupElement, GroupSpec
from p2qbrace.holomorph import HolElement, Holomorph, holo


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
