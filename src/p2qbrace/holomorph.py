"""The permutational holomorph Aut(G) * rho(G) acting on the set G.

A holomorph element is a pair (alpha, g) acting by x -> x^alpha * g.
The product law is (alpha, g)(beta, h) = (alpha beta, g^beta * h), and in
particular the image of the group identity under (alpha, g) is g, which
makes regularity checks cheap.  Internally elements are flattened to the
single index alpha * n + g so that searches can run on numpy arrays.

``closure_search_regular`` is the independent oracle of this package: it
enumerates every regular subgroup of the holomorph by generator-pair
closure, with no reference to gamma functions.  Its pruning rests on two
exact facts: a non-identity element of a regular subgroup has no fixed
point, and conjugation by Aut(G) permutes the regular subgroups, so the
first generator only needs to range over conjugacy-orbit representatives
as long as every found subgroup is closed up under that conjugation.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, NamedTuple

import numpy as np

from .groups import GroupElement, GroupSpec, aut_group

DEFAULT_MAX_HOL_ORDER = 1200


class OracleTooLargeError(RuntimeError):
    """The holomorph exceeds the configured closure-search bound."""


class HolElement(NamedTuple):
    alpha: int  # automorphism index in the canonical AutGroup order
    g: int      # element index


@dataclass(frozen=True)
class PermSubgroupCandidate:
    members: frozenset[HolElement]
    canonical_key: tuple[tuple[int, int], ...]


class Holomorph:
    """Cached action/composition tables for Hol(G) over one GroupSpec."""

    def __init__(self, spec: GroupSpec):
        self.spec = spec
        self.aut = aut_group(spec)
        self.n = spec.n
        self.size = self.aut.size * spec.n
        self.identity = self.flatten(HolElement(self.aut.identity_idx, 0))

    def flatten(self, h: HolElement) -> int:
        return h.alpha * self.n + h.g

    def unflatten(self, k: int) -> HolElement:
        alpha, g = divmod(int(k), self.n)
        return HolElement(alpha, g)

    def mul(self, k1, k2):
        """Flat-index product, vectorized over numpy arrays."""
        a1, g1 = np.divmod(k1, self.n)
        a2, g2 = np.divmod(k2, self.n)
        alpha = self.aut.comp[a1, a2]
        g = self.spec.mul_table[self.aut.aperm[a2, g1], g2]
        return alpha * self.n + g

    def inv(self, k):
        a, g = np.divmod(k, self.n)
        ai = self.aut.ainv[a]
        return ai * self.n + self.aut.aperm[ai, self.spec.inv_table[g]]

    def act(self, k, x):
        """Image of element index x under the permutation k."""
        a, g = np.divmod(k, self.n)
        return self.spec.mul_table[self.aut.aperm[a, x], g]

    @property
    def fixed_point_free_mask(self) -> np.ndarray:
        """mask[k] is True when the permutation k moves every point."""
        if not hasattr(self, "_fpf"):
            n = self.n
            rng = np.arange(n)
            mask = np.empty(self.size, dtype=bool)
            for a in range(self.aut.size):
                # rows x, columns g: image of x under (a, g)
                images = self.spec.mul_table[self.aut.aperm[a]]
                mask[a * n:(a + 1) * n] = ~(images == rng[:, None]).any(axis=0)
            self._fpf = mask
        return self._fpf

    def conjugate_by_aut(self, k, beta: int):
        """Conjugate of the holomorph element(s) k by the automorphism beta."""
        a, g = np.divmod(k, self.n)
        binv = int(self.aut.ainv[beta])
        alpha = self.aut.comp[self.aut.comp[binv, a], beta]
        return alpha * self.n + self.aut.aperm[beta, g]


@lru_cache(maxsize=None)
def holo(spec: GroupSpec) -> Holomorph:
    return Holomorph(spec)


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


def _closure_within(H: Holomorph, seeds: np.ndarray, allowed: np.ndarray,
                    max_size: int) -> np.ndarray | None:
    """Subgroup generated by the seeds, or None on early abort.

    Aborts as soon as the closure leaves the allowed set (identity plus
    fixed-point-free elements) or outgrows max_size.  Each round takes
    all pairwise products of the current members, so closures converge
    or explode within a handful of rounds.
    """
    members = np.unique(seeds)
    if not allowed[members].all():
        return None
    while True:
        prods = H.mul(members[:, None], members[None, :]).ravel()
        new = np.union1d(members, prods)
        if new.size == members.size:
            return members
        if new.size > max_size or not allowed[new].all():
            return None
        members = new


def _aut_orbit_reps(H: Holomorph, candidates: np.ndarray) -> list[int]:
    """Representatives of Aut(G)-conjugation orbits on the candidate set."""
    gens = H.aut.generators()
    cand = set(int(c) for c in candidates)
    reps: list[int] = []
    seen: set[int] = set()
    for k in sorted(cand):
        if k in seen:
            continue
        reps.append(k)
        frontier = [k]
        seen.add(k)
        while frontier:
            nxt = []
            for x in frontier:
                for b in gens:
                    y = int(H.conjugate_by_aut(x, b))
                    if y not in seen:
                        seen.add(y)
                        nxt.append(y)
            frontier = nxt
    return reps


def _aut_orbit_of_subgroup(H: Holomorph, members: np.ndarray) -> list[np.ndarray]:
    """All Aut(G)-conjugates of a subgroup given by flat member indices."""
    gens = H.aut.generators()
    start = tuple(np.sort(members).tolist())
    seen = {start}
    frontier = [members]
    out = [np.sort(members)]
    while frontier:
        nxt = []
        for cur in frontier:
            for b in gens:
                img = np.sort(H.conjugate_by_aut(cur, b))
                key = tuple(img.tolist())
                if key not in seen:
                    seen.add(key)
                    nxt.append(img)
                    out.append(img)
        frontier = nxt
    return out


def closure_search_regular(
    spec: GroupSpec,
    max_hol_order: int = DEFAULT_MAX_HOL_ORDER,
) -> list[PermSubgroupCandidate]:
    """Every regular subgroup of Hol(G), by generator-closure search.

    Non-identity members of a regular subgroup are fixed-point-free, so
    candidates are prefiltered to the identity plus the fixed-point-free
    elements.  The first generator ranges over Aut(G)-conjugation orbit
    representatives of that set and each hit is closed up under
    conjugation, which covers the full set because conjugation permutes
    regular subgroups.  By the classification the count tables encode,
    every regular subgroup is isomorphic to one of the families in
    scope, all two-generated, so generator pairs reach each one.
    """
    H = holo(spec)
    if H.size > max_hol_order:
        raise OracleTooLargeError(
            f"oracle-too-large: |Hol(G)| = {H.size} exceeds the limit {max_hol_order}"
        )
    allowed = H.fixed_point_free_mask.copy()
    allowed[H.identity] = True
    fpf = np.flatnonzero(H.fixed_point_free_mask)
    reps = _aut_orbit_reps(H, fpf)

    found: dict[tuple[int, ...], np.ndarray] = {}
    membership: list[np.ndarray] = []  # boolean masks of found subgroups

    def record(members: np.ndarray) -> None:
        for img in _aut_orbit_of_subgroup(H, members):
            key = tuple(img.tolist())
            if key not in found:
                found[key] = img
                mask = np.zeros(H.size, dtype=bool)
                mask[img] = True
                membership.append(mask)

    def in_known_subgroup(k1: int, k2: int) -> bool:
        return any(m[k1] and m[k2] for m in membership)

    for r in reps:
        # quick vectorized cut: both first-round products must stay allowed
        ok = allowed[H.mul(r, fpf)] & allowed[H.mul(fpf, r)]
        for s in fpf[ok]:
            s = int(s)
            if in_known_subgroup(r, s):
                continue
            members = _closure_within(H, np.array([r, s], dtype=np.int64), allowed, spec.n)
            if members is not None and members.size == spec.n:
                record(members)

    out = []
    for key in sorted(found):
        members = frozenset(H.unflatten(k) for k in found[key])
        canonical = tuple(sorted((m.alpha, m.g) for m in members))
        out.append(PermSubgroupCandidate(members=members, canonical_key=canonical))
    return out
