"""The permutational holomorph Aut(G) * rho(G) acting on the set G.

A holomorph element is a pair (alpha, g) acting by x -> x^alpha * g.
The product law is (alpha, g)(beta, h) = (alpha beta, g^beta * h), and in
particular the image of the group identity under (alpha, g) is g, which
makes regularity checks cheap.  Elements are flattened to the single
index alpha * n + g so that searches can run on numpy arrays.

``closure_search_regular`` is the independent oracle of this package: it
enumerates every regular subgroup of the holomorph by generator-pair
closure, with no reference to gamma functions.  Its pruning rests on two
exact facts: every element of a regular subgroup is semiregular (each of
its powers is the identity or moves every point), and conjugation by
Aut(G) permutes the regular subgroups and keeps the semiregular set.  So
once every found subgroup is closed up under that conjugation, the
first generator r only needs to range over Aut(G)-orbit representatives,
and the second over representatives of the orbits of the stabiliser
Stab(r) = {beta : r^beta = r}, because <r, s^beta> = <r, s>^beta for beta
in Stab(r).  A pair inside an already found subgroup generates nothing
new, so each r keeps a mask of the members of the found subgroups
through r and skips the second generators it covers.

The fixed-point-free mask is ``AutGroup.fixed_point_free`` read flat, and
each hit's Aut(G)-orbit is one conjugation by every automorphism at once.

The search returns each regular subgroup as the sorted array of its flat
member indices.  A member (alpha, g) sends the identity to g, so that
array already is the gamma table g -> alpha of the matching skew brace
(``brace.gamma_from_regular``).
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterable

import numpy as np

from .groups import GroupSpec, aut_group, aut_order, check_aut_gate

DEFAULT_MAX_HOL_ORDER = 1200


class OracleTooLargeError(RuntimeError):
    """The holomorph exceeds the configured closure-search bound."""


class Holomorph:
    """Cached action/composition tables for Hol(G) over one GroupSpec."""

    def __init__(self, spec: GroupSpec):
        self.spec = spec
        self.aut = aut_group(spec)
        self.n = spec.n
        self.size = self.aut.size * spec.n
        self.identity = self.aut.identity_idx * self.n

    def mul(self, k1, k2):
        """Flat-index product, vectorized over numpy arrays."""
        a1, g1 = np.divmod(k1, self.n)
        a2, g2 = np.divmod(k2, self.n)
        alpha = self.aut.comp[a1, a2]
        g = self.spec.mul_table[self.aut.aperm[a2, g1], g2]
        return alpha * self.n + g

    @property
    def fixed_point_free_mask(self) -> np.ndarray:
        """mask[k] is True when the permutation k moves every point."""
        return self.aut.fixed_point_free.ravel()

    @property
    def semiregular_mask(self) -> np.ndarray:
        """mask[k] is True when <k> acts semiregularly: each power of k up to
        the first identity one moves every point.

        Every element has finite order, so each walk stops; a semiregular k
        stops within |G| steps, since its orbits all have ord(k) points.
        """
        fpf = self.fixed_point_free_mask
        mask = np.ones(self.size, dtype=bool)
        live = power = np.arange(self.size)  # elements still walking, and their powers
        while live.size:
            moving = fpf[power]
            mask[live[~moving & (power != self.identity)]] = False
            live = live[moving]
            power = self.mul(power[moving], live)
        return mask

    def conjugate_by_aut(self, k, beta):
        """Conjugates of the holomorph element(s) k by the automorphism(s) beta."""
        a, g = np.divmod(k, self.n)
        alpha = self.aut.comp[self.aut.comp[self.aut.ainv[beta], a], beta]
        return alpha * self.n + self.aut.aperm[beta, g]

    def stabiliser(self, k: int) -> np.ndarray:
        """Automorphisms beta with k^beta == k, for k = (alpha, g): those
        that fix g and commute with alpha."""
        alpha, g = divmod(int(k), self.n)
        comp = self.aut.comp
        return np.flatnonzero((self.aut.aperm[:, g] == g) & (comp[alpha] == comp[:, alpha]))


@lru_cache(maxsize=None)
def holo(spec: GroupSpec) -> Holomorph:
    return Holomorph(spec)


def _closure_within(H: Holomorph, seeds: np.ndarray, allowed: np.ndarray,
                    max_size: int) -> np.ndarray | None:
    """Subgroup generated by the seeds, or None on early abort.

    Aborts as soon as the closure leaves the allowed set (the semiregular
    elements) or outgrows max_size.  Each round takes all pairwise
    products of the current members, so closures converge or explode
    within a handful of rounds.
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


def _orbit_reps(H: Holomorph, cand: np.ndarray, betas: Iterable[int]) -> np.ndarray:
    """The least element of each orbit of conjugation by ``betas`` on ``cand``.

    ``betas`` is a subgroup of Aut(G) and ``cand`` a sorted set it maps to
    itself, so one pass over ``betas`` reaches every member of each orbit.
    """
    least = cand.copy()
    for beta in betas:
        np.minimum(least, H.conjugate_by_aut(cand, beta), out=least)
    return cand[least == cand]


def closure_search_regular(
    spec: GroupSpec,
    max_hol_order: int = DEFAULT_MAX_HOL_ORDER,
) -> list[np.ndarray]:
    """Every regular subgroup of Hol(G), by generator-closure search.

    Each subgroup is returned as the sorted array of its flat member
    indices alpha * |G| + g, and the list is in increasing order of
    those arrays read as tuples.

    Every member k of a regular subgroup is semiregular: <k> lies in the
    subgroup, so no power of k other than the identity fixes a point.  So
    the generators, the cut and every closure are restricted to the
    semiregular elements (``Holomorph.semiregular_mask``), which also
    bounds ord(k) by |G|.  Conjugation by Aut(G) permutes regular
    subgroups and keeps the semiregular set, and each hit is closed up
    under it, by one conjugation of its members by all of Aut(G) at once,
    so the first generator r ranges over Aut(G)-orbit representatives.
    For beta in Stab(r), <r, s^beta> is <r, s>^beta, and the cut that both
    r s and s r stay allowed holds for s exactly when it holds for s^beta,
    so the second generator ranges over Stab(r)-orbit representatives.  A
    per-r mask holds the members of the found subgroups through r; a
    second generator inside it is skipped, since <r, s> would lie in a
    known regular subgroup.  By the classification the count tables
    encode, every regular subgroup is isomorphic to one of the families in
    scope, all two-generated, so generator pairs reach each one.
    """
    check_aut_gate(spec)
    size = spec.n * aut_order(spec)
    if size > max_hol_order:
        raise OracleTooLargeError(
            f"oracle-too-large: |Hol(G)| = {size} exceeds the limit {max_hol_order}"
        )
    H = holo(spec)
    allowed = H.semiregular_mask
    cand = np.flatnonzero(allowed)
    cand = cand[cand != H.identity]

    found: dict[tuple[int, ...], np.ndarray] = {}

    for r in _orbit_reps(H, cand, range(H.aut.size)).tolist():
        covered = np.zeros(H.size, dtype=bool)  # members of found subgroups through r
        if found:
            subs = np.array(list(found.values()))
            covered[subs[(subs == r).any(axis=1)]] = True
        # quick vectorized cut: both first-round products must stay allowed
        ok = allowed[H.mul(r, cand)] & allowed[H.mul(cand, r)]
        for s in _orbit_reps(H, cand[ok], H.stabiliser(r)):
            if covered[s]:
                continue
            members = _closure_within(H, np.array([r, s], dtype=np.int64), allowed, spec.n)
            if members is None or members.size != spec.n:
                continue
            # the hit's Aut(G)-orbit, one conjugate per row
            orbit = np.sort(H.conjugate_by_aut(members, np.arange(H.aut.size)[:, None]), axis=1)
            covered[orbit[(orbit == r).any(axis=1)]] = True
            for img in orbit:
                found.setdefault(tuple(img.tolist()), img)

    return [found[key] for key in sorted(found)]
