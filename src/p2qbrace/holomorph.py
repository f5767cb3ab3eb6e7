"""The permutational holomorph Aut(G) * rho(G) acting on the set G.

A holomorph element is a pair (alpha, g) acting by x -> x^alpha * g.
The product law is (alpha, g)(beta, h) = (alpha beta, g^beta * h), and in
particular the image of the group identity under (alpha, g) is g, which
makes regularity checks cheap.  Elements are flattened to the single
index alpha * n + g so that searches can run on numpy arrays.

``closure_search_regular`` is the independent oracle of this package: it
enumerates every regular subgroup of the holomorph with no reference to
gamma functions and no classification of the groups of order |G|.  A
regular subgroup R of order |P| q, with P a Sylow p-subgroup, is P <r>
for any r in R of order q, so r and one generator s of a cyclic P, or r
and two commuting generators s and t of an elementary abelian P,
generate it.  Every element of R is semiregular (each of its powers is
the identity or moves every point), and conjugation by Aut(G) permutes
the regular subgroups, so the generators are semiregular and range over
orbit representatives of Aut(G) and of their stabilisers in it.

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

from .groups import GroupSpec, aut_group, check_aut_gate

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
    def semiregular_orders(self) -> np.ndarray:
        """order[k] is the order of k when <k> acts semiregularly (each power
        of k up to the first identity one moves every point), else 0.

        Every element has finite order, so each walk stops; a semiregular k
        stops within |G| steps, since its orbits all have ord(k) points.
        """
        fpf = self.fixed_point_free_mask
        order = np.zeros(self.size, dtype=np.int64)
        live = power = np.arange(self.size)  # elements still walking, and their powers
        step = 1
        while live.size:
            order[live[power == self.identity]] = step
            moving = fpf[power]
            live = live[moving]
            power = self.mul(power[moving], live)
            step += 1
        return order

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
    products of the current members into a membership mask over Hol(G),
    so closures converge or explode within a handful of rounds.
    """
    if not allowed[seeds].all():
        return None
    inside = np.zeros(H.size, dtype=bool)
    inside[seeds] = True
    members = np.flatnonzero(inside)
    while True:
        inside[H.mul(members[:, None], members[None, :])] = True
        new = np.flatnonzero(inside)
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
    """Every regular subgroup of Hol(G), each built from a Sylow pair.

    Each subgroup is returned as the sorted array of its flat member
    indices alpha * |G| + g, and the list is in increasing order of
    those arrays read as tuples.

    Every member k of a regular subgroup R is semiregular: <k> lies in R,
    so no power of k other than the identity fixes a point.  So the
    generators, the cuts and every closure are restricted to the
    semiregular elements (``Holomorph.semiregular_orders``).  |G| = |P| q
    with P a Sylow p-subgroup of R, so R = P <r> for any r in R of order
    q, because |P <r>| = |P| q.  Conjugation by Aut(G) permutes regular
    subgroups and keeps the semiregular orders, and each hit is closed up
    under it, so r ranges over the Aut(G)-orbit representatives of the
    semiregular elements of order q.  The second generator s, of order |P|
    or, when |P| = p^2, of order p, ranges over the representatives of
    the orbits of Stab(r) = {beta : r^beta = r}, because
    <r, s^beta> = <r, s>^beta, after the cut that r s and s r stay
    semiregular.  A cyclic P is <s>, and R = <r, s>; an s of order |P|
    inside a found subgroup through r is skipped, since <r, s> is that
    subgroup.  An elementary abelian P holds an s of order p; when
    <r, s> has order p q, R = <r, s, t> for every t in P outside <s>, so
    the third generator t ranges over the representatives of the
    Stab(r) ∩ Stab(s)-orbits of the elements of order p that commute with
    s, pass the cut and lie outside <r, s>.  A t inside a found subgroup
    through r and s is skipped.  The search needs no classification of
    the groups of order |G|.
    """
    check_aut_gate(spec)
    size = spec.n * spec.aut_order
    if size > max_hol_order:
        raise OracleTooLargeError(
            f"oracle-too-large: |Hol(G)| = {size} exceeds the limit {max_hol_order}"
        )
    H = holo(spec)
    n, p, q = spec.n, spec.p, spec.q
    sylow = n // q
    orders = H.semiregular_orders
    allowed = orders > 0
    cand = np.flatnonzero(allowed)
    cand = cand[cand != H.identity]
    found: dict[tuple[int, ...], np.ndarray] = {}

    def through(*gens: int) -> np.ndarray:
        """Mask of the members of the found subgroups that hold every gen."""
        mask = np.zeros(H.size, dtype=bool)
        if found:
            subs = np.array(list(found.values()))
            mask[subs[np.logical_and.reduce([(subs == g).any(axis=1) for g in gens])]] = True
        return mask

    def add_orbit(members: np.ndarray) -> None:
        """Record the hit's Aut(G)-orbit, one conjugate per row."""
        orbit = np.sort(H.conjugate_by_aut(members, np.arange(H.aut.size)[:, None]), axis=1)
        for img in orbit:
            found.setdefault(tuple(img.tolist()), img)

    for r in _orbit_reps(H, cand[orders[cand] == q], range(H.aut.size)).tolist():
        covered = through(r)
        ok = allowed[H.mul(r, cand)] & allowed[H.mul(cand, r)]
        stab = H.stabiliser(r)
        second = cand[ok & ((orders[cand] == sylow) | (orders[cand] == p))]
        for s in _orbit_reps(H, second, stab).tolist():
            if covered[s] and orders[s] == sylow:
                continue
            pair = _closure_within(H, np.array([r, s]), allowed, n)
            if pair is None:
                continue
            if pair.size == n:
                add_orbit(pair)
                covered = through(r)
                continue
            # |<r, s>| = p q: a third generator completes an elementary P
            both = through(r, s)
            inside = np.zeros(H.size, dtype=bool)
            inside[pair] = True
            third = cand[ok & (orders[cand] == p) & ~inside[cand]
                         & (H.mul(s, cand) == H.mul(cand, s))]
            for t in _orbit_reps(H, third, stab[H.conjugate_by_aut(s, stab) == s]).tolist():
                if both[t]:
                    continue
                members = _closure_within(H, np.array([r, s, t]), allowed, n)
                if members is not None:
                    add_orbit(members)
                    covered, both = through(r), through(r, s)
    return [found[key] for key in sorted(found)]
