"""Three independent enumeration routes for the skew braces on one group.

* ``structured_enumerate`` materializes gamma tables from the per-family
  closed-form parameterizations (kernel branches over Sylow subgroups,
  twisted generators, duality doubling), checking every branch count
  against its formula.
* ``gfe_search`` is a depth-first constraint search over partial gamma
  assignments: the functional equation itself is the propagation rule,
  so nothing family-specific enters.
* ``closure_oracle`` reads gamma tables off the regular subgroups found
  by the holomorph closure search, a route that never touches the
  functional equation or the other two routes.

Where more than one route runs, the caller compares them once, as sets
of gamma tables, not merely in count.  A record is built from a table
only when ``EnumerationResult.braces`` is first read, and
``brace_from_gamma`` checks the functional equation there, once per
table.  ``aut_orbits`` partitions a complete enumeration into
conjugation orbits, which is the isomorphism-class structure.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property
from typing import Optional

import numpy as np

from . import arith, holomorph
from .brace import (
    GammaFunction,
    SkewBraceRecord,
    brace_from_gamma,
    check_gfe,  # not called here; perfbench/tracing.py wraps it by name
    conjugate_gamma,
    dual_gamma,
    gamma_from_regular,
    identity_gamma,
    lift_rgf,
    rgf_from_generator,
)
from .groups import GroupElement, GroupSpec, aut_group, make_group, psi_for_A

GFE_SEARCH_MAX_GROUP = 200
GFE_SEARCH_MAX_AUT = 1000


class SearchTooLargeError(RuntimeError):
    """The group exceeds the constraint-search size gates."""


class StructuredCountMismatchError(RuntimeError):
    """A structured branch produced a count that contradicts its formula."""


class MethodDisagreementError(RuntimeError):
    """Two enumeration routes returned different brace sets."""


@dataclass(frozen=True)
class Orbit:
    orbit_id: int
    length: int
    circle_type: str


@dataclass
class EnumerationResult:
    spec: GroupSpec
    method: str
    gammas: dict[tuple[int, ...], GammaFunction]
    orbits: Optional[list[Orbit]] = None

    def keys(self) -> set[tuple[int, ...]]:
        return set(self.gammas)

    @cached_property
    def braces(self) -> list[SkewBraceRecord]:
        """One record per gamma table in canonical order, built on first read."""
        return [brace_from_gamma(self.gammas[key]) for key in sorted(self.gammas)]

    def counts_by_type(self) -> dict[str, int]:
        out: dict[str, int] = {}
        for rec in self.braces:
            out[rec.circle_type] = out.get(rec.circle_type, 0) + 1
        return dict(sorted(out.items()))

    def orbit_groups(self) -> dict[tuple[str, int], int]:
        """Number of orbits per (circle type, orbit length)."""
        groups: dict[tuple[str, int], int] = {}
        for orb in self.orbits or ():
            key = (orb.circle_type, orb.length)
            groups[key] = groups.get(key, 0) + 1
        return groups

    def summary_dict(self) -> dict:
        return {
            "group": {
                "family": self.spec.family,
                "p": self.spec.p,
                "q": self.spec.q,
                "t": self.spec.t,
            },
            "method": self.method,
            "total": len(self.braces),
            "counts": self.counts_by_type(),
            "orbits": [
                {"length": length, "circle_type": ctype, "size": count}
                for (ctype, length), count in sorted(self.orbit_groups().items())
            ],
        }

    def to_jsonl(self) -> str:
        """One record per line, concluded by the summary object."""
        lines = [rec.to_json() for rec in self.braces]
        lines.append(json.dumps(self.summary_dict()))
        return "\n".join(lines) + "\n"


# -- route 1: structured constructions ---------------------------------------


def _expect(label: str, got: int, want: int) -> None:
    if got != want:
        raise StructuredCountMismatchError(
            f"structured-count-mismatch: branch {label!r} built {got} gamma "
            f"functions, formula predicts {want}"
        )


def _double_by_duality(gammas: dict[tuple[int, ...], GammaFunction]) -> None:
    """Adjoin the dual of every gamma function, in place.

    For the non-abelian families every constructed table has the
    designated central-ish subgroup inside its kernel while its dual
    does not, so the doubled set must be exactly twice as large.
    """
    base = list(gammas.values())
    for gm in base:
        dual = dual_gamma(gm)
        if dual.key in gammas:
            raise StructuredCountMismatchError(
                "structured-count-mismatch: a doubled branch contains a "
                "self-dual gamma function"
            )
        gammas[dual.key] = dual


def _structured_type1(spec: GroupSpec) -> dict[tuple[int, ...], GammaFunction]:
    p, q = spec.p, spec.q
    ag = aut_group(spec)
    a_gen = GroupElement(1, 0)
    b_idx = spec.idx(GroupElement(0, 1))
    A = spec.cyclic_subgroup(spec.idx(a_gen))
    B = spec.cyclic_subgroup(b_idx)
    gammas: dict[tuple[int, ...], GammaFunction] = {}

    # every gamma with B in the kernel comes from a twist of the a-generator
    by_action: dict[int, int] = {}
    for eta in range(ag.size):
        if (p * p) % ag.order_of(eta) != 0:
            continue
        gm = lift_rgf(spec, rgf_from_generator(spec, a_gen, eta), B)
        gammas[gm.key] = gm
        r = int(ag.aperm[eta, b_idx]) % spec.n_mod  # exponent of b^eta
        by_action[arith.mult_order(r, q)] = by_action.get(arith.mult_order(r, q), 0) + 1
    profile = arith.divisibility_profile(p, q)
    _expect("type1/b-fixed", by_action.get(1, 0), p)
    _expect("type1/b-order-p", by_action.get(p, 0),
            p * (p - 1) if profile.p_vs_q1 != "none" else 0)
    _expect("type1/b-order-p2", by_action.get(p * p, 0),
            p * p * (p - 1) if profile.p_vs_q1 == "square" else 0)

    # with q | p-1 there are also gammas killing A, one per order-q image
    if profile.q_divides_p1:
        built = 0
        for theta in range(ag.size):
            if ag.order_of(theta) != q:
                continue
            gm = lift_rgf(spec, rgf_from_generator(spec, GroupElement(0, 1), theta), A)
            gammas[gm.key] = gm
            built += 1
        _expect("type1/a-kernel", built, q - 1)
    return gammas


def _sylow_twists(spec: GroupSpec, a_gen_idx: int, orders: set[int]) -> list[int]:
    """Automorphism indices of the given orders leaving <a_gen> invariant."""
    ag = aut_group(spec)
    members = set(spec.cyclic_subgroup(a_gen_idx))
    return [
        k for k in range(ag.size)
        if ag.order_of(k) in orders and int(ag.aperm[k, a_gen_idx]) in members
    ]


def _structured_type23(spec: GroupSpec) -> dict[tuple[int, ...], GammaFunction]:
    p, q = spec.p, spec.q
    ag = aut_group(spec)
    B = spec.cyclic_subgroup(spec.idx(GroupElement(0, 1)))
    sylows = spec.sylow_subgroups(p * p)
    _expect(f"{spec.family}/sylow-count", len(sylows), q)
    gammas: dict[tuple[int, ...], GammaFunction] = {identity_gamma(spec).key: identity_gamma(spec)}

    if spec.family == "P2Q-Type2":
        psi = psi_for_A(spec, GroupElement(1, 0))
        psi_idx = ag.index_of(psi)
        psi_powers = {psi_idx}
        cur = psi_idx
        for _ in range(p - 1):
            cur = int(ag.comp[cur, psi_idx])
            psi_powers.add(cur)
        psi_powers.discard(ag.identity_idx)
        built = 0
        for xi in psi_powers:
            gm = lift_rgf(spec, rgf_from_generator(spec, GroupElement(1, 0), xi), B)
            gammas[gm.key] = gm
            built += 1
        _expect("type2/psi", built, p - 1)
    else:
        psi_powers = set()

    mixed_built = 0
    big_built = 0
    for gen_idx, _members in sylows:
        a_gen = spec.el(gen_idx)
        for xi in _sylow_twists(spec, gen_idx, {p, p * p}):
            if xi in psi_powers:
                continue
            gm = lift_rgf(spec, rgf_from_generator(spec, a_gen, xi), B)
            gammas[gm.key] = gm
            if ag.order_of(xi) == p:
                mixed_built += 1
            else:
                big_built += 1
    if spec.family == "P2Q-Type2":
        _expect("type2/inner-twist", mixed_built, q * p * (p - 1))
        want_big = q * p * p * (p - 1) if (q - 1) % (p * p) == 0 else 0
        _expect("type2/full-order-twist", big_built, want_big)
        _expect("type2/total", len(gammas),
                1 + (p - 1) + q * p * (p - 1) + want_big)
    else:
        _expect("type3/inner-twist", mixed_built + big_built, q * (p * p - 1))
        _expect("type3/total", len(gammas), 1 + q * (p * p - 1))
    _double_by_duality(gammas)
    return gammas


def _structured_type4(spec: GroupSpec) -> dict[tuple[int, ...], GammaFunction]:
    p, q = spec.p, spec.q
    ag = aut_group(spec)
    B = spec.cyclic_subgroup(spec.idx(GroupElement(0, 1)))
    sylows = spec.sylow_subgroups(q)
    _expect("type4/sylow-count", len(sylows), p * p)
    gammas: dict[tuple[int, ...], GammaFunction] = {identity_gamma(spec).key: identity_gamma(spec)}

    # kernel = the Sylow p-subgroup: twist one Sylow q-complement by an
    # inner power of its own generator
    built = 0
    for gen_idx, _members in sylows:
        a_gen = spec.el(gen_idx)
        iota_a = int(ag.iota_map[gen_idx])
        cur = iota_a
        for _m in range(1, q):
            gm = lift_rgf(spec, rgf_from_generator(spec, a_gen, cur), B)
            gammas[gm.key] = gm
            built += 1
            cur = int(ag.comp[cur, iota_a])
    _expect("type4/kernel-p2", built, p * p * (q - 1))

    # kernel of order p: gamma(a^i b^j) = iota(a^-i) psi^(t j) for the
    # complement-fixing power automorphism psi
    built = 0
    mt = spec.mul_table
    for gen_idx, _members in sylows:
        a_gen = spec.el(gen_idx)
        psi_idx = ag.index_of(psi_for_A(spec, a_gen))
        iota_inv_a = int(ag.ainv[ag.iota_map[gen_idx]])
        a_pows = [spec.identity_idx]
        for _ in range(q - 1):
            a_pows.append(int(mt[a_pows[-1], gen_idx]))
        b_idx = spec.idx(GroupElement(0, 1))
        b_pows = [spec.identity_idx]
        for _ in range(p * p - 1):
            b_pows.append(int(mt[b_pows[-1], b_idx]))
        for t in range(1, p):
            table = [-1] * spec.n
            iota_cur = ag.identity_idx
            for i in range(q):
                psi_cur = ag.identity_idx
                psi_step = psi_idx
                for _ in range(t - 1):
                    psi_step = int(ag.comp[psi_step, psi_idx])
                for j in range(p * p):
                    g = int(mt[a_pows[i], b_pows[j]])
                    table[g] = int(ag.comp[iota_cur, psi_cur])
                    psi_cur = int(ag.comp[psi_cur, psi_step])
                iota_cur = int(ag.comp[iota_cur, iota_inv_a])
            gm = GammaFunction(spec, tuple(table))
            gammas[gm.key] = gm
            built += 1
    _expect("type4/kernel-p", built, p * p * (p - 1))
    _expect("type4/total", len(gammas), 1 + p * p * (q - 1) + p * p * (p - 1))
    _double_by_duality(gammas)
    return gammas


def structured_enumerate(spec: GroupSpec) -> EnumerationResult:
    """All skew braces on a p^2 q group by the closed-form constructions.

    Every claimed gamma table is built concretely; branch sizes that
    disagree with their formulas raise ``StructuredCountMismatchError``.
    The functional equation is checked when the records are built.
    """
    builders = {
        "P2Q-Type1": _structured_type1,
        "P2Q-Type2": _structured_type23,
        "P2Q-Type3": _structured_type23,
        "P2Q-Type4": _structured_type4,
    }
    if spec.family not in builders:
        raise ValueError(f"structured enumeration covers p^2 q families, not {spec.family}")
    gammas = builders[spec.family](spec)
    if identity_gamma(spec).key not in gammas:
        raise StructuredCountMismatchError(
            "structured-count-mismatch: the trivial gamma function is missing"
        )
    return EnumerationResult(spec, "structured", gammas)


# -- route 2: functional-equation constraint search ---------------------------


def gfe_search(spec: GroupSpec,
               max_group_order: int = GFE_SEARCH_MAX_GROUP,
               max_aut_order: int = GFE_SEARCH_MAX_AUT) -> EnumerationResult:
    """Depth-first search for every gamma table, with forced propagation.

    Partial assignments propagate through the functional equation (two
    assigned values force a third) to a fixpoint; conflicts prune, and
    branching runs over the least unassigned element with automorphism
    candidates in canonical order, so the output order is deterministic.
    Propagation has checked every pair of a full assignment, so leaves
    are not re-checked.  The size gates are defaults and may be raised
    by the caller.
    """
    ag = aut_group(spec)
    if spec.n > max_group_order or ag.size > max_aut_order:
        raise SearchTooLargeError(
            f"search-too-large: |G| = {spec.n}, |Aut| = {ag.size} exceed the "
            f"gates ({max_group_order}, {max_aut_order})"
        )
    mt = spec.mul_table
    aperm = ag.aperm
    comp = ag.comp

    def propagate(gamma: np.ndarray, fresh: list[int]) -> bool:
        while fresh:
            assigned = np.flatnonzero(gamma >= 0)
            fr = np.asarray(fresh, dtype=np.int64)
            collected: list[np.ndarray] = []
            for gs, hs in ((fr, assigned), (assigned, fr)):
                targets = mt[aperm[gamma[hs][None, :], gs[:, None]], hs[None, :]].ravel()
                values = comp[gamma[gs][:, None], gamma[hs][None, :]].ravel()
                current = gamma[targets]
                if ((current >= 0) & (current != values)).any():
                    return False
                new_mask = current < 0
                if new_mask.any():
                    gamma[targets[new_mask]] = values[new_mask]
                    if not (gamma[targets] == values).all():
                        return False
                    collected.append(np.unique(targets[new_mask]))
            fresh = np.concatenate(collected).tolist() if collected else []
        return True

    found: dict[tuple[int, ...], GammaFunction] = {}

    def dfs(gamma: np.ndarray) -> None:
        unassigned = np.flatnonzero(gamma < 0)
        if unassigned.size == 0:
            gm = GammaFunction(spec, tuple(int(x) for x in gamma))
            found[gm.key] = gm
            return
        x = int(unassigned[0])
        for candidate in range(ag.size):
            branch = gamma.copy()
            branch[x] = candidate
            if propagate(branch, [x]):
                dfs(branch)

    root = np.full(spec.n, -1, dtype=np.int32)
    root[spec.identity_idx] = ag.identity_idx
    if not propagate(root, [spec.identity_idx]):
        raise AssertionError("the trivial seed assignment cannot conflict")
    dfs(root)
    return EnumerationResult(spec, "gfe-search", found)


# -- route 3: holomorph closure oracle ----------------------------------------


def closure_oracle(spec: GroupSpec,
                   max_hol_order: int = holomorph.DEFAULT_MAX_HOL_ORDER) -> EnumerationResult:
    """Braces read off the exhaustive regular-subgroup closure search.

    Never consults the other routes: comparing it with them is the
    caller's job (``pq_enumerate`` and ``verify``).
    """
    gammas: dict[tuple[int, ...], GammaFunction] = {}
    for cand in holomorph.closure_search_regular(spec, max_hol_order=max_hol_order):
        gm = gamma_from_regular(spec, cand.members)
        gammas[gm.key] = gm
    return EnumerationResult(spec, "closure-oracle", gammas)


# -- orbits under conjugation -------------------------------------------------


def aut_orbits(result: EnumerationResult) -> list[Orbit]:
    """Partition a complete enumeration into conjugation orbits.

    Mutates the records' ``orbit_id`` fields and stores the partition on
    the result.  Orbit ids follow the canonical order of each orbit's
    least gamma table.
    """
    spec = result.spec
    ag = aut_group(spec)
    gens = ag.generators()
    by_key = {rec.canonical_key: rec for rec in result.braces}
    if len(by_key) != len(result.braces):
        raise ValueError("duplicate braces in enumeration result")
    orbits: list[Orbit] = []
    seen: set[tuple[int, ...]] = set()
    for rec in sorted(result.braces, key=lambda r: r.canonical_key):
        if rec.canonical_key in seen:
            continue
        orbit_keys = {rec.canonical_key}
        frontier = [rec.gamma]
        while frontier:
            nxt = []
            for gm in frontier:
                for beta in gens:
                    image = conjugate_gamma(gm, beta)
                    if image.key not in by_key:
                        raise MethodDisagreementError(
                            "conjugation left the enumerated set; the "
                            "enumeration cannot be complete"
                        )
                    if image.key not in orbit_keys:
                        orbit_keys.add(image.key)
                        nxt.append(image)
            frontier = nxt
        oid = len(orbits)
        ctype = rec.circle_type
        for key in orbit_keys:
            member = by_key[key]
            if member.circle_type != ctype:
                raise MethodDisagreementError(
                    "conjugation changed the circle isomorphism type"
                )
            member.orbit_id = oid
        orbits.append(Orbit(orbit_id=oid, length=len(orbit_keys), circle_type=ctype))
        seen |= orbit_keys
    result.orbits = orbits
    return orbits


# -- order pq convenience ------------------------------------------------------


def pq_enumerate(p: int, q: int,
                 max_hol_order: int = holomorph.DEFAULT_MAX_HOL_ORDER
                 ) -> dict[str, EnumerationResult]:
    """Oracle and search on the order-pq groups, keyed by family.

    Covers the cyclic group always and the metacyclic one when it
    exists (q | p-1).  Requires p > q.  Each family runs the closure
    oracle once and the search once; differing gamma-table sets raise
    ``MethodDisagreementError``.  Each result is the oracle's, with its
    orbit partition attached.
    """
    if p <= q:
        raise ValueError(f"order-pq enumeration needs p > q, got ({p}, {q})")
    out: dict[str, EnumerationResult] = {}
    families = ["PQ-Cyclic"]
    if (p - 1) % q == 0:
        families.append("PQ-Metacyclic")
    for family in families:
        spec = make_group(family, p, q)
        result = closure_oracle(spec, max_hol_order=max_hol_order)
        searched = gfe_search(spec)
        if result.keys() != searched.keys():
            raise MethodDisagreementError(
                f"closure oracle and functional-equation search disagree on "
                f"{spec}: {len(result.gammas)} vs {len(searched.gammas)} braces"
            )
        aut_orbits(result)
        out[family] = result
    return out
