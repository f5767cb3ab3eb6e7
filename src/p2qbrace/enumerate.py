"""Three independent enumeration routes for the skew braces on one group.

* ``structured_enumerate`` materializes gamma tables from the per-family
  closed-form parameterizations (kernel branches over Sylow subgroups,
  twisted generators, duality doubling), checking every branch count
  against its formula.
* ``gfe_search`` is a depth-first constraint search over partial gamma
  assignments: the functional equation itself is the propagation rule,
  so nothing family-specific enters.  Since a solution makes (G, o) a
  group, it branches on x only over the automorphisms alpha for which
  y -> y^alpha x has no fixed point.  Each node closes all its branches
  in one batch under right multiplication by the elements decided so
  far, not pair by pair: gamma is consistent on a set A exactly when
  {(gamma(g), g) : g in A} is a subgroup of Hol(G), and a set closed
  under its generators is that subgroup.  It runs while |G| x |Aut|, the
  size of the candidate mask, is within ``GFE_SEARCH_BUDGET``.
* ``closure_oracle`` reads gamma tables off the regular subgroups found
  by the holomorph closure search, a route that never touches the
  functional equation or the other two routes.

``run_routes`` runs them on one group in a fixed order; ``verify`` and
``pq_enumerate`` compare each with the first that ran, as sets of gamma
tables, not merely in count.  Records are built when
``EnumerationResult.braces`` is first read, orbit by orbit under
conjugation by Aut(G): ``brace_from_gamma`` checks the functional
equation and classifies the circle group once per orbit, on its least
table.  ``aut_orbits`` reports the partition, the isomorphism classes.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from functools import cached_property
from typing import Optional

import numpy as np

from . import arith, counts, holomorph
from .brace import (
    GammaFunction,
    SkewBraceRecord,
    brace_from_gamma,
    check_gfe,  # not called here; perfbench/tracing.py wraps it by name
    conjugate_gamma,
    dual_gamma,
    gamma_from_array,
    gamma_from_regular,
    identity_gamma,
    lift_rgf,
    rgf_from_generator,
)
from .groups import (P2Q_FAMILIES, GroupElement, GroupSpec, aut_group, aut_order,
                     check_aut_gate, make_group, powers, psi_for_A)

# |G| x |Aut|, the cells of the search's candidate table; Type4 (7,3) is
# the largest group it admits
GFE_SEARCH_BUDGET = 302_526


class SearchTooLargeError(RuntimeError):
    """|G| x |Aut| exceeds the constraint search's budget."""


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
        """One record per gamma table in canonical order, built on first read.

        Each table not yet recorded leads its conjugation orbit:
        ``brace_from_gamma`` checks and classifies it, and a walk by the
        generators of Aut(G) reaches the members, which inherit its type
        and kernel size: gamma^beta vanishes exactly on (ker gamma)^beta.
        ``orbits`` is set only if the set is closed under conjugation.
        """
        gens = aut_group(self.spec).generators()
        records: dict[tuple[int, ...], SkewBraceRecord] = {}
        orbits: list[Orbit] = []
        closed = True
        for key in sorted(self.gammas):
            if key in records:
                continue
            oid = len(orbits)
            leader = brace_from_gamma(self.gammas[key])
            leader.orbit_id = oid
            records[key] = leader
            orbit = [leader.gamma]
            for gm in orbit:  # breadth first: the list grows while it is read
                for beta in gens:
                    image = conjugate_gamma(gm, beta).key
                    if image not in self.gammas:
                        closed = False
                    elif image not in records:
                        # keyed by the stored tuple, so the conjugate's is freed
                        member = self.gammas[image]
                        records[member.key] = replace(leader, gamma=member)
                        orbit.append(member)
            orbits.append(Orbit(orbit_id=oid, length=len(orbit), circle_type=leader.circle_type))
        if closed:
            self.orbits = orbits
        return [records[key] for key in sorted(records)]

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
            "group": self.spec.to_json_dict(),
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
    for eta in np.flatnonzero((p * p) % ag.orders == 0).tolist():
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
        for theta in np.flatnonzero(ag.orders == q).tolist():
            gm = lift_rgf(spec, rgf_from_generator(spec, GroupElement(0, 1), theta), A)
            gammas[gm.key] = gm
            built += 1
        _expect("type1/a-kernel", built, q - 1)
    return gammas


def _structured_type23(spec: GroupSpec) -> dict[tuple[int, ...], GammaFunction]:
    p, q = spec.p, spec.q
    ag = aut_group(spec)
    B = spec.cyclic_subgroup(spec.idx(GroupElement(0, 1)))
    sylows = spec.sylow_subgroups(p * p)
    _expect(f"{spec.family}/sylow-count", len(sylows), q)
    gammas: dict[tuple[int, ...], GammaFunction] = {identity_gamma(spec).key: identity_gamma(spec)}

    if spec.family == "P2Q-Type2":
        psi_idx = psi_for_A(spec, GroupElement(1, 0))
        psi_powers = set(powers(ag.comp, psi_idx, p, ag.identity_idx)[1:].tolist())
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
    twist_orders = np.isin(ag.orders, (p, p * p))
    for gen_idx, members in sylows:
        a_gen = spec.el(gen_idx)
        # twists of order p or p^2 that leave the Sylow subgroup <a_gen> invariant
        invariant = np.isin(ag.aperm[:, gen_idx], members)
        for xi in np.flatnonzero(twist_orders & invariant).tolist():
            if xi in psi_powers:
                continue
            gm = lift_rgf(spec, rgf_from_generator(spec, a_gen, xi), B)
            gammas[gm.key] = gm
            if ag.orders[xi] == p:
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
    one = ag.identity_idx
    b_idx = spec.idx(GroupElement(0, 1))
    B = spec.cyclic_subgroup(b_idx)
    sylows = spec.sylow_subgroups(q)
    _expect("type4/sylow-count", len(sylows), p * p)
    gammas: dict[tuple[int, ...], GammaFunction] = {identity_gamma(spec).key: identity_gamma(spec)}

    # kernel = the Sylow p-subgroup: twist one Sylow q-complement by an
    # inner power of its own generator
    built = 0
    for gen_idx, _members in sylows:
        a_gen = spec.el(gen_idx)
        for eta in powers(ag.comp, ag.iota_map[gen_idx], q, one)[1:].tolist():
            gm = lift_rgf(spec, rgf_from_generator(spec, a_gen, eta), B)
            gammas[gm.key] = gm
            built += 1
    _expect("type4/kernel-p2", built, p * p * (q - 1))

    # kernel of order p: gamma(a^i b^j) = iota(a^-i) psi^(t j) for the
    # complement-fixing power automorphism psi
    built = 0
    mt = spec.mul_table
    b_pows = powers(mt, b_idx, p * p, 0)
    for gen_idx, _members in sylows:
        psi_pows = powers(ag.comp, psi_for_A(spec, spec.el(gen_idx)), p, one)
        iota_pows = powers(ag.comp, ag.ainv[ag.iota_map[gen_idx]], q, one)
        # <a> <b> = G, so these cells cover every element once
        cells = mt[powers(mt, gen_idx, q, 0)[:, None], b_pows[None, :]]
        for psi_t in psi_pows[1:]:
            table = np.empty(spec.n, dtype=np.int32)
            table[cells] = ag.comp[iota_pows[:, None], powers(ag.comp, psi_t, p * p, one)]
            gm = gamma_from_array(spec, table)
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


def _propagate(mt: np.ndarray, aperm: np.ndarray, comp: np.ndarray,
               table: np.ndarray, x: int, decided: list[int]) -> np.ndarray:
    """Close each row of a (k, |G|) batch of branches under right
    multiplication by its decided elements, in place; returns the mask of
    rows that closed without a conflict.

    A pair (g, h) of assigned elements forces gamma[g^gamma(h) h] =
    gamma(g) gamma(h).  On entry the rows differ only at x, just assigned,
    and the assigned set is closed under g -> g o s for every s in
    ``decided``, each such pair consistent.  The first round checks
    (assigned, x) and (x, s) for s in ``decided`` on every row; each later
    round checks the elements the round before assigned on a live row
    against ``decided`` and x.  Cells are flat indices row |G| + element,
    so each row closes as it would alone, and a dead row assigns no more.
    """
    n = table.shape[1]
    flat = table.reshape(-1)
    alive = np.ones(len(table), dtype=bool)
    gens = np.array([*decided, x], dtype=np.int32)
    assigned = np.flatnonzero(table[:1] >= 0).astype(np.int32)  # shared by the rows
    rows = np.arange(0, table.size, n, dtype=np.int32)[:, None]
    gs = np.concatenate([assigned, np.full(len(decided), x, dtype=np.int32)])
    hs = np.concatenate([np.full(assigned.size, x, dtype=np.int32), gens[:-1]])
    while rows.size:
        gamma_h = flat[rows + hs]
        targets = rows + mt[aperm[gamma_h, gs], hs]
        values = comp[flat[rows + gs], gamma_h]
        unset = flat[targets] < 0
        new = targets[unset]
        flat[new] = values[unset]
        # a conflict, or one new target given two values
        alive[targets[flat[targets] != values] // n] = False
        fresh = np.zeros(flat.size, dtype=bool)
        fresh[new] = True
        fresh = np.flatnonzero(fresh).astype(np.int32)
        fresh = fresh[alive[fresh // n], None]
        rows, gs, hs = fresh - fresh % n, fresh % n, gens
    return alive


def _first_round(mt: np.ndarray, aperm: np.ndarray, comp: np.ndarray,
                 gamma: np.ndarray, x: int, alphas: np.ndarray) -> np.ndarray:
    """Which candidates alpha for gamma(x) survive the pairs (x, h), (g, x)
    and (x, x) over the assigned g and h, all rows in one batch.

    A row fails on a conflict with gamma or when one target gets two
    values: exactly the branches that the first round of checking every
    assigned pair would reject.
    """
    assigned = np.flatnonzero(gamma >= 0)
    gamma_a = gamma[assigned]
    col = alphas[:, None]
    targets = np.hstack([
        np.broadcast_to(mt[aperm[gamma_a, x], assigned], (alphas.size, assigned.size)),
        mt[aperm[col, assigned], x],
        mt[aperm[col, x], x],
    ])
    values = np.hstack([comp[col, gamma_a], comp[gamma_a, col], comp[col, col]])
    table = np.tile(gamma, (alphas.size, 1))
    table[:, x] = alphas
    rows = np.broadcast_to(np.arange(alphas.size)[:, None], targets.shape)
    unset = table[rows, targets] < 0
    table[rows[unset], targets[unset]] = values[unset]
    return (table[rows, targets] == values).all(axis=1)


def gfe_search(spec: GroupSpec) -> EnumerationResult:
    """Depth-first search for every gamma table, with forced propagation.

    Partial assignments propagate through the functional equation (two
    assigned values force a third) to a fixpoint; conflicts prune, and
    branching runs over the least unassigned element with automorphism
    candidates in canonical order, so the output order is deterministic.

    The equation holds for (g, h) exactly when rho_g rho_h = rho_(g o h)
    in Hol(G), where rho_g = (gamma(g), g) and g o h = g^gamma(h) h.  So
    propagation closes a branch under right multiplication by the
    elements S it has branched on, x included: if A is closed under
    g -> g o s for every s in S and every such pair holds, then
    {rho_g : g in A} is the group the rho_s generate, and every pair of A
    holds.  Each closure therefore ends where closing under every
    assigned pair would, with the same gamma or the same conflict, and a
    full assignment is a gamma function: leaves are not re-checked.
    At each node ``_first_round`` drops the candidates of x that the first
    round over every assigned pair would reject, and ``_propagate`` closes
    the rest together, one row each; the tree and its nodes do not change.

    A solution makes (G, o) a group with y o x = y^gamma(x) x, and in a
    group y o x = y forces x = 1.  So for x != 1, gamma(x) = alpha only if
    y -> y^alpha x has no fixed point, and branching on x runs over those
    alpha alone: the column of x in ``AutGroup.fixed_point_free``, the
    table the oracle's holomorph mask also reads.  That table has
    |G| x |Aut| cells, which must not exceed ``GFE_SEARCH_BUDGET``, read
    at call time.
    """
    check_aut_gate(spec)
    m = aut_order(spec)
    if spec.n * m > GFE_SEARCH_BUDGET:
        raise SearchTooLargeError(
            f"search-too-large: |G| x |Aut| = {spec.n} x {m} = "
            f"{spec.n * m} exceeds the budget {GFE_SEARCH_BUDGET}"
        )
    ag = aut_group(spec)
    mt = spec.mul_table
    aperm = ag.aperm
    comp = ag.comp
    fpf = ag.fixed_point_free
    found: dict[tuple[int, ...], GammaFunction] = {}

    def dfs(gamma: np.ndarray, decided: list[int]) -> None:
        unassigned = np.flatnonzero(gamma < 0)
        if unassigned.size == 0:
            gm = gamma_from_array(spec, gamma)
            found[gm.key] = gm
            return
        x = int(unassigned[0])
        alphas = np.flatnonzero(fpf[:, x])
        alphas = alphas[_first_round(mt, aperm, comp, gamma, x, alphas)]
        branches = np.tile(gamma, (alphas.size, 1))
        branches[:, x] = alphas
        for branch in branches[_propagate(mt, aperm, comp, branches, x, decided)]:
            dfs(branch, [*decided, x])

    root = np.full((1, spec.n), -1, dtype=np.int32)
    root[0, spec.identity_idx] = ag.identity_idx
    if not _propagate(mt, aperm, comp, root, spec.identity_idx, [])[0]:
        raise AssertionError("the trivial seed assignment cannot conflict")
    dfs(root[0], [])
    return EnumerationResult(spec, "gfe-search", found)


# -- route 3: holomorph closure oracle ----------------------------------------


def closure_oracle(spec: GroupSpec,
                   max_hol_order: int = holomorph.DEFAULT_MAX_HOL_ORDER) -> EnumerationResult:
    """Braces read off the exhaustive regular-subgroup closure search.

    Never consults the other routes: ``run_routes`` runs it last, and its
    callers compare it with the first route that ran.
    """
    gammas: dict[tuple[int, ...], GammaFunction] = {}
    for members in holomorph.closure_search_regular(spec, max_hol_order=max_hol_order):
        gm = gamma_from_regular(spec, members)
        gammas[gm.key] = gm
    return EnumerationResult(spec, "closure-oracle", gammas)


# -- orbits under conjugation -------------------------------------------------


def aut_orbits(result: EnumerationResult) -> list[Orbit]:
    """The conjugation-orbit partition of a complete enumeration, as
    ``EnumerationResult.braces`` built it; raises when conjugation left
    the set.  Orbit ids follow the canonical order of each orbit's least
    gamma table.
    """
    result.braces  # builds the partition on first read
    if result.orbits is None:
        raise MethodDisagreementError(
            "conjugation left the enumerated set; the enumeration cannot be complete"
        )
    return result.orbits


# -- every route on one group -------------------------------------------------


def run_routes(spec: GroupSpec, max_hol_order: int = holomorph.DEFAULT_MAX_HOL_ORDER):
    """Yield (method, result, base) per route: structured (order p^2 q
    only), search, then oracle.  A route past its gate yields its gate
    error as the result.  The base is the first route's result that ran,
    None until one has.

    Each route is looked up as a module attribute when it runs, and no
    result but the base is kept here once yielded.
    """
    runs = [("gfe-search", lambda: gfe_search(spec)),
            ("closure-oracle", lambda: closure_oracle(spec, max_hol_order=max_hol_order))]
    if spec.family in P2Q_FAMILIES:
        runs.insert(0, ("structured", lambda: structured_enumerate(spec)))
    base = None
    for method, run in runs:
        try:
            result = run()
        except (SearchTooLargeError, holomorph.OracleTooLargeError) as exc:
            result = exc
        if base is None and isinstance(result, EnumerationResult):
            base = result
        yield method, result, base
        del result


def pq_enumerate(p: int, q: int,
                 max_hol_order: int = holomorph.DEFAULT_MAX_HOL_ORDER
                 ) -> dict[str, EnumerationResult]:
    """The order-pq groups through ``run_routes``, keyed by family.

    Covers the cyclic group always and the metacyclic one when it
    exists (q | p-1); p <= q raises ``ValueError``.  A gated route raises
    its gate error, and a route whose gamma-table set differs from the
    search's raises ``MethodDisagreementError``.  Each result is the
    search's, with its orbit partition attached.
    """
    out: dict[str, EnumerationResult] = {}
    for family in counts.pq_tables(p, q).types:
        spec = make_group(family, p, q)
        for _method, result, base in run_routes(spec, max_hol_order):
            if isinstance(result, Exception):
                raise result
            if result.keys() != base.keys():
                raise MethodDisagreementError(
                    f"{base.method} and {result.method} disagree on {spec}: "
                    f"{len(base.gammas)} vs {len(result.gammas)} braces"
                )
        aut_orbits(base)
        out[family] = base
    return out
