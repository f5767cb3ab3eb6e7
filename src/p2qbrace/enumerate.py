"""Three independent enumeration routes for the skew braces on one group.

* ``structured_enumerate`` materializes gamma tables from the per-family
  closed-form parameterizations (kernel branches over Sylow subgroups,
  twisted generators, duality doubling), checking every branch count
  against its formula.  It is one loop over each family's branches, a
  generator a with its k twists, lifted as one (k, |G|) batch in
  O(k |G|) memory.
* ``gfe_search`` is a constraint search over partial gamma assignments,
  one depth at a time: the functional equation itself is the propagation
  rule, so nothing family-specific enters.  It branches on x only over
  the alpha for which y -> y^alpha x has no fixed point, closes a depth's
  branches together in batches of at most |Aut| rows, searches one
  candidate per Stab(a)-orbit at the root and closes the leaves under
  conjugation by Aut(G).  It runs while |G| x |Aut|, the size of the
  candidate mask, is within ``GFE_SEARCH_BUDGET``.
* ``closure_oracle`` reads gamma tables off the regular subgroups found
  by the holomorph closure search, a route that never touches the
  functional equation or the other two routes.

Each route returns its gamma tables as one ``gamma_set``: an int32
(k, |G|) array of distinct rows in lexicographic order.  ``run_routes``
runs the routes on one group in a fixed order; ``verify`` and
``pq_enumerate`` compare each with the first that ran by
``np.array_equal``.  ``EnumerationResult.partition`` finds the orbits
under conjugation by Aut(G), one ``conjugate_gamma`` gather per generator
and row block, and keeps one record per orbit: ``brace_from_gamma``
checks the functional equation and classifies the circle group on each
orbit's least table.  ``aut_orbits`` reports the partition, the
isomorphism classes; ``jsonl_blocks`` writes every row's line straight
from the set through a byte table of the automorphism indices.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass, replace
from functools import cached_property
from typing import Iterator, Optional, Sequence

import numpy as np

from . import arith, counts, holomorph
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
from .groups import (_COMP_BLOCK_ENTRIES, P2Q_FAMILIES, GroupElement, GroupSpec, aut_group,
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


def _row_keys(tables: np.ndarray) -> np.ndarray:
    """One opaque byte string per row: its entries in big-endian order.
    For entries >= 0 the strings compare as the rows do lexicographically."""
    be = np.ascontiguousarray(tables, dtype=">i4")
    return be.view(np.dtype((np.void, be.shape[1] * be.itemsize))).ravel()


def gamma_set(rows: Sequence[np.ndarray] | np.ndarray) -> np.ndarray:
    """The canonical form of a set of gamma tables: a C-contiguous int32
    (k, |G|) array, with no duplicate rows and the rows in lexicographic
    order, the order ``sorted`` gives their tuples."""
    rows = np.asarray(rows, dtype=np.int32)
    keys = _row_keys(rows)
    order = np.argsort(keys)
    keys = keys[order]
    new = np.ones(len(order), dtype=bool)
    new[1:] = keys[1:] != keys[:-1]
    del keys  # before the gather, which is the memory peak
    return rows[order[new]]


def _lookup(keys: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """The index of each of ``rows`` in the canonical set whose
    ``_row_keys`` are ``keys``, built once per set, or -1 where it is
    absent: a binary search, then an exact compare."""
    probes = _row_keys(rows)
    at = np.minimum(np.searchsorted(keys, probes), len(keys) - 1)
    return np.where(keys[at] == probes, at, -1)


@dataclass(frozen=True)
class Orbit:
    orbit_id: int
    length: int
    circle_type: str


@dataclass
class EnumerationResult:
    spec: GroupSpec
    method: str
    gammas: np.ndarray  # the set of gamma tables, in ``gamma_set``'s form

    @cached_property
    def partition(self) -> tuple[np.ndarray, list[SkewBraceRecord], np.ndarray, bool]:
        """The conjugation orbits of ``gammas``, built on first read: each
        row's orbit id, one record per orbit, the orbit lengths, and
        whether conjugation kept to the set (an image outside it is no edge).

        Each generator of Aut(G) maps the rows to their conjugates' rows, a
        block of ``_COMP_BLOCK_ENTRIES`` cells at a time, looked up by the
        set's keys.  Labels start as row indices and are pushed along these
        maps, keeping the least, until each orbit is labelled by its least
        row, its leader; orbit ids follow the leaders.  The leaders' records
        (``brace_from_gamma``, a block at a time) stand for their orbits,
        since gamma^beta vanishes exactly on (ker gamma)^beta."""
        spec, tables = self.spec, self.gammas
        step, gens = max(1, _COMP_BLOCK_ENTRIES // spec.n), aut_group(spec).generators()
        rows, keys = np.arange(len(tables)), _row_keys(tables)
        images = np.concatenate([[_lookup(keys, conjugate_gamma(spec, tables[lo:lo + step], beta))
                                  for beta in gens] for lo in range(0, len(tables), step)], axis=1)
        del keys
        closed, images = bool((images >= 0).all()), np.where(images >= 0, images, rows)
        label = rows
        while True:
            pushed = label.copy()
            for image in images:
                np.minimum.at(pushed, image, label)
            pushed = pushed[pushed]  # a label is a row of the same orbit
            if np.array_equal(pushed, label):
                break
            label = pushed
        leaders, records = np.flatnonzero(label == rows), []
        for lo in range(0, leaders.size, step):
            records += brace_from_gamma(spec, tables[leaders[lo:lo + step]])
        records = [replace(rec, orbit_id=oid) for oid, rec in enumerate(records)]
        return np.searchsorted(leaders, label), records, np.bincount(label)[leaders], closed

    @cached_property
    def orbits(self) -> Optional[list[Orbit]]:
        """The partition's orbits, or None when conjugation left the set."""
        _, records, lengths, closed = self.partition
        return [Orbit(rec.orbit_id, length, rec.circle_type)
                for rec, length in zip(records, lengths.tolist())] if closed else None

    @cached_property
    def braces(self) -> list[SkewBraceRecord]:
        """One record per row of ``gammas``: its orbit's, holding a view of the row."""
        orbit_of, records, _, _ = self.partition
        return [replace(records[oid], gamma=GammaFunction(self.spec, row))
                for oid, row in zip(orbit_of.tolist(), self.gammas)]

    def counts_by_type(self) -> dict[str, int]:
        _, records, lengths, _ = self.partition
        counts: Counter = Counter()
        for rec, length in zip(records, lengths.tolist()):
            counts[rec.circle_type] += length
        return dict(sorted(counts.items()))

    def orbit_groups(self) -> dict[tuple[str, int], int]:
        """Number of orbits per (circle type, orbit length)."""
        return dict(Counter((orb.circle_type, orb.length) for orb in self.orbits or ()))

    def summary_dict(self) -> dict:
        return {
            "group": self.spec.to_json_dict(),
            "method": self.method,
            "total": len(self.gammas),
            "counts": self.counts_by_type(),
            "orbits": [
                {"length": length, "circle_type": ctype, "size": count}
                for (ctype, length), count in sorted(self.orbit_groups().items())
            ],
        }

    def jsonl_blocks(self) -> Iterator[str]:
        """The record lines, a block of ``_COMP_BLOCK_ENTRIES`` cells at a
        time, then the summary: one shared head, the row's entries "i, " but
        the last ", ", and its orbit's tail, as ``json.dumps`` writes them.
        The entries are gathered zero-padded, then compressed in one ``tobytes``."""
        spec, (orbit_of, records, _, _) = self.spec, self.partition
        head = json.dumps({"group": spec.to_json_dict(), "gamma": []})[:-2].encode()
        tails = [b"], " + json.dumps({k: getattr(rec, k) for k in (
            "circle_type", "kernel_size", "orbit_id")})[1:].encode() + b"\n" for rec in records]
        words = np.array([f"{i}, " for i in range(aut_group(spec).size)], dtype=bytes)
        widths = (words[:, None].view(np.uint8) != 0).sum(axis=1)  # np.char costs an import
        step = max(1, _COMP_BLOCK_ENTRIES // spec.n)
        for lo in range(0, len(self.gammas), step):
            block, oids = self.gammas[lo:lo + step], orbit_of[lo:lo + step].tolist()
            text = words[block].view(np.uint8)
            body = memoryview(text[text != 0].tobytes())
            ends = np.cumsum(widths[block].sum(axis=1)).tolist()
            yield b"".join(part for start, end, oid in zip([0, *ends], ends, oids)
                           for part in (head, body[start:end - 2], tails[oid])).decode()
        yield json.dumps(self.summary_dict()) + "\n"

    def to_jsonl(self) -> str:
        """One record per line, concluded by the summary object."""
        return "".join(self.jsonl_blocks())


# -- route 1: structured constructions ---------------------------------------


def _expect(label: str, got: int, want: int) -> None:
    if got != want:
        raise StructuredCountMismatchError(
            f"structured-count-mismatch: branch {label!r} built {got} gamma "
            f"functions, formula predicts {want}"
        )


def _double_by_duality(spec: GroupSpec, gammas: np.ndarray) -> np.ndarray:
    """The canonical set together with the dual of each of its rows.

    For the non-abelian families every constructed table has the
    designated central-ish subgroup inside its kernel while its dual
    does not, so the duals are distinct and none lies in the set: the
    doubled set is exactly twice as large, and any other size fails.
    """
    doubled = gamma_set(np.concatenate([gammas, dual_gamma(spec, gammas)]))
    if len(doubled) != 2 * len(gammas):
        raise StructuredCountMismatchError(
            "structured-count-mismatch: a doubled branch contains a "
            "self-dual gamma function"
        )
    return doubled


def _formulas(spec: GroupSpec) -> dict[str, int]:
    """How many gamma functions each branch label builds."""
    p, q = spec.p, spec.q
    profile = arith.divisibility_profile(p, q)
    square = p * p * (p - 1) if profile.p_vs_q1 == "square" else 0
    return {
        "P2Q-Type1": {"type1/b-fixed": p, "type1/b-order-p2": square,
                      "type1/b-order-p": p * (p - 1) if profile.p_vs_q1 != "none" else 0,
                      "type1/a-kernel": q - 1 if profile.q_divides_p1 else 0},
        "P2Q-Type2": {"type2/psi": p - 1, "type2/inner-twist": q * p * (p - 1),
                      "type2/full-order-twist": q * square},
        "P2Q-Type3": {"type3/inner-twist": q * (p * p - 1)},
        "P2Q-Type4": {"type4/kernel-p2": p * p * (q - 1), "type4/kernel-p": p * p * (p - 1)},
    }[spec.family]


def _type1_branches(spec: GroupSpec):
    p, q = spec.p, spec.q
    ag = aut_group(spec)
    a_idx, b_idx = spec.idx(GroupElement(1, 0)), spec.idx(GroupElement(0, 1))
    # every gamma with B in the kernel comes from a twist of a, told apart
    # by the order mod q of r, where b^eta = b^r, the element of index r
    etas = np.flatnonzero((p * p) % ag.orders == 0)
    action = np.array([arith.mult_order(r, q) for r in ag.aperm[etas, b_idx].tolist()])
    B = spec.cyclic_subgroup(b_idx)
    for label, order in (("type1/b-fixed", 1), ("type1/b-order-p", p),
                         ("type1/b-order-p2", p * p)):
        yield label, a_idx, etas[action == order], B
    # with q | p-1 there are also gammas killing A, one per order-q image
    if arith.divisibility_profile(p, q).q_divides_p1:
        yield "type1/a-kernel", b_idx, np.flatnonzero(ag.orders == q), spec.cyclic_subgroup(a_idx)


def _type23_branches(spec: GroupSpec):
    p, q = spec.p, spec.q
    ag = aut_group(spec)
    B = spec.cyclic_subgroup(spec.idx(GroupElement(0, 1)))
    sylows = spec.sylow_subgroups(p * p)
    _expect(f"{spec.family}/sylow-count", len(sylows), q)
    twists = np.isin(ag.orders, (p, p * p))
    if spec.family == "P2Q-Type2":
        psi_pows = powers(ag.comp, psi_for_A(spec, GroupElement(1, 0)), p, ag.identity_idx)[1:]
        twists[psi_pows] = False
        yield "type2/psi", spec.idx(GroupElement(1, 0)), psi_pows, B
    for gen_idx, members in sylows:
        # twists of order p or p^2 that leave the Sylow subgroup <gen> invariant
        invariant = twists & np.isin(ag.aperm[:, gen_idx], members)
        if spec.family == "P2Q-Type2":
            for order, label in ((p, "type2/inner-twist"), (p * p, "type2/full-order-twist")):
                yield label, gen_idx, np.flatnonzero(invariant & (ag.orders == order)), B
        else:
            yield "type3/inner-twist", gen_idx, np.flatnonzero(invariant), B


def _type4_branches(spec: GroupSpec):
    p, q = spec.p, spec.q
    ag = aut_group(spec)
    one = ag.identity_idx
    mt = spec.mul_table
    b_idx = spec.idx(GroupElement(0, 1))
    B = spec.cyclic_subgroup(b_idx)
    b_pows = powers(mt, b_idx, p * p, 0)
    sylows = spec.sylow_subgroups(q)
    _expect("type4/sylow-count", len(sylows), p * p)
    for gen_idx, _members in sylows:
        # kernel = the Sylow p-subgroup: twist one Sylow q-complement by an
        # inner power of its own generator
        yield "type4/kernel-p2", gen_idx, powers(ag.comp, ag.iota_map[gen_idx], q, one)[1:], B
        # kernel of order p: gamma(a^i b^j) = iota(a^-i) psi^(t j) for the
        # complement-fixing power automorphism psi, broadcast over the
        # cells a^i b^j, which cover every element once
        psi_pows = powers(ag.comp, psi_for_A(spec, spec.el(gen_idx)), p, one)[1:]
        iota_pows = powers(ag.comp, ag.ainv[ag.iota_map[gen_idx]], q, one)
        cells = mt[powers(mt, gen_idx, q, 0)[:, None], b_pows]
        tables = np.empty((p - 1, spec.n), dtype=ag.comp.dtype)
        psi_tj = powers(ag.comp, psi_pows, p * p, one)
        tables[:, cells] = ag.comp[iota_pows[:, None], psi_tj[:, None]]
        yield "type4/kernel-p", None, tables, None


def structured_enumerate(spec: GroupSpec) -> EnumerationResult:
    """All skew braces on a p^2 q group by the closed-form constructions.

    One loop lifts each of the family's branches (label, generator a,
    twists, complement B) as one batch: twist eta gives gamma(a) = eta on
    <a>, lifted along G = <a> B.  Type4's kernel-p branch has no generator
    and brings its tables.  The identity row and the branches are stacked
    into one ``gamma_set``.  A count per label, the Sylow count or the
    family total off its formula raises ``StructuredCountMismatchError``;
    the non-abelian families are then doubled by duality, one
    ``dual_gamma`` gather for the whole set.
    """
    branches = {"P2Q-Type1": _type1_branches, "P2Q-Type2": _type23_branches,
                "P2Q-Type3": _type23_branches, "P2Q-Type4": _type4_branches}
    if spec.family not in branches:
        raise ValueError(f"structured enumeration covers p^2 q families, not {spec.family}")
    want = _formulas(spec)
    built = dict.fromkeys(want, 0)
    tables = [identity_gamma(spec).row[None]]
    for label, a_idx, rows, complement in branches[spec.family](spec):
        if a_idx is not None:  # rows are twists, else tables
            rows = lift_rgf(spec, *rgf_from_generator(spec, a_idx, rows), complement)
        tables.append(rows)
        built[label] += len(rows)
    for label, count in want.items():
        _expect(label, built[label], count)
    gammas = gamma_set(np.concatenate(tables))
    if spec.family != "P2Q-Type1":
        _expect(f"type{spec.family[-1]}/total", len(gammas), 1 + sum(want.values()))
        gammas = _double_by_duality(spec, gammas)
    return EnumerationResult(spec, "structured", gammas)


# -- route 2: functional-equation constraint search ---------------------------


def _propagate(mt: np.ndarray, aperm: np.ndarray, comp: np.ndarray,
               table: np.ndarray, gens: np.ndarray) -> np.ndarray:
    """Close each row r of a (k, |G|) batch of branches, in place, under
    right multiplication by ``gens[r]``, its decided elements and then
    x_r, the element it has just assigned; returns the mask of rows that
    closed without a conflict.

    A pair (g, h) of assigned elements forces gamma[g^gamma(h) h] =
    gamma(g) gamma(h).  On entry each row's assigned set is closed under
    g -> g o s for its decided s, each such pair consistent, so the rows
    may come from different nodes.  This is the only check a candidate
    meets: round 1 checks (g, x_r) for every assigned g of row r and
    (x_r, s) for its decided s, as flat 1-D arrays; each later round
    checks each cell g the round before assigned on a live row against
    its generators, and (g, g), which closure does not need but which
    walks a chain of powers in doubling steps.  Cells are flat indices
    row |G| + element, so each row closes as it would alone.
    """
    n, flat = table.shape[1], table.reshape(-1)
    alive = np.ones(len(table), dtype=bool)
    x, d = gens[:, -1], gens.shape[1] - 1
    cells = np.flatnonzero(flat >= 0).astype(np.int32)
    rows = n * np.concatenate([cells // n, np.repeat(np.arange(len(table), dtype=np.int32), d)])
    gs = np.concatenate([cells % n, np.repeat(x, d)])
    hs = np.concatenate([x[cells // n], gens[:, :-1].ravel()])
    while rows.size:
        gamma_h = flat[rows + hs]
        targets = rows + mt[aperm[gamma_h, gs], hs]
        values = comp[flat[rows + gs], gamma_h]
        unset = flat[targets] < 0
        new = targets[unset]
        flat[new] = values[unset]
        # a conflict, or one new target given two values
        alive[targets[flat[targets] != values] // n] = False
        new.sort()
        fresh = np.ones(new.size, dtype=bool)
        fresh[1:] = new[1:] != new[:-1]
        fresh = new[fresh & alive[new // n], None]
        gs = fresh % n
        rows, hs = fresh - gs, np.concatenate([gens[fresh[:, 0] // n], gs], axis=1)
    return alive


def gfe_search(spec: GroupSpec) -> EnumerationResult:
    """Every gamma table: a search with forced propagation, one depth at
    a time, whose leaves are then closed under conjugation by Aut(G).

    Two assigned values force a third through the functional equation;
    conflicts prune, and each branch branches on its least unassigned
    element x.  The equation holds for (g, h) exactly when rho_g rho_h =
    rho_(g o h) in Hol(G), where rho_g = (gamma(g), g) and g o h =
    g^gamma(h) h.  So propagation closes a branch under right
    multiplication by the elements S it has branched on, x included: if A
    is closed under g -> g o s for every s in S and every such pair holds,
    then {rho_g : g in A} is the group the rho_s generate, and every pair
    of A holds.  A closure thus ends where closing under every assigned
    pair would, and a full assignment is a gamma function: leaves are not
    re-checked.  A depth's branches have as many generators each, so
    ``_propagate`` closes them together, whatever their node, in batches
    of at most |Aut| rows, the most candidates one element has, expanded
    lazily from the depth's survivors one batch at a time.

    Aut(G) permutes the solutions by gamma^beta(g) = beta^-1
    gamma(g^(beta^-1)) beta (``conjugate_gamma``).  If beta fixes the
    root element, the solutions with gamma(root) = alpha and those with
    gamma(root) = beta^-1 alpha beta are conjugate by beta.  So the root
    branches over the least candidate of each orbit of its stabiliser,
    and the leaves are closed under ``AutGroup.generators()``, one round
    of images of the new tables at a time.  The root is the generator a
    of the presentation: on Type2 (3,19) Stab(a) merges its 1,026
    candidates into 108.  Where Stab(a) merges none (Aut(G) abelian:
    Type1 and PQ-Cyclic) the root is the least non-identity element.

    In a solution y o x = y^gamma(x) x = y forces x = 1, so for x != 1,
    gamma(x) = alpha only if y -> y^alpha x has no fixed point: branching
    on x runs over x's column of ``AutGroup.fixed_point_free``, the table
    the oracle's holomorph mask also reads.  Its |G| x |Aut| cells must
    not exceed ``GFE_SEARCH_BUDGET``, read at call time.
    """
    check_aut_gate(spec)
    m = spec.aut_order
    if spec.n * m > GFE_SEARCH_BUDGET:
        raise SearchTooLargeError(
            f"search-too-large: |G| x |Aut| = {spec.n} x {m} = "
            f"{spec.n * m} exceeds the budget {GFE_SEARCH_BUDGET}"
        )
    ag = aut_group(spec)
    mt, aperm, comp, fpf = spec.mul_table, ag.aperm, ag.comp, ag.fixed_point_free

    def children(rows, gens, xs, cands):
        """Row r's branches on xs[r] over column r of ``cands``, at most |Aut| rows a batch."""
        parent, alphas = np.nonzero(cands.T)
        for lo in range(0, parent.size, ag.size):
            at, alpha = parent[lo:lo + ag.size], alphas[lo:lo + ag.size]
            batch = rows[at]
            batch[np.arange(at.size), xs[at]] = alpha
            yield batch, np.column_stack([gens[at], xs[at]])

    root = np.full((1, spec.n), -1, dtype=np.int32)
    root[0, spec.identity_idx] = ag.identity_idx
    x = spec.idx(GroupElement(1, 0))
    alphas = np.flatnonzero(fpf[:, x])
    stab = np.flatnonzero(aperm[:, x] == x)
    cands = np.zeros((ag.size, 1), dtype=bool)  # the least of each Stab(a)-orbit
    cands[comp[comp[ag.ainv[stab][:, None], alphas], stab[:, None]].min(axis=0)] = True
    if cands.sum() == alphas.size:  # Stab(a) merges nothing
        x = int(np.argmax(root[0] < 0))
        cands = fpf[:, [x]]
    batches = children(root, np.empty((1, 0), dtype=np.int32), np.array([x], dtype=np.int32), cands)
    found = []
    while True:
        rows, gens = [], []
        for batch, batch_gens in batches:
            alive = _propagate(mt, aperm, comp, batch, batch_gens)
            full = alive & (batch >= 0).all(axis=1)
            found.append(batch[full])
            rows.append(batch[alive & ~full])
            gens.append(batch_gens[alive & ~full])
        rows = np.concatenate(rows)
        if not len(rows):
            break
        xs = np.argmax(rows < 0, axis=1).astype(np.int32)
        batches = children(rows, np.concatenate(gens), xs, fpf[:, xs])
    parts = [gamma_set(np.concatenate(found))]  # each round's new tables
    keys = [_row_keys(parts[0])]
    while len(parts[-1]):
        missing = []
        for beta in ag.generators():
            image = conjugate_gamma(spec, parts[-1], beta)
            for part_keys in keys:
                image = image[_lookup(part_keys, image) < 0]
            missing.append(image)
        parts.append(gamma_set(np.concatenate(missing)))
        keys.append(_row_keys(parts[-1]))
    return EnumerationResult(spec, "gfe-search", gamma_set(np.concatenate(parts)))


# -- route 3: holomorph closure oracle ----------------------------------------


def closure_oracle(spec: GroupSpec,
                   max_hol_order: int = holomorph.DEFAULT_MAX_HOL_ORDER) -> EnumerationResult:
    """Braces read off the exhaustive regular-subgroup closure search.

    Never consults the other routes: ``run_routes`` runs it last, and its
    callers compare it with the first route that ran.
    """
    regular = holomorph.closure_search_regular(spec, max_hol_order=max_hol_order)
    return EnumerationResult(spec, "closure-oracle",
                             gamma_set([gamma_from_regular(spec, members) for members in regular]))


# -- orbits under conjugation -------------------------------------------------


def aut_orbits(result: EnumerationResult) -> list[Orbit]:
    """The conjugation-orbit partition of a complete enumeration, as
    ``EnumerationResult.partition`` built it; raises when conjugation left
    the set.  Orbit ids follow the canonical order of each orbit's least
    gamma table.
    """
    if result.orbits is None:
        raise MethodDisagreementError("conjugation left the enumerated set; "
                                      "the enumeration cannot be complete")
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
            if not np.array_equal(result.gammas, base.gammas):
                raise MethodDisagreementError(
                    f"{base.method} and {result.method} disagree on {spec}: "
                    f"{len(base.gammas)} vs {len(result.gammas)} braces"
                )
        aut_orbits(base)
        out[family] = base
    return out
