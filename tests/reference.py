"""Reference constructions that only the tests use.

The translations, the inversion conjugation and the regularity check give
the tests independent ways to name regular subgroups, and
``brute_force_regular`` is the closure search with no pruning at all,
which the tests compare ``closure_search_regular`` against.
``scalar_semiregular`` is ``Holomorph.semiregular_orders`` written as a
walk over each element's powers one at a time.
``subgroup_view`` turns the flat member indices that search returns into
holomorph elements and their sorted pair key.  ``search_candidates`` is
the search's candidate filter written as a plain loop.
``all_pairs_propagate`` is the search's propagation as it was before it
closed a branch under its decided elements only: every round checks
each pair with a freshly assigned member.  ``all_pairs_search`` is the
search's DFS driven by it, one candidate at a time.
``sylow_subgroups_by_elements`` is ``GroupSpec.sylow_subgroups`` as it
walked every element of the order, one cyclic subgroup each, before it
struck off each found subgroup's members.  ``orbit_walk`` is the
conjugation-orbit partition as records once found it: a breadth-first
walk on tuples from each least unreached table, conjugating one table
by one generator at a time with plain list lookups.
``element_orders_by_steps`` finds every element's order by stepping all
powers one exponent at a time, the O(n · exp(G)) walk that
``groups._element_orders`` replaced.  ``all_pairs_classify`` is
``groups.classify_iso_type`` as it read a whole table before it asked
only the generators: abelian and the centre from ``table == table.T``.
``comp_by_lookup`` is ``AutGroup.comp`` as it was built before it was
filled along the generator walk: one generator-image lookup per entry,
in column blocks.

``es`` is the partial geometric sum

    es(k) = 1 + s + s**2 + ... + s**(k-1)  (mod m),

which converts between ordinary powers and twisted powers of a cyclic
generator.  When s = 1 (mod p) and m = p**n the values es(0), ...,
es(p**n - 1) sweep out every residue class exactly once.  ``es_table``
and ``fs`` invert it, and ``rgf_by_partial_sums`` is one row of
``brace.rgf_from_generator``'s batch written with it: the twist exponent
s with a^eta = a^s, then gamma(a^es(k)) = eta^k.  It returns an ``RGF``,
one relative gamma function as its sorted domain and a dict of values,
a form only the tests keep; ``rgf_rows`` turns each row of a batch into
one.

The pointwise circle operation and its closed-form inverse, the morphism
tests, the inversion gamma function and ``nu_subgroup`` give the tests
independent views of one gamma function.  ``elements`` and ``identity``
name a group's elements as ``GroupElement`` pairs.  ``mul``,
``inv_elem``, ``power`` and ``elem_order`` are the scalar group law on
those pairs, read off the presentation and not off ``mul_table``.
``scalar_aut_perms`` is the automorphism search written with that law,
one generator-image pair at a time.  ``homomorphism_failure`` proves
every row of Aut(G) a homomorphism, the property ``aut_group`` takes
from von Dyck's theorem.  ``check_rgf_gfe`` checks the
functional equation of a relative gamma function pair by pair, and
``scalar_lift`` is one row of ``brace.lift_rgf``'s batch written as a
loop over the pairs (a, b).  ``is_associative`` checks (x y) z = x (y z) one row of x at a
time, over every triple.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Iterable, NamedTuple

import numpy as np

from p2qbrace import arith, counts
from p2qbrace.brace import (
    GammaFunction,
    GfeError,
    LiftPreconditionError,
    NotInvariantError,
    OrderTooBigError,
)
from p2qbrace.groups import (Fingerprint, GroupElement, GroupSpec, IsoResult, _name_fingerprint,
                             _recognize_order, aut_group, powers)
from p2qbrace.holomorph import Holomorph, holo


def smallest_prime_factor(n: int) -> int:
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    d = 2
    while d * d <= n:
        if n % d == 0:
            return d
        d += 1
    return n


def es(k: int, s: int, m: int) -> int:
    """Partial geometric sum 1 + s + ... + s**(k-1) reduced mod m; es(0) = 0."""
    arith._check_modulus(m)
    if k < 0:
        raise ValueError(f"k must be nonnegative, got {k}")
    total = 0
    power = 1
    s = s % m
    for _ in range(k):
        total = (total + power) % m
        power = power * s % m
    return total


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
    values = tuple(es(k, s, m) for k in range(m))
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


@dataclass(frozen=True)
class RGF:
    """A gamma function defined only on a cyclic subgroup A = <a>.

    ``domain`` holds the member indices of A sorted, ``values`` the
    automorphism index for each of them.
    """

    spec: GroupSpec
    domain: tuple[int, ...]
    values: dict[int, int] = field(hash=False)

    def domain_set(self) -> frozenset[int]:
        return frozenset(self.domain)


def rgf_rows(spec: GroupSpec, circle_pows: np.ndarray, eta_pows: np.ndarray) -> list[RGF]:
    """One ``RGF`` per row of a ``brace.rgf_from_generator`` batch."""
    return [RGF(spec, tuple(sorted(cp)), dict(zip(cp, ep)))
            for cp, ep in zip(circle_pows.tolist(), eta_pows.tolist())]


def rgf_by_partial_sums(spec: GroupSpec, a_gen: GroupElement, eta_idx: int) -> RGF:
    """``brace.rgf_from_generator`` through the partial-sum table of the
    twist exponent s defined by a^eta = a^s: gamma(a^es(k)) = eta^k, with
    the same preconditions, messages and sweep guard."""
    ag = aut_group(spec)
    a_idx = spec.idx(a_gen)
    d = int(spec.orders[a_idx])
    a_pows = powers(spec.mul_table, a_idx, d, 0)
    hits = np.flatnonzero(a_pows == ag.aperm[eta_idx, a_idx])
    if hits.size == 0:
        raise NotInvariantError(
            "not-invariant: the subgroup <a> is not invariant under the proposed image"
        )
    if d % ag.order_of(eta_idx) != 0:
        raise OrderTooBigError(
            f"order-too-big: ord(eta) = {ag.order_of(eta_idx)} does not divide |<a>| = {d}"
        )
    s = int(hits[0])
    es_vals = [es(k, s, d) for k in range(d)]
    eta_pows = powers(ag.comp, eta_idx, d, ag.identity_idx)
    values = dict(zip(a_pows[es_vals].tolist(), eta_pows.tolist()))
    if len(values) != d:
        # unreachable for the orders in scope; guards against misuse
        raise OrderTooBigError("order-too-big: twisted powers do not sweep out <a>")
    return RGF(spec=spec, domain=tuple(sorted(values)), values=values)


def mod_pow(base: int, exp: int, m: int) -> int:
    """base**exp reduced into [0, m)."""
    arith._check_modulus(m)
    if exp < 0:
        raise ValueError(f"exponent must be nonnegative, got {exp}")
    return pow(base, exp, m)


def totals(p: int, q: int, gamma_type: int) -> int:
    return counts.count_table(p, q).total_for(gamma_type)


def iota(spec: GroupSpec, g: GroupElement) -> int:
    """Index in Aut(G) of the inner automorphism x -> g^-1 x g."""
    return int(aut_group(spec).iota_map[spec.idx(g)])


def elements(spec: GroupSpec) -> list[GroupElement]:
    return [spec.el(i) for i in range(spec.n)]


def identity(spec: GroupSpec) -> GroupElement:
    return GroupElement(0, 0)


def mul(spec: GroupSpec, x: GroupElement, y: GroupElement) -> GroupElement:
    v1, u1 = x
    v2, u2 = y
    return GroupElement(
        (v1 + v2) % spec.c_mod,
        (u1 * spec.t_pow[v2 % spec.c_mod] + u2) % spec.n_mod,
    )


def inv_elem(spec: GroupSpec, x: GroupElement) -> GroupElement:
    v, u = x
    vi = (-v) % spec.c_mod
    # b-part conjugated back through a^-v
    return GroupElement(vi, (-u * spec.t_pow[vi]) % spec.n_mod)


def power(spec: GroupSpec, x: GroupElement, k: int) -> GroupElement:
    if k < 0:
        return power(spec, inv_elem(spec, x), -k)
    acc = identity(spec)
    for _ in range(k):
        acc = mul(spec, acc, x)
    return acc


def elem_order(spec: GroupSpec, x: GroupElement) -> int:
    k = 1
    acc = x
    while acc != identity(spec):
        acc = mul(spec, acc, x)
        k += 1
    return k


def is_associative(table: np.ndarray) -> bool:
    """(x y) z == x (y z) for all triples, one row of x at a time."""
    return all(np.array_equal(table[table[i], :], table[i][table]) for i in range(len(table)))


def scalar_aut_perms(spec: GroupSpec) -> np.ndarray:
    """Aut(G) as sorted permutation rows, found with the scalar group law:
    each pair of images of the generators' orders that satisfies the
    defining relation is expanded element by element and kept when
    bijective; rows are sorted by the image of a, then of b."""
    def power_list(x, k):
        out = [identity(spec)]
        for _ in range(k - 1):
            out.append(mul(spec, out[-1], x))
        return out

    a_pows = [power_list(x, spec.c_mod) for x in elements(spec)
              if elem_order(spec, x) == spec.c_mod]
    b_pows = [power_list(y, spec.n_mod) for y in elements(spec)
              if elem_order(spec, y) == spec.n_mod]
    perms = []
    for apow in a_pows:
        ia, ia_inv = apow[1], inv_elem(spec, apow[1])
        for bpow in b_pows:
            ib = bpow[1]
            if mul(spec, mul(spec, ia_inv, ib), ia) != power(spec, ib, spec.t):
                continue
            perm = [spec.idx(mul(spec, x, y)) for x in apow for y in bpow]
            if len(set(perm)) == spec.n:
                perms.append(perm)
    aperm = np.array(perms, dtype=np.int32).reshape(len(perms), spec.n)
    ga, gb = spec.idx(GroupElement(1, 0)), spec.idx(GroupElement(0, 1))
    return aperm[np.lexsort((aperm[:, gb], aperm[:, ga]))]


def homomorphism_failure(spec: GroupSpec, aperm: np.ndarray) -> tuple[int, int, int] | None:
    """The first (k, x, g) with alpha(x g) != alpha(x) alpha(g), where
    alpha is row k of ``aperm`` and g runs over the generators a, then b;
    None when every row is a homomorphism.

    Both generators suffice: alpha(x g) = alpha(x) alpha(g) for all x
    extends, by associativity, to every product of generators."""
    mt = spec.mul_table
    for g in (spec.idx(GroupElement(1, 0)), spec.idx(GroupElement(0, 1))):
        bad = aperm[:, mt[:, g]] != mt[aperm, aperm[:, [g]]]
        if bad.any():
            k, x = (int(i) for i in np.argwhere(bad)[0])
            return k, x, g
    return None


def check_rgf_gfe(rgf: RGF) -> None:
    """Raise GfeError unless the relative gamma function's domain is
    closed under the circle operation and satisfies the equation."""
    spec = rgf.spec
    ag = aut_group(spec)
    for g in rgf.domain:
        for h in rgf.domain:
            tgt = int(spec.mul_table[ag.aperm[rgf.values[h], g], h])
            if tgt not in rgf.values:
                raise GfeError("domain is not closed under the circle operation")
            if rgf.values[tgt] != int(ag.comp[rgf.values[g], rgf.values[h]]):
                raise GfeError(f"relative GFE fails at pair ({g}, {h})")


def scalar_lift(spec: GroupSpec, rgf: RGF, complement: Iterable[int]) -> GammaFunction:
    """gamma(a b) = gamma'(a) for a in the RGF's domain and b in the
    complement, filled in pair by pair, with the same preconditions and
    messages as ``brace.lift_rgf``."""
    ag = aut_group(spec)
    comp_set = sorted(set(int(c) for c in complement))
    for x in rgf.domain_set().intersection(comp_set):
        if rgf.values[x] != ag.identity_idx:
            raise LiftPreconditionError(
                "lift-precondition-failed: intersection of the factors is not "
                "killed by the relative gamma function"
            )
    comp_arr = np.fromiter(comp_set, dtype=np.int64)
    for a in rgf.domain:
        mover = int(ag.comp[rgf.values[a], ag.iota_map[a]])
        if not np.isin(ag.aperm[mover, comp_arr], comp_arr).all():
            raise LiftPreconditionError(
                "lift-precondition-failed: complement is not invariant under "
                "the twisted action of the subgroup"
            )
    table = [-1] * spec.n
    for a in rgf.domain:
        val = rgf.values[a]
        for b in comp_set:
            g = int(spec.mul_table[a, b])
            if table[g] == -1:
                table[g] = val
            elif table[g] != val:
                raise LiftPreconditionError(
                    "lift-precondition-failed: factorization is ambiguous"
                )
    if any(v == -1 for v in table):
        raise LiftPreconditionError(
            "lift-precondition-failed: the factors do not cover the group"
        )
    return GammaFunction(spec, tuple(table))


def all_pairs_propagate(mt: np.ndarray, aperm: np.ndarray, comp: np.ndarray,
                        gamma: np.ndarray, fresh: list[int]) -> bool:
    """Close a partial assignment under the functional equation, in place.

    Every pair (g, h) with g or h freshly assigned forces
    gamma[g^gamma(h) h] = gamma(g) gamma(h); returns False on a conflict.
    Each round visits every such pair once: (fresh, assigned), then
    (assigned earlier, fresh).
    """
    fr = np.asarray(fresh, dtype=np.int64)
    while fr.size:
        assigned = np.flatnonzero(gamma >= 0)
        is_fresh = np.zeros(gamma.size, dtype=bool)
        is_fresh[fr] = True
        collected: list[np.ndarray] = []
        for gs, hs in ((fr, assigned), (assigned[~is_fresh[assigned]], fr)):
            gamma_h = gamma[hs]
            targets = mt[aperm[gamma_h[None, :], gs[:, None]], hs[None, :]].ravel()
            values = comp[gamma[gs][:, None], gamma_h[None, :]].ravel()
            current = gamma[targets]
            if ((current >= 0) & (current != values)).any():
                return False
            unset = current < 0
            if unset.any():
                targets, values = targets[unset], values[unset]
                gamma[targets] = values
                if not (gamma[targets] == values).all():
                    return False
                collected.append(targets)
        if not collected:
            return True
        fr = np.unique(np.concatenate(collected))
    return True


def all_pairs_search(spec: GroupSpec) -> list[tuple[int, ...]]:
    """The search's gamma tables in the order its DFS finds them, with
    every candidate of the least unassigned element closed by
    ``all_pairs_propagate`` on its own."""
    ag = aut_group(spec)
    mt, aperm, comp, fpf = spec.mul_table, ag.aperm, ag.comp, ag.fixed_point_free
    found: list[tuple[int, ...]] = []

    def dfs(gamma: np.ndarray) -> None:
        unassigned = np.flatnonzero(gamma < 0)
        if unassigned.size == 0:
            found.append(tuple(gamma.tolist()))
            return
        x = int(unassigned[0])
        for alpha in np.flatnonzero(fpf[:, x]).tolist():
            branch = gamma.copy()
            branch[x] = alpha
            if all_pairs_propagate(mt, aperm, comp, branch, [x]):
                dfs(branch)

    root = np.full(spec.n, -1, dtype=np.int32)
    root[spec.identity_idx] = ag.identity_idx
    dfs(root)
    return found


def sylow_subgroups_by_elements(spec: GroupSpec, order: int) -> list[tuple[int, tuple[int, ...]]]:
    """(least generator, sorted members) of every cyclic subgroup of the
    order, by generator index: one ``cyclic_subgroup`` per element."""
    found: dict[tuple[int, ...], int] = {}
    for g in np.flatnonzero(spec.orders == order).tolist():
        members = spec.cyclic_subgroup(g)
        if members not in found:
            found[members] = g
    return sorted((gen, members) for members, gen in found.items())


def orbit_walk(spec: GroupSpec, tables) -> tuple[dict[tuple[int, ...], tuple[int, int]], bool]:
    """{table: (orbit id, orbit length)} for a set of gamma tables under
    conjugation by the generators of Aut(G), and whether every conjugate
    stayed in the set.  Each table not yet reached, in sorted order, leads
    a new orbit, walked breadth first; the conjugate of t by beta is
    g -> beta^-1 t(g^(beta^-1)) beta."""
    ag = aut_group(spec)
    comp, aperm = ag.comp.tolist(), ag.aperm.tolist()
    maps = []
    for beta in ag.generators():
        binv = int(ag.ainv[beta])
        maps.append(([comp[comp[binv][a]][beta] for a in range(ag.size)], aperm[binv]))
    keys = {tuple(t) for t in tables}
    found: dict[tuple[int, ...], tuple[int, int]] = {}
    closed, oid = True, 0
    for key in sorted(keys):
        if key in found:
            continue
        orbit, seen = [key], {key}
        for t in orbit:  # breadth first: the list grows while it is read
            for conj, moved in maps:
                image = tuple(conj[t[x]] for x in moved)
                if image not in keys:
                    closed = False
                elif image not in seen:
                    seen.add(image)
                    orbit.append(image)
        for t in orbit:
            found[t] = (oid, len(orbit))
        oid += 1
    return found, closed


def element_orders_by_steps(table: np.ndarray, ident: int) -> np.ndarray:
    """Every element's order, by stepping all powers one exponent at a time."""
    n = table.shape[0]
    rng = np.arange(n)
    orders = np.zeros(n, dtype=np.int32)
    cur = rng.copy()  # cur[x] = x^k
    for k in range(1, n + 1):
        orders[(cur == ident) & (orders == 0)] = k
        if orders.all():
            return orders
        cur = table[cur, rng]
    raise ValueError("table rows do not close; not a group table")


def comp_by_lookup(ag) -> np.ndarray:
    """comp[i, j] = index of "i then j", which sends a to aperm[j, img_a[i]]
    and b likewise, looked up by that image pair a block of columns at a
    time."""
    m = ag.size
    img_a, img_b = (ag.aperm[:, g] for g in ag._gen_idx)
    comp = np.empty((m, m), dtype=np.int32)
    cols = max(1, (1 << 16) // m)
    for lo in range(0, m, cols):
        block = ag.aperm[lo:lo + cols]
        comp[:, lo:lo + cols] = ag._closed_lookup(
            block[:, img_a], block[:, img_b], "a composite"
        ).T
    return comp


def all_pairs_classify(table: np.ndarray) -> IsoResult:
    """The isomorphism type and fingerprint of a group table with identity
    0, read off every pair: x is central when its row equals its column."""
    n = len(table)
    p, q, is_p2q = _recognize_order(n)
    orders = element_orders_by_steps(table, 0)
    sym = table == table.T
    p_part = p * p if is_p2q else p
    fp = Fingerprint(
        n=n, p=p, q=q, abelian=bool(sym.all()), cyclic=bool((orders == n).any()),
        has_p2_element=bool((orders == p * p).any()) if is_p2q else True,
        center_size=int(sym.all(axis=1).sum()),
        sylow_p_normal=int((p_part % orders == 0).sum()) == p_part,
        sylow_q_normal=int(((orders == 1) | (orders == q)).sum()) == q,
    )
    return IsoResult(iso_type=_name_fingerprint(fp, is_p2q), fingerprint=fp)


def search_candidates(spec: GroupSpec, x: int) -> set[int]:
    """Automorphisms alpha with y^alpha x != y for every y: the values
    gamma(x) can take when x is not the identity."""
    ag = aut_group(spec)
    keep = set(range(ag.size))
    for alpha in range(ag.size):
        for y in range(spec.n):
            image = spec.idx(mul(spec, spec.el(int(ag.aperm[alpha, y])), spec.el(x)))
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


class HolElement(NamedTuple):
    alpha: int  # automorphism index in the canonical AutGroup order
    g: int      # element index


def flatten(H: Holomorph, h: HolElement) -> int:
    return h.alpha * H.n + h.g


def unflatten(H: Holomorph, k: int) -> HolElement:
    alpha, g = divmod(int(k), H.n)
    return HolElement(alpha, g)


def subgroup_view(spec: GroupSpec, flat
                  ) -> tuple[frozenset[HolElement], tuple[tuple[int, int], ...]]:
    """The members of a subgroup given by flat indices, as holomorph
    elements, and its key: the (alpha, g) pairs in the array's order."""
    key = tuple(divmod(int(k), spec.n) for k in flat)
    return frozenset(HolElement(*pair) for pair in key), key


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
    mem = {flatten(H, m if isinstance(m, HolElement) else HolElement(*m)) for m in members}
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
            if members.size == spec.n and is_regular(spec, [unflatten(H, k) for k in members]):
                keys.add(tuple(divmod(int(k), spec.n) for k in members))
    return keys


def scalar_semiregular(H: Holomorph) -> np.ndarray:
    """order[k] is the order of k when no power of k but the identity fixes
    a point, else 0, read off each power's action on G, one power at a time."""
    xs = np.arange(H.n)
    order = np.zeros(H.size, dtype=np.int64)
    for k in range(H.size):
        power, step = k, 1
        while power != H.identity and (act(H, power, xs) != xs).all():
            power, step = int(H.mul(power, k)), step + 1
        order[k] = step if power == H.identity else 0
    return order


def inversion_gamma(spec: GroupSpec) -> GammaFunction:
    """The gamma function of the left-regular image: y -> iota(y^-1)."""
    ag = aut_group(spec)
    return GammaFunction(spec, ag.iota_map[spec.inv_table])


def circle(gamma: GammaFunction, g: GroupElement, h: GroupElement) -> GroupElement:
    """g o h = g^gamma(h) * h."""
    spec = gamma.spec
    ag = aut_group(spec)
    gi, hi = spec.idx(g), spec.idx(h)
    return spec.el(int(spec.mul_table[ag.aperm[gamma.row[hi], gi], hi]))


def circle_inverse(gamma: GammaFunction, a: GroupElement) -> GroupElement:
    """Inverse of a in (G, o), via the closed form a^(-gamma(a)^-1)."""
    spec = gamma.spec
    ag = aut_group(spec)
    ai = spec.idx(a)
    inv_aut = int(ag.ainv[gamma.row[ai]])
    return spec.el(int(ag.aperm[inv_aut, spec.inv_table[ai]]))


def nu_subgroup(gamma: GammaFunction) -> set[HolElement]:
    """The regular subgroup {(gamma(g), g) : g in G} of the holomorph."""
    return {HolElement(a, g) for g, a in enumerate(gamma.row.tolist())}


def is_morphism(gamma: GammaFunction) -> bool:
    """True when gamma(x y) = gamma(x) gamma(y) for all pairs."""
    spec = gamma.spec
    ag = aut_group(spec)
    gt = gamma.row
    lhs = gt[spec.mul_table]
    rhs = ag.comp[gt[:, None], gt[None, :]]
    return bool(np.array_equal(lhs, rhs))


def rgf_is_morphism(rgf: RGF) -> bool:
    spec = rgf.spec
    ag = aut_group(spec)
    dom = rgf.domain
    for x in dom:
        for y in dom:
            xy = int(spec.mul_table[x, y])
            if rgf.values[xy] != int(ag.comp[rgf.values[x], rgf.values[y]]):
                return False
    return True


def cayley_to_json(table: np.ndarray) -> str:
    table = np.asarray(table)
    return json.dumps({"n": int(table.shape[0]), "table": table.tolist()})
