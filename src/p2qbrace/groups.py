"""Concrete groups of order p^2 q (cyclic Sylow p case) and of order pq.

Every supported group is metacyclic on two generators a, b with b
generating a normal cyclic subgroup:

    a^c_mod = b^n_mod = 1,      a^-1 b a = b^t,

and every element is kept in the normal form a^v b^u.  Elements are
indexed lexicographically by (v, u); that single canonical order fixes
the layout of Cayley tables, automorphism permutations, gamma tables and
JSON exports, so identical inputs always produce identical bytes.

Families and their presentations:

    P2Q-Type1      C_{p^2} x C_q           a order p^2, b order q, t = 1
    P2Q-Type2      C_{p^2} acting on C_q   a order p^2, b order q, ord(t mod q) = p
    P2Q-Type3      C_{p^2} acting on C_q   a order p^2, b order q, ord(t mod q) = p^2
    P2Q-Type4      C_q acting on C_{p^2}   a order q,   b order p^2, ord(t mod p^2) = q
    PQ-Cyclic      C_p x C_q   (p > q)     a order q,   b order p, t = 1
    PQ-Metacyclic  C_q acting on C_p       a order q,   b order p, ord(t mod p) = q

Automorphism groups are found by exhaustive generator-image search and
validated against the known closed-form sizes; they are never assumed.
The search is vectorised over the Cayley table: every pair of candidate
images is filtered by the defining relations at once, and the survivors
become permutation rows by one gather.  By von Dyck's theorem each row
is a homomorphism, so a row is an automorphism exactly when its kernel
is trivial.  Pairs are enumerated in (image of a, image of b) order, so
Aut(G) comes out as one sorted matrix of permutation rows, and an
automorphism is a row index into it.

Every power table, of an element or of an automorphism, comes from
``powers``, which gathers through ``mul_table`` or ``AutGroup.comp``.
Derived tables are cached properties, built on first read, except
Aut(G)'s fixed-point-free table: the search and the oracle both prune
with it, and it is built by one scatter on each read and kept by its
reader only.  ``mul_table`` and ``comp`` are filled in row blocks, which
keeps their temporaries small next to the result.  ``_generating_set``
walks a table to its least-index greedy generating set, and rejects one
needing more than floor(log2 n) generators; a group's associativity and
isomorphism type are read on those generators alone.  ``comp`` is filled
along the same walk over Aut(G), so its picks are ``AutGroup.generators``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import NamedTuple

import numpy as np

from . import arith

P2Q_FAMILIES = ("P2Q-Type1", "P2Q-Type2", "P2Q-Type3", "P2Q-Type4")
PQ_FAMILIES = ("PQ-Cyclic", "PQ-Metacyclic")
FAMILIES = P2Q_FAMILIES + PQ_FAMILIES


class AutSizeMismatchError(RuntimeError):
    """The searched automorphism group disagrees with the predicted size,
    or it is not closed under composition."""


class AutTooLargeError(RuntimeError):
    """The group's dense tables would exceed ``AUT_TABLE_MAX_BYTES``."""


# Bound on the predicted bytes of the largest dense int32 table: ``comp``
# (|Aut| x |Aut|), ``aperm`` (|Aut| x |G|) or a |G| x |G| table.
AUT_TABLE_MAX_BYTES = 1 << 28

# entries of ``comp`` filled per row block, which bounds the temporaries
_COMP_BLOCK_ENTRIES = 1 << 16


def powers(table: np.ndarray, x, k: int, one: int) -> np.ndarray:
    """x^0, ..., x^(k-1) along a new last axis, for a scalar x or each x
    of an array.

    ``table`` is a group law on indices with identity ``one``:
    ``mul_table`` with one = 0, or ``AutGroup.comp`` with one =
    ``identity_idx``.  Each gather doubles the powers known so far.
    """
    x = np.asarray(x)
    out = np.empty(x.shape + (k,), dtype=table.dtype)
    out[..., :1] = one
    m = 1
    while m < k:
        step = table[out[..., m - 1], x][..., None]  # x^m
        w = min(m, k - m)
        out[..., m:m + w] = table[out[..., :w], step]
        m += w
    return out


class GroupElement(NamedTuple):
    v: int  # exponent of a
    u: int  # exponent of b


class GroupSpec:
    """A concrete group in normal form, with cached index tables.

    Treat instances as immutable; the cached numpy tables are shared and
    must not be written to.
    """

    def __init__(self, family: str, p: int, q: int, n_mod: int, c_mod: int, t: int,
                 aut_order: int):
        self.family = family
        self.p = p
        self.q = q
        self.n_mod = n_mod
        self.c_mod = c_mod
        self.t = t
        self.aut_order = aut_order  # |Aut(G)|, which ``aut_group`` checks its search against
        self.n = n_mod * c_mod
        # t^v mod n_mod for v in [0, c_mod)
        self.t_pow = tuple(pow(t, v, n_mod) for v in range(c_mod))

    # -- element indexing ------------------------------------------------

    def idx(self, el: GroupElement) -> int:
        return el[0] * self.n_mod + el[1]

    def el(self, i: int) -> GroupElement:
        v, u = divmod(i, self.n_mod)
        return GroupElement(v, u)

    @property
    def identity_idx(self) -> int:
        return 0

    # -- cached index tables ------------------------------------------------

    @cached_property
    def mul_table(self) -> np.ndarray:
        c, nm = self.c_mod, self.n_mod
        v2, u2 = np.divmod(np.arange(self.n, dtype=np.int32), nm)
        # a^v1 b^u1 * a^v2 b^u2 = a^(v1+v2) b^(u1 t^v2 + u2): the b-part
        # is the same for every v1, and each block of rows adds its a-part
        tp = np.array(self.t_pow, dtype=np.int32)
        b_part = np.arange(nm, dtype=np.int32)[:, None] * tp[v2]
        b_part += u2
        b_part %= nm
        table = np.empty((self.n, self.n), dtype=np.int32)
        for v1 in range(c):
            np.add(b_part, (v1 + v2) % c * nm, out=table[v1 * nm:(v1 + 1) * nm])
        return table

    @cached_property
    def inv_table(self) -> np.ndarray:
        # (a^v b^u)^-1 = a^w b^(-u t^w) with w = -v mod c_mod
        v, u = np.divmod(np.arange(self.n, dtype=np.int64), self.n_mod)
        w = -v % self.c_mod
        return (w * self.n_mod + (-u * np.array(self.t_pow)[w]) % self.n_mod).astype(np.int32)

    @cached_property
    def orders(self) -> np.ndarray:
        return _element_orders(self.mul_table, 0)

    def cyclic_subgroup(self, gen_idx: int) -> tuple[int, ...]:
        """Element indices of <gen>, sorted."""
        members = powers(self.mul_table, gen_idx, int(self.orders[gen_idx]), 0)
        return tuple(sorted(members.tolist()))

    def sylow_subgroups(self, order: int) -> list[tuple[int, tuple[int, ...]]]:
        """All cyclic subgroups of the given prime-power order.

        Returns (canonical generator index, sorted member indices) pairs,
        ordered by generator index.  Every Sylow subgroup in scope is
        cyclic, so generator search is exhaustive.  Each subgroup's members
        are struck off once it is found, so the next element of the order
        not yet covered is the least generator of a new one.
        """
        covered = np.zeros(self.n, dtype=bool)
        found = []
        for g in np.flatnonzero(self.orders == order).tolist():
            if not covered[g]:
                members = self.cyclic_subgroup(g)
                covered[list(members)] = True
                found.append((g, members))
        return found

    # -- misc ------------------------------------------------------------

    def to_json_dict(self) -> dict:
        """The "group" object of the JSON records and summaries."""
        return {"family": self.family, "p": self.p, "q": self.q, "t": self.t}

    def __repr__(self) -> str:
        return f"GroupSpec({self.family}, p={self.p}, q={self.q}, t={self.t})"

    def _key(self) -> tuple:
        return self.family, self.p, self.q, self.n_mod, self.c_mod, self.t, self.aut_order

    def __eq__(self, other) -> bool:
        return isinstance(other, GroupSpec) and self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())


@lru_cache(maxsize=None)
def make_group(family: str, p: int, q: int) -> GroupSpec:
    """Build the canonical group of the given family.

    The action exponent t is always the canonical (smallest) choice, so
    two calls with equal arguments give identical groups.
    """
    if family not in FAMILIES:
        raise ValueError(f"unknown family {family!r}; expected one of {FAMILIES}")
    if family in P2Q_FAMILIES:
        profile = arith.divisibility_profile(p, q)
        ftype = int(family[-1])
        if ftype not in profile.g_types:
            raise ValueError(
                f"{family} needs "
                + {
                    2: "p | q-1",
                    3: "p^2 | q-1",
                    4: "q | p-1",
                }.get(ftype, "no condition")
                + f", which fails for (p, q) = ({p}, {q})"
            )
        if ftype == 1:
            n_mod, c_mod, t = q, p * p, 1
        elif ftype == 2:
            n_mod, c_mod, t = q, p * p, arith.canonical_action_exponent(p, q)
        elif ftype == 3:
            n_mod, c_mod, t = q, p * p, arith.canonical_action_exponent(p * p, q)
        else:
            n_mod, c_mod, t = p * p, q, arith.canonical_action_exponent(q, p * p)
    else:  # order pq families, with p the larger prime
        if not (arith.is_prime(p) and arith.is_prime(q)):
            raise ValueError(f"p={p}, q={q} must both be prime")
        if p <= q:
            raise ValueError(f"order-pq families need p > q, got ({p}, {q})")
        if p * q > arith.MAX_GROUP_ORDER:
            raise ValueError(f"pq = {p * q} exceeds the supported bound")
        if family == "PQ-Cyclic":
            n_mod, c_mod, t = p, q, 1
        elif (p - 1) % q != 0:
            raise ValueError(f"PQ-Metacyclic needs q | p-1, which fails for ({p}, {q})")
        else:
            n_mod, c_mod, t = p, q, arith.canonical_action_exponent(q, p)
    # |Aut(G)| by the family's closed form
    aut = {
        "P2Q-Type1": p * (p - 1) * (q - 1),
        "P2Q-Type2": p * q * (q - 1),
        "P2Q-Type3": q * (q - 1),
        "P2Q-Type4": p * p * p * (p - 1),
        "PQ-Cyclic": (p - 1) * (q - 1),
        "PQ-Metacyclic": p * (p - 1),
    }[family]
    return GroupSpec(family, p, q, n_mod=n_mod, c_mod=c_mod, t=t, aut_order=aut)


# -- automorphisms ----------------------------------------------------------


class AutGroup:
    """The full automorphism group over the canonical element order.

    An automorphism is a row index k of ``aperm``, the only copy of its
    permutation.  Automorphisms act on the right: ``aperm[k, x]`` is the
    image of element x under automorphism k, and ``comp[i, j]`` is "apply
    i, then j".  The constructor takes the rows sorted by the image of a,
    then of b, which makes every downstream enumeration order-stable.
    Every derived table except ``fixed_point_free`` is a cached property.
    ``comp`` is filled along ``_generating_set``'s walk over Aut(G), and
    ``generators()`` returns that walk's picks, the least-index greedy
    generating set of ``comp``.

    A homomorphism is fixed by its images of the generators a and b, so
    automorphisms are looked up by that pair: one int32 table gives the
    index of the automorphism with a -> x and b -> y, or -1 if there is
    none.  ``comp``, ``ainv``, ``iota_map``, ``identity_idx`` and
    ``index_of_perm`` are array gathers through this lookup.  The table
    spans the distinct images of a and of b only, so it is no larger than
    the set of image pairs ``aut_group`` searched, where an |G| x |G|
    table would take 400 MB at |G| = 10^4.
    """

    def __init__(self, spec: GroupSpec, aperm: np.ndarray):
        self.spec = spec
        self.aperm = aperm
        self.size = len(aperm)
        self._gen_idx = (spec.idx(GroupElement(1, 0)), spec.idx(GroupElement(0, 1)))
        img_a, img_b = (self.aperm[:, g] for g in self._gen_idx)
        # rank of each element among the images of a (of b); every other
        # element gets -1, which selects the all-miss last row (column)
        self._rank_a, self._rank_b = (self._ranks(img, spec.n) for img in (img_a, img_b))
        self._lut = np.full(
            (self._rank_a.max() + 2, self._rank_b.max() + 2), -1, dtype=np.int32
        )
        self._lut[self._rank_a[img_a], self._rank_b[img_b]] = np.arange(
            self.size, dtype=np.int32
        )
        self.identity_idx = int(self._closed_lookup(*self._gen_idx, "the identity"))

    @staticmethod
    def _ranks(images: np.ndarray, n: int) -> np.ndarray:
        seen = np.zeros(n, dtype=bool)
        seen[images] = True
        rank = np.full(n, -1, dtype=np.int32)
        rank[seen] = np.arange(seen.sum(), dtype=np.int32)
        return rank

    def _lookup(self, img_a, img_b) -> np.ndarray:
        """Index of the automorphism with a -> img_a and b -> img_b, or -1."""
        return self._lut[self._rank_a[img_a], self._rank_b[img_b]]

    def _closed_lookup(self, img_a, img_b, what: str) -> np.ndarray:
        idx = self._lookup(img_a, img_b)
        if (idx < 0).any():
            spec = self.spec
            raise AutSizeMismatchError(
                f"aut-not-closed: {what} of {spec.family} (p={spec.p}, "
                f"q={spec.q}) is not among its {self.size} automorphisms"
            )
        return idx

    def index_of_perm(self, perm: np.ndarray) -> int:
        perm = np.asarray(perm)
        k = -1
        if perm.shape == (self.spec.n,):
            k = int(self._lookup(perm[self._gen_idx[0]], perm[self._gen_idx[1]]))
        if k < 0 or not np.array_equal(self.aperm[k], perm):
            raise KeyError("permutation is not an automorphism of this group")
        return k

    @cached_property
    def _walk(self) -> tuple[np.ndarray, list[int]]:
        """``comp`` and its picks: a pick g gets its row from one lookup, and
        a row reached as "h then g" is comp[h][comp[g]] by associativity."""
        m = self.size
        img_a, img_b = (self.aperm[:, g] for g in self._gen_idx)
        comp = np.empty((m, m), dtype=np.int32)
        comp[self.identity_idx] = np.arange(m, dtype=np.int32)
        reached = np.arange(m) == self.identity_idx
        rows = max(1, _COMP_BLOCK_ENTRIES // m)
        gens: list[int] = []
        while not reached.all():
            pick = int(np.argmin(reached))
            gens.append(pick)
            # "pick then j" sends a to aperm[j, img_a[pick]], and b likewise
            row_a, row_b = self.aperm[:, img_a[pick]], self.aperm[:, img_b[pick]]
            comp[pick] = self._closed_lookup(row_a, row_b, "a composite")
            frontier = np.flatnonzero(reached)
            while frontier.size:
                found = []
                for g in gens:
                    xs, first = np.unique(comp[frontier, g], return_index=True)
                    fresh = ~reached[xs]
                    xs, hs = xs[fresh], frontier[first[fresh]]
                    reached[xs] = True
                    for lo in range(0, xs.size, rows):
                        comp[xs[lo:lo + rows]] = np.take(comp[hs[lo:lo + rows]], comp[g], axis=1)
                    found.append(xs)
                frontier = np.concatenate(found)
        return comp, gens

    @cached_property
    def comp(self) -> np.ndarray:
        """comp[i, j] = index of the composite "i then j"."""
        return self._walk[0]

    @cached_property
    def ainv(self) -> np.ndarray:
        # the inverse of k sends each generator g to its preimage under k
        pre_a, pre_b = (np.argmax(self.aperm == g, axis=1) for g in self._gen_idx)
        return self._closed_lookup(pre_a, pre_b, "an inverse")

    @cached_property
    def iota_map(self) -> np.ndarray:
        """iota_map[g] = index of conjugation x -> g^-1 x g."""
        mt = self.spec.mul_table
        inv = self.spec.inv_table
        rng = np.arange(self.spec.n)
        conj_a, conj_b = (mt[mt[inv, g], rng] for g in self._gen_idx)
        return self._closed_lookup(conj_a, conj_b, "a conjugation")

    @cached_property
    def orders(self) -> np.ndarray:
        """orders[k] = the order of automorphism k."""
        return _element_orders(self.comp, self.identity_idx)

    def order_of(self, k: int) -> int:
        return int(self.orders[k])

    @property
    def fixed_point_free(self) -> np.ndarray:
        """fixed_point_free[alpha, g] is True when x -> x^alpha g moves every x."""
        spec = self.spec
        # (alpha, g) fixes x exactly when g = (x^alpha)^-1 x
        fixed = np.zeros((self.size, spec.n), dtype=bool)
        moved = spec.mul_table[spec.inv_table[self.aperm], np.arange(spec.n)]
        fixed[np.arange(self.size)[:, None], moved] = True
        return ~fixed

    def generators(self) -> list[int]:
        """The picks of ``comp``'s walk, ``_generating_set(comp, identity_idx)``."""
        return self._walk[1]


def _candidate_perms(spec: GroupSpec) -> np.ndarray:
    """Rows a^v b^u -> x^v y^u for every pair of images (x, y) with
    ord(x) = ord(a), ord(y) = ord(b) and x^-1 y x = y^t, in (x, y) order.

    The pair satisfies every defining relation of G, so by von Dyck's
    theorem its row is an endomorphism of G; the caller keeps the rows
    with trivial kernel.
    """
    mt, inv = spec.mul_table, spec.inv_table
    xs = np.flatnonzero(spec.orders == spec.c_mod)
    ys = np.flatnonzero(spec.orders == spec.n_mod)
    xpow = powers(mt, xs, spec.c_mod, 0)
    ypow = powers(mt, ys, spec.n_mod, 0)
    related = mt[mt[inv[xs][:, None], ys], xs[:, None]] == ypow[:, spec.t % spec.n_mod]
    ix, iy = np.nonzero(related)
    return mt[xpow[ix][:, :, None], ypow[iy][:, None, :]].reshape(ix.size, spec.n)


def check_aut_gate(spec: GroupSpec) -> None:
    """Raise AutTooLargeError if the group's dense tables would be too large.

    The prediction needs only |G| and the closed-form |Aut|, so it runs
    before any search.  ``comp`` (|Aut| x |Aut|), ``aperm`` (|Aut| x |G|)
    and ``mul_table`` (|G| x |G|; records build no such table) are int32
    tables; the largest takes at most 4 max(|Aut|, |G|)^2 bytes.
    """
    if spec.n > arith.MAX_GROUP_ORDER:
        raise ValueError(f"|G| = {spec.n} exceeds the supported bound")
    m = spec.aut_order
    predicted = 4 * max(m, spec.n) ** 2
    if predicted > AUT_TABLE_MAX_BYTES:
        raise AutTooLargeError(
            f"aut-too-large: |Aut| = {m} and |G| = {spec.n} need {predicted} "
            f"bytes of tables, over the limit {AUT_TABLE_MAX_BYTES}"
        )


@lru_cache(maxsize=None)
def aut_group(spec: GroupSpec) -> AutGroup:
    """Compute Aut(G) by exhaustive generator-image search, vectorised.

    The candidate images of a and b are the elements of their orders.
    All pairs are filtered at once by the defining relation
    a^-1 b a = b^t, and each surviving pair is expanded to a full row
    a^v b^u -> x^v y^u by one gather through the multiplication table.
    The pairs are enumerated in (image of a, image of b) order, so the
    rows come out sorted without a sort.

    Each surviving pair (x, y) satisfies every relation of
    <a, b | a^c_mod, b^n_mod, a^-1 b a = b^t>, so by von Dyck's theorem
    its row is a homomorphism G -> G.  A homomorphism is injective
    exactly when its kernel is trivial, so a row is an automorphism
    exactly when only the identity (index 0) maps to the identity.  In
    all six families c_mod and n_mod are coprime, so <x> and <y> meet
    trivially and every candidate row is kept; hand-built presentations
    that are not coprime, such as C3 x C6, are filtered by the same test.
    The result size is checked against ``spec.aut_order`` and a mismatch
    is a hard error.

    Under g o k = g^gamma(k) k, every row being a homomorphism is the
    brace law (g h) o k = (g o k) k^-1 (h o k) for every gamma function
    on G, so no brace re-checks it.

    ``check_aut_gate`` runs before any search.
    """
    check_aut_gate(spec)
    perms = _candidate_perms(spec)
    aperm = perms[(perms[:, 1:] != 0).all(axis=1)]  # trivial kernel
    del perms
    if len(aperm) != spec.aut_order:
        raise AutSizeMismatchError(
            f"aut-size-mismatch: found {len(aperm)} automorphisms of "
            f"{spec.family} (p={spec.p}, q={spec.q}), expected {spec.aut_order}"
        )
    return AutGroup(spec, aperm)


def psi_for_A(spec: GroupSpec, a_gen: GroupElement) -> int:
    """Index of the distinguished order-p automorphism tied to a Sylow complement.

    For P2Q-Type4, the map fixing a_gen (a generator of a Sylow
    q-subgroup) with b -> b^(1+p).  For P2Q-Type2, the map fixing b with
    a_gen -> a_gen^(1+p) where a_gen generates a Sylow p-subgroup.
    """
    ag = aut_group(spec)
    p = spec.p
    b_idx = spec.idx(GroupElement(0, 1))
    a_idx = spec.idx(a_gen)
    if spec.family == "P2Q-Type4":
        if spec.orders[a_idx] != spec.q:
            raise ValueError("a_gen must generate a Sylow q-subgroup (order q)")
        want_a, want_b = a_idx, spec.idx(GroupElement(0, (1 + p) % spec.n_mod))
    elif spec.family == "P2Q-Type2":
        if spec.orders[a_idx] != p * p:
            raise ValueError("a_gen must generate a Sylow p-subgroup (order p^2)")
        want_a, want_b = int(powers(spec.mul_table, a_idx, p + 2, 0)[p + 1]), b_idx
    else:
        raise ValueError(f"psi_for_A applies to P2Q-Type2/P2Q-Type4, not {spec.family}")
    matches = np.flatnonzero(
        (ag.aperm[:, a_idx] == want_a) & (ag.aperm[:, b_idx] == want_b)
    )
    if len(matches) != 1:
        raise AutSizeMismatchError(
            f"expected exactly one matching automorphism, found {len(matches)}"
        )
    return int(matches[0])


# -- isomorphism-type fingerprinting ----------------------------------------


@dataclass(frozen=True)
class Fingerprint:
    n: int
    p: int
    q: int
    abelian: bool
    cyclic: bool
    has_p2_element: bool
    center_size: int
    sylow_p_normal: bool
    sylow_q_normal: bool


@dataclass(frozen=True)
class IsoResult:
    iso_type: str
    fingerprint: Fingerprint


def _prime_factors(n: int) -> dict[int, int]:
    """{prime: exponent} for n, by trial division."""
    factors: dict[int, int] = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            factors[d] = factors.get(d, 0) + 1
            n //= d
        d += 1
    if n > 1:
        factors[n] = 1
    return factors


def _recognize_order(n: int) -> tuple[int, int, bool]:
    """Split n as p^2 q (returns (p, q, True)) or pq with p > q ((p, q, False))."""
    factors = _prime_factors(n)
    if sorted(factors.values()) == [1, 2]:
        p = next(r for r, e in factors.items() if e == 2)
        q = next(r for r, e in factors.items() if e == 1)
        return p, q, True
    if sorted(factors.values()) == [1, 1]:
        p, q = sorted(factors, reverse=True)
        return p, q, False
    raise ValueError(f"order {n} is not p^2 q or pq for distinct primes")


def _generating_set(table: np.ndarray, identity: int) -> list[int]:
    """Least-index greedy generating set: each pick is the least element not
    yet reached, then the reached set is closed under right multiplication
    by the picks.  A group needs at most floor(log2 n) picks, since each at
    least doubles that set; a table needing more raises ValueError."""
    n = len(table)
    reached = np.zeros(n, dtype=bool)
    reached[identity] = True
    gens: list[int] = []
    while not reached.all():
        if len(gens) == n.bit_length() - 1:
            raise ValueError("table is not associative")
        gens.append(int(np.argmin(reached)))
        frontier = np.flatnonzero(reached)
        while frontier.size:
            step = np.zeros(n, dtype=bool)
            step[table[frontier[:, None], gens]] = True
            frontier = np.flatnonzero(step & ~reached)
            reached |= step
    return gens


def _validate_group_table(table: np.ndarray) -> int:
    """Full group-axiom check; returns the identity index.  Associativity
    is Light's test: (x y) g = x (y g) for g in ``_generating_set`` only."""
    n = table.shape[0]
    if table.shape != (n, n) or table.min() < 0 or table.max() >= n:
        raise ValueError("malformed Cayley table")
    ident = None
    rng = np.arange(n)
    for e in range(n):
        if np.array_equal(table[e], rng) and np.array_equal(table[:, e], rng):
            ident = e
            break
    if ident is None:
        raise ValueError("table has no two-sided identity")
    if not ((table == ident).sum(axis=1) == 1).all():
        raise ValueError("table has an element without a two-sided inverse")
    for g in _generating_set(table, ident):
        if not np.array_equal(table[:, g][table], table[:, table[:, g]]):
            raise ValueError("table is not associative")
    return ident


def classify_iso_type(table) -> IsoResult:
    """Fingerprint a group and name its isomorphism class.

    ``table`` is a Cayley table, validated in full, or a group law with
    identity 0 that carries its ``generators`` (``brace.CircleLaw``).
    The centre is the elements commuting with every generator.  Order
    p^2 q (p odd) maps onto Type1..Type4 when the Sylow p-subgroup is
    cyclic, order pq onto the pq families, anything else to "Other".
    """
    n = len(table)
    p, q, is_p2q = _recognize_order(n)
    ident, gens = 0, getattr(table, "generators", None)
    if gens is None:  # a Cayley table
        table = np.asarray(table, dtype=np.int32)
        ident = _validate_group_table(table)
        gens = _generating_set(table, ident)

    orders = _element_orders(table, ident)
    s, x = np.asarray(gens), np.arange(n)[:, None]
    central = (table[x, s] == table[s, x]).all(axis=1)
    abelian = bool(central[s].all())
    cyclic = bool((orders == n).any())
    has_p2 = bool((orders == p * p).any()) if is_p2q else True
    center_size = int(central.sum())
    p_part = p * p if is_p2q else p
    num_p_elements = int((p_part % orders == 0).sum())
    num_q_elements = int(((orders == 1) | (orders == q)).sum())
    sylow_p_normal = num_p_elements == p_part
    sylow_q_normal = num_q_elements == q
    fp = Fingerprint(
        n=n, p=p, q=q, abelian=abelian, cyclic=cyclic, has_p2_element=has_p2,
        center_size=center_size, sylow_p_normal=sylow_p_normal,
        sylow_q_normal=sylow_q_normal,
    )
    return IsoResult(iso_type=_name_fingerprint(fp, is_p2q), fingerprint=fp)


def _element_orders(table: np.ndarray, ident: int) -> np.ndarray:
    """Every element's order, one prime at a time: for each prime power
    r^a exactly dividing n = |table|, y = x^(n / r^a) is the r-part of x,
    and its order is r^j, where j counts the powers y, y^r, ...,
    y^(r^(a-1)) that are not the identity; y^(r^a) = x^n must be.  Each
    power is a square-and-multiply walk of gathers, with one exponent
    for all elements."""
    n = len(table)

    def power(x: np.ndarray, e: int) -> np.ndarray:
        out = x
        for bit in bin(e)[3:]:  # the bits of e after the leading one
            out = table[out, out]
            if bit == "1":
                out = table[out, x]
        return out

    orders = np.ones(n, dtype=np.int32)
    for r, a in _prime_factors(n).items():
        y = power(np.arange(n), n // r ** a)
        j = np.zeros(n, dtype=np.int32)
        for _ in range(a):
            j += y != ident
            y = power(y, r)
        if (y != ident).any():
            raise ValueError("table rows do not close; not a group table")
        orders *= r ** j
    return orders


def _name_fingerprint(fp: Fingerprint, is_p2q: bool) -> str:
    if not is_p2q:
        if fp.abelian:
            return "PQ-Cyclic"
        if fp.center_size == 1 and fp.sylow_p_normal:
            return "PQ-Metacyclic"
        return "Other"
    if fp.p == 2:
        return "Other"
    if fp.abelian:
        return "Type1" if fp.cyclic else "Other"
    if not fp.has_p2_element:
        return "Other"
    if fp.center_size == fp.p:
        return "Type2"
    if fp.center_size == 1 and fp.sylow_q_normal:
        return "Type3"
    if fp.center_size == 1 and fp.sylow_p_normal:
        return "Type4"
    return "Other"


# -- Cayley table JSON interchange -------------------------------------------


def cayley_from_json(text: str) -> np.ndarray:
    try:
        data = json.loads(text)
    except RecursionError:
        raise ValueError("JSON nests too deeply") from None
    if not isinstance(data, dict) or "n" not in data or "table" not in data:
        raise ValueError('expected an object {"n": ..., "table": [[...]]}')
    n = data["n"]
    if not isinstance(n, int) or isinstance(n, bool):
        raise ValueError(f"n must be an integer, got {n!r}")
    table = np.asarray(data["table"])
    if table.shape != (n, n):
        raise ValueError(f"table shape {table.shape} does not match n={n}")
    if table.dtype.kind not in "iu" or table.min() < 0 or table.max() >= n:
        raise ValueError(f"table entries must be integers in 0..{n - 1}")
    return table.astype(np.int32)
