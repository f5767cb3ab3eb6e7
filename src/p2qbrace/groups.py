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
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from . import arith

P2Q_FAMILIES = ("P2Q-Type1", "P2Q-Type2", "P2Q-Type3", "P2Q-Type4")
PQ_FAMILIES = ("PQ-Cyclic", "PQ-Metacyclic")
FAMILIES = P2Q_FAMILIES + PQ_FAMILIES

ISO_TYPES = ("Type1", "Type2", "Type3", "Type4", "PQ-Cyclic", "PQ-Metacyclic", "Other")


class AutSizeMismatchError(RuntimeError):
    """The searched automorphism group disagrees with the predicted size,
    one of its permutations is not a homomorphism, or it is not closed
    under composition."""


class AutTooLargeError(RuntimeError):
    """The group's dense tables would exceed ``AUT_TABLE_MAX_BYTES``."""


# Bound on the predicted bytes of the largest dense int32 table: ``comp``
# (|Aut| x |Aut|), ``aperm`` (|Aut| x |G|) or a |G| x |G| table.
AUT_TABLE_MAX_BYTES = 1 << 28

# entries of ``comp`` built per column block, which bounds the temporaries
_COMP_BLOCK_ENTRIES = 1 << 16


class GroupElement(NamedTuple):
    v: int  # exponent of a
    u: int  # exponent of b


class GroupSpec:
    """A concrete group in normal form, with cached index tables.

    Treat instances as immutable; the cached numpy tables are shared and
    must not be written to.
    """

    def __init__(self, family: str, p: int, q: int, n_mod: int, c_mod: int, t: int):
        self.family = family
        self.p = p
        self.q = q
        self.n_mod = n_mod
        self.c_mod = c_mod
        self.t = t
        self.n = n_mod * c_mod
        # t^v mod n_mod for v in [0, c_mod); ord(t) divides c_mod so this
        # table also serves negative exponents via c_mod - v.
        self.t_pow = tuple(pow(t, v, n_mod) for v in range(c_mod))
        self._mul_table: np.ndarray | None = None
        self._inv_table: np.ndarray | None = None
        self._orders: np.ndarray | None = None

    # -- element indexing ------------------------------------------------

    def idx(self, el: GroupElement) -> int:
        return el[0] * self.n_mod + el[1]

    def el(self, i: int) -> GroupElement:
        v, u = divmod(i, self.n_mod)
        return GroupElement(v, u)

    def elements(self) -> list[GroupElement]:
        return [self.el(i) for i in range(self.n)]

    @property
    def identity(self) -> GroupElement:
        return GroupElement(0, 0)

    @property
    def identity_idx(self) -> int:
        return 0

    # -- group law ---------------------------------------------------------

    def mul(self, x: GroupElement, y: GroupElement) -> GroupElement:
        v1, u1 = x
        v2, u2 = y
        return GroupElement(
            (v1 + v2) % self.c_mod,
            (u1 * self.t_pow[v2 % self.c_mod] + u2) % self.n_mod,
        )

    def inv_elem(self, x: GroupElement) -> GroupElement:
        v, u = x
        vi = (-v) % self.c_mod
        # b-part conjugated back through a^-v
        return GroupElement(vi, (-u * self.t_pow[vi]) % self.n_mod)

    def power(self, x: GroupElement, k: int) -> GroupElement:
        if k < 0:
            return self.power(self.inv_elem(x), -k)
        acc = self.identity
        for _ in range(k):
            acc = self.mul(acc, x)
        return acc

    def elem_order(self, x: GroupElement) -> int:
        k = 1
        acc = x
        while acc != self.identity:
            acc = self.mul(acc, x)
            k += 1
        return k

    # -- cached index tables ------------------------------------------------

    @property
    def mul_table(self) -> np.ndarray:
        if self._mul_table is None:
            c, nm = self.c_mod, self.n_mod
            v1, u1, v2, u2 = np.ix_(
                np.arange(c), np.arange(nm), np.arange(c), np.arange(nm)
            )
            tp = np.array(self.t_pow)
            v = (v1 + v2) % c
            u = (u1 * tp[v2] + u2) % nm
            self._mul_table = (v * nm + u).reshape(self.n, self.n).astype(np.int32)
        return self._mul_table

    @property
    def inv_table(self) -> np.ndarray:
        if self._inv_table is None:
            pos = np.argwhere(self.mul_table == 0)  # rows (x, x^-1), x sorted
            self._inv_table = pos[:, 1].astype(np.int32)
        return self._inv_table

    @property
    def orders(self) -> np.ndarray:
        if self._orders is None:
            self._orders = np.array(
                [self.elem_order(x) for x in self.elements()], dtype=np.int32
            )
        return self._orders

    def elements_of_order(self, k: int) -> list[int]:
        return [int(i) for i in np.flatnonzero(self.orders == k)]

    def cyclic_subgroup(self, gen_idx: int) -> tuple[int, ...]:
        """Element indices of <gen>, sorted."""
        mt = self.mul_table
        seen = {0}
        cur = gen_idx
        while cur != 0:
            seen.add(cur)
            cur = int(mt[cur, gen_idx])
        return tuple(sorted(seen))

    def sylow_subgroups(self, order: int) -> list[tuple[int, tuple[int, ...]]]:
        """All cyclic subgroups of the given prime-power order.

        Returns (canonical generator index, sorted member indices) pairs,
        ordered by generator index.  Every Sylow subgroup in scope is
        cyclic, so generator search is exhaustive.
        """
        found: dict[tuple[int, ...], int] = {}
        for g in self.elements_of_order(order):
            members = self.cyclic_subgroup(g)
            if members not in found:
                found[members] = g
        return sorted((gen, members) for members, gen in found.items())

    # -- misc ------------------------------------------------------------

    def __repr__(self) -> str:
        return f"GroupSpec({self.family}, p={self.p}, q={self.q}, t={self.t})"

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, GroupSpec)
            and (self.family, self.p, self.q) == (other.family, other.p, other.q)
        )

    def __hash__(self) -> int:
        return hash((self.family, self.p, self.q))


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
            return GroupSpec(family, p, q, n_mod=q, c_mod=p * p, t=1)
        if ftype == 2:
            return GroupSpec(family, p, q, n_mod=q, c_mod=p * p,
                             t=arith.canonical_action_exponent(p, q))
        if ftype == 3:
            return GroupSpec(family, p, q, n_mod=q, c_mod=p * p,
                             t=arith.canonical_action_exponent(p * p, q))
        return GroupSpec(family, p, q, n_mod=p * p, c_mod=q,
                         t=arith.canonical_action_exponent(q, p * p))
    # order pq families, with p the larger prime
    if not (arith.is_prime(p) and arith.is_prime(q)):
        raise ValueError(f"p={p}, q={q} must both be prime")
    if p <= q:
        raise ValueError(f"order-pq families need p > q, got ({p}, {q})")
    if p * q > arith.MAX_GROUP_ORDER:
        raise ValueError(f"pq = {p * q} exceeds the supported bound")
    if family == "PQ-Cyclic":
        return GroupSpec(family, p, q, n_mod=p, c_mod=q, t=1)
    if (p - 1) % q != 0:
        raise ValueError(f"PQ-Metacyclic needs q | p-1, which fails for ({p}, {q})")
    return GroupSpec(family, p, q, n_mod=p, c_mod=q,
                     t=arith.canonical_action_exponent(q, p))


# -- automorphisms ----------------------------------------------------------


class Automorphism:
    """An automorphism stored by generator images plus its full permutation."""

    __slots__ = ("img_a", "img_b", "perm")

    def __init__(self, img_a: GroupElement, img_b: GroupElement, perm: np.ndarray):
        self.img_a = img_a
        self.img_b = img_b
        self.perm = perm

    def __call__(self, idx: int) -> int:
        return int(self.perm[idx])

    def __eq__(self, other) -> bool:
        return isinstance(other, Automorphism) and np.array_equal(self.perm, other.perm)

    def __hash__(self) -> int:
        return hash(self.perm.tobytes())

    def __repr__(self) -> str:
        return f"Automorphism(a->{tuple(self.img_a)}, b->{tuple(self.img_b)})"


def _closed_form_aut_size(spec: GroupSpec) -> int:
    p, q = spec.p, spec.q
    return {
        "P2Q-Type1": p * (p - 1) * (q - 1),
        "P2Q-Type2": p * q * (q - 1),
        "P2Q-Type3": q * (q - 1),
        "P2Q-Type4": p * p * p * (p - 1),
        "PQ-Cyclic": (p - 1) * (q - 1),
        "PQ-Metacyclic": p * (p - 1),
    }[spec.family]


class AutGroup:
    """The full automorphism group over the canonical element order.

    Automorphisms act on the right: ``aperm[k, x]`` is the image of
    element x under automorphism k, and ``comp[i, j]`` is "apply i, then
    j".  The list is sorted by (img_a, img_b) indices, which makes every
    downstream enumeration order-stable.

    A homomorphism is fixed by its images of the generators a and b, so
    automorphisms are looked up by that pair: one int32 table gives the
    index of the automorphism with a -> x and b -> y, or -1 if there is
    none.  ``comp``, ``ainv``, ``iota_map``, ``identity_idx`` and
    ``index_of_perm`` are array gathers through this lookup.  The table
    spans the distinct images of a and of b only, so it is no larger than
    the set of image pairs ``aut_group`` searched, where an |G| x |G|
    table would take 400 MB at |G| = 10^4.
    """

    def __init__(self, spec: GroupSpec, auts: list[Automorphism]):
        self.spec = spec
        self.auts = auts
        self.size = len(auts)
        self.aperm = np.array([a.perm for a in auts], dtype=np.int32)
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
        self.identity_idx = self.index_of_perm(np.arange(spec.n))
        self._comp: np.ndarray | None = None
        self._ainv: np.ndarray | None = None
        self._iota_map: np.ndarray | None = None
        self._orders: np.ndarray | None = None
        self._generators: list[int] | None = None

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
                f"aut-not-closed: a {what} of {spec.family} (p={spec.p}, "
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

    def index_of(self, aut: Automorphism) -> int:
        return self.index_of_perm(aut.perm)

    @property
    def comp(self) -> np.ndarray:
        """comp[i, j] = index of the composite "i then j"."""
        if self._comp is None:
            m = self.size
            img_a, img_b = (self.aperm[:, g] for g in self._gen_idx)
            comp = np.empty((m, m), dtype=np.int32)
            cols = max(1, _COMP_BLOCK_ENTRIES // m)
            for lo in range(0, m, cols):
                # "i then j" sends a to aperm[j, img_a[i]], and b likewise
                block = self.aperm[lo:lo + cols]
                comp[:, lo:lo + cols] = self._closed_lookup(
                    block[:, img_a], block[:, img_b], "composite"
                ).T
            self._comp = comp
        return self._comp

    @property
    def ainv(self) -> np.ndarray:
        if self._ainv is None:
            # the inverse of k sends each generator g to its preimage under k
            pre_a, pre_b = (np.argmax(self.aperm == g, axis=1) for g in self._gen_idx)
            self._ainv = self._closed_lookup(pre_a, pre_b, "inverse")
        return self._ainv

    @property
    def iota_map(self) -> np.ndarray:
        """iota_map[g] = index of conjugation x -> g^-1 x g."""
        if self._iota_map is None:
            mt = self.spec.mul_table
            inv = self.spec.inv_table
            rng = np.arange(self.spec.n)
            conj_a, conj_b = (mt[mt[inv, g], rng] for g in self._gen_idx)
            self._iota_map = self._closed_lookup(conj_a, conj_b, "conjugation")
        return self._iota_map

    def order_of(self, k: int) -> int:
        if self._orders is None:
            # follow the generator images of every automorphism's powers
            rows = np.arange(self.size)
            ga, gb = self._gen_idx
            cur_a, cur_b = self.aperm[:, ga], self.aperm[:, gb]
            orders = np.zeros(self.size, dtype=np.int32)
            for d in range(1, self.size + 1):
                orders[(cur_a == ga) & (cur_b == gb) & (orders == 0)] = d
                if orders.all():
                    break
                cur_a, cur_b = self.aperm[rows, cur_a], self.aperm[rows, cur_b]
            self._orders = orders
        return int(self._orders[k])

    def generators(self) -> list[int]:
        """A small generating set, found greedily in canonical order."""
        if self._generators is None:
            gens: list[int] = []
            reached = {self.identity_idx}
            for k in range(self.size):
                if k in reached:
                    continue
                gens.append(k)
                frontier = [k]
                while frontier:
                    nxt = []
                    for x in frontier:
                        for g in gens:
                            for y in (int(self.comp[x, g]), int(self.comp[g, x])):
                                if y not in reached:
                                    reached.add(y)
                                    nxt.append(y)
                    frontier = nxt
                if k not in reached:
                    reached.add(k)
                if len(reached) == self.size:
                    break
            self._generators = gens
        return self._generators


def _build_perm(spec: GroupSpec, img_a: GroupElement, img_b: GroupElement) -> np.ndarray:
    """Permutation of element indices induced by a^v b^u -> img_a^v img_b^u."""
    apow = np.empty(spec.c_mod, dtype=np.int32)
    bpow = np.empty(spec.n_mod, dtype=np.int32)
    acc = spec.identity
    for v in range(spec.c_mod):
        apow[v] = spec.idx(acc)
        acc = spec.mul(acc, img_a)
    acc = spec.identity
    for u in range(spec.n_mod):
        bpow[u] = spec.idx(acc)
        acc = spec.mul(acc, img_b)
    mt = spec.mul_table
    return mt[apow[:, None], bpow[None, :]].reshape(spec.n).astype(np.int32)


def check_aut_gate(spec: GroupSpec) -> None:
    """Raise AutTooLargeError if the group's dense tables would be too large.

    The prediction needs only |G| and the closed-form |Aut|, so it runs
    before any search.  ``comp`` (|Aut| x |Aut|), ``aperm`` (|Aut| x |G|),
    ``mul_table`` and every record's circle table (|G| x |G|) are int32
    tables; the largest takes at most 4 max(|Aut|, |G|)^2 bytes.
    """
    if spec.n > arith.MAX_GROUP_ORDER:
        raise ValueError(f"|G| = {spec.n} exceeds the supported bound")
    m = _closed_form_aut_size(spec)
    predicted = 4 * max(m, spec.n) ** 2
    if predicted > AUT_TABLE_MAX_BYTES:
        raise AutTooLargeError(
            f"aut-too-large: |Aut| = {m} and |G| = {spec.n} need {predicted} "
            f"bytes of tables, over the limit {AUT_TABLE_MAX_BYTES}"
        )


@lru_cache(maxsize=None)
def aut_group(spec: GroupSpec) -> AutGroup:
    """Compute Aut(G) by exhaustive generator-image search.

    Candidate images preserve generator orders and the defining relation
    a^-1 b a = b^t; each surviving pair is expanded to a full permutation
    and kept only if bijective.  The result size is checked against the
    closed-form count for the family and a mismatch is a hard error.

    Every permutation is then proved a homomorphism, once for the whole
    group: alpha(x g) = alpha(x) alpha(g) for all x and both generators g
    extends, by associativity, to all products.  Under g o k = g^gamma(k) k
    this is the brace law (g h) o k = (g o k) k^-1 (h o k) for every gamma
    function on G, so no brace re-checks it.

    ``check_aut_gate`` runs before any search.
    """
    check_aut_gate(spec)
    a_candidates = [spec.el(i) for i in spec.elements_of_order(spec.c_mod)]
    b_candidates = [spec.el(i) for i in spec.elements_of_order(spec.n_mod)]
    auts = []
    for ia in a_candidates:
        ia_inv = spec.inv_elem(ia)
        for ib in b_candidates:
            # relation check: img_a^-1 img_b img_a == img_b^t
            conj = spec.mul(spec.mul(ia_inv, ib), ia)
            if conj != spec.power(ib, spec.t):
                continue
            perm = _build_perm(spec, ia, ib)
            seen = np.zeros(spec.n, dtype=bool)
            seen[perm] = True
            if not seen.all():
                continue
            auts.append(Automorphism(ia, ib, perm))
    auts.sort(key=lambda a: (spec.idx(a.img_a), spec.idx(a.img_b)))
    expected = _closed_form_aut_size(spec)
    if len(auts) != expected:
        raise AutSizeMismatchError(
            f"aut-size-mismatch: found {len(auts)} automorphisms of "
            f"{spec.family} (p={spec.p}, q={spec.q}), expected {expected}"
        )
    ag = AutGroup(spec, auts)
    mt, aperm = spec.mul_table, ag.aperm
    for g in (spec.idx(GroupElement(1, 0)), spec.idx(GroupElement(0, 1))):
        bad = aperm[:, mt[:, g]] != mt[aperm, aperm[:, [g]]]
        if bad.any():
            k, x = (int(i) for i in np.argwhere(bad)[0])
            raise AutSizeMismatchError(
                f"aut-not-homomorphism: automorphism {k} of {spec.family} "
                f"(p={spec.p}, q={spec.q}) fails at (x, g) = ({x}, {g})"
            )
    return ag


def iota(spec: GroupSpec, g: GroupElement) -> Automorphism:
    """The inner automorphism x -> g^-1 x g, as a member of Aut(G)."""
    ag = aut_group(spec)
    return ag.auts[int(ag.iota_map[spec.idx(g)])]


def psi_for_A(spec: GroupSpec, a_gen: GroupElement) -> Automorphism:
    """The distinguished order-p automorphism tied to a Sylow complement.

    For P2Q-Type4, the map fixing a_gen (a generator of a Sylow
    q-subgroup) with b -> b^(1+p).  For P2Q-Type2, the map fixing b with
    a_gen -> a_gen^(1+p) where a_gen generates a Sylow p-subgroup.
    """
    ag = aut_group(spec)
    p = spec.p
    b_idx = spec.idx(GroupElement(0, 1))
    a_idx = spec.idx(a_gen)
    if spec.family == "P2Q-Type4":
        if spec.elem_order(a_gen) != spec.q:
            raise ValueError("a_gen must generate a Sylow q-subgroup (order q)")
        want_a, want_b = a_idx, spec.idx(GroupElement(0, (1 + p) % spec.n_mod))
    elif spec.family == "P2Q-Type2":
        if spec.elem_order(a_gen) != p * p:
            raise ValueError("a_gen must generate a Sylow p-subgroup (order p^2)")
        want_a, want_b = spec.idx(spec.power(a_gen, 1 + p)), b_idx
    else:
        raise ValueError(f"psi_for_A applies to P2Q-Type2/P2Q-Type4, not {spec.family}")
    matches = np.flatnonzero(
        (ag.aperm[:, a_idx] == want_a) & (ag.aperm[:, b_idx] == want_b)
    )
    if len(matches) != 1:
        raise AutSizeMismatchError(
            f"expected exactly one matching automorphism, found {len(matches)}"
        )
    return ag.auts[int(matches[0])]


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

    def as_dict(self) -> dict:
        return {
            "n": self.n,
            "p": self.p,
            "q": self.q,
            "abelian": self.abelian,
            "cyclic": self.cyclic,
            "has_p2_element": self.has_p2_element,
            "center_size": self.center_size,
            "sylow_p_normal": self.sylow_p_normal,
            "sylow_q_normal": self.sylow_q_normal,
        }


@dataclass(frozen=True)
class IsoResult:
    iso_type: str
    fingerprint: Fingerprint


def _recognize_order(n: int) -> tuple[int, int, bool]:
    """Split n as p^2 q (returns (p, q, True)) or pq with p > q ((p, q, False))."""
    factors: dict[int, int] = {}
    m = n
    d = 2
    while d * d <= m:
        while m % d == 0:
            factors[d] = factors.get(d, 0) + 1
            m //= d
        d += 1
    if m > 1:
        factors[m] = factors.get(m, 0) + 1
    if sorted(factors.values()) == [1, 2]:
        p = next(r for r, e in factors.items() if e == 2)
        q = next(r for r, e in factors.items() if e == 1)
        return p, q, True
    if sorted(factors.values()) == [1, 1]:
        p, q = sorted(factors, reverse=True)
        return p, q, False
    raise ValueError(f"order {n} is not p^2 q or pq for distinct primes")


def _validate_group_table(table: np.ndarray) -> int:
    """Full group-axiom check; returns the identity index."""
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
    # associativity: (ij)k == i(jk) for all triples, done in slabs to
    # keep memory flat
    for i in range(n):
        if not np.array_equal(table[table[i], :], table[i][table]):
            raise ValueError("table is not associative")
    return ident


def classify_iso_type(table, assume_group: bool = False) -> IsoResult:
    """Fingerprint a Cayley table and name its isomorphism class.

    Tables of order p^2 q (p odd) map onto Type1..Type4 when the Sylow
    p-subgroup is cyclic, and order-pq tables onto the two pq families.
    Anything else lands in "Other" with the raw fingerprint attached.
    Non-group tables are rejected unless ``assume_group`` is set (used
    internally for tables that are groups by construction).
    """
    table = np.asarray(table, dtype=np.int32)
    n = table.shape[0]
    p, q, is_p2q = _recognize_order(n)
    ident = _find_identity_fast(table) if assume_group else _validate_group_table(table)

    orders = _element_orders(table, ident)
    abelian = bool(np.array_equal(table, table.T))
    cyclic = bool((orders == n).any())
    has_p2 = bool((orders == p * p).any()) if is_p2q else True
    center_size = int((table == table.T).all(axis=1).sum())
    p_part = p * p if is_p2q else p
    num_p_elements = int(np.isin(orders, [d for d in _divisors(p_part)]).sum())
    num_q_elements = int(((orders == 1) | (orders == q)).sum())
    sylow_p_normal = num_p_elements == p_part
    sylow_q_normal = num_q_elements == q
    fp = Fingerprint(
        n=n, p=p, q=q, abelian=abelian, cyclic=cyclic, has_p2_element=has_p2,
        center_size=center_size, sylow_p_normal=sylow_p_normal,
        sylow_q_normal=sylow_q_normal,
    )
    return IsoResult(iso_type=_name_fingerprint(fp, is_p2q), fingerprint=fp)


def _find_identity_fast(table: np.ndarray) -> int:
    n = table.shape[0]
    rng = np.arange(n)
    for e in range(n):
        if np.array_equal(table[e], rng):
            return e
    raise ValueError("table has no identity")


def _divisors(n: int) -> list[int]:
    return [d for d in range(1, n + 1) if n % d == 0]


def _element_orders(table: np.ndarray, ident: int) -> np.ndarray:
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


def cayley_to_json(table: np.ndarray) -> str:
    table = np.asarray(table)
    return json.dumps({"n": int(table.shape[0]), "table": table.tolist()})


def cayley_from_json(text: str) -> np.ndarray:
    data = json.loads(text)
    if not isinstance(data, dict) or "n" not in data or "table" not in data:
        raise ValueError('expected an object {"n": ..., "table": [[...]]}')
    n = data["n"]
    table = np.asarray(data["table"], dtype=np.int32)
    if table.shape != (n, n):
        raise ValueError(f"table shape {table.shape} does not match n={n}")
    return table
