"""Gamma functions, circle operations and skew-brace records.

A gamma function on G is a map gamma : G -> Aut(G) satisfying the
functional equation

    gamma(g^gamma(h) * h) = gamma(g) gamma(h),

stored as a table of automorphism indices over the canonical element
order.  Each one induces a second group operation g o h = g^gamma(h) * h
making (G, *, o) a right skew brace, and corresponds to exactly one
regular subgroup {(gamma(g), g)} of the holomorph.  This module holds
the pointwise toolkit: validation, the circle table and its classifier,
kernels, duality (conjugation of the regular subgroup by inversion),
conjugation by automorphisms, and the cyclic-subgroup machinery used to
build gamma functions generator-first (relative gamma functions and
their liftings along a factorization G = A B).

Composition of automorphisms is written left to right throughout, i.e.
``gamma(g) gamma(h)`` means "apply gamma(g) first", matching the right
action x^alpha used everywhere in this package.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Iterable, Optional

import numpy as np

from .groups import GroupSpec, GroupElement, aut_group, classify_iso_type
from .holomorph import HolElement


class GfeError(RuntimeError):
    """A table violates the gamma functional equation."""


class NotInvariantError(ValueError):
    """The cyclic subgroup is not invariant under the proposed image."""


class OrderTooBigError(ValueError):
    """The proposed image's order does not divide the cyclic subgroup order."""


class LiftPreconditionError(ValueError):
    """A lifting condition failed; the message names which one."""


class BraceAxiomError(RuntimeError):
    """The two operations fail the skew-brace compatibility law."""


@dataclass(frozen=True)
class GammaFunction:
    """A total map from element indices to automorphism indices."""

    spec: GroupSpec
    table: tuple[int, ...]

    def __post_init__(self):
        if len(self.table) != self.spec.n:
            raise ValueError("gamma table length must equal |G|")

    @property
    def key(self) -> tuple[int, ...]:
        return self.table

    def arr(self) -> np.ndarray:
        return np.asarray(self.table, dtype=np.int32)


def identity_gamma(spec: GroupSpec) -> GammaFunction:
    ag = aut_group(spec)
    return GammaFunction(spec, (ag.identity_idx,) * spec.n)


def inversion_gamma(spec: GroupSpec) -> GammaFunction:
    """The gamma function of the left-regular image: y -> iota(y^-1)."""
    ag = aut_group(spec)
    table = ag.iota_map[spec.inv_table]
    return GammaFunction(spec, tuple(int(x) for x in table))


def find_gfe_violation(
    gamma: GammaFunction, circ: Optional[np.ndarray] = None
) -> Optional[tuple[int, int]]:
    """First (g, h) pair violating the functional equation, or None.

    ``circ`` is gamma's circle table; it is built here when not given.
    """
    if circ is None:
        circ = circle_table(gamma)
    ag = aut_group(gamma.spec)
    gt = gamma.arr()
    want = ag.comp[gt[:, None], gt[None, :]]
    bad = gt[circ] != want
    if not bad.any():
        return None
    g, h = np.argwhere(bad)[0]
    return int(g), int(h)


def check_gfe(gamma: GammaFunction) -> bool:
    return find_gfe_violation(gamma) is None


def circle(gamma: GammaFunction, g: GroupElement, h: GroupElement) -> GroupElement:
    """g o h = g^gamma(h) * h."""
    spec = gamma.spec
    ag = aut_group(spec)
    gi, hi = spec.idx(g), spec.idx(h)
    return spec.el(int(spec.mul_table[ag.aperm[gamma.table[hi], gi], hi]))


def circle_inverse(gamma: GammaFunction, a: GroupElement) -> GroupElement:
    """Inverse of a in (G, o), via the closed form a^(-gamma(a)^-1)."""
    spec = gamma.spec
    ag = aut_group(spec)
    ai = spec.idx(a)
    inv_aut = int(ag.ainv[gamma.table[ai]])
    return spec.el(int(ag.aperm[inv_aut, spec.inv_table[ai]]))


def circle_table(gamma: GammaFunction) -> np.ndarray:
    spec = gamma.spec
    ag = aut_group(spec)
    gt = gamma.arr()
    rng = np.arange(spec.n)
    return spec.mul_table[ag.aperm[gt[rng][None, :], rng[:, None]], rng[None, :]]


def kernel(gamma: GammaFunction) -> frozenset[int]:
    ag = aut_group(gamma.spec)
    return frozenset(int(i) for i in np.flatnonzero(gamma.arr() == ag.identity_idx))


# how many triples the sampled brace-axiom check draws
_BRACE_AXIOM_SAMPLE = 20_000


def verify_brace_axiom(gamma: GammaFunction, exhaustive: bool) -> None:
    """Check (g h) o k == (g o k) k^-1 (h o k), over all triples or a
    fixed deterministic sample of them.

    An independent reference for tests.  Record building does not call
    it: for one k the law says that gamma(k) is an endomorphism of
    (G, *), which ``aut_group`` proves once for every row of Aut(G).
    """
    spec = gamma.spec
    n = spec.n
    mt = spec.mul_table
    inv = spec.inv_table
    circ = circle_table(gamma)
    if exhaustive:
        g = np.repeat(np.arange(n), n * n)
        h = np.tile(np.repeat(np.arange(n), n), n)
        k = np.tile(np.arange(n), n * n)
    else:
        rs = np.random.RandomState(0)
        g, h, k = (rs.randint(0, n, _BRACE_AXIOM_SAMPLE) for _ in range(3))
    lhs = circ[mt[g, h], k]
    rhs = mt[mt[circ[g, k], inv[k]], circ[h, k]]
    if not np.array_equal(lhs, rhs):
        i = int(np.flatnonzero(lhs != rhs)[0])
        raise BraceAxiomError(
            f"brace-axiom-violation at (g, h, k) = ({g[i]}, {h[i]}, {k[i]})"
        )


@dataclass
class SkewBraceRecord:
    """One skew brace: a gamma function with its derived circle data."""

    gamma: GammaFunction
    circle_table: np.ndarray
    circle_type: str
    kernel: frozenset[int]
    orbit_id: Optional[int] = None

    @property
    def canonical_key(self) -> tuple[int, ...]:
        return self.gamma.table

    def to_json_dict(self) -> dict:
        spec = self.gamma.spec
        return {
            "group": {
                "family": spec.family,
                "p": spec.p,
                "q": spec.q,
                "t": spec.t,
            },
            "gamma": list(self.gamma.table),
            "circle_type": self.circle_type,
            "kernel_size": len(self.kernel),
            "orbit_id": self.orbit_id,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict())


def brace_from_gamma(gamma: GammaFunction) -> SkewBraceRecord:
    """Bundle a gamma function into a full record.

    This is the one place a route's table is checked against the
    functional equation.  It also classifies the circle group,
    extracts the kernel and checks that it is a subgroup of (G, *) and
    normal in (G, o).  The brace law needs no check here: it holds
    because every value of gamma is a row of Aut(G), and ``aut_group``
    proves each row a homomorphism once per group.
    """
    circ = circle_table(gamma)
    violation = find_gfe_violation(gamma, circ)
    if violation is not None:
        raise GfeError(f"gamma functional equation fails at pair {violation}")
    ker = kernel(gamma)
    _check_kernel(gamma, circ, ker)
    iso = classify_iso_type(circ, assume_group=True)
    return SkewBraceRecord(
        gamma=gamma, circle_table=circ, circle_type=iso.iso_type, kernel=ker
    )


def _check_kernel(gamma: GammaFunction, circ: np.ndarray, ker: frozenset[int]) -> None:
    spec = gamma.spec
    mt = spec.mul_table
    karr = np.fromiter(sorted(ker), dtype=np.int64)
    if not np.isin(mt[karr[:, None], karr[None, :]], karr).all():
        raise GfeError("kernel is not a subgroup of (G, *)")
    # normality in (G, o): x^(o -1) o k o x stays in the kernel
    n = spec.n
    cinv = np.empty(n, dtype=np.int64)
    pos = np.argwhere(circ == spec.identity_idx)  # (y, x) with y o x = 1
    cinv[pos[:, 1]] = pos[:, 0]
    conj = circ[circ[cinv[:, None], karr[None, :]], np.arange(n)[:, None]]
    if not np.isin(conj, karr).all():
        raise GfeError("kernel is not normal in (G, o)")


def nu_subgroup(gamma: GammaFunction) -> set[HolElement]:
    """The regular subgroup {(gamma(g), g) : g in G} of the holomorph."""
    return {HolElement(int(a), g) for g, a in enumerate(gamma.table)}


def gamma_from_regular(spec: GroupSpec, members: Iterable[HolElement]) -> GammaFunction:
    """Read the gamma table off a regular subgroup.

    Each member (alpha, g) sends the identity to g, and regularity makes
    g -> alpha a well-defined total map.
    """
    table = [-1] * spec.n
    for m in members:
        if table[m.g] != -1:
            raise ValueError("subgroup is not regular: repeated identity image")
        table[m.g] = m.alpha
    if any(a == -1 for a in table):
        raise ValueError("subgroup is not regular: misses identity images")
    return GammaFunction(spec, tuple(table))


def dual_gamma(gamma: GammaFunction) -> GammaFunction:
    """The gamma function of the inversion-conjugate regular subgroup.

    Pointwise: x -> gamma(x^-1) iota(x^-1).  An involution on the set of
    gamma functions; the circle groups stay isomorphic because inversion
    is an isomorphism between them.
    """
    spec = gamma.spec
    ag = aut_group(spec)
    gt = gamma.arr()
    inv = spec.inv_table
    table = ag.comp[gt[inv], ag.iota_map[inv]]
    return GammaFunction(spec, tuple(int(x) for x in table))


def conjugate_gamma(gamma: GammaFunction, beta) -> GammaFunction:
    """The gamma function of the regular subgroup conjugated by beta.

    beta is an Automorphism or an index into the canonical AutGroup; the
    new table is g -> beta^-1 gamma(g^(beta^-1)) beta.
    """
    spec = gamma.spec
    ag = aut_group(spec)
    if not isinstance(beta, (int, np.integer)):
        beta = ag.index_of(beta)
    gt = gamma.arr()
    binv = int(ag.ainv[beta])
    moved = gt[ag.aperm[binv]]
    table = ag.comp[ag.comp[binv, moved], beta]
    return GammaFunction(spec, tuple(int(x) for x in table))


def is_morphism(gamma: GammaFunction) -> bool:
    """True when gamma(x y) = gamma(x) gamma(y) for all pairs."""
    spec = gamma.spec
    ag = aut_group(spec)
    gt = gamma.arr()
    lhs = gt[spec.mul_table]
    rhs = ag.comp[gt[:, None], gt[None, :]]
    return bool(np.array_equal(lhs, rhs))


# -- relative gamma functions and liftings -----------------------------------


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


def _check_rgf_gfe(rgf: RGF) -> None:
    spec = rgf.spec
    ag = aut_group(spec)
    for g in rgf.domain:
        for h in rgf.domain:
            tgt = int(spec.mul_table[ag.aperm[rgf.values[h], g], h])
            if tgt not in rgf.values:
                raise GfeError("domain is not closed under the circle operation")
            if rgf.values[tgt] != int(ag.comp[rgf.values[g], rgf.values[h]]):
                raise GfeError(f"relative GFE fails at pair ({g}, {h})")


def rgf_from_generator(spec: GroupSpec, a_gen: GroupElement, eta_idx: int) -> RGF:
    """The unique relative gamma function on A = <a_gen> with gamma(a) = eta.

    Exists exactly when A is eta-invariant and ord(eta) divides |A|; the
    values are spread over A through the partial-sum table of the twist
    exponent s defined by a^eta = a^s.
    """
    from . import arith

    ag = aut_group(spec)
    a_idx = spec.idx(a_gen)
    d = spec.elem_order(a_gen)
    powers = [spec.identity_idx]
    cur = a_idx
    while cur != spec.identity_idx:
        powers.append(cur)
        cur = int(spec.mul_table[cur, a_idx])
    image = int(ag.aperm[eta_idx, a_idx])
    if image not in powers:
        raise NotInvariantError(
            "not-invariant: the subgroup <a> is not invariant under the proposed image"
        )
    if d % ag.order_of(eta_idx) != 0:
        raise OrderTooBigError(
            f"order-too-big: ord(eta) = {ag.order_of(eta_idx)} does not divide |<a>| = {d}"
        )
    s = powers.index(image)
    values: dict[int, int] = {}
    aut_cur = ag.identity_idx
    for k in range(d):
        e = arith.es(k, s, d)
        values[powers[e]] = int(aut_cur)
        aut_cur = int(ag.comp[aut_cur, eta_idx])
    if len(values) != d:
        # unreachable for the orders in scope; guards against misuse
        raise OrderTooBigError("order-too-big: twisted powers do not sweep out <a>")
    rgf = RGF(spec=spec, domain=tuple(sorted(values)), values=values)
    _check_rgf_gfe(rgf)
    return rgf


def lift_rgf(spec: GroupSpec, rgf: RGF, complement: Iterable[int]) -> GammaFunction:
    """Extend an RGF on A to all of G = A * B, constant on the B-parts.

    B is given by its member indices.  Requires the RGF to kill A
    intersect B and B to be invariant under every gamma'(a) iota(a);
    the resulting table gamma(a b) = gamma'(a) is then a gamma function
    with kernel ker(gamma') * B.
    """
    ag = aut_group(spec)
    comp_set = sorted(set(int(c) for c in complement))
    dom_set = rgf.domain_set()
    for x in dom_set.intersection(comp_set):
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
    mt = spec.mul_table
    for a in rgf.domain:
        val = rgf.values[a]
        for b in comp_set:
            g = int(mt[a, b])
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
