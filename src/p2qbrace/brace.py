"""Gamma functions, circle operations and skew-brace records.

A gamma function on G is a map gamma : G -> Aut(G) satisfying the
functional equation

    gamma(g^gamma(h) * h) = gamma(g) gamma(h),

stored as a table of automorphism indices over the canonical element
order.  Each one induces a second group operation g o h = g^gamma(h) * h
making (G, *, o) a right skew brace, and corresponds to exactly one
regular subgroup {(gamma(g), g)} of the holomorph.  This module holds
the pointwise toolkit: the circle law, checked and classified on its
generators, kernels, duality (conjugation of the regular subgroup by inversion),
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
from functools import cached_property
from typing import Iterable, Optional

import numpy as np

from .groups import GroupSpec, GroupElement, _generating_set, aut_group, classify_iso_type, powers


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


def gamma_from_array(spec: GroupSpec, table: np.ndarray) -> GammaFunction:
    """The gamma function with this array of automorphism indices.

    The key's entries are the shared ints of ``AutGroup.ints``, so a
    table holds |G| pointers rather than |G| int objects.
    """
    ints = aut_group(spec).ints
    return GammaFunction(spec, tuple(map(ints.__getitem__, table.tolist())))


def identity_gamma(spec: GroupSpec) -> GammaFunction:
    ag = aut_group(spec)
    return GammaFunction(spec, (ag.identity_idx,) * spec.n)


def find_gfe_violation(gamma: GammaFunction) -> Optional[tuple[int, int]]:
    """First (g, h) pair violating the functional equation, in row-major
    order over the full circle table, or None."""
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


def circle_table(gamma: GammaFunction) -> np.ndarray:
    """All |G|^2 cells of the circle law, which only reference checks need."""
    rng = np.arange(gamma.spec.n)
    return CircleLaw(gamma)[rng[:, None], rng]


class CircleLaw:
    """gamma's circle operation x o y = x^gamma(y) y, read as ``law[x, y]``
    cell by cell like a Cayley table, so no |G| x |G| table is built.
    ``generators`` is ``groups._generating_set``'s walk of it from 0."""

    def __init__(self, gamma: GammaFunction):
        self._mt = gamma.spec.mul_table
        self._aperm = aut_group(gamma.spec).aperm
        self._gt = gamma.arr()

    def __len__(self) -> int:
        return len(self._gt)

    def __getitem__(self, xy):
        x, y = xy
        return self._mt[self._aperm[self._gt[y], x], y]

    @cached_property
    def generators(self) -> list[int]:
        return _generating_set(self, 0)


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
    """One skew brace, as ``enumerate`` prints it: the gamma table, the
    circle group's isomorphism type, the kernel's size and the orbit id.

    A conjugation orbit shares the type and the kernel size.  No circle
    table is built; ``circle_table(rec.gamma)`` gives it.
    """

    gamma: GammaFunction
    circle_type: str
    kernel_size: int
    orbit_id: Optional[int] = None

    def to_json(self) -> str:
        return json.dumps({
            "group": self.gamma.spec.to_json_dict(),
            "gamma": list(self.gamma.table),
            "circle_type": self.circle_type,
            "kernel_size": self.kernel_size,
            "orbit_id": self.orbit_id,
        })


def brace_from_gamma(gamma: GammaFunction) -> SkewBraceRecord:
    """Bundle a gamma function into a record.

    This is the one place a route's tables are checked against the
    functional equation, once per conjugation orbit on its least table
    (``EnumerationResult.braces``).  It reads only the products with the
    generators S of (G, o), as the classification does: gamma(1) = 1 and
    gamma(g o s) = gamma(g) gamma(s) for all g and s in S suffice, by the
    closure lemma of ``gfe_search``.  A failing table is scanned in full,
    and the error names ``find_gfe_violation``'s first pair.  Nothing
    else needs a check here:

    * the brace law holds because every value of gamma is a row of
      Aut(G), and ``aut_group`` proves each row a homomorphism once per
      group;
    * once the equation holds, gamma is a homomorphism from (G, o) to
      Aut(G), so its kernel is normal in (G, o), and g o h = g h for h in
      the kernel makes it a subgroup of (G, *) too.  ``_check_kernel``
      stays as the independent reference the tests run.
    """
    law, ag, gt = CircleLaw(gamma), aut_group(gamma.spec), gamma.arr()
    try:
        s, g = np.asarray(law.generators), np.arange(len(gt))[:, None]
        holds = gt[0] == ag.identity_idx and (gt[law[g, s]] == ag.comp[gt[g], gt[s]]).all()
    except ValueError:  # more generators than any group of order |G| needs
        holds = False
    if not holds:
        raise GfeError(f"gamma functional equation fails at pair {find_gfe_violation(gamma)}")
    return SkewBraceRecord(gamma, classify_iso_type(law).iso_type, len(kernel(gamma)))


def _check_kernel(gamma: GammaFunction, circ: np.ndarray, ker: frozenset[int]) -> None:
    """Check that ``ker`` is a subgroup of (G, *) and normal in (G, o).

    A reference for tests; record building does not call it.
    """
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


def gamma_from_regular(spec: GroupSpec, members: np.ndarray) -> GammaFunction:
    """Read the gamma table off a regular subgroup of the holomorph.

    ``members`` holds the subgroup's flat indices k = alpha * |G| + g, as
    ``holomorph.closure_search_regular`` returns them.  The member
    (alpha, g) sends the identity to g = k mod |G|, and regularity makes
    g -> alpha = k div |G| a well-defined total map.
    """
    alpha, g = np.divmod(np.asarray(members, dtype=np.int64), spec.n)
    if np.unique(g).size != g.size:
        raise ValueError("subgroup is not regular: repeated identity image")
    if g.size != spec.n:
        raise ValueError("subgroup is not regular: misses identity images")
    table = np.empty(spec.n, dtype=np.int64)
    table[g] = alpha
    return gamma_from_array(spec, table)


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
    return gamma_from_array(spec, table)


def conjugate_gamma(gamma: GammaFunction, beta: int) -> GammaFunction:
    """The gamma function of the regular subgroup conjugated by beta.

    beta is an index into the canonical AutGroup; the new table is
    g -> beta^-1 gamma(g^(beta^-1)) beta.
    """
    spec = gamma.spec
    ag = aut_group(spec)
    gt = gamma.arr()
    binv = int(ag.ainv[beta])
    moved = gt[ag.aperm[binv]]
    table = ag.comp[ag.comp[binv, moved], beta]
    return gamma_from_array(spec, table)


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


def rgf_from_generator(spec: GroupSpec, a_gen: GroupElement, eta_idx: int) -> RGF:
    """The unique relative gamma function on A = <a_gen> with gamma(a) = eta.

    Exists exactly when A is eta-invariant and ord(eta) divides |A|.  It is
    <(eta, a)> in Hol(G), and (alpha, g)(beta, h) = (alpha beta, g^beta h)
    makes its k-th power (eta^k, a^(o k)): gamma(a^(o k)) = eta^k, where
    a^(o k) is k steps of x -> x^eta a from the identity.  The lifted
    table's GFE check in ``brace_from_gamma`` covers A x A; none is made here.
    """
    ag = aut_group(spec)
    a_idx = spec.idx(a_gen)
    d = int(spec.orders[a_idx])
    a_pows = powers(spec.mul_table, a_idx, d, 0)
    if ag.aperm[eta_idx, a_idx] not in a_pows:
        raise NotInvariantError(
            "not-invariant: the subgroup <a> is not invariant under the proposed image"
        )
    if d % ag.order_of(eta_idx) != 0:
        raise OrderTooBigError(
            f"order-too-big: ord(eta) = {ag.order_of(eta_idx)} does not divide |<a>| = {d}"
        )
    step = spec.mul_table[ag.aperm[eta_idx], a_idx].tolist()  # x -> x^eta a
    circle_pows = [0]
    for _ in range(d - 1):
        circle_pows.append(step[circle_pows[-1]])
    eta_pows = powers(ag.comp, eta_idx, d, ag.identity_idx)
    values = dict(zip(circle_pows, eta_pows.tolist()))
    if len(values) != d:
        # unreachable for the orders in scope; guards against misuse
        raise OrderTooBigError("order-too-big: twisted powers do not sweep out <a>")
    return RGF(spec=spec, domain=tuple(sorted(values)), values=values)


def lift_rgf(spec: GroupSpec, rgf: RGF, complement: Iterable[int]) -> GammaFunction:
    """Extend an RGF on A to all of G = A * B, constant on the B-parts.

    B is given by its member indices.  Requires the RGF to kill A
    intersect B and B to be invariant under every gamma'(a) iota(a);
    the resulting table gamma(a b) = gamma'(a) is then a gamma function
    with kernel ker(gamma') * B.  The table is one scatter of gamma'(a)
    over the products a b; reading it back finds ambiguous and missed cells.
    """
    ag = aut_group(spec)
    comp_set = sorted(set(int(c) for c in complement))
    for x in rgf.domain_set().intersection(comp_set):
        if rgf.values[x] != ag.identity_idx:
            raise LiftPreconditionError(
                "lift-precondition-failed: intersection of the factors is not "
                "killed by the relative gamma function"
            )
    dom = np.array(rgf.domain, dtype=np.int64)
    vals = np.array([rgf.values[a] for a in rgf.domain], dtype=np.int64)[:, None]
    B = np.array(comp_set, dtype=np.int64)
    movers = ag.comp[vals, ag.iota_map[dom][:, None]]
    if not np.isin(ag.aperm[movers, B], B).all():
        raise LiftPreconditionError(
            "lift-precondition-failed: complement is not invariant under "
            "the twisted action of the subgroup"
        )
    cells = spec.mul_table[dom[:, None], B[None, :]]
    table = np.full(spec.n, -1, dtype=np.int64)
    table[cells] = vals
    if not (table[cells] == vals).all():
        raise LiftPreconditionError(
            "lift-precondition-failed: factorization is ambiguous"
        )
    if (table < 0).any():
        raise LiftPreconditionError(
            "lift-precondition-failed: the factors do not cover the group"
        )
    return gamma_from_array(spec, table)
