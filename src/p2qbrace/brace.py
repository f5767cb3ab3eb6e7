"""Gamma functions, circle operations and skew-brace records.

A gamma function on G is a map gamma : G -> Aut(G) satisfying the
functional equation

    gamma(g^gamma(h) * h) = gamma(g) gamma(h),

stored as a row of automorphism indices over the canonical element
order.  Each one induces a second group operation g o h = g^gamma(h) * h
making (G, *, o) a right skew brace, and corresponds to exactly one
regular subgroup {(gamma(g), g)} of the holomorph.  This module holds
the toolkit: the circle law, checked and classified on its generators,
kernels, duality (conjugation of the regular subgroup by inversion) and
conjugation by automorphisms, one gather for a whole (k, |G|) set of
tables, and the cyclic-subgroup machinery used to build gamma functions
generator-first: relative gamma functions and their liftings along a
factorization G = A B, in batches of one row per twist eta of a
generator a, (k, |A|) and (k, |G|) arrays, O(k |G|) each.

Composition of automorphisms is written left to right throughout, i.e.
``gamma(g) gamma(h)`` means "apply gamma(g) first", matching the right
action x^alpha used everywhere in this package.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Optional, Sequence

import numpy as np

from .groups import GroupSpec, _generating_set, aut_group, classify_iso_type, powers


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


@dataclass(frozen=True, eq=False)
class GammaFunction:
    """One gamma table as an int32 row, often a view into a route's set."""

    spec: GroupSpec
    row: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "row", np.asarray(self.row, dtype=np.int32))
        if self.row.shape != (self.spec.n,):
            raise ValueError("gamma table length must equal |G|")


def identity_gamma(spec: GroupSpec) -> GammaFunction:
    return GammaFunction(spec, np.full(spec.n, aut_group(spec).identity_idx))


def find_gfe_violation(gamma: GammaFunction) -> Optional[tuple[int, int]]:
    """First (g, h) pair violating the functional equation, in row-major
    order over the full circle table, or None."""
    circ = circle_table(gamma)
    ag = aut_group(gamma.spec)
    gt = gamma.row
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
        self._gt = gamma.row

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
    return frozenset(int(i) for i in np.flatnonzero(gamma.row == ag.identity_idx))


# how many triples the sampled brace-axiom check draws
_BRACE_AXIOM_SAMPLE = 20_000


def verify_brace_axiom(gamma: GammaFunction, exhaustive: bool) -> None:
    """Check (g h) o k == (g o k) k^-1 (h o k), over all triples or a
    fixed deterministic sample of them.

    An independent reference for tests.  Record building does not call
    it: for one k the law says that gamma(k) is an endomorphism of
    (G, *), which every row of Aut(G) is by von Dyck's theorem, since
    ``aut_group`` builds each row from generator images that satisfy the
    defining relations (the tests prove it exhaustively).
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
            "gamma": self.gamma.row.tolist(),
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
      Aut(G), and each row is a homomorphism by von Dyck's theorem:
      ``aut_group`` builds it from generator images that satisfy the
      defining relations (a test proves it for every admitted group of
      order up to 600);
    * once the equation holds, gamma is a homomorphism from (G, o) to
      Aut(G), so its kernel is normal in (G, o), and g o h = g h for h in
      the kernel makes it a subgroup of (G, *) too.  ``_check_kernel``
      stays as the independent reference the tests run.
    """
    law, ag, gt = CircleLaw(gamma), aut_group(gamma.spec), gamma.row
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


def gamma_from_regular(spec: GroupSpec, members: np.ndarray) -> np.ndarray:
    """Read the gamma table, an int32 row, off a regular subgroup of Hol(G).

    ``members`` holds the subgroup's flat indices k = alpha * |G| + g, as
    ``holomorph.closure_search_regular`` returns them.  The member
    (alpha, g) sends the identity to g = k mod |G|, and regularity makes
    g -> alpha = k div |G| a well-defined total map.
    """
    alpha, g = np.divmod(np.asarray(members, dtype=np.int64), spec.n)
    if (np.bincount(g) > 1).any():
        raise ValueError("subgroup is not regular: repeated identity image")
    if g.size != spec.n:
        raise ValueError("subgroup is not regular: misses identity images")
    table = np.empty(spec.n, dtype=np.int32)
    table[g] = alpha
    return table


def dual_gamma(spec: GroupSpec, tables: np.ndarray) -> np.ndarray:
    """The tables of the inversion-conjugate regular subgroups, for one
    table or a (k, |G|) set of them, in one gather.

    Pointwise: x -> gamma(x^-1) iota(x^-1).  An involution on the set of
    gamma functions; the circle groups stay isomorphic because inversion
    is an isomorphism between them.
    """
    ag = aut_group(spec)
    inv = spec.inv_table
    return ag.comp[tables[..., inv], ag.iota_map[inv]]


def conjugate_gamma(spec: GroupSpec, tables: np.ndarray, beta: int) -> np.ndarray:
    """The tables of the regular subgroups conjugated by beta, for one
    table or a (k, |G|) set of them, in one gather.

    beta is an index into the canonical AutGroup; each new table is
    g -> beta^-1 gamma(g^(beta^-1)) beta.  The map alpha -> beta^-1 alpha
    beta on Aut(G) is built once, then read at every moved cell.
    """
    ag = aut_group(spec)
    binv = ag.ainv[beta]
    return ag.comp[ag.comp[binv], beta][tables[..., ag.aperm[binv]]]


# -- relative gamma functions and liftings -----------------------------------


def rgf_from_generator(spec: GroupSpec, a_idx: int,
                       etas: Sequence[int]) -> tuple[np.ndarray, np.ndarray]:
    """The relative gamma functions on A = <a> with gamma(a) = eta, one row
    per eta: (k, |A|) arrays of the elements a^(o i) and their values eta^i.

    A row exists exactly when A is eta-invariant and ord(eta) divides |A|;
    one that does not raises the batch.  It is <(eta, a)> in Hol(G), whose
    i-th power is (eta^i, a^(o i)), and a^(o i) is i steps of x -> x^eta a
    from 1: one gather per step for all rows.  The lifted table's GFE
    check in ``brace_from_gamma`` covers A x A; none is made here.
    """
    ag = aut_group(spec)
    etas = np.asarray(etas, dtype=np.intp)
    d = int(spec.orders[a_idx])
    in_a = np.zeros(spec.n, dtype=bool)
    in_a[powers(spec.mul_table, a_idx, d, 0)] = True
    if not in_a[ag.aperm[etas, a_idx]].all():
        raise NotInvariantError("not-invariant: the subgroup <a> is not invariant "
                                "under the proposed image")
    too_big = ag.orders[etas][d % ag.orders[etas] != 0]
    if too_big.size:
        raise OrderTooBigError(f"order-too-big: ord(eta) = {too_big[0]} does not divide "
                               f"|<a>| = {d}")
    circle_pows = np.zeros((etas.size, d), dtype=spec.mul_table.dtype)
    for i in range(1, d):  # x -> x^eta a
        circle_pows[:, i] = spec.mul_table[ag.aperm[etas, circle_pows[:, i - 1]], a_idx]
    # a bijection's walk repeats 1 first; unreachable in scope, guards misuse
    if (circle_pows[:, 1:] == 0).any():
        raise OrderTooBigError("order-too-big: twisted powers do not sweep out <a>")
    return circle_pows, powers(ag.comp, etas, d, ag.identity_idx)


def lift_rgf(spec: GroupSpec, circle_pows: np.ndarray, eta_pows: np.ndarray,
             complement: Iterable[int]) -> np.ndarray:
    """The (k, |G|) tables gamma(a b) = gamma'(a) that extend each row of a
    ``rgf_from_generator`` batch on A along G = A B, B given by its members.

    Each row must kill A intersect B, and B must be invariant under every
    gamma'(a) iota(a); its table is then a gamma function with kernel
    ker(gamma') B.  One row that fails raises the batch.  The tables are
    one scatter over the cells a b, read back for ambiguous and missed
    cells.  Temporaries hold k |A| |B| cells: k |G| if A, B meet trivially.
    """
    ag = aut_group(spec)
    in_b = np.zeros(spec.n, dtype=bool)
    in_b[np.fromiter(complement, dtype=np.intp)] = True
    B = np.flatnonzero(in_b)
    if (eta_pows[in_b[circle_pows]] != ag.identity_idx).any():
        raise LiftPreconditionError("lift-precondition-failed: intersection of the factors "
                                    "is not killed by the relative gamma function")
    movers = ag.comp[eta_pows, ag.iota_map[circle_pows]]
    if not in_b[ag.aperm[movers[..., None], B]].all():
        raise LiftPreconditionError("lift-precondition-failed: complement is not invariant "
                                    "under the twisted action of the subgroup")
    cells = spec.mul_table[circle_pows[..., None], B]  # (k, |A|, |B|)
    # a unit middle axis lets each row's (|A|, |B|) cells index its table
    tables = np.full((len(cells), 1, spec.n), -1, dtype=eta_pows.dtype)
    np.put_along_axis(tables, cells, eta_pows[..., None], axis=2)
    if (np.take_along_axis(tables, cells, axis=2) != eta_pows[..., None]).any():
        raise LiftPreconditionError("lift-precondition-failed: factorization is ambiguous")
    if (tables < 0).any():
        raise LiftPreconditionError("lift-precondition-failed: the factors do not cover the group")
    return tables[:, 0]
