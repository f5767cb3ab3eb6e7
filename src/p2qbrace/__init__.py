"""Skew braces of order p^2 q with cyclic Sylow p-subgroups.

Enumerates the gamma functions (equivalently the regular subgroups of
holomorphs, equivalently the skew-brace operations) on the groups of
order p^2 q whose Sylow p-subgroups are cyclic, by three independent
routes, and checks the results against the closed-form count tables.
"""

from .arith import DivisibilityProfile, divisibility_profile
from .brace import GammaFunction, SkewBraceRecord, brace_from_gamma
from .counts import CountTable, count_table, pq_tables
from .enumerate import (
    EnumerationResult,
    aut_orbits,
    closure_oracle,
    gfe_search,
    pq_enumerate,
    structured_enumerate,
)
from .groups import GroupElement, GroupSpec, aut_group, classify_iso_type, make_group
from .holomorph import closure_search_regular, holo

__version__ = "0.1.0"

__all__ = [
    "DivisibilityProfile",
    "divisibility_profile",
    "GammaFunction",
    "SkewBraceRecord",
    "brace_from_gamma",
    "CountTable",
    "count_table",
    "pq_tables",
    "EnumerationResult",
    "aut_orbits",
    "closure_oracle",
    "gfe_search",
    "pq_enumerate",
    "structured_enumerate",
    "GroupElement",
    "GroupSpec",
    "aut_group",
    "classify_iso_type",
    "make_group",
    "closure_search_regular",
    "holo",
    "__version__",
]
