"""Shared enumeration cache so expensive searches run once per session,
and the hypothesis profile every property test runs under."""

import pytest
from hypothesis import settings

from p2qbrace import enumerate as routes
from p2qbrace.groups import make_group

# property tests draw the same examples on every run
settings.register_profile("tier1", derandomize=True, deadline=None, database=None)
settings.load_profile("tier1")

_CACHE: dict = {}


def enumerate_cached(family: str, p: int, q: int, method: str = "structured", **kw):
    """Enumerate once per (group, method, options).

    ``aut_orbits`` runs on structured results only, and proves their
    sets closed under conjugation.  The tests mostly read search and
    oracle results for their keys and counts and compare their key sets
    with structured results; reading their ``braces`` attaches orbits.
    """
    key = (family, p, q, method, tuple(sorted(kw.items())))
    if key not in _CACHE:
        spec = make_group(family, p, q)
        fn = {
            "structured": routes.structured_enumerate,
            "search": routes.gfe_search,
            "oracle": routes.closure_oracle,
        }[method]
        result = fn(spec, **kw)
        if method == "structured":
            routes.aut_orbits(result)
        _CACHE[key] = result
    return _CACHE[key]


@pytest.fixture(scope="session")
def enum_cache():
    return enumerate_cached
