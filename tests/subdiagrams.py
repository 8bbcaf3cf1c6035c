"""Split a set of simple roots into Dynkin-connected components.

A test-side helper: the package reads every parabolic subgroup's degrees
from root heights and never splits a subset, so the tests that check a
result component by component split it here.
"""


def components(rs, X):
    """X split into its Dynkin-connected components, in order of least node."""
    comps = []
    for i in sorted(X):
        touching = [c for c in comps if any(rs.adjacent(i, j) for j in c)]
        comps = [c for c in comps if c not in touching]
        comps.append(frozenset({i}).union(*touching))
    return sorted(comps, key=min)
