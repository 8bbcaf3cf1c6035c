"""Test-side helpers for subsets of the simple roots.

The package holds every subset of a lattice entry or a Weyl walk as an int
mask with node i at bit i - 1, reads every parabolic subgroup's degrees
from root heights and never splits a subset.  The tests state their cases
as index sets: these helpers turn them into masks and back, and split a
subset into its Dynkin components for the tests that check a result
component by component, and read the root count and degrees of an index
set through the package's mask readers.
"""

from monoid_orders.crosssection import LatticeEntry
from monoid_orders.rootsystem import _mask_count, _mask_degrees, _subset_mask


def mask_of(indices) -> int:
    """A set of simple-root indices as a mask with node i at bit i - 1."""
    return sum(1 << (i - 1) for i in set(indices))


def nodes(mask: int) -> frozenset[int]:
    """The simple-root indices of a nonnegative mask."""
    return frozenset(i + 1 for i in range(mask.bit_length()) if mask >> i & 1)


def star(e) -> frozenset[int]:
    """lambda_star of a lattice entry as an index set."""
    return nodes(e.star_mask)


def substar(e) -> frozenset[int]:
    """lambda_substar of a lattice entry as an index set."""
    return nodes(e.substar_mask)


def entry(label, star_set, substar_set, k) -> LatticeEntry:
    """A lattice entry with its two halves given as index sets."""
    return LatticeEntry(label, mask_of(star_set), mask_of(substar_set), k)


def subset_count(rs, X) -> int:
    """Positive roots supported on the index set X; an index outside
    1..rank raises UnsupportedType."""
    return _mask_count(rs, _subset_mask(rs, X))


def subset_degrees(rs, X) -> tuple[int, ...]:
    """Degrees of the parabolic subgroup W_X of the index set X, in
    increasing order; an index outside 1..rank raises UnsupportedType."""
    return _mask_degrees(rs, _subset_mask(rs, X))


def components(rs, X):
    """X split into its Dynkin-connected components, in order of least node."""
    comps = []
    for i in sorted(X):
        touching = [c for c in comps if any(j in rs.neighbors(i) for j in c)]
        comps = [c for c in comps if c not in touching]
        comps.append(frozenset({i}).union(*touching))
    return sorted(comps, key=min)
