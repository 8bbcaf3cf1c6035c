"""Cross-section lattices and their type maps.

A lattice entry records, for one idempotent orbit representative e, the two
halves of its type map: lambda_star (simple roots whose reflections commute
with e without fixing it) and lambda_substar (those whose reflections fix e),
plus the exponent k with [T:T(e)] = (q-1)^k.  Lattices are built two ways:
from a weight-support set J0 (the unique-minimal-idempotent rule), of which
the fundamental weight omega_i, J0 = Delta minus {alpha_i}, is the common
case, or from a validated external description.
"""

from __future__ import annotations

from math import prod

from .errors import InvalidSupport, InvariantViolation, LatticeTooLarge, UnsupportedType
from .qpoly import Immutable
from .rootsystem import CartanType, RootSystemData, build
from .weyl import DEFAULT_ENUM_BOUND

PAPER_VERIFIED = "paper-verified"
RULE_DERIVED = "rule-derived, not paper-verified"
USER_SUPPLIED = "user-supplied"


class LatticeEntry(Immutable):
    __slots__ = _fields = (
        "label",
        "lambda_star",
        "lambda_substar",
        "torus_index_exponent",
    )

    def __init__(
        self,
        label: str,
        lambda_star: frozenset[int],
        lambda_substar: frozenset[int],
        torus_index_exponent: int,
    ):
        object.__setattr__(self, "label", label)
        object.__setattr__(self, "lambda_star", lambda_star)
        object.__setattr__(self, "lambda_substar", lambda_substar)
        object.__setattr__(self, "torus_index_exponent", torus_index_exponent)

    @property
    def lambda_union(self) -> frozenset[int]:
        return self.lambda_star | self.lambda_substar

    def to_json(self) -> dict:
        return {
            "label": self.label,
            "lambda_star": sorted(self.lambda_star),
            "lambda_substar": sorted(self.lambda_substar),
            "torus_index_exponent": self.torus_index_exponent,
        }


class CrossSectionLattice(Immutable):
    _fields = ("root_system", "entries", "torus_rank", "provenance")
    __slots__ = _fields + ("all_simple",)

    def __init__(
        self,
        root_system: RootSystemData,
        entries: tuple[LatticeEntry, ...],
        torus_rank: int,
        provenance: str = USER_SUPPLIED,
    ):
        object.__setattr__(self, "root_system", root_system)
        object.__setattr__(self, "entries", entries)
        object.__setattr__(self, "torus_rank", torus_rank)
        object.__setattr__(self, "provenance", provenance)
        # derived, so left out of equality, hashing and repr
        delta = frozenset(range(1, root_system.rank + 1))
        object.__setattr__(self, "all_simple", delta)

    @property
    def rank(self) -> int:
        return self.root_system.rank

    def is_zero(self, entry: LatticeEntry) -> bool:
        return (
            not entry.lambda_star
            and entry.lambda_substar == self.all_simple
            and entry.torus_index_exponent == 0
        )

    def is_identity(self, entry: LatticeEntry) -> bool:
        return entry.lambda_star == self.all_simple and not entry.lambda_substar

    @property
    def zero_entry(self) -> LatticeEntry:
        return next(e for e in self.entries if self.is_zero(e))

    @property
    def identity_entry(self) -> LatticeEntry:
        return next(e for e in self.entries if self.is_identity(e))

    def to_json(self) -> dict:
        return {
            "type": str(self.root_system.cartan_type),
            "torus_rank": self.torus_rank,
            "provenance": self.provenance,
            "entries": [e.to_json() for e in self.entries],
        }


def validate(lat: CrossSectionLattice) -> CrossSectionLattice:
    """Check every structural invariant, raising InvariantViolation."""
    rs = lat.root_system
    delta = lat.all_simple

    def fail(entry: LatticeEntry | None, rule: str):
        where = f"entry {entry.label!r}: " if entry is not None else ""
        raise InvariantViolation(where + rule)

    labels = [e.label for e in lat.entries]
    if len(set(labels)) != len(labels):
        fail(None, "duplicate entry labels")
    zero_count = identity_count = 0
    for e in lat.entries:
        if not e.lambda_union <= delta:
            fail(e, f"simple-root indices outside 1..{lat.rank}")
        if e.lambda_star & e.lambda_substar:
            fail(e, "lambda_star and lambda_substar must be disjoint")
        for a in e.lambda_substar:
            if rs.neighbors(a) & e.lambda_star:
                fail(e, f"root {a} in lambda_substar is adjacent to lambda_star")
        if e.torus_index_exponent > lat.torus_rank:
            fail(e, "torus_index_exponent exceeds the torus rank")
        if not e.lambda_star and e.lambda_substar == delta:
            if e.torus_index_exponent != 0:
                fail(e, "zero entry must have torus_index_exponent 0")
            zero_count += 1
        elif e.torus_index_exponent < 1:
            fail(e, "non-zero entry must have torus_index_exponent >= 1")
        if lat.is_identity(e):
            identity_count += 1
    if zero_count != 1:
        fail(None, f"expected exactly one zero entry, found {zero_count}")
    if identity_count != 1:
        fail(None, f"expected exactly one identity entry, found {identity_count}")
    return lat


def lattice_size(rs: RootSystemData, J0: frozenset[int]) -> int:
    """Number of entries of j_irreducible_lattice(rs, J0), counted without
    generating any of them.

    The Dynkin diagram is a tree, so one pass from the leaves to node 1
    counts, per node v, the subsets X of v's subtree whose components not
    containing v all meet Delta minus J0, split three ways: v not in X; v in
    X with a node outside J0 already in its component; v in X still waiting
    for one.
    """
    parent = {1: 0}
    order = [1]
    for v in order:
        for w in rs.neighbors(v):
            if w not in parent:
                parent[w] = v
                order.append(w)
    counts: dict[int, tuple[int, int, int]] = {}
    for v in reversed(order):
        children = [counts[w] for w in rs.neighbors(v) if parent[w] == v]
        out = prod(o + m for o, m, _ in children)
        joined = prod(o + m + w for o, m, w in children)
        if v in J0:
            waiting = prod(o + w for o, _, w in children)
            counts[v] = (out, joined - waiting, waiting)
        else:
            counts[v] = (out, joined, 0)
    out, met, _ = counts[1]
    return out + met + 1  # plus the zero entry


def j_irreducible_lattice(
    rs: RootSystemData, J0: frozenset[int], bound: int | None = None
) -> CrossSectionLattice:
    """Cross-section lattice of the monoid with weight-support set J0.

    J0 is the set of simple roots annihilating the dominant weight.  One
    entry appears per subset X of the simple roots having no connected
    component inside J0; X is its lambda_star, the part of J0 neither in X
    nor adjacent to X is its lambda_substar, and [T:T(e)] = (q-1)^(|X|+1).

    The subsets X are grown, not filtered out of all 2^rank subsets: each
    size level extends the previous one by a node outside J0 or adjacent to
    X, which keeps every component meeting Delta minus J0, and every such X
    is reached (drop a node of X farthest from Delta minus J0).  Subsets
    are int masks with node i at bit rank - i, so within one size level
    descending mask order is the sorted-index order in which
    itertools.combinations lists them, and each level is emitted in it.  A
    subset's extensions are the low bits of (free | near) & ~X, one at a
    time.  Its frozenset and label are built once, when it is first
    reached: from a parent missing its largest node, which the descending
    walk reaches first, the label is the parent's with the new node
    appended.  Each lambda_substar frozenset is built once per mask.  The
    entries are counted first (lattice_size), and LatticeTooLarge is raised
    before any growth when more than bound nonempty lambda_star sets would
    be grown (default weyl.DEFAULT_ENUM_BOUND).
    """
    delta = frozenset(range(1, rs.rank + 1))
    if not J0 <= delta:
        raise UnsupportedType(f"J0 {sorted(J0)} outside 1..{rs.rank}")
    if J0 == delta:
        raise InvalidSupport("J0 = Delta admits no nonzero minimal idempotent")
    if bound is None:
        bound = DEFAULT_ENUM_BOUND
    grown = lattice_size(rs, J0) - 2  # all but the zero entry and X = {}
    if grown > bound:
        raise LatticeTooLarge(
            f"the {rs.cartan_type} lattice for J0 = {sorted(J0)} grows {grown} "
            f"nonempty lambda_star sets, which exceeds the bound {bound}"
        )

    rank = rs.rank
    bits = [1 << (rank - i) for i in range(rank + 1)]  # node i at bit rank - i
    near_of = {bits[i]: sum(bits[j] for j in rs.neighbors(i)) for i in delta}
    free, j0_mask = sum(bits[i] for i in delta - J0), sum(bits[i] for i in J0)
    substars: dict[int, frozenset[int]] = {}
    entries = [LatticeEntry("0", frozenset(), delta, 0)]
    # X as a mask -> (the mask of the simple roots adjacent to X, X, its label)
    level = {0: (0, frozenset(), "")}
    while level:
        larger: dict[int, tuple[int, frozenset[int], str]] = {}
        for mask in sorted(level, reverse=True):
            near, X, text = level[mask]
            rest = j0_mask & ~mask & ~near
            if rest not in substars:
                substars[rest] = frozenset(i for i in J0 if bits[i] & rest)
            label = "1" if X == delta else "e{" + text + "}"
            entries.append(LatticeEntry(label, X, substars[rest], len(X) + 1))
            todo = (free | near) & ~mask
            while todo:
                low = todo & -todo
                todo ^= low
                if mask | low not in larger:
                    v = rank + 1 - low.bit_length()
                    if low < mask & -mask:  # v above every node of X
                        joined = text + "," + str(v)
                    else:
                        joined = ",".join(map(str, sorted(X | {v})))
                    larger[mask | low] = (near | near_of[low], X | {v}, joined)
        level = larger

    provenance = support_provenance(rs.cartan_type, J0)
    lat = CrossSectionLattice(
        rs, tuple(entries), torus_rank=rs.rank + 1, provenance=provenance
    )
    return validate(lat)


def support_provenance(ct: CartanType, J0: frozenset[int]) -> str:
    """How far the type map of weight support J0 is checked: the paper works
    out only C_l with omega_l and A_l with omega_1."""
    delta = frozenset(range(1, ct.rank + 1))
    if (ct.family, J0) in (("C", delta - {ct.rank}), ("A", delta - {1})):
        return PAPER_VERIFIED
    return RULE_DERIVED


def fundamental_lattice(
    ct: CartanType, i: int, bound: int | None = None
) -> CrossSectionLattice:
    """Weight-support lattice of the fundamental weight omega_i of type ct:
    j_irreducible_lattice with J0 = Delta minus {alpha_i}, under the same
    bound.

    In the Bourbaki numbering used here, omega_1 of C_l is the natural
    2l-dimensional representation, and omega_l gives the monoid of the
    closed form orders.symplectic_order.
    """
    rs = build(ct)
    return j_irreducible_lattice(rs, frozenset(range(1, rs.rank + 1)) - {i}, bound)


def _json_int(value, what: str) -> int:
    # bool is an int subclass, but true/false is no index or exponent
    if isinstance(value, bool) or not isinstance(value, int):
        raise InvariantViolation(f"{what} must be an integer, got {value!r}")
    return value


def _json_indices(value, what: str) -> frozenset[int]:
    if not isinstance(value, list):
        raise InvariantViolation(f"{what} must be a list of integers, got {value!r}")
    indices = [_json_int(x, what) for x in value]
    if len(set(indices)) != len(indices):
        raise InvariantViolation(f"{what} repeats an index: {value!r}")
    return frozenset(indices)


def load_lattice(rs: RootSystemData, raw: dict) -> CrossSectionLattice:
    """Validate an external lattice description against a root system.

    Expected shape: {"type": "C3", "entries": [{"label": ..., "lambda_star":
    [3], "lambda_substar": [1], "torus_index_exponent": 2}, ...]} with
    1-based simple-root indices and an optional "torus_rank" (defaults to
    rank + 1).  Index lists must be JSON arrays of integers and exponents
    integers; nothing else is coerced.
    """
    if not isinstance(raw, dict):
        raise InvariantViolation("lattice description must be a JSON object")
    declared = raw.get("type")
    if declared is not None:
        if CartanType.parse(str(declared)) != rs.cartan_type:
            raise InvariantViolation(
                f"lattice type {declared!r} does not match {rs.cartan_type}"
            )
    entries_raw = raw.get("entries")
    if not isinstance(entries_raw, list) or not entries_raw:
        raise InvariantViolation("lattice description needs a nonempty 'entries' list")
    entries = []
    for i, item in enumerate(entries_raw):
        if not isinstance(item, dict):
            raise InvariantViolation(f"entry #{i} is not an object")
        where = f"entry #{i} is malformed"
        for key in ("lambda_star", "lambda_substar", "torus_index_exponent"):
            if key not in item:
                raise InvariantViolation(f"{where}: missing {key!r}")
        star = _json_indices(item["lambda_star"], f"{where}: lambda_star")
        substar = _json_indices(item["lambda_substar"], f"{where}: lambda_substar")
        exponent = _json_int(
            item["torus_index_exponent"], f"{where}: torus_index_exponent"
        )
        label = item.get("label", f"e#{i}")
        if not isinstance(label, str):
            raise InvariantViolation(f"{where}: label must be a string, got {label!r}")
        entries.append(LatticeEntry(label, star, substar, exponent))
    torus_rank = _json_int(raw.get("torus_rank", rs.rank + 1), "torus_rank")
    lat = CrossSectionLattice(
        rs, tuple(entries), torus_rank=torus_rank, provenance=USER_SUPPLIED
    )
    return validate(lat)


def is_j_irreducible(lat: CrossSectionLattice) -> bool:
    """True when every nonzero entry has exponent |lambda_star| + 1."""
    return all(
        lat.is_zero(e) or e.torus_index_exponent == len(e.lambda_star) + 1
        for e in lat.entries
    )
