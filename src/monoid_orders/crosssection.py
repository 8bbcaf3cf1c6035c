"""Cross-section lattices and their type maps.

A lattice entry records, for one idempotent orbit representative e, the two
halves of its type map: lambda_star (simple roots whose reflections commute
with e without fixing it) and lambda_substar (those whose reflections fix e),
plus the exponent k with [T:T(e)] = (q-1)^k.  An entry holds each half
only as an int mask, node i at bit i - 1 as rootsystem's node bits have it,
and its index text; validate, is_j_irreducible and the order routes read the
masks.  Lattices are built two ways: from a
weight-support set J0 (the unique-minimal-idempotent rule), of which the
fundamental weight omega_i, J0 = Delta minus {alpha_i}, is the common case,
or from a validated external description.  The entries of a weight support
are also counted without listing any: lattice_size counts them, and
thm34_census counts them per thm34 key, by one pass over the Dynkin
tree each.
"""

from __future__ import annotations

from collections import Counter
from math import prod

from .errors import InvalidSupport, InvariantViolation, LatticeTooLarge, UnsupportedType
from .qpoly import Immutable
from .rootsystem import (
    CartanType,
    RootSystemData,
    _mask_degrees,
    _mask_indices,
    _subset_mask,
    build,
)
from .weyl import DEFAULT_ENUM_BOUND

PAPER_VERIFIED = "paper-verified"
RULE_DERIVED = "rule-derived, not paper-verified"
USER_SUPPLIED = "user-supplied"


class LatticeEntry(Immutable):
    """One entry of a cross-section lattice: lambda_star and lambda_substar
    as the masks star_mask and substar_mask (node i at bit i - 1).  The
    constructor also writes both halves as index text (index_text) into the
    last two slots, which equality, hashing, repr and replace leave out."""

    _fields = ("label", "star_mask", "substar_mask", "torus_index_exponent")
    __slots__ = _fields + ("_star_text", "_substar_text")

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        _set_star_text(self, ",".join(map(str, _mask_indices(self.star_mask))))
        _set_substar_text(self, ",".join(map(str, _mask_indices(self.substar_mask))))

    @property
    def index_text(self) -> tuple[str, str]:
        """lambda_star and lambda_substar, each as its indices in increasing
        order joined by commas ("1,9,10"; "" for the empty set)."""
        return self._star_text, self._substar_text

    def to_json(self) -> dict:
        return {
            "label": self.label,
            "lambda_star": _mask_indices(self.star_mask),
            "lambda_substar": _mask_indices(self.substar_mask),
            "torus_index_exponent": self.torus_index_exponent,
        }


# each slot's member descriptor sets it past Immutable.__setattr__, more
# cheaply than object.__setattr__ with the slot's name
(
    _set_label,
    _set_star,
    _set_substar,
    _set_exponent,
    _set_star_text,
    _set_substar_text,
) = (getattr(LatticeEntry, name).__set__ for name in LatticeEntry.__slots__)


class CrossSectionLattice(Immutable):
    __slots__ = _fields = ("root_system", "entries", "torus_rank", "provenance")
    _defaults = {"provenance": USER_SUPPLIED}

    @property
    def rank(self) -> int:
        return self.root_system.rank

    @property
    def all_mask(self) -> int:
        """Delta as a mask, read from the type's rank slot, so that thm31
        calls no rootsystem code outside its walks."""
        return (1 << self.root_system.cartan_type.rank) - 1

    def is_zero(self, entry: LatticeEntry) -> bool:
        return (
            not entry.star_mask
            and entry.substar_mask == self.all_mask
            and entry.torus_index_exponent == 0
        )

    def is_identity(self, entry: LatticeEntry) -> bool:
        return entry.star_mask == self.all_mask and not entry.substar_mask

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
    """Check every structural invariant on the entries' masks, raising
    InvariantViolation.  The identity entry's J-class is the unit group G,
    whose order thm31 and thm33 give as q^N (q-1)^k W(q); that is |G| only
    when k is the torus rank: T(1) is trivial, so [T:T(1)] = |T|."""
    delta = lat.all_mask
    neighbors = lat.root_system._neighbor_masks

    def fail(entry: LatticeEntry | None, rule: str):
        where = f"entry {entry.label!r}: " if entry is not None else ""
        raise InvariantViolation(where + rule)

    if lat.torus_rank < 1:
        fail(None, f"torus_rank must be at least 1, got {lat.torus_rank}")
    labels = [e.label for e in lat.entries]
    if len(set(labels)) != len(labels):
        fail(None, "duplicate entry labels")
    zero_count = identity_count = 0
    for e in lat.entries:
        star, substar = e.star_mask, e.substar_mask
        if (star | substar) & ~delta:
            fail(e, f"simple-root indices outside 1..{lat.rank}")
        if star & substar:
            fail(e, "lambda_star and lambda_substar must be disjoint")
        rest = substar
        while rest:
            a = (rest & -rest).bit_length()
            rest &= rest - 1
            if neighbors[a - 1] & star:
                fail(e, f"root {a} in lambda_substar is adjacent to lambda_star")
        if e.torus_index_exponent > lat.torus_rank:
            fail(e, "torus_index_exponent exceeds the torus rank")
        if not star and substar == delta:
            if e.torus_index_exponent != 0:
                fail(e, "zero entry must have torus_index_exponent 0")
            zero_count += 1
        elif e.torus_index_exponent < 1:
            fail(e, "non-zero entry must have torus_index_exponent >= 1")
        if star == delta and not substar:  # lat.is_identity(e)
            if e.torus_index_exponent != lat.torus_rank:
                fail(
                    e,
                    "identity entry must have torus_index_exponent"
                    f" {lat.torus_rank}, the torus rank",
                )
            identity_count += 1
    if zero_count != 1:
        fail(None, f"expected exactly one zero entry, found {zero_count}")
    if identity_count != 1:
        fail(None, f"expected exactly one identity entry, found {identity_count}")
    return lat


def _post_order(rs: RootSystemData) -> list[tuple[int, list[int]]]:
    """Each node of the Dynkin tree rooted at node 1 with its children,
    every child before its parent: in a tree, the neighbours of a node not
    yet reached are its children."""
    order, children = [1], {}
    for v in order:
        near = _mask_indices(rs._neighbor_masks[v - 1])
        children[v] = [w for w in near if w not in children]
        order += children[v]
    return [(v, children[v]) for v in reversed(order)]


def lattice_size(rs: RootSystemData, J0: frozenset[int]) -> int:
    """Number of entries of j_irreducible_lattice(rs, J0), counted without
    generating any of them.

    The Dynkin diagram is a tree, so one pass from the leaves to node 1
    counts, per node v, the subsets X of v's subtree whose components not
    containing v all meet Delta minus J0, split three ways: v not in X; v in
    X with a node outside J0 already in its component; v in X still waiting
    for one.
    """
    counts: dict[int, tuple[int, int, int]] = {}
    for v, below in _post_order(rs):
        children = [counts[w] for w in below]
        out = prod(o + m for o, m, _ in children)
        joined = prod(o + m + w for o, m, w in children)
        if v in J0:
            waiting = prod(o + w for o, _, w in children)
            counts[v] = (out, joined - waiting, waiting)
        else:
            counts[v] = (out, joined, 0)
    out, met, _ = counts[1]
    return out + met + 1  # plus the zero entry


def _checked_support(rs: RootSystemData, J0: frozenset[int]) -> frozenset[int]:
    """Delta, once J0 is known to be a proper subset of it."""
    delta = frozenset(range(1, rs.rank + 1))
    if not J0 <= delta:
        raise UnsupportedType(f"J0 {sorted(J0)} outside 1..{rs.rank}")
    if J0 == delta:
        raise InvalidSupport("J0 = Delta admits no nonzero minimal idempotent")
    return delta


_UNIT = Counter({((), ()): 1})  # one empty partial key; never changed


def _merged(a: Counter, b: Counter) -> Counter:
    """Every pair of partial keys of a and b joined, counts multiplied; a
    table shared with _UNIT comes back as it is, and neither is changed."""
    if a is _UNIT:
        return b
    if b is _UNIT:
        return a
    out: Counter = Counter()
    for (sub_a, star_a), n_a in a.items():
        for (sub_b, star_b), n_b in b.items():
            key = tuple(sorted(sub_a + sub_b)), tuple(sorted(star_a + star_b))
            out[key] += n_a * n_b
    return out


def _closing(out: Counter, keys: Counter, sub: tuple = (), star: tuple = ()) -> None:
    """Add to out every partial key of keys with the degrees sub (of closed
    lambda_* components) and star (of closed lambda* ones) joined to it."""
    for (s, x), n in keys.items():
        s = tuple(sorted(s + sub)) if sub else s
        out[s, tuple(sorted(x + star)) if star else x] += n


def _product(a: dict, b: list, join) -> dict:
    """The states join(s, t) of every state s of a and (t, keys) pair of
    b with keys, each with the _merged partial keys of the pair."""
    out: dict = {}
    for s, keys_a in a.items():
        for t, keys_b in b:
            if not keys_b:
                continue
            state, keys = join(s, t), _merged(keys_a, keys_b)
            out[state] = out[state] + keys if state in out else keys
    return out


def thm34_census(
    rs: RootSystemData, J0: frozenset[int], bound: int | None = None
) -> Counter:
    """The thm34 keys of j_irreducible_lattice(rs, J0), each with the number
    of entries sharing it, counted without building any entry.

    A key is thm34's: (degrees of W_{lambda_*}, k, degrees of
    W_{lambda*}), each degree tuple sorted.  The zero entry's is
    (degrees of W, 0, ()) and every other entry's k is |lambda*| + 1.

    One pass from the leaves to node 1, rooted as lattice_size is, keeps
    per node v a Counter of the partial keys of v's subtree, the degrees of
    the closed components of each half, per state of v: in X, with the
    mask of its open X component; in J0 with no child in X, so in lambda_*
    unless its parent is in X, with the mask of its open lambda_*
    component; or neither.  Whether an X component has met Delta minus J0 is its mask
    meeting that set.  A component closes at the first node above it that
    is not in its half, and its degrees are read by
    rootsystem._mask_degrees; an open X component that has not met Delta
    minus J0 is dropped once no node outside J0 is left above it, before
    any degree is read, its own or that of a lambda_* component it closed.
    LatticeTooLarge is raised as soon as one node's states hold more than
    bound partial keys (default weyl.DEFAULT_ENUM_BOUND).
    """
    delta = _checked_support(rs, J0)
    if bound is None:
        bound = DEFAULT_ENUM_BOUND
    bit = rs._node_bits
    free = sum(bit[i] for i in delta - J0)

    subtree: dict[int, int] = {}
    # node -> (X states {open mask: keys}, lambda_* states {open mask: keys},
    # the keys with v in neither)
    tables: dict[int, tuple[dict, dict, Counter]] = {}
    for v, below in _post_order(rs):
        subtree[v] = bit[v] + sum(subtree[w] for w in below)
        # v in X: (its open mask, the lambda_* nodes below a child of v
        # left to close); v not in X: (the children's open lambda_* masks,
        # whether v is off lambda_*)
        in_x = {(bit[v], 0): _UNIT}
        out_x = {(0, v not in J0): _UNIT}
        for w in below:
            xs, ss, ns = tables.pop(w)
            # from v in X: w is off lambda_*, and the rest of its lambda_*
            # component is left to close
            seen = [((mask, 0), keys) for mask, keys in xs.items()]
            seen += [((0, mask & ~bit[w]), keys) for mask, keys in ss.items()]
            seen.append(((0, 0), ns))
            in_x = _product(in_x, seen, lambda s, t: (s[0] | t[0], s[1] | t[1]))
            met = Counter()  # from v not in X: w's X component closes
            for mask, keys in xs.items():
                if mask & free:
                    _closing(met, keys, star=_mask_degrees(rs, mask))
            seen = [((mask, False), keys) for mask, keys in ss.items()]
            seen += [((0, False), ns), ((0, True), met)]
            out_x = _product(
                out_x, seen, lambda s, t: (s[0] | t[0], s[1] or t[1])
            )
        xs = {}
        for (mask, below_x), keys in in_x.items():
            if not (mask & free or free & ~subtree[v]):
                continue  # an X component left with no node outside J0 to meet
            if below_x:
                closing, keys = keys, Counter()
                _closing(keys, closing, sub=_mask_degrees(rs, below_x))
            xs[mask] = xs[mask] + keys if mask in xs else keys
        ss, ns = {}, Counter()
        for (mask, off), keys in out_x.items():
            if off:
                _closing(ns, keys, sub=_mask_degrees(rs, mask))
            else:
                ss[mask | bit[v]] = keys
        size = sum(map(len, xs.values())) + sum(map(len, ss.values())) + len(ns)
        if size > bound:
            raise LatticeTooLarge(
                f"the {rs.cartan_type} census for J0 = {sorted(J0)} holds {size}"
                f" partial keys at node {v}, which exceeds the bound {bound}"
            )
        tables[v] = (xs, ss, ns)
    xs, ss, ns = tables[1]
    found = Counter(ns)
    for mask, keys in xs.items():
        if mask & free:
            _closing(found, keys, star=_mask_degrees(rs, mask))
    for mask, keys in ss.items():
        _closing(found, keys, sub=_mask_degrees(rs, mask))
    census = Counter({(_mask_degrees(rs, subtree[1]), 0, ()): 1})  # the zero entry
    for (sub, star), n in found.items():
        census[sub, len(star) + 1, star] += n
    return census


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
    X, that is in neither X nor its lambda_substar, which keeps every
    component meeting Delta minus J0.  X, lambda_substar, J0 and adjacency
    are masks with node i at bit i - 1, as entries hold them; only X's key
    in its level's dict puts node i at bit rank - i.  A child's key is its
    parent's with one more bit, so descending key order is the sorted-index
    order in which itertools.combinations lists a level, and each level is
    emitted by one int sort.  X grows by each such node v above its largest
    node m, and by a node v below m only when X is stuck (X - {m} has a
    component inside J0) or when v is in J0 and touches no node of X but m.
    Any other X + {v} is also X' + {m}, grown from the valid X' = (X - {m})
    + {v}; so every X is still reached (a valid parent drops a node of X
    farthest from Delta minus J0), and with J0 empty each X is tried once.
    A subset grown below its parent's largest node is kept as stuck, which
    at worst costs work; it may be reached twice, so each subset's entry is
    built once, when it is first reached, from the parent's: lambda_star
    gains v, lambda_substar loses v and its neighbours, and the index text
    is the parent's with v appended when v is above m, else written out; the
    text gives the label too.  No frozenset is built per entry, and each
    lambda_substar's index text is written once per mask.  The entries are
    counted first (lattice_size), and LatticeTooLarge is raised before any
    growth when more than bound nonempty lambda_star sets would be grown
    (default weyl.DEFAULT_ENUM_BOUND).
    """
    _checked_support(rs, J0)
    if bound is None:
        bound = DEFAULT_ENUM_BOUND
    grown = lattice_size(rs, J0) - 2  # all but the zero entry and X = {}
    if grown > bound:
        raise LatticeTooLarge(
            f"the {rs.cartan_type} lattice for J0 = {sorted(J0)} grows {grown} "
            f"nonempty lambda_star sets, which exceeds the bound {bound}"
        )

    near = (0, *rs._neighbor_masks)  # node i's neighbours at index i
    high = 1 << rs.rank  # high >> i: node i's bit in a sort key
    commas = [f",{i}" for i in range(rs.rank + 1)]
    j0_mask = _subset_mask(rs, J0)
    full = high - 1  # Delta, as a mask and as a key
    entries = [LatticeEntry("0", 0, full, 0)]
    empty = LatticeEntry("e{}", 0, j0_mask, 1)
    substars = {j0_mask: empty._substar_text}  # a lambda_substar's index text
    # X's sort key -> its entry, which holds X's masks and index text; no
    # tuple per X, which the garbage collector would track.  stuck holds
    # the keys of the Xs grown below their parent's largest node.
    level, stuck = {0: empty}, set()
    exponent = 1  # |X| + 1 for the Xs of level
    while level:
        exponent += 1  # for the Xs grown from it
        larger, larger_stuck = {}, set()
        for key in sorted(level, reverse=True):
            entries.append(entry := level[key])
            star, rest, text = entry.star_mask, entry.substar_mask, entry._star_text
            # the nodes outside J0 or adjacent to X, not in X
            todo = full ^ (star | rest)
            m = star.bit_length()  # X's largest node; 0 for X = {}
            top = 1 << m >> 1
            if top and key not in stuck:
                # X + {v} for v below m is grown from (X - {m}) + {v}, unless
                # v is in J0 and m is all it touches in X
                below = near[m] & j0_mask & ~star & (top - 1)
                todo &= -top
                while below:
                    low = below & -below
                    below ^= low
                    if near[low.bit_length()] & star == top:
                        todo |= low
            while todo:
                low = todo & -todo
                todo ^= low
                v = low.bit_length()
                wider = key | high >> v
                if wider not in larger:
                    wider_star = star | low
                    if low > top > 0:  # v above every node of X
                        joined = text + commas[v]
                    else:
                        joined = ",".join(map(str, _mask_indices(wider_star)))
                        if top:
                            larger_stuck.add(wider)
                    wider_rest = rest & ~(low | near[v])
                    if wider_rest not in substars:
                        indices = map(str, _mask_indices(wider_rest))
                        substars[wider_rest] = ",".join(indices)
                    larger[wider] = child = object.__new__(LatticeEntry)
                    _set_label(child, "1" if wider == full else f"e{{{joined}}}")
                    _set_star(child, wider_star)
                    _set_substar(child, wider_rest)
                    _set_exponent(child, exponent)
                    _set_star_text(child, joined)
                    _set_substar_text(child, substars[wider_rest])
        level, stuck = larger, larger_stuck

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
    closed form orders.symplectic_order.  An index i outside 1..rank
    raises UnsupportedType before any work.
    """
    if not 1 <= i <= ct.rank:
        raise UnsupportedType(f"fundamental weight index {i} outside 1..{ct.rank}")
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
        # an InvariantViolation, not _subset_mask's UnsupportedType
        if not all(1 <= a <= rs.rank for a in star | substar):
            raise InvariantViolation(
                f"entry {label!r}: simple-root indices outside 1..{rs.rank}"
            )
        star, substar = _subset_mask(rs, star), _subset_mask(rs, substar)
        entries.append(LatticeEntry(label, star, substar, exponent))
    torus_rank = _json_int(raw.get("torus_rank", rs.rank + 1), "torus_rank")
    lat = CrossSectionLattice(
        rs, tuple(entries), torus_rank=torus_rank, provenance=USER_SUPPLIED
    )
    return validate(lat)


def is_j_irreducible(lat: CrossSectionLattice) -> bool:
    """True when every nonzero entry has exponent |lambda_star| + 1."""
    return all(
        lat.is_zero(e) or e.torus_index_exponent == e.star_mask.bit_count() + 1
        for e in lat.entries
    )
