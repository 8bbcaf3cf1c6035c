"""A hypothesis strategy of cross-section lattices that validate accepts.

Each drawn lattice holds its zero and identity entries and up to four
more, whose lambda_star is any subset, whose lambda_substar is any subset
of the nodes neither in nor next to it, and whose exponents and labels are
drawn too: labels that JSON must escape, empty index sets and torus ranks
other than rank + 1 all come up.  About half the exponents follow the
|lambda_star| + 1 rule, so some lattices meet thm41's torus rule and some
do not.  Nothing here is checked against a real monoid: these are lattice
files that may describe none.
"""

from hypothesis import strategies as st

from monoid_orders.crosssection import CrossSectionLattice, validate
from monoid_orders.rootsystem import CartanType, build
from subdiagrams import entry, mask_of, nodes

TYPES = ["A1", "A2", "A3", "A4", "B2", "B3", "B4", "C3", "D4", "F4", "G2"]

labels = st.text(max_size=6) | st.sampled_from(['"', "\\", "a,b", "\x00\n", "é ☃ 😀"])


@st.composite
def validated_lattices(draw) -> CrossSectionLattice:
    rs = build(CartanType.parse(draw(st.sampled_from(TYPES))))
    delta = frozenset(range(1, rs.rank + 1))
    torus_rank = draw(st.just(rs.rank + 1) | st.integers(1, rs.rank + 2))
    # one drawn label, made distinct by a numeral past the first
    label = draw(labels)
    names = [label + (str(i) if i else "") for i in range(6)]
    entries = [
        entry(names[0], (), delta, 0),
        entry(names[1], delta, (), torus_rank),
    ]
    for label in names[2 : 2 + draw(st.integers(0, 4))]:
        star = nodes(draw(st.integers(0, mask_of(delta))))
        free = sorted(delta - star - {j for i in star for j in rs.neighbors(i)})
        substar = draw(st.sets(st.sampled_from(free))) if free else frozenset()
        if not star and substar == delta or star == delta:
            continue  # a second zero or identity entry
        ruled = len(star) + 1 if len(star) < torus_rank else torus_rank
        exponent = draw(st.just(ruled) | st.integers(1, torus_rank))
        entries.append(entry(label, star, substar, exponent))
    order = draw(st.permutations(entries))
    return validate(CrossSectionLattice(rs, tuple(order), torus_rank))
