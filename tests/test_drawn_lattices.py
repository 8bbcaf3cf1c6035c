"""The order routes and the lattice listing on drawn lattices (lattices.py)."""

import contextlib
import io
import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings

from monoid_orders import cli
from monoid_orders.crosssection import is_j_irreducible
from monoid_orders.errors import NotJIrreducible
from monoid_orders.orders import order_thm31, order_thm33, order_thm34, order_thm41
from monoid_orders.qpoly import eval_big
from lattices import validated_lattices


def listed_json(lat) -> tuple[int, str, str]:
    """lattice --format json on lat, given as a lattice file."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "lattice.json"
        path.write_text(json.dumps(lat.to_json()), encoding="utf-8")
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(["lattice", "--lattice-file", str(path), "--format", "json"])
    return code, out.getvalue(), err.getvalue()


@settings(deadline=None)
@given(validated_lattices())
def test_routes_and_listing_on_drawn_lattices(lat):
    # thm31, thm33 and thm34 agree term by term, in entry order
    reports = [order_thm31(lat), order_thm33(lat), order_thm34(lat)]
    assert [label for label, _ in reports[0].terms] == [e.label for e in lat.entries]
    assert reports[0].terms == reports[1].terms == reports[2].terms
    total = reports[0].total
    assert reports[1].total == reports[2].total == total
    # |M|(1) = 1, and the totals are positive at small q
    assert sum(total.coeffs) == 1
    assert all(eval_big(total, q0) > 0 for q0 in (2, 3, 4))
    # thm41 runs exactly when the lattice meets its torus rule
    if is_j_irreducible(lat):
        assert order_thm41(lat).terms == reports[0].terms
    else:
        with pytest.raises(NotJIrreducible):
            order_thm41(lat)
    # the lattice file lists back as json.dumps writes its description
    expected = json.dumps(lat.to_json(), indent=2) + "\n"
    assert listed_json(lat) == (0, expected, "")
