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
from monoid_orders.orders import ROUTES, all_orders
from monoid_orders.qpoly import eval_big
from lattices import validated_lattices
from routes import route


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
    reports = [route(lat, "thm31"), route(lat, "thm33"), route(lat, "thm34")]
    assert [label for label, _ in reports[0].terms] == [e.label for e in lat.entries]
    assert reports[0].terms == reports[1].terms == reports[2].terms
    total = reports[0].total
    assert reports[1].total == reports[2].total == total
    # |M|(1) = 1, and the totals are positive at small q
    assert sum(total.coeffs) == 1
    assert all(eval_big(total, q0) > 0 for q0 in (2, 3, 4))
    # all_orders gives each route the report of that route run alone
    every = all_orders(lat)
    assert list(every) == list(ROUTES)
    for name, report in zip(ROUTES, reports):
        assert every[name] == report, name
    # thm41 runs exactly when the lattice meets its torus rule, alone or
    # with the others
    if is_j_irreducible(lat):
        thm41 = route(lat, "thm41")
        assert thm41.terms == reports[0].terms
        assert every["thm41"] == thm41
    else:
        with pytest.raises(NotJIrreducible):
            route(lat, "thm41")
        assert isinstance(every["thm41"], NotJIrreducible)
    # the lattice file lists back as json.dumps writes its description
    expected = json.dumps(lat.to_json(), indent=2) + "\n"
    assert listed_json(lat) == (0, expected, "")
