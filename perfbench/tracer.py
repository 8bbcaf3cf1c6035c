"""Span tracer for traced passes: wraps the package's layers from outside.

Every public function of each layer module is wrapped at every module
attribute that binds it (``orders.generate`` as well as ``weyl.generate``,
the check tuple ``verify.ALL_CHECKS``, the route table ``cli.FORMULAS``), and
the arithmetic operators of ``QPolynomial`` are wrapped on the class.  Spans
stay in memory and are written out when the pass ends; ``uninstall`` puts
every original object back.  Untraced passes never import this module.
"""

from __future__ import annotations

import functools
import json
import sys
from collections import defaultdict
from time import perf_counter

LAYERS = ("cli", "crosssection", "oracle", "orders", "qpoly", "rootsystem", "verify", "weyl")
QPOLY_OPERATORS = ("__add__", "__sub__", "__neg__", "__mul__", "__pow__")

# Inclusive-time metrics: metric name -> span name.
TIMED = {
    "weyl.generate_s": "weyl.generate",
    "weyl.parabolic_s": "weyl.parabolic",
    "weyl.coset_length_poly_s": "weyl.coset_length_poly",
    "qpoly.mul_s": "qpoly.__mul__",
    "qpoly.div_exact_s": "qpoly.div_exact",
    "qpoly.eval_big_s": "qpoly.eval_big",
    "rootsystem.build_s": "rootsystem.build",
    "rootsystem.connected_components_s": "rootsystem.connected_components",
    "rootsystem.positive_count_of_subset_s": "rootsystem.positive_count_of_subset",
    "crosssection.j_irreducible_lattice_s": "crosssection.j_irreducible_lattice",
    "orders.thm31_s": "orders.order_thm31",
    "orders.thm33_s": "orders.order_thm33",
    "orders.thm34_s": "orders.order_thm34",
    "orders.thm41_s": "orders.order_thm41",
    "orders.symplectic_order_s": "orders.symplectic_order",
    "orders.gl_strata_s": "orders.gl_strata",
    "orders.h_polynomial_s": "orders.h_polynomial",
    "oracle.count_subspaces_s": "oracle.count_subspaces",
    "oracle.enumerate_rank_histogram_s": "oracle.enumerate_rank_histogram",
}
VERIFY_CHECKS = (
    "pascal_recurrence",
    "solomon",
    "coset_identity",
    "rank_histograms",
    "subspace_counts",
    "formula_agreement",
    "symplectic_closed_form",
    "h_polynomials",
    "structural",
    "gl_strata_sum",
)
TIMED.update({f"verify.{c}_s": f"verify.check_{c}" for c in VERIFY_CHECKS})

# Call-count metrics: metric name -> span name.
CALLS = {
    "weyl.generate_calls": "weyl.generate",
    "weyl.parabolic_calls": "weyl.parabolic",
    "qpoly.mul_calls": "qpoly.__mul__",
    "qpoly.div_exact_calls": "qpoly.div_exact",
    "rootsystem.connected_components_calls": "rootsystem.connected_components",
    "rootsystem.positive_count_of_subset_calls": "rootsystem.positive_count_of_subset",
}
SELF_LAYERS = ("weyl", "qpoly", "rootsystem", "crosssection", "orders", "cli")
MAXIMA = ("qpoly.max_degree", "qpoly.max_coeff_bits")


def _max_bits(poly) -> int:
    return max((abs(c).bit_length() for c in poly.coeffs), default=0)


class Tracer:
    """Records (id, parent id, name, start, end, query id) for each wrapped call."""

    def __init__(self):
        self.spans: list[tuple[int, int, str, float, float, object]] = []
        self.counters: dict[str, int] = defaultdict(int)
        self.query: object = None
        self._stack = [0]
        self._next_id = 1
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, fn, name: str, count=None):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = self._next_id
            self._next_id = sid + 1
            parent = stack[-1]
            stack.append(sid)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans.append((sid, parent, name, start, end, self.query))
            if count is not None:
                count(args, result)
            return result

        return wrapper

    def _count_product(self, args, result) -> None:
        a, b = args
        c = self.counters
        c["qpoly.mul_coeff_products"] += len(a.coeffs) * len(b.coeffs)
        self._count_poly(args, result)

    def _count_poly(self, args, result) -> None:
        c = self.counters
        c["qpoly.max_degree"] = max(c["qpoly.max_degree"], result.degree)
        c["qpoly.max_coeff_bits"] = max(c["qpoly.max_coeff_bits"], _max_bits(result))

    def _count_group(self, args, result) -> None:
        self.counters["weyl.elements"] += len(result)

    def _count_lattice(self, args, result) -> None:
        self.counters["crosssection.entries"] += len(result.entries)

    def install(self, package: str = "monoid_orders") -> None:
        """Wrap every layer's public functions and the QPolynomial operators."""
        counters = {
            "weyl.generate": self._count_group,
            "weyl.parabolic": self._count_group,
            "qpoly.div_exact": self._count_poly,
            "crosssection.j_irreducible_lattice": self._count_lattice,
        }
        wrappers = {}
        for layer in LAYERS:
            module = sys.modules[f"{package}.{layer}"]
            for attr, obj in vars(module).items():
                if (
                    not attr.startswith("_")
                    and callable(obj)
                    and not isinstance(obj, type)
                    and getattr(obj, "__module__", None) == module.__name__
                ):
                    name = f"{layer}.{attr}"
                    wrappers[id(obj)] = self._wrap(obj, name, counters.get(name))

        def rebind(value):
            if id(value) in wrappers:
                return wrappers[id(value)]
            if isinstance(value, tuple) and any(id(v) in wrappers for v in value):
                return tuple(rebind(v) for v in value)
            if isinstance(value, dict) and any(id(v) in wrappers for v in value.values()):
                return {k: rebind(v) for k, v in value.items()}
            return value

        modules = [m for n, m in sys.modules.items() if n == package or n.startswith(package + ".")]
        for module in modules:
            for attr, obj in list(vars(module).items()):
                new = rebind(obj)
                if new is not obj:
                    self._patch(module, attr, new)
        poly_class = sys.modules[f"{package}.qpoly"].QPolynomial
        for op in QPOLY_OPERATORS:
            count = self._count_product if op == "__mul__" else None
            self._patch(poly_class, op, self._wrap(vars(poly_class)[op], f"qpoly.{op}", count))

    def _patch(self, owner, attr: str, new) -> None:
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def uninstall(self) -> None:
        """Put every original object back, in reverse order of patching."""
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def write(self, path: str) -> None:
        """Write the spans as JSON lines: [id, parent, name, start, end, query]."""
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def self_times(spans) -> dict[int, float]:
    """Span id -> its duration minus the time its child spans cover."""
    own = {sid: end - start for sid, _, _, start, end, _ in spans}
    for sid, parent, _, start, end, _ in spans:
        if parent in own:
            own[parent] -= end - start
    return own


def nesting_problems(spans) -> list[str]:
    """Child spans outside their parent's interval, and negative self times."""
    by_id = {s[0]: s for s in spans}
    problems = []
    for sid, parent, name, start, end, _ in spans:
        if parent in by_id:
            p = by_id[parent]
            if not (p[3] <= start <= end <= p[4]):
                problems.append(f"span {sid} {name} lies outside parent {parent} {p[2]}")
    for sid, own in self_times(spans).items():
        if own < 0:
            problems.append(f"span {sid} {by_id[sid][2]} has self time {own}")
    return problems


def scaled(spans, factors: dict) -> list:
    """The spans with each query's times in reference seconds: start and end
    times multiplied by that query's speed factor (see speed.py)."""
    return [(sid, parent, name, start * factors[q], end * factors[q], q) for sid, parent, name, start, end, q in spans]


def layer_metrics(tracer: Tracer, factors: dict) -> dict[str, float]:
    """Per-layer totals of one traced pass (without cli.output_bytes), in
    reference seconds with ``factors`` mapping each query to its speed factor."""
    spans = scaled(tracer.spans, factors)
    own = self_times(spans)
    inclusive: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    self_by_layer: dict[str, float] = defaultdict(float)
    names = {}
    for sid, _, name, start, end, _ in spans:
        inclusive[name] += end - start
        calls[name] += 1
        self_by_layer[name.split(".", 1)[0]] += own[sid]
        names[sid] = name
    metrics: dict[str, float] = {}
    for metric, name in TIMED.items():
        metrics[metric] = inclusive[name]
    for metric, name in CALLS.items():
        metrics[metric] = calls[name]
    for layer in SELF_LAYERS:
        metrics[f"{layer}.self_s"] = self_by_layer[layer]
    for counter in ("weyl.elements", "qpoly.mul_coeff_products", *MAXIMA, "crosssection.entries"):
        metrics[counter] = tracer.counters[counter]
    parents = {sid: parent for sid, parent, *_ in spans}
    scans = 0
    for sid, parent, name, *_ in spans:
        if name == "rootsystem.connected_components":
            while parent in parents and names[parent] != "crosssection.j_irreducible_lattice":
                parent = parents[parent]
            scans += parent in parents
    metrics["crosssection.useful_ratio"] = (
        metrics["crosssection.entries"] / scans if scans else 0.0
    )
    return metrics


def query_shares(spans, factors: dict) -> dict[object, dict[str, float]]:
    """Per query, in reference seconds: time of its cli.main span, each
    layer's self time, and the time spent in QPolynomial products."""
    spans = scaled(spans, factors)
    own = self_times(spans)
    out: dict[object, dict[str, float]] = defaultdict(lambda: defaultdict(float))
    for sid, _, name, start, end, query in spans:
        row = out[query]
        if name == "cli.main":
            row["query_s"] += end - start
        elif name == "qpoly.__mul__":
            row["qpoly.mul_s"] += end - start
        row[name.split(".", 1)[0]] += own[sid]
    return {q: dict(row) for q, row in out.items()}
