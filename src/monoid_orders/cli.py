"""Command-line front end.

Subcommands: order, hpoly, strata, lattice, verify.  Exit codes: 0 success,
1 usage error, 2 computation error (running out of memory included), 3
verification failure, 141 (128 + SIGPIPE) when the reader closed stdout
before all output was written, as `| head` does; none of these exits
prints a traceback.  The environment variable
MONOID_ORDERS_ENUM_BOUND, ASCII decimal digits only as for --q, overrides
every enumeration bound, the lattice-size bound and the size bounds of
hpoly's Dynkin-chain sum, census and census sum included, but not
rootsystem.BUILD_CAP, which caps the root table's memory: a larger type is
a usage error, from lattice too, though lattice reads no root (rootsystem
enumerates on the first read).  --lattice-file takes neither --preset nor --j0;
the rank of --type and the indices of --j0 are ASCII decimal digits only
(rootsystem.parse_digits), as --q is.

order and strata evaluate each distinct row polynomial once per q, through
_evaluated: the order terms and total in every format (only csv prints the
terms' values), and every stratum.  Rows share a polynomial object where
their terms are equal (qpoly.expand_all gives one object per distinct
product).  A term or stratum is evaluated from the factored product it was
expanded from, the total by Horner over its coefficients, and at each q the
rows' values must sum to the total's: this ties the printed values to the
printed coefficients.  A value that is not positive, or a sum that differs,
raises InvariantViolation (exit 2), naming the first row in row order that
holds the value, or the q.  Printed values and coefficients are checked by
magnitude against Python's int-to-str digit limit (_check_magnitude) before
the first write, so one too long to print leaves stdout empty, and each
value is rendered by the writer that prints it.  One rule renders every
format: each row is rendered as it is written, each polynomial object's
text once, and the text is kept only for an object that two rows or more
hold, as _evaluated counts them once per report for _rendered, the order
table's and csv's helper, and for _write_json.  The strata sums as
polynomials are checked in orders, where the strata are built.  --format
json is exactly json.dumps(payload, indent=2) and a newline, for every
command, through _write_json, which writes each row (a lattice entry, an
order term, a stratum) when it is done, an entry from its index text, which
also gives the csv and table cells.  As every check runs first, only a
MemoryError or a closed pipe can stop a listing midway, leaving partial
output.  --format csv is exactly what csv.writer writes, for every command,
through _write_csv, which takes each row as its label and the rest of its
fields already joined (_term_fields for a polynomial row) and writes it with
one write, its label quoted as csv.writer would quote it.  The order and
lattice tables write their entry rows through _write_entry_rows.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from collections import Counter
from itertools import islice
from json.encoder import encode_basestring_ascii
from math import isqrt

from . import verify as verify_mod
from .crosssection import (
    CrossSectionLattice,
    LatticeEntry,
    j_irreducible_lattice,
    load_lattice,
)
from .errors import InvariantViolation, MonoidOrdersError, NotJIrreducible, UnsupportedType
from .orders import (
    ROUTES,
    OrderReport,
    all_orders,
    census_total,
    chain_total,
    gl_strata,
    h_polynomial,
    symplectic_order,
)
from .qpoly import QPolynomial, eval_big, is_palindromic
from .rootsystem import CartanType, build, parse_digits, parse_subset

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_COMPUTE = 2
EXIT_VERIFY = 3
EXIT_PIPE = 141  # what a shell reports for a tool that SIGPIPE killed


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


@functools.cache  # one parser per process: parse_args leaves it unchanged
def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="monoid-orders",
        description="Exact orders of finite reductive monoids with zero.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_lattice_source(p, with_preset=True):
        p.add_argument("--type", help="Cartan type, e.g. A3 or C4")
        if with_preset:
            p.add_argument(
                "--preset",
                choices=["last-fundamental", "first-fundamental"],
                help="weight support: last-fundamental means J0 = Delta \\ {alpha_l}",
            )
            p.add_argument("--j0", help="explicit weight-support set, e.g. 1,2")
            p.add_argument("--lattice-file", help="JSON lattice description")

    def add_q(p):
        p.add_argument(
            "--q",
            action="append",
            default=[],
            metavar="Q",
            help="prime power(s) to evaluate at; repeatable or comma list",
        )

    def add_format(p):
        p.add_argument(
            "--format", choices=["table", "csv", "json"], default="table"
        )

    p_order = sub.add_parser("order", help="per-entry terms and total order")
    add_lattice_source(p_order)
    add_q(p_order)
    p_order.add_argument(
        "--formula",
        choices=[*ROUTES, "all"],
        default="all",
        help="which order formula to use; 'all' cross-checks every route",
    )
    add_format(p_order)

    p_hpoly = sub.add_parser("hpoly", help="H-polynomial of the order")
    add_lattice_source(p_hpoly)
    add_format(p_hpoly)

    p_strata = sub.add_parser("strata", help="rank-stratum sizes")
    add_lattice_source(p_strata, with_preset=False)
    p_strata.add_argument(
        "--preset",
        choices=["last-fundamental", "first-fundamental"],
        required=True,
    )
    add_q(p_strata)
    add_format(p_strata)

    p_lattice = sub.add_parser("lattice", help="cross-section lattice table")
    add_lattice_source(p_lattice)
    add_format(p_lattice)

    sub.add_parser("verify", help="run every oracle cross-check")
    return parser


class _UsageError(Exception):
    pass


def _parse_qs(values: list[str]) -> list[int]:
    qs: list[int] = []
    for chunk in values:
        for part in chunk.split(","):
            try:
                q0 = parse_digits(part)
            except ValueError:
                raise _UsageError(f"bad q value {part!r}") from None
            if q0 in qs:
                raise _UsageError(f"q value {q0} is given twice")
            if q0 < 2:
                raise _UsageError(f"q values must be >= 2, got {q0}")
            if not _is_prime_power(q0):
                raise _UsageError(f"q values must be prime powers, got {q0}")
            qs.append(q0)
    return qs


# Miller-Rabin with these witnesses is exact below _CERTIFIED_BELOW, the
# least strong pseudoprime to all of them.
_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_CERTIFIED_BELOW = 3317044064679887385961981


def _is_prime(n: int) -> bool:
    """Exact below _CERTIFIED_BELOW; a larger n with no witness as a factor
    is a usage error, not a guess."""
    if n < 2:
        return False
    for p in _WITNESSES:
        if n % p == 0:
            return n == p
    if n >= _CERTIFIED_BELOW:
        raise _UsageError(
            f"cannot certify that {n} is prime: the primality test is exact"
            f" only below {_CERTIFIED_BELOW}"
        )
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _WITNESSES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _is_prime_power(n: int) -> bool:
    """True iff n = p^k for a prime p and k >= 1, without factoring n.  A k-th
    power to the power (p-1)/k is 0 or 1 modulo any prime p = 1 (mod k), so a
    few such p rule out most k before any exact root is taken."""
    limit = 1 << (64 * n.bit_length()).bit_length()
    flags = bytearray([0, 0]) + bytearray([1]) * (limit - 2)  # prime sieve
    for p in range(2, isqrt(limit) + 1):
        if flags[p]:
            flags[p * p :: p] = bytes(len(range(p * p, limit, p)))
    for k in range(n.bit_length(), 1, -1):
        primes = (p for p in range(k + 1, limit, k) if flags[p])
        if any(pow(n % p, (p - 1) // k, p) > 1 for p in islice(primes, 3)):
            continue
        lo, hi = 1, 1 << (n.bit_length() // k + 1)  # lo^k <= n < hi^k
        while hi - lo > 1:
            mid = (lo + hi) // 2
            lo, hi = (mid, hi) if mid**k <= n else (lo, mid)
        if lo**k == n:
            # the largest such k leaves a root that is no perfect power
            return _is_prime(lo)
    return _is_prime(n)  # k = 1, with n its own root


def _resolve_support(args) -> tuple[CartanType, frozenset[int]] | None:
    """The type and weight-support set J0 named by --type with --preset or
    --j0, or None for --lattice-file, which takes neither."""
    preset, j0_spec = args.preset, args.j0
    if args.lattice_file:
        if preset or j0_spec is not None:
            raise UnsupportedType("--lattice-file excludes --preset and --j0")
        return None
    if not args.type:
        raise UnsupportedType("--type is required without --lattice-file")
    ct = CartanType.parse(args.type)
    if preset and j0_spec is not None:
        raise UnsupportedType("--preset and --j0 are mutually exclusive")
    if j0_spec is not None:
        return ct, parse_subset(j0_spec, ct.rank)
    if preset:
        i = 1 if preset == "first-fundamental" else ct.rank
        return ct, frozenset(range(1, ct.rank + 1)) - {i}
    raise UnsupportedType("give one of --preset, --j0, or --lattice-file")


def _resolve_lattice(args, enum_bound: int | None, support):
    """The lattice of support, as _resolve_support gives it, or of the
    --lattice-file when support is None, on build(its type)."""
    if support is None:
        try:
            with open(args.lattice_file, encoding="utf-8") as fh:
                raw = json.load(fh)
        except OSError as exc:  # missing, a directory, unreadable
            raise MonoidOrdersError(str(exc)) from None
        except (ValueError, RecursionError) as exc:
            # not UTF-8 or not JSON (ValueError), or nested too deep to parse
            raise MonoidOrdersError(f"bad lattice file: {exc}") from None
        if not isinstance(raw, dict):
            raise InvariantViolation("lattice description must be a JSON object")
        type_spec = args.type or raw.get("type")
        if not type_spec:
            raise UnsupportedType("lattice file carries no type and --type not given")
        return load_lattice(build(CartanType.parse(str(type_spec))), raw)
    return j_irreducible_lattice(build(support[0]), support[1], enum_bound)


@functools.cache  # one power per limit
def _digit_bound(limit: int) -> int:
    return 10**limit


def _check_magnitude(magnitude: int, what: str, hint: str = "") -> None:
    """Raise _UsageError (exit 1) naming what, the limit and hint when str()
    of magnitude would pass Python's int-to-str digit limit (0: none), that
    is when it is at least 10^limit; the sign of a value is not counted."""
    limit = sys.get_int_max_str_digits()
    if limit and magnitude >= _digit_bound(limit):
        raise _UsageError(f"{what} has more than {limit} digits{hint}")


def _check_digits(polys) -> None:
    """Refuse a coefficient of polys past Python's digit limit (0: none)
    through _check_magnitude.  The largest magnitude of each object decides;
    an expanded QProduct has Mahler measure 1, so |c_i| <= C(d, i) < 2^d,
    and below degree 3.3 times the limit needs no scan."""
    limit = sys.get_int_max_str_digits()
    for poly in polys if limit else ():
        cs = poly.coeffs
        if cs and (poly._product is None or poly.degree >= 3.3 * limit):
            _check_magnitude(max(max(cs), -min(cs)), "a coefficient")


def _evaluated(rows, qs: list[int], printed=slice(None), total_coeffs=True) -> tuple:
    """Each distinct polynomial object of the (label, polynomial) rows
    evaluated once at each q0 of qs, q0 by q0, in row order; a value that
    is not positive raises InvariantViolation naming the first row that
    holds it.  The last row is the total, a sum that carries no product,
    so eval_big takes its value by Horner over its coefficients: at each
    q0 it must equal the sum of the other rows' values, one per row, or
    InvariantViolation names the q0.  Then the values of the rows picked by
    printed are checked against the digit limit in ascending q0 (one too
    long at q = 2 is named as such), and _check_digits checks every row,
    the total only if total_coeffs.  Returns how many rows hold each
    object and the values, {q0: value} in qs order, both by id."""
    polys = [poly for _, poly in rows]  # the total last
    held, distinct = Counter(map(id, polys)), dict(zip(map(id, polys), polys))
    values: dict[int, dict[int, int]] = {key: {} for key in held}
    for q0 in qs:
        for key, poly in distinct.items():
            values[key][q0] = value = eval_big(poly, q0)
            if value <= 0:
                label = next(label for label, row in rows if row is poly)
                raise InvariantViolation(f"term {label!r} is not positive at q={q0}")
        # every row's value, the total's included, sums to twice the total's
        if sum(values[k][q0] * n for k, n in held.items()) != 2 * values[id(polys[-1])][q0]:
            raise InvariantViolation(
                f"the rows' values do not sum to the value of the total's"
                f" coefficients at q={q0}"
            )
    shown = [values[key] for key in dict.fromkeys(map(id, polys[printed]))]
    for q0 in sorted(qs):
        # at q = 2 there is no smaller q to advise
        hint = " at q=2, the smallest q" if q0 == 2 else "; use a smaller --q"
        _check_magnitude(max(value[q0] for value in shown), "an evaluation", hint)
    _check_digits(distinct.values() if total_coeffs else polys[:-1])
    return held, values


def _rendered(rows, held: Counter, render):
    """(label, render(poly)) for each (label, poly) of rows, rendered at the
    first row that holds the object and kept for the later rows only when
    held counts it more than once: no other text outlives its row."""
    kept: dict[int, str] = {}
    for label, poly in rows:
        key = id(poly)
        if key in kept:
            yield label, kept[key]
        elif held[key] > 1:
            yield label, kept.setdefault(key, render(poly))
        else:
            yield label, render(poly)


def _write_json(obj, held: Counter, write) -> None:
    """Write exactly json.dumps(obj, indent=2) and a newline through write,
    for dicts with str keys, lists, str, int, bool and None, a QPolynomial as
    its coefficient list and a list of LatticeEntry as their to_json dicts;
    any other type raises TypeError.  Unlike json.dumps with an indent, it
    joins a list of ints at once, renders once per depth a QPolynomial that
    held, the report's count of rows by id, counts twice or more (the
    payload keeps each alive, so no id is reused; a wrong count costs
    renders or memory, never bytes), writes each entry from its index text
    with one write, and each item of any other list when it is done, never
    holding the whole document."""
    parts: list[str] = []
    texts: dict[tuple[int, str], str] = {}

    def ints(values, newline: str) -> str:
        inner = newline + "  "
        return f"[{inner}{f',{inner}'.join(map(str, values))}{newline}]" if values else "[]"

    def render(obj, newline: str) -> None:
        if isinstance(obj, str):
            parts.append(encode_basestring_ascii(obj))
        elif isinstance(obj, QPolynomial):
            key = id(obj), newline
            parts.append(texts.get(key) or ints(obj.coeffs, newline))
            if held[id(obj)] > 1:
                texts[key] = parts[-1]
        elif obj is None or isinstance(obj, bool):
            parts.append("null" if obj is None else "true" if obj else "false")
        elif isinstance(obj, int):
            parts.append(int.__repr__(obj))
        elif not isinstance(obj, (list, dict)):
            raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")
        elif not obj:
            parts.append("[]" if isinstance(obj, list) else "{}")
        elif isinstance(obj, dict):
            inner = newline + "  "
            for i, (key, value) in enumerate(obj.items()):
                if not isinstance(key, str):
                    raise TypeError(f"keys must be str, not {type(key).__name__}")
                parts.append(f"{',' if i else '{'}{inner}{encode_basestring_ascii(key)}: ")
                render(value, inner)
            parts.append(newline + "}")
        elif (kinds := set(map(type, obj))) == {int}:
            parts.append(ints(obj, newline))
        elif kinds == {LatticeEntry}:
            write("".join(parts))
            parts.clear()
            inner = newline + "  "
            field, index = inner + "  ", inner + "    "
            comma, head = "," + index, f'{inner}{{{field}"label": '
            star_key, sub_key, exponent_key = (
                f',{field}"{key}": '
                for key in ("lambda_star", "lambda_substar", "torus_index_exponent")
            )
            sep = "["
            for e in obj:
                star, sub = e.index_text
                star = f"[{index}{star.replace(',', comma)}{field}]" if star else "[]"
                sub = f"[{index}{sub.replace(',', comma)}{field}]" if sub else "[]"
                write(
                    f"{sep}{head}{encode_basestring_ascii(e.label)}{star_key}{star}"
                    f"{sub_key}{sub}{exponent_key}{e.torus_index_exponent}{inner}}}"
                )
                sep = ","
            parts.append(newline + "]")
        else:
            inner = newline + "  "
            for i, item in enumerate(obj):
                parts.append(("," if i else "[") + inner)
                render(item, inner)
                write("".join(parts))
                parts.clear()
            parts.append(newline + "]")

    render(obj, "\n")
    parts.append("\n")
    write("".join(parts))


def _lattice_json(lat: CrossSectionLattice) -> dict:
    """lat.to_json(), its entries left as LatticeEntry for _write_json."""
    head = {"type": str(lat.root_system.cartan_type), "torus_rank": lat.torus_rank}
    return head | {"provenance": lat.provenance, "entries": list(lat.entries)}


def _write_csv(header: list[str], rows) -> None:
    """Exactly what csv.writer(sys.stdout) writes for header and one row per
    (label, rest) pair, rest being the row's other fields already joined,
    none of which needs quotes: one write per row, the label quoted, its
    quotes doubled, when it holds a comma, a quote or a line break."""
    write = sys.stdout.write
    write(",".join(header) + "\r\n")
    for label, rest in rows:
        if "," in label or '"' in label or "\n" in label or "\r" in label:
            quoted = label.replace('"', '""')
            write(f'"{quoted}",{rest}\r\n')
        else:
            write(f"{label},{rest}\r\n")


def _term_fields(poly: QPolynomial, values: dict, qs: list[int]) -> str:
    """The coefficients separated by spaces, then the values at qs (by id in values)."""
    at = values[id(poly)]
    return ",".join([" ".join(map(str, poly.coeffs)), *(str(at[q0]) for q0 in qs)])


def _write_entry_rows(entries: tuple[LatticeEntry, ...], rows) -> None:
    """The order and lattice tables' rows, one write per entry of entries and
    (label, rest) pair of rows, two sequences since a list of a long lattice's
    pairs costs the collector more than writing them: the entry's label padded
    to the longest, its lambda* and lambda_* cells, then rest."""
    width = max(len(e.label) for e in entries)
    write = sys.stdout.write  # one write per row, where print makes two
    for e, (_, rest) in zip(entries, rows):
        star, substar = e.index_text
        write(
            f"  {e.label:<{width}}  lambda*={'{' + star + '}':<12}"
            f" lambda_*={'{' + substar + '}':<12}{rest}\n"
        )


def _cmd_order(args, enum_bound: int | None) -> int:
    support = _resolve_support(args)
    lat = _resolve_lattice(args, enum_bound, support)
    qs = _parse_qs(args.q)
    # a route the bound or the weight-support rule stops maps to its
    # exception: thm34 needs neither, so 'all' still cross-checks what
    # remains, and a route asked for alone raises it
    routes = ROUTES if args.formula == "all" else (args.formula,)
    results = all_orders(lat, enum_bound=enum_bound, routes=routes)
    # a weight-support lattice keeps thm41's rule by construction; a file need not
    if support is not None and isinstance(thm41 := results.get("thm41"), NotJIrreducible):
        raise InvariantViolation(f"the weight-support lattice of {support[0]}: {thm41}")
    reports = {n: r for n, r in results.items() if isinstance(r, OrderReport)}
    if not reports:
        raise results[args.formula]
    # the totals, then each entry's terms, as verify compares them: swapped
    # terms keep the total; the routes that share all_orders' expansion hold
    # one object per term, equal without hashing its coefficients
    checks = [(None, [r.total for r in reports.values()])]
    for row in zip(*(r.terms for r in reports.values())):
        checks.append((row[0][0], [term for _, term in row]))
    for label, values in checks:
        if len(set(map(id, values))) > 1 and len(set(values)) > 1:
            where = "" if label is None else f" at entry {label!r}"
            print(f"formula disagreement{where}:", file=sys.stderr)
            for name, value in zip(reports, values):
                print(f"  {name}: {value}", file=sys.stderr)
            return EXIT_VERIFY
    primary = list(reports.values())[-1]
    # A_{n-1} with J0 = Delta - {1} is the matrix monoid M_n, of order q^(n^2)
    n = support[0].rank + 1 if support and support[0].family == "A" else 0
    if n and support[1] == {*range(2, n)} and primary.total != QPolynomial.monomial(n * n):
        raise InvariantViolation(f"the A{n - 1} omega_1 total is not |M_{n}| = q^{n * n}")
    # the printed report also carries what the other routes skipped
    notes = list(primary.notes)
    for name, result in results.items():
        if name not in reports:
            notes.append(f"skipped {name} ({type(result).__name__})")
        elif result is not primary:
            notes += [n for n in result.notes if n not in notes]
    primary = primary.replace(notes=tuple(notes))
    # every term is checked at every q, and their sum against the total; the
    # digit check of every row's value refuses what the total's alone would,
    # as positive terms that sum to the total are never longer than it
    rows = [*primary.terms, ("total", primary.total)]
    held, values = _evaluated(rows, qs)
    agreed = list(reports) if args.formula == "all" else None
    if args.format == "json":
        payload = {
            "formula": primary.formula,
            "type": str(primary.cartan_type),
            "lattice": _lattice_json(primary.lattice),
            "terms": [{"label": label, "coeffs": term} for label, term in primary.terms],
            "total_coeffs": primary.total,
            "evaluations": {str(q0): str(v) for q0, v in values[id(primary.total)].items()},
            "notes": list(primary.notes),
        }
        if agreed is not None:
            payload["agreement"] = agreed
        _write_json(payload, held, sys.stdout.write)
    elif args.format == "csv":
        qs = sorted(qs)  # by ascending q
        header = ["label", "coeffs", *(f"q={q0}" for q0 in qs)]
        _write_csv(header, _rendered(rows, held, lambda t: _term_fields(t, values, qs)))
    else:
        print(f"type {primary.cartan_type}  formula {primary.formula}")
        for note in primary.notes:
            print(f"note: {note}")
        # each term's text and its cells' gap; the total, past the last entry, is not taken
        _write_entry_rows(primary.lattice.entries, _rendered(rows, held, lambda t: f"  {t}"))
        print(f"total: {primary.total}")
        for q0, value in values[id(primary.total)].items():
            print(f"q={q0}: {value}")
        if agreed is not None:
            print(f"{len(agreed)} formulas agree")
    return EXIT_OK


def _cmd_hpoly(args, enum_bound: int | None) -> int:
    # thm34's total, with no lattice listed for a --type support: type A
    # with J0 = {} summed along its Dynkin chain, any other support over its
    # census keys; a --lattice-file by the listed thm34 route
    support = _resolve_support(args)
    if support is None:
        lat = _resolve_lattice(args, enum_bound, support)
        report = all_orders(lat, routes=("thm34",))["thm34"]
    elif support[0].family == "A" and not support[1]:
        report = chain_total(build(support[0]), enum_bound)
    else:
        report = census_total(build(support[0]), support[1], enum_bound)
    _print_hpoly(report, args.format)
    return EXIT_OK


def _print_hpoly(report: OrderReport, fmt: str) -> None:
    h = h_polynomial(report.total)
    palindromic = is_palindromic(h)
    _check_digits([h])
    if fmt == "json":
        payload = {"type": str(report.cartan_type), "h_coeffs": h}
        payload |= {"palindromic": palindromic, "notes": list(report.notes)}
        _write_json(payload, Counter(), sys.stdout.write)
    elif fmt == "csv":
        rows = ((str(p), str(c)) for p, c in enumerate(h.coeffs))
        _write_csv(["power", "coefficient"], rows)
    else:
        print(f"type {report.cartan_type}  H-polynomial of the order")
        for note in report.notes:
            print(f"note: {note}")
        print(f"coefficients ({len(h.coeffs)}): {' '.join(map(str, h.coeffs))}")
        print(f"H(q) = {h}")
        print(f"palindromic: {'yes' if palindromic else 'no'}")


def _strata_rows(args) -> tuple[str, list[tuple[str, QPolynomial]], QPolynomial]:
    """Title, stratum rows and their sum, from the producer in orders that
    builds and checks the strata of the type and preset."""
    if not args.type:
        raise UnsupportedType("--type is required")
    ct = CartanType.parse(args.type)
    if args.preset == "first-fundamental" and ct.family == "A":
        n = ct.rank + 1
        rows = [(f"M^{r}", term) for r, term in enumerate(gl_strata(n))]
        return f"matrix monoid M_{n}", rows, QPolynomial.monomial(n * n)
    if args.preset == "last-fundamental" and ct.family == "C":
        report = symplectic_order(ct.rank)
        title = f"symplectic monoid on 2*{ct.rank} dimensions"
        return title, list(report.terms), report.total
    raise UnsupportedType(
        "strata formulas cover type A with first-fundamental and "
        "type C with last-fundamental"
    )


def _cmd_strata(args) -> int:
    title, rows, total = _strata_rows(args)
    qs = _parse_qs(args.q)
    # the total's values are checked at every q, not printed; nor is its csv row
    held, values = _evaluated([*rows, ("total", total)], qs, slice(-1), args.format != "csv")
    if args.format == "json":
        strata = [
            {
                "label": label,
                "coeffs": term,
                "evaluations": {str(q0): str(v) for q0, v in values[id(term)].items()},
            }
            for label, term in rows
        ]
        _write_json({"strata": strata, "total_coeffs": total}, held, sys.stdout.write)
    elif args.format == "csv":  # in --q order
        header = ["label", "coeffs", *(f"q={q0}" for q0 in qs)]
        _write_csv(header, _rendered(rows, held, lambda t: _term_fields(t, values, qs)))
    else:
        print(title)
        for label, term in rows:
            shown = "".join(f"  q={q0}: {v}" for q0, v in values[id(term)].items())
            print(f"  {label:<8} {term}{shown}")
        print(f"total: {total}")
    return EXIT_OK


def _cmd_lattice(args, enum_bound: int | None) -> int:
    lat = _resolve_lattice(args, enum_bound, _resolve_support(args))
    if args.format == "json":
        _write_json(_lattice_json(lat), Counter(), sys.stdout.write)
    elif args.format == "csv":  # the index texts print their commas as spaces
        header = ["label", "lambda_star", "lambda_substar", "torus_index_exponent"]
        rows = (
            (e.label, f"{star.replace(',', ' ')},{substar.replace(',', ' ')},"
             f"{e.torus_index_exponent}")
            for e in lat.entries
            for star, substar in (e.index_text,)
        )
        _write_csv(header, rows)
    else:
        print(
            f"type {lat.root_system.cartan_type}  "
            f"torus rank {lat.torus_rank}  ({lat.provenance})"
        )
        tails = ((e.label, f" [T:T(e)]=(q-1)^{e.torus_index_exponent}") for e in lat.entries)
        _write_entry_rows(lat.entries, tails)
    return EXIT_OK


def _cmd_verify(enum_bound: int | None) -> int:
    results = verify_mod.run_all(enum_bound)
    for res in results:
        status = "skip" if res.skipped else "ok  " if res.ok else "FAIL"
        print(f"{status} {res.name}: {res.detail}")
    passed = sum(res.ok for res in results)
    skipped = sum(res.skipped for res in results)
    print(
        f"{passed}/{len(results)} checks passed"
        + (f", {skipped} skipped" if skipped else "")
    )
    return EXIT_OK if passed + skipped == len(results) else EXIT_VERIFY


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE

    enum_bound: int | None = None
    env = os.environ.get("MONOID_ORDERS_ENUM_BOUND")
    if env:
        try:
            enum_bound = parse_digits(env)
        except ValueError:
            print(
                f"error: MONOID_ORDERS_ENUM_BOUND={env!r} is not an integer",
                file=sys.stderr,
            )
            return EXIT_USAGE

    try:
        if args.command == "order":
            return _cmd_order(args, enum_bound)
        if args.command == "hpoly":
            return _cmd_hpoly(args, enum_bound)
        if args.command == "strata":
            return _cmd_strata(args)
        if args.command == "lattice":
            return _cmd_lattice(args, enum_bound)
        return _cmd_verify(enum_bound)
    except (_UsageError, UnsupportedType) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except MonoidOrdersError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_COMPUTE
    except MemoryError as exc:  # the interpreter's own carries no message
        detail = f": {exc}" if str(exc) else ""
        print(f"error: out of memory{detail}", file=sys.stderr)
        return EXIT_COMPUTE


def run_main() -> None:
    try:
        code = main()
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed stdout early (as `| head` does): send what is
        # left to devnull so the interpreter's last flush cannot raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = EXIT_PIPE
    sys.exit(code)


if __name__ == "__main__":
    run_main()
