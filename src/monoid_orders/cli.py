"""Command-line front end.

Subcommands: order, hpoly, strata, lattice, verify.  Exit codes: 0 success,
1 usage error, 2 computation error (running out of memory included), 3
verification failure, 141 (128 + SIGPIPE) when the reader closed stdout
before all output was written, as `| head` does; none of these exits
prints a traceback.  The environment variable
MONOID_ORDERS_ENUM_BOUND, ASCII decimal digits only as for --q, overrides
every enumeration bound, the lattice-size bound and the size bound of
hpoly's Dynkin-chain sum included, but not rootsystem.BUILD_CAP, which caps
the root table's memory: a larger type is a usage error.  --lattice-file
takes neither --preset nor --j0.

order and strata evaluate each row once per q, through _evaluated: the
order terms and total in every format (only csv prints the terms' values),
and every stratum.  A value that is not positive raises InvariantViolation
(exit 2).  The printed values are formatted before the first write, so a
value too long to print leaves stdout empty.  The strata sums are checked
in orders, where the strata are built.  --format json prints exactly what
json.dumps(payload, indent=2) would, through _json_text.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import os
import sys
from itertools import islice
from json.encoder import encode_basestring_ascii
from math import isqrt

from . import verify as verify_mod
from .crosssection import CrossSectionLattice, j_irreducible_lattice, load_lattice
from .errors import (
    GroupTooLarge,
    InvariantViolation,
    MonoidOrdersError,
    NotJIrreducible,
    UnsupportedType,
)
from .orders import (
    OrderReport,
    chain_total,
    gl_strata,
    h_polynomial,
    order_thm31,
    order_thm33,
    order_thm34,
    order_thm41,
    symplectic_order,
)
from .qpoly import QPolynomial, eval_big, is_palindromic
from .rootsystem import CartanType, build, parse_subset

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_COMPUTE = 2
EXIT_VERIFY = 3
EXIT_PIPE = 141  # what a shell reports for a tool that SIGPIPE killed

FORMULAS = {
    "thm31": order_thm31,
    "thm33": order_thm33,
    "thm34": order_thm34,
    "thm41": order_thm41,
}


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
        choices=[*FORMULAS, "all"],
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


def _parse_digits(text: str) -> int:
    """text as an int if it is ASCII decimal digits only, else ValueError:
    int() alone would take "-5", "1_6", " 2" and non-ASCII digits."""
    if not (text.isascii() and text.isdigit()):
        raise ValueError(text)
    return int(text)  # ValueError past Python's str-to-int digit limit


def _parse_qs(values: list[str]) -> list[int]:
    qs: list[int] = []
    for chunk in values:
        for part in chunk.split(","):
            try:
                q0 = _parse_digits(part)
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


def _resolve_lattice(args, enum_bound: int | None, support) -> CrossSectionLattice:
    """The lattice of support, as _resolve_support gives it, or of the
    --lattice-file when support is None."""
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
        rs = build(CartanType.parse(str(type_spec)))
        return load_lattice(rs, raw)
    return j_irreducible_lattice(build(support[0]), support[1], enum_bound)


def _decimal(value: int) -> str:
    try:
        return str(value)
    except ValueError:  # past Python's int-to-str digit limit
        raise _UsageError(
            f"an evaluation has more than {sys.get_int_max_str_digits()} digits;"
            " use a smaller --q"
        ) from None


def _evaluated(
    rows: list[tuple[str, QPolynomial]], qs: list[int], printed: slice = slice(None)
) -> list[dict[int, str]]:
    """Each (label, polynomial) row evaluated once at each q0 of qs, q0 by
    q0; a value that is not positive raises InvariantViolation.  The rows
    picked by printed come back as {q0: decimal}, all formatted before the
    first write, so a value too long to print leaves stdout empty."""
    values = [{} for _ in rows]
    for q0 in qs:
        for (label, poly), row in zip(rows, values):
            row[q0] = value = eval_big(poly, q0)
            if value <= 0:
                raise InvariantViolation(f"term {label!r} is not positive at q={q0}")
    return [{q0: _decimal(v) for q0, v in row.items()} for row in values[printed]]


def _json_text(obj) -> str:
    """Exactly json.dumps(obj, indent=2) for the types the to_json payloads
    hold: dict with str keys, list, str, int, bool and None; any other type
    raises TypeError.  json.dumps with an indent runs the pure-Python
    encoder, so this renders a list of ints with one join instead."""
    parts: list[str] = []
    _json_parts(obj, "\n", parts)
    return "".join(parts)


def _json_parts(obj, newline: str, parts: list[str]) -> None:
    if isinstance(obj, str):
        parts.append(encode_basestring_ascii(obj))
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
            _json_parts(value, inner, parts)
        parts.append(newline + "}")
    elif set(map(type, obj)) == {int}:
        inner = newline + "  "
        parts.append(f"[{inner}{f',{inner}'.join(map(str, obj))}{newline}]")
    else:
        inner = newline + "  "
        for i, item in enumerate(obj):
            parts.append(("," if i else "[") + inner)
            _json_parts(item, inner, parts)
        parts.append(newline + "]")


def _subset_str(indices) -> str:
    return "{" + ",".join(str(i) for i in sorted(indices)) + "}"


def _print_order_table(
    report: OrderReport, agreed: list[str] | None, values: dict[int, str]
) -> None:
    print(f"type {report.cartan_type}  formula {report.formula}")
    for note in report.notes:
        print(f"note: {note}")
    entries = {e.label: e for e in report.lattice.entries}
    width = max(len(label) for label, _ in report.terms)
    for label, term in report.terms:
        entry = entries[label]
        print(
            f"  {label:<{width}}  lambda*={_subset_str(entry.lambda_star):<12}"
            f" lambda_*={_subset_str(entry.lambda_substar):<12}  {term}"
        )
    print(f"total: {report.total}")
    for q0, value in values.items():
        print(f"q={q0}: {value}")
    if agreed is not None:
        print(f"{len(agreed)} formulas agree")


def _print_csv(
    rows: list[tuple[str, QPolynomial]], values: list[dict[int, str]], qs: list[int]
) -> None:
    writer = csv.writer(sys.stdout)
    writer.writerow(["label", "coeffs"] + [f"q={q0}" for q0 in qs])
    for (label, poly), row in zip(rows, values):
        writer.writerow([label, " ".join(map(str, poly.coeffs)), *(row[q0] for q0 in qs)])


def _cmd_order(args, enum_bound: int | None) -> int:
    lat = _resolve_lattice(args, enum_bound, _resolve_support(args))
    qs = _parse_qs(args.q)
    selected = list(FORMULAS) if args.formula == "all" else [args.formula]
    reports: dict[str, OrderReport] = {}
    skipped: dict[str, str] = {}
    for name in selected:
        fn = FORMULAS[name]
        try:
            if name in ("thm31", "thm33"):
                reports[name] = fn(lat, enum_bound=enum_bound)
            else:
                reports[name] = fn(lat)
        except (NotJIrreducible, GroupTooLarge) as exc:
            # thm34 needs neither enumeration nor the weight-support rule,
            # so 'all' can still cross-check whatever routes remain
            if args.formula == "all":
                skipped[name] = type(exc).__name__
            else:
                raise
    # the totals, then each entry's terms, as verify compares them: swapped
    # terms keep the total
    checks = [("", [r.total for r in reports.values()])]
    for row in zip(*(r.terms for r in reports.values())):
        checks.append((f" at entry {row[0][0]!r}", [term for _, term in row]))
    for where, values in checks:
        if len(set(values)) > 1:
            print(f"formula disagreement{where}:", file=sys.stderr)
            for name, value in zip(reports, values):
                print(f"  {name}: {value}", file=sys.stderr)
            return EXIT_VERIFY
    primary = reports[[name for name in selected if name in reports][-1]]
    # the printed report also carries what the other routes skipped
    notes = list(primary.notes)
    for name in selected:
        if name in skipped:
            notes.append(f"skipped {name} ({skipped[name]})")
        elif reports[name] is not primary:
            notes += [n for n in reports[name].notes if n not in notes]
    primary = primary.replace(notes=tuple(notes))
    # every term is checked at every q; only csv prints the terms' values
    rows = [*primary.terms, ("total", primary.total)]
    values = _evaluated(rows, qs, slice(None if args.format == "csv" else -1, None))
    agreed = list(reports) if args.formula == "all" else None
    if args.format == "json":
        payload = primary.to_json(values[-1])
        if agreed is not None:
            payload["agreement"] = agreed
        print(_json_text(payload))
    elif args.format == "csv":
        _print_csv(rows, values, sorted(qs))  # by ascending q
    else:
        _print_order_table(primary, agreed, values[-1])
    return EXIT_OK


def _cmd_hpoly(args, enum_bound: int | None) -> int:
    # thm34's total: type A with J0 = {} summed along its Dynkin chain with
    # no lattice listed, any other lattice by order_thm34
    support = _resolve_support(args)
    if support and support[0].family == "A" and not support[1]:
        report = chain_total(build(support[0]), enum_bound)
    else:
        report = order_thm34(_resolve_lattice(args, enum_bound, support))
    _print_hpoly(report, args.format)
    return EXIT_OK


def _print_hpoly(report: OrderReport, fmt: str) -> None:
    h = h_polynomial(report.total)
    palindromic = is_palindromic(h)
    if fmt == "json":
        print(
            _json_text(
                {
                    "type": str(report.cartan_type),
                    "h_coeffs": h.to_json(),
                    "palindromic": palindromic,
                    "notes": list(report.notes),
                }
            )
        )
    elif fmt == "csv":
        writer = csv.writer(sys.stdout)
        writer.writerow(["power", "coefficient"])
        writer.writerows(enumerate(h.coeffs))
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
    values = _evaluated(rows, qs)  # formatted before the first write
    if args.format == "json":
        print(
            _json_text(
                {
                    "strata": [
                        {
                            "label": label,
                            "coeffs": term.to_json(),
                            "evaluations": {str(q0): v for q0, v in row.items()},
                        }
                        for (label, term), row in zip(rows, values)
                    ],
                    "total_coeffs": total.to_json(),
                }
            )
        )
    elif args.format == "csv":
        _print_csv(rows, values, qs)
    else:
        print(title)
        for (label, term), row in zip(rows, values):
            shown = "".join(f"  q={q0}: {v}" for q0, v in row.items())
            print(f"  {label:<8} {term}{shown}")
        print(f"total: {total}")
    return EXIT_OK


def _cmd_lattice(args, enum_bound: int | None) -> int:
    lat = _resolve_lattice(args, enum_bound, _resolve_support(args))
    if args.format == "json":
        print(_json_text(lat.to_json()))
    elif args.format == "csv":
        writer = csv.writer(sys.stdout)
        writer.writerow(
            ["label", "lambda_star", "lambda_substar", "torus_index_exponent"]
        )
        for e in lat.entries:
            writer.writerow(
                [
                    e.label,
                    " ".join(map(str, sorted(e.lambda_star))),
                    " ".join(map(str, sorted(e.lambda_substar))),
                    e.torus_index_exponent,
                ]
            )
    else:
        print(
            f"type {lat.root_system.cartan_type}  "
            f"torus rank {lat.torus_rank}  ({lat.provenance})"
        )
        width = max(len(e.label) for e in lat.entries)
        for e in lat.entries:
            print(
                f"  {e.label:<{width}}  lambda*={_subset_str(e.lambda_star):<12}"
                f" lambda_*={_subset_str(e.lambda_substar):<12}"
                f" [T:T(e)]=(q-1)^{e.torus_index_exponent}"
            )
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
            enum_bound = _parse_digits(env)
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
