"""Command-line front end.

Every invocation produces a single self-describing report document;
the default output is a plain-text rendering and ``--json`` emits the
canonical JSON serialisation (sorted keys, fixed separators), which is
byte-stable for identical inputs and tool version.

Exit codes: 0 success, 2 parse/input error, 3 mathematical validation
failure, 4 unsupported configuration.  The default scan bound for
Diophantine searches is 1000, overridable with the environment
variable NILCOHOM_SCAN_BOUND or ``--scan``; a value that is not a
positive integer exits 2.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from fractions import Fraction

from . import __version__
from .catalog import (
    builtin_catalog,
    lattice_from_document,
    load_catalog_file,
    load_lattice_file,
    resolve_algebra,
    resolve_complex_structure,
    validate_entry,
)
from .cxstruct import (
    conjecture_status,
    hodge_table,
    is_integrable,
    span_of_frame,
)
from .errors import (
    NilcohomError,
    ParseError,
    PrecisionUnavailable,
    StructureError,
    UnsupportedError,
    input_errors_as_parse_error,
)
from .exact.linalg import Subspace
from .formats import convergent_family, load_json
from .liealg import (
    betti_numbers,
    check_letter_count,
    commutator_ideal,
    lower_central_series,
    pretty_structure_equations,
)
from .toroidal import (
    DEFAULT_SCAN_BOUND,
    period_data_from_document,
    remmert_morimoto,
    theta_classify,
    toroidal_normalize,
)

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_MATH = 3
EXIT_UNSUPPORTED = 4


def _positive_scan_bound(value, source) -> int:
    try:
        bound = int(value)
    except ValueError:
        bound = 0
    if bound <= 0:
        raise ParseError(f"{source} must be a positive integer, got {value!r}")
    return bound


def default_scan_bound() -> int:
    """NILCOHOM_SCAN_BOUND when set, else the built-in default."""
    text = os.environ.get("NILCOHOM_SCAN_BOUND")
    if text is None:
        return DEFAULT_SCAN_BOUND
    return _positive_scan_bound(text, "NILCOHOM_SCAN_BOUND")


def scan_bound(args) -> int:
    """The scan bound of a command: ``--scan``, else the default."""
    if args.scan is None:
        return default_scan_bound()
    return _positive_scan_bound(args.scan, "--scan")


def jsonable(x):
    if isinstance(x, dict):
        return {str(k): jsonable(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [jsonable(v) for v in x]
    if isinstance(x, bool) or x is None:
        return x
    if isinstance(x, int):
        return x
    if isinstance(x, float):
        return x
    if isinstance(x, Fraction):
        return str(x)
    return str(x)


def emit(report, lines, as_json) -> None:
    if as_json:
        sys.stdout.write(json.dumps(jsonable(report), sort_keys=True,
                                    indent=2) + "\n")
    else:
        sys.stdout.write("\n".join(lines) + "\n")


def make_report(command, inputs, results):
    return {"tool": "nilcohom", "version": __version__,
            "command": command, "inputs": inputs, "results": results}


def _format_class(cls):
    return "infinite" if cls is math.inf else cls


def require_integrable(J) -> None:
    """Refuse a non-integrable J, naming its Nijenhuis witness: the
    paper's statements are about complex nilmanifolds."""
    if not is_integrable(J):
        pair, value = J.witness
        raise UnsupportedError(
            f"complex structure is not integrable: Nijenhuis tensor "
            f"nonzero on basis pair {pair}: "
            f"({', '.join(str(x) for x in value)})")


# ---------------------------------------------------------------------------
# subcommands


def cmd_check(args) -> int:
    g, entry = resolve_algebra(args.algebra)
    chain, cls = lower_central_series(g)
    comm = commutator_ideal(g)
    results = {
        "dimension": g.n,
        "jacobi": "ok",
        "nilpotent": cls is not math.inf,
        "class": _format_class(cls),
        "lower_central_dims": [s.dim for s in chain],
        "commutator_dim": comm.dim,
        "canonical_form": pretty_structure_equations(g),
    }
    lines = [
        f"algebra: {args.algebra}",
        f"dimension: {g.n}",
        "jacobi: ok",
        f"nilpotent: {'yes' if results['nilpotent'] else 'no'}"
        f" (class {results['class']})",
        "lower central series dims: "
        + " > ".join(str(d) for d in results["lower_central_dims"]),
        f"commutator dim: {comm.dim}",
    ]
    emit(make_report("check", {"algebra": args.algebra}, results), lines,
         args.json)
    return EXIT_OK


def cmd_cohomology(args) -> int:
    g, entry = resolve_algebra(args.algebra)
    inputs = {"algebra": args.algebra, "J": args.J}
    results = {}
    lines = [f"algebra: {args.algebra}"]
    want_hodge = args.dolbeault or args.hodge_table or (
        args.J is not None and not args.de_rham)
    want_betti = args.de_rham or not want_hodge
    if want_betti:
        b = betti_numbers(g)
        results["betti"] = b
        lines.append("betti: [" + ", ".join(str(x) for x in b) + "]")
    if want_hodge:
        if args.J is None:
            raise ParseError("a hodge table needs --J")
        check_letter_count(g.n)
        J = resolve_complex_structure(g, args.J)
        require_integrable(J)
        table = hodge_table(J)
        results["hodge_table"] = [list(r) for r in table]
        m = g.n // 2
        lines.append("hodge table h^{p,q} (rows p = 0.."
                     f"{m}, columns q = 0..{m}):")
        for row in table:
            lines.append("  " + " ".join(f"{x:>3}" for x in row))
    emit(make_report("cohomology", inputs, results), lines, args.json)
    return EXIT_OK


def cmd_toroidal(args) -> int:
    scan = scan_bound(args)
    source = (convergent_family(args.convergents) if args.convergents
              else None)
    pd = period_data_from_document(load_json(args.period_file, "period"))
    nf = toroidal_normalize(pd)
    rm = remmert_morimoto(nf)
    results = {
        "dimension": pd.n,
        "lattice_rank": pd.m,
        "normal_form": {
            "zero_rows": nf.a,
            "glueing_rows": nf.k,
            "rank": nf.q,
            "R": [[str(x) for x in row] for row in nf.R.rows],
            "P": [[str(x) for x in row] for row in nf.P.rows],
        },
        "remmert_morimoto": {"a": rm.a, "b": rm.b,
                             "toroidal_dim": rm.toroidal_dim},
    }
    lines = [
        f"period file: {args.period_file}",
        f"dimension: {pd.n}, lattice rank: {pd.m}",
        f"normal form: a={nf.a} zero rows, k={nf.k} glueing rows, "
        f"rank q={nf.q}",
        "glueing matrix R: "
        + ("; ".join(", ".join(str(x) for x in row) for row in nf.R.rows)
           or "(empty)"),
        "torus period P: "
        + ("; ".join(", ".join(str(x) for x in row) for row in nf.P.rows)
           or "(empty)"),
        f"splitting: C^{rm.a} x (C*)^{rm.b} x "
        + (f"toroidal(dim {rm.toroidal_dim})" if rm.toroidal_dim
           else "(nothing)"),
    ]
    verdict = theta_classify(nf.R, pd.param_spec, scan_bound=scan,
                             convergent_source=source)
    results["verdict"] = verdict.as_dict()
    lines.append(f"verdict: {verdict!r}")
    emit(make_report("toroidal",
                     {"period_file": args.period_file, "scan": scan,
                      "convergents": args.convergents},
                     results), lines, args.json)
    return EXIT_OK


@input_errors_as_parse_error("basis index list")
def _parse_basis_arg(text, field, n):
    vecs = []
    for tok in text.split(","):
        tok = tok.strip()
        if tok.startswith("e"):
            tok = tok[1:]
        idx = int(tok)
        if not 1 <= idx <= n:
            raise ParseError(f"basis index {idx} out of range 1..{n}")
        vecs.append([field.one() if j == idx - 1 else field.zero()
                     for j in range(n)])
    return Subspace(field, n, vecs)


@input_errors_as_parse_error("--g0 frame labels")
def _parse_frame_arg(J, text):
    return span_of_frame(J, text.split(","))


def cmd_verify_theorem(args) -> int:
    scan = scan_bound(args)
    g, entry = resolve_algebra(args.algebra)
    overrides = {}
    for item in args.param or []:
        name, _, value = item.partition("=")
        if not value:
            raise ParseError(f"bad --param {item!r}; use name=value")
        overrides[name.strip()] = value.strip()
    if args.lattice.startswith("builtin:"):
        lat_name = args.lattice[len("builtin:"):]
        if entry is None or lat_name not in entry.lattices:
            raise ParseError(f"no builtin lattice {lat_name!r} for this "
                             "algebra")
        L = lattice_from_document(entry.lattices[lat_name], g, overrides)
    else:
        L = load_lattice_file(args.lattice, g, overrides)
    J = resolve_complex_structure(g, args.J)
    f = _parse_basis_arg(args.ideal, g.field, g.n)
    f0 = _parse_basis_arg(args.f0, g.field, g.n)
    g0 = _parse_frame_arg(J, args.g0)
    require_integrable(J)
    report = conjecture_status(g, J, L, f, f0, g0, scan_bound=scan)
    results = {
        "checklist": [{"item": name, "status": status, "detail": detail}
                      for name, status, detail in report.items],
        "verdict": report.verdict,
    }
    if report.leaf is not None:
        results["leaf"] = {
            "classification": report.leaf.classification,
            "lattice_rank": len(report.leaf.lattice_coeffs),
        }
        if report.leaf.theta is not None:
            results["leaf"]["theta"] = report.leaf.theta.as_dict()
    lines = [f"algebra: {args.algebra}"]
    for name, status, detail in report.items:
        mark = {"pass": "PASS", "fail": "FAIL", "info": "INFO"}[status]
        suffix = f" ({detail})" if detail else ""
        lines.append(f"  [{mark}] {name}{suffix}")
    lines.append(f"verdict: {report.verdict}")
    emit(make_report("verify-theorem",
                     {"algebra": args.algebra, "J": args.J,
                      "lattice": args.lattice, "ideal": args.ideal,
                      "f0": args.f0, "g0": args.g0,
                      "param": sorted(overrides.items())},
                     results), lines, args.json)
    return EXIT_OK


def _entry_suite(entry) -> tuple[dict, bool]:
    g, structures = validate_entry(entry)
    chain, cls = lower_central_series(g)
    b = betti_numbers(g)
    checks = {}
    checks["jacobi"] = True
    checks["nilpotent"] = cls is not math.inf
    checks["euler_zero"] = sum((-1) ** k * x for k, x in enumerate(b)) == 0
    checks["poincare_symmetric"] = b == b[::-1]
    checks["b1_matches_commutator"] = (
        b[1] == g.n - commutator_ideal(g).dim)
    tables = {}
    for name, J in sorted(structures.items()):
        table = hodge_table(J)
        tables[name] = [list(r) for r in table]
        m = g.n // 2
        checks[f"{name}:h00_is_1"] = table[0][0] == 1
        checks[f"{name}:alternating_sums_zero"] = all(
            sum((-1) ** q * table[p][q] for q in range(m + 1)) == 0
            for p in range(m + 1))
        checks[f"{name}:serre_symmetry"] = all(
            table[p][q] == table[m - p][m - q]
            for p in range(m + 1) for q in range(m + 1))
        checks[f"{name}:frolicher_inequality"] = all(
            sum(table[p][k - p] for p in range(m + 1)
                if 0 <= k - p <= m) >= b[k]
            for k in range(g.n + 1))
        # hodge_table raises unless every reduction behind the table
        # carries a verified rank certificate; the key keeps its name
        checks[f"{name}:elimination_oracle_agrees"] = True
    ok = all(checks.values())
    return {"betti": b, "class": _format_class(cls),
            "hodge_tables": tables, "checks": checks}, ok


def cmd_catalog(args) -> int:
    if args.action != "run":
        raise ParseError(f"unknown catalog action {args.action!r}")
    catalog = load_catalog_file(args.file) if args.file else builtin_catalog()
    names = sorted(catalog)
    if args.filter:
        names = [n for n in names if args.filter in n]
    results = {}
    lines = []
    all_ok = True
    for name in names:
        data, ok = _entry_suite(catalog[name])
        results[name] = data
        all_ok = all_ok and ok
        status = "pass" if ok else "FAIL"
        lines.append(f"{name}: {status} (betti "
                     + str(data["betti"]) + ")")
        for cname, cok in sorted(data["checks"].items()):
            if not cok:
                lines.append(f"  failed: {cname}")
    lines.append("all checks passed" if all_ok else "SOME CHECKS FAILED")
    emit(make_report("catalog run",
                     {"filter": args.filter, "file": args.file},
                     results), lines, args.json)
    return EXIT_OK if all_ok else EXIT_MATH


# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nilcohom",
        description="Exact invariant Dolbeault cohomology of nilpotent "
                    "Lie algebras and toroidal classification of "
                    "foliation leaves.")
    parser.add_argument("--version", action="version",
                        version=f"nilcohom {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    scan_help = ("positive scan bound (default: NILCOHOM_SCAN_BOUND or "
                 f"{DEFAULT_SCAN_BOUND})")

    p = sub.add_parser("check", help="parse and validate an algebra")
    p.add_argument("algebra")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("cohomology", help="de Rham / Dolbeault tables")
    p.add_argument("algebra")
    p.add_argument("--J", default=None,
                   help="complex structure: std | pairs:1-2,3-4,... | "
                        "JSON matrix")
    p.add_argument("--de-rham", dest="de_rham", action="store_true")
    p.add_argument("--dolbeault", action="store_true")
    p.add_argument("--hodge-table", dest="hodge_table", action="store_true")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_cohomology)

    p = sub.add_parser("toroidal",
                       help="normalise a period file and classify")
    p.add_argument("period_file")
    p.add_argument("--scan", default=None, help=scan_help)
    p.add_argument("--convergents", default=None,
                   help="convergent family for the formal parameter, "
                        "e.g. liouville10 or power-tower:2,4")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_toroidal)

    p = sub.add_parser("verify-theorem",
                       help="run the foliated-leaf hypothesis checklist")
    p.add_argument("algebra")
    p.add_argument("--J", required=True)
    p.add_argument("--lattice", required=True,
                   help="lattice file or builtin:<name>")
    p.add_argument("--ideal", required=True,
                   help="comma list of basis indices, e.g. e3,e4,e5,e6")
    p.add_argument("--f0", required=True)
    p.add_argument("--g0", required=True,
                   help="comma list of frame labels, e.g. Xbar1,Xbar3")
    p.add_argument("--param", action="append", default=[],
                   help="substitute a declared number, e.g. a=1/2 or "
                        "a=sqrt:2 or a=power-tower:2,4")
    p.add_argument("--scan", default=None, help=scan_help)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_verify_theorem)

    p = sub.add_parser("catalog", help="batch verification runner")
    p.add_argument("action", choices=["run"])
    p.add_argument("--filter", default=None)
    p.add_argument("--file", default=None,
                   help="user catalog file instead of the builtins")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_catalog)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except (UnsupportedError, PrecisionUnavailable) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_UNSUPPORTED
    except StructureError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_MATH
    except NilcohomError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
