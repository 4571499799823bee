"""Command-line interface.

Subcommands: homology, bounds, tower, verify.  All randomness flows from the
single --seed flag; identical invocations produce byte-identical output.

Exit codes: 0 success, 1 failed checks, 2 usage or validation problems,
3 I/O errors, 4 parse errors, 5 orientation routing (non-orientable input to
`bounds` without --via-double-cover).
"""

import argparse
import csv
import io
import json
import os
import random
import sys

from .bounds import (
    BoundViolation,
    check_bounds,
    check_index2_reduction,
    duality_report,
)
from .covers import mod_power_tower
from .deltacomplex import (
    BUILTIN_NAMES,
    ComplexFormatError,
    NonOrientableError,
    builtin,
    complex_from_json,
    homology_profile,
    validate_complex,
)
from .growth import gap_consistency_check, l2_betti_trend, run_tower
from .intlinalg import (
    ExactnessViolation,
    IntegerMatrix,
    cokernel_structure,
    soule_torsion_bound,
    verify_torsion_exactness_lemmas,
)

EXIT_OK = 0
EXIT_FAILED_CHECK = 1
EXIT_USAGE = 2
EXIT_IO = 3
EXIT_PARSE = 4
EXIT_ORIENTATION = 5


class _CliError(Exception):
    def __init__(self, code, message):
        self.code = code
        self.message = message
        super().__init__(message)


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="homtower",
        description="Homology of delta-complexes, covers, and growth along towers.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_io(p):
        p.add_argument("--out", metavar="PATH", help="write the report here instead of stdout")
        p.add_argument("--format", choices=("json", "csv", "pretty"), default="pretty")
        p.add_argument("--seed", type=int, default=0)

    def add_input(p):
        p.add_argument("input", nargs="?", help="path to a delta-complex JSON file")
        p.add_argument("--builtin", choices=BUILTIN_NAMES, help="use a library complex")
        p.add_argument("--g", "--genus", dest="genus", type=int,
                       help="genus for --builtin surface")

    def add_primes(p):
        p.add_argument("-p", "--primes", type=int, nargs="+", default=[2, 3, 5])

    p = sub.add_parser("homology", help="integral and mod-p homology")
    add_input(p)
    add_primes(p)
    add_io(p)

    p = sub.add_parser("bounds", help="fundamental-cycle bound report")
    add_input(p)
    add_primes(p)
    p.add_argument("--via-double-cover", action="store_true",
                   help="route non-orientable input through its orientation double cover")
    add_io(p)

    p = sub.add_parser("tower", help="tower of covers and growth report")
    add_input(p)
    add_primes(p)
    p.add_argument("-m", "--modulus", type=int, default=2)
    p.add_argument("-L", "--levels", type=int, default=3)
    p.add_argument("--gap-threshold", type=float, default=0.05)
    p.add_argument("--cache", metavar="DIR", help="cache per-level results here")
    add_io(p)

    p = sub.add_parser("verify", help="run the randomized property suites")
    p.add_argument("--trials", type=int, default=500)
    p.add_argument("--size-cap", type=int, default=5)
    add_io(p)
    return parser


def _check_primes(args):
    from .intlinalg import is_prime
    for p in args.primes:
        if not is_prime(p):
            raise _CliError(EXIT_USAGE, f"--primes: {p} is not prime")


def _resolve_complex(args):
    sources = sum(1 for s in (args.input, args.builtin) if s)
    if sources != 1:
        raise _CliError(EXIT_USAGE, "exactly one input source required: a file path or --builtin")
    if args.builtin:
        try:
            return builtin(args.builtin, genus=args.genus)
        except ValueError as exc:
            raise _CliError(EXIT_USAGE, str(exc)) from exc
    if args.genus is not None:
        raise _CliError(EXIT_USAGE, "--g only applies to --builtin surface")
    try:
        with open(args.input, "r", encoding="utf-8") as fh:
            obj = json.load(fh)
    except OSError as exc:
        raise _CliError(EXIT_IO, f"cannot read {args.input}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise _CliError(
            EXIT_PARSE,
            f"{args.input}: JSON parse error at line {exc.lineno} column {exc.colno}: {exc.msg}",
        ) from exc
    try:
        name = os.path.splitext(os.path.basename(args.input))[0]
        complex = complex_from_json(obj, name=name)
    except ComplexFormatError as exc:
        raise _CliError(EXIT_PARSE, f"{args.input}: {exc}") from exc
    report = validate_complex(complex)
    if not report.ok:
        raise _CliError(EXIT_USAGE, f"{args.input}: invalid complex: {report.problems[0]}")
    return complex


def _emit(args, payload, pretty_lines, csv_rows):
    if args.format == "json":
        text = json.dumps(payload, sort_keys=True, indent=2) + "\n"
    elif args.format == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        for row in csv_rows:
            writer.writerow(row)
        text = buf.getvalue()
    else:
        text = "\n".join(pretty_lines) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _config_echo(args, keys):
    return {key: getattr(args, key) for key in keys}


def _group_json(group):
    return {"free_rank": group.free_rank,
            "torsion": [str(t) for t in group.torsion],
            "pretty": group.pretty()}


def cmd_homology(args):
    _check_primes(args)
    complex = _resolve_complex(args)
    profile = homology_profile(complex, tuple(args.primes))
    degrees = []
    for k in range(complex.dim + 1):
        degrees.append({
            "k": k,
            "group": _group_json(profile.group(k)),
            "fp_dims": {str(p): profile.fp_dim(k, p) for p in args.primes},
        })
    payload = {
        "command": "homology",
        "config": _config_echo(args, ("builtin", "genus", "input", "primes", "seed")),
        "complex": complex.name or "custom",
        "counts": list(complex.counts),
        "euler_characteristic": complex.euler_characteristic(),
        "degrees": degrees,
    }
    lines = [f"complex {payload['complex']}  counts {'/'.join(map(str, complex.counts))}"
             f"  chi {complex.euler_characteristic()}"]
    for entry in degrees:
        dims = "  ".join(f"dim_F{p} {entry['fp_dims'][str(p)]}" for p in args.primes)
        lines.append(f"H_{entry['k']} = {entry['group']['pretty']:<16} {dims}")
    rows = [("k", "group", *(f"dim_F{p}" for p in args.primes))]
    for entry in degrees:
        rows.append((entry["k"], entry["group"]["pretty"],
                     *(entry["fp_dims"][str(p)] for p in args.primes)))
    _emit(args, payload, lines, rows)
    return EXIT_OK


def cmd_bounds(args):
    _check_primes(args)
    complex = _resolve_complex(args)
    primes = tuple(args.primes)
    try:
        report = check_bounds(complex, primes)
        duality = duality_report(complex, primes)
        payload = {
            "command": "bounds",
            "config": _config_echo(args, ("builtin", "genus", "input", "primes",
                                          "seed", "via_double_cover")),
            "report": report.to_json_dict(),
            "duality": {
                "betti_symmetric": duality["betti_symmetric"],
                "torsion_symmetric": duality["torsion_symmetric"],
                "cap_isomorphisms": duality["cap_isomorphisms"],
            },
        }
        lines = [f"complex {report.name}  dim {report.dim}  cycle size {report.cycle_size}"]
        for r in report.records:
            tag = f"p={r.prime} " if r.prime else ""
            lines.append(
                f"{r.kind:<8} {tag}j={r.degree}: {r.actual:.6g} <= {r.bound:.6g}"
                f"  margin {r.margin:.6g}  {'PASS' if r.passed else 'FAIL'}")
        lines.append(f"duality: betti {duality['betti_symmetric']}, "
                     f"torsion {duality['torsion_symmetric']}, "
                     f"cap {duality['cap_isomorphisms']}")
        rows = list(report.csv_rows())
        _emit(args, payload, lines, rows)
        return EXIT_OK if report.all_pass else EXIT_FAILED_CHECK
    except NonOrientableError:
        if not args.via_double_cover:
            raise _CliError(
                EXIT_ORIENTATION,
                f"{complex.name or 'complex'} is non-orientable; rerun with "
                "--via-double-cover to check the index-2 reduction instead",
            ) from None
    report = check_index2_reduction(complex, primes)
    payload = {
        "command": "bounds",
        "config": _config_echo(args, ("builtin", "genus", "input", "primes",
                                      "seed", "via_double_cover")),
        "index2_report": report.to_json_dict(),
    }
    lines = [f"complex {report.name}: non-orientable, using the orientation double cover",
             f"cover counts {'/'.join(map(str, report.cover_counts))}"]
    if report.caveat:
        lines.append(f"caveat: {report.caveat}")
    for r in report.records:
        tag = f"p={r.prime} " if r.prime else ""
        lines.append(
            f"{r.kind:<14} {tag}n={r.degree}: {r.actual:.6g} <= {r.bound:.6g}"
            f"  margin {r.margin:.6g}  {'PASS' if r.passed else 'FAIL'}")
    rows = list(report.csv_rows())
    _emit(args, payload, lines, rows)
    return EXIT_OK if report.all_pass else EXIT_FAILED_CHECK


def cmd_tower(args):
    _check_primes(args)
    complex = _resolve_complex(args)
    if args.modulus < 2:
        raise _CliError(EXIT_USAGE, "modulus must be >= 2")
    if args.levels < 1:
        raise _CliError(EXIT_USAGE, "levels must be >= 1")
    primes = tuple(args.primes)
    tower = mod_power_tower(complex, args.modulus, args.levels)
    report = run_tower(tower, primes, cache_dir=args.cache)
    gap = gap_consistency_check(report, args.gap_threshold) if report.levels else {
        "status": "not-applicable", "threshold": args.gap_threshold,
        "level": 0, "base": report.base_name, "series": {}}
    payload = {
        "command": "tower",
        "config": _config_echo(args, ("builtin", "genus", "input", "primes", "seed",
                                      "modulus", "levels", "gap_threshold")),
        "residual": report.residual,
        "report": report.to_json_dict(),
        "gap_check": gap,
    }
    if len(report.levels) >= 2:
        payload["l2_trend"] = [
            {"k": rec["k"],
             "series": [str(x) for x in rec["series"]],
             "last_delta": str(rec["last_delta"])}
            for rec in l2_betti_trend(report)]
    lines = [f"base {report.base_name}  m={args.modulus}  levels requested {args.levels}",
             f"residual: {str(report.residual).lower()}"]
    for warning in report.warnings:
        lines.append(f"warning: {warning}")
    for level in report.levels:
        norm = ", ".join(
            f"b_{k}/deg={level.normalized_betti(k)}" for k in range(report.dim + 1))
        lines.append(
            f"level {level.index}: degree {level.degree}, betti {list(level.betti_q)}, "
            f"log torsion {[round(level.log_torsion(k), 6) for k in range(report.dim + 1)]}, "
            f"{norm}")
    lines.append(f"gap check @ {args.gap_threshold}: {gap['status']}")
    _emit(args, payload, lines, list(report.csv_rows()))
    return EXIT_OK


def _soule_suite(trials, seed, size_cap=5):
    rng = random.Random(f"{seed}:soule")
    failures = []
    for trial in range(trials):
        rows = rng.randint(1, 8)
        cols = rng.randint(1, 8)
        entries = {(i, j): rng.randint(-size_cap, size_cap)
                   for i in range(rows) for j in range(cols)}
        matrix = IntegerMatrix(rows, cols, entries)
        bound = soule_torsion_bound(matrix)
        actual = cokernel_structure(matrix).log_torsion
        if bound < actual - 1e-9:
            failures.append({
                "trial": trial,
                "matrix": matrix.to_decimal_rows(),
                "bound": bound,
                "log_torsion": actual,
            })
    return failures


def _duality_suite():
    failures = []
    for name in ("torus2", "sphere2"):
        result = duality_report(builtin(name), (2, 3, 5))
        if not (result["betti_symmetric"] and result["torsion_symmetric"]
                and result["cap_isomorphisms"]):
            failures.append({"complex": name,
                             "betti_symmetric": result["betti_symmetric"],
                             "torsion_symmetric": result["torsion_symmetric"],
                             "cap_isomorphisms": result["cap_isomorphisms"]})
    return failures


def cmd_verify(args):
    if args.trials < 1:
        raise _CliError(EXIT_USAGE, "--trials must be >= 1")
    suites = []
    exactness_failures = []
    try:
        verify_torsion_exactness_lemmas(args.trials, seed=args.seed,
                                        size_cap=args.size_cap)
    except ExactnessViolation as exc:
        exactness_failures.append(exc.witness)
    suites.append({"name": "torsion-exactness-lemmas",
                   "trials": args.trials,
                   "failures": exactness_failures})
    soule_failures = _soule_suite(args.trials, args.seed, args.size_cap)
    suites.append({"name": "cokernel-torsion-bound",
                   "trials": args.trials,
                   "failures": soule_failures})
    duality_failures = _duality_suite()
    suites.append({"name": "poincare-duality",
                   "trials": 2,
                   "failures": duality_failures})
    total = sum(len(s["failures"]) for s in suites)
    payload = {
        "command": "verify",
        "config": _config_echo(args, ("trials", "size_cap", "seed")),
        "suites": suites,
        "failures_total": total,
    }
    lines = [f"verify: seed {args.seed}, trials {args.trials}"]
    for s in suites:
        status = "PASS" if not s["failures"] else f"FAIL ({len(s['failures'])})"
        lines.append(f"{s['name']:<28} trials {s['trials']:>5}  {status}")
    rows = [("suite", "trials", "failures")]
    rows += [(s["name"], s["trials"], len(s["failures"])) for s in suites]
    _emit(args, payload, lines, rows)
    return EXIT_OK if total == 0 else EXIT_FAILED_CHECK


_COMMANDS = {
    "homology": cmd_homology,
    "bounds": cmd_bounds,
    "tower": cmd_tower,
    "verify": cmd_verify,
}


def main(argv=None):
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except _CliError as exc:
        print(f"homtower: {exc.message}", file=sys.stderr)
        return exc.code
    except (BoundViolation, ExactnessViolation) as exc:
        print(f"homtower: theorem check failed: {exc}", file=sys.stderr)
        return EXIT_FAILED_CHECK
    except OSError as exc:
        print(f"homtower: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
