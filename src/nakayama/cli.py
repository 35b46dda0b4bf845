"""Command-line front end.

Subcommands: classify | tilting | endo | enumerate | check | oracle.
Exit code 0 on success, 1 on validation errors or failed checks.
"""

import argparse
import csv
import json
import sys

from .core import (
    INF,
    AdmissibleSequence,
    dim_json,
    dim_str,
    format_algebra,
    format_module,
)
from .checks import _oracle_counts, run_suite, SUITES
from .endo import (
    OverCap,
    _drop_record,
    end_algebra,
    gldim_over,
    mueller_domdim,
)
from .homology import gldim
from .sweeps import CSV_COLUMNS, SweepSpec, csv_row, sweep
from .tilting import (
    basic_gen_cogen,
    canonical_cotilting,
    canonical_tilting,
    classify,
    gldim_drop_conditions,
    pd_tau_tilting,
    syzygy_correspondence,
    tilting_criterion,
    verify_cotilting,
    verify_tilting,
)


def _add_algebra_flags(p):
    p.add_argument("--cyclic", metavar="c1,...,cn",
                   help="cyclic-quiver admissible sequence")
    p.add_argument("--linear", metavar="c1,...,cn",
                   help="linear-quiver admissible sequence")


def _algebra_from(args):
    if (args.cyclic is None) == (args.linear is None):
        raise ValueError("exactly one of --cyclic or --linear is required")
    kind = "cyclic" if args.cyclic is not None else "linear"
    raw = args.cyclic if kind == "cyclic" else args.linear
    try:
        c = tuple(int(part) for part in raw.split(","))
    except ValueError:
        raise ValueError("could not parse %r as a comma-separated "
                         "integer sequence" % raw)
    return AdmissibleSequence(kind, c)


def _endo_value(v):
    if isinstance(v, OverCap):
        return str(v)
    return dim_str(v)


def _json_endo_value(v):
    if isinstance(v, OverCap):
        return str(v)
    if v == INF:
        return "inf"
    return v


def cmd_classify(args):
    alg = _algebra_from(args)
    rep = classify(alg)
    if args.json:
        print(json.dumps(rep.json_dict(), indent=2))
    elif args.csv:
        w = csv.writer(sys.stdout, lineterminator="\n")
        w.writerow(CSV_COLUMNS)
        w.writerow(csv_row(rep))
    else:
        for key, value in rep.json_dict().items():
            if isinstance(value, (list, tuple)):
                value = ", ".join(str(x) for x in value)
            elif value is None:
                value = "none"
            elif isinstance(value, bool):
                value = "true" if value else "false"
            print("%s: %s" % (key, value))
    return 0


def cmd_tilting(args):
    alg = _algebra_from(args)
    crit = tilting_criterion(alg)
    t = canonical_tilting(alg)
    c = canonical_cotilting(alg)
    x, _, bij = syzygy_correspondence(alg)
    record = {
        "algebra": format_algebra(alg),
        "criterion": crit,
        "syzygy_bijection": bij,
        "x": [format_module(u) for u in x],
        "t_c": None if t is None else [format_module(u) for u in t],
        "c_c": None if c is None else [format_module(u) for u in c],
        "verify_tilting": None if t is None else verify_tilting(alg, t),
        "verify_cotilting": None if c is None else verify_cotilting(alg, c),
        "pd_tau": None,
        "drop_conditions": None,
    }
    if t is not None:
        record["pd_tau"] = dim_json(pd_tau_tilting(alg))
        if gldim(alg) != INF:
            record["drop_conditions"] = gldim_drop_conditions(alg)
    if args.json:
        print(json.dumps(record, indent=2))
        return 0
    for key, value in record.items():
        if isinstance(value, list):
            value = ", ".join(value) if value else "(empty)"
        elif isinstance(value, dict):
            value = " ".join(
                "%s=%s" % (k, str(v).lower()) for k, v in value.items())
        elif value is None:
            value = "none"
        elif isinstance(value, bool):
            value = "true" if value else "false"
        print("%s: %s" % (key, value))
    return 0


def cmd_endo(args):
    alg = _algebra_from(args)
    t = canonical_tilting(alg)
    if t is None:
        print("no canonical tilting module: dominant dimension < 2",
              file=sys.stderr)
        return 1
    b = end_algebra(alg, t)
    rad_dim = b.dim - len(b.summands)  # one identity map per summand
    glb = gldim_over(b, args.cap)
    mu = mueller_domdim(alg, basic_gen_cogen(alg))
    drop = None
    gl = gldim(alg)
    if gl != INF:
        drop = _drop_record(gl, glb, pd_tau_tilting(alg))
    if args.json:
        out = {
            "algebra": format_algebra(alg),
            "tilting": [format_module(u) for u in t],
            "dim": b.dim,
            "radical_dim": rad_dim,
            "gldim_endo": _json_endo_value(glb),
            "mueller_domdim": _json_endo_value(mu),
            "drop": None if drop is None else {
                k: _json_endo_value(v) if not isinstance(v, bool) else v
                for k, v in drop.items()},
            "structure_constants": b.json_dict(),
        }
        print(json.dumps(out, indent=2))
        return 0
    print("algebra: %s" % format_algebra(alg))
    print("tilting: %s" % t)
    print("dim: %d" % b.dim)
    print("radical_dim: %d" % rad_dim)
    print("gldim_endo: %s" % _endo_value(glb))
    print("mueller_domdim: %s" % _endo_value(mu))
    if drop is None:
        print("drop: not applicable (infinite global dimension)")
    else:
        print("drop: gldim=%s gldim_endo=%s pd_tau=%s holds=%s" % (
            dim_str(drop["gldim"]), _endo_value(drop["gldim_endo"]),
            dim_str(drop["pd_tau"]), str(drop["holds"]).lower()))
    return 0


def cmd_enumerate(args):
    kind = "cyclic" if args.kind == "cyclic" else "linear"
    spec = SweepSpec(
        kind=kind, n=args.n, max_c=args.max_c,
        filters=tuple(args.filter or ()),
        up_to_rotation=args.up_to_rotation,
        up_to_difference_class=args.up_to_difference_class,
        elementary=args.elementary,
        absolutely_elementary=args.absolutely_elementary,
        row_cap=args.row_cap)
    rows, truncated = sweep(spec)
    if args.json:
        print(json.dumps([rep.json_dict() for rep in rows], indent=2))
    elif args.csv:
        w = csv.writer(sys.stdout, lineterminator="\n")
        w.writerow(CSV_COLUMNS)
        for rep in rows:
            w.writerow(csv_row(rep))
    else:
        for rep in rows:
            d = rep.json_dict()
            print("%s:%s gldim=%s domdim=%s gdim=%s selfinjective=%s "
                  "auslander=%s one_AG=%s tilting=%s" % (
                      d["kind"], ",".join(str(x) for x in d["c"]),
                      d["gldim"], d["domdim"],
                      "na" if d["gdim"] is None else d["gdim"],
                      str(d["selfinjective"]).lower(),
                      str(d["auslander"]).lower(),
                      str(d["one_aus_gorenstein"]).lower(),
                      str(d["tilting_exists"]).lower()))
    if truncated:
        print("# truncated at %d rows" % spec.row_cap, file=sys.stderr)
    return 0


def cmd_check(args):
    params = {}
    for name in ("samples", "seed", "n_max", "c_max", "cap"):
        value = getattr(args, name)
        if value is not None:
            params[name] = value
    report = run_suite(args.suite, **params)
    for line in report.lines():
        print(line)
    print("suite %s: %s" % (report.suite, "ok" if report.ok else "FAIL"))
    return 0 if report.ok else 1


def cmd_oracle(args):
    if args.cyclic is not None or args.linear is not None:
        alg = _algebra_from(args)
        total, (hom_bad, hom_w), (ext_bad, ext_w) = _oracle_counts(alg)
        print("algebra: %s" % format_algebra(alg))
        print("pairs: %d" % total)
        print("hom agreements: %d/%d" % (total - hom_bad, total))
        print("ext1 agreements: %d/%d" % (total - ext_bad, total))
        for kind, witness in (("hom", hom_w), ("ext1", ext_w)):
            if witness:
                print("%s witness: %s" % (kind, witness))
        ok = hom_bad == ext_bad == 0
        print("ok" if ok else "MISMATCH")
        return 0 if ok else 1
    params = {}
    if args.n_max is not None:
        params["n_max"] = args.n_max
    if args.c_max is not None:
        params["c_max"] = args.c_max
    report = run_suite("oracle", **params)
    for line in report.lines():
        print(line)
    return 0 if report.ok else 1


def build_parser():
    parser = argparse.ArgumentParser(
        prog="nakayama",
        description="Exact homological computations for Nakayama algebras "
                    "given by admissible sequences.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("classify", help="homological profile of one algebra")
    _add_algebra_flags(p)
    p.add_argument("--json", action="store_true")
    p.add_argument("--csv", action="store_true")
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("tilting", help="canonical tilting/cotilting data")
    _add_algebra_flags(p)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_tilting)

    p = sub.add_parser("endo", help="endomorphism algebra of the canonical "
                                    "tilting module")
    _add_algebra_flags(p)
    p.add_argument("--json", action="store_true")
    p.add_argument("--cap", type=int, default=30,
                   help="resolution step cap (default 30)")
    p.set_defaults(func=cmd_endo)

    p = sub.add_parser("enumerate", help="sweep admissible sequences")
    p.add_argument("--kind", choices=("cyclic", "linear"), required=True)
    p.add_argument("-n", type=int, required=True, help="number of vertices")
    p.add_argument("--max-c", type=int, required=True,
                   help="upper bound for the sequence entries")
    p.add_argument("--filter", action="append", metavar="KEY",
                   help="keep rows where this report field is truthy "
                        "(repeatable)")
    p.add_argument("--elementary", action="store_true")
    p.add_argument("--absolutely-elementary", action="store_true")
    p.add_argument("--up-to-rotation", action="store_true")
    p.add_argument("--up-to-difference-class", action="store_true")
    p.add_argument("--row-cap", type=int, default=0)
    p.add_argument("--json", action="store_true")
    p.add_argument("--csv", action="store_true")
    p.set_defaults(func=cmd_enumerate)

    p = sub.add_parser("check", help="run a property suite")
    p.add_argument("--suite", required=True, choices=sorted(SUITES))
    p.add_argument("--samples", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--n-max", type=int, dest="n_max")
    p.add_argument("--c-max", type=int, dest="c_max")
    p.add_argument("--cap", type=int)
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("oracle", help="compare formulas with the matrix "
                                      "representation oracle")
    _add_algebra_flags(p)
    p.add_argument("--n-max", type=int, dest="n_max")
    p.add_argument("--c-max", type=int, dest="c_max")
    p.set_defaults(func=cmd_oracle)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
