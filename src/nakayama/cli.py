"""Command-line front end.

Subcommands: classify | tilting | endo | enumerate | check | oracle.
Each builds one record (a dict) and prints it through `_emit`: as JSON under
--json, else as one `key: value` line per entry.
Exit code 0 on success, 1 on usage errors, validation errors or failed checks.
"""

import argparse
import csv
import io
import json
import os
import sys

from .core import INF, KINDS, ModuleSum, format_algebra, parse_algebra
from .checks import CHECK_FLAGS, SUITE_NAMES, _oracle_counts, flag, run_suite
from .endo import _drop_record, end_algebra, gldim_over, mueller_domdim
from .homology import gldim
from .sweeps import CSV_COLUMNS, SweepSpec, csv_row, sweep
from .tilting import (
    _tilting,
    basic_gen_cogen,
    canonical_cotilting,
    canonical_tilting,
    classify,
    gldim_drop_conditions,
    pd_tau_tilting,
    syzygy_correspondence,
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
    kind = "cyclic" if args.linear is None else "linear"
    return parse_algebra(kind + ":" + getattr(args, kind))


def _text(v):
    """A record value as text: lists comma-joined or (empty), dicts as k=v,
    None and booleans in lower case, anything else (modules, sums of
    modules as M(..) + M(..), INF, OverCap) as str."""
    if isinstance(v, list):
        return ", ".join(map(_text, v)) or "(empty)"
    if isinstance(v, dict):
        return " ".join("%s=%s" % (k, _text(x)) for k, x in v.items())
    if v is None or isinstance(v, bool):
        return str(v).lower()
    return str(v)


def _json_value(v):
    """JSON for what json cannot encode: a sum of modules as the list of its
    summands; modules, INF and OverCap as str ("M(i,l)", "inf", ">N")."""
    return list(v) if isinstance(v, ModuleSum) else str(v)


def _lines(record):
    return ["%s: %s" % (key, _text(value)) for key, value in record.items()]


def _emit(args, record, text=None, code=0):
    """Print a command's record and return its exit code: JSON under --json,
    else the text lines given (CSV, enumerate's rows, check's status lines,
    oracle's closing verdict), else _lines(record)."""
    if getattr(args, "json", False):
        print(json.dumps(record, indent=2, default=_json_value))
    else:
        for line in _lines(record) if text is None else text:
            print(line)
    return code


def _csv(reps):
    """CSV lines: the header, then one row per ClassificationReport."""
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(
        [CSV_COLUMNS] + [csv_row(rep) for rep in reps])
    return buf.getvalue().splitlines()


def cmd_classify(args):
    rep = classify(_algebra_from(args))
    return _emit(args, rep.json_dict(), _csv([rep]) if args.csv else None)


def cmd_tilting(args):
    alg = _algebra_from(args)
    t = canonical_tilting(alg)
    c = canonical_cotilting(alg)
    x, _, bij = syzygy_correspondence(alg)
    record = {
        "algebra": format_algebra(alg),
        "criterion": t is not None,
        "syzygy_bijection": bij,
        "x": x,
        "t_c": None if t is None else list(t),
        "c_c": None if c is None else list(c),
        "verify_tilting": None if t is None else verify_tilting(alg, t),
        "verify_cotilting": None if c is None else verify_cotilting(alg, c),
        "pd_tau": None if t is None else pd_tau_tilting(alg, t),
        "drop_conditions": None,
    }
    if t is not None and gldim(alg) != INF:
        record["drop_conditions"] = gldim_drop_conditions(alg, t)
    return _emit(args, record)


def cmd_endo(args):
    if args.cap < 1:
        raise ValueError("cap must be positive")
    alg = _algebra_from(args)
    t = _tilting(alg)
    b = end_algebra(alg, t)
    record = {
        "algebra": format_algebra(alg),
        "tilting": t,
        "dim": b.dim,
        "radical_dim": b.dim - len(b.summands),  # one identity per summand
        "gldim_endo": gldim_over(b, args.cap),
        "mueller_domdim": mueller_domdim(alg, basic_gen_cogen(alg)),
        "drop": None if args.json else
                "not applicable (infinite global dimension)",
    }
    gl = gldim(alg)
    if gl != INF:
        record["drop"] = _drop_record(gl, record["gldim_endo"],
                                      pd_tau_tilting(alg, t))
    if args.json:
        record["structure_constants"] = b.json_dict()
    return _emit(args, record)


def _row_line(rep):
    """enumerate's text row: the algebra, then its main invariants as k=v."""
    return "%s %s" % (format_algebra(rep), _text({
        "gldim": rep.gldim, "domdim": rep.domdim,
        "gdim": "na" if rep.gdim is None else rep.gdim,
        "selfinjective": rep.selfinjective, "auslander": rep.auslander,
        "one_AG": rep.one_aus_gorenstein, "tilting": rep.tilting_exists}))


def cmd_enumerate(args):
    spec = SweepSpec(
        kind=args.kind, n=args.n, max_c=args.max_c,
        filters=tuple(args.filter or ()),
        up_to_rotation=args.up_to_rotation,
        elementary=args.elementary,
        absolutely_elementary=args.absolutely_elementary,
        row_cap=args.row_cap)
    rows, truncated = sweep(spec)
    text = _csv(rows) if args.csv else [_row_line(rep) for rep in rows]
    code = _emit(args, [rep.json_dict() for rep in rows], text)
    if truncated:
        print("# truncated at %d rows" % spec.row_cap, file=sys.stderr)
    return code


def cmd_check(args, suite=None):
    params = {}
    for name in CHECK_FLAGS:
        if getattr(args, name, None) is not None:
            params[name] = getattr(args, name)
    report = run_suite(suite or args.suite, **params)
    verdict = "suite %s: %s" % (report.suite, "ok" if report.ok else "FAIL")
    record = {
        "suite": report.suite,
        "properties": {p.name: {"checked": p.checked, "failed": p.failed,
                                "first_counterexample": p.first_counterexample or None}
                       for p in report.properties},
        "ok": report.ok,
    }
    return _emit(args, record, report.lines() + [verdict],
                 0 if report.ok else 1)


def cmd_oracle(args):
    if args.cyclic is None and args.linear is None:
        return cmd_check(args, "oracle")
    if args.n_max is not None or args.c_max is not None:
        raise ValueError("--n-max and --c-max bound the grid check; "
                         "they do not apply with --cyclic or --linear")
    alg = _algebra_from(args)
    total, (hom_bad, hom_w), (ext_bad, ext_w) = _oracle_counts(alg)
    record = {
        "algebra": format_algebra(alg),
        "pairs": total,
        "hom agreements": "%d/%d" % (total - hom_bad, total),
        "ext1 agreements": "%d/%d" % (total - ext_bad, total),
    }
    for kind, witness in (("hom", hom_w), ("ext1", ext_w)):
        if witness:
            record[kind + " witness"] = witness
    ok = hom_bad == ext_bad == 0
    return _emit(args, dict(record, ok=ok),
                 _lines(record) + ["ok" if ok else "MISMATCH"], 0 if ok else 1)


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser whose usage errors exit 1, as all bad input does;
    subparsers are built from the same class."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, "%s: error: %s\n" % (self.prog, message))


def build_parser():
    parser = _Parser(
        prog="nakayama",
        description="Exact homological computations for Nakayama algebras "
                    "given by admissible sequences.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("classify", help="homological profile of one algebra")
    _add_algebra_flags(p)
    out = p.add_mutually_exclusive_group()
    out.add_argument("--json", action="store_true")
    out.add_argument("--csv", action="store_true")
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
    p.add_argument("--kind", choices=KINDS, required=True)
    p.add_argument("-n", type=int, required=True, help="number of vertices")
    p.add_argument("--max-c", type=int, required=True,
                   help="upper bound for the sequence entries")
    p.add_argument("--filter", action="append", metavar="KEY",
                   help="keep rows where this report field is truthy "
                        "(repeatable)")
    p.add_argument("--elementary", action="store_true")
    p.add_argument("--absolutely-elementary", action="store_true")
    p.add_argument("--up-to-rotation", action="store_true")
    p.add_argument("--row-cap", type=int, default=0)
    out = p.add_mutually_exclusive_group()
    out.add_argument("--json", action="store_true")
    out.add_argument("--csv", action="store_true")
    p.set_defaults(func=cmd_enumerate)

    p = sub.add_parser("check", help="run a property suite")
    p.add_argument("--suite", required=True, choices=SUITE_NAMES)
    for name in CHECK_FLAGS:
        p.add_argument(flag(name), type=int, dest=name)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("oracle", help="compare formulas with the matrix "
                                      "representation oracle")
    _add_algebra_flags(p)
    p.add_argument("--n-max", type=int, dest="n_max")
    p.add_argument("--c-max", type=int, dest="c_max")
    p.add_argument("--json", action="store_true")
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
    except BrokenPipeError:
        # the reader closed stdout: no traceback, and no failing flush at exit
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1


if __name__ == "__main__":
    sys.exit(main())
