"""Command line interface for curve classification.

Subcommands:
    validate   check a curve model file and print a summary
    points     list closed points up to a degree bound
    zeta       numerator of the zeta function and the class number
    classify   run the marked-curve decision procedure
    oracle     brute-force divisor class group structure
    gmodule    finite-group module harness (file or random instances)

Exit codes: 0 success (any verdict), 1 validation or input error,
2 unsupported configuration, 3 budget exceeded.
"""

import argparse
import json
import random
import sys

from .budget import DEFAULT_BUDGET
from .classify import MarkedInstance, classify
from .curve import closed_points, curve_to_json, model_from_json, validate
from .errors import BudgetExceeded, CurveClassError, UnsupportedCase
from .gmodule import GModule, harness_lines, random_gmodule
from .jacobian import jacobian_group
from .zeta import l_polynomial


def _load_curve(path):
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    model = model_from_json(data)
    return validate(model)


def _dump(obj) -> str:
    return json.dumps(obj, indent=2, ensure_ascii=False)


def cmd_validate(args) -> int:
    curve = _load_curve(args.curve)
    if args.json:
        print(_dump(curve_to_json(curve)))
        return 0
    q = curve.field.q
    k = len(curve.infinity)
    plural = "" if k == 1 else "s"
    print(f"valid {curve.model.kind}: genus {curve.genus}, q={q}, "
          f"{k} point{plural} at infinity")
    return 0


def cmd_points(args) -> int:
    if args.max_degree < 1:
        raise CurveClassError("--max-degree must be at least 1")
    curve = _load_curve(args.curve)
    points = closed_points(curve, args.max_degree, budget=args.budget)
    if args.json:
        print(_dump([pt.to_json() for pt in points]))
        return 0
    for pt in points:
        if pt.pi is None:
            pi = "-"
        else:
            pi = json.dumps(pt.pi.to_json(), separators=(",", ":"))
        if pt.kind == "split":
            y = json.dumps(pt.y_rep.to_json(), separators=(",", ":"))
        elif pt.kind in ("ramified", "inert", "infinity"):
            y = pt.kind
        else:
            y = "-"
        print(f"{pt.id} {pt.degree} {pi} {y}")
    return 0


def cmd_zeta(args) -> int:
    curve = _load_curve(args.curve)
    lp = l_polynomial(curve, budget=args.budget)
    if args.json:
        print(_dump(lp.to_json()))
        return 0
    print(f"q={lp.q} genus={lp.genus}")
    print("L coefficients: " + " ".join(str(c) for c in lp.coeffs))
    print(f"class number: {lp.class_number}")
    return 0


def _split_ids(values):
    ids = []
    for chunk in values:
        for raw in chunk.split(","):
            raw = raw.strip()
            if raw:
                ids.append(raw)
    return ids


def cmd_classify(args) -> int:
    curve = _load_curve(args.curve)
    instance = MarkedInstance(
        curve=curve,
        p=args.p,
        S=_split_ids(args.S),
        T=_split_ids(args.T),
    )
    report = classify(instance, budget=args.budget)
    if args.json:
        print(_dump(report.to_json()))
        return 0
    print(f"case {report.case} [{report.justification}]")
    print(f"verdict: {report.verdict}")
    print(f"cd: {report.cd_bound}")
    print(f"pi1: {report.pi1_description} (r={report.pi1_r})")
    inv = report.invariants
    print(f"q={inv['q']} g={inv['g']} h={inv['h']} "
          f"pic_p_nontrivial={inv['pic_p_nontrivial']} s={inv['s']} "
          f"mu_p={inv['mu_p']}")
    if inv["ihara"] is not None:
        ih = inv["ihara"]
        print(f"ihara: approx={ih['approx']} threshold={ih['threshold']} "
              f"exceeds={ih['exceeds']}")
    if report.euler is not None:
        eu = report.euler
        print(f"euler: s={eu['s']} t={eu['t']} h1={eu['h1']} rho={eu['rho']} "
              f"h2={eu['h2']} chi_ok={eu['chi_ok']} "
              f"rho_in_range={eu['rho_in_range']}")
    if report.note:
        print(f"note: {report.note}")
    return 0


def cmd_oracle(args) -> int:
    curve = _load_curve(args.curve)
    structure = jacobian_group(curve)
    if args.json:
        print(json.dumps(structure.to_json(), separators=(",", ":")))
        return 0
    factors = list(structure.invariant_factors)
    print(f"order={structure.order} invariant_factors={factors}")
    return 0


def cmd_gmodule(args) -> int:
    if args.random is not None:
        if args.random < 1:
            raise CurveClassError("--random must be at least 1")
        rng = random.Random(args.seed)
        modules = [random_gmodule(rng) for _ in range(args.random)]
    elif args.spec_file is not None:
        modules = [GModule.from_file(args.spec_file)]
    else:
        raise CurveClassError("need a module file or --random N")
    for line in harness_lines(modules, args.p):
        print(json.dumps(line, separators=(",", ":")))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="curveclass",
        description="decide the arithmetic homotopy-type property "
                    "for marked curves over finite fields",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_curve_cmd(name, func, help_text):
        cmd = sub.add_parser(name, help=help_text)
        cmd.add_argument("curve", help="path to a curve JSON file")
        cmd.add_argument("--json", action="store_true",
                         help="emit machine-readable JSON")
        cmd.add_argument("--budget", default=None,
                         help="largest field size q^d to work over "
                              f"(default {DEFAULT_BUDGET}); validate and "
                              "oracle do not use it")
        cmd.set_defaults(func=func)
        return cmd

    add_curve_cmd("validate", cmd_validate, "check a curve model")

    pts = add_curve_cmd("points", cmd_points, "list closed points")
    pts.add_argument("--max-degree", required=True,
                     help="largest residue degree to enumerate")

    add_curve_cmd("zeta", cmd_zeta, "zeta numerator and class number")

    cls = add_curve_cmd("classify", cmd_classify,
                        "run the decision procedure")
    cls.add_argument("--p", required=True,
                     help="the prime of the statement")
    cls.add_argument("--S", nargs="*", default=[],
                     help="closed-point ids removed from the curve")
    cls.add_argument("--T", nargs="*", default=[],
                     help="closed-point ids in the tame marking")

    add_curve_cmd("oracle", cmd_oracle,
                  "divisor class group by brute force")

    gm = sub.add_parser("gmodule", help="module coinvariants harness")
    gm.add_argument("spec_file", nargs="?", default=None,
                    help="path to a module JSON file")
    gm.add_argument("--random", default=None, metavar="N",
                    help="generate N random modules instead")
    gm.add_argument("--seed", default=0,
                    help="seed for --random")
    gm.add_argument("--p", required=True,
                    help="the prime of the statement")
    gm.set_defaults(func=cmd_gmodule)

    return parser


def _parse_int(args, dest):
    """Turn the integer option dest into an int; a value int() cannot read is
    an input error (exit 1), not an argparse usage exit.  The range of each
    value is checked where it is used."""
    raw = getattr(args, dest, None)
    if raw is None:
        return
    try:
        setattr(args, dest, int(raw))
    except ValueError:
        kind = "an integer >= 1" if dest == "budget" else "an integer"
        raise CurveClassError(f"--{dest.replace('_', '-')} {raw!r} is not {kind}") from None


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        for dest in ("budget", "p", "max_degree", "random", "seed"):
            _parse_int(args, dest)
        return args.func(args)
    except UnsupportedCase as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BudgetExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except CurveClassError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
