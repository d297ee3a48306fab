"""Command-line front end.

Subcommands:
  cartan      print the seed matrix of a Cartan-type label
  enumerate   build the labeled exchange graph and dump it as JSON
  fan         list the maximal cones of the fan
  quake       evaluate the earthquake map at one point
  inverse     invert the earthquake map
  dquake      one-sided derivative at t=0+, analytic and finite-difference
  limits      asymptotic limit tables (--mode L or --mode g)
  horocycle   conjugacy residual of one earthquake/horocycle pair
  plot-grid   rank-2 grid of cone ids, image log-coordinates, u-coordinates
  verify      run the invariant suites; exit 0 iff everything passes

Grids and reports are deterministic: a fixed configuration and --seed
produce byte-identical output.  CLUSTER_QUAKE_CAP bounds enumeration.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import random
import sys
from fractions import Fraction

from . import checks
from . import earthquake as eq
from .errors import ClusterQuakeError, PreconditionError
from .horocycle import conjugacy_residual, horocycle_flow, lift
from .patterns import enumerate_pattern
from .points import PositivePoint, TropicalPoint, _logs, locate_cone
from .seeds import ExchangeMatrix, seed_from_type


def _num(text):
    """int, exact fraction, or float — whichever parses first."""
    try:
        return int(text)
    except ValueError:
        pass
    try:
        return Fraction(text)
    except ValueError:
        pass
    try:
        return float(text)
    except ValueError:
        raise PreconditionError(f"not a number: {text!r}") from None


def _nums(text):
    return tuple(_num(part) for part in text.split(","))


def _load_seed(args) -> ExchangeMatrix:
    if getattr(args, "matrix", None):
        raw = args.matrix
        if os.path.exists(raw):
            with open(raw, "r", encoding="utf-8") as fh:
                raw = fh.read()
        return ExchangeMatrix.from_json(raw)
    return seed_from_type(args.type, getattr(args, "orientation", "linear"))


def _pattern(args):
    seed = _load_seed(args)
    tag = args.type if not getattr(args, "matrix", None) else "custom"
    return enumerate_pattern(seed, type_tag=tag)


def _coords(raw, flag, pattern):
    coords = _nums(raw)
    if len(coords) != pattern.n:
        raise PreconditionError(
            f"{flag} needs {pattern.n} coordinates, got {len(coords)}")
    return coords


def _g0(args, pattern):
    """--g0 as a base-chart point; one beyond or below the float range is
    reported here, under its own name, by every command that takes it."""
    g0 = PositivePoint(pattern.base, _coords(args.g0, "--g0", pattern)
                       if args.g0 else (1,) * pattern.n)
    _logs(g0.X, "g0")
    return g0


def _L(args, pattern):
    if args.L is None:
        raise ClusterQuakeError("--L is required for this subcommand")
    return TropicalPoint(pattern.base, _coords(args.L, "--L", pattern))


def _emit(text, args):
    out = getattr(args, "out", None)
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _emit_json(obj, args):
    _emit(json.dumps(obj, indent=2, sort_keys=True) + "\n", args)


def _floats(values):
    return [float(v) for v in values]


# -- subcommands -------------------------------------------------------------


def cmd_cartan(args):
    seed = _load_seed(args)
    _emit_json(seed.to_json_obj(), args)
    return 0


def cmd_enumerate(args):
    pattern = _pattern(args)
    obj = pattern.to_json_obj()
    obj["vertex_count"] = len(pattern)
    obj["cone_count"] = len(pattern.fan())
    _emit_json(obj, args)
    if args.stats:
        print(json.dumps(pattern.stats, sort_keys=True), file=sys.stderr)
    return 0


def cmd_fan(args):
    pattern = _pattern(args)
    cones = [{"vertex": c.vertex_id,
              "generators": [list(g) for g in c.generators],
              "members": list(c.members)}
             for c in pattern.fan()]
    _emit_json({"type": pattern.type_tag, "count": len(cones),
                "cones": cones}, args)
    return 0


def cmd_quake(args):
    pattern = _pattern(args)
    g0 = _g0(args, pattern)
    L = _L(args, pattern)
    result = eq.quake(pattern, g0, L)
    _emit_json({"cone": result.cone_vertex,
                "g": _floats(result.g.X),
                "logX": [math.log(float(x)) for x in result.g.X]}, args)
    return 0


def cmd_inverse(args):
    pattern = _pattern(args)
    g0 = _g0(args, pattern)
    if not args.g:
        raise ClusterQuakeError("--g is required for `inverse`")
    g = PositivePoint(pattern.base, _coords(args.g, "--g", pattern))
    L = eq.inverse_quake(pattern, g0, g)
    _emit_json({"L": _floats(L.x)}, args)
    return 0


def cmd_dquake(args):
    pattern = _pattern(args)
    g0 = _g0(args, pattern)
    L = _L(args, pattern)
    analytic = eq.dquake(pattern, g0, L)
    fd = eq.dquake(pattern, g0, L, method="finite_difference")
    diff = max(abs(a - b) for a, b in zip(analytic.delta, fd.delta))
    _emit_json({"cone": locate_cone(L, pattern).vertex,
                "xi": list(analytic.delta),
                "xi_finite_difference": list(fd.delta),
                "max_method_difference": diff}, args)
    return 0


def cmd_limits(args):
    pattern = _pattern(args)
    if args.mode == "L":
        rows = checks.limit_L_rows(pattern, _g0(args, pattern), args.t)
    else:
        rows = checks.limit_g_rows(pattern, args.M)
    _emit_json({"mode": args.mode, "rows": rows,
                "max_err": max(r["err"] for r in rows)}, args)
    return 0


def cmd_horocycle(args):
    pattern = _pattern(args)
    g0 = _g0(args, pattern)
    L = _L(args, pattern)
    z = lift(pattern, g0, L)
    flowed = horocycle_flow(z, args.t)
    residual = conjugacy_residual(pattern, g0, L, args.t)
    _emit_json({"chart": z.chart,
                "lift": [[c.real, c.imag] for c in z.z],
                "flowed": [[c.real, c.imag] for c in flowed.z],
                "residual": residual}, args)
    return 0


def cmd_plot_grid(args):
    pattern = _pattern(args)
    if pattern.n != 2:
        from .errors import UnsupportedPlotError
        raise UnsupportedPlotError(
            f"plot-grid draws rank-2 fans only, got rank {pattern.n}")
    g0 = _g0(args, pattern)
    if not all(map(math.isfinite, (*args.range, args.step))):
        raise PreconditionError("--range and --step must be finite")
    lo, hi = (Fraction(str(args.range[0])), Fraction(str(args.range[1])))
    step = Fraction(str(args.step))
    if step <= 0:
        raise PreconditionError("--step must be positive")
    count = int((hi - lo) / step)
    ticks = [lo + i * step for i in range(count + 1)]
    rows = []
    for x1 in ticks:
        for x2 in ticks:
            L = TropicalPoint(pattern.base, (x1, x2))
            result = eq.quake(pattern, g0, L)
            logx = [math.log(float(v)) for v in result.g.X]
            u = eq.u_coords(pattern, g0, L)
            rows.append((float(x1), float(x2), result.cone_vertex,
                         logx[0], logx[1], u[0], u[1]))
    if args.format == "json":
        keys = ("x1", "x2", "cone", "logX1", "logX2", "u1", "u2")
        _emit_json([dict(zip(keys, row)) for row in rows], args)
    else:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["x1", "x2", "cone", "logX1", "logX2", "u1", "u2"])
        for row in rows:
            writer.writerow([repr(v) if isinstance(v, float) else v
                             for v in row])
        _emit(buf.getvalue(), args)
    return 0


def cmd_verify(args):
    if args.suite != "all" and args.suite not in checks.SUITES:
        raise ClusterQuakeError(
            f"unknown suite {args.suite!r}; pick one of "
            f"{', '.join([*checks.SUITES, 'all'])}")
    pattern = _pattern(args)
    names = list(checks.SUITES) if args.suite == "all" else [args.suite]
    results = []
    for name in names:
        results += checks.SUITES[name](pattern, random.Random(args.seed))
    failed = not all(check.ok for check in results)
    lines = [f"{'PASS' if check.ok else 'FAIL'} {check.name}: {check.detail}"
             for check in results]
    lines.append(f"verify: {'FAIL' if failed else 'PASS'}")
    _emit("\n".join(lines) + "\n", args)
    return 1 if failed else 0


# -- argument wiring ----------------------------------------------------------


def _add_seed_flags(sub):
    sub.add_argument("--type", default="A2",
                     help="Cartan-type label such as A2, B3, D4, A1xA1")
    sub.add_argument("--matrix", default=None, metavar="JSON",
                     help="explicit seed as JSON (inline or a file path); "
                          "overrides --type")
    sub.add_argument("--orientation", default="linear",
                     choices=["linear", "bipartite"],
                     help="orientation of the Cartan-type seed")
    sub.add_argument("--out", default=None, help="write output here "
                                                 "instead of stdout")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="clusterquake",
        description="finite-type cluster fans and the earthquake map")
    subs = parser.add_subparsers(dest="command", required=True)

    sub = subs.add_parser("cartan", help="seed matrix of a type label")
    _add_seed_flags(sub)
    sub.set_defaults(func=cmd_cartan)

    sub = subs.add_parser("enumerate", help="labeled exchange graph as JSON")
    _add_seed_flags(sub)
    sub.add_argument("--stats", action="store_true",
                     help="also write counts, CPU seconds per phase and "
                          "cache sizes to stderr, as one JSON line")
    sub.set_defaults(func=cmd_enumerate)

    sub = subs.add_parser("fan", help="maximal cones of the fan")
    _add_seed_flags(sub)
    sub.set_defaults(func=cmd_fan)

    sub = subs.add_parser("quake", help="evaluate the earthquake map")
    _add_seed_flags(sub)
    sub.add_argument("--g0", default=None, help="base point, comma-separated")
    sub.add_argument("--L", default=None, help="tropical point, "
                                               "comma-separated")
    sub.set_defaults(func=cmd_quake)

    sub = subs.add_parser("inverse", help="invert the earthquake map")
    _add_seed_flags(sub)
    sub.add_argument("--g0", default=None)
    sub.add_argument("--g", default=None, help="image point, comma-separated")
    sub.set_defaults(func=cmd_inverse)

    sub = subs.add_parser("dquake", help="derivative at t=0+")
    _add_seed_flags(sub)
    sub.add_argument("--g0", default=None)
    sub.add_argument("--L", default=None)
    sub.set_defaults(func=cmd_dquake)

    sub = subs.add_parser("limits", help="asymptotic limit tables")
    _add_seed_flags(sub)
    sub.add_argument("--mode", choices=["L", "g"], default="L")
    sub.add_argument("--g0", default=None)
    sub.add_argument("--t", type=float, default=1000.0,
                     help="scaling for --mode L")
    sub.add_argument("--M", type=float, default=30.0,
                     help="log-coordinate magnitude for --mode g")
    sub.set_defaults(func=cmd_limits)

    sub = subs.add_parser("horocycle", help="earthquake/horocycle conjugacy")
    _add_seed_flags(sub)
    sub.add_argument("--g0", default=None)
    sub.add_argument("--L", default=None)
    sub.add_argument("--t", type=float, default=1.0)
    sub.set_defaults(func=cmd_horocycle)

    sub = subs.add_parser("plot-grid", help="rank-2 data grid (CSV)")
    _add_seed_flags(sub)
    sub.add_argument("--g0", default=None)
    sub.add_argument("--range", nargs=2, type=float, default=[-6.0, 6.0],
                     metavar=("LO", "HI"))
    sub.add_argument("--step", type=float, default=1.0)
    sub.add_argument("--format", choices=["csv", "json"], default="csv")
    sub.set_defaults(func=cmd_plot_grid)

    sub = subs.add_parser("verify", help="run invariant suites")
    _add_seed_flags(sub)
    sub.add_argument("--suite", default="all",
                     help="|".join([*checks.SUITES, "all"]))
    sub.add_argument("--seed", type=int, default=0)
    sub.set_defaults(func=cmd_verify)
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ClusterQuakeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
