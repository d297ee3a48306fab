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

from . import earthquake as eq
from . import intmat
from .errors import ClusterQuakeError, PreconditionError
from .horocycle import CentralCharge, conjugacy_residual, glue, \
    horocycle_flow, lift
from .patterns import enumerate_pattern
from .points import PositivePoint, TropicalPoint, locate_cone
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


def _g0(args, pattern):
    coords = _nums(args.g0) if args.g0 else (1,) * pattern.n
    if len(coords) != pattern.n:
        raise ClusterQuakeError(
            f"--g0 needs {pattern.n} coordinates, got {len(coords)}")
    return PositivePoint(pattern.base, coords)


def _L(args, pattern, flag="--L"):
    raw = args.L
    if raw is None:
        raise ClusterQuakeError(f"{flag} is required for this subcommand")
    coords = _nums(raw)
    if len(coords) != pattern.n:
        raise ClusterQuakeError(
            f"{flag} needs {pattern.n} coordinates, got {len(coords)}")
    return TropicalPoint(pattern.base, coords)


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


# -- plain subcommands -------------------------------------------------------


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
    g = PositivePoint(pattern.base, _nums(args.g))
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
    rows = []
    if args.mode == "L":
        g0 = _g0(args, pattern)
        for cone in pattern.fan():
            for k in range(pattern.n):
                estimate, target = eq.limit_L(pattern, g0, cone.vertex_id,
                                              k, args.t)
                err = max(abs(a - b) for a, b in zip(estimate, target))
                rows.append({"v": cone.vertex_id, "k": k,
                             "estimate": list(estimate),
                             "target": list(target), "err": err})
    else:
        coord = math.exp(args.M)
        g = PositivePoint(pattern.base, (coord,) * pattern.n)
        for v in pattern.vertices:
            u_matrix, target = eq.limit_g(pattern, g, v.id)
            err = max(abs(a - b) for ra, rb in zip(u_matrix, target)
                      for a, b in zip(ra, rb))
            rows.append({"v": v.id,
                         "u_matrix": [list(r) for r in u_matrix],
                         "target": [list(r) for r in target], "err": err})
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
    lo, hi = (Fraction(str(args.range[0])), Fraction(str(args.range[1])))
    step = Fraction(str(args.step))
    if step <= 0:
        raise ClusterQuakeError("--step must be positive")
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


# -- verification suites ------------------------------------------------------


def _suite_matrices(pattern, rng, report):
    worst = 0
    for v in pattern.vertices:
        dual = intmat.inverse_unimodular(
            pattern.opposite().vertex(pattern.opposite_vertex(v.id)).C)
        ok_dual = dual == pattern.cone_matrix(v.id)
        ok_fugy, residual = pattern.fuGy_check(v.id)
        worst = max(worst, max(abs(x) for row in residual for x in row))
        for k in range(pattern.n):
            pattern.tropical_sign(v.id, k)  # raises if not sign-coherent
        if not (ok_dual and ok_fugy):
            report.fail("matrices", f"vertex {v.id}: duality={ok_dual} "
                                    f"fugy={ok_fugy}")
            return
    report.ok("matrices", f"vertices={len(pattern)} duality+fugy+signs "
                          f"exact (max residual {worst})")


def _suite_fan(pattern, rng, report, samples=10_000):
    cones = pattern.fan()
    tol = 1e-9
    interior_overlaps = 0
    for _ in range(samples):
        x = tuple(rng.uniform(-10, 10) for _ in range(pattern.n))
        locate_cone(TropicalPoint(pattern.base, x), pattern)  # must not raise
        strict = 0
        for cone in cones:
            lam = intmat.matvec(pattern.cone_matrix_inv(cone.vertex_id), x)
            if all(c > tol for c in lam):
                strict += 1
        if strict > 1:
            interior_overlaps += 1
    if interior_overlaps:
        report.fail("fan", f"{interior_overlaps} samples landed in two "
                           "open cones")
    else:
        report.ok("fan", f"cones={len(cones)} complete+disjoint on "
                         f"{samples} samples")


def _suite_earthquake(pattern, rng, report, samples=1000, tol=1e-9):
    worst = 0.0
    for _ in range(samples):
        g0 = PositivePoint(pattern.base,
                           tuple(math.exp(rng.uniform(-2, 2))
                                 for _ in range(pattern.n)))
        L = TropicalPoint(pattern.base,
                          tuple(rng.uniform(-8, 8) for _ in range(pattern.n)))
        g = eq.quake(pattern, g0, L).g
        back = eq.inverse_quake(pattern, g0, g)
        worst = max(worst, max(abs(a - float(b))
                               for a, b in zip(back.x, L.x)))
    if worst <= tol:
        report.ok("earthquake", f"round-trip on {samples} samples, "
                                f"max residual {worst:.3e}")
    else:
        report.fail("earthquake", f"round-trip residual {worst:.3e} > {tol}")


def _suite_derivatives(pattern, rng, report, samples=200, tol=1e-6):
    worst = 0.0
    for _ in range(samples):
        g = PositivePoint(pattern.base,
                          tuple(math.exp(rng.uniform(-1, 1))
                                for _ in range(pattern.n)))
        L = TropicalPoint(pattern.base,
                          tuple(rng.uniform(-5, 5) for _ in range(pattern.n)))
        analytic = eq.dquake(pattern, g, L).delta
        fd = eq.dquake(pattern, g, L, method="finite_difference").delta
        worst = max(worst, max(abs(a - b) for a, b in zip(analytic, fd)))
    if worst <= tol:
        report.ok("derivatives", f"analytic vs finite-difference on "
                                 f"{samples} samples, max gap {worst:.3e}")
    else:
        report.fail("derivatives", f"method gap {worst:.3e} > {tol}")


def _suite_limits(pattern, rng, report):
    g0 = PositivePoint(pattern.base, (1,) * pattern.n)
    errs_by_t = {}
    for t in (10.0, 100.0, 1000.0):
        worst = 0.0
        for cone in pattern.fan():
            for k in range(pattern.n):
                estimate, target = eq.limit_L(pattern, g0, cone.vertex_id,
                                              k, t)
                worst = max(worst, max(abs(a - b)
                                       for a, b in zip(estimate, target)))
        errs_by_t[t] = worst
    monotone = errs_by_t[10.0] >= errs_by_t[100.0] >= errs_by_t[1000.0]
    if errs_by_t[1000.0] <= 1e-2 and monotone:
        report.ok("limits.L", f"errs {errs_by_t[10.0]:.2e} >= "
                              f"{errs_by_t[100.0]:.2e} >= "
                              f"{errs_by_t[1000.0]:.2e} <= 1e-2")
    else:
        report.fail("limits.L", f"errs by t: {errs_by_t}")

    def u_err(M):
        g = PositivePoint(pattern.base, (math.exp(M),) * pattern.n)
        worst = 0.0
        for v in pattern.vertices:
            u_matrix, target = eq.limit_g(pattern, g, v.id)
            worst = max(worst, max(abs(a - b)
                                   for ra, rb in zip(u_matrix, target)
                                   for a, b in zip(ra, rb)))
        return worst

    err30, err10 = u_err(30.0), u_err(10.0)
    if err30 <= 1e-3 and err30 < err10:
        report.ok("limits.g", f"err(M=30)={err30:.2e} < err(M=10)="
                              f"{err10:.2e}")
    else:
        report.fail("limits.g", f"err(M=30)={err30:.2e}, err(M=10)="
                                f"{err10:.2e}")


def _suite_horocycle(pattern, rng, report, samples=300,
                     tol=1e-10, glue_tol=1e-12):
    from .errors import BoundaryError
    worst = 0.0
    done = 0
    while done < samples:
        g = PositivePoint(pattern.base,
                          tuple(math.exp(rng.uniform(-1, 1))
                                for _ in range(pattern.n)))
        L = TropicalPoint(pattern.base,
                          tuple(rng.uniform(-5, 5) for _ in range(pattern.n)))
        t = rng.uniform(0.1, 3.0)
        try:
            worst = max(worst, conjugacy_residual(pattern, g, L, t))
        except BoundaryError:
            continue
        done += 1
    glue_worst = 0.0
    for _ in range(samples):
        k = rng.randrange(pattern.n)
        z = [complex(rng.uniform(-2, 2), rng.uniform(0.1, 2))
             for _ in range(pattern.n)]
        z[k] = complex(rng.choice([-1, 1]) * rng.uniform(0.1, 2), 0.0)
        t = rng.uniform(0.1, 3.0)
        Z = CentralCharge(pattern.base, tuple(z))
        lhs = horocycle_flow(glue(Z, pattern, k), t)
        rhs = glue(horocycle_flow(Z, t), pattern, k)
        back = glue(glue(Z, pattern, k), pattern, k)
        glue_worst = max(glue_worst,
                         max(abs(a - b) for a, b in zip(lhs.z, rhs.z)),
                         max(abs(a - b) for a, b in zip(back.z, Z.z)))
    ok = worst <= tol and glue_worst <= glue_tol
    line = (f"conjugacy {worst:.3e} on {samples} samples, "
            f"glue/flow {glue_worst:.3e}")
    report.ok("horocycle", line) if ok else report.fail("horocycle", line)


class _Report:
    def __init__(self):
        self.lines = []
        self.failed = False

    def ok(self, name, detail):
        self.lines.append(f"PASS {name}: {detail}")

    def fail(self, name, detail):
        self.failed = True
        self.lines.append(f"FAIL {name}: {detail}")

    def text(self):
        verdict = "FAIL" if self.failed else "PASS"
        return "\n".join(self.lines + [f"verify: {verdict}"]) + "\n"


_SUITES = {
    "matrices": _suite_matrices,
    "fan": _suite_fan,
    "earthquake": _suite_earthquake,
    "derivatives": _suite_derivatives,
    "limits": _suite_limits,
    "horocycle": _suite_horocycle,
}


def cmd_verify(args):
    if args.suite != "all" and args.suite not in _SUITES:
        raise ClusterQuakeError(
            f"unknown suite {args.suite!r}; pick one of "
            f"{', '.join([*_SUITES, 'all'])}")
    pattern = _pattern(args)
    report = _Report()
    names = list(_SUITES) if args.suite == "all" else [args.suite]
    for name in names:
        _SUITES[name](pattern, random.Random(args.seed), report)
    _emit(report.text(), args)
    return 1 if report.failed else 0


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
                     help="matrices|fan|earthquake|derivatives|limits|"
                          "horocycle|all")
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
