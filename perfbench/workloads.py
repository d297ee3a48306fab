"""One workload process of the clusterquake benchmark.

run.py starts this file in a fresh interpreter for every measurement:

    python3 perfbench/workloads.py --workload NAME --seed N --seconds S
                                   [--setup-only] [--trace FILE]

It sets up (imports, patterns, caches), draws a fixed list of operations
from the seed, and runs that list in whole rounds, one operation at a
time, until the operations have used S CPU seconds (and for at least
MIN_ROUNDS rounds).  It checks every output of every round and prints
one JSON line.

Timing is CPU time at reference speed.  On a shared virtual machine,
neighbours slow the CPU itself, through its caches and memory, in bursts
of seconds and in drifts over minutes: process CPU time then grows much
as wall time does.  A fixed calibration loop runs at least every
CALIBRATE_EVERY_S of operations, and each operation's CPU time is scaled
by CALIBRATION_REF_S over the calibration run just before it.  Each
operation then counts at the median of its repeats.  Checks and
calibration run outside the measured time, checks with tracing paused.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import random
import resource
import statistics
import subprocess
import sys
import time
import traceback
from fractions import Fraction

import checks

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
MIN_ROUNDS = 3
CALIBRATE_EVERY_S = 0.2
# Quietest CPU time of calibration() on the reference machine (see README).
CALIBRATION_REF_S = 0.0125
# 3000 small integer 4x4 matrices, about 1 MB: calibration() walks them as
# locate_cone walks cone matrices, so that it slows down with the cache and
# memory contention that slows the workloads, not only with the CPU's share.
CALIBRATION_TABLE = [tuple(tuple((7 * i + 3 * j + k * k) % 5 - 2
                                 for k in range(4)) for j in range(4))
                     for i in range(3000)]


def calibration():
    """Fixed pure-Python work: a matrix-vector product per table entry."""
    vec = (0.3, -1.2, 2.5, 0.7)
    hits = 0
    for matrix in CALIBRATION_TABLE:
        lam = tuple(sum(a * b for a, b in zip(row, vec)) for row in matrix)
        if all(c >= -1e-9 for c in lam):
            hits += 1
    return hits


def calibrate(samples, count=1):
    """Append the CPU time of `count` calibration runs; return their sum."""
    for _ in range(count):
        t0 = time.process_time()
        calibration()
        samples.append(time.process_time() - t0)
    return sum(samples[-count:])


def children_cpu():
    ru = resource.getrusage(resource.RUSAGE_CHILDREN)
    return ru.ru_utime + ru.ru_stime


class Phase:
    """Timed phase: the CPU seconds of every repeat of every operation,
    scaled to reference speed, with checks and calibration kept out of
    the measured time; and the failures of operations and of checks."""

    def __init__(self, tracer=None, count_children=False):
        self.tracer = tracer
        self.count_children = count_children
        self.samples = {}  # (kind, input) -> CPU seconds of each repeat
        self.attempted = 0
        self.failed = 0
        self.errors = []
        self.untimed_cpu = 0.0  # checks and calibration
        self.calibrations = []
        self.raw_cpu = 0.0
        self.since_calibration = 0.0
        self.cpu0 = self._cpu()
        self.wall0 = time.perf_counter()
        self.calibrate()

    def _cpu(self):
        own = time.process_time()
        return own + children_cpu() if self.count_children else own

    def cpu(self):
        """CPU seconds spent on operations since the phase began."""
        return self._cpu() - self.cpu0 - self.untimed_cpu

    def record(self, kind, key, seconds):
        """Keep an operation's CPU seconds, scaled to reference speed."""
        self.samples.setdefault((kind, key), []).append(
            seconds * CALIBRATION_REF_S / self.calibrations[-1])
        self.raw_cpu += seconds
        self.since_calibration += seconds
        if self.since_calibration >= CALIBRATE_EVERY_S:
            self.calibrate()

    def calibrate(self):
        self.untimed_cpu += calibrate(self.calibrations)
        self.since_calibration = 0.0

    def op(self, kind, key, fn, *args):
        """One timed operation on input `key`; None when it raised."""
        self.attempted += 1
        t0 = time.process_time()
        try:
            result = fn(*args)
        except Exception:  # an operation boundary: count it and go on
            self.failed += 1
            if self.failed <= 3:
                print(f"operation {kind} failed:\n{traceback.format_exc()}",
                      file=sys.stderr)
            return None
        self.record(kind, key, time.process_time() - t0)
        return result

    def check(self, fn, *args):
        t0 = self._cpu()
        if self.tracer:
            self.tracer.active = False
        try:
            fn(*args)
        except (checks.CheckFailed, ValueError, LookupError) as exc:
            self.errors.append(f"{type(exc).__name__}: {exc}")
        finally:
            if self.tracer:
                self.tracer.active = True
            self.untimed_cpu += self._cpu() - t0

    def result(self):
        """Figures at reference speed, and raw ones for reference."""
        typical = {key: statistics.median(v)
                   for key, v in self.samples.items()}
        by_kind = {}
        for (kind, _), seconds in typical.items():
            by_kind.setdefault(kind, []).append(seconds)
        medians = [statistics.median(v) for v in by_kind.values()]
        done = self.attempted - self.failed
        return {
            "attempted": self.attempted,
            "failed": self.failed,
            "correct": not self.errors,
            "errors": self.errors[:5],
            "ops_per_s": len(typical) / sum(typical.values()),
            "op_p50_ms": 1000 * math.exp(
                statistics.fmean(math.log(m) for m in medians)),
            "slowdown": statistics.median(self.calibrations)
            / CALIBRATION_REF_S,
            "calibrations": len(self.calibrations),
            "kinds": len(by_kind),
            "inputs_per_kind": min(len(v) for v in by_kind.values()),
            "repeats": min(len(v) for v in self.samples.values()),
            "timed_cpu_s": self.cpu(),
            "cpu_ops_per_s": done / self.raw_cpu,
            "wall_ops_per_s": done / (time.perf_counter() - self.wall0),
        }


# -- enumerate -------------------------------------------------------------------

ENUM_TYPES = ["A1xA1", "A2", "B2", "G2", "A3", "B3", "C3",
              "A4", "B4", "C4", "D4", "F4"]
# The identities of rank 4 would cost 7 of the 10.5 CPU seconds of a round.
IDENTITY_MAX_RANK = 3


class Enumerate:
    """Build path: pattern_from_type + fan() per type, then, up to
    IDENTITY_MAX_RANK, the exact identities on every vertex.  Nothing is
    shared between operations."""

    def __init__(self, cq, rng):
        self.cq = cq

    @staticmethod
    def inputs(rng):
        order = ENUM_TYPES[:]
        rng.shuffle(order)
        return order

    def build(self, label):
        P = self.cq.pattern_from_type(label)
        return P, P.fan()

    @staticmethod
    def identities(P):
        P.opposite()
        return [(P.fuGy_check(v.id)[1], P.fc_product(v.id, 1)[0],
                 P.fc_product(v.id, -1)[0]) for v in P.vertices]

    @staticmethod
    def check_pattern(label, P, fan):
        checks.check_counts(label, len(P), len(fan))
        for v in P.vertices:
            checks.check_sign_coherent(v.C)
            checks.check_unimodular(P.cone_matrix(v.id))

    @staticmethod
    def check_identities(rows):
        for residual, plus, minus in rows:
            checks.check_zero(residual, "FuGy")
            checks.check_nonpositive(plus, "F*C")
            checks.check_nonpositive(minus, "F*C^-")

    def round(self, order, phase):
        for label in order:
            built = phase.op(f"build {label}", 0, self.build, label)
            if built is None:
                continue
            phase.check(self.check_pattern, label, *built)
            if built[0].n <= IDENTITY_MAX_RANK:
                rows = phase.op(f"identities {label}", 0, self.identities,
                                built[0])
                if rows is not None:
                    phase.check(self.check_identities, rows)
            del built


# -- point_stream ------------------------------------------------------------------

POINT_TYPES = ["A2", "G2", "A3", "B3", "C3", "F4", "D4"]
CONES_PER_TYPE = 10
FD_STEP = 1e-4


def interior_point(rng, cone):
    """A seeded point inside a fan cone: a positive mix of its generators.
    Drawing one per cone, not uniformly, keeps the work of a round (which
    grows with the cone's place in the scan) the same for every seed."""
    lam = [rng.uniform(0.2, 1.5) for _ in cone.generators]
    return tuple(sum(c * g[i] for c, g in zip(lam, cone.generators))
                 for i in range(len(lam)))


class PointStream:
    """Scalar point API on patterns built and cached during set-up."""

    def __init__(self, cq, rng):
        self.cq = cq
        self.patterns = {}
        for label in POINT_TYPES:
            P = cq.pattern_from_type(label)
            fan = P.fan()
            opp = P.opposite()
            for v in P.vertices:
                P.cone_matrix_inv(v.id)
                P.vertex_sequence(v.id)
            for cone in fan:
                opp.based_matrices(P.opposite_vertex(cone.vertex_id))
            self.patterns[label] = (P, fan)
        P = self.patterns["A2"][0]
        self.a2_chain = [0]
        for k in (0, 1, 0, 1):
            self.a2_chain.append(P.mut_edges[(self.a2_chain[-1], k)])

    def inputs(self, rng):
        """One point in each of up to CONES_PER_TYPE cones of each type,
        spread evenly over the fan in vertex order, in a seeded order."""
        cq = self.cq
        out = []
        for label in POINT_TYPES:
            P, fan = self.patterns[label]
            n = P.n
            for cone in fan[::-(-len(fan) // CONES_PER_TYPE)]:
                out.append(dict(
                    label=label, key=cone.vertex_id,
                    g0=cq.PositivePoint(0, tuple(
                        math.exp(rng.uniform(-1, 1)) for _ in range(n))),
                    L=cq.TropicalPoint(0, interior_point(rng, cone)),
                    L_orth=cq.TropicalPoint(0, tuple(
                        rng.uniform(0, 5) for _ in range(n))),
                    t=rng.uniform(0.1, 3.0),
                    cone=cone.vertex_id, k=rng.randrange(n),
                    vid=cone.vertex_id,
                    g0_exact=cq.PositivePoint(0, tuple(
                        Fraction(rng.randint(1, 9), rng.randint(1, 9))
                        for _ in range(n))),
                    m=tuple(Fraction(rng.randint(1, 9), rng.randint(1, 9))
                            for _ in range(n))))
        rng.shuffle(out)
        return out

    def round(self, inputs, phase):
        cq = self.cq
        for p in inputs:
            label, key, g0, L = p["label"], p["key"], p["g0"], p["L"]
            P = self.patterns[label][0]

            def op(name, fn, *args):
                return phase.op(f"{name} {label}", key, fn, P, *args)

            res = op("quake", cq.quake, g0, L)
            if res is not None:
                back = op("inverse_quake", cq.inverse_quake, g0, res.g)
                if back is not None:
                    phase.check(checks.check_close, back.x, L.x, 1e-9,
                                f"{label} quake -> inverse_quake")
            d = op("dquake", cq.dquake, g0, L)
            if d is not None:
                phase.check(self.check_dquake, P, g0, L, d.delta)
            u = op("u_coords", cq.u_coords, g0, L)
            if u is not None and res is not None:
                phase.check(checks.check_close, u,
                            [math.log(a / b) for a, b in zip(res.g.X, g0.X)],
                            1e-9, f"{label} u_coords against quake")
            r = op("conjugacy_residual", cq.conjugacy_residual, g0, L, p["t"])
            if r is not None:
                phase.check(checks.check_at_most, r, 1e-10,
                            f"{label} conjugacy residual")
            lim = op("limit_L", cq.limit_L, g0, p["cone"], p["k"], 1000.0)
            if lim is not None:
                phase.check(checks.check_close, *lim, 1e-2,
                            f"{label} limit_L at t=1000")
            g = op("quake_multiplier", cq.quake_multiplier, p["g0_exact"],
                   p["vid"], p["m"])
            if g is not None:
                phase.check(self.check_multiplier, P, p["g0_exact"],
                            p["vid"], p["m"], g)
            phase.check(self.check_orthant, P, g0, p["L_orth"])
            if label == "A2":
                phase.check(self.check_a2_charts, P, p["g0_exact"])

    def check_dquake(self, P, g, L, delta):
        """Richardson-extrapolated one-sided difference of u_coords."""
        h = FD_STEP
        u1 = self.cq.u_coords(P, g, self.cq.scale(L, h), g.chart)
        u2 = self.cq.u_coords(P, g, self.cq.scale(L, h / 2), g.chart)
        fd = [2 * b / (h / 2) - a / h for a, b in zip(u1, u2)]
        checks.check_close(delta, fd, 1e-6, "dquake against finite difference")

    def check_multiplier(self, P, g0, vid, m, g):
        back = self.cq.quake_multiplier(P, g, vid, tuple(1 / x for x in m))
        checks.expect(all(isinstance(x, Fraction) for x in g.X),
                      f"quake_multiplier left the rationals: {g.X}")
        checks.expect(back.X == g0.X,
                      f"quake_multiplier by m then 1/m gave {back.X}, "
                      f"not {g0.X}")

    def check_orthant(self, P, g0, L):
        got = self.cq.quake(P, g0, L).g.X
        want = [x * math.exp(c) for x, c in zip(g0.X, L.x)]
        checks.check_close([a / b for a, b in zip(got, want)],
                           [1.0] * P.n, 1e-12, "quake on the base orthant")

    def check_a2_charts(self, P, g0):
        for vid, want in zip(self.a2_chain, checks.a2_charts(*g0.X)):
            got = self.cq.positive_transport(g0, P, vid).X
            checks.expect(got == want,
                          f"A2 chart {vid}: {got} != formula {want}")


# -- batch ----------------------------------------------------------------------------

BATCH_TYPE = "D4"
BLOCKS = 1


class Batch:
    """EarthquakeTransformer on one D4 pattern fitted during set-up."""

    def __init__(self, cq, rng):
        import numpy
        self.np = numpy
        g0 = tuple(math.exp(rng.uniform(-1, 1)) for _ in range(4))
        self.model = cq.EarthquakeTransformer(BATCH_TYPE, g0=g0).fit()
        P = self.model.pattern_
        for v in P.vertices:
            P.cone_matrix(v.id)
            P.cone_matrix_inv(v.id)
            P.vertex_sequence(v.id)
        self.log_g0 = [math.log(x) for x in g0]

    def inputs(self, rng):
        """BLOCKS blocks, each with one seeded row inside every cone of the
        fan, in a seeded order.  The base cone is the base orthant."""
        fan = self.model.pattern_.fan()
        blocks = []
        for _ in range(BLOCKS):
            rows = [interior_point(rng, cone) for cone in fan]
            rng.shuffle(rows)
            blocks.append(self.np.array(rows, dtype=float))
        return blocks

    def round(self, blocks, phase):
        for key, X in enumerate(blocks):
            Y = phase.op("transform", key, self.model.transform, X)
            if Y is not None:
                back = phase.op("inverse_transform", key,
                                self.model.inverse_transform, Y)
                if back is not None:
                    phase.check(checks.check_close, back.ravel(), X.ravel(),
                                1e-9, "transform -> inverse_transform")
                for row, image in zip(X, Y):
                    if min(row) >= 0:
                        phase.check(checks.check_close, image,
                                    [a + b for a, b in zip(self.log_g0, row)],
                                    1e-12, "transform on the base orthant")
            cones = phase.op("predict", key, self.model.predict, X)
            if cones is not None:
                phase.check(self.check_cones, X, cones)

    def check_cones(self, X, cones):
        P = self.model.pattern_
        for row, vid in zip(X, cones):
            checks.check_in_cone(P.cone_matrix(int(vid)), row.tolist(), 1e-9)


# -- cli --------------------------------------------------------------------------------

CARTAN_TYPES = ["A2", "B3", "C3", "D4", "F4", "G2", "A4"]
FAN_TYPES = ["A3", "B3", "C3"]


def run_cli(argv):
    """Run one child to its end: (exit code, output, CPU s, max RSS MB)."""
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE,
                            stderr=subprocess.STDOUT, cwd=ROOT)
    try:
        out = proc.stdout.read().decode()
    finally:
        proc.stdout.close()
        _, status, ru = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, out, ru.ru_utime + ru.ru_stime, ru.ru_maxrss / 1024


class Cli:
    """One fresh `python -m clusterquake.cli` process per operation."""

    CLI = [sys.executable, "-m", "clusterquake.cli"]

    def __init__(self, cq, rng):
        self.child_rss_mb = 0.0
        self.call(None, "warm-up", ["cartan", "--type", "A2"])

    @staticmethod
    def inputs(rng):
        def coords(lo, hi, n):
            return ",".join(f"{rng.uniform(lo, hi):.3f}" for _ in range(n))

        return dict(cartan=rng.choice(CARTAN_TYPES), g0=coords(0.4, 2.7, 3),
                    L=coords(-5, 5, 3), fan=rng.choice(FAN_TYPES),
                    grid_g0=coords(0.4, 2.7, 2), seed=rng.randrange(10**6))

    def call(self, phase, kind, args, parse=None):
        """Run one command; in the timed phase record its CPU time and
        return its output, parsed by `parse` (None on failure)."""
        argv = self.CLI + args
        code, out, cpu, rss = run_cli(argv)
        self.child_rss_mb = max(self.child_rss_mb, rss)
        if phase is None:
            checks.check_exit(code, out, argv)
            return out
        phase.attempted += 1
        if code != 0:
            phase.failed += 1
            print(f"{' '.join(argv)} exited {code}:\n{out}", file=sys.stderr)
            return None
        phase.record(kind, 0, cpu)
        if parse is None:
            return out
        try:
            return parse(out)
        except ValueError:
            phase.errors.append(f"{' '.join(argv)} printed {out[:200]!r}")
            return None

    def round(self, p, phase):
        out = self.call(phase, "cartan", ["cartan", "--type", p["cartan"]],
                        json.loads)
        if out is not None:
            phase.check(self.check_cartan, out)
        out = self.call(phase, "quake", ["quake", "--type", "A3", "--g0",
                                         p["g0"], f"--L={p['L']}"], json.loads)
        if out is not None:
            g = ",".join(repr(x) for x in out["g"])
            back = self.call(phase, "inverse", ["inverse", "--type", "A3",
                                                "--g0", p["g0"], "--g", g],
                             json.loads)
            if back is not None:
                phase.check(checks.check_close, back["L"],
                            [float(x) for x in p["L"].split(",")], 1e-9,
                            "cli quake -> inverse")
        out = self.call(phase, "fan", ["fan", "--type", p["fan"]], json.loads)
        if out is not None:
            phase.check(self.check_fan, p["fan"], out)
        out = self.call(phase, "plot_grid", ["plot-grid", "--type", "G2",
                                             "--g0", p["grid_g0"]])
        if out is not None:
            phase.check(self.check_grid, out)
        out = self.call(phase, "verify", ["verify", "--type", "A2", "--suite",
                                          "earthquake", "--seed",
                                          str(p["seed"])])
        if out is not None:
            phase.check(self.check_verify, out)

    @staticmethod
    def check_cartan(obj):
        eps, d, n = obj["entries"], obj["d"], obj["n"]
        checks.expect(len(eps) == n == len(d), f"cartan output {obj}")
        checks.expect(all(eps[i][j] * d[j] == -eps[j][i] * d[i]
                          for i in range(n) for j in range(n)),
                      f"cartan matrix {eps} is not skew-symmetrized by {d}")

    @staticmethod
    def check_fan(label, obj):
        checks.expect(obj["count"] == len(obj["cones"]),
                      f"fan count {obj['count']} != {len(obj['cones'])} cones")
        checks.expect(obj["count"] == checks.fz_cluster_count(label),
                      f"{label}: cli fan lists {obj['count']} cones, FZ "
                      f"count is {checks.fz_cluster_count(label)}")
        for cone in obj["cones"]:
            checks.check_unimodular(list(zip(*cone["generators"])))

    @staticmethod
    def check_grid(out):
        lines = out.splitlines()
        checks.expect(lines[0] == "x1,x2,cone,logX1,logX2,u1,u2",
                      f"plot-grid header {lines[0]!r}")
        checks.expect(len(lines) == 1 + 13 * 13,
                      f"plot-grid printed {len(lines) - 1} rows, not 169")
        for line in lines[1:]:
            cells = line.split(",")
            checks.expect(len(cells) == 7 and cells[2].isdigit()
                          and all(math.isfinite(float(c)) for c in cells),
                          f"plot-grid row {line!r}")

    @staticmethod
    def check_verify(out):
        checks.expect(out.rstrip().endswith("verify: PASS"),
                      f"verify did not pass: {out[-200:]!r}")

    def layer_probes(self, samples):
        """Per-layer figures of the cli layer, from child processes, at
        reference speed like the end-to-end figures."""
        probes = Phase()
        for kind, code in (("interpreter", "pass"),
                           ("import", "import clusterquake")):
            for _ in range(5):
                probes.record(kind, 0, run_cli([sys.executable, "-c",
                                                code])[2])
        median = {kind: statistics.median(v)
                  for (kind, _), v in {**samples, **probes.samples}.items()}
        out = {f"cli.{kind}_s": median[kind] for kind, _ in samples}
        out.update({"cli.interpreter_s": median["interpreter"],
                    "cli.import_s": median["import"] - median["interpreter"],
                    "cli.child_rss_mb": self.child_rss_mb})
        return out


WORKLOADS = {"enumerate": Enumerate, "point_stream": PointStream,
             "batch": Batch, "cli": Cli}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--trace", default=None, metavar="FILE")
    args = parser.parse_args()

    rng = random.Random(args.seed)
    tracer = None
    cq = None
    # Set-up runs once, at the machine's current speed: it is scaled by the
    # median of calibration runs spread over it, not by the quietest one.
    setup_calibrations = []
    untimed = calibrate(setup_calibrations, 5)
    if args.workload != "cli":
        import clusterquake as cq
        if not os.path.abspath(cq.__file__).startswith(
                os.path.join(ROOT, "src") + os.sep):
            sys.exit(f"clusterquake imported from {cq.__file__}, "
                     f"not from {ROOT}/src")
        if args.trace:
            import tracer as tracing
            tracer = tracing.Tracer()
            tracer.install()
    cls = WORKLOADS[args.workload]
    untimed += calibrate(setup_calibrations, 5)
    workload = cls(cq, rng)
    inputs = workload.inputs(rng)
    gc.collect()
    untimed += calibrate(setup_calibrations, 5)
    raw_setup_s = (time.process_time() - untimed
                   + (children_cpu() if cls is Cli else 0))
    setup = {"setup_s": raw_setup_s * CALIBRATION_REF_S
             / statistics.median(setup_calibrations),
             "raw_setup_s": raw_setup_s}
    if args.setup_only:
        print(json.dumps(setup))
        return

    phase = Phase(tracer, count_children=cls is Cli)
    rounds = 0
    while rounds < MIN_ROUNDS or phase.cpu() < args.seconds:
        workload.round(inputs, phase)
        rounds += 1
    result = phase.result()
    result.update(rounds=rounds, **setup)
    if cls is Cli:
        result["peak_rss_mb"] = workload.child_rss_mb
    else:
        result["peak_rss_mb"] = resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024
    if args.trace:
        if tracer is not None:
            tracer.active = False
            result["layers"] = tracing.derive(tracer)
            tracer.dump(args.trace)
        else:
            result["layers"] = workload.layer_probes(phase.samples)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
