"""The three workloads: set-up, one round of program calls, and the checks
of a round's outputs.

A workload object is built from the run's seed; building it is the set-up
that ``setup_s`` times (bodies, test functions and the first fill of their
lazy tables).  ``round()`` makes the timed program calls and returns their
outputs; every round repeats the same calls on the same inputs, so the
outputs of every round must equal those of the first bit for bit.
``checks(outputs)`` compares them with ``bench_oracles`` and returns
(name, passed) pairs, one per operation.
"""

from __future__ import annotations

import math

import numpy as np

import bench_oracles as orc
from torsion_bound import brownian_1d as b1
from torsion_bound import convex_geometry as cg
from torsion_bound import hh_verifier as hh
from torsion_bound import presets
from torsion_bound import rng
from torsion_bound import wos_engine as wos
from torsion_bound.convex_geometry import BoundaryPoint
from torsion_bound.estimates import WosConfig

WALKS = 10_000


def fill_lazy_tables(body) -> None:
    """First fill of the tables a body computes on demand."""
    body.diameter
    if isinstance(body, cg.Polytope) and body.require_bounded:
        body.faces
        body._face_cum
    elif isinstance(body, cg.Box):
        body._face_table
    elif isinstance(body, cg.Intersection):
        body._mixture


def _sub_seed(gen: np.random.Generator) -> int:
    return int(gen.integers(2 ** 32))


def _rel(est) -> float:
    return est.stderr / abs(est.mean)


class ProbeCounter:
    """Counts calls to ``wos_engine.normal_derivative`` and the ones it
    rejects, so a round can check ``evaluations`` against them."""

    def __init__(self):
        self.calls = 0
        self.rejected = 0
        inner = wos.normal_derivative

        def counted(*args, **kwargs):
            self.calls += 1
            try:
                return inner(*args, **kwargs)
            except ValueError:
                self.rejected += 1
                raise

        wos.normal_derivative = counted
        self._inner = inner

    def take(self) -> tuple[int, int]:
        out = (self.calls, self.rejected)
        self.calls = self.rejected = 0
        return out

    def close(self) -> None:
        wos.normal_derivative = self._inner


# ---------------------------------------------------------------------------


class GradientMax:
    """max_normal_derivative on five bodies, one per distance family."""

    BODIES = ("unit-ball-n2", "unit-box-n2", "beck-ellipsoid-n4",
              "half-disk", "random-polytope-n3")
    BOUNDARY_SAMPLES = 8

    def __init__(self, seed: int):
        gen = np.random.default_rng(seed)
        self.items = []
        for name in self.BODIES:
            body = presets.body_preset(name)
            fill_lazy_tables(body)
            cfg = WosConfig(samples=WALKS, seed=_sub_seed(gen))
            fresh = cfg.replace(seed=_sub_seed(gen))
            self.items.append((name, body, cfg, fresh))
        self.counter = ProbeCounter()

    def round(self):
        out = []
        for _name, body, cfg, _fresh in self.items:
            self.counter.take()
            grad = wos.max_normal_derivative(body, cfg, self.BOUNDARY_SAMPLES)
            calls, rejected = self.counter.take()
            vol = cg.volume(body, cfg)
            out.append((grad, calls, rejected, vol))
        return out

    @staticmethod
    def fingerprint(outputs):
        return [(g.estimate.mean, g.estimate.stderr, *g.location, *g.normal,
                 g.evaluations, calls, rejected, vol.mean, vol.stderr)
                for g, calls, rejected, vol in outputs]

    @staticmethod
    def rel_stderrs(outputs):
        return [_rel(g.estimate) for g, _c, _r, _v in outputs]

    def checks(self, outputs):
        res = []
        for (name, body, _cfg, fresh_cfg), (grad, calls, rejected, vol) in zip(
                self.items, outputs):
            n = body.dimension
            true_vol = orc.volume(body)
            bound = orc.theorem2_bound(n, true_vol)
            est, loc, nrm = grad.estimate, grad.location, grad.normal
            res.append((f"{name}: max <= (sqrt 2/pi) vol^(1/n)",
                        orc.at_most(est.mean, bound, est.stderr)))
            res.append((f"{name}: location on the boundary",
                        abs(orc.level(body, loc)) <= 1e-9 * max(1.0, np.abs(loc).max())))
            res.append((f"{name}: unit normal",
                        abs(float(np.linalg.norm(nrm)) - 1.0) <= 1e-12))
            res.append((f"{name}: evaluations = probes - rejected",
                        grad.evaluations == calls - rejected >= 1
                        and calls <= self.BOUNDARY_SAMPLES))
            res.append((f"{name}: volume",
                        orc.close(vol.mean, true_vol, vol.stderr, 1e-12 * true_vol)))
            again = wos.normal_derivative(
                body, BoundaryPoint(position=loc, inward_normal=nrm), fresh_cfg)
            res.append((f"{name}: fresh estimate <= (sqrt 2/pi) vol^(1/n)",
                        orc.at_most(again.mean, bound, again.stderr)))
            if orc.torsion(body, loc) is None:
                continue
            delta = _probe_depth(body, loc, nrm, fresh_cfg)
            if delta is None:
                res.append((f"{name}: fresh probe deeper than the shell", False))
                continue
            target = orc.torsion(body, loc + delta * nrm) / delta
            shell = fresh_cfg.shell_width * orc.diameter(body) * orc.shell_stretch(body)
            res.append((f"{name}: fresh estimate = u(x + delta nu)/delta",
                        orc.close(again.mean, target, again.stderr,
                                  bound * shell / delta)))
        return res


def _probe_depth(body, loc, nrm, cfg):
    """The probe depth normal_derivative documents: fd_delta * diameter,
    halved up to 8 times until the probe is deeper than the shell."""
    diam = orc.diameter(body)
    shell = cfg.shell_width * diam
    delta = cfg.fd_delta * diam
    for _ in range(9):
        if -orc.level(body, loc + delta * nrm) > shell:
            return delta
        delta *= 0.5
    return None


# ---------------------------------------------------------------------------


class ExitLemmas:
    """The exit-time chain: deep exit times on random bodies, eps-deep
    exit times, and the 1-D crossing law."""

    # one fixed body suite (the seed of criterion 6's sweep); the run's
    # seed draws the start points, the walks and the crossing pairs
    BODY_SEED = 606
    BODIES = 12
    # eps-deep starts on the balls, boxes and simplices, each in n = 2 and
    # n = 3.  Ellipsoids are left out here: with their certified distance
    # the cost of an eps-deep walk hinges on where the start lands (one
    # ellipsoid of the suite took 2.4M to 4.2M distance rows between
    # seeds); the deep starts above and gradient-max keep them.
    LIFETIME_BODIES = 6
    LIFETIME_SAMPLES = 4
    LIFETIME_DEPTH = 0.1  # eps as a share of the inradius
    # the crossing simulation at the size of the CLI `lemmas` command:
    # 4000 paths of 1000 steps; the seed draws eps, T / eps^2 and the paths
    CROSSINGS = 4
    PATHS = 4000
    STEPS = 1000
    # truncated_mean on acceptance criterion 5's grid of 1000 (eps, T) ...
    GRID = 1000
    GRID_KEY = 777
    # ... and at two points where its quadrature misses the closed form, by
    # 3.6e-6 and 1.1e-9.  The misses lie on narrow bands of eps/sqrt(T)
    # (near 0.644 and 0.148) that a seed-drawn grid would hit on some seeds
    # only, so the grid is fixed and the misses are one check that fails
    # in every round.
    KNOWN_MISSES = ((1.7900399137739875, 7.7159739075578475),
                    (0.46785036786109513, 9.97287766547495))
    MEAN_TOL = 1e-9
    KNOWN_FAULTS = frozenset({
        "truncated_mean = closed form to 1e-9 at the known misses"})

    def __init__(self, seed: int):
        gen = np.random.default_rng(seed)
        self.cfg = WosConfig(samples=WALKS, seed=_sub_seed(gen))
        self.bodies = []
        for i in range(self.BODIES):
            # kinds cycle ball, box, ellipsoid, simplex; dimensions 2, 3
            body, _vol = presets.random_body(2 + (i // 4) % 2, self.BODY_SEED, i)
            fill_lazy_tables(body)
            self.bodies.append((body, orc.deep_point(body, gen)))
        exact = [body for body, _x in self.bodies if not isinstance(body, cg.Ellipsoid)]
        self.lifetime = [(body, self.LIFETIME_DEPTH * orc.inradius(body))
                         for body in exact[:self.LIFETIME_BODIES]]
        self.crossings = []
        for _ in range(self.CROSSINGS):
            eps = float(gen.uniform(0.5, 1.5))
            horizon = float(gen.uniform(0.5, 4.0)) * eps * eps
            # dt = T / 1000 <= eps^2 / 250, within the eps^2 / 100 the
            # simulation allows
            self.crossings.append((eps, horizon / self.STEPS, horizon, _sub_seed(gen)))
        u = rng.uniforms(self.GRID_KEY, np.arange(self.GRID, dtype=np.uint64), 0, 2)
        self.grid = [(float(e), float(T))
                     for e, T in zip(0.05 + 4.0 * u[:, 0], 0.01 + 10.0 * u[:, 1])]

    def round(self):
        cfg = self.cfg
        exits = [wos.exit_time_mean(body, x, cfg) for body, x in self.bodies]
        lifetimes = [wos.lifetime_bound_check(body, eps, cfg,
                                              boundary_samples=self.LIFETIME_SAMPLES)
                     for body, eps in self.lifetime]
        crossings = [b1.simulate_hitting_times(b1.HittingTimeLaw(eps), self.PATHS,
                                               dt, horizon, seed)
                     for eps, dt, horizon, seed in self.crossings]
        means = [b1.truncated_mean(b1.HittingTimeLaw(eps), T)
                 for eps, T in (*self.grid, *self.KNOWN_MISSES)]
        return exits, lifetimes, crossings, means

    @staticmethod
    def fingerprint(outputs):
        exits, lifetimes, crossings, means = outputs
        return ([(e.mean, e.stderr, e.truncated_fraction) for e in exits]
                + [(r.measured.mean, r.measured.stderr, r.bound_value,
                    *r.details["per_point_means"]) for r in lifetimes]
                + [(s.censored, *s.times) for s in crossings] + list(means))

    @staticmethod
    def rel_stderrs(outputs):
        exits, lifetimes, _c, _m = outputs
        return [_rel(e) for e in exits] + [_rel(r.measured) for r in lifetimes]

    def checks(self, outputs):
        exits, lifetimes, crossings, means = outputs
        cfg = self.cfg
        res = []
        for i, ((body, x), est) in enumerate(zip(self.bodies, exits)):
            n = body.dimension
            vol = orc.volume(body)
            tag = f"body {i} ({type(body).__name__}, n={n})"
            res.append((f"{tag}: exit time <= (1/n)(vol/omega_n)^(2/n)",
                        orc.at_most(est.mean, orc.ball_exit_bound(n, vol), est.stderr)))
            u = orc.torsion(body, x)
            if u is not None:
                shell = (cfg.shell_width * orc.diameter(body)
                         * orc.shell_stretch(body))
                allowance = 2.0 * orc.theorem2_bound(n, vol) * shell
                res.append((f"{tag}: exit time = 2u",
                            orc.close(est.mean, 2.0 * u, est.stderr, allowance)))
        for (body, eps), rep in zip(self.lifetime, lifetimes):
            n = body.dimension
            tag = f"eps-deep {type(body).__name__} n={n}"
            bound = orc.near_boundary_exit_bound(eps, n, orc.volume(body))
            worst = rep.measured
            res.append((f"{tag}: every exit time <= eps (4/sqrt pi) n^-1/2 (vol/omega_n)^(1/n)",
                        max(rep.details["per_point_means"]) == worst.mean
                        and orc.at_most(worst.mean, bound, worst.stderr)))
            res.append((f"{tag}: reported bound",
                        orc.close(rep.bound_value, bound, rep.bound_stderr, 1e-12 * bound)))
        for (eps, dt, horizon, _seed), s in zip(self.crossings, crossings):
            tag = f"crossing eps={eps:.3f} T={horizon:.3f}"
            hits = len(s.times)
            t_end = round(horizon / dt) * dt
            res.append((f"{tag}: KS distance to the conditional law",
                        hits + s.censored == self.PATHS
                        and orc.ks_conditional(s.times, eps, t_end)
                        <= orc.ks_limit(eps, t_end, dt, hits)))
            surv = orc.survival(eps, t_end)
            se = math.sqrt(surv * (1.0 - surv) / self.PATHS)
            res.append((f"{tag}: censored fraction = erf(eps/sqrt(2T))",
                        orc.close(s.censored / self.PATHS, surv, se)))
        points = [*self.grid, *self.KNOWN_MISSES]
        errors = [abs(m - orc.truncated_mean(e, T)) for m, (e, T) in zip(means, points)]
        res.append(("truncated_mean = closed form to 1e-9 on the grid",
                    max(errors[:len(self.grid)]) <= self.MEAN_TOL))
        res.append(("truncated_mean = closed form to 1e-9 at the known misses",
                    max(errors[len(self.grid):]) <= self.MEAN_TOL))
        res.append(("truncated_mean <= eps sqrt(2/pi) sqrt(T)",
                    all(m <= orc.truncated_mean_bound(e, T)
                        for m, (e, T) in zip(means, points))))
        return res


# ---------------------------------------------------------------------------


class HhSuite:
    """verify_theorem1 on the Theorem 1 suite for n = 2, 3, 4 plus the
    half-disk affine pair at a large sample count."""

    SAMPLES = 30_000
    HALF_DISK_SAMPLES = 400_000

    def __init__(self, seed: int):
        gen = np.random.default_rng(seed)
        self.cfg = WosConfig(samples=self.SAMPLES, seed=_sub_seed(gen))
        self.half_cfg = WosConfig(samples=self.HALF_DISK_SAMPLES, seed=_sub_seed(gen))
        self.pairs = []
        for n in (2, 3, 4):
            for body_name, body in presets.theorem1_suite(n):
                fill_lazy_tables(body)
                for fn_name, fn in presets.suite_functions(body):
                    self.pairs.append((body_name, fn_name, body, fn))
        self.half = next((b, f) for bn, fn_name, b, f in self.pairs
                         if (bn, fn_name) == ("half-disk", "height-affine"))

    def round(self):
        reports = [hh.verify_theorem1(body, fn, self.cfg)
                   for _bn, _fn, body, fn in self.pairs]
        return reports, hh.verify_theorem1(*self.half, self.half_cfg)

    @staticmethod
    def fingerprint(outputs):
        reports, half = outputs
        return [(r.measured.mean, r.measured.stderr, r.bound_value, r.bound_stderr,
                 r.details["ratio"]) for r in [*reports, half]]

    @staticmethod
    def rel_stderrs(outputs):
        reports, _half = outputs
        return [_rel(r.measured) for r in reports]

    def checks(self, outputs):
        reports, half = outputs
        res = []
        for (bn, fn_name, body, fn), rep in zip(self.pairs, reports):
            tag = f"{bn} x {fn_name}"
            res.append((f"{tag}: passes", rep.passed))
            doc = fn.to_json()
            n = body.dimension
            if bn.startswith("unit-ball") and orc.is_harmonic(doc):
                fc = float(orc.fn_values(doc, body.center)[0])
                vol = orc.volume(body)
                solid, surface = vol * fc, orc.ball_area(n, body.radius) * fc
                lhs = rep.measured
                res.append((f"{tag}: solid integral = |B| f(c)",
                            orc.close(lhs.mean, solid, lhs.stderr, 1e-12 * abs(solid))))
                # the reported bound is (sqrt 2/pi) |B|^(1/n) times the
                # boundary integral, which the mean-value property fixes
                bound = orc.GRADIENT_CONSTANT * vol ** (1.0 / n) * surface
                res.append((f"{tag}: boundary integral = |dB| f(c)",
                            orc.close(rep.bound_value, bound, rep.bound_stderr,
                                      1e-12 * abs(bound))))
            if bn.startswith("unit-box") and doc["kind"] in ("affine",
                                                            "harmonic_polynomial"):
                exact = orc.box_integral(doc, body.lower, body.upper)
                lhs = rep.measured
                res.append((f"{tag}: solid integral = tensor Gauss-Legendre",
                            orc.close(lhs.mean, exact, lhs.stderr, 1e-12 * abs(exact))))
            if (bn, fn_name) == ("unit-ball-n2", "constant"):
                res.append((f"{tag}: ratio = 1/(2 sqrt pi)",
                            abs(rep.details["ratio"] - 0.5 / math.sqrt(math.pi))
                            <= 1e-12 * 0.5 / math.sqrt(math.pi)))
        ratio = half.details["ratio"]
        ratio_se = ratio * math.hypot(half.measured.stderr / half.measured.mean,
                                      half.bound_stderr / half.bound_value)
        closed = (math.pi / 2 - 2 / 3) / (math.sqrt(math.pi / 2) * math.pi)
        res.append(("half-disk x height-affine at 400k samples: passes", half.passed))
        res.append(("half-disk x height-affine: ratio = (pi/2 - 2/3)/(sqrt(pi/2) pi)",
                    orc.close(ratio, closed, ratio_se)))
        return res


WORKLOADS = {"gradient-max": GradientMax, "exit-lemmas": ExitLemmas,
             "hh-suite": HhSuite}
