"""Seeded inputs, jobs and their independent checks for each workload.

A job is the library work behind one CLI subcommand.  Each workload
builds a fixed list of jobs from its seed (one "pass"); the structural
properties that set a job's cost (harmonic count, step count, symbol
dimension) are assigned in a fixed pattern, and only continuous
parameters are drawn from the seed, so passes from different seeds cost
about the same.  The library receives only the generated objects.

The gap and Dirac eigenfunction samplers step by 1/64, and whether the
last sample lands beyond the support depends on the fraction
u = frac(64 L) of the support length L.  Where that can happen (gap-eig
on smooth V, dirac-eig) the jobs come in twins on one input whose
lengths (64 + j + u) / 64 differ only in u: u < 1/2 in the "low" twin,
u > 1/2 in the "high" one, never near 1/2.  Every pass holds the same
number of jobs on each side, and each "high" job has a matched "low"
job whose time stands in for it while it fails.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os

import numpy as np

import anchors

SMOOTH_HARMONICS = (1, 2, 3)
SMOOTH_LAMBDA_MAX = 12.0
SMOOTH_TABLE = 16
SMOOTH_BS_N = 256

STEP_COUNTS = (0, 2, 3, 4)         # 0 is the zero potential
STEP_LAMBDA_MAX = 400.0
STEP_TABLE = 400
STEP_BS_N = (2048, 1024, 2048, 1024)

DIRAC_PAIRS = 2
GAMMA_SYSTEMS = ("dirac-alpha", (2, 2), (3, 3))   # (d, n) seeded Hermitian


class CheckFailed(Exception):
    """A job completed but its output disagrees with the anchor."""


class CliError(Exception):
    """The CLI returned a non-zero exit code."""


class Job:
    """One timed unit of work plus the check of its output."""

    def __init__(self, cls, key, run, check, twin=None):
        self.cls, self.key, self.run, self.check = cls, key, run, check
        self.twin = twin   # key of the matched job that stands in while this one fails


def _twin_lengths(rng):
    """Support lengths (low, high) with frac(64 low) < 1/2 < frac(64 high)."""
    j = int(rng.integers(0, 32))
    return ((64 + j + rng.uniform(0.05, 0.45)) / 64.0,
            (64 + j + rng.uniform(0.55, 0.95)) / 64.0)


def _require(ok, what):
    if not ok:
        raise CheckFailed(what)


# -- Hill workloads (smooth, step) ---------------------------------------

class HillInput:
    """A periodic potential with its reference discriminant."""

    def __init__(self, sd, kind, mean=0.0, cos=(), sin=(), breaks=(), values=()):
        self.kind = kind
        if kind == "zero":
            self.V = sd.PeriodicPotential.zero()
            breaks, values = (0.0,), (0.0,)
        elif kind == "piecewise":
            self.V = sd.PeriodicPotential.piecewise(breaks, values)
        else:
            self.V = sd.PeriodicPotential.fourier(mean=mean, cos=cos, sin=sin)
        self.mean, self.cos, self.sin = mean, tuple(cos), tuple(sin)
        self.breaks, self.values = tuple(breaks), tuple(values)

    def F(self, lam):
        """Reference F on an array of (possibly complex) lambda."""
        if self.kind == "fourier":
            return anchors.rk4_F(self.mean, self.cos, self.sin, lam)
        return anchors.piecewise_F(self.breaks, self.values, lam)

    def Fprime(self, lam):
        lam = np.asarray(lam, dtype=float)
        return self.F(lam + 1j * anchors.CSTEP).imag / anchors.CSTEP

    def first_gap(self):
        """Reference first gap (lo, hi); the zero potential has none."""
        if self.kind == "fourier":
            e = anchors.plane_wave_edges(self.mean, self.cos, self.sin)
            return float(e[1]), float(e[2])
        lo = -max(abs(v) for v in self.values) - 1.0
        grid = np.linspace(lo, lo + 80.0, 8001)
        F = self.F(grid).real
        idx = np.nonzero(F < -1.0)[0]
        i0 = idx[0]
        i1 = i0 + np.argmax(F[i0:] >= -1.0)
        f = lambda x: self.F(np.array([x])).real[0] + 1.0
        return (anchors.bisect(f, grid[i0 - 1], grid[i0]),
                anchors.bisect(f, grid[i1 - 1], grid[i1]))


def _smooth_potential(sd, rng, harmonics):
    amps = rng.uniform(1.25, 1.75) * 0.5 ** np.arange(harmonics)
    amps = amps * rng.uniform(0.8, 1.0, harmonics)
    phase = rng.uniform(0.0, 2.0 * math.pi, harmonics)
    return HillInput(sd, "fourier", mean=float(rng.uniform(-0.25, 0.25)),
                     cos=[float(a) for a in amps * np.cos(phase)],
                     sin=[float(a) for a in amps * np.sin(phase)])


def _step_potential(sd, rng, steps):
    if steps == 0:
        return HillInput(sd, "zero")
    cuts = np.sort(rng.uniform(0.1, 0.9, steps - 1))
    while np.min(np.diff(np.concatenate([[0.0], cuts, [1.0]]))) < 0.08:
        cuts = np.sort(rng.uniform(0.1, 0.9, steps - 1))
    values = rng.uniform(-4.0, 12.0, steps)
    return HillInput(sd, "piecewise", breaks=[0.0] + [float(c) for c in cuts],
                     values=[float(v) for v in values])


def _bands_job(sd, hi, lam_max, tag):
    def run():
        return sd.band_edges(hi.V, lam_max)

    def check(bs):
        edges = np.asarray(bs.edges)
        _require(len(edges) >= 1 and np.all(np.diff(edges) > 0),
                 "edges not strictly increasing")
        _require(not bs.incomplete, "scan flagged incomplete")
        if hi.kind == "fourier":
            ref = anchors.plane_wave_edges(hi.mean, hi.cos, hi.sin)
            ref_gaps = [(ref[2 * k - 1], ref[2 * k]) for k in range(1, len(ref) // 2)
                        if ref[2 * k] < lam_max and ref[2 * k] - ref[2 * k - 1] > 1e-3]
            _require(abs(edges[0] - ref[0]) < 1e-7, "bottom edge off the plane-wave value")
            for a, b in bs.gaps:
                _require(np.min(np.abs(ref[1:] - a)) < 1e-7 and np.min(np.abs(ref[1:] - b)) < 1e-7,
                         f"gap ({a}, {b}) edges are not periodic/antiperiodic eigenvalues")
            _require(len(bs.gaps) >= len(ref_gaps), "scan missed an open gap")
        Fe = hi.F(edges).real
        _require(np.all(np.abs(np.abs(Fe) - 1.0) < 1e-7), "|F(edge)| != 1")
        mids = [0.5 * (a + b) for a, b in bs.gaps]
        if mids:
            _require(np.all(np.abs(hi.F(np.array(mids)).real) > 1.0), "|F| <= 1 at a gap midpoint")
    return Job("bands", f"bands-{tag}", run, check)


def _discriminant_job(sd, hi, lams, tag):
    def run():
        return ([sd.discriminant(hi.V, float(l)) for l in lams],
                [sd.discriminant_derivative(hi.V, float(l)) for l in lams])

    def check(out):
        F, Fp = np.asarray(out[0]), np.asarray(out[1])
        ref, refp = hi.F(lams).real, hi.Fprime(lams)
        if hi.kind == "zero":
            s = np.sqrt(np.abs(lams))
            ref = np.where(lams >= 0, np.cos(s), np.cosh(s))
        _require(np.all(np.abs(F - ref) <= 1e-7 * np.maximum(1.0, np.abs(ref))), "F table off")
        _require(np.all(np.abs(Fp - refp) <= 1e-6 * np.maximum(1.0, np.abs(refp))), "F' table off")
    return Job("discriminant", f"discriminant-{tag}", run, check)


def _gap_eig_job(sd, hi, Q, lam, tag, twin=None):
    def run():
        alpha = sd.solve_coupling(hi.V, Q, lam)
        return sd.eigenfunction(hi.V, Q, alpha, lam)

    def check(pair):
        ln_rho = math.log(anchors.multiplicator(hi.F(np.array([lam])).real[0]))
        _require(abs(pair.ln_rho - ln_rho) <= 1e-6 * ln_rho, "ln rho off the reference")
        _require(abs(pair.fitted_delta - ln_rho) <= 0.01 * ln_rho, "fitted decay rate off ln rho")
        if hi.kind == "zero":
            a, b = Q.support
            ref = anchors.square_well_alpha(lam, b - a, Q.g(0.5 * (a + b)))
            _require(abs(pair.alpha - ref) <= 1e-8 * ref, "alpha off the square-well root")
    return Job("gap-eig", f"gap-eig-{tag}", run, check, twin)


def _bs_job(sd, hi, Q, lam, n, tag):
    def run():
        return sd.birman_schwinger_spectrum(hi.V, Q, lam, grid_size=n)

    def check(bss):
        if hi.kind == "zero":
            a, b = Q.support
            alpha = anchors.square_well_alpha(lam, b - a, Q.g(0.5 * (a + b)))
        else:
            alpha = sd.solve_coupling(hi.V, Q, lam)
        pos = bss.mu[bss.mu > 0]
        _require(len(pos) > 0, "no positive Birman-Schwinger eigenvalue")
        mu = pos[np.argmin(np.abs(pos - 1.0 / alpha))]
        _require(abs(1.0 / mu - alpha) <= 1e-4 * alpha, "1/mu off the shooting alpha")
    return Job("bs-spectrum", f"bs-spectrum-{tag}", run, check)


def _boxes(sd, rng, lengths):
    """Boxes on one seeded start point and height, one per support length."""
    a, g = float(rng.uniform(-0.5, 0.5)), float(rng.uniform(0.8, 1.2))
    return [sd.CompactPerturbation.box(a, a + float(L), g) for L in lengths]


def _hill_jobs(sd, rng, potentials, plan, lam_max, table):
    """Jobs from a plan of (class, potential tag, twins or grid size)."""
    gap_points = {}
    for tag, hi in potentials.items():
        if hi.kind == "zero":
            gap_points[tag] = float(rng.uniform(-2.0, -0.5))
        else:
            lo, up = hi.first_gap()
            gap_points[tag] = lo + float(rng.uniform(0.3, 0.7)) * (up - lo)
    jobs = []
    for cls, tag, arg in plan:
        hi, lam = potentials[tag], gap_points[tag]
        if cls == "bands":
            jobs.append(_bands_job(sd, hi, lam_max, tag))
        elif cls == "discriminant":
            lo = -10.0 if hi.kind == "zero" else -hi.V.max_abs()
            jobs.append(_discriminant_job(sd, hi, np.linspace(lo, lam_max, table), tag))
        elif cls == "gap-eig" and arg == "twins":
            low, high = _boxes(sd, rng, _twin_lengths(rng))
            jobs.append(_gap_eig_job(sd, hi, low, lam, f"{tag}-low"))
            jobs.append(_gap_eig_job(sd, hi, high, lam, f"{tag}-high",
                                     twin=f"gap-eig-{tag}-low"))
        else:
            [Q] = _boxes(sd, rng, [rng.uniform(1.0, 1.5)])
            if cls == "gap-eig":
                jobs.append(_gap_eig_job(sd, hi, Q, lam, tag))
            else:
                jobs.append(_bs_job(sd, hi, Q, lam, arg, f"{tag}-{arg}"))
    return jobs


# The first job of each class is the one set-up warms; it never raises.
SMOOTH_PLAN = (("bands", "h1", None), ("discriminant", "h1", None),
               ("discriminant", "h2", None), ("discriminant", "h3", None),
               ("gap-eig", "h1", "twins"),
               ("bs-spectrum", "h2", SMOOTH_BS_N))
STEP_PLAN = tuple([("bands", f"s{n}", None) for n in STEP_COUNTS]
                  + [("discriminant", f"s{n}", None) for n in STEP_COUNTS]
                  + [("gap-eig", f"s{n}", None) for n in STEP_COUNTS]
                  + [("bs-spectrum", f"s{n}", N) for n, N in zip(STEP_COUNTS, STEP_BS_N)])


def smooth_jobs(sd, rng, workdir):
    potentials = {f"h{h}": _smooth_potential(sd, rng, h) for h in SMOOTH_HARMONICS}
    return _hill_jobs(sd, rng, potentials, SMOOTH_PLAN, SMOOTH_LAMBDA_MAX, SMOOTH_TABLE)


def step_jobs(sd, rng, workdir):
    potentials = {f"s{n}": _step_potential(sd, rng, n) for n in STEP_COUNTS}
    return _hill_jobs(sd, rng, potentials, STEP_PLAN, STEP_LAMBDA_MAX, STEP_TABLE)


# -- certify: the CLI in-process -----------------------------------------

def _cli(sd_cli, argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = sd_cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def _cli_job(sd_cli, cls, key, argv, check, twin=None):
    def run():
        code, out, err = _cli(sd_cli, argv)
        if code != 0:
            line = (err.strip().splitlines() or [""])[0]
            raise CliError(f"exit {code}: {line}")
        return out
    return Job(cls, key, run, check, twin)


def _verify_check(out):
    rep = json.loads(out)
    cases = {c["name"]: c for c in rep["cases"]}
    _require(all(c["verdict"] != "FAIL" for c in cases.values()), "a verdict is FAIL")
    alpha = float(cases["cross-method/shooting-alpha"]["measured"])
    _require(abs(alpha - anchors.square_well_alpha(-1.0, 2.0, 1.0)) <= 1e-8 * alpha,
             "cross-method alpha off the square-well root")
    lam = float(cases["theorem2-dirac/eigenvalue-0-sharp-rate"]["inputs"]["lambda"])
    ref = anchors.dirac_well_eigenvalues(1.0, 0.5, 2.0)
    _require(len(ref) == 1 and abs(lam - ref[0]) <= 1e-9, "Dirac eigenvalue off the closed form")


def _dirac_check(m, depth, length):
    def check(out):
        doc = json.loads(out)
        lams = [float(e["lambda"]) for e in doc["eigenvalues"]]
        ref = anchors.dirac_well_eigenvalues(m, depth, length)
        _require(len(lams) == len(ref), f"{len(lams)} eigenvalues, closed form has {len(ref)}")
        for lam, r, e in zip(lams, ref, doc["eigenvalues"]):
            _require(abs(lam - r) <= 1e-9, "eigenvalue off the closed form")
            rate = math.sqrt(m * m - r * r)
            _require(abs(float(e["rate_exact"]) - rate) <= 1e-9 * rate,
                     "reported rate off sqrt(m^2 - lambda^2)")
            _require(abs(float(e["fitted_delta"]) - rate) <= 0.01 * rate,
                     "fitted rate off sqrt(m^2 - lambda^2)")
    return check


def _gamma_check(mats, exact):
    def check(out):
        doc = json.loads(out)
        g = float(doc["gamma"])
        if exact is not None:
            _require(abs(g - exact) <= 1e-9, "gamma of the Dirac alpha system is not 1")
        gmax, gmin, slack = anchors.sphere_bounds(mats)
        _require(gmax - 1e-9 <= g <= gmax + slack, "gamma outside the sphere-grid bounds")
        _require(float(doc["ellipticity_margin"]) <= gmin + 1e-9, "margin above the grid minimum")
    return check


def _hermitian(rng, n):
    x = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return 0.5 * (x + x.conj().T)


def certify_jobs(sd, rng, workdir):
    from spectral_decay import cli
    from spectral_decay.symbols import dirac_alpha_system, dump_symbol_system, SymbolSystem
    jobs = [_cli_job(cli, "verify", "verify-all", ["verify", "--suite", "all"], _verify_check)]
    for i in range(DIRAC_PAIRS):
        m = float(rng.uniform(0.8, 1.5))
        depth = float(rng.uniform(0.3, 0.9)) * m
        a = float(rng.uniform(-1.0, 0.0))
        for side, length in zip(("low", "high"), _twin_lengths(rng)):
            argv = ["dirac-eig", "--mass", repr(m), "--depth", repr(depth),
                    "--support", repr(a), repr(a + length)]
            twin = f"dirac-eig-{i}-low" if side == "high" else None
            jobs.append(_cli_job(cli, "dirac-eig", f"dirac-eig-{i}-{side}", argv,
                                 _dirac_check(m, depth, (a + length) - a), twin))
    for i, spec in enumerate(GAMMA_SYSTEMS):
        if spec == "dirac-alpha":
            system, exact = dirac_alpha_system(), 1.0
        else:
            d, n = spec
            system = SymbolSystem(matrices=tuple(_hermitian(rng, n) for _ in range(d)))
            exact = None
        path = os.path.join(workdir, f"gamma-{i}.json")
        with open(path, "w") as fh:
            json.dump(dump_symbol_system(system), fh)
        jobs.append(_cli_job(cli, "gamma", f"gamma-{i}", ["gamma", "--matrices", path],
                             _gamma_check(list(system.matrices), exact)))
    return jobs


WORKLOADS = {"smooth": smooth_jobs, "step": step_jobs, "certify": certify_jobs}
