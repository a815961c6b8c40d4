"""Command-line front end: band scans, gap eigenpairs, symbol norms and
verification suites, with CSV/JSON emission.

Exit codes: 0 success, 1 failed verification verdicts, 2 usage or
validation errors.  Commands hand the library's raw values to
verify.report_json (documents) and _csv (tables), which print every float
in verify's one 17-significant-digit format, so identical inputs give
byte-identical outputs.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys

import numpy as np

from . import gap, ode, verify
from .bands import DEFAULT_GRID_STEP, band_edges, csv_rows
from .dirac import dirac_eigenfunction, dirac_gap_eigenvalues
from .errors import SpectralDecayError, ValidationError
from .floquet import discriminant, discriminant_derivative
from .potentials import MatrixPerturbation, load_perturbation, load_potential
from .symbols import gamma, load_symbol_system


def _load_json(path: str):
    with open(path) as fh:
        return json.load(fh)


def _emit(text: str, path: str | None):
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w") as fh:
            fh.write(text)


def _csv(header: str, rows, path: str | None):
    """A table: the header line, then each row's cells, floats formatted as
    in every report, joined by commas."""
    lines = [header] + [",".join(verify._fmt(row)) for row in rows]
    _emit("\n".join(lines) + "\n", path)


def _finite_float(text: str) -> float:
    """argparse type: a float that is neither nan nor infinite."""
    try:
        x = float(text)
    except ValueError:
        x = math.nan
    if not math.isfinite(x):
        raise argparse.ArgumentTypeError(f"expected a finite number, got {text!r}")
    return x


def _parse_range(spec: str) -> tuple:
    """start:stop:count of an inclusive linspace."""
    try:
        start, stop, count = spec.split(":")
        start, stop, count = _finite_float(start), _finite_float(stop), int(count)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"range must be start:stop:count, got {spec!r}")
    if count < 1:
        raise argparse.ArgumentTypeError("range count must be >= 1")
    if not math.isfinite(stop - start):  # the linspace step would overflow
        raise argparse.ArgumentTypeError(f"range stop - start overflows, got {spec!r}")
    return start, stop, count


def cmd_bands(args) -> int:
    V = load_potential(_load_json(args.potential))
    bs = band_edges(V, args.lambda_max, grid_step=args.grid_step)
    rows = csv_rows(bs)
    if args.format == "csv":
        _csv("lambda_edge,kind", rows, args.output)
    else:
        doc = {"lambda0": bs.lambda0, "scan_ceiling": bs.scan_ceiling,
               "incomplete": bs.incomplete,
               "edges": [{"lambda_edge": lam, "kind": kind} for lam, kind in rows],
               "gaps": bs.gaps}
        _emit(verify.report_json(doc), args.output)
    return 0


def cmd_discriminant(args) -> int:
    V = load_potential(_load_json(args.potential))
    start, stop, count = args.lambda_range
    lams = np.linspace(start, stop, ode.check_lambda_count(count))
    columns = [lams, discriminant(V, lams)]
    if args.derivative:
        columns.append(discriminant_derivative(V, lams))
    _csv("lambda,F,Fprime" if args.derivative else "lambda,F", zip(*columns), args.output)
    return 0


def cmd_gap_eig(args) -> int:
    V = load_potential(_load_json(args.potential))
    Q = load_perturbation(_load_json(args.perturbation))
    lam = args.lam
    alpha = gap.solve_coupling(V, Q, lam)
    pair = gap.eigenfunction(V, Q, alpha, lam)
    summary = {"lambda": pair.lam, "alpha": pair.alpha, "c_plus": pair.c_plus,
               "c_minus": pair.c_minus, "fitted_delta": pair.fitted_delta, "ln_rho": pair.ln_rho}
    _emit(verify.report_json(summary), args.output)
    if args.samples_out:
        _csv("x,psi", zip(pair.xs, pair.psi), args.samples_out)
    return 0


def cmd_bs_spectrum(args) -> int:
    if args.count < 1:
        raise ValidationError(f"--count must be >= 1, got {args.count}")
    V = load_potential(_load_json(args.potential))
    Q = load_perturbation(_load_json(args.perturbation))
    bss = gap.birman_schwinger_spectrum(V, Q, args.lam, grid_size=args.grid_size,
                                        count=args.count)
    mu = [m for m in bss.mu.tolist() if m != 0.0]
    for m in mu:
        if not math.isfinite(1.0 / m):
            raise ValidationError(f"mu = {m}: its coupling 1/mu exceeds the float range")
    doc = {"lambda": bss.lam, "grid_size": bss.grid_size, "mu": bss.mu,
           "alpha": [1.0 / m for m in mu]}
    _emit(verify.report_json(doc), args.output)
    return 0


def cmd_dirac_eig(args) -> int:
    W = MatrixPerturbation.scalar_well(args.depth, tuple(args.support))
    m = args.mass
    pairs = [dirac_eigenfunction(W, m, lam) for lam in dirac_gap_eigenvalues(W, m)]
    results = [{"m": m, "lambda": p.lam, "rate_exact": p.rate_exact,
                "fitted_delta": p.fitted_delta, "d_lambda": m - abs(p.lam)} for p in pairs]
    _emit(verify.report_json({"eigenvalues": results, "count": len(results)}), args.output)
    if args.samples_out and pairs:
        psi = pairs[0].psi
        _csv("x,re_psi1,im_psi1,re_psi2,im_psi2",
             zip(pairs[0].xs, psi[:, 0].real, psi[:, 0].imag, psi[:, 1].real, psi[:, 1].imag),
             args.samples_out)
    return 0


def cmd_gamma(args) -> int:
    system = load_symbol_system(_load_json(args.matrices))
    _emit(verify.report_json(dataclasses.asdict(gamma(system))), args.output)
    return 0


def cmd_verify(args) -> int:
    report = verify.run_suite(args.suite)
    _emit(verify.report_json(report), args.output)
    return 1 if verify.has_failure(report) else 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="spectral-decay",
        description="Band structure, gap eigenvalues and decay-rate "
                    "verification for 1D periodic Schrodinger and Dirac operators.")
    sub = p.add_subparsers(dest="command", required=True)

    def out(sp):
        sp.add_argument("--output", "-o", default=None,
                        help="output path (default: stdout)")

    sp = sub.add_parser("bands", help="scan band edges and gaps")
    sp.add_argument("--potential", required=True, help="potential JSON path")
    sp.add_argument("--lambda-max", type=_finite_float, required=True)
    sp.add_argument("--grid-step", type=_finite_float, default=DEFAULT_GRID_STEP)
    sp.add_argument("--format", choices=("csv", "json"), default="csv")
    out(sp)
    sp.set_defaults(func=cmd_bands)

    sp = sub.add_parser("discriminant", help="tabulate F(lambda) on a range")
    sp.add_argument("--potential", required=True)
    sp.add_argument("--lambda-range", type=_parse_range, required=True,
                    metavar="START:STOP:COUNT", dest="lambda_range")
    sp.add_argument("--derivative", action="store_true",
                    help="also tabulate dF/dlambda")
    out(sp)
    sp.set_defaults(func=cmd_discriminant)

    sp = sub.add_parser("gap-eig",
                        help="place an eigenvalue at a gap point and report the pair")
    sp.add_argument("--potential", required=True)
    sp.add_argument("--perturbation", required=True)
    sp.add_argument("--lambda", type=_finite_float, required=True, dest="lam")
    sp.add_argument("--samples-out", default=None, help="CSV path for x,psi samples")
    out(sp)
    sp.set_defaults(func=cmd_gap_eig)

    sp = sub.add_parser("bs-spectrum", help="Birman-Schwinger spectrum at a gap point")
    sp.add_argument("--potential", required=True)
    sp.add_argument("--perturbation", required=True)
    sp.add_argument("--lambda", type=_finite_float, required=True, dest="lam")
    sp.add_argument("--grid-size", type=int, default=gap.DEFAULT_GRID_SIZE)
    sp.add_argument("--count", type=int, default=gap.DEFAULT_COUNT,
                    help="largest |mu| to compute and report")
    out(sp)
    sp.set_defaults(func=cmd_bs_spectrum)

    sp = sub.add_parser("dirac-eig", help="1D Dirac gap eigenvalues for a scalar well")
    sp.add_argument("--mass", type=_finite_float, required=True)
    sp.add_argument("--depth", type=_finite_float, required=True,
                    help="well depth w (W = -w*I on the support)")
    sp.add_argument("--support", type=_finite_float, nargs=2, default=(-1.0, 1.0),
                    metavar=("A", "B"))
    sp.add_argument("--samples-out", default=None,
                    help="CSV path for samples of the first eigenfunction")
    out(sp)
    sp.set_defaults(func=cmd_dirac_eig)

    sp = sub.add_parser("gamma", help="symbol-norm constant of a first-order system")
    sp.add_argument("--matrices", required=True, help="symbol system JSON path")
    out(sp)
    sp.set_defaults(func=cmd_gamma)

    sp = sub.add_parser("verify", help="run a named verification suite on its fixed anchor")
    sp.add_argument("--suite", required=True,
                    choices=sorted(verify.SUITES) + ["all"])
    out(sp)
    sp.set_defaults(func=cmd_verify)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse uses 2 for usage errors already
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (SpectralDecayError, OSError, json.JSONDecodeError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
