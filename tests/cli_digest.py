"""sha256 digests of a fixed list of CLI runs, to show that a change keeps
every printed byte.

    PYTHONPATH=src python tests/cli_digest.py

Each run goes in-process through spectral_decay.cli.main, in a temporary
directory that holds the input documents.  One line per run gives the
sha256 over its stdout, stderr, exit code and --samples-out file, then a
last line the sha256 over all runs.  Run it in two checkouts, each with its
own src on PYTHONPATH, and diff the outputs.  The bytes depend on the BLAS
kernel numpy selects for the CPU and on the libm variants glibc selects, so
compare checkouts on one machine; a leading "#" line names what they depend
on: the numpy and scipy versions, the OpenBLAS core in use, the
OPENBLAS_CORETYPE and GLIBC_TUNABLES overrides where set, and the libc.

    PYTHONPATH=src python tests/cli_digest.py --against before.txt

compares with a saved output instead: it prints the line of each run whose
line differs from the saved one (or that the saved output lacks), and exits
1 if any does, else 0.  pytest does not collect this file.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import hashlib
import importlib.metadata
import io
import json
import os
import pathlib
import platform
import sys
import tempfile

import numpy as np

from spectral_decay.cli import main
from spectral_decay.symbols import dirac_alpha_system, dump_symbol_system

BOX = {"type": "piecewise", "breaks": [0.0], "values": [1.0]}
DOCS = {
    "zero.json": {"type": "zero"},
    "step.json": {"type": "piecewise", "breaks": [0.0, 0.5], "values": [10.0, 0.0]},
    "well.json": {"type": "piecewise", "breaks": [0.0, 0.5], "values": [-400.0, 0.0]},
    "flat.json": {"type": "fourier", "mean": 2.0, "cos": [], "sin": []},
    "mathieu.json": {"type": "fourier", "mean": 0.0, "cos": [2.0], "sin": []},
    "three.json": {"type": "fourier", "mean": 0.1, "cos": [1.5, 0.7, 0.3],
                   "sin": [0.2, 0.4, 0.1]},
    "box01.json": {"support": [0.0, 1.0], "profile": BOX},
    "box11.json": {"support": [-1.0, 1.0], "profile": BOX},
    "box013.json": {"support": [0.0, 1.3], "profile": BOX},
    "box0101.json": {"support": [0.0, 1.01], "profile": BOX},
    "tall01.json": {"support": [0.0, 1.0],
                    "profile": {"type": "piecewise", "breaks": [0.0], "values": [1e200]}},
    "huge01.json": {"support": [0.0, 1.0],
                    "profile": {"type": "piecewise", "breaks": [0.0], "values": [1e150]}},
    "tiny01.json": {"support": [0.0, 1.0],
                    "profile": {"type": "piecewise", "breaks": [0.0], "values": [1e-100]}},
    "sub01.json": {"support": [0.0, 1.0],
                   "profile": {"type": "piecewise", "breaks": [0.0], "values": [1e-154]}},
    "smooth_q.json": {"support": [-0.5, 1.5],
                      "profile": {"type": "fourier", "mean": 1.0, "cos": [0.5], "sin": [0.2]}},
    "alpha.json": dump_symbol_system(dirac_alpha_system()),
    "five.json": {"type": "piecewise", "breaks": [0.0], "values": [5.0]},
}
SAMPLES = "samples.csv"


def _runs():
    for v in ("zero", "step", "mathieu", "three"):
        yield ["bands", "--potential", f"{v}.json", "--lambda-max", "60"]
        yield ["bands", "--potential", f"{v}.json", "--lambda-max", "60", "--format", "json"]
        yield ["discriminant", "--potential", f"{v}.json", "--lambda-range=-5:120:126",
               "--derivative"]
    yield ["bands", "--potential", "mathieu.json", "--lambda-max", "15", "--format", "json"]
    for v, q, lam in (("step", "box01", "14.7"), ("zero", "box11", "-1"),
                      ("mathieu", "smooth_q", "9.8")):
        yield ["gap-eig", "--potential", f"{v}.json", "--perturbation", f"{q}.json",
               f"--lambda={lam}", "--samples-out", SAMPLES]
    yield ["bs-spectrum", "--potential", "zero.json", "--perturbation", "box11.json",
           "--lambda=-1"]
    yield ["bs-spectrum", "--potential", "step.json", "--perturbation", "box01.json",
           "--lambda=14.7", "--count", "3"]
    for mass, depth, support in (("1", "0.5", None), ("5", "2", ("0", "3")),
                                 ("1000", "0.5", ("0", "1")), ("100", "1", ("0", "3"))):
        yield ["dirac-eig", "--mass", mass, "--depth", depth, "--samples-out", SAMPLES,
               *(["--support", *support] if support else [])]
    yield ["gamma", "--matrices", "alpha.json"]
    for suite in ("all", "propH", "edge-asymptotics", "fprime", "cross-method",
                  "theorem2-dirac", "counterexample"):
        yield ["verify", "--suite", suite]
    yield ["bs-spectrum", "--potential", "zero.json", "--perturbation", "box11.json",
           "--lambda=-1", "--count", "0"]
    yield ["bands", "--potential", "zero.json", "--lambda-max", "nan"]
    # narrow high gaps, down to 3.2e-4 (Mathieu) and 1.5e-4 (three) wide: inside one grid cell
    yield ["bands", "--potential", "mathieu.json", "--lambda-max", "100"]
    yield ["bands", "--potential", "three.json", "--lambda-max", "400"]
    # supports whose length is no multiple of the 1/64 sample spacing: b is appended
    yield ["gap-eig", "--potential", "zero.json", "--perturbation", "box013.json",
           "--lambda=-1", "--samples-out", SAMPLES]
    yield ["dirac-eig", "--mass", "1", "--depth", "0.5", "--support", "0", "1.3",
           "--samples-out", SAMPLES]
    # Q = G^2 = 1e400 overflows
    yield ["bs-spectrum", "--potential", "zero.json", "--perturbation", "tall01.json",
           "--lambda=-1"]
    # Q = G^2 = 1e300 and 1e-200: the couplings of G = 1 over G^2
    for q in ("huge01", "tiny01"):
        yield ["bs-spectrum", "--potential", "zero.json", "--perturbation", f"{q}.json",
               "--lambda=-1"]
    # a scan whose ceiling lies inside a gap
    yield ["bands", "--potential", "mathieu.json", "--lambda-max", "10"]
    yield ["bands", "--potential", "mathieu.json", "--lambda-max", "10", "--format", "json"]
    # the last sample (1.015625) lies past b = 1.01: the walk steps back to b
    yield ["gap-eig", "--potential", "zero.json", "--perturbation", "box0101.json",
           "--lambda=-1", "--samples-out", SAMPLES]
    yield ["dirac-eig", "--mass", "1", "--depth", "0.5", "--support", "0", "1.01",
           "--samples-out", SAMPLES]
    # Q = G^2 = 1e-308: a subnormal mu, whose coupling 1/mu no float holds
    yield ["bs-spectrum", "--potential", "zero.json", "--perturbation", "sub01.json",
           "--lambda=-1", "--count", "2"]
    # bands narrower than a grid cell (2.2e-3 and 2.3e-2 wide), the ceiling inside a gap
    yield ["bands", "--potential", "well.json", "--lambda-max", "20"]
    # V = 2: every gap closed, |F| - 1 at each critical point within the certified error
    yield ["bands", "--potential", "flat.json", "--lambda-max", "400"]
    # F = 1 exactly on the last sample: the spectrum starts at the ceiling
    yield ["bands", "--potential", "five.json", "--lambda-max", "5", "--format", "json"]


def _version(package: str) -> str:
    try:
        return importlib.metadata.version(package)
    except importlib.metadata.PackageNotFoundError:
        return "unknown"


def _openblas_core() -> str:
    """The core of the OpenBLAS that numpy's wheel bundles, as it reports it."""
    libs = (pathlib.Path(np.__file__).parents[1] / "numpy.libs").glob("libscipy_openblas*")
    try:
        corename = ctypes.CDLL(str(next(libs))).scipy_openblas_get_corename64_
    except (StopIteration, OSError, AttributeError):
        return "unknown"
    corename.argtypes, corename.restype = [], ctypes.c_char_p
    return corename().decode()


def _environment() -> str:
    """One line naming what the printed bytes depend on."""
    overrides = [f"{k}={os.environ[k]}" for k in ("OPENBLAS_CORETYPE", "GLIBC_TUNABLES")
                 if k in os.environ]
    libc = " ".join(filter(None, platform.libc_ver())) or "unknown"
    return " ".join(["# numpy", _version("numpy"), "scipy", _version("scipy"),
                     "openblas-core", _openblas_core(), *overrides, "libc", libc])


def _digest(argv) -> str:
    """sha256 over the stdout, stderr, exit code and samples file of one run."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    samples = pathlib.Path(SAMPLES)
    data = samples.read_bytes() if samples.exists() else b""
    samples.unlink(missing_ok=True)
    h = hashlib.sha256()
    for part in (out.getvalue().encode(), err.getvalue().encode(), str(code).encode(), data):
        h.update(len(part).to_bytes(8, "little") + part)
    return h.hexdigest()


def _lines():
    """The output lines: the environment, one per run, then the total."""
    yield _environment()
    total = hashlib.sha256()
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            for name, doc in DOCS.items():
                pathlib.Path(name).write_text(json.dumps(doc))
            for argv in _runs():
                d = _digest(argv)
                total.update(d.encode())
                yield f"{d} {' '.join(argv)}"
        finally:
            os.chdir(cwd)
    yield f"{total.hexdigest()} total"


def main_digest(against=None) -> int:
    """Print every line; or, against a saved output, the line of each run that
    differs from it.  Returns 1 where a run differs, else 0."""
    if against is None:
        for line in _lines():
            print(line, flush=True)
        return 0
    saved = {line.split(" ", 1)[1]: line for line in pathlib.Path(against).read_text().splitlines()
             if line and not line.startswith("#")}
    runs = [line for line in _lines() if not line.startswith("#") and not line.endswith(" total")]
    differ = [line for line in runs if saved.get(line.split(" ", 1)[1]) != line]
    for line in differ:
        print(line)
    print(f"{len(differ)} of {len(runs)} runs differ from {against}")
    return 1 if differ else 0


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description="sha256 digests of fixed CLI runs")
    parser.add_argument("--against", metavar="FILE", help="a saved output to compare with")
    sys.exit(main_digest(parser.parse_args().against))
