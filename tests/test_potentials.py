import dataclasses
import warnings

import numpy as np
import pytest

from spectral_decay.errors import SchemaError, ValidationError
from spectral_decay.potentials import (CompactPerturbation, MatrixPerturbation,
                                       PeriodicPotential, load_perturbation,
                                       load_potential)
from spectral_decay.symbols import PAULI, SymbolSystem

INF, NAN = float("inf"), float("nan")


def test_periodicity_random_points():
    rng = np.random.default_rng(7)
    pots = [
        PeriodicPotential.zero(),
        PeriodicPotential.fourier(mean=0.3, cos=[2.0, -0.5], sin=[0.1]),
        PeriodicPotential.piecewise([0.0, 0.25, 0.7], [1.0, -3.0, 2.5]),
    ]
    xs = rng.uniform(-50.0, 50.0, 1000)
    for V in pots:
        assert np.max(np.abs(V(xs) - V(xs + 1.0))) <= 1e-12


def test_fourier_values():
    V = PeriodicPotential.fourier(mean=0.0, cos=[2.0])
    assert V(0.0) == pytest.approx(2.0)
    assert V(0.25) == pytest.approx(0.0, abs=1e-15)
    assert V(0.5) == pytest.approx(-2.0)


def test_piecewise_right_continuous():
    V = PeriodicPotential.piecewise([0.0, 0.5], [10.0, 0.0])
    assert V(0.0) == 10.0
    assert V(0.5) == 0.0
    assert V(0.5 - 1e-12) == 10.0
    assert V(1.0) == 10.0  # wraps around
    assert V(-0.25) == 0.0


def test_piecewise_validation():
    with pytest.raises(ValidationError):
        PeriodicPotential.piecewise([0.1], [1.0])  # must start at 0
    with pytest.raises(ValidationError):
        PeriodicPotential.piecewise([0.0, 0.5, 0.5], [1.0, 2.0, 3.0])
    with pytest.raises(ValidationError):
        PeriodicPotential.piecewise([0.0, 1.0], [1.0, 2.0])
    with pytest.raises(ValidationError):
        PeriodicPotential.piecewise([0.0, 0.5], [1.0])


def test_each_kind_holds_only_its_own_fields():
    # one type per kind, so a field of the other kind cannot be given
    pots = [PeriodicPotential.fourier(1.0, [2.0]), PeriodicPotential.zero()]
    assert {type(V).__name__: [f.name for f in dataclasses.fields(V)] for V in pots} == {
        "FourierPotential": ["mean", "cos", "sin"], "PiecewisePotential": ["breaks", "values"]}
    with pytest.raises(TypeError):
        type(pots[1])(breaks=(0.0,), values=(1.0,), mean=3.0)
    assert all(isinstance(V, PeriodicPotential) for V in pots)


def test_load_potential_schema_errors():
    with pytest.raises(SchemaError):
        load_potential({"type": "gaussian"})
    with pytest.raises(SchemaError):
        load_potential({"type": "fourier", "cos": "nope"})
    with pytest.raises(SchemaError):
        load_potential([1, 2, 3])
    with pytest.raises(SchemaError):
        load_potential({"type": "fourier", "mean": float("nan")})
    with pytest.raises(SchemaError):
        load_potential({"type": "piecewise", "breaks": [0.0], "values": [float("inf")]})


def test_box_perturbation():
    Q = CompactPerturbation.box(-1.0, 1.0, 2.0)
    assert Q.g(0.0) == 2.0
    assert Q.q(0.5) == 4.0
    assert Q.g(1.5) == 0.0
    assert Q.g(-2.0) == 0.0


def test_perturbation_validation():
    with pytest.raises(ValidationError):
        CompactPerturbation.box(1.0, 1.0, 1.0)
    with pytest.raises(ValidationError):
        CompactPerturbation.box(0.0, 1.0, 0.0)  # identically zero
    # Q = G^2 must not overflow anywhere (checked on max |G|) nor vanish at
    # every sample of G
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValidationError, match=r"^profile \|G\| <= 1e\+200 is too large: Q = G \* G"):
            CompactPerturbation.box(0.0, 1.0, 1e200)
        with pytest.raises(ValidationError, match="^Q must not be identically zero"):
            CompactPerturbation.box(0.0, 1.0, 1e-200)
        with pytest.raises(ValidationError, match="overflows"):  # one piece is enough
            CompactPerturbation((0.0, 1.0), PeriodicPotential.piecewise([0.0, 0.5],
                                                                        [1.0, 1e160]))
        assert CompactPerturbation.box(0.0, 1.0, 1e150).q(0.5) == 1e150 * 1e150
        # G = c (1 + sin 2 pi x) peaks at 1/4, between the samples k/257: it
        # squares to a finite number at every sample and overflows at the peak
        G = PeriodicPotential.fourier(mean=6.70395e153, sin=[6.70395e153])
        assert np.isfinite(G(np.arange(257) / 257) ** 2).all()
        assert G(0.25) * G(0.25) == float("inf")
        with pytest.raises(ValidationError, match="overflows"):
            CompactPerturbation((0.0, 1.0), G)
    # a 0.001-wide step between the 257 evenly spaced samples is seen at its break
    narrow = PeriodicPotential.piecewise([0.0, 0.5, 0.501], [0.0, 1.0, 0.0])
    assert CompactPerturbation((0.0, 1.0), narrow).q(0.5005) == 1.0
    with pytest.raises(ValidationError, match="nonnegative"):
        CompactPerturbation((0.0, 1.0), PeriodicPotential.piecewise([0.0, 0.5, 0.501],
                                                                    [1.0, -1.0, 1.0]))
    with pytest.raises(SchemaError, match="perturbation document must be an object"):
        load_perturbation([])
    with pytest.raises(SchemaError):
        load_perturbation({"support": [0.0, 1.0]})
    with pytest.raises(SchemaError):
        load_perturbation({"support": [0.0, float("inf")],
                           "profile": {"type": "piecewise", "breaks": [0.0], "values": [1.0]}})


def test_matrix_perturbation():
    W = MatrixPerturbation.scalar_well(0.5, (-1.0, 1.0))
    assert np.allclose(W.matrix, -0.5 * np.eye(2)) and W.support == (-1.0, 1.0)
    # a value: equal wells compare and hash equal, however the matrix is given
    same = MatrixPerturbation((-1.0, 1.0), ((-0.5, 0.0), (0.0, -0.5)))
    assert W == same and hash(W) == hash(same)
    assert W != MatrixPerturbation.scalar_well(0.5, (-1.0, 2.0))
    assert W != MatrixPerturbation.scalar_well(0.25, (-1.0, 1.0))
    for matrix, message in [
            ([[0.0, 1.0], [2.0, 0.0]], "Hermitian"),
            ([[1.0, 0.5j], [0.5j, 1.0]], "Hermitian"),
            ([[0.0, 1.0], [1.000005, 0.0]], "Hermitian"),  # within numpy's default rtol
            ([[np.inf, 0.0], [0.0, 1.0]], "finite"),
            ([[np.nan, 0.0], [0.0, 1.0]], "finite"),
            ([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]], "2x2"),
            ([[1.0, 0.0], [0.0]], "2x2"),
            (np.eye(3), "2x2")]:
        with pytest.raises(ValidationError, match=message):
            MatrixPerturbation((-1.0, 1.0), matrix)


@pytest.mark.parametrize("matrix", [
    [[0.0, 1e-13], [0.0, 0.0]], [[0.0, 0.0], [1e-13, 0.0]], [[0.0, 1e-13], [-1e-13, 0.0]],
], ids=["upper", "lower", "anti-hermitian"])
def test_tiny_non_hermitian_matrices_are_rejected(matrix):
    # the Hermitian check is relative to the largest entry, so scale hides nothing
    with pytest.raises(ValidationError, match="W must be Hermitian"):
        MatrixPerturbation((-1.0, 1.0), matrix)
    with pytest.raises(ValidationError, match="coefficient matrices must be Hermitian"):
        SymbolSystem((np.array(matrix, dtype=complex),))


def test_tiny_hermitian_matrices_load():
    W = MatrixPerturbation((-1.0, 1.0), 1e-12 * PAULI[1])
    assert W.matrix == ((0.0, -1e-12j), (1e-12j, 0.0))
    assert SymbolSystem(tuple(1e-12 * a for a in PAULI[:2])).d == 2


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("build, field", [
    pytest.param(lambda: PeriodicPotential.piecewise([0.0], [INF]), "values", id="values"),
    pytest.param(lambda: PeriodicPotential.piecewise([0.0, NAN], [1.0, 2.0]), "breaks",
                 id="breaks"),
    pytest.param(lambda: PeriodicPotential.fourier(mean=NAN), "mean", id="mean"),
    pytest.param(lambda: PeriodicPotential.fourier(0.0, [1.0, INF]), "cos", id="cos"),
    pytest.param(lambda: PeriodicPotential.fourier(sin=[-INF]), "sin", id="sin"),
    pytest.param(lambda: CompactPerturbation.box(0.0, INF), "support", id="box-support"),
    pytest.param(lambda: CompactPerturbation((NAN, 1.0), PeriodicPotential.zero()), "support",
                 id="q-support"),
    pytest.param(lambda: CompactPerturbation.box(0.0, 1.0, NAN), "height", id="box-height"),
    pytest.param(lambda: MatrixPerturbation.scalar_well(0.5, (0.0, INF)), "support",
                 id="w-support"),
    pytest.param(lambda: MatrixPerturbation.scalar_well(INF, (0.0, 1.0)), "depth",
                 id="w-depth"),
    pytest.param(lambda: SymbolSystem((np.array([[NAN + 0j]]),)), "coefficient matrices",
                 id="symbol-nan"),
    pytest.param(lambda: SymbolSystem((PAULI[0], np.array([[INF, 0.0], [0.0, 1.0]]))),
                 "coefficient matrices", id="symbol-inf"),
])
def test_non_finite_inputs_fail_where_the_value_is_built(build, field):
    with pytest.raises(ValidationError, match=f"^{field} must .*finite"):
        build()
