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


def test_serialization_round_trip():
    pots = [
        PeriodicPotential.zero(),
        PeriodicPotential.fourier(mean=1.5, cos=[1.0, 2.0], sin=[-0.5]),
        PeriodicPotential.piecewise([0.0, 0.5], [10.0, 0.0]),
    ]
    for V in pots:
        assert load_potential(V.to_dict()) == V


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
    assert Q.q_pieces() == ((-1.0, 4.0),)


def test_perturbation_round_trip():
    Q = CompactPerturbation.box(0.0, 1.0, 1.0)
    assert load_perturbation(Q.to_dict()).support == Q.support


def test_perturbation_validation():
    with pytest.raises(ValidationError):
        CompactPerturbation.box(1.0, 1.0, 1.0)
    with pytest.raises(ValidationError):
        CompactPerturbation.box(0.0, 1.0, 0.0)  # identically zero
    with pytest.raises(SchemaError):
        load_perturbation({"support": [0.0, 1.0]})
    with pytest.raises(SchemaError):
        load_perturbation({"support": [0.0, float("inf")],
                           "profile": {"type": "piecewise", "breaks": [0.0], "values": [1.0]}})


def test_matrix_perturbation():
    W = MatrixPerturbation.scalar_well(0.5, (-1.0, 1.0))
    assert np.allclose(W(0.0), -0.5 * np.eye(2))
    assert np.allclose(W(2.0), np.zeros((2, 2)))
    # a value: equal wells compare and hash equal, however the matrix is given
    same = MatrixPerturbation((-1.0, 1.0), ((-0.5, 0.0), (0.0, -0.5)))
    assert W == same and hash(W) == hash(same)
    assert W != MatrixPerturbation.scalar_well(0.5, (-1.0, 2.0))
    assert W != MatrixPerturbation.scalar_well(0.25, (-1.0, 1.0))
    for matrix, message in [
            ([[0.0, 1.0], [2.0, 0.0]], "Hermitian"),
            ([[1.0, 0.5j], [0.5j, 1.0]], "Hermitian"),
            ([[np.inf, 0.0], [0.0, 1.0]], "finite"),
            ([[np.nan, 0.0], [0.0, 1.0]], "finite"),
            ([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]], "2x2"),
            ([[1.0, 0.0], [0.0]], "2x2"),
            (np.eye(3), "2x2")]:
        with pytest.raises(ValidationError, match=message):
            MatrixPerturbation.constant_matrix(matrix, (-1.0, 1.0))


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
