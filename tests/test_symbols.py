import numpy as np
import pytest

from spectral_decay.errors import DimensionMismatch
from spectral_decay.symbols import (PAULI, SymbolSystem, dirac_alpha_system,
                                    dump_symbol_system, gamma,
                                    load_symbol_system, pauli_system, symbol)


def test_symbol_evaluation():
    sys2 = pauli_system((1, 2))
    assert np.allclose(symbol(sys2, [0.0, 1.0]), PAULI[1])
    assert np.allclose(symbol(sys2, [0.0, 0.0]), np.zeros((2, 2)))
    dirac = dirac_alpha_system()
    A = symbol(dirac, [1.0, 0.0, 0.0])
    expected = np.zeros((4, 4), dtype=complex)
    expected[:2, 2:] = PAULI[0]
    expected[2:, :2] = PAULI[0]
    assert np.allclose(A, expected)
    with pytest.raises(DimensionMismatch):
        symbol(dirac, [1.0, 0.0])


def test_anticommutation_certificate():
    mats = dirac_alpha_system().matrices
    for j in range(3):
        for k in range(3):
            anti = mats[j] @ mats[k] + mats[k] @ mats[j]
            target = 2.0 * np.eye(4) if j == k else np.zeros((4, 4))
            assert np.max(np.abs(anti - target)) <= 1e-14


def test_gamma_dirac():
    rep = gamma(dirac_alpha_system())
    assert abs(rep.gamma - 1.0) <= 1e-10
    assert abs(np.linalg.norm(rep.gamma_argmax) - 1.0) <= 1e-12


def test_gamma_pauli_pair():
    rep = gamma(pauli_system((1, 2)))
    assert abs(rep.gamma - 1.0) <= 1e-12


def test_gamma_single_matrix():
    sys1 = SymbolSystem(matrices=(np.diag([2.0, -1.0]).astype(complex),))
    assert gamma(sys1).gamma == pytest.approx(2.0, abs=1e-12)


def test_dirac_symbol_eigenvalues_random_xi():
    dirac = dirac_alpha_system()
    rng = np.random.default_rng(42)
    for _ in range(100):
        xi = rng.normal(size=3)
        r = np.linalg.norm(xi)
        ev = np.sort(np.linalg.eigvalsh(symbol(dirac, xi)))
        assert np.allclose(ev, [-r, -r, r, r], atol=1e-10)


def test_homogeneity():
    dirac = dirac_alpha_system()
    rng = np.random.default_rng(5)
    for _ in range(20):
        xi = rng.normal(size=3)
        t = rng.normal()
        n1 = np.linalg.norm(symbol(dirac, t * xi), ord=2)
        n2 = abs(t) * np.linalg.norm(symbol(dirac, xi), ord=2)
        assert abs(n1 - n2) <= 1e-12 * max(1.0, n2)


def test_ellipticity_margin():
    assert gamma(pauli_system((1, 2))).ellipticity_margin == pytest.approx(1.0, abs=1e-10)
    degenerate = SymbolSystem(matrices=(PAULI[2], PAULI[2]))
    assert gamma(degenerate).ellipticity_margin <= 1e-10
    assert gamma(dirac_alpha_system()).ellipticity_margin == pytest.approx(1.0, abs=1e-8)


def test_json_round_trip():
    dirac = dirac_alpha_system()
    doc = dump_symbol_system(dirac)
    back = load_symbol_system(doc)
    assert back.n == 4 and back.d == 3
    for a, b in zip(back.matrices, dirac.matrices):
        assert np.allclose(a, b)
