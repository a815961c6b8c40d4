import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.optimize import minimize

from spectral_decay import symbols
from spectral_decay.errors import SchemaError, ValidationError
from spectral_decay.symbols import (PAULI, SymbolSystem, dirac_alpha_system,
                                    dump_symbol_system, gamma,
                                    load_symbol_system, pauli_system, symbol)

import oracles


def _random_system(d, n, seed):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((d, n, n)) + 1j * rng.standard_normal((d, n, n))
    return SymbolSystem(matrices=tuple(0.5 * (x + np.conj(np.swapaxes(x, 1, 2)))))


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
    with pytest.raises(ValidationError, match="xi must have length 3"):
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


def test_malformed_symbol_documents_and_systems_fail_typed():
    with pytest.raises(SchemaError, match="symbol system document must be an object"):
        load_symbol_system([])
    pauli = dump_symbol_system(pauli_system((1, 2)))
    with pytest.raises(SchemaError, match="'matrices' must list d = 3 matrices"):
        load_symbol_system(dict(pauli, d=3))
    with pytest.raises(ValidationError, match="at least one coefficient matrix"):
        SymbolSystem(matrices=())
    with pytest.raises(ValidationError, match="share one size"):
        SymbolSystem(matrices=(PAULI[0], np.eye(3)))


def test_json_round_trip():
    dirac = dirac_alpha_system()
    doc = dump_symbol_system(dirac)
    back = load_symbol_system(doc)
    assert back.n == 4 and back.d == 3
    for a, b in zip(back.matrices, dirac.matrices):
        assert np.allclose(a, b)


@settings(max_examples=20, deadline=None, derandomize=True)
@given(st.integers(1, 3), st.integers(1, 4), st.integers(0, 2 ** 32 - 1))
def test_property_lockstep_ascents_match_the_per_start_reference(d, n, seed):
    system = _random_system(d, n, seed)
    rep = gamma(system)
    g, xi, margin = oracles.gamma_reference(system)
    # same arithmetic in the same order: equal, not merely close
    assert rep.ellipticity_margin == margin
    assert rep.gamma == g and np.array_equal(rep.gamma_argmax, xi)
    attained = np.max(np.abs(np.linalg.eigvalsh(symbol(system, rep.gamma_argmax))))
    assert abs(attained - rep.gamma) <= 4 * np.spacing(rep.gamma)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(st.integers(1, 5), st.floats(-3.0, 3.0), st.integers(0, 2 ** 32 - 1))
def test_property_one_dimensional_gamma_is_its_sphere_grid(n, scale, seed):
    # d = 1: the sphere is {1, -1}, and the grid holds both points, so the
    # ascents and the Nelder-Mead polish move neither gamma, its argmax nor
    # the margin off the first grid maximum and the grid minimum (ROADMAP item 20)
    system = SymbolSystem(matrices=(10.0 ** scale * _random_system(1, n, seed).matrices[0],))
    grid = symbols._sphere_grid(1)
    gmax, gmin = symbols._batch_extreme(system, grid)
    k = int(np.argmax(gmax))
    rep = gamma(system)
    assert rep.gamma.hex() == float(gmax[k]).hex()
    assert rep.gamma_argmax.tobytes() == grid[k].tobytes()
    assert rep.ellipticity_margin.hex() == float(gmin.min()).hex()


# objectives of x for a centre a; the plateau's steps tie in argsort, on the
# flat one every contraction fails, so each iteration shrinks, "inplace"
# writes into its argument, and "holed" is NaN beyond x_0 = a + 1
OBJECTIVES = {
    "bowl": lambda a: lambda x: float(np.sum((1 + np.arange(len(x))) * (x - a) ** 2)),
    "rosenbrock": lambda a: lambda x: float(np.sum(100 * (x[1:] - x[:-1] ** 2) ** 2)
                                            + np.sum((1 - x + a) ** 2)),
    "kink": lambda a: lambda x: float(np.sum(np.abs(x - a))),
    "plateau": lambda a: lambda x: float(np.floor(4 * np.sum((x - a) ** 2))),
    "flat": lambda a: lambda x: 1.0,
    "inplace": lambda a: lambda x: float(np.sum(np.subtract(x, a, out=x) ** 2)),
    "holed": lambda a: lambda x: float(np.sum((x - a) ** 2)) if x[0] <= a + 1 else np.nan,
}


def _nelder_mead_run(solve, f, x0):
    """(least value, points at which f was evaluated), both as hex."""
    xs = []

    def g(x):
        xs.append(tuple(v.hex() for v in map(float, x)))
        return f(x)

    return float(solve(g, x0)).hex(), xs


@settings(max_examples=150, deadline=None, derandomize=True)
@given(st.sampled_from(sorted(OBJECTIVES) + ["margin"]),
       st.lists(st.one_of(st.just(0.0), st.floats(-3.0, 3.0)), min_size=1, max_size=3),
       st.floats(-1.0, 1.0), st.integers(1, 4), st.integers(0, 2 ** 32 - 1),
       st.sampled_from([1, 2, 5, 30, 4000]), st.sampled_from([(1e-12, 1e-14), (1e-4, 1e-4)]))
@example("bowl", [0.0, 1.5, 0.0], 0.3, 1, 0, 4000, (1e-12, 1e-14))  # zero coordinates
@example("rosenbrock", [-1.2, 1.0], 0.0, 1, 0, 30, (1e-12, 1e-14))  # stops at maxiter
@example("plateau", [2.1, -2.8], 0.5, 1, 0, 4000, (1e-12, 1e-14))  # expansion ties
@example("plateau", [2.4, 0.5, -2.7], 0.6, 1, 0, 4000, (1e-12, 1e-14))  # shrink rounding
@example("flat", [-0.4, 2.7, -0.0], 0.0, 1, 0, 4000, (1e-12, 1e-14))  # shrinks only
@example("margin", [0.6, 0.8, 0.0], 0.0, 3, 11, 4000, (1e-12, 1e-14))
@example("inplace", [1.0, 2.0], 0.5, 1, 0, 4000, (1e-12, 1e-14))
@example("holed", [1.0, 2.0], 0.0, 1, 0, 1, (1e-12, 1e-14))  # a NaN vertex left
def test_property_nelder_mead_is_scipys_bit_for_bit(kind, x0, a, n, seed, maxiter, tols):
    x0 = np.array(x0)
    if kind == "margin":
        system = _random_system(len(x0), n, seed)
        f = oracles.margin_objective(system, np.inf)
    else:
        f = OBJECTIVES[kind](a)
    xatol, fatol = tols

    def ours(g, x):
        return symbols._nelder_mead(g, x, xatol=xatol, fatol=fatol, maxiter=maxiter)

    def scipys(g, x):
        return minimize(g, x, method="Nelder-Mead",
                        options={"xatol": xatol, "fatol": fatol, "maxiter": maxiter}).fun

    assert _nelder_mead_run(ours, f, x0) == _nelder_mead_run(scipys, f, x0)


def test_sample_blocks_do_not_change_the_report(monkeypatch):
    system = _random_system(3, 3, 5)
    rep = gamma(system)
    monkeypatch.setattr(symbols, "_BLOCK", 37)
    small = gamma(system)
    assert (small.gamma, small.ellipticity_margin) == (rep.gamma, rep.ellipticity_margin)
    assert np.array_equal(small.gamma_argmax, rep.gamma_argmax)


def test_gamma_memory_is_bounded_by_the_sample_blocks():
    # d = 4 draws a 200,000-point sample; its (N, n, n) stack alone is 115 MB
    tracemalloc.start()
    try:
        gamma(_random_system(4, 6, 3))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2 ** 20
