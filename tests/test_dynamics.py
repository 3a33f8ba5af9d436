import numpy as np
import pytest
from scipy import sparse

import cqmap as cq
from cqmap.dynamics import (
    GeneratorMatrix,
    GeneratorProvider,
    MatrixProvider,
    read_generator,
    trajectory_csv,
    write_generator,
)
from cqmap.errors import (
    IntegrationError,
    NumericalError,
    ReducibleOperatorError,
    ResourceLimitError,
    ValidationError,
)
from cqmap.mapping import classical_to_quantum
from cqmap.spectral import dense_spectrum

from conftest import random_model


def two_state_field(h):
    return cq.build_model({"n": 1, "terms": [{"sites": [0], "h": h}]})


# -------------------------------------------------------------- build_generator

def test_free_spin_heat_bath_generator():
    W = cq.build_generator(cq.ClassicalHamiltonian(1, {}), 1.0, "heat-bath")
    assert np.array_equal(W.matrix.toarray(), [[-0.5, 0.5], [0.5, -0.5]])


def test_single_spin_rate_sum_is_one_for_any_field():
    # heat-bath: w(up->down) + w(down->up) = 1 identically
    for h in (0.0, 0.3, 1.0, 2.5):
        for beta in (0.5, 1.0, 2.0):
            W = cq.build_generator(two_state_field(h), beta, "heat-bath")
            lam = np.sort(np.linalg.eigvals(-W.matrix.toarray()).real)
            assert abs(lam[0]) < 1e-15
            assert abs(lam[1] - 1.0) < 1e-12


def test_two_spin_bond_rates_hand_enumerated():
    h0 = cq.build_model({"n": 2, "terms": [{"sites": [0, 1], "J": 1}]})
    beta = 1.0
    W = cq.build_generator(h0, beta, "heat-bath").matrix.toarray()
    up = 1.0 / (1.0 + np.exp(2.0 * beta))    # aligned -> broken, dE = +2
    down = 1.0 / (1.0 + np.exp(-2.0 * beta))  # broken -> aligned, dE = -2
    expected = np.array(
        [
            [-2 * up, down, down, 0.0],
            [up, -2 * down, 0.0, up],
            [up, 0.0, -2 * down, up],
            [0.0, down, down, -2 * up],
        ]
    )
    assert np.abs(W - expected).max() < 1e-15


def test_metropolis_rates():
    h0 = cq.build_model({"n": 1, "terms": [{"sites": [0], "h": 1.0}]})
    W = cq.build_generator(h0, 0.5, "metropolis").matrix.toarray()
    # up (index 0) has E=-1, down has E=+1: uphill rate e^{-beta*2}, downhill 1
    assert abs(W[1, 0] - np.exp(-1.0)) < 1e-15
    assert W[0, 1] == 1.0


def test_glauber_is_heat_bath_alias():
    h0 = cq.chain(3)
    a = cq.build_generator(h0, 0.7, "glauber").matrix.toarray()
    b = cq.build_generator(h0, 0.7, "heat-bath").matrix.toarray()
    assert np.array_equal(a, b)
    with pytest.raises(ValidationError):
        cq.build_generator(h0, 0.7, "kawasaki")


def test_generator_structure_hamming_distance_one(rng):
    h0 = random_model(rng, 4)
    W = cq.build_generator(h0, 0.8)
    coo = W.matrix.tocoo()
    off = coo.row != coo.col
    hamming = np.array([int(r ^ c).bit_count() for r, c in zip(coo.row[off], coo.col[off])])
    assert np.all(hamming == 1)
    assert np.all(coo.data[off] >= 0)


def test_generator_column_sums_vanish(rng):
    for n, beta, rule in [(3, 0.5, "heat-bath"), (5, 1.2, "metropolis")]:
        W = cq.build_generator(random_model(rng, n), beta, rule)
        colsums = np.asarray(W.matrix.sum(axis=0))
        assert np.abs(colsums).max() < 1e-12


def test_generator_size_guard():
    with pytest.raises(ResourceLimitError):
        cq.build_generator(cq.ClassicalHamiltonian(25, {}), 1.0)


# -------------------------------------------------------------- verify_dynamics

def test_verify_passes_for_heat_bath_construction():
    h0 = cq.chain(4)
    W = cq.build_generator(h0, 1.0)
    report = cq.verify_dynamics(W, cq.gibbs_distribution(h0, 1.0))
    assert report.passed
    assert report.column_sum_residual <= 1e-12
    assert report.detailed_balance_residual <= 1e-12
    assert report.stationarity_residual <= 1e-12


def test_verify_flags_injected_violation():
    h0 = cq.chain(3)
    W = cq.build_generator(h0, 1.0)
    M = W.matrix.tolil()
    M[1, 0] += 1e-3
    broken = GeneratorMatrix(3, sparse.csr_array(M.tocsr()), W.rule, W.beta)
    report = cq.verify_dynamics(broken, cq.gibbs_distribution(h0, 1.0))
    assert not report.passed
    # injected absolute violation of 1e-3 surfaces at that scale (relative measure)
    assert 1e-4 < report.detailed_balance_residual < 1e-1
    assert abs(report.column_sum_residual - 1e-3) < 1e-12


def test_verify_metropolis_brute_force_stationarity(rng):
    h0 = random_model(rng, 3)
    W = cq.build_generator(h0, 0.5, "metropolis")
    peq = cq.gibbs_distribution(h0, 0.5)
    report = cq.verify_dynamics(W, peq)
    assert report.passed
    # independent stationarity check
    assert np.abs(W.matrix.toarray() @ peq.p).max() < 1e-12


def test_verify_shape_mismatch():
    W = cq.build_generator(cq.chain(3), 1.0)
    with pytest.raises(ValidationError):
        cq.verify_dynamics(W, np.full(4, 0.25))


# ------------------------------------------------------------- integrate_master

def test_two_state_relaxation_closed_form():
    provider = cq.constant_provider(cq.ClassicalHamiltonian(1, {}), 1.0)
    t_grid = np.array([0.0, 0.5, 1.0, 2.0])
    traj = cq.integrate_master(provider, np.array([1.0, 0.0]), t_grid)
    expected = 0.5 + 0.5 * np.exp(-t_grid)
    assert np.abs(traj.states[:, 0] - expected).max() < 1e-6


def test_gibbs_start_is_stationary():
    h0 = cq.chain(3)
    provider = cq.constant_provider(h0, 1.1)
    p0 = cq.gibbs_distribution(h0, 1.1)
    traj = cq.integrate_master(provider, p0, np.linspace(0.0, 5.0, 11))
    assert np.abs(traj.states - p0.p[None, :]).max() < 1e-9


def test_quench_final_energy_and_monotone_record():
    h0 = cq.chain(4)
    provider = GeneratorProvider(h0, lambda t: 0.2 * t, "heat-bath")
    p0 = np.full(16, 1.0 / 16)
    traj = cq.integrate_master(provider, p0, np.linspace(0.0, 10.0, 21))
    assert -4.0 <= traj.mean_energy[-1] <= 0.0
    assert np.all(np.diff(traj.mean_energy) <= 1e-8)
    # reference integration at half the internal step
    ref = cq.integrate_master(provider, p0, np.linspace(0.0, 10.0, 21), max_step=0.0125)
    assert np.abs(traj.states - ref.states).max() < 1e-8


def test_normalization_preserved(rng):
    h0 = random_model(rng, 4)
    provider = cq.constant_provider(h0, 0.9)
    dim = 16
    p0 = rng.random(dim)
    p0 /= p0.sum()
    traj = cq.integrate_master(provider, p0, np.linspace(0.0, 8.0, 17))
    assert traj.norm_drift < 1e-9
    assert traj.states.min() > -1e-8


def test_oversized_step_raises_integration_error():
    provider = cq.constant_provider(cq.chain(4), 2.0)
    p0 = np.full(16, 1.0 / 16)
    with pytest.raises(IntegrationError):
        cq.integrate_master(provider, p0, np.linspace(0.0, 20.0, 5), max_step=5.0)


def test_integrator_input_validation():
    provider = cq.constant_provider(cq.chain(2, periodic=False), 1.0)
    with pytest.raises(ValidationError):
        cq.integrate_master(provider, np.array([0.7, 0.1, 0.1, 0.1]),
                            np.array([0.0, 1.0, 1.0]))
    with pytest.raises(ValidationError):
        cq.integrate_master(provider, np.array([0.5, 0.5, 0.5, 0.5]),
                            np.array([0.0, 1.0]))


def test_matrix_provider_runs_arbitrary_generator():
    h0 = cq.chain(3)
    W = cq.build_generator(h0, 0.6)
    provider = MatrixProvider(W, h0)
    p0 = np.zeros(8)
    p0[0] = 1.0
    traj = cq.integrate_master(provider, p0, np.linspace(0.0, 4.0, 5))
    assert traj.norm_drift < 1e-9
    assert np.all(np.isfinite(traj.mean_energy))


def test_asymptotic_decay_rate_matches_lambda1():
    h0 = cq.chain(4)
    beta = 0.7
    H = classical_to_quantum(h0, beta, cq.build_generator(h0, beta))
    lam1 = dense_spectrum(H).eigenvalues[1]
    provider = cq.constant_provider(h0, beta)
    p0 = np.zeros(16)
    p0[0] = 1.0
    window = np.linspace(2.0 / lam1, 4.0 / lam1, 9)
    traj = cq.integrate_master(provider, p0, np.concatenate([[0.0], window]))
    distances = traj.l1_to_equilibrium[1:]
    assert np.all(np.diff(distances) < 0)  # monotone decay past transients
    slope = np.polyfit(window, np.log(distances), 1)[0]
    assert abs(-slope - lam1) < 0.05 * lam1


# -------------------------------------------------------------- relaxation_time

def test_relaxation_time_free_spin():
    W = cq.build_generator(cq.ClassicalHamiltonian(1, {}), 1.0)
    H = classical_to_quantum(cq.ClassicalHamiltonian(1, {}), 1.0, W)
    assert cq.relaxation_time(dense_spectrum(H)) == 1.0


def test_relaxation_time_two_spin_dense_oracle():
    h0 = cq.build_model({"n": 2, "terms": [{"sites": [0, 1], "J": 1}]})
    W = cq.build_generator(h0, 1.0)
    lam = np.sort(np.linalg.eigvals(-W.matrix.toarray()).real)
    H = classical_to_quantum(h0, 1.0, W)
    tau = cq.relaxation_time(dense_spectrum(H))
    assert abs(tau - 1.0 / lam[1]) < 1e-10 * tau


def test_relaxation_time_rejects_reducible_chain():
    # joint chain of two frozen sectors: only spin 0 flips, spin 1 frozen
    w2 = np.array([[-0.5, 0.5], [0.5, -0.5]])
    block = np.block([[w2, np.zeros((2, 2))], [np.zeros((2, 2)), w2]])
    lam = np.sort(np.linalg.eigvalsh(-block))

    class Spec:
        eigenvalues = lam

    with pytest.raises(ReducibleOperatorError):
        cq.relaxation_time(Spec())


def test_relaxation_time_preconditions():
    class Short:
        eigenvalues = np.array([0.0])

    class Shifted:
        eigenvalues = np.array([0.5, 1.0])

    with pytest.raises(ValidationError):
        cq.relaxation_time(Short())
    with pytest.raises(ValidationError):
        cq.relaxation_time(Shifted())


def test_relaxation_time_rejects_gap_within_residuals():
    class Unresolved:
        eigenvalues = np.array([0.0, 1e-13])
        residual_norms = np.array([1e-12, 1e-12])

    with pytest.raises(NumericalError, match="not resolved"):
        cq.relaxation_time(Unresolved())


# -------------------------------------------------------------------- exports

def test_generator_coordinate_roundtrip(tmp_path):
    W = cq.build_generator(cq.chain(3), 0.8)
    path = tmp_path / "w.txt"
    write_generator(W, path)
    text = path.read_text()
    assert text.startswith("%%sparse-coordinate real\n8 8 ")
    back = read_generator(path)
    assert back.n == 3
    assert np.abs((back.matrix - W.matrix).toarray()).max() == 0.0


def test_trajectory_csv_header():
    provider = cq.constant_provider(cq.chain(2, periodic=False), 0.5)
    traj = cq.integrate_master(provider, np.full(4, 0.25), np.array([0.0, 1.0]))
    lines = trajectory_csv(traj).splitlines()
    assert lines[0] == "time,mean_energy,p_ground,l1_distance_to_gibbs"
    assert len(lines) == 3
