import numpy as np
import pytest
from scipy import sparse

import cqmap as cq
from cqmap import spectral
from cqmap.errors import NumericalError, ResourceLimitError, ValidationError
from cqmap.spectral import (
    fit_json,
    gershgorin_bound,
    read_size_tau_csv,
    sweep_csv,
)

from conftest import random_model


def mapped(h0, beta, rule="heat-bath"):
    return cq.classical_to_quantum(h0, beta, cq.build_generator(h0, beta, rule))


def mapped_chain(n, beta, rule="heat-bath"):
    return mapped(cq.chain(n), beta, rule)


def sqrt_peq(h0, beta):
    return np.sqrt(cq.gibbs_distribution(h0, beta).p)


# -------------------------------------------------------------- dense_spectrum

def test_dense_free_spin_map():
    m = sparse.csr_array(np.array([[0.5, -0.5], [-0.5, 0.5]]))
    result = cq.dense_spectrum(cq.QuantumHamiltonian(1, m))
    assert np.abs(result.eigenvalues - [0.0, 1.0]).max() < 1e-14
    assert abs(result.gap - 1.0) < 1e-14


def test_dense_analytic_two_by_two():
    m = sparse.csr_array(np.array([[2.0, -1.0], [-1.0, 2.0]]))
    result = cq.dense_spectrum(cq.QuantumHamiltonian(1, m))
    assert np.abs(result.eigenvalues - [1.0, 3.0]).max() < 1e-14


def test_dense_mapped_chain_positive_semidefinite():
    result = cq.dense_spectrum(mapped_chain(4, 1.0))
    assert abs(result.eigenvalues[0]) <= 1e-10
    assert result.eigenvalues.min() >= -1e-10
    assert np.sum(np.abs(result.eigenvalues) <= 1e-10) == 1


def test_dense_size_guard():
    H = cq.QuantumHamiltonian(14, sparse.eye_array(1 << 14).tocsr())
    with pytest.raises(ResourceLimitError):
        cq.dense_spectrum(H)


# ---------------------------------------------------------- extreme_eigenpairs

def test_extreme_matches_dense_on_mapped_chain():
    for beta in (1.0, 0.5):
        H = mapped_chain(4, beta)  # dim 16: the dense fallback
        dense = cq.dense_spectrum(H)
        extreme = cq.extreme_eigenpairs(H, k=2)
        assert extreme.method == "dense"
        assert np.abs(extreme.eigenvalues - dense.eigenvalues[:2]).max() < 1e-8
        width = dense.eigenvalues[-1] - dense.eigenvalues[0]
        assert extreme.residual_norms.max() <= 1e-8 * width


def test_extreme_uses_arpack_beyond_fallback_dim():
    H = mapped_chain(6, 0.7)  # dim 64
    dense = cq.dense_spectrum(H)
    extreme = cq.extreme_eigenpairs(H, k=2)
    assert extreme.method == "iterative"
    assert np.abs(extreme.eigenvalues - dense.eigenvalues[:2]).max() < 1e-8
    width = dense.eigenvalues[-1] - dense.eigenvalues[0]
    assert extreme.residual_norms.max() <= 1e-8 * width


def test_extreme_random_instances_match_dense(rng):
    for n in (5, 6):
        h0 = random_model(rng, n)
        H = cq.classical_to_quantum(h0, 0.8, cq.build_generator(h0, 0.8))
        dense = cq.dense_spectrum(H)
        extreme = cq.extreme_eigenpairs(H, k=3)
        assert np.abs(extreme.eigenvalues - dense.eigenvalues[:3]).max() < 1e-8


def test_extreme_degenerate_lowest_pair_two_sectors():
    block = np.array(
        [
            [0.5, -0.5, 0.0, 0.0],
            [-0.5, 0.5, 0.0, 0.0],
            [0.0, 0.0, 0.5, -0.5],
            [0.0, 0.0, -0.5, 0.5],
        ]
    )
    H = cq.QuantumHamiltonian(2, sparse.csr_array(block))
    result = cq.extreme_eigenpairs(H, k=2)
    assert np.abs(result.eigenvalues).max() <= 1e-10
    assert result.gap <= 1e-10


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("n", [4, 6])
def test_non_finite_entry_is_validation_error(n, bad):
    # chain(4) has 16 states (dense fallback), chain(6) has 64 (ARPACK).
    H = cq.transverse_field_hamiltonian(cq.chain(n), 1.0)
    H.matrix.data[3] = bad
    with pytest.raises(ValidationError, match="NaN or infinite"):
        cq.extreme_eigenpairs(H, k=2)
    with pytest.raises(ValidationError, match="NaN or infinite"):
        cq.dense_spectrum(H)


def test_extreme_validates_k():
    H = mapped_chain(3, 0.5)
    with pytest.raises(ValidationError):
        cq.extreme_eigenpairs(H, k=0)
    with pytest.raises(ValidationError):
        cq.extreme_eigenpairs(H, k=8)


def test_extreme_nonconvergence_carries_partial_results():
    h0 = cq.grid(3, 3)
    H = cq.classical_to_quantum(h0, 0.44, cq.build_generator(h0, 0.44))
    with pytest.raises(cq.ConvergenceError) as excinfo:
        cq.extreme_eigenpairs(H, k=2, max_iter=1)
    assert excinfo.value.eigenvalues is not None


def test_deflated_nonconvergence_still_reports_the_known_pair():
    h0 = cq.grid(3, 3)
    with pytest.raises(cq.ConvergenceError) as excinfo:
        cq.extreme_eigenpairs(mapped(h0, 0.44), k=2, max_iter=1, known=sqrt_peq(h0, 0.44))
    err = excinfo.value
    assert abs(err.eigenvalues[0]) <= 1e-14
    assert err.residual_norms.shape == err.eigenvalues.shape


def test_extreme_on_sixteen_spin_mapped_grid():
    h0 = cq.grid(4, 4)  # dim 65536, near-critical temperature
    H = cq.classical_to_quantum(h0, 0.44, cq.build_generator(h0, 0.44))
    result = cq.extreme_eigenpairs(H, k=2)
    assert result.method == "iterative"
    assert abs(result.eigenvalues[0]) <= 1e-10
    assert result.gap > 0
    width = gershgorin_bound(H) - result.eigenvalues[0]
    assert result.residual_norms.max() <= 1e-8 * width


@pytest.mark.parametrize("h0, beta, rule, parity", [
    (cq.chain(10), 0.7, "heat-bath", -1.0),  # h=0: lambda_1 is odd under a global flip
    (cq.chain(9, field_h=0.3), 0.5, "metropolis", None),
    (cq.grid(3, 3, field_h=0.1), 0.44, "heat-bath", None),
])
def test_deflated_solve_matches_dense_lambda1(h0, beta, rule, parity):
    H = mapped(h0, beta, rule)
    lam1 = np.linalg.eigvalsh(H.dense())[1]
    result = cq.extreme_eigenpairs(H, k=2, known=sqrt_peq(h0, beta))
    assert result.method == "iterative"
    assert abs(result.eigenvalues[1] - lam1) <= 1e-12 * lam1
    assert abs(result.eigenvalues[0]) <= 1e-14
    assert result.residual_norms.max() <= 1e-12
    if parity is not None:
        vec = result.eigenvectors[:, 1]
        assert abs(vec @ vec[::-1] - parity) <= 1e-10  # s -> ~s reverses the index


def test_known_vector_is_checked():
    h0 = cq.chain(8, field_h=0.3)
    H = mapped(h0, 1.0)
    dim = 1 << 8
    # neither the uniform vector nor sqrt(p_eq) at another beta is a zero mode
    for wrong in (np.ones(dim), sqrt_peq(h0, 0.5)):
        with pytest.raises(NumericalError, match="not a stationary mode"):
            cq.extreme_eigenpairs(H, k=2, known=wrong)
    for bad in (np.ones(dim - 1), np.ones((dim, 1)), np.full(dim, np.nan), np.zeros(dim)):
        with pytest.raises(ValidationError, match="known"):
            cq.extreme_eigenpairs(H, k=2, known=bad)
    with pytest.raises(ValidationError, match="k >= 2"):
        cq.extreme_eigenpairs(H, k=1, known=sqrt_peq(h0, 1.0))


def test_gershgorin_bounds_top_eigenvalue():
    H = mapped_chain(5, 0.9)
    top = cq.dense_spectrum(H).eigenvalues[-1]
    assert gershgorin_bound(H) >= top


# ------------------------------------------------------------ gap_scaling_sweep

def test_chain_sweep_rows_and_beta_trend():
    rows_cold = cq.gap_scaling_sweep({"kind": "chain"}, [4, 6, 8], 0.5)
    assert [r.size for r in rows_cold] == [4, 6, 8]
    assert all(np.isfinite(r.gap) and r.gap > 0 for r in rows_cold)
    assert all(np.isfinite(r.tau) and r.tau > 0 for r in rows_cold)
    rows_warm = cq.gap_scaling_sweep({"kind": "chain"}, [4, 6, 8], 0.3)
    for cold, warm in zip(rows_cold, rows_warm):
        assert cold.tau > warm.tau  # relaxation slows as beta grows


def test_sweep_callable_family_and_single_row():
    rows = cq.gap_scaling_sweep(lambda n: cq.chain(n), [4], 0.5)
    assert len(rows) == 1
    with pytest.raises(ValidationError):
        cq.fit_scaling(rows)


def test_sweep_records_per_row_failures_and_continues():
    rows = cq.gap_scaling_sweep({"kind": "grid"}, [2, 5, 6], 0.44)
    assert rows[0].error is None
    assert rows[1].error is not None  # 5x5 = 25 spins exceeds the sparse cap
    assert rows[1].method == "error"
    assert np.isnan(rows[1].gap)
    assert rows[2].error is not None  # 6x6 = 36 spins: the model itself is refused
    assert [r.size for r in rows] == [4, 25, 36]  # spin counts, failed rows too


def test_sweep_row_with_wrong_known_vector_is_an_error(monkeypatch):
    monkeypatch.setattr(spectral, "gibbs_distribution",
                        lambda h0, beta: cq.gibbs_distribution(h0, 2 * beta))
    row = cq.gap_scaling_sweep({"kind": "chain", "h": 0.3}, [8], 1.0)[0]
    assert row.method == "error"
    assert "not a stationary mode" in row.error


def test_sweep_row_with_unresolved_gap_is_an_error():
    # 3x3 field grid at beta=3: Krylov returns lambda_1 - lambda_0 ~ 1e-14
    # with residuals ~ 1e-12, which must not become tau ~ 1e14.
    row = cq.gap_scaling_sweep({"kind": "grid", "h": 0.1}, [3], 3.0)[0]
    assert row.method == "error"
    assert "not resolved" in row.error
    assert np.isnan(row.tau)


def test_sweep_row_of_field_grid_matches_dense_gap():
    # The gap of the 3x3 field grid at beta=1 is 7.04e-6; a start vector
    # with the grid's symmetries returns it as lambda_0.
    row = cq.gap_scaling_sweep({"kind": "grid", "h": 0.1}, [3], 1.0)[0]
    h0 = cq.grid(3, 3, field_h=0.1)
    H = cq.classical_to_quantum(h0, 1.0, cq.build_generator(h0, 1.0))
    lam1 = np.linalg.eigvalsh(H.dense())[1]
    assert row.method != "error"
    assert abs(row.gap - lam1) <= 1e-10
    assert abs(lam1 - 7.04350424e-6) <= 1e-13


def test_sweep_csv_format():
    rows = cq.gap_scaling_sweep({"kind": "chain"}, [4, 6], 0.5)
    text = sweep_csv(rows)
    lines = text.strip().splitlines()
    assert lines[0] == "size,gap,tau,method,residual"
    assert len(lines) == 3


# ------------------------------------------------------------------ fit_scaling

def test_fit_recovers_quadratic_exactly():
    table = [(N, float(N) ** 2) for N in (4, 8, 16)]
    fit = cq.fit_scaling(table)
    assert abs(fit.poly_exponent - 2.0) < 1e-10
    assert fit.preferred == "polynomial"
    assert fit.residual_poly < fit.residual_exp


def test_fit_recovers_exponential_exactly():
    table = [(N, float(np.exp(0.5 * N))) for N in (4, 8, 12)]
    fit = cq.fit_scaling(table)
    assert abs(fit.exp_rate - 0.5) < 1e-10
    assert fit.preferred == "exponential"
    assert fit.residual_exp < fit.residual_poly


def test_fit_scale_invariance():
    table = [(N, float(N) ** 1.7) for N in (4, 6, 8, 12)]
    ref = cq.fit_scaling(table)
    scaled = cq.fit_scaling([(N, 250.0 * t) for N, t in table])
    assert abs(ref.poly_exponent - scaled.poly_exponent) < 1e-12
    assert abs(ref.exp_rate - scaled.exp_rate) < 1e-12


def test_fit_rejects_short_or_invalid_tables():
    with pytest.raises(ValidationError):
        cq.fit_scaling([(4, 1.0), (8, 2.0)])
    with pytest.raises(ValidationError):
        cq.fit_scaling([(4, 1.0), (8, -2.0), (12, 3.0)])


def test_fit_skips_failed_sweep_rows():
    rows = cq.gap_scaling_sweep({"kind": "chain"}, [4, 5, 6, 25], 0.5)
    assert rows[-1].error is not None  # 25 spins exceeds the sparse cap
    fit = cq.fit_scaling(rows)  # three valid rows remain
    assert np.isfinite(fit.poly_exponent)
    with pytest.raises(ValidationError):
        cq.fit_scaling(rows[:2] + rows[3:])  # only two valid rows left


def test_fit_json_fields():
    fit = cq.fit_scaling([(N, float(N) ** 2) for N in (4, 8, 16)])
    payload = fit_json(fit)
    assert set(payload) == {"a", "b", "preferred", "residual_poly", "residual_exp"}


def test_read_size_tau_csv(tmp_path):
    rows = cq.gap_scaling_sweep({"kind": "chain"}, [4, 6, 8], 0.5)
    path = tmp_path / "sweep.csv"
    path.write_text(sweep_csv(rows))
    pairs = read_size_tau_csv(path)
    assert pairs == [(r.size, r.tau) for r in rows]


# ---------------------------------------------------------- spectral invariants

def test_relaxation_time_consistent_with_gap():
    H = mapped_chain(5, 0.8)
    spec = cq.dense_spectrum(H)
    tau = cq.relaxation_time(spec)
    assert abs(tau * spec.eigenvalues[1] - 1.0) < 1e-12
