import tracemalloc

import numpy as np
import pytest
import scipy.linalg
from scipy import sparse

import cqmap as cq
from cqmap import mapping, model, spectral
from cqmap.errors import NumericalError, ResourceLimitError, ValidationError
from cqmap.spectral import (
    fit_json,
    gershgorin_bound,
    read_size_tau_csv,
    sweep_csv,
)

from conftest import held_bytes, random_model


def mapped(h0, beta, rule="heat-bath"):
    return cq.classical_to_quantum(h0, beta, rule)


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


@pytest.mark.parametrize("solve", [lambda H: cq.extreme_eigenpairs(H, k=2),
                                   cq.ground_state], ids=["extreme_eigenpairs", "ground_state"])
def test_solves_above_the_operator_cap_are_refused_before_the_matrix_is_read(solve):
    # A stand-in with a shape and nothing else: any read of its entries fails.
    class Shape:
        shape = (1 << 25, 1 << 25)
    with pytest.raises(ResourceLimitError, match="dimension 33554432 exceeds the 2\\^24 cap"):
        solve(cq.QuantumHamiltonian(25, Shape()))


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


def test_dense_and_krylov_solves_read_the_same_roughly_symmetric_h():
    # H[0, 1] scaled by 1 + 5e-11 passes the 1e-10 symmetry check. Both
    # solves read the diagonal and strict upper triangle it is held as, so
    # their lowest eigenvalues agree to roundoff (1.7e-12 apart when LAPACK
    # read the lower triangle and ARPACK the full CSR).
    matrix = mapped(cq.chain(6, field_h=0.3), 0.7).matrix
    matrix[0, 1] *= 1.0 + 5e-11
    H = cq.QuantumHamiltonian(6, matrix)
    dense = cq.dense_spectrum(H).eigenvalues[:2]
    krylov = cq.extreme_eigenpairs(H, k=2)
    assert krylov.method == "iterative"
    assert np.abs(krylov.eigenvalues - dense).max() <= 1e-14


def test_extreme_random_instances_match_dense(rng):
    for n in (5, 6):
        h0 = random_model(rng, n)
        H = cq.classical_to_quantum(h0, 0.8)
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
    # H.matrix is built from H's held (diag, upper) on every read.
    H = cq.transverse_field_hamiltonian(cq.chain(n), 1.0)
    H.upper.data[3] = bad
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
    H = cq.classical_to_quantum(h0, 0.44)
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


def test_deflated_cap_reports_the_best_ritz_pair_on_H():
    h0 = cq.chain(10)
    H = mapped(h0, 0.7)
    spectrum = np.linalg.eigvalsh(H.matrix.toarray())
    with pytest.raises(cq.ConvergenceError, match="in 5 steps") as excinfo:
        cq.extreme_eigenpairs(H, k=2, max_iter=5, known=sqrt_peq(h0, 0.7))
    err = excinfo.value
    assert err.eigenvalues.shape == err.residual_norms.shape == (2,)
    assert abs(err.eigenvalues[0]) <= 1e-14 and err.residual_norms[0] <= 1e-14
    # a Ritz value of the deflated operator bounds lambda_1 from above, and
    # lies within its residual on H of an eigenvalue of H
    theta, residual = err.eigenvalues[1], err.residual_norms[1]
    assert spectrum[1] - 1e-12 <= theta
    assert np.abs(spectrum - theta).min() <= residual + 1e-12
    assert residual > 1e-6


def test_extreme_on_sixteen_spin_mapped_grid():
    h0 = cq.grid(4, 4)  # dim 65536, near-critical temperature
    H = cq.classical_to_quantum(h0, 0.44)
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
    lam1 = np.linalg.eigvalsh(H.matrix.toarray())[1]
    result = cq.extreme_eigenpairs(H, k=2, known=sqrt_peq(h0, beta))
    assert result.method == "iterative"
    assert abs(result.eigenvalues[1] - lam1) <= 1e-12 * lam1
    assert abs(result.eigenvalues[0]) <= 1e-14
    assert result.residual_norms.max() <= 1e-12
    if parity is not None:
        vec = result.eigenvectors[:, 1]
        assert abs(vec @ vec[::-1] - parity) <= 1e-10  # s -> ~s reverses the index


def test_deflated_solve_at_beta_zero_has_gap_one():
    # At beta = 0 every flip rate is 1/2, H = sum_j (1 - sx_j) / 2 and the
    # deflated Krylov space is exhausted after about ten steps.
    h0 = cq.chain(10)
    result = cq.extreme_eigenpairs(mapped(h0, 0.0), k=2, known=sqrt_peq(h0, 0.0))
    assert result.method == "iterative"
    assert abs(result.gap - 1.0) <= 1e-12
    assert result.residual_norms.max() <= 1e-12


def test_deflated_pair_ends_on_exact_breakdown():
    # H = diag(0, 1, ..., 1) from the eigenvector e_1: the first step leaves
    # w = 0 exactly, which must end the iteration as converged.
    dim = 64
    matrix = sparse.diags_array(np.r_[0.0, np.ones(dim - 1)]).tocsr()
    phi0, v0 = np.eye(dim)[0], np.eye(dim)[1]
    ground = spectral._known_ground_state(matrix.__matmul__, dim, phi0)
    result = spectral._deflated_pair(matrix.__matmul__, 2.0, ground, v0, None, 0.0)
    assert result.eigenvalues.tolist() == [0.0, 1.0]
    assert result.residual_norms.tolist() == [0.0, 0.0]
    assert np.array_equal(result.eigenvectors, np.eye(dim)[:, :2])


def test_deflated_solve_keeps_no_krylov_basis():
    # At most 8 vectors beyond H: neither a copy of H's structure nor an
    # ncv-sized basis is allocated.
    h0 = cq.chain(14)
    H, known = mapped(h0, 0.44), sqrt_peq(h0, 0.44)
    tracemalloc.start()
    result = cq.extreme_eigenpairs(H, k=2, known=known)
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    assert result.method == "iterative"
    assert peak <= 8 * (1 << 14) * 8


@pytest.mark.parametrize("h0, beta", [
    (cq.chain(10, field_h=0.3), 0.7),
    (cq.grid(3, 3, field_h=0.1), 0.44),
], ids=["chain10", "grid3x3"])
def test_deflated_solve_on_a_general_csr_matches_dense(h0, beta):
    # A QuantumHamiltonian(n, csr), as read from a file, is split into the
    # halves it is solved on.
    H = cq.QuantumHamiltonian(h0.n, mapped(h0, beta).matrix)
    lam = scipy.linalg.eigvalsh(H.matrix.toarray())
    result = cq.extreme_eigenpairs(H, k=2, known=sqrt_peq(h0, beta))
    assert result.method == "iterative"
    assert np.abs(result.eigenvalues - lam[:2]).max() <= 1e-12 * lam[-1]
    assert result.residual_norms.max() <= 1e-12


def solve_on_the_full_csr(monkeypatch, H):
    """Refuse any read of H.matrix, then return a solve whose products and
    row sums are taken on H's full CSR, as scipy's CSR kernels give them."""
    full = H.matrix

    def refuse(H):
        raise AssertionError("full CSR built")

    monkeypatch.setattr(mapping.QuantumHamiltonian, "matrix", property(refuse))

    def solve(**kwargs):
        with monkeypatch.context() as patch:
            patch.setattr(spectral, "_half_matvec", lambda diag, upper, x: full @ x)
            patch.setattr(spectral, "_half_abs_row_sums",
                          lambda diag, upper: abs(full) @ np.ones(full.shape[0]))
            return cq.extreme_eigenpairs(H, **kwargs)
    return solve


def test_deflated_solve_on_held_halves_is_the_full_csr_solve_bit_for_bit(monkeypatch):
    # H x is summed in the full CSR row's order, so the solve on (diag, upper)
    # repeats the one on the full CSR exactly, and never builds that CSR.
    h0, beta = cq.grid(3, 4, field_h=0.1), 0.44
    H, known = mapped(h0, beta), sqrt_peq(h0, beta)
    general = solve_on_the_full_csr(monkeypatch, H)(k=2, known=known)
    held = cq.extreme_eigenpairs(H, k=2, known=known)
    assert np.array_equal(held.eigenvalues, general.eigenvalues)
    assert np.array_equal(held.eigenvectors, general.eigenvectors)
    assert np.array_equal(held.residual_norms, general.residual_norms)


ARPACK_CASES = {
    "transverse-chain12": lambda: cq.transverse_field_hamiltonian(cq.chain(12, field_h=0.1), 0.8),
    "mapped-grid3x4": lambda: mapped(cq.grid(3, 4, field_h=0.1), 0.44),
}


@pytest.mark.parametrize("case", sorted(ARPACK_CASES))
def test_arpack_on_held_halves_is_the_full_csr_solve_bit_for_bit(monkeypatch, case):
    # Without a known vector ARPACK reads H through the same product as the
    # deflated solve, so on (diag, upper) it repeats the full CSR's solve.
    H = ARPACK_CASES[case]()
    general = solve_on_the_full_csr(monkeypatch, H)(k=3)
    held = cq.extreme_eigenpairs(H, k=3)
    assert held.method == general.method == "iterative"
    assert np.array_equal(held.eigenvalues, general.eigenvalues)
    assert np.array_equal(held.eigenvectors, general.eigenvectors)
    assert np.array_equal(held.residual_norms, general.residual_norms)


def test_arpack_solve_holds_no_full_csr():
    # Beyond H's halves: ARPACK's basis of 20 vectors, its work arrays and
    # the residual products, 5.88 MiB traced at 2^14 states. A full CSR
    # built beside the halves for ARPACK made it 8.8 MiB.
    H = cq.transverse_field_hamiltonian(cq.chain(14, field_h=0.1), 0.8)
    tracemalloc.start()
    result = cq.extreme_eigenpairs(H, k=2)
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    assert result.method == "iterative"
    assert peak <= 5.9 * (1 << 20)


@pytest.mark.parametrize("where", ["diag", "upper"])
def test_non_finite_held_entry_is_refused_by_the_deflated_solve(where):
    h0 = cq.chain(8)
    H = mapped(h0, 0.44)
    (H.diag if where == "diag" else H.upper.data)[5] = np.nan
    with pytest.raises(ValidationError, match="NaN or infinite"):
        cq.extreme_eigenpairs(H, k=2, known=sqrt_peq(h0, 0.44))


def test_half_abs_row_sums_are_the_full_csr_sums_bit_for_bit(rng):
    ragged = sparse.random_array((256, 256), density=0.005, rng=rng, format="csr")
    ragged.data -= 0.5  # both signs, and rows with no entry
    for H in (mapped_chain(13, 0.7), mapped(random_model(rng, 9), 1.3, "metropolis"),
              cq.transverse_field_hamiltonian(cq.chain(12, field_h=0.4), 0.8),
              cq.QuantumHamiltonian(8, ragged + ragged.T)):
        assert np.array_equal(spectral._half_abs_row_sums(H.diag, H.upper),
                              abs(H.matrix) @ np.ones(H.dim))


def test_sweep_row_holds_h_once_per_symmetric_pair():
    # A chain(16) row's peak: H's diagonal and strict upper CSR, held
    # through the solve, plus at most 10 vectors (the Gibbs amplitude, the
    # Lanczos vectors and their temporaries). H's full CSR is never built.
    n = 16
    tracemalloc.start()
    row, = cq.gap_scaling_sweep({"kind": "chain"}, [n], 0.44)
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    assert row.error is None
    assert peak <= held_bytes(mapped_chain(n, 0.44)) + 10 * (1 << n) * 8


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
    for k in (1, 3):
        with pytest.raises(ValidationError, match="k == 2"):
            cq.extreme_eigenpairs(H, k=k, known=sqrt_peq(h0, 1.0))


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


@pytest.mark.parametrize("beta", [0.2, 0.44, 1.0])
def test_heat_bath_chain_sweep_gaps_are_glauber_exact(beta):
    # The periodic heat-bath chain at h=0 relaxes at exactly 1 - tanh 2 beta
    # at every size (Glauber, J. Math. Phys. 4, 294 (1963)): the whole sweep
    # row, c2q plus the deflated Lanczos solve, with no dense solve.
    sizes = list(range(10, 17))
    rows = cq.gap_scaling_sweep({"kind": "chain"}, sizes, beta)
    assert [r.size for r in rows] == sizes
    assert all(r.error is None for r in rows)
    gaps = np.array([r.gap for r in rows])
    assert np.abs(gaps - (1.0 - np.tanh(2.0 * beta))).max() <= 1e-13


def test_sweep_single_row_is_too_short_to_fit():
    rows = cq.gap_scaling_sweep({"kind": "chain"}, [4], 0.5)
    assert len(rows) == 1
    with pytest.raises(ValidationError):
        cq.fit_scaling(rows)


@pytest.mark.parametrize("family, sizes, beta, rule, match", [
    ({"kind": "chain", "J": "x"}, [4], 0.5, "heat-bath", "lattice J must be a number"),
    ({"kind": "grid", "h": None}, [4], 0.5, "heat-bath", "lattice h must be a number"),
    ({"kind": "ladder"}, [4], 0.5, "heat-bath", "unknown lattice kind"),
    ({}, [4], 0.5, "heat-bath", "unknown lattice kind"),
    ("chain", [4], 0.5, "heat-bath", "family must be"),
    ({"kind": "chain"}, [4], float("nan"), "heat-bath", "beta must be finite"),
    ({"kind": "chain"}, [4], -1.0, "heat-bath", "beta must be finite"),
    ({"kind": "chain"}, [4], 0.5, "bogus", "unknown flip rule"),
    ({"kind": "grid"}, [-2, 2], 0.5, "heat-bath", r"sweep sizes must be >= 1, got \[-2, 2\]"),
    ({"kind": "chain"}, [4, 0], 0.5, "heat-bath", r"sweep sizes must be >= 1, got \[4, 0\]"),
], ids=["J-str", "h-null", "kind-unknown", "kind-missing", "not-a-dict", "beta-nan",
        "beta-negative", "rule-unknown", "grid-side-negative", "chain-size-zero"])
def test_sweep_refuses_malformed_family_before_any_row(family, sizes, beta, rule, match):
    # Inside a row the same refusal would become an error row, not a raise.
    with pytest.raises(ValidationError, match=match):
        cq.gap_scaling_sweep(family, sizes, beta, rule)


def test_sweep_family_keys_reach_the_model():
    family = {"kind": "grid", "periodic": False, "J": 0.7, "h": 0.2}
    row = cq.gap_scaling_sweep(family, [3], 0.5)[0]
    H = mapped(cq.grid(3, 3, periodic=False, coupling=0.7, field_h=0.2), 0.5)
    assert row.size == 9
    assert abs(row.gap - np.linalg.eigvalsh(H.matrix.toarray())[1]) <= 1e-10


def test_sweep_records_per_row_failures_and_continues():
    rows = cq.gap_scaling_sweep({"kind": "grid"}, [2, 5, 6], 0.44)
    assert rows[0].error is None
    assert rows[1].error is not None  # 5x5 = 25 spins exceeds the sparse cap
    assert rows[1].method == "error"
    assert np.isnan(rows[1].gap)
    assert rows[2].error is not None  # 6x6 = 36 spins: the model itself is refused
    assert [r.size for r in rows] == [4, 25, 36]  # spin counts, failed rows too


def test_sweep_builds_one_energy_table_per_row(monkeypatch):
    # The map and the Gibbs amplitude of a row share one table.
    sizes, energy_table = [], model.energy_table

    def counting(h0):
        sizes.append(h0.n)
        return energy_table(h0)

    for module in (model, mapping, spectral):
        monkeypatch.setattr(module, "energy_table", counting)
    rows = cq.gap_scaling_sweep({"kind": "chain", "h": 0.1}, [4, 6, 8], 0.44)
    assert all(row.error is None for row in rows)
    assert sizes == [4, 6, 8]


def test_sweep_row_with_wrong_known_vector_is_an_error(monkeypatch):
    monkeypatch.setattr(spectral, "gibbs_from_energies",
                        lambda n, energies, beta: model.gibbs_from_energies(n, energies, 2 * beta))
    row = cq.gap_scaling_sweep({"kind": "chain", "h": 0.3}, [8], 1.0)[0]
    assert row.method == "error"
    assert "not a stationary mode" in row.error


def test_sweep_row_with_unresolved_gap_is_an_error():
    # 3x3 field grid at beta=3: lambda_1 ~ 6e-17 is below double precision;
    # Lanczos returns lambda_1 - lambda_0 ~ 1e-15 with residuals ~ 1e-15,
    # which must not become tau ~ 1e15.
    row = cq.gap_scaling_sweep({"kind": "grid", "h": 0.1}, [3], 3.0)[0]
    assert row.method == "error"
    assert "not resolved" in row.error
    assert np.isnan(row.tau)


def path_laplacian(n):
    """The open path graph's Laplacian on 2^n states: 1 and 2 on the
    diagonal, -1 between neighbours. Every row sums to 0, so the vector 1 is
    its zero mode, and its eigenvalues are 2 (1 - cos(pi k / 2^n))."""
    dim = 1 << n
    degree = np.full(dim, 2.0)
    degree[[0, -1]] = 1.0
    bond = -np.ones(dim - 1)
    return cq.QuantumHamiltonian(n, sparse.diags_array([bond, degree, bond], offsets=[-1, 0, 1],
                                                       format="csr"))


def test_slow_deflated_solve_tests_convergence_sparsely(monkeypatch):
    # Each convergence test solves the whole tridiagonal matrix. Every step
    # is tested up to 256, then steps m // 32 apart; the cap is always tested.
    # The path Laplacian on 2^11 states has its gap 2.35e-6 at the bottom of
    # a dense spectrum, so the deflated solve takes over 2000 Lanczos steps.
    sizes = []
    solve = scipy.linalg.eigh_tridiagonal
    monkeypatch.setattr(scipy.linalg, "eigh_tridiagonal",
                        lambda d, e, **kw: sizes.append(len(d)) or solve(d, e, **kw))
    H, known = path_laplacian(11), np.ones(1 << 11)
    spec = cq.extreme_eigenpairs(H, k=2, known=known)
    assert abs(spec.gap - 2.0 * (1.0 - np.cos(np.pi / 2048))) <= 1e-15
    assert sizes[:256] == list(range(1, 257))
    assert [b - a for a, b in zip(sizes[255:], sizes[256:])] == [m // 32 for m in sizes[255:-1]]
    assert sizes[-1] > 2000 and len(sizes) < 350

    sizes.clear()
    with pytest.raises(cq.ConvergenceError, match="in 300 steps"):
        cq.extreme_eigenpairs(H, k=2, max_iter=300, known=known)
    assert sizes[-1] == 300 and sizes[-2] == 297  # 288 + 288 // 32


def test_sweep_row_of_field_grid_matches_dense_gap():
    # The gap of the 3x3 field grid at beta=1 is 7.04e-6; a start vector
    # with the grid's symmetries returns it as lambda_0.
    row = cq.gap_scaling_sweep({"kind": "grid", "h": 0.1}, [3], 1.0)[0]
    h0 = cq.grid(3, 3, field_h=0.1)
    H = cq.classical_to_quantum(h0, 1.0)
    lam1 = np.linalg.eigvalsh(H.matrix.toarray())[1]
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
    for sizes in [(0, 4, 8), (-2, 4, 8), (4, 4, 4)]:  # size < 1, one distinct size
        with pytest.raises(ValidationError, match="size"):
            cq.fit_scaling([(N, float(N) ** 2 + 1.0) for N in sizes])


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
    path.write_text("size,tau\n4,nan\n6,-1\n8,inf\n")
    assert read_size_tau_csv(path) == [(6, -1.0), (8, float("inf"))]


# ---------------------------------------------------------- spectral invariants

def test_relaxation_time_consistent_with_gap():
    H = mapped_chain(5, 0.8)
    spec = cq.dense_spectrum(H)
    tau = cq.relaxation_time(spec)
    assert abs(tau * spec.eigenvalues[1] - 1.0) < 1e-12
