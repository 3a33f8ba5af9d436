import numpy as np
import pytest
import scipy.linalg
from scipy import sparse

import cqmap as cq
from cqmap.dynamics import GeneratorMatrix
from cqmap.errors import (
    DegenerateGroundStateError,
    MappingPreconditionError,
    NonStoquasticError,
    ReducibleOperatorError,
    ValidationError,
)
from cqmap.mapping import read_hamiltonian, write_hamiltonian
from cqmap.model import dense_coefficients

from conftest import naive_energy_table, random_model


def half_i_minus_sx():
    """(1/2)(I - sigma^x): the mapped free spin."""
    m = sparse.csr_array(np.array([[0.5, -0.5], [-0.5, 0.5]]))
    return cq.QuantumHamiltonian(1, m)


# Two decoupled 2x2 blocks: off-diagonal edges, but two components.
TWO_BLOCKS = np.array(
    [
        [0.5, -0.5, 0.0, 0.0],
        [-0.5, 0.5, 0.0, 0.0],
        [0.0, 0.0, 0.5, -0.5],
        [0.0, 0.0, -0.5, 0.5],
    ]
)


def tfim_dense_oracle(n, gamma, coupling=1.0, periodic=True):
    """Transverse-field chain built independently via Kronecker products."""
    sx = np.array([[0.0, 1.0], [1.0, 0.0]])
    sz = np.array([[1.0, 0.0], [0.0, -1.0]])
    eye = np.eye(2)

    def site_op(op, j):
        # kron ordering chosen so site j maps to configuration bit j
        out = np.array([[1.0]])
        for k in range(n):
            out = np.kron(op if k == j else eye, out)
        return out

    H = np.zeros((2**n, 2**n))
    bonds = range(n) if periodic else range(n - 1)
    for j in bonds:
        H -= coupling * site_op(sz, j) @ site_op(sz, (j + 1) % n)
    for j in range(n):
        H -= gamma * site_op(sx, j)
    return H


# ----------------------------------------------------------- classical_to_quantum

def test_free_spin_maps_to_half_i_minus_sx():
    m1 = cq.ClassicalHamiltonian(1, {})
    W = cq.build_generator(m1, 1.0)
    H = cq.classical_to_quantum(m1, 1.0, W)
    assert np.abs(H.matrix.toarray() - [[0.5, -0.5], [-0.5, 0.5]]).max() < 1e-15
    vals = np.linalg.eigvalsh(H.matrix.toarray())
    assert np.abs(vals - [0.0, 1.0]).max() < 1e-14


def test_chain_offdiagonals_take_two_closed_form_values():
    beta = 1.0
    h0 = cq.chain(4)
    H = cq.classical_to_quantum(h0, beta, cq.build_generator(h0, beta))
    coo = H.matrix.tocoo()
    off = coo.data[coo.row != coo.col]
    aligned = -1.0 / (2.0 * np.cosh(2.0 * beta))
    anti = -0.5
    closest = np.minimum(np.abs(off - aligned), np.abs(off - anti))
    assert closest.max() < 1e-12
    assert abs(aligned - (-0.13290111441703986)) < 1e-15


def test_mapped_spectrum_equals_generator_spectrum(rng):
    h0 = random_model(rng, 3)
    W = cq.build_generator(h0, 0.7, "metropolis")
    H = cq.classical_to_quantum(h0, 0.7, W)
    hvals = np.sort(np.linalg.eigvalsh(H.matrix.toarray()))
    wvals = np.sort(scipy.linalg.eigvals(-W.matrix.toarray()).real)
    assert np.abs(hvals - wvals).max() < 1e-8
    assert hvals[0] > -1e-10
    # single-flip dynamics is irreducible: exactly one stationary mode
    assert np.sum(np.abs(hvals) <= 1e-10) == 1


def test_mapped_matrix_is_symmetric(rng):
    for n, beta, rule in [(4, 0.3, "heat-bath"), (5, 1.2, "metropolis")]:
        h0 = random_model(rng, n)
        H = cq.classical_to_quantum(h0, beta, cq.build_generator(h0, beta, rule))
        A = H.matrix.toarray()
        assert np.abs(A - A.T).max() <= 1e-12


def test_detailed_balance_precondition_enforced():
    h0 = cq.chain(3)
    W_wrong_temp = cq.build_generator(h0, 0.5)
    with pytest.raises(MappingPreconditionError):
        cq.classical_to_quantum(h0, 1.0, W_wrong_temp)


def test_c2q_rejects_generator_off_balance_in_a_rare_state():
    # The flip out of state 5 (E=4, Gibbs weight ~1e-5 at beta=3) is 1e-6 too
    # fast. The flux residual stays at 1.5e-12, but the mapped H is
    # nonsymmetric at 6e-10, so c2q itself must refuse it.
    h0, beta = cq.chain(4), 3.0
    A = cq.build_generator(h0, beta).matrix.toarray()
    delta = A[4, 5] * 1e-6
    A[4, 5] += delta
    A[5, 5] -= delta
    W = GeneratorMatrix(4, sparse.csr_array(A), "heat-bath", beta)
    report = cq.verify_dynamics(W, cq.gibbs_distribution(h0, beta))
    assert report.detailed_balance_residual < 1e-10
    with pytest.raises(MappingPreconditionError, match="nonsymmetric"):
        cq.classical_to_quantum(h0, beta, W)


@pytest.mark.parametrize("rule", ["heat-bath", "metropolis"])
def test_c2q_matches_dense_similarity(rng, rule):
    h0, beta = random_model(rng, 4), 0.8
    W = cq.build_generator(h0, beta, rule)
    H = cq.classical_to_quantum(h0, beta, W)
    a = np.exp(0.5 * beta * naive_energy_table(h0))
    expected = -np.diag(a) @ W.matrix.toarray() @ np.diag(1.0 / a)
    assert np.all(np.abs(H.matrix.toarray() - expected) <= 1e-13 * np.abs(expected))
    assert np.array_equal(H.matrix.indptr, W.matrix.indptr)
    assert np.array_equal(H.matrix.indices, W.matrix.indices)


@pytest.mark.parametrize("beta", [float("nan"), float("inf"), -1.0])
def test_c2q_rejects_invalid_beta(beta):
    h0 = cq.chain(3)
    with pytest.raises(ValidationError, match="beta must be finite"):
        cq.classical_to_quantum(h0, beta, cq.build_generator(h0, 1.0))


def test_c2q_dimension_mismatch():
    with pytest.raises(ValidationError):
        cq.classical_to_quantum(cq.chain(3), 1.0, cq.build_generator(cq.chain(4), 1.0))


# ------------------------------------------------------ heat_bath_chain_closed_form

def test_closed_form_sx_coefficients_at_beta_one():
    H = cq.heat_bath_chain_closed_form(4, 1.0).matrix.toarray()
    # all-up column: every neighbour pair aligned -> cosh^2 - sinh^2 = 1
    aligned = H[1, 0]
    assert abs(aligned - (-1.0 / (2.0 * np.cosh(2.0)))) < 1e-15
    # domain-wall configuration 0b0011: site 0 sees sigma_3 = +1, sigma_1 = -1
    anti = H[0b0011 ^ 1, 0b0011]
    assert abs(anti - (-0.5)) < 1e-15


def test_closed_form_beta_zero_flip_terms():
    H = cq.heat_bath_chain_closed_form(5, 0.0).matrix.toarray()
    off = H[~np.eye(32, dtype=bool)]
    nonzero = off[off != 0.0]
    assert np.abs(nonzero - (-0.5)).max() < 1e-15


def test_closed_form_needs_three_sites():
    with pytest.raises(ValidationError):
        cq.heat_bath_chain_closed_form(2, 1.0)


def test_closed_form_offdiagonal_matches_mapped_generator():
    for n in (4, 5):
        for beta in (0.3, 1.0):
            h0 = cq.chain(n)
            mapped = cq.classical_to_quantum(h0, beta, cq.build_generator(h0, beta))
            closed = cq.heat_bath_chain_closed_form(n, beta)
            diff = np.abs(mapped.matrix.toarray() - closed.matrix.toarray())
            np.fill_diagonal(diff, 0.0)
            assert diff.max() <= 1e-12


def test_mapped_diagonal_follows_derived_form_not_printed_form():
    # the mapped diagonal is n/2 - (tanh 2b / 2) sum sz sz, which differs
    # from the closed form's -(1/2) sum sz sz by a constant and a tanh factor
    n, beta = 4, 1.0
    h0 = cq.chain(n)
    mapped = cq.classical_to_quantum(h0, beta, cq.build_generator(h0, beta))
    bond_sum = -cq.energy_table(h0).values  # sum sz sz = -E for the pure chain
    derived = n / 2.0 - np.tanh(2.0 * beta) / 2.0 * bond_sum
    printed = -0.5 * bond_sum
    assert np.abs(mapped.matrix.diagonal() - derived).max() <= 1e-12
    assert np.abs(mapped.matrix.diagonal() - printed).max() > 0.1


# ------------------------------------------------------------------ ground_state

def test_ground_state_of_free_spin_map():
    gs = cq.ground_state(half_i_minus_sx())
    assert abs(gs.value) < 1e-14
    assert np.abs(gs.vector - 1.0 / np.sqrt(2.0)).max() < 1e-12
    assert abs(gs.positivity_margin - 1.0) < 1e-12


def test_ground_state_of_mapped_chain_is_gibbs_amplitude():
    beta = 1.0
    h0 = cq.chain(4)
    H = cq.classical_to_quantum(h0, beta, cq.build_generator(h0, beta))
    gs = cq.ground_state(H)
    expected = np.exp(-beta * cq.energy_table(h0).values / 2.0)
    expected /= np.linalg.norm(expected)
    assert abs(gs.value) < 1e-10
    assert np.abs(gs.vector - expected).max() < 1e-8


def test_ground_state_degeneracy_rejected():
    H = cq.QuantumHamiltonian(2, sparse.csr_array(TWO_BLOCKS))
    with pytest.raises(DegenerateGroundStateError):
        cq.ground_state(H)


# ---------------------------------------------------------- quantum_to_classical

def test_q2c_uniform_ground_state_recovers_two_state_generator():
    result = cq.quantum_to_classical(half_i_minus_sx())
    nonconst = {m: c for m, c in result.model.coeffs.items()
                if m != 0 and abs(c) > 1e-12}
    assert nonconst == {}
    expected_w = np.array([[-0.5, 0.5], [0.5, -0.5]])
    assert np.abs(result.generator.matrix.toarray() - expected_w).max() < 1e-12


def test_q2c_tfim_two_sites_pair_coupling_only():
    h0 = cq.chain(2, periodic=False)
    H = cq.transverse_field_hamiltonian(h0, 1.0)
    result = cq.quantum_to_classical(H)
    coeffs = dense_coefficients(result.model)
    # spin-flip symmetry kills the fields; the pair coupling survives
    assert abs(coeffs[0b01]) < 1e-10
    assert abs(coeffs[0b10]) < 1e-10
    assert abs(coeffs[0b11] - np.log((np.sqrt(5.0) - 1.0) / 2.0)) < 1e-12
    # independent oracle: dense diagonalization + explicit character sum
    dense = tfim_dense_oracle(2, 1.0, periodic=False)
    _, vecs = np.linalg.eigh(dense)
    phi = np.abs(vecs[:, 0])
    e_rec = -2.0 * np.log(phi)
    chars = np.array([1.0, -1.0, -1.0, 1.0])
    assert abs(coeffs[0b11] - (e_rec @ chars) / 4.0) < 1e-10


def test_q2c_tfim_chain4_grows_fourth_order_coupling():
    h0 = cq.chain(4)
    H = cq.transverse_field_hamiltonian(h0, 1.0)
    result = cq.quantum_to_classical(H)
    coeffs = dense_coefficients(result.model)
    assert abs(coeffs[0b1111]) > 1e-6
    # dense 16x16 oracle
    dense = tfim_dense_oracle(4, 1.0)
    _, vecs = np.linalg.eigh(dense)
    phi = np.abs(vecs[:, 0])
    e_rec = -2.0 * np.log(phi)
    idx = np.arange(16)
    chars = 1.0 - 2.0 * (np.bitwise_count(idx & 0b1111) & 1)
    assert abs(coeffs[0b1111] - (e_rec @ chars) / 16.0) < 1e-10
    profile = cq.interaction_profile(result.model.coeffs)
    assert 4 in profile.orders


@pytest.mark.parametrize("n, periodic", [(4, True), (3, False)])
def test_transverse_field_hamiltonian_matches_kronecker_oracle(n, periodic):
    H = cq.transverse_field_hamiltonian(cq.chain(n, periodic=periodic), 0.7)
    assert np.array_equal(H.matrix.toarray(), tfim_dense_oracle(n, 0.7, periodic=periodic))


def test_q2c_generator_is_valid_dynamics(rng):
    h0 = random_model(rng, 3)
    H = cq.transverse_field_hamiltonian(h0, 0.8)
    result = cq.quantum_to_classical(H)
    W = result.generator.matrix
    assert np.abs(np.asarray(W.sum(axis=0))).max() < 1e-10
    coo = W.tocoo()
    off = coo.row != coo.col
    assert coo.data[off].min() >= -1e-12
    phi = cq.ground_state(H).vector
    stat = phi**2
    assert np.abs(W @ stat).max() < 1e-9
    flux = W.toarray() * stat[None, :]
    assert np.abs(flux - flux.T).max() < 1e-9 * np.abs(flux).max()


def test_q2c_generator_matches_dense_similarity():
    H = cq.transverse_field_hamiltonian(cq.chain(4), 0.8)
    vals, vecs = scipy.linalg.eigh(H.matrix.toarray())
    phi = np.abs(vecs[:, 0])
    shifted = H.matrix.toarray() - vals[0] * np.eye(16)
    expected = -np.diag(phi) @ shifted @ np.diag(1.0 / phi)
    W = cq.quantum_to_classical(H).generator.matrix
    assert np.abs(W.toarray() - expected).max() <= 1e-12 * np.abs(expected).max()


@pytest.mark.parametrize("entries, expected", [
    # No stored diagonal: the shift puts one on every row.
    ([(0, 1, -1.0), (1, 0, -1.0)], [[-1.0, 1.0], [1.0, -1.0]]),
    # lambda0 rounds to H[0, 0], so (H - lambda0)[0, 0] is exactly 0.
    ([(0, 0, 1.0), (0, 1, -1e-9), (1, 0, -1e-9), (1, 1, 2.0)],
     [[0.0, 1.0], [1e-18, -1.0]]),
])
def test_q2c_generator_stores_every_diagonal_entry(entries, expected):
    rows, cols, vals = zip(*entries)
    matrix = sparse.csr_array((vals, (rows, cols)), shape=(2, 2))
    W = cq.quantum_to_classical(cq.QuantumHamiltonian(1, matrix)).generator.matrix
    assert W.nnz == 4
    assert np.allclose(W.toarray(), expected, rtol=1e-9, atol=1e-15)


def test_q2c_rejects_positive_offdiagonal():
    bad = np.array([[0.0, 0.5], [0.5, 0.0]])
    with pytest.raises(NonStoquasticError, match="non-stoquastic"):
        cq.quantum_to_classical(cq.QuantumHamiltonian(1, sparse.csr_array(bad)))


def test_q2c_rejects_reducible_matrix():
    for disconnected, parts in ((np.diag([1.0, 2.0, 3.0, 4.0]), 4), (TWO_BLOCKS, 2)):
        H = cq.QuantumHamiltonian(2, sparse.csr_array(disconnected))
        with pytest.raises(ReducibleOperatorError, match=f"has {parts} components"):
            cq.quantum_to_classical(H)


def test_q2c_rejects_nonsymmetric_matrix():
    # Stoquastic and connected, but its lowest eigenvalue (-0.1708) is not
    # what the symmetric ground-state solvers would return.
    bad = np.array([[0.0, -1.0], [-0.2, 1.0]])
    with pytest.raises(MappingPreconditionError, match="nonsymmetric"):
        cq.quantum_to_classical(cq.QuantumHamiltonian(1, sparse.csr_array(bad)))
    # A NaN entry makes the asymmetry NaN, which the gate must not pass.
    nan = np.array([[np.nan, -1.0], [-1.0, 0.0]])
    with pytest.raises(MappingPreconditionError, match="nonsymmetric"):
        cq.quantum_to_classical(cq.QuantumHamiltonian(1, sparse.csr_array(nan)))


def test_q2c_shift_applied_internally():
    shifted = half_i_minus_sx().matrix + 3.0 * sparse.eye_array(2)
    result = cq.quantum_to_classical(cq.QuantumHamiltonian(1, sparse.csr_array(shifted)))
    assert abs(result.shift - 3.0) < 1e-12
    expected_w = np.array([[-0.5, 0.5], [0.5, -0.5]])
    assert np.abs(result.generator.matrix.toarray() - expected_w).max() < 1e-12


# --------------------------------------------------------------- roundtrip_check

def test_roundtrip_chain():
    report = cq.roundtrip_check(cq.chain(4), 1.0, "heat-bath")
    assert report.coefficient_residual <= 1e-8
    assert report.generator_residual <= 1e-8


def test_roundtrip_single_spin_tight():
    h0 = cq.build_model({"n": 1, "terms": [{"sites": [0], "h": 0.5}]})
    report = cq.roundtrip_check(h0, 2.0, "heat-bath")
    assert report.coefficient_residual <= 1e-10
    assert report.generator_residual <= 1e-10


def test_roundtrip_beta_zero_recovers_flat_energy():
    report = cq.roundtrip_check(cq.chain(4), 0.0, "heat-bath")
    assert report.coefficient_residual <= 1e-10


def test_roundtrip_metropolis(rng):
    h0 = random_model(rng, 4)
    report = cq.roundtrip_check(h0, 0.6, "metropolis")
    assert report.coefficient_residual <= 1e-8
    assert report.generator_residual <= 1e-8


# ------------------------------------------------------------------------ I/O

def test_hamiltonian_coordinate_roundtrip(tmp_path):
    h0 = cq.chain(3)
    H = cq.classical_to_quantum(h0, 0.9, cq.build_generator(h0, 0.9))
    path = tmp_path / "h.txt"
    write_hamiltonian(H, path)
    back = read_hamiltonian(path)
    assert back.n == 3
    assert np.abs((back.matrix - H.matrix).toarray()).max() == 0.0
