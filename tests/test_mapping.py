import decimal
import tracemalloc

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import sparse
from scipy.special import expit

import cqmap as cq
from cqmap import mapping
from cqmap.dynamics import GeneratorMatrix, flip_delta, flip_rates, relative_asymmetry
from cqmap.errors import (
    DegenerateGroundStateError,
    MappingPreconditionError,
    NonStoquasticError,
    ReducibleOperatorError,
    ResourceLimitError,
    ValidationError,
)
from cqmap.mapping import read_hamiltonian, write_hamiltonian
from cqmap.model import dense_coefficients, grid
from cqmap.spectral import gershgorin_bound

from conftest import coefficient_dict, held_bytes, naive_energy_table, random_model


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
    m1 = cq.ClassicalHamiltonian(1, [], [])
    H = cq.classical_to_quantum(m1, 1.0)
    assert np.abs(H.matrix.toarray() - [[0.5, -0.5], [-0.5, 0.5]]).max() < 1e-15
    vals = np.linalg.eigvalsh(H.matrix.toarray())
    assert np.abs(vals - [0.0, 1.0]).max() < 1e-14


def test_chain_offdiagonals_take_two_closed_form_values():
    beta = 1.0
    h0 = cq.chain(4)
    H = cq.classical_to_quantum(h0, beta)
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
    H = cq.classical_to_quantum(h0, 0.7, "metropolis")
    hvals = np.sort(np.linalg.eigvalsh(H.matrix.toarray()))
    wvals = np.sort(scipy.linalg.eigvals(-W.matrix.toarray()).real)
    assert np.abs(hvals - wvals).max() < 1e-8
    assert hvals[0] > -1e-10
    # single-flip dynamics is irreducible: exactly one stationary mode
    assert np.sum(np.abs(hvals) <= 1e-10) == 1


def test_mapped_matrix_is_symmetric(rng):
    for n, beta, rule in [(4, 0.3, "heat-bath"), (5, 1.2, "metropolis")]:
        h0 = random_model(rng, n)
        A = cq.classical_to_quantum(h0, beta, rule).matrix.toarray()
        assert np.array_equal(A, A.T)


def test_c2q_of_a_flip_generator_needs_neither_csr_kernel(monkeypatch):
    def refuse(*args):
        raise AssertionError("general CSR path taken")

    monkeypatch.setattr(mapping, "_conjugate", refuse)
    monkeypatch.setattr(mapping, "relative_asymmetry", refuse)
    h0 = cq.chain(5, field_h=0.2)
    H = cq.classical_to_quantum(h0, 0.6)
    assert H.matrix.nnz == 6 * 32


@pytest.mark.parametrize("build", [
    lambda n: cq.classical_to_quantum(cq.chain(n, field_h=0.2), 0.44),
    lambda n: cq.transverse_field_hamiltonian(cq.chain(n), 0.7),
    lambda n: cq.heat_bath_chain_closed_form(n, 0.44),
], ids=["c2q", "transverse_field", "closed_form"])
def test_flip_built_hamiltonians_hold_each_symmetric_pair_once(build):
    # 6n + 12 bytes per state: an 8-byte diagonal, n/2 stored flips of 8 + 4
    # bytes and a 4-byte row pointer, where the full CSR takes 12(n + 1) + 4.
    n = 13
    H = build(n)
    assert H.dim == 1 << n and H.diag.shape == (1 << n,)
    assert H.upper.nnz == n << (n - 1)
    assert held_bytes(H) == (6 * n + 12) * (1 << n) + 4
    assert sparse.triu(H.upper, 1).nnz == H.upper.nnz  # strictly upper


def test_c2q_allocates_little_beyond_its_result():
    # No generator and no n x 2^n flip array: each block of rows is computed
    # from the energies, and only the diagonal and strict upper triangle are
    # kept, so beside those the map holds the energies, energy_table's
    # temporaries and flip_matrix's block-sized arrays, a bound that does not
    # grow with n.
    n, beta = 16, 0.44
    h0 = cq.chain(n)
    tracemalloc.start()
    H = cq.classical_to_quantum(h0, beta)
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    assert peak <= held_bytes(H) + 6 * (1 << n) * 8


def array_form_c2q(h0, beta, rule):
    """The mapped H from (n, 2^n) flip arrays: flip_delta, the rule's
    flip_rates summed in spin order on the diagonal, and -u / (1 + u^2) or
    -u with u = exp(-beta |dE| / 2) at (s ^ (1 << j), s)."""
    energies = cq.energy_table(h0)
    diag = np.zeros_like(energies)
    off = np.empty((h0.n, energies.size))
    for j, x in enumerate(off):
        flip_delta(energies, j, x)
        diag += flip_rates(x, beta, rule)
        u = np.exp(np.abs(x) * (-0.5 * beta))
        x[...] = -u / (1.0 + u * u) if rule == "heat-bath" else -u
    return GeneratorMatrix(rule, beta, diag, off).matrix


@pytest.mark.parametrize("rule", ["heat-bath", "metropolis"])
@pytest.mark.parametrize("beta", [0.44, 3.0])
@pytest.mark.parametrize("h0", [
    *(cq.chain(n) for n in (11, 12, 13, 14)),
    *(random_model(np.random.default_rng(n), n) for n in (11, 13)),
    grid(3, 4, field_h=0.1),
], ids=["chain11", "chain12", "chain13", "chain14", "random11", "random13", "grid3x4"])
def test_c2q_blocks_are_the_array_form_bit_for_bit(h0, beta, rule):
    # Up to 12 spins H is one block of 4096 rows; from 13 on, the spins
    # j >= 12 read their flipped energies from the partner block. H holds
    # the oracle's diagonal and strict upper triangle, and its full CSR,
    # built on read, is the oracle's.
    H = cq.classical_to_quantum(h0, beta, rule)
    oracle = array_form_c2q(h0, beta, rule)
    triu = sparse.triu(oracle, 1, format="csr")
    assert np.array_equal(H.diag, oracle.diagonal())
    matrix = H.matrix
    for name in ("indptr", "indices", "data"):
        assert getattr(H.upper, name).dtype == getattr(triu, name).dtype
        assert np.array_equal(getattr(H.upper, name), getattr(triu, name))
        assert getattr(matrix, name).dtype == getattr(oracle, name).dtype
        assert np.array_equal(getattr(matrix, name), getattr(oracle, name))


def dense_mapped_oracle(h0, beta, rule):
    """-diag(a) W diag(a)^-1 with a = exp(beta E / 2) and W built densely from
    the definition on the naive energy table: rate 1/(1 + exp(x)) (expit, no
    cancellation) or min(1, exp(-x)) at x = beta dE."""
    energies = naive_energy_table(h0)
    dim = energies.size
    W = np.zeros((dim, dim))
    for j in range(h0.n):
        s = np.arange(dim)
        x = beta * (energies[s ^ (1 << j)] - energies)
        W[s ^ (1 << j), s] = expit(-x) if rule == "heat-bath" else np.exp(np.minimum(0.0, -x))
    W -= np.diag(W.sum(axis=0))
    a = np.exp(0.5 * beta * energies)
    return -(a[:, None] * W) / a[None, :]


@settings(max_examples=80, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 6),
       rule=st.sampled_from(["heat-bath", "metropolis"]),
       beta=st.floats(0.0, 3.0))
def test_c2q_is_the_closed_form_on_random_models(seed, n, rule, beta):
    # H is exactly symmetric, its diagonal is the generator's bit for bit,
    # and its flip entries are the dense similarity of W to roundoff.
    h0 = random_model(np.random.default_rng(seed), n)
    H = cq.classical_to_quantum(h0, beta, rule)
    assert relative_asymmetry(H.matrix) == 0.0
    assert np.array_equal(H.matrix.diagonal(), -cq.build_generator(h0, beta, rule).diag)
    A, expected = H.matrix.toarray(), dense_mapped_oracle(h0, beta, rule)
    off = ~np.eye(1 << n, dtype=bool)
    assert np.all(np.abs(A - expected)[off] <= 1e-13 * np.abs(expected)[off])


@pytest.mark.parametrize("rule", ["heat-bath", "metropolis"])
def test_c2q_matches_dense_similarity(rng, rule):
    h0, beta = random_model(rng, 4), 0.8
    W = cq.build_generator(h0, beta, rule)
    H = cq.classical_to_quantum(h0, beta, rule)
    a = np.exp(0.5 * beta * naive_energy_table(h0))
    expected = -np.diag(a) @ W.matrix.toarray() @ np.diag(1.0 / a)
    assert np.all(np.abs(H.matrix.toarray() - expected) <= 1e-13 * np.abs(expected))
    assert np.array_equal(H.matrix.indptr, W.matrix.indptr)
    assert np.array_equal(H.matrix.indices, W.matrix.indices)


@pytest.mark.parametrize("rule", ["heat-bath", "metropolis"])
def test_c2q_entries_match_a_50_digit_oracle(rule):
    # 2x5 grid, h=0.1, beta=3: x = beta dE reaches 24.6, where heat-bath
    # rates made through tanh lose about 1e-6 of their value. The closed form
    # has no cancellation, so each flip entry keeps full precision. The
    # diagonal sums the generator's rates: exact for Metropolis, within an
    # absolute roundoff of the largest entry for heat-bath.
    h0, beta = cq.grid(2, 5, field_h=0.1), 3.0
    decimal.getcontext().prec = 50
    coeffs = {mask: decimal.Decimal(c) for mask, c in coefficient_dict(h0).items()}
    energies = [sum((-c if bin(mask & s).count("1") % 2 else c) for mask, c in coeffs.items())
                for s in range(1 << h0.n)]
    b, half, one = decimal.Decimal(beta), decimal.Decimal("0.5"), decimal.Decimal(1)
    diag = [decimal.Decimal(0)] * len(energies)
    off = {}
    for s, e in enumerate(energies):
        for j in range(h0.n):
            x = b * (energies[s ^ (1 << j)] - e)
            u = (-abs(x) * half).exp()
            off[s ^ (1 << j), s] = -u / (one + u * u) if rule == "heat-bath" else -u
            diag[s] += one / (one + x.exp()) if rule == "heat-bath" else min(one, (-x).exp())
    coo = cq.classical_to_quantum(h0, beta, rule).matrix.tocoo()
    flips = coo.row != coo.col
    exact = np.array([float(off[r, c]) for r, c in zip(coo.row[flips], coo.col[flips])])
    assert np.all(np.abs(coo.data[flips] - exact) <= 1e-14 * np.abs(exact))
    exact_diag = np.array([float(d) for d in diag])
    got = coo.data[~flips][np.argsort(coo.row[~flips])]
    bound = 1e-14 * (np.abs(exact_diag) if rule == "metropolis" else np.abs(exact_diag).max())
    assert np.all(np.abs(got - exact_diag) <= bound)


@pytest.mark.parametrize("beta", [float("nan"), float("inf"), -1.0])
def test_c2q_rejects_invalid_beta(beta):
    with pytest.raises(ValidationError, match="beta must be finite"):
        cq.classical_to_quantum(cq.chain(3), beta)


def test_c2q_refuses_an_unknown_rule_and_too_many_spins():
    with pytest.raises(ValidationError, match="unknown flip rule"):
        cq.classical_to_quantum(cq.chain(3), 1.0, "kawasaki")
    with pytest.raises(ResourceLimitError, match="25-spin|24-spin"):
        cq.classical_to_quantum(cq.ClassicalHamiltonian(25, [1], [1.0]), 1.0)


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
            mapped = cq.classical_to_quantum(h0, beta)
            closed = cq.heat_bath_chain_closed_form(n, beta)
            diff = np.abs(mapped.matrix.toarray() - closed.matrix.toarray())
            np.fill_diagonal(diff, 0.0)
            assert diff.max() <= 1e-12


def test_closed_form_allocates_little_beyond_its_result():
    # Each block of rows is computed from its own spins: no n x 2^n sz,
    # off or rolled copies, so beside H's halves only block-sized arrays.
    n = 17
    tracemalloc.start()
    H = cq.heat_bath_chain_closed_form(n, 0.44)
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    assert peak <= held_bytes(H) + 4 * (1 << n) * 8


def test_mapped_diagonal_follows_derived_form_not_printed_form():
    # the mapped diagonal is n/2 - (tanh 2b / 2) sum sz sz, which differs
    # from the closed form's -(1/2) sum sz sz by a constant and a tanh factor
    n, beta = 4, 1.0
    h0 = cq.chain(n)
    mapped = cq.classical_to_quantum(h0, beta)
    bond_sum = -cq.energy_table(h0)  # sum sz sz = -E for the pure chain
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
    H = cq.classical_to_quantum(h0, beta)
    gs = cq.ground_state(H)
    expected = np.exp(-beta * cq.energy_table(h0) / 2.0)
    expected /= np.linalg.norm(expected)
    assert abs(gs.value) < 1e-10
    assert np.abs(gs.vector - expected).max() < 1e-8


def test_ground_state_degeneracy_rejected():
    # At Gamma=0.1 the two lowest levels of the transverse-field chain(10)
    # are 3.7e-11 apart, far below 1e-10 times the width; the Krylov solve
    # must still see both.
    for H in (cq.QuantumHamiltonian(2, sparse.csr_array(TWO_BLOCKS)),
              cq.transverse_field_hamiltonian(cq.chain(10), 0.1)):
        with pytest.raises(DegenerateGroundStateError):
            cq.ground_state(H)


def random_stoquastic(rng, n):
    """Dense symmetric matrix with negative off-diagonals (irreducible)."""
    dim = 1 << n
    off = -rng.random((dim, dim))
    dense = (off + off.T) / 2.0
    np.fill_diagonal(dense, rng.normal(size=dim))
    return cq.QuantumHamiltonian(n, sparse.csr_array(dense))


def perron_oracle(dense):
    """Full np.linalg.eigh: all eigenvalues and the positive ground vector."""
    vals, vecs = np.linalg.eigh(dense)
    vec = vecs[:, 0] * np.sign(vecs[np.argmax(np.abs(vecs[:, 0])), 0])
    return vals, vec


@pytest.mark.parametrize("case", ["random-8", "tf-chain-6"])
def test_dense_ground_state_matches_full_eigh_oracle(rng, case):
    if case == "random-8":
        H = random_stoquastic(rng, 8)
    else:
        H = cq.transverse_field_hamiltonian(cq.chain(6), 1.0)
    vals, vec = perron_oracle(H.matrix.toarray())
    gs = cq.ground_state(H)
    assert abs(gs.value - vals[0]) <= 1e-12 * abs(vals[0])
    assert np.abs(gs.vector - vec).max() <= 1e-12


@pytest.mark.parametrize("case", ["random-8", "tf-chain-8", "tf-chain-11"])
def test_dense_and_krylov_ground_states_agree(rng, case):
    if case == "random-8":
        H = random_stoquastic(rng, 8)
    else:
        n = {"tf-chain-8": 8, "tf-chain-11": 11}[case]
        H = cq.transverse_field_hamiltonian(cq.chain(n), 1.0)
    vals, vec = perron_oracle(H.matrix.toarray())
    krylov = cq.ground_state(H)
    assert krylov.value == pytest.approx(vals[0], rel=1e-12)
    assert np.abs(krylov.vector - vec).max() <= 1e-10


def test_ground_state_degeneracy_width_is_gershgorin_bound():
    # State 0 alone at energy 0; a three-state star holds lambda_1 = gap.
    # The star's top eigenvalue is c + b sqrt2, its Gershgorin bound c + 2b.
    b = 10.0
    width = 20.0 + b * np.sqrt(2.0)
    for factor, degenerate in [(0.99, True), (1.01, False)]:
        gap = factor * mapping.DEGENERACY_RTOL * width
        c = gap + b * np.sqrt(2.0)
        dense = np.zeros((4, 4))
        dense[1:, 1:] = [[c, -b, -b], [-b, c, 0.0], [-b, 0.0, c]]
        H = cq.QuantumHamiltonian(2, sparse.csr_array(dense))
        assert gershgorin_bound(H) == pytest.approx(width + gap, rel=1e-15)
        if degenerate:
            with pytest.raises(DegenerateGroundStateError):
                cq.ground_state(H)
        else:
            assert abs(cq.ground_state(H).value) <= 1e-12


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("branch", ["dense", "krylov"])
def test_ground_state_rejects_non_finite_entry(branch, bad):
    # chain(4) has 16 states (dense solve), chain(6) has 64 (ARPACK).
    # H.matrix is built from H's held (diag, upper) on every read.
    H = cq.transverse_field_hamiltonian(cq.chain(4 if branch == "dense" else 6), 1.0)
    H.upper.data[3] = bad
    with pytest.raises(ValidationError, match="NaN or infinite"):
        cq.ground_state(H)


@pytest.mark.parametrize("inverse, reads", [(cq.ground_state, 0), (cq.quantum_to_classical, 1)],
                         ids=["ground_state", "quantum_to_classical"])
def test_ground_state_builds_a_flip_hamiltonians_csr_once(monkeypatch, inverse, reads):
    # H.matrix builds H's full CSR on each read. The solver and the
    # Gershgorin width read H's halves, so ground_state reads none; q2c
    # reads one, H - lambda0 I, for W'.
    H = cq.transverse_field_hamiltonian(cq.chain(7, field_h=0.1), 0.8)
    calls, full = [], mapping.QuantumHamiltonian.matrix
    monkeypatch.setattr(mapping.QuantumHamiltonian, "matrix",
                        property(lambda H: calls.append(1) or full.fget(H)))
    inverse(H)
    assert len(calls) == reads


# ---------------------------------------------------------- quantum_to_classical

def test_q2c_uniform_ground_state_recovers_two_state_generator():
    result = cq.quantum_to_classical(half_i_minus_sx())
    nonconst = {m: c for m, c in coefficient_dict(result.model).items()
                if m != 0 and abs(c) > 1e-12}
    assert nonconst == {}
    expected_w = np.array([[-0.5, 0.5], [0.5, -0.5]])
    assert np.abs(result.generator.toarray() - expected_w).max() < 1e-12


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
    profile = cq.interaction_profile(result.model)
    assert 4 in profile.orders


def test_q2c_model_holds_every_mask_at_16_bytes_per_state():
    # The recovered energy has all 2^n couplings: the masks are 0 .. 2^n - 1
    # and the values are the Walsh transform itself, with no per-entry copy.
    n = 12
    h0 = cq.chain(n, field_h=0.1)
    model = cq.quantum_to_classical(cq.classical_to_quantum(h0, 0.44)).model
    assert np.array_equal(model.masks, np.arange(1 << n))
    assert model.masks.nbytes + model.values.nbytes == 16 << n
    expected = 0.44 * dense_coefficients(h0)
    assert np.abs(model.values[1:] - expected[1:]).max() < 1e-12


@pytest.mark.parametrize("n, periodic", [(4, True), (3, False)])
def test_transverse_field_hamiltonian_matches_kronecker_oracle(n, periodic):
    H = cq.transverse_field_hamiltonian(cq.chain(n, periodic=periodic), 0.7)
    assert np.array_equal(H.matrix.toarray(), tfim_dense_oracle(n, 0.7, periodic=periodic))


def test_transverse_field_hamiltonian_allocates_little_beyond_its_result():
    # The field is one value written into each block, not an n x 2^n array:
    # beside H's halves the build holds the energies and flip_matrix's blocks.
    n = 16
    h0 = cq.chain(n)
    tracemalloc.start()
    H = cq.transverse_field_hamiltonian(h0, 1.0)
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    assert peak <= held_bytes(H) + 6 * (1 << n) * 8


def test_q2c_holds_about_three_copies_of_h():
    # H's symmetry is checked when it is made, so q2c makes no transposed
    # copy or difference of H (those would take it to 2.98x). Beside H's
    # halves its peak is H - lambda0 I, assembled from them one block of
    # rows at a time at int32 positions, with the checks on the upper
    # triangle: 2.36x H's full CSR traced (2.67x with whole-array positions).
    n = 14
    H = cq.QuantumHamiltonian(n, cq.classical_to_quantum(cq.chain(n, field_h=0.1), 0.44).matrix)
    m = H.matrix
    tracemalloc.start()
    cq.quantum_to_classical(H)
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    assert peak <= 2.7 * (m.data.nbytes + m.indices.nbytes + m.indptr.nbytes)


def test_q2c_generator_is_valid_dynamics(rng):
    h0 = random_model(rng, 3)
    H = cq.transverse_field_hamiltonian(h0, 0.8)
    result = cq.quantum_to_classical(H)
    W = result.generator
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
    W = cq.quantum_to_classical(H).generator
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
    W = cq.quantum_to_classical(cq.QuantumHamiltonian(1, matrix)).generator
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


@pytest.mark.parametrize("entry", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
def test_hamiltonian_with_a_non_finite_entry_is_refused_as_the_solvers_do(entry):
    # The refusal test_ground_state_rejects_non_finite_entry gets for a
    # flip-built H, made before the symmetry check, whose max|H - H^T| / max|H|
    # would be NaN (and warn about inf / inf).
    dense = np.array([[entry, -1.0], [-1.0, 0.0]])
    with pytest.raises(ValidationError, match="H has a NaN or infinite entry"):
        cq.QuantumHamiltonian(1, sparse.csr_array(dense))


@pytest.mark.parametrize("n, shape", [(3, (2, 2)), (1, (2, 4)), (0, (1, 1)), (2.0, (4, 4))],
                         ids=["too-few-rows", "non-square", "no-spins", "float-spins"])
def test_hamiltonian_of_the_wrong_shape_is_refused(n, shape):
    # Unchecked, a 2x2 matrix passed as 3 spins would come back from q2c as
    # a 3-spin model.
    matrix = sparse.csr_array(np.eye(*shape))
    with pytest.raises(ValidationError, match="H must be 2\\^n x 2\\^n, n >= 1"):
        cq.QuantumHamiltonian(n, matrix)


def assert_same_csr(got, expected):
    for name in ("indptr", "indices", "data"):
        assert getattr(got, name).dtype == getattr(expected, name).dtype
        assert np.array_equal(getattr(got, name), getattr(expected, name))


def test_matrix_of_an_h_made_from_a_csr_is_that_csr_bit_for_bit(tmp_path):
    # An exactly symmetric canonical CSR is split into its halves and comes
    # back from them as it went in: c2q's full CSR, the same CSR as a
    # coordinate file reads it back, and a copy with each row's entries
    # reversed, canonicalized on a copy of its own.
    full = cq.classical_to_quantum(cq.chain(6, field_h=0.2), 0.6).matrix
    path = tmp_path / "h.txt"
    cq.io.write_coordinate(full, path)
    read_back = cq.io.read_coordinate(path)[1]
    reversed_rows = np.concatenate([np.arange(full.indptr[r + 1] - 1, full.indptr[r] - 1, -1)
                                    for r in range(full.shape[0])])
    unsorted = sparse.csr_array((full.data[reversed_rows], full.indices[reversed_rows],
                                 full.indptr), shape=full.shape)
    caller = unsorted.indices.copy()
    for matrix in (full, read_back, unsorted):
        assert_same_csr(cq.QuantumHamiltonian(6, matrix).matrix, full)
    assert np.array_equal(unsorted.indices, caller)


def test_matrix_stores_the_zero_diagonal_entries_a_csr_leaves_out():
    # The open transverse-field chain(7) at Gamma=0.8 has 40 zero diagonal
    # entries; a CSR without them (984 entries) comes back storing them.
    full = cq.transverse_field_hamiltonian(cq.chain(7, periodic=False), 0.8).matrix
    stored = full.copy()
    stored.eliminate_zeros()
    assert stored.nnz == 984
    assert_same_csr(cq.QuantumHamiltonian(7, stored).matrix, full)


@pytest.mark.parametrize("inverse", [
    lambda: cq.quantum_to_classical(cq.transverse_field_hamiltonian(cq.chain(7), 0.8)),
    lambda: cq.roundtrip_check(cq.chain(6, field_h=0.1), 0.44),
], ids=["q2c", "roundtrip"])
def test_inverse_of_a_flip_hamiltonian_checks_no_symmetry(monkeypatch, inverse):
    # A flip-built H is symmetric by construction; only an H made from a
    # CSR is checked.
    def refuse(*args):
        raise AssertionError("symmetry checked")

    monkeypatch.setattr(mapping, "relative_asymmetry", refuse)
    inverse()


def test_q2c_shift_applied_internally():
    shifted = half_i_minus_sx().matrix + 3.0 * sparse.eye_array(2)
    result = cq.quantum_to_classical(cq.QuantumHamiltonian(1, sparse.csr_array(shifted)))
    assert abs(result.lambda0 - 3.0) < 1e-12
    expected_w = np.array([[-0.5, 0.5], [0.5, -0.5]])
    assert np.abs(result.generator.toarray() - expected_w).max() < 1e-12


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
    H = cq.classical_to_quantum(h0, 0.9)
    path = tmp_path / "h.txt"
    write_hamiltonian(H, path)
    back = read_hamiltonian(path)
    assert back.n == 3
    assert np.abs((back.matrix - H.matrix).toarray()).max() == 0.0
