import tracemalloc

import numpy as np
import pytest
import scipy.linalg
from scipy import sparse

import cqmap as cq
from cqmap.dynamics import (
    _DP_A,
    _DP_P,
    GeneratorProvider,
    array_fill,
    canonical_rule,
    flip_apply,
    flip_asymmetry,
    flip_matrix,
    flip_table,
    flipped,
    relative_asymmetry,
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
from cqmap.io import read_coordinate
from cqmap.mapping import classical_to_quantum
from cqmap.spectral import dense_spectrum

from conftest import grid_states, master_equation_oracle, random_model


def array_matrix(diag, off):
    return flip_matrix(off.shape[0], array_fill(diag, off))


def two_state_field(h):
    return cq.build_model({"n": 1, "terms": [{"sites": [0], "h": h}]})


# -------------------------------------------------------------- build_generator

def test_free_spin_heat_bath_generator():
    W = cq.build_generator(cq.ClassicalHamiltonian(1, [], []), 1.0, "heat-bath")
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


@pytest.mark.parametrize("rule", [["heat-bath"], {"rule": "metropolis"}, None, 1.5])
def test_a_rule_of_the_wrong_type_is_a_validation_error(rule):
    # An unhashable rule used to escape the alias lookup as a raw TypeError.
    with pytest.raises(ValidationError, match="unknown flip rule"):
        canonical_rule(rule)
    with pytest.raises(ValidationError, match="unknown flip rule"):
        classical_to_quantum(cq.chain(3), 0.44, rule)


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
        cq.build_generator(cq.ClassicalHamiltonian(25, [], []), 1.0)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 13, 14])
def test_flip_matrix_matches_coo_assembly(rng, n):
    # 13 and 14 spins fill more than one block of rows.
    dim = 1 << n
    diag, off = rng.standard_normal(dim), rng.standard_normal((n, dim))
    idx = np.arange(dim)
    rows = np.concatenate([idx] + [idx ^ (1 << j) for j in range(n)])
    cols = np.tile(idx, n + 1)
    vals = np.concatenate([diag, off.reshape(-1)])
    oracle = sparse.coo_array((vals, (rows, cols)), shape=(dim, dim)).tocsr()
    M = array_matrix(diag, off)
    assert M.has_canonical_format
    assert M.indptr.dtype == M.indices.dtype == np.int32
    for name in ("indptr", "indices", "data"):
        assert np.array_equal(getattr(M, name), getattr(oracle, name))


@pytest.mark.parametrize("n", [1, 2, 3, 5, 12, 13, 14])
def test_flip_matrix_upper_keeps_the_diagonal_and_strict_upper_triangle(rng, n):
    # The same placement loop on any fill, symmetric or not: upper=True keeps
    # what the full CSR holds on and above its diagonal, bit for bit.
    dim = 1 << n
    diag, off = rng.standard_normal(dim), rng.standard_normal((n, dim))
    full = array_matrix(diag, off)
    held, upper = flip_matrix(n, array_fill(diag, off), upper=True)
    triu = sparse.triu(full, 1, format="csr")
    assert np.array_equal(held, diag)
    assert upper.has_canonical_format
    assert upper.indptr.dtype == upper.indices.dtype == np.int32
    for name in ("indptr", "indices", "data"):
        assert np.array_equal(getattr(upper, name), getattr(triu, name))


@pytest.mark.parametrize("n", [1, 2, 3, 5, 12, 13, 14])
def test_upper_fill_rebuilds_a_symmetric_flip_matrix_bit_for_bit(rng, n):
    # off[j] even under the flip of spin j makes the operator symmetric. The
    # full CSR that QuantumHamiltonian assembles from the halves is the one
    # flip_matrix writes for the full operator.
    dim = 1 << n
    diag, off = rng.standard_normal(dim), rng.standard_normal((n, dim))
    for j, row in enumerate(off):
        row.reshape(-1, 2, 1 << j)[:, 1] = row.reshape(-1, 2, 1 << j)[:, 0]
    full = array_matrix(diag, off)
    assert (full - full.T).count_nonzero() == 0
    held = cq.QuantumHamiltonian.held(n, *flip_matrix(n, array_fill(diag, off), upper=True))
    rebuilt = held.matrix
    for name in ("indptr", "indices", "data"):
        assert getattr(rebuilt, name).dtype == getattr(full, name).dtype
        assert np.array_equal(getattr(rebuilt, name), getattr(full, name))


@pytest.mark.parametrize("n", [1, 2, 5, 12])
def test_flip_table_delta_e_matches_xor_index(rng, n):
    h0 = random_model(rng, n)
    table = flip_table(h0)
    idx = np.arange(1 << n)
    for j in range(n):
        expected = table.energies[idx ^ (1 << j)] - table.energies
        assert np.array_equal(table.delta_e[j], expected)


def test_flip_table_allocates_little_beyond_its_result():
    # Flips are read as views: no n x 2^n index table or gathered copy.
    tracemalloc.start()
    table = flip_table(cq.chain(14, field_h=0.3))
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    assert peak <= 1.25 * (table.delta_e.nbytes + table.energies.nbytes)


@pytest.mark.parametrize("n", [1, 2, 5, 12])
@pytest.mark.parametrize("rule", ["heat-bath", "metropolis"])
@pytest.mark.parametrize("beta", [0.0, 0.7, 3.0])
def test_provider_apply_matches_csr_generator(rng, n, rule, beta):
    h0 = random_model(rng, n)
    p = rng.random(1 << n)
    p /= p.sum()
    out = cq.constant_provider(h0, beta, rule).apply(0.0, p)
    assert np.abs(out - cq.build_generator(h0, beta, rule).matrix @ p).max() <= 1e-14
    # flip_apply, the product verify_dynamics takes, on flip arrays that are
    # not generators: signed entries and columns that do not sum to zero.
    diag, off = rng.standard_normal(1 << n), rng.standard_normal((n, 1 << n))
    x = rng.standard_normal(1 << n)
    assert np.abs(flip_apply(diag, off, x) - array_matrix(diag, off) @ x).max() <= 1e-14


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
    W.off[0, 0] += 1e-3  # W[1, 0]
    report = cq.verify_dynamics(W, cq.gibbs_distribution(h0, 1.0))
    assert not report.passed
    # injected absolute violation of 1e-3 surfaces at that scale (relative measure)
    assert 1e-4 < report.detailed_balance_residual < 1e-1
    assert abs(report.column_sum_residual - 1e-3) < 1e-12


@pytest.mark.parametrize("rule", ["heat-bath", "metropolis"])
@pytest.mark.parametrize("broken", [False, True])
def test_verify_detailed_balance_residual_is_that_of_the_flux_matrix(rng, rule, broken):
    h0, beta = random_model(rng, 6), 0.8
    W = cq.build_generator(h0, beta, rule)
    if broken:
        W.off[2, 9] += 1e-3
    p = cq.gibbs_distribution(h0, beta).p
    # max|F - F^T| / max|F| of F = W diag(p), built as a sparse matrix
    F = W.matrix.multiply(p[None, :]).tocsr()
    expected = float(np.abs((F - F.T).data).max(initial=0.0) / abs(F).max())
    report = cq.verify_dynamics(W, p)
    assert report.detailed_balance_residual == expected
    assert (expected > 1e-12) == broken


def test_flip_asymmetry_is_relative_asymmetry_of_the_flip_matrix(rng):
    for n in range(1, 7):
        diag = rng.normal(size=1 << n)
        off = rng.normal(size=(n, 1 << n))
        near = (off + np.stack([flipped(row, j).ravel() for j, row in enumerate(off)])) / 2
        near[n - 1, 1] += 1e-9
        for d, o in [(diag, off), (diag, near), (np.zeros(1 << n), near)]:
            assert flip_asymmetry(d, o) == relative_asymmetry(array_matrix(d, o))
    zero = np.zeros((3, 8))
    assert flip_asymmetry(zero[0], zero) == 0.0
    for where in ("diag", "off"):
        d, o = rng.normal(size=8), rng.normal(size=(3, 8))
        (d if where == "diag" else o[1])[5] = np.nan
        assert np.isnan(flip_asymmetry(d, o))
        assert np.isnan(relative_asymmetry(array_matrix(d, o)))


def test_verify_allocates_little_beyond_its_generator():
    # No CSR of W, W diag(p), transpose or difference matrix: the peak stays
    # within one flip array of n 2^n doubles plus a few vectors.
    n, beta = 14, 0.44
    h0 = cq.chain(n)
    W = cq.build_generator(h0, beta)
    peq = cq.gibbs_distribution(h0, beta)
    tracemalloc.start()
    report = cq.verify_dynamics(W, peq)
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    assert report.passed
    assert peak <= 1.25 * n * (1 << n) * 8


def test_verify_builds_no_csr(monkeypatch):
    def refuse(n, fill):
        raise AssertionError("verify_dynamics built a CSR matrix")

    monkeypatch.setattr(cq.dynamics, "flip_matrix", refuse)
    h0 = cq.chain(4)
    W = cq.build_generator(h0, 1.0)
    report = cq.verify_dynamics(W, cq.gibbs_distribution(h0, 1.0))
    assert report.passed
    assert report.column_sum_residual == 0.0


def test_build_generator_allocates_one_flip_array():
    # The rates are made in place in the flip table's dE array, which
    # becomes W.off: no second n x 2^n array.
    n = 16
    tracemalloc.start()
    W = cq.build_generator(cq.chain(n, field_h=0.3), 0.44)
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    assert W.off.shape == (n, 1 << n)
    assert peak <= 1.25 * n * (1 << n) * 8


@pytest.mark.parametrize("rule", ["heat-bath", "metropolis"])
def test_provider_keeps_its_flip_table(rng, rule):
    # build_generator turns its own table's dE into rates; the provider's
    # cached table must stay dE across rebuilds at new betas.
    h0 = random_model(rng, 6)
    provider = GeneratorProvider(h0, lambda t: 0.4 + t, rule)
    before = provider.table.delta_e.copy()
    p = rng.random(1 << 6)
    for t in (0.0, 1.5, 2.0):
        out = provider.apply(t, p)
        assert np.array_equal(provider.table.delta_e, before)
        W = cq.build_generator(h0, provider.beta(t), rule)
        assert np.array_equal(provider.diag, W.diag)
        assert np.array_equal(out, flip_apply(W.diag, W.off, p))
    assert np.array_equal(before, flip_table(h0).delta_e)


@pytest.mark.parametrize("n", range(1, 13))
@pytest.mark.parametrize("rule", ["heat-bath", "metropolis"])
def test_provider_product_is_flip_apply_bit_for_bit(rng, monkeypatch, n, rule):
    # beta 0, 0.44, 0.44 again from the held data, 3, then 0.44 rebuilt. From
    # the first change of beta on, the rule is evaluated on the distinct dE
    # alone. The chain's dE repeat (a single spin's do not), so that is at
    # most half of them; no dE of the all-pairs model with fields repeats,
    # so its table of distinct dE is as long as the dE. diag and every
    # product are build_generator's bit for bit, signs of zero too.
    betas = (0.0, 0.44, 0.44, 3.0, 0.44)
    lattice = cq.chain(n, field_h=0.1) if n > 1 else cq.ClassicalHamiltonian(1, [1], [0.3])
    pairs = random_model(rng, n, pair_density=1.0, field_density=1.0)
    rates = cq.dynamics.flip_rates
    evaluated = []

    def counted(delta_e, *args, **kwargs):
        evaluated.append(np.size(delta_e))
        return rates(delta_e, *args, **kwargs)

    for h0, repeats in ((lattice, n > 1), (pairs, False)):
        generators = [cq.build_generator(h0, beta, rule) for beta in betas]
        provider = GeneratorProvider(h0, lambda t: betas[int(t)], rule)
        monkeypatch.setattr(cq.dynamics, "flip_rates", counted)
        evaluated.clear()
        for t, W in enumerate(generators):
            p = rng.random(1 << n)
            assert np.array_equal(provider.apply(float(t), p), flip_apply(W.diag, W.off, p))
            assert np.array_equal(provider.diag, W.diag)
            assert np.array_equal(np.signbit(provider.diag), np.signbit(W.diag))
        monkeypatch.setattr(cq.dynamics, "flip_rates", rates)
        size = n << n
        assert len(evaluated) == 4 and evaluated[0] == size
        assert all(2 * k <= size if repeats else k == size for k in evaluated[1:])


def test_provider_product_allocates_no_flip_array():
    # The CSR pattern, its data and the gather index are held, so a product,
    # at a new beta too, allocates its result and vectors of the distinct dE.
    n = 12
    provider = GeneratorProvider(cq.chain(n, field_h=0.1), lambda t: 0.1 + t)
    p = np.full(1 << n, 1.0 / (1 << n))
    provider.apply(0.0, p)
    provider.apply(1.0, p)  # the first change of beta finds the distinct dE
    for t in (1.0, 2.0):
        tracemalloc.start()
        out = provider.apply(t, p)
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        assert peak - out.nbytes < n * (1 << n) * 8


def test_provider_peak_memory_over_three_betas():
    # The flip table's dE (8 bytes per flip), the int32 CSR indices (4), its
    # data (8), the gather index (8) and unit data for the diagonal (8), plus
    # the search for the distinct dE at the first change of beta. Measured at
    # chain(14), h=0.1: 9.0 MiB; the rates, two work arrays and a partner
    # index beside dE, five n x 2^n arrays, peaked at 18.0 MiB.
    n = 14
    p = np.full(1 << n, 1.0 / (1 << n))
    tracemalloc.start()
    provider = GeneratorProvider(cq.chain(n, field_h=0.1), lambda t: 0.1 + t)
    for t in (0.0, 1.0, 2.0):
        provider.apply(t, p)
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    assert peak <= 14 << 20


def test_provider_refuses_a_state_of_the_wrong_size():
    # The product reads 2^n entries of p through scipy's unchecked kernel.
    provider = cq.constant_provider(cq.chain(4), 0.5)
    for p in (np.ones(8), np.ones((16, 1)), np.ones(32)):
        with pytest.raises(ValidationError, match="expected"):
            provider.apply(0.0, p)
    assert provider.apply(0.0, [1.0] * 16).shape == (16,)


def test_constant_beta_never_looks_for_distinct_dE(monkeypatch):
    def unreachable(*args, **kwargs):
        raise AssertionError("np.unique called at constant beta")

    provider = cq.constant_provider(cq.chain(6, field_h=0.1), 0.8)
    monkeypatch.setattr(np, "unique", unreachable)
    traj = cq.integrate_master(provider, np.full(64, 1 / 64), np.linspace(0.0, 2.0, 5))
    assert traj.steps > 1


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
    provider = cq.constant_provider(cq.ClassicalHamiltonian(1, [], []), 1.0)
    t_grid = np.array([0.0, 0.5, 1.0, 2.0])
    states, _, _ = grid_states(provider, np.array([1.0, 0.0]), t_grid)
    expected = 0.5 + 0.5 * np.exp(-t_grid)
    assert np.abs(states[:, 0] - expected).max() < 1e-6


def test_gibbs_start_is_stationary():
    h0 = cq.chain(3)
    provider = cq.constant_provider(h0, 1.1)
    p0 = cq.gibbs_distribution(h0, 1.1)
    states, _, _ = grid_states(provider, p0.p, np.linspace(0.0, 5.0, 11))
    assert np.abs(states - p0.p[None, :]).max() < 1e-9


def test_quench_final_energy_and_monotone_record():
    h0 = cq.chain(4)
    provider = GeneratorProvider(h0, lambda t: 0.2 * t, "heat-bath")
    p0 = np.full(16, 1.0 / 16)
    traj = cq.integrate_master(provider, p0, np.linspace(0.0, 10.0, 21))
    assert -4.0 <= traj.mean_energy[-1] <= 0.0
    assert np.all(np.diff(traj.mean_energy) <= 1e-8)
    ref = master_equation_oracle(h0, lambda t: 0.2 * t, p0, traj.times)
    states, _, _ = grid_states(provider, p0, traj.times)
    assert np.abs(states - ref).max() < 1e-8


def test_normalization_preserved(rng):
    h0 = random_model(rng, 4)
    provider = cq.constant_provider(h0, 0.9)
    dim = 16
    p0 = rng.random(dim)
    p0 /= p0.sum()
    states, _, _ = grid_states(provider, p0, np.linspace(0.0, 8.0, 17))
    assert np.abs(states.sum(axis=1) - 1.0).max() < 1e-9
    assert states.min() > -1e-8


class _DrainingProvider:
    """A constant drift [-1, 1], which empties state 0 of p0 = [1, 0] at t = 1.

    Every stage is the same vector, so the error estimate is 0 and the
    controller grows the step past that time."""

    spectral_bound = 1.0
    energies = np.zeros(2)

    def apply(self, t, p):
        return np.array([-1.0, 1.0])

    def equilibrium(self, t):
        return np.full(2, 0.5)


def test_oversized_step_raises_integration_error():
    with pytest.raises(IntegrationError, match="negative probability"):
        cq.integrate_master(_DrainingProvider(), np.array([1.0, 0.0]), np.array([0.0, 2.0]))


def test_integrator_input_validation():
    provider = cq.constant_provider(cq.chain(2, periodic=False), 1.0)
    with pytest.raises(ValidationError):
        cq.integrate_master(provider, np.array([0.7, 0.1, 0.1, 0.1]),
                            np.array([0.0, 1.0, 1.0]))
    with pytest.raises(ValidationError):
        cq.integrate_master(provider, np.array([0.5, 0.5, 0.5, 0.5]),
                            np.array([0.0, 1.0]))


@pytest.mark.parametrize("t_grid", [[0.0, np.nan], [0.0, np.inf], [-np.inf, 0.0]],
                         ids=["nan", "inf", "-inf"])
def test_integrator_refuses_non_finite_times(t_grid):
    provider = cq.constant_provider(cq.chain(2, periodic=False), 1.0)
    with pytest.raises(ValidationError, match="non-finite"):
        cq.integrate_master(provider, np.full(4, 0.25), np.array(t_grid))


@pytest.mark.parametrize("p0, match", [
    ([np.nan, 1.0], "non-finite"),
    ([np.inf, 0.0], "non-finite"),
    ([-np.inf, 1.0], "non-finite"),
    ([1.5, -0.5], "negative entry"),
    ([0.25, 0.25, 0.25, 0.25], "shape"),
], ids=["nan", "inf", "-inf", "negative", "length"])
def test_integrator_refuses_bad_initial_distribution(p0, match):
    provider = cq.constant_provider(cq.ClassicalHamiltonian(1, [], []), 1.0)
    with pytest.raises(ValidationError, match=match):
        cq.integrate_master(provider, np.array(p0), np.array([0.0, 1.0]))


def test_integrator_refuses_span_beyond_step_cap():
    # chain(2) has spectral bound 4: a span of 2.5e7 is 1e8 units of
    # 1/spectral_bound, at the cap; one unit more is refused before any step.
    provider = cq.constant_provider(cq.chain(2, periodic=False), 1.0)
    with pytest.raises(ResourceLimitError, match="1/spectral_bound"):
        cq.integrate_master(provider, np.full(4, 0.25), np.array([0.0, 2.5e7 + 1.0]))


def test_integrator_refuses_grid_beyond_step_cap(monkeypatch):
    # Each grid interval costs a Python pass, so the grid is capped like the
    # span; refused before any step, with MAX_STEPS lowered to 4 intervals.
    monkeypatch.setattr(cq.dynamics, "MAX_STEPS", 4)
    provider = cq.constant_provider(cq.ClassicalHamiltonian(1, [], []), 1.0)
    with pytest.raises(ResourceLimitError, match="6 times is 5 intervals \\(cap 4e\\+00\\)"):
        cq.integrate_master(provider, np.array([1.0, 0.0]), np.linspace(0.0, 0.5, 6))
    traj = cq.integrate_master(provider, np.array([1.0, 0.0]), np.linspace(0.0, 0.5, 5))
    assert traj.times.size == 5


def test_integrator_holds_one_state_not_its_grid_history():
    # 1001 grid states of chain(12) would take 31.3 MiB; a run holds the
    # current state, a step's seven stages and the provider's rate arrays.
    provider = cq.constant_provider(cq.chain(12, field_h=0.1), 0.44)
    p0 = np.full(1 << 12, 1.0 / (1 << 12))
    tracemalloc.start()
    traj = cq.integrate_master(provider, p0, np.linspace(0.0, 1.0, 1001))
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    assert traj.mean_energy.size == 1001
    assert peak < 4 * 2**20


def test_non_finite_error_estimate_raises():
    # beta(t) turns NaN half-way: the rates, and so the error estimate, follow.
    provider = GeneratorProvider(cq.chain(2, periodic=False),
                                 lambda t: 1.0 if t < 0.5 else np.nan)
    with pytest.raises(IntegrationError, match="non-finite error estimate"):
        cq.integrate_master(provider, np.full(4, 0.25), np.array([0.0, 1.0]))


class _ErraticProvider:
    """A right-hand side whose stages alternate in sign, so the error
    estimate is ~1e11 h at every step size."""

    spectral_bound = 1.0
    energies = np.zeros(2)

    def __init__(self):
        self.calls = 0

    def apply(self, t, p):
        self.calls += 1
        return (-1.0) ** self.calls * 1e12 * np.array([1.0, -1.0])

    def equilibrium(self, t):
        return np.full(2, 0.5)


def test_step_shrinking_below_span_floor_raises():
    with pytest.raises(IntegrationError, match="fell below 1e-14"):
        cq.integrate_master(_ErraticProvider(), np.array([0.5, 0.5]), np.array([0.0, 1.0]))


def test_two_state_closed_form_rejects_its_first_step():
    # The first step, 1/spectral_bound = 0.5, misses the 1e-10 tolerance.
    provider = cq.constant_provider(cq.ClassicalHamiltonian(1, [], []), 1.0)
    t_grid = np.array([0.0, 0.5, 1.0, 2.0])
    states, steps, rejected = grid_states(provider, np.array([1.0, 0.0]), t_grid)
    assert rejected > 0
    assert steps > 0
    assert np.abs(states[:, 0] - (0.5 + 0.5 * np.exp(-t_grid))).max() < 1e-9


def test_fine_grid_is_interpolated_not_stepped():
    # 100 grid intervals of 0.01 are 0.16/spectral_bound each on chain(8):
    # steps run across grid times, so there are fewer steps than intervals,
    # and every interpolated row matches an independent solution: powers of
    # the dense exp(0.01 W) at fixed beta, scipy's DOP853 for a ramped beta.
    h0 = cq.chain(8)
    p0 = np.full(256, 1.0 / 256)
    grid = np.linspace(0.0, 1.0, 101)
    step = scipy.linalg.expm(cq.build_generator(h0, 1.0).matrix.toarray() * grid[1])
    fixed = [p0]
    for _ in grid[1:]:
        fixed.append(step @ fixed[-1])

    def ramp(t):
        return 0.1 + 2.0 * t

    for provider, ref in ((cq.constant_provider(h0, 1.0), np.array(fixed)),
                          (GeneratorProvider(h0, ramp),
                           master_equation_oracle(h0, ramp, p0, grid))):
        traj = cq.integrate_master(provider, p0, grid)
        assert traj.steps < grid.size - 1
        states, _, _ = grid_states(provider, p0, grid)
        assert np.abs(states - ref).sum(axis=1).max() < 1e-9
        assert np.abs(traj.mean_energy - ref @ provider.energies).max() < 1e-9


def test_continuous_extension_ends_on_the_step():
    # At theta = 1 the interpolant weights are the fifth-order weights.
    assert np.abs(_DP_P.sum(axis=1) - _DP_A[6]).max() < 1e-15


def test_asymptotic_decay_rate_matches_lambda1():
    h0 = cq.chain(4)
    beta = 0.7
    H = classical_to_quantum(h0, beta)
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
    H = classical_to_quantum(cq.ClassicalHamiltonian(1, [], []), 1.0)
    assert cq.relaxation_time(dense_spectrum(H)) == 1.0


def test_relaxation_time_two_spin_dense_oracle():
    h0 = cq.build_model({"n": 2, "terms": [{"sites": [0, 1], "J": 1}]})
    W = cq.build_generator(h0, 1.0)
    lam = np.sort(np.linalg.eigvals(-W.matrix.toarray()).real)
    H = classical_to_quantum(h0, 1.0)
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
    # The second input is an unresolved gap, not evidence of a second
    # stationary state: the residual gate runs before the reducibility check.
    for lam in ([0.0, 1e-13], [-2e-14, -8e-15]):
        class Unresolved:
            eigenvalues = np.array(lam)
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
    n, back = read_coordinate(path)
    assert n == 3
    assert np.abs((back - W.matrix).toarray()).max() == 0.0


def test_trajectory_csv_header():
    provider = cq.constant_provider(cq.chain(2, periodic=False), 0.5)
    traj = cq.integrate_master(provider, np.full(4, 0.25), np.array([0.0, 1.0]))
    lines = trajectory_csv(traj).splitlines()
    assert lines[0] == "time,mean_energy,p_ground,l1_distance_to_gibbs"
    assert len(lines) == 3
