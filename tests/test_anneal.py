import math
import time
import tracemalloc

import numpy as np
import pytest

import cqmap as cq
from cqmap.anneal import (_QA_CHUNK, _QA_THETA, _YOSHIDA_W0, _YOSHIDA_W1, _driver_factors,
                          _driver_groups, _rotate_driver, comparison_json, run_csv)
from cqmap.errors import ResourceLimitError, ValidationError
from cqmap.model import energy_table, ground_space

from conftest import master_equation_oracle, naive_energy_table, ring_qa_oracle, ring_sa_oracle


def field_chain(n=4, h=0.4):
    """Chain plus uniform field: unique (nondegenerate) ground state."""
    return cq.build_model({
        "n": n,
        "terms": [{"sites": [j], "h": h} for j in range(n)],
        "lattice": {"kind": "chain", "size": [n], "J": 1.0},
    })


# --------------------------------------------------------------- make_schedule

def test_linear_schedule_midpoint():
    sched = cq.make_schedule("linear", (1.0, 0.0), 10.0)
    assert sched.value(5.0) == 0.5


def test_power_one_reduces_to_linear():
    power = cq.make_schedule("power", (2.0, 1.0), 8.0)
    linear = cq.make_schedule("linear", (2.0, 0.0), 8.0)
    for t in np.linspace(0.0, 8.0, 9):
        assert abs(power.value(t) - linear.value(t)) < 1e-15


def test_logarithmic_schedule_at_zero():
    sched = cq.make_schedule("logarithmic", (1.0, 1.0), 50.0)
    assert abs(sched.value(0.0) - 1.0 / np.log(2.0)) < 1e-15


@pytest.mark.parametrize("kind, params", [
    ("linear", (5.0, 0.5)), ("power", (5.0, 2.7)), ("logarithmic", (2.0, 1.3))])
def test_schedule_array_values_match_scalar_values(kind, params):
    sched = cq.make_schedule(kind, params, 10.0)
    times = np.array([-3.0, -1e-12, 0.0, 0.7, 2.5, 5.0, 9.99, 10.0, 10.0 + 1e-9, 42.0])
    values = sched.value(times)
    scalar = np.array([sched.value(t) for t in times])
    assert values.shape == times.shape
    # numpy's vectorized pow and log are not libm's: power and logarithmic may
    # differ in the last bit or two (2 ulp measured); linear is exact.
    np.testing.assert_array_max_ulp(values, scalar, maxulp=2)
    if kind == "linear":
        assert np.array_equal(values, scalar)
    # times outside [0, T] clamp to its ends
    assert np.all(values[:3] == sched.initial()) and np.all(values[-3:] == sched.final())
    assert type(sched.value(2.5)) is float and type(sched.value(np.float64(2.5))) is float


def test_schedule_validation():
    with pytest.raises(ValidationError):
        cq.make_schedule("linear", (1.0, 0.0), 0.0)
    with pytest.raises(ValidationError):
        cq.make_schedule("geometric", (1.0, 0.0), 1.0)
    with pytest.raises(ValidationError):
        cq.make_schedule("logarithmic", (-1.0, 1.0), 1.0)
    with pytest.raises(ValidationError):
        cq.make_schedule("power", (1.0, -2.0), 1.0)


# ---------------------------------------------------------------------- run_sa

def sa_oracle_final(h0, sched):
    """Final ground-space weight and residual energy of SA from the uniform
    start, solved by scipy's DOP853 (conftest.master_equation_oracle)."""
    energies = naive_energy_table(h0)
    p0 = np.full(energies.size, 1.0 / energies.size)
    final = master_equation_oracle(h0, sched.value, p0, [0.0, sched.horizon])[-1]
    ground = energies <= energies.min() + 1e-9 * max(1.0, abs(energies.min()))
    return final[ground].sum(), final @ energies - energies.min()


def test_sa_linear_ramp_finds_ground_pair():
    sched = cq.make_schedule("linear", (0.1, 3.0), 200.0)
    result = cq.run_sa(cq.chain(4), sched, steps=200)
    assert result.final_success >= 0.9
    assert result.norm_drift <= 1e-9
    assert np.all(result.residual_energy >= -1e-9)
    # the value is converged: it matches an independent DOP853 solution
    success, _ = sa_oracle_final(cq.chain(4), sched)
    assert abs(success - result.final_success) < 1e-6


def test_sa_matches_dop853_oracle():
    h0 = cq.chain(8, field_h=0.1)
    sched = cq.make_schedule("linear", (0.1, 3.0), 20.0)
    result = cq.run_sa(h0, sched, steps=40)
    success, residual = sa_oracle_final(h0, sched)
    assert abs(result.final_success - success) < 1e-9
    assert abs(result.residual_energy[-1] - residual) < 1e-9


@pytest.mark.parametrize("kind, params, horizon", [
    ("linear", (0.1, 3.0), 20.0),
    ("logarithmic", (2.0, 1.0), 50.0),  # temperature 2 / log(2 + t)
])
def test_sa_matches_glauber_ring_correlations(kind, params, horizon):
    # Periodic h = 0 ring: Glauber's correlation equations give the exact
    # mean energy for any beta(t). Measured: 8.9e-11 (linear) and 4.4e-11
    # (logarithmic), the integrator's own error.
    sched = cq.make_schedule(kind, params, horizon)
    result = cq.run_sa(cq.chain(12), sched, steps=40)
    beta_of_t = sched.value if kind == "linear" else (lambda t: 1.0 / sched.value(t))
    exact = ring_sa_oracle(12, beta_of_t, result.times)
    assert np.abs(result.residual_energy + result.ground_energy - exact).max() <= 1e-9


def test_sa_sudden_quench_stays_uniform():
    sched = cq.make_schedule("linear", (0.1, 3.0), 1e-6)
    result = cq.run_sa(cq.chain(4), sched, steps=1)
    assert abs(result.final_success - 2.0 / 16.0) < 1e-3


def test_sa_frozen_beta_converges_to_gibbs_weight():
    h0 = cq.chain(4)
    sched = cq.make_schedule("linear", (3.0, 3.0), 300.0)
    result = cq.run_sa(h0, sched, steps=100)
    gibbs = cq.gibbs_distribution(h0, 3.0)
    ground_weight = gibbs.p[0] + gibbs.p[15]
    assert abs(result.final_success - ground_weight) < 1e-6


def test_sa_logarithmic_schedule_is_temperature():
    # T(t) = c0/log(2 + at) falls, so beta rises: accepted by run_sa
    sched = cq.make_schedule("logarithmic", (1.0, 1.0), 20.0)
    result = cq.run_sa(cq.chain(3), sched, steps=40)
    assert result.final_success > 2.0 / 8.0  # better than uniform


def test_sa_rejects_decreasing_beta():
    sched = cq.make_schedule("linear", (3.0, 0.1), 10.0)
    with pytest.raises(ValidationError, match="nondecreasing"):
        cq.run_sa(cq.chain(3), sched)


def test_sa_size_guard():
    with pytest.raises(ResourceLimitError):
        cq.run_sa(cq.ClassicalHamiltonian(13, [], []),
                  cq.make_schedule("linear", (0.1, 1.0), 1.0))


# ---------------------------------------------------------------------- run_qa

def test_qa_adiabatic_ramp_reaches_ground_pair():
    sched = cq.make_schedule("linear", (10.0, 0.0), 25.0)
    result = cq.run_qa(cq.chain(4), sched, steps=50)
    assert result.final_success >= 0.99
    assert result.norm_drift <= 1e-8
    assert np.all(result.p_ground <= 1.0 + 1e-9)
    assert np.all(result.residual_energy >= -1e-9)


def test_qa_sudden_quench_keeps_uniform_overlap():
    sched = cq.make_schedule("linear", (5.0, 0.0), 1e-6)
    result = cq.run_qa(cq.chain(4), sched, steps=1)
    assert abs(result.final_success - 2.0 / 16.0) < 1e-3


def test_qa_two_level_matches_independent_integrator():
    h0 = cq.build_model({"n": 1, "terms": [{"sites": [0], "h": 1.0}]})
    gamma0, horizon = 5.0, 30.0
    sched = cq.make_schedule("linear", (gamma0, 0.0), horizon)
    result = cq.run_qa(h0, sched, steps=40)
    assert result.final_success >= 0.99

    # the uniform start caps the adiabatic success at its overlap with the
    # instantaneous ground state at Gamma(0); the run should sit at that cap
    h_init = np.array([[-1.0, -gamma0], [-gamma0, 1.0]])
    _, vecs = np.linalg.eigh(h_init)
    ceiling = abs(vecs[:, 0] @ np.full(2, 1.0 / np.sqrt(2.0))) ** 2
    assert abs(result.final_success - ceiling) < 5e-3

    # independent fine-step RK4 of the two-level problem
    energies = np.array([-1.0, 1.0])
    x = np.array([[0.0, 1.0], [1.0, 0.0]])

    def gamma(t):
        return gamma0 * (1.0 - t / horizon)

    def deriv(t, psi):
        return -1j * (energies * psi - gamma(t) * (x @ psi))

    steps = 100000
    h = horizon / steps
    psi = np.full(2, 1.0 / np.sqrt(2.0), dtype=complex)
    t = 0.0
    for _ in range(steps):
        k1 = deriv(t, psi)
        k2 = deriv(t + h / 2, psi + h / 2 * k1)
        k3 = deriv(t + h / 2, psi + h / 2 * k2)
        k4 = deriv(t + h, psi + h * k3)
        psi += (h / 6) * (k1 + 2 * k2 + 2 * k3 + k4)
        t += h
    oracle_success = abs(psi[0]) ** 2 / (np.abs(psi) ** 2).sum()
    assert abs(result.final_success - oracle_success) < 1e-5


def test_qa_matches_dense_exponential_midpoint_oracle():
    h0 = field_chain(3)
    gamma0, horizon = 10.0, 10.0
    result = cq.run_qa(h0, cq.make_schedule("linear", (gamma0, 0.0), horizon), steps=20)

    # exponential midpoint rule on the dense 8x8 H(t); second order, and at
    # 8000 steps within ~3e-8 of its converged value
    energies = naive_energy_table(h0)
    dim = energies.size
    x = np.zeros((dim, dim))
    for s in range(dim):
        for j in range(h0.n):
            x[s ^ (1 << j), s] = 1.0
    steps = 8000
    h = horizon / steps
    psi = np.full(dim, 1.0 / np.sqrt(dim), dtype=complex)
    for k in range(steps):
        gamma = gamma0 * (1.0 - (k + 0.5) * h / horizon)
        w, v = np.linalg.eigh(np.diag(energies) - gamma * x)
        psi = v @ (np.exp(-1j * w * h) * (v.T @ psi))
    ground = energies <= energies.min() + 1e-9
    oracle_success = (np.abs(psi[ground]) ** 2).sum()
    assert abs(result.final_success - oracle_success) < 1e-6


def test_qa_norm_drift_is_roundoff():
    sched = cq.make_schedule("linear", (10.0, 0.0), 25.0)
    result = cq.run_qa(field_chain(), sched, steps=50)
    assert result.norm_drift <= 1e-12


def test_qa_monotone_horizon_on_nondegenerate_instance():
    h0 = field_chain()
    successes = []
    for horizon in (25.0, 50.0, 100.0):
        sched = cq.make_schedule("linear", (10.0, 0.0), horizon)
        successes.append(cq.run_qa(h0, sched, steps=40).final_success)
    assert successes[1] >= successes[0] - 1e-3
    assert successes[2] >= successes[1] - 1e-3


def test_qa_frozen_zero_field_keeps_populations():
    sched = cq.make_schedule("linear", (0.0, 0.0), 5.0)
    result = cq.run_qa(cq.chain(4), sched, steps=10)
    assert result.p_ground.max() - result.p_ground.min() <= 1e-10
    assert result.norm_drift <= 1e-12


def test_qa_requires_terminal_zero_field():
    sched = cq.make_schedule("linear", (5.0, 1.0), 10.0)
    with pytest.raises(ValidationError, match="Gamma"):
        cq.run_qa(cq.chain(3), sched)


def test_qa_size_guard():
    with pytest.raises(ResourceLimitError):
        cq.run_qa(cq.ClassicalHamiltonian(13, [], []),
                  cq.make_schedule("linear", (5.0, 0.0), 1.0))


@pytest.mark.parametrize("n", range(1, 15))
def test_grouped_driver_rotation_matches_per_spin_reference(rng, n):
    # Groups of at most 5 spins: one up to n = 5, two up to 10, then three.
    driver = _driver_groups(n)
    sizes = driver[0]
    assert sum(sizes) == n and len(sizes) == -(-n // 5) and max(sizes) - min(sizes) <= 1
    idx = np.arange(1 << n)
    psi = rng.standard_normal(1 << n) + 1j * rng.standard_normal(1 << n)
    psi /= np.linalg.norm(psi)
    angles = (0.37, -1.2, math.pi / 2)
    factors = _driver_factors(driver, np.array(angles))
    # Each factor is a contiguous matrix, as the products are fastest on one.
    assert all(stack.flags.c_contiguous for stack in factors.values())
    for k, angle in enumerate(angles):
        c, s = math.cos(angle), 1j * math.sin(angle)
        ref = psi
        for j in range(n):
            ref = c * ref + s * ref[idx ^ (1 << j)]
        out = _rotate_driver(psi, driver, factors, k)
        assert out.shape == psi.shape
        assert np.abs(out - ref).max() <= 1e-14
        assert abs(np.linalg.norm(out) - 1.0) <= 1e-14


def substep_loop_qa(h0, sched, steps):
    """run_qa's substeps one at a time, as they ran before chunking: each a
    Yoshida triple jump of Strang steps, with a scalar Schedule.value at each
    midpoint, unmerged half-phases and the driver as per-spin rotations
    c psi + i s psi[idx ^ (1 << j)]. Returns p_ground and the residual energy
    at the output times after 0, and the substeps of each interval."""
    energies = energy_table(h0)
    gmask, e_gs = ground_space(energies)
    e_scale = np.abs(energies).max()
    idx = np.arange(energies.size)

    def rotate(psi, angle):
        c, s = math.cos(angle), 1j * math.sin(angle)
        for j in range(h0.n):
            psi = c * psi + s * psi[idx ^ (1 << j)]
        return psi

    psi = np.full(energies.size, 1.0 / math.sqrt(energies.size), dtype=complex)
    p_ground, residual, counts = [], [], []
    t_grid = np.linspace(0.0, sched.horizon, steps + 1)
    for t0, t1 in zip(t_grid[:-1], t_grid[1:]):
        omega = e_scale + h0.n * max(abs(sched.value(t0)), abs(sched.value(t1))) + 1e-12
        substeps = max(1, math.ceil((t1 - t0) * omega / _QA_THETA))
        h = (t1 - t0) / substeps
        tau1, tau0 = _YOSHIDA_W1 * h, _YOSHIDA_W0 * h
        for i in range(substeps):
            t = t0 + i * h
            for tau, mid in ((tau1, t + 0.5 * tau1), (tau0, t + 0.5 * h),
                             (tau1, t + h - 0.5 * tau1)):
                half = np.exp(-0.5j * tau * energies)
                psi = half * rotate(half * psi, tau * sched.value(mid))
        weights = np.abs(psi) ** 2
        p_ground.append(weights[gmask].sum() / weights.sum())
        residual.append(weights @ energies / weights.sum() - e_gs)
        counts.append(substeps)
    return np.array(p_ground), np.array(residual), counts


@pytest.mark.parametrize("n", [1, 3, 5, 6, 7])  # one driver group up to 5 spins, then two
@pytest.mark.parametrize("substeps", [1, _QA_CHUNK, _QA_CHUNK + 1, 2 * _QA_CHUNK + 1])
def test_qa_chunks_match_the_substep_loop(monkeypatch, n, substeps):
    h0 = field_chain(n, h=0.3)
    gamma0 = 2.0
    omega = np.abs(energy_table(h0)).max() + n * gamma0
    # The first of two intervals takes `substeps` (its field peaks at Gamma(0)),
    # the second fewer.
    horizon = 2 * (substeps - 0.5) * _QA_THETA / omega
    sched = cq.make_schedule("linear", (gamma0, 0.0), horizon)
    p_ground, residual, counts = substep_loop_qa(h0, sched, steps=2)
    assert counts[0] == substeps

    # One group takes each rotation, its phase folded in, as one factor of
    # _driver_factors(..., phases); two or more rotate by _rotate_driver.
    rotations, folded = [], []

    def counting_rotate(*args):
        rotations.append(args[-1])
        return _rotate_driver(*args)

    def counting_factors(driver, angles, phases=None):
        if phases is not None:
            folded.append(angles.size)
        return _driver_factors(driver, angles, phases)

    monkeypatch.setattr(cq.anneal, "_rotate_driver", counting_rotate)
    monkeypatch.setattr(cq.anneal, "_driver_factors", counting_factors)
    result = cq.run_qa(h0, sched, steps=2)
    one_group = len(_driver_groups(n)[0]) == 1
    assert one_group == (n <= 5)
    assert (sum(folded), len(rotations)) == ((3 * sum(counts), 0) if one_group
                                             else (0, 3 * sum(counts)))
    assert np.abs(result.p_ground[1:] - p_ground).max() <= 1e-12
    assert np.abs(result.residual_energy[1:] - residual).max() <= 1e-12


@pytest.mark.parametrize("n", [3, 7])
def test_qa_fields_are_made_once_per_block_of_substeps(monkeypatch, n):
    # An interval's midpoint fields are one Schedule.value call up to
    # _QA_FIELD_BLOCK substeps; with blocks of one chunk, an interval of 33
    # substeps takes three calls and gives the same run bit for bit.
    h0 = field_chain(n, h=0.3)
    omega = np.abs(energy_table(h0)).max() + n * 2.0
    sched = cq.make_schedule("linear", (2.0, 0.0), (2 * _QA_CHUNK + 0.5) * _QA_THETA / omega)
    calls = []
    value = cq.anneal.Schedule.value

    def counting_value(self, t):
        calls.append(np.size(t))
        return value(self, t)

    monkeypatch.setattr(cq.anneal.Schedule, "value", counting_value)
    runs = []
    for block in (cq.anneal._QA_FIELD_BLOCK, _QA_CHUNK):
        monkeypatch.setattr(cq.anneal, "_QA_FIELD_BLOCK", block)
        calls.clear()
        runs.append(cq.run_qa(h0, sched, steps=1))
        assert [size for size in calls if size > 1] == (
            [3 * 33] if block > 33 else [3 * _QA_CHUNK, 3 * _QA_CHUNK, 3])
    assert np.array_equal(runs[0].p_ground, runs[1].p_ground)
    assert np.array_equal(runs[0].residual_energy, runs[1].residual_energy)


def test_qa_holds_a_chunk_of_phases_only_for_one_group():
    # A chunk's 48 phases are stacked into one array only where they fold
    # into one group's factors (at most 32 states); at chain(12) they would
    # be 3 MiB, and two copies of that at the last chunk. Measured: 0.70 MiB.
    sched = cq.make_schedule("linear", (5.0, 0.0), 1.0)
    tracemalloc.start()
    try:
        cq.run_qa(cq.chain(12, field_h=0.1), sched, steps=2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.5 * 2**20


@pytest.mark.parametrize("n, bound", [(4, 4e-6), (8, 8e-7), (12, 2e-7)])
def test_qa_matches_exact_ring_modes(n, bound):
    # Periodic h = 0 ring, linear Gamma 5 -> 0 over T = 10: the free-fermion
    # modes give the exact mean energy. Measured: 2.18e-6, 3.99e-7 and 9.60e-8,
    # run_qa's own fourth-order error.
    sched = cq.make_schedule("linear", (5.0, 0.0), 10.0)
    result = cq.run_qa(cq.chain(n), sched, steps=40)
    exact = ring_qa_oracle(n, sched.value, result.times)
    assert np.abs(result.residual_energy + result.ground_energy - exact).max() <= bound


def test_qa_ring_error_is_fourth_order():
    # Halving the substeps divides the error by about 2^4 (measured: 15.1 on chain(4)).
    sched = cq.make_schedule("linear", (5.0, 0.0), 10.0)
    errors = []
    for refine in (1.0, 2.0):
        result = cq.run_qa(cq.chain(4), sched, steps=40, refine=refine)
        exact = ring_qa_oracle(4, sched.value, result.times)
        errors.append(np.abs(result.residual_energy + result.ground_energy - exact).max())
    assert 14.0 <= errors[0] / errors[1] <= 17.0


def test_qa_refuses_horizon_beyond_substep_cap():
    # chain(4): max|E| = 4, n max|Gamma| = 20, so 1e12 * 24 / 0.125 substeps.
    sched = cq.make_schedule("linear", (5.0, 0.0), 1e12)
    start = time.perf_counter()
    with pytest.raises(ResourceLimitError, match="QA substeps"):
        cq.run_qa(cq.chain(4), sched, steps=2)
    assert time.perf_counter() - start < 5.0
    # refine multiplies the count: a horizon worth 1e8 substeps is refused at 1.5.
    at_cap = cq.make_schedule("linear", (5.0, 0.0), 1e8 * 0.125 / 24)
    with pytest.raises(ResourceLimitError, match="QA substeps"):
        cq.run_qa(cq.chain(4), at_cap, steps=2, refine=1.5)
    # A field that is 0 throughout takes no substeps, so the long horizon runs.
    frozen = cq.run_qa(cq.chain(4), cq.make_schedule("linear", (0.0, 0.0), 1e12), steps=2)
    assert frozen.p_ground.max() - frozen.p_ground.min() <= 1e-10


def test_qa_substep_cap_counts_one_substep_per_interval(monkeypatch):
    # A horizon of 1e-6 needs a fraction of a substep, but each of the output
    # intervals takes at least one: 20 intervals pass a cap of 10 no more.
    monkeypatch.setattr(cq.anneal, "MAX_STEPS", 10)
    sched = cq.make_schedule("linear", (1.0, 0.0), 1e-6)
    with pytest.raises(ResourceLimitError, match="needs up to 20 QA substeps"):
        cq.run_qa(cq.chain(4), sched, steps=20)
    assert cq.run_qa(cq.chain(4), sched, steps=9).times.size == 10


@pytest.mark.parametrize("method", ["sa", "qa"])
def test_anneal_checks_its_grid_before_allocating(monkeypatch, method):
    def unreachable(*args, **kwargs):
        raise AssertionError("reached past the grid check")

    monkeypatch.setattr(cq.dynamics, "MAX_STEPS", 10)
    monkeypatch.setattr(cq.anneal, "GeneratorProvider", unreachable)
    monkeypatch.setattr(np, "linspace", unreachable)
    run = cq.run_sa if method == "sa" else cq.run_qa
    sched = cq.make_schedule("linear", (0.1, 2.0) if method == "sa" else (5.0, 0.0), 1.0)
    with pytest.raises(ResourceLimitError, match="12 times is 11 intervals \\(cap 1e\\+01\\)"):
        run(cq.chain(4), sched, steps=11)


@pytest.mark.parametrize("refine", [0.5, np.nan])
def test_qa_refuses_bad_refine(refine):
    with pytest.raises(ValidationError, match="refine"):
        cq.run_qa(cq.chain(2), cq.make_schedule("linear", (5.0, 0.0), 1.0), refine=refine)


# ----------------------------------------------------------------- compare_runs

def test_compare_identical_results_zero_deltas():
    sched = cq.make_schedule("linear", (0.1, 2.0), 5.0)
    sa = cq.run_sa(cq.chain(3), sched, steps=20)
    report = cq.compare_runs(sa, sa)
    assert report.success_delta == 0.0
    assert report.residual_delta == 0.0


def test_compare_reports_both_runs():
    h0 = cq.chain(3)
    sa = cq.run_sa(h0, cq.make_schedule("linear", (0.1, 2.0), 20.0), steps=40)
    qa = cq.run_qa(h0, cq.make_schedule("linear", (5.0, 0.0), 20.0), steps=40)
    report = cq.compare_runs(sa, qa)
    assert report.n == 3
    assert 0.0 <= report.sa_final_success <= 1.0
    assert 0.0 <= report.qa_final_success <= 1.0
    payload = comparison_json(report)
    assert set(payload) == {"n", "sa", "qa", "success_delta", "residual_delta"}


def test_compare_rejects_model_mismatch():
    sched = cq.make_schedule("linear", (0.1, 2.0), 5.0)
    sa3 = cq.run_sa(cq.chain(3), sched, steps=10)
    sa4 = cq.run_sa(cq.chain(4), sched, steps=10)
    with pytest.raises(ValidationError, match="mismatch"):
        cq.compare_runs(sa3, sa4)


def test_run_csv_layout():
    sched = cq.make_schedule("linear", (0.5, 1.0), 2.0)
    result = cq.run_sa(cq.chain(2, periodic=False), sched, steps=4)
    lines = run_csv(result).strip().splitlines()
    assert lines[0] == "time,control_value,p_ground,residual_energy"
    assert len(lines) == 6
