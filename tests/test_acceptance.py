"""Acceptance suite: one test per shipping criterion.

Each test prints one `criterion N: PASS/FAIL` line (run with `pytest -s`
to see them on success) and asserts at the criterion's stated tolerance.
"""

import numpy as np
import scipy.linalg

import cqmap as cq
from cqmap.model import dense_coefficients
from cqmap.spectral import extreme_eigenpairs, fit_scaling, gap_scaling_sweep

from conftest import grid_states, random_model


def criterion(number, ok, detail):
    line = f"criterion {number}: {'PASS' if ok else 'FAIL'} - {detail}"
    print(line)
    assert ok, line


def mapped(h0, beta, rule="heat-bath"):
    return cq.classical_to_quantum(h0, beta, rule)


def test_criterion_1_closed_form_anchor():
    """Mapped heat-bath chain vs the closed form, every off-diagonal to 1e-12.

    The closed form's printed diagonal, -(1/2) sum sz sz, does NOT match the
    mapped generator; the mapped diagonal is N/2 - (tanh 2b / 2) sum sz sz
    (brute-force confirmed here). Off-diagonals agree exactly.
    """
    worst_off = 0.0
    worst_diag = 0.0
    printed_gap = np.inf
    for n in (4, 6, 8):
        for beta in (0.3, 1.0):
            A = mapped(cq.chain(n), beta).matrix.toarray()
            B = cq.heat_bath_chain_closed_form(n, beta).matrix.toarray()
            diff = np.abs(A - B)
            np.fill_diagonal(diff, 0.0)
            worst_off = max(worst_off, diff.max())

            bond_sum = -cq.energy_table(cq.chain(n))
            derived = n / 2.0 - np.tanh(2.0 * beta) / 2.0 * bond_sum
            worst_diag = max(worst_diag, np.abs(np.diag(A) - derived).max())
            # document the discrepancy with the printed diagonal
            printed_gap = min(printed_gap, np.abs(np.diag(A) - np.diag(B)).max())
    ok = worst_off <= 1e-12 and worst_diag <= 1e-12 and printed_gap > 1e-2
    criterion(1, ok,
              f"offdiag residual {worst_off:.2e} (tol 1e-12), "
              f"derived-diagonal residual {worst_diag:.2e} (tol 1e-12), "
              f"printed-diagonal discrepancy {printed_gap:.2e} documented")


def test_criterion_2_spectrum_sharing():
    """Sorted eigenvalues of H equal those of -W (dense nonsymmetric oracle)."""
    rng = np.random.default_rng(1123)
    betas = (0.3, 0.7, 1.2)
    rules = ("heat-bath", "metropolis")
    worst = 0.0
    for trial in range(20):
        n = int(rng.integers(2, 7))
        h0 = random_model(rng, n)
        beta = betas[trial % 3]
        rule = rules[trial % 2]
        W = cq.build_generator(h0, beta, rule)
        H = cq.classical_to_quantum(h0, beta, rule)
        hvals = np.sort(np.linalg.eigvalsh(H.matrix.toarray()))
        wvals = np.sort(scipy.linalg.eigvals(-W.matrix.toarray()).real)
        worst = max(worst, float(np.abs(hvals - wvals).max()))
    ok = worst <= 1e-8
    criterion(2, ok, f"20 instances, worst eigenvalue deviation {worst:.2e} (tol 1e-8)")


def test_criterion_3_stationarity_and_detailed_balance():
    """Every constructed generator: W.gibbs = 0, detailed balance, zero columns."""
    rng = np.random.default_rng(2711)
    cases = [(cq.chain(n), beta, rule)
             for n in (2, 3, 4, 5, 6)
             for beta in (0.4, 1.0)
             for rule in ("heat-bath", "metropolis")]
    cases += [(random_model(rng, n), 0.8, rule)
              for n in (3, 4, 5) for rule in ("heat-bath", "metropolis")]
    worst_col = worst_db = worst_stat = 0.0
    for h0, beta, rule in cases:
        W = cq.build_generator(h0, beta, rule)
        report = cq.verify_dynamics(W, cq.gibbs_distribution(h0, beta), tol=1e-12)
        worst_col = max(worst_col, report.column_sum_residual)
        worst_db = max(worst_db, report.detailed_balance_residual)
        worst_stat = max(worst_stat, report.stationarity_residual)
    ok = worst_col <= 1e-12 and worst_db <= 1e-12 and worst_stat <= 1e-12
    criterion(3, ok,
              f"{len(cases)} generators: colsum {worst_col:.2e}, "
              f"detailed balance {worst_db:.2e}, stationarity {worst_stat:.2e} "
              "(tol 1e-12)")


def test_criterion_4_roundtrip_identity():
    """q2c(c2q(...)) recovers beta*H0 up to a constant and W entrywise."""
    rng = np.random.default_rng(4231)
    cases = [(cq.chain(4), 1.0, "heat-bath"), (cq.chain(6), 0.5, "heat-bath"),
             (cq.chain(8), 0.7, "heat-bath"),
             (random_model(rng, 3), 1.2, "metropolis"),
             (random_model(rng, 5), 0.6, "heat-bath"),
             (random_model(rng, 8), 0.4, "metropolis")]
    worst_c = worst_w = 0.0
    for h0, beta, rule in cases:
        report = cq.roundtrip_check(h0, beta, rule)
        worst_c = max(worst_c, report.coefficient_residual)
        worst_w = max(worst_w, report.generator_residual)
    ok = worst_c <= 1e-8 and worst_w <= 1e-8
    criterion(4, ok,
              f"{len(cases)} round trips: coefficient residual {worst_c:.2e}, "
              f"generator residual {worst_w:.2e} (tol 1e-8)")


def test_criterion_5_many_body_emergence():
    """q2c of the transverse-field chain grows a 4-body coupling."""
    h0 = cq.chain(4)
    H = cq.transverse_field_hamiltonian(h0, 1.0)
    result = cq.quantum_to_classical(H)
    c4 = dense_coefficients(result.model)[0b1111]

    # independent oracle: dense 16x16 diagonalization and explicit character sum
    dense = H.matrix.toarray()
    _, vecs = np.linalg.eigh(dense)
    phi = np.abs(vecs[:, 0])
    idx = np.arange(16)
    chars = 1.0 - 2.0 * (np.bitwise_count(idx & 0b1111) & 1)
    oracle_c4 = (-2.0 * np.log(phi)) @ chars / 16.0

    W = result.generator
    col = float(np.abs(np.asarray(W.sum(axis=0))).max())
    coo = W.tocoo()
    offmin = float(coo.data[coo.row != coo.col].min())
    ok = (abs(c4) > 1e-6 and abs(c4 - oracle_c4) < 1e-10
          and col <= 1e-10 and offmin >= -1e-12)
    criterion(5, ok,
              f"order-4 coefficient {c4:.6f} (>1e-6, oracle agrees to "
              f"{abs(c4 - oracle_c4):.1e}), W' colsum {col:.2e} (tol 1e-10), "
              f"offdiag min {offmin:.2e} (tol -1e-12)")


def test_criterion_6_relaxation_consistency():
    """Measured decay rate toward Gibbs equals spectral lambda_1 within 5%."""
    rng = np.random.default_rng(6007)
    cases = [(cq.chain(4), 0.7), (cq.chain(5), 0.5), (cq.chain(6), 1.0),
             (random_model(rng, 5), 0.8)]
    worst_rel = 0.0
    for h0, beta in cases:
        H = mapped(h0, beta)
        lam1 = cq.dense_spectrum(H).eigenvalues[1]
        provider = cq.constant_provider(h0, beta)
        dim = 1 << h0.n
        p0 = np.zeros(dim)
        p0[int(np.argmin(cq.energy_table(h0)))] = 1.0
        window = np.linspace(2.0 / lam1, 4.0 / lam1, 9)
        traj = cq.integrate_master(provider, p0, np.concatenate([[0.0], window]))
        slope = np.polyfit(window, np.log(traj.l1_to_equilibrium[1:]), 1)[0]
        worst_rel = max(worst_rel, abs(-slope - lam1) / lam1)
    ok = worst_rel <= 0.05
    criterion(6, ok,
              f"{len(cases)} fixed-beta runs, worst decay-rate mismatch "
              f"{100 * worst_rel:.2f}% (tol 5%)")


def test_criterion_7_gap_scaling_classification():
    """Synthetic fits are exact; the 2D sweep gap shrinks strictly with size.

    Asymptotic exponents are NOT asserted: desk-scale sizes cannot confirm
    them, only the classification machinery is checked.
    """
    poly = fit_scaling([(N, float(N) ** 2) for N in (4, 8, 16)])
    expo = fit_scaling([(N, float(np.exp(0.5 * N))) for N in (4, 8, 12)])
    fits_ok = (abs(poly.poly_exponent - 2.0) <= 1e-10
               and poly.preferred == "polynomial"
               and abs(expo.exp_rate - 0.5) <= 1e-10
               and expo.preferred == "exponential")

    rows = gap_scaling_sweep({"kind": "grid"}, [2, 3, 4], 0.44, "heat-bath")
    gaps = [row.gap for row in rows]
    sweep_ok = (all(row.error is None for row in rows)
                and gaps[0] > gaps[1] > gaps[2] > 0.0)
    sweep_fit = fit_scaling(rows)
    ok = fits_ok and sweep_ok and sweep_fit.preferred == "polynomial" \
        and sweep_fit.poly_exponent > 0
    criterion(7, ok,
              f"a={poly.poly_exponent:.12f} b={expo.exp_rate:.12f} (tol 1e-10); "
              f"2D gaps {gaps[0]:.4f} > {gaps[1]:.4f} > {gaps[2]:.4f}; "
              f"sweep classified {sweep_fit.preferred} (a={sweep_fit.poly_exponent:.2f})")


def test_criterion_8_annealing_limits():
    """Sudden-quench baselines, QA horizon monotonicity, and drift budgets.

    The QA ramp uses Gamma: 10 -> 0. With Gamma(0) = 5 the uniform start
    overlaps the instantaneous ground state at only 0.98958, which caps the
    final success below the 0.99 threshold no matter the horizon.
    """
    h0 = cq.chain(4)
    sudden_sa = cq.run_sa(h0, cq.make_schedule("linear", (0.1, 3.0), 1e-6), steps=1)
    sudden_qa = cq.run_qa(h0, cq.make_schedule("linear", (5.0, 0.0), 1e-6), steps=1)
    sudden_ok = (abs(sudden_sa.final_success - 0.125) <= 1e-3
                 and abs(sudden_qa.final_success - 0.125) <= 1e-3)

    successes = []
    drifts = []
    for horizon in (25.0, 50.0, 100.0):
        sched = cq.make_schedule("linear", (10.0, 0.0), horizon)
        result = cq.run_qa(h0, sched, steps=50)
        successes.append(result.final_success)
        drifts.append(result.norm_drift)
    monotone_ok = (successes[1] >= successes[0] - 1e-3
                   and successes[2] >= successes[1] - 1e-3)
    threshold_ok = successes[2] > 0.99

    # double-resolution oracle run confirms the T=100 value is converged
    confirm = cq.run_qa(h0, cq.make_schedule("linear", (10.0, 0.0), 100.0),
                        steps=50, refine=2.0)
    converged_ok = abs(confirm.final_success - successes[2]) < 1e-6

    sa = cq.run_sa(h0, cq.make_schedule("linear", (0.1, 3.0), 50.0), steps=100)
    drift_ok = max(drifts) <= 1e-8 and sa.norm_drift <= 1e-9

    ok = sudden_ok and monotone_ok and threshold_ok and converged_ok and drift_ok
    criterion(8, ok,
              f"sudden SA/QA {sudden_sa.final_success:.5f}/{sudden_qa.final_success:.5f} "
              f"(target 0.125 +- 1e-3); QA successes {successes[0]:.5f} -> "
              f"{successes[1]:.5f} -> {successes[2]:.5f} (nondecreasing, "
              f">0.99 at T=100, double-resolution delta "
              f"{abs(confirm.final_success - successes[2]):.1e}); "
              f"QA norm drift {max(drifts):.1e} (tol 1e-8), "
              f"SA normalization drift {sa.norm_drift:.1e} (tol 1e-9)")


def test_criterion_9_two_state_analytics():
    """Single-spin heat bath: exact unit rate sum and closed-form relaxation."""
    provider = cq.constant_provider(cq.ClassicalHamiltonian(1, [], []), 1.0)
    t_grid = np.array([0.0, 0.5, 1.0, 2.0])
    states, _, _ = grid_states(provider, np.array([1.0, 0.0]), t_grid)
    expected = 0.5 + 0.5 * np.exp(-t_grid)
    relax_err = float(np.abs(states[:, 0] - expected).max())

    worst_lam = 0.0
    for h in (0.0, 0.3, 1.0, 2.5):
        h0 = cq.build_model({"n": 1, "terms": [{"sites": [0], "h": h}]}) \
            if h else cq.ClassicalHamiltonian(1, [], [])
        for beta in (0.5, 1.0, 2.0):
            W = cq.build_generator(h0, beta, "heat-bath")
            lam1 = np.sort(np.linalg.eigvals(-W.matrix.toarray()).real)[1]
            worst_lam = max(worst_lam, abs(lam1 - 1.0))
    ok = relax_err <= 1e-6 and worst_lam <= 1e-12
    criterion(9, ok,
              f"closed-form relaxation error {relax_err:.2e} (tol 1e-6), "
              f"|lambda_1 - 1| {worst_lam:.2e} over all fields (tol 1e-12)")
