import json
import re
import shlex
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from cqmap import cli
from cqmap.cli import dispatch, main
from cqmap.mapping import read_hamiltonian
from cqmap.spectral import fit_json, fit_scaling, gap_scaling_sweep

CHAIN4 = {"n": 4, "lattice": {"kind": "chain", "size": [4], "periodic": True, "J": 1.0}}


@pytest.fixture
def chain4(tmp_path):
    path = tmp_path / "chain4.json"
    path.write_text(json.dumps(CHAIN4))
    return str(path)


def run(argv):
    return dispatch(argv)


# ----------------------------------------------------------------- model group

def test_model_validate_ok(chain4):
    outcome = run(["model", "validate", "--model", chain4])
    assert outcome.exit_code == 0
    assert "n=4" in outcome.diagnostics


def test_model_validate_rejects_bad_json(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    outcome = run(["model", "validate", "--model", str(path)])
    assert outcome.exit_code == 1
    assert "model validate" in outcome.diagnostics


def test_model_validate_names_the_description_cap(tmp_path):
    # 2^N tables are capped at 24 spins elsewhere; 30 bounds a description.
    path = tmp_path / "big.json"
    path.write_text(json.dumps({"n": 31}))
    outcome = run(["model", "validate", "--model", str(path)])
    assert outcome.exit_code == 3
    assert "n=31 exceeds the 30-spin cap for model descriptions" in outcome.diagnostics


def test_model_coeffs_writes_csv(chain4, tmp_path):
    out = tmp_path / "coeffs.csv"
    outcome = run(["model", "coeffs", "--model", chain4, "--out", str(out)])
    assert outcome.exit_code == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "mask,order,coefficient"
    assert len(lines) == 5


# --------------------------------------------------------------- dynamics group

def test_dynamics_generator_and_verify(chain4, tmp_path):
    out = tmp_path / "w.txt"
    outcome = run(["dynamics", "generator", "--model", chain4,
                   "--beta", "1.0", "--out", str(out)])
    assert outcome.exit_code == 0
    assert out.read_text().startswith("%%sparse-coordinate real")

    outcome = run(["dynamics", "verify", "--model", chain4, "--beta", "1.0"])
    assert outcome.exit_code == 0
    assert "pass" in outcome.diagnostics


@pytest.mark.parametrize("tol", ["nan", "inf", "-1"])
def test_dynamics_verify_refuses_tolerance_that_is_not_finite_and_nonnegative(chain4, tol):
    # nan used to fail every residual (exit 0, "verify FAIL"), inf to pass any
    outcome = run(["dynamics", "verify", "--model", chain4, "--beta", "1.0", "--tol", tol])
    assert outcome.exit_code == 1
    assert "tol must be finite" in outcome.diagnostics


def test_dynamics_evolve_writes_trajectory(chain4, tmp_path):
    out = tmp_path / "traj.csv"
    outcome = run(["dynamics", "evolve", "--model", chain4, "--beta", "0.5",
                   "--t-final", "2.0", "--points", "5", "--out", str(out)])
    assert outcome.exit_code == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "time,mean_energy,p_ground,l1_distance_to_gibbs"
    assert len(lines) == 6


@pytest.mark.parametrize("t_final, code", [("nan", 1), ("inf", 1), ("1e308", 3)])
def test_dynamics_evolve_refuses_unreachable_times(chain4, tmp_path, t_final, code):
    out = tmp_path / "traj.csv"
    outcome = run(["dynamics", "evolve", "--model", chain4, "--beta", "0.5",
                   "--t-final", t_final, "--out", str(out)])
    assert outcome.exit_code == code, outcome.diagnostics
    assert "dynamics evolve" in outcome.diagnostics
    assert not out.exists()


# -------------------------------------------------------------------- map group

def test_map_c2q_q2c_pipeline(chain4, tmp_path):
    ham = tmp_path / "H.txt"
    outcome = run(["map", "c2q", "--model", chain4, "--beta", "1.0",
                   "--rule", "heat-bath", "--out", str(ham)])
    assert outcome.exit_code == 0
    assert ham.exists()

    report = tmp_path / "q2c.json"
    coeffs = tmp_path / "rec.csv"
    outcome = run(["map", "q2c", "--hamiltonian", str(ham), "--out", str(report),
                   "--coeffs-out", str(coeffs)])
    assert outcome.exit_code == 0
    payload = json.loads(report.read_text())
    assert set(payload) == {"shift", "lambda0", "positivity_margin",
                            "coefficient_histogram", "residuals"}
    assert abs(payload["lambda0"]) < 1e-9
    assert payload["residuals"]["column_sum"] < 1e-10


@pytest.mark.parametrize("beta", ["nan", "inf", "-1"])
def test_map_c2q_rejects_invalid_beta(chain4, tmp_path, beta):
    out = tmp_path / "H.txt"
    outcome = run(["map", "c2q", "--model", chain4, "--beta", beta, "--out", str(out)])
    assert outcome.exit_code == 1
    assert "beta must be finite" in outcome.diagnostics
    assert not out.exists()


def test_map_c2q_gates_on_symmetry_not_flux(tmp_path):
    # Heat-bath rates at beta*dE ~ 25 lose relative accuracy, so the flux
    # residual of W is 3e-8; the mapped H is exactly symmetric.
    grid = tmp_path / "grid.json"
    grid.write_text(json.dumps({"n": 10, "lattice": {"kind": "grid", "size": [2, 5],
                                                     "J": 1.0, "h": 0.1}}))
    outcome = run(["map", "c2q", "--model", str(grid), "--beta", "3",
                   "--out", str(tmp_path / "H.txt")])
    assert outcome.exit_code == 0
    outcome = run(["dynamics", "verify", "--model", str(grid), "--beta", "3"])
    assert outcome.exit_code == 0
    assert outcome.diagnostics.startswith("verify FAIL")


def test_map_q2c_rejects_non_stoquastic(tmp_path):
    ham = tmp_path / "nonstoq.txt"
    ham.write_text(
        "%%sparse-coordinate real\n2 2 4\n"
        "1 1 0.5\n1 2 0.5\n2 1 0.5\n2 2 0.5\n"
    )
    outcome = run(["map", "q2c", "--hamiltonian", str(ham),
                   "--out", str(tmp_path / "r.json")])
    assert outcome.exit_code == 2
    assert "non-stoquastic" in outcome.diagnostics


def test_map_roundtrip_and_chain_oracle(chain4, tmp_path):
    outcome = run(["map", "roundtrip", "--model", chain4, "--beta", "1.0"])
    assert outcome.exit_code == 0

    out = tmp_path / "oracle.txt"
    outcome = run(["map", "chain-oracle", "--n", "4", "--beta", "1.0",
                   "--out", str(out)])
    assert outcome.exit_code == 0
    assert out.exists()


def test_map_chain_oracle_at_large_beta(tmp_path):
    # cosh(1e3) overflows; the sx coefficient tends to -(1 - sz sz)/4
    out = tmp_path / "oracle.txt"
    outcome = run(["map", "chain-oracle", "--n", "4", "--beta", "1e3", "--out", str(out)])
    assert outcome.exit_code == 0
    H = read_hamiltonian(out).matrix.toarray()
    limit = np.zeros((16, 16))
    for state in range(16):
        sz = [1 - 2 * ((state >> j) & 1) for j in range(4)]
        for j in range(4):
            limit[state ^ (1 << j), state] = -(1 - sz[j - 1] * sz[(j + 1) % 4]) / 4
    assert np.array_equal(H - np.diag(np.diag(H)), limit)


def test_map_chain_oracle_resource_guard(tmp_path):
    outcome = run(["map", "chain-oracle", "--n", "30", "--beta", "1.0",
                   "--out", str(tmp_path / "x.txt")])
    assert outcome.exit_code == 3


def _entries(*lines, size="2 2"):
    header = f"%%sparse-coordinate real\n{size} {len(lines)}\n"
    return header + "".join(f"{line}\n" for line in lines)


@pytest.mark.parametrize("text", [
    _entries("1 1 1.0", "1 1 2.0", "2 2 1.0"),
    _entries("1 1 1.0", "1 1 -1.0", "2 2 1.0"),
    _entries("1 1 nan", "2 2 1.0"),
    _entries("1 1 1.0", "2 2 inf"),
    _entries("1 1 1.0", "2 2 1.0", size="2 4"),
    _entries("1 1 1.0", size="x y"),
    _entries("1 one 1.0"),
    _entries(size="0 0"),
    _entries("1 1 0.5", size="1 1"),
    "%%sparse-coordinate real\n2 2 -1\n",
], ids=["duplicate", "cancelling-duplicate", "nan", "inf", "non-square", "size-token",
        "entry-token", "empty", "no-spins", "negative-nnz"])
def test_malformed_coordinate_file_is_validation_error(tmp_path, text):
    ham = tmp_path / "bad.txt"
    ham.write_text(text)
    out = tmp_path / "dense.csv"
    outcome = run(["spectrum", "dense", "--hamiltonian", str(ham), "--out", str(out)])
    assert outcome.exit_code == 1
    assert not out.exists()


@pytest.mark.parametrize("size, code, message", [
    ("2 2 999999999999", 1, "do not fit a 2x2 matrix"),
    ("33554432 33554432 0", 3, "exceeds the 2^24 cap"),
    ("1073741824 1073741824 5", 3, "exceeds the 2^24 cap"),
], ids=["too-many-entries", "25-spins", "30-spins"])
@pytest.mark.parametrize("command", [["map", "q2c"], ["spectrum", "dense"],
                                     ["spectrum", "iterative", "--k", "2"]],
                         ids=["q2c", "dense", "iterative"])
def test_coordinate_size_line_is_checked_before_allocation(tmp_path, command, size, code,
                                                           message):
    ham = tmp_path / "big.txt"
    ham.write_text(f"%%sparse-coordinate real\n{size}\n")
    out = tmp_path / "out"
    tracemalloc.start()
    outcome = run([*command, "--hamiltonian", str(ham), "--out", str(out)])
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    assert outcome.exit_code == code, outcome.diagnostics
    assert message in outcome.diagnostics and not out.exists()
    assert peak < 1 << 20  # nothing of the promised size was allocated


@pytest.mark.parametrize("command", [["map", "q2c"], ["spectrum", "dense"],
                                     ["spectrum", "iterative", "--k", "3"]],
                         ids=["q2c", "dense", "iterative"])
def test_nonsymmetric_coordinate_file_is_refused(tmp_path, command):
    # Triangular with eigenvalues 1, 2, 3 and 4; the symmetric solvers read
    # one triangle and would report -3.518, 1, 2 and 10.518.
    ham = tmp_path / "asym.txt"
    ham.write_text(_entries("1 1 1.0", "2 2 2.0", "3 3 3.0", "4 3 7.0", "4 4 4.0", size="4 4"))
    out = tmp_path / "out"
    outcome = run([*command, "--hamiltonian", str(ham), "--out", str(out)])
    assert outcome.exit_code == 2, outcome.diagnostics
    assert "nonsymmetric: max|H - H^T| / max|H| = 1.000e+00" in outcome.diagnostics
    assert not out.exists()


# --------------------------------------------------------------- spectrum group

@pytest.mark.parametrize("tol", ["nan", "inf"])
def test_map_q2c_refuses_a_non_finite_tol(chain4, tmp_path, tol):
    ham = tmp_path / "H.txt"
    run(["map", "c2q", "--model", chain4, "--beta", "1.0", "--out", str(ham)])
    outcome = run(["map", "q2c", "--hamiltonian", str(ham), "--tol", tol,
                   "--out", str(tmp_path / "r.json")])
    assert outcome.exit_code == 1, outcome.diagnostics
    assert "tol must be finite" in outcome.diagnostics


def test_spectrum_dense_and_iterative(chain4, tmp_path):
    ham = tmp_path / "H.txt"
    run(["map", "c2q", "--model", chain4, "--beta", "1.0", "--out", str(ham)])

    dense_out = tmp_path / "dense.csv"
    outcome = run(["spectrum", "dense", "--hamiltonian", str(ham),
                   "--out", str(dense_out)])
    assert outcome.exit_code == 0
    rows = dense_out.read_text().strip().splitlines()
    assert rows[0] == "index,eigenvalue,residual"
    assert len(rows) == 17
    assert all(row.endswith(",nan") for row in rows[1:])  # LAPACK spectra have no residuals

    iter_out = tmp_path / "iter.csv"
    outcome = run(["spectrum", "iterative", "--hamiltonian", str(ham),
                   "--k", "2", "--out", str(iter_out)])
    assert outcome.exit_code == 0
    dense_gap = float(rows[2].split(",")[1])
    iter_rows = iter_out.read_text().strip().splitlines()
    iter_gap = float(iter_rows[2].split(",")[1])
    assert abs(dense_gap - iter_gap) < 1e-8


@pytest.fixture
def chain8_hamiltonian(tmp_path):
    model = tmp_path / "chain8.json"
    model.write_text(json.dumps({"n": 8, "lattice": {"kind": "chain", "size": [8]}}))
    ham = tmp_path / "H8.txt"
    assert run(["map", "c2q", "--model", str(model), "--beta", "1.0",
                "--out", str(ham)]).exit_code == 0
    return str(ham)


@pytest.mark.parametrize("flags, message", [
    (["--max-iter", "0"], "max_iter must be >= 1"),
    (["--max-iter", "-3"], "max_iter must be >= 1"),
    (["--tol", "inf"], "tol must be finite"),
    (["--tol", "nan"], "tol must be finite"),
])
def test_spectrum_iterative_refuses_bad_solver_settings(chain8_hamiltonian, tmp_path,
                                                       flags, message):
    out = tmp_path / "s.csv"
    outcome = run(["spectrum", "iterative", "--hamiltonian", chain8_hamiltonian,
                   *flags, "--out", str(out)])
    assert outcome.exit_code == 1, outcome.diagnostics
    assert message in outcome.diagnostics
    assert not out.exists()


def test_spectrum_iterative_reads_a_negative_tol_as_machine_precision(
        chain8_hamiltonian, tmp_path):
    gaps = []
    for tol in ("-1", "0"):
        out = tmp_path / f"s{tol}.csv"
        outcome = run(["spectrum", "iterative", "--hamiltonian", chain8_hamiltonian,
                       "--tol", tol, "--out", str(out)])
        assert outcome.exit_code == 0, outcome.diagnostics
        gaps.append(out.read_text())
    assert gaps[0] == gaps[1]


def test_spectrum_sweep_then_fit(chain4, tmp_path):
    sweep_out = tmp_path / "sweep.csv"
    outcome = run(["spectrum", "sweep", "--family", "chain", "--sizes", "4,5,6",
                   "--beta", "0.5", "--out", str(sweep_out)])
    assert outcome.exit_code == 0

    fit_out = tmp_path / "fit.json"
    outcome = run(["spectrum", "fit", "--table", str(sweep_out),
                   "--out", str(fit_out)])
    assert outcome.exit_code == 0
    payload = json.loads(fit_out.read_text())
    assert payload["preferred"] in ("polynomial", "exponential")


def test_spectrum_sweep_sizes_are_spin_counts(tmp_path):
    # the 9-spin grid row fails (lambda_1 is not resolved at beta=3) and
    # still reports 9 spins, not the side 3
    out = tmp_path / "sweep.csv"
    outcome = run(["spectrum", "sweep", "--family", "grid", "--sizes", "2,3",
                   "--beta", "3", "--h", "0.1", "--out", str(out)])
    assert outcome.exit_code == 0
    rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
    assert [(row[0], row[3]) for row in rows] == [("4", "dense"), ("9", "error")]


def test_spectrum_fit_skips_failed_sweep_rows(tmp_path):
    # The 25-spin row exceeds the operator cap and is written as nan.
    sweep_out, fit_out = tmp_path / "sweep.csv", tmp_path / "fit.json"
    outcome = run(["spectrum", "sweep", "--family", "chain", "--sizes", "4,5,6,25",
                   "--beta", "0.5", "--out", str(sweep_out)])
    assert outcome.exit_code == 0
    assert sweep_out.read_text().splitlines()[-1] == "25,nan,nan,error,nan"
    outcome = run(["spectrum", "fit", "--table", str(sweep_out), "--out", str(fit_out)])
    assert outcome.exit_code == 0, outcome.diagnostics
    rows = gap_scaling_sweep({"kind": "chain"}, [4, 5, 6, 25], 0.5)
    assert json.loads(fit_out.read_text()) == fit_json(fit_scaling(rows))

    header = "size,gap,tau,method,residual\n25,nan,nan,error,nan\n"
    rows_4_6 = "4,0.1,10,dense,0\n6,0.05,20,dense,0\n"
    for body in (rows_4_6, rows_4_6 + "8,0,-1,dense,0\n", rows_4_6 + "8,0,inf,dense,0\n"):
        table = tmp_path / "bad.csv"
        table.write_text(header + body)
        assert run(["spectrum", "fit", "--table", str(table)]).exit_code == 1


def test_spectrum_fit_rejects_two_rows(tmp_path):
    table = tmp_path / "short.csv"
    table.write_text("size,gap,tau,method,residual\n4,0.1,10,dense,0\n6,0.05,20,dense,0\n")
    outcome = run(["spectrum", "fit", "--table", str(table)])
    assert outcome.exit_code == 1


@pytest.mark.parametrize("rows", [
    ["0,0.1,10", "4,0.05,20", "6,0.02,50"],    # log N is -inf
    ["-2,0.1,10", "4,0.05,20", "6,0.02,50"],   # log N is NaN
    ["4,0.1,10", "4,0.05,20", "4,0.02,50"],    # one size: no slope to fit
])
def test_spectrum_fit_refuses_sizes_it_cannot_fit(tmp_path, rows):
    table = tmp_path / "sizes.csv"
    table.write_text("size,gap,tau\n" + "\n".join(rows) + "\n")
    out = tmp_path / "fit.json"
    outcome = run(["spectrum", "fit", "--table", str(table), "--out", str(out)])
    assert outcome.exit_code == 1, outcome.diagnostics
    assert "size" in outcome.diagnostics
    assert not out.exists()


# ----------------------------------------------------------------- anneal group

def test_anneal_sa_qa_compare(chain4, tmp_path):
    sa_out = tmp_path / "sa.csv"
    outcome = run(["anneal", "sa", "--model", chain4, "--schedule", "linear",
                   "--c0", "0.1", "--c1", "2.0", "--horizon", "10",
                   "--steps", "20", "--out", str(sa_out)])
    assert outcome.exit_code == 0
    assert sa_out.read_text().startswith("time,control_value,p_ground,residual_energy")

    qa_out = tmp_path / "qa.csv"
    outcome = run(["anneal", "qa", "--model", chain4, "--schedule", "linear",
                   "--c0", "5.0", "--c1", "0.0", "--horizon", "10",
                   "--steps", "20", "--out", str(qa_out)])
    assert outcome.exit_code == 0

    cmp_out = tmp_path / "cmp.json"
    outcome = run(["anneal", "compare", "--model", chain4,
                   "--beta0", "0.1", "--beta1", "2.0", "--sa-horizon", "10",
                   "--gamma0", "5.0", "--qa-horizon", "10",
                   "--steps", "20", "--out", str(cmp_out)])
    assert outcome.exit_code == 0
    payload = json.loads(cmp_out.read_text())
    assert set(payload) == {"n", "sa", "qa", "success_delta", "residual_delta"}


def test_anneal_sa_rejects_cooling_schedule(chain4, tmp_path):
    outcome = run(["anneal", "sa", "--model", chain4, "--schedule", "linear",
                   "--c0", "2.0", "--c1", "0.1", "--horizon", "10",
                   "--out", str(tmp_path / "x.csv")])
    assert outcome.exit_code == 1


def test_anneal_sa_refuses_span_beyond_step_cap(chain4, tmp_path):
    outcome = run(["anneal", "sa", "--model", chain4, "--schedule", "linear",
                   "--c0", "0.1", "--c1", "2.0", "--horizon", "1e12",
                   "--out", str(tmp_path / "x.csv")])
    assert outcome.exit_code == 3, outcome.diagnostics


def test_anneal_sa_refuses_logarithmic_rate_that_overflows(chain4, tmp_path):
    # alpha * t overflows, so c0 / log(2 + alpha t) would reach 0.
    outcome = run(["anneal", "sa", "--model", chain4, "--schedule", "logarithmic",
                   "--c0", "3", "--alpha", "1e300", "--horizon", "1e10",
                   "--out", str(tmp_path / "x.csv")])
    assert outcome.exit_code == 1, outcome.diagnostics
    assert "finite alpha * horizon" in outcome.diagnostics


@pytest.mark.parametrize("argv", [
    ["dynamics", "evolve", "--beta", "1", "--t-final", "1",
     "--points", "1000000000000000"],
    ["anneal", "sa", "--c0", "0.1", "--c1", "2", "--horizon", "10",
     "--steps", "1000000000000000"],
    ["anneal", "qa", "--c0", "5", "--c1", "0", "--horizon", "10",
     "--steps", "1000000000000000"],
])
def test_grid_beyond_the_step_cap_is_refused_before_allocation(tmp_path, argv):
    # 10^15 grid times would exceed the address space; the size is refused
    # from the argument, before the grid or the provider is made.
    model = tmp_path / "chain2.json"
    model.write_text(json.dumps({"n": 2, "lattice": {"kind": "chain", "size": [2]}}))
    out = tmp_path / "x.csv"
    outcome = run(argv + ["--model", str(model), "--out", str(out)])
    assert outcome.exit_code == 3, outcome.diagnostics
    assert "intervals (cap 1e+08)" in outcome.diagnostics
    assert not out.exists()


def test_evolve_checks_its_grid_before_building_the_provider(chain4, tmp_path, monkeypatch):
    def unreachable(*args, **kwargs):
        raise AssertionError("reached past the grid check")

    monkeypatch.setattr(cli.dynamics, "MAX_STEPS", 10)
    monkeypatch.setattr(cli.dynamics, "constant_provider", unreachable)
    monkeypatch.setattr(np, "linspace", unreachable)
    out = tmp_path / "x.csv"
    outcome = run(["dynamics", "evolve", "--model", chain4, "--beta", "1",
                   "--t-final", "1", "--points", "12", "--out", str(out)])
    assert outcome.exit_code == 3, outcome.diagnostics
    assert "a grid of 12 times is 11 intervals (cap 1e+01)" in outcome.diagnostics
    assert not out.exists()


def test_memory_error_exits_3_as_out_of_memory(chain4, tmp_path, monkeypatch):
    def exhausted(*args, **kwargs):
        raise MemoryError("stand-in")

    monkeypatch.setattr(cli.dynamics, "constant_provider", exhausted)
    out = tmp_path / "x.csv"
    outcome = run(["dynamics", "evolve", "--model", chain4, "--beta", "1",
                   "--t-final", "1", "--out", str(out)])
    assert outcome.exit_code == 3, outcome.diagnostics
    assert outcome.diagnostics == "dynamics evolve: out of memory (stand-in)"
    assert not out.exists()


def test_anneal_qa_refuses_horizon_beyond_substep_cap(chain4, tmp_path):
    out = tmp_path / "x.csv"
    outcome = run(["anneal", "qa", "--model", chain4, "--schedule", "linear",
                   "--c0", "5", "--c1", "0", "--horizon", "1e12", "--steps", "2",
                   "--out", str(out)])
    assert outcome.exit_code == 3, outcome.diagnostics
    assert "QA substeps" in outcome.diagnostics
    assert not out.exists()


# ------------------------------------------------------------------ diagnostics

@pytest.mark.parametrize("command, text", [
    ("model", json.dumps({"n": True})),
    ("model", json.dumps({"n": 2, "terms": [5]})),
    ("model", json.dumps({"n": 2, "terms": {"a": 1}})),
    ("model", json.dumps({"n": 2, "terms": [{"sites": [0, 1], "c": "x"}]})),
    ("model", json.dumps({"n": 2, "terms": [{"sites": [0, 1], "c": None}]})),
    ("model", json.dumps({"n": 2, "terms": [{"sites": 0, "c": 1.0}]})),
    ("model", json.dumps({"n": 2, "terms": [{"sites": [True], "c": 1.0}]})),
    ("model", json.dumps({"n": 4, "lattice": {"kind": "chain", "size": 4}})),
    ("model", json.dumps({"n": 4, "lattice": {"kind": "grid", "size": 4}})),
    ("model", json.dumps({"n": 4, "lattice": {"kind": "grid", "size": ["x", 2]}})),
    ("model", json.dumps({"n": 4, "lattice": {"kind": "chain", "J": "x"}})),
    ("model", json.dumps({"n": 4, "lattice": [4]})),
    ("csv", "size,gap,tau\n3\n4,0.1,10\n6,0.05,20\n"),
    ("csv", "size,gap,tau\nfour,0.1,10\n4,0.1,10\n6,0.05,20\n"),
], ids=["n-bool", "term-not-object", "terms-not-list", "c-string", "c-null",
        "sites-int", "site-bool", "chain-size-int", "grid-size-int", "grid-size-str",
        "lattice-J-str", "lattice-not-object", "csv-short-row", "csv-non-numeric"])
def test_malformed_model_and_csv_are_validation_errors(tmp_path, command, text):
    path = tmp_path / "input"
    path.write_text(text)
    if command == "model":
        outcome = run(["model", "validate", "--model", str(path)])
    else:
        outcome = run(["spectrum", "fit", "--table", str(path)])
    assert outcome.exit_code == 1, outcome.diagnostics


@pytest.mark.parametrize("lattice, message", [
    ({"kind": "grid", "size": [-1, -4]}, "grid sides must be positive, got -1x-4"),
    ({"kind": "grid", "size": [-2, -2]}, "grid sides must be positive, got -2x-2"),
    ({"kind": "grid", "size": [4, 1], "periodic": "false"}, "periodic must be true or false"),
    ({"kind": "chain", "size": [4], "periodic": "false"}, "periodic must be true or false"),
    ({"kind": "chain", "size": [4], "periodic": 0}, "periodic must be true or false"),
    ({"kind": "chain", "size": [4], "periodic": None}, "periodic must be true or false"),
    ({"kind": "chain", "size": [4.0]}, "chain size [4.0] inconsistent with n=4"),
], ids=["grid-negative-sides", "grid-negative-square", "grid-periodic-str",
        "chain-periodic-str", "chain-periodic-int", "chain-periodic-null", "chain-size-float"])
def test_model_coeffs_refuses_bad_lattice(tmp_path, lattice, message):
    # Negative sides multiply to n and built an empty model; bool("false")
    # built a periodic chain; a chain size of 4.0 equals n=4. All wrote a
    # coefficient file and exited 0.
    path, out = tmp_path / "model.json", tmp_path / "coeffs.csv"
    path.write_text(json.dumps({"n": 4, "lattice": lattice}))
    outcome = run(["model", "coeffs", "--model", str(path), "--out", str(out)])
    assert outcome.exit_code == 1, outcome.diagnostics
    assert message in outcome.diagnostics
    assert not out.exists()


@pytest.mark.parametrize("command", [["map", "c2q"], ["dynamics", "generator"]],
                         ids=["c2q", "generator"])
def test_an_overflowing_energy_table_exits_1_and_writes_nothing(tmp_path, command):
    # Four bonds of -1e308: both commands used to exit 0 with "1 1 nan" in the file.
    path, out = tmp_path / "big.json", tmp_path / "out.txt"
    path.write_text(json.dumps({"n": 4, "lattice": {"kind": "chain", "size": [4], "J": 1e308}}))
    outcome = run([*command, "--model", str(path), "--beta", "1", "--out", str(out)])
    assert outcome.exit_code == 1, outcome.diagnostics
    assert "energy table has a non-finite entry" in outcome.diagnostics
    assert not out.exists()


@pytest.mark.parametrize("command", [
    ["map", "c2q", "--beta", "1"],
    ["dynamics", "generator", "--beta", "1"],
    ["dynamics", "evolve", "--beta", "1", "--t-final", "1", "--points", "3"],
    ["dynamics", "verify", "--beta", "1"],
    ["anneal", "sa", "--c0", "0.1", "--c1", "3", "--horizon", "1", "--steps", "2"],
], ids=["c2q", "generator", "evolve", "verify", "sa"])
def test_an_overflowing_flip_difference_exits_1_and_writes_nothing(tmp_path, command):
    # A field of 1e308 on one spin: finite energies whose flip difference is
    # 2e308. Each command used to exit 0 with a RuntimeWarning: c2q wrote -0
    # flip entries, evolve and sa wrote energies near -1e307.
    path, out = tmp_path / "big.json", tmp_path / "out.txt"
    path.write_text(json.dumps({"n": 1, "terms": [{"sites": [0], "h": 1e308}]}))
    outcome = run([*command, "--model", str(path), "--out", str(out)])
    assert outcome.exit_code == 1, outcome.diagnostics
    assert "flip energy difference is not finite" in outcome.diagnostics
    assert not out.exists()


@pytest.mark.parametrize("command, message", [
    (["anneal", "qa", "--c0", "5", "--c1", "0", "--horizon", "1", "--steps", "2"],
     "QA substep rate is not finite"),
    (["anneal", "compare", "--beta0", "0.1", "--beta1", "3", "--sa-horizon", "1",
      "--gamma0", "5", "--qa-horizon", "1", "--steps", "2"],
     "flip energy difference is not finite"),
], ids=["qa", "compare"])
def test_an_overflowing_qa_substep_rate_exits_1_and_writes_nothing(tmp_path, command, message):
    # A field of 1e308 on one spin: (max|E| + n Gamma) / 0.125 overflows, and
    # QA used to exit 3 with "needs up to inf QA substeps".
    path, out = tmp_path / "big.json", tmp_path / "out.txt"
    path.write_text(json.dumps({"n": 1, "terms": [{"sites": [0], "h": 1e308}]}))
    outcome = run([*command, "--model", str(path), "--out", str(out)])
    assert outcome.exit_code == 1, outcome.diagnostics
    assert message in outcome.diagnostics
    assert not out.exists()


@pytest.mark.parametrize("argv", [["--help"], ["map", "--help"], ["map", "c2q", "--help"]],
                         ids=["top", "group", "command"])
def test_help_at_every_level_is_an_outcome_with_exit_zero(argv, capsys):
    outcome = dispatch(argv)  # raises nothing
    assert outcome.exit_code == 0 and outcome.report_path is None
    assert outcome.diagnostics.startswith(" ".join(["usage: cqmap", *argv[:-1], "[-h]"]))
    assert main(argv) == 0
    out, err = capsys.readouterr()
    assert out == outcome.diagnostics + "\n" and err == ""
    if argv == ["--help"]:
        assert out == cli._build_parser().format_help()


def test_parser_is_built_once_per_process(chain4):
    parser = cli._build_parser()
    assert dispatch(["map", "--help"]).exit_code == 0
    assert dispatch(["transmogrify"]).exit_code == 1
    assert dispatch(["model", "validate", "--model", chain4]).exit_code == 0
    assert cli._build_parser() is parser


def test_unknown_subcommand_is_validation_error():
    outcome = run(["transmogrify"])
    assert outcome.exit_code == 1
    assert outcome.diagnostics


def test_missing_required_flag_is_validation_error(chain4):
    outcome = run(["map", "c2q", "--model", chain4])
    assert outcome.exit_code == 1


def test_nonzero_exit_names_failing_operation(tmp_path):
    outcome = run(["model", "validate", "--model", str(tmp_path / "absent.json")])
    assert outcome.exit_code == 1
    assert "model validate" in outcome.diagnostics


def test_main_prints_success_to_stdout_and_failures_to_stderr(chain4, tmp_path, capsys):
    assert main(["model", "validate", "--model", chain4]) == 0
    out, err = capsys.readouterr()
    assert out.startswith("model ok: n=4") and err == ""

    assert main(["model", "validate", "--model", str(tmp_path / "absent.json")]) == 1
    out, err = capsys.readouterr()
    assert out == "" and "model validate" in err

    big = tmp_path / "big.txt"
    big.write_text("%%sparse-coordinate real\n33554432 33554432 0\n")
    assert main(["map", "q2c", "--hamiltonian", str(big), "--out", str(tmp_path / "r")]) == 3
    out, err = capsys.readouterr()
    assert out == "" and "exceeds the 2^24 cap" in err


def test_outputs_byte_identical_across_runs(chain4, tmp_path):
    a, b = tmp_path / "a.txt", tmp_path / "b.txt"
    for out in (a, b):
        outcome = run(["map", "c2q", "--model", chain4, "--beta", "0.7",
                       "--out", str(out)])
        assert outcome.exit_code == 0
    assert a.read_bytes() == b.read_bytes()

    fa, fb = tmp_path / "fa.json", tmp_path / "fb.json"
    table = tmp_path / "t.csv"
    table.write_text("size,tau\n4,16\n8,64\n16,256\n")
    for out in (fa, fb):
        outcome = run(["spectrum", "fit", "--table", str(table), "--out", str(out)])
        assert outcome.exit_code == 0
    assert fa.read_bytes() == fb.read_bytes()
    assert json.loads(fa.read_text())["a"] == pytest.approx(2.0, abs=1e-10)


def test_no_partial_output_on_failure(tmp_path, chain4):
    # q2c on a truncated file must not leave the report behind
    ham = tmp_path / "trunc.txt"
    ham.write_text("%%sparse-coordinate real\n2 2 3\n1 1 0.5\n")
    report = tmp_path / "r.json"
    outcome = run(["map", "q2c", "--hamiltonian", str(ham), "--out", str(report)])
    assert outcome.exit_code == 1
    assert not report.exists()


def test_map_q2c_leaves_no_output_when_a_later_write_fails(chain4, tmp_path):
    # The report and the coefficient CSV used to stay behind when the
    # generator path could not be written.
    ham = tmp_path / "H.txt"
    assert run(["map", "c2q", "--model", chain4, "--beta", "1.0",
                "--out", str(ham)]).exit_code == 0
    report, coeffs = tmp_path / "r.json", tmp_path / "c.csv"
    outcome = run(["map", "q2c", "--hamiltonian", str(ham), "--out", str(report),
                   "--coeffs-out", str(coeffs),
                   "--generator-out", str(tmp_path / "absent" / "w.txt")])
    assert outcome.exit_code == 1, outcome.diagnostics
    assert "map q2c" in outcome.diagnostics
    assert sorted(p.name for p in tmp_path.iterdir()) == ["H.txt", "chain4.json"]


# The (group, command) pairs of cli.py's module docstring.
COMMANDS = [
    ("model", "validate"), ("model", "coeffs"),
    ("dynamics", "generator"), ("dynamics", "evolve"), ("dynamics", "verify"),
    ("map", "c2q"), ("map", "q2c"), ("map", "roundtrip"), ("map", "chain-oracle"),
    ("spectrum", "dense"), ("spectrum", "iterative"), ("spectrum", "sweep"),
    ("spectrum", "fit"),
    ("anneal", "sa"), ("anneal", "qa"), ("anneal", "compare"),
]


def test_command_list_matches_the_module_docstring():
    lines = [line.split() for line in cli.__doc__.splitlines()
             if line.strip().startswith("cqmap ")]
    documented = [(group, command) for _, group, commands in lines
                  for command in commands.split("|")]
    assert sorted(documented) == sorted(COMMANDS)


@pytest.mark.parametrize("group, command", COMMANDS, ids=" ".join)
def test_every_command_is_registered_with_a_required_flag(group, command):
    outcome = run([group, command])
    assert outcome.exit_code == 1
    assert outcome.diagnostics.startswith(
        f"cqmap {group} {command}: the following arguments are required: --"
    ), outcome.diagnostics


# ----------------------------------------------------------------- README

def readme_block(lang, after):
    """The first fenced ``lang`` block that follows the line ``after``."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    return re.search(rf"```{lang}\n(.*?)```", text[text.index(after):], re.S).group(1)


def test_readme_commands_exit_zero(tmp_path, monkeypatch):
    # The documented commands, run in order on the documented model as chain4.json.
    commands = readme_block("sh", "## CLI").replace("\\\n", " ").splitlines()
    commands = [shlex.split(line) for line in commands if line.strip()]
    assert len(commands) == 16 and all(argv[0] == "cqmap" for argv in commands)
    (tmp_path / "chain4.json").write_text(readme_block("json", "A model description"))
    monkeypatch.chdir(tmp_path)
    for argv in commands:
        outcome = run(argv[1:])
        assert outcome.exit_code == 0, (argv, outcome.diagnostics)
