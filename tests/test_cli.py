import json

import numpy as np
import pytest

from cqmap.cli import dispatch

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


def test_dynamics_evolve_writes_trajectory(chain4, tmp_path):
    out = tmp_path / "traj.csv"
    outcome = run(["dynamics", "evolve", "--model", chain4, "--beta", "0.5",
                   "--t-final", "2.0", "--points", "5", "--out", str(out)])
    assert outcome.exit_code == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "time,mean_energy,p_ground,l1_distance_to_gibbs"
    assert len(lines) == 6


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
    # residual of W is 3e-8; the mapped H is still symmetric to 5e-13.
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


def test_map_chain_oracle_resource_guard(tmp_path):
    outcome = run(["map", "chain-oracle", "--n", "30", "--beta", "1.0",
                   "--out", str(tmp_path / "x.txt")])
    assert outcome.exit_code == 3


def _entries(*lines, size="2 2"):
    header = f"%%sparse-coordinate real\n{size} {len(lines)}\n"
    return header + "".join(f"{line}\n" for line in lines)


@pytest.mark.parametrize("text", [
    _entries("1 1 1.0", "1 1 2.0", "2 2 1.0"),
    _entries("1 1 nan", "2 2 1.0"),
    _entries("1 1 1.0", "2 2 inf"),
    _entries("1 1 1.0", "2 2 1.0", size="2 4"),
    _entries("1 1 1.0", size="x y"),
    _entries("1 one 1.0"),
    _entries(size="0 0"),
    _entries("1 1 0.5", size="1 1"),
    "%%sparse-coordinate real\n2 2 -1\n",
], ids=["duplicate", "nan", "inf", "non-square", "size-token", "entry-token",
        "empty", "no-spins", "negative-nnz"])
def test_malformed_coordinate_file_is_validation_error(tmp_path, text):
    ham = tmp_path / "bad.txt"
    ham.write_text(text)
    out = tmp_path / "dense.csv"
    outcome = run(["spectrum", "dense", "--hamiltonian", str(ham), "--out", str(out)])
    assert outcome.exit_code == 1
    assert not out.exists()


# --------------------------------------------------------------- spectrum group

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

    iter_out = tmp_path / "iter.csv"
    outcome = run(["spectrum", "iterative", "--hamiltonian", str(ham),
                   "--k", "2", "--out", str(iter_out)])
    assert outcome.exit_code == 0
    dense_gap = float(rows[2].split(",")[1])
    iter_rows = iter_out.read_text().strip().splitlines()
    iter_gap = float(iter_rows[2].split(",")[1])
    assert abs(dense_gap - iter_gap) < 1e-8


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


def test_spectrum_fit_rejects_two_rows(tmp_path):
    table = tmp_path / "short.csv"
    table.write_text("size,gap,tau,method,residual\n4,0.1,10,dense,0\n6,0.05,20,dense,0\n")
    outcome = run(["spectrum", "fit", "--table", str(table)])
    assert outcome.exit_code == 1


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
