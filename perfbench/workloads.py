"""The benchmark's workloads: CLI commands plus the gate on their outputs.

Each command is an argv for ``cqmap.cli.dispatch`` and a check. A command
fails when its exit code is not 0 or its check reports a problem. Checks on
fixed inputs compare with ``reference.json`` (values taken from the code as
first benchmarked); checks on seeded inputs test identities that hold for
any seed.
"""

from __future__ import annotations

import csv
import json
import math
import os
from dataclasses import dataclass
from typing import Callable

GAP_TOL = 1e-10          # sweep gaps (ROADMAP item 5)
ANNEAL_TOL = 1e-6        # SA/QA final values (acceptance criterion 8)
LAMBDA0_TOL = 1e-8       # transverse-field q2c ground energy
IDENTITY_TOL = 1e-8      # q2c coefficient identity and round trip (criterion 4)
C2Q_BETA = 0.7


@dataclass
class Command:
    name: str
    argv: list
    outputs: list                       # files the command writes
    observe: Callable[[str], dict] | None  # work dir -> values kept in the reference
    check: Callable[[str, dict, dict], list]  # (work dir, observed, reference) -> problems


def _rows(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def _json(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _close(observed, expected, tol, label):
    problems = []
    for key, want in expected.items():
        got = observed.get(key)
        if got is None or not math.isfinite(got) or abs(got - want) > tol:
            problems.append(f"{label}: {key}={got!r}, reference {want!r}, tol {tol:g}")
    return problems


# gap_sweep -----------------------------------------------------------------

def _observe_sweep(out):
    def observe(work):
        return {row["size"]: {"gap": float(row["gap"]), "method": row["method"]}
                for row in _rows(os.path.join(work, out))}
    return observe


def _check_sweep(work, observed, reference):
    if sorted(observed) != sorted(reference):
        return [f"sweep sizes {sorted(observed)} differ from reference {sorted(reference)}"]
    problems = [f"sweep size {size}: row failed" for size, row in observed.items()
                if row["method"] == "error"]
    gaps = {size: row["gap"] for size, row in observed.items()}
    want = {size: row["gap"] for size, row in reference.items()}
    return problems + _close(gaps, want, GAP_TOL, "sweep gap")


# anneal ----------------------------------------------------------------------

def _observe_compare(work):
    report = _json(os.path.join(work, "compare.json"))
    return {f"{side}_{key}": float(report[side][key])
            for side in ("sa", "qa") for key in ("final_success", "final_residual_energy")}


def _observe_sa(work):
    last = _rows(os.path.join(work, "sa.csv"))[-1]
    return {"final_success": float(last["p_ground"]),
            "final_residual_energy": float(last["residual_energy"])}


def _check_anneal(work, observed, reference):
    return _close(observed, reference, ANNEAL_TOL, "anneal")


# inverse_map -----------------------------------------------------------------

def _check_c2q(work, observed, reference):
    with open(os.path.join(work, "H.txt"), encoding="utf-8") as fh:
        fh.readline()
        size = fh.readline().split()
    n, _ = _model_coefficients(os.path.join(work, "pairs11.json"))
    want = [str(1 << n), str(1 << n), str((n + 1) << n)]
    return [] if size == want else [f"c2q size line {size}, expected {want}"]


def _model_coefficients(model_path):
    with open(model_path, encoding="utf-8") as fh:
        spec = json.load(fh)
    coeffs = {}
    for term in spec["terms"]:
        coeffs[sum(1 << s for s in term["sites"])] = term["c"]
    return spec["n"], coeffs


def _check_q2c_identity(work, observed, reference):
    """The recovered energy is beta*E + const: coefficients of every nonempty
    mask equal beta times the original, and lambda0 is 0."""
    n, original = _model_coefficients(os.path.join(work, "pairs11.json"))
    recovered = {int(r["mask"]): float(r["coefficient"])
                 for r in _rows(os.path.join(work, "recovered.csv"))}
    problems = []
    if len(recovered) != 1 << n:
        problems.append(f"q2c recovered {len(recovered)} coefficients, expected {1 << n}")
    worst = max((abs(c - C2Q_BETA * original.get(mask, 0.0))
                 for mask, c in recovered.items() if mask != 0), default=math.inf)
    if not worst <= IDENTITY_TOL:
        problems.append(f"q2c coefficient identity residual {worst!r} > {IDENTITY_TOL:g}")
    lam0 = float(_json(os.path.join(work, "q2c.json"))["lambda0"])
    if not abs(lam0) <= IDENTITY_TOL:
        problems.append(f"q2c lambda0 {lam0!r} is not 0 within {IDENTITY_TOL:g}")
    return problems


def _observe_tf(work):
    report = _json(os.path.join(work, "tf_q2c.json"))
    return {"lambda0": float(report["lambda0"]),
            "order_counts": {order: entry["count"]
                             for order, entry in report["coefficient_histogram"].items()}}


def _check_tf(work, observed, reference):
    problems = _close({"lambda0": observed["lambda0"]},
                      {"lambda0": reference["lambda0"]}, LAMBDA0_TOL, "tf q2c")
    if observed["order_counts"] != reference["order_counts"]:
        problems.append(f"tf q2c order histogram {observed['order_counts']} "
                        f"differs from reference {reference['order_counts']}")
    return problems


def _check_roundtrip(work, observed, reference):
    report = _json(os.path.join(work, "roundtrip.json"))
    return [f"roundtrip {key} {report[key]!r} > {IDENTITY_TOL:g}"
            for key in ("coefficient_residual", "generator_residual")
            if not float(report[key]) <= IDENTITY_TOL]


def commands(workload, work):
    """The workload's commands, writing into directory ``work``."""
    p = lambda name: os.path.join(work, name)  # noqa: E731
    if workload == "gap_sweep":
        return [
            Command("sweep_chain",
                    ["spectrum", "sweep", "--family", "chain", "--sizes", "14,16,18",
                     "--beta", "0.44", "--out", p("sweep_chain.csv")],
                    ["sweep_chain.csv"], _observe_sweep("sweep_chain.csv"), _check_sweep),
            Command("sweep_grid",
                    ["spectrum", "sweep", "--family", "grid", "--sizes", "3,4",
                     "--beta", "0.44", "--h", "0.1", "--out", p("sweep_grid.csv")],
                    ["sweep_grid.csv"], _observe_sweep("sweep_grid.csv"), _check_sweep),
        ]
    if workload == "anneal":
        return [
            Command("compare",
                    ["anneal", "compare", "--model", p("chain4.json"),
                     "--beta0", "0.1", "--beta1", "3", "--sa-horizon", "50",
                     "--gamma0", "10", "--qa-horizon", "50", "--steps", "50",
                     "--out", p("compare.json")],
                    ["compare.json"], _observe_compare, _check_anneal),
            Command("sa",
                    ["anneal", "sa", "--model", p("chain10_h.json"), "--c0", "0.1",
                     "--c1", "3", "--horizon", "50", "--steps", "100", "--out", p("sa.csv")],
                    ["sa.csv"], _observe_sa, _check_anneal),
        ]
    if workload == "inverse_map":
        beta = str(C2Q_BETA)
        return [
            Command("c2q",
                    ["map", "c2q", "--model", p("pairs11.json"), "--beta", beta,
                     "--out", p("H.txt")],
                    ["H.txt"], None, _check_c2q),
            Command("q2c",
                    ["map", "q2c", "--hamiltonian", p("H.txt"), "--out", p("q2c.json"),
                     "--coeffs-out", p("recovered.csv"), "--generator-out", p("W_rec.txt")],
                    ["q2c.json", "recovered.csv", "W_rec.txt"], None,
                    _check_q2c_identity),
            Command("q2c_tf",
                    ["map", "q2c", "--hamiltonian", p("tf_chain11.txt"),
                     "--out", p("tf_q2c.json")],
                    ["tf_q2c.json"], _observe_tf, _check_tf),
            Command("roundtrip",
                    ["map", "roundtrip", "--model", p("pairs10.json"), "--beta", beta,
                     "--out", p("roundtrip.json")],
                    ["roundtrip.json"], None, _check_roundtrip),
        ]
    raise ValueError(f"unknown workload {workload!r}")


def check(command, work, reference):
    """Problems with one command's outputs; an unreadable output is a problem."""
    if command.observe is not None and command.name not in reference:
        return [f"{command.name}: no reference value"]
    try:
        observed = command.observe(work) if command.observe else {}
        return command.check(work, observed, reference.get(command.name, {}))
    except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
        return [f"{command.name}: unreadable output ({type(exc).__name__}: {exc})"]
