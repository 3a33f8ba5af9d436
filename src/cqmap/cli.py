"""Command-line front end.

Subcommands mirror the library modules one-to-one:

    cqmap model validate|coeffs
    cqmap dynamics generator|evolve|verify
    cqmap map c2q|q2c|roundtrip|chain-oracle
    cqmap spectrum dense|iterative|sweep|fit
    cqmap anneal sa|qa|compare

Exit codes: 0 ok, 1 validation error, 2 numerical failure, 3 resource
error. All numeric output uses 17 significant digits and files are written
atomically, so identical invocations produce byte-identical outputs.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import asdict, dataclass

import numpy as np

from . import anneal, dynamics, io as cqio, mapping, model, spectral
from .errors import CqmapError, ResourceLimitError, ValidationError

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_NUMERICAL = 2
EXIT_RESOURCE = 3


@dataclass
class CommandOutcome:
    exit_code: int
    report_path: str | None
    diagnostics: str


class _ArgumentError(ValidationError):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse that raises instead of calling sys.exit."""

    def error(self, message):
        raise _ArgumentError(f"{self.prog}: {message}")


def _build_parser():
    parser = _Parser(prog="cqmap", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="group", required=True)

    # model ---------------------------------------------------------------
    model_p = sub.add_parser("model", help="model description tooling")
    model_sub = model_p.add_subparsers(dest="command", required=True)

    p = model_sub.add_parser("validate", help="parse a model file and summarize it")
    p.add_argument("--model", required=True)

    p = model_sub.add_parser("coeffs", help="dump the coefficient table as CSV")
    p.add_argument("--model", required=True)
    p.add_argument("--out", required=True)

    # dynamics --------------------------------------------------------------
    dyn_p = sub.add_parser("dynamics", help="Markov generators and master-equation runs")
    dyn_sub = dyn_p.add_subparsers(dest="command", required=True)

    p = dyn_sub.add_parser("generator", help="write the flip generator as sparse coordinates")
    p.add_argument("--model", required=True)
    p.add_argument("--beta", type=float, required=True)
    p.add_argument("--rule", default="heat-bath")
    p.add_argument("--out", required=True)

    p = dyn_sub.add_parser("verify", help="check column sums, detailed balance, stationarity")
    p.add_argument("--model", required=True)
    p.add_argument("--beta", type=float, required=True)
    p.add_argument("--rule", default="heat-bath")
    p.add_argument("--tol", type=float, default=1e-12)
    p.add_argument("--out")

    p = dyn_sub.add_parser("evolve", help="integrate dP/dt = W P at fixed beta")
    p.add_argument("--model", required=True)
    p.add_argument("--beta", type=float, required=True)
    p.add_argument("--rule", default="heat-bath")
    p.add_argument("--t-final", type=float, required=True)
    p.add_argument("--points", type=int, default=101)
    p.add_argument("--p0", default="uniform",
                   help="'uniform', 'gibbs', or a configuration index")
    p.add_argument("--out", required=True)

    # map --------------------------------------------------------------------
    map_p = sub.add_parser("map", help="classical<->quantum mapping")
    map_sub = map_p.add_subparsers(dest="command", required=True)

    p = map_sub.add_parser("c2q", help="map a generator to the symmetric Hamiltonian")
    p.add_argument("--model", required=True)
    p.add_argument("--beta", type=float, required=True)
    p.add_argument("--rule", default="heat-bath")
    p.add_argument("--out", required=True)

    p = map_sub.add_parser("q2c", help="invert a stoquastic Hamiltonian to classical dynamics")
    p.add_argument("--hamiltonian", required=True)
    p.add_argument("--tol", type=float, default=1e-12)
    p.add_argument("--out", required=True, help="JSON report path")
    p.add_argument("--coeffs-out", help="recovered coefficient table CSV")
    p.add_argument("--generator-out", help="recovered generator sparse coordinates")

    p = map_sub.add_parser("roundtrip", help="c2q followed by q2c; report residuals")
    p.add_argument("--model", required=True)
    p.add_argument("--beta", type=float, required=True)
    p.add_argument("--rule", default="heat-bath")
    p.add_argument("--out")

    p = map_sub.add_parser("chain-oracle", help="closed-form heat-bath chain Hamiltonian")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--beta", type=float, required=True)
    p.add_argument("--out", required=True)

    # spectrum ----------------------------------------------------------------
    spec_p = sub.add_parser("spectrum", help="eigensolves and gap scaling")
    spec_sub = spec_p.add_subparsers(dest="command", required=True)

    p = spec_sub.add_parser("dense", help="full symmetric eigendecomposition")
    p.add_argument("--hamiltonian", required=True)
    p.add_argument("--out", required=True)

    p = spec_sub.add_parser("iterative", help="lowest-k eigenpairs, Krylov scheme")
    p.add_argument("--hamiltonian", required=True)
    p.add_argument("--k", type=int, default=2)
    p.add_argument("--max-iter", type=int, default=None)
    p.add_argument("--tol", type=float, default=0.0)
    p.add_argument("--out", required=True)

    p = spec_sub.add_parser("sweep", help="gap and relaxation time across sizes")
    p.add_argument("--family", choices=["chain", "grid"], required=True)
    p.add_argument("--sizes", required=True, help="comma-separated (grid: linear sides)")
    p.add_argument("--beta", type=float, required=True)
    p.add_argument("--rule", default="heat-bath")
    p.add_argument("--J", type=float, default=1.0)
    p.add_argument("--h", type=float, default=0.0)
    p.add_argument("--open-boundary", action="store_true")
    p.add_argument("--out", required=True)

    p = spec_sub.add_parser("fit", help="polynomial vs exponential scaling fit")
    p.add_argument("--table", required=True)
    p.add_argument("--out")

    # anneal --------------------------------------------------------------------
    ann_p = sub.add_parser("anneal", help="simulated vs quantum annealing")
    ann_sub = ann_p.add_subparsers(dest="command", required=True)

    def schedule_args(p):
        p.add_argument("--schedule", default="linear",
                       choices=list(anneal.SCHEDULE_KINDS))
        p.add_argument("--c0", type=float, required=True)
        p.add_argument("--c1", type=float, default=None,
                       help="linear target value")
        p.add_argument("--p", type=float, default=None, help="power exponent")
        p.add_argument("--alpha", type=float, default=None,
                       help="logarithmic rate")
        p.add_argument("--horizon", type=float, required=True)
        p.add_argument("--steps", type=int, default=200)

    p = ann_sub.add_parser("sa", help="master-equation anneal over beta(t)")
    p.add_argument("--model", required=True)
    p.add_argument("--rule", default="heat-bath")
    schedule_args(p)
    p.add_argument("--out", required=True)

    p = ann_sub.add_parser("qa", help="Schroedinger anneal over Gamma(t)")
    p.add_argument("--model", required=True)
    schedule_args(p)
    p.add_argument("--out", required=True)

    p = ann_sub.add_parser("compare", help="run SA and QA on one model, report both")
    p.add_argument("--model", required=True)
    p.add_argument("--rule", default="heat-bath")
    p.add_argument("--beta0", type=float, required=True)
    p.add_argument("--beta1", type=float, required=True)
    p.add_argument("--sa-horizon", type=float, required=True)
    p.add_argument("--gamma0", type=float, required=True)
    p.add_argument("--qa-horizon", type=float, required=True)
    p.add_argument("--steps", type=int, default=200)
    p.add_argument("--out", required=True)

    return parser


def _schedule_from_args(args):
    kind = args.schedule
    if kind == "linear":
        if args.c1 is None:
            raise ValidationError("linear schedule needs --c1")
        params = (args.c0, args.c1)
    elif kind == "power":
        if args.p is None:
            raise ValidationError("power schedule needs --p")
        params = (args.c0, args.p)
    else:
        if args.alpha is None:
            raise ValidationError("logarithmic schedule needs --alpha")
        params = (args.c0, args.alpha)
    return anneal.make_schedule(kind, params, args.horizon)


# --------------------------------------------------------------------------
# handlers: each returns (summary, report_path)


def _cmd_model_validate(args):
    h0 = model.load_model(args.model)
    profile = model.interaction_profile(h0.coeffs)
    return (
        f"model ok: n={h0.n}, {len(h0.coeffs)} coefficients, "
        f"max order {profile.max_order()}",
        None,
    )


def _cmd_model_coeffs(args):
    h0 = model.load_model(args.model)
    cqio.atomic_write_text(args.out, model.coefficients_csv(h0))
    return f"wrote {len(h0.coeffs)} coefficients", args.out


def _cmd_dynamics_generator(args):
    h0 = model.load_model(args.model)
    W = dynamics.build_generator(h0, args.beta, args.rule)
    dynamics.write_generator(W, args.out)
    return f"generator n={W.n} rule={W.rule} beta={cqio.format_float(W.beta)}", args.out


def _cmd_dynamics_verify(args):
    h0 = model.load_model(args.model)
    W = dynamics.build_generator(h0, args.beta, args.rule)
    peq = model.gibbs_distribution(h0, args.beta)
    report = dynamics.verify_dynamics(W, peq, tol=args.tol)
    if args.out:
        cqio.write_json(asdict(report), args.out)
    status = "pass" if report.passed else "FAIL"
    return (
        f"verify {status}: colsum={cqio.format_float(report.column_sum_residual)} "
        f"db={cqio.format_float(report.detailed_balance_residual)} "
        f"stationary={cqio.format_float(report.stationarity_residual)}",
        args.out,
    )


def _parse_p0(spec, h0, beta):
    if spec == "uniform":
        dim = 1 << h0.n
        return np.full(dim, 1.0 / dim)
    if spec == "gibbs":
        return model.gibbs_distribution(h0, beta).p
    try:
        index = int(spec)
    except ValueError:
        raise ValidationError(f"--p0 must be 'uniform', 'gibbs' or an index, got {spec!r}")
    dim = 1 << h0.n
    if not 0 <= index < dim:
        raise ValidationError(f"--p0 index {index} outside [0, {dim})")
    p = np.zeros(dim)
    p[index] = 1.0
    return p


def _cmd_dynamics_evolve(args):
    h0 = model.load_model(args.model)
    if args.points < 2:
        raise ValidationError("--points must be >= 2")
    if not (np.isfinite(args.t_final) and args.t_final > 0):
        raise ValidationError(f"--t-final must be positive and finite, got {args.t_final!r}")
    provider = dynamics.constant_provider(h0, args.beta, args.rule)
    p0 = _parse_p0(args.p0, h0, args.beta)
    t_grid = np.linspace(0.0, args.t_final, args.points)
    traj = dynamics.integrate_master(provider, p0, t_grid)
    cqio.atomic_write_text(args.out, dynamics.trajectory_csv(traj))
    return (
        f"evolved to t={cqio.format_float(args.t_final)}, "
        f"final l1-to-gibbs {cqio.format_float(traj.l1_to_equilibrium[-1])}",
        args.out,
    )


def _cmd_map_c2q(args):
    h0 = model.load_model(args.model)
    H = mapping.classical_to_quantum(h0, args.beta, args.rule)
    mapping.write_hamiltonian(H, args.out)
    return f"mapped n={H.n} hamiltonian, nnz={H.matrix.nnz}", args.out


def _cmd_map_q2c(args):
    H = mapping.read_hamiltonian(args.hamiltonian)
    result = mapping.quantum_to_classical(H, tol=args.tol)
    W = result.generator
    col_resid = float(np.abs(np.asarray(W.sum(axis=0))).max())
    coo = W.tocoo()
    offmask = coo.row != coo.col
    offdiag_min = float(coo.data[offmask].min()) if offmask.any() else 0.0
    profile = model.interaction_profile(result.model.coeffs,
                                        tol=1e-10 * _coeff_scale(result.model))
    payload = {
        "shift": result.lambda0,
        "lambda0": result.lambda0,
        "positivity_margin": result.positivity_margin,
        "coefficient_histogram": {
            str(order): entry for order, entry in profile.orders.items()
        },
        "residuals": {
            "column_sum": col_resid,
            "offdiagonal_min": offdiag_min,
        },
    }
    cqio.write_json(payload, args.out)
    if args.coeffs_out:
        cqio.atomic_write_text(args.coeffs_out, model.coefficients_csv(result.model))
    if args.generator_out:
        cqio.write_coordinate(W, args.generator_out)
    return (
        f"q2c ok: lambda0={cqio.format_float(result.lambda0)} "
        f"margin={cqio.format_float(result.positivity_margin)}",
        args.out,
    )


def _coeff_scale(h0):
    return max((abs(c) for c in h0.coeffs.values()), default=0.0)


def _cmd_map_roundtrip(args):
    h0 = model.load_model(args.model)
    report = mapping.roundtrip_check(h0, args.beta, args.rule)
    if args.out:
        cqio.write_json(asdict(report), args.out)
    return (
        f"roundtrip residuals: coeffs={cqio.format_float(report.coefficient_residual)} "
        f"generator={cqio.format_float(report.generator_residual)}",
        args.out,
    )


def _cmd_map_chain_oracle(args):
    H = mapping.heat_bath_chain_closed_form(args.n, args.beta)
    mapping.write_hamiltonian(H, args.out)
    return f"closed-form chain n={args.n} beta={cqio.format_float(args.beta)}", args.out


def _spectrum_csv(result):
    lines = ["index,eigenvalue,residual"]
    f = cqio.format_float
    res = result.residual_norms
    for i, lam in enumerate(result.eigenvalues):
        r = f(res[i]) if res is not None else "nan"
        lines.append(f"{i},{f(lam)},{r}")
    return "\n".join(lines) + "\n"


def _cmd_spectrum_dense(args):
    H = mapping.read_hamiltonian(args.hamiltonian)
    result = spectral.dense_spectrum(H)
    cqio.atomic_write_text(args.out, _spectrum_csv(result))
    return f"dense spectrum: gap={cqio.format_float(result.gap)}", args.out


def _cmd_spectrum_iterative(args):
    H = mapping.read_hamiltonian(args.hamiltonian)
    result = spectral.extreme_eigenpairs(H, k=args.k, max_iter=args.max_iter,
                                         tol=args.tol)
    cqio.atomic_write_text(args.out, _spectrum_csv(result))
    return (
        f"{result.method} spectrum ({args.k} pairs): gap={cqio.format_float(result.gap)}",
        args.out,
    )


def _cmd_spectrum_sweep(args):
    try:
        sizes = [int(v) for v in args.sizes.split(",") if v.strip()]
    except ValueError:
        raise ValidationError(f"--sizes must be comma-separated integers, got {args.sizes!r}")
    if not sizes:
        raise ValidationError("--sizes is empty")
    family = {"kind": args.family, "periodic": not args.open_boundary,
              "J": args.J, "h": args.h}
    rows = spectral.gap_scaling_sweep(family, sizes, args.beta, args.rule)
    cqio.atomic_write_text(args.out, spectral.sweep_csv(rows))
    failures = sum(1 for r in rows if r.error is not None)
    return f"sweep: {len(rows)} rows, {failures} failures", args.out


def _cmd_spectrum_fit(args):
    pairs = spectral.read_size_tau_csv(args.table)
    fit = spectral.fit_scaling(pairs)
    payload = spectral.fit_json(fit)
    if args.out:
        cqio.write_json(payload, args.out)
    return (
        f"fit: preferred={fit.preferred} a={cqio.format_float(fit.poly_exponent)} "
        f"b={cqio.format_float(fit.exp_rate)}",
        args.out,
    )


def _cmd_anneal_sa(args):
    h0 = model.load_model(args.model)
    sched = _schedule_from_args(args)
    result = anneal.run_sa(h0, sched, args.rule, args.steps)
    cqio.atomic_write_text(args.out, anneal.run_csv(result))
    return f"SA final success {cqio.format_float(result.final_success)}", args.out


def _cmd_anneal_qa(args):
    h0 = model.load_model(args.model)
    sched = _schedule_from_args(args)
    result = anneal.run_qa(h0, sched, args.steps)
    cqio.atomic_write_text(args.out, anneal.run_csv(result))
    return f"QA final success {cqio.format_float(result.final_success)}", args.out


def _cmd_anneal_compare(args):
    h0 = model.load_model(args.model)
    sa_sched = anneal.make_schedule("linear", (args.beta0, args.beta1), args.sa_horizon)
    qa_sched = anneal.make_schedule("linear", (args.gamma0, 0.0), args.qa_horizon)
    sa = anneal.run_sa(h0, sa_sched, args.rule, args.steps)
    qa = anneal.run_qa(h0, qa_sched, args.steps)
    report = anneal.compare_runs(sa, qa)
    cqio.write_json(anneal.comparison_json(report), args.out)
    return (
        f"compare: SA {cqio.format_float(report.sa_final_success)} "
        f"vs QA {cqio.format_float(report.qa_final_success)}",
        args.out,
    )


_HANDLERS = {
    ("model", "validate"): _cmd_model_validate,
    ("model", "coeffs"): _cmd_model_coeffs,
    ("dynamics", "generator"): _cmd_dynamics_generator,
    ("dynamics", "verify"): _cmd_dynamics_verify,
    ("dynamics", "evolve"): _cmd_dynamics_evolve,
    ("map", "c2q"): _cmd_map_c2q,
    ("map", "q2c"): _cmd_map_q2c,
    ("map", "roundtrip"): _cmd_map_roundtrip,
    ("map", "chain-oracle"): _cmd_map_chain_oracle,
    ("spectrum", "dense"): _cmd_spectrum_dense,
    ("spectrum", "iterative"): _cmd_spectrum_iterative,
    ("spectrum", "sweep"): _cmd_spectrum_sweep,
    ("spectrum", "fit"): _cmd_spectrum_fit,
    ("anneal", "sa"): _cmd_anneal_sa,
    ("anneal", "qa"): _cmd_anneal_qa,
    ("anneal", "compare"): _cmd_anneal_compare,
}


def dispatch(argv):
    """Run one subcommand; map failures onto the exit-code taxonomy."""
    opname = "cqmap"
    try:
        args = _build_parser().parse_args(argv)
        opname = f"{args.group} {args.command}"
        summary, report_path = _HANDLERS[(args.group, args.command)](args)
        return CommandOutcome(EXIT_OK, report_path, summary)
    except _ArgumentError as exc:
        return CommandOutcome(EXIT_VALIDATION, None, str(exc))
    except ValidationError as exc:
        return CommandOutcome(EXIT_VALIDATION, None, f"{opname}: {exc}")
    except ResourceLimitError as exc:
        return CommandOutcome(EXIT_RESOURCE, None, f"{opname}: {exc}")
    except MemoryError as exc:
        detail = f" ({exc})" if str(exc) else ""
        return CommandOutcome(EXIT_RESOURCE, None, f"{opname}: out of memory{detail}")
    except CqmapError as exc:
        return CommandOutcome(EXIT_NUMERICAL, None, f"{opname}: {exc}")
    except OSError as exc:
        return CommandOutcome(EXIT_VALIDATION, None, f"{opname}: {exc}")


def main(argv=None):
    outcome = dispatch(sys.argv[1:] if argv is None else list(argv))
    stream = sys.stdout if outcome.exit_code == EXIT_OK else sys.stderr
    print(outcome.diagnostics, file=stream)
    return outcome.exit_code


if __name__ == "__main__":
    sys.exit(main())
