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
import contextlib
import functools
import os
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


class _HelpRequested(Exception):
    """A --help flag: carries the help text, with no trailing newline."""


class _Parser(argparse.ArgumentParser):
    """argparse that raises instead of printing help or calling sys.exit."""

    def error(self, message):
        raise _ArgumentError(f"{self.prog}: {message}")

    def print_help(self, *_):
        raise _HelpRequested(self.format_help().removesuffix("\n"))


# Flags shared by several commands, each a (flag, add_argument keywords) pair.
_MODEL = ("--model", dict(required=True))
_HAMILTONIAN = ("--hamiltonian", dict(required=True))
_BETA = ("--beta", dict(type=float, required=True))
_RULE = ("--rule", dict(default="heat-bath"))
_TOL = ("--tol", dict(type=float, default=1e-12))
_STEPS = ("--steps", dict(type=int, default=200))
_OUT = ("--out", dict(required=True))
_OPTIONAL_OUT = ("--out", {})
_SCHEDULE = (
    ("--schedule", dict(default="linear", choices=list(anneal.SCHEDULE_KINDS))),
    ("--c0", dict(type=float, required=True)),
    ("--c1", dict(type=float, help="linear target value")),
    ("--p", dict(type=float, help="power exponent")),
    ("--alpha", dict(type=float, help="logarithmic rate")),
    ("--horizon", dict(type=float, required=True)),
    _STEPS,
)

_GROUPS = {
    "model": "model description tooling",
    "dynamics": "Markov generators and master-equation runs",
    "map": "classical<->quantum mapping",
    "spectrum": "eigensolves and gap scaling",
    "anneal": "simulated vs quantum annealing",
}

# (group, command) -> (help, arguments, handler), in declaration order.
_COMMANDS = {}


def _command(name, help, *arguments):
    """Register the decorated handler as subcommand ``name`` ("group command")."""
    def register(handler):
        _COMMANDS[tuple(name.split())] = (help, arguments, handler)
        return handler
    return register


@functools.cache
def _build_parser():
    """The parser of every registered command, built once per process:
    parsing leaves no state on it, and building costs far more than a parse."""
    parser = _Parser(prog="cqmap", description=__doc__.splitlines()[0])
    groups = parser.add_subparsers(dest="group", required=True)
    commands = {group: groups.add_parser(group, help=help)
                .add_subparsers(dest="command", required=True)
                for group, help in _GROUPS.items()}
    for (group, name), (help, arguments, _) in _COMMANDS.items():
        p = commands[group].add_parser(name, help=help)
        for flag, keywords in arguments:
            p.add_argument(flag, **keywords)
    return parser


def _schedule_from_args(args):
    flag = {"linear": "c1", "power": "p", "logarithmic": "alpha"}[args.schedule]
    second = getattr(args, flag)
    if second is None:
        raise ValidationError(f"{args.schedule} schedule needs --{flag}")
    return anneal.make_schedule(args.schedule, (args.c0, second), args.horizon)


# --------------------------------------------------------------------------
# handlers: each returns (summary, report_path)


@_command("model validate", "parse a model file and summarize it", _MODEL)
def _cmd_model_validate(args):
    h0 = model.load_model(args.model)
    profile = model.interaction_profile(h0)
    return (
        f"model ok: n={h0.n}, {h0.masks.size} coefficients, "
        f"max order {profile.max_order()}",
        None,
    )


@_command("model coeffs", "dump the coefficient table as CSV", _MODEL, _OUT)
def _cmd_model_coeffs(args):
    h0 = model.load_model(args.model)
    cqio.atomic_write_text(args.out, model.coefficients_csv(h0))
    return f"wrote {h0.masks.size} coefficients", args.out


@_command("dynamics generator", "write the flip generator as sparse coordinates",
          _MODEL, _BETA, _RULE, _OUT)
def _cmd_dynamics_generator(args):
    h0 = model.load_model(args.model)
    W = dynamics.build_generator(h0, args.beta, args.rule)
    dynamics.write_generator(W, args.out)
    return f"generator n={W.n} rule={W.rule} beta={cqio.format_float(W.beta)}", args.out


@_command("dynamics verify", "check column sums, detailed balance, stationarity",
          _MODEL, _BETA, _RULE, _TOL, _OPTIONAL_OUT)
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
    dim = 1 << h0.n
    if spec == "uniform":
        return np.full(dim, 1.0 / dim)
    if spec == "gibbs":
        return model.gibbs_distribution(h0, beta).p
    try:
        index = int(spec)
    except ValueError:
        raise ValidationError(f"--p0 must be 'uniform', 'gibbs' or an index, got {spec!r}")
    if not 0 <= index < dim:
        raise ValidationError(f"--p0 index {index} outside [0, {dim})")
    p = np.zeros(dim)
    p[index] = 1.0
    return p


@_command("dynamics evolve", "integrate dP/dt = W P at fixed beta", _MODEL, _BETA, _RULE,
          ("--t-final", dict(type=float, required=True)),
          ("--points", dict(type=int, default=101)),
          ("--p0", dict(default="uniform", help="'uniform', 'gibbs', or a configuration index")),
          _OUT)
def _cmd_dynamics_evolve(args):
    h0 = model.load_model(args.model)
    if args.points < 2:
        raise ValidationError("--points must be >= 2")
    if not (np.isfinite(args.t_final) and args.t_final > 0):
        raise ValidationError(f"--t-final must be positive and finite, got {args.t_final!r}")
    dynamics.check_grid(args.points)
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


@_command("map c2q", "map a generator to the symmetric Hamiltonian",
          _MODEL, _BETA, _RULE, _OUT)
def _cmd_map_c2q(args):
    h0 = model.load_model(args.model)
    H = mapping.classical_to_quantum(h0, args.beta, args.rule)
    matrix = H.matrix  # built from H's halves on each read
    cqio.write_coordinate(matrix, args.out)
    return f"mapped n={H.n} hamiltonian, nnz={matrix.nnz}", args.out


@_command("map q2c", "invert a stoquastic Hamiltonian to classical dynamics",
          _HAMILTONIAN, _TOL, ("--out", dict(required=True, help="JSON report path")),
          ("--coeffs-out", dict(help="recovered coefficient table CSV")),
          ("--generator-out", dict(help="recovered generator sparse coordinates")))
def _cmd_map_q2c(args):
    H = mapping.read_hamiltonian(args.hamiltonian)
    result = mapping.quantum_to_classical(H, tol=args.tol)
    W = result.generator
    col_resid = float(np.abs(np.asarray(W.sum(axis=0))).max())
    # q2c refuses a reducible H, so W' has an off-diagonal entry.
    offdiag_min = float(W.data[W.indices != cqio.entry_rows(W)].min())
    profile = model.interaction_profile(result.model)
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
    outputs = [(args.out, cqio.json_text(payload) + "\n")]
    if args.coeffs_out:
        outputs.append((args.coeffs_out, model.coefficients_csv(result.model)))
    if args.generator_out:
        outputs.append((args.generator_out, cqio.coordinate_text(W)))
    _write_all(outputs)
    return (
        f"q2c ok: lambda0={cqio.format_float(result.lambda0)} "
        f"margin={cqio.format_float(result.positivity_margin)}",
        args.out,
    )


def _write_all(outputs):
    """Write each (path, text) pair; if one write fails, remove the files
    already written, so a failed command leaves none of its outputs."""
    written = []
    try:
        for path, text in outputs:
            cqio.atomic_write_text(path, text)
            written.append(path)
    except BaseException:
        for path in written:
            with contextlib.suppress(OSError):
                os.unlink(path)
        raise


@_command("map roundtrip", "c2q followed by q2c; report residuals",
          _MODEL, _BETA, _RULE, _OPTIONAL_OUT)
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


@_command("map chain-oracle", "closed-form heat-bath chain Hamiltonian",
          ("--n", dict(type=int, required=True)), _BETA, _OUT)
def _cmd_map_chain_oracle(args):
    H = mapping.heat_bath_chain_closed_form(args.n, args.beta)
    mapping.write_hamiltonian(H, args.out)
    return f"closed-form chain n={args.n} beta={cqio.format_float(args.beta)}", args.out


def _spectrum_csv(result):
    vals, res = result.eigenvalues, result.residual_norms
    rows = zip(range(vals.size), vals, [np.nan] * vals.size if res is None else res)
    return cqio.csv_text("index,eigenvalue,residual", rows)


@_command("spectrum dense", "full symmetric eigendecomposition", _HAMILTONIAN, _OUT)
def _cmd_spectrum_dense(args):
    H = mapping.read_hamiltonian(args.hamiltonian)
    result = spectral.dense_spectrum(H)
    cqio.atomic_write_text(args.out, _spectrum_csv(result))
    return f"dense spectrum: gap={cqio.format_float(result.gap)}", args.out


@_command("spectrum iterative", "lowest-k eigenpairs, Krylov scheme", _HAMILTONIAN,
          ("--k", dict(type=int, default=2)), ("--max-iter", dict(type=int)),
          ("--tol", dict(type=float, default=0.0)), _OUT)
def _cmd_spectrum_iterative(args):
    H = mapping.read_hamiltonian(args.hamiltonian)
    result = spectral.extreme_eigenpairs(H, k=args.k, max_iter=args.max_iter,
                                         tol=args.tol)
    cqio.atomic_write_text(args.out, _spectrum_csv(result))
    return (
        f"{result.method} spectrum ({args.k} pairs): gap={cqio.format_float(result.gap)}",
        args.out,
    )


@_command("spectrum sweep", "gap and relaxation time across sizes",
          ("--family", dict(choices=["chain", "grid"], required=True)),
          ("--sizes", dict(required=True, help="comma-separated (grid: linear sides)")),
          _BETA, _RULE,
          ("--J", dict(type=float, default=1.0)), ("--h", dict(type=float, default=0.0)),
          ("--open-boundary", dict(action="store_true")), _OUT)
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


@_command("spectrum fit", "polynomial vs exponential scaling fit",
          ("--table", dict(required=True)), _OPTIONAL_OUT)
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


@_command("anneal sa", "master-equation anneal over beta(t)",
          _MODEL, _RULE, *_SCHEDULE, _OUT)
def _cmd_anneal_sa(args):
    h0 = model.load_model(args.model)
    sched = _schedule_from_args(args)
    result = anneal.run_sa(h0, sched, args.rule, args.steps)
    cqio.atomic_write_text(args.out, anneal.run_csv(result))
    return f"SA final success {cqio.format_float(result.final_success)}", args.out


@_command("anneal qa", "Schroedinger anneal over Gamma(t)", _MODEL, *_SCHEDULE, _OUT)
def _cmd_anneal_qa(args):
    h0 = model.load_model(args.model)
    sched = _schedule_from_args(args)
    result = anneal.run_qa(h0, sched, args.steps)
    cqio.atomic_write_text(args.out, anneal.run_csv(result))
    return f"QA final success {cqio.format_float(result.final_success)}", args.out


@_command("anneal compare", "run SA and QA on one model, report both", _MODEL, _RULE,
          ("--beta0", dict(type=float, required=True)),
          ("--beta1", dict(type=float, required=True)),
          ("--sa-horizon", dict(type=float, required=True)),
          ("--gamma0", dict(type=float, required=True)),
          ("--qa-horizon", dict(type=float, required=True)),
          _STEPS, _OUT)
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


def dispatch(argv):
    """Run one subcommand; map failures onto the exit-code taxonomy, --help to 0."""
    opname = "cqmap"
    try:
        args = _build_parser().parse_args(argv)
        opname = f"{args.group} {args.command}"
        summary, report_path = _COMMANDS[(args.group, args.command)][2](args)
        return CommandOutcome(EXIT_OK, report_path, summary)
    except _HelpRequested as exc:
        return CommandOutcome(EXIT_OK, None, str(exc))
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
    except UnicodeDecodeError as exc:
        return CommandOutcome(EXIT_VALIDATION, None, f"{opname}: input is not UTF-8 ({exc})")


def main(argv=None):
    outcome = dispatch(sys.argv[1:] if argv is None else list(argv))
    stream = sys.stdout if outcome.exit_code == EXIT_OK else sys.stderr
    print(outcome.diagnostics, file=stream)
    return outcome.exit_code


if __name__ == "__main__":
    sys.exit(main())
