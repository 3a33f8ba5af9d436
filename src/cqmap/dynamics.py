"""Continuous-time single-spin-flip dynamics for Ising models.

The generator W acts on column probability vectors, dP/dt = W P. Columns
index the departure configuration: W[s', s] is the rate of the flip
s -> s' (Hamming distance 1), with unit attempt rate per spin and no 1/N
factor. Diagonals make every column sum to zero.

Flip rules (both satisfy detailed balance w.r.t. the Gibbs distribution):

* heat-bath ("glauber"): w = 1/(1 + exp(beta dE)) = (1 - tanh(beta dE / 2))/2
* metropolis: w = min(1, exp(-beta dE))

with dE the energy change of the proposed flip.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import sparse

from . import io as cqio
from .errors import (
    IntegrationError,
    NumericalError,
    ReducibleOperatorError,
    ResourceLimitError,
    ValidationError,
)
from .model import MAX_OPERATOR_SPINS, check_beta, energy_table, gibbs_from_energies, ground_space

_RULE_ALIASES = {"heat-bath": "heat-bath", "glauber": "heat-bath",
                 "heat_bath": "heat-bath", "metropolis": "metropolis"}

# Fixed-step RK4: substep h chosen so that (spectral bound) * h <= _RK4_THETA.
_RK4_THETA = 0.2


def canonical_rule(rule):
    try:
        return _RULE_ALIASES[rule]
    except KeyError:
        raise ValidationError(
            f"unknown flip rule {rule!r} (expected heat-bath or metropolis)"
        ) from None


@dataclass
class GeneratorMatrix:
    """Sparse master-equation generator tied to a flip rule and temperature."""

    n: int
    matrix: sparse.csr_array
    rule: str
    beta: float


@dataclass
class FlipTable:
    """Per-model cache: energies plus flip targets and dE for every spin."""

    n: int
    energies: np.ndarray   # (2^n,)
    flips: np.ndarray      # (n, 2^n) flip target indices
    delta_e: np.ndarray    # (n, 2^n) E[flip] - E


def flip_table(h0):
    if h0.n > MAX_OPERATOR_SPINS:
        raise ResourceLimitError(
            f"n={h0.n} exceeds the {MAX_OPERATOR_SPINS}-spin cap for generators"
        )
    energies = energy_table(h0).values
    dim = energies.size
    idx = np.arange(dim, dtype=np.int64)
    flips = np.empty((h0.n, dim), dtype=np.int64)
    for j in range(h0.n):
        flips[j] = idx ^ (1 << j)
    delta_e = energies[flips] - energies[None, :]
    return FlipTable(h0.n, energies, flips, delta_e)


def flip_matrix(diag, off):
    """CSR matrix with ``diag`` on the diagonal and ``off[j, s]`` at
    ``(s ^ (1 << j), s)``: the shape of every single-spin-flip operator
    (generators, the transverse-field and closed-form chain Hamiltonians)."""
    n, dim = off.shape
    idx = np.arange(dim, dtype=np.int64)
    masks = np.concatenate(([0], 1 << np.arange(n, dtype=np.int64)))
    rows = (masks[:, None] ^ idx).reshape(-1)
    cols = np.tile(idx, n + 1)
    vals = np.concatenate([diag, off.reshape(-1)])
    return sparse.coo_array((vals, (rows, cols)), shape=(dim, dim)).tocsr()


def flip_rates(table, beta, rule):
    """Flip rate of every (spin, configuration) pair; shape (n, 2^n)."""
    rule = canonical_rule(rule)
    x = beta * table.delta_e
    if rule == "heat-bath":
        return 0.5 * (1.0 - np.tanh(0.5 * x))
    return np.exp(np.minimum(0.0, -x))


def build_generator(h0, beta, rule="heat-bath"):
    """Single-spin-flip generator at fixed inverse temperature."""
    check_beta(beta)
    rule = canonical_rule(rule)
    rates = flip_rates(flip_table(h0), beta, rule)
    return GeneratorMatrix(h0.n, flip_matrix(-rates.sum(axis=0), rates), rule, beta)


@dataclass
class DynamicsReport:
    """Residuals of the structural checks on a generator."""

    column_sum_residual: float
    detailed_balance_residual: float
    stationarity_residual: float
    tol: float
    passed: bool


def relative_asymmetry(matrix):
    """max|M - M^T| / max|M| of a sparse M: 0 if M = 0, NaN if M holds a NaN."""
    scale = abs(matrix).max()
    asym = np.abs((matrix - matrix.T).data).max(initial=0.0)  # copies only the data
    return float(asym / scale) if scale != 0 else 0.0


def verify_dynamics(W, peq, tol=1e-12):
    """Check probability conservation, detailed balance and stationarity.

    Detailed balance is measured on the flux matrix F = W diag(peq) as
    relative_asymmetry(F); the other residuals are absolute.
    Failures are reported, not raised.
    """
    p = peq.p if hasattr(peq, "p") else np.asarray(peq, dtype=float)
    M = W.matrix
    if M.shape[0] != p.size:
        raise ValidationError(
            f"generator dimension {M.shape[0]} does not match distribution size {p.size}"
        )
    col_resid = float(np.abs(np.asarray(M.sum(axis=0))).max())
    db_resid = relative_asymmetry(M.multiply(p[None, :]).tocsr())
    stat_resid = float(np.abs(M @ p).max())
    passed = col_resid <= tol and db_resid <= tol and stat_resid <= tol
    return DynamicsReport(col_resid, db_resid, stat_resid, tol, passed)


class GeneratorProvider:
    """Time-dependent generator with a matrix-free W(t) @ p product.

    Wraps a model plus beta(t); rates are rebuilt from the cached per-flip
    dE whenever the requested time changes.
    """

    def __init__(self, h0, beta_of_t, rule="heat-bath"):
        self.rule = canonical_rule(rule)
        self.table = flip_table(h0)
        self.energies = self.table.energies
        self.n = h0.n
        self._beta_of_t = beta_of_t
        self._cached_beta = None
        self._cached_rates = None
        # Rates are <= 1 per spin, so |eigenvalues| <= 2n (Gershgorin).
        self.spectral_bound = 2.0 * max(self.n, 1)

    def beta(self, t):
        return float(self._beta_of_t(t))

    def _rates(self, t):
        beta = self.beta(t)
        if self._cached_beta != beta:
            self._cached_rates = flip_rates(self.table, beta, self.rule)
            self._cached_beta = beta
        return self._cached_rates

    def apply(self, t, p):
        rates = self._rates(t)
        moved = rates * p[None, :]
        out = np.take_along_axis(moved, self.table.flips, axis=1).sum(axis=0)
        out -= rates.sum(axis=0) * p
        return out

    def equilibrium(self, t):
        return gibbs_from_energies(self.n, self.energies, self.beta(t)).p


def constant_provider(h0, beta, rule="heat-bath"):
    check_beta(beta)
    return GeneratorProvider(h0, lambda t: beta, rule)


class MatrixProvider:
    """Adapter for a prebuilt (possibly non-rule-based) constant generator."""

    def __init__(self, W, h0=None, equilibrium_vector=None):
        self.matrix = W.matrix
        self.n = W.n
        self.energies = energy_table(h0).values if h0 is not None else None
        self.rule = W.rule
        self._beta = W.beta
        self._peq = equilibrium_vector
        if self._peq is None and h0 is not None:
            self._peq = gibbs_from_energies(h0.n, self.energies, W.beta).p
        diag = np.abs(self.matrix.diagonal())
        self.spectral_bound = 2.0 * float(diag.max()) if diag.size else 1.0

    def beta(self, t):
        return self._beta

    def apply(self, t, p):
        return self.matrix @ p

    def equilibrium(self, t):
        return self._peq


@dataclass
class Trajectory:
    """Probability-vector history plus standard observables at grid times."""

    times: np.ndarray
    states: np.ndarray          # (len(times), 2^n)
    mean_energy: np.ndarray
    p_ground: np.ndarray
    l1_to_equilibrium: np.ndarray
    norm_drift: float


def integrate_master(w_of_t, p0, t_grid, *, max_step=None):
    """Integrate dP/dt = W(t) P on a time grid with classical RK4 substeps.

    ``w_of_t`` is a GeneratorProvider/MatrixProvider (use constant_provider
    for fixed beta). Substeps satisfy h * spectral_bound <= 0.2 unless
    ``max_step`` overrides. Column sums of W vanish, so RK4 conserves the
    total probability exactly; drift and positivity are still checked and
    raise IntegrationError when violated.
    """
    provider = w_of_t
    if isinstance(provider, GeneratorMatrix):
        raise ValidationError(
            "wrap a bare GeneratorMatrix in MatrixProvider (observables need the model)"
        )
    t_grid = np.asarray(t_grid, dtype=float)
    if t_grid.ndim != 1 or t_grid.size < 1:
        raise ValidationError("t_grid must be a 1D vector of times")
    if np.any(np.diff(t_grid) <= 0):
        raise ValidationError("t_grid must be strictly increasing")

    p = np.array(p0.p if hasattr(p0, "p") else p0, dtype=float)
    if abs(p.sum() - 1.0) > 1e-9:
        raise ValidationError("initial distribution is not normalized")

    states = np.empty((t_grid.size, p.size))
    states[0] = p
    bound = getattr(provider, "spectral_bound", 1.0)
    h_target = max_step if max_step is not None else _RK4_THETA / max(bound, 1e-30)

    for k in range(t_grid.size - 1):
        t0, t1 = t_grid[k], t_grid[k + 1]
        steps = max(1, int(math.ceil((t1 - t0) / h_target)))
        h = (t1 - t0) / steps
        t = t0
        for _ in range(steps):
            k1 = provider.apply(t, p)
            k2 = provider.apply(t + 0.5 * h, p + 0.5 * h * k1)
            k3 = provider.apply(t + 0.5 * h, p + 0.5 * h * k2)
            k4 = provider.apply(t + h, p + h * k3)
            p = p + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            t += h
            low = p.min()
            if low < -1e-8:
                raise IntegrationError(
                    f"negative probability {low:.3e} at t={t:.6g} (step too large)"
                )
        states[k + 1] = p

    sums = states.sum(axis=1)
    drift = float(np.abs(sums - 1.0).max())
    span = max(1.0, float(t_grid[-1] - t_grid[0]))
    if drift > 1e-9 * span:
        raise IntegrationError(f"probability normalization drifted by {drift:.3e}")

    energies = getattr(provider, "energies", None)
    if energies is not None:
        gmask, _ = ground_space(energies)
        mean_e = states @ energies
        p_ground = states[:, gmask].sum(axis=1)
    else:
        mean_e = np.full(t_grid.size, np.nan)
        p_ground = np.full(t_grid.size, np.nan)
    l1 = np.empty(t_grid.size)
    for k, t in enumerate(t_grid):
        peq = provider.equilibrium(t)
        l1[k] = np.abs(states[k] - peq).sum() if peq is not None else np.nan

    return Trajectory(t_grid, states, mean_e, p_ground, l1, drift)


def relaxation_time(spectrum):
    """tau = 1/lambda_1 from an ascending generator spectrum (of -W or mapped H)."""
    lam = np.asarray(spectrum.eigenvalues, dtype=float)
    if lam.size < 2:
        raise ValidationError("relaxation time needs at least two eigenvalues")
    if abs(lam[0]) > 1e-10:
        raise ValidationError(
            f"leading eigenvalue {lam[0]:.3e} is not a stationary mode (|lambda_0| > 1e-10)"
        )
    # A symmetric Ritz value lies within its residual of an eigenvalue, so an
    # unresolved gap says nothing about reducibility.
    res = getattr(spectrum, "residual_norms", None)
    if res is not None and lam[1] - lam[0] <= res[0] + res[1]:
        raise NumericalError(f"gap {lam[1] - lam[0]:.3e} is within the eigensolver "
                             f"residuals {res[0] + res[1]:.3e}; lambda_1 is not resolved")
    if lam[1] <= 1e-14:
        raise ReducibleOperatorError(
            "degenerate stationary state: lambda_1 <= 1e-14 (reducible chain)"
        )
    return 1.0 / float(lam[1])


def trajectory_csv(traj):
    """CSV columns: time, mean_energy, p_ground, l1_distance_to_gibbs."""
    lines = ["time,mean_energy,p_ground,l1_distance_to_gibbs"]
    f = cqio.format_float
    for k in range(traj.times.size):
        lines.append(
            f"{f(traj.times[k])},{f(traj.mean_energy[k])},"
            f"{f(traj.p_ground[k])},{f(traj.l1_to_equilibrium[k])}"
        )
    return "\n".join(lines) + "\n"


def write_generator(W, path):
    cqio.write_coordinate(W.matrix, path)


def read_generator(path, rule="unknown", beta=float("nan")):
    n, matrix = cqio.read_coordinate(path)
    return GeneratorMatrix(n, matrix, rule, beta)
