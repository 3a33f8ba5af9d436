"""Simulated vs quantum annealing at desk scale.

SA integrates the master equation while beta(t) rises along a schedule; QA
integrates the Schroedinger equation i dpsi/dt = [diag(E) - Gamma(t) sum_j
sx_j] psi while the transverse field drops to zero. Both start from the
uniform state (infinite temperature / infinite field limit) and report the
ground-space probability and the residual energy along the run.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import io as cqio
from .dynamics import GeneratorProvider, check_grid, integrate_master
from .errors import IntegrationError, ResourceLimitError, ValidationError
from .model import MAX_STEPS, energy_table, ground_space

MAX_ANNEAL_SPINS = 12

SCHEDULE_KINDS = ("linear", "power", "logarithmic")

# QA: substep h with (|E|_max + n |Gamma|) h <= _QA_THETA, each substep a
# Yoshida triple jump of Strang splittings (weights w1, w0 = 1 - 2 w1).
_QA_THETA = 0.125
_YOSHIDA_W1 = 1.0 / (2.0 - 2.0 ** (1.0 / 3.0))
_YOSHIDA_W0 = 1.0 - 2.0 * _YOSHIDA_W1
# The driver factor exp(i angle sum_j sx_j) is applied as one dense
# 2^g x 2^g matrix per group of at most _DRIVER_GROUP spins: smaller groups
# take fewer flops per state but more products. With one BLAS thread, 5
# beat 6 by about 30% at 11 and 12 spins and was level up to 10.
_DRIVER_GROUP = 5
# Substeps per chunk: their 3 driver factors each are made in one go. 16 was
# measured against 8, 32 and 64, also with one group's phases folded in:
# larger chunks hold more factors and ran slower.
_QA_CHUNK = 16
# Substeps whose midpoint fields are made in one Schedule.value call: every
# interval up to this size, and a longer one block by block, so the fields of
# an interval of up to 1e8 substeps are never held at once.
_QA_FIELD_BLOCK = 256 * _QA_CHUNK
_I_POWERS = np.array([1, 1j, -1, -1j] * 2)  # i^d for d <= _DRIVER_GROUP


@dataclass(frozen=True)
class Schedule:
    """Control schedule c(t) on [0, T].

    linear:      c(t) = c0 + (c1 - c0) t / T          params (c0, c1)
    power:       c(t) = c0 (1 - t/T)^p                params (c0, p)
    logarithmic: T_temp(t) = c0 / log(2 + alpha t)    params (c0, alpha)

    The logarithmic kind describes a decreasing *temperature*; consumers that
    need an inverse temperature use 1/value(t).
    """

    kind: str
    params: tuple
    horizon: float

    def value(self, t):
        """c(t) with t clamped to [0, T]: a float for a scalar t, an array of
        the same formula's values for an array of times."""
        if isinstance(t, np.ndarray):
            t, log = np.clip(t, 0.0, self.horizon), np.log
        else:
            t, log = min(max(float(t), 0.0), self.horizon), math.log
        if self.kind == "linear":
            c0, c1 = self.params
            return c0 + (c1 - c0) * t / self.horizon
        if self.kind == "power":
            c0, p = self.params
            return c0 * (1.0 - t / self.horizon) ** p
        c0, alpha = self.params
        return c0 / log(2.0 + alpha * t)

    def initial(self):
        return self.value(0.0)

    def final(self):
        return self.value(self.horizon)


def make_schedule(kind, params, horizon):
    """Validate and build a Schedule; params is a (c0, x) pair per kind."""
    if kind not in SCHEDULE_KINDS:
        raise ValidationError(f"unknown schedule kind {kind!r}")
    if not (isinstance(horizon, (int, float)) and math.isfinite(horizon) and horizon > 0):
        raise ValidationError(f"schedule horizon must be positive, got {horizon!r}")
    params = tuple(float(v) for v in params)
    if len(params) != 2 or not all(math.isfinite(v) for v in params):
        raise ValidationError(f"{kind} schedule needs two finite parameters")
    if kind == "power" and params[1] <= 0:
        raise ValidationError("power schedule needs exponent p > 0")
    if kind == "logarithmic" and (params[0] <= 0 or params[1] <= 0):
        raise ValidationError("logarithmic schedule needs c0 > 0 and alpha > 0")
    if kind == "logarithmic" and not math.isfinite(params[1] * horizon):
        # c0 / log(2 + alpha t) would reach 0 within the horizon.
        raise ValidationError("logarithmic schedule needs a finite alpha * horizon")
    return Schedule(kind, params, float(horizon))


@dataclass
class AnnealResult:
    """Trajectory of success probability and residual energy under a schedule."""

    times: np.ndarray
    control: np.ndarray
    p_ground: np.ndarray
    residual_energy: np.ndarray
    final_success: float
    method: str
    n: int
    ground_energy: float
    norm_drift: float
    schedule: Schedule


def _check_anneal_size(n):
    if n > MAX_ANNEAL_SPINS:
        raise ResourceLimitError(
            f"n={n} exceeds the {MAX_ANNEAL_SPINS}-spin annealing cap"
        )


def run_sa(h0, sched, rule="heat-bath", steps=200):
    """Anneal the master equation from the uniform distribution.

    The schedule provides beta(t) directly (linear/power kinds) or the
    temperature (logarithmic kind, beta = 1/value). beta must be
    nondecreasing over the horizon. Steps are error-controlled (see
    integrate_master). More than 1e8 output intervals raise
    ResourceLimitError before the grid is made.
    """
    _check_anneal_size(h0.n)
    if steps < 1:
        raise ValidationError("steps must be >= 1")
    check_grid(steps + 1)

    if sched.kind == "logarithmic":
        def beta_of_t(t):
            return 1.0 / sched.value(t)
    else:
        beta_of_t = sched.value

    probe = np.array([beta_of_t(t) for t in np.linspace(0.0, sched.horizon, 257)])
    if np.any(probe < 0) or not np.all(np.isfinite(probe)):
        raise ValidationError("beta(t) must be finite and >= 0 on [0, T]")
    if np.any(np.diff(probe) < -1e-9 * max(1.0, np.abs(probe).max())):
        raise ValidationError("SA schedule must have nondecreasing beta(t)")

    provider = GeneratorProvider(h0, beta_of_t, rule)
    dim = 1 << h0.n
    p0 = np.full(dim, 1.0 / dim)
    t_grid = np.linspace(0.0, sched.horizon, steps + 1)
    traj = integrate_master(provider, p0, t_grid)

    gmask, e_gs = ground_space(provider.energies)
    control = np.array([sched.value(t) for t in t_grid])
    residual = traj.mean_energy - e_gs
    return AnnealResult(t_grid, control, traj.p_ground, residual,
                        float(traj.p_ground[-1]), "SA", h0.n, e_gs,
                        traj.norm_drift, sched)


def _driver_groups(n):
    """Split n spins into ceil(n / 5) groups of near-equal size, lowest bits
    first: the group sizes, and per size the 2^size x 2^size table
    ``popcount(a ^ b)``."""
    count = -(-n // _DRIVER_GROUP)
    sizes = [n // count + (i < n % count) for i in range(count)]
    distance = {}
    for size in sizes:
        if size not in distance:
            a = np.arange(1 << size)
            distance[size] = np.bitwise_count(a[:, None] ^ a).astype(np.intp)
    return sizes, distance


def _driver_factors(driver, angles, phases=None):
    """Per group size g, the stack (len(angles), 2^g, 2^g) of
    exp(i angle sx)^(x g), one matrix per angle.

    exp(i angle sx) is R = c + i s sx, so R^(x g) has entry (a, b)
    c^(g - d) (i s)^d with d = popcount(a ^ b): the powers of all angles
    at once, then one gather by the popcount table. ``driver`` is
    _driver_groups(n). With one group, ``phases`` (len(angles), 2^n) folds
    in the diagonal phase that follows each rotation: factor k is
    diag(phases[k]) R^(x n), the gathered matrix with row a scaled by
    phases[k, a].
    """
    _, distance = driver
    # Row d of cos_d, sin_d holds the d-th power, by repeated products:
    # numpy's float pow rounds with a bias that shows in the norm drift.
    # Angles run along the rows, so each product is one long loop.
    base = np.empty((max(distance) + 1, 2, angles.size))
    base[0] = 1.0
    base[1:, 0] = np.cos(angles)
    base[1:, 1] = np.sin(angles)
    cos_d, sin_d = np.cumprod(base, axis=0).transpose(1, 0, 2)
    factors = {}
    for size, table in distance.items():
        # Column d: c^(size - d) s^d i^d.
        powers = (cos_d[size::-1] * sin_d[:size + 1] * _I_POWERS[:size + 1, None]).T
        # take, not [:, table]: that result has the angle axis innermost,
        # and a strided factor makes every product slower.
        factors[size] = powers.take(table, axis=1)
        if phases is not None:
            factors[size] *= phases[:, :, None]
    return factors


def _rotate_driver(psi, driver, factors, k):
    """exp(+i angle_k sum_j sx_j) psi, by factor k of _driver_factors: per
    group, one 2-D product on psi's lowest group bits, whose result holds
    those bits at the top. So the groups cycle through the lowest bits and
    the last one leaves every bit where it started. Returns a new array."""
    sizes, _ = driver
    for size in sizes:
        psi = factors[size][k] @ psi.reshape(-1, 1 << size).T
    return psi.reshape(-1)


def run_qa(h0, sched, steps=200, *, refine=1.0):
    """Anneal the Schroedinger equation with a uniform transverse-field driver.

    Starts from the uniform superposition (the driver ground state in the
    large-field limit); the schedule must end at Gamma(T) = 0. Substeps are
    fourth-order split-operator steps (Yoshida triple jump of Strang steps
    with Gamma at each midpoint) built from exact factors: the diagonal
    phases, and the driver as one dense factor per group of at most 5 spins
    (_rotate_driver). With one group (n <= 5) each phase is folded into the
    rotation before it, so a rotation is one matrix-vector product. An
    interval's midpoint fields are made in one call, and its substeps run
    in chunks of 16, whose driver factors are made in one go. So the norm is
    kept to roundoff; (max|E| + n |Gamma|) h <= 0.125, with at least one
    substep per output interval. ``refine``
    multiplies the substep count (for convergence checks at finer
    resolution). A substep rate refine * (max|E| + n max(|Gamma(0)|,
    |Gamma(T)|)) / 0.125 that overflows raises ValidationError before any
    work. Runs that could take more than 1e8 substeps, counted as steps + T
    times that rate, raise ResourceLimitError before any work (a field that
    is 0 throughout takes no substeps), and so do more than 1e8 output
    intervals. A norm drift beyond 1e-6 raises IntegrationError.
    """
    _check_anneal_size(h0.n)
    if steps < 1:
        raise ValidationError("steps must be >= 1")
    check_grid(steps + 1)
    if not refine >= 1.0:  # also refuses NaN, which would slip past the substep cap
        raise ValidationError(f"refine must be >= 1, got {refine!r}")
    gamma0, gamma_end = sched.initial(), sched.final()
    if abs(gamma_end) > 1e-9 * max(1.0, abs(gamma0)):
        raise ValidationError(
            f"QA schedule must reach Gamma(T) = 0, got {gamma_end!r}"
        )

    energies = energy_table(h0)
    gmask, e_gs = ground_space(energies)
    e_scale = float(np.abs(energies).max())
    # Schedules are monotone: a field that starts and ends at 0 is 0 throughout,
    # and every interval is exact phase propagation with no substeps.
    field = max(abs(gamma0), abs(gamma_end))
    rate = refine * (e_scale + h0.n * field) / _QA_THETA if field else 0.0
    if not math.isfinite(rate):
        raise ValidationError(
            f"the QA substep rate is not finite (max|E| = {e_scale:.3g}, "
            f"n max|Gamma| = {h0.n * field:.3g}, refine = {refine:.3g})"
        )
    needed = rate * sched.horizon
    # Each interval takes max(1, ceil(x)) <= 1 + x substeps.
    if steps + needed > MAX_STEPS:
        raise ResourceLimitError(
            f"a horizon of {sched.horizon:.6g} over {steps} intervals needs up to "
            f"{steps + needed:.3g} QA substeps (cap {MAX_STEPS:.0e})"
        )
    driver = _driver_groups(h0.n)
    # One group's factor is the whole rotation, so the phase after it folds in.
    folded = len(driver[0]) == 1

    psi = np.full(energies.size, 1.0 / math.sqrt(energies.size), dtype=complex)
    t_grid = np.linspace(0.0, sched.horizon, steps + 1)

    p_ground = np.empty(t_grid.size)
    residual = np.empty(t_grid.size)
    control = np.empty(t_grid.size)
    worst_drift = 0.0

    def record(k, t, state):
        nonlocal worst_drift
        weights = np.abs(state) ** 2
        total = weights.sum()
        worst_drift = max(worst_drift, abs(math.sqrt(total) - 1.0))
        p_ground[k] = weights[gmask].sum() / total
        residual[k] = (weights @ energies) / total - e_gs
        control[k] = sched.value(t)

    record(0, 0.0, psi)
    for k in range(t_grid.size - 1):
        t0, t1 = t_grid[k], t_grid[k + 1]
        if sched.value(t0) == 0.0 and sched.value(t1) == 0.0:
            # Gamma vanishes on the whole interval (schedules are monotone):
            # the Hamiltonian is diagonal, propagate the phases exactly.
            psi = psi * np.exp(-1j * energies * (t1 - t0))
            record(k + 1, t1, psi)
            continue
        # Schedules are monotone, so the endpoint fields bound the interval.
        omega_k = e_scale + h0.n * max(abs(sched.value(t0)), abs(sched.value(t1))) + 1e-12
        substeps = max(1, int(math.ceil(refine * (t1 - t0) * omega_k / _QA_THETA)))
        h = (t1 - t0) / substeps
        tau1, tau0 = _YOSHIDA_W1 * h, _YOSHIDA_W0 * h
        # Adjacent half-phases of consecutive Strang steps are merged, within
        # a substep (inner) and across substeps (joint).
        outer = np.exp(-0.5j * tau1 * energies)
        inner = np.exp(-0.5j * (tau1 + tau0) * energies)
        joint = np.exp(-1j * tau1 * energies)
        taus = np.array([tau1, tau0, tau1])
        midpoints = np.array([0.5 * tau1, 0.5 * h, h - 0.5 * tau1])
        cycle = [inner, inner, joint] * min(_QA_CHUNK, substeps)
        if folded:  # 2^n <= 32 states: one small array of a chunk's phases
            cycle = np.array(cycle)
        psi *= outer
        for first in range(0, substeps, _QA_CHUNK):
            if first % _QA_FIELD_BLOCK == 0:
                block = np.arange(first, min(first + _QA_FIELD_BLOCK, substeps))
                fields = sched.value((t0 + block * h)[:, None] + midpoints)
            count = min(_QA_CHUNK, substeps - first)
            angles = (taus * fields[first % _QA_FIELD_BLOCK:][:count]).ravel()
            phases = cycle[:3 * count]
            if first + count == substeps:
                phases = phases.copy()
                phases[-1] = outer
            if folded:
                (stack,) = _driver_factors(driver, angles, phases).values()
                for factor in stack:
                    psi = factor.dot(psi)  # the same bits as @, with less overhead
                continue
            factors = _driver_factors(driver, angles)
            # Every rotation returns a new array, so the phases go in place.
            for j, phase in enumerate(phases):
                psi = _rotate_driver(psi, driver, factors, j)
                psi *= phase
        record(k + 1, t1, psi)
        if worst_drift > 1e-6:
            raise IntegrationError(
                f"Schroedinger norm drifted by {worst_drift:.3e} (step too large)"
            )

    return AnnealResult(t_grid, control, p_ground, residual,
                        float(p_ground[-1]), "QA", h0.n, e_gs,
                        worst_drift, sched)


@dataclass
class ComparisonReport:
    """Side-by-side final values; carries no verdict."""

    n: int
    sa_final_success: float
    sa_final_residual: float
    sa_horizon: float
    sa_schedule: str
    qa_final_success: float
    qa_final_residual: float
    qa_horizon: float
    qa_schedule: str
    success_delta: float
    residual_delta: float


def compare_runs(sa, qa):
    """Report both anneals over the same model (QA minus SA deltas)."""
    if sa.n != qa.n:
        raise ValidationError(f"model mismatch: SA has n={sa.n}, QA has n={qa.n}")
    if abs(sa.ground_energy - qa.ground_energy) > 1e-9 * max(1.0, abs(sa.ground_energy)):
        raise ValidationError(
            "model mismatch: runs disagree on the ground energy "
            f"({sa.ground_energy!r} vs {qa.ground_energy!r})"
        )
    return ComparisonReport(
        n=sa.n,
        sa_final_success=sa.final_success,
        sa_final_residual=float(sa.residual_energy[-1]),
        sa_horizon=sa.schedule.horizon,
        sa_schedule=_schedule_label(sa.schedule),
        qa_final_success=qa.final_success,
        qa_final_residual=float(qa.residual_energy[-1]),
        qa_horizon=qa.schedule.horizon,
        qa_schedule=_schedule_label(qa.schedule),
        success_delta=qa.final_success - sa.final_success,
        residual_delta=float(qa.residual_energy[-1] - sa.residual_energy[-1]),
    )


def _schedule_label(sched):
    p = ",".join(cqio.format_float(v) for v in sched.params)
    return f"{sched.kind}({p})"


def run_csv(result):
    """CSV columns: time, control_value, p_ground, residual_energy."""
    return cqio.csv_text("time,control_value,p_ground,residual_energy", zip(
        result.times, result.control, result.p_ground, result.residual_energy))


def comparison_json(report):
    return {
        "n": report.n,
        "sa": {
            "final_success": report.sa_final_success,
            "final_residual_energy": report.sa_final_residual,
            "horizon": report.sa_horizon,
            "schedule": report.sa_schedule,
        },
        "qa": {
            "final_success": report.qa_final_success,
            "final_residual_energy": report.qa_final_residual,
            "horizon": report.qa_horizon,
            "schedule": report.qa_schedule,
        },
        "success_delta": report.success_delta,
        "residual_delta": report.residual_delta,
    }
