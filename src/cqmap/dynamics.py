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
from scipy.sparse import _sparsetools

from . import io as cqio
from .errors import (
    IntegrationError,
    NumericalError,
    ReducibleOperatorError,
    ResourceLimitError,
    ValidationError,
)
from .model import MAX_STEPS, check_beta, energy_table, gibbs_from_energies, ground_space

_RULE_ALIASES = {"heat-bath": "heat-bath", "glauber": "heat-bath",
                 "heat_bath": "heat-bath", "metropolis": "metropolis"}

# Dormand-Prince 5(4) tableau (Dormand & Prince, J. Comput. Appl. Math. 6,
# 19 (1980)). Row 6 of _DP_A holds the fifth-order weights, so the last stage
# of a step is the first stage of the next one (first same as last); _DP_E is
# the fifth- minus fourth-order weights, the embedded local error estimate.
_DP_C = np.array([0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0])
_DP_A = np.zeros((7, 7))
_DP_A[1, :1] = [1 / 5]
_DP_A[2, :2] = [3 / 40, 9 / 40]
_DP_A[3, :3] = [44 / 45, -56 / 15, 32 / 9]
_DP_A[4, :4] = [19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729]
_DP_A[5, :5] = [9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656]
_DP_A[6, :6] = [35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84]
_DP_E = np.array([71 / 57600, 0.0, -71 / 16695, 71 / 1920, -17253 / 339200,
                  22 / 525, -1 / 40])
# Fourth-order continuous extension (Shampine, Math. Comp. 46, 135 (1986)):
# the state at t + theta h is p + h * (_DP_P @ [theta, .., theta^4]) @ stages.
# At theta = 1 it reproduces the fifth-order weights.
_DP_P = np.array([
    [1.0, -8048581381 / 2820520608, 8663915743 / 2820520608,
     -12715105075 / 11282082432],
    [0.0, 0.0, 0.0, 0.0],
    [0.0, 131558114200 / 32700410799, -68118460800 / 10900136933,
     87487479700 / 32700410799],
    [0.0, -1754552775 / 470086768, 14199869525 / 1410260304,
     -10690763975 / 1880347072],
    [0.0, 127303824393 / 49829197408, -318862633887 / 49829197408,
     701980252875 / 199316789632],
    [0.0, -282668133 / 205662961, 2019193451 / 616988883, -1453857185 / 822651844],
    [0.0, 40617522 / 29380423, -110615467 / 29380423, 69997945 / 29380423],
])

# A step is kept when the L1 norm of its error estimate is at most _STEP_TOL.
_STEP_TOL = 1e-10


def canonical_rule(rule):
    try:
        return _RULE_ALIASES[rule]
    except (KeyError, TypeError):  # TypeError: an unhashable rule
        raise ValidationError(
            f"unknown flip rule {rule!r} (expected heat-bath or metropolis)"
        ) from None


@dataclass
class GeneratorMatrix:
    """Single-spin-flip master-equation generator at a flip rule and temperature.

    Held as ``diag`` plus ``off[j, s]`` at ``(s ^ (1 << j), s)``, the flip rate
    of spin j out of configuration s. Its CSR ``matrix`` is built by
    flip_matrix on every read and not kept; the library computes W @ x on
    the flip form instead (flip_apply, GeneratorProvider.apply).
    """

    rule: str
    beta: float
    diag: np.ndarray   # (2^n,)
    off: np.ndarray    # (n, 2^n)

    @property
    def n(self):
        return self.off.shape[0]

    @property
    def matrix(self):
        return flip_matrix(self.n, array_fill(self.diag, self.off))


def flipped(x, j):
    """``x`` read at ``s ^ (1 << j)`` for every configuration ``s``: a strided
    view of shape (2^n / 2^(j+1), 2, 2^j), no copy. ``x.reshape(-1, 2, 1 << j)``
    is the matching unflipped view."""
    return x.reshape(-1, 2, 1 << j)[:, ::-1, :]


@dataclass
class FlipTable:
    """Per-model cache: energies plus dE for every spin."""

    n: int
    energies: np.ndarray   # (2^n,)
    delta_e: np.ndarray    # (n, 2^n) E[s ^ (1 << j)] - E[s]


def flip_delta(energies, j, out):
    """E[s ^ (1 << j)] - E[s] for every s, written into the 2^n vector out.

    A difference that overflows raises ValidationError: finite energies can
    still be too far apart for their flip to have a rate.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        np.subtract(flipped(energies, j), energies.reshape(-1, 2, 1 << j),
                    out=out.reshape(-1, 2, 1 << j))
    check_flip_delta(out)
    return out


def check_flip_delta(delta_e):
    """Refuse a flip energy difference that is not finite (ValidationError)."""
    if not np.isfinite(delta_e).all():
        raise ValidationError("a flip energy difference is not finite: the energies overflow")


def flip_table(h0):
    energies = energy_table(h0)
    delta_e = np.empty((h0.n, energies.size))
    for j, row in enumerate(delta_e):
        flip_delta(energies, j, row)
    return FlipTable(h0.n, energies, delta_e)


def _entry_places(rows, n):
    """Place of every entry of the given rows of a flip matrix within its
    sorted row: shape (n + 1, len(rows)), the diagonal first, spin j at j + 1."""
    ones = np.bitwise_count(rows)
    places = np.empty((n + 1, rows.size), dtype=np.intp)
    places[0] = ones
    for j in range(n):
        # A set bit j comes after the set bits above it; an unset one after the
        # diagonal and the unset bits below it.
        set_above = np.bitwise_count(rows >> (j + 1))
        unset_below = j - np.bitwise_count(rows & ((1 << j) - 1))
        places[j + 1] = np.where((rows >> j) & 1, set_above, ones + 1 + unset_below)
    return places


def read_flipped(x, j, r0, out):
    """Write ``x[r ^ (1 << j)]`` for the rows r0 <= r < r0 + out.size of an
    aligned block into ``out``: a flip inside the block, or the partner
    block's entries in order."""
    block = out.size
    if 1 << j < block:
        out.reshape(-1, 2, 1 << j)[...] = flipped(x[r0:r0 + block], j)
    else:
        out[...] = x[r0 ^ (1 << j):][:block]


def array_fill(diag, off):
    """The block fill of flip_matrix for an operator held as arrays: ``diag``
    on the diagonal and ``off[j, s]`` at ``(s ^ (1 << j), s)``, so row r reads
    ``off[j, r ^ (1 << j)]``. ``off`` may be a broadcast view."""
    def fill(r0, values):
        values[0] = diag[r0:r0 + values.shape[1]]
        for j, row in enumerate(off):
            read_flipped(row, j, r0, values[j + 1])
    return fill


def flip_matrix(n, fill, upper=False):
    """CSR matrix of an n-spin single-spin-flip operator: a diagonal plus one
    entry per spin at ``(r, r ^ (1 << j))``, the shape of generators, mapped,
    transverse-field and closed-form chain Hamiltonians.

    Rows are made in aligned blocks of 4096, whose entries stay in cache:
    ``fill(r0, values)`` writes the rows r0 <= r < r0 + block into the
    (n + 1, block) array ``values``, the diagonal in ``values[0]`` and the
    entry at column r ^ (1 << j) in ``values[j + 1]``. array_fill copies them
    out of ``(diag, off)``; classical_to_quantum and the closed-form chain
    compute them from the energies or the spins, so they hold no n x 2^n
    array.

    Written sorted, with int32 indices and no COO or sort: row r holds its
    n + 1 entries at columns r ^ (1 << j) for the set bits j of r in
    descending j, then r itself at place popcount(r), then the unset bits in
    ascending j. Places add up across aligned blocks: for a block start r0
    and s < 4096, place(r0 + s) = place(s) + place(r0) - place(0).

    A symmetric operator passes upper=True and gets ``(diag, upper)``: the
    2^n diagonal and the strict upper triangle as an int32 CSR, whose row r
    is the tail of the full row, the unset bits in ascending j. The blocks
    are made by the same fill; only the diagonal and the unset-bit entries
    are kept, so each off-diagonal value and index is stored once.
    """
    dim = 1 << n
    width = n + 1
    block = min(dim, 1 << 12)
    local = np.arange(block, dtype=np.int32)
    starts = np.arange(0, dim, block)
    values = np.empty((width, block))
    if upper:
        bits = (1 << np.arange(n, dtype=np.int32))[None, :]
        diag = np.empty(dim)
        indptr = np.zeros(dim + 1, dtype=np.int32)
        np.cumsum(n - np.bitwise_count(np.arange(dim, dtype=np.int32)), dtype=np.int32,
                  out=indptr[1:])
    else:
        base = _entry_places(local, n) + local * width
        shifts = (_entry_places(starts, n) - np.arange(width)[:, None] + starts * width).T
        masks = np.concatenate(([0], 1 << np.arange(n)))[:, None].astype(np.int32)
        indptr = np.arange(0, width * dim + 1, width, dtype=np.int32)
    data = np.empty(indptr[-1])
    indices = np.empty(indptr[-1], dtype=np.int32)
    for i, r0 in enumerate(starts):
        fill(int(r0), values)
        rows = local + np.int32(r0)
        if upper:
            diag[r0:r0 + block] = values[0]
            keep = (rows[:, None] & bits) == 0
            seg = slice(indptr[r0], indptr[r0 + block])
            data[seg] = values[1:].T[keep]
            indices[seg] = (rows[:, None] | bits)[keep]
        else:
            place = base + shifts[i][:, None]
            data[place] = values
            indices[place] = rows ^ masks
    matrix = sparse.csr_array((data, indices, indptr), shape=(dim, dim))
    return (diag, matrix) if upper else matrix


def flip_apply(diag, off, x):
    """flip_matrix(n, array_fill(diag, off)) @ x with no matrix built.

    Each spin's flips ``off[j] * x`` land at ``s ^ (1 << j)`` through a
    flipped view. They are added from 0 in spin order, the rounding of a sum
    over axis 0, and ``diag * x`` comes last; one n x 2^n temporary.
    """
    moved = off * x[None, :]
    out = np.zeros_like(x)
    for j, row in enumerate(moved):
        out.reshape(-1, 2, 1 << j)[...] += flipped(row, j)
    out += diag * x
    return out


def flip_rates(delta_e, beta, rule, out=None):
    """Flip rate of every entry of an energy-change array ``delta_e``, such as
    a flip table's (n, 2^n) ``delta_e`` or one row of it.

    Computed in place in one output array: a new one, or ``out``, which may
    be ``delta_e`` itself.
    """
    rule = canonical_rule(rule)
    x = np.multiply(beta, delta_e, out=out)
    if rule == "heat-bath":  # 0.5 * (1 - tanh(0.5 x))
        x *= 0.5
        np.tanh(x, out=x)
        np.subtract(1.0, x, out=x)
        x *= 0.5
        return x
    np.negative(x, out=x)  # exp(min(0, -x))
    np.minimum(x, 0.0, out=x)
    return np.exp(x, out=x)


def build_generator(h0, beta, rule="heat-bath"):
    """Single-spin-flip generator at fixed inverse temperature, kept as
    ``(diag, off)``; its CSR ``matrix`` is built on each read.

    The rates are made in place in the dE array of a flip table of its own,
    so the build holds one n x 2^n array: off is that array.
    """
    check_beta(beta)
    rule = canonical_rule(rule)
    table = flip_table(h0)
    rates = flip_rates(table.delta_e, beta, rule, out=table.delta_e)
    return GeneratorMatrix(rule, beta, -rates.sum(axis=0), rates)


@dataclass
class DynamicsReport:
    """Residuals of the structural checks on a generator."""

    column_sum_residual: float
    detailed_balance_residual: float
    stationarity_residual: float
    tol: float
    passed: bool


def relative_asymmetry(matrix):
    """max|M - M^T| / max|M| of a canonical sparse M: 0 if M = 0, NaN if M has a NaN."""
    scale = np.abs(matrix.data).max(initial=0.0)
    asym = np.abs((matrix - matrix.T).data).max(initial=0.0)  # copies only the data
    return float(asym / scale) if scale != 0 else 0.0


def flip_asymmetry(diag, off):
    """max|F - F^T| / max|F| of F = flip_matrix(n, array_fill(diag, off)), with
    no matrix built.

    Each off[j, s] at (s ^ (1 << j), s) is compared with its transposed
    partner off[j, s ^ (1 << j)] through a flipped view, one spin at a time;
    the diagonal enters only the scale, so its sign does not matter. For
    finite entries this is relative_asymmetry(F) bit for bit; 0 if F = 0,
    NaN if F holds a NaN.
    """
    asym, peak = [0.0], [np.abs(diag).max()]
    for j, row in enumerate(off):
        asym.append(np.abs(row.reshape(-1, 2, 1 << j) - flipped(row, j)).max())
        peak.append(np.abs(row).max())
    # NaN propagates through both maxima.
    scale = np.max(peak)
    return float(np.max(asym) / scale) if scale != 0 else 0.0


def verify_dynamics(W, peq, tol=1e-12):
    """Check probability conservation, detailed balance and stationarity.

    All three are taken on W's flip form, with no CSR built: the column sums
    are W.diag + sum_j W.off[j], W @ peq is flip_apply, and detailed balance
    is measured on the flux matrix F = W diag(peq) as flip_asymmetry of its
    flip form (W.diag * peq, W.off * peq). The column-sum and stationarity
    residuals are absolute.
    Failures are reported, not raised; a tol that is NaN, infinite or
    negative raises ValidationError.
    """
    if not (math.isfinite(tol) and tol >= 0):
        raise ValidationError(f"tol must be finite and >= 0, got {tol!r}")
    p = peq.p if hasattr(peq, "p") else np.asarray(peq, dtype=float)
    if W.diag.size != p.size:
        raise ValidationError(
            f"generator dimension {W.diag.size} does not match distribution size {p.size}"
        )
    col_resid = float(np.abs(W.diag + W.off.sum(axis=0)).max())
    db_resid = flip_asymmetry(W.diag * p, W.off * p)
    stat_resid = float(np.abs(flip_apply(W.diag, W.off, p)).max())
    passed = col_resid <= tol and db_resid <= tol and stat_resid <= tol
    return DynamicsReport(col_resid, db_resid, stat_resid, tol, passed)


class GeneratorProvider:
    """Time-dependent generator with a matrix-free W(t) @ p product.

    Wraps a model plus beta(t) and holds, once per provider, the flip table
    and W at the last beta asked for as an int32 CSR over destination rows:
    row s holds its n flip entries at columns s ^ (1 << j) in ascending j,
    then its diagonal. ``apply`` is one zeroed output and one csr_matvec,
    which adds the flips into s in spin order and diag * p last: flip_apply's
    sum order, so the product is flip_apply's bit for bit. ``diag`` is W's
    diagonal.

    Only the data are rewritten when beta changes. The flip into s from
    s ^ (1 << j) has the energy change -dE_j(s) exactly, so at the first beta
    the rule is evaluated on -dE^T in place in the data, and diag sums each
    spin's rates out of s. The first time beta changes, the distinct dE are
    found and every later beta evaluates the rule on them alone. Sorted, they
    are a set closed under negation, so the flip into s is class K - 1 - c
    for the class c of dE_j(s): one held index, ``gather``, serves both the
    diagonal, as one csr_matvec of the reversed rates with unit data, and the
    data, as one take. A constant beta never looks for the distinct dE.
    """

    def __init__(self, h0, beta_of_t, rule="heat-bath"):
        self.rule = canonical_rule(rule)
        self.table = flip_table(h0)
        self.energies = self.table.energies
        self.n = n = h0.n
        self._beta_of_t = beta_of_t
        dim = self.energies.size
        states = np.arange(dim, dtype=np.int32)
        self._indices = np.empty((dim, n + 1), dtype=np.int32)
        np.bitwise_xor(states[:, None], 1 << np.arange(n, dtype=np.int32),
                       out=self._indices[:, :n])
        self._indices[:, n] = states
        self._indptr = np.arange(0, (n + 1) * dim + 1, n + 1, dtype=np.int32)
        self._data = np.empty((dim, n + 1))
        self.diag = np.empty(dim)
        self._beta = None       # beta of the held data
        self._distinct = None   # what _find_distinct holds, from the first change of beta
        # Rates are <= 1 per spin, so |eigenvalues| <= 2n (Gershgorin).
        self.spectral_bound = 2.0 * max(n, 1)

    def beta(self, t):
        return float(self._beta_of_t(t))

    def _find_distinct(self):
        """Sort the distinct dE and hold what one beta's data are made from:
        ``gather``, whose row s holds K - 1 - class(dE_j(s)) in ascending j,
        then K + s; unit data and an intp indptr over it; and two vectors of
        K + 2^n, ``forward`` (the rates, then diag, which becomes a view of
        it) and ``backward`` (the rates reversed, then zeros)."""
        delta_e = self.table.delta_e
        values = np.unique(delta_e)
        k, dim = values.size, self.diag.size
        gather = np.empty(self._data.shape, dtype=np.intp)  # intp: take copies any other
        np.subtract(k - 1, np.searchsorted(values, delta_e).T, out=gather[:, :self.n])
        gather[:, self.n] = np.arange(k, k + dim)
        forward = np.empty(k + dim)
        forward[k:] = self.diag
        self.diag = forward[k:]
        self._distinct = (values, gather, self._indptr.astype(np.intp), np.ones(gather.shape),
                          forward, np.zeros(k + dim))

    def _rebuild(self, beta):
        if self._beta is not None and self._distinct is None:
            self._find_distinct()
        if self._distinct is None:
            self._fill_from_delta_e(beta)
        else:
            self._fill_from_distinct(beta)
        self._beta = beta

    def _fill_from_delta_e(self, beta):
        n = self.n
        flips = self._data[:, :n]
        np.negative(self.table.delta_e.T, out=flips)
        flip_rates(flips, beta, self.rule, out=flips)
        self.diag[...] = 0.0
        for j in range(n):  # the rate of spin j out of s is the flip into s ^ (1 << j)
            out_rates = self.diag.reshape(-1, 2, 1 << j)
            out_rates += flipped(flips[:, j], j)
        np.negative(self.diag, out=self.diag)
        self._data[:, n] = self.diag

    def _fill_from_distinct(self, beta):
        values, gather, rows, ones, forward, backward = self._distinct
        k = values.size
        rates = flip_rates(values, beta, self.rule, out=forward[:k])
        # backward[K - 1 - c] is rates[c], the rate out of s; its zeros under
        # K + s add nothing to the diagonal.
        backward[:k] = rates[::-1]
        self.diag[...] = 0.0
        _sparsetools.csr_matvec(self.diag.size, backward.size, rows, gather, ones, backward,
                                self.diag)
        np.negative(self.diag, out=self.diag)
        # forward is the rates, then diag. The gather is in range by
        # construction; mode="raise" would copy through a buffer, and "wrap"
        # was measured faster than "clip".
        forward.take(gather, out=self._data, mode="wrap")

    def apply(self, t, p):
        p = np.asarray(p)
        if p.shape != self.diag.shape:  # csr_matvec reads 2^n entries, unchecked
            raise ValidationError(f"state has shape {p.shape}, expected {self.diag.shape}")
        beta = self.beta(t)
        if beta != self._beta:  # a NaN beta rebuilds every time
            self._rebuild(beta)
        out = np.zeros(self.diag.size)
        _sparsetools.csr_matvec(out.size, out.size, self._indptr, self._indices,
                                self._data, p, out)
        return out

    def equilibrium(self, t):
        return gibbs_from_energies(self.n, self.energies, self.beta(t)).p


def constant_provider(h0, beta, rule="heat-bath"):
    check_beta(beta)
    return GeneratorProvider(h0, lambda t: beta, rule)


@dataclass
class Trajectory:
    """Standard observables of a master-equation run at its grid times."""

    times: np.ndarray
    mean_energy: np.ndarray
    p_ground: np.ndarray
    l1_to_equilibrium: np.ndarray
    norm_drift: float
    steps: int                  # accepted integrator steps
    rejected: int               # steps refused by the error control


def check_grid(times):
    """Refuse an output grid of more than MAX_STEPS intervals; callers that
    make the grid call it with its size before making it."""
    if times - 1 > MAX_STEPS:
        raise ResourceLimitError(
            f"a grid of {times} times is {times - 1} intervals (cap {MAX_STEPS:.0e})"
        )


def _dp5_step(provider, t, p, h, stages):
    """One Dormand-Prince step of size h from (t, p), given stages[0] = W(t) p.

    Writes the other six stages into ``stages``; the last is W(t + h) applied
    to the new state. Returns the fifth-order state and the L1 norm of its
    error estimate. Each stage's state is made in place, the stage sum times
    h plus p: p + h (a @ stages) bit for bit, with no temporaries.
    """
    y = np.empty_like(p)
    times = t + _DP_C * h
    for i in range(1, 7):
        np.dot(_DP_A[i, :i], stages[:i], out=y)
        y *= h
        y += p
        stages[i] = provider.apply(times[i], y)
    err = h * float(np.abs(_DP_E @ stages).sum())
    return y, err


def _grid_states(provider, p, t_grid):
    """integrate_master's steps: yield (state, steps, rejected) per grid time, p first."""
    t_end, span = t_grid[-1], float(t_grid[-1] - t_grid[0])
    steps = rejected = 0
    yield p, steps, rejected
    h_prop = 1.0 / max(provider.spectral_bound, 1e-30)
    t, k = t_grid[0], 1  # k: next grid time to yield
    stages = np.empty((7, p.size))  # held across steps; row 0 is W(t) p
    if t_grid.size > 1:
        stages[0] = provider.apply(t, p)
    while k < t_grid.size:
        # A step within a relative 1e-10 of the remaining time lands on t_end.
        clipped = h_prop >= (t_end - t) * (1.0 - 1e-10)
        h = t_end - t if clipped else h_prop
        y, err = _dp5_step(provider, t, p, h, stages)
        if not math.isfinite(err):
            raise IntegrationError(f"non-finite error estimate at t={t:.6g} (step {h:.3e})")
        factor = 5.0 if err == 0.0 else min(5.0, max(0.2, 0.9 * (_STEP_TOL / err) ** 0.2))
        h_prop = h * factor
        if err > _STEP_TOL:
            rejected += 1
            if h_prop < 1e-14 * span:
                raise IntegrationError(
                    f"step {h_prop:.3e} at t={t:.6g} fell below 1e-14 of the span "
                    f"(error estimate {err:.3e})"
                )
            continue
        low = y.min()
        if low < -1e-8:
            raise IntegrationError(
                f"negative probability {low:.3e} at t={t + h:.6g} (step too large)"
            )
        steps += 1
        t_new = t_end if clipped else t + h
        while k < t_grid.size and t_grid[k] <= t_new:  # the step's own state on t_new
            theta = (t_grid[k] - t) / h
            yield (y if t_grid[k] == t_new else
                   p + h * ((_DP_P @ theta ** np.arange(1, 5)) @ stages)), steps, rejected
            k += 1
        t, p = t_new, y
        stages[0] = stages[6]


def integrate_master(w_of_t, p0, t_grid):
    """Integrate dP/dt = W(t) P on a time grid with error-controlled steps.

    ``w_of_t`` is a provider (GeneratorProvider; constant_provider for fixed
    beta): ``apply(t, p)`` returns W(t) @ p, ``spectral_bound`` bounds the
    magnitude of W's eigenvalues, ``energies`` holds the 2^n configuration
    energies that p is indexed by, and ``equilibrium(t)`` returns the Gibbs
    vector at time t. Steps are Dormand-Prince 5(4): a step is kept when the
    L1 norm of its embedded error estimate is at most 1e-10, and the next
    step is scaled by 0.9 (tol/err)^(1/5), clamped to [0.2, 5]. The first
    step is 1/spectral_bound. Steps run across grid times, whose states are
    read off each step's fourth-order continuous extension, so a fine grid
    costs no extra steps; only the last step is clipped to land on the final
    time. Grid states are reduced to the observables as they are made, so a
    run holds one state and a step's stages, however fine the grid. Column
    sums of W vanish, so steps and interpolants conserve the total
    probability exactly; drift and positivity are still checked and raise
    IntegrationError, as do a non-finite error estimate and a step below
    1e-14 of the span. A grid of more than 1e8 intervals, or a span longer
    than 1e8 units of 1/spectral_bound, raises ResourceLimitError.
    """
    provider = w_of_t
    if isinstance(provider, GeneratorMatrix):
        raise ValidationError(
            "integrate_master takes a provider, not a GeneratorMatrix "
            "(use constant_provider(h0, beta, rule))"
        )
    t_grid = np.asarray(t_grid, dtype=float)
    if t_grid.ndim != 1 or t_grid.size < 1:
        raise ValidationError("t_grid must be a 1D vector of times")
    check_grid(t_grid.size)
    if not np.all(np.isfinite(t_grid)):
        raise ValidationError("t_grid has a non-finite time")
    if np.any(np.diff(t_grid) <= 0):
        raise ValidationError("t_grid must be strictly increasing")

    p = np.array(p0.p if hasattr(p0, "p") else p0, dtype=float)
    if p.shape != provider.energies.shape:
        raise ValidationError(f"initial distribution has shape {p.shape}, "
                              f"expected {provider.energies.shape}")
    if not np.all(np.isfinite(p)):
        raise ValidationError("initial distribution has a non-finite entry")
    if np.any(p < 0.0):
        raise ValidationError("initial distribution has a negative entry")
    if abs(p.sum() - 1.0) > 1e-9:
        raise ValidationError("initial distribution is not normalized")

    span = float(t_grid[-1] - t_grid[0])
    if span * provider.spectral_bound > MAX_STEPS:
        raise ResourceLimitError(
            f"a span of {span:.6g} is {span * provider.spectral_bound:.3g} units of "
            f"1/spectral_bound (cap {MAX_STEPS:.0e})"
        )

    gmask, _ = ground_space(provider.energies)
    mean_e, p_ground, l1 = (np.empty(t_grid.size) for _ in range(3))
    drift = 0.0
    for k, (state, steps, rejected) in enumerate(_grid_states(provider, p, t_grid)):
        low = state.min()
        if low < -1e-8:
            raise IntegrationError(f"negative probability {low:.3e} at grid time {t_grid[k]:.6g}")
        drift = max(drift, abs(float(state.sum()) - 1.0))
        mean_e[k] = state @ provider.energies
        p_ground[k] = state[gmask].sum()
        l1[k] = np.abs(state - provider.equilibrium(t_grid[k])).sum()
    if drift > 1e-9 * max(1.0, span):
        raise IntegrationError(f"probability normalization drifted by {drift:.3e}")

    return Trajectory(t_grid, mean_e, p_ground, l1, drift, steps, rejected)


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
    return cqio.csv_text("time,mean_energy,p_ground,l1_distance_to_gibbs", zip(
        traj.times, traj.mean_energy, traj.p_ground, traj.l1_to_equilibrium))


def write_generator(W, path):
    cqio.write_coordinate(W.matrix, path)

