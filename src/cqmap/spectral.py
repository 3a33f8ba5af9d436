"""Eigensolvers over 2^N state spaces and gap-scaling classification.

Full dense spectra are capped at 13 spins (8192^2). The lowest few pairs
come from one solver: LAPACK up to 32 states, above that ARPACK Lanczos
(restarts and reorthogonalization, a basis of max(20, 4k + 1) vectors for k
pairs) from the fixed vector 1 + 0.5 sin(s), which has no spin-flip or
translation symmetry and uses no RNG, so repeated runs are bit-identical.

A mapped generator's ground state is known before any solve: lambda_0 = 0
with phi_0 = sqrt(p_eq). Given that vector, the solver checks it, deflates it
by a Hotelling shift H + sigma phi_0 phi_0^T and finds lambda_1 alone by
two-pass Lanczos, which keeps three vectors instead of ARPACK's basis and
has none of its per-step overhead. ARPACK serves only requests without a
known vector.

Every solve, residual and Gershgorin bound reads H as it is held, its
diagonal d and strict upper triangle U, whether it was built by a flip
builder or split from a CSR. H x = d x + U x + U^T x is formed by scipy's
CSR and CSC kernels adding into one vector in the order of H's full CSR
rows, so every product, and the solve, is bit for bit the one on the full
CSR, which is never built. Only the dense branch reads the full CSR.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

import numpy as np
import scipy.linalg
from scipy.sparse import _sparsetools
from scipy.sparse.linalg import ArpackNoConvergence, LinearOperator, eigsh

from . import io as cqio
from .dynamics import canonical_rule, relaxation_time
from .errors import ConvergenceError, NumericalError, ResourceLimitError, ValidationError
from .mapping import check_finite, classical_to_quantum
from .model import (MAX_DENSE_SPINS, build_model, check_beta, energy_table,
                    gibbs_from_energies)

_DENSE_FALLBACK_DIM = 32  # ARPACK is pointless below this
# _deflated_pair tests convergence at every Lanczos step up to this one.
_EVERY_STEP_UP_TO = 256


@dataclass
class SpectrumResult:
    """Ascending eigenvalues, optional vectors, and per-pair residuals."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray | None
    gap: float
    method: str
    residual_norms: np.ndarray | None


def _as_result(vals, vecs, matvec, method):
    """The pairs in ascending order, with |H v - lambda v| of each vector v
    taken through matvec, H's product."""
    order = np.argsort(vals)
    vals = np.asarray(vals, dtype=float)[order]
    residuals = None
    if vecs is not None:
        vecs = np.asarray(vecs, dtype=float)[:, order]
        product = np.empty(vecs.shape)
        for i, v in enumerate(vecs.T):
            product[:, i] = matvec(v)
        residuals = np.linalg.norm(product - vecs * vals[None, :], axis=0)
    gap = float(vals[1] - vals[0]) if vals.size >= 2 else float("nan")
    return SpectrumResult(vals, vecs, gap, method, residuals)


def dense_spectrum(H):
    """Full symmetric eigenvalue spectrum (LAPACK), ascending."""
    if H.n > MAX_DENSE_SPINS:
        raise ResourceLimitError(
            f"n={H.n} exceeds the {MAX_DENSE_SPINS}-spin dense cap"
        )
    check_finite(H.diag, H.upper.data)
    return _as_result(np.linalg.eigvalsh(H.matrix.toarray()), None, None, "dense")


def _half_matvec(diag, upper, x):
    """H @ x of H = diag(d) + U + U^T held as (diag, upper), bit for bit the
    product of H's full CSR when U's rows are sorted.

    scipy's kernels add into y in place: first each row's lower entries, a
    CSC product on U's own arrays (U^T x), then d x, then the row's upper
    entries (U x), the order in which H's full CSR row holds them. d x is
    the only temporary.
    """
    dim = diag.size
    y = np.zeros(dim)
    _sparsetools.csc_matvec(dim, dim, upper.indptr, upper.indices, upper.data, x, y)
    y += diag * x
    _sparsetools.csr_matvec(dim, dim, upper.indptr, upper.indices, upper.data, x, y)
    return y


def _known_ground_state(matvec, dim, known):
    """(phi_0, lambda_0, residual) of known normalized, checked to be a zero
    mode of the dim x dim H whose product is matvec."""
    phi0 = np.asarray(known, dtype=float)
    if phi0.shape != (dim,):
        raise ValidationError(f"known vector has shape {phi0.shape}, "
                              f"expected ({dim},)")
    norm = np.linalg.norm(phi0)
    if not np.isfinite(norm) or norm == 0:
        raise ValidationError("known vector must be finite and nonzero")
    phi0 = phi0 / norm
    h_phi0 = matvec(phi0)
    residual = np.abs(h_phi0).max()
    if not residual <= 1e-10:
        raise NumericalError(f"known vector is not a stationary mode: "
                             f"|H phi_0|_inf = {residual:.3e} > 1e-10")
    lam0 = phi0 @ h_phi0
    return phi0, lam0, np.linalg.norm(h_phi0 - lam0 * phi0)


def _lowest_pairs(H, k, max_iter=None, tol=0.0, known=None):
    """k lowest eigenpairs of a symmetric QuantumHamiltonian.

    The only place that picks a solver: up to _DENSE_FALLBACK_DIM states
    LAPACK computes just those k pairs (k may equal the dimension), above it
    ARPACK does, from the fixed start vector 1 + 0.5 sin(s) with a basis of
    max(20, 4k + 1) vectors. H's size was capped when it was made.

    known, if given, is a vector phi_0 with H phi_0 = 0 (NumericalError if
    |H phi_0|_inf > 1e-10), and k must be 2. Above the dense size, lambda_0
    is then phi_0's Rayleigh quotient and lambda_1 comes from _deflated_pair,
    not ARPACK. Both, and all residuals, read H's (diag, upper) through
    _half_matvec, so H's full CSR is built only for the dense branch. Raises
    ValidationError on a NaN or infinite entry or a malformed known vector,
    and ConvergenceError carrying the best eigenvalues and residual norms
    found on non-convergence.
    """
    dim = H.dim
    dense = dim <= max(_DENSE_FALLBACK_DIM, 2 * k + 2)
    v0 = None if dense else 1.0 + 0.5 * np.sin(np.arange(dim))
    matvec = partial(_half_matvec, H.diag, H.upper)
    check_finite(H.diag, H.upper.data)
    if known is not None:
        if k != 2:
            raise ValidationError(f"a known ground state needs k == 2, got k={k}")
        ground = _known_ground_state(matvec, dim, known)
        if not dense:
            sigma = 2.0 * float(_half_abs_row_sums(H.diag, H.upper).max())
            return _deflated_pair(matvec, sigma, ground, v0, max_iter, tol)
    if dense:
        vals, vecs = scipy.linalg.eigh(H.matrix.toarray(), subset_by_index=[0, k - 1],
                                       overwrite_a=True)
        return _as_result(vals, vecs, matvec, "dense")

    v0 /= np.linalg.norm(v0)
    ncv = min(dim, max(20, 4 * k + 1))
    try:
        vals, vecs = eigsh(LinearOperator((dim, dim), matvec=matvec, dtype=float), k=k,
                           which="SA", v0=v0, ncv=ncv, maxiter=max_iter, tol=tol)
    except ArpackNoConvergence as exc:
        # scipy hands back the converged pairs, possibly none, as arrays
        got = _as_result(exc.eigenvalues, exc.eigenvectors, matvec, "iterative")
        raise ConvergenceError(
            f"Krylov iteration converged only {got.eigenvalues.size}/{k} pairs",
            eigenvalues=got.eigenvalues, residual_norms=got.residual_norms,
        ) from exc
    return _as_result(vals, vecs, matvec, "iterative")


def _lanczos(apply, v0, steps):
    """Yield (q_i, alpha_i, beta_i) of the Lanczos three-term recurrence from
    the unit vector v0, for at most steps steps and without
    reorthogonalization, holding three vectors. Stops after a step whose
    beta is exactly 0: the Krylov space is then invariant. The arithmetic is
    fixed, so a second run repeats the first bit for bit."""
    q_prev, q, beta = None, v0, 0.0
    for _ in range(steps):
        w = apply(q)
        alpha = float(q @ w)
        w -= alpha * q
        if q_prev is not None:
            w -= beta * q_prev
        beta = float(np.linalg.norm(w))
        yield q, alpha, beta
        if beta == 0.0:
            return
        w /= beta
        q_prev, q = q, w


def _deflated_pair(matvec, sigma, ground, v0, max_iter, tol):
    """lambda_0 and lambda_1 of H, given its product x -> H x, sigma and its
    zero mode as _known_ground_state's triple.

    H is read only through matvec, so the solve holds a few vectors beside
    H as it is held, its (diag, upper).
    lambda_1 is the lowest eigenvalue of H + sigma phi0 phi0^T, sigma twice
    the largest absolute row sum so that phi0 moves above the spectrum. Two
    Lanczos passes run from the part of v0 orthogonal to phi0. The first
    stops at the first tested step m where the lowest Ritz pair (theta, s)
    of the m x m tridiagonal matrix has
    |beta_m s_m| <= max(tol |theta|, eps sigma), or where beta_m = 0; the
    second repeats those m steps to sum the Ritz vector y = sum_i s_i q_i.
    Each test solves the whole tridiagonal matrix, O(m), so every step is
    tested up to step 256 and then only steps about m/32 apart, the cap and
    a breakdown: a slow solve costs O(m log m) in tests instead of O(m^2).
    Only the tridiagonal matrix is kept, never a basis. max_iter caps the
    first pass's steps (one matvec each) and defaults to 10 times the
    dimension; at the cap ConvergenceError carries [lambda_0, theta] of the
    last step and their residuals on H.
    """
    phi0, lam0, res0 = ground
    v0 -= (phi0 @ v0) * phi0
    v0 /= np.linalg.norm(v0)

    def apply(x):
        y = matvec(x)
        y += (sigma * (phi0 @ x)) * phi0
        return y

    steps = 10 * v0.size if max_iter is None else max_iter
    floor = np.finfo(float).eps * sigma
    alphas, betas = [], []
    check = 1  # the next step whose Ritz pair is tested
    for m, (_, alpha, beta) in enumerate(_lanczos(apply, v0, steps), start=1):
        alphas.append(alpha)
        betas.append(beta)
        if m < check and m < steps and beta != 0.0:
            continue
        check = m + 1 if m < _EVERY_STEP_UP_TO else m + m // 32
        theta, s = scipy.linalg.eigh_tridiagonal(alphas, betas[:-1], select="i",
                                                 select_range=(0, 0))
        converged = beta == 0.0 or abs(beta * s[-1, 0]) <= max(tol * abs(theta[0]), floor)
        if converged:
            break
    y = np.zeros_like(v0)
    for (q, _, _), coef in zip(_lanczos(apply, v0, len(alphas)), s[:, 0]):
        y += coef * q
    y /= np.linalg.norm(y)

    vals = np.array([lam0, theta[0]])
    res = np.array([res0, np.linalg.norm(matvec(y) - vals[1] * y)])
    if not converged:
        raise ConvergenceError(f"Lanczos did not converge in {len(alphas)} steps",
                               eigenvalues=vals, residual_norms=res)
    return SpectrumResult(vals, np.column_stack([phi0, y]), float(vals[1] - vals[0]),
                          "iterative", res)


def extreme_eigenpairs(H, k=2, max_iter=None, tol=0.0, known=None):
    """k lowest eigenpairs of a symmetric matrix, k smaller than its dimension.

    Small systems are solved densely, larger ones by a Krylov iteration from a
    fixed start vector (see _lowest_pairs). known is an optional ground state
    phi_0 with H phi_0 = 0, such as sqrt(p_eq) of a mapped generator, and
    needs k == 2; the Krylov iteration then deflates it and computes only
    lambda_1 (see _deflated_pair). Both Krylov solves read H's diagonal and
    strict upper triangle as held; only the dense branch builds a full CSR,
    so it and the Krylov solves read the same matrix. Raises ValidationError on
    a NaN or infinite entry or a malformed known vector, and NumericalError
    when known is not a zero mode of H.
    max_iter, if given, must be at least 1 and tol finite; it caps ARPACK's
    restarts, or the Lanczos steps when known is given. A tol <= 0 asks for
    machine precision.
    """
    if k < 1:
        raise ValidationError("k must be >= 1")
    if max_iter is not None and max_iter < 1:
        raise ValidationError(f"max_iter must be >= 1, got {max_iter!r}")
    if not math.isfinite(tol):
        raise ValidationError(f"tol must be finite, got {tol!r}")
    dim = H.dim
    if k >= dim:
        raise ValidationError(f"k={k} must be smaller than the dimension {dim}")
    return _lowest_pairs(H, k, max_iter, tol, known)


def _half_abs_row_sums(diag, upper):
    """abs(H) @ 1 of H = diag(d) + U + U^T held as (diag, upper), bit for bit
    the full CSR's when U's rows are sorted, without a copy of U.

    Each block of io.row_blocks over U is taken once, in row order: its
    absolute values are added as columns (U^T) into the rows they lie below,
    then the block's own rows add |d| and those values, the order of H's
    full CSR rows. At most one vector's worth of absolute values exists at a
    time.
    """
    dim = diag.size
    ones = np.ones(dim)
    sums = np.zeros(dim)
    indptr = upper.indptr
    for lo, hi, a, b in cqio.row_blocks(upper):
        ptr, cols, values = indptr[lo:hi + 1] - a, upper.indices[a:b], np.abs(upper.data[a:b])
        _sparsetools.csc_matvec(dim, hi - lo, ptr, cols, values, ones, sums)
        sums[lo:hi] += np.abs(diag[lo:hi])
        _sparsetools.csr_matvec(hi - lo, dim, ptr, cols, values, ones, sums[lo:hi])
    return sums


def gershgorin_bound(H):
    """Upper bound on the largest eigenvalue from Gershgorin discs, read from H's halves."""
    diag = H.diag
    return float((diag + (_half_abs_row_sums(diag, H.upper) - np.abs(diag))).max())


@dataclass
class SweepRow:
    size: int
    gap: float
    tau: float
    method: str
    residual: float
    error: str | None = None


def _family_description(family, size):
    """Model description of one sweep size: a chain of size spins, or a grid
    of size x size spins for any other kind (build_model refuses an unknown
    one). The family's kind, periodic, J and h keys form its lattice."""
    if not isinstance(family, dict):
        raise ValidationError("family must be a {'kind': ...} description")
    shape = [size] if family.get("kind") == "chain" else [size, size]
    return {"n": math.prod(shape), "lattice": {**family, "size": shape}}


def gap_scaling_sweep(family, sizes, beta, rule="heat-bath"):
    """Gap and relaxation time of the mapped Hamiltonian across system sizes.

    Each row's size is its spin count. The mapped ground state sqrt(p_eq) is
    handed to the eigensolver, which then solves for lambda_1 alone; the map
    and p_eq share the row's one energy table. Per-size failures are
    recorded in the row and the sweep continues; a malformed family, beta,
    rule or size below 1 is refused before any row runs.
    """
    build_model(_family_description(family, 1))  # refuses a bad kind, J or h up front
    check_beta(beta)
    canonical_rule(rule)
    sizes = [int(size) for size in sizes]
    if min(sizes, default=1) < 1:
        raise ValidationError(f"sweep sizes must be >= 1, got {sizes}")
    rows = []
    for size in sizes:
        description = _family_description(family, size)
        n = description["n"]
        try:
            h0 = build_model(description)
            energies = energy_table(h0)
            known = np.sqrt(gibbs_from_energies(h0.n, energies, beta).p)
            H = classical_to_quantum(h0, beta, rule, energies=energies)
            del energies  # not held through the eigensolve
            spec = extreme_eigenpairs(H, k=2, known=known)
            tau = relaxation_time(spec)
            rows.append(SweepRow(n, spec.gap, tau, spec.method,
                                 float(spec.residual_norms.max())))
        except Exception as exc:  # noqa: BLE001 - per-row fault isolation
            rows.append(SweepRow(n, float("nan"), float("nan"),
                                 "error", float("nan"), error=str(exc)))
    return rows


@dataclass
class ScalingFit:
    """Polynomial (tau ~ N^a) and exponential (tau ~ e^{bN}) fits, both kept."""

    sizes: np.ndarray
    taus: np.ndarray
    gaps: np.ndarray
    poly_exponent: float
    exp_rate: float
    preferred: str
    residual_poly: float
    residual_exp: float


def fit_scaling(table):
    """Least squares on (log N, log tau) and (N, log tau); smaller residual wins.

    Needs at least three rows, every size >= 1 and at least two distinct
    sizes, and finite tau > 0; otherwise ValidationError.
    """
    sizes, taus = [], []
    for row in table:
        if isinstance(row, SweepRow):
            if row.error is not None:
                continue
            sizes.append(row.size)
            taus.append(row.tau)
        else:
            sizes.append(row[0])
            taus.append(row[1])
    sizes = np.asarray(sizes, dtype=float)
    taus = np.asarray(taus, dtype=float)
    if sizes.size < 3:
        raise ValidationError(f"scaling fit needs >= 3 rows, got {sizes.size}")
    if not np.all(sizes >= 1):
        raise ValidationError("scaling fit needs a size >= 1 in every row")
    if np.unique(sizes).size < 2:
        raise ValidationError("scaling fit needs at least two distinct sizes")
    if np.any(taus <= 0) or not np.all(np.isfinite(taus)):
        raise ValidationError("scaling fit needs finite tau > 0 in every row")

    log_tau = np.log(taus)

    def linfit(x):
        A = np.vstack([x, np.ones_like(x)]).T
        coef, _, _, _ = np.linalg.lstsq(A, log_tau, rcond=None)
        resid = float(np.sum((log_tau - A @ coef) ** 2))
        return float(coef[0]), resid

    a, resid_poly = linfit(np.log(sizes))
    b, resid_exp = linfit(sizes)
    preferred = "polynomial" if resid_poly <= resid_exp else "exponential"
    return ScalingFit(sizes.astype(int), taus, 1.0 / taus, a, b, preferred,
                      resid_poly, resid_exp)


def sweep_csv(rows):
    """CSV columns: size,gap,tau,method,residual (failed rows carry nan)."""
    return cqio.csv_text("size,gap,tau,method,residual",
                         ((r.size, r.gap, r.tau, r.method, r.residual) for r in rows))


def read_size_tau_csv(path):
    """Read (size, tau) pairs from a sweep CSV (or any CSV with those columns).

    Rows whose tau is nan, which sweep_csv writes for failed sizes, are
    skipped, as fit_scaling skips failed SweepRows.
    """
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().strip().split(",")
        try:
            size_col = header.index("size")
            tau_col = header.index("tau")
        except ValueError as exc:
            raise ValidationError(f"{path}: header must contain size and tau columns") from exc
        pairs = []
        for line in fh:
            line = line.strip()
            if not line:
                continue
            parts = line.split(",")
            try:
                size, tau = int(parts[size_col]), float(parts[tau_col])
            except (IndexError, ValueError):
                raise ValidationError(f"{path}: malformed row {line!r}") from None
            if not math.isnan(tau):
                pairs.append((size, tau))
    return pairs


def fit_json(fit):
    return {
        "a": fit.poly_exponent,
        "b": fit.exp_rate,
        "preferred": fit.preferred,
        "residual_poly": fit.residual_poly,
        "residual_exp": fit.residual_exp,
    }
