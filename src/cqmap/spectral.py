"""Eigensolvers over 2^N state spaces and gap-scaling classification.

Full dense spectra are capped at 13 spins (8192^2). The lowest few pairs
come from one solver: LAPACK up to 32 states, above that ARPACK Lanczos
(restarts and reorthogonalization) from the fixed vector 1 + 0.5 sin(s),
which has no spin-flip or translation symmetry and uses no RNG, so repeated
runs are bit-identical.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg
from scipy.sparse.linalg import ArpackNoConvergence, eigsh

from . import io as cqio
from .dynamics import build_generator, relaxation_time
from .errors import ConvergenceError, ResourceLimitError, ValidationError
from .mapping import classical_to_quantum
from .model import MAX_DENSE_SPINS, MAX_OPERATOR_SPINS
from .model import chain as chain_model
from .model import grid as grid_model

_DENSE_FALLBACK_DIM = 32  # ARPACK is pointless below this


@dataclass
class SpectrumResult:
    """Ascending eigenvalues, optional vectors, and per-pair residuals."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray | None
    gap: float
    method: str
    residual_norms: np.ndarray | None


def _as_result(vals, vecs, matrix, method):
    order = np.argsort(vals)
    vals = np.asarray(vals, dtype=float)[order]
    residuals = None
    if vecs is not None:
        vecs = np.asarray(vecs, dtype=float)[:, order]
        residuals = np.linalg.norm(matrix @ vecs - vecs * vals[None, :], axis=0)
    gap = float(vals[1] - vals[0]) if vals.size >= 2 else float("nan")
    return SpectrumResult(vals, vecs, gap, method, residuals)


def _check_finite(matrix):
    if not np.all(np.isfinite(matrix.data)):
        raise ValidationError("H has a NaN or infinite entry")


def dense_spectrum(H):
    """Full symmetric eigenvalue spectrum (LAPACK), ascending."""
    if H.n > MAX_DENSE_SPINS:
        raise ResourceLimitError(
            f"n={H.n} exceeds the {MAX_DENSE_SPINS}-spin dense cap"
        )
    _check_finite(H.matrix)
    vals = np.linalg.eigvalsh(H.dense())
    gap = float(vals[1] - vals[0]) if vals.size >= 2 else float("nan")
    return SpectrumResult(np.asarray(vals, dtype=float), None, gap, "dense", None)


def _lowest_pairs(matrix, k, max_iter=None, tol=0.0):
    """k lowest eigenpairs of a symmetric sparse matrix.

    The only place that picks a solver: up to _DENSE_FALLBACK_DIM states
    LAPACK computes just those k pairs (k may equal the dimension), above it
    ARPACK does, from the fixed start vector 1 + 0.5 sin(s). Raises
    ValidationError on a NaN or infinite entry, and ConvergenceError carrying
    the best eigenvalues and residual norms found on non-convergence.
    """
    _check_finite(matrix)
    dim = matrix.shape[0]
    if dim <= max(_DENSE_FALLBACK_DIM, 2 * k + 2):
        vals, vecs = scipy.linalg.eigh(matrix.toarray(), subset_by_index=[0, k - 1],
                                       overwrite_a=True)
        return _as_result(vals, vecs, matrix, "dense")

    v0 = 1.0 + 0.5 * np.sin(np.arange(dim))
    v0 /= np.linalg.norm(v0)
    ncv = min(dim, max(40, 4 * k + 1))
    try:
        vals, vecs = eigsh(matrix, k=k, which="SA", v0=v0, ncv=ncv,
                           maxiter=max_iter, tol=tol)
    except ArpackNoConvergence as exc:
        got = np.asarray(exc.eigenvalues, dtype=float)
        res = None
        if exc.eigenvectors is not None and exc.eigenvectors.size:
            vecs = np.asarray(exc.eigenvectors)
            res = np.linalg.norm(matrix @ vecs - vecs * got[None, :], axis=0)
        raise ConvergenceError(
            f"Krylov iteration converged only {got.size}/{k} pairs",
            eigenvalues=got, residual_norms=res,
        ) from exc
    return _as_result(vals, vecs, matrix, "iterative")


def extreme_eigenpairs(H, k=2, max_iter=None, tol=0.0):
    """k lowest eigenpairs of a symmetric matrix, k smaller than its dimension.

    Small systems are solved densely, larger ones by a Krylov iteration from a
    fixed start vector (see _lowest_pairs). Raises ValidationError on a NaN or
    infinite entry.
    """
    if k < 1:
        raise ValidationError("k must be >= 1")
    if H.n > MAX_OPERATOR_SPINS:
        raise ResourceLimitError(
            f"n={H.n} exceeds the {MAX_OPERATOR_SPINS}-spin iterative cap"
        )
    dim = H.matrix.shape[0]
    if k >= dim:
        raise ValidationError(f"k={k} must be smaller than the dimension {dim}")
    return _lowest_pairs(H.matrix, k, max_iter, tol)


def gershgorin_bound(H):
    """Upper bound on the largest eigenvalue from Gershgorin discs."""
    matrix = H.matrix
    diag = matrix.diagonal()
    absrow = np.abs(matrix) @ np.ones(matrix.shape[0])
    return float((diag + (absrow - np.abs(diag))).max())


@dataclass
class SweepRow:
    size: int
    gap: float
    tau: float
    method: str
    residual: float
    error: str | None = None


def _family_builder(family):
    if callable(family):
        return family
    if not isinstance(family, dict) or "kind" not in family:
        raise ValidationError("family must be callable or a {'kind': ...} description")
    kind = family["kind"]
    periodic = bool(family.get("periodic", True))
    coupling = float(family.get("J", 1.0))
    field_h = float(family.get("h", 0.0))
    if kind == "chain":
        return lambda size: chain_model(size, periodic=periodic,
                                        coupling=coupling, field_h=field_h)
    if kind == "grid":
        # size is the linear side; the reported system size is side^2 spins
        return lambda side: grid_model(side, side, periodic=periodic,
                                       coupling=coupling, field_h=field_h)
    raise ValidationError(f"unknown family kind {kind!r}")


def gap_scaling_sweep(family, sizes, beta, rule="heat-bath"):
    """Gap and relaxation time of the mapped Hamiltonian across system sizes.

    Per-size failures are recorded in the row and the sweep continues.
    """
    build = _family_builder(family)
    rows = []
    for size in sizes:
        try:
            h0 = build(int(size))
            W = build_generator(h0, beta, rule)
            H = classical_to_quantum(h0, beta, W)
            spec = extreme_eigenpairs(H, k=2)
            tau = relaxation_time(spec)
            resid = float(spec.residual_norms.max()) if spec.residual_norms is not None else 0.0
            rows.append(SweepRow(h0.n, spec.gap, tau, spec.method, resid))
        except Exception as exc:  # noqa: BLE001 - per-row fault isolation
            rows.append(SweepRow(int(size), float("nan"), float("nan"),
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
    """Least squares on (log N, log tau) and (N, log tau); smaller residual wins."""
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
    lines = ["size,gap,tau,method,residual"]
    f = cqio.format_float
    for row in rows:
        lines.append(f"{row.size},{f(row.gap)},{f(row.tau)},{row.method},{f(row.residual)}")
    return "\n".join(lines) + "\n"


def read_size_tau_csv(path):
    """Read (size, tau) pairs from a sweep CSV (or any CSV with those columns)."""
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
                pairs.append((int(parts[size_col]), float(parts[tau_col])))
            except (IndexError, ValueError):
                raise ValidationError(f"{path}: malformed row {line!r}") from None
    return pairs


def fit_json(fit):
    return {
        "a": fit.poly_exponent,
        "b": fit.exp_rate,
        "preferred": fit.preferred,
        "residual_poly": fit.residual_poly,
        "residual_exp": fit.residual_exp,
    }
