"""Classical Ising Hamiltonians with arbitrary k-body couplings.

Conventions used throughout the package:

* A configuration of N spins is an integer index in [0, 2^N). Bit j = 0
  encodes sigma_j = +1 and bit j = 1 encodes sigma_j = -1, so index 0 is
  the all-up state.
* A Hamiltonian is a sparse table of coefficients c_S keyed by a subset
  bitmask S, with energy E(i) = sum_S c_S * chi_S(i) where
  chi_S(i) = prod_{j in S} sigma_j(i) = (-1)^popcount(i & S).
* Coefficients carry the energy's own sign: a ferromagnetic bond
  -J s_i s_j is stored as c_{ij} = -J, a field term -h s_j as c_j = -h.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ResourceLimitError, ValidationError

MAX_TABLE_SPINS = 30  # 2^N address-space guard for full tables
MAX_OPERATOR_SPINS = 24  # sparse flip-structured operators and Krylov solves
MAX_DENSE_SPINS = 13  # dense 2^N x 2^N eigendecompositions


def _is_integer(value):
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _check_spin_count(n):
    if not _is_integer(n) or n < 1:
        raise ValidationError(f"spin count must be a positive integer, got {n!r}")
    if n > MAX_TABLE_SPINS:
        raise ResourceLimitError(
            f"n={n} exceeds the {MAX_TABLE_SPINS}-spin cap for 2^N tables"
        )


def spins_from_index(index, n):
    """Return the +-1 spin values sigma_0..sigma_{n-1} of a configuration index."""
    bits = (index >> np.arange(n)) & 1
    return 1 - 2 * bits


def character_column(mask, n):
    """chi_S over the whole configuration space: (-1)^popcount(i & mask)."""
    idx = np.arange(1 << n, dtype=np.int64)
    return 1.0 - 2.0 * (np.bitwise_count(idx & np.int64(mask)) & 1)


@dataclass(frozen=True)
class SpinConfiguration:
    """A single configuration, carried as (index, n)."""

    index: int
    n: int

    def __post_init__(self):
        _check_spin_count(self.n)
        if not 0 <= self.index < (1 << self.n):
            raise ValidationError(
                f"configuration index {self.index} outside [0, 2^{self.n})"
            )

    def spins(self):
        return spins_from_index(self.index, self.n)


@dataclass
class ClassicalHamiltonian:
    """Ising energy function stored as subset-mask coefficients."""

    n: int
    coeffs: dict = field(default_factory=dict)

    def __post_init__(self):
        _check_spin_count(self.n)
        top = 1 << self.n
        for mask, c in self.coeffs.items():
            if not 0 <= mask < top:
                raise ValidationError(f"coefficient mask {mask:#x} outside [0, 2^{self.n})")
            if not math.isfinite(c):
                raise ValidationError(f"non-finite coefficient for mask {mask:#x}")

    def constant(self):
        return self.coeffs.get(0, 0.0)


@dataclass
class EnergyTable:
    """Dense energies over the full configuration space."""

    n: int
    values: np.ndarray


@dataclass
class ProbabilityVector:
    """Normalized distribution over the 2^N configurations."""

    n: int
    p: np.ndarray

    def __post_init__(self):
        self.p = np.asarray(self.p, dtype=float)
        if self.p.shape != (1 << self.n,):
            raise ValidationError(
                f"probability vector has shape {self.p.shape}, expected (2^{self.n},)"
            )
        if not np.all(np.isfinite(self.p)):
            raise ValidationError("probability vector has a non-finite entry")
        if np.any(self.p < 0.0):
            raise ValidationError("probability vector has a negative entry")
        if abs(self.p.sum() - 1.0) > 1e-12:
            raise ValidationError("probability vector does not sum to 1 within 1e-12")


def _number(value, what):
    try:
        return float(value)
    except (TypeError, ValueError):
        raise ValidationError(f"{what} must be a number, got {value!r}") from None


def _term_coefficient(term, position):
    keys = [k for k in ("c", "J", "h") if k in term]
    if len(keys) != 1:
        raise ValidationError(
            f"term {position}: exactly one of 'c', 'J', 'h' must be given, got {sorted(term)}"
        )
    value = _number(term[keys[0]], f"term {position}: coefficient")
    if not math.isfinite(value):
        raise ValidationError(f"term {position}: non-finite coefficient")
    # J and h follow the -J s s / -h s convention; c is the raw coefficient.
    return value if keys[0] == "c" else -value


def build_model(spec):
    """Build a ClassicalHamiltonian from a model description.

    ``spec`` is a mapping with keys ``n`` (spin count), optional ``terms``
    (list of {"sites": [...], "c"| "J"| "h": value}) and optional
    ``lattice`` ({"kind": "chain"|"grid", "size": [...], "periodic": bool,
    "J": float, "h": float}). Duplicate subsets among explicit terms are
    rejected; lattice-generated couplings merge additively.
    """
    if not isinstance(spec, dict):
        raise ValidationError("model description must be a JSON object")
    if "n" not in spec:
        raise ValidationError("model description missing 'n'")
    n = spec["n"]
    _check_spin_count(n)

    terms = spec.get("terms", [])
    if not isinstance(terms, list):
        raise ValidationError("'terms' must be a list")
    coeffs = {}
    seen = set()
    for pos, term in enumerate(terms):
        if not isinstance(term, dict):
            raise ValidationError(f"term {pos}: must be an object")
        sites = term.get("sites")
        if not isinstance(sites, list):
            raise ValidationError(f"term {pos}: 'sites' must be a list")
        mask = 0
        for s in sites:
            if not _is_integer(s) or s < 0 or s >= n:
                raise ValidationError(f"term {pos}: site index {s!r} outside [0, {n})")
            bit = 1 << int(s)
            if mask & bit:
                raise ValidationError(f"term {pos}: repeated site {s}")
            mask |= bit
        if mask in seen:
            raise ValidationError(f"term {pos}: duplicate subset {sorted(sites)}")
        seen.add(mask)
        coeffs[mask] = coeffs.get(mask, 0.0) + _term_coefficient(term, pos)

    lattice = spec.get("lattice")
    if lattice is not None:
        generated = _lattice_coefficients(n, lattice)
        for mask, c in generated.items():
            coeffs[mask] = coeffs.get(mask, 0.0) + c

    return ClassicalHamiltonian(n, coeffs)


def _lattice_coefficients(n, lattice):
    if not isinstance(lattice, dict):
        raise ValidationError("'lattice' must be an object")
    kind = lattice.get("kind")
    periodic = bool(lattice.get("periodic", True))
    coupling = _number(lattice.get("J", 1.0), "lattice J")
    h_field = _number(lattice.get("h", 0.0), "lattice h")
    if kind == "chain":
        size = lattice.get("size", [n])
        if not isinstance(size, list) or len(size) != 1 or size[0] != n:
            raise ValidationError(f"chain size {size} inconsistent with n={n}")
        return chain(n, periodic=periodic, coupling=coupling, field_h=h_field).coeffs
    if kind == "grid":
        size = lattice.get("size")
        if not isinstance(size, list) or len(size) != 2 or not all(map(_is_integer, size)):
            raise ValidationError("grid lattice needs size [rows, cols]")
        rows, cols = size
        if rows * cols != n:
            raise ValidationError(f"grid {rows}x{cols} inconsistent with n={n}")
        return grid(rows, cols, periodic=periodic, coupling=coupling, field_h=h_field).coeffs
    raise ValidationError(f"unknown lattice kind {kind!r}")


def chain(n, *, periodic=True, coupling=1.0, field_h=0.0):
    """Ferromagnetic 1D chain: -J sum s_j s_{j+1} - h sum s_j.

    A periodic two-site chain carries both wrap-around bonds, which merge
    into a single coefficient of -2J.
    """
    _check_spin_count(n)
    coeffs = {}
    bonds = range(n) if (periodic and n > 1) else range(n - 1)
    for j in bonds:
        mask = (1 << j) | (1 << ((j + 1) % n))
        coeffs[mask] = coeffs.get(mask, 0.0) - coupling
    if field_h != 0.0:
        for j in range(n):
            mask = 1 << j
            coeffs[mask] = coeffs.get(mask, 0.0) - field_h
    return ClassicalHamiltonian(n, coeffs)


def grid(rows, cols=None, *, periodic=True, coupling=1.0, field_h=0.0):
    """Ferromagnetic 2D square lattice, row-major site order."""
    if cols is None:
        cols = rows
    n = rows * cols
    _check_spin_count(n)
    coeffs = {}

    def bond(a, b):
        mask = (1 << a) | (1 << b)
        coeffs[mask] = coeffs.get(mask, 0.0) - coupling

    for r in range(rows):
        for c in range(cols):
            site = r * cols + c
            if periodic or c + 1 < cols:
                if cols > 1:
                    bond(site, r * cols + (c + 1) % cols)
            if periodic or r + 1 < rows:
                if rows > 1:
                    bond(site, ((r + 1) % rows) * cols + c)
    if field_h != 0.0:
        for j in range(n):
            mask = 1 << j
            coeffs[mask] = coeffs.get(mask, 0.0) - field_h
    return ClassicalHamiltonian(n, coeffs)


def energy_table(h0):
    """Evaluate the Hamiltonian on every configuration.

    values[i] = sum_S c_S chi_S(i), accumulated over masks in ascending
    order so the result is bit-for-bit reproducible.
    """
    _check_spin_count(h0.n)
    values = np.zeros(1 << h0.n)
    for mask in sorted(h0.coeffs):
        c = h0.coeffs[mask]
        if mask == 0:
            values += c
        else:
            values += c * character_column(mask, h0.n)
    return EnergyTable(h0.n, values)


def walsh_transform(values, direction="forward"):
    """Orthogonal character transform between tables and coefficients.

    forward: c_S = 2^{-N} sum_i f(i) chi_S(i); inverse reconstructs f.
    In-place butterfly, O(N 2^N). Input length must be a power of two.
    """
    if direction not in ("forward", "inverse"):
        raise ValidationError(f"direction must be 'forward' or 'inverse', got {direction!r}")
    a = np.array(values, dtype=float, copy=True).reshape(-1)
    m = a.size
    if m == 0 or (m & (m - 1)) != 0:
        raise ValidationError(f"length {m} is not a power of two")
    h = 1
    while h < m:
        v = a.reshape(m // (2 * h), 2, h)
        s = v[:, 0, :] + v[:, 1, :]
        d = v[:, 0, :] - v[:, 1, :]
        v[:, 0, :] = s
        v[:, 1, :] = d
        h *= 2
    if direction == "forward":
        a /= m
    return a


def dense_coefficients(h0):
    """Scatter the sparse coefficient table into a length-2^N vector."""
    vec = np.zeros(1 << h0.n)
    for mask, c in h0.coeffs.items():
        vec[mask] = c
    return vec


def hamiltonian_from_table(table, drop_below=0.0):
    """Recover a ClassicalHamiltonian from a dense energy table."""
    coeff_vec = walsh_transform(table.values, "forward")
    coeffs = {
        int(mask): float(c)
        for mask, c in enumerate(coeff_vec)
        if abs(c) > drop_below
    }
    return ClassicalHamiltonian(table.n, coeffs)


def gibbs_distribution(h0, beta):
    """Equilibrium distribution p_i proportional to exp(-beta E_i), max-shifted."""
    return gibbs_from_energies(h0.n, energy_table(h0).values, beta)


def check_beta(beta):
    """Reject an inverse temperature that is NaN, infinite or negative."""
    if not math.isfinite(beta) or beta < 0:
        raise ValidationError(f"beta must be finite and >= 0, got {beta!r}")


def gibbs_from_energies(n, energies, beta):
    """gibbs_distribution over an already computed energy table."""
    check_beta(beta)
    w = np.exp(-beta * (energies - energies.min()))
    return ProbabilityVector(n, w / w.sum())


def ground_space(energies):
    """Ground-space mask E <= E_min + 1e-9 max(1, |E_min|), and E_min."""
    e_min = energies.min()
    return energies <= e_min + 1e-9 * max(1.0, abs(e_min)), float(e_min)


@dataclass
class InteractionProfile:
    """Per-order census of the coefficients above a noise floor."""

    orders: dict  # order k -> {"count": int, "max_abs": float}
    tol: float
    max_pair_range: float | None = None

    def max_order(self):
        return max(self.orders) if self.orders else 0


def interaction_profile(coeffs, tol=None, geometry=None):
    """Count couplings per interaction order k = popcount(S).

    tol defaults to 1e-10 * max|c_S| (scale-free noise floor). When
    ``geometry`` (array of site positions) is given, also reports the
    maximum Euclidean distance among surviving pair couplings.
    """
    if tol is not None and tol < 0:
        raise ValidationError("tol must be >= 0")
    if coeffs:
        scale = max(abs(c) for c in coeffs.values())
    else:
        scale = 0.0
    if tol is None:
        tol = 1e-10 * scale

    orders = {}
    max_range = None
    pos = np.asarray(geometry, dtype=float) if geometry is not None else None
    for mask, c in coeffs.items():
        if abs(c) <= tol:
            continue
        k = int(mask).bit_count()
        entry = orders.setdefault(k, {"count": 0, "max_abs": 0.0})
        entry["count"] += 1
        entry["max_abs"] = max(entry["max_abs"], abs(c))
        if pos is not None and k == 2:
            i, j = [b for b in range(int(mask).bit_length()) if mask >> b & 1]
            dist = float(np.linalg.norm(pos[i] - pos[j]))
            max_range = dist if max_range is None else max(max_range, dist)
    return InteractionProfile(orders=dict(sorted(orders.items())), tol=tol,
                              max_pair_range=max_range)


def load_model(path):
    """Read a model description JSON file."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            spec = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValidationError(f"invalid model JSON: {exc}") from exc
    return build_model(spec)


def coefficients_csv(h0):
    """CSV dump of the coefficient table: mask,order,coefficient."""
    lines = ["mask,order,coefficient"]
    for mask in sorted(h0.coeffs):
        lines.append(f"{mask},{int(mask).bit_count()},{h0.coeffs[mask]:.17g}")
    return "\n".join(lines) + "\n"
