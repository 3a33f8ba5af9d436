"""Classical Ising Hamiltonians with arbitrary k-body couplings.

Conventions used throughout the package:

* A configuration of N spins is an integer index in [0, 2^N). Bit j = 0
  encodes sigma_j = +1 and bit j = 1 encodes sigma_j = -1, so index 0 is
  the all-up state.
* A Hamiltonian holds coefficients c_S of subset bitmasks S as ascending
  mask and value arrays, with energy E(i) = sum_S c_S * chi_S(i) where
  chi_S(i) = prod_{j in S} sigma_j(i) = (-1)^popcount(i & S).
* Coefficients carry the energy's own sign: a ferromagnetic bond
  -J s_i s_j is stored as c_{ij} = -J, a field term -h s_j as c_j = -h.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import ResourceLimitError, ValidationError

MAX_TABLE_SPINS = 30  # spin count of a model description
MAX_OPERATOR_SPINS = 24  # every 2^N table, operator, solve and coordinate file
MAX_DENSE_SPINS = 13  # full dense 2^N x 2^N spectra (dense_spectrum)
# Integrator runs whose span exceeds this many natural step units are refused
# before any work: 1/spectral_bound for the master equation, the QA substep.
MAX_STEPS = 1e8


def _is_integer(value):
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _check_spin_count(n):
    if not _is_integer(n) or n < 1:
        raise ValidationError(f"spin count must be a positive integer, got {n!r}")
    if n > MAX_TABLE_SPINS:
        raise ResourceLimitError(
            f"n={n} exceeds the {MAX_TABLE_SPINS}-spin cap for model descriptions"
        )


@dataclass
class ClassicalHamiltonian:
    """Ising energy sum_k values[k] chi_{masks[k]}(i): strictly ascending
    int64 subset masks and their float64 coefficients. A model description
    gives a few masks; q2c's recovered energy holds all 2^n, arange(2^n)."""

    n: int
    masks: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        _check_spin_count(self.n)
        self.masks = np.asarray(self.masks, dtype=np.int64)
        self.values = np.asarray(self.values, dtype=float)
        if self.masks.ndim != 1 or self.masks.shape != self.values.shape:
            raise ValidationError("coefficient masks and values must be 1-D arrays of one length")
        bad = (self.masks < 0) | (self.masks >= 1 << self.n)
        if bad.any():
            raise ValidationError(f"coefficient mask {self.masks[bad.argmax()]:#x} outside "
                                  f"[0, 2^{self.n})")
        bad = ~np.isfinite(self.values)
        if bad.any():
            raise ValidationError(f"non-finite coefficient for mask {self.masks[bad.argmax()]:#x}")
        if np.any(self.masks[1:] <= self.masks[:-1]):
            raise ValidationError("coefficient masks must be strictly ascending")


def _from_dict(n, coeffs):
    """The model of a {mask: coefficient} accumulator, in ascending mask order."""
    return ClassicalHamiltonian(n, sorted(coeffs), [coeffs[m] for m in sorted(coeffs)])


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
        generated = _lattice_model(n, lattice)
        for mask, c in zip(generated.masks.tolist(), generated.values.tolist()):
            coeffs[mask] = coeffs.get(mask, 0.0) + c

    return _from_dict(n, coeffs)


def _lattice_model(n, lattice):
    if not isinstance(lattice, dict):
        raise ValidationError("'lattice' must be an object")
    kind = lattice.get("kind")
    periodic = lattice.get("periodic", True)
    if not isinstance(periodic, bool):
        raise ValidationError(f"lattice periodic must be true or false, got {periodic!r}")
    coupling = _number(lattice.get("J", 1.0), "lattice J")
    h_field = _number(lattice.get("h", 0.0), "lattice h")
    for value, what in ((coupling, "lattice J"), (h_field, "lattice h")):
        if not math.isfinite(value):
            raise ValidationError(f"{what} must be finite, got {value!r}")
    if kind == "chain":
        size = lattice.get("size", [n])
        if (not isinstance(size, list) or len(size) != 1 or not _is_integer(size[0])
                or size[0] != n):
            raise ValidationError(f"chain size {size} inconsistent with n={n}")
        return chain(n, periodic=periodic, coupling=coupling, field_h=h_field)
    if kind == "grid":
        size = lattice.get("size")
        if not isinstance(size, list) or len(size) != 2 or not all(map(_is_integer, size)):
            raise ValidationError("grid lattice needs size [rows, cols]")
        rows, cols = size
        if rows < 1 or cols < 1:
            raise ValidationError(f"grid sides must be positive, got {rows}x{cols}")
        if rows * cols != n:
            raise ValidationError(f"grid {rows}x{cols} inconsistent with n={n}")
        return grid(rows, cols, periodic=periodic, coupling=coupling, field_h=h_field)
    raise ValidationError(f"unknown lattice kind {kind!r}")


def chain(n, *, periodic=True, coupling=1.0, field_h=0.0):
    """Ferromagnetic 1D chain: -J sum s_j s_{j+1} - h sum s_j, the 1 x n grid.

    A periodic two-site chain carries both wrap-around bonds, which merge
    into a single coefficient of -2J.
    """
    return grid(1, n, periodic=periodic, coupling=coupling, field_h=field_h)


def grid(rows, cols=None, *, periodic=True, coupling=1.0, field_h=0.0):
    """Ferromagnetic 2D square lattice, row-major site order."""
    if cols is None:
        cols = rows
    _check_spin_count(rows)
    _check_spin_count(cols)
    n = rows * cols
    _check_spin_count(n)
    coeffs = {}

    def bond(a, b):
        mask = (1 << a) | (1 << b)
        coeffs[mask] = coeffs.get(mask, 0.0) - coupling

    for r in range(rows):
        for c in range(cols):
            site = r * cols + c
            if cols > 1 and (periodic or c + 1 < cols):
                bond(site, r * cols + (c + 1) % cols)
            if rows > 1 and (periodic or r + 1 < rows):
                bond(site, ((r + 1) % rows) * cols + c)
    if field_h != 0.0:
        for j in range(n):
            mask = 1 << j
            coeffs[mask] = coeffs.get(mask, 0.0) - field_h
    return _from_dict(n, coeffs)


def energy_table(h0):
    """Evaluate the Hamiltonian on every configuration: a length-2^N array.

    values[i] = sum_S c_S chi_S(i), chi_S(i) = (-1)^popcount(i & S), accumulated
    over masks in ascending order so the result is bit-for-bit reproducible.
    Every 2^N array of a model starts here, so the MAX_OPERATOR_SPINS cap is
    checked here, and so is a table whose sums overflow (ValidationError).
    """
    if h0.n > MAX_OPERATOR_SPINS:
        raise ResourceLimitError(f"n={h0.n} exceeds the {MAX_OPERATOR_SPINS}-spin cap")
    values = np.zeros(1 << h0.n)
    with np.errstate(over="ignore", invalid="ignore"):
        for mask, c in zip(h0.masks.tolist(), h0.values.tolist()):
            if mask == 0:
                values += c
            else:
                values += c * (1.0 - 2.0 * (np.bitwise_count(np.arange(values.size) & mask) & 1))
    if not np.isfinite(values).all():
        raise ValidationError("energy table has a non-finite entry: the coefficients overflow")
    return values


def walsh_transform(values):
    """Walsh coefficients of a table: c_S = 2^{-N} sum_i f(i) chi_S(i).

    In-place butterfly, O(N 2^N). Input length must be a power of two.
    """
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
    a /= m
    return a


def dense_coefficients(h0):
    """Scatter the sparse coefficient table into a length-2^N vector."""
    vec = np.zeros(1 << h0.n)
    vec[h0.masks] = h0.values
    return vec


def gibbs_distribution(h0, beta):
    """Equilibrium distribution p_i proportional to exp(-beta E_i), max-shifted."""
    return gibbs_from_energies(h0.n, energy_table(h0), beta)


def check_beta(beta):
    """Reject an inverse temperature that is NaN, infinite or negative."""
    if not math.isfinite(beta) or beta < 0:
        raise ValidationError(f"beta must be finite and >= 0, got {beta!r}")


def gibbs_from_energies(n, energies, beta):
    """gibbs_distribution over an already computed energy table; a spread
    max E - min E that overflows raises ValidationError."""
    check_beta(beta)
    if not math.isfinite(float(energies.max()) - float(energies.min())):
        raise ValidationError("the energy spread is not finite: the energies overflow")
    # -beta (E - E_min) may overflow to -inf, whose weight exp(-inf) = 0 is right
    with np.errstate(over="ignore"):
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

    def max_order(self):
        return max(self.orders) if self.orders else 0


def interaction_profile(h0):
    """Count a model's couplings, and their largest |c_S|, per order
    k = popcount(S), skipping those at or below 1e-10 * max|c_S|."""
    size = np.abs(h0.values)
    kept = size > 1e-10 * size.max(initial=0.0)
    order, size = np.bitwise_count(h0.masks[kept]), size[kept]
    counts = np.bincount(order)
    largest = np.zeros(counts.size)
    np.maximum.at(largest, order, size)
    return InteractionProfile(orders={
        k: {"count": int(counts[k]), "max_abs": float(largest[k])}
        for k in np.flatnonzero(counts).tolist()})


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
    rows = zip(h0.masks.tolist(), np.bitwise_count(h0.masks).tolist(), h0.values.tolist())
    return "".join(["mask,order,coefficient\n", *(f"{m},{k},{c:.17g}\n" for m, k, c in rows)])
