"""Similarity transform between detailed-balance generators and stoquastic
Hamiltonians, in both directions.

Classical -> quantum: H[s, s'] = -exp(+beta E(s)/2) W[s, s'] exp(-beta E(s')/2).
Detailed balance makes H real symmetric; H shares the spectrum of -W, its
lowest eigenvalue is 0 and the ground state is proportional to exp(-beta E/2).

Quantum -> classical: for a symmetric matrix with non-positive off-diagonals
and an irreducible coupling graph, the (elementwise positive) ground state
phi defines an energy E'(s) = -2 log phi_s and a generator
W'[s, s'] = -phi_s (H - lambda_0)[s, s'] / phi_s', whose stationary
distribution is phi^2. Applying it to the mapped H recovers beta E up to a
constant, so the round trip is an identity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import sparse

from . import io as cqio
from .dynamics import (
    GeneratorMatrix,
    build_generator,
    canonical_rule,
    flip_matrix,
    verify_dynamics,
)
from .errors import (
    DegenerateGroundStateError,
    IllConditionedLogError,
    MappingPreconditionError,
    NonStoquasticError,
    ReducibleOperatorError,
    ResourceLimitError,
    ValidationError,
)
from .model import (
    MAX_DENSE_SPINS,
    MAX_OPERATOR_SPINS,
    ClassicalHamiltonian,
    dense_coefficients,
    energy_table,
    gibbs_from_energies,
    walsh_transform,
)

MAX_ROUNDTRIP_SPINS = 10

# Relative ground-state degeneracy tolerance (fraction of spectral width).
DEGENERACY_RTOL = 1e-10
# q2c symmetry tolerance on max|H - H^T| / max|H|; mapped matrices sit below 1e-14.
SYMMETRY_RTOL = 1e-10


@dataclass
class QuantumHamiltonian:
    """Real symmetric matrix in the sigma^z product basis."""

    n: int
    matrix: sparse.csr_array
    shift: float = 0.0

    def dense(self):
        return self.matrix.toarray()

    def is_stoquastic(self, tol=1e-12):
        """True when every off-diagonal element is <= tol (q2c precondition)."""
        coo = sparse.coo_array(self.matrix)
        off = coo.row != coo.col
        return bool(not np.any(coo.data[off] > tol))


@dataclass
class GroundState:
    value: float
    vector: np.ndarray
    positivity_margin: float


def classical_to_quantum(h0, beta, W, *, db_tol=1e-10):
    """Map a detailed-balance generator to a symmetric quantum Hamiltonian.

    Raises MappingPreconditionError when W is not in detailed balance with
    the Gibbs distribution of (h0, beta): the result would be nonsymmetric.
    """
    if W.n != h0.n:
        raise ValidationError(f"generator is for n={W.n}, model has n={h0.n}")
    energies = energy_table(h0).values
    peq = gibbs_from_energies(h0.n, energies, beta)
    report = verify_dynamics(W, peq, tol=db_tol)
    if report.detailed_balance_residual > db_tol:
        raise MappingPreconditionError(
            f"detailed-balance residual {report.detailed_balance_residual:.3e} "
            f"exceeds {db_tol:.1e}; mapped matrix would be nonsymmetric"
        )
    coo = sparse.coo_array(W.matrix)
    # Only energy differences enter, so no overflow shift is needed.
    data = -np.exp(0.5 * beta * (energies[coo.row] - energies[coo.col])) * coo.data
    matrix = sparse.coo_array((data, (coo.row, coo.col)), shape=coo.shape).tocsr()
    return QuantumHamiltonian(h0.n, matrix)


def heat_bath_chain_closed_form(n, beta):
    """Closed-form quantum Hamiltonian for the periodic ferromagnetic chain
    under heat-bath flips:

        H = -(1/2) sum_j sz_j sz_{j+1}
            - (1/(2 cosh 2b)) sum_j (cosh^2 b - sinh^2 b * sz_{j-1} sz_{j+1}) sx_j

    The off-diagonal part agrees entrywise with classical_to_quantum applied
    to the heat-bath chain generator. The diagonal written above does NOT:
    the mapped diagonal is n/2 - (tanh 2b / 2) sum_j sz_j sz_{j+1} (a
    constant plus a tanh 2b factor apart). This function materializes the
    formula as stated; callers comparing against the mapped generator should
    compare off-diagonals entrywise and the diagonal against the mapped form.
    """
    if n < 3:
        raise ValidationError("closed-form chain needs n >= 3 (distinct j-1, j, j+1)")
    if n > MAX_OPERATOR_SPINS:
        raise ResourceLimitError(f"n={n} exceeds the {MAX_OPERATOR_SPINS}-spin cap")
    if not math.isfinite(beta) or beta < 0:
        raise ValidationError(f"beta must be finite and >= 0, got {beta!r}")
    dim = 1 << n
    idx = np.arange(dim, dtype=np.int64)

    sz = np.empty((n, dim))
    for j in range(n):
        sz[j] = 1.0 - 2.0 * ((idx >> j) & 1)

    diag = np.zeros(dim)
    for j in range(n):
        diag += -0.5 * sz[j] * sz[(j + 1) % n]

    ch, sh = math.cosh(beta) ** 2, math.sinh(beta) ** 2
    denom = 2.0 * math.cosh(2.0 * beta)
    off = -(ch - sh * np.roll(sz, 1, axis=0) * np.roll(sz, -1, axis=0)) / denom
    return QuantumHamiltonian(n, flip_matrix(diag, off))


def transverse_field_hamiltonian(h0, gamma):
    """H = diag(E) - gamma * sum_j sx_j in the sigma^z basis (stoquastic for
    gamma >= 0)."""
    if h0.n > MAX_OPERATOR_SPINS:
        raise ResourceLimitError(f"n={h0.n} exceeds the {MAX_OPERATOR_SPINS}-spin cap")
    energies = energy_table(h0).values
    off = np.full((h0.n, energies.size), -float(gamma))
    return QuantumHamiltonian(h0.n, flip_matrix(energies, off))


def ground_state(H, *, degeneracy_rtol=DEGENERACY_RTOL):
    """Lowest eigenpair with the Perron-Frobenius sign convention.

    The vector is normalized, its largest-magnitude component made positive,
    and the ratio min/max of components reported as positivity_margin.
    Raises DegenerateGroundStateError when the gap is below
    degeneracy_rtol * spectral width.
    """
    dim = H.matrix.shape[0]
    if H.n > MAX_OPERATOR_SPINS:
        raise ResourceLimitError(f"n={H.n} exceeds the {MAX_OPERATOR_SPINS}-spin cap")
    if H.n <= MAX_DENSE_SPINS:
        vals, vecs = np.linalg.eigh(H.dense())
        lam0, lam1, width = vals[0], vals[1], vals[-1] - vals[0]
        vec = vecs[:, 0]
    else:
        from .spectral import extreme_eigenpairs, gershgorin_bound

        result = extreme_eigenpairs(H, k=2)
        lam0, lam1 = result.eigenvalues[0], result.eigenvalues[1]
        width = gershgorin_bound(H) - lam0
        vec = result.eigenvectors[:, 0]
    if lam1 - lam0 <= degeneracy_rtol * max(width, 1.0):
        raise DegenerateGroundStateError(
            f"ground state degenerate: gap {lam1 - lam0:.3e} vs width {width:.3e}"
        )
    vec = np.asarray(vec, dtype=float)
    vec = vec / np.linalg.norm(vec)
    top = np.argmax(np.abs(vec))
    if vec[top] < 0:
        vec = -vec
    margin = float(vec.min() / vec.max()) if vec.max() > 0 else float("-inf")
    return GroundState(float(lam0), vec, margin)


@dataclass
class QtoCResult:
    """Recovered classical dynamics plus the bookkeeping of the inversion."""

    model: ClassicalHamiltonian
    generator: GeneratorMatrix
    shift: float
    lambda0: float
    positivity_margin: float


def quantum_to_classical(H, tol=1e-12):
    """Invert the mapping: stoquastic symmetric H -> (classical model, generator).

    The matrix is shifted internally by -lambda_0 I so the ground state has
    eigenvalue zero; the recovered energy is E'(s) = -2 log phi_s (returned
    as a full Walsh coefficient table) and
    W'[s, s'] = -phi_s (H - lambda_0)[s, s'] / phi_s'.
    """
    if tol < 0:
        raise ValidationError("tol must be >= 0")
    scale = abs(H.matrix).max()
    asym = abs(H.matrix - H.matrix.T).max() / scale if scale > 0 else 0.0
    if asym > SYMMETRY_RTOL:
        raise MappingPreconditionError(
            f"nonsymmetric: max|H - H^T| / max|H| = {asym:.3e} exceeds {SYMMETRY_RTOL:.1e}"
        )
    coo = sparse.coo_array(H.matrix)
    off = coo.row != coo.col
    if np.any(coo.data[off] > tol):
        worst = float(coo.data[off].max())
        raise NonStoquasticError(
            f"non-stoquastic: positive off-diagonal {worst:.3e} exceeds tol {tol:.1e}"
        )
    # Imported here: csgraph adds about 40 ms and 1 MiB to every cqmap import.
    from scipy.sparse.csgraph import connected_components

    dim = H.matrix.shape[0]
    edges = off & (np.abs(coo.data) > tol)
    adjacency = sparse.coo_array(
        (np.ones(edges.sum()), (coo.row[edges], coo.col[edges])), shape=(dim, dim)
    )
    n_components, _ = connected_components(adjacency, directed=False)
    if n_components != 1:
        raise ReducibleOperatorError(
            f"off-diagonal adjacency graph has {n_components} components; "
            "Perron-Frobenius reasoning needs an irreducible matrix"
        )

    gs = ground_state(H)
    lam0 = gs.value
    phi = gs.vector
    if gs.positivity_margin < 1e-12 or phi.min() <= 1e-300:
        raise IllConditionedLogError(
            f"ground-state positivity margin {gs.positivity_margin:.3e} too small "
            "for -2 log phi"
        )

    recovered_energy = -2.0 * np.log(phi)
    coeff_vec = walsh_transform(recovered_energy, "forward")
    coeffs = {int(mask): float(c) for mask, c in enumerate(coeff_vec)}
    model = ClassicalHamiltonian(H.n, coeffs)

    # W' off-diagonals from the stored entries; the diagonal W'_ss =
    # -(H_ss - lambda0) is assembled densely so the shift lands on zero
    # entries the sparse structure does not store.
    w_off = -phi[coo.row[off]] * coo.data[off] / phi[coo.col[off]]
    w_diag = -(H.matrix.diagonal() - lam0)
    idx = np.arange(dim, dtype=np.int64)
    w_matrix = sparse.coo_array(
        (np.concatenate([w_off, w_diag]),
         (np.concatenate([coo.row[off], idx]), np.concatenate([coo.col[off], idx]))),
        shape=(dim, dim),
    ).tocsr()
    generator = GeneratorMatrix(H.n, w_matrix, rule="q2c", beta=1.0)
    return QtoCResult(model, generator, shift=float(lam0), lambda0=float(lam0),
                      positivity_margin=gs.positivity_margin)


@dataclass
class RoundTripReport:
    """Deviations of q2c(c2q(...)) from the analytic identity."""

    coefficient_residual: float   # max |recovered - beta * original| over masks S != 0
    generator_residual: float     # max entrywise |W' - W|
    shift: float
    positivity_margin: float


def roundtrip_check(h0, beta, rule="heat-bath"):
    """Map classical -> quantum -> classical and report the residuals.

    The recovered energy equals beta * E + const, so coefficients are
    compared after dropping the constant (mask 0) from both sides.
    """
    if h0.n > MAX_ROUNDTRIP_SPINS:
        raise ResourceLimitError(
            f"n={h0.n} exceeds the {MAX_ROUNDTRIP_SPINS}-spin round-trip cap"
        )
    rule = canonical_rule(rule)
    W = build_generator(h0, beta, rule)
    H = classical_to_quantum(h0, beta, W)
    back = quantum_to_classical(H)

    expected = beta * dense_coefficients(h0)
    recovered = dense_coefficients(back.model)
    expected[0] = 0.0
    recovered[0] = 0.0
    coeff_residual = float(np.abs(recovered - expected).max())

    diff = back.generator.matrix - W.matrix
    gen_residual = float(np.abs(diff.data).max()) if diff.nnz else 0.0
    return RoundTripReport(coeff_residual, gen_residual, back.shift,
                           back.positivity_margin)


def write_hamiltonian(H, path):
    cqio.write_coordinate(H.matrix, path)


def read_hamiltonian(path):
    matrix = cqio.read_coordinate(path)
    dim = matrix.shape[0]
    n = dim.bit_length() - 1
    if n < 1 or dim != (1 << n):
        raise ValidationError(f"{path}: dimension {dim} is not a power of two >= 2")
    return QuantumHamiltonian(n, matrix)
