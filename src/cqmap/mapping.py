"""Similarity transform between detailed-balance generators and stoquastic
Hamiltonians, in both directions.

Classical -> quantum: H[s, s'] = -exp(+beta E(s)/2) W[s, s'] exp(-beta E(s')/2).
Detailed balance makes every flip entry the geometric mean of the two rates
it joins, so H is written in closed form from the energies and the flip
rule, exactly symmetric, with no generator built. H shares the spectrum of
-W, its lowest eigenvalue is 0 and the ground state is proportional to
exp(-beta E/2).

Quantum -> classical: for a symmetric matrix with non-positive off-diagonals
and an irreducible coupling graph, the (elementwise positive) ground state
phi defines an energy E'(s) = -2 log phi_s and a generator
W'[s, s'] = -phi_s (H - lambda_0)[s, s'] / phi_s', whose stationary
distribution is phi^2. Applying it to the mapped H recovers beta E up to a
constant, so the round trip is an identity. Its symmetry, like H's shape
and size cap, is checked when a QuantumHamiltonian is made from a CSR;
every H is then held as its diagonal and strict upper triangle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import sparse

from . import io as cqio
from .dynamics import (
    array_fill,
    build_generator,
    canonical_rule,
    check_flip_delta,
    flip_matrix,
    flip_rates,
    read_flipped,
    relative_asymmetry,
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
    MAX_OPERATOR_SPINS,
    ClassicalHamiltonian,
    check_beta,
    dense_coefficients,
    energy_table,
    walsh_transform,
)

MAX_ROUNDTRIP_SPINS = 10

# Relative ground-state degeneracy tolerance (fraction of spectral width).
DEGENERACY_RTOL = 1e-10
# Tolerance on relative_asymmetry(H) of every H made from a CSR.
SYMMETRY_RTOL = 1e-10


def check_finite(*arrays):
    """Refuse H when any of its stored arrays holds a NaN or infinite entry."""
    if not all(np.all(np.isfinite(a)) for a in arrays):
        raise ValidationError("H has a NaN or infinite entry")


class QuantumHamiltonian:
    """Real symmetric matrix in the sigma^z product basis, held once per
    symmetric pair: ``diag``, a 2^n vector, plus ``upper``, the strict upper
    triangle as an int32 CSR with sorted rows. For a flip-built H, row r of
    upper holds the entries at r ^ (1 << j) for the unset bits j of r in
    ascending j (flip_matrix(n, fill, upper=True)): 6n + 12 bytes per state
    where the full CSR takes 12(n + 1) + 4.

    QuantumHamiltonian(n, csr) checks a CSR's contract once: shape
    (2^n, 2^n) with n >= 1, the 24-spin cap from the shape before any entry
    is read, finite entries, then max|H - H^T| / max|H| <= SYMMETRY_RTOL.
    The CSR, canonicalized on a copy if it is not, is then split by one mask
    into its diagonal and strict upper triangle; its lower triangle is
    dropped. The flip builders pass their halves to QuantumHamiltonian.held,
    unchecked: they are symmetric by construction.
    """

    def __init__(self, n, matrix):
        rows, cols = matrix.shape
        if rows > 1 << MAX_OPERATOR_SPINS:  # from the shape, before any entry is read
            raise ResourceLimitError(f"dimension {rows} exceeds the 2^{MAX_OPERATOR_SPINS} cap")
        if not (isinstance(n, (int, np.integer)) and 1 <= n <= MAX_OPERATOR_SPINS
                and rows == cols == 1 << n):
            raise ValidationError(f"H must be 2^n x 2^n, n >= 1: n={n!r}, {rows} x {cols}")
        matrix = cqio.canonical_csr(matrix)
        check_finite(matrix.data)  # the solvers' refusal of a flip-built H
        asym = relative_asymmetry(matrix)
        if not asym <= SYMMETRY_RTOL:  # a NaN fails
            raise MappingPreconditionError(
                f"nonsymmetric: max|H - H^T| / max|H| = {asym:.3e} exceeds {SYMMETRY_RTOL:.1e}"
            )
        entry_rows = cqio.entry_rows(matrix)
        above = matrix.indices > entry_rows
        indptr = np.zeros(rows + 1, dtype=np.int32)
        np.cumsum(np.bincount(entry_rows[above], minlength=rows), out=indptr[1:])
        upper = sparse.csr_array((matrix.data[above], matrix.indices[above].astype(np.int32),
                                  indptr), shape=matrix.shape)
        self.n, self.diag, self.upper = n, matrix.diagonal(), upper

    @classmethod
    def held(cls, n, diag, upper):
        """The H held as ``(diag, upper)``, unchecked: for halves symmetric by
        construction, as flip_matrix(n, fill, upper=True) returns them."""
        H = cls.__new__(cls)
        H.n, H.diag, H.upper = n, diag, upper
        return H

    @property
    def dim(self):
        return 1 << self.n

    @property
    def matrix(self):
        """The full CSR diag + upper + upper^T, built on each read and not
        kept. Row r holds upper^T's entries (upper's column r), then the
        diagonal, stored also where it is 0, then upper's row r: sorted, with
        int32 indices. Entries are placed at int32 positions one
        io.row_blocks block at a time, so beside the result and a transposed
        copy of upper the positions take a few vectors. For a flip-built H
        this is bit for bit the CSR flip_matrix writes for the full operator.
        """
        diag, upper = self.diag, self.upper
        lower = upper.tocsc()  # its arrays are upper^T's CSR
        r = np.arange(diag.size + 1, dtype=np.int32)
        indptr = lower.indptr + upper.indptr + r
        data = np.empty(indptr[-1])
        indices = np.empty(indptr[-1], dtype=np.int32)
        place = indptr[:-1] + np.diff(lower.indptr)
        data[place], indices[place] = diag, r[:-1]
        # Entry k of part's row i goes to place k + start[i] of the full CSR.
        halves = ((lower, upper.indptr[:-1] + r[:-1]), (upper, lower.indptr[1:] + r[1:]))
        for part, start in halves:
            for lo, hi, a, b in cqio.row_blocks(part):
                place = np.repeat(start[lo:hi], np.diff(part.indptr[lo:hi + 1]))
                place += np.arange(a, b, dtype=np.int32)
                data[place], indices[place] = part.data[a:b], part.indices[a:b]
        return sparse.csr_array((data, indices, indptr), shape=(diag.size, diag.size))


@dataclass
class GroundState:
    value: float
    vector: np.ndarray
    positivity_margin: float


def _conjugate(matrix, energies, scale):
    """M -> -diag(a) M diag(a)^-1 with a = exp(scale * energies), in place on
    the stored entries of a CSR M, which is returned.

    Each entry is multiplied by -exp(scale (E[row] - E[col])), one block of
    io.row_blocks at a time, so the temporaries stay a few vectors long.
    """
    indptr, indices, data = matrix.indptr, matrix.indices, matrix.data
    for lo, hi, a, b in cqio.row_blocks(matrix):
        x = np.repeat(energies[lo:hi], np.diff(indptr[lo:hi + 1]))
        x -= energies[indices[a:b]]
        x *= scale
        np.exp(x, out=x)
        np.negative(x, out=x)
        data[a:b] *= x
    return matrix


def classical_to_quantum(h0, beta, rule="heat-bath", energies=None):
    """The mapped Hamiltonian H = -diag(a) W diag(a)^-1, a = exp(beta E / 2),
    of W = build_generator(h0, beta, rule), written from the energies alone.

    Detailed balance, w(x) / w(-x) = exp(-x), makes the flip entry at
    (s ^ (1 << j), s) the geometric mean -sqrt(w(x) w(-x)) of the two rates
    it joins, with x = beta (E(s ^ (1 << j)) - E(s)). With u = exp(-|x|/2)
    that is -u / (1 + u^2) = -1/(2 cosh(x/2)) for heat-bath and -u for
    Metropolis, so no beta overflows. Both are even in x, so H is exactly
    symmetric and row r's entry for spin j is taken at x_j(r). The diagonal
    sums the rule's flip_rates in spin order, which is -W.diag bit for bit.
    Each block of flip_matrix's rows is computed from the energies, and only
    the diagonal and the strict upper triangle are kept, so the map holds
    those, the energies and block-sized temporaries. A caller that holds
    energy_table(h0) already passes it as ``energies``.
    """
    check_beta(beta)
    rule = canonical_rule(rule)
    if energies is None:
        energies = energy_table(h0)

    def fill(r0, values):
        x = values[1:]
        for j, row in enumerate(x):
            read_flipped(energies, j, r0, row)
        with np.errstate(over="ignore", invalid="ignore"):
            x -= energies[r0:r0 + values.shape[1]]
        check_flip_delta(x)
        flip_rates(x, beta, rule).sum(axis=0, out=values[0])
        np.abs(x, out=x)
        x *= -0.5 * beta
        np.exp(x, out=x)
        x /= -(1.0 + x * x) if rule == "heat-bath" else -1.0

    return QuantumHamiltonian.held(h0.n, *flip_matrix(h0.n, fill, upper=True))


def heat_bath_chain_closed_form(n, beta):
    """Closed-form quantum Hamiltonian for the periodic ferromagnetic chain
    under heat-bath flips:

        H = -(1/2) sum_j sz_j sz_{j+1}
            - (1/(2 cosh 2b)) sum_j (cosh^2 b - sinh^2 b * sz_{j-1} sz_{j+1}) sx_j

    The off-diagonal part agrees entrywise with classical_to_quantum of the
    chain under heat-bath flips. The diagonal written above does NOT:
    the mapped diagonal is n/2 - (tanh 2b / 2) sum_j sz_j sz_{j+1} (a
    constant plus a tanh 2b factor apart). This function materializes the
    formula as stated; callers comparing against the mapped generator should
    compare off-diagonals entrywise and the diagonal against the mapped form.
    The sx coefficient is evaluated as -((1 + u) - (1 - u) sz_{j-1} sz_{j+1})/4
    with u = 1/cosh 2b = 2 e^{-2b} / (1 + e^{-4b}), which no beta overflows.
    Flipping spin j leaves sz_{j-1} and sz_{j+1} alone, so each block of
    flip_matrix's rows is computed from its own spins, no n x 2^n array is
    held, and H is kept as its diagonal and strict upper triangle.
    """
    if n < 3:
        raise ValidationError("closed-form chain needs n >= 3 (distinct j-1, j, j+1)")
    if n > MAX_OPERATOR_SPINS:
        raise ResourceLimitError(f"n={n} exceeds the {MAX_OPERATOR_SPINS}-spin cap")
    check_beta(beta)
    e = math.exp(-2.0 * beta)
    u = 2.0 * e / (1.0 + e * e)
    spins = np.arange(n)[:, None]

    def fill(r0, values):
        rows = np.arange(r0, r0 + values.shape[1], dtype=np.int64)
        sz = 1.0 - 2.0 * ((rows >> spins) & 1)
        values[0] = 0.0
        for j in range(n):
            values[0] += -0.5 * sz[j] * sz[(j + 1) % n]
        values[1:] = -((1.0 + u) - (1.0 - u) * np.roll(sz, 1, axis=0)
                       * np.roll(sz, -1, axis=0)) / 4.0

    return QuantumHamiltonian.held(n, *flip_matrix(n, fill, upper=True))


def transverse_field_hamiltonian(h0, gamma):
    """H = diag(E) - gamma * sum_j sx_j in the sigma^z basis (stoquastic for
    gamma >= 0), held as its diagonal and strict upper triangle."""
    energies = energy_table(h0)
    off = np.broadcast_to(-float(gamma), (h0.n, energies.size))
    return QuantumHamiltonian.held(h0.n, *flip_matrix(h0.n, array_fill(energies, off),
                                                   upper=True))


def ground_state(H):
    """Lowest eigenpair with the Perron-Frobenius sign convention.

    The two lowest pairs come from the one lowest-pairs solver of spectral
    (dense LAPACK up to 32 states, ARPACK above). The vector is normalized,
    its largest-magnitude component made positive, and the ratio min/max of
    components reported as positivity_margin. Raises ValidationError on a
    NaN or infinite entry, and DegenerateGroundStateError when the gap is
    below DEGENERACY_RTOL * width, where the width is the Gershgorin bound
    minus lambda_0.
    """
    from .spectral import _lowest_pairs, gershgorin_bound

    pairs = _lowest_pairs(H, 2)
    lam0, lam1 = pairs.eigenvalues
    width = gershgorin_bound(H) - lam0
    if lam1 - lam0 <= DEGENERACY_RTOL * max(width, 1.0):
        raise DegenerateGroundStateError(
            f"ground state degenerate: gap {lam1 - lam0:.3e} vs width {width:.3e}"
        )
    vec = pairs.eigenvectors[:, 0] / np.linalg.norm(pairs.eigenvectors[:, 0])
    top = np.argmax(np.abs(vec))
    if vec[top] < 0:
        vec = -vec
    margin = float(vec.min() / vec.max()) if vec.max() > 0 else float("-inf")
    return GroundState(float(lam0), vec, margin)


@dataclass
class QtoCResult:
    """Recovered classical dynamics plus the bookkeeping of the inversion."""

    model: ClassicalHamiltonian
    generator: sparse.csr_array   # W'
    lambda0: float
    positivity_margin: float


def quantum_to_classical(H, tol=1e-12):
    """Invert the mapping: stoquastic symmetric H -> (classical model, generator).

    H's symmetry was checked when it was made. The stoquastic and
    connectivity checks read its strict upper triangle, and the ground state
    is solved on its halves. The matrix is shifted internally by -lambda_0 I
    so the ground state has eigenvalue zero; the recovered energy is
    E'(s) = -2 log phi_s, returned as the model of all 2^n Walsh coefficients
    (masks = arange(2^n), 16 B per state), and
    W' = -diag(phi) (H - lambda_0) diag(phi)^-1, the classical_to_quantum
    similarity run backwards with a = exp(-E'/2) = phi, on the one full CSR
    built from the halves.
    """
    if not (math.isfinite(tol) and tol >= 0):
        raise ValidationError(f"tol must be finite and >= 0, got {tol!r}")
    worst = float(H.upper.data.max(initial=-np.inf))
    if not worst <= tol:  # a NaN fails, before the solve
        raise NonStoquasticError(
            f"non-stoquastic: positive off-diagonal {worst:.3e} exceeds tol {tol:.1e}"
        )
    # Imported here: csgraph adds about 40 ms and 1 MiB to every cqmap import.
    from scipy.sparse.csgraph import connected_components

    n_components, _ = connected_components(abs(H.upper) > tol, directed=False)
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
    model = ClassicalHamiltonian(H.n, np.arange(phi.size), walsh_transform(recovered_energy))

    # The one full CSR q2c builds: H - lambda0 I, every diagonal entry stored.
    shifted = QuantumHamiltonian.held(H.n, H.diag - lam0, H.upper).matrix
    generator = _conjugate(shifted, recovered_energy, -0.5)
    return QtoCResult(model, generator, lambda0=float(lam0),
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
    W = build_generator(h0, beta, rule)
    H = classical_to_quantum(h0, beta, rule)
    back = quantum_to_classical(H)

    expected = beta * dense_coefficients(h0)
    recovered = dense_coefficients(back.model)
    expected[0] = 0.0
    recovered[0] = 0.0
    coeff_residual = float(np.abs(recovered - expected).max())

    diff = back.generator - W.matrix
    gen_residual = float(np.abs(diff.data).max()) if diff.nnz else 0.0
    return RoundTripReport(coeff_residual, gen_residual, back.lambda0,
                           back.positivity_margin)


def write_hamiltonian(H, path):
    cqio.write_coordinate(H.matrix, path)


def read_hamiltonian(path):
    return QuantumHamiltonian(*cqio.read_coordinate(path))
