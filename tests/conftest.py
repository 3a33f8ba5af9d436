"""Shared helpers: random instances and independent brute-force oracles."""

import numpy as np
import pytest
import scipy.linalg
from scipy.integrate import solve_ivp
from scipy.special import expit

from cqmap import ClassicalHamiltonian, build_generator
from cqmap.dynamics import _grid_states, read_flipped


def model_from_dict(n, coeffs):
    """A ClassicalHamiltonian from a {mask: coefficient} dict."""
    masks = sorted(coeffs)
    return ClassicalHamiltonian(n, masks, [coeffs[m] for m in masks])


def coefficient_dict(h0):
    """A model's coefficients as a {mask: coefficient} dict of Python numbers."""
    return dict(zip(h0.masks.tolist(), h0.values.tolist()))


def random_model(rng, n, pair_density=0.8, field_density=0.5, field_scale=0.5):
    """Random pair-plus-field instance with at least one coupling."""
    coeffs = {}
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < pair_density:
                coeffs[(1 << i) | (1 << j)] = float(rng.normal())
        if field_density and rng.random() < field_density:
            coeffs[1 << i] = float(rng.normal() * field_scale)
    if not coeffs:
        coeffs[0b11 & ((1 << n) - 1) if n >= 2 else 1] = float(rng.normal())
    return model_from_dict(n, coeffs)


def array_fill(diag, off):
    """A flip_matrix fill for an operator held as arrays: ``diag`` on the
    diagonal and ``off[j, s]`` at ``(s ^ (1 << j), s)``, so row r reads
    ``off[j, r ^ (1 << j)]``."""
    def fill(r0, values):
        values[0] = diag[r0:r0 + values.shape[1]]
        for j, row in enumerate(off):
            read_flipped(row, j, r0, values[j + 1])
    return fill


def held_bytes(H):
    """Bytes of an H as held: its diagonal and strict upper CSR."""
    return H.diag.nbytes + sum(getattr(H.upper, name).nbytes
                               for name in ("data", "indices", "indptr"))


def naive_energy(h0, index):
    """Per-configuration energy by direct term summation (pure python)."""
    total = 0.0
    for mask, c in sorted(coefficient_dict(h0).items()):
        sign = 1
        for j in range(h0.n):
            if (mask >> j) & 1 and (index >> j) & 1:
                sign = -sign
        total += c * sign
    return total


def naive_energy_table(h0):
    return np.array([naive_energy(h0, i) for i in range(1 << h0.n)])


def naive_walsh_forward(values):
    """Quadratic-time character sums, independent of the butterfly."""
    m = len(values)
    out = np.empty(m)
    for mask in range(m):
        acc = 0.0
        for i in range(m):
            acc += values[i] * (-1.0) ** bin(i & mask).count("1")
        out[mask] = acc / m
    return out


def grid_states(provider, p0, t_grid):
    """integrate_master's Dormand-Prince stream, stacked: the states it
    reduces, one row per grid time, and its accepted and rejected steps."""
    stream = list(_grid_states(provider, np.asarray(p0, dtype=float),
                               np.asarray(t_grid, dtype=float)))
    _, steps, rejected = stream[-1]
    return np.array([state for state, _, _ in stream]), steps, rejected


def master_equation_oracle(h0, beta_of_t, p0, t_eval):
    """Heat-bath master equation dP/dt = W(beta(t)) P solved by scipy's DOP853
    at rtol 1e-12, states at t_eval (rows).

    The right-hand side is built once from the definition, rate
    1/(1 + exp(beta dE)) for every flip s -> s ^ (1 << j) on the naive energy
    table, so an evaluation costs two bincounts; it is checked against
    build_generator(h0, beta(t)).matrix at both ends of the span.
    """
    energies = naive_energy_table(h0)
    dim = energies.size
    src = np.tile(np.arange(dim), h0.n)
    dst = src ^ np.repeat(1 << np.arange(h0.n), dim)
    delta_e = energies[dst] - energies[src]

    def rhs(t, p):
        flow = expit(-beta_of_t(t) * delta_e) * p[src]
        return np.bincount(dst, flow, dim) - np.bincount(src, flow, dim)

    for t in (t_eval[0], t_eval[-1]):
        W = build_generator(h0, beta_of_t(t)).matrix
        assert np.abs(rhs(t, p0) - W @ p0).max() <= 1e-15
    sol = solve_ivp(rhs, (t_eval[0], t_eval[-1]), p0, method="DOP853",
                    t_eval=t_eval, rtol=1e-12, atol=1e-15)
    assert sol.success, sol.message
    return sol.y.T


def ring_qa_oracle(n, gamma_of_t, t_eval):
    """Mean classical energy of the transverse-field anneal of the periodic
    ring E = -sum s_i s_(i+1) (n even, h = 0) from the uniform state, at
    t_eval, by Jordan-Wigner: the uniform state is the fermion vacuum of the
    even sector, and each mode k = pi (2m - 1) / n, m = 1 .. n/2, evolves on
    its own by i dpsi_k/dt = 2 [[G - cos k, sin k], [sin k, cos k - G]] psi_k
    from psi_k(0) = (0, 1) (Pfeuty, Ann. Phys. 57, 79 (1970)). The energy is
    sum_k <psi_k| H_k(G = 0) |psi_k>. Solved by scipy's DOP853 at rtol =
    atol = 1e-13.
    """
    k = np.pi * (2 * np.arange(1, n // 2 + 1) - 1) / n
    cos_k, sin_k = np.cos(k), np.sin(k)

    def rhs(t, y):
        up, down = y[:k.size], y[k.size:]
        a = gamma_of_t(t) - cos_k
        return -2j * np.concatenate([a * up + sin_k * down, sin_k * up - a * down])

    y0 = np.concatenate([np.zeros(k.size), np.ones(k.size)]).astype(complex)
    sol = solve_ivp(rhs, (t_eval[0], t_eval[-1]), y0, method="DOP853",
                    t_eval=t_eval, rtol=1e-13, atol=1e-13)
    assert sol.success, sol.message
    up, down = sol.y[:k.size], sol.y[k.size:]
    return 2 * (cos_k @ (np.abs(down) ** 2 - np.abs(up) ** 2)
                + 2 * sin_k @ (up.conj() * down).real)


def ring_sa_oracle(n, beta_of_t, t_eval):
    """Mean energy of the heat-bath master equation of the periodic ring
    E = -sum s_i s_(i+1) (n >= 3, h = 0) from the uniform distribution, at
    t_eval, by Glauber's correlation equations. At unit attempt rate the
    flip rate of spin i is (1 - (gamma/2) s_i (s_(i-1) + s_(i+1))) / 2 with
    gamma = tanh 2 beta(t), so G_r = <s_i s_(i+r)> obeys
    dG_r/dt = -2 G_r + gamma (G_(r-1) + G_(r+1)) with G_0 = G_n = 1, closed
    for any beta(t), from G_r(0) = 0 (Glauber, J. Math. Phys. 4, 294
    (1963)). The energy is -n G_1. Solved by scipy's DOP853 at rtol 1e-12,
    atol 1e-14.
    """
    def rhs(t, g):
        padded = np.concatenate(([1.0], g, [1.0]))
        return -2.0 * g + np.tanh(2.0 * beta_of_t(t)) * (padded[:-2] + padded[2:])

    sol = solve_ivp(rhs, (t_eval[0], t_eval[-1]), np.zeros(n - 1), method="DOP853",
                    t_eval=t_eval, rtol=1e-12, atol=1e-14)
    assert sol.success, sol.message
    return -n * sol.y[0]


def reference_lanczos(apply, v0, steps):
    """Yield (q_i, alpha_i, beta_i) of the plain Lanczos recurrence from the
    unit vector v0 for at most steps steps, stopping after a beta of 0."""
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


def reference_deflated_pair(matvec, sigma, ground, v0):
    """(theta, Ritz vector) of the lowest eigenvalue of
    H + sigma phi0 phi0^T by two Lanczos passes over a product x -> H x that
    allocates every vector, the second pass recomputing the first: the
    solve's stop rule at tol 0 and its test schedule (every step up to 256,
    then m // 32 apart) at the default cap of 10 times the dimension."""
    phi0 = ground[0]
    v0 = v0 - (phi0 @ v0) * phi0
    v0 /= np.linalg.norm(v0)

    def apply(x):
        y = matvec(x)
        y += (sigma * (phi0 @ x)) * phi0
        return y

    steps = 10 * v0.size
    floor = np.finfo(float).eps * sigma
    alphas, betas = [], []
    check = 1
    for m, (_, alpha, beta) in enumerate(reference_lanczos(apply, v0, steps), start=1):
        alphas.append(alpha)
        betas.append(beta)
        if m < check and m < steps and beta != 0.0:
            continue
        check = m + 1 if m < 256 else m + m // 32
        theta, s = scipy.linalg.eigh_tridiagonal(alphas, betas[:-1], select="i",
                                                 select_range=(0, 0))
        if beta == 0.0 or abs(beta * s[-1, 0]) <= floor:
            break
    y = np.zeros_like(v0)
    for (q, _, _), coef in zip(reference_lanczos(apply, v0, len(alphas)), s[:, 0]):
        y += coef * q
    return theta[0], y / np.linalg.norm(y)


@pytest.fixture
def rng():
    return np.random.default_rng(20240811)
