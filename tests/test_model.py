import json
import tracemalloc

import numpy as np
import pytest

import cqmap as cq
from cqmap.errors import ResourceLimitError, ValidationError
from cqmap.io import csv_text, json_text
from cqmap.model import coefficients_csv, dense_coefficients

from conftest import (coefficient_dict, model_from_dict, naive_energy_table, naive_walsh_forward,
                      random_model)


# ---------------------------------------------------------------- build_model

def test_single_bond_term():
    h0 = cq.build_model({"n": 2, "terms": [{"sites": [0, 1], "J": 1}]})
    assert coefficient_dict(h0) == {0b11: -1.0}


def test_single_field_term():
    h0 = cq.build_model({"n": 1, "terms": [{"sites": [0], "h": 0.7}]})
    assert coefficient_dict(h0) == {0b1: -0.7}


def test_chain4_periodic_matches_four_bonds():
    h0 = cq.chain(4)
    assert h0.masks.tolist() == [3, 6, 9, 12] and h0.values.tolist() == [-1.0] * 4


def test_duplicate_subset_rejected():
    spec = {"n": 2, "terms": [{"sites": [0, 1], "J": 1}, {"sites": [1, 0], "c": 2.0}]}
    with pytest.raises(ValidationError, match="duplicate"):
        cq.build_model(spec)


def test_site_out_of_range_rejected():
    with pytest.raises(ValidationError, match="site index"):
        cq.build_model({"n": 2, "terms": [{"sites": [0, 2], "J": 1}]})


def test_term_needs_exactly_one_value_key():
    with pytest.raises(ValidationError):
        cq.build_model({"n": 2, "terms": [{"sites": [0], "J": 1, "h": 1}]})


def test_lattice_description_merges_with_terms():
    spec = {
        "n": 4,
        "terms": [{"sites": [0], "h": 0.5}],
        "lattice": {"kind": "chain", "size": [4], "periodic": True, "J": 1.0},
    }
    h0 = cq.build_model(spec)
    coeffs = coefficient_dict(h0)
    assert coeffs[0b1] == -0.5
    assert coeffs[0b0011] == -1.0
    assert h0.masks.size == 5


@pytest.mark.parametrize("size", [[True], [1.0]])
def test_chain_size_must_be_an_integer(size):
    # True == 1 and 1.0 == 1 in Python; a grid's sides are refused alike.
    with pytest.raises(ValidationError, match="chain size"):
        cq.build_model({"n": 1, "lattice": {"kind": "chain", "size": size}})
    assert cq.build_model({"n": 1, "lattice": {"kind": "chain", "size": [1]}}).n == 1


def test_grid_2x2_periodic_doubles_bonds():
    h0 = cq.grid(2, 2)
    # 2x2 periodic: every nearest-neighbour pair is doubly bonded
    assert np.all(h0.values == -2.0)
    assert h0.masks.size == 4


def chain_by_bonds(n, periodic, coupling, field_h):
    """Chain coefficients from a direct loop over the bonds (j, j + 1 mod n),
    then the fields."""
    coeffs = {}
    for j in range(n) if periodic and n > 1 else range(n - 1):
        mask = (1 << j) | (1 << ((j + 1) % n))
        coeffs[mask] = coeffs.get(mask, 0.0) - coupling
    if field_h != 0.0:
        for j in range(n):
            coeffs[1 << j] = coeffs.get(1 << j, 0.0) - field_h
    return coeffs


@pytest.mark.parametrize("periodic", [True, False], ids=["periodic", "open"])
@pytest.mark.parametrize("coupling", [1.0, -0.7])
@pytest.mark.parametrize("field_h", [0.0, 0.3])
def test_chain_is_the_one_row_grid(periodic, coupling, field_h):
    for n in range(1, 12):
        h0 = cq.chain(n, periodic=periodic, coupling=coupling, field_h=field_h)
        # The same coefficients, bit for bit, in ascending mask order.
        assert h0.n == n
        assert list(zip(h0.masks.tolist(), h0.values.tolist())) == sorted(
            chain_by_bonds(n, periodic, coupling, field_h).items())


@pytest.mark.parametrize("build", [lambda: cq.chain(True), lambda: cq.chain(0),
                                   lambda: cq.grid(-1, -1), lambda: cq.grid(True, 3),
                                   lambda: cq.grid(2, 1.5)])
def test_lattice_sides_must_be_positive_integers(build):
    with pytest.raises(ValidationError, match="positive integer"):
        build()


def test_spin_count_guards():
    with pytest.raises(ValidationError, match="positive integer"):
        cq.ClassicalHamiltonian(0, [], [])
    with pytest.raises(ResourceLimitError, match="30-spin cap"):
        cq.ClassicalHamiltonian(31, [], [])


# --------------------------------------------------------------- energy_table

@pytest.mark.parametrize("build", [
    lambda h0: cq.gibbs_distribution(h0, 1.0),
    lambda h0: cq.build_generator(h0, 1.0),
    lambda h0: cq.classical_to_quantum(h0, 1.0),
    lambda h0: cq.transverse_field_hamiltonian(h0, 1.0),
], ids=["gibbs_distribution", "build_generator", "classical_to_quantum",
        "transverse_field_hamiltonian"])
def test_25_spins_are_refused_before_any_table_is_allocated(build):
    h0 = cq.ClassicalHamiltonian(25, [1, 3], [1.0, -0.5])
    tracemalloc.start()
    try:
        with pytest.raises(ResourceLimitError, match="n=25 exceeds the 24-spin cap"):
            build(h0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20  # a 2^25 table alone is 256 MiB


@pytest.mark.parametrize("build", [
    lambda h0: cq.gibbs_distribution(h0, 1.0),
    lambda h0: cq.build_generator(h0, 1.0),
    lambda h0: cq.classical_to_quantum(h0, 1.0),
    lambda h0: cq.transverse_field_hamiltonian(h0, 1.0),
    lambda h0: cq.run_qa(h0, cq.make_schedule("linear", (5.0, 0.0), 1.0), 4),
], ids=["gibbs_distribution", "build_generator", "classical_to_quantum",
        "transverse_field_hamiltonian", "run_qa"])
def test_an_overflowing_energy_table_is_refused(build):
    # Four bonds of -1e308 sum to -inf at the all-up state, and to NaN where
    # +inf meets -inf: each used to reach the outputs or a later check.
    h0 = cq.chain(4, coupling=1e308)
    with pytest.raises(ValidationError, match="energy table has a non-finite entry"):
        build(h0)


@pytest.mark.parametrize("build", [
    lambda h0: cq.dynamics.flip_table(h0),
    lambda h0: cq.dynamics.flip_delta(cq.energy_table(h0), 0, np.empty(2)),
    lambda h0: cq.build_generator(h0, 1.0),
    lambda h0: cq.dynamics.GeneratorProvider(h0, lambda t: 1.0),
    lambda h0: cq.classical_to_quantum(h0, 1.0),
], ids=["flip_table", "flip_delta", "build_generator", "GeneratorProvider",
        "classical_to_quantum"])
def test_an_overflowing_flip_difference_is_refused(build):
    # E = -+1e308 is a finite table, but its flip changes E by -+2e308: c2q
    # wrote -0 flip entries and the master equation ran to energies near
    # -1e307, each with a RuntimeWarning and exit code 0.
    h0 = cq.build_model({"n": 1, "terms": [{"sites": [0], "h": 1e308}]})
    with pytest.raises(ValidationError, match="flip energy difference is not finite"):
        build(h0)


def test_an_overflowing_energy_spread_is_refused():
    with pytest.raises(ValidationError, match="energy spread is not finite"):
        cq.model.gibbs_from_energies(1, np.array([-1e308, 1e308]), 1.0)
    # A spread that fits is fine, however far from 0.
    p = cq.model.gibbs_from_energies(1, np.array([1e308, 1e308]), 1.0).p
    assert p.tolist() == [0.5, 0.5]


def test_energy_table_single_bond_sign_enumeration():
    h0 = cq.build_model({"n": 2, "terms": [{"sites": [0, 1], "J": 1}]})
    assert cq.energy_table(h0).tolist() == [-1.0, 1.0, 1.0, -1.0]


def test_chain3_all_up_energy():
    assert cq.energy_table(cq.chain(3))[0] == -3.0


def test_energy_table_matches_naive_evaluator_exactly(rng):
    for _ in range(5):
        h0 = random_model(rng, 3)
        assert np.array_equal(cq.energy_table(h0), naive_energy_table(h0))


def test_energy_table_naive_agreement_up_to_n10(rng):
    h0 = random_model(rng, 10, pair_density=0.2)
    assert np.array_equal(cq.energy_table(h0), naive_energy_table(h0))


# ------------------------------------------------------------ walsh_transform

def test_walsh_forward_single_bond():
    c = cq.walsh_transform([-1.0, 1.0, 1.0, -1.0])
    expected = np.zeros(4)
    expected[0b11] = -1.0
    assert np.abs(c - expected).max() == 0.0


def test_walsh_forward_constant_table():
    c = cq.walsh_transform(np.full(8, 5.0))
    assert c[0] == 5.0
    assert np.abs(c[1:]).max() == 0.0


def test_walsh_matches_naive_quadratic_oracle(rng):
    f = rng.normal(size=16)
    c = cq.walsh_transform(f)
    assert np.abs(c - naive_walsh_forward(f)).max() < 1e-12


def test_walsh_roundtrip_identity(rng):
    # The character matrix squares to 2^N I, so two transforms return f / 2^N.
    for n in (1, 3, 6, 9, 12):
        f = rng.normal(size=1 << n) * 10
        back = cq.walsh_transform(cq.walsh_transform(f)) * (1 << n)
        assert np.abs(back - f).max() < 1e-12


def test_walsh_parseval(rng):
    for n in (2, 5, 8):
        f = rng.normal(size=1 << n)
        c = cq.walsh_transform(f)
        lhs = np.mean(f**2)
        rhs = np.sum(c**2)
        assert abs(lhs - rhs) < 1e-10 * abs(lhs)


def test_walsh_rejects_non_power_of_two():
    with pytest.raises(ValidationError, match="power of two"):
        cq.walsh_transform(np.zeros(6))


def test_walsh_of_energy_table_recovers_coefficients(rng):
    h0 = random_model(rng, 4)
    coeffs = cq.walsh_transform(cq.energy_table(h0))
    assert np.abs(coeffs - dense_coefficients(h0)).max() < 1e-12


# --------------------------------------------------------- gibbs_distribution

def test_gibbs_infinite_temperature_is_uniform():
    p = cq.gibbs_distribution(cq.chain(2, periodic=False), 0.0)
    assert np.abs(p.p - 0.25).max() == 0.0


def test_gibbs_two_state_closed_form():
    h = 0.8
    h0 = cq.build_model({"n": 1, "terms": [{"sites": [0], "h": h}]})
    for beta in (0.3, 1.0, 2.5):
        p = cq.gibbs_distribution(h0, beta)
        expected_up = np.exp(beta * h) / (2 * np.cosh(beta * h))
        assert abs(p.p[0] - expected_up) < 1e-14


def test_gibbs_matches_direct_summation():
    h0 = cq.chain(4)
    p = cq.gibbs_distribution(h0, 1.0)
    energies = naive_energy_table(h0)
    w = np.exp(-energies)
    assert np.abs(p.p - w / w.sum()).max() < 1e-14


def test_gibbs_normalized_and_shift_invariant(rng):
    h0 = random_model(rng, 5)
    p1 = cq.gibbs_distribution(h0, 0.7)
    coeffs = coefficient_dict(h0)
    shifted = model_from_dict(5, {**coeffs, 0: coeffs.get(0, 0.0) + 13.0})
    p2 = cq.gibbs_distribution(shifted, 0.7)
    assert abs(p1.p.sum() - 1.0) < 1e-12
    assert np.abs(p1.p - p2.p).max() < 1e-12


def test_gibbs_rejects_negative_beta():
    with pytest.raises(ValidationError):
        cq.gibbs_distribution(cq.chain(2, periodic=False), -1.0)


def test_probability_vector_validation():
    with pytest.raises(ValidationError):
        cq.ProbabilityVector(1, np.array([0.7, 0.2]))
    with pytest.raises(ValidationError):
        cq.ProbabilityVector(1, np.array([1.1, -0.1]))
    for bad in ([np.nan, np.nan], [np.inf, 0.0], [1.0, -np.inf]):
        with pytest.raises(ValidationError, match="non-finite"):
            cq.ProbabilityVector(1, np.array(bad))


# --------------------------------------------------------- interaction_profile

def test_profile_of_chain():
    profile = cq.interaction_profile(cq.chain(4))
    assert profile.orders == {2: {"count": 4, "max_abs": 1.0}}


def test_profile_empty_for_zero_coeffs():
    assert cq.interaction_profile(cq.ClassicalHamiltonian(3, [], [])).orders == {}
    assert cq.interaction_profile(cq.ClassicalHamiltonian(3, [3, 5], [0.0, 0.0])).orders == {}


def test_profile_noise_floor_is_scale_free():
    profile = cq.interaction_profile(cq.ClassicalHamiltonian(3, [0b11, 0b101], [1e6, 1e6 * 1e-12]))
    assert profile.orders[2]["count"] == 1


# ------------------------------------------------------ coefficient arrays

def dict_interaction_profile(coeffs):
    """interaction_profile over a {mask: coefficient} dict, one entry at a time."""
    tol = 1e-10 * max((abs(c) for c in coeffs.values()), default=0.0)
    orders = {}
    for mask, c in coeffs.items():
        if abs(c) > tol:
            entry = orders.setdefault(int(mask).bit_count(), {"count": 0, "max_abs": 0.0})
            entry["count"] += 1
            entry["max_abs"] = max(entry["max_abs"], abs(c))
    return dict(sorted(orders.items()))


def dict_coefficients_csv(coeffs):
    """coefficients_csv over a {mask: coefficient} dict, one entry at a time."""
    lines = ["mask,order,coefficient"]
    for mask in sorted(coeffs):
        lines.append(f"{mask},{int(mask).bit_count()},{coeffs[mask]:.17g}")
    return "\n".join(lines) + "\n"


def random_coefficients(rng, n):
    """Random masks of every order; values over 24 decades, some zero."""
    masks = rng.choice(1 << n, size=rng.integers(1, 1 << n, endpoint=True), replace=False)
    values = rng.normal(size=masks.size) * 10.0 ** rng.integers(-14, 10, size=masks.size)
    values[rng.random(masks.size) < 0.1] = 0.0
    return {int(m): float(c) for m, c in zip(masks, values)}


def test_model_holds_sorted_int64_masks_and_float64_values():
    h0 = cq.build_model({"n": 3, "terms": [{"sites": [2], "c": 1}, {"sites": [0, 1], "J": 2}]})
    assert h0.masks.dtype == np.int64 and h0.values.dtype == np.float64
    assert h0.masks.tolist() == [0b011, 0b100] and h0.values.tolist() == [-2.0, 1.0]


@pytest.mark.parametrize("masks, values, message", [
    ([1, 2], [1.0], "must be 1-D arrays of one length"),
    ([[1, 2]], [[1.0, 2.0]], "must be 1-D arrays of one length"),
    ([2, 1], [1.0, 1.0], "strictly ascending"),
    ([1, 1], [1.0, 1.0], "strictly ascending"),
    ([1, 8, 9], [1.0, 1.0, 1.0], r"coefficient mask 0x8 outside \[0, 2\^3\)"),
    ([-1], [1.0], r"coefficient mask -0x1 outside \[0, 2\^3\)"),
    ([1, 2, 3], [1.0, np.inf, np.nan], "non-finite coefficient for mask 0x2"),
], ids=["length", "2-d", "unsorted", "repeated", "too-high", "negative", "non-finite"])
def test_coefficient_arrays_are_checked(masks, values, message):
    with pytest.raises(ValidationError, match=message):
        cq.ClassicalHamiltonian(3, masks, values)


def test_empty_model():
    h0 = cq.ClassicalHamiltonian(3, [], [])
    assert h0.masks.dtype == np.int64 and h0.masks.size == 0
    assert cq.energy_table(h0).tolist() == [0.0] * 8
    assert dense_coefficients(h0).tolist() == [0.0] * 8
    assert coefficients_csv(h0) == "mask,order,coefficient\n"
    assert cq.interaction_profile(h0).orders == {}
    assert cq.build_model({"n": 3}).masks.size == 0


def test_profile_and_csv_match_the_dict_reference(rng):
    tf = cq.quantum_to_classical(cq.transverse_field_hamiltonian(cq.chain(6), 0.7)).model
    models = [(tf.n, coefficient_dict(tf))]
    models += [(n, random_coefficients(rng, n)) for n in (1, 3, 5, 8) for _ in range(5)]
    for n, coeffs in models:
        h0 = model_from_dict(n, coeffs)
        assert coefficients_csv(h0) == dict_coefficients_csv(coeffs)
        profile = cq.interaction_profile(h0).orders
        assert json_text(profile) == json_text(dict_interaction_profile(coeffs))
        assert all(type(e["count"]) is int and type(e["max_abs"]) is float
                   for e in profile.values())


# ------------------------------------------------------------------- file I/O

def test_load_model_json(tmp_path):
    path = tmp_path / "m.json"
    path.write_text(json.dumps({"n": 2, "terms": [{"sites": [0, 1], "J": 1.5}]}))
    h0 = cq.load_model(path)
    assert coefficient_dict(h0) == {0b11: -1.5}


def test_load_model_bad_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{nope")
    with pytest.raises(ValidationError, match="invalid model JSON"):
        cq.load_model(path)


def test_csv_text_cells():
    text = csv_text("size,gap,tau,method", [(6, np.float64(0.1), float("nan"), "error"),
                                            (np.int64(8), 2.5, np.float64(-1e-300), "dense")])
    assert text == "size,gap,tau,method\n6,0.10000000000000001,nan,error\n8,2.5,-1e-300,dense\n"
    assert csv_text("a,b", []) == "a,b\n"


def test_coefficients_csv_layout():
    text = coefficients_csv(cq.chain(3))
    lines = text.strip().splitlines()
    assert lines[0] == "mask,order,coefficient"
    assert lines[1] == "3,2,-1"
    assert len(lines) == 4
