"""Boundary fuzzing of cli.dispatch: random model JSON, coordinate text and
sweep CSV go to commands of every group.

Each command must exit 0, 1, 2 or 3 without raising, and a failed command
must leave none of its output files (nor a temporary file) behind, also
when its last output path cannot be written. Spin
counts, coefficient magnitudes, dimensions and horizons are kept small so
that every accepted input runs in milliseconds.
"""

import json
import math
import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from cqmap.cli import dispatch

FUZZ = settings(max_examples=100, deadline=None)

# Command tails per input kind; {input} is the input file. Every flag that
# names an output is listed in OUTPUTS.
MODEL_COMMANDS = [
    ["model", "validate", "--model", "{input}"],
    ["model", "coeffs", "--model", "{input}", "--out", "coeffs.csv"],
    ["dynamics", "generator", "--model", "{input}", "--beta", "0.7", "--out", "W.txt"],
    ["dynamics", "verify", "--model", "{input}", "--beta", "0.7", "--out", "verify.json"],
    ["dynamics", "evolve", "--model", "{input}", "--beta", "0.7", "--t-final", "1",
     "--points", "3", "--out", "traj.csv"],
    ["map", "c2q", "--model", "{input}", "--beta", "0.7", "--rule", "metropolis",
     "--out", "H.txt"],
    ["map", "roundtrip", "--model", "{input}", "--beta", "0.7", "--out", "rt.json"],
    ["anneal", "compare", "--model", "{input}", "--beta0", "0.1", "--beta1", "2",
     "--sa-horizon", "2", "--gamma0", "3", "--qa-horizon", "2", "--steps", "5",
     "--out", "compare.json"],
]
COORDINATE_COMMANDS = [
    ["map", "q2c", "--hamiltonian", "{input}", "--out", "report.json",
     "--coeffs-out", "recovered.csv", "--generator-out", "W.txt"],
    ["spectrum", "dense", "--hamiltonian", "{input}", "--out", "spectrum.csv"],
    ["spectrum", "iterative", "--hamiltonian", "{input}", "--k", "2", "--out", "spectrum.csv"],
]
CSV_COMMANDS = [["spectrum", "fit", "--table", "{input}", "--out", "fit.json"]]
OUTPUTS = {"--out", "--coeffs-out", "--generator-out"}

numbers = st.one_of(
    st.integers(-3, 8),
    st.floats(-5, 5),
    st.sampled_from([math.nan, math.inf, -math.inf, 0.0, -0.0, 1e-300]),
)
scalars = st.one_of(st.none(), st.booleans(), numbers, st.text(max_size=4))
json_values = st.recursive(
    scalars,
    lambda inner: st.one_of(st.lists(inner, max_size=3),
                            st.dictionaries(st.text(max_size=4), inner, max_size=3)),
    max_leaves=8,
)
coefficients = st.floats(-3, 3)


def corrupt(draw, text):
    """``text`` as is, cut short, or with one of its lines replaced by noise."""
    lines = text.splitlines()
    how = draw(st.sampled_from(["keep", "keep", "cut", "line"]))
    if how == "cut":
        return text[:draw(st.integers(0, len(text)))]
    if how == "line":
        lines[draw(st.integers(0, len(lines) - 1))] = draw(st.text(max_size=12))
    return "\n".join(lines) + "\n"


@st.composite
def model_texts(draw):
    """A valid model of up to 6 spins, in some draws with one field replaced
    by a random JSON value; or a random JSON value."""
    if draw(st.integers(0, 4)) == 0:
        return corrupt(draw, json.dumps(draw(json_values)))
    n = draw(st.integers(1, 6))
    subsets = draw(st.lists(st.frozensets(st.integers(0, n - 1), min_size=1, max_size=3),
                            unique=True, max_size=4))
    spec = {"n": n, "terms": [{"sites": sorted(s), draw(st.sampled_from("cJh")):
                               draw(coefficients)} for s in subsets]}
    if draw(st.booleans()):
        spec["lattice"] = {"kind": "chain", "size": [n], "periodic": draw(st.booleans()),
                           "J": draw(coefficients), "h": draw(coefficients)}
    if draw(st.booleans()):
        fields = [spec, *spec["terms"]] + ([spec["lattice"]] if "lattice" in spec else [])
        target = draw(st.sampled_from(fields))
        target[draw(st.sampled_from(sorted(target) + ["extra"]))] = draw(json_values)
    return corrupt(draw, json.dumps(spec))


@st.composite
def coordinate_texts(draw):
    """A symmetric Hamiltonian of up to 4 spins whose off-diagonal entries
    are single spin flips (all of them in half the draws), nonpositive in
    most draws; in some draws the size line, an entry or a line is off."""
    n = draw(st.integers(1, 4))
    dim = 1 << n
    entries = {(s, s): draw(coefficients) for s in range(dim)}
    sign = draw(st.sampled_from([-1.0, -1.0, 1.0]))
    every_flip = draw(st.booleans())
    for s in range(dim):
        for j in range(n) if every_flip else draw(st.sets(st.integers(0, n - 1))):
            entries[(s, s ^ (1 << j))] = entries[(s ^ (1 << j), s)] = sign * draw(
                st.floats(0.05, 2))
    if draw(st.booleans()):
        entries[draw(st.tuples(st.integers(-1, dim), st.integers(-1, dim)))] = draw(numbers)
    size = draw(st.sampled_from([f"{dim} {dim} {len(entries)}"] * 3
                                + [f"{dim} {dim} {len(entries) + 1}", f"{dim + 1} {dim + 1} 0",
                                   f"{1 << 25} {1 << 25} 0", f"{dim} {dim // 2} 0"]))
    lines = ["%%sparse-coordinate real", size]
    lines += [f"{r + 1} {c + 1} {v!r}" for (r, c), v in sorted(entries.items())]
    return corrupt(draw, "\n".join(lines))


@st.composite
def csv_texts(draw):
    """A sweep CSV of 2 to 6 rows, nan tau for a failed row, in some draws
    with a cell replaced by noise."""
    rows = [[str(size), repr(draw(coefficients)), repr(draw(st.one_of(
        st.floats(0.1, 1e6), st.just(math.nan)))), "iterative", "0"]
        for size in draw(st.lists(st.integers(-1, 24), min_size=2, max_size=6))]
    if draw(st.booleans()):
        row = draw(st.sampled_from(rows))
        row[draw(st.integers(0, 4))] = draw(st.sampled_from(["", "x", "nan", "inf", "4.5"]))
    lines = ["size,gap,tau,method,residual"] + [",".join(row) for row in rows]
    return corrupt(draw, "\n".join(lines))


def check(command, text, unwritable):
    """Run one command on ``text``; with ``unwritable``, its last output
    path lies in a directory that does not exist."""
    with tempfile.TemporaryDirectory() as work:
        work = Path(work)
        (work / "input").write_text(text)
        argv = [str(work / "input") if arg == "{input}" else arg for arg in command]
        argv = [str(work / arg) if prev in OUTPUTS else arg
                for prev, arg in zip([None] + argv, argv)]
        if unwritable and argv[-2] in OUTPUTS:
            argv[-1] = str(work / "absent" / "out")
        outcome = dispatch(argv)
        assert outcome.exit_code in (0, 1, 2, 3), outcome
        if outcome.exit_code:
            assert [p.name for p in work.iterdir()] == ["input"], outcome.diagnostics


@FUZZ
@given(command=st.sampled_from(MODEL_COMMANDS), text=model_texts(), unwritable=st.booleans())
def test_random_model_json(command, text, unwritable):
    check(command, text, unwritable)


@FUZZ
@given(command=st.sampled_from(COORDINATE_COMMANDS), text=coordinate_texts(),
       unwritable=st.booleans())
def test_random_coordinate_text(command, text, unwritable):
    check(command, text, unwritable)


@FUZZ
@given(command=st.sampled_from(CSV_COMMANDS), text=csv_texts(), unwritable=st.booleans())
def test_random_sweep_csv(command, text, unwritable):
    check(command, text, unwritable)
