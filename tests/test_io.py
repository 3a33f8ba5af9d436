"""The sparse-coordinate format: the block-wise writer against a per-line
reference, the reader's refusals through cli.dispatch, and the memory the
two ends hold."""

import tracemalloc
import warnings

import numpy as np
import pytest
from scipy import sparse

import cqmap as cq
from cqmap import io as cqio
from cqmap.cli import dispatch

BLOCK = cqio.COORDINATE_BLOCK


def per_line_text(matrix):
    """The format as written one f-string per entry: the byte reference."""
    coo = sparse.coo_array(matrix)
    order = np.lexsort((coo.col, coo.row))
    lines = [cqio.COORDINATE_HEADER, f"{coo.shape[0]} {coo.shape[1]} {coo.nnz}"]
    for k in order:
        lines.append(f"{coo.row[k] + 1} {coo.col[k] + 1} {cqio.format_float(coo.data[k])}")
    return "\n".join(lines) + "\n"


def random_coo(rng, dim, nnz):
    """nnz distinct places of a dim x dim matrix in random order, with values
    that stress the 17-digit format: -0.0, the smallest subnormal, 1e308,
    integer-valued floats and plain normals of both signs."""
    places = rng.choice(dim * dim, size=nnz, replace=False)
    special = np.array([-0.0, 0.0, 5e-324, -5e-324, 1e308, -1e308, 1.0, -3.0, 12345678.0])
    values = rng.normal(size=nnz) * 10.0 ** rng.integers(-20, 20, size=nnz)
    pick = rng.random(nnz) < 0.3
    values[pick] = rng.choice(special, size=pick.sum())
    return sparse.coo_array((values, (places // dim, places % dim)), shape=(dim, dim))


def shuffled_within_rows(rng, csr):
    """A new CSR with csr's entries, each row's columns in random order."""
    indices, data = csr.indices.copy(), csr.data.copy()
    for lo, hi in zip(csr.indptr[:-1], csr.indptr[1:]):
        order = lo + rng.permutation(hi - lo)
        indices[lo:hi], data[lo:hi] = csr.indices[order], csr.data[order]
    return sparse.csr_array((data, indices, csr.indptr.copy()), shape=csr.shape)


@pytest.mark.parametrize("nnz", [0, 1, BLOCK - 1, BLOCK, BLOCK + 1, 3 * BLOCK + 17])
def test_block_writer_matches_per_line_format(rng, tmp_path, nnz):
    M = random_coo(rng, 256, nnz)
    text = cqio.coordinate_text(M)
    assert text == per_line_text(M)
    assert cqio.coordinate_text(M.tocsr()) == text  # CSR input: same bytes
    shuffled = shuffled_within_rows(rng, M.tocsr())
    assert shuffled.has_sorted_indices == (nnz <= 1)
    kept = shuffled.indices.copy(), shuffled.data.copy()
    assert cqio.coordinate_text(shuffled) == text  # unsorted CSR: same bytes
    # The writer sorts a copy, not the caller's arrays.
    assert np.array_equal(shuffled.indices, kept[0]) and np.array_equal(shuffled.data, kept[1])

    path = tmp_path / "M.txt"
    cqio.write_coordinate(M, path)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # nnz = 0 included: no "no data" warning
        n, back = cqio.read_coordinate(path)
    want = M.tocsr()
    want.sort_indices()
    assert n == 8
    for name in ("indptr", "indices", "data"):
        got, ref = getattr(back, name), getattr(want, name)
        assert got.dtype == ref.dtype and np.array_equal(got.view(np.uint8), ref.view(np.uint8))


# ----------------------------------------------------------------- refusals

Q2C_OUTPUTS = ("report.json", "coeffs.csv", "W.txt")


def q2c(tmp_path, text):
    """map q2c on text with all three outputs; the outcome and the files left."""
    ham = tmp_path / "H.txt"
    ham.write_bytes(text.encode("utf-8"))
    outcome = dispatch(["map", "q2c", "--hamiltonian", str(ham),
                        "--out", str(tmp_path / "report.json"),
                        "--coeffs-out", str(tmp_path / "coeffs.csv"),
                        "--generator-out", str(tmp_path / "W.txt")])
    left = sorted(p.name for p in tmp_path.iterdir() if p.name != "H.txt")
    return outcome, left


@pytest.fixture(scope="module")
def chain_text():
    """A mapped chain(5): 32 rows of 6 entries, so several small blocks."""
    return cqio.coordinate_text(cq.classical_to_quantum(cq.chain(5, field_h=0.2), 0.7).matrix)


def with_entries(edit):
    """A text edit that replaces the entry lines by edit(entry lines)."""
    def apply(text):
        header, size, *entries = text.rstrip("\n").split("\n")
        return "\n".join([header, size, *edit(entries)]) + "\n"
    return apply


def replace(k, line):
    return with_entries(lambda entries: entries[:k] + [line] + entries[k + 1:])


def insert(k, line):
    return with_entries(lambda entries: entries[:k] + [line] + entries[k:])


# text edit, first bad entry; the chain(5) file has 192 entries
REFUSED = {
    "blank": (insert(9, ""), 9),
    "whitespace-only": (insert(9, " \t "), 9),
    "two-tokens": (replace(9, "2 4"), 9),
    "four-tokens": (replace(9, "2 4 -0.25 1"), 9),
    "fractional-row": (replace(9, "1.5 4 -0.25"), 9),
    "underscore-row": (with_entries(lambda e: e[:9] + ["0_" + e[9]] + e[10:]), 9),
    "first-of-two": (lambda text: replace(13, "x")(replace(20, "2 2")(text)), 13),
    "last-entry": (replace(191, "32 32"), 191),
    "cut-with-newline": (with_entries(lambda e: e[:150]), 150),
    "cut-without-newline": (lambda text: with_entries(lambda e: e[:150])(text).rstrip("\n"),
                            150),
}


@pytest.mark.parametrize("block", [4, 7, BLOCK], ids=["block4", "block7", "default"])
@pytest.mark.parametrize("case", sorted(REFUSED))
def test_malformed_entry_names_first_bad_entry(tmp_path, monkeypatch, chain_text, case, block):
    monkeypatch.setattr(cqio, "COORDINATE_BLOCK", block)
    edit, k = REFUSED[case]
    outcome, left = q2c(tmp_path, edit(chain_text))
    assert outcome.exit_code == 1, outcome.diagnostics
    assert outcome.diagnostics.endswith(f"truncated or malformed entry {k}")
    assert left == []


@pytest.mark.parametrize("variant", ["extra-lines", "crlf", "tabs", "no-final-newline"])
def test_accepted_variants_give_the_same_outputs(tmp_path, chain_text, variant):
    text = {
        "extra-lines": chain_text + "\n  \nnot an entry\n1 2\n",
        "crlf": chain_text.replace("\n", "\r\n"),
        "tabs": with_entries(lambda entries: [e.replace(" ", "\t") for e in entries])(chain_text),
        "no-final-newline": chain_text.rstrip("\n"),
    }[variant]
    (tmp_path / "plain").mkdir()
    (tmp_path / "variant").mkdir()
    plain, _ = q2c(tmp_path / "plain", chain_text)
    outcome, left = q2c(tmp_path / "variant", text)
    assert plain.exit_code == 0 and outcome.exit_code == 0, outcome.diagnostics
    assert left == sorted(Q2C_OUTPUTS)
    for name in Q2C_OUTPUTS:
        plain_bytes = (tmp_path / "plain" / name).read_bytes()
        assert (tmp_path / "variant" / name).read_bytes() == plain_bytes


def test_empty_matrix_reads_without_warning(tmp_path):
    path = tmp_path / "empty.txt"
    path.write_text(f"{cqio.COORDINATE_HEADER}\n4 4 0\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        n, M = cqio.read_coordinate(path)
    assert n == 2 and M.shape == (4, 4) and M.nnz == 0


@pytest.mark.parametrize("argv", [
    ["map", "q2c", "--hamiltonian", "{input}", "--out", "{out}"],
    ["model", "coeffs", "--model", "{input}", "--out", "{out}"],
    ["spectrum", "fit", "--table", "{input}", "--out", "{out}"],
], ids=["coordinate", "model", "sweep-csv"])
def test_input_that_is_not_utf8_is_validation_error(tmp_path, argv):
    path, out = tmp_path / "input", tmp_path / "out"
    path.write_bytes(f"{cqio.COORDINATE_HEADER}\n2 2 1\n1 1 0.\xff5\n".encode("latin-1"))
    outcome = dispatch([{"{input}": str(path), "{out}": str(out)}.get(a, a) for a in argv])
    assert outcome.exit_code == 1
    assert "not UTF-8" in outcome.diagnostics and not out.exists()


# ------------------------------------------------------------------- memory

@pytest.fixture(scope="module")
def chain14():
    return cq.classical_to_quantum(cq.chain(14, field_h=0.1), 0.44).matrix


def test_write_holds_the_text_and_one_block(chain14):
    # The block strings and their join are two copies of the text; the
    # canonical CSR is walked where it lies, so beside them only one block's
    # cells, well under 2 MiB. A list of every line takes about 100 bytes an
    # entry beyond the two copies, and fails.
    tracemalloc.start()
    text = cqio.coordinate_text(chain14)
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    assert peak <= 2 * len(text) + (2 << 20)


def test_atomic_write_makes_no_encoded_copy_of_the_text(tmp_path):
    # The text goes to the file 1 MiB at a time; encoding it whole would add
    # a copy of its 8 MiB to the peak.
    text = "0123456789abcde\n" * (1 << 19)
    path = tmp_path / "t.txt"
    tracemalloc.start()
    cqio.atomic_write_text(path, text)
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    assert peak <= 3 << 20
    assert path.read_bytes() == text.encode()


def test_read_holds_the_columns_and_the_csr(tmp_path, chain14):
    # The three parsed columns (24 bytes an entry) live until the CSR is
    # built; one block of lines takes well under 1 MiB.
    path = tmp_path / "H.txt"
    cqio.write_coordinate(chain14, path)
    tracemalloc.start()
    _, M = cqio.read_coordinate(path)
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    held = M.data.nbytes + M.indices.nbytes + M.indptr.nbytes
    assert peak <= held + 24 * M.nnz + (1 << 20)
