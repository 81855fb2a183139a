"""``linalg.read_rows`` against the per-token loaders it replaced.

``parent_subspace_rows`` and ``parent_dense_rows`` are the earlier loaders,
one ``float()`` per token, kept as oracles.  The dense one takes the
subspace file's comment rule, the one intended change: a ``#`` anywhere
starts a comment, where the earlier loader skipped only lines that begin
with one.  Every drawn file must give arrays of equal bytes, or errors of
equal text.  Sparse system files share that comment rule through
``linalg.read_lines``: each drawn one must load as the same file with its
comments cut.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from altproj import kaczmarz, linalg
from altproj.kaczmarz import LinearSystem


def parent_subspace_rows(path):
    """The earlier ``load_subspace`` up to its ``orthonormalize`` call."""
    rows = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            try:
                rows.append([float(tok) for tok in line.split(",")])
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: malformed vector line: {exc}") from None
            if len(rows) > 1 and len(rows[-1]) != len(rows[0]):
                raise ValueError(f"{path}:{lineno}: expected {len(rows[0])} entries, got {len(rows[-1])}")
    if not rows:
        raise ValueError(f"{path}: no vectors found")
    return np.array(rows)


def parent_dense_rows(path):
    """The earlier dense branch of ``load_system`` up to ``from_arrays``."""
    with open(path, "r", encoding="utf-8") as fh:
        lines = [raw.split("#", 1)[0].strip() for raw in fh]
    lines = [(no, ln) for no, ln in enumerate(lines, start=1) if ln]
    if not lines:
        raise ValueError(f"{path}: empty system file")
    rows = None
    for i, (no, ln) in enumerate(lines):
        try:
            vals = [float(t) for t in ln.split(",")]
        except ValueError as exc:
            raise ValueError(f"{path}:{no}: malformed dense row: {exc}") from None
        if len(vals) < 2:
            raise ValueError(f"{path}:{no}: dense row needs coefficients and a right-hand side")
        if rows is None:
            rows = np.empty((len(lines), len(vals)))
        elif len(vals) != rows.shape[1]:
            raise ValueError(f"{path}:{no}: expected {rows.shape[1]} entries, got {len(vals)}")
        rows[i] = vals
    return rows


def outcome(load):
    """The shapes and bytes of the arrays ``load()`` returns, or its error text."""
    try:
        out = load()
    except ValueError as exc:
        return str(exc)
    return [(a.shape, a.tobytes()) for a in (out if isinstance(out, tuple) else (out,))]


def system_arrays(system):
    return system.normals, system.offsets, system.exponents


#: tokens that convert, among them every spelling float() accepts beyond plain decimals
GOOD = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.integers(-10**20, 10**20).map(str),
    st.sampled_from(["1_0", "١٢", "٣.٥", "１２", "inf", "-Infinity", "nan", "+nan", "1e400",
                     "-1e400", "1e-400", "-0", "+1.5", "1E5", "0.1e+5", " 2.5 ", "\t3", " 4"]))
#: tokens that do not
BAD = st.sampled_from(["", " ", "x", "0x10", "1__0", "_1", "1_", "1e", "--1", "1 2", "nan nan"])


@st.composite
def comma_files(draw, least):
    """Text of a comma-row file: data rows of a common width (at least
    ``least``) with now and then a ragged row, a short row or a bad token,
    between blank lines and whole-line comments; a row may carry an inline
    comment."""
    width = draw(st.integers(least, 5))
    lines = []
    for _ in range(draw(st.integers(0, 8))):
        kind = draw(st.sampled_from(["row"] * 6 + ["blank", "comment", "ragged", "short", "bad"]))
        if kind == "blank":
            lines.append(draw(st.sampled_from(["", "   ", "\t"])))
            continue
        if kind == "comment":
            lines.append(draw(st.sampled_from(["# a comment", "  # 1,2,3", "#"])))
            continue
        size = {"ragged": width + draw(st.sampled_from([-1, 1])), "short": 1}.get(kind, width)
        tokens = [draw(GOOD) for _ in range(max(size, 1))]
        if kind == "bad":
            tokens[draw(st.integers(0, len(tokens) - 1))] = draw(BAD)
        line = ",".join(tokens)
        if draw(st.booleans()):
            line += draw(st.sampled_from(["  # inline", "#", " #,9,9"]))
        lines.append(line)
    return "\n".join(lines) + draw(st.sampled_from(["", "\n"]))


#: sparse-row values: nonzero finite float() spellings without whitespace
NUMBER = st.one_of(st.floats(1e-3, 1e3).map(repr), st.integers(-99, -1).map(str),
                   st.sampled_from(["1_0", "+2.5", "-1e3"]))


@st.composite
def sparse_files(draw):
    """Text of a sparse system file: a header ``n J`` and rows ``c_i k idx
    val ...`` with now and then a wrong row count, pair count, column index
    or token, between blank lines and whole-line comments; any line may
    carry an inline comment."""
    n = draw(st.integers(1, 4))
    rows = draw(st.integers(1, 4))
    lines = [f"{n} {rows + draw(st.sampled_from([0] * 8 + [-1, 1]))}"]
    for _ in range(rows):
        if draw(st.booleans()):
            lines.append(draw(st.sampled_from(["", "  ", "# a comment", "  # 1 1 0 2"])))
        kind = draw(st.sampled_from(["row"] * 8 + ["count", "index", "bad"]))
        idx = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=n, unique=True))
        if kind == "index":
            idx.append(draw(st.sampled_from([-1, n, idx[0]])))
        tokens = [draw(NUMBER), str(len(idx) + (kind == "count"))]
        tokens += [t for i in idx for t in (str(i), draw(NUMBER))]
        if kind == "bad":
            tokens[draw(st.integers(0, len(tokens) - 1))] = draw(st.sampled_from(["x", "0.5", "1e", "--1"]))
        lines.append(" ".join(tokens))
    lines = [line + draw(st.sampled_from(["", "", "  # inline", "#", " # 1 2 3"])) for line in lines]
    return "\n".join(lines) + draw(st.sampled_from(["", "\n"]))


@pytest.fixture(scope="module")
def text_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("rows") / "rows.csv"

    def write(text):
        path.write_text(text, encoding="utf-8")
        return path
    return write


class TestReaderMatchesTheParentLoaders:
    @settings(max_examples=400, deadline=None)
    @given(text=comma_files(1))
    def test_subspace_files(self, text_file, text):
        path = text_file(text)
        rows = outcome(lambda: parent_subspace_rows(path))
        assert outcome(lambda: linalg.read_rows(path, "vector line", "no vectors found")) == rows
        assert (outcome(lambda: linalg.load_subspace(path).basis)
                == outcome(lambda: linalg.orthonormalize(parent_subspace_rows(path)).basis))

    @settings(max_examples=400, deadline=None)
    @given(text=comma_files(2))
    def test_dense_system_files(self, text_file, text):
        path = text_file(text)
        rows = outcome(lambda: parent_dense_rows(path))
        short = (2, "dense row needs coefficients and a right-hand side")
        assert outcome(lambda: linalg.read_rows(path, "dense row", "empty system file", short)) == rows

        def parent():
            rows = parent_dense_rows(path)
            return system_arrays(LinearSystem.from_arrays(rows[:, :-1], rows[:, -1]))
        assert (outcome(lambda: system_arrays(kaczmarz.load_system(path, dense=True)))
                == outcome(parent))

    @settings(max_examples=100, deadline=None)
    @given(text=sparse_files())
    def test_sparse_system_files(self, text_file, text):
        path = text_file(text)
        loaded = outcome(lambda: system_arrays(kaczmarz.load_system(path)))
        text_file("\n".join(line.split("#", 1)[0] for line in text.split("\n")))
        assert outcome(lambda: system_arrays(kaczmarz.load_system(path))) == loaded

    @pytest.mark.parametrize("text, line, cause", [
        # a bad token before a ragged row, and a ragged row before a bad token
        ("1,2,3\n# c\n1,x,3\n1,2\n", 3, "malformed vector line: could not convert string to float: 'x'"),
        ("1,2,3\n1,2\n\n1,x,3\n", 2, "expected 3 entries, got 2"),
        # on one line the bad token is reported, not the length
        ("1,2,3\n1,,3,4\n", 2, "malformed vector line: could not convert string to float: ''"),
    ])
    def test_first_fault_is_reported(self, text_file, text, line, cause):
        path = text_file(text)
        for load in (linalg.load_subspace, parent_subspace_rows):
            with pytest.raises(ValueError) as exc:
                load(path)
            assert str(exc.value) == f"{path}:{line}: {cause}"

    @pytest.mark.parametrize("text, line, cause", [
        ("1,2,3\n5\n", 2, "dense row needs coefficients and a right-hand side"),
        ("5\n1,2,3\n", 1, "dense row needs coefficients and a right-hand side"),
        ("1,2,3\n1,2,3,4  # c\n", 2, "expected 3 entries, got 4"),
    ])
    def test_short_dense_row_is_named_before_its_length(self, text_file, text, line, cause):
        path = text_file(text)
        with pytest.raises(ValueError) as exc:
            kaczmarz.load_system(path, dense=True)
        assert str(exc.value) == f"{path}:{line}: {cause}"

    def test_inline_comment_in_a_dense_row(self, text_file):
        path = text_file("1,0,2  # x = 2\n0,1,3#y\n")
        system = kaczmarz.load_system(path, dense=True)
        assert system.matrix().tolist() == [[1.0, 0.0], [0.0, 1.0]]
        assert system.rhs().tolist() == [2.0, 3.0]
