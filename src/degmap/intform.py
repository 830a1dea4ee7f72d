"""Exact integer bilinear-form algebra.

A closed oriented 2n-manifold pairs its middle-dimensional (co)homology by
a unimodular bilinear form: symmetric when n is even, antisymmetric when n
is odd.  This module represents such forms as dense integer matrices and
computes their invariants (rank, determinant, signature, parity) and
symplectic bases with exact integer arithmetic only.  Entries are Python
ints.  Determinant and signature of a symmetric form come from one
fraction-free ``symmetric_elimination``, which the solver's definite
enumeration shares; the form keeps that elimination, whose pivots are a
rational diagonalisation that the solver's local (Hasse) filter reads.
Determinants of plain matrices, kernels, orthogonal splits
(``split_basis``), dual vectors, symplectic bases and unimodular inverses
all come from one gcd column reduction, ``_column_reduce``.  It imports no
degmap module but ``errors``; isomorphism is ``solver.isomorphic``.

>>> f = make_form(IntMatrix.from_rows([[0, 1], [1, 0]]), SYMMETRIC)
>>> f.parity, f.signature
('even', (1, 1, 0))
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain
from math import prod
from operator import mul
from typing import Iterable, Sequence

from .errors import (
    AntisymmetricInput,
    NotSquare,
    NotUnimodular,
    ShapeMismatch,
    SymmetryMismatch,
)

SYMMETRIC = "symmetric"
ANTISYMMETRIC = "antisymmetric"

PARITY_EVEN = "even"
PARITY_ODD = "odd"


class IntMatrix:
    """Dense matrix of arbitrary-precision integers, row-major, immutable."""

    __slots__ = ("rows", "cols", "_entries")

    def __init__(self, rows: int, cols: int, entries: Iterable[int]):
        entries = tuple(int(x) for x in entries)
        if rows < 0 or cols < 0 or len(entries) != rows * cols:
            raise ShapeMismatch(
                f"expected {rows}x{cols} = {rows * cols} entries, got {len(entries)}"
            )
        self.rows = rows
        self.cols = cols
        self._entries = entries

    @classmethod
    def _of(cls, rows: int, cols: int, entries: tuple) -> "IntMatrix":
        """A matrix on a tuple of rows * cols Python ints, taken unchecked:
        for results of exact arithmetic on matrices that passed ``__init__``."""
        m = object.__new__(cls)
        m.rows, m.cols, m._entries = rows, cols, entries
        return m

    # -- constructors ---------------------------------------------------

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence[int]]) -> "IntMatrix":
        r = len(rows)
        c = len(rows[0]) if r else 0
        if any(len(row) != c for row in rows):
            raise ShapeMismatch("ragged rows")
        return cls(r, c, [x for row in rows for x in row])

    @classmethod
    def from_columns(cls, columns: Sequence[Sequence[int]], nrows: int | None = None) -> "IntMatrix":
        if not columns:
            if nrows is None:
                raise ShapeMismatch("cannot infer row count of an empty column list")
            return cls(nrows, 0, [])
        r = len(columns[0])
        if nrows is not None and nrows != r:
            raise ShapeMismatch("column length disagrees with requested row count")
        if any(len(col) != r for col in columns):
            raise ShapeMismatch("ragged columns")
        return cls(r, len(columns), [col[i] for i in range(r) for col in columns])

    @classmethod
    def identity(cls, n: int) -> "IntMatrix":
        return cls(n, n, [1 if i == j else 0 for i in range(n) for j in range(n)])

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "IntMatrix":
        return cls(rows, cols, [0] * (rows * cols))

    @classmethod
    def diagonal(cls, diag: Sequence[int]) -> "IntMatrix":
        n = len(diag)
        return cls(n, n, [diag[i] if i == j else 0 for i in range(n) for j in range(n)])

    # -- access ----------------------------------------------------------

    def __getitem__(self, key: tuple) -> int:
        i, j = key
        return self._entries[i * self.cols + j]

    def row(self, i: int) -> tuple:
        return self._entries[i * self.cols : (i + 1) * self.cols]

    def column(self, j: int) -> tuple:
        return self._entries[j :: self.cols]

    def to_rows(self) -> list:
        return [list(self.row(i)) for i in range(self.rows)]

    def entries(self) -> tuple:
        return self._entries

    @property
    def shape(self) -> tuple:
        return (self.rows, self.cols)

    # -- arithmetic (all exact) -------------------------------------------

    def transpose(self) -> "IntMatrix":
        columns = map(self.column, range(self.cols))
        return IntMatrix._of(self.cols, self.rows, tuple(chain.from_iterable(columns)))

    def __matmul__(self, other: "IntMatrix") -> "IntMatrix":
        if self.cols != other.rows:
            raise ShapeMismatch(f"cannot multiply {self.shape} by {other.shape}")
        bcols = list(map(other.column, range(other.cols)))
        arows = list(map(self.row, range(self.rows)))
        out = tuple(sum(map(mul, r, col)) for r in arows for col in bcols)
        return IntMatrix._of(self.rows, other.cols, out)

    def __neg__(self) -> "IntMatrix":
        return IntMatrix._of(self.rows, self.cols, tuple(-x for x in self._entries))

    def scaled(self, c: int) -> "IntMatrix":
        return IntMatrix._of(self.rows, self.cols, tuple(c * x for x in self._entries))

    def transform_by(self, p: "IntMatrix") -> "IntMatrix":
        """Congruence transform: p.T @ self @ p."""
        return p.transpose() @ self @ p

    def is_symmetric(self) -> bool:
        return self.rows == self.cols and self._entries == self.transpose()._entries

    def is_antisymmetric(self) -> bool:
        return self.rows == self.cols and self._entries == (-self.transpose())._entries

    def det(self) -> int:
        """Exact determinant from ``_column_reduce``: self @ u == h with h
        lower triangular (a zero diagonal entry when self is singular), so
        det(self) = det(h) * det(u), det(u) = +-1."""
        if self.rows != self.cols:
            raise NotSquare(f"determinant of a {self.rows}x{self.cols} matrix")
        h, _, _, det_u = _column_reduce(self.to_rows(), self.rows)
        return det_u * prod(row[i] for i, row in enumerate(h))

    def inverse_unimodular(self) -> "IntMatrix":
        """Exact inverse u @ h^-1 of a matrix with determinant +-1, where
        ``_column_reduce`` gives self @ u == h, lower triangular with a +-1
        diagonal exactly when self is unimodular."""
        if self.rows != self.cols:
            raise NotSquare(f"inverse of a {self.rows}x{self.cols} matrix")
        n = self.rows
        h, u, _, _ = _column_reduce(self.to_rows(), n)
        if any(h[i][i] not in (1, -1) for i in range(n)):
            raise NotUnimodular("matrix is not unimodular")
        hinv = []  # row i solves h[i][i] * hinv[i] = e_i - sum_{k<i} h[i][k] * hinv[k]
        for i in range(n):
            row = [h[i][i] * (i == j) for j in range(n)]
            for k in range(i):
                row = [a - h[i][i] * h[i][k] * b for a, b in zip(row, hinv[k])]
            hinv.append(row)
        return IntMatrix.from_rows(u) @ IntMatrix.from_rows(hinv)

    # -- comparisons -------------------------------------------------------

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, IntMatrix)
            and self.shape == other.shape
            and self._entries == other._entries
        )

    def __hash__(self) -> int:
        return hash((self.rows, self.cols, self._entries))

    def __repr__(self) -> str:
        return f"IntMatrix.from_rows({self.to_rows()!r})"

    def __str__(self) -> str:
        if self.rows == 0 or self.cols == 0:
            return f"<empty {self.rows}x{self.cols}>"
        widths = [max(len(str(self[i, j])) for i in range(self.rows)) for j in range(self.cols)]
        lines = []
        for i in range(self.rows):
            lines.append(" ".join(str(self[i, j]).rjust(widths[j]) for j in range(self.cols)))
        return "\n".join(lines)


def block_diagonal(*blocks: IntMatrix) -> IntMatrix:
    """The blocks down the diagonal, zeros elsewhere; 0x0 when there are none."""
    rows = sum(b.rows for b in blocks)
    cols = sum(b.cols for b in blocks)
    out = [0] * (rows * cols)
    r0 = c0 = 0
    for b in blocks:
        for i in range(b.rows):
            start = (r0 + i) * cols + c0
            out[start : start + b.cols] = b.row(i)
        r0 += b.rows
        c0 += b.cols
    return IntMatrix._of(rows, cols, tuple(out))


def hstack(a: IntMatrix, b: IntMatrix) -> IntMatrix:
    if a.rows != b.rows:
        raise ShapeMismatch("row counts differ")
    out = []
    for i in range(a.rows):
        out.extend(a.row(i))
        out.extend(b.row(i))
    return IntMatrix._of(a.rows, a.cols + b.cols, tuple(out))


# ---------------------------------------------------------------------------
# Intersection forms
# ---------------------------------------------------------------------------


NOT_COMPUTED = "not computed"


@dataclass(frozen=True)
class IntersectionForm:
    """A unimodular (anti)symmetric pairing with its cached invariants.

    ``signature`` is the triple (n_plus, n_minus, n_zero) and ``parity`` is
    'even' or 'odd'; both are None for antisymmetric forms.  ``tri`` is the
    form's ``symmetric_elimination``, as a tuple of rows; ``pivots`` reads
    its diagonal p_0, ..., p_{n-1}, so that the form is <p_{i-1} * p_i> over
    Q (p_{-1} = 1) and the last pivot is the determinant.  Both are None
    for antisymmetric forms and take no part in equality, hashing or repr.
    ``canonical`` keeps the result of ``canonical.canonical_basis`` and
    ``unit_vectors`` the number of vectors of norm +-1 of a definite form,
    from ``solver._unit_vector_count``; each is computed at most once per
    form object, is ``NOT_COMPUTED`` until then, is not an argument of the
    constructor and, like ``tri``, takes no part in equality, hashing or
    repr.
    """

    matrix: IntMatrix
    symmetry: str
    rank: int
    signature: tuple | None
    parity: str | None
    tri: tuple | None = field(compare=False, repr=False)
    canonical: object = field(default=NOT_COMPUTED, init=False, compare=False, repr=False)
    unit_vectors: object = field(default=NOT_COMPUTED, init=False, compare=False, repr=False)

    @property
    def pivots(self) -> tuple | None:
        return None if self.tri is None else tuple([row[i] for i, row in enumerate(self.tri)])

    @property
    def determinant(self) -> int:
        # the last pivot; an antisymmetric unimodular form has det = Pfaffian^2 = 1
        return self.tri[-1][-1] if self.tri else 1

    def is_definite(self) -> bool:
        if self.symmetry != SYMMETRIC or self.rank == 0:
            return False
        pos, neg, _ = self.signature
        return pos == 0 or neg == 0

    def __str__(self) -> str:
        bits = [f"rank {self.rank}", self.symmetry]
        if self.symmetry == SYMMETRIC:
            bits.append(f"signature {self.signature}")
            bits.append(self.parity)
        return f"<form {', '.join(bits)}>"


def symmetric_elimination(rows: list) -> list:
    """Fraction-free (Bareiss) elimination of a nondegenerate symmetric matrix.

    Returns the eliminated integer matrix ``tri``: each pivot
    p_i = tri[i][i] is the leading minor of order i+1, tri[i][j] for j > i
    is the pivot row, and the entries below the diagonal are 0.  With
    p_{-1} = 1 and s_i = sum_{j>i} tri[i][j] * x_j the quadratic form is

        Q(x) = sum_i (p_i * x_i + s_i)^2 / (p_{i-1} * p_i).

    A zero pivot is replaced by a later nonzero diagonal entry (mirrored
    row and column swap) or, when every remaining diagonal entry is 0, by
    adding a partner row and column.  Both are changes of basis, so the
    minors are those of the changed basis; a definite matrix never pivots.
    A congruence keeps the determinant, so the last pivot is det(rows), and
    a degenerate matrix raises NotUnimodular("determinant 0").
    """
    a = [list(row) for row in rows]
    n = len(a)
    prev = 1
    for i in range(n):
        if a[i][i] == 0:
            piv = next((t for t in range(i + 1, n) if a[t][t] != 0), None)
            if piv is not None:
                a[i], a[piv] = a[piv], a[i]
                for row in a:
                    row[i], row[piv] = row[piv], row[i]
            else:
                j = next((t for t in range(i + 1, n) if a[i][t] != 0), None)
                if j is None:
                    raise NotUnimodular("determinant 0")
                # all remaining diagonal entries vanish, so this produces 2*a[i][j] != 0
                for t in range(n):
                    a[i][t] += a[j][t]
                for t in range(n):
                    a[t][i] += a[t][j]
        p = a[i][i]
        for r in range(i + 1, n):
            for c in range(i + 1, n):
                a[r][c] = (a[r][c] * p - a[r][i] * a[i][c]) // prev
            a[r][i] = 0
        prev = p
    return a


def make_form(matrix: IntMatrix, symmetry: str) -> IntersectionForm:
    """Validate and wrap a matrix as a unimodular intersection form.

    Raises NotSquare, SymmetryMismatch or NotUnimodular when the matrix
    cannot be the middle-dimensional pairing of a closed manifold.  A
    symmetric matrix's determinant and signature come from its one
    ``symmetric_elimination``; only an antisymmetric one takes ``det``.
    """
    if symmetry not in (SYMMETRIC, ANTISYMMETRIC):
        raise SymmetryMismatch(f"unknown symmetry flag {symmetry!r}")
    if matrix.rows != matrix.cols:
        raise NotSquare(f"{matrix.rows}x{matrix.cols} matrix")
    if symmetry == SYMMETRIC and not matrix.is_symmetric():
        raise SymmetryMismatch("matrix is not symmetric")
    if symmetry == ANTISYMMETRIC and not matrix.is_antisymmetric():
        raise SymmetryMismatch("matrix is not antisymmetric")
    rank = matrix.rows
    if symmetry == ANTISYMMETRIC:
        det = matrix.det()
        if det not in (1, -1):
            raise NotUnimodular(f"determinant {det}")
        if rank % 2 != 0:
            raise NotUnimodular("antisymmetric unimodular forms have even rank")
        return IntersectionForm(matrix, symmetry, rank, None, None, None)
    tri = symmetric_elimination(matrix.to_rows())
    pivots = (1,) + tuple(tri[i][i] for i in range(rank))
    if pivots[-1] not in (1, -1):
        raise NotUnimodular(f"determinant {pivots[-1]}")
    # each sign change in 1, p_0, p_1, ... is a negative direction
    neg = sum(1 for p, q in zip(pivots, pivots[1:]) if (p > 0) != (q > 0))
    sig = (rank - neg, neg, 0)
    par = PARITY_EVEN if all(matrix[i, i] % 2 == 0 for i in range(rank)) else PARITY_ODD
    return IntersectionForm(matrix, symmetry, rank, sig, par, tuple(map(tuple, tri)))


def infer_symmetry(matrix: IntMatrix) -> str:
    """Guess the symmetry flag of a matrix; symmetric wins for the 0x0 case."""
    if matrix.is_symmetric():
        return SYMMETRIC
    if matrix.is_antisymmetric():
        return ANTISYMMETRIC
    raise SymmetryMismatch("matrix is neither symmetric nor antisymmetric")


def empty_form(symmetry: str = SYMMETRIC) -> IntersectionForm:
    """The 0x0 form, the identity element for direct sums."""
    return make_form(IntMatrix.zeros(0, 0), symmetry)


def signature(form: IntersectionForm) -> tuple:
    if form.symmetry != SYMMETRIC:
        raise AntisymmetricInput("signature is defined for symmetric forms only")
    return form.signature


def parity(form: IntersectionForm) -> str:
    if form.symmetry != SYMMETRIC:
        raise AntisymmetricInput("parity is defined for symmetric forms only")
    return form.parity


def direct_sum(f: IntersectionForm, g: IntersectionForm) -> IntersectionForm:
    if f.symmetry != g.symmetry:
        raise SymmetryMismatch("cannot sum a symmetric form with an antisymmetric one")
    return make_form(block_diagonal(f.matrix, g.matrix), f.symmetry)


def transform_form(f: IntersectionForm, u: IntMatrix) -> IntersectionForm:
    """The form of the same pairing written in the basis with matrix u."""
    return make_form(f.matrix.transform_by(u), f.symmetry)


# ---------------------------------------------------------------------------
# Integer basis utilities
# ---------------------------------------------------------------------------


def _xgcd(a: int, b: int) -> tuple:
    x, nx = 1, 0
    y, ny = 0, 1
    g, ng = a, b
    while ng:
        q = g // ng
        x, nx = nx, x - q * nx
        y, ny = ny, y - q * ny
        g, ng = ng, g - q * ng
    return g, x, y


def _column_reduce(rows: list, m: int) -> tuple:
    """(h, u, rank, det u) with rows @ u == h, u unimodular and h in column-echelon form.

    ``rows`` lists the rows of a matrix with m columns.  Taken top down, a
    row that is nonzero beyond the t columns already pivoted gets pivot
    column t (the gcd of those entries) and zeros right of it.  So h is
    lower triangular for a square matrix, and the last m - rank columns of
    u are a basis of the integer kernel (Cohen, A Course in Computational
    Algebraic Number Theory, 2.4).  Each gcd combination has determinant 1
    and each column swap -1, which gives det u.
    """
    h = [list(r) for r in rows]
    u = [[1 if i == j else 0 for j in range(m)] for i in range(m)]

    def col_combine(j0, j1, a, b, c, d):
        # (col j0, col j1) <- (a*col j0 + b*col j1, c*col j0 + d*col j1)
        for r in h:
            r[j0], r[j1] = a * r[j0] + b * r[j1], c * r[j0] + d * r[j1]
        for r in u:
            r[j0], r[j1] = a * r[j0] + b * r[j1], c * r[j0] + d * r[j1]

    done = 0
    det_u = 1
    for row in h:
        piv = next((j for j in range(done, m) if row[j] != 0), None)
        if piv is None:
            continue
        for j in range(piv + 1, m):
            if row[j] != 0:
                g, x, y = _xgcd(row[piv], row[j])
                p, q = row[piv] // g, row[j] // g
                col_combine(piv, j, x, y, -q, p)
        if piv != done:
            col_combine(done, piv, 0, 1, 1, 0)
            det_u = -det_u
        done += 1
    return h, u, done, det_u


def integer_kernel(mat: IntMatrix) -> list:
    """A basis (list of columns) of the integer kernel {x : mat @ x = 0}.

    The trailing columns of ``_column_reduce``'s unimodular u; they span the
    full (saturated) kernel lattice.
    """
    m = mat.cols
    _, u, rank, _ = _column_reduce(mat.to_rows(), m)
    return [tuple(u[i][j] for i in range(m)) for j in range(rank, m)]


def dual_vector(row: Sequence[int]) -> list | None:
    """An integer w with row . w == 1 (column 0 of ``_column_reduce``'s u,
    up to sign), or None when the entries of row have a common factor."""
    h, u, _, _ = _column_reduce([list(row)], len(row))
    if h[0][0] not in (1, -1):
        return None
    return [h[0][0] * r[0] for r in u]


def split_basis(matrix: IntMatrix, columns: IntMatrix) -> IntMatrix:
    """The columns followed by ``integer_kernel(columns.T @ matrix)``, their
    orthogonal complement: a basis of the lattice when the columns carry a
    unimodular block (callers that rely on that check it)."""
    kernel = integer_kernel(columns.transpose() @ matrix)
    return hstack(columns, IntMatrix.from_columns(kernel, nrows=matrix.rows))


def symplectic_basis_transform(matrix: IntMatrix) -> IntMatrix:
    """U with U.T @ matrix @ U in the standard block form diag([[0,1],[-1,0]], ...).

    Works for any antisymmetric unimodular matrix: pair e_1 with a vector f
    such that e_1.T @ matrix @ f = 1 (``dual_vector`` of the first row),
    split off the complement of (e_1, f), recurse.
    """
    if not matrix.is_antisymmetric():
        raise SymmetryMismatch("symplectic reduction needs an antisymmetric matrix")
    n = matrix.rows
    if n == 0:
        return IntMatrix.zeros(0, 0)
    f = dual_vector(matrix.row(0))
    if f is None:
        raise NotUnimodular("pairing with the first basis vector is not onto")
    e1 = [1] + [0] * (n - 1)
    b = split_basis(matrix, IntMatrix.from_columns([e1, f]))
    sub = IntMatrix.from_rows([row[2:] for row in matrix.transform_by(b).to_rows()[2:]])
    u = b @ block_diagonal(IntMatrix.identity(2), symplectic_basis_transform(sub))
    assert u.transpose() @ matrix @ u == standard_symplectic_matrix(n // 2), (
        "symplectic reduction failed"
    )
    return u


def standard_symplectic_matrix(g: int) -> IntMatrix:
    return block_diagonal(*[IntMatrix.from_rows([[0, 1], [-1, 0]])] * g)


HYPERBOLIC = IntMatrix.from_rows([[0, 1], [1, 0]])


# ---------------------------------------------------------------------------
# Serialization: plain text and structured documents
# ---------------------------------------------------------------------------


def parse_matrix_text(text: str) -> IntMatrix:
    """Parse the plain format: first line 'rows cols', then rows of integers."""
    lines = [ln for ln in text.strip().splitlines() if ln.strip()]
    if not lines:
        raise ShapeMismatch("empty matrix document")
    header = lines[0].split()
    if len(header) != 2:
        raise ShapeMismatch("header must be 'rows cols'")
    body = " ".join(lines[1:]).split()
    try:
        r, c = int(header[0]), int(header[1])
        entries = [int(x) for x in body]
    except ValueError as exc:
        raise ShapeMismatch(f"matrix entries must be integers: {exc}") from exc
    if len(body) != r * c:
        raise ShapeMismatch(f"expected {r * c} entries, got {len(body)}")
    return IntMatrix(r, c, entries)


def format_matrix_text(m: IntMatrix) -> str:
    lines = [f"{m.rows} {m.cols}"]
    for i in range(m.rows):
        lines.append(" ".join(str(x) for x in m.row(i)))
    return "\n".join(lines) + "\n"


def matrix_to_doc(m: IntMatrix, symmetry: str | None = None) -> dict:
    doc = {"rows": m.rows, "cols": m.cols, "entries": list(m.entries())}
    if symmetry is not None:
        doc["symmetry"] = symmetry
    return doc


def json_int(value) -> int:
    """A JSON integer as is; TypeError for a float, bool or string, never truncation."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise TypeError(f"{value!r} is not an integer")
    return value


def matrix_from_doc(doc: dict) -> tuple:
    try:
        rows, cols = json_int(doc["rows"]), json_int(doc["cols"])
        entries = [json_int(x) for x in doc["entries"]]
    except (KeyError, TypeError, ValueError) as exc:
        raise ShapeMismatch(
            f"a matrix document needs integer 'rows', 'cols' and 'entries' ({exc!r})"
        ) from exc
    return IntMatrix(rows, cols, entries), doc.get("symmetry")
