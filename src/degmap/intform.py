"""Exact integer bilinear-form algebra.

A closed oriented 2n-manifold pairs its middle-dimensional (co)homology by
a unimodular bilinear form: symmetric when n is even, antisymmetric when n
is odd.  This module represents such forms as dense integer matrices and
computes their invariants (rank, signature, parity) and isomorphism
witnesses with exact arithmetic only.  Entries are Python ints.
Signatures come from the fraction-free ``symmetric_elimination``, which
the solver's definite enumeration shares; only ``inverse_unimodular``
works over ``fractions.Fraction``, and nothing here touches a float.

>>> f = make_form(IntMatrix.from_rows([[0, 1], [1, 0]]), SYMMETRIC)
>>> f.parity, f.signature
('even', (1, 1, 0))
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from .errors import (
    AntisymmetricInput,
    CapExceeded,
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
        return tuple(self._entries[i * self.cols + j] for i in range(self.rows))

    def to_rows(self) -> list:
        return [list(self.row(i)) for i in range(self.rows)]

    def entries(self) -> tuple:
        return self._entries

    @property
    def shape(self) -> tuple:
        return (self.rows, self.cols)

    # -- arithmetic (all exact) -------------------------------------------

    def transpose(self) -> "IntMatrix":
        return IntMatrix(
            self.cols,
            self.rows,
            [self._entries[i * self.cols + j] for j in range(self.cols) for i in range(self.rows)],
        )

    def __matmul__(self, other: "IntMatrix") -> "IntMatrix":
        if self.cols != other.rows:
            raise ShapeMismatch(f"cannot multiply {self.shape} by {other.shape}")
        a, b = self, other
        out = []
        brows = [b.row(i) for i in range(b.rows)]
        for i in range(a.rows):
            arow = a.row(i)
            for j in range(b.cols):
                out.append(sum(arow[t] * brows[t][j] for t in range(a.cols)))
        return IntMatrix(a.rows, b.cols, out)

    def __neg__(self) -> "IntMatrix":
        return IntMatrix(self.rows, self.cols, [-x for x in self._entries])

    def scaled(self, c: int) -> "IntMatrix":
        return IntMatrix(self.rows, self.cols, [c * x for x in self._entries])

    def transform_by(self, p: "IntMatrix") -> "IntMatrix":
        """Congruence transform: p.T @ self @ p."""
        return p.transpose() @ self @ p

    def is_symmetric(self) -> bool:
        return self.rows == self.cols and all(
            self[i, j] == self[j, i] for i in range(self.rows) for j in range(i + 1, self.cols)
        )

    def is_antisymmetric(self) -> bool:
        return self.rows == self.cols and all(
            self[i, j] == -self[j, i] for i in range(self.rows) for j in range(i, self.cols)
        )

    def det(self) -> int:
        """Exact determinant by fraction-free (Bareiss) elimination."""
        if self.rows != self.cols:
            raise NotSquare(f"determinant of a {self.rows}x{self.cols} matrix")
        n = self.rows
        if n == 0:
            return 1
        a = self.to_rows()
        sign = 1
        prev = 1
        for i in range(n - 1):
            if a[i][i] == 0:
                for r in range(i + 1, n):
                    if a[r][i] != 0:
                        a[i], a[r] = a[r], a[i]
                        sign = -sign
                        break
                else:
                    return 0
            for r in range(i + 1, n):
                for c in range(i + 1, n):
                    a[r][c] = (a[r][c] * a[i][i] - a[r][i] * a[i][c]) // prev
                a[r][i] = 0
            prev = a[i][i]
        return sign * a[n - 1][n - 1]

    def inverse_unimodular(self) -> "IntMatrix":
        """Exact inverse of a matrix with determinant +-1."""
        d = self.det()
        if d not in (1, -1):
            raise NotUnimodular(f"determinant {d} is not +-1")
        n = self.rows
        aug = [[Fraction(self[i, j]) for j in range(n)] + [Fraction(int(i == j)) for j in range(n)]
               for i in range(n)]
        for col in range(n):
            piv = next(r for r in range(col, n) if aug[r][col] != 0)
            aug[col], aug[piv] = aug[piv], aug[col]
            inv = Fraction(1) / aug[col][col]
            aug[col] = [x * inv for x in aug[col]]
            for r in range(n):
                if r != col and aug[r][col] != 0:
                    f = aug[r][col]
                    aug[r] = [x - f * y for x, y in zip(aug[r], aug[col])]
        out = []
        for i in range(n):
            for j in range(n, 2 * n):
                v = aug[i][j]
                assert v.denominator == 1
                out.append(int(v))
        return IntMatrix(n, n, out)

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


def block_diagonal(a: IntMatrix, b: IntMatrix) -> IntMatrix:
    rows = a.rows + b.rows
    cols = a.cols + b.cols
    out = [0] * (rows * cols)
    for i in range(a.rows):
        for j in range(a.cols):
            out[i * cols + j] = a[i, j]
    for i in range(b.rows):
        for j in range(b.cols):
            out[(a.rows + i) * cols + (a.cols + j)] = b[i, j]
    return IntMatrix(rows, cols, out)


def hstack(a: IntMatrix, b: IntMatrix) -> IntMatrix:
    if a.rows != b.rows:
        raise ShapeMismatch("row counts differ")
    out = []
    for i in range(a.rows):
        out.extend(a.row(i))
        out.extend(b.row(i))
    return IntMatrix(a.rows, a.cols + b.cols, out)


# ---------------------------------------------------------------------------
# Intersection forms
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class IntersectionForm:
    """A unimodular (anti)symmetric pairing with its cached invariants.

    ``signature`` is the triple (n_plus, n_minus, n_zero) and ``parity`` is
    'even' or 'odd'; both are None for antisymmetric forms.
    """

    matrix: IntMatrix
    symmetry: str
    rank: int
    signature: tuple | None
    parity: str | None

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
                    raise NotUnimodular("the form is degenerate")
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
    cannot be the middle-dimensional pairing of a closed manifold.
    """
    if symmetry not in (SYMMETRIC, ANTISYMMETRIC):
        raise SymmetryMismatch(f"unknown symmetry flag {symmetry!r}")
    if matrix.rows != matrix.cols:
        raise NotSquare(f"{matrix.rows}x{matrix.cols} matrix")
    if symmetry == SYMMETRIC and not matrix.is_symmetric():
        raise SymmetryMismatch("matrix is not symmetric")
    if symmetry == ANTISYMMETRIC and not matrix.is_antisymmetric():
        raise SymmetryMismatch("matrix is not antisymmetric")
    det = matrix.det()
    if det not in (1, -1):
        raise NotUnimodular(f"determinant {det}")
    rank = matrix.rows
    if symmetry == ANTISYMMETRIC:
        if rank % 2 != 0:
            raise NotUnimodular("antisymmetric unimodular forms have even rank")
        return IntersectionForm(matrix, symmetry, rank, None, None)
    tri = symmetric_elimination(matrix.to_rows())
    # each sign change in 1, p_0, p_1, ... is a negative direction
    pivots = [1] + [tri[i][i] for i in range(rank)]
    neg = sum(1 for p, q in zip(pivots, pivots[1:]) if (p > 0) != (q > 0))
    sig = (rank - neg, neg, 0)
    par = PARITY_EVEN if all(matrix[i, i] % 2 == 0 for i in range(rank)) else PARITY_ODD
    return IntersectionForm(matrix, symmetry, rank, sig, par)


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


def isomorphic(f: IntersectionForm, g: IntersectionForm):
    """Decide whether two unimodular forms are isomorphic over the integers.

    The answer is always decisive.  Invariant mismatches give No with the
    responsible invariant as the reason.  Antisymmetric forms of equal rank
    get an explicit symplectic-basis witness.  Indefinite symmetric forms
    are classified by (rank, signature, parity), so equality of invariants
    already settles Yes; a witness is attached when a short search finds
    one.  Definite forms fall back to the complete enumeration of the
    congruence solver at degree 1.
    """
    from . import solver  # local import: solver depends on this module

    if f.symmetry != g.symmetry:
        return solver.Verdict.no(solver.REASON_SYMMETRY)
    if f.rank != g.rank:
        return solver.Verdict.no(solver.REASON_RANK)
    if f.symmetry == SYMMETRIC:
        if f.parity != g.parity:
            return solver.Verdict.no(solver.REASON_PARITY)
        if f.signature != g.signature:
            return solver.Verdict.no(solver.REASON_SIGNATURE)
    if f.matrix == g.matrix:
        return solver.Verdict.yes_checked(f, g, 1, IntMatrix.identity(f.rank))
    if f.symmetry == ANTISYMMETRIC:
        uf = symplectic_basis_transform(f.matrix)
        ug = symplectic_basis_transform(g.matrix)
        witness = uf @ ug.inverse_unimodular()
        return solver.Verdict.yes_checked(f, g, 1, witness)
    if not f.is_definite():
        # indefinite unimodular symmetric forms are classified by
        # (rank, signature, parity); attach a witness when cheap to find
        probe = solver.congruence_solve(
            f, g, 1, solver.SearchConfig(radius=2, node_budget=200_000)
        )
        witness = probe.witness if probe.kind == "yes" else None
        return solver.Verdict("yes", witness, None, None)
    if f.rank > solver.DEFINITE_CAP:
        raise CapExceeded(
            f"complete definite enumeration is capped at rank {solver.DEFINITE_CAP}"
        )
    verdict = solver.congruence_solve(f, g, 1)
    assert not verdict.is_unknown, "definite enumeration is complete"
    return verdict


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


def complete_to_unimodular(vec: Sequence[int]) -> IntMatrix:
    """A square integer matrix with determinant +-1 whose first column is vec.

    Requires vec to be primitive (gcd of entries 1).
    """
    v = [int(x) for x in vec]
    n = len(v)
    if n == 0:
        raise ShapeMismatch("empty vector")
    w = [[1 if i == j else 0 for j in range(n)] for i in range(n)]  # accumulates inverses
    for i in range(1, n):
        if v[i] == 0:
            continue
        g, x, y = _xgcd(v[0], v[i])
        p, q = v[0] // g, v[i] // g
        # row op [[x, y], [-q, p]] on (v0, vi); fold its inverse into w's columns
        v[0], v[i] = g, 0
        for r in range(n):
            c0, ci = w[r][0], w[r][i]
            w[r][0] = c0 * p + ci * q
            w[r][i] = -c0 * y + ci * x
    if v[0] == -1:
        v[0] = 1
        for r in range(n):
            w[r][0] = -w[r][0]
    if v[0] != 1:
        raise NotUnimodular(f"vector has gcd {v[0]}, not primitive")
    out = IntMatrix.from_rows(w)
    assert out.column(0) == tuple(int(x) for x in vec)
    return out


def integer_kernel(mat: IntMatrix) -> list:
    """A basis (list of columns) of the integer kernel {x : mat @ x = 0}.

    Column reduction by gcd operations; the returned vectors span the full
    (saturated) kernel lattice.
    """
    rows = [list(r) for r in mat.to_rows()]
    m = mat.cols
    u = [[1 if i == j else 0 for j in range(m)] for i in range(m)]

    def col_combine(j0, j1, a, b, c, d):
        # (col j0, col j1) <- (a*col j0 + b*col j1, c*col j0 + d*col j1)
        for r in rows:
            r[j0], r[j1] = a * r[j0] + b * r[j1], c * r[j0] + d * r[j1]
        for r in u:
            r[j0], r[j1] = a * r[j0] + b * r[j1], c * r[j0] + d * r[j1]

    done = 0
    for r in range(mat.rows):
        piv = next((j for j in range(done, m) if rows[r][j] != 0), None)
        if piv is None:
            continue
        for j in range(piv + 1, m):
            if rows[r][j] != 0:
                g, x, y = _xgcd(rows[r][piv], rows[r][j])
                p, q = rows[r][piv] // g, rows[r][j] // g
                col_combine(piv, j, x, y, -q, p)
        if piv != done:
            col_combine(done, piv, 0, 1, 1, 0)
        done += 1
    kernel = []
    for j in range(done, m):
        col = tuple(u[i][j] for i in range(m))
        kernel.append(col)
    return kernel


def _unit_pairing_coefficients(row: Sequence[int]) -> list:
    """Coefficients a with sum a_j * row_j = 1; requires gcd(row) = 1."""
    acc = 0
    coeffs = [0] * len(row)
    for idx, val in enumerate(row):
        if val == 0:
            continue
        if acc == 0:
            acc = val
            coeffs = [0] * len(row)
            coeffs[idx] = 1
            continue
        g, x, y = _xgcd(acc, val)
        coeffs = [x * c for c in coeffs]
        coeffs[idx] = y
        acc = g
    if acc == -1:
        acc, coeffs = 1, [-c for c in coeffs]
    if acc != 1:
        raise NotUnimodular("pairing with the first basis vector is not onto")
    return coeffs


def symplectic_basis_transform(matrix: IntMatrix) -> IntMatrix:
    """U with U.T @ matrix @ U in the standard block form diag([[0,1],[-1,0]], ...).

    Works for any antisymmetric unimodular matrix: pick a hyperbolic pair
    by gcd operations, split off its orthogonal complement, recurse.
    """
    if not matrix.is_antisymmetric():
        raise SymmetryMismatch("symplectic reduction needs an antisymmetric matrix")
    n = matrix.rows
    if n == 0:
        return IntMatrix.zeros(0, 0)
    gram = matrix
    coeffs = _unit_pairing_coefficients(gram.row(0)[1:])
    comp = complete_to_unimodular(coeffs)  # (n-1)x(n-1), first column = coeffs
    f1 = [1] + [0] * (n - 1)
    lifted = [[0] + [comp[i, j] for i in range(n - 1)] for j in range(n - 1)]
    f2 = lifted[0]

    def pair(u, v):
        return sum(u[i] * gram[i, j] * v[j] for i in range(n) for j in range(n))

    cols = [f1, f2]
    for v in lifted[1:]:
        a1 = pair(f1, v)
        a2 = pair(f2, v)
        cols.append([v[i] - a1 * f2[i] + a2 * f1[i] for i in range(n)])
    b = IntMatrix.from_columns(cols)
    reduced = b.transpose() @ gram @ b
    sub = IntMatrix.from_rows([[reduced[i, j] for j in range(2, n)] for i in range(2, n)])
    inner = symplectic_basis_transform(sub)
    u = b @ block_diagonal(IntMatrix.identity(2), inner)
    assert u.transpose() @ matrix @ u == standard_symplectic_matrix(n // 2), (
        "symplectic reduction failed"
    )
    return u


def standard_symplectic_matrix(g: int) -> IntMatrix:
    block = IntMatrix.from_rows([[0, 1], [-1, 0]])
    out = IntMatrix.zeros(0, 0)
    for _ in range(g):
        out = block_diagonal(out, block)
    return out


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


def matrix_from_doc(doc: dict) -> tuple:
    try:
        rows, cols = int(doc["rows"]), int(doc["cols"])
        entries = [int(x) for x in doc["entries"]]
    except (KeyError, TypeError, ValueError) as exc:
        raise ShapeMismatch(
            f"a matrix document needs integer 'rows', 'cols' and 'entries' ({exc!r})"
        ) from exc
    return IntMatrix(rows, cols, entries), doc.get("symmetry")
