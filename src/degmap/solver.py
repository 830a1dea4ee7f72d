"""Decision kernel for the integer congruence P.T @ A @ P == k * B.

``congruence_solve`` returns a three-valued verdict:

* Yes, with a witness matrix that is re-verified by exact multiplication
  before the verdict is constructed;
* No, with the name of a complete argument (an invariant filter, a small
  modulus with no solutions, or an exhausted complete enumeration);
* Unknown, with the max-norm radius up to which the search is exhaustive,
  or the note that the node budget ran out first.

Columns of P are chosen one at a time.  When A (or -A) is positive
definite, of rank at most ``DEFINITE_CAP``, the candidate vectors for each
column form the finite solution set of a definite quadratic equation,
enumerated completely by integer Fincke-Pohst bounds on the fraction-free
``symmetric_elimination`` of A, so running out of candidates proves No.
In the indefinite case candidates range over a max-norm box and
exhaustion only proves the absence of small witnesses, hence Unknown.

The filters are each complete arguments, never heuristics:

* rank: a target of larger rank cannot be hit;
* signature: the sublattice spanned by the columns of P carries k * B, and
  a subspace cannot have more positive (or negative) directions than the
  ambient space (validated against the brute-force oracle in the tests);
* parity: an even source pairing makes every diagonal of P.T A P even, so
  an odd target needs even k;
* determinant: in the square case det(P)^2 * det(A) = k^rank * det(B)
  forces k^rank * det(B) * det(A) to be a perfect square;
* mod 2: for odd k, P mod 2 embeds B's form isometrically into A's.  Over
  F_2 a nondegenerate symmetric form is classified by its rank and by
  whether it is alternating (Milnor-Husemoller, ch. I), so beyond rank and
  parity the only obstruction is an even B of the same rank as an odd A;
* mod 4: the congruence must also hold mod 4, which is checked by
  exhaustive search when the shape is small enough.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import isqrt, lcm
from typing import Iterator, Sequence

from .errors import (
    BudgetExceeded,
    ShapeMismatch,
    SymmetryMismatch,
    WitnessRejected,
    ZeroK,
)
from .intform import (
    SYMMETRIC,
    IntersectionForm,
    IntMatrix,
    symmetric_elimination,
)

REASON_SYMMETRY = "SymmetryFilter"
REASON_RANK = "RankFilter"
REASON_SIGNATURE = "SignatureFilter"
REASON_PARITY = "ParityFilter"
REASON_DETERMINANT = "DeterminantFilter"
REASON_MOD2 = "Mod2Filter"
REASON_MOD4 = "Mod4Filter"
REASON_EXHAUSTIVE = "ExhaustiveDefinite"

# Complete reasons double as "never contradicted by any witness search".
COMPLETE_REASONS = frozenset(
    {
        REASON_RANK,
        REASON_SIGNATURE,
        REASON_PARITY,
        REASON_DETERMINANT,
        REASON_MOD2,
        REASON_MOD4,
        REASON_EXHAUSTIVE,
        REASON_SYMMETRY,
    }
)


# Highest rank whose definite forms get the complete enumeration.
DEFINITE_CAP = 12


@dataclass(frozen=True)
class SearchConfig:
    """Budgets for the backtracking search."""

    radius: int = 8
    node_budget: int = 10_000_000

    def __post_init__(self):
        if self.radius <= 0 or self.node_budget <= 0:
            raise ShapeMismatch("search budgets must be positive")


DEFAULT_CONFIG = SearchConfig()


@dataclass(frozen=True)
class Verdict:
    """Answer to one congruence or degree query.

    ``kind`` is yes, no or unknown from the solver, necessary_pass when a
    manifold query can only certify necessary conditions, and
    no_within_bound from the oracle.  An Unknown carries either the
    max-norm ``radius`` it exhausted or ``budget_exhausted``.  Manifold
    queries also record the degree ``k`` and the ``regime`` that decided it.
    """

    kind: str
    witness: IntMatrix | None = None
    reason: str | None = None
    radius: int | None = None
    budget_exhausted: bool = False
    k: int | None = None
    regime: str | None = None

    @property
    def is_yes(self) -> bool:
        return self.kind == "yes"

    @property
    def is_no(self) -> bool:
        return self.kind == "no"

    @property
    def is_unknown(self) -> bool:
        return self.kind == "unknown"

    @classmethod
    def yes_checked(cls, a: IntersectionForm, b: IntersectionForm, k: int, witness: IntMatrix):
        verify_witness(a, b, k, witness)
        return cls("yes", witness=witness)

    @classmethod
    def no(cls, reason: str):
        return cls("no", reason=reason)


def verify_witness(a: IntersectionForm, b: IntersectionForm, k: int, witness: IntMatrix):
    """Exact re-check of P.T @ A @ P == k * B; raises WitnessRejected."""
    if witness.rows != a.rank or witness.cols != b.rank:
        raise WitnessRejected(
            f"witness shape {witness.shape} does not match ranks {a.rank}, {b.rank}"
        )
    if witness.transpose() @ a.matrix @ witness != b.matrix.scaled(k):
        raise WitnessRejected("witness fails the congruence")


class _Budget:
    __slots__ = ("remaining",)

    def __init__(self, limit: int):
        self.remaining = limit

    def spend(self, amount: int = 1):
        self.remaining -= amount
        if self.remaining < 0:
            raise _OutOfBudget


class _OutOfBudget(Exception):
    pass


def _is_perfect_square(v: int) -> bool:
    return v >= 0 and isqrt(v) ** 2 == v


# ---------------------------------------------------------------------------
# Filters
# ---------------------------------------------------------------------------

def _signature_obstructed(a: IntersectionForm, b: IntersectionForm, k: int) -> bool:
    pos_a, neg_a, _ = a.signature
    pos_b, neg_b, _ = b.signature
    if k > 0:
        return pos_b > pos_a or neg_b > neg_a
    return neg_b > pos_a or pos_b > neg_a


def _parity_obstructed(a: IntersectionForm, b: IntersectionForm, k: int) -> bool:
    return a.parity == "even" and b.parity == "odd" and k % 2 != 0


def _mod2_obstructed(a: IntersectionForm, b: IntersectionForm, k: int) -> bool:
    # an alternating F_2 form of rank r embeds into a non-alternating one
    # only of rank > r; antisymmetric forms are alternating on both sides
    return (
        a.parity == "odd" and b.parity == "even" and a.rank == b.rank and k % 2 != 0
    )


def _determinant_obstructed(a: IntersectionForm, b: IntersectionForm, k: int) -> bool:
    if a.rank != b.rank:
        return False
    v = k ** b.rank * a.matrix.det() * b.matrix.det()
    return not _is_perfect_square(v)


_MODQ_NODE_CAP = 200_000


def _modq_unsolvable(a: IntMatrix, b: IntMatrix, k: int, q: int) -> bool:
    """True when the congruence has no solution mod q, proven exhaustively.

    Conservative: returns False (no obstruction claimed) when the shape is
    too large for the exhaustive check or the node cap is hit.
    """
    m, l = a.rows, b.rows
    if q ** m > 5000 or m * l > 48:
        return False
    arows = [tuple(x % q for x in a.row(i)) for i in range(m)]
    targets = [[(k * b[i, j]) % q for j in range(l)] for i in range(l)]
    vectors = list(itertools.product(range(q), repeat=m))
    qvals = [
        sum(x[i] * arows[i][j] * x[j] for i in range(m) for j in range(m)) % q
        for x in vectors
    ]
    budget = _Budget(_MODQ_NODE_CAP)

    def candidates(col: int, lin: list) -> Iterator[tuple]:
        want = targets[col][col]
        for cand, qv in zip(vectors, qvals):
            budget.spend()
            if qv != want:
                continue
            if any(
                sum(c * v for c, v in zip(crow, cand)) % q != t for crow, t in lin
            ):
                continue
            yield cand

    def pairing_row(vec: tuple) -> tuple:
        return tuple(
            sum(vec[s] * arows[s][t] for s in range(m)) % q for t in range(m)
        )

    try:
        return next(_backtrack(range(l), targets, candidates, pairing_row), None) is None
    except _OutOfBudget:
        return False


def _prefilter(a: IntersectionForm, b: IntersectionForm, k: int) -> Verdict | None:
    if b.rank > a.rank:
        return Verdict.no(REASON_RANK)
    if a.symmetry == SYMMETRIC:
        if _signature_obstructed(a, b, k):
            return Verdict.no(REASON_SIGNATURE)
        if _parity_obstructed(a, b, k):
            return Verdict.no(REASON_PARITY)
    if _determinant_obstructed(a, b, k):
        return Verdict.no(REASON_DETERMINANT)
    if _mod2_obstructed(a, b, k):
        return Verdict.no(REASON_MOD2)
    if _modq_unsolvable(a.matrix, b.matrix, k, 4):
        return Verdict.no(REASON_MOD4)
    return None


# ---------------------------------------------------------------------------
# Complete enumeration for definite quadratic equations
# ---------------------------------------------------------------------------


def _centered_rank(v: int) -> int:
    # 0, 1, -1, 2, -2, ... -> 0, 1, 2, 3, 4, ...
    return 2 * abs(v) - (1 if v > 0 else 0)


def _centered_key(vec: Sequence[int]) -> tuple:
    return tuple(_centered_rank(v) for v in vec)


def _definite_solutions(tri: list, value: int) -> list:
    """All integer x with Q(x) == value for a positive definite Q.

    ``tri`` is Q's ``symmetric_elimination``, so that
    Q(x) = sum_i (p_i x_i + s_i)^2 / (p_{i-1} p_i).  Scaled by the lcm of
    those denominators every term has an integer weight, and each
    coordinate is confined to the exact interval that an integer square
    root of the remaining budget allows: complete by construction.
    """
    m = len(tri)
    if value < 0:
        return []
    if m == 0:
        return [()] if value == 0 else []
    pivots = [tri[i][i] for i in range(m)]
    if min(pivots) <= 0:
        raise ShapeMismatch("matrix is not positive definite")
    denominators = [p * q for p, q in zip([1] + pivots, pivots)]
    scale = lcm(*denominators)
    weights = [scale // den for den in denominators]
    out = []
    x = [0] * m

    def rec(i: int, rem: int):
        p, w, row = pivots[i], weights[i], tri[i]
        s = sum(row[j] * x[j] for j in range(i + 1, m))
        # integer x_i with w * (p * x_i + s)^2 <= rem
        ymax = isqrt(rem // w)
        for xi in range(-((ymax + s) // p), (ymax - s) // p + 1):
            y = p * xi + s
            term = w * y * y
            x[i] = xi
            if i == 0:
                if term == rem:
                    out.append(tuple(x))
            else:
                rec(i - 1, rem - term)
        x[i] = 0

    rec(m - 1, scale * value)
    out.sort(key=_centered_key)
    return out


# ---------------------------------------------------------------------------
# Box enumeration for the indefinite case
# ---------------------------------------------------------------------------


def _centered_values(radius: int):
    yield 0
    for v in range(1, radius + 1):
        yield v
        yield -v


def _box_candidates(
    arows: list,
    symmetric: bool,
    radius: int,
    quad_target: int,
    lin: list,
    budget: _Budget,
) -> Iterator[tuple]:
    """Vectors x with max-norm <= radius, x.T A x == quad_target and
    c . x == t for every (c, t) in lin, in centered-lexicographic order.

    Pruning uses exact interval bounds for both the linear constraints and
    the quadratic remainder, so no solutions inside the box are missed.
    """
    m = len(arows)
    if m == 0:
        if quad_target == 0 and all(t == 0 for _, t in lin):
            yield ()
        return
    if not symmetric and quad_target != 0:
        return
    lin_coeffs = [c for c, _ in lin]
    lin_targets = [t for _, t in lin]
    nlin = len(lin)
    # suffix_abs[i][d] = radius * sum_{t >= d} |c_t|
    suffix_abs = []
    for c in lin_coeffs:
        acc = [0] * (m + 1)
        for t in range(m - 1, -1, -1):
            acc[t] = acc[t + 1] + abs(c[t]) * radius
        suffix_abs.append(acc)
    tail_abs = [0] * (m + 1)
    if symmetric:
        for dpos in range(m - 1, -1, -1):
            tail_abs[dpos] = (
                tail_abs[dpos + 1]
                + abs(arows[dpos][dpos])
                + 2 * sum(abs(arows[dpos][t]) for t in range(dpos + 1, m))
            )
    x = [0] * m
    g = [0] * m  # g[t] = sum_{s < d} a[s][t] * x[s], maintained for t >= d
    linpart = [0] * nlin

    def rec(d: int, qpart: int) -> Iterator[tuple]:
        arow = arows[d]
        last = d == m - 1
        for v in _centered_values(radius):
            budget.spend()
            ok = True
            for i in range(nlin):
                np_ = linpart[i] + lin_coeffs[i][d] * v
                slack = suffix_abs[i][d + 1]
                if not (lin_targets[i] - slack <= np_ <= lin_targets[i] + slack):
                    ok = False
                    break
            if not ok:
                continue
            if symmetric:
                nq = qpart + arow[d] * v * v + 2 * v * g[d]
                cross = sum(abs(g[t] + arow[t] * v) for t in range(d + 1, m))
                window = 2 * radius * cross + radius * radius * tail_abs[d + 1]
                if not (quad_target - window <= nq <= quad_target + window):
                    continue
            else:
                nq = 0
            x[d] = v
            if last:
                yield tuple(x)
            else:
                for i in range(nlin):
                    linpart[i] += lin_coeffs[i][d] * v
                for t in range(d + 1, m):
                    g[t] += arow[t] * v
                yield from rec(d + 1, nq)
                for i in range(nlin):
                    linpart[i] -= lin_coeffs[i][d] * v
                for t in range(d + 1, m):
                    g[t] -= arow[t] * v
        x[d] = 0

    yield from rec(0, 0)


# ---------------------------------------------------------------------------
# Column-by-column backtracking
# ---------------------------------------------------------------------------


def _backtrack(order: Sequence[int], target: list, candidates, pairing_row) -> Iterator[list]:
    """Every list of columns x_j with x_i . A x_j == target[i][j] for all i, j.

    Columns are filled in ``order``.  ``candidates(col, lin)`` yields the
    vectors allowed in column ``col`` that meet c . x == t for every (c, t)
    in ``lin``, the pairing rows of the columns already placed paired with
    their targets; ``pairing_row(x)`` is the row x.T A.  The search is
    complete exactly when every candidate source is.  The yielded list
    (in natural column order) is reused, so copy it before advancing.
    """
    columns: list = [None] * len(order)
    placed: list = []  # (column index, pairing row)

    def rec(idx: int) -> Iterator[list]:
        if idx == len(order):
            yield columns
            return
        col = order[idx]
        lin = [(crow, target[oc][col]) for oc, crow in placed]
        for cand in candidates(col, lin):
            columns[col] = cand
            placed.append((col, pairing_row(cand)))
            yield from rec(idx + 1)
            placed.pop()

    yield from rec(0)


class _Outcome:
    """How a witness stream ended, once it has."""

    __slots__ = ("complete", "budget_exhausted")

    def __init__(self, complete: bool = False):
        self.complete = complete
        self.budget_exhausted = False

    def verdict(self, radius: int, no_reason: str = REASON_EXHAUSTIVE) -> Verdict:
        """The verdict when the stream offered no acceptable witness."""
        if self.budget_exhausted:
            return Verdict("unknown", budget_exhausted=True)
        if self.complete:
            return Verdict.no(no_reason)
        return Verdict("unknown", radius=radius)


def _column_order(b: IntMatrix) -> list:
    return sorted(range(b.rows), key=lambda j: (-abs(b[j, j]), j))


def _witness_stream(
    a: IntersectionForm,
    b: IntersectionForm,
    k: int,
    cfg: SearchConfig,
    outcome: _Outcome,
) -> Iterator[IntMatrix]:
    m = a.rank
    arows = [list(a.matrix.row(i)) for i in range(m)]
    target = [[k * x for x in row] for row in b.matrix.to_rows()]
    symmetric = a.symmetry == SYMMETRIC
    definite = a.is_definite() and m <= DEFINITE_CAP
    budget = _Budget(cfg.node_budget)

    if definite:
        sign = 1 if a.signature[1] == 0 else -1
        tri = symmetric_elimination([[sign * x for x in row] for row in arows])
        definite_cache: dict = {}

        def candidates(col: int, lin: list) -> Iterator[tuple]:
            value = target[col][col]
            if value not in definite_cache:
                definite_cache[value] = _definite_solutions(tri, sign * value)
            for cand in definite_cache[value]:
                budget.spend()
                if any(sum(c * v for c, v in zip(crow, cand)) != t for crow, t in lin):
                    continue
                yield cand
    else:

        def candidates(col: int, lin: list) -> Iterator[tuple]:
            return _box_candidates(arows, symmetric, cfg.radius, target[col][col], lin, budget)

    def pairing_row(vec: tuple) -> tuple:
        return tuple(
            sum(vec[s] * arows[s][t] for s in range(m)) for t in range(m)
        )

    try:
        for columns in _backtrack(_column_order(b.matrix), target, candidates, pairing_row):
            yield IntMatrix.from_columns(columns, nrows=m)
    except _OutOfBudget:
        outcome.budget_exhausted = True
    else:
        outcome.complete = definite


def open_search(
    a: IntersectionForm, b: IntersectionForm, k: int, cfg: SearchConfig | None = None
) -> tuple:
    """Validate inputs, run the filters, and expose the witness stream.

    Returns (filter_verdict, stream, outcome); filter_verdict is a No
    verdict when a complete filter fired (stream is then empty).  Once the
    stream is exhausted, ``outcome.verdict`` maps how it ended to a verdict.
    """
    cfg = cfg or DEFAULT_CONFIG
    if a.symmetry != b.symmetry:
        raise SymmetryMismatch("source and target forms have different symmetry")
    if k == 0:
        raise ZeroK("degree 0 is the constant map; query nonzero k")
    if b.rank == 0:
        return None, iter([IntMatrix.zeros(a.rank, 0)]), _Outcome(complete=True)
    verdict = _prefilter(a, b, k)
    if verdict is not None:
        return verdict, iter(()), _Outcome(complete=True)
    outcome = _Outcome()
    return None, _witness_stream(a, b, k, cfg, outcome), outcome


def congruence_solve(
    a: IntersectionForm, b: IntersectionForm, k: int, cfg: SearchConfig | None = None
) -> Verdict:
    """Find P with P.T @ A @ P == k * B, prove none exists, or give up.

    See the module docstring for the meaning of each verdict.
    """
    cfg = cfg or DEFAULT_CONFIG
    verdict, stream, outcome = open_search(a, b, k, cfg)
    if verdict is not None:
        return verdict
    witness = next(stream, None)
    if witness is not None:
        return Verdict.yes_checked(a, b, k, witness)
    return outcome.verdict(cfg.radius)


# ---------------------------------------------------------------------------
# Independent brute-force oracle
# ---------------------------------------------------------------------------

_ORACLE_LIMIT = 10_000_000
_ORACLE_CHUNK = 500_000


def brute_force_oracle(
    a: IntersectionForm, b: IntersectionForm, k: int, entry_bound: int
) -> Verdict:
    """Naive enumeration of every P with |entries| <= entry_bound.

    Completely independent of the backtracking kernel: candidates are
    generated as flat digit tuples and checked by plain matrix products
    (vectorized when safely inside int64 range).  Returns Yes or
    NoWithinBound; raises BudgetExceeded when the box is too large.
    """
    m, l = a.rank, b.rank
    nvars = m * l
    width = 2 * entry_bound + 1
    total = width ** nvars
    if total > _ORACLE_LIMIT:
        raise BudgetExceeded(f"{total} candidate matrices exceed the oracle limit")
    if nvars == 0:
        zero = IntMatrix.zeros(m, l)
        if zero.transpose() @ a.matrix @ zero == b.matrix.scaled(k):
            return Verdict("yes", witness=zero)
        return Verdict("no_within_bound", radius=entry_bound)

    max_abs_a = max((abs(x) for x in a.matrix.entries()), default=0)
    safe_int64 = max_abs_a * (entry_bound ** 2) * (m ** 2) < 2 ** 60

    if safe_int64:
        witness = _oracle_numpy(a.matrix, b.matrix, k, entry_bound, m, l)
    else:
        witness = _oracle_python(a.matrix, b.matrix, k, entry_bound, m, l)
    if witness is None:
        return Verdict("no_within_bound", radius=entry_bound)
    return Verdict.yes_checked(a, b, k, witness)


def _oracle_numpy(a: IntMatrix, b: IntMatrix, k: int, bound: int, m: int, l: int):
    import numpy as np

    nvars = m * l
    vals = list(range(-bound, bound + 1))
    width = len(vals)
    # split digits so the enumerated tail chunk stays small
    tail_vars = nvars
    while width ** tail_vars > _ORACLE_CHUNK:
        tail_vars -= 1
    head_vars = nvars - tail_vars
    grids = np.meshgrid(*([np.array(vals, dtype=np.int64)] * tail_vars), indexing="ij")
    tail = np.stack([g.ravel() for g in grids], axis=-1) if tail_vars else np.zeros((1, 0), dtype=np.int64)
    a_np = np.array(a.to_rows(), dtype=np.int64).reshape(m, m)
    kb_np = k * np.array(b.to_rows(), dtype=np.int64).reshape(l, l)
    n_tail = tail.shape[0]
    head_iter = itertools.product(vals, repeat=head_vars) if head_vars else iter([()])
    for head in head_iter:
        flat = np.empty((n_tail, nvars), dtype=np.int64)
        if head_vars:
            flat[:, :head_vars] = np.array(head, dtype=np.int64)
        flat[:, head_vars:] = tail
        ps = flat.reshape(n_tail, m, l)
        gram = np.matmul(np.matmul(ps.transpose(0, 2, 1), a_np), ps)
        mask = (gram == kb_np).all(axis=(1, 2))
        hits = np.flatnonzero(mask)
        if hits.size:
            entries = [int(x) for x in flat[hits[0]]]
            return IntMatrix(m, l, entries)
    return None


def _oracle_python(a: IntMatrix, b: IntMatrix, k: int, bound: int, m: int, l: int):
    vals = list(range(-bound, bound + 1))
    kb = b.scaled(k)
    for flat in itertools.product(vals, repeat=m * l):
        p = IntMatrix(m, l, flat)
        if p.transpose() @ a @ p == kb:
            return p
    return None
