"""Decision kernel for the integer congruence P.T @ A @ P == k * B.

``congruence_solve`` returns a three-valued verdict:

* Yes, with a witness matrix that is re-verified by exact multiplication
  before the verdict is constructed;
* No, with the name of a complete argument (an invariant filter, a small
  modulus with no solutions, or an exhausted complete enumeration);
* Unknown, with the max-norm radius up to which the search is exhaustive,
  or the note that the node budget ran out first.

An optional predicate ``accept(col, x)`` restricts the search, and so the
verdict, to witnesses whose every column passes it, x always in A's own
coordinates; the manifold layer passes the per-column homotopy condition.

``isomorphic`` decides isomorphism of forms, the equal-rank, k = 1 case,
by ``congruence_solve`` past its own invariant checks; it answers Unknown
only when the node budget stops a definite search.

Columns of P are chosen one at a time.  When A (or -A) is positive
definite, of rank at most ``DEFINITE_CAP``, the candidate vectors for each
column form the finite solution set of a definite quadratic equation,
enumerated completely by integer Fincke-Pohst bounds on the fraction-free
``symmetric_elimination`` of A, so running out of candidates proves No.
The last coordinate must use up what is left of the norm exactly, so it is
solved in closed form (at most two roots) rather than scanned, and one sort
keyed by a rank lookup (0, 1, -1, 2, -2, ... -> 0, 1, 2, 3, 4, ...) puts
the vectors in centered-lexicographic order.
In the indefinite case candidates range over a max-norm box and
exhaustion only proves the absence of small witnesses, hence Unknown.
``_box_candidates`` yields every solution in that box, in one of two ways:

* norm level by norm level (``canonical.level_candidates``), for every
  symmetric indefinite A that ``canonical.canonical_basis`` brings to
  I(p, q) or H^a by a unimodular U.
  The search runs in those canonical coordinates, for P' with
  P'.T (U.T A U) P' == k B, and returns P = U P'.  A column x = (u, w) of
  Q(x) = |u|^2 - |w|^2 == t is taken level by level, |w|^2 = s and
  |u|^2 = t + s for s = 0, 1, ..., both halves from the definite
  enumeration (H^a after u = x + y, w = x - y), so the cost no longer
  depends on the order of the basis;
* by a centered scan with interval pruning, in A's own coordinates, for
  antisymmetric A and the indefinite forms that ``canonical_basis`` does
  not cover (E8 blocks, or no splitting vector found within its cap).

Both are exhaustive on the box of max-norm ``radius``, so an Unknown's
radius is measured in the coordinates the search ran in: the canonical
ones where ``canonical_basis`` covers A, A's own otherwise.

Before any column is enumerated, the witness stream tries one
construction, built from explicit pieces as the paper builds its maps:

* fixed blocks, for an A that ``canonical_basis`` covers: P' with
  P'.T C_A P' == k C_B from ``canonical.block_witness``, where C_A = U_A.T
  A U_A and C_B = U_B.T B U_B are I(p, q) or H^a, and P = U_A P' U_B^-1.
  U_B is the identity when B's matrix is canonical already (every definite
  diagonal target), else B's ``canonical_basis``.  The blocks, placed
  greedily into disjoint rows of C_A, are:

  ==========================  ===============  ================================
  piece of k C_B              rows of C_A      columns of P'
  ==========================  ===============  ================================
  C_B, k = m^2                C_B              m e_i
  kH                          H                diag(k, 1)
  kH, k even                  I(1, 1)          (1, 1), (k/2, -k/2)
  k I(1, 1), k even           H                (1, k/2), (1, -k/2)
  k<+-1>, k even              H                (1, +-k/2)
  k I(1, 1), k odd or 4 | k   I(1, 1)          (x, y), (y, x); x^2 - y^2 = k
  k<+-1>, k odd or 4 | k      I(1, 1)          (x, y) or (y, x)
  k I_2 or k<1>, one sign     I_2, that sign   [[x, -y], [y, x]]; x^2 + y^2 = k
  k I_l, l <= 4, one sign     I_4, that sign   a Lagrange quaternion block
  ==========================  ===============  ================================

  Negative k uses the sign swap of B.  When no placement fits, nothing is
  built;
* scaled isometry, for every other A of B's rank, signature and parity:
  for k = m^2, m >= 1, and U.T A U == B, (m U).T A (m U) == k B.
  ``_isometry`` gives U: the identity when A and B have the same matrix,
  U_A U_B^-1 from the two symplectic bases when they are antisymmetric,
  and for a definite A of rank at most ``DEFINITE_CAP`` the first witness
  of the complete k = 1 search, charged to the query's node budget and
  run only when A and B have as many vectors of norm +-1 (which, with
  rank and parity, classifies them up to rank 12).  That search runs onto
  the form whose largest diagonal entry is smaller in absolute value and
  inverts its witness when that form is A.  It is left out at k = 1 under
  ``accept``, where the column search below covers it with pruning.

The built witness is yielded first when every column passes ``accept``,
and the column search follows unchanged, so the step can only add a
verified Yes, never change a No.

The filters are each complete arguments, never heuristics:

* rank: a target of larger rank cannot be hit;
* signature: the sublattice spanned by the columns of P carries k * B, and
  a subspace cannot have more positive (or negative) directions than the
  ambient space (validated against the brute-force oracle in the tests);
* parity: an even source pairing makes every diagonal of P.T A P even, so
  an odd target needs even k;
* determinant: in the square case det(P)^2 * det(A) = k^rank * det(B)
  forces k^rank * det(B) * det(A) to be a perfect square.  A unimodular
  symmetric form has det = (-1)^(n_minus), so this is read off the
  signatures; an antisymmetric one has det 1 and even rank, so the
  filter never fires on it;
* mod 2: for odd k, P mod 2 embeds B's form isometrically into A's.  Over
  F_2 a nondegenerate symmetric form is classified by its rank and by
  whether it is alternating (Milnor-Husemoller, ch. I), so beyond rank and
  parity the only obstruction is an even B of the same rank as an odd A;
* Hasse (symmetric forms): a rational P exists only if A represents
  kB over every completion Q_p.  A and B are unimodular, so only p = 2,
  the primes dividing k and the real place (the signature filter) can
  obstruct.  At those primes A must split as kB plus a complement C whose
  determinant and Hasse invariant are forced, and C of rank r must exist
  (Serre, *A Course in Arithmetic*, ch. IV, 2.3): r = 0 needs the
  invariants of A and kB to match, r = 1 needs c(C) = 1, r = 2 rules out
  d(C) = -1 with c(C) = -1, and r >= 3 never obstructs.  No rational
  solution means no integral one.  The diagonal of each form is read off
  its stored elimination pivots;
* mod 4 (last): the congruence must also hold mod 4.  Over Z/4 a
  unimodular symmetric form is determined by its rank, its parity and its
  signature mod 8 (Milnor-Husemoller, ch. II; Conway-Sloane, *SPLAG*,
  ch. 15), so ``_modq_unsolvable`` decides it in closed form.  Write
  m, l for the ranks of A and B, sigma for n_plus - n_minus mod 8,
  chi(k) = +-1 for k = +-1 mod 4 and s = sigma_A - chi(k) sigma_B.  It is
  unsolvable exactly when A is even, k odd and B odd; or A is odd, k odd
  and, by the rank gap m - l, B even or s != 0 (gap 0), s in {3, 5}
  (gap 1), or B even and s = 4 (gap 2); or A is odd, k = 2 mod 4 and either
  B is odd with m = 2 and sigma_A = 0, or with m odd and l = m, or B is
  even with m even, l = m and sigma_A != 0, or with m odd, l = m - 1 and
  sigma_A in {3, 5}.  An antisymmetric A and k = 0 mod 4 never obstruct.
  Run after the Hasse filter, it still adds integral 2-adic obstructions
  that no rational test sees, such as x^2 - y^2 = 2;
* theta (last): at |k| = 1 between definite forms of equal rank, P is
  unimodular and so matches the vectors of norm +-1 of B one to one with
  those of A.  A and B must have as many; I9 and E8 + I1 (18 against 2)
  do not.  They are counted up to rank ``DEFINITE_CAP``, and only for odd
  forms, as even forms have none.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import isqrt, lcm
from operator import mul
from typing import Iterator, Sequence

from .canonical import block_witness, canonical_basis, canonical_matrix, level_candidates
from .errors import CapExceeded, ShapeMismatch, SymmetryMismatch, WitnessRejected, ZeroK
from .intform import (
    ANTISYMMETRIC,
    NOT_COMPUTED,
    PARITY_EVEN,
    SYMMETRIC,
    IntersectionForm,
    IntMatrix,
    symmetric_elimination,
    symplectic_basis_transform,
)

REASON_SYMMETRY = "SymmetryFilter"
REASON_RANK = "RankFilter"
REASON_SIGNATURE = "SignatureFilter"
REASON_PARITY = "ParityFilter"
REASON_DETERMINANT = "DeterminantFilter"
REASON_MOD2 = "Mod2Filter"
REASON_MOD4 = "Mod4Filter"
REASON_HASSE = "HasseFilter"
REASON_EXHAUSTIVE = "ExhaustiveDefinite"
REASON_THETA = "ThetaFilter"

# Complete reasons double as "never contradicted by any witness search".
COMPLETE_REASONS = frozenset(
    {
        REASON_RANK,
        REASON_SIGNATURE,
        REASON_PARITY,
        REASON_DETERMINANT,
        REASON_MOD2,
        REASON_MOD4,
        REASON_HASSE,
        REASON_EXHAUSTIVE,
        REASON_SYMMETRY,
        REASON_THETA,
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

    ``kind`` is yes, no or unknown from the solver, or necessary_pass when
    a manifold query can only certify necessary conditions.  An Unknown
    carries either the max-norm ``radius`` it exhausted or
    ``budget_exhausted``.  Manifold queries also record the degree ``k``
    and the ``regime`` that decided it.
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
    v = k ** b.rank * (-1) ** (a.signature[1] + b.signature[1])
    return not _is_perfect_square(v)


def _modq_unsolvable(a: IntersectionForm, b: IntersectionForm, k: int) -> bool:
    """True when P.T A P == k B has no solution mod 4 (rank B <= rank A).

    The closed form of the module docstring, in its notation.  For odd k
    and odd A a solution means A = kB + C over Z/4 for a unimodular C of
    rank r = m - l, which fails only for r <= 2.  For k = 2 mod 4 and odd A,
    P reduces over F_2 to an isotropic subspace of A mod 2 of dimension
    >= l / 2 on which Q / 2 mod 2 is nonzero when B is odd and zero when B
    is even.  An antisymmetric A embeds kB symplectically, and k = 0 mod 4
    has P = 0.
    """
    if a.symmetry == ANTISYMMETRIC or k % 4 == 0:
        return False
    odd_b = b.parity != PARITY_EVEN
    if a.parity == PARITY_EVEN:
        return k % 2 == 1 and odd_b
    m, l = a.rank, b.rank
    sig_a = (a.signature[0] - a.signature[1]) % 8
    if k % 2 == 1:
        chi = 1 if k % 4 == 1 else -1
        s = (sig_a - chi * (b.signature[0] - b.signature[1])) % 8
        r = m - l
        if r == 0:
            return not odd_b or s != 0
        if r == 1:
            return s in (3, 5)
        return r == 2 and not odd_b and s == 4
    if odd_b:
        return (m == 2 and sig_a == 0) or (m % 2 == 1 and l == m)
    if m % 2 == 0:
        return l == m and sig_a != 0
    return l == m - 1 and sig_a in (3, 5)


# Trial division bound for the primes of k.  A cofactor with no prime
# factor up to the bound that is not below its square stays unfactored and
# its primes go unchecked, which can only lose a No.
_FACTOR_CAP = 1 << 16


def _local_primes(k: int) -> list:
    """2 and the primes of k that trial division up to ``_FACTOR_CAP`` finds."""
    n = abs(k)
    while n % 2 == 0:
        n //= 2
    primes = [2]
    d = 3
    while d * d <= n:
        if d > _FACTOR_CAP:
            return primes
        if n % d == 0:
            primes.append(d)
            while n % d == 0:
                n //= d
        d += 2
    if n > 1:
        primes.append(n)
    return primes


def _split(a: int, p: int) -> tuple:
    """(v, u) with a == p**v * u and u prime to p; a != 0."""
    v = 0
    while a % p == 0:
        a //= p
        v += 1
    return v, a


def _is_residue(u: int, p: int) -> bool:
    """Whether the p-adic unit u is a square in Z_p."""
    return u % 8 == 1 if p == 2 else pow(u, (p - 1) // 2, p) == 1


def _is_local_square(a: int, p: int) -> bool:
    v, u = _split(a, p)
    return v % 2 == 0 and _is_residue(u, p)


def _hilbert(a: int, b: int, p: int) -> int:
    """The Hilbert symbol (a, b)_p of nonzero integers (Serre, ch. III, 1.2)."""
    alpha, u = _split(a, p)
    beta, v = _split(b, p)
    if p == 2:
        eps_u, eps_v = (u - 1) // 2 % 2, (v - 1) // 2 % 2
        omega_u, omega_v = (u * u - 1) // 8 % 2, (v * v - 1) // 8 % 2
        odd = eps_u * eps_v + alpha * omega_v + beta * omega_u
    else:
        odd = alpha * beta * (p - 1) // 2
        odd += beta * (not _is_residue(u, p)) + alpha * (not _is_residue(v, p))
    return -1 if odd % 2 else 1


def _hasse_invariant(diag: Sequence[int], p: int) -> int:
    """prod_{i<j} (a_i, a_j)_p of <a_1, ..., a_n>, by bilinearity one symbol per entry."""
    c, d = 1, 1
    for x in diag:
        c *= _hilbert(d, x, p)
        d *= x
    return c


def _rational_diagonal(form: IntersectionForm) -> list:
    pivots = form.pivots
    return [p * q for p, q in zip((1,) + pivots, pivots)]


def _hasse_obstructed(a: IntersectionForm, b: IntersectionForm, k: int) -> bool:
    """True when A cannot represent kB over Q_p for p = 2 or a found p | k.

    A represents g = kB over Q_p iff A = g + C for a C of rank
    r = rank A - rank B with d(C) = d(A) d(g) and, as
    c(g + C) = c(g) c(C) (d(g), d(C))_p, c(C) = c(A) c(g) (d(g), d(C))_p.
    """
    r = a.rank - b.rank
    if r >= 3:
        return False
    diag_a = _rational_diagonal(a)
    diag_g = [k * x for x in _rational_diagonal(b)]
    d_g = k ** b.rank * b.determinant
    d_c = a.determinant * d_g
    for p in _local_primes(k):
        c = _hasse_invariant(diag_a, p) * _hasse_invariant(diag_g, p) * _hilbert(d_g, d_c, p)
        if r == 0:
            exists = c == 1 and _is_local_square(d_c, p)
        elif r == 1:
            exists = c == 1
        else:
            exists = c == 1 or not _is_local_square(-d_c, p)
        if not exists:
            return True
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
    if a.symmetry == SYMMETRIC and _hasse_obstructed(a, b, k):
        return Verdict.no(REASON_HASSE)
    if _modq_unsolvable(a, b, k):
        return Verdict.no(REASON_MOD4)
    # a solution at |k| = 1 and equal rank is unimodular, so x -> P x maps
    # the vectors of norm +-1 of B one to one onto those of A
    unimodular = abs(k) == 1 and a.rank == b.rank
    if unimodular and _enumerates_completely(a) and _unit_vectors_differ(a, b):
        return Verdict.no(REASON_THETA)
    return None


# ---------------------------------------------------------------------------
# Complete enumeration for definite quadratic equations
# ---------------------------------------------------------------------------


def _definite_solutions(tri: list, value: int) -> list:
    """All integer x with Q(x) == value for a positive definite Q, in
    centered-lexicographic order: x_0 first, each coordinate ranked
    0, 1, -1, 2, -2, ...

    ``tri`` is Q's ``symmetric_elimination``, so that
    Q(x) = sum_i (p_i x_i + s_i)^2 / (p_{i-1} p_i).  Scaled by the lcm of
    those denominators every term has an integer weight, and each
    coordinate but x_0 is confined to the exact interval that an integer
    square root of the remaining budget allows.  x_0 must use up the rest
    r exactly, w_0 (p_0 x_0 + s_0)^2 == r, so it is one of the at most two
    roots (+-sqrt(r / w_0) - s_0) / p_0: complete by construction.  The
    order comes from one sort, keyed by a rank lookup built for the values
    the coordinates take.
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
    tails = [tri[i][i + 1 :] for i in range(m)]
    out = []
    x = [0] * m

    def rec(i: int, rem: int):
        if i == 0:
            # rem == w_0 * (p_0 * x_0 + s)^2 in closed form
            q, r = divmod(rem, weights[0])
            y = isqrt(q)
            if r or y * y != q:
                return
            s = sum(map(mul, tails[0], x[1:]))
            for root in (y - s, -y - s) if y else (-s,):
                x0, r = divmod(root, pivots[0])
                if not r:
                    x[0] = x0
                    out.append(tuple(x))
            return
        p, w = pivots[i], weights[i]
        s = sum(map(mul, tails[i], x[i + 1 :]))
        # integer x_i with w * (p * x_i + s)^2 <= rem
        ymax = isqrt(rem // w)
        for xi in range(-((ymax + s) // p), (ymax - s) // p + 1):
            y = p * xi + s
            x[i] = xi
            rec(i - 1, rem - w * y * y)

    rec(m - 1, scale * value)
    del rec  # see _backtrack
    if out:
        lo, hi = min(map(min, out)), max(map(max, out))
        # 0, 1, -1, 2, -2, ... -> 0, 1, 2, 3, 4, ...
        rank = {v: 2 * abs(v) - (v > 0) for v in range(lo, hi + 1)}.__getitem__
        out.sort(key=lambda vec: tuple(map(rank, vec)))
    return out


def _unit_solutions(dim: int, value: int) -> list:
    """Every x in Z^dim with |x|^2 == value: the halves of ``level_candidates``."""
    return _definite_solutions([[int(i == j) for j in range(dim)] for i in range(dim)], value)


# ---------------------------------------------------------------------------
# Box enumeration for the indefinite case
# ---------------------------------------------------------------------------


def _centered_values(radius: int):
    yield 0
    for v in range(1, radius + 1):
        yield v
        yield -v


def _box_candidates(
    qrows: list,
    radius: int,
    quad_target: int,
    lin: list,
    budget: _Budget,
    levels: tuple | None = None,
) -> Iterator[tuple]:
    """Vectors x with max-norm <= radius, x.T Q x == quad_target for the
    symmetric Q with rows ``qrows``, and c . x == t for every (c, t) in lin.

    When ``levels`` is (pos, neg, hyperbolic, halves), Q is I(pos, neg) or
    H^pos and the set is taken norm level by norm level by
    ``canonical.level_candidates``, its halves from ``halves(dim, value)``.
    Otherwise the box is scanned in centered-lexicographic order; pruning
    uses exact interval bounds for both the linear constraints and the
    quadratic remainder, so no solutions inside the box are missed.
    """
    if levels is not None:
        pos, neg, hyperbolic, halves = levels
        yield from level_candidates(pos, neg, hyperbolic, radius, quad_target, lin, budget, halves)
        return
    m = len(qrows)
    if m == 0:
        if quad_target == 0 and all(t == 0 for _, t in lin):
            yield ()
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
    for dpos in range(m - 1, -1, -1):
        tail_abs[dpos] = (
            tail_abs[dpos + 1]
            + abs(qrows[dpos][dpos])
            + 2 * sum(abs(qrows[dpos][t]) for t in range(dpos + 1, m))
        )
    x = [0] * m
    g = [0] * m  # g[t] = sum_{s < d} q[s][t] * x[s], maintained for t >= d
    linpart = [0] * nlin

    def rec(d: int, qpart: int) -> Iterator[tuple]:
        qrow = qrows[d]
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
            nq = qpart + qrow[d] * v * v + 2 * v * g[d]
            cross = sum(abs(g[t] + qrow[t] * v) for t in range(d + 1, m))
            window = 2 * radius * cross + radius * radius * tail_abs[d + 1]
            if not (quad_target - window <= nq <= quad_target + window):
                continue
            x[d] = v
            if last:
                yield tuple(x)
            else:
                for i in range(nlin):
                    linpart[i] += lin_coeffs[i][d] * v
                for t in range(d + 1, m):
                    g[t] += qrow[t] * v
                yield from rec(d + 1, nq)
                for i in range(nlin):
                    linpart[i] -= lin_coeffs[i][d] * v
                for t in range(d + 1, m):
                    g[t] -= qrow[t] * v
        x[d] = 0

    try:
        yield from rec(0, 0)
    finally:
        del rec  # see _backtrack


# ---------------------------------------------------------------------------
# Column-by-column backtracking
# ---------------------------------------------------------------------------


def _backtrack(order: Sequence[int], target: list, candidates, pairing_row, accept=None):
    """Every list of columns x_j with x_i . A x_j == target[i][j] for all i, j.

    Columns are filled in ``order``.  ``candidates(col, lin)`` yields the
    vectors allowed in column ``col`` that meet c . x == t for every (c, t)
    in ``lin``, the pairing rows of the columns already placed paired with
    their targets; ``pairing_row(x)`` is the row x.T A.  The search is
    complete exactly when every candidate source is.  A candidate failing the optional ``accept(col, x)`` is skipped
    before it is placed.  The yielded list (in natural column order) is
    reused, so copy it before advancing.
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
            if accept is not None and not accept(col, cand):
                continue
            columns[col] = cand
            placed.append((col, pairing_row(cand)))
            yield from rec(idx + 1)
            placed.pop()

    try:
        yield from rec(0)
    finally:
        # rec refers to itself through its closure, a cycle that would keep
        # it and everything it reaches (candidate lists) alive
        # until the next cyclic collection; breaking it frees them at once
        del rec


def _enumerates_completely(a: IntersectionForm) -> bool:
    """True when the candidate columns for source a are enumerated completely."""
    return a.is_definite() and a.rank <= DEFINITE_CAP


def _definite_elimination(f: IntersectionForm) -> tuple:
    """(sign, tri): the sign making sign * f positive definite, and its elimination.

    A positive definite f reuses the elimination ``make_form`` kept (a
    definite matrix never pivots, so it is the same matrix); only a
    negative definite one is eliminated again, as -f.
    """
    if f.signature[1] == 0:
        return 1, f.tri
    return -1, symmetric_elimination([[-x for x in row] for row in f.matrix.to_rows()])


def _column_order(b: IntMatrix) -> list:
    return sorted(range(b.rows), key=lambda j: (-abs(b[j, j]), j))


def _witness_stream(
    a: IntersectionForm, b: IntersectionForm, k: int, cfg: SearchConfig, accept
) -> Iterator[IntMatrix]:
    """Every witness of P.T A P == k B in search order, under one node budget.

    A witness built without enumeration comes first, when there is one and
    every column passes ``accept``: ``_block_witness`` when A has a
    canonical basis, ``_scaled_isometry`` otherwise.  The column search
    follows, unchanged, and may yield the same witness again.  At k = 1
    under ``accept`` the definite isometry search is left out: it would be
    that column search, or its reverse, without the pruning, charged to
    the same budget.
    """
    budget = _Budget(cfg.node_budget)
    basis = None if _enumerates_completely(a) else canonical_basis(a, budget)
    if basis is not None:
        built = _block_witness(a, b, k, budget, basis)
    else:
        built = _scaled_isometry(a, b, k, cfg, budget, k != 1 or accept is None)
    if built is not None and (
        accept is None or all(accept(j, built.column(j)) for j in range(b.rank))
    ):
        yield built
    yield from _column_search(a, b, k, cfg, budget, basis, accept)


def _block_witness(
    a: IntersectionForm, b: IntersectionForm, k: int, budget: _Budget, basis: IntMatrix
) -> IntMatrix | None:
    """U_A P' U_B^-1 with P' from ``canonical.block_witness``, or None.

    ``basis`` is U_A.  U_B is the identity when B's matrix is already
    canonical, as every definite diagonal target is, else B's own
    ``canonical_basis``, charged to ``budget``.
    """
    pos, neg, _ = b.signature
    u_b = None
    if b.matrix != canonical_matrix(pos, neg, b.parity):
        u_b = canonical_basis(b, budget)
        if u_b is None:
            return None
    p = block_witness((*a.signature[:2], a.parity), (pos, neg, b.parity), k)
    if p is None:
        return None
    return basis @ p if u_b is None else basis @ p @ u_b.inverse_unimodular()


def _unit_vector_count(f: IntersectionForm) -> int:
    """The number of vectors of norm +-1 of a definite form.

    Counted at most once per form object and kept on ``f.unit_vectors``,
    so ``_prefilter`` and ``_isometry`` share one enumeration per form.
    """
    if f.unit_vectors is NOT_COMPUTED:
        count = len(_definite_solutions(_definite_elimination(f)[1], 1))
        object.__setattr__(f, "unit_vectors", count)
    return f.unit_vectors


def _unit_vectors_differ(f: IntersectionForm, g: IntersectionForm) -> bool:
    """Whether definite forms of one parity have different numbers of vectors
    of norm +-1; even forms have none, so they are never counted."""
    return f.parity != PARITY_EVEN and _unit_vector_count(f) != _unit_vector_count(g)


def _largest_diagonal(f: IntersectionForm) -> int:
    return max(abs(f.matrix[i, i]) for i in range(f.rank))


def _isometry(
    f: IntersectionForm,
    g: IntersectionForm,
    cfg: SearchConfig,
    budget: _Budget,
    search: bool = True,
) -> IntMatrix | None:
    """U with U.T F U == G for forms of equal rank, signature and parity, or None.

    U is the identity for equal matrices, and U_f U_g^-1 from the two
    ``symplectic_basis_transform`` results for antisymmetric forms.  For
    definite forms of rank at most ``DEFINITE_CAP`` it is the first witness
    of the complete k = 1 search, charged to ``budget``.  The search runs
    onto the form whose largest diagonal entry is smaller in absolute value,
    as its columns are vectors of those norms; run from G onto F, its
    witness Q gives U = Q^-1.  It runs only when F and G have as many
    vectors of norm +-1: up to rank 12 that count, with rank and parity,
    tells I_n, E8 + I_(n-8) and D12+ apart (Conway-Sloane, SPLAG ch. 16), so
    it runs only on isomorphic pairs and ends in an isometry.  Without
    ``search`` it does not run.  None for every other pair.
    """
    if f.matrix == g.matrix:
        return IntMatrix.identity(f.rank)
    if f.symmetry == ANTISYMMETRIC:
        u_g = symplectic_basis_transform(g.matrix)
        return symplectic_basis_transform(f.matrix) @ u_g.inverse_unimodular()
    if not search or not _enumerates_completely(f) or _unit_vectors_differ(f, g):
        return None
    if _largest_diagonal(g) <= _largest_diagonal(f):
        return next(_column_search(f, g, 1, cfg, budget, None, None), None)
    q = next(_column_search(g, f, 1, cfg, budget, None, None), None)
    return None if q is None else q.inverse_unimodular()


def _scaled_isometry(
    a: IntersectionForm,
    b: IntersectionForm,
    k: int,
    cfg: SearchConfig,
    budget: _Budget,
    search: bool = True,
) -> IntMatrix | None:
    """m U with U from ``_isometry``, a witness in degree k = m^2, or None.

    None when k is no such square, A and B differ in rank, signature or
    parity, or ``_isometry`` has no U; ``search`` is passed on to it.
    """
    m = isqrt(k) if k > 0 else 0
    if m * m != k or (a.rank, a.signature, a.parity) != (b.rank, b.signature, b.parity):
        return None
    u = _isometry(a, b, cfg, budget, search)
    return None if u is None else u.scaled(m)


def _column_search(
    a: IntersectionForm,
    b: IntersectionForm,
    k: int,
    cfg: SearchConfig,
    budget: _Budget,
    basis: IntMatrix | None,
    accept,
) -> Iterator[IntMatrix]:
    """Every witness that ``_backtrack`` finds, column by column.

    ``basis`` is A's ``canonical_basis`` (None when A enumerates completely
    or is not covered); with it the search runs in canonical coordinates.
    """
    m = a.rank
    arows = [list(a.matrix.row(i)) for i in range(m)]
    target = [[k * x for x in row] for row in b.matrix.to_rows()]

    if _enumerates_completely(a):
        sign, tri = _definite_elimination(a)
        definite_cache: dict = {}

        def candidates(col: int, lin: list) -> Iterator[tuple]:
            value = target[col][col]
            if value not in definite_cache:
                definite_cache[value] = _definite_solutions(tri, sign * value)
            for cand in definite_cache[value]:
                budget.spend()
                for crow, t in lin:
                    if sum(map(mul, crow, cand)) != t:
                        break
                else:
                    yield cand
    else:
        levels = None
        if basis is not None:
            # search in canonical coordinates x', where the witness is basis @ P'
            pos, neg, _ = a.signature
            arows = canonical_matrix(pos, neg, a.parity).to_rows()
            half_cache: dict = {}

            def halves(dim: int, value: int) -> list:
                if (dim, value) not in half_cache:
                    half_cache[dim, value] = _unit_solutions(dim, value)
                return half_cache[dim, value]

            levels = (pos, neg, a.parity == PARITY_EVEN, halves)
            if accept is not None:
                given = accept
                brows = [basis.row(i) for i in range(m)]

                def accept(col: int, vec: tuple) -> bool:
                    return given(col, tuple(sum(map(mul, row, vec)) for row in brows))

        # x.T A x vanishes identically when A is antisymmetric
        qrows = arows if a.symmetry == SYMMETRIC else [[0] * m for _ in range(m)]

        def candidates(col: int, lin: list) -> Iterator[tuple]:
            return _box_candidates(qrows, cfg.radius, target[col][col], lin, budget, levels)

    acols = list(zip(*arows))

    def pairing_row(vec: tuple) -> tuple:
        return tuple(sum(map(mul, vec, col)) for col in acols)

    for columns in _backtrack(_column_order(b.matrix), target, candidates, pairing_row, accept):
        witness = IntMatrix.from_columns(columns, nrows=m)
        yield witness if basis is None else basis @ witness


def open_search(
    a: IntersectionForm, b: IntersectionForm, k: int, cfg: SearchConfig, accept=None
) -> tuple:
    """Validate inputs, run the filters, and expose the witness stream.

    Returns (filter_verdict, stream).  filter_verdict is a No verdict when
    a complete filter fired, and the stream is then empty; otherwise it is
    None and the stream yields the witness built without enumeration first,
    when there is one, then every witness in search order, raising
    ``_OutOfBudget`` once the node budget runs out.  ``accept(col, x)``
    prunes candidate columns as in ``_backtrack``, and the built witness
    whole.
    """
    if a.symmetry != b.symmetry:
        raise SymmetryMismatch("source and target forms have different symmetry")
    if k == 0:
        raise ZeroK("degree 0 is the constant map; query nonzero k")
    verdict = _prefilter(a, b, k)
    if verdict is not None:
        return verdict, iter(())
    return None, _witness_stream(a, b, k, cfg, accept)


def congruence_solve(
    a: IntersectionForm, b: IntersectionForm, k: int, cfg: SearchConfig | None = None, accept=None
) -> Verdict:
    """Find P with P.T @ A @ P == k * B, prove none exists, or give up.

    The one place where a finished search becomes a verdict; see the
    module docstring for the meaning of each verdict and of ``accept``.
    """
    cfg = cfg or DEFAULT_CONFIG
    verdict, stream = open_search(a, b, k, cfg, accept)
    if verdict is not None:
        return verdict
    try:
        witness = next(stream, None)
    except _OutOfBudget:
        return Verdict("unknown", budget_exhausted=True)
    if witness is not None:
        return Verdict.yes_checked(a, b, k, witness)
    if _enumerates_completely(a):
        return Verdict.no(REASON_EXHAUSTIVE)
    return Verdict("unknown", radius=cfg.radius)


def isomorphic(
    f: IntersectionForm, g: IntersectionForm, cfg: SearchConfig | None = None
) -> Verdict:
    """Decide whether two unimodular forms are isomorphic over the integers.

    Invariant mismatches (symmetry, rank, parity, signature, in that order)
    give No.  Every other pair is the equal-rank, k = 1 case of the
    congruence, ``congruence_solve(f, g, 1, cfg)``: definite forms with
    different numbers of vectors of norm +-1 get the ThetaFilter No, and
    ``_isometry`` builds the witness of the rest.  Definite forms of rank
    above ``DEFINITE_CAP`` with different matrices raise CapExceeded, and
    only the node budget can leave a definite pair Unknown.  Indefinite
    symmetric forms are classified by their invariants, so Yes is settled;
    its witness is whatever a search at radius 2 and 200 000 nodes finds,
    U_f U_g^-1 from the fixed blocks where ``canonical_basis`` covers both
    forms, possibly nothing where it does not (E8 blocks).
    """
    if f.symmetry != g.symmetry:
        return Verdict.no(REASON_SYMMETRY)
    if f.rank != g.rank:
        return Verdict.no(REASON_RANK)
    if f.symmetry == SYMMETRIC:
        if f.parity != g.parity:
            return Verdict.no(REASON_PARITY)
        if f.signature != g.signature:
            return Verdict.no(REASON_SIGNATURE)
        if not f.is_definite():
            probe = congruence_solve(f, g, 1, SearchConfig(radius=2, node_budget=200_000))
            return Verdict("yes", witness=probe.witness)
        if f.rank > DEFINITE_CAP and f.matrix != g.matrix:
            raise CapExceeded(f"complete definite enumeration is capped at rank {DEFINITE_CAP}")
    return congruence_solve(f, g, 1, cfg)
