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

Columns of P are chosen one at a time.  When A is definite, of either
sign and of rank at most ``DEFINITE_CAP``, the candidate vectors for each
column form the finite solution set of a definite quadratic equation,
walked completely by integer Fincke-Pohst bounds on the fraction-free
``symmetric_elimination`` of A with its coordinates reversed, kept on A,
so running out of candidates proves No.  The walk takes x_0 outermost and
scans each interval in the order 0, 1, -1, 2, -2, ..., so the vectors come
out one at a time in centered-lexicographic order, with no list and no
sort; the last coordinate must use up what is left of the norm exactly, so
it is solved in closed form (at most two roots) rather than scanned.  Each
norm keeps a memo of the vectors walked so far, which the columns scan;
while it is incomplete, a column whose placed columns fix at least half of
the coordinates walks instead, each constraint c . x == t forcing its last
coordinate by one exact division (``_definite_candidates``).  The node
budget is charged one unit per vector a scan checks or a walk yields;
before each forced walk the memo's own walk catches up with the nodes the
forced walks of that norm have passed, so their uncharged nodes add up to
about one walk of the whole norm, after which the memo is complete and
scanned.
``_definite_solutions`` lists the same vectors in the same order from the
forward elimination, for the vectors of norm +-1 and the halves of the
level search below.
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
* by a centered scan with interval pruning, in the coordinates J^g for an
  antisymmetric A, and in A's own for the indefinite forms that
  ``canonical_basis`` does not cover (E8 blocks, or no splitting vector
  found within its cap).

Both are exhaustive on the box of max-norm ``radius``, so an Unknown's
radius is measured in the coordinates the search ran in: the canonical
ones where ``canonical_basis`` covers A, A's own otherwise.

Before any column is enumerated, the witness stream tries witnesses
built from explicit pieces, as the paper builds its maps.  Between equal
matrices m I comes first at k = m^2, before ``canonical_basis`` is
charged to the node budget (a fixed block there is m I itself); then:

* fixed blocks, for an A that ``canonical_basis`` covers: P' with
  P'.T C_A P' == k C_B from ``canonical.block_witness``, where C_A = U_A.T
  A U_A and C_B = U_B.T B U_B are I(p, q), H^a or J^g, and P = U_A P' U_B^-1.
  U_A and U_B are the identity where A's and B's matrices are canonical
  already, which is how definite sources +-I_n and every definite
  diagonal target take part; else they are the ``canonical_basis`` of an
  indefinite or antisymmetric form.  The blocks, placed greedily into
  disjoint rows of C_A, answer every antisymmetric pair at every k:

  ==========================  ===============  ================================
  piece of k C_B              rows of C_A      columns of P'
  ==========================  ===============  ================================
  C_B, k = m^2                C_B              m e_i
  kH                          H                diag(k, 1)
  kJ                          J                diag(k, 1)
  kH, k even                  I(1, 1)          (1, 1), (k/2, -k/2)
  k I(1, 1), k even           H                (1, k/2), (1, -k/2)
  k<+-1>, k even              H                (1, +-k/2)
  k I(1, 1), k odd or 4 | k   I(1, 1)          (x, y), (y, x); x^2 - y^2 = k
  k<+-1>, k odd or 4 | k      I(1, 1)          (x, y) or (y, x)
  k I_2 or k<1>, one sign     I_2, that sign   [[x, -y], [y, x]]; x^2 + y^2 = k
  k I_l, l <= 4, one sign     I_4, that sign   a Lagrange quaternion block
  kH, k odd                   carved H         diag(k, 1) on (x_i, y_i)
  k I(1, 1), k even           carved H         (1, k/2), (1, -k/2)
  k<+-1>, k even              carved H         (1, +-k/2)
  ==========================  ===============  ================================

  A carved H is a plane of an odd C_A = I(p, q) with a line to spare,
  p + q > 2b for b planes: they share one spare line z, plane i takes
  x_i = e_i + f_i and y_i = e_i + z for a negative z, y_i = -f_i - z for
  a positive one, and z becomes e_i + f_i + z, so that I(p, q) = H^b +
  I(p - b, q - b) by a unimodular M_b (H + <eps> = I(1, 1) + <eps>).  The
  rest of B takes the blocks above on I(p - b, q - b), and P' = M_b P''.
  Planes are carved only where the blocks on I(p, q) itself leave a query
  open.  Negative k uses the sign swap of B.  When no placement fits,
  nothing is built by blocks, and the scaled isometry below is tried
  instead;
* scaled isometry, for an A with no canonical basis or no fitting block,
  of B's rank, signature and parity: for k = m^2, m >= 1, and U.T A U ==
  B, (m U).T A (m U) == k B.  It answers I_n onto a scrambled I_n, which
  has no U_B.  U is the identity when A and B have the same matrix, and
  for a definite A of rank at most ``DEFINITE_CAP`` the first witness of
  the complete k = 1 search, charged to the query's node budget and
  run only when A and B have as many vectors of norm +-1 (which, with
  rank and parity, classifies them up to rank 12).  That search runs onto
  the form whose largest diagonal entry is smaller in absolute value and
  inverts its witness when that form is A.  It is left out at k = 1 under
  ``accept``, where the column search below covers it with pruning.

The built witness is yielded first when every column passes ``accept``,
and the column search follows unchanged, so the step can only add a
verified Yes, never change a No.  Under ``accept`` at k = m^2 the row
"C_B, k = m^2" of the table pre-empts the others, so the block built
without it (diag(k, 1) on each plane between even pairings) is offered
next.

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

from math import gcd, isqrt, lcm
from operator import mul
from typing import Iterator, NamedTuple, Sequence

from . import intform
from .canonical import block_witness, canonical_basis, canonical_matrix, canonical_shape
from .canonical import level_candidates
from .errors import CapExceeded, ShapeMismatch, SymmetryMismatch, WitnessRejected, ZeroK
from .intform import (
    ANTISYMMETRIC,
    NOT_COMPUTED,
    PARITY_EVEN,
    SYMMETRIC,
    IntersectionForm,
    IntMatrix,
    Record,
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


class SearchConfig(Record):
    """Budgets for the backtracking search."""

    __slots__ = _fields = ("radius", "node_budget")

    def __init__(self, radius: int = 8, node_budget: int = 10_000_000):
        if radius <= 0 or node_budget <= 0:
            raise ShapeMismatch("search budgets must be positive")
        self.radius, self.node_budget = radius, node_budget


DEFAULT_CONFIG = SearchConfig()


class Verdict(NamedTuple):
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
    """All integer x with Q(x) == value for a definite Q of either sign, in
    centered-lexicographic order: x_0 first, each coordinate ranked
    0, 1, -1, 2, -2, ...

    ``tri`` is Q's ``symmetric_elimination``, so that
    Q(x) = sum_i (p_i x_i + s_i)^2 / (p_{i-1} p_i), each p_{i-1} p_i of the
    sign of p_0.  A negative Q is taken as -Q at -value: Bareiss on -Q
    scales row i by (-1)^(i+1), the sign of p_i, so that is ``tri`` with
    its rows of negative pivot negated.  Scaled by the lcm of
    those denominators every term has an integer weight, and each
    coordinate but x_0 is confined to the exact interval that an integer
    square root of the remaining budget allows.  x_0 must use up the rest
    r exactly, w_0 (p_0 x_0 + s_0)^2 == r, so it is one of the at most two
    roots (+-sqrt(r / w_0) - s_0) / p_0: complete by construction.  The
    walk takes one of x and -x: while ``lead`` holds, every coordinate
    above level i is 0, and x_i starts at 0 (x_0 takes the root +y only);
    the negations of the nonzero vectors are appended after it.  The
    order comes from one sort, keyed by a rank lookup built for the values
    the coordinates take.
    """
    m = len(tri)
    if m == 0:
        return [()] if value == 0 else []
    pivots = [tri[i][i] for i in range(m)]
    sign = 1 if pivots[0] > 0 else -1
    if any(p * q * sign <= 0 for p, q in zip([1] + pivots, pivots)):
        raise ShapeMismatch("matrix is not definite")
    if sign < 0:
        tri = [row if p > 0 else [-x for x in row] for row, p in zip(tri, pivots)]
        pivots, value = list(map(abs, pivots)), -value
    if value < 0:
        return []
    denominators = [p * q for p, q in zip([1] + pivots, pivots)]
    scale = lcm(*denominators)
    weights = [scale // den for den in denominators]
    tails = [tri[i][i + 1 :] for i in range(m)]
    out = []
    x = [0] * m

    def rec(i: int, rem: int, lead: bool):
        if i == 0:
            # rem == w_0 * (p_0 * x_0 + s)^2 in closed form
            q, r = divmod(rem, weights[0])
            y = isqrt(q)
            if r or y * y != q:
                return
            s = sum(map(mul, tails[0], x[1:]))
            for root in (y,) if lead else (y - s, -y - s) if y else (-s,):
                x0, r = divmod(root, pivots[0])
                if not r:
                    x[0] = x0
                    out.append(tuple(x))
            return
        p, w = pivots[i], weights[i]
        s = sum(map(mul, tails[i], x[i + 1 :]))
        # integer x_i with w * (p * x_i + s)^2 <= rem
        ymax = isqrt(rem // w)
        for xi in range(0 if lead else -((ymax + s) // p), (ymax - s) // p + 1):
            y = p * xi + s
            x[i] = xi
            rec(i - 1, rem - w * y * y, lead and not xi)

    rec(m - 1, scale * value, True)
    del rec  # see _backtrack
    out += [tuple(-v for v in vec) for vec in out if any(vec)]
    if out:
        lo, hi = min(map(min, out)), max(map(max, out))
        # 0, 1, -1, 2, -2, ... -> 0, 1, 2, 3, 4, ...
        rank = {v: 2 * abs(v) - (v > 0) for v in range(lo, hi + 1)}.__getitem__
        out.sort(key=lambda vec: tuple(map(rank, vec)))
    return out


def _centered_range(lo: int, hi: int) -> Sequence[int]:
    """The integers of [lo, hi] in the order 0, 1, -1, 2, -2, ..."""
    if lo > 0:
        return range(lo, hi + 1)
    if hi < 0:
        return range(hi, lo - 1, -1)
    n = min(hi, -lo)
    out = [0]
    for v in range(1, n + 1):
        out += (v, -v)
    out += range(n + 1, hi + 1) if hi > n else range(-n - 1, lo - 1, -1)
    return out


def _reversed_elimination(f: IntersectionForm) -> tuple:
    """The ``symmetric_elimination`` of f's matrix with its coordinates
    reversed, computed at most once per form object and kept on
    ``f.reversed_tri``."""
    if f.reversed_tri is NOT_COMPUTED:
        rows = [row[::-1] for row in f.matrix.to_rows()[::-1]]
        f.reversed_tri = tuple(map(tuple, intform.symmetric_elimination(rows)))
    return f.reversed_tri


def _forced_levels(lin: Sequence, m: int) -> list | None:
    """The constraints c . x == t of ``lin`` in echelon form, by the levels
    of ``_definite_walk`` (level i is x_(m-1-i)), or None when they have no
    integer solution.

    Each row's pivot is its last nonzero coordinate, distinct from row to
    row, so the walk reaches the pivot after every other coordinate of the
    row: entry i is None or (c', d, t) with d x_(m-1-i) == t - c' . (the
    coordinates before it, walk order).  Rows are combined by integer
    multiples and divided by their content, so the integer solutions stay
    the same; a zero row with t != 0, or a content that does not divide t,
    leaves none.
    """
    rows: dict = {}
    for c, t in lin:
        row = list(c[::-1])
        while True:
            lead = next((i for i, v in enumerate(row) if v), None)
            if lead is None:
                if t:
                    return None
                break
            g = gcd(*row)
            if t % g:
                return None
            if g > 1:
                row, t = [v // g for v in row], t // g
            if lead not in rows:
                rows[lead] = row, t
                break
            other, u = rows[lead]
            g = gcd(row[lead], other[lead])
            a, b = other[lead] // g, row[lead] // g
            row, t = [a * v - b * w for v, w in zip(row, other)], a * t - b * u
    forced: list = [None] * m
    for lead, (row, t) in rows.items():
        forced[lead] = (row[lead + 1 :], row[lead], t)
    return forced


def _definite_walk(
    rtri: Sequence, value: int, lin: Sequence = (), nodes: list | None = None
) -> Iterator[tuple]:
    """The integer x with Q(x) == value for a definite Q of either sign and
    c . x == t for every (c, t) in ``lin``, one at a time, in the
    centered-lexicographic order of ``_definite_solutions``.

    ``rtri`` is the elimination of Q with its coordinates reversed
    (``_reversed_elimination``), so that the Fincke-Pohst walk takes x_0
    outermost and x_(m-1) last, signs handled as in ``_definite_solutions``.
    Each interval is scanned in the order 0, 1, -1, 2, -2, ..., so the
    vectors come out in order with no sort; the last coordinate is solved
    in closed form.  A coordinate that is the pivot of a row of
    ``_forced_levels`` is forced by one exact division instead of scanned,
    and kept when it lies within the norm left over.  ``nodes[0]``, when
    given, counts the partial vectors the walk passes.
    """
    m = len(rtri)
    forced = _forced_levels(lin, m)
    if forced is None:
        return
    if m == 0:
        if value == 0:
            yield ()
        return
    pivots = [rtri[i][i] for i in range(m)]
    if pivots[0] < 0:
        rtri = [row if p > 0 else [-x for x in row] for row, p in zip(rtri, pivots)]
        pivots, value = list(map(abs, pivots)), -value
    if value < 0:
        return
    denominators = [p * q for p, q in zip([1] + pivots, pivots)]
    scale = lcm(*denominators)
    weights = [scale // den for den in denominators]
    tails = [rtri[i][i + 1 :] for i in range(m)]
    y = [0] * m  # y[i] = x_(m-1-i)

    def rec(i: int, rem: int) -> Iterator[tuple]:
        if nodes is not None:
            nodes[0] += 1
        p, w = pivots[i], weights[i]
        above = y[i + 1 :]
        s = sum(map(mul, tails[i], above))
        if forced[i] is not None:
            coeffs, d, t = forced[i]
            xi, r = divmod(t - sum(map(mul, coeffs, above)), d)
            values: Sequence = () if r else (xi,)
        elif i:
            # integer y_i with w * (p * y_i + s)^2 <= rem
            ymax = isqrt(rem // w)
            values = _centered_range(-((ymax + s) // p), (ymax - s) // p)
        else:
            # rem == w_0 * (p_0 * y_0 + s)^2 in closed form, the root of
            # smaller centered rank first
            q, r = divmod(rem, w)
            root = isqrt(q)
            if r or root * root != q:
                return
            roots = (root - s, -root - s) if s >= 0 else (-root - s, root - s)
            values = [v // p for v in roots[: 2 if root else 1] if v % p == 0]
        for xi in values:
            t = p * xi + s
            left = rem - w * t * t
            if left < 0:
                continue
            y[i] = xi
            if i:
                yield from rec(i - 1, left)
            elif not left:
                yield tuple(y[::-1])

    try:
        yield from rec(m - 1, scale * value)
    finally:
        del rec  # see _backtrack


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
    their targets; ``pairing_row(x)`` is the row x.T A.  A source may
    check ``lin`` on each vector or force coordinates by it, as
    ``_definite_candidates`` does; the search is complete exactly when
    every candidate source is.  A candidate failing the optional
    ``accept(col, x)`` is skipped before it is placed.  The yielded list
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
        # it and everything it reaches (candidate memos and walks) alive
        # until the next cyclic collection; breaking it frees them at once
        del rec


def _enumerates_completely(a: IntersectionForm) -> bool:
    """True when the candidate columns for source a are enumerated completely."""
    return a.is_definite() and a.rank <= DEFINITE_CAP


def _column_order(b: IntMatrix) -> list:
    return sorted(range(b.rows), key=lambda j: (-abs(b[j, j]), j))


def _witness_stream(
    a: IntersectionForm, b: IntersectionForm, k: int, cfg: SearchConfig, accept
) -> Iterator[IntMatrix]:
    """Every witness of P.T A P == k B in search order, under one node budget.

    Witnesses built without enumeration come first, each when it exists
    and every column passes ``accept``: m I when A and B have the same
    matrix, tried before ``canonical_basis`` is charged, so no budget stops
    it; then ``_block_witness`` when A has a canonical basis (an indefinite
    or antisymmetric A that ``canonical_basis`` splits, or a definite A
    whose matrix is I(n, 0) or I(0, n)), and ``_scaled_isometry`` when A
    has none or no block fits.  Under ``accept`` at a square k, the block
    built without the row m C_B follows, when it is another matrix, so
    that diag(k, 1) is offered where m I fails.  The column search follows,
    unchanged, and may yield the same witness again; a definite A is
    searched in its own coordinates, so the search stays complete.  At
    k = 1 under ``accept`` the definite isometry search is left out: it
    would be that column search, or its reverse, without the pruning,
    charged to the same budget.
    """

    def passes(p: IntMatrix | None) -> bool:
        return p is not None and (
            accept is None or all(accept(j, p.column(j)) for j in range(b.rank))
        )

    budget = _Budget(cfg.node_budget)
    same = a.matrix == b.matrix
    # between equal matrices _scaled_isometry builds m I and nothing else
    scaled = _scaled_isometry(a, b, k, cfg, budget, False) if same else None
    if passes(scaled):
        yield scaled
    basis = canonical_basis(a, budget)
    built = None if basis is None else _block_witness(a, b, k, budget, basis)
    if built is None and not same:
        built = _scaled_isometry(a, b, k, cfg, budget, k != 1 or accept is None)
    if built != scaled and passes(built):
        yield built
    if accept is not None and basis is not None and _is_perfect_square(abs(k)):
        # the row m C_B pre-empts the others at k = m^2; offer the next block
        other = _block_witness(a, b, k, budget, basis, False)
        if other not in (scaled, built) and passes(other):
            yield other
    yield from _column_search(a, b, k, cfg, budget, None if a.is_definite() else basis, accept)


def _block_witness(
    a: IntersectionForm,
    b: IntersectionForm,
    k: int,
    budget: _Budget,
    basis: IntMatrix,
    squares: bool = True,
) -> IntMatrix | None:
    """U_A P' U_B^-1 with P' from ``canonical.block_witness``, or None.

    ``basis`` is U_A.  U_B is the identity when B's matrix is already
    canonical, as every definite diagonal target is, else B's own
    ``canonical_basis``, charged to ``budget``.  An even B of nonzero
    signature (E8 blocks) has no canonical matrix and gets None at once.
    """
    pos, neg, par = shape = canonical_shape(b)
    if par == PARITY_EVEN and pos != neg:
        return None
    u_b = None
    if b.matrix != canonical_matrix(*shape):
        u_b = canonical_basis(b, budget)
        if u_b is None:
            return None
    p = block_witness(canonical_shape(a), shape, k, squares)
    if p is None:
        return None
    return basis @ p if u_b is None else basis @ p @ u_b.inverse_unimodular()


def _unit_vector_count(f: IntersectionForm) -> int:
    """The number of vectors of norm +-1 of a definite form.

    Listed at most once per form object and kept on ``f.unit_vectors``,
    so ``_prefilter`` and ``_scaled_isometry`` share one enumeration, and
    a later column search of f starts its memo of that norm complete.
    """
    if f.unit_vectors is NOT_COMPUTED:
        f.unit_vectors = _definite_solutions(f.tri, -1 if f.signature[1] else 1)
    return len(f.unit_vectors)


def _unit_vectors_differ(f: IntersectionForm, g: IntersectionForm) -> bool:
    """Whether definite forms of one parity have different numbers of vectors
    of norm +-1; even forms have none, so they are never counted."""
    return f.parity != PARITY_EVEN and _unit_vector_count(f) != _unit_vector_count(g)


def _largest_diagonal(f: IntersectionForm) -> int:
    return max(abs(f.matrix[i, i]) for i in range(f.rank))


def _scaled_isometry(
    a: IntersectionForm,
    b: IntersectionForm,
    k: int,
    cfg: SearchConfig,
    budget: _Budget,
    search: bool = True,
) -> IntMatrix | None:
    """m U for an isometry U.T A U == B, a witness in degree k = m^2, or None.

    U is the identity for equal matrices, else, for definite forms of rank
    at most ``DEFINITE_CAP``, the first witness of the complete k = 1
    search, charged to ``budget`` and run onto the form whose largest
    diagonal entry is smaller in absolute value (from B onto A its witness
    Q gives U = Q^-1).  It runs only when A and B have as many vectors of
    norm +-1: up to rank 12 that count, with rank and parity, tells I_n,
    E8 + I_(n-8) and D12+ apart (Conway-Sloane, SPLAG ch. 16), so it ends
    in an isometry.  Without ``search`` it does not run.
    """
    m = isqrt(k) if k > 0 else 0
    if m * m != k or (a.rank, a.signature, a.parity) != (b.rank, b.signature, b.parity):
        return None
    if a.matrix == b.matrix:
        u = IntMatrix.identity(a.rank)
    elif not search or not _enumerates_completely(a) or _unit_vectors_differ(a, b):
        return None
    elif _largest_diagonal(b) <= _largest_diagonal(a):
        u = next(_column_search(a, b, 1, cfg, budget, None, None), None)
    else:
        q = next(_column_search(b, a, 1, cfg, budget, None, None), None)
        u = None if q is None else q.inverse_unimodular()
    return None if u is None else u.scaled(m)


def _definite_candidates(a: IntersectionForm, target: list, budget: _Budget):
    """``candidates(col, lin)`` of ``_backtrack`` for a definite source a.

    Each value k b_jj keeps a memo of its vectors, filled lazily, in
    order, from the unconstrained ``_definite_walk``; the norm +-1 of a's
    sign starts complete when a keeps its ``unit_vectors``.  A column scans
    the memo, extending it as it goes, and checks every vector against
    ``lin``, one node each.  While the memo is still incomplete, a column
    whose placed columns give at least m / 2 constraints walks instead
    with their pivots forced, one node per vector the walk yields; those
    are the vectors of the scan that meet ``lin``, in the same order, so
    the walk never spends more than the scan.  The walks' own Fincke-Pohst
    nodes are not charged, so before a forced walk starts the memo's walk
    catches up with the nodes the forced walks of that value have passed:
    together they then pass about as many nodes as completing the memo
    once, which ends them, so the uncharged work of a value stays within a
    few walks of its whole norm.
    """
    m = a.rank
    rtri = _reversed_elimination(a)
    unit = -1 if a.signature[1] else 1
    # value -> [vectors so far, the walk that extends them or None,
    #           that walk's nodes, the forced walks' nodes]
    memos: dict = {}

    def pull(memo: list) -> bool:
        vec = next(memo[1], None)
        if vec is None:
            memo[1] = None
            return False
        memo[0].append(vec)
        return True

    def extended(memo: list) -> Iterator[tuple]:
        seen, i = memo[0], 0
        while i < len(seen) or (memo[1] is not None and pull(memo)):
            yield seen[i]
            i += 1

    def candidates(col: int, lin: list) -> Iterator[tuple]:
        value = target[col][col]
        memo = memos.get(value)
        if memo is None:
            if value == unit and a.unit_vectors is not NOT_COMPUTED:
                memo = [a.unit_vectors, None]
            else:
                nodes = [0]
                memo = [[], _definite_walk(rtri, value, (), nodes), nodes, [0]]
            memos[value] = memo
        if memo[1] is not None and 2 * len(lin) >= m:
            while memo[2][0] < memo[3][0] and pull(memo):
                pass
            if memo[1] is not None:
                for cand in _definite_walk(rtri, value, lin, memo[3]):
                    budget.spend()
                    yield cand
                return
        for cand in memo[0] if memo[1] is None else extended(memo):
            budget.spend()
            for crow, t in lin:
                if sum(map(mul, crow, cand)) != t:
                    break
            else:
                yield cand

    return candidates


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

    A definite A takes its candidates from ``_definite_candidates``: a
    memo per value k b_jj, filled lazily by the walk and scanned, or, while
    the memo is incomplete and the placed columns fix at least half of the
    coordinates, a walk with their pivots forced, which the memo catches
    up with before the next one.  ``basis`` is A's
    ``canonical_basis`` (None when A is definite or not covered); with it
    the search runs in canonical coordinates, norm level by norm level for
    a symmetric A and by the box scan for J^g.
    """
    m = a.rank
    arows = [list(a.matrix.row(i)) for i in range(m)]
    target = [[k * x for x in row] for row in b.matrix.to_rows()]

    if _enumerates_completely(a):
        candidates = _definite_candidates(a, target, budget)
    else:
        levels = None
        if basis is not None:
            # search in canonical coordinates x', where the witness is basis @ P'
            pos, neg, par = shape = canonical_shape(a)
            arows = canonical_matrix(*shape).to_rows()
            half_cache: dict = {}

            def halves(dim: int, value: int) -> list:
                if (dim, value) not in half_cache:
                    half_cache[dim, value] = _unit_solutions(dim, value)
                return half_cache[dim, value]

            if par is not None:
                levels = (pos, neg, par == PARITY_EVEN, halves)
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
    different numbers of vectors of norm +-1 get the ThetaFilter No; the
    fixed blocks or ``_scaled_isometry`` build the witness of the rest.
    Definite forms of rank above ``DEFINITE_CAP`` with different matrices
    raise CapExceeded, and only the node budget can leave a definite pair
    Unknown.  Indefinite
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
