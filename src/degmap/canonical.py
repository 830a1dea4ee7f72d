"""Canonical coordinates of indefinite and antisymmetric forms, and of +-I_n as given.

Every odd indefinite unimodular form is isomorphic to I(p, q) =
diag(1, ..., 1, -1, ..., -1), and every even one to H^a + E8(+-1)^b (Serre,
*A Course in Arithmetic*, ch. V; Milnor-Husemoller, ch. II); every
antisymmetric one of rank 2g to J^g, J = [[0, 1], [-1, 0]]
(Milnor-Husemoller, ch. I).  ``canonical_basis`` finds the change of basis
for the odd forms, the even forms of signature 0 and the antisymmetric
forms, from a size-reduced Gram matrix of either symmetry, and recognises
the definite I(n, 0) and I(0, n) when their matrix is already diagonal.
``level_candidates`` enumerates the vectors of a given norm in indefinite
canonical coordinates norm level by norm level, which is how the solver's
box search runs on such a source; ``block_witness`` builds witnesses
between canonical matrices from fixed blocks, without any search.  Blocks
that need a hyperbolic plane also fit an odd I(p, q) with a line to spare:
H + <eps> = I(1, 1) + <eps>, so b planes carved around one spare line give
I(p, q) = H^b + I(p - b, q - b) for p + q > 2b (``_carved_planes``).
E8 blocks are not handled: such forms get no canonical basis.  It imports
no degmap module but ``intform``.

>>> from degmap.intform import make_form
>>> f = make_form(IntMatrix.from_rows([[1, 2], [2, 3]]), SYMMETRIC)
>>> u = canonical_basis(f)
>>> f.matrix.transform_by(u) == canonical_matrix(1, 1, f.parity)
True
"""

from __future__ import annotations

from itertools import islice
from math import gcd, isqrt
from operator import mul
from typing import Callable, Iterator, Sequence

from .intform import (
    HYPERBOLIC,
    NOT_COMPUTED,
    PARITY_EVEN,
    PARITY_ODD,
    SYMMETRIC,
    SYMPLECTIC,
    IntersectionForm,
    IntMatrix,
    block_diagonal,
    dual_vector,
    split_basis,
)

# Columns, in the basis (e, x, y) of <eps> + H with e.e = eps, that carry
# <1, 1, -1> for eps = 1 and <1, -1, -1> for eps = -1.
LINE_PLUS_PLANE = {
    1: IntMatrix.from_columns([(1, 1, 0), (1, 0, -1), (1, 1, -1)]),
    -1: IntMatrix.from_columns([(1, 1, 1), (1, 1, 0), (1, 0, 1)]),
}

# A split tries this many vectors of all coordinates but the last.
_SPLIT_CAP = 5_000

# A size reduction makes at most this many sweeps over the pairs (i, j):
# moves of +-1 shrink a large entry by a bounded step per sweep, so an
# unbounded loop would take time proportional to the entries themselves.
_REDUCE_SWEEPS = 64


def canonical_shape(f: IntersectionForm) -> tuple:
    """(pos, neg, parity), the arguments of f's ``canonical_matrix``: the
    signature and parity of a symmetric form, (g, g, None) for an
    antisymmetric one of rank 2g."""
    if f.symmetry == SYMMETRIC:
        return (*f.signature[:2], f.parity)
    return (f.rank // 2, f.rank // 2, None)


def canonical_matrix(pos: int, neg: int, par: str | None) -> IntMatrix:
    """I(pos, neg) = diag(1, ..., 1, -1, ..., -1) for an odd form, H^pos for
    an even one and J^pos for an antisymmetric one, parity None (both need
    pos == neg)."""
    if par == PARITY_ODD:
        return IntMatrix.diagonal([1] * pos + [-1] * neg)
    return block_diagonal(*[HYPERBOLIC if par == PARITY_EVEN else SYMPLECTIC] * pos)


def canonical_basis(f: IntersectionForm, budget=None) -> IntMatrix | None:
    """Unimodular U with U.T A U == ``canonical_matrix`` of f, or None.

    Covered are the indefinite symmetric forms that are odd, whose canonical
    matrix is I(p, q), the even ones of signature 0, with canonical matrix
    H^a (Serre, *A Course in Arithmetic*, ch. V; Milnor-Husemoller, ch. II),
    and the antisymmetric ones, with canonical matrix J^g (Milnor-Husemoller,
    ch. I).  A canonical input gets the identity after an O(n^2) check;
    this one check also covers the definite I(n, 0) and I(0, n), and every
    other definite form gets None, as definite forms are not split.
    Otherwise the form is split: the Gram matrix of each unsplit part, of
    either symmetry, is size-reduced (``_size_reduce``), then, while the
    part is odd, a line of norm +-1 is split off (of a sign that leaves the
    part indefinite), else a hyperbolic plane spanned by an isotropic vector
    and a partner; each complement comes from ``split_basis``.  Every plane
    is then merged with a line by ``LINE_PLUS_PLANE``.  An antisymmetric
    split takes e_1 of the reduced part and its partner, a plane J, and
    tries no vector; the reduction keeps U small.  None for even forms of
    nonzero signature (E8 blocks), for an even part of nonzero signature
    left over from an odd form, and when a split finds no vector within
    ``_SPLIT_CAP`` tries, which happens for some heavily scrambled forms
    close to definite, such as I(1, q) with q >= 8.

    Computed once per form object and kept on ``f.canonical``; while it is
    computed, ``budget.spend()`` (when a budget is given) is charged once
    per vector a split tries, so a search that runs out of budget there
    leaves the form uncached.
    """
    if f.canonical is NOT_COMPUTED:
        f.canonical = _canonical_basis(f, budget)
    return f.canonical


def _canonical_basis(f: IntersectionForm, budget) -> IntMatrix | None:
    if not f.rank:
        return None
    pos, neg, par = canonical_shape(f)
    if par == PARITY_EVEN and pos != neg:
        return None
    target = canonical_matrix(pos, neg, par)
    if f.matrix == target:
        return IntMatrix.identity(f.rank)
    if f.is_definite():
        return None
    lines = []  # (column in f's coordinates, its norm)
    planes = []  # (x, y) with x.x = y.y = 0 and x.y = 1
    # columns spanning the unsplit part, in f's coordinates, and their Gram matrix
    basis = IntMatrix.identity(f.rank).to_rows()
    gram = f.matrix.to_rows()
    while gram:
        _size_reduce(gram, basis)
        if any(row[i] % 2 for i, row in enumerate(gram)):
            # either sign while both signs keep two directions, so that
            # the part left over stays indefinite
            signs = [e for e, left in ((1, pos), (-1, neg)) if left > 1] or [1 if neg == 0 else -1]
            found = _short_vector(gram, signs, budget)
            if found is None:
                return None
            v, eps = found
            cols = [v]
            pos, neg = (pos - 1, neg) if eps == 1 else (pos, neg - 1)
        else:
            if pos != neg:
                return None
            # every vector of an antisymmetric form is isotropic
            found = _short_vector(gram, [0], budget) if par else [_unit(len(gram), (0, 1))]
            if found is None:
                return None
            v = found[0]
            cols = [v, _hyperbolic_partner(gram, v)]
            pos, neg = pos - 1, neg - 1
        s = split_basis(IntMatrix.from_rows(gram), IntMatrix.from_columns(cols))
        n = len(cols)
        split = [_combine(basis, s.column(j)) for j in range(n)]
        if n == 1:
            lines.append((split[0], eps))
        else:
            planes.append(tuple(split))
        rest = [s.column(j) for j in range(n, s.cols)]
        basis = [_combine(basis, c) for c in rest]
        products = [_combine(gram, c) for c in rest]  # c.T @ gram
        gram = [[sum(map(mul, gc, c)) for c in rest] for gc in products]
    if lines:
        for x, y in planes:
            e, eps = lines.pop()
            merged = IntMatrix.from_columns([e, x, y]) @ LINE_PLUS_PLANE[eps]
            lines += [(merged.column(j), d) for j, d in enumerate((1, eps, -1))]
        cols = [v for v, d in lines if d == 1] + [v for v, d in lines if d == -1]
    else:
        cols = [c for plane in planes for c in plane]
    u = IntMatrix.from_columns(cols, f.rank)
    assert f.matrix.transform_by(u) == target, "canonical splitting failed"
    return u


def _quadratic(rows: list, x: Sequence[int]) -> int:
    return sum(xi * sum(a * y for a, y in zip(row, x)) for xi, row in zip(x, rows) if xi)


def _combine(vectors: list, coefficients: Sequence[int]) -> list:
    """sum_k coefficients[k] * vectors[k]."""
    out = [0] * len(vectors[0])
    for c, vec in zip(coefficients, vectors):
        if c:
            out = [o + c * x for o, x in zip(out, vec)]
    return out


def _size_reduce(g: list, basis: list) -> None:
    """Size-reduce, in place, the Gram matrix g of the vectors ``basis``, of
    either symmetry: moves e_i += +-e_j, applied to both (row and column i
    of g gain c times row and column j), each taken while it lowers the sum
    of the squared entries of g.

    A scrambled basis has large entries that the moves undo, which leaves
    a Gram matrix whose splitting vectors are short in every coordinate.
    It stops when a sweep over all pairs makes no move, or after
    ``_REDUCE_SWEEPS`` sweeps.
    """
    n = len(g)
    for _ in range(_REDUCE_SWEEPS):
        moved = False
        for i in range(n):
            gi = g[i]
            for j in range(n):
                if i == j:
                    continue
                gj = g[j]
                for c in (1, -1):
                    diag = gi[i] + c * (gi[j] + gj[i]) + gj[j]
                    gain = gi[i] * gi[i] - diag * diag
                    for s in range(n):
                        if s != i:
                            new = gi[s] + c * gj[s]
                            gain += 2 * (gi[s] * gi[s] - new * new)
                    if gain <= 0:
                        continue
                    for s in range(n):
                        if s != i:
                            gi[s] += c * gj[s]
                            g[s][i] += c * g[s][j]
                    gi[i] = diag
                    basis[i] = [x + c * y for x, y in zip(basis[i], basis[j])]
                    moved = True
                    break
        if not moved:
            break


def _short_vector(rows: list, values: list, budget) -> tuple | None:
    """(x, value) for a primitive x != 0 with x.T Q x == value, the first
    such x for any of the values, or None.

    The first n - 1 coordinates run through ``_SPLIT_CAP`` choices by
    ``_by_l1_norm``, which favours no coordinate, and for each the last
    coordinate solves a x_n^2 + 2 b x_n + c == value exactly, with
    a = Q[n-1][n-1], b = sum_i Q[i][n-1] x_i and c the form on the first
    n - 1 coordinates.  ``budget.spend()`` is charged per choice.
    """
    n = len(rows)
    head = [row[: n - 1] for row in rows[: n - 1]]
    for x in islice(_by_l1_norm(n - 1), _SPLIT_CAP):
        if budget is not None:
            budget.spend()
        b = sum(xi * row[-1] for xi, row in zip(x, rows))
        c = _quadratic(head, x)
        for value in values:
            for last in _integer_roots(rows[-1][-1], 2 * b, c - value):
                if last or any(x):
                    g = gcd(*x, last)  # 1 unless value == 0
                    return [xi // g for xi in x + (last,)], value
    return None


def _by_l1_norm(m: int) -> Iterator[tuple]:
    """Every vector of Z^m once, by l1-norm 0, 1, 2, ..."""
    yield (0,) * m
    d = 0
    while m:
        d += 1
        yield from _l1_sphere(m, d)


def _l1_sphere(m: int, d: int) -> Iterator[tuple]:
    """The vectors of Z^m with l1-norm d."""
    if m == 1:
        yield from ((d,), (-d,)) if d else ((0,),)
        return
    for first in range(-d, d + 1):
        for rest in _l1_sphere(m - 1, d - abs(first)):
            yield (first, *rest)


def _integer_roots(a: int, b: int, c: int) -> list:
    """The integer t with a t^2 + b t + c == 0; just 0 when every t is one."""
    if a == 0:
        if b == 0:
            return [] if c else [0]
        return [] if c % b else [-c // b]
    disc = b * b - 4 * a * c
    if disc < 0:
        return []
    root = isqrt(disc)
    if root * root != disc:
        return []
    return [t // (2 * a) for t in (-b + root, -b - root) if t % (2 * a) == 0]


def _hyperbolic_partner(rows: list, v: list) -> list:
    """y with y.T Q y == 0 and v.T Q y == 1, for a primitive isotropic v of
    the unimodular Q, even symmetric or antisymmetric: the row v.T Q is
    primitive, so its ``dual_vector`` w solves v.T Q w == 1, and
    w - (w.w / 2) v is isotropic; w.w is 0 for an antisymmetric Q."""
    m = len(rows)
    w = dual_vector([sum(v[s] * rows[s][t] for s in range(m)) for t in range(m)])
    c = _quadratic(rows, w) // 2
    return [wi - c * vi for wi, vi in zip(w, v)]


# ---------------------------------------------------------------------------
# Vectors of a given norm, level by level
# ---------------------------------------------------------------------------


def level_candidates(
    pos: int,
    neg: int,
    hyperbolic: bool,
    radius: int,
    quad_target: int,
    lin: list,
    budget,
    halves: Callable[[int, int], list],
) -> Iterator[tuple]:
    """Vectors x with max-norm <= radius, Q(x) == quad_target and c . x == t
    for every (c, t) in lin, for Q = I(pos, neg) or, when ``hyperbolic``,
    Q = H^pos, taken norm level by norm level.

    For I(p, q), x = (u, w) and Q(x) = |u|^2 - |w|^2, so level s pairs the
    u with |u|^2 = t + s and the w with |w|^2 = s, for s = 0, 1, ...,
    q * radius^2; ``halves(dim, value)`` lists the x in Z^dim with
    |x|^2 == value (the solver passes its definite enumeration).  For H^a,
    with x = (x_1, y_1, ...), u_i = x_i + y_i and w_i = x_i - y_i give
    Q(x) = (|u|^2 - |w|^2) / 2, so the halves solve |u|^2 = 2t + s and
    |w|^2 = s for s up to a * (2 radius)^2, and pair only when u_i and w_i
    agree mod 2.  Every vector is filtered to max-norm <= radius, so the
    union over the levels is exactly the solution set of the solver's box
    scan on the same box; ``solver._box_candidates`` runs this enumeration
    in place of its scan when Q has one of these two shapes.

    A linear constraint splits as c_u . u + c_w . w == t (for H^a, with
    c_u = c_x + c_y, c_w = c_x - c_y and 2t), so at each level the w are
    bucketed by their side of every constraint and each u looks up its
    partners.  ``budget.spend()`` is charged one unit per w bucketed, per u
    looked up and per pair found.
    """
    for c, t in lin:
        g = gcd(*c)
        if t % g if g else t:  # c . x == t has no integer solution
            return
    if hyperbolic:
        value, bound = 2 * quad_target, 2 * radius
        ucoef = [[c[i] + c[i + 1] for i in range(0, 2 * pos, 2)] for c, _ in lin]
        wcoef = [[c[i] - c[i + 1] for i in range(0, 2 * pos, 2)] for c, _ in lin]
        rhs = [2 * t for _, t in lin]
    else:
        value, bound = quad_target, radius
        ucoef = [c[:pos] for c, _ in lin]
        wcoef = [c[pos:] for c, _ in lin]
        rhs = [t for _, t in lin]
    zeros = [0] * len(lin)

    def key(vec: tuple, coef: list, base: list, sign: int):
        # the constraint sides base + sign * coef . vec and, for H^a, the
        # parity bits of vec, packed into one int unless two or more
        # constraints need a tuple: few short-lived tuples, since freed
        # tuples linger on the interpreter's free lists
        mask = sum((v & 1) << i for i, v in enumerate(vec)) if hyperbolic else 0
        sides = [b + sign * sum(c * v for c, v in zip(row, vec)) for row, b in zip(coef, base)]
        if len(sides) > 1:
            return (*sides, mask)
        return sides[0] << pos | mask if sides else mask

    top = bound * bound
    for s in range(max(0, -value), neg * top + 1):
        if value + s > pos * top:
            return
        us = _within(halves(pos, value + s), bound)
        ws = _within(halves(neg, s), bound) if us else ()
        if not ws:
            continue
        budget.spend(len(ws))
        buckets: dict = {}
        for w in ws:
            buckets.setdefault(key(w, wcoef, zeros, 1), []).append(w)
        for u in us:
            budget.spend()
            for w in buckets.get(key(u, ucoef, rhs, -1), ()):
                budget.spend()
                if not hyperbolic:
                    yield u + w
                    continue
                x = tuple(c for a, b in zip(u, w) for c in ((a + b) // 2, (a - b) // 2))
                if max(map(abs, x)) <= radius:
                    yield x


def _within(vectors: list, bound: int) -> list:
    return [x for x in vectors if max(map(abs, x)) <= bound]


# ---------------------------------------------------------------------------
# Witnesses from fixed blocks
# ---------------------------------------------------------------------------

# Largest degree whose sums of two and four squares are searched for; a
# larger degree keeps only the blocks that need no search.
_SQUARES_CAP = 1 << 20


def block_witness(a: tuple, b: tuple, k: int, squares: bool = True) -> IntMatrix | None:
    """P' with P'.T C_A P' == k C_B, or None, for the ``canonical_matrix``
    C_A of a = (pos, neg, parity) and C_B of b, built from fixed blocks
    placed greedily into disjoint rows of C_A (Serre, *A Course in
    Arithmetic*, ch. V).  Parity None, J^pos, takes the blocks of even
    parity, which hold for J as for H:

    * C_B embeds into C_A coordinate by coordinate, times m, when k = m^2
      and the parities agree;
    * kH in H, and kJ in J, by diag(k, 1);
    * kH in I(1, 1) for even k, by the columns (1, 1) and (k/2, -k/2);
    * k I(1, 1) and k<+-1> in H for even k, by (1, k/2) and (1, -k/2);
    * k I(1, 1) in I(1, 1) for odd k or 4 | k, by the columns (x, y) and
      (y, x) with x^2 - y^2 = k, and k<+-1> by one of them;
    * k I_l in I_n on the lines of one sign, by m e for k = m^2, else by
      2 x 2 blocks [[x, -y], [y, x]] for k = x^2 + y^2, else by the 4 x 4
      blocks of a Lagrange quaternion (the last two for k up to
      ``_SQUARES_CAP``);
    * negative k by the sign swap of B: (-k)(-C_B), where -C_B is a
      canonical matrix in permuted coordinates (by diag(1, -1) per plane
      for H and J);
    * on planes carved from an odd I(p, q), P' = M_b P'' with M_b.T
      I(p, q) M_b = H^b + I(p - b, q - b) from ``_carved_planes``, when
      p + q > 2b and the blocks above leave a query open: kH^c for odd k
      by diag(k, 1) on c carved planes; and, for even k, the lines of an
      odd B on b = 1, 2, ... planes, a pair of opposite sign per plane by
      (1, k/2) and (1, -k/2) or a single line by (1, +-k/2), with the
      rest of B on I(p - b, q - b) as above (``_carved_odd``).

    None when no placement fits; an indefinite C_A may still carry k C_B.
    Without ``squares`` the first row is left out, so that at k = m^2 the
    block the next row builds (diag(k, 1) on each plane between even
    pairings) can be offered when m C_B is not wanted.

    >>> block_witness((1, 1, "even"), (1, 1, "even"), 11).to_rows()
    [[11, 0], [0, 1]]
    """
    pos_a, neg_a, par_a = a
    pos_b, neg_b, par_b = b
    even_a, even_b = par_a != PARITY_ODD, par_b != PARITY_ODD
    if (even_a and pos_a != neg_a) or (even_b and pos_b != neg_b):
        return None
    if k < 0:
        p = block_witness(a, (neg_b, pos_b, par_b), -k, squares)
        return None if p is None else p @ _sign_swap(pos_b, neg_b, even_b)
    n = pos_a + neg_a
    m = isqrt(k)
    if squares and m * m == k and even_a == even_b:
        if pos_b > pos_a or neg_b > neg_a:
            return None
        # the planes in order, or the lines of each sign in order
        rows = range(2 * pos_b) if even_a else [*range(pos_b), *range(pos_a, pos_a + neg_b)]
        cols = [_unit(n, (i, m)) for i in rows]
    elif even_a and even_b:
        if pos_b > pos_a:
            return None
        cols = [_unit(n, (i, k if i % 2 == 0 else 1)) for i in range(2 * pos_b)]
    elif even_a:
        # a line of either sign of B on its own plane of A, shared by the
        # positive and the negative line of the same index
        if k % 2 or max(pos_b, neg_b) > pos_a:
            return None
        h = k // 2
        cols = [_unit(n, (2 * i, 1), (2 * i + 1, h)) for i in range(pos_b)]
        cols += [_unit(n, (2 * i, 1), (2 * i + 1, -h)) for i in range(neg_b)]
    elif even_b:
        if pos_b > min(pos_a, neg_a):
            return None
        if k % 2:
            # kH on each of pos_b carved planes, by diag(k, 1)
            if n <= 2 * pos_b:
                return None
            cols = [_unit(n, (i, k if i % 2 == 0 else 1)) for i in range(2 * pos_b)]
            return _carved_planes(pos_a, neg_a, pos_b) @ IntMatrix.from_columns(cols, n)
        h = k // 2
        cols = []
        for i in range(pos_b):
            cols += [_unit(n, (i, 1), (pos_a + i, 1)), _unit(n, (i, h), (pos_a + i, -h))]
    else:
        cols = _odd_columns(pos_a, neg_a, pos_b, neg_b, k)
        if cols is None:
            return None if k % 2 else _carved_odd(pos_a, neg_a, pos_b, neg_b, k)
    return IntMatrix.from_columns(cols, n)


def _unit(n: int, *entries: tuple) -> list:
    """The vector of length n with the given (index, value) entries."""
    col = [0] * n
    for i, v in entries:
        col[i] = v
    return col


def _sign_swap(pos: int, neg: int, even: bool) -> IntMatrix:
    """S with S.T C S == -canonical_matrix(pos, neg), C = canonical_matrix(neg, pos)."""
    if even:
        return IntMatrix.diagonal([1, -1] * pos)
    order = list(range(neg, neg + pos)) + list(range(neg))
    return IntMatrix.from_columns([_unit(pos + neg, (i, 1)) for i in order], pos + neg)


def _carved_planes(pos: int, neg: int, b: int) -> IntMatrix:
    """M with M.T I(pos, neg) M == H^b + I(pos - b, neg - b), for
    b <= min(pos, neg) and pos + neg > 2b.

    The planes share one spare line z of I(pos, neg) that no plane uses,
    the last negative line when there is one to spare, else the last
    positive one: plane i takes x_i = e_i + f_i and y_i = e_i + z for a
    negative z, y_i = -f_i - z for a positive one, and z then becomes
    e_i + f_i + z, of the same norm and orthogonal to the plane, as in
    H + <eps> = I(1, 1) + <eps> (``LINE_PLUS_PLANE``).  The columns of
    I(pos - b, neg - b) follow: the lines no plane takes, z in the place
    of its own line.
    """
    n = pos + neg
    sign = -1 if neg > b else 1  # z.z
    spare = n - 1 if sign < 0 else pos - 1
    z = _unit(n, (spare, 1))
    cols = []
    for i in range(b):
        x = _unit(n, (i, 1), (pos + i, 1))
        y = _unit(n, (i, 1)) if sign < 0 else _unit(n, (pos + i, -1))
        cols += [x, [a - sign * c for a, c in zip(y, z)]]
        z = [a + c for a, c in zip(x, z)]
    rest = [_unit(n, (i, 1)) if i != spare else z for i in (*range(b, pos), *range(pos + b, n))]
    return IntMatrix.from_columns(cols + rest, n)


def _carved_odd(pos_a: int, neg_a: int, pos_b: int, neg_b: int, k: int) -> IntMatrix | None:
    """P' for k I(pos_b, neg_b) in I(pos_a, neg_a), k even, on b carved
    planes, b = 1, 2, ...: as many pairs of lines of B of opposite sign as
    fit, one pair per plane by (1, k/2) and (1, -k/2), single lines of
    the sign left over on the remaining planes by (1, +-k/2), and the rest
    of B by ``_odd_columns`` on I(pos_a - b, neg_a - b).  None when no b
    fits."""
    n = pos_a + neg_a
    h = k // 2
    for b in range(1, min(pos_a, neg_a, (n - 1) // 2) + 1):
        pairs = min(b, pos_b, neg_b)
        singles = b - pairs
        sp, sn = (singles, 0) if pos_b > pairs else (0, singles)
        lp, ln = pos_b - pairs - sp, neg_b - pairs - sn
        if lp < 0 or ln < 0:
            # more planes than B has lines to put on them, and so for every larger b
            return None
        rest = _odd_columns(pos_a - b, neg_a - b, lp, ln, k)
        if rest is None:
            continue
        pad = [0] * (2 * b)
        # the positive lines on planes 0, ..., pairs + sp - 1, the negative
        # ones on the other planes and on the first pairs
        cols = [_unit(n, (2 * i, 1), (2 * i + 1, h)) for i in range(pairs + sp)]
        cols += [pad + c for c in rest[:lp]]
        negative_planes = (*range(pairs), *range(pairs + sp, b))
        cols += [_unit(n, (2 * i, 1), (2 * i + 1, -h)) for i in negative_planes]
        cols += [pad + c for c in rest[lp:]]
        return _carved_planes(pos_a, neg_a, b) @ IntMatrix.from_columns(cols, n)
    return None


def _odd_columns(pos_a: int, neg_a: int, pos_b: int, neg_b: int, k: int) -> list | None:
    """Columns of P' for k I(pos_b, neg_b) in I(pos_a, neg_a), k > 0.

    c pairs of lines of B of opposite sign take a line of each sign of A
    by the mixed block, t_p further positive and t_n further negative lines
    of B take one each, and the rest go to definite blocks on the lines of
    A left over on their own side.  The few plans tried cover every
    residue of the definite block size.
    """
    block = _definite_block(k)
    size = len(block) if block else 0
    mixed = _unit_difference(k)

    def rows_for(count: int) -> int:
        if not count:
            return 0
        return size * -(-count // size) if size else pos_a + neg_a + 1

    top = min(pos_b, neg_b) if mixed else 0
    for c in dict.fromkeys([0, *range(max(0, top - 3), top + 1)]):
        singles_p = dict.fromkeys([*range(4), pos_b - c]) if mixed else [0]
        singles_n = dict.fromkeys([*range(4), neg_b - c]) if mixed else [0]
        for tp in singles_p:
            for tn in singles_n:
                used = c + tp + tn
                lp, ln = pos_b - c - tp, neg_b - c - tn
                if lp < 0 or ln < 0 or rows_for(lp) > pos_a - used or rows_for(ln) > neg_a - used:
                    continue
                x, y = mixed or (0, 0)
                n = pos_a + neg_a
                pos_cols = [_unit(n, (i, x), (pos_a + i, y)) for i in range(c + tp)]
                neg_cols = [_unit(n, (i, y), (pos_a + i, x)) for i in range(c)]
                neg_cols += [_unit(n, (i, y), (pos_a + i, x)) for i in range(c + tp, used)]
                pos_cols += _definite_columns(block, range(used, pos_a), lp, n)
                neg_cols += _definite_columns(block, range(pos_a + used, n), ln, n)
                return pos_cols + neg_cols
    return None


def _definite_columns(block, rows: Sequence[int], count: int, n: int) -> list:
    """count columns of norm k on the given rows, from copies of ``block``."""
    size = len(block or ())
    return [
        _unit(n, *((rows[j - j % size + r], block[r][j % size]) for r in range(size)))
        for j in range(count)
    ]


def _unit_difference(k: int) -> tuple | None:
    """(x, y) with x^2 - y^2 == k, for odd k or 4 | k; None for k = 2 mod 4."""
    if k % 2:
        return (k + 1) // 2, (k - 1) // 2
    if k % 4 == 0:
        return k // 4 + 1, k // 4 - 1
    return None


def _definite_block(k: int) -> list | None:
    """Rows of a square block whose columns are orthogonal of norm k: [[m]],
    [[x, -y], [y, x]] or a Lagrange quaternion block, the smallest there is."""
    m = isqrt(k)
    if m * m == k:
        return [[m]]
    if k > _SQUARES_CAP:
        return None
    two = _squares(k, 2)
    if two is not None:
        x, y = two
        return [[x, -y], [y, x]]
    a, b, c, d = _squares(k, 4)
    return [[a, -b, -c, -d], [b, a, -d, c], [c, d, a, -b], [d, -c, b, a]]


def _squares(k: int, count: int) -> tuple | None:
    """count squares summing to k >= 0, largest first, or None."""
    if count == 1:
        r = isqrt(k)
        return (r,) if r * r == k else None
    for x in range(isqrt(k), isqrt(k // count) - 1, -1):
        rest = _squares(k - x * x, count - 1)
        if rest is not None:
            return (x, *rest)
    return None
