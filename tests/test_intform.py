import itertools
import random
import time

import pytest

from degmap.canonical import canonical_basis, canonical_matrix
from degmap.errors import (
    AntisymmetricInput,
    NotSquare,
    NotUnimodular,
    ShapeMismatch,
    SymmetryMismatch,
)
from degmap.homotopy import PiElement, pi_model
from degmap.intform import (
    ANTISYMMETRIC,
    SYMMETRIC,
    IntersectionForm,
    IntMatrix,
    block_diagonal,
    direct_sum,
    dual_vector,
    empty_form,
    format_matrix_text,
    hstack,
    infer_symmetry,
    integer_kernel,
    make_form,
    matrix_from_doc,
    matrix_to_doc,
    parity,
    parse_matrix_text,
    signature,
    split_basis,
    symmetric_elimination,
    transform_form,
)
from degmap import solver
from degmap.solver import SearchConfig, Verdict, isomorphic

from conftest import E8_CARTAN, random_antisymmetric_form, random_symmetric_form, random_unimodular

HYPER = IntMatrix.from_rows([[0, 1], [1, 0]])


def hyper_form(copies=1):
    m = IntMatrix.zeros(0, 0)
    for _ in range(copies):
        m = block_diagonal(m, HYPER)
    return make_form(m, SYMMETRIC)


# ---------------------------------------------------------------------------
# IntMatrix basics
# ---------------------------------------------------------------------------


def test_matmul_transpose_det():
    a = IntMatrix.from_rows([[1, 2], [3, 4]])
    b = IntMatrix.from_rows([[0, 1], [1, 0]])
    assert (a @ b).to_rows() == [[2, 1], [4, 3]]
    assert a.transpose().to_rows() == [[1, 3], [2, 4]]
    assert a.det() == -2
    assert IntMatrix.identity(3).det() == 1
    assert IntMatrix.zeros(0, 0).det() == 1


def test_products_transpose_and_symmetry_match_naive_loops(rng):
    # every shape up to 3 x 3, the empty ones (0 x n, n x 0) included
    for rows, inner, cols in itertools.product(range(4), repeat=3):
        a = IntMatrix(rows, inner, [rng.randrange(-5, 6) for _ in range(rows * inner)])
        b = IntMatrix(inner, cols, [rng.randrange(-5, 6) for _ in range(inner * cols)])
        prod = [[sum(a[i, t] * b[t, j] for t in range(inner)) for j in range(cols)]
                for i in range(rows)]
        assert a @ b == IntMatrix(rows, cols, [x for row in prod for x in row])
        assert a.transpose().shape == (inner, rows)
        assert a.transpose().entries() == tuple(a[i, j] for j in range(inner) for i in range(rows))
        assert (-a).entries() == tuple(-x for x in a.entries())
        assert a.scaled(3).entries() == tuple(3 * x for x in a.entries())
    for n in range(4):
        for _ in range(20):
            m = IntMatrix(n, n, [rng.randrange(-2, 3) for _ in range(n * n)])
            sums = [IntMatrix(n, n, [m[i, j] + sign * m[j, i] for i in range(n) for j in range(n)])
                    for sign in (1, -1)]
            for c in [m] + sums:
                sym = all(c[i, j] == c[j, i] for i in range(n) for j in range(n))
                anti = all(c[i, j] == -c[j, i] for i in range(n) for j in range(n))
                assert c.is_symmetric() == sym and c.is_antisymmetric() == anti
    assert not IntMatrix.zeros(2, 3).is_symmetric() and not IntMatrix.zeros(3, 2).is_antisymmetric()
    assert IntMatrix.zeros(0, 0).is_symmetric() and IntMatrix.zeros(0, 0).is_antisymmetric()


def test_public_constructors_check_their_shapes():
    for make in (
        lambda: IntMatrix(2, 2, [1, 2, 3]),
        lambda: IntMatrix(-1, 0, []),
        lambda: IntMatrix.from_rows([[1, 2], [3]]),
        lambda: parse_matrix_text("2 2\n1 2\n3\n"),
        lambda: IntMatrix.identity(2) @ IntMatrix.zeros(3, 1),
    ):
        with pytest.raises(ShapeMismatch):
            make()


def test_det_matches_expansion_on_random(rng):
    # independent cross-check of Bareiss against cofactor expansion
    def cofactor_det(rows):
        n = len(rows)
        if n == 0:
            return 1
        if n == 1:
            return rows[0][0]
        total = 0
        for j in range(n):
            minor = [r[:j] + r[j + 1 :] for r in rows[1:]]
            total += (-1) ** j * rows[0][j] * cofactor_det(minor)
        return total

    for _ in range(60):
        n = rng.randrange(1, 5)
        rows = [[rng.randrange(-4, 5) for _ in range(n)] for _ in range(n)]
        assert IntMatrix.from_rows(rows).det() == cofactor_det(rows)


def test_inverse_unimodular(rng):
    for n in range(9):
        for _ in range(4):
            u = random_unimodular(rng, n)
            inv = u.inverse_unimodular()
            assert u @ inv == IntMatrix.identity(n)
            assert inv @ u == IntMatrix.identity(n)
    with pytest.raises(NotUnimodular):
        IntMatrix.diagonal([2]).inverse_unimodular()


def test_big_entries_stay_exact():
    big = 10**30
    m = IntMatrix.from_rows([[1, big], [0, 1]])
    assert m.det() == 1
    assert (m @ m)[0, 1] == 2 * big


# ---------------------------------------------------------------------------
# make_form and invariants
# ---------------------------------------------------------------------------


def test_make_form_identity_rank_one():
    f = make_form(IntMatrix.identity(1), SYMMETRIC)
    assert f.parity == "odd"
    assert f.signature == (1, 0, 0)


def test_make_form_hyperbolic():
    f = make_form(HYPER, SYMMETRIC)
    assert f.parity == "even"
    assert f.signature == (1, 1, 0)


def test_make_form_rejects_non_unimodular():
    with pytest.raises(NotUnimodular):
        make_form(IntMatrix.from_rows([[1, 0], [0, 2]]), SYMMETRIC)


def test_make_form_rejects_non_square():
    with pytest.raises(NotSquare):
        make_form(IntMatrix.zeros(2, 3), SYMMETRIC)


def test_make_form_rejects_symmetry_mismatch():
    with pytest.raises(SymmetryMismatch):
        make_form(IntMatrix.from_rows([[0, 1], [-1, 0]]), SYMMETRIC)
    with pytest.raises(SymmetryMismatch):
        make_form(HYPER, ANTISYMMETRIC)


def test_signature_worked_values():
    assert signature(make_form(IntMatrix.diagonal([1, -1]), SYMMETRIC)) == (1, 1, 0)
    assert signature(make_form(IntMatrix.identity(2), SYMMETRIC)) == (2, 0, 0)
    # three hyperbolic planes: each block diagonalizes to one +1 and one -1
    assert signature(hyper_form(3)) == (3, 3, 0)


def test_signature_rejects_antisymmetric():
    j = make_form(IntMatrix.from_rows([[0, 1], [-1, 0]]), ANTISYMMETRIC)
    with pytest.raises(AntisymmetricInput):
        signature(j)
    with pytest.raises(AntisymmetricInput):
        parity(j)


def test_signature_is_basis_invariant(rng):
    for _ in range(40):
        rank = rng.randrange(1, 4)
        f = random_symmetric_form(rng, rank)
        u = random_unimodular(rng, rank)
        assert transform_form(f, u).signature == f.signature


# [[0, 1], [1, 1]] needs a pivot swap, every H^a the partner-row addition
SWAP_SEED = IntMatrix.from_rows([[0, 1], [1, 1]])
SIGNED_BLOCKS = [
    (IntMatrix.identity(1), 1, 0),
    (IntMatrix.diagonal([-1]), 0, 1),
    (HYPER, 1, 1),
    (SWAP_SEED, 1, 1),
]


def test_symmetric_elimination_pivots_give_det_and_signature(rng):
    cases = [(SWAP_SEED, 1, 1), (hyper_form(3).matrix, 3, 3)]
    for _ in range(40):
        m, pos, neg = IntMatrix.zeros(0, 0), 0, 0
        for _ in range(rng.randrange(1, 5)):
            block, p, n = rng.choice(SIGNED_BLOCKS)
            m, pos, neg = block_diagonal(m, block), pos + p, neg + n
        cases.append((m.transform_by(random_unimodular(rng, m.rows)), pos, neg))
    for m, pos, neg in cases:
        tri = symmetric_elimination(m.to_rows())
        pivots = [1] + [tri[i][i] for i in range(m.rows)]
        changes = sum(1 for p, q in zip(pivots, pivots[1:]) if p * q < 0)
        assert tri[-1][-1] == m.det()
        assert (m.rows - changes, changes) == (pos, neg)


def test_form_keeps_its_pivots_outside_equality(rng):
    for _ in range(30):
        m = random_symmetric_form(rng, rng.randrange(1, 4)).matrix
        m = block_diagonal(m, SWAP_SEED).transform_by(random_unimodular(rng, m.rows + 2))
        f = make_form(m, SYMMETRIC)
        # the elimination of the reversed coordinates, which the definite walk reads
        tri = symmetric_elimination([row[::-1] for row in m.to_rows()[::-1]])
        assert f.pivots == tuple(tri[i][i] for i in range(m.rows))
        assert f.determinant == m.det()
        assert f.tri == tuple(map(tuple, tri))
        other = IntersectionForm(f.matrix, f.symmetry, f.rank, f.signature, f.parity, ())
        assert other == f and hash(other) == hash(f) and repr(other) == repr(f)
        other.canonical, other.unit_vectors = IntMatrix.identity(f.rank), 7
        assert other == f and hash(other) == hash(f) and repr(other) == repr(f)
        assert "pivots" not in repr(f)
        assert other != make_form(f.matrix.scaled(-1), SYMMETRIC)
    assert empty_form().pivots == () and empty_form().determinant == 1
    j = random_antisymmetric_form(rng, 2)
    assert j.pivots is None and j.determinant == j.matrix.det() == 1
    assert repr(make_form(HYPER, SYMMETRIC)) == (
        "IntersectionForm(matrix=IntMatrix.from_rows([[0, 1], [1, 0]]), "
        "symmetry='symmetric', rank=2, signature=(1, 1, 0), parity='even')"
    )


def test_records_keep_their_checks_and_fields():
    for radius, node_budget in ((0, 5), (3, 0), (-1, -1)):
        with pytest.raises(ShapeMismatch):
            SearchConfig(radius=radius, node_budget=node_budget)
    assert SearchConfig() == SearchConfig(8, 10_000_000) != SearchConfig(radius=2)
    assert hash(SearchConfig(radius=2)) == hash(SearchConfig(radius=2, node_budget=10_000_000))
    assert repr(SearchConfig(radius=3)) == "SearchConfig(radius=3, node_budget=10000000)"
    odd, even = pi_model(5, [2]), pi_model(4, [3], [1])
    with pytest.raises(ShapeMismatch):
        PiElement(odd, 1, (0,))  # no nu part when n is odd
    with pytest.raises(ShapeMismatch):
        PiElement(even, 0, (0, 0))  # one residue per torsion order
    assert even.whitehead is even.whitehead
    assert (even.whitehead.nu, even.whitehead.torsion) == (2, (1,))
    assert even == pi_model(4, [3], [1]) and hash(even) == hash(pi_model(4, [3], [1]))
    assert even != pi_model(4, [3], [2]) and "whitehead=" not in repr(even)
    v = Verdict("unknown", reason="r", radius=4, budget_exhausted=True, regime="exact")
    w = v._replace(k=3)
    assert (w.kind, w.reason, w.radius, w.budget_exhausted, w.regime, w.k) == (
        "unknown", "r", 4, True, "exact", 3
    )
    assert v.k is None and w == Verdict(**{**v._asdict(), "k": 3})


def test_parity_worked_values():
    assert parity(make_form(HYPER, SYMMETRIC)) == "even"
    assert parity(make_form(IntMatrix.identity(1), SYMMETRIC)) == "odd"
    assert parity(make_form(IntMatrix.diagonal([1, -1]), SYMMETRIC)) == "odd"


def test_parity_from_diagonal_equals_full_scan(rng):
    # evenness of every self-pairing x.T A x is equivalent to an even diagonal
    for _ in range(30):
        f = random_symmetric_form(rng, rng.randrange(1, 4))
        m = f.matrix
        vecs = [
            [rng.randrange(-3, 4) for _ in range(f.rank)] for _ in range(20)
        ]
        all_even = all(
            sum(v[i] * m[i, j] * v[j] for i in range(f.rank) for j in range(f.rank)) % 2 == 0
            for v in vecs
        )
        if f.parity == "even":
            assert all_even


# ---------------------------------------------------------------------------
# direct sums
# ---------------------------------------------------------------------------


def test_direct_sum_gives_diag_form():
    one = make_form(IntMatrix.identity(1), SYMMETRIC)
    minus = make_form(IntMatrix.diagonal([-1]), SYMMETRIC)
    assert direct_sum(one, minus).matrix == IntMatrix.diagonal([1, -1])


def test_direct_sum_three_hyperbolics():
    h = make_form(HYPER, SYMMETRIC)
    a3 = direct_sum(direct_sum(h, h), h)
    assert a3.rank == 6
    assert a3.matrix == hyper_form(3).matrix


def test_direct_sum_empty_is_identity():
    f = random_symmetric_form(random.Random(7), 2)
    assert direct_sum(f, empty_form(SYMMETRIC)).matrix == f.matrix
    assert direct_sum(empty_form(SYMMETRIC), f).matrix == f.matrix


def test_direct_sum_symmetry_mismatch():
    j = make_form(IntMatrix.from_rows([[0, 1], [-1, 0]]), ANTISYMMETRIC)
    with pytest.raises(SymmetryMismatch):
        direct_sum(j, make_form(HYPER, SYMMETRIC))


def test_direct_sum_adds_signature_and_parity(rng):
    for _ in range(30):
        f = random_symmetric_form(rng, rng.randrange(1, 3))
        g = random_symmetric_form(rng, rng.randrange(1, 3))
        s = direct_sum(f, g)
        assert s.signature == tuple(x + y for x, y in zip(f.signature, g.signature))
        assert (s.parity == "even") == (f.parity == "even" and g.parity == "even")


# ---------------------------------------------------------------------------
# congruence properties
# ---------------------------------------------------------------------------


def test_conjugation_preserves_symmetry(rng):
    for _ in range(40):
        rank = rng.randrange(1, 4)
        u = random_unimodular(rng, rank)
        f = random_symmetric_form(rng, rank)
        assert transform_form(f, u).symmetry == SYMMETRIC
    for _ in range(20):
        half = rng.randrange(1, 3)
        u = random_unimodular(rng, 2 * half)
        f = random_antisymmetric_form(rng, half)
        assert transform_form(f, u).symmetry == ANTISYMMETRIC


def test_congruence_determinant_law(rng):
    for _ in range(40):
        rank = rng.randrange(1, 4)
        f = random_symmetric_form(rng, rank)
        p = IntMatrix.from_rows(
            [[rng.randrange(-3, 4) for _ in range(rank)] for _ in range(rank)]
        )
        assert f.matrix.transform_by(p).det() == p.det() ** 2 * f.matrix.det()


# ---------------------------------------------------------------------------
# isomorphism testing
# ---------------------------------------------------------------------------


def test_iso_parity_distinguishes_diag_from_hyperbolic():
    f = make_form(IntMatrix.diagonal([1, -1]), SYMMETRIC)
    g = make_form(HYPER, SYMMETRIC)
    v = isomorphic(f, g)
    assert v.is_no and v.reason == "ParityFilter"


def test_iso_self_is_identity_witness():
    f = random_symmetric_form(random.Random(3), 3)
    v = isomorphic(f, f)
    assert v.is_yes and v.witness == IntMatrix.identity(3)


def test_iso_reordered_basis():
    f = make_form(IntMatrix.identity(2), SYMMETRIC)
    g = make_form(IntMatrix.diagonal([1, 1]), SYMMETRIC)
    v = isomorphic(f, g)
    assert v.is_yes and v.witness is not None


def test_iso_rank_and_signature_reasons():
    i1 = make_form(IntMatrix.identity(1), SYMMETRIC)
    i2 = make_form(IntMatrix.identity(2), SYMMETRIC)
    assert isomorphic(i1, i2).reason == "RankFilter"
    d = make_form(IntMatrix.diagonal([1, -1]), SYMMETRIC)
    assert isomorphic(i2, d).reason == "SignatureFilter"


def test_iso_definite_conjugates(rng):
    for _ in range(15):
        rank = rng.randrange(1, 4)
        base = make_form(IntMatrix.identity(rank), SYMMETRIC)
        u = random_unimodular(rng, rank)
        g = transform_form(base, u)
        v = isomorphic(base, g)
        assert v.is_yes
        assert v.witness.transpose() @ base.matrix @ v.witness == g.matrix


def test_iso_definite_forms_with_other_unit_vectors_are_a_theta_no():
    # I9 has 18 vectors of norm 1 and E8 + I1 has 2: a complete No at once,
    # where the k = 1 search outgrew its budget and tripped an assertion
    i9 = make_form(IntMatrix.identity(9), SYMMETRIC)
    e8_i1 = make_form(block_diagonal(IntMatrix.from_rows(E8_CARTAN), IntMatrix.identity(1)),
                      SYMMETRIC)
    for f, g in ((i9, e8_i1), (e8_i1, i9)):
        v = isomorphic(f, g)
        assert v.is_no and v.reason == "ThetaFilter"
    assert "ThetaFilter" in solver.COMPLETE_REASONS
    # a change of basis keeps the count, so it never denies an isomorphic pair
    rng = random.Random(16)
    for base in (i9, e8_i1):
        scrambled = transform_form(base, random_unimodular(rng, 9))
        assert solver._unit_vector_count(scrambled) == solver._unit_vector_count(base)


def test_iso_definite_search_stopped_by_the_budget_is_unknown(monkeypatch):
    e8 = make_form(IntMatrix.from_rows(E8_CARTAN), SYMMETRIC)
    e8s = transform_form(e8, random_unimodular(random.Random(9), 8))
    monkeypatch.setattr(solver, "DEFAULT_CONFIG", SearchConfig(node_budget=5))
    v = isomorphic(e8s, e8)
    assert v.is_unknown and v.budget_exhausted


def test_iso_definite_search_runs_onto_the_smaller_diagonal():
    # the scrambled I9's diagonal reaches 33: searched onto it, the k = 1
    # search enumerates the vectors of I9 of norms up to 33 and took 34 s to
    # end Unknown; onto I9 it takes the norm-1 vectors of the scrambled form
    i9 = make_form(IntMatrix.identity(9), SYMMETRIC)
    scrambled = transform_form(i9, random_unimodular(random.Random(16), 9))
    for f, g in ((i9, scrambled), (scrambled, i9)):
        start = time.perf_counter()
        v = isomorphic(f, g)
        assert time.perf_counter() - start < 1
        assert v.is_yes and v.witness.transpose() @ f.matrix @ v.witness == g.matrix


def test_iso_indefinite_same_invariants():
    d = make_form(IntMatrix.diagonal([1, 1, -1]), SYMMETRIC)
    u = random_unimodular(random.Random(11), 3)
    v = isomorphic(d, transform_form(d, u))
    assert v.is_yes


def test_iso_definite_cap():
    from degmap.errors import CapExceeded

    big = make_form(IntMatrix.identity(13), SYMMETRIC)
    shear = IntMatrix.from_rows(
        [[1 if i == j else (1 if (i, j) == (0, 1) else 0) for j in range(13)] for i in range(13)]
    )
    other = transform_form(big, shear)
    with pytest.raises(CapExceeded):
        isomorphic(big, other)


def test_iso_antisymmetric_by_rank_with_witness(rng):
    f = random_antisymmetric_form(rng, 2)
    g = random_antisymmetric_form(rng, 2)
    v = isomorphic(f, g)
    assert v.is_yes
    assert v.witness.transpose() @ f.matrix @ v.witness == g.matrix
    small = random_antisymmetric_form(rng, 1)
    assert isomorphic(f, small).reason == "RankFilter"


def test_iso_equivalence_relation(rng):
    # pool of definite forms and scrambled copies: witnesses compose and invert
    base = make_form(IntMatrix.identity(2), SYMMETRIC)
    pool = [transform_form(base, random_unimodular(rng, 2)) for _ in range(4)]
    for f in pool:
        assert isomorphic(f, f).is_yes
    for f in pool:
        for g in pool:
            vfg = isomorphic(f, g)
            assert vfg.is_yes
            p = vfg.witness
            # symmetric via the inverse witness
            q = p.inverse_unimodular()
            assert q.transpose() @ g.matrix @ q == f.matrix
            for h in pool:
                vgh = isomorphic(g, h)
                prod = p @ vgh.witness
                assert prod.transpose() @ f.matrix @ prod == h.matrix


def test_iso_indefinite_yes_carries_the_canonical_witness(rng):
    # covered indefinite forms: the witness is U_f U_g^-1, never missing
    for base in ([1, 1, -1, -1], [1, -1, -1], "hyper2", [1, 1, 1, -1, -1]):
        m = block_diagonal(HYPER, HYPER) if base == "hyper2" else IntMatrix.diagonal(base)
        for _ in range(4):
            f = transform_form(make_form(m, SYMMETRIC), random_unimodular(rng, m.rows))
            g = transform_form(make_form(m, SYMMETRIC), random_unimodular(rng, m.rows))
            v = isomorphic(f, g)
            assert v.is_yes and v.witness is not None
            assert v.witness.transpose() @ f.matrix @ v.witness == g.matrix


# ---------------------------------------------------------------------------
# symplectic reduction, kernels, splits
# ---------------------------------------------------------------------------


def test_symplectic_transform_scrambled(rng):
    # the symplectic basis of an antisymmetric form is its canonical basis
    for _ in range(10):
        half = rng.randrange(1, 3)
        f = random_antisymmetric_form(rng, half)
        u = canonical_basis(f)
        assert abs(u.det()) == 1
        assert f.matrix.transform_by(u) == canonical_matrix(half, half, None)
    with pytest.raises(NotUnimodular):
        make_form(IntMatrix.from_rows([[0, 2], [-2, 0]]), ANTISYMMETRIC)


def test_dual_vector_inverts_a_primitive_row():
    for row in ([4, 6, 9], [0, -1], [3, 0, 0, 5], [1]):
        w = dual_vector(row)
        assert sum(a * b for a, b in zip(row, w)) == 1
    assert dual_vector([2, 4]) is None and dual_vector([0, 0]) is None


def test_integer_kernel_spans_and_saturates():
    m = IntMatrix.from_rows([[2, 4, 6], [1, 2, 3]])
    kernel = integer_kernel(m)
    assert len(kernel) == 2
    for v in kernel:
        assert all(sum(m[i, j] * v[j] for j in range(3)) == 0 for i in range(2))
    # (0, ..., 0) only for the full-rank square case
    assert integer_kernel(IntMatrix.identity(3)) == []


def test_split_basis_appends_the_orthogonal_complement(rng):
    for _ in range(20):
        f = random_symmetric_form(rng, 3)
        # a vector of norm +-1 spans a unimodular block, so the split is a basis
        v = next(
            (x, y, z) for x in range(-3, 4) for y in range(-3, 4) for z in range(-3, 4)
            if abs(f.matrix.transform_by(IntMatrix.from_columns([(x, y, z)]))[0, 0]) == 1
        )
        b = split_basis(f.matrix, IntMatrix.from_columns([v]))
        assert b.column(0) == v and abs(b.det()) == 1
        gram = f.matrix.transform_by(b)
        assert all(gram[0, j] == gram[j, 0] == 0 for j in (1, 2))


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


def test_matrix_text_round_trip(rng):
    m = IntMatrix.from_rows([[rng.randrange(-9, 10) for _ in range(3)] for _ in range(2)])
    assert parse_matrix_text(format_matrix_text(m)) == m


def test_matrix_doc_round_trip():
    m = IntMatrix.diagonal([1, -1])
    doc = matrix_to_doc(m, SYMMETRIC)
    back, symmetry = matrix_from_doc(doc)
    assert back == m and symmetry == SYMMETRIC


def test_infer_symmetry():
    assert infer_symmetry(HYPER) == SYMMETRIC
    assert infer_symmetry(IntMatrix.from_rows([[0, 1], [-1, 0]])) == ANTISYMMETRIC
    with pytest.raises(SymmetryMismatch):
        infer_symmetry(IntMatrix.from_rows([[1, 2], [3, 4]]))


def test_hstack_and_blocks():
    a = IntMatrix.identity(2)
    b = IntMatrix.zeros(2, 1)
    assert hstack(a, b).shape == (2, 3)
    assert block_diagonal(a, IntMatrix.identity(1)) == IntMatrix.identity(3)
    three = block_diagonal(IntMatrix.from_rows([[2]]), b, IntMatrix.from_rows([[0, 1], [-1, 0]]))
    assert three.to_rows() == [
        [2, 0, 0, 0],
        [0, 0, 0, 0],
        [0, 0, 0, 0],
        [0, 0, 0, 1],
        [0, 0, -1, 0],
    ]
    assert block_diagonal() == IntMatrix.zeros(0, 0)
