import random

import pytest

from degmap import canonical, solver
from degmap.canonical import LINE_PLUS_PLANE, block_witness, canonical_basis, canonical_matrix
from degmap.intform import (
    ANTISYMMETRIC,
    HYPERBOLIC as HYPER,
    NOT_COMPUTED,
    PARITY_EVEN,
    PARITY_ODD,
    SYMMETRIC,
    SYMPLECTIC,
    IntMatrix,
    block_diagonal,
    direct_sum,
    empty_form,
    make_form,
)

from conftest import E8_CARTAN, random_antisymmetric_form, random_unimodular


def hyper_form(copies=1):
    return make_form(block_diagonal(*[HYPER] * copies), SYMMETRIC)


def _canonical_bases():
    # every odd I(p, q) and every even H^a up to rank 6, and odd sums <+-1> + H^a
    # whose natural basis is not diagonal
    bases = [IntMatrix.diagonal([1] * p + [-1] * (n - p)) for n in range(2, 7) for p in range(1, n)]
    bases += [block_diagonal(*[HYPER] * a) for a in (1, 2, 3)]
    bases += [block_diagonal(IntMatrix.diagonal([e]), *[HYPER] * a) for e in (1, -1) for a in (1, 2)]
    return bases


def test_canonical_basis_on_seeded_scrambles():
    rng = random.Random(13)
    bases = _canonical_bases()
    for trial in range(240):
        base = bases[trial % len(bases)]
        f = make_form(base.transform_by(random_unimodular(rng, base.rows)), SYMMETRIC)
        u = canonical_basis(f)
        pos, neg, _ = f.signature
        assert u is not None, f.matrix.to_rows()
        assert abs(u.det()) == 1
        assert f.matrix.transform_by(u) == canonical_matrix(pos, neg, f.parity)


def test_canonical_basis_on_scrambles_of_rank_11_to_16_in_any_coordinate_order():
    # the split search enumerates by l1-norm and size-reduces the Gram matrix
    # first, so reversing the basis of a scrambled form changes nothing
    rng = random.Random(29)
    for trial in range(24):
        n = rng.randrange(11, 17)
        if trial % 4 == 3:
            base = block_diagonal(*[HYPER] * (n // 2))
        else:
            pos = rng.randrange(1, n)
            base = IntMatrix.diagonal([1] * pos + [-1] * (n - pos))
        scrambled = base.transform_by(random_unimodular(rng, base.rows))
        reverse = IntMatrix.from_columns(
            [[int(i == base.rows - 1 - j) for i in range(base.rows)] for j in range(base.rows)])
        for matrix in (scrambled, scrambled.transform_by(reverse)):
            f = make_form(matrix, SYMMETRIC)
            u = canonical_basis(f)
            assert u is not None, matrix.to_rows()
            assert f.matrix.transform_by(u) == canonical_matrix(*f.signature[:2], f.parity)


def test_canonical_basis_on_huge_entries_takes_bounded_reduction():
    # moves of +-1 would need about 10^9 sweeps to shrink these entries
    big = 10**9
    for rows, expected in (([[0, 1], [1, 2 * big]], HYPER),
                           ([[-1, -big], [-big, 1 - big * big]], IntMatrix.diagonal([1, -1]))):
        f = make_form(IntMatrix.from_rows(rows), SYMMETRIC)
        assert f.matrix.transform_by(canonical_basis(f)) == expected


def test_canonical_basis_charges_its_splits_to_a_budget():
    f = make_form(IntMatrix.from_rows([[1, 2], [2, 3]]), SYMMETRIC)
    with pytest.raises(solver._OutOfBudget):
        canonical_basis(f, solver._Budget(0))
    assert f.canonical is NOT_COMPUTED  # a search stopped there caches nothing
    budget = solver._Budget(100)
    u = canonical_basis(f, budget)
    assert budget.remaining < 100 and f.canonical is u
    assert canonical_basis(f, solver._Budget(0)) is u  # computed once, charged once


def test_line_plus_plane_rewrites():
    for eps, diag in ((1, [1, 1, -1]), (-1, [1, -1, -1])):
        r = LINE_PLUS_PLANE[eps]
        line_plus_plane = block_diagonal(IntMatrix.diagonal([eps]), HYPER)
        assert line_plus_plane.transform_by(r) == IntMatrix.diagonal(diag)
        assert abs(r.det()) == 1


def test_canonical_basis_recognises_canonical_input_and_runs_once_per_form(monkeypatch):
    i21 = make_form(IntMatrix.diagonal([1, 1, -1]), SYMMETRIC)
    assert i21.canonical is NOT_COMPUTED  # make_form does not pay for it
    # with no vector to split by, only the recognition can answer
    monkeypatch.setattr(canonical, "_SPLIT_CAP", 0)
    assert canonical_basis(i21) == IntMatrix.identity(3)
    assert canonical_basis(hyper_form(2)) == IntMatrix.identity(4)
    assert canonical_basis(make_form(IntMatrix.diagonal([-1, 1]), SYMMETRIC)) is None
    monkeypatch.undo()
    f = make_form(IntMatrix.from_rows([[1, 2], [2, 3]]), SYMMETRIC)
    u = canonical_basis(f)
    assert u is canonical_basis(f)
    assert f.matrix.transform_by(u) == IntMatrix.diagonal([1, -1])


def test_canonical_basis_is_none_where_it_cannot_split():
    e8 = make_form(IntMatrix.from_rows(E8_CARTAN), SYMMETRIC)
    assert canonical_basis(direct_sum(e8, hyper_form())) is None  # even, signature 8
    assert canonical_basis(e8) is None
    # a definite form is recognised when diagonal, never split
    i3 = IntMatrix.identity(3)
    assert canonical_basis(make_form(i3, SYMMETRIC)) == i3
    assert canonical_basis(make_form(i3.scaled(-1), SYMMETRIC)) == i3
    scrambled = i3.transform_by(random_unimodular(random.Random(3), 3))
    assert scrambled != i3
    assert canonical_basis(make_form(scrambled, SYMMETRIC)) is None
    assert canonical_basis(empty_form()) is None
    assert canonical_matrix(2, 1, PARITY_ODD) == IntMatrix.diagonal([1, 1, -1])
    assert canonical_matrix(2, 2, PARITY_EVEN) == block_diagonal(HYPER, HYPER)


def test_canonical_basis_splits_antisymmetric_forms_without_charging():
    # every vector is isotropic, so each plane J is split off at e_1 with no
    # vector tried: a zero budget is never charged
    rng = random.Random(2201)
    assert canonical_matrix(2, 2, None) == block_diagonal(SYMPLECTIC, SYMPLECTIC)
    for genus in (1, 2, 3, 4):
        for _ in range(6):
            f = random_antisymmetric_form(rng, genus)
            u = canonical_basis(f, solver._Budget(0))
            assert abs(u.det()) == 1
            assert f.matrix.transform_by(u) == canonical_matrix(genus, genus, None), f.matrix


def _scrambled_j(rng, genus):
    """A scramble of J^genus by ``random_unimodular``, redrawn until every
    entry is at most 24 in absolute value."""
    j = canonical_matrix(genus, genus, None)
    while True:
        m = j.transform_by(random_unimodular(rng, 2 * genus, steps=8, cap=24))
        if max(map(abs, m.entries())) <= 24:
            return make_form(m, ANTISYMMETRIC)


def test_canonical_basis_of_scrambled_j_g_stays_small():
    # the Gram matrix of each unsplit part is size-reduced as a symmetric
    # one is; unreduced, these bases reached 7.4e27 at genus 8
    rng = random.Random(7)
    for genus in (2, 3, 4, 5, 6, 8):
        for _ in range(10):
            f = _scrambled_j(rng, genus)
            u = canonical_basis(f)
            assert f.matrix.transform_by(u) == canonical_matrix(genus, genus, None)
            assert max(map(abs, u.entries())) <= 1_000, (genus, f.matrix)


def test_antisymmetric_witnesses_are_about_as_small_as_the_input():
    # P = U_A P' U_B^-1 from the fixed blocks in degree 3 between scrambled
    # J^5, with no search node; unreduced, the eighth pair's witness had an
    # entry 14 768 595 (tests/fixtures/J5-scrambled-a.mat and -b.mat)
    rng = random.Random(7)
    pairs = [(_scrambled_j(rng, 5), _scrambled_j(rng, 5)) for _ in range(12)]
    for a, b in pairs:
        v = solver.congruence_solve(a, b, 3, solver.SearchConfig(node_budget=1))
        assert v.is_yes
        solver.verify_witness(a, b, 3, v.witness)
        assert max(map(abs, v.witness.entries())) <= 10_000, (a.matrix, b.matrix)


# ---------------------------------------------------------------------------
# fixed blocks
# ---------------------------------------------------------------------------

H1 = (1, 1, PARITY_EVEN)
I11 = (1, 1, PARITY_ODD)


def _block(a, b, k):
    """block_witness(a, b, k), checked against the canonical matrices."""
    p = block_witness(a, b, k)
    assert p.transpose() @ canonical_matrix(*a) @ p == canonical_matrix(*b).scaled(k)
    return p.to_rows()


def test_each_fixed_block_identity():
    # one instance of every block of the table, entry by entry
    assert _block(H1, H1, 9) == [[3, 0], [0, 3]]  # m e for k = m^2
    assert _block((2, 1, PARITY_ODD), (1, 1, PARITY_ODD), 4) == [[2, 0], [0, 0], [0, 2]]
    assert _block(H1, H1, 11) == [[11, 0], [0, 1]]  # kH in H
    assert _block(I11, H1, 6) == [[1, 3], [1, -3]]  # kH in I(1,1), k even
    assert _block(H1, I11, 6) == [[1, 1], [3, -3]]  # k I(1,1) in H, k even
    assert _block(H1, (1, 0, PARITY_ODD), 6) == [[1], [3]]  # k<1> in H
    assert _block(H1, (0, 1, PARITY_ODD), 6) == [[1], [-3]]  # k<-1> in H
    assert _block(I11, I11, 7) == [[4, 3], [3, 4]]  # k I(1,1) in I(1,1), k odd
    assert _block(I11, I11, 12) == [[4, 2], [2, 4]]  # and 4 | k
    assert _block(I11, (1, 0, PARITY_ODD), 7) == [[4], [3]]
    assert _block((2, 0, PARITY_ODD), (2, 0, PARITY_ODD), 5) == [[2, -1], [1, 2]]
    assert _block((4, 0, PARITY_ODD), (4, 0, PARITY_ODD), 7) == [
        [2, -1, -1, -1], [1, 2, -1, 1], [1, 1, 2, -1], [1, -1, 1, 2]]  # 4 + 1 + 1 + 1
    assert _block(H1, H1, -11) == [[11, 0], [0, -1]]  # the sign swap of B
    assert _block(I11, I11, -1) == [[0, 1], [1, 0]]
    # on a plane carved from I(2, 1) around the spare line e_2: x = e_1 + f_1
    # and y = -f_1 - e_2, under kH, k<1> and k I(1, 1); and from I(2, 2)
    # around f_2
    assert _block((2, 1, PARITY_ODD), H1, 1) == [[1, 0], [0, -1], [1, -1]]
    assert _block((2, 1, PARITY_ODD), H1, 11) == [[11, 0], [0, -1], [11, -1]]
    assert _block((2, 1, PARITY_ODD), (1, 0, PARITY_ODD), 6) == [[1], [-3], [-2]]
    assert _block((2, 1, PARITY_ODD), I11, 2) == [[1, 1], [-1, 1], [0, 2]]
    assert _block((2, 2, PARITY_ODD), I11, 6) == [[4, -2], [0, 0], [1, 1], [3, -3]]


def test_carved_planes_split_i_p_q():
    # M.T I(p, q) M == H^b + I(p - b, q - b), unimodular, whenever a line
    # is left to spare
    for p in range(1, 6):
        for q in range(1, 6):
            for b in range(min(p, q, (p + q - 1) // 2) + 1):
                m = canonical._carved_planes(p, q, b)
                split = block_diagonal(*[HYPER] * b, canonical_matrix(p - b, q - b, PARITY_ODD))
                assert m.transpose() @ canonical_matrix(p, q, PARITY_ODD) @ m == split, (p, q, b)
                assert m.det() in (1, -1)


def test_fixed_blocks_are_absent_where_no_block_fits():
    # k = 2 mod 4 has no x^2 - y^2 = k and I(1, 1) has no line to spare
    # for a plane; 6 I(3,3) in I(3,3) needs a placement beyond the table;
    # an even form of nonzero signature is no canonical shape here
    assert block_witness(I11, I11, 6) is None
    assert block_witness((3, 3, PARITY_ODD), (3, 3, PARITY_ODD), 6) is None
    assert block_witness((8, 0, PARITY_EVEN), (8, 0, PARITY_EVEN), 4) is None
    assert block_witness(I11, H1, 1) is None
    assert block_witness(I11, I11, (1 << 40) + 2) is None  # no search for squares
    # 2 I(3,3) in I(3,3) and H in I(3,3) at k = 1 take a plane carved
    # around f_3, x = e_1 + f_1 and y = e_1 + f_3: one pair of lines on the
    # plane and the rest by 2 x 2 blocks, and kH by diag(k, 1)
    assert _block((3, 3, PARITY_ODD), (3, 3, PARITY_ODD), 2) == [
        [2, 0, 0, 0, 1, 1], [0, 1, -1, 0, 0, 0], [0, 1, 1, 0, 0, 0],
        [1, 0, 0, 1, 1, 1], [0, 0, 0, 0, 1, -1], [1, 0, 0, -1, 1, 1]]
    assert _block((3, 3, PARITY_ODD), H1, 1) == [[1, 1], [0, 0], [0, 0], [1, 0], [0, 0], [0, 1]]
