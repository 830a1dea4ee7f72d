import pytest

from degmap.catalog import (
    MAX_PRESET_RANK,
    connected_sum,
    fixed_presets,
    hyperbolic_matrix,
    hyperbolic_scaling_matrix,
    manifold,
    manifold_from_doc,
    manifold_to_doc,
    preset,
    reverse_orientation,
)
from degmap.errors import (
    DimensionMismatch,
    InvalidManifold,
    SymmetryMismatch,
    UnknownPreset,
)
from degmap.homotopy import element, pi_model
from degmap.intform import IntMatrix, make_form, SYMMETRIC
from degmap.solver import isomorphic


def test_preset_forms_match_the_table():
    assert preset("CP2").form.matrix == IntMatrix.identity(1)
    assert preset("minusCP2").form.matrix == IntMatrix.diagonal([-1])
    assert preset("S2xS2").form.matrix == hyperbolic_matrix(1)
    assert preset("CP2#CP2").form.matrix == IntMatrix.identity(2)
    assert preset("CP2#(-CP2)").form.matrix == IntMatrix.diagonal([1, -1])
    assert preset("T4").form.matrix == hyperbolic_matrix(3)


def test_t4_flags():
    t4 = preset("T4")
    assert not t4.simply_connected
    assert not t4.highly_connected
    assert t4.form.rank == 6


def test_surface_product_family():
    # rank 2 + 4rs by the product count of middle classes
    assert preset("FsxFr(1,1)").form.matrix == hyperbolic_matrix(3)
    assert preset("FsxFr(1,2)").form.rank == 10
    assert not preset("FsxFr(0,1)").simply_connected
    # genus zero on both factors is the sphere product itself
    assert preset("FsxFr(0,0)").name == "S2xS2"
    # the rank limit counts planes, not parameter size
    assert preset("FsxFr(0,100000)").form.rank == 2


def test_sphere_sum_family():
    assert preset("#3(S2xS2)").form.matrix == hyperbolic_matrix(3)
    assert preset("#1(S2xS2)").form.matrix == hyperbolic_matrix(1)
    assert preset("#0(S2xS2)").form.rank == 0
    assert preset("#2(S2xS2)").simply_connected
    assert preset(f"#{MAX_PRESET_RANK // 2}(S2xS2)").form.rank == MAX_PRESET_RANK


def test_unknown_preset():
    with pytest.raises(UnknownPreset):
        preset("K3")


def test_unicode_minus_accepted():
    assert preset("CP2#(\u2212CP2)").form.matrix == IntMatrix.diagonal([1, -1])


def test_every_fixed_preset_is_unimodular():
    for m in fixed_presets():
        assert m.form.matrix.det() in (1, -1)


def test_connected_sum_forms():
    cp2 = preset("CP2")
    assert connected_sum(cp2, cp2).form.matrix == IntMatrix.identity(2)
    assert connected_sum(cp2, preset("minusCP2")).form.matrix == IntMatrix.diagonal([1, -1])
    s = preset("S2xS2")
    assert connected_sum(connected_sum(s, s), s).form.matrix == hyperbolic_matrix(3)


def test_connected_sum_flags():
    assert connected_sum(preset("CP2"), preset("CP2")).simply_connected
    mixed = connected_sum(preset("T4"), preset("CP2"))
    assert not mixed.simply_connected
    assert not mixed.highly_connected


def test_connected_sum_commutative_up_to_isomorphism():
    a = preset("CP2")
    b = preset("S2xS2")
    c = preset("CP2#(-CP2)")
    left = connected_sum(connected_sum(a, b), c)
    right = connected_sum(a, connected_sum(b, c))
    assert isomorphic(left.form, right.form).is_yes
    swapped = connected_sum(b, a)
    assert isomorphic(connected_sum(a, b).form, swapped.form).is_yes


def test_connected_sum_dimension_mismatch():
    six = manifold(
        "six", 3,
        make_form(IntMatrix.from_rows([[0, 1], [-1, 0]]), "antisymmetric"),
        True, True,
    )
    with pytest.raises(DimensionMismatch):
        connected_sum(six, preset("CP2"))


def test_connected_sum_concatenates_homotopy_data():
    model = pi_model(4, [3], [1])
    h = make_form(hyperbolic_matrix(1), SYMMETRIC)
    data = (element(model, 0, [1]), element(model, 0, [2]))
    a = manifold("a", 4, h, True, True, model, data)
    b = manifold("b", 4, h, True, True, model, data)
    s = connected_sum(a, b)
    assert s.homotopy_data == data + data
    assert s.pi == model


def test_reverse_orientation_negates_form():
    assert reverse_orientation(preset("CP2")).form.matrix == IntMatrix.diagonal([-1])


def test_reverse_orientation_on_even_form_is_isomorphic():
    s = preset("S2xS2")
    r = reverse_orientation(s)
    # explicit witness: conjugating by diag(1, -1) negates the hyperbolic pairing
    w = IntMatrix.diagonal([1, -1])
    assert w.transpose() @ s.form.matrix @ w == r.form.matrix
    assert isomorphic(s.form, r.form).is_yes


def test_reverse_orientation_twice_restores_form():
    m = preset("CP2#(-CP2)")
    back = reverse_orientation(reverse_orientation(m))
    assert back.form.matrix == m.form.matrix
    assert back.name == m.name


def test_reverse_orientation_swaps_signature():
    for m in fixed_presets():
        p, q, z = m.form.signature
        assert reverse_orientation(m).form.signature == (q, p, z)


def test_manifold_validation():
    with pytest.raises(SymmetryMismatch, match="^a 2\\*3-manifold needs an antisymmetric pairing$"):
        manifold("bad", 3, preset("CP2").form, True, True)
    with pytest.raises(SymmetryMismatch, match="^a 2\\*2-manifold needs a symmetric pairing$"):
        j = make_form(IntMatrix.from_rows([[0, 1], [-1, 0]]), "antisymmetric")
        manifold("bad", 2, j, True, True)
    with pytest.raises(InvalidManifold):
        manifold("bad", 2, preset("CP2").form, False, True)
    model = pi_model(4)
    with pytest.raises(InvalidManifold):
        # attaching data is not carried at n = 2
        manifold("bad", 2, preset("CP2").form, True, True, None,
                 (element(pi_model(2), 1),))


def test_manifold_doc_round_trip():
    model = pi_model(4, [3], [1])
    h = make_form(hyperbolic_matrix(1), SYMMETRIC)
    data = (element(model, 0, [1]), element(model, 0, [2]))
    m = manifold("sample", 4, h, True, True, model, data)
    back = manifold_from_doc(manifold_to_doc(m))
    assert back == m


def test_manifold_rejects_data_off_the_diagonal():
    model = pi_model(4, [3], [1])
    h = make_form(hyperbolic_matrix(1), SYMMETRIC)
    with pytest.raises(InvalidManifold):
        manifold("bad", 4, h, True, True, model,
                 (element(model, 1, [0]), element(model, 0, [0])))


def test_hyperbolic_scaling_matrix_identity():
    # conjugating l hyperbolic planes by the block scaling matrix multiplies by k
    for copies in (1, 3):
        for k in (-5, -1, 2, 7):
            p = hyperbolic_scaling_matrix(copies, k)
            a = hyperbolic_matrix(copies)
            assert p.transpose() @ a @ p == a.scaled(k)
