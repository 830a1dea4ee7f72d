import pytest

from degmap.catalog import (
    hyperbolic_matrix,
    manifold,
    preset,
    reverse_orientation,
)
from degmap.degsets import (
    REASON_HOMOTOPY,
    degree_one_summand,
    degree_realizable,
    degree_set,
    dominated_candidates,
    selfmap_square,
)
from degmap.cli import _degset_doc, _degset_lines, _dominance_dot
from degmap.errors import (
    ConditionNotMet,
    DimensionMismatch,
    NotApplicable,
)
from degmap.homotopy import element, pi_model
from degmap.intform import IntMatrix, SYMMETRIC, isomorphic, make_form
from degmap.solver import SearchConfig


CFG = SearchConfig()


# ---------------------------------------------------------------------------
# regimes
# ---------------------------------------------------------------------------


def test_simply_connected_target_gives_decisive_answers():
    # the source need not be simply connected
    ans = degree_realizable(preset("T4"), preset("#3(S2xS2)"), 5)
    assert ans.kind == "yes"
    assert ans.regime == "bilinear-criterion"


def test_non_simply_connected_target_downgrades_yes():
    ans = degree_realizable(preset("S2xS2"), preset("FsxFr(0,1)"), 1)
    assert ans.kind == "necessary_pass"
    assert ans.regime == "necessary-only"
    assert ans.witness is not None


def test_no_is_genuine_even_in_necessary_regime():
    # necessity violated means no map, whatever the fundamental group does
    ans = degree_realizable(preset("CP2"), preset("T4"), 1)
    assert ans.kind == "no"
    assert ans.reason == "RankFilter"


def test_degree_zero_always_realizable():
    ans = degree_realizable(preset("CP2"), preset("T4"), 0)
    assert ans.kind == "yes"
    assert ans.regime == "constant-map"


def test_dimension_mismatch():
    model = pi_model(4)
    m8 = manifold("m8", 4, preset("CP2").form, True, True)
    with pytest.raises(DimensionMismatch):
        degree_realizable(m8, preset("CP2"), 1)


# ---------------------------------------------------------------------------
# degree sets
# ---------------------------------------------------------------------------


def test_degree_set_partitions_the_range():
    rep = degree_set(preset("CP2#(-CP2)"), preset("S2xS2"), 6)
    ks = set(range(-6, 7)) - {0}
    buckets = rep.yes_set | rep.no_set | rep.unknown_set | rep.necessary_pass_set
    assert buckets == ks
    assert rep.yes_set.isdisjoint(rep.no_set)
    assert _degset_doc(rep)["always_contains_zero"]


def test_degree_set_two_z():
    rep = degree_set(preset("CP2#(-CP2)"), preset("S2xS2"), 6)
    assert rep.yes_set == {-6, -4, -2, 2, 4, 6}
    assert rep.no_set == {-5, -3, -1, 1, 3, 5}
    for k in rep.yes_set:
        w = rep.answer_for(k).witness
        assert w.transpose() @ preset("CP2#(-CP2)").form.matrix @ w == hyperbolic_matrix(1).scaled(k)


def test_degree_set_zero_set():
    rep = degree_set(preset("S2xS2"), preset("CP2#CP2"), 4)
    assert rep.yes_set == set()
    assert rep.no_set == set(range(-4, 5)) - {0}


def test_self_degree_set_contains_squares():
    rep = degree_set(preset("CP2"), preset("CP2"), 9)
    assert {1, 4, 9} <= rep.yes_set


def test_orientation_law():
    src = preset("CP2#(-CP2)")
    tgt = preset("S2xS2")
    fwd = degree_set(src, tgt, 5)
    rev = degree_set(src, reverse_orientation(tgt), 5)
    assert rev.yes_set == {-k for k in fwd.yes_set}
    assert rev.no_set == {-k for k in fwd.no_set}
    assert rev.unknown_set == {-k for k in fwd.unknown_set}


def test_witnesses_compose_multiplicatively():
    t4 = preset("T4")
    s3 = preset("#3(S2xS2)")
    s1 = preset("S2xS2")
    a1 = degree_realizable(t4, s3, 2)
    a2 = degree_realizable(s3, s1, 3)
    assert a1.kind == a2.kind == "yes"
    combined = a1.witness @ a2.witness
    gram = combined.transpose() @ t4.form.matrix @ combined
    assert gram == s1.form.matrix.scaled(6)


# ---------------------------------------------------------------------------
# degree-one splitting
# ---------------------------------------------------------------------------


def test_degree_one_summand_identity_splitting():
    ans, comp = degree_one_summand(preset("CP2#CP2"), preset("CP2"))
    assert ans.kind == "yes"
    assert comp.matrix == IntMatrix.identity(1)
    from degmap.intform import direct_sum

    glued = direct_sum(preset("CP2").form, comp)
    assert isomorphic(glued, preset("CP2#CP2").form).is_yes


def test_degree_one_summand_mixed_signs():
    ans, comp = degree_one_summand(preset("CP2#(-CP2)"), preset("CP2"))
    assert ans.kind == "yes"
    assert comp.matrix == IntMatrix.diagonal([-1])


def test_degree_one_summand_parity_obstruction():
    ans, comp = degree_one_summand(preset("S2xS2"), preset("CP2"))
    assert ans.kind == "no"
    assert ans.reason == "ParityFilter"
    assert comp is None


def test_degree_one_summand_rank_six():
    ans, comp = degree_one_summand(preset("T4"), preset("S2xS2"))
    assert ans.kind == "yes"
    assert comp.rank == 4
    assert isomorphic(comp, make_form(hyperbolic_matrix(2), SYMMETRIC)).is_yes


def test_degree_one_summand_gate():
    with pytest.raises(NotApplicable):
        degree_one_summand(preset("CP2"), preset("T4"))


def test_degree_one_yes_always_splits_the_pairing():
    # the constructive side of the splitting law, swept over catalog pairs
    from degmap.intform import direct_sum

    names = ("CP2", "minusCP2", "S2xS2", "CP2#CP2", "CP2#(-CP2)", "T4", "#2(S2xS2)")
    split_count = 0
    for src_name in names:
        for tgt_name in names:
            if tgt_name == "T4":
                continue  # target must be simply connected for the exact criterion
            src, tgt = preset(src_name), preset(tgt_name)
            ans, comp = degree_one_summand(src, tgt)
            if ans.kind != "yes":
                continue
            split_count += 1
            glued = direct_sum(tgt.form, comp)
            assert isomorphic(glued, src.form).is_yes, (src_name, tgt_name)
    assert split_count >= 8


# ---------------------------------------------------------------------------
# self-maps of square degree
# ---------------------------------------------------------------------------


def test_selfmap_squares_on_presets():
    for name in ("CP2", "S2xS2", "CP2#CP2"):
        for k in (1, 2, 3):
            rep = selfmap_square(preset(name), k)
            assert rep.k == k * k
            assert rep.witness == IntMatrix.identity(preset(name).form.rank).scaled(k)


def test_selfmap_rejects_non_highly_connected():
    with pytest.raises(NotApplicable):
        selfmap_square(preset("T4"), 2)


def test_selfmap_zero_degree():
    rep = selfmap_square(preset("CP2"), 0)
    assert rep.k == 0


def test_selfmap_generic_model_multiplicity():
    model = pi_model(6, [2], [1])
    data = (element(model, 0, [0]), element(model, 0, [1]))
    m = manifold("twelve", 6, make_form(hyperbolic_matrix(1), SYMMETRIC), True, True, model, data)
    rep = selfmap_square(m, 4)
    assert rep.k == 16
    with pytest.raises(ConditionNotMet):
        selfmap_square(m, 2)
    with pytest.raises(ConditionNotMet):
        selfmap_square(m, 3)


def test_selfmap_odd_torsion_model():
    model = pi_model(4, [3], [2])
    data = (element(model, 1, [0]),)
    m = manifold("eight", 4, make_form(IntMatrix.identity(1), SYMMETRIC), True, True, model, data)
    rep = selfmap_square(m, 3)
    assert rep.k == 9
    with pytest.raises(ConditionNotMet):
        selfmap_square(m, 2)


# ---------------------------------------------------------------------------
# the combined criterion for n > 2
# ---------------------------------------------------------------------------


def _rank_one_pair(t_torsion, u_torsion, whitehead_torsion):
    model = pi_model(4, [3], [whitehead_torsion])
    form = make_form(IntMatrix.identity(1), SYMMETRIC)
    src = manifold("src", 4, form, True, True, model, (element(model, 1, [t_torsion]),))
    tgt = manifold("tgt", 4, form, True, True, model, (element(model, 1, [u_torsion]),))
    return src, tgt


def test_homotopy_regime_obstruction():
    # both scaled-sign witnesses of the rank-one congruence fail the
    # attaching-data condition, so the answer is a complete No
    src, tgt = _rank_one_pair(t_torsion=0, u_torsion=1, whitehead_torsion=2)
    ans = degree_realizable(src, tgt, 1)
    assert ans.regime == "homotopy-criterion"
    assert ans.kind == "no"
    assert ans.reason == REASON_HOMOTOPY


def test_homotopy_regime_second_witness_passes():
    # the +1 witness fails but the -1 witness satisfies the condition
    src, tgt = _rank_one_pair(t_torsion=0, u_torsion=2, whitehead_torsion=2)
    ans = degree_realizable(src, tgt, 1)
    assert ans.kind == "yes"
    assert ans.witness == IntMatrix.from_rows([[-1]])


def test_homotopy_regime_identity_data_passes():
    src, tgt = _rank_one_pair(t_torsion=1, u_torsion=1, whitehead_torsion=0)
    ans = degree_realizable(src, tgt, 1)
    assert ans.kind == "yes"
    assert ans.witness == IntMatrix.from_rows([[1]])


def test_homotopy_regime_budget_exhaustion_is_unknown():
    model = pi_model(4, [3], [1])
    h = make_form(hyperbolic_matrix(1), SYMMETRIC)
    data = (element(model, 0, [0]), element(model, 0, [0]))
    src = manifold("s", 4, h, True, True, model, data)
    ans = degree_realizable(src, src, 1, SearchConfig(node_budget=2))
    assert ans.kind == "unknown"
    assert ans.budget_exhausted and ans.radius is None


def test_budget_stopped_degree_set_row_names_the_budget():
    rep = degree_set(preset("T4"), preset("T4"), 1, SearchConfig(node_budget=10))
    assert rep.unknown_set == {-1, 1}
    rows = _degset_lines(rep)[3:]
    assert rows == [
        "  -1  Unknown                  node budget exhausted",
        "   1  Unknown                  node budget exhausted",
    ]
    assert all(a["budget_exhausted"] and "radius" not in a for a in _degset_doc(rep)["answers"])


def test_surface_product_family_degrees():
    # the surface product with 2rs+1 hyperbolic planes maps onto up to
    # 2rs+1 sphere-product summands in every degree; one more summand is
    # impossible by rank alone
    f11 = preset("FsxFr(1,1)")
    for q in (1, 2, 3):
        tgt = preset(f"#{q}(S2xS2)")
        for k in (-4, -1, 1, 2, 3, 5):
            ans = degree_realizable(f11, tgt, k)
            assert ans.kind == "yes", (q, k)
    assert degree_realizable(f11, preset("#4(S2xS2)"), 1).reason == "RankFilter"


# ---------------------------------------------------------------------------
# dominance
# ---------------------------------------------------------------------------


def test_cp2_dominates_only_itself_among_small_targets():
    rep = dominated_candidates(
        preset("CP2"), [preset("CP2"), preset("S2xS2"), preset("CP2#CP2")]
    )
    assert [n for n, _, _ in rep.dominated] == ["CP2"]
    assert set(rep.excluded_by_rank) == {"S2xS2", "CP2#CP2"}


def test_t4_dominates_catalog_members():
    targets = [preset(n) for n in ("CP2", "S2xS2", "CP2#CP2", "T4")]
    rep = dominated_candidates(preset("T4"), targets + [preset("#3(S2xS2)")])
    names = {n for n, _, _ in rep.dominated}
    assert "CP2" in names
    assert "#3(S2xS2)" in names
    # the non-simply-connected target cannot be claimed, only noted
    assert ("T4", 1) in rep.necessary_only


def test_rank_zero_source_dominates_only_rank_zero():
    zero = preset("#0(S2xS2)")
    rep = dominated_candidates(zero, [preset("CP2"), preset("#0(S2xS2)")])
    assert rep.excluded_by_rank == ("CP2",)
    assert [n for n, _, _ in rep.dominated] == ["#0(S2xS2)"]


def test_dominance_dot_output():
    rep = dominated_candidates(preset("CP2"), [preset("CP2")])
    dot = _dominance_dot(rep)
    assert dot.startswith("digraph") and '"CP2" -> "CP2"' in dot
