import random

import pytest

from degmap import degsets, solver
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
    WitnessRejected,
)
from degmap.homotopy import (
    ConditionReport,
    check_homotopy_condition,
    element,
    pi_model,
    pi_scale,
    pushed_column,
)
from degmap.intform import IntMatrix, SYMMETRIC, make_form
from degmap.solver import REASON_EXHAUSTIVE, SearchConfig, Verdict, isomorphic

from conftest import E8_CARTAN, random_unimodular


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


def test_degree_one_summand_gives_an_indefinite_complement_in_canonical_form():
    # a scrambled CP2 # CP2 # (-CP2) onto CP2: whatever basis the kernel
    # returns, the complement is printed as diag(1, -1)
    rng = random.Random(31)
    for _ in range(5):
        m = IntMatrix.diagonal([1, 1, -1]).transform_by(random_unimodular(rng, 3))
        source = manifold("M", 2, make_form(m, SYMMETRIC), True, True)
        ans, comp = degree_one_summand(source, preset("CP2"))
        assert ans.kind == "yes"
        assert comp.matrix == IntMatrix.diagonal([1, -1])
    ans, comp = degree_one_summand(preset("T4"), preset("S2xS2"))
    assert comp.matrix == hyperbolic_matrix(2)


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
    # I(3,3) -> I(3,3) at k = 2 has no fixed-block witness, so the search runs
    model = pi_model(4, [3], [1])
    i33 = make_form(IntMatrix.diagonal([1, 1, 1, -1, -1, -1]), SYMMETRIC)
    data = [element(model, d, [0]) for d in (1, 1, 1, -1, -1, -1)]
    src = manifold("s", 4, i33, True, True, model, data)
    ans = degree_realizable(src, src, 2, SearchConfig(node_budget=2))
    assert ans.kind == "unknown"
    assert ans.budget_exhausted and ans.radius is None
    # the old instance, H -> H at k = 1, is the identity within this budget
    h = make_form(hyperbolic_matrix(1), SYMMETRIC)
    h8 = manifold("h", 4, h, True, True, model, (element(model, 0, [0]), element(model, 0, [0])))
    ans = degree_realizable(h8, h8, 1, SearchConfig(node_budget=2))
    assert ans.kind == "yes" and ans.witness == IntMatrix.identity(2)


def _identity_hc8(rank, torsion):
    # I_rank as an 8-manifold pairing, data of Hopf invariant 1 and the given
    # torsion residues mod 3, trivial Whitehead torsion
    model = pi_model(4, [3], [0])
    form = make_form(IntMatrix.identity(rank), SYMMETRIC)
    return manifold("I", 4, form, True, True, model, [element(model, 1, [x]) for x in torsion])


def test_homotopy_regime_column_pruning_decides_within_budget():
    # every candidate for column 0 fails the condition: the unpruned search
    # spends 42 nodes on 24 failing witnesses, the pruned one 6 nodes
    src, tgt = _identity_hc8(3, [0, 0, 0]), _identity_hc8(2, [1, 0])
    ans = degree_realizable(src, tgt, 1, SearchConfig(node_budget=20))
    assert ans.kind == "no" and ans.reason == REASON_HOMOTOPY


def test_homotopy_regime_rejected_columns_name_the_obstruction():
    # no two orthogonal vectors of norm 6 exist even in Q^3 (6 I_2 + <1>
    # and I_3 differ in their Hasse invariant at 3), so the filters answer
    # before any column is tried; at k = 5 congruence witnesses exist, but
    # the search rejects the columns that fail the torsion condition and
    # exhausts, and the No names the homotopy obstruction
    src = _identity_hc8(3, [0, 0, 1])
    ans = degree_realizable(src, _identity_hc8(2, [0, 0]), 6)
    assert ans.kind == "no" and ans.reason == solver.REASON_HASSE
    assert solver.congruence_solve(src.form, _identity_hc8(2, [1, 0]).form, 5).is_yes
    ans = degree_realizable(src, _identity_hc8(2, [1, 0]), 5)
    assert ans.kind == "no" and ans.reason == REASON_HOMOTOPY


def test_homotopy_regime_yes_is_rechecked(monkeypatch):
    src, tgt = _rank_one_pair(t_torsion=1, u_torsion=1, whitehead_torsion=0)
    monkeypatch.setattr(
        degsets, "check_homotopy_condition", lambda *args: ConditionReport(False, (0,))
    )
    with pytest.raises(WitnessRejected):
        degree_realizable(src, tgt, 1)


def _unpruned_homotopy_verdict(source, target, k, cfg):
    # the full-witness loop the column check replaced
    filter_verdict, stream = solver.open_search(source.form, target.form, k, cfg)
    if filter_verdict is not None:
        return filter_verdict
    saw_witness = False
    try:
        for witness in stream:
            saw_witness = True
            report = check_homotopy_condition(
                source.form, source.homotopy_data, target.form, target.homotopy_data, witness, k
            )
            if report.ok:
                return Verdict.yes_checked(source.form, target.form, k, witness)
    except solver._OutOfBudget:
        return Verdict("unknown", budget_exhausted=True)
    if source.form.is_definite() and source.form.rank <= solver.DEFINITE_CAP:
        return Verdict.no(REASON_HOMOTOPY if saw_witness else REASON_EXHAUSTIVE)
    return Verdict("unknown", radius=cfg.radius)


def _random_definite_hc8(rng, model, rank):
    sign = rng.choice([1, -1])
    matrix = IntMatrix.diagonal([sign] * rank).transform_by(random_unimodular(rng, rank))
    data = [
        element(model, matrix[i, i], [rng.randrange(d) for d in model.torsion_orders])
        for i in range(rank)
    ]
    return manifold("D", 4, make_form(matrix, SYMMETRIC), True, True, model, data)


def test_column_pruning_matches_the_unpruned_witness_loop():
    # 300 random definite 8-manifold pairs with torsion in {2, 3, 5}: the
    # pruned search finds the same first witness, keeps every decided
    # verdict, and only ever gets further within the budget; the square
    # degrees 4 and 9 also try the scaled isometry m U first
    rng = random.Random(20260)
    cfg = SearchConfig(node_budget=200_000)
    kinds = []
    for _ in range(300):
        orders = rng.sample([2, 3, 5], rng.choice([1, 2]))
        model = pi_model(4, orders, [rng.randrange(d) for d in orders])
        m = rng.randrange(1, 5)
        src = _random_definite_hc8(rng, model, m)
        tgt = _random_definite_hc8(rng, model, rng.randrange(1, m + 1))
        k = rng.choice([1, 2, 3, 4, 5, 6, 9])
        ref = _unpruned_homotopy_verdict(src, tgt, k, cfg)
        new = degree_realizable(src, tgt, k, cfg)
        case = (src.form.matrix, tgt.form.matrix, src.homotopy_data, tgt.homotopy_data, k)
        kinds.append((ref.kind, new.kind))
        if ref.is_unknown:
            if new.is_no:
                assert new.reason == REASON_HOMOTOPY, case
            elif new.is_yes:
                # the budget now reaches further into the same candidate order
                assert _unpruned_homotopy_verdict(
                    src, tgt, k, SearchConfig(node_budget=50 * cfg.node_budget)
                ).witness == new.witness, case
            continue
        assert new.kind == ref.kind, case
        assert new.witness == ref.witness, case
        if ref.reason != REASON_EXHAUSTIVE:
            assert new.reason == ref.reason, case
    assert kinds.count(("yes", "yes")) >= 20
    assert kinds.count(("no", "no")) >= 150


@pytest.mark.parametrize("order, k, kind", [(3, 4, "yes"), (2, 4, "no"), (2, 9, "yes")])
def test_square_degree_self_map_failing_the_column_check_is_searched(order, k, kind):
    # m I solves the congruence, but for these data it fails the homotopy
    # check, so the column search decides: with the same first witness, or
    # the same HomotopyObstruction, as the unpruned witness loop
    model = pi_model(4, [order], [1])
    form = make_form(IntMatrix.identity(2), SYMMETRIC)
    data = [element(model, 1, [0]), element(model, 1, [1])]
    m8 = manifold("D", 4, form, True, True, model, data)
    m = 3 if k == 9 else 2
    scaled = IntMatrix.identity(2).scaled(m)
    assert not check_homotopy_condition(form, data, form, data, scaled, k).ok
    ref = _unpruned_homotopy_verdict(m8, m8, k, CFG)
    new = degree_realizable(m8, m8, k, CFG)
    assert (new.kind, new.witness, new.reason) == (ref.kind, ref.witness, ref.reason)
    assert new.kind == kind and new.witness != scaled
    if kind == "no":
        assert new.reason == REASON_HOMOTOPY


def _pushed_column_verdict(source, target, k):
    # the homotopy verdict with the column predicate as it was: pushed_column
    # on group elements, compared with the dataclass ==
    wanted = [pi_scale(k, u) for u in target.homotopy_data]
    rejected = []

    def accept(col, vec):
        ok = pushed_column(source.form.matrix, source.homotopy_data, source.pi, vec) == wanted[col]
        rejected.append(not ok)
        return ok

    verdict = solver.congruence_solve(source.form, target.form, k, None, accept)
    if any(rejected) and verdict.reason == REASON_EXHAUSTIVE:
        return Verdict.no(REASON_HOMOTOPY)
    return verdict


def _hc8(matrix, model, torsion):
    # an 8-manifold with Hopf invariants on the diagonal and the given torsion
    form = make_form(matrix, SYMMETRIC)
    data = [element(model, form.matrix[i, i], t) for i, t in enumerate(torsion)]
    return manifold("hc8", 4, form, True, True, model, data)


@pytest.mark.parametrize("order", [3, 5])
def test_degree_set_matches_the_pushed_column_search_on_hc8_pairs(order):
    # the obstructed benchmark shape: a scrambled I6 with zero torsion onto
    # I2 with nonzero torsion and torsion-free Whitehead square; and two
    # pairs with Yes answers, one definite and one indefinite (searched in
    # canonical coordinates)
    rng = random.Random(order)
    model = pi_model(4, [order], [0])
    i6 = IntMatrix.identity(6).transform_by(random_unimodular(rng, 6, steps=2, cap=2))
    obstructed = (
        _hc8(i6, model, [[0]] * 6),
        _hc8(IntMatrix.identity(2), model, [[rng.randrange(1, order)] for _ in range(2)]),
    )
    model = pi_model(4, [order], [1])
    definite = (
        _hc8(IntMatrix.identity(4), model, [[0], [1], [2], [0]]),
        _hc8(IntMatrix.identity(1), model, [[1]]),
    )
    u = IntMatrix.from_rows([[1, 1, 0], [0, 1, 1], [1, 1, 1]])
    i21 = IntMatrix.diagonal([1, 1, -1]).transform_by(u)
    indefinite = (
        _hc8(i21, model, [[0]] * 3),
        _hc8(IntMatrix.diagonal([1, -1]), model, [[0], [0]]),
    )
    reports = []
    for source, target in (obstructed, definite, indefinite):
        reports.append(degree_set(source, target, 2))
        for k in (-2, -1, 1, 2):
            new, ref = reports[-1].answer_for(k), _pushed_column_verdict(source, target, k)
            assert (new.kind, new.reason, new.witness) == (ref.kind, ref.reason, ref.witness), k
    assert reports[0].no_set == {-2, -1, 1, 2}
    assert {reports[0].answer_for(k).reason for k in (1, 2)} == {REASON_HOMOTOPY}
    assert 1 in reports[1].yes_set and reports[2].yes_set


def test_homotopy_regime_degree_one_between_scrambles_keeps_the_pruned_budget():
    # two scrambles of E8, the target's torsion out of the source's reach:
    # the pruned column search rejects the 240 vectors of norm 2 for the
    # first column and ends in a HomotopyObstruction within 240 nodes; an
    # unpruned k = 1 isometry search ahead of it spent 878 in all
    rng = random.Random(1)
    model = pi_model(4, [3], [0])
    e8 = IntMatrix.from_rows(E8_CARTAN)
    f, g = (e8.transform_by(random_unimodular(rng, 8, steps=1)) for _ in range(2))
    source, target = _hc8(f, model, [[0]] * 8), _hc8(g, model, [[1]] * 8)
    ans = degree_realizable(source, target, 1, SearchConfig(node_budget=500))
    assert ans.kind == "no" and ans.reason == REASON_HOMOTOPY


def test_budget_stopped_degree_set_row_names_the_budget():
    # I(3,3) onto H in odd degree has no fixed-block witness; T4 -> T4, the
    # old instance, passes its necessary conditions by blocks within the
    # same budget
    i33 = manifold("I33", 2, make_form(IntMatrix.diagonal([1, 1, 1, -1, -1, -1]), SYMMETRIC),
                   True, False)
    old = degree_set(preset("T4"), preset("T4"), 1, SearchConfig(node_budget=10))
    assert old.necessary_pass_set == {-1, 1}
    rep = degree_set(i33, preset("S2xS2"), 1, SearchConfig(node_budget=10))
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
