import itertools

import pytest

from degmap import solver
from degmap.catalog import (
    diag_form,
    hyperbolic_form,
    hyperbolic_matrix,
    hyperbolic_scaling_matrix,
    preset,
)
from degmap.cli import _verdict_text
from degmap.errors import (
    BudgetExceeded,
    SymmetryMismatch,
    WitnessRejected,
    ZeroK,
)
from degmap.intform import (
    ANTISYMMETRIC,
    SYMMETRIC,
    IntMatrix,
    block_diagonal,
    make_form,
    symmetric_elimination,
)
from degmap.solver import (
    SearchConfig,
    Verdict,
    brute_force_oracle,
    congruence_solve,
    verify_witness,
)
from degmap.solver import (
    _definite_solutions,
    _mod2_obstructed,
    _modq_unsolvable,
    _parity_obstructed,
    _signature_obstructed,
)

from conftest import random_antisymmetric_form, random_symmetric_form, random_unimodular

I1 = make_form(IntMatrix.identity(1), SYMMETRIC)
I2 = make_form(IntMatrix.identity(2), SYMMETRIC)
D = make_form(IntMatrix.diagonal([1, -1]), SYMMETRIC)
A1 = make_form(hyperbolic_matrix(1), SYMMETRIC)
A3 = make_form(hyperbolic_matrix(3), SYMMETRIC)


def feasible_bound(m, l, preferred=6, limit=2_000_000):
    for bound in range(preferred, 0, -1):
        if (2 * bound + 1) ** (m * l) <= limit:
            return bound
    return None


# ---------------------------------------------------------------------------
# worked instances
# ---------------------------------------------------------------------------


def test_diag_to_hyperbolic_even_degrees():
    v = congruence_solve(D, A1, 2)
    assert v.is_yes
    assert v.witness == IntMatrix.from_rows([[1, 1], [1, -1]])
    for k in (4, 6, -2, -8):
        assert congruence_solve(D, A1, k).is_yes


def test_diag_to_hyperbolic_odd_degrees_are_complete_nos():
    for k in (1, 3, -5, 7):
        v = congruence_solve(D, A1, k)
        assert v.is_no
        assert v.reason in ("ParityFilter", "Mod2Filter", "Mod4Filter", "ExhaustiveDefinite")


def test_diag_to_identity_never():
    for k in (1, -1, 2, -2, 3, 4):
        v = congruence_solve(D, I2, k)
        assert v.is_no, f"k={k}"
        assert v.reason == "SignatureFilter"


def test_identity_rank_one_squares():
    v = congruence_solve(I1, I1, 4)
    assert v.is_yes and v.witness == IntMatrix.from_rows([[2]])
    assert congruence_solve(I1, I1, 9).is_yes
    assert congruence_solve(I1, I1, 2).is_no
    assert congruence_solve(I1, I1, 3).is_no


def test_three_hyperbolic_planes_all_degrees():
    for k in range(-5, 6):
        if k == 0:
            continue
        v = congruence_solve(A3, A3, k)
        assert v.is_yes, f"k={k}: {v}"


def test_block_scaling_matrix_is_a_witness():
    for k in (-5, -1, 1, 2, 5):
        verify_witness(A3, A3, k, hyperbolic_scaling_matrix(3, k))


def test_empty_target_is_trivially_yes():
    from degmap.intform import empty_form

    v = congruence_solve(I2, empty_form(SYMMETRIC), 3)
    assert v.is_yes and v.witness.shape == (2, 0)


def test_rank_filter():
    v = congruence_solve(I1, I2, 1)
    assert v.is_no and v.reason == "RankFilter"


def test_parity_filter():
    # even source, odd target, odd degree
    v = congruence_solve(A1, I1, 1)
    assert v.is_no and v.reason == "ParityFilter"
    assert congruence_solve(A1, I1, 2).is_yes


def test_determinant_filter():
    # square case: k^rank * det(B) * det(A) must be a perfect square
    d3 = make_form(IntMatrix.diagonal([1, 1, -1]), SYMMETRIC)
    for k in (2, 3):
        v = congruence_solve(d3, d3, k)
        assert v.is_no and v.reason == "DeterminantFilter", f"k={k}"
    # negative k already fails the signature fit
    assert congruence_solve(d3, d3, -2).reason == "SignatureFilter"
    # even rank at k=2 carries no determinant obstruction: scaling the
    # identity pairing by 2 is realized by [[1,1],[1,-1]]
    v = congruence_solve(I2, I2, 2)
    assert v.is_yes and v.witness == IntMatrix.from_rows([[1, 1], [1, -1]])


def test_mod4_filter_catches_twice_a_square_gap():
    # x^2 - y^2 = 2 has no solution; squares differ by 2 only mod 4
    v = congruence_solve(D, I1, 2)
    assert v.is_no and v.reason == "Mod4Filter"
    o = brute_force_oracle(D, I1, 2, 6)
    assert o.kind == "no_within_bound"


def _block_sum_form(rng, rank):
    # a scrambled orthogonal sum of [1], [-1] and hyperbolic planes; even
    # ranks are all hyperbolic half of the time, so both parities occur
    even = rank % 2 == 0 and rng.random() < 0.5
    m = IntMatrix.zeros(0, 0)
    while m.rows < rank:
        blocks = [] if even else [[[1]], [[-1]]]
        blocks += [[[0, 1], [1, 0]]] if rank - m.rows >= 2 else []
        m = block_diagonal(m, IntMatrix.from_rows(rng.choice(blocks)))
    return make_form(m.transform_by(random_unimodular(rng, rank)), SYMMETRIC)


def test_mod2_classification_matches_exhaustive_search(rng, monkeypatch):
    # over F_2 a nondegenerate form is classified by rank and parity, so
    # the closed-form mod-2 filters decide exactly what the search decides
    monkeypatch.setattr(solver, "_MODQ_NODE_CAP", 10**9)
    obstructed = {"parity": 0, "mod2": 0, "none": 0}
    for _ in range(300):
        m = rng.randint(1, 5)
        l = m if rng.random() < 0.5 else rng.randint(1, m)
        if rng.random() < 0.2 and l % 2 == 0 and m % 2 == 0:
            a = random_antisymmetric_form(rng, m // 2)
            b = random_antisymmetric_form(rng, l // 2)
        else:
            a, b = _block_sum_form(rng, m), _block_sum_form(rng, l)
        k = rng.choice([-3, -2, -1, 1, 2, 3])
        parity, mod2 = _parity_obstructed(a, b, k), _mod2_obstructed(a, b, k)
        assert (parity or mod2) == _modq_unsolvable(a.matrix, b.matrix, k, 2), (
            a.matrix.to_rows(), b.matrix.to_rows(), k
        )
        obstructed["parity" if parity else "mod2" if mod2 else "none"] += 1
    assert min(obstructed.values()) >= 5, obstructed


@pytest.mark.parametrize("k", [1, 3])
@pytest.mark.parametrize("planes", [3, 4])
def test_mod2_filter_decides_odd_into_even_of_equal_rank(planes, k):
    # CP2#...#(-CP2) with `planes` of each sign has the rank and signature
    # of #planes(S2xS2); the exhaustive mod-2 search gave up on both shapes
    a = diag_form([1] * planes + [-1] * planes)
    v = congruence_solve(a, hyperbolic_form(planes), k, SearchConfig(node_budget=1_000_000))
    assert v.is_no and v.reason == "Mod2Filter"


def test_antisymmetric_solve():
    j1 = make_form(IntMatrix.from_rows([[0, 1], [-1, 0]]), ANTISYMMETRIC)
    v = congruence_solve(j1, j1, 3)
    assert v.is_yes
    assert v.witness.transpose() @ j1.matrix @ v.witness == j1.matrix.scaled(3)


def test_negative_definite_source():
    m1 = make_form(IntMatrix.diagonal([-1, -1]), SYMMETRIC)
    mt = make_form(IntMatrix.diagonal([-1]), SYMMETRIC)
    v = congruence_solve(m1, mt, 5)
    assert v.is_yes
    assert congruence_solve(m1, mt, -5).is_no


# ---------------------------------------------------------------------------
# errors and verdict hygiene
# ---------------------------------------------------------------------------


def test_zero_k_rejected():
    with pytest.raises(ZeroK):
        congruence_solve(I1, I1, 0)


def test_symmetry_mismatch_rejected():
    j1 = make_form(IntMatrix.from_rows([[0, 1], [-1, 0]]), ANTISYMMETRIC)
    with pytest.raises(SymmetryMismatch):
        congruence_solve(I2, j1, 1)


def test_yes_verdicts_verify_on_construction():
    with pytest.raises(WitnessRejected):
        Verdict.yes_checked(I2, I2, 1, IntMatrix.from_rows([[1, 0], [1, 1]]))
    with pytest.raises(WitnessRejected):
        Verdict.yes_checked(I2, I1, 1, IntMatrix.identity(2))


def test_budget_exhaustion_is_reported():
    cfg = SearchConfig(radius=8, node_budget=10)
    v = congruence_solve(A3, A3, 5, cfg)
    assert v.is_unknown and v.budget_exhausted
    assert v.radius is None
    assert _verdict_text(v) == "Unknown (node budget exhausted)"


def test_solver_is_deterministic():
    one = congruence_solve(D, A1, 6)
    two = congruence_solve(D, A1, 6)
    assert one.witness == two.witness


# ---------------------------------------------------------------------------
# the definite enumeration is complete
# ---------------------------------------------------------------------------


def random_posdef(rng, rank):
    while True:
        p = IntMatrix.from_rows(
            [[rng.randrange(-2, 3) for _ in range(rank)] for _ in range(rank)]
        )
        if p.det() != 0:
            return p.transpose() @ p


def test_definite_solutions_match_box_enumeration(rng):
    for _ in range(25):
        rank = rng.randrange(1, 4)
        gram = random_posdef(rng, rank)
        value = rng.randrange(0, 12)
        tri = symmetric_elimination(gram.to_rows())
        got = set(_definite_solutions(tri, value))
        for x in got:
            q = sum(x[i] * gram[i, j] * x[j] for i in range(rank) for j in range(rank))
            assert q == value
        box = set()
        for x in itertools.product(range(-6, 7), repeat=rank):
            q = sum(x[i] * gram[i, j] * x[j] for i in range(rank) for j in range(rank))
            if q == value:
                box.add(x)
        assert box <= got


E8_CARTAN = [
    [2, -1, 0, 0, 0, 0, 0, 0],
    [-1, 2, -1, 0, 0, 0, 0, 0],
    [0, -1, 2, -1, 0, 0, 0, 0],
    [0, 0, -1, 2, -1, 0, 0, 0],
    [0, 0, 0, -1, 2, -1, 0, -1],
    [0, 0, 0, 0, -1, 2, -1, 0],
    [0, 0, 0, 0, 0, -1, 2, 0],
    [0, 0, 0, 0, -1, 0, 0, 2],
]


def test_definite_solutions_give_the_e8_theta_series():
    # theta_E8 = 1 + 240 q + 2160 q^2 + 6720 q^3 + 17520 q^4 + ..., q counting x.T A x / 2
    tri = symmetric_elimination(E8_CARTAN)
    counts = [len(_definite_solutions(tri, value)) for value in range(9)]
    assert counts == [1, 0, 240, 0, 2160, 0, 6720, 0, 17520]


# ---------------------------------------------------------------------------
# oracle behaviour
# ---------------------------------------------------------------------------


def test_oracle_worked_examples():
    assert brute_force_oracle(I1, I1, 2, 3).kind == "no_within_bound"
    v = brute_force_oracle(I2, I1, 5, 2)
    assert v.is_yes
    p = v.witness
    assert sorted(abs(x) for x in p.entries()) == [1, 2]


def test_oracle_budget_precondition():
    with pytest.raises(BudgetExceeded):
        brute_force_oracle(A3, A3, 1, 6)


def test_oracle_agrees_with_solver_on_fixture_pairs():
    fixtures = [
        (D, A1, 2), (D, A1, 1), (D, A1, -3),
        (D, I2, 1), (D, I2, 2),
        (I2, A1, 1), (I2, A1, 2),
        (A1, I2, 2), (A1, D, 2), (A1, D, 3),
        (I1, I1, 4), (I2, I1, 5),
    ]
    for a, b, k in fixtures:
        bound = feasible_bound(a.rank, b.rank)
        solved = congruence_solve(a, b, k)
        oracle = brute_force_oracle(a, b, k, bound)
        if oracle.is_yes:
            assert solved.is_yes, (a.matrix.to_rows(), b.matrix.to_rows(), k)
        if solved.is_no:
            assert oracle.kind == "no_within_bound" or not oracle.is_yes
        assert not solved.is_unknown


# ---------------------------------------------------------------------------
# randomized soundness sweeps
# ---------------------------------------------------------------------------


def _random_pair(rng):
    m = rng.randrange(1, 4)
    l = rng.randrange(1, m + 1)
    return random_symmetric_form(rng, m), random_symmetric_form(rng, l)


def test_signature_filter_agrees_with_oracle(rng):
    """Validation gate for the subspace-signature argument.

    The filter claims: P.T A P = k B forces the signature of k*B to fit
    inside the signature of A.  On every random instance where it fires,
    the brute-force oracle must find no witness.
    """
    fired = 0
    trials = 0
    while fired < 120 and trials < 4000:
        trials += 1
        a, b = _random_pair(rng)
        k = rng.choice([x for x in range(-4, 5) if x])
        if not _signature_obstructed(a, b, k):
            continue
        fired += 1
        bound = feasible_bound(a.rank, b.rank, limit=150_000)
        oracle = brute_force_oracle(a, b, k, bound)
        assert oracle.kind == "no_within_bound", (
            a.matrix.to_rows(), b.matrix.to_rows(), k,
        )
    assert fired >= 120


def test_any_filter_no_is_never_contradicted(rng):
    fired = 0
    for _ in range(1000):
        a, b = _random_pair(rng)
        k = rng.choice([x for x in range(-4, 5) if x])
        v = congruence_solve(a, b, k)
        if not v.is_no:
            continue
        fired += 1
        bound = feasible_bound(a.rank, b.rank, limit=120_000)
        oracle = brute_force_oracle(a, b, k, bound)
        assert oracle.kind == "no_within_bound", (
            a.matrix.to_rows(), b.matrix.to_rows(), k, v.reason,
        )
    assert fired > 200


def test_solver_finds_planted_witnesses(rng):
    for _ in range(300):
        m = rng.randrange(1, 4)
        l = rng.randrange(1, m + 1)
        a = random_symmetric_form(rng, m)
        p = IntMatrix.from_rows([[rng.randrange(-2, 3) for _ in range(l)] for _ in range(m)])
        k = rng.choice([1, -1, 2, -2, 3, 4])
        g = p.transpose() @ a.matrix @ p
        if any(x % k for x in g.entries()):
            continue
        b_matrix = IntMatrix(l, l, [x // k for x in g.entries()])
        if b_matrix.det() not in (1, -1):
            continue
        b = make_form(b_matrix, SYMMETRIC)
        v = congruence_solve(a, b, k)
        assert v.is_yes, (a.matrix.to_rows(), b_matrix.to_rows(), k)


def test_no_unknowns_on_random_small_instances(rng):
    for _ in range(400):
        a, b = _random_pair(rng)
        k = rng.choice([x for x in range(-4, 5) if x])
        v = congruence_solve(a, b, k)
        assert not v.is_unknown, (a.matrix.to_rows(), b.matrix.to_rows(), k)


def test_odd_rank_self_congruences_have_square_degrees(rng):
    for _ in range(200):
        rank = rng.choice([1, 3])
        a = random_symmetric_form(rng, rank)
        k = rng.choice([x for x in range(-4, 5) if x])
        v = congruence_solve(a, a, k)
        if v.is_yes:
            root = round(abs(k) ** 0.5)
            assert k >= 0 and root * root == k, (a.matrix.to_rows(), k)


def test_catalog_pairs_never_contradict_oracle():
    # every ordered pair of small catalog forms, every degree up to 4:
    # the solver must be decisive and consistent with brute force
    forms = [
        preset(name).form
        for name in ("CP2", "minusCP2", "S2xS2", "CP2#CP2", "CP2#(-CP2)", "#2(S2xS2)")
    ]
    for a in forms:
        for b in forms:
            for k in range(-4, 5):
                if k == 0:
                    continue
                v = congruence_solve(a, b, k)
                assert not v.is_unknown, (a.matrix.to_rows(), b.matrix.to_rows(), k)
                bound = feasible_bound(a.rank, b.rank, limit=400_000)
                if bound is None:
                    continue
                oracle = brute_force_oracle(a, b, k, bound)
                if oracle.is_yes:
                    assert v.is_yes, (a.matrix.to_rows(), b.matrix.to_rows(), k)
                if v.is_yes and max(abs(x) for x in v.witness.entries()) <= bound:
                    assert oracle.is_yes


def test_antisymmetric_random_agreement(rng):
    for _ in range(60):
        a = random_antisymmetric_form(rng, rng.randrange(1, 3))
        b = random_antisymmetric_form(rng, 1)
        k = rng.choice([x for x in range(-3, 4) if x])
        v = congruence_solve(a, b, k)
        bound = feasible_bound(a.rank, b.rank, limit=150_000)
        if bound is None:
            continue
        oracle = brute_force_oracle(a, b, k, bound)
        if oracle.is_yes:
            assert v.is_yes
        if v.is_no:
            assert oracle.kind == "no_within_bound"
