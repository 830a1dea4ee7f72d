import collections
import contextlib
import gc
import io
import itertools
import math
import random
from pathlib import Path

import numpy as np
import pytest

from degmap import intform, solver
from degmap.catalog import (
    diag_form,
    hyperbolic_form,
    hyperbolic_matrix,
    hyperbolic_scaling_matrix,
    preset,
)
from degmap.cli import _verdict_text, build_parser, main
from degmap.errors import (
    ShapeMismatch,
    SymmetryMismatch,
    WitnessRejected,
    ZeroK,
)
from degmap.canonical import block_witness, canonical_basis, canonical_matrix
from degmap.intform import (
    ANTISYMMETRIC,
    PARITY_EVEN,
    PARITY_ODD,
    SYMMETRIC,
    IntMatrix,
    block_diagonal,
    make_form,
    parse_matrix_text,
    standard_symplectic_matrix,
    symmetric_elimination,
    symplectic_basis_transform,
    transform_form,
)
from degmap.solver import (
    DEFAULT_CONFIG,
    SearchConfig,
    Verdict,
    congruence_solve,
    isomorphic,
    verify_witness,
)
from degmap.solver import (
    _backtrack,
    _box_candidates,
    _definite_solutions,
    _determinant_obstructed,
    _hasse_invariant,
    _hasse_obstructed,
    _hilbert,
    _local_primes,
    _mod2_obstructed,
    _modq_unsolvable,
    _parity_obstructed,
    _rational_diagonal,
    _signature_obstructed,
)

from conftest import E8_CARTAN, random_antisymmetric_form, random_symmetric_form, random_unimodular
from oracle import OracleTooLarge, _oracle_numpy, _oracle_python, brute_force_oracle

I1 = make_form(IntMatrix.identity(1), SYMMETRIC)
I2 = make_form(IntMatrix.identity(2), SYMMETRIC)
D = make_form(IntMatrix.diagonal([1, -1]), SYMMETRIC)
A1 = make_form(hyperbolic_matrix(1), SYMMETRIC)
E8 = make_form(IntMatrix.from_rows(E8_CARTAN), SYMMETRIC)
FIXTURES = Path(__file__).parent / "fixtures"
A3 = make_form(hyperbolic_matrix(3), SYMMETRIC)
I33 = make_form(IntMatrix.diagonal([1, 1, 1, -1, -1, -1]), SYMMETRIC)


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
    # x^2 - y^2 = 2 has no solution; squares differ by 2 only mod 4.  It
    # has rational ones, so no earlier filter, the Hasse filter included,
    # sees this, nor x^2 - y^2 = +-2 or +-6
    v = congruence_solve(D, I1, 2)
    assert v.is_no and v.reason == "Mod4Filter"
    assert brute_force_oracle(D, I1, 2, 6) is None
    for b in (I1, make_form(IntMatrix.diagonal([-1]), SYMMETRIC)):
        for k in (-6, -2, 2, 6):
            assert solver._prefilter(D, b, k) == Verdict.no("Mod4Filter"), (b, k)


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


def _random_small_pair(rng):
    # rank <= 5, symmetric block sums or (a fifth of the even shapes)
    # antisymmetric forms
    m = rng.randint(1, 5)
    l = m if rng.random() < 0.5 else rng.randint(1, m)
    if rng.random() < 0.2 and l % 2 == 0 and m % 2 == 0:
        return random_antisymmetric_form(rng, m // 2), random_antisymmetric_form(rng, l // 2)
    return _block_sum_form(rng, m), _block_sum_form(rng, l)


def test_mod2_classification_matches_exhaustive_search(rng):
    # over F_2 a nondegenerate form is classified by rank and parity, so
    # the closed-form mod-2 filters decide exactly what the search decides
    obstructed = {"parity": 0, "mod2": 0, "none": 0}
    for _ in range(300):
        a, b = _random_small_pair(rng)
        k = rng.choice([-3, -2, -1, 1, 2, 3])
        parity, mod2 = _parity_obstructed(a, b, k), _mod2_obstructed(a, b, k)
        assert (parity or mod2) is _reference_modq(a.matrix, b.matrix, k, 2, cap=10**9), (
            a.matrix.to_rows(), b.matrix.to_rows(), k
        )
        obstructed["parity" if parity else "mod2" if mod2 else "none"] += 1
    assert min(obstructed.values()) >= 5, obstructed


def test_determinant_filter_from_signatures_matches_det():
    # a unimodular symmetric form has det (-1)^n_minus and an antisymmetric
    # one det 1, so the signature formula must agree with det() everywhere
    rng = random.Random(7)
    fired = 0
    for _ in range(3000):
        a, b = _random_small_pair(rng)
        k = rng.choice([x for x in range(-6, 7) if x])
        v = k ** b.rank * a.matrix.det() * b.matrix.det()
        reference = a.rank == b.rank and not (v >= 0 and math.isqrt(v) ** 2 == v)
        got = a.symmetry == SYMMETRIC and _determinant_obstructed(a, b, k)
        assert got == reference, (a.matrix.to_rows(), b.matrix.to_rows(), k)
        fired += got
    assert fired >= 1000, fired


@pytest.mark.parametrize("k", [1, 3])
@pytest.mark.parametrize("planes", [3, 4])
def test_mod2_filter_decides_odd_into_even_of_equal_rank(planes, k):
    # CP2#...#(-CP2) with `planes` of each sign has the rank and signature
    # of #planes(S2xS2); the exhaustive mod-2 search gave up on both shapes
    a = diag_form([1] * planes + [-1] * planes)
    v = congruence_solve(a, hyperbolic_form(planes), k, SearchConfig(node_budget=1_000_000))
    assert v.is_no and v.reason == "Mod2Filter"


# Node cap of the reference search: one unit per examined vector.
_REFERENCE_CAP = 200_000


def _reference_modq(a, b, k, q, cap=_REFERENCE_CAP):
    """Whether P.T A P == k B has no solution mod q, by exhaustive search.

    A per-candidate scan of (Z/q)^m, column by column, charged one unit per
    examined vector.  Returns True or False, or None when the cap runs out
    first; kept as the reference for the closed forms mod 2 and mod 4.
    """
    m, l = a.rows, b.rows
    arows = [tuple(x % q for x in a.row(i)) for i in range(m)]
    targets = [[(k * b[i, j]) % q for j in range(l)] for i in range(l)]
    vectors = list(itertools.product(range(q), repeat=m))
    # every entry is below q, so the int64 quadratic values are exact
    grid = np.array(vectors, dtype=np.int64).reshape(len(vectors), m)
    gram = np.array(arows, dtype=np.int64).reshape(m, m)
    qvals = (((grid @ gram) * grid).sum(axis=1) % q).tolist()
    budget = solver._Budget(cap)

    def candidates(col, lin):
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

    def pairing_row(vec):
        return tuple(
            sum(vec[s] * arows[s][t] for s in range(m)) % q for t in range(m)
        )

    try:
        return next(solver._backtrack(range(l), targets, candidates, pairing_row), None) is None
    except solver._OutOfBudget:
        return None


def test_mod4_classification_matches_exhaustive_search():
    # over Z/4 a unimodular form is determined by its rank, parity and
    # signature mod 8, so the closed form decides exactly what the search
    # decides wherever the search finishes within its cap
    rng = random.Random(14)
    seen = {True: 0, False: 0, None: 0}
    for _ in range(3000):
        a, b = _random_small_pair(rng)
        k = rng.choice([x for x in range(-8, 9) if x])
        expected = _reference_modq(a.matrix, b.matrix, k, 4, cap=5_000)
        seen[expected] += 1
        if expected is not None:
            assert _modq_unsolvable(a, b, k) == expected, (
                a.matrix.to_rows(), b.matrix.to_rows(), k
            )
    assert seen[True] >= 20 and seen[False] >= 20, seen


@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize(
    "a", [diag_form([1, 1, 1, -1, -1, -1]), hyperbolic_form(3)], ids=["I(3,3)", "H^3"]
)
def test_table_driven_modq_matches_on_rank_six(a, k):
    # named after the table-driven search that the closed form replaced
    expected = _reference_modq(a.matrix, a.matrix, k, 4)
    assert expected is not None
    assert _modq_unsolvable(a, a, k) == expected


def test_mod4_filter_nos_are_never_contradicted():
    # every pair of rank <= 8 that the closed form obstructs has no witness
    # in the oracle's box and none in a radius-4 search that skips the
    # filters
    rng = random.Random(8)
    counts = {"fired": 0, "oracle": 0, "search": 0}
    for _ in range(800):
        m = rng.randint(1, 8)
        a, b = _block_sum_form(rng, m), _block_sum_form(rng, rng.randint(1, m))
        k = rng.choice([x for x in range(-8, 9) if x])
        if not _modq_unsolvable(a, b, k):
            continue
        counts["fired"] += 1
        bound = feasible_bound(a.rank, b.rank, limit=20_000)
        if bound is not None:
            counts["oracle"] += 1
            assert brute_force_oracle(a, b, k, bound) is None, (
                a.matrix.to_rows(), b.matrix.to_rows(), k
            )
        stream = solver._witness_stream(a, b, k, SearchConfig(radius=4, node_budget=3_000), None)
        try:
            witness = next(stream, None)
        except solver._OutOfBudget:
            continue
        counts["search"] += 1
        assert witness is None, (a.matrix.to_rows(), b.matrix.to_rows(), k)
    assert counts["fired"] >= 150 and counts["oracle"] >= 100 and counts["search"] >= 100, counts


# ---------------------------------------------------------------------------
# the local (Hasse) filter
# ---------------------------------------------------------------------------


def test_hilbert_symbol_known_values():
    assert _hilbert(-1, -1, 2) == -1
    assert _hilbert(2, 2, 2) == 1
    assert _hilbert(3, 3, 3) == -1
    assert _hilbert(2, 3, 3) == -1
    assert _hilbert(-1, -1, 3) == 1
    assert _hilbert(5, 5, 5) == 1
    assert _hilbert(7, 7, 7) == -1


def test_hilbert_symbol_is_symmetric_and_satisfies_reciprocity():
    # (a, b)_inf is -1 iff a, b < 0, and the product over all places is 1
    # (Serre, ch. III, Thm 3); an odd prime not dividing ab gives 1
    primes = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
    values = [x for x in range(-30, 31) if x]
    for a in values:
        for b in values:
            symbols = [_hilbert(a, b, p) for p in primes]
            assert symbols == [_hilbert(b, a, p) for p in primes], (a, b)
            real = -1 if a < 0 and b < 0 else 1
            assert real * math.prod(symbols) == 1, (a, b)
            assert all(s == 1 for p, s in zip(primes, symbols) if p > 2 and a * b % p), (a, b)


def test_hasse_invariant_is_a_basis_invariant():
    # the pivots of any basis give a diagonal with the same Hasse invariant
    rng = random.Random(11)
    for _ in range(60):
        f = _block_sum_form(rng, rng.randint(1, 6))
        g = make_form(f.matrix.transform_by(random_unimodular(rng, f.rank)), SYMMETRIC)
        for p in (2, 3, 5, 7):
            assert _hasse_invariant(_rational_diagonal(f), p) == _hasse_invariant(
                _rational_diagonal(g), p
            ), (f.matrix.to_rows(), g.matrix.to_rows(), p)


def test_local_primes_come_from_bounded_trial_division():
    assert _local_primes(1) == [2]
    assert _local_primes(-360) == [2, 3, 5]
    assert _local_primes(3 * 65537) == [2, 3, 65537]  # a prime cofactor below the cap's square
    p, q = 1_000_000_000_000_037, 1_000_000_000_000_091
    assert _local_primes(3 * p * q) == [2, 3]  # the unfactored cofactor is skipped


@pytest.mark.parametrize("k, reason", [(3, "HasseFilter"), (7, "HasseFilter"), (5, None)])
def test_hasse_filter_decides_sums_of_six_squares(k, reason):
    # 3 I_6 and 7 I_6 differ from I_6 in their Hasse invariant at 2 and at k;
    # 5 = 1 + 4 is a sum of two squares, so 5 I_6 embeds in I_6
    i6 = make_form(IntMatrix.identity(6), SYMMETRIC)
    assert solver._prefilter(i6, i6, k) == (Verdict.no(reason) if reason else None)
    v = congruence_solve(i6, i6, k, SearchConfig(node_budget=50_000))
    assert v.reason == reason and (v.is_no if reason else v.is_yes)


def test_hasse_filter_nos_are_never_contradicted():
    # every pair the filter obstructs has no witness in the oracle's box and
    # none in a radius-4 search (complete for definite sources) that skips
    # the filters; some of them are left open by every earlier filter
    rng = random.Random(7)
    counts = {"fired": 0, "beyond": 0, "oracle": 0, "search": 0}
    for _ in range(1400):
        a, b = _random_small_pair(rng)
        k = rng.choice([x for x in range(-6, 7) if x])
        if a.symmetry != SYMMETRIC or not _hasse_obstructed(a, b, k):
            continue
        counts["fired"] += 1
        counts["beyond"] += solver._prefilter(a, b, k).reason == solver.REASON_HASSE
        bound = feasible_bound(a.rank, b.rank, limit=20_000)
        if bound is not None:
            counts["oracle"] += 1
            assert brute_force_oracle(a, b, k, bound) is None, (
                a.matrix.to_rows(), b.matrix.to_rows(), k
            )
        stream = solver._witness_stream(a, b, k, SearchConfig(radius=4, node_budget=3_000), None)
        try:
            witness = next(stream, None)
        except solver._OutOfBudget:
            continue
        counts["search"] += 1
        assert witness is None, (a.matrix.to_rows(), b.matrix.to_rows(), k)
    assert counts["fired"] >= 500 and counts["beyond"] >= 3, counts
    assert counts["oracle"] >= 300 and counts["search"] >= 300, counts


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
    v = congruence_solve(I33, I33, 2, cfg)
    assert v.is_unknown and v.budget_exhausted
    assert v.radius is None
    assert _verdict_text(v) == "Unknown (node budget exhausted)"
    # the old instance, H^3 at k = 5, is a fixed-block Yes within this budget
    assert congruence_solve(A3, A3, 5, cfg).witness == hyperbolic_scaling_matrix(3, 5)


def test_accept_predicate_maps_to_each_verdict():
    # a predicate rejecting every column leaves no witness: a complete
    # enumeration proves No, a box search ends at its radius, and a budget
    # that runs out first is named as such
    seen = []

    def reject(col, vec):
        seen.append((col, vec))
        return False

    v = congruence_solve(I2, I1, 1, accept=reject)
    assert v.is_no and v.reason == solver.REASON_EXHAUSTIVE
    assert sorted(seen) == [(0, (-1, 0)), (0, (0, -1)), (0, (0, 1)), (0, (1, 0))]
    assert congruence_solve(I2, I1, 1).is_yes

    v = congruence_solve(A1, A1, 1, SearchConfig(radius=3), reject)
    assert v.is_unknown and v.radius == 3 and not v.budget_exhausted

    v = congruence_solve(I2, I1, 1, SearchConfig(node_budget=1), reject)
    assert v.is_unknown and v.budget_exhausted and v.radius is None
    assert congruence_solve(I2, I1, 1, SearchConfig(node_budget=1)).is_yes


def test_searches_leave_no_reference_cycles():
    # a search's recursive closures must not keep its candidate lists alive
    # until the next cyclic collection: with the collector off, definite,
    # box, level and budget-stopped searches, the scaled isometry, the
    # mod-4 filter and a whole CLI call leave no garbage; the parser, whose
    # construction leaves argparse formatter cycles, is built once per
    # process beforehand
    build_parser()
    gc.collect()
    gc.disable()
    try:
        assert congruence_solve(I2, I1, 5).is_yes
        assert congruence_solve(I2, I1, 5, accept=lambda col, vec: False).is_no
        assert congruence_solve(A3, A3, 5).is_yes
        assert congruence_solve(I33, I33, 2, SearchConfig(node_budget=10)).budget_exhausted
        assert not _modq_unsolvable(A3, A3, 5)
        # canonical_basis and the level source, to a witness, to the end of
        # every level, and stopped by the budget
        i21 = make_form(IntMatrix.from_rows([[1, 2, 0], [2, 3, 0], [0, 0, 1]]), SYMMETRIC)
        assert congruence_solve(i21, i21, 1).is_yes
        assert congruence_solve(i21, i21, 1, SearchConfig(radius=2), lambda c, v: False).radius == 2
        assert congruence_solve(i21, D, 2, SearchConfig(node_budget=3)).budget_exhausted
        # the scaled isometry: 2 I at once, and a definite k = 1 search to
        # an isometry and stopped by the budget
        two = IntMatrix.identity(3).scaled(2)
        assert congruence_solve(i21, i21, 4, SearchConfig(node_budget=3)).witness == two
        e8s = make_form(E8.matrix.transform_by(random_unimodular(random.Random(8), 8)), SYMMETRIC)
        assert congruence_solve(e8s, E8, 4).is_yes
        assert congruence_solve(e8s, E8, 4, SearchConfig(node_budget=5)).budget_exhausted
        # fixed blocks, on canonical forms and through both canonical bases
        assert congruence_solve(A3, A3, 5, SearchConfig(node_budget=10)).is_yes
        rng16 = random.Random(16)
        i21s = transform_form(make_form(IntMatrix.diagonal([1, 1, -1]), SYMMETRIC),
                              random_unimodular(rng16, 3))
        assert congruence_solve(transform_form(I33, random_unimodular(rng16, 6)), i21s, -3).is_yes
        # a whole CLI call with JSON output
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(["deg1", "--M", f"@{FIXTURES}/h-i11.mat", "--L", "S2xS2", "--json"]) == 0
        assert gc.collect() == 0
    finally:
        gc.enable()


def _random_canonical_source(rng):
    """(pos, neg, hyperbolic, matrix) of a random I(p, q) or H^a, p + q <= 5."""
    if rng.random() < 0.5:
        a = rng.randrange(1, 3)
        return a, a, True, canonical_matrix(a, a, PARITY_EVEN)
    n = rng.randrange(2, 6)
    pos = rng.randrange(1, n)
    return pos, n - pos, False, canonical_matrix(pos, n - pos, PARITY_ODD)


def test_level_source_matches_box_source():
    # the same vectors within max-norm r, with the linear constraints that
    # up to two placed columns impose, drawn so that the set is mostly nonempty
    rng = random.Random(19)
    budget = solver._Budget(10**9)
    sizes = []
    for _ in range(150):
        pos, neg, hyperbolic, c = _random_canonical_source(rng)
        rows, n = c.to_rows(), c.rows
        radius = rng.randrange(1, 4)
        x0 = [rng.randrange(-radius, radius + 1) for _ in range(n)]
        t = sum(x0[i] * rows[i][j] * x0[j] for i in range(n) for j in range(n))
        lin = []
        for _ in range(rng.randrange(3)):
            y = [rng.randrange(-radius, radius + 1) for _ in range(n)]
            crow = [sum(y[i] * rows[i][j] for i in range(n)) for j in range(n)]
            lin.append((crow, sum(a * b for a, b in zip(crow, x0)) + rng.choice([0, 0, 0, 1])))
        levels = (pos, neg, hyperbolic, solver._unit_solutions)
        box = list(_box_candidates(rows, radius, t, lin, budget))
        level = list(_box_candidates(rows, radius, t, lin, budget, levels))
        assert len(set(level)) == len(level) and set(level) == set(box), (c, radius, t, lin)
        sizes.append(len(box))
    assert sum(1 for x in sizes if x) >= 100, sizes


def test_level_source_gives_the_box_witnesses_column_by_column():
    # every witness of a two-column target, through the backtracker
    rng = random.Random(23)
    for _ in range(12):
        pos, neg, hyperbolic, c = _random_canonical_source(rng)
        if c.rows > 3:
            continue
        rows, n = c.to_rows(), c.rows
        target = [[rng.randrange(-2, 3) for _ in range(2)] for _ in range(2)]
        target[1][0] = target[0][1]
        budget = solver._Budget(10**9)

        def pairing_row(x):
            return tuple(sum(x[i] * rows[i][j] for i in range(n)) for j in range(n))

        def witnesses(candidates):
            stream = _backtrack([0, 1], target, candidates, pairing_row)
            return {tuple(cols) for cols in stream}

        levels = (pos, neg, hyperbolic, solver._unit_solutions)
        box = witnesses(lambda col, lin: _box_candidates(rows, 2, target[col][col], lin, budget))
        level = witnesses(lambda col, lin: _box_candidates(
            rows, 2, target[col][col], lin, budget, levels))
        assert level == box, (c, target)


def test_indefinite_witness_is_mapped_back_from_canonical_coordinates(rng):
    # a scrambled source: the search runs in canonical coordinates and the
    # returned witness is checked against the source as given
    base = make_form(IntMatrix.diagonal([1, 1, 1, -1, -1, -1]), SYMMETRIC)
    for k in (1, -2, 5):
        a = transform_form(base, random_unimodular(rng, 6))
        b = make_form(IntMatrix.diagonal([1, 1, -1]), SYMMETRIC)
        v = congruence_solve(a, b, k, SearchConfig(node_budget=200_000))
        assert v.is_yes
        verify_witness(a, b, k, v.witness)


# ---------------------------------------------------------------------------
# the scaled isometry m U
# ---------------------------------------------------------------------------


def _count_calls(monkeypatch, name):
    """Record the arguments of every call of solver.<name> from now on."""
    calls = []
    fn = getattr(solver, name)

    def counted(*args):
        calls.append(args)
        return fn(*args)

    monkeypatch.setattr(solver, name, counted)
    return calls


def _unscaled(witness, m):
    """U with witness == m U; fails when an entry is not a multiple of m."""
    assert all(x % m == 0 for x in witness.entries()), witness
    return IntMatrix.from_rows([[x // m for x in row] for row in witness.to_rows()])


@pytest.mark.parametrize(
    "form, k", [(E8, 4), (E8, 9), (make_form(IntMatrix.identity(10), SYMMETRIC), 4)]
)
def test_square_degree_self_maps_are_m_times_the_identity(monkeypatch, form, k):
    # the paper's m * id, before any enumeration: E8 -> E8 at k = 9 used to
    # enumerate all 181,680 vectors of norm 18
    calls = _count_calls(monkeypatch, "_definite_solutions")
    v = congruence_solve(form, form, k)
    assert v.is_yes and v.witness == IntMatrix.identity(form.rank).scaled(math.isqrt(k))
    assert calls == []


def test_scrambled_definite_sources_get_a_scaled_isometry(monkeypatch):
    # the complete k = 1 search finds U with U.T A U == B; it enumerates
    # vectors of the norms on B's diagonal only, never k times them
    calls = _count_calls(monkeypatch, "_definite_solutions")
    rng = random.Random(1505)
    targets = [E8] * 3 + [make_form(IntMatrix.identity(n), SYMMETRIC) for n in range(2, 11)]
    for b in targets:
        a = make_form(b.matrix.transform_by(random_unimodular(rng, b.rank)), SYMMETRIC)
        for m in (2, 3):
            v = congruence_solve(a, b, m * m)
            u = _unscaled(v.witness, m)
            assert u.transpose() @ a.matrix @ u == b.matrix, (a.matrix, m)
    assert calls and max(value for _, value in calls) <= 2


def test_scrambled_indefinite_forms_get_the_canonical_isometry(monkeypatch):
    # U_A U_B^-1 from the two canonical bases, without a box or level search
    calls = _count_calls(monkeypatch, "_box_candidates")
    rng = random.Random(1506)
    bases = [IntMatrix.diagonal(d) for d in ([1, -1, -1], [1, 1, -1, -1], [1, 1, 1, -1, -1])]
    bases += [hyperbolic_matrix(copies) for copies in (1, 2, 3)]
    for base in bases:
        for _ in range(3):
            a, b = (
                make_form(base.transform_by(random_unimodular(rng, base.rows)), SYMMETRIC)
                for _ in range(2)
            )
            v = congruence_solve(a, b, 4)
            u_a, u_b = canonical_basis(a), canonical_basis(b)
            assert u_a is not None and u_b is not None
            assert v.witness == (u_a @ u_b.inverse_unimodular()).scaled(2)
    assert calls == []


def test_definite_isometry_search_is_charged_to_the_query_budget():
    # the k = 1 search runs under the query's own budget, so --budget still
    # bounds the whole query; E8 -> E8 needs at least one node per column
    e8s = make_form(E8.matrix.transform_by(random_unimodular(random.Random(9), 8)), SYMMETRIC)
    with pytest.raises(solver._OutOfBudget):
        solver._scaled_isometry(e8s, E8, 4, DEFAULT_CONFIG, solver._Budget(5))
    v = congruence_solve(e8s, E8, 4, SearchConfig(node_budget=5))
    assert v.is_unknown and v.budget_exhausted
    assert congruence_solve(e8s, E8, 4).is_yes


@pytest.mark.parametrize("n", [9, 10, 11, 12])
def test_definite_isometry_search_skips_forms_with_other_unit_vectors(n):
    # I_n and E8 + I_(n-8) share rank, parity and signature but not their
    # vectors of norm 1; the k = 1 search between them would exhaust a
    # large tree (I9 -> E8 + I1 ran out a budget of 2,000,000 nodes)
    # where the column search finds a Yes
    i_n = make_form(IntMatrix.identity(n), SYMMETRIC)
    e8_i = make_form(block_diagonal(E8.matrix, IntMatrix.identity(n - 8)), SYMMETRIC)
    for a, b in ((i_n, e8_i), (e8_i, i_n)):
        budget = solver._Budget(100)
        assert solver._scaled_isometry(a, b, 4, DEFAULT_CONFIG, budget) is None
        assert budget.remaining == 100
    if n == 9:
        assert congruence_solve(i_n, e8_i, 4, SearchConfig(node_budget=200_000)).is_yes


def test_scaled_isometry_keeps_every_no():
    # with the step and without it, on the same pairs: every No keeps its
    # reason, every Yes stays a Yes, and an Unknown can only become a Yes,
    # because m U reaches beyond the search's radius or budget; m U_A U_B^-1
    # between indefinite forms now comes from the fixed blocks, so both
    # constructions are switched off together
    rng = random.Random(1507)
    cfg = SearchConfig(radius=3, node_budget=20_000)
    cases = []
    for _ in range(300):
        a, b = _random_small_pair(rng)
        k = rng.choice([-9, -4, 4, 9])
        cases.append((a, b, k, congruence_solve(a, b, k, cfg)))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(solver, "_scaled_isometry", lambda *args: None)
        mp.setattr(solver, "_block_witness", lambda *args: None)
        before = [congruence_solve(a, b, k, cfg) for a, b, k, _ in cases]
    kinds = collections.Counter()
    for (a, b, k, new), old in zip(cases, before):
        case = (a.matrix, b.matrix, k)
        kinds[old.kind, new.kind] += 1
        if old.is_unknown and new.is_yes:
            continue
        assert new.kind == old.kind and new.reason == old.reason, case
    assert kinds["no", "no"] >= 100 and kinds["yes", "yes"] >= 50
    assert kinds["unknown", "yes"] > 0


# ---------------------------------------------------------------------------
# isomorphism as the degree-1 congruence, through one isometry routine
# ---------------------------------------------------------------------------


def _e8_plus_identity(n):
    return make_form(block_diagonal(E8.matrix, IntMatrix.identity(n - 8)), SYMMETRIC)


def _fixture_form(name):
    return make_form(parse_matrix_text((FIXTURES / name).read_text()), SYMMETRIC)


@pytest.mark.parametrize("n", [9, 10, 11, 12])
def test_theta_filter_separates_i_n_from_e8_plus_i_in_degree_one(monkeypatch, n):
    # 2n vectors of norm 1 against 2(n - 8): a complete No before any
    # search node, where the k = 1 search between them ran out its budget;
    # the only enumerations are the counts of vectors of norm 1, one per
    # form object: I_n, E8 + I_(n-8) and their negatives
    calls = _count_calls(monkeypatch, "_definite_solutions")
    i_n = make_form(IntMatrix.identity(n), SYMMETRIC)
    e8_i = _e8_plus_identity(n)
    for a, b in ((i_n, e8_i), (e8_i, i_n)):
        for b_signed, k in ((b, 1), (make_form(-b.matrix, SYMMETRIC), -1)):
            v = congruence_solve(a, b_signed, k, SearchConfig(node_budget=1))
            assert v.is_no and v.reason == solver.REASON_THETA, (n, k)
    assert len(calls) == 4 and all(value == 1 for _, value in calls)


def test_theta_filter_never_denies_a_change_of_basis():
    # a change of basis keeps the vectors of norm +-1, so two scrambles of
    # one base pass every filter in degree +-1
    rng = random.Random(1901)
    bases = [make_form(IntMatrix.identity(n), SYMMETRIC) for n in (1, 4, 9, 12)]
    bases += [E8, _e8_plus_identity(9), _e8_plus_identity(12)]
    for base in bases:
        for _ in range(3):
            f, g = (transform_form(base, random_unimodular(rng, base.rank, steps=2))
                    for _ in range(2))
            assert solver._prefilter(f, g, 1) is None, (f.matrix, g.matrix)
            assert solver._prefilter(f, make_form(-g.matrix, SYMMETRIC), -1) is None


def test_definite_isometries_onto_scrambled_targets_are_found_at_once(monkeypatch):
    # the k = 1 search runs onto the form with the smaller diagonal and
    # inverts its witness, so it enumerates vectors of norm at most 2;
    # run onto the scrambled target, these ended Unknown after seconds or
    # did not end within a minute
    calls = _count_calls(monkeypatch, "_definite_solutions")
    cfg = SearchConfig(node_budget=20_000)
    i9, i9s = _fixture_form("I9.mat"), _fixture_form("I9-scrambled.mat")
    e8_i4 = _e8_plus_identity(12)
    cases = [(i9, i9s, 1), (i9, i9s, 4)]
    cases += [
        (e8_i4, transform_form(e8_i4, random_unimodular(random.Random(s), 12, steps=2)), 4)
        for s in range(6)
    ]
    for a, b, k in cases:
        v = congruence_solve(a, b, k, cfg)
        assert v.is_yes, (b.matrix, k)
        verify_witness(a, b, k, v.witness)
    assert calls and max(value for _, value in calls) <= 2


def test_symplectic_square_degrees_are_the_scaled_isometry(monkeypatch):
    # m U_f U_g^-1 from the two symplectic bases, without a box search
    calls = _count_calls(monkeypatch, "_box_candidates")
    rng = random.Random(1902)
    for genus in (1, 2, 3):
        f = make_form(standard_symplectic_matrix(genus), ANTISYMMETRIC)
        for _ in range(3):
            g = random_antisymmetric_form(rng, genus)
            u_g = symplectic_basis_transform(g.matrix)
            u = symplectic_basis_transform(f.matrix) @ u_g.inverse_unimodular()
            if f.matrix == g.matrix:
                u = IntMatrix.identity(f.rank)
            for m in (1, 2, 3):
                v = congruence_solve(f, g, m * m)
                assert v.is_yes and v.witness == u.scaled(m), (g.matrix, m)
    assert calls == []


def test_isomorphic_is_the_degree_one_congruence():
    # past the invariant checks, isomorphic answers what congruence_solve
    # answers at k = 1: the same kind, reason and witness
    rng = random.Random(1903)
    pairs = []
    for base in (I2, make_form(IntMatrix.diagonal([-1] * 5), SYMMETRIC)):
        for _ in range(3):
            pairs.append(tuple(
                transform_form(base, random_unimodular(rng, base.rank, steps=1)) for _ in range(2)
            ))
    # one side scrambled, in both orders: two scrambles of E8 can need the
    # E8 vectors of norm 18 and more, which the default budget does not cover
    for base in (E8, _e8_plus_identity(9)):
        for _ in range(2):
            scrambled = transform_form(base, random_unimodular(rng, base.rank, steps=1))
            pairs += [(base, scrambled), (scrambled, base)]
    pairs.append((_fixture_form("I9.mat"), _fixture_form("E8I1.mat")))
    pairs.append((E8, E8))
    pairs += [
        (random_antisymmetric_form(rng, genus), random_antisymmetric_form(rng, genus))
        for genus in (1, 2, 3) for _ in range(2)
    ]
    kinds = collections.Counter()
    for f, g in pairs:
        iso, solved = isomorphic(f, g), congruence_solve(f, g, 1)
        assert (iso.kind, iso.reason, iso.witness) == (
            solved.kind, solved.reason, solved.witness), (f.matrix, g.matrix)
        kinds[iso.kind] += 1
    assert kinds == {"yes": len(pairs) - 1, "no": 1}


# ---------------------------------------------------------------------------
# witnesses from fixed blocks in canonical coordinates
# ---------------------------------------------------------------------------


def _canonical_shapes(max_rank):
    """(pos, neg, parity) of every I(p, q) and H^a of rank 1 to max_rank."""
    for n in range(1, max_rank + 1):
        yield from ((pos, n - pos, PARITY_ODD) for pos in range(n + 1))
        if n % 2 == 0:
            yield n // 2, n // 2, PARITY_EVEN


def test_fixed_blocks_never_contradict_a_filter():
    # every canonical pair with A indefinite of rank <= 4 and every
    # 0 < |k| <= 20: a built P' verifies, and no complete filter objects
    built = 0
    for a in _canonical_shapes(4):
        if 0 in a[:2]:
            continue
        fa = make_form(canonical_matrix(*a), SYMMETRIC)
        for b in _canonical_shapes(fa.rank):
            fb = make_form(canonical_matrix(*b), SYMMETRIC)
            for k in range(-20, 21):
                p = block_witness(a, b, k) if k else None
                if p is not None:
                    built += 1
                    assert solver._prefilter(fa, fb, k) is None, (a, b, k)
                    verify_witness(fa, fb, k, p)
    assert built >= 1400  # of the 1726 queries that pass every filter


@pytest.mark.parametrize("a, b, k", [
    ((1, 1, PARITY_EVEN), (1, 1, PARITY_EVEN), 11),
    ((3, 3, PARITY_EVEN), (2, 2, PARITY_EVEN), -13),
    ((1, 1, PARITY_ODD), (1, 1, PARITY_EVEN), 6),
    ((2, 2, PARITY_EVEN), (1, 1, PARITY_ODD), -10),
    ((1, 1, PARITY_ODD), (1, 0, PARITY_ODD), 17),
    ((1, 1, PARITY_ODD), (1, 1, PARITY_ODD), -19),
    ((3, 1, PARITY_ODD), (1, 1, PARITY_ODD), -19),
    ((3, 1, PARITY_ODD), (3, 1, PARITY_ODD), 17),
    ((2, 3, PARITY_ODD), (2, 2, PARITY_EVEN), 6),
    ((5, 2, PARITY_ODD), (4, 1, PARITY_ODD), 7),
])
def test_fixed_blocks_answer_scrambled_pairs_without_enumeration(monkeypatch, a, b, k):
    # U_A P' U_B^-1 through both canonical bases, without a box or level
    # search; I(3,1) -> I(1,1) at k = -19 took 13 s of search at radius 20
    calls = _count_calls(monkeypatch, "_box_candidates")
    rng = random.Random(1601)
    fa, fb = (
        make_form(canonical_matrix(*s).transform_by(random_unimodular(rng, s[0] + s[1])), SYMMETRIC)
        for s in (a, b)
    )
    v = congruence_solve(fa, fb, k)
    assert v.is_yes and calls == []


def test_fixed_blocks_reach_definite_diagonal_targets_only():
    # U_B is the identity for a canonical target; a scrambled definite
    # target has no canonical basis, so the search answers it
    i31 = make_form(canonical_matrix(3, 1, PARITY_ODD), SYMMETRIC)
    budget = solver._Budget(10)
    target = make_form(IntMatrix.identity(2), SYMMETRIC)
    assert solver._block_witness(i31, target, 5, budget, IntMatrix.identity(4)) is not None
    scrambled = make_form(IntMatrix.from_rows([[1, 1], [1, 2]]), SYMMETRIC)
    assert solver._block_witness(i31, scrambled, 5, budget, IntMatrix.identity(4)) is None
    assert congruence_solve(i31, scrambled, 5).is_yes


def test_fixed_blocks_keep_every_no():
    # with the step and without it, on the same pairs: every No keeps its
    # reason, every Yes stays a Yes, and an Unknown can only become a Yes,
    # because the blocks reach beyond the search's radius or budget
    rng = random.Random(1602)
    cfg = SearchConfig(radius=3, node_budget=20_000)
    cases = []
    for _ in range(300):
        a, b = _random_small_pair(rng)
        k = rng.choice([k for k in range(-20, 21) if k])
        cases.append((a, b, k, congruence_solve(a, b, k, cfg)))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(solver, "_block_witness", lambda *args: None)
        before = [congruence_solve(a, b, k, cfg) for a, b, k, _ in cases]
    kinds = collections.Counter()
    for (a, b, k, new), old in zip(cases, before):
        case = (a.matrix, b.matrix, k)
        kinds[old.kind, new.kind] += 1
        if old.is_unknown and new.is_yes:
            continue
        assert new.kind == old.kind and new.reason == old.reason, case
    assert kinds["no", "no"] >= 100 and kinds["yes", "yes"] >= 30
    assert kinds["unknown", "yes"] > 0


def test_equal_matrices_in_degree_one_get_the_identity(monkeypatch):
    # no enumeration for k = 1 between equal matrices, also where the
    # form has no canonical basis (E8 + H) and the box scan would run
    definite = _count_calls(monkeypatch, "_definite_solutions")
    box = _count_calls(monkeypatch, "_box_candidates")
    e8h = make_form(block_diagonal(E8.matrix, hyperbolic_matrix(1)), SYMMETRIC)
    for form in (E8, e8h):
        v = congruence_solve(form, form, 1)
        assert v.is_yes and v.witness == IntMatrix.identity(form.rank)
    assert definite == [] and box == []


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


def _definite_solutions_reference(tri: list, value: int) -> list:
    """``_definite_solutions`` as it read before the closed-form last
    coordinate and the rank-lookup sort, kept verbatim as the reference."""

    def _centered_rank(v: int) -> int:
        # 0, 1, -1, 2, -2, ... -> 0, 1, 2, 3, 4, ...
        return 2 * abs(v) - (1 if v > 0 else 0)

    def _centered_key(vec) -> tuple:
        return tuple(_centered_rank(v) for v in vec)

    m = len(tri)
    if value < 0:
        return []
    if m == 0:
        return [()] if value == 0 else []
    pivots = [tri[i][i] for i in range(m)]
    if min(pivots) <= 0:
        raise ShapeMismatch("matrix is not positive definite")
    denominators = [p * q for p, q in zip([1] + pivots, pivots)]
    scale = math.lcm(*denominators)
    weights = [scale // den for den in denominators]
    out = []
    x = [0] * m

    def rec(i: int, rem: int):
        p, w, row = pivots[i], weights[i], tri[i]
        s = sum(row[j] * x[j] for j in range(i + 1, m))
        # integer x_i with w * (p * x_i + s)^2 <= rem
        ymax = math.isqrt(rem // w)
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
    del rec  # see _backtrack
    out.sort(key=_centered_key)
    return out


def test_definite_solutions_match_the_reference_in_order():
    # the same lists, in the same order, on scrambles of I_n, E8 and E8 + I_k
    rng = random.Random(17)
    bases = [IntMatrix.identity(n) for n in range(1, 9)]
    bases.append(IntMatrix.from_rows(E8_CARTAN))
    bases += [block_diagonal(IntMatrix.from_rows(E8_CARTAN), IntMatrix.identity(k)) for k in (1, 2)]
    for base in bases:
        for gram in (base, base.transform_by(random_unimodular(rng, base.rows, steps=2, cap=3))):
            tri = symmetric_elimination(gram.to_rows())
            for value in range(7):
                assert _definite_solutions(tri, value) == _definite_solutions_reference(tri, value)


def test_definite_solutions_match_the_reference_where_the_closed_form_level_leads(rng):
    # rank 1: x_0 is the only level; rank 2: it is the first level below the top
    for rows in ([[1]], [[2]], [[3]], [[7]], [[1, 0], [0, 1]], [[2, 1], [1, 2]], [[2, -1], [-1, 5]]):
        tri = symmetric_elimination(rows)
        for value in range(-1, 30):
            assert _definite_solutions(tri, value) == _definite_solutions_reference(tri, value)
    for _ in range(20):
        rank = rng.randrange(1, 3)
        tri = symmetric_elimination(random_posdef(rng, rank).to_rows())
        for value in range(15):
            assert _definite_solutions(tri, value) == _definite_solutions_reference(tri, value)


def test_definite_solutions_give_the_e8_theta_series():
    # theta_E8 = 1 + 240 q + 2160 q^2 + 6720 q^3 + 17520 q^4 + ..., q counting x.T A x / 2
    tri = symmetric_elimination(E8_CARTAN)
    counts = [len(_definite_solutions(tri, value)) for value in range(9)]
    assert counts == [1, 0, 240, 0, 2160, 0, 6720, 0, 17520]


def test_definite_search_reuses_the_elimination_of_make_form(monkeypatch):
    # a definite matrix never pivots, so the elimination make_form kept is
    # the fresh one; only a negative definite source is eliminated again
    rng = random.Random(18)
    bases = [IntMatrix.identity(n) for n in range(1, 9)] + [IntMatrix.from_rows(E8_CARTAN)]
    forms = []
    for base in bases:
        for gram in (base, base.transform_by(random_unimodular(rng, base.rows, steps=2, cap=3))):
            f = make_form(gram, SYMMETRIC)
            assert f.tri == tuple(map(tuple, symmetric_elimination(gram.to_rows())))
            assert solver._definite_elimination(f) == (1, f.tri)
            negated = make_form(-gram, SYMMETRIC)
            assert solver._definite_elimination(negated) == (-1, symmetric_elimination(gram.to_rows()))
            forms.append((f, negated))
    # f onto <a_00> is found by the definite column search (rank 1 would
    # take the scaled identity instead)
    minus_one = make_form(IntMatrix.identity(1).scaled(-1), SYMMETRIC)
    calls = []

    def counted(rows):
        calls.append(len(rows))
        return symmetric_elimination(rows)

    monkeypatch.setattr(solver, "symmetric_elimination", counted)
    monkeypatch.setattr(intform, "symmetric_elimination", counted)
    for f, negated in forms[2:]:
        assert congruence_solve(f, I1, f.matrix[0, 0]).is_yes
        assert not calls
        assert congruence_solve(negated, minus_one, f.matrix[0, 0]).is_yes
        assert calls == [f.rank]
        calls.clear()


# ---------------------------------------------------------------------------
# oracle behaviour
# ---------------------------------------------------------------------------


def test_oracle_worked_examples():
    assert brute_force_oracle(I1, I1, 2, 3) is None
    p = brute_force_oracle(I2, I1, 5, 2)
    assert p is not None
    assert sorted(abs(x) for x in p.entries()) == [1, 2]


def test_oracle_budget_precondition():
    with pytest.raises(OracleTooLarge):
        brute_force_oracle(A3, A3, 1, 6)


def test_oracle_paths_agree(rng):
    # both paths scan the box in the same lexicographic order, so they
    # must return the same first witness, or both None
    found = {True: 0, False: 0}
    for _ in range(40):
        a, b = _random_pair(rng)
        k = rng.choice([x for x in range(-4, 5) if x])
        bound = feasible_bound(a.rank, b.rank, limit=2_000)
        if bound is None:
            continue
        args = (a.matrix, b.matrix, k, bound, a.rank, b.rank)
        fast = _oracle_numpy(*args)
        assert _oracle_python(*args) == fast, (a.matrix.to_rows(), b.matrix.to_rows(), k)
        found[fast is not None] += 1
    assert min(found.values()) >= 5, found


def test_oracle_beyond_int64_uses_the_python_path(monkeypatch):
    # 2^64 does not fit an int64, so the guard must route to exact integers
    big = 2 ** 64
    a = make_form(IntMatrix.from_rows([[0, 1], [1, big]]), SYMMETRIC)

    def no_numpy(*args):
        raise AssertionError("numpy path taken beyond the int64 guard")

    monkeypatch.setattr("oracle._oracle_numpy", no_numpy)
    p = brute_force_oracle(a, I1, big + 2, 1)
    assert p == IntMatrix.from_rows([[-1], [-1]])
    verify_witness(a, I1, big + 2, p)


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
        if oracle is not None:
            assert solved.is_yes, (a.matrix.to_rows(), b.matrix.to_rows(), k)
        if solved.is_no:
            assert oracle is None
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
        assert oracle is None, (
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
        assert oracle is None, (
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
                if oracle is not None:
                    assert v.is_yes, (a.matrix.to_rows(), b.matrix.to_rows(), k)
                if v.is_yes and max(abs(x) for x in v.witness.entries()) <= bound:
                    assert oracle is not None


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
        if oracle is not None:
            assert v.is_yes
        if v.is_no:
            assert oracle is None
