import random

import pytest

from degmap.degsets import _column_test
from degmap.errors import (
    ModelMismatch,
    NonIntegralHopf,
    OddN,
    ShapeMismatch,
)
from degmap.homotopy import (
    check_homotopy_condition,
    compose_disjoint,
    element,
    element_from_doc,
    element_to_doc,
    elements_from_diagonal,
    hopf,
    induced_invariant,
    model_from_doc,
    model_to_doc,
    pi_add,
    pi_model,
    pi_scale,
    pushed_column,
    required_multiple,
    zero_element,
)
from degmap.intform import IntMatrix

N2 = pi_model(2)


def random_model(rng):
    n = rng.choice([2, 4, 5, 6, 7, 8])
    if n == 2:
        return N2
    orders = [rng.choice([2, 3, 4, 5]) for _ in range(rng.randrange(0, 3))]
    wh = [rng.randrange(d) for d in orders]
    return pi_model(n, orders, wh)


def random_element(rng, model):
    nu = rng.randrange(-4, 5) if model.has_nu else 0
    tor = [rng.randrange(d) for d in model.torsion_orders]
    return element(model, nu, tor)


# ---------------------------------------------------------------------------
# models
# ---------------------------------------------------------------------------


def test_lambda_by_half_dimension():
    from fractions import Fraction

    assert pi_model(2).lam == 1
    assert pi_model(4).lam == 1
    assert pi_model(8).lam == 1
    assert pi_model(6).lam == Fraction(1, 2)
    assert pi_model(5, [2]).lam == Fraction(1, 2)


def test_whitehead_nu_coefficient_is_twice_lambda():
    assert pi_model(2).whitehead.nu == 2
    assert pi_model(4, [3]).whitehead.nu == 2
    assert pi_model(6, [2]).whitehead.nu == 1
    assert pi_model(5, [4], [2]).whitehead.nu == 0


def test_hopf_of_whitehead_is_two_in_every_even_model(rng):
    for _ in range(30):
        model = random_model(rng)
        if model.has_nu:
            assert hopf(model.whitehead) == 2


def test_n2_has_no_torsion():
    with pytest.raises(ShapeMismatch):
        pi_model(2, [2])


def test_odd_n_rejects_nu():
    model = pi_model(5, [3])
    with pytest.raises(ShapeMismatch):
        element(model, 1)


# ---------------------------------------------------------------------------
# group operations
# ---------------------------------------------------------------------------


def test_add_zero_is_identity(rng):
    for _ in range(20):
        model = random_model(rng)
        a = random_element(rng, model)
        assert pi_add(a, zero_element(model)) == a


def test_torsion_killed_by_group_order(rng):
    for _ in range(30):
        model = random_model(rng)
        g = random_element(rng, model)
        scaled = pi_scale(model.torsion_order, g)
        assert all(r == 0 for r in scaled.torsion)


def test_scale_nu():
    nu = element(N2, 1)
    assert pi_scale(2, nu).nu == 2


def test_model_mismatch_is_rejected():
    a = element(N2, 1)
    b = element(pi_model(4, [2]), 1, [1])
    with pytest.raises(ModelMismatch):
        pi_add(a, b)
    with pytest.raises(ModelMismatch):
        compose_disjoint(a, b, 0)


# ---------------------------------------------------------------------------
# disjoint-union composition
# ---------------------------------------------------------------------------


def test_compose_with_zero_linking_is_addition(rng):
    for _ in range(40):
        model = random_model(rng)
        t1 = random_element(rng, model)
        t2 = random_element(rng, model)
        assert compose_disjoint(t1, t2, 0) == pi_add(t1, t2)


def test_compose_zero_elements_unit_linking_gives_whitehead():
    for model in (N2, pi_model(6, [2], [1])):
        z = zero_element(model)
        assert compose_disjoint(z, z, 1) == model.whitehead


def test_compose_at_n2_closed_form(rng):
    # the Whitehead square is 2*nu at n = 2, so the class of a union is
    # (a + b + 2c) * nu
    for _ in range(30):
        a, b, c = (rng.randrange(-5, 6) for _ in range(3))
        out = compose_disjoint(element(N2, a), element(N2, b), c)
        assert out == element(N2, a + b + 2 * c)


def test_compose_is_commutative_and_bracketing_free(rng):
    for _ in range(40):
        model = random_model(rng)
        t1, t2, t3 = (random_element(rng, model) for _ in range(3))
        l12, l13, l23 = (rng.randrange(-3, 4) for _ in range(3))
        assert compose_disjoint(t1, t2, l12) == compose_disjoint(t2, t1, l12)
        one = compose_disjoint(compose_disjoint(t1, t2, l12), t3, l13 + l23)
        two = compose_disjoint(compose_disjoint(t1, t3, l13), t2, l12 + l23)
        assert one == two


# ---------------------------------------------------------------------------
# Hopf invariants
# ---------------------------------------------------------------------------


def test_hopf_values():
    assert hopf(element(N2, 1)) == 1
    assert hopf(element(N2, 0)) == 0
    model6 = pi_model(6, [3], [2])
    assert hopf(element(model6, 0, [2])) == 0


def test_hopf_rejects_odd_n():
    with pytest.raises(OddN):
        hopf(element(pi_model(5, [2]), 0, [1]))


def test_elements_from_diagonal_n2():
    m = IntMatrix.diagonal([3, -1])
    t = elements_from_diagonal(N2, m)
    assert [e.nu for e in t] == [3, -1]
    assert [hopf(e) for e in t] == [3, -1]


def test_elements_from_diagonal_half_lambda_requires_even_diagonal():
    model = pi_model(6, [2])
    assert elements_from_diagonal(model, IntMatrix.diagonal([2, -4]))[0].nu == 1
    with pytest.raises(NonIntegralHopf):
        elements_from_diagonal(model, IntMatrix.diagonal([1, 0]))


# ---------------------------------------------------------------------------
# induced data transformation
# ---------------------------------------------------------------------------


def test_induced_identity_map_fixes_data(rng):
    for _ in range(20):
        model = random_model(rng)
        rank = rng.randrange(1, 4)
        a = _random_pairing(rng, rank, model)
        t = [random_element(rng, model) for _ in range(rank)]
        out = induced_invariant(a, t, IntMatrix.identity(rank))
        assert list(out) == t


def _random_pairing(rng, rank, model):
    # symmetric for even n (even diagonal when lambda is 1/2), antisymmetric otherwise
    rows = [[0] * rank for _ in range(rank)]
    for i in range(rank):
        for j in range(i, rank):
            if i == j:
                if model.n % 2 == 1:
                    continue
                v = rng.randrange(-3, 4)
                if model.lam != 1 and v % 2:
                    v += 1
                rows[i][i] = v
            else:
                v = rng.randrange(-3, 4)
                rows[i][j] = v
                rows[j][i] = v if model.n % 2 == 0 else -v
    return IntMatrix.from_rows(rows)


def test_induced_single_class_closed_form(rng):
    # rank one: t' = k*t + C(k,2)*a*whitehead, checked by independent group algebra
    for _ in range(50):
        model = random_model(rng)
        a_val = rng.randrange(-4, 5)
        if model.n % 2 == 1:
            a_val = 0
        if model.has_nu and model.lam != 1 and a_val % 2:
            a_val += 1
        k = rng.randrange(-5, 6)
        t = random_element(rng, model)
        out = induced_invariant(
            IntMatrix.diagonal([a_val]), [t], IntMatrix.from_rows([[k]])
        )
        expected = pi_add(
            pi_scale(k, t), pi_scale(k * (k - 1) // 2 * a_val, model.whitehead)
        )
        assert out[0] == expected


def test_induced_is_functorial(rng):
    # pushing through p then q equals pushing through p @ q, with the pairing
    # transformed in between
    for _ in range(40):
        model = random_model(rng)
        m = rng.randrange(1, 4)
        l = rng.randrange(1, 4)
        r = rng.randrange(1, 4)
        a = _random_pairing(rng, m, model)
        t = [random_element(rng, model) for _ in range(m)]
        p = IntMatrix.from_rows([[rng.randrange(-2, 3) for _ in range(l)] for _ in range(m)])
        q = IntMatrix.from_rows([[rng.randrange(-2, 3) for _ in range(r)] for _ in range(l)])
        t_p = induced_invariant(a, t, p)
        a_p = p.transpose() @ a @ p
        left = induced_invariant(a_p, list(t_p), q)
        right = induced_invariant(a, t, p @ q)
        assert list(left) == list(right)


def test_pushed_column_is_the_induced_column(rng):
    # the per-column formula against the group algebra of pi_add/pi_scale
    for _ in range(40):
        model = random_model(rng)
        m = rng.randrange(1, 4)
        a = _random_pairing(rng, m, model)
        t = [random_element(rng, model) for _ in range(m)]
        col = [rng.randrange(-3, 4) for _ in range(m)]
        expected = zero_element(model)
        for v in range(m):
            expected = pi_add(expected, pi_scale(col[v], t[v]))
            expected = pi_add(expected, pi_scale(col[v] * (col[v] - 1) // 2 * a[v, v], model.whitehead))
            for w in range(v + 1, m):
                expected = pi_add(expected, pi_scale(col[v] * col[w] * a[v, w], model.whitehead))
        assert pushed_column(a, t, model, col) == expected
        p = IntMatrix.from_columns([col], nrows=m)
        assert induced_invariant(a, t, p) == (expected,)


@pytest.mark.parametrize("model, ranks", [
    (pi_model(2), (1, 2, 3, 4)),
    (pi_model(4, [3], [1]), (1, 2, 3, 4)),
    (pi_model(4, [2, 3], [1, 2]), (1, 2, 3, 4)),
    (pi_model(6, [2], [1]), (1, 2, 3, 4)),  # lambda = 1/2, Whitehead nu 1
    (pi_model(5, [4], [2]), (2, 4, 6)),  # antisymmetric sources, no nu part
], ids=["n2", "n4-Z3", "n4-Z2xZ3", "n6-Z2", "n5-Z4"])
def test_integer_column_test_agrees_with_pushed_column(model, ranks):
    # the column test of the degree search against the group algebra it
    # replaced, on seeded vectors with entries in -3..3, the zero vector
    # first; the second target column is what one of the vectors pushes
    # to, so that both outcomes occur
    rng = random.Random(f"column-test/{model}")
    outcomes = {True: 0, False: 0}
    for rank in ranks:
        for _ in range(25):
            a = _random_pairing(rng, rank, model)
            data = [random_element(rng, model) for _ in range(rank)]
            vecs = [(0,) * rank] + [tuple(rng.randrange(-3, 4) for _ in range(rank)) for _ in range(12)]
            for k in (rng.choice([-3, -2, -1, 2, 3]), 1):
                targets = [random_element(rng, model), pushed_column(a, data, model, rng.choice(vecs))]
                passes = _column_test(a, data, model, k, targets)
                for vec in vecs:
                    for col, u in enumerate(targets):
                        expected = pushed_column(a, data, model, vec) == pi_scale(k, u)
                        assert passes(col, vec) is expected, (a, data, k, u, vec)
                        outcomes[expected] += 1
    assert min(outcomes.values()) >= 100, outcomes


def test_rank_zero_source_pushes_to_zero():
    model = pi_model(4, [3], [1])
    empty = IntMatrix.zeros(0, 0)
    p = IntMatrix.zeros(0, 1)
    assert induced_invariant(empty, [], p, model) == (zero_element(model),)
    with pytest.raises(ShapeMismatch):
        induced_invariant(empty, [], p)
    target = IntMatrix.identity(1)
    ok = check_homotopy_condition(empty, [], target, [element(model, 0, [1])], p, 3)
    assert ok.ok and ok.failing_indices == ()
    bad = check_homotopy_condition(empty, [], target, [element(model, 0, [1])], p, 2)
    assert not bad.ok and bad.failing_indices == (0,)


def test_induced_shape_checks():
    with pytest.raises(ShapeMismatch):
        induced_invariant(IntMatrix.identity(2), [element(N2, 1)], IntMatrix.identity(2))
    with pytest.raises(ShapeMismatch):
        induced_invariant(
            IntMatrix.identity(2),
            [element(N2, 1), element(N2, 0)],
            IntMatrix.identity(3),
        )


# ---------------------------------------------------------------------------
# the degree-k compatibility condition
# ---------------------------------------------------------------------------


def test_condition_trivial_identity():
    t = [element(N2, 2), element(N2, -1)]
    a = IntMatrix.diagonal([2, -1])
    report = check_homotopy_condition(a, t, a, t, IntMatrix.identity(2), 1)
    assert report.ok and report.failing_indices == ()


def test_condition_reports_failing_indices():
    a = IntMatrix.diagonal([1, 1])
    t = [element(N2, 1), element(N2, 1)]
    u = [element(N2, 1), element(N2, 2)]
    report = check_homotopy_condition(a, t, a, u, IntMatrix.identity(2), 1)
    assert not report.ok
    assert report.failing_indices == (1,)


def test_condition_follows_from_congruence_at_n2(rng):
    # with data determined by the diagonal, the congruence implies the
    # homotopy condition: 500 random instances, ranks <= 4, entries <= 3
    checked = 0
    while checked < 500:
        m = rng.randrange(1, 5)
        l = rng.randrange(1, 5)
        k = rng.choice([-3, -2, -1, 1, 2, 3])
        rows = [[0] * m for _ in range(m)]
        for i in range(m):
            for j in range(i, m):
                v = rng.randrange(-3, 4)
                rows[i][j] = v
                rows[j][i] = v
        a = IntMatrix.from_rows(rows)
        p = IntMatrix.from_rows([[rng.randrange(-3, 4) for _ in range(l)] for _ in range(m)])
        g = p.transpose() @ a @ p
        if any(x % k for x in g.entries()):
            continue
        b = IntMatrix(l, l, [x // k for x in g.entries()])
        t = elements_from_diagonal(N2, a)
        u = elements_from_diagonal(N2, b)
        report = check_homotopy_condition(a, t, b, u, p, k)
        assert report.ok, (a.to_rows(), p.to_rows(), k)
        checked += 1


def test_condition_scaled_identity_squares(rng):
    # p = k * identity with k a multiple of 2T (T even) or T (T odd)
    # satisfies the condition at degree k squared; the data must be
    # manifold-consistent, i.e. H(t_i) equals the self-pairing a_ii
    for _ in range(40):
        model = random_model(rng)
        mult = required_multiple(model)
        k = mult * rng.choice([-2, -1, 1, 2, 3])
        rank = rng.randrange(1, 4)
        a = _random_pairing(rng, rank, model)
        base = elements_from_diagonal(model, a)
        t = [
            element(model, e.nu, [rng.randrange(d) for d in model.torsion_orders])
            for e in base
        ]
        p = IntMatrix.identity(rank).scaled(k)
        report = check_homotopy_condition(a, t, a, t, p, k * k)
        assert report.ok, (model, k, a.to_rows())


def test_condition_scaled_identity_fails_off_multiples():
    # a witness that the multiplicity condition is doing real work: with
    # torsion of order 3 and k = 2 the mismatch k*(k-1) = 2 survives mod 3
    model = pi_model(4, [3], [0])
    a = IntMatrix.diagonal([0])
    t = [element(model, 0, [1])]
    p = IntMatrix.identity(1).scaled(2)
    report = check_homotopy_condition(a, t, a, t, p, 4)
    assert not report.ok


def test_required_multiple():
    assert required_multiple(N2) == 1
    assert required_multiple(pi_model(4, [3])) == 3
    assert required_multiple(pi_model(6, [2])) == 4
    assert required_multiple(pi_model(6, [2, 3])) == 12


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


def test_model_doc_round_trip(rng):
    for _ in range(10):
        model = random_model(rng)
        assert model_from_doc(model_to_doc(model)) == model


def test_model_doc_rejects_wrong_whitehead_nu():
    doc = model_to_doc(pi_model(6, [2], [1]))
    doc["whitehead"]["nu"] = 2
    with pytest.raises(ModelMismatch):
        model_from_doc(doc)


def test_element_doc_round_trip(rng):
    model = pi_model(4, [2, 5], [1, 3])
    for _ in range(10):
        e = random_element(rng, model)
        assert element_from_doc(model, element_to_doc(e)) == e


def test_docs_refuse_numbers_that_are_not_integers():
    # a float or a bool is refused, not truncated into a different model
    model = pi_model(4, [2, 5], [1, 3])
    good = model_to_doc(model)
    for path, bad in [
        (("n",), 4.0),
        (("torsion_orders", 1), 5.5),
        (("whitehead", "nu"), 2.0),
        (("whitehead", "torsion", 0), True),
    ]:
        doc = model_to_doc(model)
        *outer, last = path
        inner = doc
        for key in outer:
            inner = inner[key]
        inner[last] = bad
        with pytest.raises(ShapeMismatch):
            model_from_doc(doc)
    assert model_from_doc(good) == model
    for doc in ({"nu": 1.0}, {"nu": False}, {"torsion": [1, 3.0]}, {"torsion": "13"}):
        with pytest.raises(ShapeMismatch):
            element_from_doc(model, doc)
