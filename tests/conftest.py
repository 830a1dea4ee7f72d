import random

import pytest

from degmap.intform import (
    ANTISYMMETRIC,
    SYMMETRIC,
    IntMatrix,
    IntersectionForm,
    block_diagonal,
    make_form,
)


# the Cartan matrix of E8: the even unimodular positive definite form of rank 8
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


def random_unimodular(rng: random.Random, n: int, steps: int = 4, cap: int = 9) -> IntMatrix:
    """Product of shears, swaps and sign flips; entries kept below cap."""
    rows = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    for _ in range(steps * n):
        op = rng.randrange(3)
        i, j = rng.randrange(n), rng.randrange(n)
        if op == 0 and i != j:
            c = rng.choice([-2, -1, 1, 2])
            trial = [row[:] for row in rows]
            for t in range(n):
                trial[i][t] += c * trial[j][t]
            if max(abs(x) for row in trial for x in row) <= cap:
                rows = trial
        elif op == 1 and i != j:
            rows[i], rows[j] = rows[j], rows[i]
        else:
            rows[i] = [-x for x in rows[i]]
    return IntMatrix.from_rows(rows)


_SYMMETRIC_SEEDS = {
    1: [[1], [-1]],
    2: [[1, 1], [1, -1], [-1, -1], "hyper"],
    3: [[1, 1, 1], [1, 1, -1], [1, -1, -1], [-1, -1, -1]],
}


def _seed_matrix(rng: random.Random, rank: int) -> IntMatrix:
    choice = rng.choice(_SYMMETRIC_SEEDS[rank])
    if choice == "hyper":
        return IntMatrix.from_rows([[0, 1], [1, 0]])
    return IntMatrix.diagonal(choice)


def random_symmetric_form(rng: random.Random, rank: int) -> IntersectionForm:
    """Random unimodular symmetric form: a scrambled basis of a seed form."""
    base = _seed_matrix(rng, rank)
    for _ in range(50):
        u = random_unimodular(rng, rank)
        m = base.transform_by(u)
        if max(abs(x) for x in m.entries()) <= 9:
            return make_form(m, SYMMETRIC)
    return make_form(base, SYMMETRIC)


def random_antisymmetric_form(rng: random.Random, half_rank: int) -> IntersectionForm:
    block = IntMatrix.from_rows([[0, 1], [-1, 0]])
    base = IntMatrix.zeros(0, 0)
    for _ in range(half_rank):
        base = block_diagonal(base, block)
    for _ in range(50):
        u = random_unimodular(rng, 2 * half_rank)
        m = base.transform_by(u)
        if max(abs(x) for x in m.entries()) <= 9:
            return make_form(m, ANTISYMMETRIC)
    return make_form(base, ANTISYMMETRIC)


@pytest.fixture
def rng() -> random.Random:
    return random.Random(0x5EED)
