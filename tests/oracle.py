"""Independent brute-force reference for the congruence P.T @ A @ P == k * B.

Used only by the tests, to cross-examine every filter and the search of
``degmap.solver``.  It shares no code with the solver's backtracking or
its filters: candidates are generated as flat digit tuples in
lexicographic order and checked by plain matrix products, vectorized with
numpy when every entry of P.T A P is safely inside int64 range and in
exact Python integers otherwise.  Both paths return the first witness in
that order, so they agree witness for witness.
"""

from __future__ import annotations

import itertools

import numpy as np

from degmap.intform import IntersectionForm, IntMatrix
from degmap.solver import verify_witness

_ORACLE_LIMIT = 10_000_000
_ORACLE_CHUNK = 500_000


class OracleTooLarge(Exception):
    """The box holds more candidate matrices than the oracle enumerates."""


def brute_force_oracle(
    a: IntersectionForm, b: IntersectionForm, k: int, entry_bound: int
) -> IntMatrix | None:
    """The first P with |entries| <= entry_bound and P.T A P == k B, or None.

    Any witness is re-checked by ``verify_witness`` before it is returned;
    raises OracleTooLarge when the box holds more than ``_ORACLE_LIMIT``
    candidates.
    """
    m, l = a.rank, b.rank
    total = (2 * entry_bound + 1) ** (m * l)
    if total > _ORACLE_LIMIT:
        raise OracleTooLarge(f"{total} candidate matrices exceed the oracle limit")
    max_abs_a = max((abs(x) for x in a.matrix.entries()), default=0)
    if m * l and max_abs_a * (entry_bound ** 2) * (m ** 2) < 2 ** 60:
        witness = _oracle_numpy(a.matrix, b.matrix, k, entry_bound, m, l)
    else:
        witness = _oracle_python(a.matrix, b.matrix, k, entry_bound, m, l)
    if witness is not None:
        verify_witness(a, b, k, witness)
    return witness


def _oracle_numpy(a: IntMatrix, b: IntMatrix, k: int, bound: int, m: int, l: int):
    nvars = m * l
    vals = list(range(-bound, bound + 1))
    width = len(vals)
    # split digits so the enumerated tail chunk stays small
    tail_vars = nvars
    while width ** tail_vars > _ORACLE_CHUNK:
        tail_vars -= 1
    head_vars = nvars - tail_vars
    grids = np.meshgrid(*([np.array(vals, dtype=np.int64)] * tail_vars), indexing="ij")
    tail = np.stack([g.ravel() for g in grids], axis=-1) if tail_vars else np.zeros((1, 0), dtype=np.int64)
    a_np = np.array(a.to_rows(), dtype=np.int64).reshape(m, m)
    kb_np = k * np.array(b.to_rows(), dtype=np.int64).reshape(l, l)
    n_tail = tail.shape[0]
    for head in itertools.product(vals, repeat=head_vars):
        flat = np.empty((n_tail, nvars), dtype=np.int64)
        if head_vars:
            flat[:, :head_vars] = np.array(head, dtype=np.int64)
        flat[:, head_vars:] = tail
        ps = flat.reshape(n_tail, m, l)
        gram = np.matmul(np.matmul(ps.transpose(0, 2, 1), a_np), ps)
        mask = (gram == kb_np).all(axis=(1, 2))
        hits = np.flatnonzero(mask)
        if hits.size:
            entries = [int(x) for x in flat[hits[0]]]
            return IntMatrix(m, l, entries)
    return None


def _oracle_python(a: IntMatrix, b: IntMatrix, k: int, bound: int, m: int, l: int):
    vals = list(range(-bound, bound + 1))
    kb = b.scaled(k)
    for flat in itertools.product(vals, repeat=m * l):
        p = IntMatrix(m, l, flat)
        if p.transpose() @ a @ p == kb:
            return p
    return None
