"""Deterministic query lists for the benchmark workloads.

Every input is derived from ``random.Random`` seeded with the workload
name, the command-line seed and the pass index, and written with a fixed
layout, so the same seed gives byte-identical files.  Matrices are plain
lists of Python ints; nothing here imports degmap, so the known answers
and constructed witnesses do not depend on the program under test.

A query records its CLI arguments together with what the benchmark knows
about the answer: the pairing matrices it wrote (and, for highly connected
8-manifolds, the attaching data), plus ``expect``, which maps a degree k
to ``"yes"`` (a witness was constructed here) or ``"no"`` (a complete
mathematical argument is cited in ``why_no``).  Degrees missing from
``expect`` are checked only through the witness the program returns.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from math import isqrt
from pathlib import Path

# Budgets stated per workload; every query of the workload passes it.
BUDGETS = {
    "indefinite-degset": 10_000_000,
    "definite-solve": 50_000,
    "manifold-mix": 200_000,
}

WORKLOADS = tuple(BUDGETS)


# ---------------------------------------------------------------------------
# Plain-int matrix algebra
# ---------------------------------------------------------------------------


def identity(n):
    return [[int(i == j) for j in range(n)] for i in range(n)]


def diag(*values):
    n = len(values)
    return [[values[i] if i == j else 0 for j in range(n)] for i in range(n)]


def block_diag(*blocks):
    n = sum(len(b) for b in blocks)
    out = [[0] * n for _ in range(n)]
    at = 0
    for b in blocks:
        for i, row in enumerate(b):
            out[at + i][at:at + len(row)] = row
        at += len(b)
    return out


def hyperbolic(copies):
    return block_diag(*([[[0, 1], [1, 0]]] * copies))


def e8():
    """Gram matrix of the E8 root lattice in a basis of simple roots."""
    g = [[2 if i == j else 0 for j in range(8)] for i in range(8)]
    for i, j in ((0, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 7), (1, 3)):
        g[i][j] = g[j][i] = -1
    return g


def transpose(m):
    return [list(col) for col in zip(*m)]


def matmul(a, b):
    bt = transpose(b)
    return [[sum(x * y for x, y in zip(row, col)) for col in bt] for row in a]


def congruent(a, p):
    """P.T A P."""
    return matmul(matmul(transpose(p), a), p)


def scaled(m, k):
    return [[k * x for x in row] for row in m]


def hstack_cols(columns, nrows):
    """Matrix whose columns are the given vectors."""
    return [[col[i] for col in columns] for i in range(nrows)]


def pad_rows(p, nrows):
    """Append zero rows so p maps into a lattice of rank nrows."""
    cols = len(p[0]) if p else 0
    return [row[:] for row in p] + [[0] * cols for _ in range(nrows - len(p))]


def scramble(rng, n, steps, cap):
    """A seeded unimodular U and its inverse, built from elementary moves.

    Shears add +-1 or +-2 times one row to another and are kept only while
    every entry of U stays within cap; swaps and sign flips are free.  The
    inverse is accumulated move by move, so no division is needed.
    """
    u = identity(n)
    inv = identity(n)
    for _ in range(steps * n):
        op = rng.randrange(3)
        i, j = rng.randrange(n), rng.randrange(n)
        if op == 0 and i != j:
            c = rng.choice((-2, -1, 1, 2))
            row = [x + c * y for x, y in zip(u[i], u[j])]
            if max(abs(x) for x in row) <= cap:
                u[i] = row
                for r in inv:
                    r[j] -= c * r[i]
        elif op == 1 and i != j:
            u[i], u[j] = u[j], u[i]
            for r in inv:
                r[i], r[j] = r[j], r[i]
        else:
            u[i] = [-x for x in u[i]]
            for r in inv:
                r[i] = -r[i]
    if matmul(u, inv) != identity(n):
        raise RuntimeError("scramble lost track of its inverse")
    return u, inv


# ---------------------------------------------------------------------------
# Constructed witnesses
# ---------------------------------------------------------------------------


def hyperbolic_scaling(copies, k):
    """Blocks [[0, k], [1, 0]]: copies of H map onto k times themselves."""
    return block_diag(*([[[0, k], [1, 0]]] * copies))


def quaternion_block(a, b, c, d):
    """Left multiplication by a + bi + cj + dk; Q.T Q = (a^2+b^2+c^2+d^2) I_4."""
    return [[a, -b, -c, -d], [b, a, -d, c], [c, d, a, -b], [d, -c, b, a]]


def four_squares(k):
    for a in range(k + 1):
        for b in range(a + 1):
            for c in range(b + 1):
                d2 = k - a * a - b * b - c * c
                if d2 < 0:
                    continue
                d = isqrt(d2)
                if d * d == d2 and d <= c:
                    return a, b, c, d
    raise ValueError(k)


def sign_swap(p_count, n_count):
    """Permutation taking I(p, n) to -I(n, p): negatives first, then positives."""
    order = list(range(p_count, p_count + n_count)) + list(range(p_count))
    m = p_count + n_count
    return [[int(order[j] == i) for j in range(m)] for i in range(m)]


# ---------------------------------------------------------------------------
# Queries
# ---------------------------------------------------------------------------


@dataclass
class Manifold:
    """What the benchmark wrote for one side of a query."""

    matrix: list
    n: int = 2
    pi: dict | None = None  # {"orders": [...], "wh": [...]} for n = 4
    data: list | None = None  # [(nu, (torsion...)), ...]


@dataclass
class Query:
    label: str
    argv: list
    command: str
    source: Manifold | None = None
    target: Manifold | None = None
    k: int | None = None
    expect: dict = field(default_factory=dict)  # k -> "yes" | "no"
    why_no: dict = field(default_factory=dict)  # k -> argument for a known No
    witnesses: dict = field(default_factory=dict)  # k -> constructed witness
    extra: dict = field(default_factory=dict)  # command-specific known facts


# The checker resolves preset names with these copies of the catalog
# pairings, not with the program's own table.
PRESETS = {
    "CP2": [[1]],
    "minusCP2": [[-1]],
    "S2xS2": hyperbolic(1),
    "CP2#CP2": identity(2),
    "CP2#(-CP2)": diag(1, -1),
    "T4": hyperbolic(3),
    "FsxFr(1,1)": hyperbolic(3),
    "#2(S2xS2)": hyperbolic(2),
    "#3(S2xS2)": hyperbolic(3),
}


class Writer:
    """Writes one pass's input files under a directory, in a fixed layout."""

    def __init__(self, root: Path):
        self.root = root
        self.count = 0
        root.mkdir(parents=True, exist_ok=True)

    def _path(self, stem, suffix):
        self.count += 1
        return self.root / f"{self.count:02d}-{stem}{suffix}"

    def mat(self, stem, matrix):
        path = self._path(stem, ".mat")
        lines = [f"{len(matrix)} {len(matrix[0])}"]
        lines += [" ".join(str(x) for x in row) for row in matrix]
        path.write_text("\n".join(lines) + "\n")
        return "@" + str(path)

    def manifold_json(self, stem, m: Manifold):
        path = self._path(stem, ".json")
        n = len(m.matrix)
        doc = {
            "name": stem,
            "n": m.n,
            "matrix": {
                "rows": n,
                "cols": n,
                "entries": [x for row in m.matrix for x in row],
                "symmetry": "symmetric",
            },
            "simply_connected": True,
            "highly_connected": True,
        }
        if m.pi is not None:
            doc["pi"] = {
                "n": m.n,
                "torsion_orders": list(m.pi["orders"]),
                "whitehead": {"nu": 2, "torsion": list(m.pi["wh"])},
            }
            doc["homotopy_data"] = [
                {"nu": nu, "torsion": list(tor)} for nu, tor in m.data
            ]
        path.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
        return "@" + str(path)


def preset(name):
    return Manifold(PRESETS[name])


def _degset(label, m_arg, l_arg, source, target, bound, budget, known):
    expect = {}
    why = {}
    wit = {}
    for k in range(-bound, bound + 1):
        if k == 0:
            continue
        res = known(k)
        if res is None:
            continue
        verdict, detail = res
        expect[k] = verdict
        if verdict == "yes":
            wit[k] = detail
        else:
            why[k] = detail
    return Query(
        label,
        ["degset", "--M", m_arg, "--L", l_arg, "--range", str(bound),
         "--budget", str(budget), "--json"],
        "degset", source, target, expect=expect, why_no=why, witnesses=wit,
    )


def _solve(label, a_arg, b_arg, a, b, k, budget, verdict=None, detail=None):
    q = Query(
        label,
        ["solve", "--A", a_arg, "--B", b_arg, "--k", str(k), "--budget", str(budget),
         "--json"],
        "solve", Manifold(a), Manifold(b), k=k,
    )
    if verdict is not None:
        q.expect[k] = verdict
        if verdict == "yes":
            q.witnesses[k] = detail
        else:
            q.why_no[k] = detail
    return q


# ---------------------------------------------------------------------------
# indefinite-degset
# ---------------------------------------------------------------------------


def _indefinite_degset(rng, w: Writer, index: int):
    budget = BUDGETS["indefinite-degset"]
    queries = []

    def all_yes_hyperbolic(copies):
        return lambda k: ("yes", hyperbolic_scaling(copies, k))

    for src, bound in (("T4", 3), ("FsxFr(1,1)", 2)):
        queries.append(_degset(
            f"degset {src}->#3(S2xS2)", src, "#3(S2xS2)", preset(src),
            preset("#3(S2xS2)"), bound, budget, all_yes_hyperbolic(3),
        ))

    def even_into_h(k):
        if k % 2:
            return ("no", "a^2 = c^2 and b^2 = d^2 force ab - cd into {0, 2ab}")
        return ("yes", [[1, k // 2], [1, -k // 2]])

    queries.append(_degset(
        "degset CP2#(-CP2)->S2xS2", "CP2#(-CP2)", "S2xS2", preset("CP2#(-CP2)"),
        preset("S2xS2"), 8, budget, even_into_h,
    ))

    zero_why = {
        ("CP2#CP2", "S2xS2"): "kH has isotropic vectors, I2 has none",
        ("S2xS2", "CP2#CP2"): "signature (1,1) cannot carry the definite kI2",
        ("CP2#(-CP2)", "CP2#CP2"): "signature (1,1) cannot carry the definite kI2",
        ("CP2#CP2", "CP2#(-CP2)"): "definite I2 cannot carry an indefinite form",
    }
    for (src, tgt), why in zero_why.items():
        queries.append(_degset(
            f"degset {src}->{tgt}", src, tgt, preset(src), preset(tgt), 4, budget,
            lambda k, why=why: ("no", why),
        ))

    # seeded scrambled bases of H+H into diag(1,-1): even k only
    h2 = hyperbolic(2)
    for _ in range(5):
        u, inv = scramble(rng, 4, steps=3, cap=3)
        a = congruent(h2, u)

        def h2_known(k, inv=inv):
            if k % 2:
                return ("no", "even source, odd target, odd k (parity)")
            p = hstack_cols([(1, k // 2, 0, 0), (0, 0, 1, -k // 2)], 4)
            return ("yes", matmul(inv, p))

        queries.append(_degset(
            "degset scrambled(H+H)->CP2#(-CP2)", w.mat("hh", a), "CP2#(-CP2)",
            Manifold(a), preset("CP2#(-CP2)"), 4, budget, h2_known,
        ))

    # diag(1,1,1,-1,-1,-1) to itself and onto smaller diagonal forms
    i33 = diag(1, 1, 1, -1, -1, -1)
    i33_arg = w.mat("i33", i33)

    def i33_self(k):
        # 2 I(3,3) is a sublattice too, but no witness is built for it here
        if abs(k) == 1:
            return ("yes", identity(6) if k > 0 else sign_swap(3, 3))
        return None

    queries.append(_degset(
        "degset I(3,3)->I(3,3)", i33_arg, i33_arg, Manifold(i33), Manifold(i33), 2,
        budget, i33_self,
    ))
    for pos, neg in ((2, 2), (2, 1)):
        tgt = diag(*([1] * pos + [-1] * neg))

        def into(k, pos=pos, neg=neg):
            s = abs(k)
            pos_vecs = ([(1, 0, 0, 0, 0, 0), (0, 1, 0, 0, 0, 0)] if s == 1
                        else [(1, 1, 0, 0, 0, 0), (1, -1, 0, 0, 0, 0)])
            neg_vecs = ([(0, 0, 0, 1, 0, 0), (0, 0, 0, 0, 1, 0)] if s == 1
                        else [(0, 0, 0, 1, 1, 0), (0, 0, 0, 1, -1, 0)])
            if k < 0:
                pos_vecs, neg_vecs = neg_vecs, pos_vecs
            return ("yes", hstack_cols(pos_vecs[:pos] + neg_vecs[:neg], 6))

        queries.append(_degset(
            f"degset I(3,3)->I({pos},{neg})", i33_arg, w.mat(f"i{pos}{neg}", tgt),
            Manifold(i33), Manifold(tgt), 2, budget, into,
        ))
    return queries


# ---------------------------------------------------------------------------
# definite-solve
# ---------------------------------------------------------------------------


def _sum_of_squares_witness(n, l, k):
    """P (n x l) with P.T P = k I_l, from quaternion blocks (4 ceil(l/4) <= n)."""
    block = quaternion_block(*four_squares(k))
    p = block_diag(*([block] * ((l + 3) // 4)))
    return pad_rows([row[:l] for row in p], n)


def _definite_solve(rng, w: Writer, index: int):
    budget = BUDGETS["definite-solve"]
    queries = []
    files = {}

    def ident(n):
        if n not in files:
            files[n] = w.mat(f"I{n}", identity(n))
        return files[n]

    for k in (5, 7):
        queries.append(_solve(
            f"solve I4->I4 k={k}", ident(4), ident(4), identity(4), identity(4), k,
            budget, "yes", _sum_of_squares_witness(4, 4, k),
        ))
    queries.append(_solve(
        "solve I8->I8 k=2", ident(8), ident(8), identity(8), identity(8), 2, budget,
        "yes", _sum_of_squares_witness(8, 8, 2),
    ))
    queries.append(_solve(
        "solve I6->I3 k=3", ident(6), ident(3), identity(6), identity(3), 3, budget,
        "yes", _sum_of_squares_witness(6, 3, 3),
    ))
    queries.append(_solve(
        "solve I10->I10 k=4", ident(10), ident(10), identity(10), identity(10), 4,
        budget, "yes", scaled(identity(10), 2),
    ))
    e8_arg = w.mat("E8", e8())
    queries.append(_solve(
        "solve E8->E8 k=4", e8_arg, e8_arg, e8(), e8(), 4, budget, "yes",
        scaled(identity(8), 2),
    ))
    # Unknown-prone under the budget: I6 and 3 I6 differ in their Hasse
    # invariant at p = 3, so no rational (let alone integral) P exists.
    queries.append(_solve(
        "solve I6->I6 k=3", ident(6), ident(6), identity(6), identity(6), 3, budget,
        "no", "Hasse invariant of I6 and 3*I6 differ at p=3",
    ))
    queries.append(_solve(
        "solve I4->I4 k=-1", ident(4), ident(4), identity(4), identity(4), -1, budget,
        "no", "signature: a positive definite form cannot carry -I4",
    ))
    # seeded scrambles, always on the source side: a scrambled target
    # inflates the target's diagonal and with it the enumeration radius
    for _ in range(3):
        u, inv = scramble(rng, 8, steps=2, cap=2)
        a = congruent(e8(), u)
        queries.append(_solve(
            "solve scrambled(E8)->E8 k=1", w.mat("E8s", a), e8_arg, a, e8(), 1,
            budget, "yes", inv,
        ))
    for n in (5, 6, 7):
        u, inv = scramble(rng, n, steps=2, cap=2)
        a = congruent(identity(n), u)
        queries.append(_solve(
            f"solve scrambled(I{n})->I{n} k=4", w.mat(f"I{n}s", a), ident(n), a,
            identity(n), 4, budget, "yes", scaled(inv, 2),
        ))
    return queries


# ---------------------------------------------------------------------------
# manifold-mix
# ---------------------------------------------------------------------------

PI_MODELS = (
    {"orders": (3,), "wh": (1,)},
    {"orders": (3,), "wh": (2,)},
    {"orders": (2,), "wh": (1,)},
    {"orders": (), "wh": ()},
)
# Whitehead square torsion-free: with zero source torsion every witness
# pushes the data to zero torsion, so no degree prime to the order passes.
OBSTRUCTED_MODELS = ({"orders": (3,), "wh": (0,)}, {"orders": (5,), "wh": (0,)})


def random_data(rng, matrix, pi):
    """Attaching data for n = 4: the nu-part is the self-pairing, torsion random."""
    return [
        (matrix[i][i], tuple(rng.randrange(d) for d in pi["orders"]))
        for i in range(len(matrix))
    ]


def induced(matrix, data, pi, p):
    """Push attaching data through p (n = 4, so lambda = 1 and W = 2 nu + wh)."""
    m = len(matrix)
    out = []
    for r in range(len(p[0]) if p else 0):
        col = [p[v][r] for v in range(m)]
        wh = sum(col[v] * (col[v] - 1) // 2 * matrix[v][v] for v in range(m))
        wh += sum(col[v] * col[t] * matrix[v][t]
                  for v in range(m) for t in range(v + 1, m))
        nu = sum(col[v] * data[v][0] for v in range(m)) + 2 * wh
        tor = tuple(
            (sum(col[v] * data[v][1][i] for v in range(m)) + wh * pi["wh"][i]) % d
            for i, d in enumerate(pi["orders"])
        )
        out.append((nu, tor))
    return out


def required_multiple(pi):
    t = 1
    for d in pi["orders"]:
        t *= d
    return 2 * t if t % 2 == 0 else t


# name -> (matrix, signature, parity) of indefinite unimodular forms
INDEFINITE_FORMS = {
    "H+H": (hyperbolic(2), [2, 2, 0], "even"),
    "I(2,1)": (diag(1, 1, -1), [2, 1, 0], "odd"),
    "I(2,2)": (diag(1, 1, -1, -1), [2, 2, 0], "odd"),
    "I(3,1)": (diag(1, 1, 1, -1), [3, 1, 0], "odd"),
}
# a form with another rank, signature or parity, hence not isomorphic
NON_ISOMORPHIC = {"H+H": "I(2,2)", "I(2,2)": "I(3,1)", "I(3,1)": "H+H", "I(2,1)": "I(3,1)"}
SPLITTINGS = (("S2xS2", "CP2#(-CP2)"), ("CP2", "S2xS2"), ("CP2#(-CP2)", "CP2"),
              ("S2xS2", "S2xS2"))
HC8_FORMS = ((hyperbolic(1), [1, 1, 0], "even"), (identity(2), [2, 0, 0], "odd"),
             (diag(1, -1), [1, 1, 0], "odd"), (identity(3), [3, 0, 0], "odd"))
DOMINATE_SOURCES = ("#2(S2xS2)", "CP2#(-CP2)", "CP2#CP2", "S2xS2")


def _manifold_mix(rng, w: Writer, index: int):
    """Small distinct queries over every subcommand.

    Structural choices cycle with the pass index so that every run has the
    same mix; numbers that make each query distinct (scrambles, attaching
    data) come from the seeded generator.
    """
    budget = BUDGETS["manifold-mix"]
    flags = ["--budget", str(budget), "--json"]
    queries = []

    def pick(options, salt=0):
        return options[(index + salt) % len(options)]

    names = sorted(INDEFINITE_FORMS)
    for salt in (0, 2):
        base, sig, par = INDEFINITE_FORMS[pick(names, salt)]
        a = congruent(base, scramble(rng, len(base), steps=3, cap=3)[0])
        queries.append(Query(
            "form-info scrambled", ["form-info", "--f", w.mat("fi", a)] + flags,
            "form-info", Manifold(a), extra={"signature": sig, "parity": par},
        ))

    name = pick(names, 1)
    base = INDEFINITE_FORMS[name][0]
    f = congruent(base, scramble(rng, len(base), steps=1, cap=2)[0])
    g = congruent(base, scramble(rng, len(base), steps=1, cap=2)[0])
    f_arg = w.mat("isof", f)
    queries.append(Query(
        "form-iso scrambled same", ["form-iso", "--f", f_arg, "--g", w.mat("isog", g)]
        + flags, "form-iso", Manifold(f), Manifold(g), k=1, expect={1: "yes"},
    ))
    other = NON_ISOMORPHIC[name]
    h = INDEFINITE_FORMS[other][0]
    h = congruent(h, scramble(rng, len(h), steps=2, cap=2)[0])
    queries.append(Query(
        "form-iso scrambled different", ["form-iso", "--f", f_arg, "--g",
                                         w.mat("isoh", h)] + flags,
        "form-iso", Manifold(f), Manifold(h), k=1, expect={1: "no"},
        why_no={1: f"{name} and {other} differ in rank, signature or parity"},
    ))

    # deg1 on a scrambled indefinite 4-manifold that splits as L + C
    l_name, c_name = pick(SPLITTINGS, 2)
    lm, cm = PRESETS[l_name], PRESETS[c_name]
    whole = block_diag(lm, cm)
    u, inv = scramble(rng, len(whole), steps=1, cap=2)
    a = congruent(whole, u)
    queries.append(Query(
        "deg1 scrambled(L+C)->L", ["deg1", "--M", w.mat("d1", a), "--L", l_name]
        + flags, "deg1", Manifold(a), preset(l_name), k=1, expect={1: "yes"},
        witnesses={1: matmul(inv, pad_rows(identity(len(lm)), len(whole)))},
        extra={"complement_rank": len(cm)},
    ))

    # highly connected 8-manifolds with attaching data (homotopy regime):
    # a scrambled I6 with torsion-free data onto I2 with nonzero torsion
    # checks every congruence witness and finds each one obstructed
    pi = pick(OBSTRUCTED_MODELS)
    d = pi["orders"][0]
    a = congruent(identity(6), scramble(rng, 6, steps=2, cap=2)[0])
    src = Manifold(a, 4, pi, [(a[i][i], (0,)) for i in range(6)])
    tgt = Manifold(identity(2), 4, pi, [(1, (rng.randrange(1, d),)) for _ in range(2)])
    queries.append(Query(
        "degset hc8 scrambled(I6)->I2 obstructed",
        ["degset", "--M", w.manifold_json("obs", src), "--L",
         w.manifold_json("obt", tgt), "--range", "2"] + flags,
        "degset", src, tgt,
        expect={k: "no" for k in (-2, -1, 1, 2)},
        why_no={**{k: "signature: definite source, k < 0" for k in (-2, -1)},
                **{k: f"source torsion and Whitehead torsion vanish, k*u != 0 mod {d}"
                   for k in (1, 2)}},
    ))

    pi = pick(PI_MODELS, 3)
    src_m, tgt_m = identity(4), identity(1)
    src = Manifold(src_m, 4, pi, random_data(rng, src_m, pi))
    tgt = Manifold(tgt_m, 4, pi, random_data(rng, tgt_m, pi))
    queries.append(Query(
        "degset hc8 I4->I1",
        ["degset", "--M", w.manifold_json("hcs", src), "--L",
         w.manifold_json("hct", tgt), "--range", "2"] + flags,
        "degset", src, tgt, expect={k: "no" for k in (-2, -1)},
        why_no={k: "signature: definite source, k < 0" for k in (-2, -1)},
    ))

    # deg1 on an 8-manifold L # C: the target's data is the first block's data
    tgt_m = pick((identity(1), identity(2)))
    comp_m = pick((identity(1), identity(2)), index // 2)
    whole = block_diag(tgt_m, comp_m)
    src = Manifold(whole, 4, pi, random_data(rng, whole, pi))
    tgt = Manifold(tgt_m, 4, pi, src.data[: len(tgt_m)])
    queries.append(Query(
        "deg1 hc8 L#C->L",
        ["deg1", "--M", w.manifold_json("hcsum", src), "--L",
         w.manifold_json("hcl", tgt)] + flags,
        "deg1", src, tgt, k=1, expect={1: "yes"},
        witnesses={1: pad_rows(identity(len(tgt_m)), len(whole))},
        extra={"complement_rank": len(comp_m)},
    ))

    # square-degree self-maps: s * I with s a multiple of 2T (T even) or T (T odd)
    for salt in range(len(HC8_FORMS)):
        m, sig, par = pick(HC8_FORMS, salt)
        man = Manifold(m, 4, pi, random_data(rng, m, pi))
        s = required_multiple(pi) * pick((1, 2), index // 4 + salt)
        queries.append(Query(
            "selfmap hc8", ["selfmap", "--M", w.manifold_json("self", man), "--k",
                            str(s)] + flags,
            "selfmap", man, man, k=s, expect={s * s: "yes"},
            witnesses={s * s: scaled(identity(len(m)), s)},
        ))
        queries.append(Query(
            "form-info hc8", ["form-info", "--f", w.manifold_json("fih", man)] + flags,
            "form-info", man, extra={"signature": sig, "parity": par},
        ))

    # dominance over presets and one seeded scrambled catalog member
    src_name = pick(DOMINATE_SOURCES)
    extra_m = congruent(diag(1, -1), scramble(rng, 2, steps=3, cap=3)[0])
    extra_arg = w.mat("dom", extra_m)
    catalog = {n: PRESETS[n] for n in ("CP2", "minusCP2", "S2xS2", "CP2#CP2")}
    catalog[Path(extra_arg[1:]).stem] = extra_m
    queries.append(Query(
        f"dominate {src_name}",
        ["dominate", "--M", src_name, "--range", "2", "--catalog",
         ",".join(list(catalog)[:4] + [extra_arg])] + flags,
        "dominate", preset(src_name), extra={"catalog": catalog},
    ))
    return queries


BUILDERS = {
    "indefinite-degset": _indefinite_degset,
    "definite-solve": _definite_solve,
    "manifold-mix": _manifold_mix,
}


def build_pass(workload: str, seed: int, index: int, root: Path) -> list:
    """Write pass ``index`` of ``workload`` under root and return its queries."""
    rng = random.Random(f"{workload}/{seed}/{index}")
    return BUILDERS[workload](rng, Writer(root), index)
