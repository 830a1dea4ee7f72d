"""Manifold-level degree queries.

``degree_realizable`` decides whether a single degree k is the degree of
some map between two given manifolds, ``degree_set`` sweeps a symmetric
range of degrees, and the remaining operations answer the classical
questions that reduce to the same congruence: degree-one maps split the
source pairing, highly connected manifolds admit square-degree self-maps,
and a fixed manifold dominates only finitely many candidates.

Which criterion applies depends on the hypotheses:

* n = 2 with a simply connected target: the congruence P.T A P = k B is
  necessary and sufficient, so solver verdicts pass through unchanged;
* n > 2 with both manifolds highly connected and carrying attaching data:
  the congruence is paired with the homotopy compatibility check, whose
  r-th condition reads only column r, so ``congruence_solve`` takes it as
  a column predicate and skips each candidate that fails it; a complete No
  names the homotopy obstruction when a column was rejected, and the
  exhausted enumeration otherwise.  The predicate compares k * u_r with
  sum_v c_v * t_v + q(c) * W, where W is the Whitehead square and
  q(c) = sum_v C(c_v, 2) * a_vv + sum_{v<w} c_v * c_w * a_vw, on integer
  dot products (nu-coefficients exactly, torsion residues mod each cyclic
  order); a Yes witness is re-checked in full by
  ``homotopy.check_homotopy_condition``.  For a symmetric A the test is
  first decided in closed form: a witness's column has c.A c = k * b_rr,
  so 2 q(c) = k * b_rr - sum_v c_v * a_vv, and the torsion part for a
  cyclic factor of order d, doubled, is linear in c,
  sum_v c_v * (2 t_v - w * a_vv) == k * (2 u_r - w * b_rr) mod 2d,
  while the nu part holds by itself.  When the factors' congruences have
  no joint integer solution for some r, no witness passes, and the answer
  is a HomotopyObstruction No before any witness is built or enumerated,
  for indefinite sources too, and also where the exhausted enumeration
  would have named no rejected column (``_linearly_obstructed``);
* anything else: only necessity is available.  A solver Yes is then
  downgraded to the distinct kind ``necessary_pass`` so the tool never
  overclaims, while a solver No stays a genuine No.  The one exception is
  k = 1 from a catalog preset to the same preset: the identity is a
  degree-1 map of every closed oriented manifold, so that is a Yes with
  the identity witness.  Equal models alone do not suffice, because the
  data of this regime do not determine the manifold: T4 and
  (S1xS3)#3(S2xS2) both have the pairing H^3 and neither is simply
  connected, yet no degree-1 map takes the second onto the first.
"""

from __future__ import annotations

from operator import mul
from typing import Callable, Iterable, NamedTuple, Sequence

from .canonical import canonical_basis
from .catalog import ManifoldModel, preset
from .errors import (
    ConditionNotMet,
    DimensionMismatch,
    NotApplicable,
    ShapeMismatch,
    UnknownPreset,
    WitnessRejected,
)
from .homotopy import (
    PiElement,
    PiModel,
    check_homotopy_condition,
    elements_from_diagonal,
    pi_model,
    required_multiple,
)
from .intform import (
    SYMMETRIC,
    IntersectionForm,
    IntMatrix,
    _column_reduce,
    make_form,
    split_basis,
)
from . import solver
from .solver import SearchConfig, Verdict

REGIME_CONSTANT = "constant-map"
REGIME_IDENTITY = "identity-map"
REGIME_BILINEAR = "bilinear-criterion"
REGIME_HOMOTOPY = "homotopy-criterion"
REGIME_NECESSARY = "necessary-only"

REASON_HOMOTOPY = "HomotopyObstruction"


def _regime(source: ManifoldModel, target: ManifoldModel) -> str:
    if source.n != target.n:
        raise DimensionMismatch(
            f"dimensions 2*{source.n} and 2*{target.n} differ"
        )
    if source.n == 2 and target.simply_connected:
        return REGIME_BILINEAR
    if (
        source.n > 2
        and source.highly_connected
        and target.highly_connected
        and source.homotopy_data is not None
        and target.homotopy_data is not None
    ):
        return REGIME_HOMOTOPY
    return REGIME_NECESSARY


def _same_preset(source: ManifoldModel, target: ManifoldModel) -> bool:
    """Whether source and target are both the catalog preset they are named
    after, and so one manifold.  Equal models under any other name, such as
    two unnamed documents with the same data, can be two manifolds.  A
    document that gives a preset's name and data is taken at its word."""
    if source != target:
        return False
    try:
        return preset(source.name) == source
    except UnknownPreset:
        return False


def degree_realizable(
    source: ManifoldModel,
    target: ManifoldModel,
    k: int,
    cfg: SearchConfig | None = None,
) -> Verdict:
    """Decide whether some map from source to target has degree k.

    The verdict carries k and the regime whose criterion decided it.
    """
    regime = _regime(source, target)
    if k == 0:
        # the constant map
        zero = IntMatrix.zeros(source.form.rank, target.form.rank)
        return Verdict("yes", witness=zero, k=0, regime=REGIME_CONSTANT)
    if k == 1 and regime == REGIME_NECESSARY and _same_preset(source, target):
        # the identity map, which the exact criteria find by themselves
        identity = IntMatrix.identity(source.form.rank)
        return Verdict("yes", witness=identity, k=1, regime=REGIME_IDENTITY)
    if regime == REGIME_HOMOTOPY:
        verdict = _homotopy_verdict(source, target, k, cfg)
    else:
        verdict = solver.congruence_solve(source.form, target.form, k, cfg)
        if verdict.is_yes and regime == REGIME_NECESSARY:
            verdict = verdict._replace(kind="necessary_pass")
    return verdict._replace(k=k, regime=regime)


def _column_test(
    a: IntMatrix, data: Sequence[PiElement], model: PiModel, k: int, targets: Sequence[PiElement]
) -> Callable[[int, tuple], bool]:
    """The homotopy condition on one column, as a predicate on plain integers.

    With source data t_v, target data u_r and Whitehead square W, column c
    passes as column r when

        k * u_r == sum_v c_v * t_v + q(c) * W,
        q(c) = sum_v C(c_v, 2) * a_vv + sum_{v<w} c_v * c_w * a_vw,

    which is ``pushed_column(a, data, model, c) == pi_scale(k, u_r)``.  The
    nu-coefficients compare exactly and each torsion residue mod its cyclic
    order, all as dot products over the basis vectors on lists built once;
    no group element is made.  q takes the strict upper triangle of A rather
    than (c.A c - sum_v c_v a_vv) / 2, which is 0 for an antisymmetric A
    (odd n).
    """
    rows = a.to_rows()
    diag = [row[v] for v, row in enumerate(rows)]
    # the strict upper triangle, each row padded with zeros up to column v
    upper = [[0] * (v + 1) + row[v + 1 :] for v, row in enumerate(rows)]
    nus = [t.nu for t in data]
    wh = model.whitehead
    orders = model.torsion_orders
    residues = [[t.torsion[j] for t in data] for j in range(len(orders))]
    # per target column: k times its nu-coefficient, and per cyclic factor
    # (order, source residues, Whitehead residue, k times its residue)
    wanted = [
        (k * u.nu, list(zip(orders, residues, wh.torsion, [k * x for x in u.torsion])))
        for u in targets
    ]

    def passes(col: int, vec: tuple) -> bool:
        nu, factors = wanted[col]
        q = sum(map(mul, vec, [sum(map(mul, row, vec)) for row in upper]))
        q += sum(map(mul, [c * (c - 1) // 2 for c in vec], diag))
        return sum(map(mul, nus, vec)) + q * wh.nu == nu and not any(
            (sum(map(mul, res, vec)) + q * w - r) % d for d, res, w, r in factors
        )

    return passes


def _linearly_obstructed(source: ManifoldModel, target: ManifoldModel, k: int) -> bool:
    """Whether some target column r has no integer c that passes the column
    test while c.A c == k * b_rr, as every column of a witness does.

    For a symmetric A, 2 q(c) = c.A c - sum_v c_v a_vv, which is
    k * b_rr - sum_v c_v a_vv on such a column.  So the torsion part of
    ``_column_test`` for a cyclic factor of order d, doubled and read mod
    2d, is linear in c:

        sum_v c_v (2 t_v - w a_vv) == k (2 u_r - w b_rr)   (mod 2d),

    with t_v, w and u_r the residues of the source data, the Whitehead
    square and the target data.  The nu part reads lambda c.A c ==
    lambda k b_rr, because ``catalog.manifold`` makes H(t_v) = a_vv, so it
    holds by itself.  The factors' congruences are solvable jointly exactly
    when the right-hand sides lie in the column lattice of
    [gamma | diag(2 d_j)]; ``_column_reduce`` brings that source-only
    matrix to a lower triangular echelon form h once, and forward
    substitution through h decides each column.  An antisymmetric A (odd
    n) is skipped: there q(c) does not follow from c.A c, which is 0.
    """
    a, orders = source.form.matrix, source.pi.torsion_orders
    if source.form.symmetry != SYMMETRIC or not orders:
        return False
    wh = source.pi.whitehead.torsion
    diag = [a[v, v] for v in range(a.rows)]
    rows = [
        [2 * t.torsion[j] - w * x for t, x in zip(source.homotopy_data, diag)]
        + [2 * d if i == j else 0 for i in range(len(orders))]
        for j, (d, w) in enumerate(zip(orders, wh))
    ]
    h = _column_reduce(rows, len(rows[0]))[0]
    b = target.form.matrix
    for r, u in enumerate(target.homotopy_data):
        x = []
        for j, w in enumerate(wh):
            # h[j][j] is the pivot of row j: the block diag(2 d_j) gives full row rank
            rest = k * (2 * u.torsion[j] - w * b[r, r]) - sum(map(mul, h[j], x))
            q, rem = divmod(rest, h[j][j])
            if rem:
                return True
            x.append(q)
    return False


def _homotopy_verdict(
    source: ManifoldModel, target: ManifoldModel, k: int, cfg: SearchConfig | None
) -> Verdict:
    """The congruence verdict restricted to witnesses that also pass the
    homotopy check, tested on each candidate column before it is placed
    by ``_column_test``.  A Yes witness is re-checked in full by
    ``check_homotopy_condition``, which goes through ``pushed_column``; a
    complete No is a HomotopyObstruction when the column test rejected any
    candidate.

    Before any witness is built or enumerated, ``_linearly_obstructed``
    tests each target column's congruences mod 2d in closed form.  When
    one has no integer solution no column can pass, so the answer is a
    HomotopyObstruction No, also where the forms alone admit no witness
    and the search would have said ExhaustiveDefinite; only a complete
    filter of the congruence that fires first keeps its own reason.  This
    decides indefinite sources too, whose enumeration never ends.
    """
    if source.pi != target.pi:
        raise NotApplicable("source and target carry different homotopy models")
    if _linearly_obstructed(source, target, k):
        return solver.open_search(source.form, target.form, k, cfg)[0] or Verdict.no(
            REASON_HOMOTOPY
        )
    passes = _column_test(
        source.form.matrix, source.homotopy_data, source.pi, k, target.homotopy_data
    )
    rejected = False

    def accept(col: int, vec: tuple) -> bool:
        nonlocal rejected
        ok = passes(col, vec)
        rejected = rejected or not ok
        return ok

    verdict = solver.congruence_solve(source.form, target.form, k, cfg, accept)
    if verdict.is_yes:
        report = check_homotopy_condition(
            source.form, source.homotopy_data, target.form, target.homotopy_data, verdict.witness, k
        )
        if not report.ok:
            raise WitnessRejected(f"witness failed the homotopy check at {report.failing_indices}")
    elif rejected and verdict.reason == solver.REASON_EXHAUSTIVE:
        verdict = Verdict.no(REASON_HOMOTOPY)
    return verdict


# ---------------------------------------------------------------------------
# Degree sets
# ---------------------------------------------------------------------------


class DegreeSetReport(NamedTuple):
    """All answers over the symmetric range [-bound, bound].

    Degree 0 always belongs to the set (the constant map) and has no entry.
    """

    source: str
    target: str
    bound: int
    answers: tuple

    def _ks(self, kind: str) -> set:
        return {a.k for a in self.answers if a.kind == kind}

    @property
    def yes_set(self) -> set:
        return self._ks("yes")

    @property
    def no_set(self) -> set:
        return self._ks("no")

    @property
    def unknown_set(self) -> set:
        return self._ks("unknown")

    @property
    def necessary_pass_set(self) -> set:
        return self._ks("necessary_pass")

    def answer_for(self, k: int) -> Verdict:
        for a in self.answers:
            if a.k == k:
                return a
        raise KeyError(k)


def degree_set(
    source: ManifoldModel,
    target: ManifoldModel,
    bound: int,
    cfg: SearchConfig | None = None,
) -> DegreeSetReport:
    """degree_realizable for every k in [-bound, bound] except 0, ordered by k."""
    if bound < 0:
        raise ShapeMismatch(f"degree range bound {bound} is negative")
    answers = tuple(
        degree_realizable(source, target, k, cfg)
        for k in range(-bound, bound + 1)
        if k != 0
    )
    return DegreeSetReport(source.name, target.name, bound, answers)


# ---------------------------------------------------------------------------
# Degree-one maps and direct summands
# ---------------------------------------------------------------------------


def orthogonal_complement_form(
    ambient: IntersectionForm, witness: IntMatrix, restricted: IntersectionForm
) -> IntersectionForm:
    """C with ambient isomorphic to restricted + C, from a degree-1 witness.

    The witness columns span a sublattice carrying ``restricted``; because
    that block is unimodular the lattice splits off its orthogonal
    complement, whose basis ``split_basis`` appends to the witness columns.
    C is given as I(p, q), H^a or, for an antisymmetric ambient form, J^g
    where ``canonical_basis`` covers it, so that it does not depend on the
    basis the kernel happens to return.
    """
    union = split_basis(ambient.matrix, witness)
    if union.det() not in (1, -1):
        raise WitnessRejected("complement extraction did not produce a basis")
    gram = ambient.matrix.transform_by(union).to_rows()
    r = restricted.rank
    if [row[:r] for row in gram[:r]] != restricted.matrix.to_rows():
        raise WitnessRejected("upper block does not match the target pairing")
    if any(gram[i][j] or gram[j][i] for i in range(r) for j in range(r, ambient.rank)):
        raise WitnessRejected("complement is not orthogonal")
    complement = make_form(IntMatrix.from_rows([row[r:] for row in gram[r:]]), ambient.symmetry)
    u = canonical_basis(complement)
    if u is None or u == IntMatrix.identity(complement.rank):
        return complement
    return make_form(complement.matrix.transform_by(u), ambient.symmetry)


def degree_one_summand(
    source: ManifoldModel,
    target: ManifoldModel,
    cfg: SearchConfig | None = None,
) -> tuple:
    """Decide degree-1 existence; on Yes also return the complement form C.

    Returns (answer, C or None).  C satisfies: source pairing is isomorphic
    to target pairing + C, exhibited by an explicit basis change.
    """
    regime = _regime(source, target)
    if regime == REGIME_NECESSARY:
        raise NotApplicable(
            "degree-one splitting is only decided under the exact criteria"
        )
    answer = degree_realizable(source, target, 1, cfg)
    if not answer.is_yes:
        return answer, None
    comp = orthogonal_complement_form(source.form, answer.witness, target.form)
    return answer, comp


# ---------------------------------------------------------------------------
# Self-maps of square degree
# ---------------------------------------------------------------------------


def selfmap_square(m: ManifoldModel, k: int) -> Verdict:
    """A verified self-map of degree k*k, realized by k times the identity.

    Returns a Yes whose ``k`` is the degree k*k; the witness has passed both
    the congruence and the homotopy check.

    Requires m highly connected and k a multiple of 2T (T even) or T
    (T odd) where T is the torsion order of the homotopy model; for n = 2
    the group is torsion free and every k qualifies.
    """
    if not m.highly_connected:
        raise NotApplicable("square-degree self-maps need a highly connected manifold")
    if m.n == 2:
        model = pi_model(2)
        data = elements_from_diagonal(model, m.form)
    else:
        if m.pi is None or m.homotopy_data is None:
            raise NotApplicable("attaching data is required when n > 2")
        model = m.pi
        data = m.homotopy_data
    rank = m.form.rank
    if k == 0:
        return Verdict("yes", witness=IntMatrix.zeros(rank, rank), k=0)
    needed = required_multiple(model)
    if k % needed != 0:
        raise ConditionNotMet(
            f"k = {k} is not a multiple of {needed} required by the torsion order"
        )
    witness = IntMatrix.identity(rank).scaled(k)
    verdict = Verdict.yes_checked(m.form, m.form, k * k, witness)
    report = check_homotopy_condition(m.form, data, m.form, data, witness, k * k)
    if not report.ok:
        raise WitnessRejected(
            f"scaled identity failed the homotopy check at indices {report.failing_indices}"
        )
    return verdict._replace(k=k * k)


# ---------------------------------------------------------------------------
# Dominance
# ---------------------------------------------------------------------------


class DominanceReport(NamedTuple):
    source: str
    bound: int
    dominated: tuple  # (name, k, witness)
    necessary_only: tuple  # (name, k)
    excluded_by_rank: tuple  # names
    undecided: tuple  # names


def dominated_candidates(
    source: ManifoldModel,
    candidates: Iterable[ManifoldModel],
    bound: int = 4,
    cfg: SearchConfig | None = None,
) -> DominanceReport:
    """Filter candidates by rank, then search degrees 1, -1, 2, -2, ...

    A candidate counts as dominated only on a genuine Yes; targets outside
    the exact criteria can at best reach the necessary_only list.
    """
    if bound < 0:
        raise ShapeMismatch(f"degree range bound {bound} is negative")
    dominated = []
    necessary = []
    excluded = []
    undecided = []
    for cand in candidates:
        if cand.form.rank > source.form.rank:
            excluded.append(cand.name)
            continue
        hit = None
        nec = None
        for mag in range(1, bound + 1):
            for k in (mag, -mag):
                ans = degree_realizable(source, cand, k, cfg)
                if ans.kind == "yes":
                    hit = (cand.name, k, ans.witness)
                    break
                if ans.kind == "necessary_pass" and nec is None:
                    nec = (cand.name, k)
            if hit:
                break
        if hit:
            dominated.append(hit)
        elif nec:
            necessary.append(nec)
        else:
            undecided.append(cand.name)
    return DominanceReport(
        source.name,
        bound,
        tuple(dominated),
        tuple(necessary),
        tuple(excluded),
        tuple(undecided),
    )
