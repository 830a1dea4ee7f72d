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
  the congruence must be paired with the homotopy compatibility check, so
  witnesses are iterated until one passes both;
* anything else: only necessity is available.  A solver Yes is then
  downgraded to the distinct kind ``necessary_pass`` so the tool never
  overclaims, while a solver No stays a genuine No.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Iterable

from .catalog import ManifoldModel
from .errors import (
    ConditionNotMet,
    DimensionMismatch,
    NotApplicable,
    ShapeMismatch,
    WitnessRejected,
)
from .homotopy import (
    check_homotopy_condition,
    elements_from_diagonal,
    pi_model,
    required_multiple,
)
from .intform import (
    IntersectionForm,
    IntMatrix,
    hstack,
    integer_kernel,
    make_form,
)
from . import solver
from .solver import DEFAULT_CONFIG, SearchConfig, Verdict

REGIME_CONSTANT = "constant-map"
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


def degree_realizable(
    source: ManifoldModel,
    target: ManifoldModel,
    k: int,
    cfg: SearchConfig | None = None,
) -> Verdict:
    """Decide whether some map from source to target has degree k.

    The verdict carries k and the regime whose criterion decided it.
    """
    cfg = cfg or DEFAULT_CONFIG
    regime = _regime(source, target)
    if k == 0:
        # the constant map
        zero = IntMatrix.zeros(source.form.rank, target.form.rank)
        return Verdict("yes", witness=zero, k=0, regime=REGIME_CONSTANT)
    if regime == REGIME_HOMOTOPY:
        verdict = _homotopy_verdict(source, target, k, cfg)
    else:
        verdict = solver.congruence_solve(source.form, target.form, k, cfg)
        if verdict.is_yes and regime == REGIME_NECESSARY:
            verdict = replace(verdict, kind="necessary_pass")
    return replace(verdict, k=k, regime=regime)


def _homotopy_verdict(
    source: ManifoldModel, target: ManifoldModel, k: int, cfg: SearchConfig
) -> Verdict:
    """First congruence witness that also passes the homotopy check."""
    if source.pi != target.pi:
        raise NotApplicable("source and target carry different homotopy models")
    filter_verdict, stream, outcome = solver.open_search(source.form, target.form, k, cfg)
    if filter_verdict is not None:
        return filter_verdict
    saw_witness = False
    for witness in stream:
        saw_witness = True
        report = check_homotopy_condition(
            source.form, source.homotopy_data,
            target.form, target.homotopy_data,
            witness, k,
        )
        if report.ok:
            return Verdict.yes_checked(source.form, target.form, k, witness)
    reason = REASON_HOMOTOPY if saw_witness else solver.REASON_EXHAUSTIVE
    return outcome.verdict(cfg.radius, reason)


# ---------------------------------------------------------------------------
# Degree sets
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DegreeSetReport:
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
    complement, whose basis is the integer kernel of witness.T @ ambient.
    """
    pairing = witness.transpose() @ ambient.matrix
    kernel = integer_kernel(pairing)
    comp = IntMatrix.from_columns(kernel, nrows=ambient.rank)
    union = hstack(witness, comp)
    if union.det() not in (1, -1):
        raise WitnessRejected("complement extraction did not produce a basis")
    gram = union.transpose() @ ambient.matrix @ union
    r = restricted.rank
    for i in range(r):
        for j in range(r):
            if gram[i, j] != restricted.matrix[i, j]:
                raise WitnessRejected("upper block does not match the target pairing")
    for i in range(r):
        for j in range(r, ambient.rank):
            if gram[i, j] != 0 or gram[j, i] != 0:
                raise WitnessRejected("complement is not orthogonal")
    sub = IntMatrix.from_rows(
        [[gram[i, j] for j in range(r, ambient.rank)] for i in range(r, ambient.rank)]
    )
    return make_form(sub, ambient.symmetry)


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
    return replace(verdict, k=k * k)


# ---------------------------------------------------------------------------
# Dominance
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DominanceReport:
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
