"""Abstract algebra of the homotopy group pi_{2n-1}(S^n).

The group splits as <nu> + G with nu of infinite order for even n (absent
for odd n) and G a finite abelian group given by its cyclic orders.  Only
the structural facts needed here are modelled:

* an element decomposes as lambda*H(t)*nu plus a torsion part, where
  lambda is 1 for n in {2, 4, 8} and 1/2 otherwise, and H is the Hopf
  invariant (the self-linking number of a preimage);
* the Whitehead square of the generator has Hopf invariant 2, so its
  nu-coefficient is the integer 2*lambda; its torsion part is input data;
* the class of a disjoint union of framed links adds the two classes plus
  the linking number times the Whitehead square.

Group tables beyond these facts are deliberately not built in: models are
constructed from explicit torsion data.  ``pi_model(2)`` is the fully
determined case (the group is Z and the diagonal of the pairing fixes all
attaching data).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import prod
from typing import Sequence

from .errors import (
    ModelMismatch,
    NonIntegralHopf,
    OddN,
    ShapeMismatch,
)
from .intform import IntersectionForm, IntMatrix


@dataclass(frozen=True)
class PiModel:
    """Structure constants of pi_{2n-1}(S^n) sufficient for this package."""

    n: int
    torsion_orders: tuple
    whitehead_torsion: tuple

    @property
    def has_nu(self) -> bool:
        return self.n % 2 == 0

    @property
    def lam(self) -> Fraction:
        return Fraction(1) if self.n in (2, 4, 8) else Fraction(1, 2)

    @property
    def torsion_order(self) -> int:
        """Order of the torsion subgroup (1 when there is none)."""
        return prod(self.torsion_orders) if self.torsion_orders else 1

    @property
    def whitehead(self) -> "PiElement":
        """The Whitehead square of the generator; Hopf invariant 2 when n is even."""
        nu = int(2 * self.lam) if self.has_nu else 0
        return PiElement(self, nu, self.whitehead_torsion)


def pi_model(
    n: int,
    torsion_orders: Sequence[int] = (),
    whitehead_torsion: Sequence[int] | None = None,
) -> PiModel:
    if n < 2:
        raise ShapeMismatch("n must be at least 2")
    orders = tuple(int(d) for d in torsion_orders)
    if any(d < 2 for d in orders):
        raise ShapeMismatch("torsion orders must be at least 2")
    if n == 2 and orders:
        raise ShapeMismatch("pi_3(S^2) is infinite cyclic and torsion free")
    if whitehead_torsion is None:
        wh = tuple(0 for _ in orders)
    else:
        wh = tuple(int(x) % d for x, d in _zip_same(whitehead_torsion, orders))
    return PiModel(n, orders, wh)


def _zip_same(values, orders):
    values = list(values)
    if len(values) != len(orders):
        raise ShapeMismatch(
            f"expected {len(orders)} torsion residues, got {len(values)}"
        )
    return zip(values, orders)


@dataclass(frozen=True)
class PiElement:
    """An element written as nu-coefficient plus torsion residues."""

    model: PiModel
    nu: int
    torsion: tuple

    def __post_init__(self):
        if not self.model.has_nu and self.nu != 0:
            raise ShapeMismatch("no infinite-order part exists when n is odd")
        if len(self.torsion) != len(self.model.torsion_orders):
            raise ShapeMismatch("torsion residue count does not match the model")
        assert all(
            0 <= r < d for r, d in zip(self.torsion, self.model.torsion_orders)
        ), "torsion residues must be reduced"

    def __str__(self) -> str:
        return f"{self.nu}*nu + {list(self.torsion)}"


def element(model: PiModel, nu: int = 0, torsion: Sequence[int] | None = None) -> PiElement:
    if torsion is None:
        torsion = (0,) * len(model.torsion_orders)
    reduced = tuple(int(x) % d for x, d in _zip_same(torsion, model.torsion_orders))
    return PiElement(model, int(nu), reduced)


def zero_element(model: PiModel) -> PiElement:
    return element(model, 0)


def _same_model(a: PiElement, b: PiElement):
    if a.model != b.model:
        raise ModelMismatch("elements live in different homotopy models")


def pi_add(a: PiElement, b: PiElement) -> PiElement:
    _same_model(a, b)
    tor = tuple(
        (x + y) % d for x, y, d in zip(a.torsion, b.torsion, a.model.torsion_orders)
    )
    return PiElement(a.model, a.nu + b.nu, tor)


def pi_scale(c: int, a: PiElement) -> PiElement:
    tor = tuple((c * x) % d for x, d in zip(a.torsion, a.model.torsion_orders))
    return PiElement(a.model, c * a.nu, tor)


def compose_disjoint(t1: PiElement, t2: PiElement, lk: int) -> PiElement:
    """Class of a disjoint union: t1 + t2 + lk * (Whitehead square)."""
    _same_model(t1, t2)
    return pi_add(pi_add(t1, t2), pi_scale(lk, t1.model.whitehead))


def hopf(t: PiElement) -> int:
    """Hopf invariant from the nu-coefficient: H(t) = nu / lambda."""
    if not t.model.has_nu:
        raise OddN("the Hopf invariant needs an even n")
    h = Fraction(t.nu) / t.model.lam
    if h.denominator != 1:
        raise NonIntegralHopf(f"nu-coefficient {t.nu} with lambda {t.model.lam}")
    return int(h)


def elements_from_diagonal(model: PiModel, form) -> tuple:
    """Attaching data whose Hopf invariants are the diagonal self-pairings.

    For n = 2 this recovers the full data (the group is torsion free and
    the diagonal determines everything); for other models the torsion
    parts default to zero.  Raises NonIntegralHopf when lambda * a_ii is
    not an integer, which signals an impossible diagonal for this n.
    """
    matrix = form.matrix if isinstance(form, IntersectionForm) else form
    out = []
    for i in range(matrix.rows):
        coeff = model.lam * matrix[i, i]
        if coeff.denominator != 1:
            raise NonIntegralHopf(
                f"diagonal entry {matrix[i, i]} is incompatible with lambda {model.lam}"
            )
        out.append(element(model, int(coeff) if model.has_nu else 0))
    return tuple(out)


def induced_invariant(form, elements: Sequence[PiElement], p: IntMatrix) -> tuple:
    """Push attaching data through the wedge map encoded by the matrix p.

    With pairing matrix a and data t_1..t_m, the r-th output is

        sum_v p[v][r] * t_v
          + ( sum_v C(p[v][r], 2) * a[v][v]
              + sum_{v<w} p[v][r] * p[w][r] * a[v][w] ) * whitehead

    where C(x, 2) = x*(x-1)/2, always an integer.
    """
    a = form.matrix if isinstance(form, IntersectionForm) else form
    m = a.rows
    if p.rows != m:
        raise ShapeMismatch(f"matrix has {p.rows} rows, pairing has rank {m}")
    if len(elements) != m:
        raise ShapeMismatch(f"expected {m} data elements, got {len(elements)}")
    if m == 0:
        return ()
    model = elements[0].model
    for t in elements:
        if t.model != model:
            raise ModelMismatch("attaching data mixes homotopy models")
    out = []
    for r in range(p.cols):
        col = [p[v, r] for v in range(m)]
        acc = zero_element(model)
        for v in range(m):
            if col[v]:
                acc = pi_add(acc, pi_scale(col[v], elements[v]))
        wh_coeff = sum(col[v] * (col[v] - 1) // 2 * a[v, v] for v in range(m))
        wh_coeff += sum(
            col[v] * col[w] * a[v, w] for v in range(m) for w in range(v + 1, m)
        )
        out.append(pi_add(acc, pi_scale(wh_coeff, model.whitehead)))
    return tuple(out)


@dataclass(frozen=True)
class ConditionReport:
    """Outcome of the degree-k compatibility check on attaching data."""

    ok: bool
    failing_indices: tuple


def check_homotopy_condition(
    source_form,
    source_data: Sequence[PiElement],
    target_form,
    target_data: Sequence[PiElement],
    p: IntMatrix,
    k: int,
) -> ConditionReport:
    """Check k * u_r == (data of source pushed through p)_r for every r.

    This is the homotopy half of the degree-k criterion; the bilinear half
    is the congruence P.T A P = k B checked by the solver.
    """
    b = target_form.matrix if isinstance(target_form, IntersectionForm) else target_form
    if p.cols != b.rows:
        raise ShapeMismatch("matrix column count does not match the target rank")
    if len(target_data) != b.rows:
        raise ShapeMismatch("target data length does not match the target rank")
    induced = induced_invariant(source_form, source_data, p)
    if induced and target_data:
        if induced[0].model != target_data[0].model:
            raise ModelMismatch("source and target use different homotopy models")
    failing = tuple(
        r for r in range(len(target_data))
        if pi_scale(k, target_data[r]) != induced[r]
    )
    return ConditionReport(not failing, failing)


def required_multiple(model: PiModel) -> int:
    """Smallest positive d such that degree k*k self-maps exist for d | k."""
    t = model.torsion_order
    return 2 * t if t % 2 == 0 else t


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------


def model_to_doc(model: PiModel) -> dict:
    return {
        "n": model.n,
        "torsion_orders": list(model.torsion_orders),
        "whitehead": {"nu": model.whitehead.nu, "torsion": list(model.whitehead_torsion)},
    }


# what a malformed document raises on the way to a model or an element
_DOC_ERRORS = (AttributeError, KeyError, TypeError, ValueError)


def model_from_doc(doc: dict) -> PiModel:
    try:
        wh = doc.get("whitehead") or {}
        model = pi_model(int(doc["n"]), doc.get("torsion_orders", ()), wh.get("torsion"))
        nu = int(wh["nu"]) if "nu" in wh else model.whitehead.nu
    except _DOC_ERRORS as exc:
        raise ShapeMismatch(
            f"a pi model document needs an integer 'n' and integer torsion lists ({exc!r})"
        ) from exc
    if nu != model.whitehead.nu:
        raise ModelMismatch(
            f"whitehead nu-coefficient must be {model.whitehead.nu} for n={model.n}"
        )
    return model


def element_to_doc(e: PiElement) -> dict:
    return {"nu": e.nu, "torsion": list(e.torsion)}


def element_from_doc(model: PiModel, doc: dict) -> PiElement:
    try:
        return element(model, int(doc.get("nu", 0)), doc.get("torsion"))
    except _DOC_ERRORS as exc:
        raise ShapeMismatch(
            f"a pi element document needs an integer 'nu' and a torsion list ({exc!r})"
        ) from exc


def elements_from_doc(model: PiModel, docs: list) -> list:
    """The homotopy data of a manifold document, one element per basis vector."""
    if not isinstance(docs, list):
        raise ShapeMismatch("homotopy_data must be a list of pi element documents")
    return [element_from_doc(model, e) for e in docs]
