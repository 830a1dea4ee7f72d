"""Named manifold models and the operations that combine them.

A model records the half-dimension n (the manifold has dimension 2n), the
middle pairing, connectivity flags and, for highly connected manifolds of
dimension above four, the attaching data of the top cell.  The built-in
presets are the classical closed 4-manifolds used as fixtures throughout
the test suite:

    CP2          complex projective plane, pairing (1)
    minusCP2     reversed orientation, pairing (-1)
    S2xS2        product of spheres, hyperbolic pairing
    CP2#CP2      pairing I_2
    CP2#(-CP2)   pairing diag(1, -1)
    T4           the 4-torus, pairing of three hyperbolic planes
    FsxFr(s,r)   product of surfaces of genus s and r, 2rs+1 hyperbolic planes
    #q(S2xS2)    q-fold connected sum, q hyperbolic planes

``FsxFr(0,0)`` is served as the S2xS2 preset.  Only the free part of the
middle (co)homology is carried; the fundamental group is summarized by the
simply_connected flag, which is all the degree criteria need.
"""

from __future__ import annotations

import re
from typing import NamedTuple, Sequence

from .canonical import block_witness
from .errors import (
    DimensionMismatch,
    InvalidManifold,
    ModelMismatch,
    ShapeMismatch,
    SymmetryMismatch,
    UnknownPreset,
)
from .homotopy import (
    PiElement,
    PiModel,
    element_to_doc,
    elements_from_doc,
    hopf,
    model_from_doc,
    model_to_doc,
)
from .intform import (
    ANTISYMMETRIC,
    HYPERBOLIC,
    PARITY_EVEN,
    SYMMETRIC,
    IntMatrix,
    IntersectionForm,
    block_diagonal,
    direct_sum,
    infer_symmetry,
    json_int,
    make_form,
    matrix_from_doc,
    matrix_to_doc,
)


class ManifoldModel(NamedTuple):
    """A named manifold reduced to the data the degree criteria consume."""

    name: str
    n: int
    form: IntersectionForm
    simply_connected: bool
    highly_connected: bool
    pi: PiModel | None = None
    homotopy_data: tuple | None = None


def manifold(
    name: str,
    n: int,
    form: IntersectionForm,
    simply_connected: bool,
    highly_connected: bool,
    pi: PiModel | None = None,
    homotopy_data: Sequence[PiElement] | None = None,
) -> ManifoldModel:
    if n < 2:
        raise InvalidManifold("n must be at least 2 (manifold dimension 2n > 2)")
    want = SYMMETRIC if n % 2 == 0 else ANTISYMMETRIC
    if form.symmetry != want:
        article = "an" if want == ANTISYMMETRIC else "a"
        raise SymmetryMismatch(f"a 2*{n}-manifold needs {article} {want} pairing")
    if highly_connected and not simply_connected:
        raise InvalidManifold("highly connected implies simply connected")
    data = tuple(homotopy_data) if homotopy_data is not None else None
    if data is not None:
        if not highly_connected or n == 2:
            raise InvalidManifold(
                "attaching data is only carried for highly connected manifolds with n > 2"
            )
        if pi is None:
            raise InvalidManifold("attaching data needs its homotopy model")
        if pi.n != n:
            raise ModelMismatch("homotopy model half-dimension disagrees with n")
        if len(data) != form.rank:
            raise ShapeMismatch("attaching data length must equal the pairing rank")
        if any(t.model != pi for t in data):
            raise ModelMismatch("attaching data mixes homotopy models")
        if pi.has_nu:
            # the self-linking number of each attaching class is its
            # self-intersection, so H(t_i) must equal the diagonal entry
            for i, t in enumerate(data):
                if hopf(t) != form.matrix[i, i]:
                    raise InvalidManifold(
                        f"Hopf invariant {hopf(t)} of class {i} does not match "
                        f"the self-pairing {form.matrix[i, i]}"
                    )
    return ManifoldModel(name, n, form, simply_connected, highly_connected, pi, data)


# ---------------------------------------------------------------------------
# Standard forms
# ---------------------------------------------------------------------------


def hyperbolic_matrix(copies: int) -> IntMatrix:
    """copies blocks of [[0,1],[1,0]] down the diagonal."""
    return block_diagonal(*[HYPERBOLIC] * copies)


def hyperbolic_form(copies: int) -> IntersectionForm:
    return make_form(hyperbolic_matrix(copies), SYMMETRIC)


def identity_form(rank: int) -> IntersectionForm:
    return make_form(IntMatrix.identity(rank), SYMMETRIC)


def diag_form(diag: Sequence[int]) -> IntersectionForm:
    return make_form(IntMatrix.diagonal(list(diag)), SYMMETRIC)


def hyperbolic_scaling_matrix(copies: int, k: int) -> IntMatrix:
    """P with P.T H^copies P == k H^copies: m I for k = m^2, else blocks
    diag(k, 1), from ``canonical.block_witness``."""
    planes = (copies, copies, PARITY_EVEN)
    return block_witness(planes, planes, k)


# ---------------------------------------------------------------------------
# Presets
# ---------------------------------------------------------------------------

# int() reads 640 digits under any int_max_str_digits setting
_FSFR = re.compile(r"^FsxFr\((\d{1,640}),(\d{1,640})\)$")
_SUM = re.compile(r"^#(\d{1,640})\(S2xS2\)$")
MAX_PRESET_RANK = 256  # largest pairing rank a family builds; #128(S2xS2) takes about 0.6 s


def _planes_form(name: str, planes: int) -> IntersectionForm:
    """planes hyperbolic planes, refused above MAX_PRESET_RANK before any matrix is built."""
    if 2 * planes > MAX_PRESET_RANK:
        raise UnknownPreset(f"preset {name!r} has pairing rank above {MAX_PRESET_RANK}")
    return hyperbolic_form(planes)


def preset(name: str) -> ManifoldModel:
    """Build a preset manifold; parameterized families parse their arguments."""
    clean = name.replace("\u2212", "-").replace(" ", "")
    if clean == "CP2":
        return manifold("CP2", 2, identity_form(1), True, True)
    if clean == "minusCP2":
        return manifold("minusCP2", 2, diag_form([-1]), True, True)
    if clean == "S2xS2":
        return manifold("S2xS2", 2, hyperbolic_form(1), True, True)
    if clean == "CP2#CP2":
        return manifold("CP2#CP2", 2, identity_form(2), True, True)
    if clean == "CP2#(-CP2)":
        return manifold("CP2#(-CP2)", 2, diag_form([1, -1]), True, True)
    if clean == "T4":
        return manifold("T4", 2, hyperbolic_form(3), False, False)
    m = _FSFR.match(clean)
    if m:
        s, r = int(m.group(1)), int(m.group(2))
        if s == 0 and r == 0:
            return preset("S2xS2")
        return manifold(f"FsxFr({s},{r})", 2, _planes_form(name, 2 * r * s + 1), False, False)
    m = _SUM.match(clean)
    if m:
        q = int(m.group(1))
        return manifold(f"#{q}(S2xS2)", 2, _planes_form(name, q), True, True)
    raise UnknownPreset(f"no preset named {name!r}")


def fixed_presets() -> list:
    """The non-parameterized presets, used as the default dominance catalog."""
    return [preset(n) for n in ("CP2", "minusCP2", "S2xS2", "CP2#CP2", "CP2#(-CP2)", "T4")]


# ---------------------------------------------------------------------------
# Operations
# ---------------------------------------------------------------------------


def connected_sum(a: ManifoldModel, b: ManifoldModel) -> ManifoldModel:
    if a.n != b.n:
        raise DimensionMismatch(f"half-dimensions {a.n} and {b.n} differ")
    data = None
    pi = None
    if a.homotopy_data is not None and b.homotopy_data is not None:
        if a.pi != b.pi:
            raise ModelMismatch("connected sum needs matching homotopy models")
        data = a.homotopy_data + b.homotopy_data
        pi = a.pi
    return manifold(
        f"{a.name}#{b.name}",
        a.n,
        direct_sum(a.form, b.form),
        a.simply_connected and b.simply_connected,
        a.highly_connected and b.highly_connected,
        pi,
        data,
    )


def reverse_orientation(m: ManifoldModel) -> ManifoldModel:
    """Negate the pairing.  Attaching data does not transport; it is dropped."""
    name = m.name[1:] if m.name.startswith("-") else "-" + m.name
    return manifold(
        name,
        m.n,
        make_form(-m.form.matrix, m.form.symmetry),
        m.simply_connected,
        m.highly_connected,
    )


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------


def manifold_to_doc(m: ManifoldModel) -> dict:
    doc = {
        "name": m.name,
        "n": m.n,
        "matrix": matrix_to_doc(m.form.matrix, m.form.symmetry),
        "simply_connected": m.simply_connected,
        "highly_connected": m.highly_connected,
    }
    if m.pi is not None:
        doc["pi"] = model_to_doc(m.pi)
    if m.homotopy_data is not None:
        doc["homotopy_data"] = [element_to_doc(t) for t in m.homotopy_data]
    return doc


def manifold_from_doc(doc: dict) -> ManifoldModel:
    matrix, symmetry = matrix_from_doc(doc.get("matrix"))
    if symmetry is None:
        symmetry = infer_symmetry(matrix)
    form = make_form(matrix, symmetry)
    try:
        n = json_int(doc.get("n", 2))
    except TypeError as exc:
        raise ShapeMismatch(f"a manifold document needs an integer 'n' ({exc!r})") from exc
    pi = model_from_doc(doc["pi"]) if "pi" in doc else None
    data = None
    if "homotopy_data" in doc:
        if pi is None:
            raise InvalidManifold("homotopy_data needs a pi model")
        data = elements_from_doc(pi, doc["homotopy_data"])
    simply = doc.get("simply_connected", n == 2)
    highly = doc.get("highly_connected", False)
    if not isinstance(simply, bool) or not isinstance(highly, bool):
        raise ShapeMismatch("'simply_connected' and 'highly_connected' must be true or false")
    return manifold(str(doc.get("name", "manifold")), n, form, simply, highly, pi, data)
