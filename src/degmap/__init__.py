"""degmap: exact-arithmetic decisions about degree-k maps between manifolds.

The package answers "is there a map of degree k from M to L?" for closed
even-dimensional manifolds whose criterion reduces to integer matrix
algebra: it solves the congruence P.T A P = k B over the integers, runs
the homotopy compatibility check for highly connected manifolds, and
assembles degree sets, degree-one splittings, square-degree self-maps and
dominance reports on top of that kernel.
"""

from .catalog import (
    ManifoldModel,
    connected_sum,
    diag_form,
    fixed_presets,
    hyperbolic_form,
    hyperbolic_scaling_matrix,
    identity_form,
    manifold,
    preset,
    reverse_orientation,
)
from .degsets import (
    DegreeSetReport,
    DominanceReport,
    degree_one_summand,
    degree_realizable,
    degree_set,
    dominated_candidates,
    orthogonal_complement_form,
    selfmap_square,
)
from .errors import DegmapError
from .homotopy import (
    PiElement,
    PiModel,
    check_homotopy_condition,
    compose_disjoint,
    element,
    elements_from_diagonal,
    hopf,
    induced_invariant,
    pi_add,
    pi_model,
    pi_scale,
    required_multiple,
    zero_element,
)
from .intform import (
    ANTISYMMETRIC,
    SYMMETRIC,
    IntersectionForm,
    IntMatrix,
    direct_sum,
    empty_form,
    make_form,
    parity,
    signature,
    transform_form,
)
from .solver import (
    SearchConfig,
    Verdict,
    congruence_solve,
    isomorphic,
    verify_witness,
)

__version__ = "0.1.0"

__all__ = [
    "ANTISYMMETRIC",
    "DegmapError",
    "DegreeSetReport",
    "DominanceReport",
    "IntMatrix",
    "IntersectionForm",
    "ManifoldModel",
    "PiElement",
    "PiModel",
    "SYMMETRIC",
    "SearchConfig",
    "Verdict",
    "check_homotopy_condition",
    "compose_disjoint",
    "congruence_solve",
    "connected_sum",
    "degree_one_summand",
    "degree_realizable",
    "degree_set",
    "diag_form",
    "direct_sum",
    "dominated_candidates",
    "element",
    "elements_from_diagonal",
    "empty_form",
    "fixed_presets",
    "hopf",
    "hyperbolic_form",
    "hyperbolic_scaling_matrix",
    "identity_form",
    "induced_invariant",
    "isomorphic",
    "make_form",
    "manifold",
    "orthogonal_complement_form",
    "parity",
    "pi_add",
    "pi_model",
    "pi_scale",
    "preset",
    "required_multiple",
    "reverse_orientation",
    "selfmap_square",
    "signature",
    "transform_form",
    "verify_witness",
    "zero_element",
]
