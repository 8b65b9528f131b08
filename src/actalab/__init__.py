"""actalab: finite monoids, finite acts, tensor products and tossings,
interpolation and flatness conditions, axiom schemas, replacement skeletons.
"""

from .act import (
    Act,
    ActCongruence,
    ActMorphism,
    congruence_closure,
    enumerate_acts,
    morphism_is_valid,
    regular_act,
    validate_act,
)
from .axioms import (
    AxiomSet,
    Sentence,
    Term,
    act_axioms,
    emit_axioms,
    model_check,
    sentence_to_text,
    verify_axiomatisations,
)
from .conditions import (
    ConditionReport,
    check_condition,
    check_flat_bounded,
    check_pwf,
    check_wf,
    condition_profile,
)
from .errors import ActalabError, ValidationError
from .monoid import (
    FiniteMonoid,
    PairSubact,
    RightIdeal,
    R_set,
    ideal_intersection,
    min_generating_set,
    monoid_from_indices,
    principal_right_ideal,
    r_set,
    validate_monoid,
)
from .replacement import ReplacementSet, replacement_skeletons, verify_replacement
from .tensor import (
    Skeleton,
    TensorProduct,
    Tossing,
    eval_delta,
    eval_gamma,
    find_tossing,
    format_tossing,
    induced_morphism,
    standard_tossing_act,
    tensor_product,
    validate_tossing,
)
from .zoo import FAMILIES, build, designated_pair, family_report

__version__ = "0.1.0"
