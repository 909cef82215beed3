"""Exact-arithmetic machinery for affine metric geometry.

Quadratic forms over small finite fields and the rationals, their
orthogonal and weak orthogonal groups, rank-one maps (transvections and
dilatations), the homogeneous dual model of the affine group, the lift and
drop between forms on V and forms on F x V*, and exhaustive verification
sweeps for the classification of which lifted forms' weak groups realise
the motion groups.

Everything is exact: finite fields use small-int tables, the rationals use
`fractions.Fraction`; enumeration sizes are guarded by a budget
(`METRIC_AFFINE_BUDGET`).
"""

from .fields import GF2, GF3, GF4, GF5, GF7, QQ, Field, field_make
from .linalg import (Mat, Singular, annihilator, kernel_basis, mat_invert,
                     outer, pairing, rank, rref, span_contains, unit_vector,
                     vec)
from .quadform import (NotReflectable, QForm, all_vectors, enumerate_forms,
                       form_from_text, form_to_text, is_isometry,
                       is_nondegenerate, poly_str, polar, qf_eval,
                       qf_proportional, qf_pullback, qf_rank, qf_scale,
                       radical_basis, reflection)
from .budget import (BudgetExceeded, DEFAULT_BUDGET, HARD_BUDGET_CEILING,
                     InvariantViolation, group_budget, order_gl)

# the homogeneous model and the numpy group engine: their names load on
# first use (PEP 562)
_LAZY = {name: module for module, names in (
    ("homog", "AffineMap DegeneratePolarForm NotDroppable RoundtripReport "
     "affine_reflection drop dual_matrix dual_matrix_preimage lift "
     "motion_group_dual point_matrix reflection_correspondence "
     "roundtrip_checks"),
    ("groups", "GroupSet ReflectionStatus closure enumerate_gl group_equal "
     "is_subgroup orthogonal_group reflection_generation_status "
     "weak_orthogonal_group"),
    ("transvect", "DeltaMap DirectionCase KIND_DILATATION KIND_IDENTITY "
     "KIND_TRANSVECTION NotInvertible annihilator_transvections_in_weak "
     "classify_direction delta_group delta_make "
     "scaled_transvection_never_weak"),
    ("classify", "DyadReport MODE_MOTION MODE_WEAK MainPropReport "
     "ProjectiveReport QuadricReport TableReport SUPPORTED_TABLES dyad_report "
     "dyad_satisfies projective_reduce quadric_duality_check quadric_points "
     "reproduce_table solve_for_qtilde verify_main_prop "
     "verify_projective_theorem")) for name in names.split()}
__all__ = sorted(set(_LAZY) | {name for name in globals() if name[0] != "_"}
                 - {"budget", "fields", "linalg", "quadform"})
__version__ = "0.1.0"


def __getattr__(name):
    module = _LAZY.get(name, name)
    if module not in ("homog", "groups", "transvect", "classify"):
        raise AttributeError("%s has no attribute %r" % (__name__, name))
    import importlib
    home = importlib.import_module("." + module, __name__)
    globals()[name] = home if name == module else getattr(home, name)
    return globals()[name]


def __dir__():
    return sorted(set(globals()) | set(__all__))
