"""Exact computational algebra for quantum Borel algebras at odd roots
of unity: the ambient Hopf algebra u_q(b), its quasi-Hopf subalgebra of
full support, the diagonal twist relating their coproducts, the
associator produced by that twist, the nontriviality of its restriction
as a group 3-cocycle, and the Drinfeld double presentation at the small
scale.  All coefficients live in a cyclotomic field with rational
coordinates; nothing is floated.
"""

from .algebra import Monomial
from .associator import (
    closed_form_associator,
    coboundary_matches_associator,
    pentagon_check,
    quasi_coassoc_check,
)
from .borel import build_borel, build_subalgebra, sector_presentation_check
from .cartan import LieDatum, lie_datum, validate_params
from .cocycle import decide_coboundary, restrict_associator
from .cyclotomic import CycField, CycScalar, cyc_field
from .double import (
    bicharacter_twist,
    build_double,
    central_grouplikes,
    identify_generators,
    r_matrix,
    r_matrix_check,
)
from .report import build_export_document, run_checks, write_export
from .twist import build_twist

__all__ = [
    "Monomial",
    "LieDatum",
    "CycField",
    "CycScalar",
    "bicharacter_twist",
    "build_borel",
    "build_double",
    "build_export_document",
    "build_subalgebra",
    "build_twist",
    "central_grouplikes",
    "closed_form_associator",
    "coboundary_matches_associator",
    "cyc_field",
    "decide_coboundary",
    "identify_generators",
    "lie_datum",
    "pentagon_check",
    "quasi_coassoc_check",
    "r_matrix",
    "r_matrix_check",
    "restrict_associator",
    "run_checks",
    "sector_presentation_check",
    "validate_params",
    "write_export",
]
