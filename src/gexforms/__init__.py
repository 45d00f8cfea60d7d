"""Exact computational algebra for quadratic forms over GF(2), their
central-extension 2-groups, and the signed even Clifford groups E(n)."""

from .f2linalg import BitMatrix, kernel_basis, rank, symplectic_basis
from .quadform import (
    FormClass,
    Isometry,
    Kind,
    QuadraticForm,
    change_basis,
    classify,
    direct_sum,
    h_minus,
    h_plus,
    isometry_oracle,
    normal_form_witness,
    parse_form,
    q_one,
    standard_form,
    zero_form,
)
from .admissible import (
    admissible_witness,
    is_admissible,
    is_admissible_bruteforce,
)
from .gexgroup import (
    GexGroup,
    GroupClass,
    central_product,
    classify_group,
    direct_z2,
    from_form,
    iso_oracle,
    q_from_group,
)
from .clifford import en_expected_class, g0_form, verify_en_table, verify_psi

__all__ = [
    "BitMatrix",
    "FormClass",
    "GexGroup",
    "GroupClass",
    "Isometry",
    "Kind",
    "QuadraticForm",
    "admissible_witness",
    "central_product",
    "change_basis",
    "classify",
    "classify_group",
    "direct_sum",
    "direct_z2",
    "en_expected_class",
    "from_form",
    "g0_form",
    "h_minus",
    "h_plus",
    "is_admissible",
    "is_admissible_bruteforce",
    "iso_oracle",
    "isometry_oracle",
    "kernel_basis",
    "normal_form_witness",
    "parse_form",
    "q_from_group",
    "q_one",
    "rank",
    "standard_form",
    "symplectic_basis",
    "verify_en_table",
    "verify_psi",
    "zero_form",
]

__version__ = "0.1.0"
