"""Group-graded algebras over prime fields, Hochschild cohomology, and
transfer maps, with exact verification of the Mackey-functor identities.

All values are immutable after construction and all operations are pure,
so independent computations can run concurrently.  The per-object caches
(component subalgebras, cochain differentials, cohomology bases, transfer
data) are plain dictionaries: populate them from one thread, or up front,
before sharing.
"""

from .errors import BudgetError, SpecError, ValidationError
from .exactfield import PrimeField, Subspace, subspace_from_rows
from .galg import (
    Algebra,
    GradedAlgebra,
    SymmetrizingForm,
    UnitDecomposition,
    algebra_from_spec,
    check_fully_graded,
    component_subalgebra,
    crossed_product,
    group_algebra,
    matrix_algebra,
    symmetrizing_form,
    unit_decomposition,
)
from .hh import CochainComplex, HHClasses, TransferData, cohomology, transfer, transfer_data
from .mackey import AxiomReport, MackeySystem

__all__ = [
    "BudgetError",
    "SpecError",
    "ValidationError",
    "PrimeField",
    "Subspace",
    "subspace_from_rows",
    "Algebra",
    "GradedAlgebra",
    "SymmetrizingForm",
    "UnitDecomposition",
    "group_algebra",
    "crossed_product",
    "matrix_algebra",
    "component_subalgebra",
    "check_fully_graded",
    "symmetrizing_form",
    "unit_decomposition",
    "algebra_from_spec",
    "CochainComplex",
    "HHClasses",
    "TransferData",
    "cohomology",
    "transfer",
    "transfer_data",
    "MackeySystem",
    "AxiomReport",
]
