"""Exact arithmetic layer: scalar field towers, sparse differentials
and dense linear algebra, integer lattice algorithms, and certified
real enclosures."""

from .fields import (
    QQ,
    ComplexField,
    ComplexScalar,
    FunctionField,
    QuadSurd,
    QuadraticField,
    RationalFunction,
    build_field,
    complexify,
    embed,
    substitute_parameter,
)
from .intlattice import (
    det_int,
    integer_kernel,
    is_unimodular,
    minor_gcd_diagonal,
    smith_diagonal,
    smith_normal_form,
)
from .linalg import (
    Matrix,
    Subspace,
    check_reduction,
    invert,
    kernel_basis,
    rank,
    rank_fraction_free,
    reduce_columns,
    rref,
    solve,
)
from .numbers import (
    ConvergentSeries,
    ExponentPair,
    NumberSpec,
    QuadraticSurd,
    liouville_decimal,
    power_tower,
)

__all__ = [
    "QQ", "ComplexField", "ComplexScalar", "FunctionField", "QuadSurd",
    "QuadraticField", "RationalFunction", "build_field", "complexify",
    "embed", "substitute_parameter",
    "det_int", "integer_kernel", "is_unimodular", "minor_gcd_diagonal",
    "smith_diagonal", "smith_normal_form",
    "Matrix", "Subspace", "check_reduction", "invert", "kernel_basis",
    "rank", "rank_fraction_free", "reduce_columns", "rref", "solve",
    "ConvergentSeries", "ExponentPair", "NumberSpec",
    "QuadraticSurd", "liouville_decimal", "power_tower",
]
