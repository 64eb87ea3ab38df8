"""Exact approximation of functions on hypercube vertices.

Measure a function on a chosen or random subset of the 2^n vertices of
the n-cube, decide to what polynomial degree those measurements determine
the remaining vertices, and compute the forced values exactly. Includes
optimal (Hamming-ball) design construction, design certification, and the
probability analysis of random designs over the rationals and GF(2).
"""

from .approx import (
    BallMismatchError,
    CubeTable,
    Design,
    NotDeterminableError,
    approximate_all,
    approximate_value,
    complete_from_ball,
    covers_all,
    degree_of_approximation,
    determinable,
    lemma_reconstruct,
    prediction_coefficients,
)
from .core import (
    EvaluationMatrix,
    Monomial,
    MonomialBasis,
    MultilinearPolynomial,
    Vertex,
    all_vertices,
    eval_monomial,
    eval_polynomial,
    evaluation_matrix,
    hamming_weight,
    make_basis,
    reduce_multilinear,
)
from .designs import (
    CountingRow,
    ball_size,
    counting_table,
    generic_size,
    hamming_ball,
    sample_random_design,
    tightness_matrix,
)
from .formats import (
    FormatError,
    format_value,
    parse_value,
    read_design_file,
    read_values_csv,
    write_design_file,
    write_values_csv,
)
from .probability import (
    ProbabilityEstimate,
    QPochhammerValue,
    f2_implies_real_check,
    prob_f2_exact,
    prob_real_exhaustive,
    prob_real_montecarlo,
    qpochhammer_half,
)

__version__ = "0.1.0"

__all__ = [
    "BallMismatchError",
    "CountingRow",
    "CubeTable",
    "Design",
    "EvaluationMatrix",
    "FormatError",
    "Monomial",
    "MonomialBasis",
    "MultilinearPolynomial",
    "NotDeterminableError",
    "ProbabilityEstimate",
    "QPochhammerValue",
    "Vertex",
    "all_vertices",
    "approximate_all",
    "approximate_value",
    "ball_size",
    "complete_from_ball",
    "counting_table",
    "covers_all",
    "degree_of_approximation",
    "determinable",
    "eval_monomial",
    "eval_polynomial",
    "evaluation_matrix",
    "f2_implies_real_check",
    "format_value",
    "generic_size",
    "hamming_ball",
    "hamming_weight",
    "lemma_reconstruct",
    "make_basis",
    "parse_value",
    "prediction_coefficients",
    "prob_f2_exact",
    "prob_real_exhaustive",
    "prob_real_montecarlo",
    "qpochhammer_half",
    "read_design_file",
    "read_values_csv",
    "reduce_multilinear",
    "sample_random_design",
    "tightness_matrix",
    "write_design_file",
    "write_values_csv",
]
