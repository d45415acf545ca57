"""Exact symbolic moments for a q-deformed Gaussian unitary ensemble.

Layers, bottom up:

  exactq    the field Q(q) of rational functions with exact arithmetic
  qxpoly    polynomials in x over Q(q); q-Hermite and shadow families
  symschur  partitions, Schur polynomials, determinantal families, and
            the coordinatewise brute-force integral
  moments   the normalized ensemble integral, verbatim printed closed
            forms, map-counting genus tables at q = 1
  verify    the errata harness comparing closed forms against oracles
  cli       the qgue command-line tool (moment / verify / table)
"""

from .exactq import (
    BigRat,
    ONE,
    PoleError,
    QPolynomial,
    Scalar,
    ZERO,
    evaluate_at,
    m_q,
    q_binomial,
    q_factorial,
    q_integer,
    series_coefficient,
)
from .qxpoly import (
    XPoly,
    functional_L,
    gaussian_op,
    hermite,
    hermite_expand,
    q_derivative,
    shadow_hermite,
    truncated_in_shadow_basis,
    truncated_shadow,
)
from .symschur import (
    MonomialMap,
    Partition,
    SchurVector,
    ShapeError,
    SizeError,
    apply_M0,
    apply_M2,
    binomial_family,
    det,
    family_expand,
    generalized_binomial,
    hermite_family,
    hook_decomposition,
    hook_partition,
    monomial_family,
    partitions,
    power_sum_monomials,
    power_sum_vector,
    schur_monomials,
    shadow_family,
    sigma_at_zero,
    vandermonde,
)
from .moments import (
    DegenerateDenominator,
    GenusRow,
    gaussian_moment,
    genus_table,
    hermite_norm,
    hermite_squared_moment,
    hook_moment_closed_form,
    integrate_power_sum,
    integrate_schur,
    integrate_symmetric,
    level_density_moment,
    normalization,
    p2m_closed_form,
    pairing_genus_counts,
    qhz_lhs,
    qhz_rhs,
    sigma_closed_form,
    theorem5_lhs,
    theorem5_rhs,
)
from .verify import (
    SUITE_NAMES,
    PointResult,
    SuiteResult,
    has_discrepancies,
    render_json,
    report_to_json,
    summary_table,
    verify_suite,
)

__version__ = "0.1.0"
