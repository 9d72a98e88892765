"""Exact multiplicities of ideals via Newton regions and covolumes.

Monomial and polynomial m-primary ideals in localized polynomial rings are
mapped to cobounded convex regions in a rational cone; Samuel
multiplicities come out as n! times exact covolumes, mixed multiplicities
by polarization, and the Brunn-Minkowski / Alexandrov-Fenchel / Lech
inequality families are verified with exact rational arithmetic.
"""

from .cones import RationalCone, dual_description, is_positive_on_cone, orthant
from .errors import (CoconvexError, ConeMismatch, InputFormatError,
                     InvariantViolation, MonotonicityViolation, NotCobounded,
                     NotFullDimensional, NotPrimary, NotPrimaryWithinCap,
                     NotStronglyConvex, SingularSystem, WrongArity,
                     ZeroPolynomial)
from .localalg import (LechChain, MonomialIdealLocal, MultiplicityReport,
                       Poly, PolyLocalIdeal, TermOrder, colength,
                       hilbert_samuel, initial_semigroup_ideal, lech_chain,
                       mixed_multiplicity, monomial, monomial_ideal,
                       mprimary_exponent, multiplicity, multiplicity_report,
                       poly_local_ideal, product_ideal, standard_order,
                       term_order, truncated_echelon, valuation)
from .polytopes import hull_vertices, polytope_volume
from .regions import (NewtonRegion, covol, minkowski_sum, mixed_covol,
                      newton_diagram, newton_region)
from .semigroups import (LatticeSemigroup, SemigroupIdealSet,
                         complement_count, hilbert_basis, ideal_power,
                         lattice_semigroup, semigroup_ideal, staircase_region,
                         sum_ideals)
from .randgen import InstanceSpec, XorShift64Star, random_monomial_ideal
from .suites import (SUITES, VerificationReport, suite_af_covol,
                     suite_bm_covol, suite_bm_mult, suite_lech,
                     suite_polynomiality)

__all__ = [name for name in dir() if not name.startswith("_")]
