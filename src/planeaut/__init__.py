"""Exact arithmetic for polynomial automorphisms of the affine plane.

Degree dynamics at infinity, affine/triangular factorization, conjugacy
normal forms and decision in the special automorphism group, and
one-parameter degeneration families over K[t, 1/t].
"""

from .amalgam import (
    AffineFactor,
    AmalgamWord,
    HenonForm,
    JonquieresFactor,
    SJRepresentative,
    factor_to_plane_aut,
    henon_invariants,
    henon_normalize,
    is_algebraic,
    jvdk_factor,
    plane_aut_from_endo,
    reduce_word,
)
from .conjugacy import (
    CertificateReport,
    CharPDecomposition,
    ConjugacyResult,
    NormalForm,
    decide_conjugacy,
    decompose_v_delta,
    delta_map,
    in_v_subspace,
    minimize_conjugator,
    n_map,
    normal_form,
    solve_scalar_power_system,
    verify_conjugacy_certificate,
)
from .degeneration import (
    DegenerationWitness,
    PolePropagationReport,
    XAlphaSet,
    degenerate_family_ii,
    degenerate_family_iii,
    degenerate_family_iv,
    lift_plane_aut,
    pole_propagation_check,
    specialize,
    valuation,
    value_at_zero,
    x_alpha,
)
from .endo import (
    Endo,
    InfinityPoint,
    PlaneAut,
    degree_sequence,
    image_point_at_infinity,
    indeterminacy_point,
    is_dynamically_regular,
)
from .errors import (
    ArityMismatchError,
    FieldExtensionRequiredError,
    NoIndeterminacyError,
    NoPoleError,
    NotAlgebraicError,
    NotInvertibleError,
    NotSpecialError,
    ParseError,
    PlaneAutError,
    PoleAtZeroError,
    RingMismatchError,
    UnsupportedFieldError,
)
from .parsing import parse_automorphism, parse_polynomial
from .poly import MultiPoly
from .rings import (
    MINUS_INF,
    LaurentRing,
    PrimeField,
    RationalField,
    field_from_name,
)

__version__ = "0.1.0"
