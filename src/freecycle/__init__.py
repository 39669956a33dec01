"""Cyclic reduction in free groups: rotations with good reduction, the
admissible non-crossing half-pairing of a word, exact reduction-class counts,
Kesten moments, diagonalizing polynomials, and a random-matrix Monte Carlo
harness."""

from .words import (
    Decomposition,
    ReductionProfile,
    Word,
    cyclic_reduce,
    good_rotations,
    has_good_reduction,
    invert,
    is_cyclically_reduced,
    is_linearly_reduced,
    is_reducible_to_one,
    linear_reduce,
    parse_word,
    reduction_profile,
    rotate,
    standard_decomposition,
    word,
    word_to_text,
)
from .pairings import (
    DotDiagram,
    HalfPairing,
    admissible_half_pairing,
    cover_relation,
    enumerate_half_pairings,
    from_dots,
    half_pairing_from_json,
    half_pairing_to_json,
    is_half_pairing,
    is_word_admissible,
    is_word_pairing,
    orientations,
    render_half_pairing,
    standard_cyclic_reduction,
    to_dots,
)
from .counting import (
    BudgetExceededError,
    Census,
    census,
    cyclically_reduced_words,
    kesten_moment,
    reduction_class_size,
    verify_power_expansion,
)
from .polynomials import (
    IntPolynomial,
    fluctuation_poly,
    fluctuation_poly_recurrence,
    modified_chebyshev,
    verify_poly_expansion,
)

_RMT_NAMES = {"SimConfig", "TraceSamples", "diagonalization_from_samples", "estimate_moment",
              "fluctuation_covariance", "haar_unitary", "sample_traces"}


def __getattr__(name: str):
    # The Monte Carlo harness needs numpy, so it loads on first use (PEP 562).
    if name in _RMT_NAMES:
        from . import rmt
        return getattr(rmt, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__version__ = "0.1.0"
