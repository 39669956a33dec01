"""Exact integer polynomials that diagonalize trace fluctuations.

Two constructions of the same family are provided.  The triangle construction
inverts the class-size expansion of powers of x = u_1 + u_1^-1 + ... and is
the ground truth: it gives the unique monic degree-n polynomial whose reduced
expansion is exactly the sum of all cyclically reduced words of length n.
The recurrence construction runs a modified Chebyshev three-term recurrence;
with the degree-consistent start R_1 = x it reproduces the triangle result for
odd n and up to an additive constant for even n.  The start R_1 = 1 collapses
degrees and is kept only for comparison.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Literal, Mapping

from .counting import (
    DEFAULT_BUDGET,
    Census,
    _census_words,
    census,
    cyclically_reduced_words,
    kesten_moment,
    reduction_class_size,
)
from .words import word_to_text

R1Choice = Literal["x", "one"]


class IntPolynomial:
    """Polynomial with exact integer coefficients, constant term first.

    >>> IntPolynomial(0, -9, 0, 1)
    IntPolynomial('x^3 - 9x')
    """

    __slots__ = ("coeffs",)

    def __init__(self, *coeffs: int):
        end = len(coeffs)
        while end > 0 and coeffs[end - 1] == 0:
            end -= 1
        self.coeffs: tuple[int, ...] = tuple(coeffs[:end])

    @classmethod
    def x(cls) -> "IntPolynomial":
        return cls(0, 1)

    @classmethod
    def monomial(cls, degree: int, coeff: int = 1) -> "IntPolynomial":
        return cls(*([0] * degree + [coeff]))

    @property
    def degree(self) -> int:
        """Degree of the leading term; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def is_monic(self) -> bool:
        return bool(self.coeffs) and self.coeffs[-1] == 1

    def __eq__(self, other: object) -> bool:
        return isinstance(other, IntPolynomial) and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __add__(self, other: "IntPolynomial | int") -> "IntPolynomial":
        if isinstance(other, int):
            other = IntPolynomial(other)
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        return IntPolynomial(*(c + (b[i] if i < len(b) else 0) for i, c in enumerate(a)))

    __radd__ = __add__

    def __neg__(self) -> "IntPolynomial":
        return IntPolynomial(*(-c for c in self.coeffs))

    def __sub__(self, other: "IntPolynomial | int") -> "IntPolynomial":
        if isinstance(other, int):
            other = IntPolynomial(other)
        return self + (-other)

    def __mul__(self, other: "IntPolynomial | int") -> "IntPolynomial":
        if isinstance(other, int):
            return IntPolynomial(*(c * other for c in self.coeffs))
        out = [0] * (len(self.coeffs) + len(other.coeffs))
        for i, c in enumerate(self.coeffs):
            if c:
                for j, d in enumerate(other.coeffs):
                    out[i + j] += c * d
        return IntPolynomial(*out)

    __rmul__ = __mul__

    def __str__(self) -> str:
        """
        >>> print(IntPolynomial(2), IntPolynomial(), IntPolynomial(-4, 0, 1), sep='; ')
        2; 0; x^2 - 4
        """
        if not self.coeffs:
            return "0"
        parts = []
        for i in range(len(self.coeffs) - 1, -1, -1):
            c = self.coeffs[i]
            if c == 0:
                continue
            sign = "-" if c < 0 else "+"
            mag = abs(c)
            term = "" if i == 0 else ("x" if i == 1 else f"x^{i}")
            body = f"{mag}{term}" if (mag != 1 or i == 0) else term
            parts.append(f"{sign} {body}" if parts else (f"-{body}" if c < 0 else body))
        return " ".join(parts)

    def __repr__(self) -> str:
        return f"IntPolynomial('{self}')"


def poly_to_json(p: IntPolynomial) -> dict:
    return {"coefficients": list(p.coeffs), "text": str(p)}


def modified_chebyshev(k: int, alphabet_size: int, r1: R1Choice = "x") -> IntPolynomial:
    """k-th term of R_{j+1} = x*R_j - (2N-1)*R_{j-1} with R_0 = 2.

    ``r1`` selects the degree-1 seed: the polynomial x (keeps deg R_k = k,
    the default) or the constant 1 (degrees collapse from k = 2 on; retained
    so the two conventions can be compared).
    """
    if k < 0:
        raise ValueError("need k >= 0")
    if r1 not in ("x", "one"):
        raise ValueError("r1 must be 'x' or 'one'")
    prev = IntPolynomial(2)
    if k == 0:
        return prev
    cur = IntPolynomial.x() if r1 == "x" else IntPolynomial(1)
    for _ in range(k - 1):
        prev, cur = cur, IntPolynomial.x() * cur - (2 * alphabet_size - 1) * prev
    return cur


def fluctuation_poly_recurrence(
    n: int, alphabet_size: int, r1: R1Choice = "x"
) -> IntPolynomial:
    """Recurrence form of the diagonalizing polynomial: R_n, plus 2 for even n."""
    if n < 1:
        raise ValueError("need n >= 1")
    r = modified_chebyshev(n, alphabet_size, r1)
    return r + 2 if n % 2 == 0 else r


def fluctuation_poly(n: int, alphabet_size: int) -> IntPolynomial:
    """The unique monic degree-n polynomial whose reduced expansion is Q_n.

    Here Q_n stands for the sum of all cyclically reduced words of length n,
    and "reduced expansion" applies the standard cyclic reduction to every
    word in the expansion of p(x), x being the sum of all generators and
    inverses.  Powers of x expand unitriangularly over the Q basis with the
    known class sizes, so back-substitution determines the polynomial.
    """
    if n < 1:
        raise ValueError("need n >= 1")
    basis: list[IntPolynomial] = [IntPolynomial(1)]
    for j in range(1, n + 1):
        p = IntPolynomial.monomial(j)
        for k in range(j - 2, 0, -2):
            p = p - reduction_class_size(j, k, alphabet_size) * basis[k]
        if j % 2 == 0:
            p = p - kesten_moment(j, alphabet_size) * basis[0]
        basis.append(p)
    return basis[n]


@dataclass(frozen=True)
class PolyExpansionReport:
    """Census check of both polynomial constructions against Q_n.

    ``recurrence_residual`` is the constant c with rec expansion = Q_n + c*e,
    or None if the recurrence version differs by more than a constant.
    """

    length: int
    alphabet_size: int
    triangle_exact: bool
    recurrence_residual: int | None
    violations: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return self.triangle_exact and self.recurrence_residual is not None

    def to_json(self) -> dict:
        return {
            "length": self.length,
            "alphabet_size": self.alphabet_size,
            "triangle_exact": self.triangle_exact,
            "recurrence_residual": self.recurrence_residual,
            "ok": self.ok,
            "violations": list(self.violations),
        }


def _reduced_expansion(p: IntPolynomial, censuses: Mapping[int, Census]) -> dict[str, int]:
    """Standard cyclic reduction of p(x), read from the census of each degree in p."""
    acc: dict[str, int] = {}
    for j, c in enumerate(p.coeffs):
        if not c:
            continue
        for key, count in censuses[j].counts.items():
            acc[key] = acc.get(key, 0) + c * count
    return {key: v for key, v in acc.items() if v}


def verify_poly_expansion(
    n: int, alphabet_size: int, *, budget: int = DEFAULT_BUDGET
) -> PolyExpansionReport:
    """Expand both polynomial constructions through the census and compare to Q_n.

    Both polynomials have the parity of n, so each census of those degrees is
    computed once and shared by the two expansions.
    """
    degrees = range(n % 2, n + 1, 2)
    for j in degrees:  # refuse before enumerating anything
        _census_words(j, alphabet_size, budget)
    target = {word_to_text(v): 1 for v in cyclically_reduced_words(n, alphabet_size)}
    censuses = {j: census(j, alphabet_size, budget=budget) for j in degrees}
    violations = []

    triangle = _reduced_expansion(fluctuation_poly(n, alphabet_size), censuses)
    triangle_exact = triangle == target
    if not triangle_exact:
        for key in sorted(set(triangle) | set(target)):
            got, want = triangle.get(key, 0), target.get(key, 0)
            if got != want:
                violations.append(f"triangle: class {key!r} has coefficient {got}, want {want}")

    rec = _reduced_expansion(fluctuation_poly_recurrence(n, alphabet_size, "x"), censuses)
    residual: int | None = rec.pop("", 0) - target.get("", 0)
    if rec != {key: v for key, v in target.items() if key}:
        residual = None
        violations.append("recurrence: expansion differs from Q_n by more than a constant")
    return PolyExpansionReport(n, alphabet_size, triangle_exact, residual, tuple(violations))
