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

from dataclasses import asdict, dataclass
from typing import Literal, Mapping

from .counting import DEFAULT_BUDGET, Census, _census_words, _check, census, kesten_moment

R1Choice = Literal["x", "one"]
# fluctuation_poly(1000, N) took 0.33 s at N = 2 and 1.1 s at N = 1000 (2.3 and 13 s at 2000)
MAX_POLY_DEGREE = 1000


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
    if alphabet_size < 1:
        raise ValueError("need alphabet_size >= 1")
    if r1 not in ("x", "one"):
        raise ValueError("r1 must be 'x' or 'one'")
    prev = IntPolynomial(2)
    if k == 0:
        return prev
    cur = IntPolynomial.x() if r1 == "x" else IntPolynomial(1)
    for _ in range(k - 1):
        prev, cur = cur, IntPolynomial.x() * cur - (2 * alphabet_size - 1) * prev
    return cur


def _check_degree(n: int) -> None:
    if n < 1:
        raise ValueError("need n >= 1")
    if n > MAX_POLY_DEGREE:
        raise ValueError(f"degree {n} exceeds the limit of {MAX_POLY_DEGREE}")


def fluctuation_poly_recurrence(
    n: int, alphabet_size: int, r1: R1Choice = "x"
) -> IntPolynomial:
    """Recurrence form of the diagonalizing polynomial: R_n, plus 2 for even n."""
    _check_degree(n)
    r = modified_chebyshev(n, alphabet_size, r1)
    return r + 2 if n % 2 == 0 else r


def fluctuation_poly(n: int, alphabet_size: int) -> IntPolynomial:
    """The unique monic degree-n polynomial whose reduced expansion is Q_n.

    Here Q_n stands for the sum of all cyclically reduced words of length n,
    and "reduced expansion" applies the standard cyclic reduction to every
    word in the expansion of p(x), x being the sum of all generators and
    inverses.  Powers of x expand unitriangularly over the Q basis with the
    known class sizes, so p is one row of the inverse of that triangle.

    >>> print(fluctuation_poly(4, 2))
    x^4 - 12x^2 + 20
    """
    _check_degree(n)
    if alphabet_size < 1:
        raise ValueError("need alphabet_size >= 1")
    # The Q_k term of the reduced expansion of sum c_j x^j is sum_{j >= k} c_j s(j, k) with
    # s(k, k) = 1; it is 1 for k = n and 0 below, which fixes each c_k from those above it.
    # For even n the identity term, sum c_j M_j over the Kesten moments M_j, vanishes too.
    # Down column k, s(a + 2, k) = q^h C(a + 2, h) follows s(a, k) by an exact ratio.
    q = 2 * alphabet_size - 1
    coeffs = [0] * n + [1]
    for k in range(n - 2, 0, -2):
        s, total = 1, 0
        for h, a in enumerate(range(k, n - 1, 2), 1):
            s = s * q * (a + 2) * (a + 1) // (h * (a - h + 2))
            total += coeffs[a + 2] * s
        coeffs[k] = -total
    if n % 2 == 0:
        coeffs[0] = -sum(coeffs[j] * kesten_moment(j, alphabet_size) for j in range(2, n + 1, 2))
    return IntPolynomial(*coeffs)


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
        fields = asdict(self)
        violations = fields.pop("violations")  # printed after ok, which is not a field
        return {**fields, "ok": self.ok, "violations": list(violations)}


def _reduced_expansion(
    p: IntPolynomial, censuses: Mapping[int, Mapping[tuple[int, ...], int]]
) -> dict[tuple[int, ...], int]:
    """Standard cyclic reduction of p(x) by canonical class, read from the census of each
    degree in p: every class in a canonical class's orbit has the same count."""
    acc: dict[tuple[int, ...], int] = {}
    for j, c in enumerate(p.coeffs):
        if not c:
            continue
        for key, count in censuses[j].items():
            acc[key] = acc.get(key, 0) + c * count
    return {key: v for key, v in acc.items() if v}


def verify_poly_expansion(
    n: int, alphabet_size: int, *, budget: int = DEFAULT_BUDGET
) -> PolyExpansionReport:
    """Expand both polynomial constructions through the census and compare to Q_n.

    Both polynomials have the parity of n, so each census of those degrees is
    computed once and shared by the two expansions.  The expansions run over
    canonical classes, one per orbit of signed relabelings, and go through the
    check of ``verify_power_expansion`` with Q_n as the prediction: every class
    of length n counted once, and every other class 0.
    """
    degrees = range(n % 2, n + 1, 2)
    for j in degrees:  # refuse before enumerating anything
        _census_words(j, alphabet_size, budget)
    censuses = {j: census(j, alphabet_size, budget=budget).orbits for j in degrees}
    target = [0] * n + [1]

    triangle = _reduced_expansion(fluctuation_poly(n, alphabet_size), censuses)
    violations = _check("triangle", Census(alphabet_size, n, orbits=triangle), target)
    triangle_exact = not violations

    rec = _reduced_expansion(fluctuation_poly_recurrence(n, alphabet_size, "x"), censuses)
    residual: int | None = rec.pop((), 0)
    if _check("recurrence", Census(alphabet_size, n, orbits=rec), target):
        residual = None
        violations.append("recurrence: expansion differs from Q_n by more than a constant")
    return PolyExpansionReport(n, alphabet_size, triangle_exact, residual, tuple(violations))
