import pytest

from freecycle import (
    BudgetExceededError,
    Census,
    IntPolynomial,
    census,
    counting,
    fluctuation_poly,
    fluctuation_poly_recurrence,
    modified_chebyshev,
    polynomials,
    verify_poly_expansion,
)
from freecycle.polynomials import poly_to_json

from oracles import spelled_poly_report


class TestIntPolynomial:
    def test_trimming_and_degree(self):
        assert IntPolynomial(1, 2, 0, 0).coeffs == (1, 2)
        assert IntPolynomial().degree == -1
        assert IntPolynomial(0).is_zero
        assert IntPolynomial(5).degree == 0

    def test_arithmetic(self):
        x = IntPolynomial.x()
        p = (x * x - 4) * (x + 1)
        assert p.coeffs == (-4, -4, 1, 1)
        assert (p - p).is_zero
        assert (3 * x).coeffs == (0, 3)
        assert (x + 2).coeffs == (2, 1)

    def test_monic(self):
        assert IntPolynomial(0, -9, 0, 1).is_monic
        assert not IntPolynomial(0, 2).is_monic

    def test_str(self):
        assert str(IntPolynomial(0, -9, 0, 1)) == "x^3 - 9x"
        assert str(IntPolynomial(-4, 0, 1)) == "x^2 - 4"
        assert str(IntPolynomial(2)) == "2"
        assert str(IntPolynomial()) == "0"
        assert str(IntPolynomial(0, 1)) == "x"
        assert str(IntPolynomial(1, -1)) == "-x + 1"

    def test_json(self):
        data = poly_to_json(IntPolynomial(-4, 0, 1))
        assert data == {"coefficients": [-4, 0, 1], "text": "x^2 - 4"}


class TestModifiedChebyshev:
    def test_base_cases(self):
        assert modified_chebyshev(0, 2).coeffs == (2,)
        assert modified_chebyshev(1, 2, "x").coeffs == (0, 1)
        assert modified_chebyshev(1, 2, "one").coeffs == (1,)

    @pytest.mark.parametrize("n_gens", [1, 2, 3])
    def test_degree_consistent_small(self, n_gens):
        c = 2 * n_gens - 1
        assert modified_chebyshev(2, n_gens).coeffs == (-2 * c, 0, 1)
        assert modified_chebyshev(3, n_gens).coeffs == (0, -3 * c, 0, 1)

    def test_constant_seed_collapses_degree(self):
        # with R_1 = 1 the recurrence loses a degree immediately
        assert modified_chebyshev(2, 2, "one").coeffs == (-6, 1)
        assert modified_chebyshev(2, 2, "one").degree == 1
        assert modified_chebyshev(5, 2, "x").degree == 5
        assert modified_chebyshev(5, 2, "one").degree == 4

    def test_bad_arguments(self):
        with pytest.raises(ValueError):
            modified_chebyshev(-1, 2)
        with pytest.raises(ValueError):
            modified_chebyshev(2, 2, "two")


class TestFluctuationPoly:
    def test_small_cases(self):
        assert fluctuation_poly(1, 2).coeffs == (0, 1)
        assert fluctuation_poly(2, 2).coeffs == (-4, 0, 1)
        assert fluctuation_poly(2, 1).coeffs == (-2, 0, 1)
        assert fluctuation_poly(3, 2).coeffs == (0, -9, 0, 1)

    def test_monic_with_parity(self):
        for n_gens in (1, 2):
            for n in range(1, 9):
                p = fluctuation_poly(n, n_gens)
                assert p.degree == n and p.is_monic
                for j, c in enumerate(p.coeffs):
                    if (n - j) % 2 and c:
                        pytest.fail(f"off-parity term x^{j} in P_{n} (N={n_gens})")

    def test_n_zero_excluded(self):
        with pytest.raises(ValueError):
            fluctuation_poly(0, 2)
        with pytest.raises(ValueError):
            fluctuation_poly_recurrence(0, 2)

    def test_degree_limit(self, monkeypatch):
        limit = polynomials.MAX_POLY_DEGREE
        assert fluctuation_poly(limit, 2).degree == limit
        assert fluctuation_poly_recurrence(limit, 2).degree == limit

        def refuse(*args):
            raise AssertionError("computed past the degree limit")

        monkeypatch.setattr(polynomials, "kesten_moment", refuse)
        monkeypatch.setattr(polynomials, "modified_chebyshev", refuse)
        for n in (limit + 1, limit + 2, 6000):
            for f in (fluctuation_poly, fluctuation_poly_recurrence):
                with pytest.raises(ValueError, match=f"degree {n} exceeds the limit of {limit}"):
                    f(n, 2)

    @pytest.mark.parametrize("n_gens", [0, -3])
    def test_alphabet_below_one_rejected(self, n_gens):
        for n in (1, 2, 4):
            with pytest.raises(ValueError, match="need alphabet_size >= 1"):
                fluctuation_poly(n, n_gens)
            with pytest.raises(ValueError, match="need alphabet_size >= 1"):
                fluctuation_poly_recurrence(n, n_gens)
        with pytest.raises(ValueError, match="need alphabet_size >= 1"):
            modified_chebyshev(0, n_gens)

    def test_recurrence_equals_triangle_for_odd_n(self):
        for n_gens in (1, 2, 3, 27):
            for n in range(1, 121, 2):
                assert fluctuation_poly_recurrence(n, n_gens, "x") == fluctuation_poly(n, n_gens)

    def test_recurrence_off_by_constant_for_even_n(self):
        for n_gens in (1, 2, 3, 27):
            for n in range(2, 121, 2):
                diff = fluctuation_poly_recurrence(n, n_gens, "x") - fluctuation_poly(n, n_gens)
                assert diff == IntPolynomial(4 - 2 * n_gens)
        # the n = 2 constant is 4 - 2N: zero exactly at N = 2
        assert (fluctuation_poly_recurrence(2, 2, "x") - fluctuation_poly(2, 2)).is_zero
        assert (fluctuation_poly_recurrence(2, 1, "x") - fluctuation_poly(2, 1)).coeffs == (2,)

    def test_recurrence_form_examples(self):
        assert fluctuation_poly_recurrence(2, 2, "x").coeffs == (-4, 0, 1)
        assert fluctuation_poly_recurrence(3, 2, "x").coeffs == (0, -9, 0, 1)


class TestExpansionChecks:
    def test_triangle_exact_small(self):
        for n_gens in (1, 2):
            for n in range(1, 7):
                report = verify_poly_expansion(n, n_gens)
                assert report.triangle_exact, report.violations

    def test_recurrence_residuals(self):
        assert verify_poly_expansion(2, 1).recurrence_residual == 2
        assert verify_poly_expansion(2, 2).recurrence_residual == 0
        assert verify_poly_expansion(3, 2).recurrence_residual == 0

    def test_each_census_requested_once(self, monkeypatch):
        requested = []
        real = polynomials.census

        def counted(n, alphabet_size, **kwargs):
            requested.append((n, alphabet_size))
            return real(n, alphabet_size, **kwargs)

        monkeypatch.setattr(polynomials, "census", counted)
        for n in (5, 6):
            requested.clear()
            assert verify_poly_expansion(n, 2).ok
            assert sorted(requested) == [(j, 2) for j in range(n % 2, n + 1, 2)]

    def test_budget_refused_before_any_census_runs(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("a census was enumerated before the budget check")

        monkeypatch.setattr(counting, "_census_range", refuse)
        for budget, message in (
            (10**7, "census(10, 2) needs 10485760 word-steps, budget is 10000000"),
            (10**5, "census(8, 2) needs 524288 word-steps, budget is 100000"),
        ):
            with pytest.raises(BudgetExceededError) as exc:
                verify_poly_expansion(10, 2, budget=budget)
            assert str(exc.value) == message

    def test_large_alphabet(self):
        report = verify_poly_expansion(2, 27)
        assert report.triangle_exact and report.ok
        assert report.recurrence_residual == 2 - 2 * (27 - 1) == -50

    def test_report_json(self):
        data = verify_poly_expansion(3, 2).to_json()
        assert data["ok"] is True
        assert data["triangle_exact"] is True


class TestOrbitFormAgainstSpelledOracle:
    """verify_poly_expansion expands over one canonical class per orbit; the oracle
    expands over every spelled class and lists every cyclically reduced word."""

    @staticmethod
    def _fields(report):
        return report.triangle_exact, report.recurrence_residual, list(report.violations)

    @pytest.mark.parametrize("n, n_gens", [(n, g) for g in (1, 2) for n in range(1, 9)])
    def test_report_equals_spelled_report(self, n, n_gens):
        censuses = {j: census(j, n_gens) for j in range(n % 2, n + 1, 2)}
        want = spelled_poly_report(n, n_gens, censuses)
        assert self._fields(verify_poly_expansion(n, n_gens)) == want

    @pytest.mark.parametrize("degree", [4, 6])
    @pytest.mark.parametrize("edit", ["drop", "miscount", "identity"])
    def test_edited_census_reports_equal(self, monkeypatch, degree, edit):
        censuses = {j: census(j, 2) for j in range(0, 7, 2)}
        orbits = dict(censuses[degree].orbits)
        longest = max(orbits, key=len)
        if edit == "drop":
            del orbits[longest]
        elif edit == "miscount":
            orbits[longest] += 1
        else:  # P_n's only violation is its identity count, so R_n still has a residual
            orbits[()] += 1
        censuses[degree] = Census(2, degree, orbits=orbits)
        monkeypatch.setattr(polynomials, "census", lambda j, n_gens, **kw: censuses[j])
        report = verify_poly_expansion(6, 2)
        assert not report.ok
        assert self._fields(report) == spelled_poly_report(6, 2, censuses)
