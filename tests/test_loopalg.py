"""Loop-algebra layer: commutators, projections, trace pairing, depth."""

import pytest

from laxdual.diffpoly import DiffPoly
from laxdual.loopalg import (
    DepthExhausted,
    LaurentMatrix,
    Sl2Poly,
    lm_commutator,
    matrix_to_json,
    project_plus,
    shift,
    sl2_commutator,
    trace_pair,
)

from conftest import P, random_poly

SIGMA3 = Sl2Poly.sigma3()
SIGMA_P = Sl2Poly(bp=DiffPoly.const(1))
SIGMA_M = Sl2Poly(cm=DiffPoly.const(1))


def random_sl2(rng) -> Sl2Poly:
    return Sl2Poly(random_poly(rng), random_poly(rng), random_poly(rng))


def random_laurent(rng, exact: bool = False) -> LaurentMatrix:
    coeffs = {e: random_sl2(rng) for e in rng.sample(range(-3, 3), rng.randint(1, 3))}
    return LaurentMatrix(coeffs, floor=None if exact else -3)


class TestSl2:
    def test_sl2_relations(self):
        assert sl2_commutator(SIGMA3, SIGMA_P) == SIGMA_P.scale(2)
        assert sl2_commutator(SIGMA_P, SIGMA_M) == SIGMA3
        assert sl2_commutator(SIGMA3, SIGMA_M) == SIGMA_M.scale(-2)

    def test_antisymmetry(self, rng):
        for _ in range(10):
            x = random_sl2(rng)
            assert sl2_commutator(x, x).is_zero()

    def test_jacobi(self, rng):
        for _ in range(8):
            x, y, z = (random_sl2(rng) for _ in range(3))
            total = (
                sl2_commutator(x, sl2_commutator(y, z))
                + sl2_commutator(y, sl2_commutator(z, x))
                + sl2_commutator(z, sl2_commutator(x, y))
            )
            assert total.is_zero()


class TestLaurent:
    def test_single_convolution_term(self):
        x = LaurentMatrix({1: SIGMA3})
        y = LaurentMatrix({-1: Sl2Poly(bp=P("b1"))})
        out = lm_commutator(x, y)
        assert out.coeff(0) == Sl2Poly(bp=P("2*b1"))
        assert set(out.coeffs) == {0}

    def test_self_commutator_vanishes(self, rng):
        for _ in range(6):
            x = random_laurent(rng)
            assert not lm_commutator(x, x).coeffs

    def test_depth_two_fixture(self):
        # [L^(1), L] at lambda^-1 for L = sigma3 + l1/lambda + l2/lambda^2:
        # only [sigma3, l2] survives, giving 2 b2 sigma+ - 2 c2 sigma-.
        l1 = Sl2Poly(bp=P("b1"), cm=P("c1"))
        l2 = Sl2Poly(a=P("-1/2*b1*c1"), bp=P("b2"), cm=P("c2"))
        ell = LaurentMatrix({0: SIGMA3, -1: l1, -2: l2}, floor=-2)
        lax1 = LaurentMatrix({1: SIGMA3, 0: l1})
        out = lm_commutator(lax1, ell)
        assert out.coeff(-1) == Sl2Poly(bp=P("2*b2"), cm=P("-2*c2"))

    def test_jacobi(self, rng):
        for _ in range(4):
            x, y, z = (random_laurent(rng, exact=True) for _ in range(3))
            total = (
                lm_commutator(x, lm_commutator(y, z))
                + lm_commutator(y, lm_commutator(z, x))
                + lm_commutator(z, lm_commutator(x, y))
            )
            assert not total.coeffs

    def test_commutator_depth_propagation(self):
        x = LaurentMatrix({2: SIGMA3}, floor=-1)
        y = LaurentMatrix({0: SIGMA_P}, floor=-4)
        out = lm_commutator(x, y)
        # unknown x-coefficients (from -2 down) meet y's lambda^0 term, so the
        # result is contaminated from -2 downward; -1 is the known floor
        assert out.floor == -1
        assert out.coeff(2) == Sl2Poly(bp=DiffPoly.const(2))
        assert out.coeff(0).is_zero()
        with pytest.raises(DepthExhausted):
            out.coeff(-2)


class TestProjections:
    def test_plus_example(self):
        x = shift(LaurentMatrix({-1: SIGMA3, -2: SIGMA_P}, floor=-2), 1)
        assert project_plus(x) == LaurentMatrix({0: SIGMA3})

    def test_projector_algebra(self, rng):
        for _ in range(6):
            x = random_laurent(rng)
            plus = project_plus(x)
            assert project_plus(plus) == plus
            assert all(e >= 0 for e in plus.coeffs)

    def test_shift_composition(self, rng):
        for _ in range(6):
            x = random_laurent(rng)
            assert shift(shift(x, 2), 3) == shift(x, 5)

    def test_plus_needs_known_nonnegatives(self):
        with pytest.raises(DepthExhausted, match="floor is 2"):
            project_plus(LaurentMatrix({3: SIGMA3}, floor=2))


class TestTracePair:
    def test_killing_normalization(self):
        x = LaurentMatrix({0: SIGMA3})
        y = LaurentMatrix({-1: SIGMA3})
        assert trace_pair(x, y, 0) == DiffPoly.const(2)

    def test_no_overlap_is_zero(self):
        x = LaurentMatrix({0: SIGMA_P})
        y = LaurentMatrix({0: SIGMA3})
        assert trace_pair(x, y, 3).is_zero()

    def test_quadratic_form_coefficients(self):
        # L = sigma3 + l1/lambda: Tr(L^2) has 4 a1 at lambda^-1 and
        # 2 a1^2 + 2 b1 c1 at lambda^-2 (matrix is exact, nothing truncated).
        l1 = Sl2Poly(a=P("b2"), bp=P("b1"), cm=P("c1"))
        ell = LaurentMatrix({0: SIGMA3, -1: l1})
        assert trace_pair(ell, ell, 0) == P("4*b2")
        assert trace_pair(ell, ell, 1) == P("2*b2^2 + 2*b1*c1")

    def test_ad_invariance(self, rng):
        for _ in range(6):
            x, y, z = (random_laurent(rng, exact=True) for _ in range(3))
            lhs = trace_pair(lm_commutator(z, x), y, 1)
            rhs = trace_pair(x, lm_commutator(z, y), 1)
            assert (lhs + rhs).is_zero()

    def test_depth_exhausted(self):
        x = LaurentMatrix({0: SIGMA3}, floor=0)
        y = LaurentMatrix({0: SIGMA3}, floor=0)
        with pytest.raises(DepthExhausted):
            trace_pair(x, y, 0)  # needs the lambda^-1 coefficient of both


def test_json_emitter_shape():
    x = LaurentMatrix({1: SIGMA3, 0: Sl2Poly(bp=P("b1"), cm=P("c1"))})
    data = matrix_to_json(x)
    assert data["depth"] is None
    assert set(data["coeffs"]) == {"1", "0"}
    assert data["coeffs"]["0"]["bp"] == P("b1").to_json()
