"""Property tests of the DiffPoly boundary and calculus over generated polynomials.

Polynomials are drawn over the fields b1, b2, c1, c2 with derivative orders up
to 2 and rational coefficients with denominators up to 7.
"""

from fractions import Fraction

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from laxdual.diffpoly import DiffPoly, FieldVar, formal_integrate, parse_poly  # noqa: E402

from conftest import ref_add, ref_derive, ref_mul, ref_partial  # noqa: E402

BASES = [FieldVar(kind, index) for kind in ("b", "c") for index in (1, 2)]
bases = st.sampled_from(BASES)
fields = st.builds(FieldVar, st.sampled_from(("b", "c")), st.integers(1, 2), st.integers(0, 2))
coeffs = st.builds(Fraction, st.integers(-12, 12), st.integers(1, 7))


# The standard fields plus a constant symbol and a placeholder field.
ext_fields = st.one_of(fields, st.sampled_from([FieldVar("e", 0), FieldVar("b1s", 0), FieldVar("b1s", 0, 1)]))


@st.composite
def polys(draw, max_terms=4, max_factors=3, pool=fields):
    out = DiffPoly.zero()
    for _ in range(draw(st.integers(0, max_terms))):
        term = DiffPoly.const(draw(coeffs))
        for v in draw(st.lists(pool, max_size=max_factors)):
            term = term * DiffPoly.from_var(v)
        out = out + term
    return out


rules = st.dictionaries(bases, polys(max_terms=2, max_factors=2), max_size=2)


@settings(deadline=None)
@given(polys())
def test_text_roundtrip(p):
    assert parse_poly(p.to_text()) == p


@settings(deadline=None)
@given(polys())
def test_json_roundtrip(p):
    assert DiffPoly.from_json(p.to_json()) == p


@settings(deadline=None)
@given(polys(pool=ext_fields), st.integers(1, 3))
def test_kept_derivative_matches_reference(p, times):
    want = p.terms
    for _ in range(times):
        want = ref_derive(want)
    first = p.derive(times)
    assert first.terms == want
    assert p.derive(times) is first


@settings(deadline=None)
@given(polys(), bases)
def test_euler_kills_total_derivatives(p, u):
    assert p.derive().euler(u).is_zero()


@settings(deadline=None)
@given(polys())
def test_formal_integrate_inverts_derive(p):
    p = p - DiffPoly.const(p.constant_term())
    assert formal_integrate(p.derive()) == p


@settings(deadline=None)
@given(polys(max_terms=3, max_factors=2), rules)
def test_substitution_commutes_with_derive(p, r):
    assert p.substitute(r).derive() == p.derive().substitute(r)


@settings(deadline=None)
@given(polys(pool=ext_fields), polys(pool=ext_fields, max_factors=5), ext_fields, st.tuples(*[st.integers(-3, 3)] * 3))
def test_kernel_matches_reference(p, q, v, w):
    a, b = p.terms, q.terms
    assert (p * q).terms == ref_mul(a, b)
    products = [ref_mul(a, b), ref_mul(b, b), ref_mul(a, a)]
    want = {}
    for wi, prod in zip(w, products):
        want = ref_add(want, {m: wi * c for m, c in prod.items()})
    assert DiffPoly.dot(zip(w, (p, q, p), (q, q, p))).terms == want
    assert p.derive().terms == ref_derive(a)
    assert (p * q).partial(v).terms == ref_partial(ref_mul(a, b), v)
