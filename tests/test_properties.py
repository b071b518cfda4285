"""Property tests of the DiffPoly boundary and calculus over generated polynomials.

Polynomials are drawn over the fields b1, b2, c1, c2 with derivative orders up
to 2 and rational coefficients with denominators up to 7; some also draw the
constant symbol e and the placeholder field b1s, or odd denominators up to 15.
"""

from fractions import Fraction

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from laxdual.diffpoly import (  # noqa: E402
    DiffPoly,
    FieldVar,
    NotATotalDerivative,
    PolyParseError,
    formal_integrate,
    parse_poly,
)

from conftest import (  # noqa: E402
    ref_add,
    ref_derive,
    ref_euler,
    ref_integrate,
    ref_mul,
    ref_partial,
    ref_substitute,
)

BASES = [FieldVar(kind, index) for kind in ("b", "c") for index in (1, 2)]
bases = st.sampled_from(BASES)
fields = st.builds(FieldVar, st.sampled_from(("b", "c")), st.integers(1, 2), st.integers(0, 2))
coeffs = st.builds(Fraction, st.integers(-12, 12), st.integers(1, 7))
odd_coeffs = st.builds(Fraction, st.integers(-12, 12), st.sampled_from((1, 3, 5, 7, 9, 15)))


# The standard fields plus a constant symbol and a placeholder field.
ext_fields = st.one_of(fields, st.sampled_from([FieldVar("e", 0), FieldVar("b1s", 0), FieldVar("b1s", 0, 1)]))
EXT_BASES = BASES + [FieldVar("e", 0), FieldVar("b1s", 0)]


@st.composite
def polys(draw, max_terms=4, max_factors=3, pool=fields, coeff=coeffs):
    out = DiffPoly.zero()
    for _ in range(draw(st.integers(0, max_terms))):
        term = DiffPoly.const(draw(coeff))
        for v in draw(st.lists(pool, max_size=max_factors)):
            term = term * DiffPoly.from_var(v)
        out = out + term
    return out


rules = st.dictionaries(bases, polys(max_terms=2, max_factors=2), max_size=2)


def rule_rhs(target):
    """A right side with odd denominators: a polynomial, zero, a constant, or
    a polynomial that holds its own target."""
    small = polys(max_terms=2, max_factors=2, pool=ext_fields, coeff=odd_coeffs)
    return st.one_of(
        small,
        st.just(DiffPoly.zero()),
        st.builds(DiffPoly.const, odd_coeffs),
        st.builds(lambda p, q: p + DiffPoly.from_var(target) * q, small, small),
    )


# Half the factors are possible rule targets, so powers of a rule occur often.
target_heavy = st.one_of(st.sampled_from(EXT_BASES), ext_fields)
ext_rules = st.lists(st.sampled_from(EXT_BASES), unique=True, max_size=3).flatmap(
    lambda targets: st.fixed_dictionaries({t: rule_rhs(t) for t in targets})
)


@settings(deadline=None)
@given(polys())
def test_text_roundtrip(p):
    assert parse_poly(p.to_text()) == p


@settings(deadline=None)
@given(polys())
def test_json_roundtrip(p):
    assert DiffPoly.from_json(p.to_json()) == p


# Coefficient strings in the number grammar, and strings near it.
coeff_texts = st.one_of(
    st.from_regex(r"-?[0-9]{1,4}(/[0-9]{1,3})?", fullmatch=True),
    st.text("0123456789/-+._eE \t\u0663", max_size=8),
)


@settings(deadline=None)
@given(coeff_texts)
def test_json_coefficient_reads_as_text(s):
    # from_json and parse_poly share one number grammar.
    try:
        p = DiffPoly.from_json([{"coeff": s, "vars": []}])
    except PolyParseError:
        return
    assert parse_poly(s) == p and p.constant_term() == Fraction(s)


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
@given(polys(pool=ext_fields, max_terms=5), st.integers(0, 2), st.sampled_from(EXT_BASES))
def test_euler_matches_reference(p, times, u):
    p = p.derive(times)
    assert p.euler(u).terms == ref_euler(p.terms, u)


@settings(deadline=None)
@given(polys(pool=target_heavy, max_terms=5, max_factors=4, coeff=odd_coeffs), ext_rules, st.sampled_from(EXT_BASES))
def test_substitute_matches_reference(p, r, v):
    p = p * DiffPoly.from_var(v) * DiffPoly.from_var(v)  # powers of a rule, shared between terms
    assert p.substitute(r).terms == ref_substitute(p.terms, {t: rhs.terms for t, rhs in r.items()})


@settings(deadline=None)
@given(polys())
def test_formal_integrate_inverts_derive(p):
    p = p - DiffPoly.const(p.constant_term())
    assert formal_integrate(p.derive()) == p


def _integrated(integrate, p):
    """integrate(p), or the message of its NotATotalDerivative."""
    try:
        return integrate(p)
    except NotATotalDerivative as exc:
        return f"NotATotalDerivative: {exc}"


@settings(deadline=None)
@given(polys(pool=ext_fields, max_terms=5), polys(pool=ext_fields, max_terms=2))
def test_formal_integrate_matches_reference(p, q):
    # p' is exact; p' + q is inexact unless q happens to be exact too.
    exact = p.derive()
    assert formal_integrate(exact) == ref_integrate(exact)
    for r in (exact + q, q):
        assert _integrated(formal_integrate, r) == _integrated(ref_integrate, r)


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
