"""Property tests of the DiffPoly boundary and calculus over generated
polynomials, and of the CLI's JSON writer against json.dumps.

Polynomials are drawn over the fields b1, b2, c1, c2 with derivative orders up
to 2 and rational coefficients with denominators up to 7; some also draw the
constant symbol e and the placeholder field b1s, or odd denominators up to 15.
"""

import json
from fractions import Fraction

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from laxdual import cli  # noqa: E402
from laxdual.diffpoly import (  # noqa: E402
    DiffPoly,
    FieldVar,
    PolyParseError,
    _mapped,
    equal_mod_total_derivative,
    parse_poly,
)
from laxdual.fnr import build_psi  # noqa: E402
from laxdual.zerocurv import zero_curvature  # noqa: E402

from conftest import (  # noqa: E402
    constant_term,
    integrates,
    ref_add,
    ref_derive,
    ref_euler,
    ref_mapped,
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
    a polynomial that holds its own target.  A constant symbol's right side is
    a polynomial in that symbol, which the derivation kills as it kills the
    symbol; test_substitute_refuses_a_constant_symbol_rule_with_a_derivative
    draws the others."""
    pool = st.just(target) if target.is_constant_symbol() else ext_fields
    small = polys(max_terms=2, max_factors=2, pool=pool, coeff=odd_coeffs)
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
    assert parse_poly(s) == p and constant_term(p) == Fraction(s)


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
@given(polys(pool=ext_fields, max_terms=3), polys(pool=ext_fields, max_terms=2, max_factors=2))
def test_substitute_refuses_a_constant_symbol_rule_with_a_derivative(p, rhs):
    rules = {FieldVar("e", 0): rhs}
    if rhs.derive().is_zero():
        assert p.substitute(rules).derive() == p.derive().substitute(rules)
    else:
        with pytest.raises(ValueError, match="^the constant symbol e cannot map"):
            p.substitute(rules)


# The d_1 evolution of the four free fields of the t_2 table: b1' of p goes to
# 2*b2' and b2'' to a derivative of b1^2*c1 + b1'.
D1_OF_T2 = zero_curvature(build_psi(2, 2), 1)


@settings(deadline=None)
@given(polys(max_terms=3, max_factors=2), rules)
def test_mapped_with_a_derivation_matches_reference(p, r):
    evolution = {u: rule.terms for u, rule in D1_OF_T2.evolution.items()}
    want = ref_mapped(p.terms, {t: rhs.terms for t, rhs in r.items()}, evolution)
    assert _mapped(p, r, D1_OF_T2.derivative).terms == want


@settings(deadline=None)
@given(polys(pool=ext_fields, max_terms=5), polys(pool=ext_fields, max_terms=2))
def test_equal_mod_total_derivative_matches_reference(p, q):
    # p' is exact; p' + q is inexact unless q happens to be exact too.
    exact = p.derive()
    for r in (exact, exact + q, q):
        assert equal_mod_total_derivative(r, DiffPoly.zero()) == integrates(r), r.to_text()


@settings(deadline=None)
@given(polys(max_terms=3, max_factors=2), rules)
def test_substitution_commutes_with_derive(p, r):
    assert p.substitute(r).derive() == p.derive().substitute(r)


def ref_dot(triples):
    want = {}
    for w, p, q in triples:
        want = ref_add(want, {m: w * c for m, c in ref_mul(p.terms, q.terms).items()})
    return want


@settings(deadline=None)
@given(
    polys(pool=ext_fields),
    polys(pool=ext_fields, max_factors=5),
    polys(pool=ext_fields, max_terms=1).filter(lambda t: len(t.num) == 1),
    polys(pool=ext_fields, max_terms=12),
    ext_fields,
    st.tuples(*[st.integers(-3, 3)] * 3),
)
def test_kernel_matches_reference(p, q, t, r, v, w):
    a, b = p.terms, q.terms
    assert (p * q).terms == ref_mul(a, b)
    triples = list(zip(w, (p, q, p), (q, q, p)))
    assert DiffPoly.dot(iter(triples)).terms == ref_dot(triples)
    # The one-term t on either side, first (into an empty table) and later
    # (merged into the table), beside a longer r.
    for sides in (((t, r), (q, t), (p, q)), ((r, t), (p, q), (t, p)), ((q, r), (t, p), (r, t))):
        triples = [(wi, x, y) for wi, (x, y) in zip(w, sides)]
        assert DiffPoly.dot(triples).terms == ref_dot(triples)
    assert p.derive().terms == ref_derive(a)
    assert (p * q).partial(v).terms == ref_partial(ref_mul(a, b), v)


# Strings from the whole of Unicode, with lone surrogates and the characters
# json escapes in its own ways drawn often.
any_text = st.text(
    st.one_of(
        st.characters(exclude_categories=()),
        st.characters(categories=["Cs"]),
        st.sampled_from('"\\\b\f\n\r\t\x00\x1f\x7f\u2028\U0001d53b'),
    )
)
json_leaves = st.one_of(st.none(), st.booleans(), st.integers(), st.integers(-(2**300), 2**300), any_text)


def json_trees(leaves):
    return st.recursive(
        leaves,
        lambda kids: st.one_of(st.lists(kids, max_size=4), st.dictionaries(any_text, kids, max_size=4)),
        max_leaves=12,
    )


def to_json_tree(o):
    """o with each DiffPoly replaced by its to_json list."""
    if isinstance(o, DiffPoly):
        return o.to_json()
    if isinstance(o, list):
        return [to_json_tree(x) for x in o]
    if isinstance(o, dict):
        return {k: to_json_tree(v) for k, v in o.items()}
    return o


@settings(deadline=None)
@given(any_text)
def test_json_escaper_matches_encode_basestring_ascii(s):
    assert cli._quoted(s) == json.encoder.encode_basestring_ascii(s)


@settings(deadline=None)
@given(json_trees(json_leaves))
def test_json_writer_matches_json_dumps(tree):
    assert cli._json_text(tree) == json.dumps(tree, indent=2)


@settings(deadline=None)
@given(json_trees(st.one_of(json_leaves, polys(pool=ext_fields, max_terms=3))))
def test_json_writer_writes_polynomials_as_to_json(tree):
    # A polynomial at any depth is written as its to_json list.
    assert cli._json_text(tree) == json.dumps(to_json_tree(tree), indent=2)
