"""Differential polynomial ring: arithmetic, calculus, canonical form."""

import hashlib
import json
import sys
import threading
from fractions import Fraction
from math import gcd

import pytest

from laxdual.diffpoly import (
    DiffPoly,
    NotATotalDerivative,
    PolyParseError,
    equal_mod_total_derivative,
    formal_integrate,
    parse_poly,
)

from laxdual.fnr import casimir_closure_a

from conftest import (
    EXT_POOL,
    P,
    fv,
    random_poly,
    ref_add,
    ref_derive,
    ref_mul,
    reference_closure_a,
    reference_rows,
)


class TestArithmetic:
    def test_difference_of_squares(self):
        assert P("b1 + c1") * P("b1 - c1") == P("b1^2 - c1^2")

    def test_additive_identity(self, rng):
        for _ in range(20):
            p = random_poly(rng)
            assert p + DiffPoly.zero() == p

    def test_scalar_associativity(self):
        p = P("b1*c1").scale(Fraction(1, 2)) * P("b1*c1").scale(2)
        assert p == P("b1^2*c1^2")

    def test_ring_axioms_randomized(self, rng):
        for _ in range(25):
            p, q, r = (random_poly(rng) for _ in range(3))
            assert (p + q) + r == p + (q + r)
            assert p + q == q + p
            assert p * q == q * p
            assert (p * q) * r == p * (q * r)
            assert p * (q + r) == p * q + p * r

    def test_scale_distributes(self, rng):
        for _ in range(10):
            p = random_poly(rng)
            assert p.scale(Fraction(3, 7)) + p.scale(Fraction(4, 7)) == p

    def test_zero_is_empty_table(self):
        assert (P("b1") - P("b1")).terms == {}
        assert DiffPoly.zero().is_zero()


class TestDot:
    """DiffPoly.dot: a weighted sum of products in one table."""

    def test_matches_reference_products(self, rng):
        third, five_sevenths = Fraction(1, 3), Fraction(5, 7)
        for _ in range(25):
            # Odd denominators 3 and 7 on top of random_poly's 1..4.
            triples = [
                (w, random_poly(rng, pool=EXT_POOL).scale(third), random_poly(rng, pool=EXT_POOL).scale(five_sevenths))
                for w in (1, -1, 2, -2)
            ]
            want, chain = {}, DiffPoly.zero()
            for w, p, q in triples:
                want = ref_add(want, {m: w * c for m, c in ref_mul(p.terms, q.terms).items()})
                chain = chain + DiffPoly.const(w) * p * q
            got = DiffPoly.dot(triples)
            assert got.terms == want
            assert got == chain  # same canonical (num, den)

    def test_empty_and_cancelling_sums_are_zero(self):
        p, q = P("1/3*b1 - 5/7*c1'"), P("b2*e + 2/3")
        for triples in ([], [(2, p, q), (-1, q, p), (-1, p, q)], [(0, p, q)], [(1, DiffPoly.zero(), q)]):
            out = DiffPoly.dot(triples)
            assert out == DiffPoly.zero() and out.den == 1

    def test_exponent_reaching_the_limit_raises(self):
        big = P("b1^20000")
        with pytest.raises(ValueError, match="32768"):
            DiffPoly.dot([(1, big, big)])
        # The guard reads every product, also those that cancel.
        with pytest.raises(ValueError, match="32768"):
            DiffPoly.dot([(1, big, big), (-1, big, big)])

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_symmetric_casimir_closure_matches_the_full_sum(self, k):
        rows = reference_rows(k, 12)
        for m in range(1, 13):
            assert casimir_closure_a(rows, m) == reference_closure_a(rows, m)


class TestDerive:
    def test_leibniz_on_product(self):
        assert P("b1*c1").derive() == P("b1'*c1 + b1*c1'")

    def test_kills_constants(self):
        assert DiffPoly.const(5).derive().is_zero()

    def test_dorder_bookkeeping(self):
        assert P("b1").derive(2) == P("b1''")

    def test_leibniz_randomized(self, rng):
        for _ in range(20):
            p, q = random_poly(rng), random_poly(rng)
            assert (p * q).derive() == p.derive() * q + p * q.derive()


class TestSubstitute:
    def test_rule_applies_to_derivatives(self):
        # b2 -> (1/2) d(b1) inside b2*c1
        rules = {fv("b", 2): P("1/2*b1'")}
        assert P("b2*c1").substitute(rules) == P("1/2*b1'*c1")

    def test_absent_variable_is_noop(self, rng):
        rules = {fv("b", 9): P("c1^2")}
        for _ in range(10):
            p = random_poly(rng)
            assert p.substitute(rules) == p

    def test_identity_rule_is_noop(self, rng):
        rules = {fv("b", 1): P("b1")}
        for _ in range(10):
            p = random_poly(rng)
            assert p.substitute(rules) == p

    def test_commutes_with_derivation(self, rng):
        rules = {fv("b", 1): P("c1^2 - 2*b2"), fv("c", 2): P("b1*c1'")}
        for _ in range(15):
            p = random_poly(rng)
            assert p.substitute(rules).derive() == p.derive().substitute(rules)

    def test_rejects_derived_targets(self):
        with pytest.raises(ValueError):
            P("b1").substitute({fv("b", 1, 1): P("c1")})


class TestEuler:
    def test_two_integrations_by_parts(self):
        assert P("b1*c1''").euler(fv("c", 1)) == P("b1''")

    def test_annihilates_total_derivatives(self, rng):
        for _ in range(20):
            p = random_poly(rng)
            d = p.derive()
            for u in d.generators():
                assert d.euler(u).is_zero()

    def test_nls_density_variation(self):
        # cross-checked against the t_2 flow of b1 after multiplying by the
        # bracket coefficient 4
        density = P("1/16*b1*c1'' + 1/16*c1*b1'' - 1/8*b1^2*c1^2")
        assert density.euler(fv("c", 1)) == P("1/8*b1'' - 1/4*b1^2*c1")


class TestFormalIntegrate:
    def test_inverse_of_leibniz(self):
        assert formal_integrate(P("b1'*c1 + b1*c1'")) == P("b1*c1")

    def test_zero(self):
        assert formal_integrate(DiffPoly.zero()).is_zero()

    def test_not_a_total_derivative(self):
        with pytest.raises(NotATotalDerivative):
            formal_integrate(P("b1*c1"))

    def test_constant_is_not_integrable(self):
        with pytest.raises(NotATotalDerivative):
            formal_integrate(DiffPoly.const(5))

    def test_roundtrip_randomized(self, rng):
        for _ in range(25):
            p = random_poly(rng)
            p = p - DiffPoly.const(p.constant_term())
            assert formal_integrate(p.derive()) == p

    def test_high_order_mixed_terms(self):
        p = P("b1''*c1' + 3*b1*b1'^2 - c2'*c2'")
        assert formal_integrate(p.derive()) == p


class TestEqualModTotalDerivative:
    def test_shift_by_total_derivative(self):
        p = P("b1^2*c1^2")
        assert equal_mod_total_derivative(p, p + P("b1*c1").derive())

    def test_integration_by_parts_twice(self):
        assert equal_mod_total_derivative(P("b1*c1''"), P("c1*b1''"))

    def test_nonzero_euler_image(self):
        assert not equal_mod_total_derivative(P("b1^2*c1^2"), DiffPoly.zero())


class TestCanonicalForm:
    def test_text_roundtrip_randomized(self, rng):
        for _ in range(30):
            p = random_poly(rng)
            assert parse_poly(p.to_text()) == p

    def test_json_roundtrip_randomized(self, rng):
        for _ in range(30):
            p = random_poly(rng)
            assert DiffPoly.from_json(json.loads(json.dumps(p.to_json()))) == p

    def test_fieldvar_ordering(self):
        assert fv("b", 1) < fv("b", 1, 1) < fv("b", 2) < fv("c", 1) < fv("c", 1, 2)

    def test_text_is_deterministic(self, rng):
        for _ in range(10):
            p = random_poly(rng)
            assert p.to_text() == parse_poly(p.to_text()).to_text()


class TestParser:
    def test_primes_and_powers(self):
        assert P("b1''^2") == DiffPoly.from_var(fv("b", 1, 2)) * DiffPoly.from_var(fv("b", 1, 2))

    def test_rationals(self):
        assert P("-3/4") == DiffPoly.const(Fraction(-3, 4))
        assert P("2*b1 - 1/2") == DiffPoly.from_var(fv("b", 1)).scale(2) + DiffPoly.const(Fraction(-1, 2))

    def test_bad_input(self):
        for text in ("", "b1 +", "b0", "b1^0", "*b1", "b1 ** c1"):
            with pytest.raises(PolyParseError):
                parse_poly(text)

    def test_rejects_implicit_multiplication(self):
        for text in ("2 3 b1", "b1 c1", "2 b1", "b1^2 c1'", "1/2*b1 c1 + c2"):
            with pytest.raises(PolyParseError, match="missing"):
                parse_poly(text)

    def test_rejects_parentheses(self):
        for text in ("(b1)", "2*(b1+c1)", "b1)"):
            with pytest.raises(PolyParseError, match="tokenize"):
                parse_poly(text)

    def test_extra_symbols(self):
        # letters-only tokens are constants, digit-bearing ones are fields
        p = P("e*b1s")
        assert p.derive() == P("e*b1s'")
        with pytest.raises(PolyParseError):
            parse_poly("e'")

    def test_latex_smoke(self):
        assert P("-1/2*b1''*c1^2").to_latex() == r"-\frac{1}{2} b_{1}'' {c_{1}}^{2}"


# -- the integer-numerator representation ----------------------------------------


def assert_canonical(p):
    assert p.den >= 1
    assert all(p.num.values())
    assert gcd(p.den, *p.num.values()) == 1
    terms = p.terms
    assert sorted(terms.values()) == sorted(Fraction(c, p.den) for c in p.num.values())
    for mono, coeff in terms.items():
        assert coeff and isinstance(coeff, Fraction)
        assert list(mono) == sorted(mono) and all(e >= 1 for _, e in mono)
    return p


def ext_poly(rng):
    return random_poly(rng, pool=EXT_POOL, max_den=9)


class TestRepresentation:
    def test_canonical_after_every_operation(self, rng):
        rules = {fv("b", 1): P("3/5*c1 - 1/7*e*b1s"), fv("c", 2): P("5/9*b1'")}
        for _ in range(30):
            p, q = ext_poly(rng), ext_poly(rng)
            for r in (p, q, p + q, p - q, -p, p * q, p.scale(Fraction(6, 35)), p.scale(-9),
                      p.derive(), (p * q).derive(2), p.partial(fv("b", 1)),
                      p.partial(fv("b1s", 0, 1)), p.substitute(rules), p.euler(fv("c", 1)),
                      p.euler(fv("b1s", 0)), parse_poly(p.to_text()),
                      DiffPoly.from_json(p.to_json()), DiffPoly(p.terms)):
                assert_canonical(r)
            exact = (p - DiffPoly.const(p.constant_term())).derive()
            assert_canonical(formal_integrate(exact))

    def test_equality_and_hash_across_construction_paths(self):
        text = "1/2*b1*c1 - 3/7*b1s'*e + 5/9"
        parsed = P(text)
        paths = [
            parsed,
            DiffPoly.from_json(json.loads(json.dumps(parsed.to_json()))),
            P("1/2*b1") * P("c1") - P("3/7*e") * P("b1s'") + DiffPoly.const(Fraction(5, 9)),
            parsed.scale(Fraction(3, 7)).scale(Fraction(7, 3)),
            DiffPoly(parsed.terms),
            (P("b1*c1") + P("-6/7*e*b1s' + 10/9")).scale(Fraction(1, 2)),
        ]
        for p in paths:
            assert p == parsed and hash(p) == hash(parsed)
            assert p.to_text() == parsed.to_text()
        assert len(set(paths)) == 1
        assert parsed.terms[((fv("b1s", 0, 1), 1), (fv("e", 0), 1))] == Fraction(-3, 7)

    def test_differential_oracle(self, rng):
        for _ in range(60):
            p, q = ext_poly(rng), ext_poly(rng)
            a, b = p.terms, q.terms
            assert (p + q).terms == ref_add(a, b)
            assert (p * q).terms == ref_mul(a, b)
            assert p.derive().terms == ref_derive(a)
            assert (p * q).derive().terms == ref_derive(ref_mul(a, b))
            assert p.scale(Fraction(-5, 3)).terms == {m: c * Fraction(-5, 3) for m, c in a.items()}


class TestInternTable:
    def test_concurrent_interning_agrees(self):
        # Generators no other test names, so the threads race to intern them.
        names = [f"race{n}s" for n in range(300)]
        results = []

        def work(order):
            acc = DiffPoly.zero()
            for name in order:
                v = DiffPoly.var(name, 0)
                acc = acc + (v * v).derive()
            results.append(acc)

        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(names[:: (-1) ** k],)) for k in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(old)
        assert not any(t.is_alive() for t in threads)
        expected = P(" + ".join(f"2*{name}*{name}'" for name in names))
        assert len(results) == 8 and all(r == expected for r in results)
        # Every id interned in the race has its exponent guard.
        for name in names:
            for v in (name, name + "'"):
                with pytest.raises(ValueError, match="32768"):
                    P(f"{v}^32767") * P(v)


class TestExponentLimit:
    """Each generator's exponent lives in a 16-bit field whose top bit is a
    guard, so exponents stop at 2^15 - 1 = 32767."""

    def test_largest_exponent_round_trips(self):
        p = P("b1^32767")
        assert p * DiffPoly.const(1) == p
        assert p.terms == {((fv("b", 1), 32767),): 1}
        assert parse_poly(p.to_text()) == p == DiffPoly.from_json(p.to_json())
        assert (p * P("c1")).terms == {((fv("b", 1), 32767), (fv("c", 1), 1)): 1}

    def test_exponents_far_below_the_limit(self):
        assert P("b1^300") * P("b1^300") == P("b1^600")
        assert (P("b1^300*c1") * P("b1^300*c1")).terms == {((fv("b", 1), 600), (fv("c", 1), 2)): 1}

    def test_product_reaching_the_limit_raises(self):
        with pytest.raises(ValueError, match="32768"):
            P("b1^32767") * P("b1")
        with pytest.raises(ValueError, match="32768"):
            P("c1 + b1^16384*c2") * P("b1^16384 - 3")

    def test_derive_reaching_the_limit_raises(self):
        assert P("b1'^32766*b1").derive() == P("b1'^32767 + 32766*b1*b1'^32765*b1''")
        with pytest.raises(ValueError, match="32768"):
            P("b1'^32767*b1").derive()

    def test_integration_reaching_the_limit_raises(self):
        assert formal_integrate(P("b1^32766*b1'")) == P("1/32767*b1^32767")
        with pytest.raises(ValueError, match="32768"):
            formal_integrate(P("b1^32767*b1'"))

    @pytest.mark.parametrize("text", ["b1^32768", "b1^20000*b1^20000", "b1^16384*c1*b1^16384", "e^99999"])
    def test_parse_rejects(self, text):
        with pytest.raises(PolyParseError, match="32768"):
            parse_poly(text)

    def test_json_and_constructor_reject(self):
        with pytest.raises(PolyParseError, match="32768"):
            DiffPoly.from_json(_term(exp=32768))
        twice = [{"coeff": "1", "vars": [{"kind": "b", "index": 1, "dorder": 0, "exp": 20000}] * 2}]
        with pytest.raises(PolyParseError, match="32768"):
            DiffPoly.from_json(twice)
        with pytest.raises(ValueError, match="32768"):
            DiffPoly({((fv("c", 2), 40000),): 1})

    def test_cli_substitution_rejects(self, tmp_path):
        from test_cli import run_cli

        sub = tmp_path / "huge.sub"
        sub.write_text("c1 = b1s^32768\n", encoding="utf-8")
        code, out, err = run_cli("derive", "--k", "1", "--n", "2", "--sub", str(sub))
        assert code == 2 and out == ""
        assert f"{sub}:1:" in err and "32768" in err
        # d2(c1) holds c1^2, which the rule raises to b1s^40000.
        sub.write_text("c1 = b1s^20000\n", encoding="utf-8")
        code, out, err = run_cli("derive", "--k", "1", "--n", "2", "--sub", str(sub))
        assert code == 2 and out == ""
        assert "32768" in err


def _term(**var):
    v = {"kind": "b", "index": 1, "dorder": 0, "exp": 1}
    v.update(var)
    return [{"coeff": "1/2", "vars": [v]}]


class TestFromJsonValidation:
    @pytest.mark.parametrize(
        "payload",
        [
            _term(dorder=-2),
            _term(dorder="1"),
            _term(dorder=True),
            _term(index=-1),
            _term(index=1.0),
            _term(index=True),
            _term(exp=0),
            _term(exp=-1),
            _term(exp=2.0),
            _term(exp=True),
            _term(index=0),
            _term(kind="c", index=0),
            _term(kind="e", index=2),
            _term(kind="b1s", index=1),
            _term(kind="b1", index=0),
            _term(kind="b-1"),
            _term(kind=""),
            _term(kind=7),
            _term(kind="e", index=0, dorder=1),
            [{"coeff": 0.5, "vars": []}],
            [{"coeff": "1/0", "vars": []}],
            [{"vars": []}],
            [{"coeff": "1", "vars": [{"kind": "b", "index": 1, "exp": 1}]}],
        ],
        ids=[
            "negative-dorder", "str-dorder", "bool-dorder", "negative-index", "float-index",
            "bool-index", "zero-exp", "negative-exp", "float-exp", "bool-exp", "b-index-0",
            "c-index-0", "indexed-constant", "indexed-placeholder", "std-like-kind",
            "malformed-kind", "empty-kind", "int-kind", "derived-constant", "float-coeff",
            "zero-denominator", "missing-coeff", "missing-dorder",
        ],
    )
    def test_rejects(self, payload):
        with pytest.raises(PolyParseError):
            DiffPoly.from_json(payload)

    def test_accepts_extension_kinds(self):
        p = P("2/3*e*b1s''")
        assert DiffPoly.from_json(p.to_json()) == p


def _render_corpus():
    """Polynomials whose text, LaTeX and JSON the render pin covers."""
    from laxdual.fnr import build_psi
    from laxdual.zerocurv import zero_curvature

    polys = []
    for k in (1, 2, 3):
        table = build_psi(k, 12)
        for row in table.rows:
            for p in (row.a, row.bp, row.cm):
                polys += [p, p.scale(Fraction(3, 7)) + DiffPoly.const(Fraction(-5, 11))]
        if k <= 2:
            for n in range(1, 7):
                system = zero_curvature(table, n)
                polys += [system.evolution[v] for v in system.fields()]
    polys += [
        DiffPoly.zero(),
        DiffPoly.const(Fraction(-9, 4)),
        P("-2/3*e*b1s''^2*c1 + 7*b1s*e^3 - e + 1/5*b1s'*b2^2 - 4"),
        P("b1^2*c1'''*e - 1/9*b1s*c2 + 11/3*b1s^2"),
    ]
    return polys


def test_render_pin():
    # SHA-256 over to_text, to_latex and to_json of the corpus, as rendered
    # by the Fraction-based renderer this pin was computed with.
    h = hashlib.sha256()
    for p in _render_corpus():
        h.update(p.to_text().encode() + b"\n")
        h.update(p.to_latex().encode() + b"\n")
        h.update(json.dumps(p.to_json(), sort_keys=True).encode() + b"\n")
    assert h.hexdigest() == "766be60d23594f9a343d41a261c2c6857cf317b16042023fb5efd23a412c5f33"
