"""Differential polynomial ring: arithmetic, calculus, canonical form."""

import hashlib
import json
import sys
import threading
from decimal import Decimal
from fractions import Fraction
from math import gcd

import pytest

from laxdual import diffpoly
from laxdual.diffpoly import (
    DiffPoly,
    FieldVar,
    NotATotalDerivative,
    PolyParseError,
    equal_mod_total_derivative,
    formal_integrate,
    parse_poly,
)

from laxdual.fnr import build_psi, casimir_closure_a

from conftest import (
    EXT_POOL,
    P,
    canonical,
    fv,
    random_pair,
    random_poly,
    ref_add,
    ref_derive,
    ref_mul,
    ref_substitute,
    ref_canonical,
    reference_closure_a,
    reference_rows,
    run_process,
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

    def test_first_derivative_is_kept(self, rng):
        for _ in range(20):
            p = random_poly(rng, pool=EXT_POOL)
            want = ref_derive(p.terms)
            first = p.derive()
            assert first.terms == want
            assert p.derive() is first and p.derive().terms == want
            assert p.derive(3) is first.derive().derive()
            # A copy holds no derivatives, so it derives afresh.
            copy = DiffPoly.from_json(p.to_json())
            assert p.derive(3) == copy.derive().derive().derive()
            assert p.derive(3).terms == ref_derive(ref_derive(want))

    def test_overflow_keeps_nothing(self):
        p = P("b1'^32766*b1^2")
        for _ in range(2):
            with pytest.raises(ValueError, match="32768"):
                p.derive(2)
        # The first step stands; only the step that overflowed is not kept.
        assert p.derive() == P("2*b1*b1'^32767 + 32766*b1^2*b1'^32765*b1''")
        with pytest.raises(ValueError, match="32768"):
            p.derive().derive()

    def test_concurrent_derivation_agrees(self, fresh_store):
        # Row 10 of a fresh t_2 store: the rows above it were never built, so
        # nothing has derived it yet and the threads race to.
        row = build_psi(2, 10).rows[10].bp
        want = ref_derive(ref_derive(ref_derive(row.terms)))
        barrier = threading.Barrier(8)
        results = []

        def work():
            barrier.wait(timeout=60)
            results.append(row.derive(3))

        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work) for _ in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(old)
        assert not any(t.is_alive() for t in threads)
        assert len(results) == 8 and all(r.terms == want for r in results)
        assert row.derive(3) == results[0]


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

    def test_matches_reference_on_each_kind_of_rule(self):
        # A rule holding its own target, a rule to a constant and a rule to 0,
        # all over odd denominators, on powers and derivatives of the targets.
        rules = {fv("b", 1): P("1/3*b1 + 5/7*c1'"), fv("c", 1): P("-3/5"), fv("b", 2): DiffPoly.zero()}
        p = P("1/9*b1^3*c1^2 + 7/3*b1'^2*b1 - 3/5*b2*c1 + e*b1s*b1^4 + c1'*b1s'")
        want = ref_substitute(p.terms, {v: rhs.terms for v, rhs in rules.items()})
        assert p.substitute(rules).terms == want

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

    def test_bad_input(self, default_int_digit_limit):
        # Numbers are ASCII digits: "\u0663" is ARABIC-INDIC DIGIT THREE.
        for text in ("", "b1 +", "b0", "b1^0", "*b1", "b1 ** c1", "\u0663*b1", "b1^\u0662"):
            with pytest.raises(PolyParseError):
                parse_poly(text)
        # Numbers past the int-string limit: the message counts the digits.
        long = "7" * 5000
        for text in (long, "b1^" + long, "b" + "1" * 5000, "1/" + "3" * 5000 + "*b1"):
            with pytest.raises(PolyParseError, match="a number of 5000 digits"):
                parse_poly(text)

    def test_rejects_implicit_multiplication(self):
        for text in ("2 3 b1", "b1 c1", "2 b1", "b1^2 c1'", "1/2*b1 c1 + c2"):
            with pytest.raises(PolyParseError, match="missing"):
                parse_poly(text)

    def test_rejects_parentheses(self):
        for text in ("(b1)", "2*(b1+c1)", "b1)"):
            with pytest.raises(PolyParseError, match="tokenize"):
                parse_poly(text)

    @pytest.mark.parametrize("text, number", [("1/0*b1", "1/0"), ("c1 - 3/00", "3/00")])
    def test_zero_denominator_is_a_parse_error(self, text, number):
        with pytest.raises(PolyParseError, match=f"zero denominator in '{number}'"):
            parse_poly(text)

    def test_extra_symbols(self):
        # letters-only tokens are constants, digit-bearing ones are fields
        p = P("e*b1s")
        assert p.derive() == P("e*b1s'")
        with pytest.raises(PolyParseError):
            parse_poly("e'")

    def test_latex_smoke(self):
        assert P("-1/2*b1''*c1^2").to_latex() == r"-\frac{1}{2} b_{1}'' {c_{1}}^{2}"


class TestIntegerPairs:
    """const, scale, the constructor and the parser read each coefficient as
    an int pair; each agrees with the Fraction oracle ref_canonical, on
    negative and unreduced inputs alike."""

    def test_const(self, rng):
        for _ in range(200):
            n, d = random_pair(rng)
            for value in (n, Fraction(n, d)):
                assert canonical(DiffPoly.const(value)) == ref_canonical([((), value)])

    def test_scale(self, rng):
        for _ in range(60):
            p = random_poly(rng, pool=EXT_POOL, max_den=9)
            (n, d), (m, e) = random_pair(rng), random_pair(rng, nonzero=True)
            for s, t in ((n, 1), (n, d), (Fraction(n, d), m), (n, Fraction(m, e)), (Fraction(n, d), Fraction(m, e))):
                want = ref_canonical((mono, c * Fraction(s) / Fraction(t)) for mono, c in p.terms.items())
                assert canonical(p.scale(s, t)) == want
            assert p.scale(n) == p.scale(n, 1)
        with pytest.raises(ZeroDivisionError):
            P("b1").scale(1, 0)

    def test_constructor(self, rng):
        for _ in range(60):
            pairs = []
            for _ in range(rng.randint(0, 5)):
                mono = tuple((rng.choice(EXT_POOL), rng.randint(1, 3)) for _ in range(rng.randint(0, 3)))
                n, d = random_pair(rng)
                pairs.append((mono, rng.choice((n, Fraction(n, d)))))
                # the same monomial once more, its factors reversed: the two sum
                pairs.append((mono[::-1], Fraction(-n, d) if rng.random() < 0.3 else d))
            assert canonical(DiffPoly(dict(pairs))) == ref_canonical(dict(pairs).items())

    def test_parsed_coefficients(self, rng):
        for _ in range(60):
            pieces, pairs = [], []
            for _ in range(rng.randint(1, 5)):
                mono = tuple((rng.choice(EXT_POOL[:7]), 1) for _ in range(rng.randint(0, 2)))
                sign, n, d = rng.choice(("+", "-")), rng.randint(0, 30), rng.randint(1, 12)
                number = f"{n}/{d}" if rng.random() < 0.7 else str(n)
                factors = [number] + [str(v) for v, _ in mono]
                pieces.append(f"{sign} {'*'.join(factors)}")
                pairs.append((mono, Fraction(n if sign == "+" else -n, d if "/" in number else 1)))
            assert canonical(parse_poly(" ".join(pieces))) == ref_canonical(pairs)

    @pytest.mark.parametrize("bad", [0.1, "1/2", Decimal("0.1"), None], ids=["float", "str", "decimal", "none"])
    def test_anything_but_an_int_or_a_fraction_is_a_type_error(self, bad):
        p, name = P("b1"), type(bad).__name__
        calls = (
            lambda: DiffPoly.const(bad),
            lambda: p.scale(bad),
            lambda: p.scale(1, bad),
            lambda: DiffPoly({((fv("b", 1), 1),): bad}),
        )
        for call in calls:
            with pytest.raises(TypeError, match=f"got {name} "):
                call()


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


class TestIntStringLimit:
    """A number past Python's int-string limit is refused where it comes in
    and named by its size where it goes out."""

    HUGE = 10**5000  # 16610 bits, 5001 digits

    @pytest.mark.parametrize("write", ["to_text", "to_latex", "to_json", "__repr__", "__str__"])
    @pytest.mark.parametrize(
        "coeff", [HUGE, Fraction(-1, HUGE), Fraction(3, HUGE + 1)], ids=["numerator", "denominator", "odd-denominator"]
    )
    def test_output_names_the_number(self, default_int_digit_limit, write, coeff):
        p = DiffPoly.const(coeff) + P("b1*c1 - 1/2*b1'")
        message = r"^the coefficient <an integer of 16610 bits> is past the int-string limit$"
        with pytest.raises(ValueError, match=message):
            getattr(p, write)()

    def test_output_within_the_limit_is_unchanged(self, default_int_digit_limit):
        p = DiffPoly.const(Fraction(10**4000, 3)) - P("b1")
        assert p.to_text() == f"{10**4000}/3 - b1"
        assert p.to_latex() == rf"\frac{{{10**4000}}}{{3}} - b_{{1}}"
        assert DiffPoly.from_json(p.to_json()) == p

    @pytest.mark.parametrize("index", [HUGE, HUGE + 7], ids=["even", "odd"])
    def test_constructor_refuses_an_index_no_text_can_name(self, default_int_digit_limit, index):
        interned = len(diffpoly._VARS)
        with pytest.raises(PolyParseError, match=r"^index <an integer of 16610 bits> is past the int-string limit$"):
            DiffPoly.var("b", index)
        with pytest.raises(PolyParseError, match="past the int-string limit"):
            DiffPoly({((FieldVar("c", index), 1),): 1})
        with pytest.raises(PolyParseError, match="past the int-string limit"):
            DiffPoly.from_json([{"coeff": "1", "vars": [{"kind": "b", "index": index, "dorder": 0, "exp": 1}]}])
        for negative in (FieldVar("b", -index), FieldVar("b", 1, -index)):
            with pytest.raises(PolyParseError, match=r"must be an integer >= 0, got <an integer of 16610 bits>$"):
                DiffPoly.from_var(negative)
        assert len(diffpoly._VARS) == interned


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

    def test_substitution_reaching_the_limit_raises(self):
        huge = P("b2^20000")
        assert P("b2^12767*b1").substitute({fv("b", 1): huge}) == P("b2^32767")
        with pytest.raises(ValueError, match="32768"):
            P("b1^2").substitute({fv("b", 1): huge})
        # The overflowing terms cancel, and the guard must still see them.
        with pytest.raises(ValueError, match="32768"):
            P("b1^2 - c1^2").substitute({fv("b", 1): huge, fv("c", 1): huge})
        # Each rule's power is in range; only its product with the rest of the
        # monomial overflows, which the one table's guard alone can see.
        with pytest.raises(ValueError, match="32768"):
            P("b2^20000*b1").substitute({fv("b", 1): huge})
        with pytest.raises(ValueError, match="32768"):
            P("b2^20000*b1 - b2^20000*c1").substitute({fv("b", 1): huge, fv("c", 1): huge})

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
        # An exponent too long to write in decimal is named by its size.
        with pytest.raises(PolyParseError, match="<an integer of 16610 bits> is not below the limit 32768"):
            DiffPoly({((fv("b", 1), 10**5000),): 1})

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
            *([{"coeff": c, "vars": []}] for c in ("1.5", "1e3", "1_0", " 3/4 ", "+2", "\u0663/\u0664")),
        ],
        ids=[
            "negative-dorder", "str-dorder", "bool-dorder", "negative-index", "float-index",
            "bool-index", "zero-exp", "negative-exp", "float-exp", "bool-exp", "b-index-0",
            "c-index-0", "indexed-constant", "indexed-placeholder", "std-like-kind",
            "malformed-kind", "empty-kind", "int-kind", "derived-constant", "float-coeff",
            "zero-denominator", "missing-coeff", "missing-dorder", "decimal-coeff", "exponent-coeff",
            "underscore-coeff", "spaced-coeff", "plus-coeff", "non-ascii-coeff",
        ],
    )
    def test_rejects(self, payload):
        with pytest.raises(PolyParseError):
            DiffPoly.from_json(payload)

    @pytest.mark.parametrize(
        "kind, index, dorder",
        [
            ("b", 0, 0),
            ("c", 0, 0),
            ("b1", 0, 0),
            ("x1y", 3, 0),
            ("e", 2, 0),
            ("e", 0, 1),
            ("b", -1, 0),
            ("b", 1, -1),
            ("b-1", 0, 0),
        ],
        ids=[
            "b0", "c0", "std-like-kind", "indexed-placeholder", "indexed-constant", "derived-constant",
            "negative-index", "negative-dorder", "malformed-kind",
        ],
    )
    def test_constructors_reject_what_no_text_names(self, kind, index, dorder):
        # DiffPoly(...), var and from_var refuse a generator with from_json's own message.
        with pytest.raises(PolyParseError) as from_json:
            DiffPoly.from_json(_term(kind=kind, index=index, dorder=dorder))
        v = FieldVar(kind, index, dorder)
        for build in (
            lambda: DiffPoly({((v, 1),): 1}),
            lambda: DiffPoly.var(kind, index, dorder),
            lambda: DiffPoly.from_var(v),
        ):
            with pytest.raises(PolyParseError) as built:
                build()
            assert str(built.value) == str(from_json.value)

    def test_accepts_extension_kinds(self):
        p = P("2/3*e*b1s''")
        assert DiffPoly.from_json(p.to_json()) == p

    def test_loads_no_fractions(self):
        # Coefficients are read as int pairs, JSON integers included.
        probe = (
            "import sys\n"
            "from laxdual.diffpoly import DiffPoly\n"
            "v = {'kind': 'b', 'index': 1, 'dorder': 2, 'exp': 1}\n"
            "p = DiffPoly.from_json([{'coeff': '-6/4', 'vars': [v]}, {'coeff': 5, 'vars': []}])\n"
            "print(p, sorted(m for m in ('fractions', 'decimal', 'numbers') if m in sys.modules))\n"
        )
        proc = run_process("-c", probe)
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, "5 - 3/2*b1'' []\n", "")


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
