"""Shared helpers: parse shortcut and a seeded random-polynomial generator."""

import hashlib
import json
import os
import random
import subprocess
import sys
from fractions import Fraction
from math import lcm
from pathlib import Path

import pytest

from laxdual import diffpoly as dp, fnr
from laxdual.diffpoly import DiffPoly, FieldVar, parse_poly
from laxdual.fnr import PsiTable
from laxdual.loopalg import LaurentMatrix, Sl2Poly, lm_commutator


def run_process(*args, **env):
    """A fresh interpreter without site hooks, importing laxdual from src."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    return subprocess.run(
        [sys.executable, "-S", *args],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": src, **env},
    )


def P(text: str) -> DiffPoly:
    return parse_poly(text)


def fv(kind: str, index: int, dorder: int = 0) -> FieldVar:
    return FieldVar(kind, index, dorder)


# Small pool of generators for randomized identities: <= 5 distinct fields,
# derivative orders <= 2, degrees kept small enough to stay fast.
_POOL = [
    fv("b", 1), fv("b", 1, 1), fv("b", 1, 2),
    fv("c", 1), fv("c", 1, 1),
    fv("b", 2), fv("c", 2, 1),
]


# The standard pool plus a constant symbol and a placeholder field, as in the
# CLI's substitution files.
EXT_POOL = _POOL + [fv("e", 0), fv("b1s", 0), fv("b1s", 0, 1)]


def random_poly(
    rng: random.Random, max_terms: int = 4, max_factors: int = 3, pool=_POOL, max_den: int = 4
) -> DiffPoly:
    out = DiffPoly.zero()
    for _ in range(rng.randint(0, max_terms)):
        coeff = Fraction(rng.randint(-6, 6), rng.randint(1, max_den))
        term = DiffPoly.const(coeff)
        for _ in range(rng.randint(0, max_factors)):
            term = term * DiffPoly.from_var(rng.choice(pool))
        out = out + term
    return out


# Reference ring operations on public {Monomial: Fraction} tables, used as
# oracles for the packed kernel.


def ref_add(a, b):
    out = dict(a)
    for m, c in b.items():
        out[m] = out.get(m, 0) + c
    return {m: c for m, c in out.items() if c}


def ref_mul(a, b):
    out = {}
    for m1, c1 in a.items():
        for m2, c2 in b.items():
            acc = dict(m1)
            for v, e in m2:
                acc[v] = acc.get(v, 0) + e
            m = tuple(sorted(acc.items()))
            out[m] = out.get(m, 0) + c1 * c2
    return {m: c for m, c in out.items() if c}


def ref_derive(a):
    out = {}
    for mono, c in a.items():
        for v, e in mono:
            if v.is_constant_symbol():
                continue
            acc = dict(mono)
            acc[v] -= 1
            if not acc[v]:
                del acc[v]
            acc[v.derived()] = acc.get(v.derived(), 0) + 1
            m = tuple(sorted(acc.items()))
            out[m] = out.get(m, 0) + c * e
    return {m: c for m, c in out.items() if c}


def ref_partial(a, v):
    out = {}
    for mono, c in a.items():
        acc = dict(mono)
        e = acc.pop(v, 0)
        if e > 1:
            acc[v] = e - 1
        if e:
            out[tuple(sorted(acc.items()))] = c * e
    return out


def constant_term(p: DiffPoly) -> Fraction:
    """The coefficient of p's field-free monomial 1."""
    return Fraction(p.num.get(0, 0), p.den)


def sl2_commutator(x: Sl2Poly, y: Sl2Poly) -> Sl2Poly:
    """[x, y] on the (sigma+, sigma-, sigma3) basis, with plain * and -:
    [sigma3, sigma+-] = +-2 sigma+-, [sigma+, sigma-] = sigma3.  The oracle
    for lm_commutator, which sums each coefficient's products in one dot."""
    return Sl2Poly(
        x.bp * y.cm - x.cm * y.bp,
        (x.a * y.bp - y.a * x.bp).scale(2),
        (y.a * x.cm - x.a * y.cm).scale(2),
    )


def ref_euler(a, u):
    """The textbook sum over l of (-D)^l applied to the partial by u^(l)."""
    out = {}
    top = max((v.dorder for mono in a for v, _ in mono), default=0)
    for order in range(top + 1):
        term = ref_mul({(): Fraction(-1) ** order}, ref_partial(a, u.derived(order)))
        for _ in range(order):
            term = ref_derive(term)
        out = ref_add(out, term)
    return out


def ref_euler_chain(p: DiffPoly, u: FieldVar) -> list[DiffPoly]:
    """The Horner chain of the Euler operator on whole polynomials: Q_{M-1} =
    P_M and Q_{l-1} = P_l - d Q_l, each P_l by DiffPoly.partial, each d Q_l by
    DiffPoly.derive and each step by DiffPoly.__sub__.  Its last element,
    E_u(p), is the oracle for diffpoly._euler_tables, which steps on numerator
    tables and keeps only that one."""
    kind, index, _ = u
    top = max((v.dorder for v in p.variables() if (v.kind, v.index) == (kind, index)), default=0)
    chain = [p.partial(FieldVar(kind, index, top))]
    for order in range(top - 1, -1, -1):
        part, q = p.partial(FieldVar(kind, index, order)), chain[-1]
        chain.append(part - q.derive() if q.num else part)
    return chain


def ref_substitute(a, rules):
    """Each monomial rebuilt factor by factor: a generator whose base has a
    rule becomes that rule derived dorder times, any other stays."""
    out = {}
    for mono, c in a.items():
        term = {(): c}
        for v, e in mono:
            image = rules.get(v.base())
            if image is None:
                image = {((v, 1),): Fraction(1)}
            else:
                for _ in range(v.dorder):
                    image = ref_derive(image)
            for _ in range(e):
                term = ref_mul(term, image)
        out = ref_add(out, term)
    return out


def ref_mapped(a, images, evolution):
    """ref_substitute with a derivation in place of the distinguished one: a
    generator u^(l) becomes the chain rule of `evolution` (rule tables by
    dorder-0 field) applied l times to u's image, or to u itself if it has
    none; the chain rule sends each v^(l) to its partial times the l-th
    derivative of v's rule."""

    def derivation(t):
        out = {}
        for v in {v for mono in t for v, _ in mono if not v.is_constant_symbol()}:
            rule = evolution[v.base()]
            for _ in range(v.dorder):
                rule = ref_derive(rule)
            out = ref_add(out, ref_mul(ref_partial(t, v), rule))
        return out

    out = {}
    for mono, c in a.items():
        term = {(): c}
        for v, e in mono:
            image = images.get(v.base(), {((v.base(), 1),): Fraction(1)})
            for _ in range(v.dorder):
                image = derivation(image)
            for _ in range(e):
                term = ref_mul(term, image)
        out = ref_add(out, term)
    return out


def ref_bracket(brackets, dp, dq) -> DiffPoly:
    """{p, q} from the gradients dp and dq, entry by entry: the sum of
    dp_u * P[u, v] * dq_v over the bracket table's entries (u, v)."""
    acc = DiffPoly.zero()
    for (u, v), p_uv in brackets.entries.items():
        if u in dp and v in dq:
            acc = acc + dp[u] * p_uv * dq[v]
    return acc


class NotATotalDerivative(Exception):
    """Raised by ref_integrate when its argument has no antiderivative."""


def _order_key(i: int):
    v = dp._VARS[i]
    return (v.dorder, v.kind, v.index)


def _peel_key(mono: int):
    # Sorted-descending sequence of generator keys, exponent-expanded: the
    # peel's order, so the field-free term named is the one a peel stops at.
    return sorted((_order_key(i) for i, e in dp._fields(mono) for _ in range(e)), reverse=True)


def ref_integrate(p: DiffPoly) -> DiffPoly:
    """The antiderivative of p with zero constant term, by peeling: the
    leading term, linear in its highest derivative, is integrated once and
    its derivative subtracted, until nothing is left.  NotATotalDerivative if
    an Euler derivative of p does not vanish or the peel stops.  The oracle
    for equal_mod_total_derivative."""
    for u in p.generators():
        if not u.is_constant_symbol() and not p.euler(u).is_zero():
            raise NotATotalDerivative(f"euler derivative with respect to {u} does not vanish")
    rem, result = p, DiffPoly.zero()
    while not rem.is_zero():
        mono = max(rem.num, key=_peel_key)
        if not mono:
            raise NotATotalDerivative("nonzero constant term has no antiderivative")
        top, e = max(dp._fields(mono), key=lambda f: _order_key(f[0]))
        v = dp._VARS[top]
        if v.dorder == 0 or v.is_constant_symbol():
            term = "*".join(dp._var_text(v, e) for v, e in dp._to_public(mono))
            raise NotATotalDerivative(f"term {term} cannot be integrated")
        if e != 1:
            raise NotATotalDerivative(f"leading derivative {v} occurs nonlinearly")
        low = dp._vid(v.derived(-1))
        key = mono - (1 << (dp._W * top)) + (1 << (dp._W * low))
        piece = dp._reduced(dp._guarded({key: rem.num[mono]}), rem.den * ((key >> (dp._W * low)) & dp._MASK))
        result = result + piece
        rem = rem - piece.derive()
    return result


def integrates(p: DiffPoly) -> bool:
    """Whether ref_integrate finds an antiderivative of p."""
    try:
        ref_integrate(p)
    except NotATotalDerivative:
        return False
    return True


def ref_canonical(pairs):
    """The canonical (terms, den) of a sum of (Monomial, rational) pairs,
    computed with Fraction: factors merged and sorted, equal monomials summed,
    zero coefficients dropped, den the lcm of the reduced denominators.  The
    oracle for the int-pair coefficient readers; compare with canonical(p)."""
    terms = {}
    for mono, c in pairs:
        acc = {}
        for v, e in mono:
            acc[v] = acc.get(v, 0) + e
        m = tuple(sorted(acc.items()))
        terms[m] = terms.get(m, 0) + Fraction(c)
    terms = {m: c for m, c in terms.items() if c}
    return terms, lcm(*(c.denominator for c in terms.values()))


def canonical(p: DiffPoly):
    return p.terms, p.den


def random_pair(rng: random.Random, nonzero: bool = False) -> tuple[int, int]:
    """An int pair (n, d) for n/d, neither reduced nor sign-normalised: d != 0
    may be negative, and n != 0 if nonzero."""
    n = rng.randint(-30, 30)
    while nonzero and not n:
        n = rng.randint(-30, 30)
    return n, rng.choice((-1, 1)) * rng.randint(1, 12)


@pytest.fixture
def rng() -> random.Random:
    return random.Random(20411)


def reference_closure_a(rows, m: int) -> DiffPoly:
    """a_m from the full textbook sum over i = 1..m-1, with plain * and +:
    4 a_m + sum_i (2 a_i a_{m-i} + b_i c_{m-i} + b_{m-i} c_i) = 0."""
    acc = DiffPoly.zero()
    for i in range(1, m):
        li, lmi = rows[i], rows[m - i]
        acc = acc + DiffPoly.const(2) * li.a * lmi.a + li.bp * lmi.cm + lmi.bp * li.cm
    return acc * DiffPoly.const(Fraction(-1, 4))


def reference_rows(k: int, depth: int):
    """Rows 0..depth of the t_k table rebuilt from the two textbook recursions
    with plain * and +, on a private row list: an oracle that shares neither
    the row store of build_psi nor the fused products of fnr."""
    half, minus_half = DiffPoly.const(Fraction(1, 2)), DiffPoly.const(Fraction(-1, 2))
    rows = [Sl2Poly(a=DiffPoly.const(1))]
    for j in range(1, depth + 1):
        if j <= k:
            bj, cj = DiffPoly.var("b", j), DiffPoly.var("c", j)
        else:
            # d_k l_p = sum_{i=0}^{k} [l_i, l_{p+k-i}], sigma+ and sigma- parts.
            p = j - k
            bj = rows[p].bp.derive() * half
            cj = rows[p].cm.derive() * minus_half
            for i in range(1, k + 1):
                li, lo = rows[i], rows[p + k - i]
                bj = bj - li.a * lo.bp + lo.a * li.bp
                cj = cj - li.a * lo.cm + lo.a * li.cm
        rows.append(Sl2Poly(a=reference_closure_a(rows, j), bp=bj, cm=cj))
    return rows


def ref_flow(table: PsiTable, n: int) -> LaurentMatrix:
    """d_k V^(n) + [V^(n), V^(k)] as one Laurent sum: zero_curvature's flow
    assembled whole, its evolution at lambda^0..lambda^(k-1)."""
    v_n, v_k = fnr.lax_matrix(table, n), fnr.lax_matrix(table, table.k)
    return v_n.map(DiffPoly.derive) + lm_commutator(v_n, v_k)


def unowned(table: PsiTable) -> PsiTable:
    """An equal table whose rows are fresh objects, so no memo serves it."""
    return PsiTable(table.k, table.depth, tuple(Sl2Poly(r.a, r.bp, r.cm) for r in table.rows))


def riccati_orders(wz, depth: int) -> list:
    """(beta_j, gamma_j, density_j) of a Riccati expansion for j = 1..depth."""
    return [(wz.beta(j), wz.gamma(j), wz.density(j)) for j in range(1, depth + 1)]


def tampered(table: PsiTable) -> PsiTable:
    """The table with b1*c1 added to a_k: every verifier must reject it."""
    rows = list(table.rows)
    row = rows[table.k]
    rows[table.k] = Sl2Poly(a=row.a + DiffPoly.var("b", 1) * DiffPoly.var("c", 1), bp=row.bp, cm=row.cm)
    return PsiTable(k=table.k, depth=table.depth, rows=tuple(rows))


def with_added(table: PsiTable, j: int, extra: str, attrs=("a", "bp", "cm")) -> PsiTable:
    """The table with the polynomial `extra` added to the `attrs` entries of row j."""
    rows = list(table.rows)
    parts = {"a": rows[j].a, "bp": rows[j].bp, "cm": rows[j].cm}
    for attr in attrs:
        parts[attr] = parts[attr] + P(extra)
    rows[j] = Sl2Poly(**parts)
    return PsiTable(k=table.k, depth=table.depth, rows=tuple(rows))


def tampered_above_k(k: int, attr: str) -> PsiTable:
    """build_psi(k, 6) with b1 added to the `attr` component of row k + 1."""
    return with_added(fnr.build_psi(k, 6), k + 1, "b1", (attr,))


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def report_digest(report) -> str:
    return digest(json.dumps(report.to_json(), sort_keys=True))


@pytest.fixture
def default_int_digit_limit():
    """Python's default int-string limit of 4300 digits for one test, whatever
    PYTHONINTMAXSTRDIGITS or -X int_max_str_digits set."""
    before = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    yield
    sys.set_int_max_str_digits(before)


@pytest.fixture
def fresh_store(monkeypatch):
    """An empty process-wide row store for the duration of one test."""
    monkeypatch.setattr(fnr, "_HIERARCHIES", {})
    return fnr._HIERARCHIES
