"""Shared helpers: parse shortcut and a seeded random-polynomial generator."""

import hashlib
import json
import random
from fractions import Fraction

import pytest

from laxdual import fnr
from laxdual.diffpoly import DiffPoly, FieldVar, parse_poly
from laxdual.fnr import PsiTable
from laxdual.loopalg import Sl2Poly


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


def unowned(table: PsiTable) -> PsiTable:
    """An equal table whose rows are fresh objects, so no memo serves it."""
    return PsiTable(table.k, table.depth, tuple(Sl2Poly(r.a, r.bp, r.cm) for r in table.rows))


def tampered_above_k(k: int, attr: str) -> PsiTable:
    """build_psi(k, 6) with b1 added to the `attr` component of row k + 1."""
    rows = list(fnr.build_psi(k, 6).rows)
    parts = {"a": rows[k + 1].a, "bp": rows[k + 1].bp, "cm": rows[k + 1].cm}
    parts[attr] = parts[attr] + P("b1")
    rows[k + 1] = Sl2Poly(**parts)
    return PsiTable(k=k, depth=6, rows=tuple(rows))


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def report_digest(report) -> str:
    return digest(json.dumps(report.to_json(), sort_keys=True))


@pytest.fixture
def fresh_store(monkeypatch):
    """An empty process-wide row store for the duration of one test."""
    monkeypatch.setattr(fnr, "_HIERARCHIES", {})
    return fnr._HIERARCHIES
