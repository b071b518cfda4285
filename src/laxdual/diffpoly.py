"""Exact differential polynomial ring in the fields b_i, c_i.

Elements are polynomials over Q in the generators b_1, c_1, b_2, c_2, ... and
their derivatives of arbitrary order with respect to one distinguished
variable.  The public forms are

  FieldVar  = (kind, index, dorder)       one generator, e.g. b_1'' = ('b', 1, 2)
  Monomial  = tuple of (FieldVar, exp)    sorted by FieldVar, exponents >= 1

Inside, each FieldVar is interned to a small int id (a process-wide table that
also caches the step to its derivative), and a monomial is one int packing a
16-bit exponent field per id: b1^2*c1 is 2 << 16*id(b1) | 1 << 16*id(c1).  A
product of monomials is one addition, the derivation adds one fixed step, and
a partial derivative reads one field.  A DiffPoly is `num: {monomial: int}`
over one `den: int`, canonical (den >= 1, no zero numerators, gcd(den, *num)
== 1), so two polynomials are equal iff their (num, den) are.  Ids never show:
`terms`, text, LaTeX and JSON sort by the public FieldVar order, and render
from ints.  Coefficients come in as int pairs: the constructor, `const` and
`scale` read `numerator`/`denominator` (an int or a Fraction, never a float),
and the parser and `from_json` read `n` or `n/d` in ASCII digits as two ints.
Only `terms` and `constant_term` return a Fraction; they import `fractions` on
first use, and the CLI calls neither, so it never loads `fractions` (nor
`decimal` and `numbers` with it).  Nothing in this module touches a float.

The constructor, the parser, `from_json` and `formal_integrate` each make
(packed monomial, n, d) items, one per term, and `_summed` adds the items in
one table over the lcm of the denominators, reduced once.

Exponents stay below EXP_LIMIT = 2^15.  Two such fields sum to less than 2^16,
so no product carries into the next field, and a sum that reaches 2^15 sets the
field's top (guard) bit.  Products (formal_integrate's dot too), derivations
and substitutions check the guard bits of their result keys and raise
ValueError; parsing, JSON and the constructor reject larger exponents with
PolyParseError.

Sums of products go through DiffPoly.dot: sum w*p*q over (w, p, q) triples
with small integer weights.  Every product lands in a single {monomial: int}
table over the common denominator of the pairs, with no Fraction in the loop;
the table is then filtered for zeros, checked by the same overflow guard
(cancelled products included) and brought to lowest terms once.  The
convolutions of fnr and loopalg use it in place of chains of * and +.

A DiffPoly keeps its first derivative in the slot _d once derive computes it,
so p.derive(l) walks a chain of kept derivatives.  DiffPoly is immutable and
the cache is keyed by object identity: a derivative lives exactly as long as
its polynomial (the row store of fnr evicts nothing, so its rows' derivatives
stay too), and an equal polynomial built afresh derives afresh.  A derivation
that raises keeps nothing.

The Euler operator sum_l (-d)^l P_l, P_l the partial by u^(l), is evaluated in
Horner form P_0 - d(P_1 - d(P_2 - ...)) from u's top order down: one derivation
per order, not l of them for each P_l.  formal_integrate reads the same chain
by the homotopy operator (Olver, Applications of Lie Groups to Differential
Equations, 5.4) in one dot.  substitute computes each power rule^e it needs
once per call, multiplies each monomial's powers in ascending id order, and
sums every image into one {monomial: int} table over the common denominator of
the images, guarded (cancelled terms included) and reduced once, as dot does.

Besides ring arithmetic the module provides the distinguished derivation
(Leibniz rule, raising dorder), substitution of dorder-0 generators (extended
to derivatives so that substitution commutes with the derivation), the
variational (Euler) derivative, and formal integration of total derivatives.

A small extension used only by the CLI's substitution files: generator kinds
other than 'b'/'c' are allowed.  A kind made of letters only (e.g. 'e') is a
constant symbol killed by the derivation; a kind containing digits (e.g.
'b1s') is an ordinary differentiable placeholder field.
"""

from __future__ import annotations

import re
import sys
import threading
from collections import namedtuple
from collections.abc import Callable, Iterable, Mapping
from functools import reduce
from math import gcd, lcm
from operator import or_


class NotATotalDerivative(Exception):
    """Raised by formal_integrate when the argument has no antiderivative."""


class PolyParseError(ValueError):
    pass


class FieldVar(namedtuple("FieldVar", ("kind", "index", "dorder"), defaults=(0,))):
    """A single generator: field kind, field index, derivative order."""

    __slots__ = ()

    def derived(self, times: int = 1) -> "FieldVar":
        return FieldVar(self.kind, self.index, self.dorder + times)

    def base(self) -> "FieldVar":
        return FieldVar(self.kind, self.index, 0)

    def is_constant_symbol(self) -> bool:
        # Letters-only kinds other than b/c are constants for the derivation.
        return self.kind not in ("b", "c") and self.kind.isalpha()

    def __str__(self) -> str:
        return self.kind + (str(self.index) if self.kind in ("b", "c") else "") + "'" * self.dorder


_W = 16  # bits per exponent field
_MASK = (1 << _W) - 1
EXP_LIMIT = 1 << (_W - 1)  # exponents stay below this; the top bit is the guard

# Interned generators: one table per process, growing with the number of
# distinct generators ever named, not with the size of any polynomial.

_VARS: list[FieldVar] = []
_VAR_ID: dict[FieldVar, int] = {}
_DERIV: dict[int, int] = {}  # id -> key change of v^e -> v^(e-1)*v', 0 for constant symbols
_GUARDS = 0  # the guard bit of every interned id's field
_INTERN = threading.Lock()


def _vid(v: FieldVar) -> int:
    global _GUARDS
    i = _VAR_ID.get(v)
    if i is None:
        with _INTERN:
            i = _VAR_ID.get(v)
            if i is None:
                i = len(_VARS)
                _VARS.append(_checked_var(*v))  # a generator no text names is refused here, once
                _GUARDS |= EXP_LIMIT << (_W * i)
                _VAR_ID[v] = i  # published last: a reader that sees i sees the rest
    return i


def _fields(m: int) -> list[tuple[int, int]]:
    """The (id, exp) pairs of a packed monomial, highest id first."""
    out = []
    while m:
        s = (m.bit_length() - 1) // _W * _W
        e = m >> s
        out.append((s // _W, e))
        m -= e << s
    return out


def _step(i: int) -> int:
    """_DERIV[i], filled on first use."""
    step = _DERIV.get(i)
    if step is None:
        v = _VARS[i]
        step = _DERIV[i] = 0 if v.is_constant_symbol() else (1 << (_W * _vid(v.derived()))) - (1 << (_W * i))
    return step


def _pack(mono: tuple[tuple[FieldVar, int], ...]) -> int:
    exps: dict[int, int] = {}
    for v, e in mono:
        i = _vid(v)
        exps[i] = exps.get(i, 0) + _checked_exp(e)
    return sum(_checked_exp(e) << (_W * i) for i, e in exps.items())


def _to_public(m: int) -> tuple[tuple[FieldVar, int], ...]:
    return tuple(sorted((_VARS[i], e) for i, e in _fields(m)))


def _guarded(tab: dict[int, int]) -> dict[int, int]:
    """tab, unless some exponent in its keys reached EXP_LIMIT."""
    if reduce(or_, tab, 0) & _GUARDS:
        raise ValueError(f"exponent overflow: a generator's exponent reached the limit {EXP_LIMIT}")
    return tab


class DiffPoly:
    """Immutable sparse differential polynomial: integer numerators over one
    common denominator, in the canonical form described in the module doc."""

    __slots__ = ("num", "den", "_d")  # _d: the first derivative, once computed

    def __init__(self, terms: Mapping[tuple[tuple[FieldVar, int], ...], Fraction] | None = None):
        p = _summed([(_pack(mono), *_ratio(coeff)) for mono, coeff in (terms or {}).items()])
        self.num, self.den, self._d = p.num, p.den, None

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero() -> "DiffPoly":
        return _ZERO

    @staticmethod
    def const(value) -> "DiffPoly":
        n, d = _ratio(value)
        return _reduced({0: n}, d) if n else _ZERO

    @staticmethod
    def var(kind: str, index: int, dorder: int = 0) -> "DiffPoly":
        return DiffPoly.from_var(FieldVar(kind, index, dorder))

    @staticmethod
    def from_var(v: FieldVar) -> "DiffPoly":
        return _wrap({1 << (_W * _vid(v)): 1}, 1)

    # -- basic queries -----------------------------------------------------

    @property
    def terms(self) -> dict[tuple[tuple[FieldVar, int], ...], Fraction]:
        """A fresh {Monomial: Fraction} table in the public (FieldVar, exp) form."""
        from fractions import Fraction

        den = self.den
        return {_to_public(m): Fraction(c, den) for m, c in self.num.items()}

    def is_zero(self) -> bool:
        return not self.num

    def constant_term(self) -> Fraction:
        from fractions import Fraction

        return Fraction(self.num.get(0, 0), self.den)

    def _ids(self) -> list[int]:
        # A field of the OR of all keys is nonzero iff its id occurs somewhere.
        return [i for i, _ in _fields(reduce(or_, self.num, 0))]

    def variables(self) -> list[FieldVar]:
        """All generators occurring, sorted by the canonical ordering."""
        return sorted(_VARS[i] for i in self._ids())

    def generators(self) -> list[FieldVar]:
        """Distinct (kind, index) pairs occurring, as dorder-0 FieldVars."""
        return sorted({_VARS[i].base() for i in self._ids()})

    def max_dorder(self) -> int:
        return max((_VARS[i].dorder for i in self._ids()), default=0)

    def total_degree(self) -> int:
        return max((sum(e for _, e in _fields(m)) for m in self.num), default=0)

    # -- ring arithmetic ----------------------------------------------------

    def __add__(self, other: "DiffPoly") -> "DiffPoly":
        return _merge(self, other, 1)

    def __neg__(self) -> "DiffPoly":
        return _wrap({m: -c for m, c in self.num.items()}, self.den)

    def __sub__(self, other: "DiffPoly") -> "DiffPoly":
        return _merge(self, other, -1)

    def __mul__(self, other: "DiffPoly") -> "DiffPoly":
        if not self.num or not other.num:
            return _ZERO
        tab: dict[int, int] = {}
        get = tab.get
        items2 = list(other.num.items())
        for m1, c1 in self.num.items():
            for m2, c2 in items2:
                m = m1 + m2
                tab[m] = get(m, 0) + c1 * c2
        return _reduced(_nonzero(_guarded(tab)), self.den * other.den)

    @staticmethod
    def dot(terms: Iterable[tuple[int, "DiffPoly", "DiffPoly"]]) -> "DiffPoly":
        """sum of w*p*q over the (w, p, q) triples, w a small integer weight.

        Every product goes into one {monomial: int} table over the common
        denominator of the pairs, which is then guarded and reduced once."""
        pairs = [(w, p.num, q.num, p.den * q.den) for w, p, q in terms if w and p.num and q.num]
        if not pairs:
            return _ZERO
        den = lcm(*(d for *_, d in pairs))
        tab: dict[int, int] = {}
        get = tab.get
        for w, num1, num2, d in pairs:
            f = w * (den // d)
            items2 = list(num2.items())
            for m1, c1 in num1.items():
                c1 *= f
                for m2, c2 in items2:
                    m = m1 + m2
                    tab[m] = get(m, 0) + c1 * c2
        return _reduced(_nonzero(_guarded(tab)), den)

    def scale(self, s, d=1) -> "DiffPoly":
        """s/d times self, for s and d each an int or a Fraction, d nonzero."""
        (sn, sd), (dn, dd) = _ratio(s), _ratio(d)
        if not dn:
            raise ZeroDivisionError("DiffPoly.scale by zero")
        n = sn * dd if dn > 0 else -sn * dd
        if not n or not self.num:
            return _ZERO
        return _reduced({m: c * n for m, c in self.num.items()}, self.den * sd * abs(dn))

    def __eq__(self, other) -> bool:
        return isinstance(other, DiffPoly) and self.den == other.den and self.num == other.num

    def __hash__(self):
        return hash((frozenset(self.num.items()), self.den))

    def __repr__(self) -> str:
        return f"DiffPoly({self.to_text()})"

    def __str__(self) -> str:
        return self.to_text()

    # -- calculus -----------------------------------------------------------

    def derive(self, times: int = 1) -> "DiffPoly":
        """Distinguished derivation, applied `times` times (Leibniz rule).

        Each first derivative is computed once and kept on its polynomial."""
        p = self
        for _ in range(times):
            d = p._d
            if d is None:
                d = p._d = _derivative(p)
            p = d
        return p

    def partial(self, v: FieldVar) -> "DiffPoly":
        """Plain partial derivative with respect to one generator v."""
        i = _VAR_ID.get(v)
        if i is None:
            return _ZERO
        s, one = _W * i, 1 << (_W * i)
        # Lowering one field maps distinct monomials to distinct monomials.
        return _reduced({m - one: c * e for m, c in self.num.items() if (e := (m >> s) & _MASK)}, self.den)

    def substitute(self, rules: Mapping[FieldVar, "DiffPoly"]) -> "DiffPoly":
        """Replace dorder-0 generators by polynomials, an occurrence at order l
        by the l-th derivative of the rule, so that substitution commutes with
        the derivation.  Generators without a rule are untouched."""
        for v in rules:
            if v.dorder != 0:
                raise ValueError(f"substitution rules must target dorder-0 generators, got {v}")
        return _mapped(self, rules)

    def euler(self, target: FieldVar) -> "DiffPoly":
        """Variational derivative: sum_l (-d)^l of d(self)/d(target^(l)), in
        Horner form P_0 - d(P_1 - d(P_2 - ...)): the last of its _euler_chain."""
        if target.dorder != 0:
            raise ValueError("euler target must be a dorder-0 generator")
        return _euler_chain(self, target)[-1]

    # -- output --------------------------------------------------------------

    def _walk(self, fmt, mag):
        """Each term as (factors, negative, size) in the public monomial order:
        the factors rendered by fmt(FieldVar, exp), each distinct one once, and
        the coefficient's sign and its size, mag(|n|, d) of n/d in lowest
        terms.  A size past the int-string limit raises _past_limit()."""
        num, den = self.num, self.den
        ids = sorted(self._ids(), key=_VARS.__getitem__)
        # A factor's code is rank << 16 | exp, rank being its place in ids, so
        # sorted code tuples order like the public monomials.  The decode is
        # _fields inlined, keyed by field shift: rendering is a hot path.
        rank = {_W * i: r << _W for r, i in enumerate(ids)}
        keyed = {}
        for m in num:
            codes, x = [], m
            while x:
                s = (x.bit_length() - 1) // _W * _W
                e = x >> s
                codes.append(rank[s] | e)
                x -= e << s
            codes.sort()
            keyed[tuple(codes)] = m
        factor = _Factors(ids, fmt).__getitem__
        for codes in sorted(keyed):
            c = num[keyed[codes]]
            g = gcd(c, den)
            try:
                size = mag(abs(c) // g, den // g)
            except ValueError:  # only str() of a number past the int-string limit raises here
                raise self._past_limit() from None
            yield list(map(factor, codes)), c < 0, size

    def to_text(self) -> str:
        return self._render(_var_text, _ratio_text, "*")

    def to_latex(self) -> str:
        return self._render(_var_latex, _ratio_latex, " ")

    def _render(self, fmt, mag, sep: str) -> str:
        out: list[str] = []
        put = out.append
        for factors, negative, size in self._walk(fmt, mag):
            put(" - " if negative else " + ")
            if not factors:
                put(size)
            elif size == "1":
                put(sep.join(factors))
            else:
                put(f"{size}{sep}{sep.join(factors)}")
        if not out:
            return "0"
        out[0] = "-" if out[0] == " - " else ""  # the first term's sign, and no '+'
        return "".join(out)

    def to_json(self) -> list[dict]:
        return [
            {"coeff": "-" + size if negative else size, "vars": list(map(dict, factors))}
            for factors, negative, size in self._walk(_var_json, _ratio_text)
        ]

    def _past_limit(self) -> ValueError:
        """The error of a failed write: it names the largest number in lowest terms."""
        big = max(max(abs(c), self.den) // gcd(c, self.den) for c in self.num.values())
        return ValueError(f"the coefficient {_shown(big)} is past the int-string limit")

    @staticmethod
    def from_json(data: Iterable[dict]) -> "DiffPoly":
        """Inverse of to_json; raises PolyParseError on any malformed payload."""
        items = []
        try:
            for term in data:
                mono = [
                    (_checked_var(v["kind"], v["index"], v["dorder"]), _checked_exp(v["exp"])) for v in term["vars"]
                ]
                coeff = term["coeff"]
                if type(coeff) not in (str, int):
                    raise PolyParseError(f"coefficient must be a string or an integer, got {coeff!r}")
                items.append((_pack(mono), *_number(str(coeff))))
        except PolyParseError:
            raise
        except (KeyError, TypeError, ValueError) as exc:
            raise PolyParseError(f"malformed polynomial JSON: {type(exc).__name__}: {exc}") from exc
        return _summed(items)


def _ratio(x) -> tuple[int, int]:
    """(numerator, denominator) of an int or a Fraction; TypeError for
    anything else, a float included, so that no value is silently rounded."""
    n, d = getattr(x, "numerator", None), getattr(x, "denominator", None)
    if not (isinstance(n, int) and isinstance(d, int) and d > 0):
        raise TypeError(f"coefficient must be an int or a Fraction, got {type(x).__name__} {x!r}")
    return n, d


def _derivative(p: DiffPoly) -> DiffPoly:
    """The first derivative of p, computed afresh."""
    steps = {_W * i: _step(i) for i in p._ids()}  # keyed by field shift
    tab: dict[int, int] = {}
    get = tab.get
    for m, c in p.num.items():
        # d(v^e * rest) -> e * v^(e-1) * v' * rest for each factor; the
        # decode is _fields inlined, as in _walk.
        x = m
        while x:
            s = (x.bit_length() - 1) // _W * _W
            e = x >> s
            x -= e << s
            step = steps[s]
            if step:
                key = m + step
                tab[key] = get(key, 0) + c * e
    return _reduced(_nonzero(_guarded(tab)), p.den)


def _mapped(
    p: DiffPoly, images: Mapping[FieldVar, DiffPoly], derivation: Callable[[DiffPoly], DiffPoly] | None = None
) -> DiffPoly:
    """p under the ring map sending each dorder-0 generator u to images[u], and
    u^(l) to the l-th derivative of u's image: by the distinguished derivation
    (the image's kept chain), or else by `derivation`, from u itself if it has
    no image.  Other generators are fixed.  p, and a bare generator's image,
    come back as they are, so that their kept derivatives are reused."""
    by_base = {(u.kind, u.index): rhs for u, rhs in images.items()}
    step = DiffPoly.derive if derivation is None else derivation
    image_of: dict[int, DiffPoly] = {}
    chains: dict[tuple[str, int], list[DiffPoly]] = {}
    for i in p._ids():
        v = _VARS[i]
        rhs = by_base.get(key := (v.kind, v.index))
        if rhs is None and (derivation is None or not v.dorder):
            continue
        chain = chains.setdefault(key, [DiffPoly.from_var(v.base()) if rhs is None else rhs])
        while len(chain) <= v.dorder:
            chain.append(step(chain[-1]))
        image_of[i] = chain[v.dorder]
    if not image_of:
        return p
    if len(image_of) == 1 and p.den == 1 and p.num == {1 << (_W * min(image_of)): 1}:
        return image_of[min(image_of)]
    # Each monomial becomes (rest, c, product of its images' powers), each
    # power multiplied out once per call; the products are then summed into
    # one table over their common denominator.
    powers = {i: [image] for i, image in image_of.items()}  # image^1, image^2, ...
    terms = []
    for m, c in p.num.items():
        rest, prod = m, None
        for i, e in reversed(_fields(m)):  # ascending id
            if i in image_of:
                rest -= e << (_W * i)
                up = powers[i]
                while len(up) < e:
                    up.append(up[-1] * up[0])
                prod = up[e - 1] if prod is None else prod * up[e - 1]
        if prod is None:
            terms.append((m, c, 1, {0: 1}))
        elif prod.num:
            terms.append((rest, c, prod.den, prod.num))
    den = lcm(*(d for _, _, d, _ in terms))
    tab: dict[int, int] = {}
    get = tab.get
    for rest, c, d, num in terms:
        c *= den // d
        for m2, c2 in num.items():
            m = rest + m2
            tab[m] = get(m, 0) + c * c2
    return _reduced(_nonzero(_guarded(tab)), den * p.den)


def _merge(a: DiffPoly, b: DiffPoly, sign: int) -> DiffPoly:
    """a + sign*b for sign = +-1, without building a negated copy of b."""
    if not b.num:
        return a
    if not a.num:
        return b if sign > 0 else -b
    da, db = a.den, b.den
    if da == db:
        tab, fb = dict(a.num), sign
    else:
        den = lcm(da, db)
        fa, fb = den // da, sign * (den // db)
        tab, da = {m: c * fa for m, c in a.num.items()}, den
    get = tab.get
    for m, c in b.num.items():
        s = get(m)
        if s is None:
            tab[m] = c * fb
        else:
            s += c * fb
            if s:
                tab[m] = s
            else:
                del tab[m]
    return _reduced(tab, da)


def _wrap(num: dict[int, int], den: int) -> DiffPoly:
    """A DiffPoly over a table already in canonical form."""
    p = object.__new__(DiffPoly)
    p.num = num
    p.den = den
    p._d = None
    return p


def _reduced(num: dict[int, int], den: int) -> DiffPoly:
    """A DiffPoly over a table with no zero numerators, brought to lowest terms."""
    if den != 1:
        g = gcd(den, *num.values())
        if g != 1:
            den //= g
            num = {m: c // g for m, c in num.items()}
    return _wrap(num, den)


def _summed(items: list[tuple[int, int, int]]) -> DiffPoly:
    """The canonical DiffPoly of the (packed monomial, n, d) items, d >= 1:
    one table over the lcm of the denominators, reduced once."""
    den = lcm(*(d for *_, d in items))
    tab: dict[int, int] = {}
    get = tab.get
    for key, n, d in items:
        tab[key] = get(key, 0) + n * (den // d)
    return _reduced(_nonzero(tab), den)


def _nonzero(tab: dict[int, int]) -> dict[int, int]:
    # Cancellation is rare: scanning for a zero is cheaper than rebuilding.
    return {m: c for m, c in tab.items() if c} if 0 in tab.values() else tab


_ZERO = _wrap({}, 1)


class _Factors(dict):
    """The rendered factors of one _walk by code, each rendered on first use."""

    def __init__(self, ids: list[int], fmt):
        self.ids, self.fmt = ids, fmt

    def __missing__(self, code: int):
        out = self[code] = self.fmt(_VARS[self.ids[code >> _W]], code & _MASK)
        return out


def _var_text(v: FieldVar, e: int) -> str:
    return str(v) if e == 1 else f"{v}^{e}"


def _var_latex(v: FieldVar, e: int) -> str:
    if v.kind in ("b", "c"):
        core = f"{v.kind}_{{{v.index}}}" + "'" * v.dorder
    else:
        core = rf"\mathrm{{{v.kind}}}" + "'" * v.dorder
    return core if e == 1 else f"{{{core}}}^{{{e}}}"


def _var_json(v: FieldVar, e: int) -> dict:
    return {"kind": v.kind, "index": v.index, "dorder": v.dorder, "exp": e}


def _ratio_text(n: int, d: int) -> str:
    return str(n) if d == 1 else f"{n}/{d}"


def _ratio_latex(n: int, d: int) -> str:
    return str(n) if d == 1 else rf"\frac{{{n}}}{{{d}}}"


def equal_mod_total_derivative(p: DiffPoly, q: DiffPoly) -> bool:
    """True iff p - q has vanishing Euler derivatives for every generator."""
    d = p - q
    return all(d.euler(u).is_zero() for u in d.generators() if not u.is_constant_symbol())


def _euler_chain(p: DiffPoly, u: FieldVar) -> list[DiffPoly]:
    """[Q_{M-1}, ..., Q_0, Q_{-1}] for u's top order M in p: Q_{M-1} = P_M and
    Q_{l-1} = P_l - d Q_l, P_l the partial by u^(l), so Q_{-1} is E_u(p)."""
    kind, index, _ = u
    top = max((v.dorder for v in map(_VARS.__getitem__, p._ids()) if v.kind == kind and v.index == index), default=0)
    chain = [p.partial(FieldVar(kind, index, top))]
    for order in range(top - 1, -1, -1):
        part, q = p.partial(FieldVar(kind, index, order)), chain[-1]
        # A zero is never derived, so the shared _ZERO keeps no derivative.
        chain.append(part - q.derive() if q.num else part)
    return chain


def formal_integrate(p: DiffPoly) -> DiffPoly:
    """Antiderivative q with dq = p and zero constant term: by the homotopy
    operator, sum_u sum_l u^(l) Q_l over each field's _euler_chain with each
    monomial divided by its degree in the fields (constant symbols do not scale)."""
    def degree(mono: int) -> int:
        return sum(e for i, e in _fields(mono) if not _VARS[i].is_constant_symbol())

    triples = []
    for u in p.generators():
        if not u.is_constant_symbol():
            *chain, eu = _euler_chain(p, u)
            if eu.num:
                raise NotATotalDerivative(f"euler derivative with respect to {u} does not vanish")
            triples += ((1, DiffPoly.from_var(u.derived(l)), q) for l, q in enumerate(reversed(chain)))
    if free := [m for m in p.num if not degree(m)]:  # the formula needs p to vanish with the fields
        if not (mono := max(free, key=_peel_key)):
            raise NotATotalDerivative("nonzero constant term has no antiderivative")
        term = "*".join(_var_text(v, e) for v, e in _to_public(mono))
        raise NotATotalDerivative(f"term {term} cannot be integrated")
    f = DiffPoly.dot(triples)
    return _summed([(m, c, f.den * degree(m)) for m, c in f.num.items()])


def _order_key(i: int):
    v = _VARS[i]
    return (v.dorder, v.kind, v.index)


def _peel_key(mono: int):
    # Sorted-descending sequence of generator keys, exponent-expanded: a peel's
    # order, so formal_integrate names the field-free term a peel stops at.
    return sorted((_order_key(i) for i, e in _fields(mono) for _ in range(e)), reverse=True)


# -- text grammar --------------------------------------------------------------
#
#   rational := ['-'] digits ['/' digits]   (digits are ASCII 0-9)
#   fieldvar := ('b'|'c') index {'\''}      (each apostrophe = one derivative)
#   monomial := fieldvar ['^' exp] {'*' fieldvar ['^' exp]}
#   term     := rational ['*' monomial] | monomial
#   poly     := ['-'] term {('+'|'-') term}
#
# Extra symbols (CLI substitution files) follow the fieldvar syntax with a
# general identifier in place of ('b'|'c') index.  Factors must be joined by
# '*': juxtaposition such as "2 3 b1" or "b1 c1" is an error.  A JSON
# coefficient is a rational as a string, or a JSON integer.

# Patterns, not compiled objects: re compiles each on first use and caches it,
# so importing this module compiles no regex.  Text and JSON share _NUMBER.
_NUMBER = r"[0-9]+(?:/[0-9]+)?"
_TOKEN = rf"\s*(?:(?P<num>{_NUMBER})|(?P<var>[A-Za-z][A-Za-z0-9]*'*)|(?P<op>[-+*^]))"
_STDVAR = r"^([bc])([1-9][0-9]*)('*)$"
_EXTVAR = r"^([A-Za-z][A-Za-z0-9]*?)('*)$"


def _number(text: str) -> tuple[int, int]:
    """(n, d) of ['-'] digits ['/' digits], else PolyParseError.  A number
    token never starts with '-' (in text that is a sign), a JSON string may."""
    if not re.fullmatch("-?" + _NUMBER, text):
        raise PolyParseError(f"bad coefficient {text!r}")
    n, _, d = text.partition("/")
    if d and not d.strip("0"):
        raise PolyParseError(f"zero denominator in {text!r}")
    return _int(n), _int(d or "1")


def _int(digits: str) -> int:
    """int(digits); past the int-string limit, a PolyParseError that counts the digits."""
    try:
        return int(digits)
    except ValueError:
        raise PolyParseError(f"a number of {len(digits.lstrip('-'))} digits is past the int-string limit") from None


def _shown(x) -> str:
    """repr(x), but an int past 1000 bits, which the int-string limit may refuse, by its size."""
    if isinstance(x, int) and x.bit_length() > 1000:
        return f"<{'a negative' if x < 0 else 'an'} integer of {x.bit_length()} bits>"
    return repr(x)


def _checked_var(kind, index, dorder) -> FieldVar:
    """The generator (kind, index, dorder) if some text names it, else PolyParseError."""
    if not (isinstance(kind, str) and kind.isascii() and kind.isalnum() and kind[:1].isalpha()):
        raise PolyParseError(f"bad field kind {kind!r}")
    for name, value in (("index", index), ("dorder", dorder)):
        if type(value) is not int or value < 0:
            raise PolyParseError(f"{name} must be an integer >= 0, got {_shown(value)}")
    if dorder > sys.maxsize:  # past this, "'" * dorder raises OverflowError
        raise PolyParseError(f"dorder {_shown(dorder)} is past sys.maxsize: no text holds that many apostrophes")
    try:
        str(index)
    except ValueError:
        raise PolyParseError(f"index {_shown(index)} is past the int-string limit") from None
    standard = kind in ("b", "c")
    if (standard and index < 1) or (kind[0] in "bc" and kind[1:].isdigit()):
        raise PolyParseError(f"standard field {kind!r} needs an index >= 1")
    if index and not standard:
        raise PolyParseError(f"extension kind {kind!r} takes no index, got {index}")
    v = FieldVar(kind, index, dorder)
    if v.is_constant_symbol() and v.dorder:
        raise PolyParseError(f"constant symbol {kind!r} cannot carry derivatives")
    return v


def _checked_exp(exp) -> int:
    if type(exp) is not int or exp < 1:
        raise PolyParseError(f"exponent must be an integer >= 1, got {_shown(exp)}")
    if exp >= EXP_LIMIT:
        raise PolyParseError(f"exponent {_shown(exp)} is not below the limit {EXP_LIMIT}")
    return exp


def parse_fieldvar(token: str) -> FieldVar:
    m = re.match(_STDVAR, token)
    if m:
        return _checked_var(m.group(1), _int(m.group(2)), len(m.group(3)))
    m = re.match(_EXTVAR, token)
    if m:
        return _checked_var(m.group(1), 0, len(m.group(2)))
    raise PolyParseError(f"bad field variable {token!r}")


def parse_poly(text: str) -> DiffPoly:
    """Parse the canonical text grammar back into a DiffPoly: each term
    becomes one (packed monomial, n, d) item, and the items are summed once."""
    tokens = _tokenize(text)
    items = []
    sign, signed = 1, False  # the sign of the next term, and whether one was written
    factors = None  # the open term's (FieldVar, exp) factors; None between terms
    pos = 0
    while pos < len(tokens):
        kind, value = tokens[pos]
        pos += 1
        if kind == "op" and value in "+-" and (factors is None or not expect_factor):
            if factors is not None:  # the sign ends the open term
                items.append((_pack(factors), n, d))
                factors = None
            elif signed:
                raise PolyParseError("two consecutive signs")
            sign, signed = (1 if value == "+" else -1), True
            continue
        if factors is None:
            n, d, factors, expect_factor = sign, 1, [], True
        if kind in ("num", "var") and not expect_factor:
            raise PolyParseError(f"missing '*' before {value!r}")
        elif kind == "num":
            a, b = _number(value)
            n, d = n * a, d * b
        elif kind == "var":
            v, exp = parse_fieldvar(value), 1
            if pos + 1 < len(tokens) and tokens[pos] == ("op", "^"):
                if tokens[pos + 1][0] != "num" or "/" in tokens[pos + 1][1]:
                    raise PolyParseError("exponent must be an integer")
                exp = _checked_exp(_int(tokens[pos + 1][1]))
                pos += 2
            factors.append((v, exp))
        elif kind == "op" and value == "*":
            if expect_factor:
                raise PolyParseError("misplaced '*'")
        else:
            raise PolyParseError(f"unexpected token {value!r}")
        expect_factor = kind == "op"  # a factor follows '*' and no other token
    if factors is None:
        raise PolyParseError("dangling sign" if items else "empty polynomial text")
    if expect_factor:
        raise PolyParseError("dangling '*'")
    items.append((_pack(factors), n, d))
    return _summed(items)


def _tokenize(text: str):
    tokens = []
    pos = 0
    match = re.compile(_TOKEN).match
    while pos < len(text):
        m = match(text, pos)
        if m is None:
            if text[pos:].strip():
                raise PolyParseError(f"cannot tokenize {text[pos:]!r}")
            break
        tokens.append((m.lastgroup, m[m.lastgroup]))
        pos = m.end()
    return tokens
