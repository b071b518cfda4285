"""Exact differential polynomial ring in the fields b_i, c_i.

Elements are polynomials over Q in the generators b_1, c_1, b_2, c_2, ... and
their derivatives of arbitrary order with respect to one distinguished
variable.  The public forms are

  FieldVar  = (kind, index, dorder)       one generator, e.g. b_1'' = ('b', 1, 2)
  Monomial  = tuple of (FieldVar, exp)    sorted by FieldVar, exponents >= 1

Inside, each FieldVar is interned to a small int id, and a monomial is one int
packing a 16-bit exponent field per id: b1^2*c1 is 2 << 16*id(b1) | 1 <<
16*id(c1).  A product of monomials is one addition, the derivation adds one
fixed step, and a partial derivative reads one field.  The interning table is
process-wide and is the one owner of what a generator is: it checks each
generator once, when it is interned, and records beside it, under the same
lock, its dorder-0 base and whether it is a constant symbol.  The chain rule
of zerocurv, the generator map and the Euler split read these facts by id.
The derivation's step cache is keyed by field shift (16*id): the key change
of v^e -> e*v^(e-1)*v', filled by the first derivation that meets v, which
interns v' then.  A generator that is already interned is found, and not
checked again, when its parts are exactly a str and two ints; True and 1.0
equal 1, so they go through the check and get its message.

The table also records, by bit length, the decode of a monomial's top field:
its shift, and the mask of every field below it.  Every monomial loop (the
derivation, the Euler split, the generator map, the renderer and _fields)
decodes a field as `s, low = _CUT[x.bit_length()]; e = x >> s; x &= low`.
The 16 bit lengths of one id share one entry, whose mask has 16*id bits, so
n interned generators cost about n^2 bytes of masks (about 4 KB at 64), in a
list of 16n + 1 references.

A DiffPoly is `num: {monomial: int}` over one `den: int`, canonical (den >= 1,
no zero numerators, gcd(den, *num) == 1), so two polynomials are equal iff
their (num, den) are.  Ids never show: `terms`, text, LaTeX and JSON sort by
the public FieldVar order, and render from ints.  Text, LaTeX and JSON share
one sorted decode of the terms, and text and LaTeX build each distinct
numerator's sign and size once per call.  Coefficients come in as int
pairs: the constructor, `const` and `scale` read `numerator`/`denominator` (an
int or a Fraction, never a float), and the parser and `from_json` read `n` or
`n/d` in ASCII digits as two ints.  Only `terms` returns a Fraction; it imports
`fractions` on first use, and the CLI never calls it, so it never loads
`fractions` (nor `decimal` and `numbers` with it).  Nothing in this module
touches a float.

The constructor, the parser and `from_json` each make (packed monomial, n,
d) items, one per term, and `_summed` adds the items in one table over the lcm
of the denominators, reduced once.

Exponents stay below EXP_LIMIT = 2^15.  Two such fields sum to less than 2^16,
so no product carries into the next field, and a sum that reaches 2^15 sets the
field's top (guard) bit.  Products, derivations, Euler steps and
substitutions check the guard bits of their result keys and raise ValueError;
parsing, JSON and the constructor reject larger exponents with PolyParseError.

Sums of products go through DiffPoly.dot: sum w*p*q over (w, p, q) triples
with small integer weights.  Every product lands in a single {monomial: int}
table over the common denominator of the pairs, with no Fraction in the loop;
the table is then filtered for zeros, checked by the same overflow guard
(cancelled products included) and brought to lowest terms once.  The
convolutions of fnr and loopalg use it in place of chains of * and +.  A lone
live triple (1, x, 1), or (1, 1, x), is x itself, with what x keeps.  A
one-term operand (b_j, c_j, a_0 = 1) goes in the outer loop, so its product
is one shifted, scaled copy of the other operand; two multi-term operands are
never swapped.

A DiffPoly keeps its first derivative in the slot _d once derive computes it,
so p.derive(l) walks a chain of kept derivatives, and beside it, in the slot
_partials, each partial derivative by generator id once partial computes it.
DiffPoly is immutable and both caches are keyed by object identity: a kept
result lives exactly as long as its polynomial (the row store of fnr evicts
nothing, so its rows' derivatives and partials stay too), and an equal
polynomial built afresh computes afresh.  A derivation that raises keeps
nothing.  Neither cache takes a lock: two threads that race on one compute
the same canonical polynomial, and either may be the one kept.  The Euler
tables below fill neither.

The Euler operator sum_l (-d)^l P_l, P_l the partial by u^(l), is evaluated in
Horner form P_0 - d(P_1 - d(P_2 - ...)) from u's top order down: one derivation
per order, not l of them for each P_l.  _euler_tables runs it for many fields
from one decode of p, which splits p into its partials by all their
generators at once.  Every P_l and every d Q_l has p's own denominator, so the
steps Q_{l-1} = P_l - d Q_l run on {monomial: int} tables over p.den: d Q_l is
summed straight into P_l by the derivation's decode loop, and each step is
guarded as derive is.  Only the last step, E_u(p) = Q_{-1}, is kept, one
numerator table per field: euler and variational gradients bring it to lowest
terms, and equal_mod_total_derivative only asks whether it is empty.
substitute computes each power rule^e it needs once per call, as a DiffPoly,
and builds no DiffPoly for a monomial's image.  One decode of each monomial
gives its unmapped rest and its powers; each coefficient is scaled once to the
lcm over monomials of their powers' denominator products.  The product then
runs on {monomial: int} tables, from {rest: c} through each power but the last,
and the last power goes straight into the one image table, which is filtered
for zeros and reduced once, as dot does.  Every table a step forms is guarded,
cancelled keys included: each key sums two fields below EXP_LIMIT, which
cannot carry into the next field, while three could.

Besides ring arithmetic the module provides the distinguished derivation
(Leibniz rule, raising dorder), substitution of dorder-0 generators (extended
to derivatives so that substitution commutes with the derivation), the
variational (Euler) derivative, and equality modulo total derivatives.

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
_BASE: list[FieldVar] = []  # id -> its dorder-0 generator
_CONST: list[bool] = []  # id -> whether it is a constant symbol
_DERIV: dict[int, int] = {}  # field shift -> key change of v^e -> v^(e-1)*v', 0 for constant symbols
_GUARDS = 0  # the guard bit of every interned id's field
# Bit length -> (shift of the top field, mask of every field below it): the
# 16 bit lengths of id i's field share one entry.  Index 0 is never read.
_CUT: list[tuple[int, int]] = [(0, 0)]
_INTERN = threading.Lock()


def _vid(v: FieldVar) -> int:
    global _GUARDS
    i = _VAR_ID.get(v)
    # True and 1.0 equal 1 and find a hit too: only an exact one skips the check.
    if i is not None and type(v[0]) is str and type(v[1]) is int and type(v[2]) is int:
        return i
    with _INTERN:
        v = _checked_var(*v)  # a generator no text names is refused here, once
        i = _VAR_ID.get(v)
        if i is None:
            i = len(_VARS)
            _VARS.append(v)
            _BASE.append(v.base())
            _CONST.append(v.is_constant_symbol())
            _GUARDS |= EXP_LIMIT << (_W * i)
            _CUT.extend([(_W * i, (1 << (_W * i)) - 1)] * _W)
            _VAR_ID[v] = i  # published last: a reader that sees i sees the rest
    return i


def _fields(m: int) -> list[tuple[int, int]]:
    """The (id, exp) pairs of a packed monomial, highest id first."""
    out, cut = [], _CUT
    while m:
        s, low = cut[m.bit_length()]
        out.append((s // _W, m >> s))
        m &= low
    return out


def _step(s: int) -> int:
    """Fill _DERIV[s] for the generator at field shift s; v' is interned here."""
    i = s // _W
    step = _DERIV[s] = 0 if _CONST[i] else (1 << (_W * _vid(_VARS[i].derived()))) - (1 << s)
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

    # _d: the first derivative, _partials: {generator id: partial}, once computed
    __slots__ = ("num", "den", "_d", "_partials")

    def __init__(self, terms: Mapping[tuple[tuple[FieldVar, int], ...], Fraction] | None = None):
        p = _summed([(_pack(mono), *_ratio(coeff)) for mono, coeff in (terms or {}).items()])
        self.num, self.den, self._d, self._partials = p.num, p.den, None, None

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

    def _ids(self) -> list[int]:
        # A field of the OR of all keys is nonzero iff its id occurs somewhere.
        return [i for i, _ in _fields(reduce(or_, self.num, 0))]

    def variables(self) -> list[FieldVar]:
        """All generators occurring, sorted by the canonical ordering."""
        return sorted(_VARS[i] for i in self._ids())

    def generators(self) -> list[FieldVar]:
        """Distinct (kind, index) pairs occurring, as dorder-0 FieldVars."""
        return sorted({_BASE[i] for i in self._ids()})

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
        denominator of the pairs, which is then guarded and reduced once.  A
        product with a one-term operand is the other operand shifted and
        scaled.  A lone triple (1, x, 1) or (1, 1, x), 1 the unit, is x itself."""
        live = [(w, p, q) for w, p, q in terms if w and p.num and q.num]
        if not live:
            return _ZERO
        if len(live) == 1:
            w, p, q = live[0]
            if w == 1 and q.den == 1 and q.num == _UNIT:
                return p
            if w == 1 and p.den == 1 and p.num == _UNIT:
                return q
        den = lcm(*(p.den * q.den for _, p, q in live))
        tab: dict[int, int] = {}
        get = tab.get
        for w, p, q in live:
            f = w * (den // (p.den * q.den))
            a, b = p.num, q.num
            if len(b) == 1:  # a one-term operand goes outside: one shifted, scaled copy of the other
                a, b = b, a
            items2 = list(b.items())
            for m1, c1 in a.items():
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
        """Plain partial derivative with respect to one generator v.

        Each partial is computed once and kept on its polynomial."""
        i = _VAR_ID.get(v)
        if i is None:
            return _ZERO
        kept = self._partials
        if kept is None:
            kept = self._partials = {}
        d = kept.get(i)
        if d is None:
            s, one = _W * i, 1 << (_W * i)
            # Lowering one field maps distinct monomials to distinct monomials.
            d = kept[i] = _reduced({m - one: c * e for m, c in self.num.items() if (e := (m >> s) & _MASK)}, self.den)
        return d

    def substitute(self, rules: Mapping[FieldVar, "DiffPoly"]) -> "DiffPoly":
        """Replace dorder-0 generators by polynomials, an occurrence at order l
        by the l-th derivative of the rule, so that substitution commutes with
        the derivation.  Generators without a rule are untouched.  A constant
        symbol, which the derivation kills, may only map to a polynomial that
        the derivation kills too."""
        for v, rhs in rules.items():
            if not (isinstance(v, FieldVar) and isinstance(rhs, DiffPoly)):
                kinds = f"{type(v).__name__} -> {type(rhs).__name__}"
                raise TypeError(f"the substitution rule for {_shown(v)} must map a FieldVar to a DiffPoly, got {kinds}")
            if v.dorder != 0:
                raise ValueError(f"substitution rules must target dorder-0 generators, got {v}")
            if v.is_constant_symbol() and rhs.derive().num:
                raise ValueError(f"the constant symbol {v} cannot map to a polynomial with a nonzero derivative")
        return _mapped(self, rules)

    def euler(self, target: FieldVar) -> "DiffPoly":
        """Variational derivative: sum_l (-d)^l of d(self)/d(target^(l)), in
        Horner form P_0 - d(P_1 - d(P_2 - ...)): _euler_gradient of one field."""
        if target.dorder != 0:
            raise ValueError("euler target must be a dorder-0 generator")
        return _euler_gradient(self, (target,)).get(target, _ZERO)

    # -- output --------------------------------------------------------------

    def _sorted(self, fmt) -> tuple[Callable[[int], object], list[tuple[list[int], int]]]:
        """(factor, terms): each term as (codes, numerator) in the public
        monomial order, and factor(code) rendered by fmt(FieldVar, exp), each
        distinct one once.  This one decode serves text, LaTeX and JSON."""
        ids = sorted(self._ids(), key=_VARS.__getitem__)
        # A factor's code is rank << 16 | exp, rank being its place in ids, so
        # sorted code lists order like the public monomials.
        rank = {_W * i: r << _W for r, i in enumerate(ids)}
        terms, cut = [], _CUT
        for m, c in self.num.items():
            codes, x = [], m
            while x:  # the decode is _fields inlined, as in _add_derivative
                s, low = cut[x.bit_length()]
                codes.append(rank[s] | x >> s)
                x &= low
            codes.sort()
            terms.append((codes, c))
        terms.sort()  # distinct monomials have distinct codes: numerators are never compared
        return _Factors(ids, fmt).__getitem__, terms

    def _size(self, c: int, mag) -> str:
        """mag(|n|, d) of c/den in lowest terms.  A size past the int-string
        limit raises _past_limit()."""
        den = self.den
        g = gcd(c, den)
        try:
            return mag(abs(c) // g, den // g)
        except ValueError:  # only str() of a number past the int-string limit raises here
            raise self._past_limit() from None

    def to_text(self) -> str:
        return self._render(_var_text, _ratio_text, "*")

    def to_latex(self) -> str:
        return self._render(_var_latex, _ratio_latex, " ")

    def _render(self, fmt, mag, sep: str) -> str:
        """The terms joined in the public order, with each distinct numerator's
        sign and size head built once."""
        factor, terms = self._sorted(fmt)
        if not terms:
            return "0"
        out: list[str] = []
        put = out.append
        rest = iter(terms)
        if not terms[0][0]:  # the constant term sorts first, and shows its size even if it is 1
            _, c = next(rest)
            put((" - " if c < 0 else " + ") + self._size(c, mag))
        heads: dict[int, str] = {}
        for codes, c in rest:
            head = heads.get(c)
            if head is None:
                size = self._size(c, mag)
                head = heads[c] = (" - " if c < 0 else " + ") + ("" if size == "1" else size + sep)
            put(head + sep.join(map(factor, codes)))
        first = out[0]
        out[0] = "-" + first[3:] if first[1] == "-" else first[3:]  # the first term's sign, and no '+'
        return "".join(out)

    def to_json(self) -> list[dict]:
        factor, terms = self._sorted(_var_json)
        return [
            {"coeff": "-" * (c < 0) + self._size(c, _ratio_text), "vars": [dict(factor(x)) for x in codes]}
            for codes, c in terms
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
    anything else, a float or a bool included, so that no value is misread."""
    n, d = getattr(x, "numerator", None), getattr(x, "denominator", None)
    if isinstance(x, bool) or not (isinstance(n, int) and isinstance(d, int) and d > 0):
        raise TypeError(f"coefficient must be an int or a Fraction, got {type(x).__name__} {x!r}")
    return n, d


def _derivative(p: DiffPoly) -> DiffPoly:
    """The first derivative of p, computed afresh."""
    return _reduced(_nonzero(_guarded(_add_derivative({}, p.num, 1))), p.den)


def _add_derivative(tab: dict[int, int], num: Mapping[int, int], sign: int) -> dict[int, int]:
    """tab, plus sign times the derivative of the numerators num over the same
    denominator, summed in place.  Cancelled keys stay, with numerator 0."""
    steps, get, cut = _DERIV, tab.get, _CUT
    for m, c in num.items():
        # d(v^e * rest) -> e * v^(e-1) * v' * rest for each factor; the
        # decode is _fields inlined.
        c *= sign
        x = m
        while x:
            s, low = cut[x.bit_length()]
            e = x >> s
            x &= low
            try:
                step = steps[s]
            except KeyError:
                step = _step(s)
            if step:
                key = m + step
                tab[key] = get(key, 0) + c * e
    return tab


def _mapped(
    p: DiffPoly, images: Mapping[FieldVar, DiffPoly], derivation: Callable[[DiffPoly], DiffPoly] | None = None
) -> DiffPoly:
    """p under the ring map sending each dorder-0 generator u to images[u], and
    u^(l) to the l-th derivative of u's image: by the distinguished derivation
    (the image's kept chain), or else by `derivation`, from u itself if it has
    no image.  Other generators are fixed.  p, and a bare generator's image,
    come back as they are, so that their kept derivatives are reused."""
    step = DiffPoly.derive if derivation is None else derivation
    image_of: dict[int, DiffPoly] = {}
    chains: dict[FieldVar, list[DiffPoly]] = {}  # u -> the images of u, u', u'', ...
    for i in p._ids():
        u, order = _BASE[i], _VARS[i].dorder
        rhs = images.get(u)
        if rhs is None and (derivation is None or not order):
            continue
        chain = chains.get(u)
        if chain is None:
            chain = chains[u] = [DiffPoly.from_var(u) if rhs is None else rhs]
        while len(chain) <= order:
            chain.append(step(chain[-1]))
        image_of[i] = chain[order]
    if not image_of:
        return p
    if len(image_of) == 1 and p.den == 1 and p.num == {1 << (_W * min(image_of)): 1}:
        return image_of[min(image_of)]
    # Each monomial's product runs on numerator tables over one common
    # denominator, from {rest: c} through its image powers (each multiplied
    # out once per call), the last straight into the image table.  Every step
    # is guarded, so a key sums two fields below EXP_LIMIT, which cannot
    # carry into the next field; three could.
    powers = {_W * i: [image] for i, image in image_of.items()}  # by field shift: image^1, image^2, ...
    terms, cut = [], _CUT
    for m, c in p.num.items():
        rest, factors, d, x = m, [], 1, m
        while x:  # the decode is _fields inlined, as in _add_derivative
            s, low = cut[x.bit_length()]
            e = x >> s
            x &= low
            if (up := powers.get(s)) is not None:
                while len(up) < e:
                    up.append(up[-1] * up[0])
                rest -= e << s
                factors.append(up[e - 1].num)
                d *= up[e - 1].den
        terms.append((rest, c, d, factors))
    den = lcm(*(d for _, _, d, _ in terms))
    tab: dict[int, int] = {}
    get = tab.get
    for rest, c, d, factors in terms:
        acc = {rest: c * (den // d)}
        *factors, last = factors or (_UNIT,)
        for num in factors:
            prod: dict[int, int] = {}
            put = prod.get
            for m1, c1 in acc.items():
                for m2, c2 in num.items():
                    m = m1 + m2
                    prod[m] = put(m, 0) + c1 * c2
            acc = _guarded(prod)
        for m1, c1 in acc.items():
            for m2, c2 in last.items():
                m = m1 + m2
                tab[m] = get(m, 0) + c1 * c2
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
    p._d = p._partials = None
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
_UNIT = {0: 1}  # the numerators of the constant 1


class _Factors(dict):
    """The rendered factors of one _sorted decode by code, each rendered on first use."""

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
    """True iff p - q is a total derivative: it has no term free of fields (a
    constant, or constant symbols only), and its Euler derivatives by every
    field vanish."""
    d = p - q
    if 0 in d.num:
        return False
    ids = d._ids()
    symbols = sum(_MASK << (_W * i) for i in ids if _CONST[i])  # the exponent fields of d's constant symbols
    if symbols and any(m | symbols == symbols for m in d.num):
        return False
    return not any(_euler_tables(d, (_BASE[i] for i in ids if not _CONST[i])).values())


def _euler_tables(p: DiffPoly, fields: Iterable[FieldVar]) -> dict[FieldVar, dict[int, int]]:
    """{u: E_u(p)} for each dorder-0 field u, as a numerator table over p.den.
    From M, u's top order in p, the Horner steps Q_{M-1} = P_M and Q_{l-1} =
    P_l - d Q_l, P_l the partial by u^(l), end in Q_{-1} = E_u(p); a field's
    partials are dropped as its steps consume them."""
    tables = dict.fromkeys(fields)
    partials: dict[FieldVar, dict[int, dict[int, int]]] = {}  # u -> {order l: P_l}
    split: dict[int, dict[int, int]] = {}  # field shift -> the partial by that generator
    for i in p._ids():
        if (u := _BASE[i]) in tables:
            split[_W * i] = partials.setdefault(u, {})[_VARS[i].dorder] = {}
    get, cut = split.get, _CUT
    for m, c in p.num.items():
        # The decode is _fields inlined, as in _add_derivative; lowering one
        # field maps distinct monomials to distinct monomials.
        x = m
        while x:
            s, low = cut[x.bit_length()]
            e = x >> s
            x &= low
            if (tab := get(s)) is not None:
                tab[m - (1 << s)] = c * e
    for u in tables:
        tabs = partials.pop(u, {})
        q = {}
        for order in range(max(tabs, default=0), -1, -1):
            tab = tabs.pop(order, {})
            q = _nonzero(_guarded(_add_derivative(tab, q, -1))) if q else tab
        tables[u] = q
    return tables


def _euler_gradient(p: DiffPoly, fields: Iterable[FieldVar]) -> dict[FieldVar, DiffPoly]:
    """{u: E_u(p)} for the fields whose Euler derivative is nonzero, in order."""
    return {u: _reduced(q, p.den) for u, q in _euler_tables(p, fields).items() if q}


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
    """The generator (kind, index, dorder) if some text names it, else PolyParseError.
    An interned generator passed this check when it was interned: it returns
    at once on an exact hit, as in _vid."""
    if type(kind) is str and type(index) is int and type(dorder) is int:
        i = _VAR_ID.get((kind, index, dorder))
        if i is not None:
            return _VARS[i]
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
