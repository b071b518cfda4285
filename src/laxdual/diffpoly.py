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
from ints; Fraction appears only in constructors, `scale`, `constant_term`,
`terms` and parsing.  Nothing in this module touches a float.

Exponents stay below EXP_LIMIT = 2^15.  Two such fields sum to less than 2^16,
so no product carries into the next field, and a sum that reaches 2^15 sets the
field's top (guard) bit.  Products, derivations and integration steps check
the guard bits of their result keys and raise ValueError; parsing, JSON and
the constructor reject larger exponents with PolyParseError.

Sums of products go through DiffPoly.dot: sum w*p*q over (w, p, q) triples
with small integer weights.  Every product lands in a single {monomial: int}
table over the common denominator of the pairs, with no Fraction in the loop;
the table is then filtered for zeros, checked by the same overflow guard
(cancelled products included) and brought to lowest terms once.  The
convolutions of fnr and loopalg use it in place of chains of * and +.

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
import threading
from fractions import Fraction
from functools import reduce
from math import gcd, lcm
from operator import or_
from typing import Dict, Iterable, List, Mapping, NamedTuple, Optional, Tuple


class NotATotalDerivative(Exception):
    """Raised by formal_integrate when the argument has no antiderivative."""


class PolyParseError(ValueError):
    pass


class FieldVar(NamedTuple):
    """A single generator: field kind, field index, derivative order."""

    kind: str
    index: int
    dorder: int = 0

    def derived(self, times: int = 1) -> "FieldVar":
        return FieldVar(self.kind, self.index, self.dorder + times)

    def base(self) -> "FieldVar":
        return FieldVar(self.kind, self.index, 0)

    def is_constant_symbol(self) -> bool:
        # Letters-only kinds other than b/c are constants for the derivation.
        return self.kind not in ("b", "c") and self.kind.isalpha()

    def __str__(self) -> str:
        return f"{self.kind}{self.index if self.kind in ('b', 'c') else ''}" + "'" * self.dorder


Monomial = Tuple[Tuple[FieldVar, int], ...]
Terms = Dict[Monomial, Fraction]

_W = 16  # bits per exponent field
_MASK = (1 << _W) - 1
EXP_LIMIT = 1 << (_W - 1)  # exponents stay below this; the top bit is the guard

# Interned generators: one table per process, growing with the number of
# distinct generators ever named, not with the size of any polynomial.

_VARS: List[FieldVar] = []
_VAR_ID: Dict[FieldVar, int] = {}
_DERIV: Dict[int, int] = {}  # id -> key change of v^e -> v^(e-1)*v', 0 for constant symbols
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
                _VARS.append(FieldVar(*v))
                _GUARDS |= EXP_LIMIT << (_W * i)
                _VAR_ID[v] = i  # published last: a reader that sees i sees the rest
    return i


def _fields(m: int) -> List[Tuple[int, int]]:
    """The (id, exp) pairs of a packed monomial, highest id first."""
    out = []
    while m:
        s = (m.bit_length() - 1) // _W * _W
        e = m >> s
        out.append((s // _W, e))
        m -= e << s
    return out


def _pack(mono: Monomial) -> int:
    exps: Dict[int, int] = {}
    for v, e in mono:
        i = _vid(v)
        exps[i] = exps.get(i, 0) + _checked_exp(e)
    return sum(_checked_exp(e) << (_W * i) for i, e in exps.items())


def _to_public(m: int) -> Monomial:
    return tuple(sorted((_VARS[i], e) for i, e in _fields(m)))


def _guarded(tab: Dict[int, int]) -> Dict[int, int]:
    """tab, unless some exponent in its keys reached EXP_LIMIT."""
    if reduce(or_, tab, 0) & _GUARDS:
        raise ValueError(f"exponent overflow: a generator's exponent reached the limit {EXP_LIMIT}")
    return tab


class DiffPoly:
    """Immutable sparse differential polynomial: integer numerators over one
    common denominator, in the canonical form described in the module doc."""

    __slots__ = ("num", "den")

    def __init__(self, terms: Optional[Mapping[Monomial, Fraction]] = None):
        fracs: Dict[int, Fraction] = {}
        for mono, coeff in (terms or {}).items():
            key = _pack(mono)
            fracs[key] = fracs.get(key, 0) + Fraction(coeff)
        den = lcm(*(c.denominator for c in fracs.values()))
        self.num = {m: c.numerator * (den // c.denominator) for m, c in fracs.items() if c}
        self.den = den

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero() -> "DiffPoly":
        return _ZERO

    @staticmethod
    def const(value) -> "DiffPoly":
        c = Fraction(value)
        return _wrap({0: c.numerator}, c.denominator) if c else _ZERO

    @staticmethod
    def var(kind: str, index: int, dorder: int = 0) -> "DiffPoly":
        return DiffPoly.from_var(FieldVar(kind, index, dorder))

    @staticmethod
    def from_var(v: FieldVar) -> "DiffPoly":
        return _wrap({1 << (_W * _vid(v)): 1}, 1)

    # -- basic queries -----------------------------------------------------

    @property
    def terms(self) -> Terms:
        """A fresh {Monomial: Fraction} table in the public (FieldVar, exp) form."""
        den = self.den
        return {_to_public(m): Fraction(c, den) for m, c in self.num.items()}

    def is_zero(self) -> bool:
        return not self.num

    def constant_term(self) -> Fraction:
        return Fraction(self.num.get(0, 0), self.den)

    def _ids(self) -> List[int]:
        # A field of the OR of all keys is nonzero iff its id occurs somewhere.
        return [i for i, _ in _fields(reduce(or_, self.num, 0))]

    def variables(self) -> List[FieldVar]:
        """All generators occurring, sorted by the canonical ordering."""
        return sorted(_VARS[i] for i in self._ids())

    def generators(self) -> List[FieldVar]:
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
        tab: Dict[int, int] = {}
        get = tab.get
        items2 = list(other.num.items())
        for m1, c1 in self.num.items():
            for m2, c2 in items2:
                m = m1 + m2
                tab[m] = get(m, 0) + c1 * c2
        return _reduced(_nonzero(_guarded(tab)), self.den * other.den)

    @staticmethod
    def dot(terms: Iterable[Tuple[int, "DiffPoly", "DiffPoly"]]) -> "DiffPoly":
        """sum of w*p*q over the (w, p, q) triples, w a small integer weight.

        Every product goes into one {monomial: int} table over the common
        denominator of the pairs, which is then guarded and reduced once."""
        pairs = [(w, p.num, q.num, p.den * q.den) for w, p, q in terms if w and p.num and q.num]
        if not pairs:
            return _ZERO
        den = lcm(*(d for *_, d in pairs))
        tab: Dict[int, int] = {}
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

    def scale(self, s) -> "DiffPoly":
        s = Fraction(s)
        if not s or not self.num:
            return _ZERO
        n = s.numerator
        return _reduced({m: c * n for m, c in self.num.items()}, self.den * s.denominator)

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
        """Distinguished derivation, applied `times` times (Leibniz rule)."""
        p = self
        for _ in range(times):
            tab: Dict[int, int] = {}
            get = tab.get
            for m, c in p.num.items():
                for i, e in _fields(m):
                    step = _DERIV.get(i)
                    if step is None:
                        v = _VARS[i]
                        step = 0 if v.is_constant_symbol() else (1 << (_W * _vid(v.derived()))) - (1 << (_W * i))
                        _DERIV[i] = step
                    if step:
                        # d(v^e * rest) -> e * v^(e-1) * v' * rest
                        key = m + step
                        tab[key] = get(key, 0) + c * e
            p = _reduced(_nonzero(_guarded(tab)), p.den)
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
        """Replace dorder-0 generators by polynomials.

        An occurrence at derivative order l is replaced by the l-th derivative
        of the rule, so substitution commutes with the derivation.  Generators
        without a rule are untouched.
        """
        base_rules: Dict[Tuple[str, int], DiffPoly] = {}
        for v, rhs in rules.items():
            if v.dorder != 0:
                raise ValueError(f"substitution rules must target dorder-0 generators, got {v}")
            base_rules[(v.kind, v.index)] = rhs
        if not base_rules:
            return self
        rule_of: Dict[int, Optional[DiffPoly]] = {}

        def rule_at(i: int) -> Optional[DiffPoly]:
            if i not in rule_of:
                v = _VARS[i]
                rhs = base_rules.get((v.kind, v.index))
                rule_of[i] = rhs if rhs is None or not v.dorder else rule_at(_vid(v.derived(-1))).derive()
            return rule_of[i]

        result = _ZERO
        for m, c in self.num.items():
            ruled = [(rule, i, e) for i, e in _fields(m) if (rule := rule_at(i)) is not None]
            term = _wrap({m - sum(e << (_W * i) for _, i, e in ruled): c}, 1)
            for rule, _, e in reversed(ruled):
                for _ in range(e):
                    term = term * rule
            result = result + term
        return _reduced(result.num, result.den * self.den)

    def euler(self, target: FieldVar) -> "DiffPoly":
        """Variational derivative: sum_l (-d)^l of d(self)/d(target^(l))."""
        if target.dorder != 0:
            raise ValueError("euler target must be a dorder-0 generator")
        out = _ZERO
        for order in range(self.max_dorder() + 1):
            part = self.partial(FieldVar(target.kind, target.index, order))
            if not part.is_zero():
                part = part.derive(order)
                out = out - part if order % 2 else out + part
        return out

    # -- output --------------------------------------------------------------

    def _walk(self, fmt):
        """Each term as (factors, n, d) in the public monomial order: the
        factors rendered by fmt(FieldVar, exp), each distinct one once, and
        the coefficient n/d in lowest terms, d >= 1."""
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
            yield list(map(factor, codes)), c // g, den // g

    def to_text(self) -> str:
        return self._render(_var_text, _ratio_text, "*")

    def to_latex(self) -> str:
        return self._render(_var_latex, _ratio_latex, " ")

    def _render(self, fmt, mag_of, sep: str) -> str:
        pieces: List[str] = []
        for factors, n, d in self._walk(fmt):
            a = abs(n)
            if not factors:
                frag = mag_of(a, d)
            elif a == d == 1:
                frag = sep.join(factors)
            else:
                frag = f"{mag_of(a, d)}{sep}{sep.join(factors)}"
            if not pieces:
                pieces.append(frag if n > 0 else f"-{frag}")
            else:
                pieces.append(("+ " if n > 0 else "- ") + frag)
        return " ".join(pieces) or "0"

    def to_json(self) -> List[dict]:
        return [
            {"coeff": _ratio_text(n, d), "vars": list(map(dict, factors))}
            for factors, n, d in self._walk(_var_json)
        ]

    @staticmethod
    def from_json(data: Iterable[dict]) -> "DiffPoly":
        """Inverse of to_json; raises PolyParseError on any malformed payload."""
        tab: Terms = {}
        try:
            for term in data:
                mono = tuple(
                    (_checked_var(v["kind"], v["index"], v["dorder"]), _checked_exp(v["exp"]))
                    for v in term["vars"]
                )
                coeff = term["coeff"]
                if type(coeff) not in (str, int):
                    raise PolyParseError(f"coefficient must be a string or an integer, got {coeff!r}")
                tab[mono] = tab.get(mono, 0) + Fraction(coeff)
        except PolyParseError:
            raise
        except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
            raise PolyParseError(f"malformed polynomial JSON: {type(exc).__name__}: {exc}") from exc
        return DiffPoly(tab)


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


def _wrap(num: Dict[int, int], den: int) -> DiffPoly:
    """A DiffPoly over a table already in canonical form."""
    p = object.__new__(DiffPoly)
    p.num = num
    p.den = den
    return p


def _reduced(num: Dict[int, int], den: int) -> DiffPoly:
    """A DiffPoly over a table with no zero numerators, brought to lowest terms."""
    if den != 1:
        g = gcd(den, *num.values())
        if g != 1:
            den //= g
            num = {m: c // g for m, c in num.items()}
    return _wrap(num, den)


def _nonzero(tab: Dict[int, int]) -> Dict[int, int]:
    # Cancellation is rare: scanning for a zero is cheaper than rebuilding.
    return {m: c for m, c in tab.items() if c} if 0 in tab.values() else tab


_ZERO = _wrap({}, 1)


class _Factors(dict):
    """The rendered factors of one _walk by code, each rendered on first use."""

    def __init__(self, ids: List[int], fmt):
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


def formal_integrate(p: DiffPoly) -> DiffPoly:
    """Antiderivative q with dq = p and zero constant term.

    Works by peeling the leading monomial: the generator of highest derivative
    order in the lexicographically largest term of an exact p always occurs
    linearly, and lowering it by one order reconstructs one term of q.  The
    Euler-operator precondition guarantees termination.
    """
    for u in p.generators():
        if not u.is_constant_symbol() and not p.euler(u).is_zero():
            raise NotATotalDerivative(f"euler derivative with respect to {u} does not vanish")
    rem = p
    result = _ZERO
    while not rem.is_zero():
        mono = max(rem.num, key=_peel_key)
        if not mono:
            raise NotATotalDerivative("nonzero constant term has no antiderivative")
        top, e = max(_fields(mono), key=lambda f: _order_key(f[0]))
        v = _VARS[top]
        if v.dorder == 0 or v.is_constant_symbol():
            term = "*".join(_var_text(v, e) for v, e in _to_public(mono))
            raise NotATotalDerivative(f"term {term} cannot be integrated")
        if e != 1:
            raise NotATotalDerivative(f"leading derivative {v} occurs nonlinearly")
        low = _vid(v.derived(-1))
        key = mono - (1 << (_W * top)) + (1 << (_W * low))
        piece = _reduced(_guarded({key: rem.num[mono]}), rem.den * ((key >> (_W * low)) & _MASK))
        result = result + piece
        rem = rem - piece.derive()
    return result


def _order_key(i: int):
    v = _VARS[i]
    return (v.dorder, v.kind, v.index)


def _peel_key(mono: int):
    # Sorted-descending sequence of generator keys, exponent-expanded: the
    # derivation maps the maximal monomial of q to the maximal monomial of dq.
    return sorted((_order_key(i) for i, e in _fields(mono) for _ in range(e)), reverse=True)


# -- text grammar --------------------------------------------------------------
#
#   rational := ['-'] digits ['/' digits]
#   fieldvar := ('b'|'c') index {'\''}      (each apostrophe = one derivative)
#   monomial := fieldvar ['^' exp] {'*' fieldvar ['^' exp]}
#   term     := rational ['*' monomial] | monomial
#   poly     := ['-'] term {('+'|'-') term}
#
# Extra symbols (CLI substitution files) follow the fieldvar syntax with a
# general identifier in place of ('b'|'c') index.  Factors must be joined by
# '*': juxtaposition such as "2 3 b1" or "b1 c1" is an error.

_TOKEN = re.compile(r"\s*(?:(?P<num>\d+(?:/\d+)?)|(?P<var>[A-Za-z][A-Za-z0-9]*'*)|(?P<op>[-+*^]))")
_STDVAR = re.compile(r"^([bc])([1-9][0-9]*)('*)$")
_EXTVAR = re.compile(r"^([A-Za-z][A-Za-z0-9]*?)('*)$")


def _checked_var(kind, index, dorder) -> FieldVar:
    """The generator (kind, index, dorder) if some text names it, else PolyParseError."""
    if not (isinstance(kind, str) and kind.isascii() and kind.isalnum() and kind[:1].isalpha()):
        raise PolyParseError(f"bad field kind {kind!r}")
    for name, value in (("index", index), ("dorder", dorder)):
        if type(value) is not int or value < 0:
            raise PolyParseError(f"{name} must be an integer >= 0, got {value!r}")
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
        raise PolyParseError(f"exponent must be an integer >= 1, got {exp!r}")
    if exp >= EXP_LIMIT:
        raise PolyParseError(f"exponent {exp} is not below the limit {EXP_LIMIT}")
    return exp


def parse_fieldvar(token: str) -> FieldVar:
    m = _STDVAR.match(token)
    if m:
        return _checked_var(m.group(1), int(m.group(2)), len(m.group(3)))
    m = _EXTVAR.match(token)
    if m:
        return _checked_var(m.group(1), 0, len(m.group(2)))
    raise PolyParseError(f"bad field variable {token!r}")


def parse_poly(text: str) -> DiffPoly:
    """Parse the canonical text grammar back into a DiffPoly."""
    tokens = _tokenize(text)
    pos = 0
    total = _ZERO
    sign = 1
    first = True
    pending_sign = False
    while pos < len(tokens):
        kind, value = tokens[pos]
        if kind == "op" and value in "+-":
            if pending_sign:
                raise PolyParseError("two consecutive signs")
            sign = sign if value == "+" else -sign
            pending_sign = True
            pos += 1
            continue
        term, pos = _parse_term(tokens, pos)
        total = total + (term if sign > 0 else -term)
        sign = 1
        pending_sign = False
        first = False
    if first or pending_sign:
        raise PolyParseError("empty polynomial text" if first else "dangling sign")
    return total


def _tokenize(text: str):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if m is None:
            if text[pos:].strip():
                raise PolyParseError(f"cannot tokenize {text[pos:]!r}")
            break
        if m.group("num"):
            tokens.append(("num", m.group("num")))
        elif m.group("var"):
            tokens.append(("var", m.group("var")))
        else:
            tokens.append(("op", m.group("op")))
        pos = m.end()
    return tokens


def _parse_term(tokens, pos):
    coeff = Fraction(1)
    factors: Dict[FieldVar, int] = {}
    expect_factor = True
    while pos < len(tokens):
        kind, value = tokens[pos]
        if kind == "op" and value in "+-" and not expect_factor:
            break
        if kind in ("num", "var") and not expect_factor:
            raise PolyParseError(f"missing '*' before {value!r}")
        if kind == "num":
            coeff *= Fraction(value)
            pos += 1
        elif kind == "var":
            v = parse_fieldvar(value)
            exp = 1
            pos += 1
            if pos + 1 < len(tokens) and tokens[pos] == ("op", "^"):
                if tokens[pos + 1][0] != "num" or "/" in tokens[pos + 1][1]:
                    raise PolyParseError("exponent must be an integer")
                exp = _checked_exp(int(tokens[pos + 1][1]))
                pos += 2
            factors[v] = factors.get(v, 0) + exp
        elif kind == "op" and value == "*":
            if expect_factor:
                raise PolyParseError("misplaced '*'")
            pos += 1
            expect_factor = True
            continue
        else:
            raise PolyParseError(f"unexpected token {value!r}")
        expect_factor = False
    if expect_factor:
        raise PolyParseError("dangling '*'")
    return DiffPoly({tuple(factors.items()): coeff}), pos
