"""Exact differential polynomial ring in the fields b_i, c_i.

Elements are polynomials over Q in the generators b_1, c_1, b_2, c_2, ... and
their derivatives of arbitrary order with respect to one distinguished
variable.  The public forms are

  FieldVar  = (kind, index, dorder)       one generator, e.g. b_1'' = ('b', 1, 2)
  Monomial  = tuple of (FieldVar, exp)    sorted by FieldVar, exponents >= 1

Inside, each FieldVar is interned to a small int id (a process-wide table that
also caches the id of its derivative), a monomial is the sorted tuple of its
ids with exponents written out (b1^2*c1 -> (i_b1, i_b1, i_c1)), and a DiffPoly
is `num: {id monomial: int}` over one `den: int`.  The form is canonical:
den >= 1, no zero numerators and gcd(den, *num) == 1, so two polynomials are
equal iff their (num, den) are.  Ids follow first use and never show: the
`terms` view, text and JSON sort by the public FieldVar order.  Arithmetic and
calculus run on ints; fractions.Fraction appears only at the boundaries
(constructors, `scale`, `constant_term`, `terms`, text/JSON I/O, parsing).
Nothing in this module ever touches a float.

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
from fractions import Fraction
from itertools import count
from math import gcd, lcm
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
IdMono = Tuple[int, ...]

# Interned generators: one table per process, growing with the number of
# distinct generators ever named, not with the size of any polynomial.

_VARS: Dict[int, FieldVar] = {}
_VAR_ID: Dict[FieldVar, int] = {}
_DERIV: Dict[int, int] = {}  # derivative's id, -1 for constant symbols
_NEXT_ID = count()


def _vid(v: FieldVar) -> int:
    i = _VAR_ID.get(v)
    if i is None:
        i = next(_NEXT_ID)
        _VARS[i] = FieldVar(*v)
        # Atomic, so threads interning v at once agree on one id.
        i = _VAR_ID.setdefault(v, i)
    return i


def _to_ids(mono: Monomial) -> IdMono:
    ids: List[int] = []
    for v, e in mono:
        if e < 1:
            raise ValueError("monomial exponents must be >= 1")
        ids += [_vid(v)] * e
    ids.sort()
    return tuple(ids)


def _to_public(m: IdMono) -> Monomial:
    return tuple(sorted((_VARS[i], m.count(i)) for i in set(m)))


class DiffPoly:
    """Immutable sparse differential polynomial: integer numerators over one
    common denominator, in the canonical form described in the module doc."""

    __slots__ = ("num", "den")

    def __init__(self, terms: Optional[Mapping[Monomial, Fraction]] = None):
        fracs: Dict[IdMono, Fraction] = {}
        for mono, coeff in (terms or {}).items():
            key = _to_ids(mono)
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
        return _wrap({(): c.numerator}, c.denominator) if c else _ZERO

    @staticmethod
    def var(kind: str, index: int, dorder: int = 0) -> "DiffPoly":
        return DiffPoly.from_var(FieldVar(kind, index, dorder))

    @staticmethod
    def from_var(v: FieldVar) -> "DiffPoly":
        return _wrap({(_vid(v),): 1}, 1)

    # -- basic queries -----------------------------------------------------

    @property
    def terms(self) -> Terms:
        """A fresh {Monomial: Fraction} table in the public (FieldVar, exp) form."""
        den = self.den
        return {_to_public(m): Fraction(c, den) for m, c in self.num.items()}

    def is_zero(self) -> bool:
        return not self.num

    def constant_term(self) -> Fraction:
        return Fraction(self.num.get((), 0), self.den)

    def _ids(self):
        return {i for m in self.num for i in m}

    def variables(self) -> List[FieldVar]:
        """All generators occurring, sorted by the canonical ordering."""
        return sorted(_VARS[i] for i in self._ids())

    def generators(self) -> List[FieldVar]:
        """Distinct (kind, index) pairs occurring, as dorder-0 FieldVars."""
        return sorted({_VARS[i].base() for i in self._ids()})

    def max_dorder(self) -> int:
        return max((_VARS[i].dorder for i in self._ids()), default=0)

    def total_degree(self) -> int:
        return max(map(len, self.num), default=0)

    # -- ring arithmetic ----------------------------------------------------

    def __add__(self, other: "DiffPoly") -> "DiffPoly":
        if not other.num:
            return self
        if not self.num:
            return other
        da, db = self.den, other.den
        if da == db:
            tab, fb = dict(self.num), 1
        else:
            den = lcm(da, db)
            fa, fb = den // da, den // db
            tab, da = {m: c * fa for m, c in self.num.items()}, den
        get = tab.get
        for m, c in other.num.items():
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

    def __neg__(self) -> "DiffPoly":
        return _wrap({m: -c for m, c in self.num.items()}, self.den)

    def __sub__(self, other: "DiffPoly") -> "DiffPoly":
        return self + (-other)

    def __mul__(self, other: "DiffPoly") -> "DiffPoly":
        if not self.num or not other.num:
            return _ZERO
        tab: Dict[IdMono, int] = {}
        get = tab.get
        items2 = list(other.num.items())
        for m1, c1 in self.num.items():
            for m2, c2 in items2:
                m = tuple(sorted(m1 + m2))
                tab[m] = get(m, 0) + c1 * c2
        return _reduced(_nonzero(tab), self.den * other.den)

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
            tab: Dict[IdMono, int] = {}
            get = tab.get
            for m, c in p.num.items():
                prev = -1
                for k, i in enumerate(m):
                    if i == prev:
                        continue
                    prev = i
                    d = _DERIV.get(i)
                    if d is None:
                        v = _VARS[i]
                        d = _DERIV[i] = -1 if v.is_constant_symbol() else _vid(v.derived())
                    if d < 0:
                        continue
                    # d(v^e * rest) -> e * v^(e-1) * v' * rest
                    key = tuple(sorted(m[:k] + m[k + 1:] + (d,)))
                    tab[key] = get(key, 0) + c * m.count(i)
            p = _reduced(_nonzero(tab), p.den)
        return p

    def partial(self, v: FieldVar) -> "DiffPoly":
        """Plain partial derivative with respect to one generator v."""
        i = _VAR_ID.get(v)
        tab: Dict[IdMono, int] = {}
        for m, c in self.num.items():
            if i in m:
                # Dropping one factor i maps distinct sorted monomials to
                # distinct sorted monomials, so nothing collides.
                k = m.index(i)
                tab[m[:k] + m[k + 1:]] = c * m.count(i)
        return _reduced(tab, self.den)

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
            term = _wrap({tuple(i for i in m if rule_at(i) is None): c}, 1)
            for i in m:
                if rule_at(i) is not None:
                    term = term * rule_at(i)
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

    def sorted_terms(self) -> List[Tuple[Monomial, Fraction]]:
        return sorted(self.terms.items())

    def to_text(self) -> str:
        return self._render(_mono_text, str, "*")

    def to_latex(self) -> str:
        return self._render(_mono_latex, _frac_latex, " ")

    def _render(self, body_of, mag_of, sep: str) -> str:
        if not self.num:
            return "0"
        pieces: List[str] = []
        for mono, coeff in self.sorted_terms():
            body = body_of(mono)
            mag = abs(coeff)
            if body:
                frag = body if mag == 1 else f"{mag_of(mag)}{sep}{body}"
            else:
                frag = mag_of(mag)
            if not pieces:
                pieces.append(frag if coeff > 0 else f"-{frag}")
            else:
                pieces.append(("+ " if coeff > 0 else "- ") + frag)
        return " ".join(pieces)

    def to_json(self) -> List[dict]:
        return [
            {
                "coeff": str(coeff),
                "vars": [
                    {"kind": v.kind, "index": v.index, "dorder": v.dorder, "exp": e}
                    for v, e in mono
                ],
            }
            for mono, coeff in self.sorted_terms()
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


def _wrap(num: Dict[IdMono, int], den: int) -> DiffPoly:
    """A DiffPoly over a table already in canonical form."""
    p = object.__new__(DiffPoly)
    p.num = num
    p.den = den
    return p


def _reduced(num: Dict[IdMono, int], den: int) -> DiffPoly:
    """A DiffPoly over a table with no zero numerators, brought to lowest terms."""
    if den != 1:
        g = gcd(den, *num.values())
        if g != 1:
            den //= g
            num = {m: c // g for m, c in num.items()}
    return _wrap(num, den)


def _nonzero(tab: Dict[IdMono, int]) -> Dict[IdMono, int]:
    # Cancellation is rare: scanning for a zero is cheaper than rebuilding.
    return {m: c for m, c in tab.items() if c} if 0 in tab.values() else tab


_ZERO = _wrap({}, 1)


def _mono_text(mono: Monomial) -> str:
    return "*".join(str(v) if e == 1 else f"{v}^{e}" for v, e in mono)


def _mono_latex(mono: Monomial) -> str:
    return " ".join(_var_latex(v, e) for v, e in mono)


def _var_latex(v: FieldVar, e: int) -> str:
    if v.kind in ("b", "c"):
        core = f"{v.kind}_{{{v.index}}}" + "'" * v.dorder
    else:
        core = rf"\mathrm{{{v.kind}}}" + "'" * v.dorder
    return core if e == 1 else f"{{{core}}}^{{{e}}}"


def _frac_latex(q: Fraction) -> str:
    if q.denominator == 1:
        return str(q.numerator)
    sign = "-" if q < 0 else ""
    return rf"{sign}\frac{{{abs(q.numerator)}}}{{{q.denominator}}}"


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
        top = max(mono, key=_order_key)
        if _VARS[top].dorder == 0 or _VARS[top].is_constant_symbol():
            raise NotATotalDerivative(f"term {_mono_text(_to_public(mono))} cannot be integrated")
        if mono.count(top) != 1:
            raise NotATotalDerivative(f"leading derivative {_VARS[top]} occurs nonlinearly")
        low = _vid(_VARS[top].derived(-1))
        k = mono.index(top)
        key = tuple(sorted(mono[:k] + mono[k + 1:] + (low,)))
        piece = _reduced({key: rem.num[mono]}, rem.den * key.count(low))
        result = result + piece
        rem = rem - piece.derive()
    return result


def _order_key(i: int):
    v = _VARS[i]
    return (v.dorder, v.kind, v.index)


def _peel_key(mono: IdMono):
    # Sorted-descending sequence of generator keys, exponent-expanded: the
    # derivation maps the maximal monomial of q to the maximal monomial of dq.
    return sorted(map(_order_key, mono), reverse=True)


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
