"""sl(2)-valued Laurent objects in the spectral parameter.

An Sl2Poly is a traceless 2x2 matrix written on the fixed basis
(sigma_+, sigma_-, sigma_3); the matrix itself is never materialized, only the
three DiffPoly components (a, bp, cm) for a*sigma3 + bp*sigma+ + cm*sigma-.

A LaurentMatrix is a finite-support table {lambda-exponent: Sl2Poly} together
with a validity floor: exponents below `floor` are UNKNOWN (a truncated
series), not zero, while missing exponents at or above the floor are exactly
zero.  floor=None means the object is exact (a Laurent polynomial).  Every
operation propagates the floor conservatively and access below it raises
DepthExhausted through the one guard _known -- silent truncation is the main
correctness hazard here.
"""

from __future__ import annotations


from .diffpoly import DiffPoly
from .records import FrozenRecord, Record

_DP_ZERO = DiffPoly.zero()


class DepthExhausted(ValueError):
    """A requested coefficient lies below the known truncation depth."""


def _known(floor: int | None, e: int, what: str) -> None:
    """Raise DepthExhausted unless the coefficient at lambda^e lies at or above floor."""
    if floor is not None and e < floor:
        raise DepthExhausted(f"{what} needs the coefficient at lambda^{e}; the known floor is {floor}")


class Sl2Poly(FrozenRecord):
    """a*sigma3 + bp*sigma+ + cm*sigma- with DiffPoly components."""

    __slots__ = ("a", "bp", "cm")

    def __init__(self, a: DiffPoly = _DP_ZERO, bp: DiffPoly = _DP_ZERO, cm: DiffPoly = _DP_ZERO):
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "bp", bp)
        object.__setattr__(self, "cm", cm)

    def is_zero(self) -> bool:
        return self.a.is_zero() and self.bp.is_zero() and self.cm.is_zero()

    def __add__(self, other: "Sl2Poly") -> "Sl2Poly":
        return Sl2Poly(self.a + other.a, self.bp + other.bp, self.cm + other.cm)

    def __neg__(self) -> "Sl2Poly":
        return Sl2Poly(-self.a, -self.bp, -self.cm)

    def scale(self, s) -> "Sl2Poly":
        return Sl2Poly(self.a.scale(s), self.bp.scale(s), self.cm.scale(s))

    def map(self, f) -> "Sl2Poly":
        return Sl2Poly(f(self.a), f(self.bp), f(self.cm))

    @staticmethod
    def sigma3() -> "Sl2Poly":
        return _SIGMA3


_SL2_ZERO = Sl2Poly()
_SIGMA3 = Sl2Poly(a=DiffPoly.const(1))


def sl2_commutator(x: Sl2Poly, y: Sl2Poly) -> Sl2Poly:
    """[x, y] on the (sigma+, sigma-, sigma3) basis.

    [sigma3, sigma+-] = +-2 sigma+-,  [sigma+, sigma-] = sigma3.
    """
    a, bp, cm = _commutator_terms(x, y)
    return Sl2Poly(DiffPoly.dot(a), DiffPoly.dot(bp), DiffPoly.dot(cm))


def _commutator_terms(x: Sl2Poly, y: Sl2Poly):
    """The (weight, p, q) products of the a, bp and cm components of [x, y]."""
    return (
        ((1, x.bp, y.cm), (-1, x.cm, y.bp)),
        ((2, x.a, y.bp), (-2, y.a, x.bp)),
        ((-2, x.a, y.cm), (2, y.a, x.cm)),
    )


def _trace_terms(x: Sl2Poly, y: Sl2Poly):
    """The (weight, p, q) products of the Killing pairing Tr(xy) = 2 a a' + bp cm' + cm bp'."""
    return (2, x.a, y.a), (1, x.bp, y.cm), (1, x.cm, y.bp)


class LaurentMatrix(Record):
    """Finite-support Laurent object with an explicit validity floor."""

    __slots__ = ("coeffs", "floor")

    def __init__(self, coeffs: dict[int, Sl2Poly], floor: int | None = None):
        tab = {e: m for e, m in coeffs.items() if not m.is_zero()}
        if floor is not None:
            for e in tab:
                if e < floor:
                    raise ValueError(f"stored coefficient at {e} below floor {floor}")
        self.coeffs = tab
        self.floor = floor

    # -- queries --------------------------------------------------------------

    def coeff(self, e: int) -> Sl2Poly:
        _known(self.floor, e, "the series")
        return self.coeffs.get(e, _SL2_ZERO)

    # -- arithmetic -------------------------------------------------------------

    def __add__(self, other: "LaurentMatrix") -> "LaurentMatrix":
        tab = dict(self.coeffs)
        for e, m in other.coeffs.items():
            tab[e] = tab[e] + m if e in tab else m
        floor = _max_floor(self.floor, other.floor)
        if floor is not None:
            # the sum is known only where both operands are
            tab = {e: m for e, m in tab.items() if e >= floor}
        return LaurentMatrix(tab, floor)

    def __sub__(self, other: "LaurentMatrix") -> "LaurentMatrix":
        return self + other.scale(-1)

    def scale(self, s) -> "LaurentMatrix":
        return LaurentMatrix({e: m.scale(s) for e, m in self.coeffs.items()}, self.floor)

    def map(self, f) -> "LaurentMatrix":
        return LaurentMatrix({e: m.map(f) for e, m in self.coeffs.items()}, self.floor)


def _max_floor(f1: int | None, f2: int | None) -> int | None:
    if f1 is None:
        return f2
    if f2 is None:
        return f1
    return max(f1, f2)


def _possible_top(x: LaurentMatrix) -> int | None:
    """Largest exponent where x could be nonzero (None: provably zero): the top
    stored one, which lies at or above the floor, else the top unknown one."""
    return max(x.coeffs, default=None if x.floor is None else x.floor - 1)


def commutator_floor(x: LaurentMatrix, y: LaurentMatrix) -> int | None:
    """Floor of a product of x and y, [x, y] or Tr(xy): where unknown
    coefficients of either factor can meet possibly-nonzero coefficients of
    the other (None: nothing is unknown)."""
    floor = None
    pt_x, pt_y = _possible_top(x), _possible_top(y)
    if x.floor is not None and pt_y is not None:
        floor = x.floor + pt_y
    if y.floor is not None and pt_x is not None:
        floor = _max_floor(floor, y.floor + pt_x)
    return floor


def lm_commutator(x: LaurentMatrix, y: LaurentMatrix) -> LaurentMatrix:
    """Convolution commutator: coefficient at k is sum over i+j=k of [x_i, y_j].

    The result floor accounts for unknown coefficients of either factor meeting
    possibly-nonzero coefficients of the other; products below it are skipped.
    """
    floor = commutator_floor(x, y)
    # Per exponent, the products of the a, bp and cm components of every
    # [x_i, y_j] that lands there, summed by one dot each.
    groups: dict[int, tuple[list, list, list]] = {}
    for e1, m1 in x.coeffs.items():
        for e2, m2 in y.coeffs.items():
            e = e1 + e2
            if floor is not None and e < floor:
                continue
            for acc, terms in zip(groups.setdefault(e, ([], [], [])), _commutator_terms(m1, m2)):
                acc += terms
    return LaurentMatrix(
        {e: Sl2Poly(DiffPoly.dot(a), DiffPoly.dot(bp), DiffPoly.dot(cm)) for e, (a, bp, cm) in groups.items()},
        floor,
    )


def shift(x: LaurentMatrix, k: int) -> LaurentMatrix:
    """S^k: multiply by lambda^k (relabel exponents)."""
    return LaurentMatrix(
        {e + k: m for e, m in x.coeffs.items()},
        None if x.floor is None else x.floor + k,
    )


def project_plus(x: LaurentMatrix) -> LaurentMatrix:
    """P_+: the exact Laurent polynomial of the exponents >= 0."""
    _known(x.floor, 0, "P_+")
    return LaurentMatrix({e: m for e, m in x.coeffs.items() if e >= 0}, None)


def trace_pair(x: LaurentMatrix, y: LaurentMatrix, j: int = 0) -> DiffPoly:
    """Coefficient of lambda^{-1} of Tr((S^j x) y), i.e. the residue pairing.

    Raises DepthExhausted unless every potentially nonzero contribution at
    that exponent is known on both sides.
    """
    target = -1 - j
    _known(commutator_floor(x, y), target, "trace_pair")
    terms = []
    for e1, m1 in x.coeffs.items():
        m2 = y.coeffs.get(target - e1)
        if m2 is not None:
            terms += _trace_terms(m1, m2)
    return DiffPoly.dot(terms)


# -- emitters ---------------------------------------------------------------------


def entry_polynomials(x: LaurentMatrix) -> tuple[dict[int, DiffPoly], dict[int, DiffPoly], dict[int, DiffPoly]]:
    """Matrix entries (A, B, C) as exponent -> DiffPoly tables; the 2x2 form
    is ((A, B), (C, -A))."""
    a = {e: m.a for e, m in x.coeffs.items() if not m.a.is_zero()}
    b = {e: m.bp for e, m in x.coeffs.items() if not m.bp.is_zero()}
    c = {e: m.cm for e, m in x.coeffs.items() if not m.cm.is_zero()}
    return a, b, c


def _entry_latex(table: dict[int, DiffPoly], negate: bool = False) -> str:
    if not table:
        return "0"
    parts: list[str] = []
    for e in sorted(table, reverse=True):
        p = table[e].scale(-1) if negate else table[e]
        body = p.to_latex()
        if e != 0:
            lam = r"\lambda" if e == 1 else rf"\lambda^{{{e}}}"
            if len(p.num) > 1:
                body = rf"\left({body}\right){lam}"
            elif body == "1":
                body = lam
            elif body == "-1":
                body = f"-{lam}"
            else:
                body = f"{body} {lam}"
        if parts and not body.startswith("-"):
            parts.append("+")
        parts.append(body)
    return " ".join(parts)


def matrix_to_latex(x: LaurentMatrix) -> str:
    """2x2 pmatrix layout reconstructing the entries (a, b; c, -a)."""
    a, b, c = entry_polynomials(x)
    return (
        "\\begin{pmatrix}\n"
        f"{_entry_latex(a)} & {_entry_latex(b)} \\\\\n"
        f"{_entry_latex(c)} & {_entry_latex(a, negate=True)}\n"
        "\\end{pmatrix}"
    )


def matrix_to_json(x: LaurentMatrix) -> dict:
    coeffs = {
        str(e): {
            "a": x.coeffs[e].a.to_json(),
            "bp": x.coeffs[e].bp.to_json(),
            "cm": x.coeffs[e].cm.to_json(),
        }
        for e in sorted(x.coeffs, reverse=True)
    }
    return {"depth": None if x.floor is None else -x.floor, "coeffs": coeffs}


def matrix_to_text(x: LaurentMatrix) -> str:
    lines = []
    for e in sorted(x.coeffs, reverse=True):
        m = x.coeffs[e]
        lines.append(f"lambda^{e}: a = {m.a.to_text()} | b = {m.bp.to_text()} | c = {m.cm.to_text()}")
    return "\n".join(lines) if lines else "0"
