"""Constraint map for a fixed hierarchy time: the table of series coefficients.

Fixing the time t_k and solving the flow equation d/dt_k L = [L^(k), L] with
l_0 = sigma3 turns every series coefficient l_j = a_j sigma3 + b_j sigma+ +
c_j sigma- into a differential polynomial in the 2k free fields b_1..b_k,
c_1..c_k.  A PsiTable holds those rows up to a chosen depth:

  * rows 1..k:  b_j, c_j free generators, a_j from the Casimir closure
                (all coefficients of Tr L^2 - 2 pinned to zero, integration
                constants zero);
  * rows > k:   b_j, c_j from the off-diagonal components of the flow,
                a_j again from the closure.

The diagonal component of the flow is NOT used in the construction; it is the
independent consistency check diag_consistency.

Rows are prefix-stable (row j reads only rows below it), so each k has one
process-wide store of rows that build_psi extends lazily and hands out
prefixes of.  The store also keeps memos for results read off a prefix of its
rows (zero-curvature systems, the Riccati expansion); `_memo_owner` serves
them only to tables whose rows are the store's own row objects.  Nothing is
evicted, and every shared result must be treated as read-only.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

from .diffpoly import DiffPoly
from .loopalg import LaurentMatrix, Sl2Poly, commutator_floor, project_plus, shift, trace_pair
from .report import CheckReport

_HALF = Fraction(1, 2)


@dataclass(frozen=True)
class PsiTable:
    """Rows j = 0..depth of the constrained series for the time t_k."""

    k: int
    depth: int
    rows: Tuple[Sl2Poly, ...]

    def __post_init__(self):
        if len(self.rows) != self.depth + 1:
            raise ValueError(f"depth {self.depth} needs {self.depth + 1} rows, got {len(self.rows)}")

    def free_fields(self):
        """The 2k free generators, b first, in index order."""
        from .diffpoly import FieldVar

        return [FieldVar(kind, i) for kind in ("b", "c") for i in range(1, self.k + 1)]

    def psi_series(self) -> LaurentMatrix:
        """The constrained series as a truncated Laurent object (floor -depth)."""
        return LaurentMatrix({-j: self.rows[j] for j in range(self.depth + 1)}, floor=-self.depth)


def casimir_closure_a(rows: Sequence[Sl2Poly], m: int) -> DiffPoly:
    """a_m forced by the vanishing of the lambda^{-m} coefficient of Tr L^2 - 2.

    With a_0 = 1, b_0 = c_0 = 0 the coefficient reads
    4 a_m + sum_{i=1}^{m-1} (2 a_i a_{m-i} + b_i c_{m-i} + b_{m-i} c_i) = 0.
    The terms i and m-i are equal, so each pair i < m-i is taken once with
    weight 2, and the middle term i = m/2 (m even) once.
    """
    if m < 1:
        raise ValueError("casimir_closure_a needs m >= 1")
    terms = []
    for i in range(1, (m + 1) // 2):
        li, lmi = rows[i], rows[m - i]
        terms += ((2, li.a, lmi.a), (1, li.bp, lmi.cm), (1, lmi.bp, li.cm))
    if m % 2 == 0:
        mid = rows[m // 2]
        terms += ((1, mid.a, mid.a), (1, mid.bp, mid.cm))
    return DiffPoly.dot(terms).scale(-_HALF)


def extend_offdiagonal(rows: Sequence[Sl2Poly], p: int, k: int) -> Tuple[DiffPoly, DiffPoly]:
    """(b_{p+k}, c_{p+k}) solved from the sigma+- components of the flow
    d/dt_k l_p = sum_{j=0}^{k} [l_j, l_{p+k-j}]:

      b_{p+k} =  (1/2) d(b_p) - sum_{j=1}^{k} (a_j b_{p+k-j} - a_{p+k-j} b_j)
      c_{p+k} = -(1/2) d(c_p) - sum_{j=1}^{k} (a_j c_{p+k-j} - a_{p+k-j} c_j)
    """
    if p < 1:
        raise ValueError("extend_offdiagonal needs p >= 1")
    b_terms, c_terms = [], []
    for j in range(1, k + 1):
        lj, lo = rows[j], rows[p + k - j]
        b_terms += ((-1, lj.a, lo.bp), (1, lo.a, lj.bp))
        c_terms += ((-1, lj.a, lo.cm), (1, lo.a, lj.cm))
    b_new = rows[p].bp.derive().scale(_HALF) + DiffPoly.dot(b_terms)
    c_new = rows[p].cm.derive().scale(-_HALF) + DiffPoly.dot(c_terms)
    return b_new, c_new


class _Hierarchy:
    """The rows of the t_k table computed so far, plus memos keyed by callers."""

    def __init__(self, k: int):
        self.k = k
        self.rows: List[Sl2Poly] = [Sl2Poly.sigma3()]
        self.memo: Dict = {}
        # Guards appends to rows and the growth of mutable memo entries.
        self.lock = threading.Lock()

    def extend(self, depth: int) -> None:
        with self.lock:
            rows, k = self.rows, self.k
            for j in range(len(rows), depth + 1):
                if j <= k:
                    bj, cj = DiffPoly.var("b", j), DiffPoly.var("c", j)
                else:
                    bj, cj = extend_offdiagonal(rows, j - k, k)
                # The closure at order j only reads rows 0..j-1.
                rows.append(Sl2Poly(a=casimir_closure_a(rows, j), bp=bj, cm=cj))


_HIERARCHIES: Dict[int, _Hierarchy] = {}


def _memo_owner(table: PsiTable, upto: int) -> Optional[_Hierarchy]:
    """The store of table.k if rows 0..upto of the table are its very row
    objects, else None: a table built or perturbed by hand never reuses a memo."""
    found = _HIERARCHIES.get(table.k)
    if found is None or len(found.rows) <= upto or len(table.rows) <= upto:
        return None
    rows = found.rows
    return found if all(table.rows[j] is rows[j] for j in range(upto + 1)) else None


def _memoized(table: PsiTable, upto: int, key, compute):
    """compute(), shared across calls for tables that own rows 0..upto."""
    owner = _memo_owner(table, upto)
    if owner is None:
        return compute()
    hit = owner.memo.get(key)
    return hit if hit is not None else owner.memo.setdefault(key, compute())


def build_psi(k: int, depth: int) -> PsiTable:
    """Construct the table for t_k down to lambda^{-depth}."""
    if k < 1:
        raise ValueError("k must be >= 1")
    if depth < k:
        raise ValueError(f"depth must be >= k (got depth={depth}, k={k})")
    store = _HIERARCHIES.get(k) or _HIERARCHIES.setdefault(k, _Hierarchy(k))
    if len(store.rows) <= depth:
        store.extend(depth)
    return PsiTable(k=k, depth=depth, rows=tuple(store.rows[: depth + 1]))


def lax_matrix(table: PsiTable, n: int) -> LaurentMatrix:
    """V_k^(n) = P_+(lambda^n L): the degree-n polynomial sum_{m=0}^{n} l_m lambda^{n-m}."""
    if n < 0:
        raise ValueError("n must be >= 0")
    return project_plus(shift(table.psi_series(), n))


def diag_consistency(table: PsiTable) -> CheckReport:
    """Check the sigma3 component of the flow d_k L = [V_k^(k), L] on every
    row the table determines: d(a_p) = a-part of its lambda^{-p} coefficient."""
    report = CheckReport(f"diag_consistency(k={table.k})")
    v, series = lax_matrix(table, table.k), table.psi_series()
    for p in range(1, -commutator_floor(v, series) + 1):
        # The sigma3 part of [v, L] at lambda^-p; [x, y] has sigma3 part
        # x.bp*y.cm - x.cm*y.bp.
        terms = []
        for e, m in v.coeffs.items():
            m2 = series.coeff(-p - e)
            terms += ((1, m.bp, m2.cm), (-1, m.cm, m2.bp))
        flow = DiffPoly.dot(terms)
        residual = table.rows[p].a.derive() - flow
        report.add(f"p={p}", residual.is_zero(), residual.to_text())
    return report


def trace_square_check(table: PsiTable) -> CheckReport:
    """Tr(Psi_k(L)(lambda)^2) = 2 order by order up to the table depth."""
    report = CheckReport(f"trace_square(k={table.k})")
    series = table.psi_series()
    for m in range(1, table.depth + 1):
        acc = trace_pair(series, series, m - 1)
        report.add(f"lambda^-{m}", acc.is_zero(), acc.to_text())
    return report
