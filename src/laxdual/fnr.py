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
independent consistency check diag_consistency, which reads the off-diagonal
components as well, so that a table not built by this construction is caught.
The flow identity of one row p, d(l_p) = sum_{j=0}^{k} [l_j, l_{p+k-j}], is
`_flow_residual`; diag_consistency reads it for every row on every call, and
zero_curvature reads it as the residual coefficients of each system.

Rows are prefix-stable (row j reads only rows below it), so each k has one
process-wide store of rows that build_psi extends lazily and hands out
prefixes of.  The store also keeps memos for results read off a prefix of its
rows (zero-curvature systems, the Riccati expansion, the bracket table, the
variational gradients of its densities); `_memo_owner` serves them only to
tables whose rows are the store's own row objects.  At row
granularity it keeps one mark, `flow_verified`: the highest row whose flow
identity zero_curvature has verified, raised only after those rows passed.
It is read only for tables that own the rows a system reads, so a later
system skips those rows; any other table is checked in full.  Nothing is
evicted, and every shared result must be treated as read-only.
"""

from __future__ import annotations

import threading
from collections.abc import Sequence

from .diffpoly import DiffPoly, FieldVar
from .loopalg import LaurentMatrix, Sl2Poly, commutator_floor, project_plus, shift, trace_pair
from .loopalg import _commutator_terms, _flow_coefficient, _trace_terms
from .records import FrozenRecord
from .report import CheckReport


class PsiTable(FrozenRecord):
    """Rows j = 0..depth of the constrained series for the time t_k."""

    __slots__ = ("k", "depth", "rows")

    def __init__(self, k: int, depth: int, rows: tuple[Sl2Poly, ...]):
        if len(rows) != depth + 1:
            raise ValueError(f"depth {depth} needs {depth + 1} rows, got {len(rows)}")
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "depth", depth)
        object.__setattr__(self, "rows", rows)

    def free_fields(self):
        """The 2k free generators, b first, in index order."""
        return [FieldVar(kind, i) for kind in ("b", "c") for i in range(1, self.k + 1)]

    def psi_series(self) -> LaurentMatrix:
        """The constrained series as a truncated Laurent object (floor -depth)."""
        return LaurentMatrix({-j: self.rows[j] for j in range(self.depth + 1)}, floor=-self.depth)


def casimir_closure_a(rows: Sequence[Sl2Poly], m: int) -> DiffPoly:
    """a_m forced by the vanishing of the lambda^{-m} coefficient of Tr L^2 - 2.

    With a_0 = 1, b_0 = c_0 = 0 the coefficient reads
    4 a_m + sum_{i=1}^{m-1} (2 a_i a_{m-i} + b_i c_{m-i} + b_{m-i} c_i) = 0,
    the summand being the Killing pairing Tr(l_i l_{m-i}).  The terms i and
    m-i are equal, so each pair i < m-i is taken once with weight 2, and the
    middle term i = m/2 (m even) once.
    """
    if m < 1:
        raise ValueError("casimir_closure_a needs m >= 1")
    terms = []
    for i in range(1, (m + 1) // 2):
        terms += _trace_terms(rows[i], rows[m - i])
    if m % 2 == 0:
        mid = rows[m // 2]
        terms += ((1, mid.a, mid.a), (1, mid.bp, mid.cm))
    return DiffPoly.dot(terms).scale(-1, 2)


def extend_offdiagonal(rows: Sequence[Sl2Poly], p: int, k: int) -> tuple[DiffPoly, DiffPoly]:
    """(b_{p+k}, c_{p+k}) solved from the sigma+- components of the flow
    d/dt_k l_p = sum_{j=0}^{k} [l_j, l_{p+k-j}]:

      b_{p+k} =  (1/2) d(b_p) - sum_{j=1}^{k} (a_j b_{p+k-j} - a_{p+k-j} b_j)
      c_{p+k} = -(1/2) d(c_p) - sum_{j=1}^{k} (a_j c_{p+k-j} - a_{p+k-j} c_j)

    i.e. (1/2)(d(b_p) - S+) and -(1/2)(d(c_p) - S-), S = sum_{j=1}^{k} [l_j, l_{p+k-j}].
    """
    if p < 1:
        raise ValueError("extend_offdiagonal needs p >= 1")
    # (1/2) S+ and (1/2) S-: each weight of a sigma+- part of [x, y] is +-2, so halving is exact.
    half_plus, half_minus = [], []
    for j in range(1, k + 1):
        _, plus, minus = _commutator_terms(rows[j], rows[p + k - j])
        half_plus += ((w // 2, x, y) for w, x, y in plus)
        half_minus += ((w // 2, x, y) for w, x, y in minus)
    b_new = rows[p].bp.derive().scale(1, 2) - DiffPoly.dot(half_plus)
    c_new = rows[p].cm.derive().scale(-1, 2) + DiffPoly.dot(half_minus)
    return b_new, c_new


class _Hierarchy:
    """The rows of the t_k table computed so far, plus memos keyed by callers."""

    def __init__(self, k: int):
        self.k = k
        self.rows: list[Sl2Poly] = [Sl2Poly.sigma3()]
        self.memo: dict = {}
        # The highest row p whose flow identity zero_curvature has verified:
        # rows -k..p all passed (l_p = 0 for p < 0), and -k - 1 means none.
        # It is only raised, under the lock.
        self.flow_verified = -k - 1
        # Guards appends to rows and raises of flow_verified; a memo entry
        # that grows guards itself.
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


_HIERARCHIES: dict[int, _Hierarchy] = {}


def _memo_owner(table: PsiTable, upto: int) -> _Hierarchy | None:
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


def _require_ints(**values) -> None:
    """TypeError unless every value is an int.  A float or a bool would pass the
    range checks and key a store or a memo as the equal int does: 1.0 and True as 1."""
    for name, value in values.items():
        if isinstance(value, bool) or not isinstance(value, int):
            raise TypeError(f"{name} must be an int, got {type(value).__name__} {value!r}")


def build_psi(k: int, depth: int) -> PsiTable:
    """Construct the table for t_k down to lambda^{-depth}."""
    _require_ints(k=k, depth=depth)
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


def _flow_residual(series: LaurentMatrix, v_k: LaurentMatrix, p: int) -> Sl2Poly:
    """d(l_p) - [V_k^(k), L] at lambda^{-p}, one dot per component: the residual
    of row p's flow identity d_k l_p = sum_{j=0}^{k} [l_j, l_{p+k-j}] (rows below
    0 are zero, so for p = -k..-1 it is a sum of brackets that cancel in pairs).
    It reads rows 0..p+k and no partner time: zero_curvature checks it as the
    lambda^{n-p} coefficient of every system with n >= p + k, diag_consistency
    for p >= 1."""
    return _flow_coefficient(series, v_k, -p)


def diag_consistency(table: PsiTable) -> CheckReport:
    """Check the flow d_k L = [V_k^(k), L] on every row the table determines:
    d(l_p) = the lambda^{-p} coefficient, in its sigma3, sigma+ and sigma-
    parts, labelled p=P, p=P sigma+ and p=P sigma-.  Every row is checked on
    every call, whatever zero_curvature verified.  On a built table the
    sigma+- parts restate the construction; they catch a hand-built or
    tampered table, and guard the shared commutator when loopalg changes."""
    report = CheckReport(f"diag_consistency(k={table.k})")
    series, v_k = table.psi_series(), lax_matrix(table, table.k)
    for p in range(1, -commutator_floor(v_k, series) + 1):
        residual = _flow_residual(series, v_k, p)
        report.add_residual(f"p={p}", residual.a)
        report.add_residual(f"p={p} sigma+", residual.bp)
        report.add_residual(f"p={p} sigma-", residual.cm)
    return report


def trace_square_check(table: PsiTable) -> CheckReport:
    """Tr(Psi_k(L)(lambda)^2) = 2 order by order up to the table depth."""
    report = CheckReport(f"trace_square(k={table.k})")
    series = table.psi_series()
    for m in range(1, table.depth + 1):
        acc = trace_pair(series, series, m - 1)
        report.add_residual(f"lambda^-{m}", acc)
    return report
