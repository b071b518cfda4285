"""PDE systems from zero-curvature conditions, and dual-route equivalence.

For a table built at time t_k and a partner time t_n, matching the lambda
coefficients of

    d_n V_k^(k) - d_k V_k^(n) + [V_k^(k), V_k^(n)] = 0

yields d_n of every free field (the evolution system), while every remaining
coefficient must vanish identically -- those are recomputed and checked, and a
failure raises ResidualNonZero because it can only mean an engine fault.  The
flow is computed one lambda-coefficient at a time, the derivative and the
bracket in one dot per component.  A remaining coefficient lambda^e is the
flow identity of table row p = n - e, fnr's `_flow_residual`, which does not
depend on n: on the shared rows of build_psi, the rows up to the store's
verified-row mark (the `flow_verified` of the store that `fnr._memo_owner`
finds) passed in an earlier system and are not checked again; every other
table is checked in full.

Two-time expressions are never represented: a PdeSystem stores d_n(u) as a
polynomial in t_k-derivatives and extends d_n to composites by the chain rule.
The duality map phi from the t_k world into the t_n world is DualityResult.phi.
"""

from __future__ import annotations

from .diffpoly import _BASE, _CONST, _VARS, DiffPoly, FieldVar, _mapped
from .fnr import PsiTable, _flow_residual, _memo_owner, _memoized, _require_ints, build_psi, lax_matrix
from .loopalg import _flow_coefficient, lm_commutator
from .records import Record
from .report import CheckReport


class ResidualNonZero(Exception):
    """A zero-curvature lambda-coefficient neither defines an evolution nor vanishes."""


class EliminationFailure(Exception):
    """Auxiliary-field elimination cannot proceed (a rule is not linear in its target)."""


class PdeSystem(Record):
    """Evolution rules d_n(u) = RHS for the free fields of a t_k table.

    RHS entries are differential polynomials in the free fields and their
    t_k-derivatives.
    """

    __slots__ = ("k", "n", "evolution")

    def __init__(self, k: int, n: int, evolution: dict[FieldVar, DiffPoly]):
        self.k = k
        self.n = n
        self.evolution = evolution

    def rhs(self, kind: str, index: int) -> DiffPoly:
        return self.evolution[FieldVar(kind, index)]

    def derivative(self, p: DiffPoly) -> DiffPoly:
        """Extend d_n to any polynomial by the chain rule.

        d_n and the distinguished d_k commute, so d_n(u^(l)) = d_k^l(d_n u);
        DiffPoly keeps those derivatives, so each is computed once.
        """
        evolution, terms = self.evolution, []
        for i in p._ids():
            if _CONST[i]:
                continue
            rule = evolution.get(_BASE[i])
            if rule is None:
                missing = min(u for j in p._ids() if not _CONST[j] and (u := _BASE[j]) not in evolution)
                raise KeyError(f"no evolution rule for field {missing}")
            v = _VARS[i]
            terms.append((1, p.partial(v), rule.derive(v.dorder)))
        return DiffPoly.dot(terms)

    def fields(self) -> list[FieldVar]:
        return sorted(self.evolution)


def zero_curvature(table: PsiTable, n: int) -> PdeSystem:
    """Derive the t_n evolution of all 2k free fields and check residuals.

    The system reads rows 0..max(k, n) only, and a shallower table raises
    DepthExhausted; for a table whose rows are the shared ones of build_psi
    it is computed once per (k, n) and shared."""
    _require_ints(n=n)
    if n < 1:
        raise ValueError("partner time n must be >= 1")
    upto = max(n, table.k)
    return _memoized(table, upto, ("zero_curvature", n), lambda: _derive_system(table, n))


def _derive_system(table: PsiTable, n: int) -> PdeSystem:
    k = table.k
    v_n, v_k = lax_matrix(table, n), lax_matrix(table, k)
    # d_n V^(k) = d_k V^(n) + [V^(n), V^(k)]; d_n V^(k) is sum_q (d_n l_q) lambda^(k-q).
    flow = [_flow_coefficient(v_n, v_k, e) for e in range(k)]

    evolution: dict[FieldVar, DiffPoly] = {}
    for q in range(1, k + 1):
        evolution[FieldVar("b", q)] = flow[k - q].bp
        evolution[FieldVar("c", q)] = flow[k - q].cm
    system = PdeSystem(k=k, n=n, evolution=evolution)

    bad: list[str] = []
    # Coefficients lambda^e, e = k+n..k, carry no d_n of a free field, so the
    # zero-curvature form leaves -flow there, which must vanish outright.  It
    # is the flow identity of row p = n-e, which does not depend on n: rows
    # that a system on the same store verified are not checked again.
    # A table that does not own the rows it reads is checked from row -k.
    series, owner = table.psi_series(), _memo_owner(table, max(n, k))
    for p in range(-k if owner is None else owner.flow_verified + 1, n - k + 1):
        flow_p = _flow_residual(series, v_k, p)
        if not flow_p.is_zero():
            residual = -flow_p
            bad.append(f"lambda^{n - p}: ({residual.a}; {residual.bp}; {residual.cm})")
    # Diagonal components of the evolution rows must agree with the chain rule
    # applied to the closure polynomials a_q, read off V^(k) at lambda^(k-q).
    for q in range(1, k + 1):
        residual = system.derivative(v_k.coeff(k - q).a) - flow[k - q].a
        if not residual.is_zero():
            bad.append(f"sigma3 at lambda^{k - q}: {residual}")
    if bad:
        raise ResidualNonZero(
            f"zero_curvature(k={k}, n={n}): nonvanishing residuals:\n  " + "\n  ".join(bad)
        )
    if owner is not None:
        with owner.lock:
            owner.flow_verified = max(owner.flow_verified, n - k)
    return system


def strong_zc_check(table: PsiTable, n: int, m: int) -> CheckReport:
    """d_n V_k^(m) - d_m V_k^(n) + [V_k^(m), V_k^(n)] = 0, coefficient by
    coefficient, for any pair of partner times."""
    sys_n = zero_curvature(table, n)
    sys_m = zero_curvature(table, m)
    v_n = lax_matrix(table, n)
    v_m = lax_matrix(table, m)
    total = v_m.map(sys_n.derivative) - v_n.map(sys_m.derivative) + lm_commutator(v_m, v_n)
    report = CheckReport(f"strong_zc(k={table.k}, n={n}, m={m})")
    if not total.coeffs:
        report.add("all coefficients", True)
        return report
    for e in sorted(total.coeffs, reverse=True):
        c = total.coeffs[e]
        report.add(f"lambda^{e}", c.is_zero(), f"({c.a}; {c.bp}; {c.cm})")
    return report


def commuting_flows_check(table: PsiTable, n: int, m: int) -> CheckReport:
    """d_n d_m u = d_m d_n u for every free field u, via the chain rule."""
    sys_n = zero_curvature(table, n)
    sys_m = zero_curvature(table, m)
    report = CheckReport(f"commuting_flows(k={table.k}, n={n}, m={m})")
    for u in table.free_fields():
        p = DiffPoly.from_var(u)
        residual = sys_n.derivative(sys_m.derivative(p)) - sys_m.derivative(sys_n.derivative(p))
        report.add_residual(f"[{n},{m}] on {u}", residual)
    return report


class DualityResult(Record):
    """The report; psi, each b_j, c_j (j = n+1..k) as a polynomial of the t_n
    world; and route_a, the d_k system of the t_n table: together, the map phi."""

    __slots__ = ("report", "psi", "route_a")

    def __init__(self, report: CheckReport, psi: dict[FieldVar, DiffPoly], route_a: PdeSystem):
        self.report = report
        self.psi = psi
        self.route_a = route_a

    def phi(self, p: DiffPoly) -> DiffPoly:
        """phi of the current psi: b_1..c_n fixed, u -> psi(u), u^(l) -> d_k^l phi(u) by route A."""
        return _mapped(p, self.psi, self.route_a.derivative)


def dual_equivalence(n: int, k: int) -> DualityResult:
    """Certify that the routes through t_n and t_k give the same PDEs.

    Route A fixes t_n and derives the d_k evolution of b_1..c_n.  Route B
    fixes t_k and derives the d_n evolution of b_1..c_k; its first k-n rules
    are linear in the fields b_j, c_j (j = n+1..k) and are solved ascending to
    express those fields in the t_n world.  The elimination must reproduce the
    t_n table rows, and the remaining rules, rewritten through it, must
    reproduce route A term by term.  Both routes and the elimination read
    rows 0..k of the two tables, so both are built to depth k.
    """
    if not 1 <= n < k:
        raise ValueError("dual_equivalence needs 1 <= n < k")
    return _duality(build_psi(n, k), build_psi(k, k))


def _duality(table_n: PsiTable, table_k: PsiTable) -> DualityResult:
    """dual_equivalence on the tables of t_n and t_k; every rewrite is the result's phi."""
    n, k = table_n.k, table_k.k
    result = DualityResult(CheckReport(f"dual_equivalence(n={n}, k={k})"), {}, zero_curvature(table_n, k))
    route_b = zero_curvature(table_k, n)

    # Ascending elimination: the rule for d_n u_q (q <= k-n) contains u_{q+n}
    # linearly with coefficient +-2 and nothing else of that index.
    for q in range(1, k - n + 1):
        j = n + q
        for kind, coeff in (("b", 2), ("c", -2)):
            target = FieldVar(kind, j)
            rule = route_b.evolution[FieldVar(kind, q)]
            rest = rule - DiffPoly.from_var(target).scale(coeff)
            if not rest.partial(target).is_zero():
                raise EliminationFailure(f"rule for d_{n} {kind}{q} is not linear in {kind}{j}")
            result.psi[target] = (result.phi(DiffPoly.var(kind, q)).derive() - result.phi(rest)).scale(1, coeff)

    # The eliminated fields must coincide with the t_n constraint rows, and the
    # diagonal polynomials must map onto each other as well.
    for j in range(n + 1, k + 1):
        for kind, attr in (("b", "bp"), ("c", "cm")):
            want = getattr(table_n.rows[j], attr)
            result.report.add_residual(f"elimination {kind}{j}", result.psi[FieldVar(kind, j)] - want)
    for j in range(1, k + 1):
        result.report.add_residual(f"a_{j} rewrite", result.phi(table_k.rows[j].a) - table_n.rows[j].a)

    # phi(d_n u_q) = d_n phi(u_q) on route B's surviving rules d_n u_q = d(u_p) - C_{p+k},
    # q = p+k-n.  phi(u_p') is route A's rule for d_k u_p, so this checks route A.
    for p in range(1, n + 1):
        q = p + k - n
        for kind in ("b", "c"):
            residual = result.phi(DiffPoly.var(kind, q)).derive() - result.phi(route_b.rhs(kind, q))
            result.report.add_residual(f"d_{k} {kind}{p}", residual)
    result.psi = dict(sorted(result.psi.items()))
    return result


def dual_table_map_check(n: int, k: int, depth: int) -> CheckReport:
    """Certify that the duality map phi sends the t_k table onto the t_n table.

    phi fixes b_1..c_n, sends each eliminated field u to dual_equivalence's
    psi(u), and u^(l) to d_k^l phi(u) by route A.  Row by row j = 1..depth and
    entry by entry (a, b, c), the image of the t_k row must equal the t_n row.
    Both tables are built to depth max(k, depth); the elimination reads 0..k.
    """
    if not 1 <= n < k:
        raise ValueError("dual_table_map_check needs 1 <= n < k")
    if depth < 1:
        raise ValueError(f"dual_table_map_check needs depth >= 1, got {depth}")
    table_n, table_k = build_psi(n, max(k, depth)), build_psi(k, max(k, depth))
    phi = _duality(table_n, table_k).phi
    report = CheckReport(f"dual_table_map(n={n}, k={k}, depth={depth})")
    for j in range(1, depth + 1):
        for entry, attr in (("a", "a"), ("b", "bp"), ("c", "cm")):
            image = phi(getattr(table_k.rows[j], attr))
            report.add_residual(f"row {j} {entry}", image - getattr(table_n.rows[j], attr))
    return report
