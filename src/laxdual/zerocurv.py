"""PDE systems from zero-curvature conditions, and dual-route equivalence.

For a table built at time t_k and a partner time t_n, matching the lambda
coefficients of

    d_n V_k^(k) - d_k V_k^(n) + [V_k^(k), V_k^(n)] = 0

yields d_n of every free field (the evolution system), while every remaining
coefficient must vanish identically -- those are recomputed and checked, and a
failure raises ResidualNonZero because it can only mean an engine fault.

Two-time expressions are never represented: a PdeSystem stores d_n(u) as a
polynomial in t_k-derivatives and extends d_n to composites by the chain rule.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, List

from .diffpoly import DiffPoly, FieldVar
from .fnr import PsiTable, _memoized, build_psi, lax_matrix
from .loopalg import lm_commutator
from .report import CheckReport


class ResidualNonZero(Exception):
    """A zero-curvature lambda-coefficient neither defines an evolution nor vanishes."""


class EliminationFailure(Exception):
    """Auxiliary-field elimination cannot proceed (a rule is not linear in its target)."""


@dataclass
class PdeSystem:
    """Evolution rules d_n(u) = RHS for the free fields of a t_k table.

    RHS entries are differential polynomials in the free fields and their
    t_k-derivatives.  `auxiliary` carries defining relations for eliminated
    fields where a computation produces them (dual_equivalence does).
    """

    k: int
    n: int
    evolution: Dict[FieldVar, DiffPoly]
    auxiliary: Dict[FieldVar, DiffPoly] = field(default_factory=dict)
    _dcache: Dict[FieldVar, DiffPoly] = field(default_factory=dict, repr=False, compare=False)

    def rhs(self, kind: str, index: int) -> DiffPoly:
        return self.evolution[FieldVar(kind, index)]

    def derivative(self, p: DiffPoly) -> DiffPoly:
        """Extend d_n to any polynomial by the chain rule.

        d_n and the distinguished d_k commute, so d_n(u^(l)) = d_k^l(d_n u).
        """
        out = DiffPoly.zero()
        for v in p.variables():
            if v.is_constant_symbol():
                continue
            rule = self._dcache.get(v)
            if rule is None:
                base = self.evolution.get(v.base())
                if base is None:
                    raise KeyError(f"no evolution rule for field {v.kind}{v.index}")
                rule = base.derive(v.dorder) if v.dorder else base
                self._dcache[v] = rule
            out = out + p.partial(v) * rule
        return out

    def fields(self) -> List[FieldVar]:
        return sorted(self.evolution)


def zero_curvature(table: PsiTable, n: int) -> PdeSystem:
    """Derive the t_n evolution of all 2k free fields and check residuals.

    The system reads rows 0..max(k, n) only, and a shallower table raises
    DepthExhausted; for a table whose rows are the shared ones of build_psi
    it is computed once per (k, n) and shared."""
    if n < 1:
        raise ValueError("partner time n must be >= 1")
    upto = max(n, table.k)
    return _memoized(table, upto, ("zero_curvature", n), lambda: _derive_system(table, n))


def _derive_system(table: PsiTable, n: int) -> PdeSystem:
    k = table.k
    v_n = lax_matrix(table, n)
    # d_n V^(k) = d_k V^(n) + [V^(n), V^(k)]; d_n V^(k) is sum_q (d_n l_q) lambda^(k-q).
    flow = v_n.map(DiffPoly.derive) + lm_commutator(v_n, lax_matrix(table, k))

    evolution: Dict[FieldVar, DiffPoly] = {}
    for q in range(1, k + 1):
        evolution[FieldVar("b", q)] = flow.coeff(k - q).bp
        evolution[FieldVar("c", q)] = flow.coeff(k - q).cm
    system = PdeSystem(k=k, n=n, evolution=evolution)

    bad: List[str] = []
    # Coefficients lambda^e, e = k+n..k, carry no d_n of a free field, so the
    # zero-curvature form leaves -flow there, which must vanish outright (for
    # e <= n it restates the t_k flow equation).
    for e in range(k + n, k - 1, -1):
        residual = -flow.coeff(e)
        if not residual.is_zero():
            bad.append(f"lambda^{e}: ({residual.a}; {residual.bp}; {residual.cm})")
    # Diagonal components of the evolution rows must agree with the chain rule
    # applied to the closure polynomials a_q.
    for q in range(1, k + 1):
        residual = system.derivative(table.rows[q].a) - flow.coeff(k - q).a
        if not residual.is_zero():
            bad.append(f"sigma3 at lambda^{k - q}: {residual}")
    if bad:
        raise ResidualNonZero(
            f"zero_curvature(k={k}, n={n}): nonvanishing residuals:\n  " + "\n  ".join(bad)
        )
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
        report.add(f"[{n},{m}] on {u.kind}{u.index}", residual.is_zero(), residual.to_text())
    return report


@dataclass
class DualityResult:
    report: CheckReport
    common: PdeSystem

    @property
    def passed(self) -> bool:
        return self.report.passed


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
    table_n = build_psi(n, k)
    table_k = build_psi(k, k)
    route_a = zero_curvature(table_n, k)
    route_b = zero_curvature(table_k, n)
    report = CheckReport(f"dual_equivalence(n={n}, k={k})")

    # Ascending elimination: the rule for d_n u_q (q <= k-n) contains u_{q+n}
    # linearly with coefficient +-2 and nothing else of that index.
    psi: Dict[FieldVar, DiffPoly] = {}
    for q in range(1, k - n + 1):
        j = n + q
        for kind, coeff in (("b", Fraction(2)), ("c", Fraction(-2))):
            target = FieldVar(kind, j)
            rule = route_b.evolution[FieldVar(kind, q)]
            rest = rule - DiffPoly.from_var(target).scale(coeff)
            if not rest.partial(target).is_zero():
                raise EliminationFailure(f"rule for d_{n} {kind}{q} is not linear in {kind}{j}")
            base = DiffPoly.var(kind, q) if q <= n else psi[FieldVar(kind, q)]
            psi[target] = (base.derive() - rest.substitute(psi)).scale(1 / coeff)

    # The eliminated fields must coincide with the t_n constraint rows, and the
    # diagonal polynomials must map onto each other as well.
    for j in range(n + 1, k + 1):
        for kind, attr in (("b", "bp"), ("c", "cm")):
            got = psi[FieldVar(kind, j)]
            want = getattr(table_n.rows[j], attr)
            report.add(f"elimination {kind}{j}", got == want, (got - want).to_text())
    for j in range(1, k + 1):
        got = table_k.rows[j].a.substitute(psi)
        want = table_n.rows[j].a
        report.add(f"a_{j} rewrite", got == want, (got - want).to_text())

    # Surviving rules of route B read d_n u_q = d(u_p) - C_{p+k}, q = p+k-n, so
    # d_k l_p = d_n l_q + C_{p+k}; rewritten through psi they must equal route A.
    for p in range(1, n + 1):
        q = p + k - n
        for kind in ("b", "c"):
            c_coeff = DiffPoly.var(kind, p).derive() - route_b.evolution[FieldVar(kind, q)]
            img = DiffPoly.var(kind, q) if q <= n else psi[FieldVar(kind, q)]
            got = img.derive() + c_coeff.substitute(psi)
            want = route_a.evolution[FieldVar(kind, p)]
            report.add(f"d_{k} {kind}{p}", got == want, (got - want).to_text())

    common = PdeSystem(
        k=n,
        n=k,
        evolution=dict(route_a.evolution),
        auxiliary={v: psi[v] for v in sorted(psi)},
    )
    return DualityResult(report=report, common=common)
