"""Ultralocal Poisson structure, r-matrix verification and Hamiltonians.

The free fields of a t_k table carry the ultralocal bracket

    {b_m(t), c_n(tau)} = 4 a_{m+n-k-1}(t) delta(t - tau),   a_0 = 1, a_{<0} = 0,

with b-b and c-c brackets zero; the delta factor is implicit everywhere (a
BracketTable stores only the structure polynomials).  The overall factor 4 is
the k = 1 canonical normalization {b_1, c_1} = 4 delta, used unchanged for all
k.  With it, the Lax matrix satisfies the linear r-matrix algebra

    (lambda - mu) {V_1(lambda), V_2(mu)} = [-2 Pi, V_1(lambda) + V_2(mu)],

Pi the permutation on C^2 x C^2; sklyanin_check verifies this entrywise as an
exact bivariate polynomial identity (the pole is cleared, never represented).

The monodromy side: the transition matrix factorizes as
(1+W) e^Z (1+W)^{-1} with W off-diagonal, and W solves the Riccati recursion
dW = O + DW - WD - WOW order by order in 1/lambda.  The diagonal part gives
dZ = D + OW whose coefficients are the commuting Hamiltonian densities; the
flow they generate through the bracket must reproduce the zero-curvature PDEs,
and (1+W) sigma3 (1+W)^{-1} must rebuild the constrained series.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Dict, List, Optional, Tuple

from .diffpoly import DiffPoly, FieldVar, equal_mod_total_derivative
from .fnr import PsiTable, _memo_owner, lax_matrix
from .loopalg import DepthExhausted, entry_polynomials
from .report import CheckReport
from .zerocurv import PdeSystem, zero_curvature

_HALF = Fraction(1, 2)
# {b_1, c_1} = 4 delta at k = 1 fixes the global factor relative to the raw
# component bracket 2 a_{m+n-k-1}.
_NU = Fraction(2)


@dataclass(frozen=True)
class BracketTable:
    """Structure polynomials P[u, v] of {u(t), v(tau)} = P[u, v] delta(t-tau)."""

    k: int
    entries: Dict[Tuple[FieldVar, FieldVar], DiffPoly]
    fields: Tuple[FieldVar, ...]

    def pair(self, u: FieldVar, v: FieldVar) -> DiffPoly:
        hit = self.entries.get((u, v))
        return hit if hit is not None else DiffPoly.zero()

    def bracket_field(self, u: FieldVar, q: DiffPoly) -> DiffPoly:
        """{u, q} for a derivative-free polynomial q, by the Leibniz rule."""
        out = DiffPoly.zero()
        for v in self.fields:
            p_uv = self.entries.get((u, v))
            if p_uv is not None:
                out = out + p_uv * q.partial(v)
        return out

    def bracket(self, p: DiffPoly, q: DiffPoly) -> DiffPoly:
        """{p, q} for derivative-free polynomials, bilinear Leibniz extension."""
        out = DiffPoly.zero()
        for (u, v), p_uv in self.entries.items():
            du = p.partial(u)
            if du.is_zero():
                continue
            dv = q.partial(v)
            if not dv.is_zero():
                out = out + du * p_uv * dv
        return out

    def jacobi_check(self) -> CheckReport:
        """Field-dependent bivector Jacobi identity on all field triples."""
        report = CheckReport(f"bracket_jacobi(k={self.k})")
        for u, v, z in combinations(self.fields, 3):
            acc = DiffPoly.zero()
            for x, y, w_pair in ((u, v, z), (v, z, u), (z, u, v)):
                pvz = self.pair(y, w_pair)
                for w in self.fields:
                    acc = acc + self.pair(x, w) * pvz.partial(w)
            report.add(
                f"({u.kind}{u.index},{v.kind}{v.index},{z.kind}{z.index})",
                acc.is_zero(),
                acc.to_text(),
            )
        return report


def field_bracket_table(table: PsiTable) -> BracketTable:
    """The ultralocal bracket of the 2k free fields, pushed through the table."""
    k = table.k
    if table.depth < k:
        raise ValueError("bracket table needs depth >= k")
    entries: Dict[Tuple[FieldVar, FieldVar], DiffPoly] = {}
    for m in range(1, k + 1):
        for n in range(1, k + 1):
            idx = m + n - k - 1
            if idx < 0:
                continue
            val = DiffPoly.const(2 * _NU) if idx == 0 else table.rows[idx].a.scale(2 * _NU)
            if val.is_zero():
                continue
            if val.max_dorder() != 0:
                raise ValueError(f"ultralocality violated: P[b{m},c{n}] = {val}")
            entries[(FieldVar("b", m), FieldVar("c", n))] = val
            entries[(FieldVar("c", n), FieldVar("b", m))] = -val
    return BracketTable(k=k, entries=entries, fields=tuple(table.free_fields()))


# -- Sklyanin relation ---------------------------------------------------------
#
# Bivariate polynomials in (lambda, mu) with DiffPoly coefficients, and 4x4
# matrices of them; only what the entrywise comparison needs.

BiPoly = Dict[Tuple[int, int], DiffPoly]


def _bp_add(x: BiPoly, y: BiPoly) -> BiPoly:
    out = dict(x)
    for key, val in y.items():
        acc = out.get(key)
        acc = val if acc is None else acc + val
        if acc.is_zero():
            out.pop(key, None)
        else:
            out[key] = acc
    return out


def _bp_scale(x: BiPoly, s) -> BiPoly:
    return {key: val.scale(s) for key, val in x.items()}


def _bp_mul(x: BiPoly, y: BiPoly) -> BiPoly:
    out: BiPoly = {}
    for (dl1, dm1), v1 in x.items():
        for (dl2, dm2), v2 in y.items():
            key = (dl1 + dl2, dm1 + dm2)
            prod = v1 * v2
            acc = out.get(key)
            acc = prod if acc is None else acc + prod
            if acc.is_zero():
                out.pop(key, None)
            else:
                out[key] = acc
    return out


def _mat_mul(x, y):
    return [
        [
            _bp_add(
                _bp_add(_bp_mul(x[i][0], y[0][j]), _bp_mul(x[i][1], y[1][j])),
                _bp_add(_bp_mul(x[i][2], y[2][j]), _bp_mul(x[i][3], y[3][j])),
            )
            for j in range(4)
        ]
        for i in range(4)
    ]


def sklyanin_check(table: PsiTable) -> CheckReport:
    """Entrywise check of (lambda-mu) {V_1, V_2} = [-2 Pi, V_1 + V_2].

    The left side is the bilinear extension of the field bracket over the
    matrix entries; the right side is an honest 4x4 matrix commutator with Pi
    the permutation operator.  Both sides are exact bivariate polynomials.
    """
    brackets = field_bracket_table(table)
    a, b, c = entry_polynomials(lax_matrix(table, table.k))
    if any(p.max_dorder() for part in (a, b, c) for p in part.values()):
        raise ValueError("Lax matrix entries must be derivative-free")
    entry = [[a, b], [c, {e: -p for e, p in a.items()}]]

    lhs_pole_cleared: List[List[BiPoly]] = [[{} for _ in range(4)] for _ in range(4)]
    lam_minus_mu: BiPoly = {(1, 0): DiffPoly.const(1), (0, 1): DiffPoly.const(-1)}
    for i1 in range(2):
        for i2 in range(2):
            for j1 in range(2):
                for j2 in range(2):
                    acc: BiPoly = {}
                    for dl, p in entry[i1][j1].items():
                        for dm, q in entry[i2][j2].items():
                            val = brackets.bracket(p, q)
                            if not val.is_zero():
                                acc = _bp_add(acc, {(dl, dm): val})
                    lhs_pole_cleared[2 * i1 + i2][2 * j1 + j2] = _bp_mul(lam_minus_mu, acc)

    zero: BiPoly = {}
    msum: List[List[BiPoly]] = [[dict() for _ in range(4)] for _ in range(4)]
    for i1 in range(2):
        for i2 in range(2):
            for j1 in range(2):
                for j2 in range(2):
                    acc: BiPoly = {}
                    if i2 == j2:
                        acc = _bp_add(acc, {(e, 0): p for e, p in entry[i1][j1].items()})
                    if i1 == j1:
                        acc = _bp_add(acc, {(0, e): p for e, p in entry[i2][j2].items()})
                    msum[2 * i1 + i2][2 * j1 + j2] = acc
    one: BiPoly = {(0, 0): DiffPoly.const(1)}
    perm = [[zero for _ in range(4)] for _ in range(4)]
    for i1 in range(2):
        for i2 in range(2):
            perm[2 * i1 + i2][2 * i2 + i1] = one
    rhs = _mat_mul(perm, msum)
    lhs_rhs = _mat_mul(msum, perm)
    report = CheckReport(f"sklyanin(k={table.k})")
    for r in range(4):
        for col in range(4):
            commutator = _bp_add(rhs[r][col], _bp_scale(lhs_rhs[r][col], -1))
            residual = _bp_add(lhs_pole_cleared[r][col], _bp_scale(commutator, 2))
            ok = not residual
            detail = None
            if not ok:
                detail = "; ".join(
                    f"l^{dl} m^{dm}: {p}" for (dl, dm), p in sorted(residual.items())
                )
            report.add(f"entry({r},{col})", ok, detail)
    return report


# -- monodromy factorization -----------------------------------------------------


@dataclass(frozen=True)
class WZExpansion:
    """Riccati data: w_j = beta_j sigma+ + gamma_j sigma- and the diagonal
    densities (coefficient of lambda^{-n} in (1/2) Tr(sigma3 dZ))."""

    k: int
    depth: int
    w: Tuple[Tuple[DiffPoly, DiffPoly], ...]
    zdot_densities: Tuple[DiffPoly, ...]

    def beta(self, j: int) -> DiffPoly:
        return self.w[j - 1][0]

    def gamma(self, j: int) -> DiffPoly:
        return self.w[j - 1][1]

    def sl2(self, j: int):
        from .loopalg import Sl2Poly

        return Sl2Poly(bp=self.w[j - 1][0], cm=self.w[j - 1][1])

    def density(self, n: int) -> DiffPoly:
        """Coefficient of lambda^{-n}, n >= 1."""
        return self.zdot_densities[n - 1]


def wz_expand(table: PsiTable, depth: int) -> WZExpansion:
    """Solve the Riccati recursion to the requested depth.

    Order lambda^(k-j) of dW = O + DW - WD - WOW reads

      [sigma3, w_j] = -O_j - sum_{m=1}^{j-1} a_m [sigma3, w_{j-m}]
                      + sum_{i1+m+i2=j} w_{i1} O_m w_{i2} + d(w_{j-k}),

    and ad(sigma3) is inverted on off-diagonal matrices (eigenvalues +-2).
    Only rows 0..k of the table enter; integration constants are zero.  The
    recursion is prefix-stable, so for a table whose rows 0..k are the shared
    ones of build_psi one growing expansion per k serves every depth.
    """
    if depth < 1:
        raise DepthExhausted("wz_expand needs depth >= 1")
    k = table.k
    if table.depth < k:
        raise DepthExhausted("wz_expand needs the table rows 0..k")
    owner = _memo_owner(table, k)
    if owner is None:
        return _Riccati(table).expansion(depth)
    riccati = owner.memo.get("riccati") or owner.memo.setdefault("riccati", _Riccati(table))
    with owner.lock:
        return riccati.expansion(depth)


class _Riccati:
    """The w_j and densities of wz_expand computed so far, resumable."""

    def __init__(self, table: PsiTable):
        self.k = table.k
        self.rows = table.rows[: table.k + 1]
        self.betas: List[DiffPoly] = [DiffPoly.zero()]  # index 0 unused
        self.gammas: List[DiffPoly] = [DiffPoly.zero()]
        self.densities: List[DiffPoly] = []

    def expansion(self, depth: int) -> WZExpansion:
        k, rows, betas, gammas = self.k, self.rows, self.betas, self.gammas
        for j in range(len(betas), depth + k):
            if j <= k:
                rhs_b, rhs_c = -rows[j].bp, -rows[j].cm
            else:
                rhs_b = rhs_c = DiffPoly.zero()
            for m in range(1, min(k, j - 1) + 1):
                if not rows[m].a.is_zero():
                    rhs_b = rhs_b - rows[m].a * betas[j - m].scale(2)
                    rhs_c = rhs_c + rows[m].a * gammas[j - m].scale(2)
            for m in range(1, min(k, j - 2) + 1):
                om_b, om_c = rows[m].bp, rows[m].cm
                for i1 in range(1, j - m):
                    i2 = j - m - i1
                    rhs_b = rhs_b + betas[i1] * om_c * betas[i2]
                    rhs_c = rhs_c + gammas[i1] * om_b * gammas[i2]
            if j > k:
                rhs_b = rhs_b + betas[j - k].derive()
                rhs_c = rhs_c + gammas[j - k].derive()
            betas.append(rhs_b.scale(_HALF))
            gammas.append(rhs_c.scale(-_HALF))
        for n in range(len(self.densities) + 1, depth + 1):
            acc = DiffPoly.zero()
            for m in range(1, k + 1):
                i = n + k - m
                acc = acc + rows[m].bp * gammas[i] - rows[m].cm * betas[i]
            self.densities.append(acc.scale(_HALF))
        return WZExpansion(
            k=k,
            depth=depth,
            w=tuple(zip(betas[1 : depth + 1], gammas[1 : depth + 1])),
            zdot_densities=tuple(self.densities[:depth]),
        )


def hamiltonian_density(table: PsiTable, n: int) -> DiffPoly:
    """Density whose t_k integral generates the t_n flow: the lambda^{-(n+1)}
    coefficient of (1/2) Tr(sigma3 dZ).  Compare mod total derivatives."""
    if n < 0:
        raise DepthExhausted("hamiltonian_density needs n >= 0")
    return wz_expand(table, n + 1).density(n + 1)


def flow_from_hamiltonian(table: PsiTable, n: int) -> PdeSystem:
    """d_n u = sum_v P[u, v] * (variational derivative of the density by v)."""
    density = hamiltonian_density(table, n)
    brackets = field_bracket_table(table)
    variations = {v: density.euler(v) for v in brackets.fields}
    evolution: Dict[FieldVar, DiffPoly] = {}
    for u in brackets.fields:
        acc = DiffPoly.zero()
        for v in brackets.fields:
            p_uv = brackets.entries.get((u, v))
            if p_uv is not None and not variations[v].is_zero():
                acc = acc + p_uv * variations[v]
        evolution[u] = acc
    return PdeSystem(k=table.k, n=n, evolution=evolution)


def flow_matches_zc(table: PsiTable, n: int) -> CheckReport:
    """The Hamiltonian flow and the zero-curvature system coincide fieldwise."""
    ham = flow_from_hamiltonian(table, n)
    zc = zero_curvature(table, n)
    report = CheckReport(f"flow_matches_zc(k={table.k}, n={n})")
    for u in sorted(zc.evolution):
        residual = ham.evolution[u] - zc.evolution[u]
        report.add(f"d_{n} {u.kind}{u.index}", residual.is_zero(), residual.to_text())
    return report


def hamiltonians_commute(table: PsiTable, n1: int, n2: int) -> DiffPoly:
    """Integrand of {H^(n1), H^(n2)}; vanishes mod total derivatives."""
    d1 = hamiltonian_density(table, n1)
    d2 = hamiltonian_density(table, n2)
    brackets = field_bracket_table(table)
    acc = DiffPoly.zero()
    for (u, v), p_uv in brackets.entries.items():
        e1 = d1.euler(u)
        if e1.is_zero():
            continue
        e2 = d2.euler(v)
        if not e2.is_zero():
            acc = acc + p_uv * e1 * e2
    return acc


# -- resolvent ---------------------------------------------------------------------
#
# (1 + W) sigma3 (1 + W)^{-1} needs honest 2x2 products, so gl(2) components
# (e, a, bp, cm) for e*1 + a*sigma3 + bp*sigma+ + cm*sigma- appear here and
# only here, as series in 1/lambda truncated at the working depth.

Gl2 = Tuple[DiffPoly, DiffPoly, DiffPoly, DiffPoly]
GSeries = Dict[int, Gl2]  # order j stands for the lambda^{-j} coefficient


def _gl2_mul(x: Gl2, y: Gl2) -> Gl2:
    e1, a1, b1, c1 = x
    e2, a2, b2, c2 = y
    cross_plus = (b1 * c2 + c1 * b2).scale(_HALF)
    cross_minus = (b1 * c2 - c1 * b2).scale(_HALF)
    return (
        e1 * e2 + a1 * a2 + cross_plus,
        e1 * a2 + a1 * e2 + cross_minus,
        e1 * b2 + b1 * e2 + a1 * b2 - b1 * a2,
        e1 * c2 + c1 * e2 - a1 * c2 + c1 * a2,
    )


def _gs_mul(x: GSeries, y: GSeries, depth: int) -> GSeries:
    out: GSeries = {}
    for j1, m1 in x.items():
        for j2, m2 in y.items():
            j = j1 + j2
            if j > depth:
                continue
            prod = _gl2_mul(m1, m2)
            if j in out:
                acc = out[j]
                out[j] = tuple(p + q for p, q in zip(acc, prod))  # type: ignore[assignment]
            else:
                out[j] = prod
    return out


def resolvent_check(table: PsiTable, depth: int) -> CheckReport:
    """(1+W) sigma3 (1+W)^{-1} rebuilds the constrained series to the depth."""
    if depth > table.depth:
        raise DepthExhausted(f"resolvent_check needs table depth >= {depth}")
    wz = wz_expand(table, depth)
    zero = DiffPoly.zero()
    one = DiffPoly.const(1)
    w_only: GSeries = {
        j: (zero, zero, wz.beta(j), wz.gamma(j)) for j in range(1, depth + 1)
    }
    one_plus_w: GSeries = dict(w_only)
    one_plus_w[0] = (one, zero, zero, zero)
    # Geometric series for (1+W)^{-1}: W has no order-0 part.
    inverse: GSeries = {0: (one, zero, zero, zero)}
    power: GSeries = {0: (one, zero, zero, zero)}
    neg_w = {j: (zero, zero, -b, -g) for j, (_, _, b, g) in w_only.items()}
    for _ in range(depth):
        power = _gs_mul(power, neg_w, depth)
        if not power:
            break
        for j, m in power.items():
            if j in inverse:
                acc = inverse[j]
                inverse[j] = tuple(p + q for p, q in zip(acc, m))  # type: ignore[assignment]
            else:
                inverse[j] = m
    sigma3: GSeries = {0: (zero, one, zero, zero)}
    resolvent = _gs_mul(_gs_mul(one_plus_w, sigma3, depth), inverse, depth)
    report = CheckReport(f"resolvent(k={table.k})")
    for j in range(0, depth + 1):
        e, a, bp, cm = resolvent.get(j, (zero, zero, zero, zero))
        row = table.rows[j]
        residual_parts = (e, a - row.a, bp - row.bp, cm - row.cm)
        ok = all(p.is_zero() for p in residual_parts)
        report.add(
            f"order lambda^-{j}",
            ok,
            f"(1: {residual_parts[0]}; s3: {residual_parts[1]}; "
            f"s+: {residual_parts[2]}; s-: {residual_parts[3]})",
        )
    return report
