"""Ultralocal Poisson structure, r-matrix verification and Hamiltonians.

The free fields of a t_k table carry the ultralocal bracket

    {b_m(t), c_n(tau)} = 4 a_{m+n-k-1}(t) delta(t - tau),   a_0 = 1, a_{<0} = 0,

with b-b and c-c brackets zero; the delta factor is implicit everywhere (a
BracketTable stores only the structure polynomials).  The overall factor 4 is
the k = 1 canonical normalization {b_1, c_1} = 4 delta, used unchanged for all
k.  With it, the Lax matrix satisfies the linear r-matrix algebra

    (lambda - mu) {V_1(lambda), V_2(mu)} = [-2 Pi, V_1(lambda) + V_2(mu)],

Pi the permutation on C^2 x C^2.  Pi only permutes indices, so the right
side is -2 (1 x D - D x 1) Pi with D = V(lambda) - V(mu); sklyanin_check
compares it entrywise, as an exact bivariate polynomial identity (the pole is
cleared, never represented), with the nine entry brackets {X(lambda), Y(mu)},
X, Y in {A, B, C}, of V = ((A, B), (C, -A)).

The monodromy side: the transition matrix factorizes as
(1+W) e^Z (1+W)^{-1} with W off-diagonal, and W solves the Riccati recursion
dW = O + DW - WD - WOW order by order in 1/lambda.  The diagonal part gives
dZ = D + OW whose coefficients are the commuting Hamiltonian densities; the
flow they generate through the bracket must reproduce the zero-curvature PDEs.
Writing W = beta sigma+ + gamma sigma-, W^2 = s 1 with s = beta gamma, so

    (1+W) sigma3 (1+W)^{-1} = ((1+s) sigma3 - 2 beta sigma+ + 2 gamma sigma-) / (1-s),

three scalar series that resolvent_check matches against the constrained series.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, product
from typing import Dict, List, Tuple

from .diffpoly import DiffPoly, FieldVar
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
        return self.gradient_bracket(self.gradient(p), self.gradient(q))

    def gradient(self, p: DiffPoly) -> Dict[FieldVar, DiffPoly]:
        """The nonzero partials of p in the fields the entries name."""
        names = {w for pair in self.entries for w in pair}
        return {w: d for w in names if not (d := p.partial(w)).is_zero()}

    def gradient_bracket(self, dp: Dict[FieldVar, DiffPoly], dq: Dict[FieldVar, DiffPoly]) -> DiffPoly:
        """{p, q} from the gradients of p and q."""
        out = DiffPoly.zero()
        for (u, v), p_uv in self.entries.items():
            du, dv = dp.get(u), dq.get(v)
            if du is not None and dv is not None:
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
# Both sides are bivariate polynomials in (lambda, mu) with DiffPoly
# coefficients, held as {(e_lambda, e_mu): DiffPoly} dicts without zero values.


def _accumulate(out: Dict[Tuple[int, int], DiffPoly], key: Tuple[int, int], val: DiffPoly) -> None:
    hit = out.get(key)
    total = val if hit is None else hit + val
    if total.is_zero():
        out.pop(key, None)
    else:
        out[key] = total


def sklyanin_check(table: PsiTable) -> CheckReport:
    """Entrywise check of (lambda-mu) {V_1, V_2} = [-2 Pi, V_1 + V_2].

    The left side takes each of the nine entry brackets once.  Entry
    (2 i1 + i2, 2 j1 + j2) of the right side -2 (1 x D - D x 1) Pi is
    -2 (delta_{i1 j2} D_{i2 j1} - delta_{i2 j1} D_{i1 j2}), D = V(lambda) - V(mu).
    """
    brackets = field_bracket_table(table)
    parts = entry_polynomials(lax_matrix(table, table.k))
    if any(p.max_dorder() for part in parts for p in part.values()):
        raise ValueError("Lax matrix entries must be derivative-free")
    grads = [{e: brackets.gradient(p) for e, p in part.items()} for part in parts]
    pair_brackets = {}
    for x, grad_x in enumerate(grads):
        for y, grad_y in enumerate(grads):
            acc = pair_brackets[x, y] = {}
            for dl, dp in grad_x.items():
                for dm, dq in grad_y.items():
                    _accumulate(acc, (dl, dm), brackets.gradient_bracket(dp, dq))
    # (index into parts, sign) of each entry of V
    slot = (((0, 1), (1, 1)), ((2, 1), (0, -1)))

    report = CheckReport(f"sklyanin(k={table.k})")
    for i1, i2, j1, j2 in product(range(2), repeat=4):
        (x, sx), (y, sy) = slot[i1][j1], slot[i2][j2]
        residual: Dict[Tuple[int, int], DiffPoly] = {}
        for (dl, dm), p in pair_brackets[x, y].items():
            p = p.scale(sx * sy)
            _accumulate(residual, (dl + 1, dm), p)
            _accumulate(residual, (dl, dm + 1), -p)
        for hit, (i, j), sign in ((i1 == j2, (i2, j1), 2), (i2 == j1, (i1, j2), -2)):
            if hit:
                z, sz = slot[i][j]
                for e, p in parts[z].items():
                    p = p.scale(sign * sz)
                    _accumulate(residual, (e, 0), p)
                    _accumulate(residual, (0, e), -p)
        detail = "; ".join(f"l^{dl} m^{dm}: {p}" for (dl, dm), p in sorted(residual.items()))
        report.add(f"entry({2 * i1 + i2},{2 * j1 + j2})", not residual, detail)
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
# W = beta sigma+ + gamma sigma- squares to s * 1 with s = beta gamma, and
# anticommutes with sigma3, so (1+W)^{-1} = (1-W) g with g = 1/(1-s) and
#
#   (1+W) sigma3 (1+W)^{-1} = ((1+s) sigma3 - 2 beta sigma+ + 2 gamma sigma-) g.
#
# g = 1 + s g order by order, so (1+s) g = 2 g - 1 and the identity part is 0.


def resolvent_check(table: PsiTable, depth: int) -> CheckReport:
    """(1+W) sigma3 (1+W)^{-1} rebuilds the constrained series to the depth."""
    if depth > table.depth:
        raise DepthExhausted(f"resolvent_check needs table depth >= {depth}")
    wz = wz_expand(table, depth)
    zero = DiffPoly.zero()
    beta = [zero] + [b for b, _ in wz.w]
    gamma = [zero] + [c for _, c in wz.w]
    s, g = [zero], [DiffPoly.const(1)]  # coefficients of lambda^{-j}
    report = CheckReport(f"resolvent(k={table.k})")
    for j in range(0, depth + 1):
        if j:
            s.append(sum((beta[i] * gamma[j - i] for i in range(1, j)), zero))
            g.append(sum((s[i] * g[j - i] for i in range(1, j + 1)), zero))
        a = g[j].scale(2) if j else g[0]  # 2 g_j - delta_{j0}
        bp = sum((beta[i] * g[j - i] for i in range(1, j + 1)), zero).scale(-2)
        cm = sum((gamma[i] * g[j - i] for i in range(1, j + 1)), zero).scale(2)
        row = table.rows[j]
        residual_parts = (a - row.a, bp - row.bp, cm - row.cm)
        report.add(
            f"order lambda^-{j}",
            all(p.is_zero() for p in residual_parts),
            f"(1: {zero}; s3: {residual_parts[0]}; "
            f"s+: {residual_parts[1]}; s-: {residual_parts[2]})",
        )
    return report
