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

import threading
from itertools import combinations, product

from .diffpoly import DiffPoly, FieldVar
from .fnr import PsiTable, _memoized, lax_matrix
from .loopalg import DepthExhausted, entry_polynomials
from .records import FrozenRecord
from .report import CheckReport
from .zerocurv import PdeSystem, zero_curvature

_ONE = DiffPoly.const(1)
# {b_1, c_1} = 4 delta at k = 1 fixes the global factor relative to the raw
# component bracket 2 a_{m+n-k-1}.
_NU = 2


class BracketTable(FrozenRecord):
    """Structure polynomials P[u, v] of {u(t), v(tau)} = P[u, v] delta(t-tau)."""

    __slots__ = ("k", "entries", "fields")

    def __init__(
        self, k: int, entries: dict[tuple[FieldVar, FieldVar], DiffPoly], fields: tuple[FieldVar, ...]
    ):
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "entries", entries)
        object.__setattr__(self, "fields", fields)

    def pair(self, u: FieldVar, v: FieldVar) -> DiffPoly:
        hit = self.entries.get((u, v))
        return hit if hit is not None else DiffPoly.zero()

    def bracket_field(self, u: FieldVar, q: DiffPoly) -> DiffPoly:
        """{u, q} for a derivative-free polynomial q, by the Leibniz rule."""
        return self.gradient_bracket({u: _ONE}, self.gradient(q))

    def bracket(self, p: DiffPoly, q: DiffPoly) -> DiffPoly:
        """{p, q} for derivative-free polynomials, bilinear Leibniz extension."""
        return self.gradient_bracket(self.gradient(p), self.gradient(q))

    def gradient(self, p: DiffPoly) -> dict[FieldVar, DiffPoly]:
        """The nonzero partials of p in the free fields."""
        return {w: d for w in self.fields if not (d := p.partial(w)).is_zero()}

    def variational_gradient(self, density: DiffPoly) -> dict[FieldVar, DiffPoly]:
        """The nonzero Euler derivatives of a density by the free fields."""
        return {u: e for u in self.fields if not (e := density.euler(u)).is_zero()}

    def gradient_bracket(self, dp: dict[FieldVar, DiffPoly], dq: dict[FieldVar, DiffPoly]) -> DiffPoly:
        """{p, q} from the gradients of p and q."""
        # A unit partial (a linear p, or the {u: 1} of bracket_field and
        # flow_from_hamiltonian) takes the entry unmultiplied.
        return DiffPoly.dot(
            (1, p_uv if du == _ONE else du * p_uv, dv)
            for (u, v), p_uv in self.entries.items()
            if (du := dp.get(u)) is not None and (dv := dq.get(v)) is not None
        )

    def jacobi_check(self) -> CheckReport:
        """Field-dependent bivector Jacobi identity on all field triples."""
        report = CheckReport(f"bracket_jacobi(k={self.k})")
        for u, v, z in combinations(self.fields, 3):
            # sum over the cyclic (x, y, y2) of {x, P[y, y2]}
            acc = DiffPoly.dot(
                (1, self.pair(x, w), d)
                for x, y, y2 in ((u, v, z), (v, z, u), (z, u, v))
                for w, d in self.gradient(self.pair(y, y2)).items()
            )
            report.add_residual(f"({u},{v},{z})", acc)
        return report


def field_bracket_table(table: PsiTable) -> BracketTable:
    """The ultralocal bracket of the 2k free fields, pushed through rows
    0..k-1 of the table."""
    k, series = table.k, table.psi_series()
    entries: dict[tuple[FieldVar, FieldVar], DiffPoly] = {}
    for m in range(1, k + 1):
        for n in range(k + 1 - m, k + 1):
            val = series.coeff(k + 1 - m - n).a.scale(2 * _NU)
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
    # {(e_lambda, e_mu): bracket} per pair of parts, zero brackets dropped
    pair_brackets = {
        (x, y): {
            (dl, dm): p
            for dl, dp in grad_x.items()
            for dm, dq in grad_y.items()
            if not (p := brackets.gradient_bracket(dp, dq)).is_zero()
        }
        for x, grad_x in enumerate(grads)
        for y, grad_y in enumerate(grads)
    }
    # (index into parts, sign) of each entry of V
    slot = (((0, 1), (1, 1)), ((2, 1), (0, -1)))

    report = CheckReport(f"sklyanin(k={table.k})")
    for i1, i2, j1, j2 in product(range(2), repeat=4):
        (x, sx), (y, sy) = slot[i1][j1], slot[i2][j2]
        # (weight, polynomial) contributions per (e_lambda, e_mu), one dot each
        sums: dict[tuple[int, int], list] = {}
        for (dl, dm), p in pair_brackets[x, y].items():
            sums.setdefault((dl + 1, dm), []).append((sx * sy, p, _ONE))
            sums.setdefault((dl, dm + 1), []).append((-sx * sy, p, _ONE))
        for hit, (i, j), sign in ((i1 == j2, (i2, j1), 2), (i2 == j1, (i1, j2), -2)):
            if hit:
                z, sz = slot[i][j]
                for e, p in parts[z].items():
                    sums.setdefault((e, 0), []).append((sign * sz, p, _ONE))
                    sums.setdefault((0, e), []).append((-sign * sz, p, _ONE))
        residual = {key: p for key, terms in sums.items() if not (p := DiffPoly.dot(terms)).is_zero()}
        detail = "; ".join(f"l^{dl} m^{dm}: {p}" for (dl, dm), p in sorted(residual.items()))
        report.add(f"entry({2 * i1 + i2},{2 * j1 + j2})", not residual, detail)
    return report


# -- monodromy factorization -----------------------------------------------------


class WZExpansion(FrozenRecord):
    """Riccati data: w_j = beta_j sigma+ + gamma_j sigma- and the diagonal
    densities (coefficient of lambda^{-n} in (1/2) Tr(sigma3 dZ))."""

    __slots__ = ("k", "depth", "w", "zdot_densities")

    def __init__(
        self,
        k: int,
        depth: int,
        w: tuple[tuple[DiffPoly, DiffPoly], ...],
        zdot_densities: tuple[DiffPoly, ...],
    ):
        if not len(w) == len(zdot_densities) == depth:
            raise ValueError(f"depth {depth} needs {depth} orders, got {len(w)} of W and {len(zdot_densities)} of dZ")
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "depth", depth)
        object.__setattr__(self, "w", w)
        object.__setattr__(self, "zdot_densities", zdot_densities)

    def _at(self, orders: tuple, j: int):
        """Order j of a 1-based sequence of the expansion, known for 1..depth."""
        if not 1 <= j <= self.depth:
            raise DepthExhausted(f"order {j} of W or of dZ is outside the expanded orders 1..{self.depth}")
        return orders[j - 1]

    def beta(self, j: int) -> DiffPoly:
        return self._at(self.w, j)[0]

    def gamma(self, j: int) -> DiffPoly:
        return self._at(self.w, j)[1]

    def density(self, n: int) -> DiffPoly:
        """Coefficient of lambda^{-n}, 1 <= n <= depth."""
        return self._at(self.zdot_densities, n)


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
    return _memoized(table, table.k, "riccati", lambda: _Riccati(table)).expansion(depth)


class _Riccati:
    """The w_j and densities of wz_expand computed so far, resumable; a shared
    one grows under its own lock."""

    def __init__(self, table: PsiTable):
        self._lock = threading.Lock()
        self.k = table.k
        series = table.psi_series()
        self.rows = [series.coeff(-j) for j in range(self.k + 1)]
        self.betas: list[DiffPoly] = [DiffPoly.zero()]  # index 0 unused
        self.gammas: list[DiffPoly] = [DiffPoly.zero()]
        self.densities: list[DiffPoly] = []

    def expansion(self, depth: int) -> WZExpansion:
        with self._lock:
            k, rows, betas, gammas = self.k, self.rows, self.betas, self.gammas
            for j in range(len(betas), depth + k):
                b_terms = [(-2, rows[m].a, betas[j - m]) for m in range(1, min(k, j - 1) + 1)]
                c_terms = [(2, rows[m].a, gammas[j - m]) for m in range(1, min(k, j - 1) + 1)]
                for m in range(1, min(k, j - 2) + 1):
                    # w_{i1} O_m w_{i2} over i1 + i2 = s: the pair i1 < i2 equals
                    # its mirror, so it is taken once with weight 2, the middle once.
                    om_b, om_c, s = rows[m].bp, rows[m].cm, j - m
                    for i1 in range(1, s // 2 + 1):
                        w = 1 if 2 * i1 == s else 2
                        b_terms.append((w, betas[i1] * om_c, betas[s - i1]))
                        c_terms.append((w, gammas[i1] * om_b, gammas[s - i1]))
                rhs_b, rhs_c = DiffPoly.dot(b_terms), DiffPoly.dot(c_terms)
                if j <= k:
                    rhs_b, rhs_c = rhs_b - rows[j].bp, rhs_c - rows[j].cm
                else:
                    rhs_b, rhs_c = rhs_b + betas[j - k].derive(), rhs_c + gammas[j - k].derive()
                betas.append(rhs_b.scale(1, 2))
                gammas.append(rhs_c.scale(-1, 2))
            for n in range(len(self.densities) + 1, depth + 1):
                terms = []
                for m in range(1, k + 1):
                    i = n + k - m
                    terms += ((1, rows[m].bp, gammas[i]), (-1, rows[m].cm, betas[i]))
                self.densities.append(DiffPoly.dot(terms).scale(1, 2))
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
    variations = brackets.variational_gradient(density)
    evolution = {u: brackets.gradient_bracket({u: _ONE}, variations) for u in brackets.fields}
    return PdeSystem(k=table.k, n=n, evolution=evolution)


def flow_matches_zc(table: PsiTable, n: int) -> CheckReport:
    """The Hamiltonian flow and the zero-curvature system coincide fieldwise."""
    ham = flow_from_hamiltonian(table, n)
    zc = zero_curvature(table, n)
    report = CheckReport(f"flow_matches_zc(k={table.k}, n={n})")
    for u in sorted(zc.evolution):
        residual = ham.evolution[u] - zc.evolution[u]
        report.add_residual(f"d_{n} {u}", residual)
    return report


def hamiltonians_commute(table: PsiTable, n1: int, n2: int) -> DiffPoly:
    """Integrand of {H^(n1), H^(n2)}; vanishes mod total derivatives."""
    d1, d2 = hamiltonian_density(table, n1), hamiltonian_density(table, n2)
    brackets = field_bracket_table(table)
    return brackets.gradient_bracket(brackets.variational_gradient(d1), brackets.variational_gradient(d2))


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
    series = table.psi_series()
    rows = [series.coeff(-j) for j in range(depth + 1)]
    wz = wz_expand(table, depth)
    s, g = [DiffPoly.zero()], [_ONE]  # coefficients of lambda^{-j}
    report = CheckReport(f"resolvent(k={table.k})")
    for j in range(0, depth + 1):
        if j:
            s.append(DiffPoly.dot((1, wz.beta(i), wz.gamma(j - i)) for i in range(1, j)))
            g.append(DiffPoly.dot((1, s[i], g[j - i]) for i in range(1, j + 1)))
        a = g[j].scale(2) if j else g[0]  # 2 g_j - delta_{j0}
        bp = DiffPoly.dot((-2, wz.beta(i), g[j - i]) for i in range(1, j + 1))
        cm = DiffPoly.dot((2, wz.gamma(i), g[j - i]) for i in range(1, j + 1))
        row = rows[j]
        residual_parts = (a - row.a, bp - row.bp, cm - row.cm)
        report.add(
            f"order lambda^-{j}",
            all(p.is_zero() for p in residual_parts),
            f"(1: 0; s3: {residual_parts[0]}; "
            f"s+: {residual_parts[1]}; s-: {residual_parts[2]})",
        )
    return report
