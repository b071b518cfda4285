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

Every bracket goes through one Hamiltonian vector field: vector_field(dq) is
{u: sum_v P[u, v] dq_v} for every free field u, and the bracket of p and q is
the gradient of p contracted against the vector field of q.  The Hamiltonian
flow is the vector field of a density's variational gradient, and
sklyanin_check builds one vector field per (entry, mu-exponent) of V and
contracts every lambda-side gradient against it.  The bracket is ultralocal,
so BracketTable.gradient refuses a polynomial that carries a derivative.  The
bracket table is computed once per row store, and the variational gradient
of each density once per row store and n (_variations), beside the Riccati
expansion; a table that does not own the rows they read gets fresh ones.

The monodromy side: the transition matrix factorizes as
(1+W) e^Z (1+W)^{-1} with W off-diagonal, and W solves the Riccati recursion
dW = O + DW - WD - WOW order by order in 1/lambda.  The diagonal part gives
dZ = D + OW whose coefficients are the commuting Hamiltonian densities; the
flow they generate through the bracket must reproduce the zero-curvature PDEs.
WZExpansion stores W alone, and reads density n off W's orders n..n+k-1.
Writing W = beta sigma+ + gamma sigma-, W^2 = s 1 with s = beta gamma, so

    (1+W) sigma3 (1+W)^{-1} = ((1+s) sigma3 - 2 beta sigma+ + 2 gamma sigma-) / (1-s),

three scalar series that resolvent_check matches against the constrained series.
"""

from __future__ import annotations

import threading
from itertools import combinations, product

from .diffpoly import DiffPoly, FieldVar, _euler_gradient
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
        return self.vector_field(self.gradient(q)).get(u, DiffPoly.zero())

    def bracket(self, p: DiffPoly, q: DiffPoly) -> DiffPoly:
        """{p, q} for derivative-free polynomials, bilinear Leibniz extension."""
        return self.gradient_bracket(self.gradient(p), self.gradient(q))

    def gradient(self, p: DiffPoly) -> dict[FieldVar, DiffPoly]:
        """The nonzero partials of p in the free fields.  The bracket is
        ultralocal, so a polynomial with a derivative has no gradient here."""
        if p.max_dorder():
            raise ValueError(f"the bracket reads derivative-free polynomials only, got {p}")
        return {w: d for w in self.fields if not (d := p.partial(w)).is_zero()}

    def variational_gradient(self, density: DiffPoly) -> dict[FieldVar, DiffPoly]:
        """The nonzero Euler derivatives of a density by the free fields."""
        return _euler_gradient(density, self.fields)

    def vector_field(self, dq: dict[FieldVar, DiffPoly]) -> dict[FieldVar, DiffPoly]:
        """{u: sum_v P[u, v] dq_v} for every free field u: the Hamiltonian
        vector field of the gradient dq, one dot per field."""
        terms: dict[FieldVar, list] = {u: [] for u in self.fields}
        for (u, v), p_uv in self.entries.items():
            if (dv := dq.get(v)) is not None:
                terms[u].append((1, p_uv, dv))
        return {u: DiffPoly.dot(t) for u, t in terms.items()}

    def gradient_bracket(self, dp: dict[FieldVar, DiffPoly], dq: dict[FieldVar, DiffPoly]) -> DiffPoly:
        """{p, q} from the gradients of p and q: dp against the vector field of dq."""
        return _contracted(dp, self.vector_field(dq))

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


def _contracted(dp: dict[FieldVar, DiffPoly], field: dict[FieldVar, DiffPoly]) -> DiffPoly:
    """sum_u dp_u field_u, one dot."""
    return DiffPoly.dot((1, du, field[u]) for u, du in dp.items())


def field_bracket_table(table: PsiTable) -> BracketTable:
    """The ultralocal bracket of the 2k free fields, pushed through rows
    0..k-1 of the table: shared by the tables that own those rows, fresh
    for any other."""
    return _memoized(table, table.k - 1, "brackets", lambda: _bracket_table(table))


def _bracket_table(table: PsiTable) -> BracketTable:
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
    grads = [{e: brackets.gradient(p) for e, p in part.items()} for part in parts]
    # One vector field per (part, mu-exponent), each lambda-side gradient
    # contracted against it.
    fields = [{e: brackets.vector_field(dq) for e, dq in grad.items()} for grad in grads]
    # {(e_lambda, e_mu): bracket} per pair of parts, zero brackets dropped
    pair_brackets = {
        (x, y): {
            (dl, dm): p
            for dl, dp in grad_x.items()
            for dm, field in fields_y.items()
            if not (p := _contracted(dp, field)).is_zero()
        }
        for x, grad_x in enumerate(grads)
        for y, fields_y in enumerate(fields)
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


class WZExpansion:
    """The Riccati data of one table, solved on demand: w_j = beta_j sigma+ +
    gamma_j sigma-, every order from 1 up to the highest one read.

    Order lambda^(k-j) of dW = O + DW - WD - WOW reads

      [sigma3, w_j] = -O_j - sum_{m=1}^{j-1} a_m [sigma3, w_{j-m}]
                      + sum_{i1+m+i2=j} w_{i1} O_m w_{i2} + d(w_{j-k}),

    and ad(sigma3) is inverted on off-diagonal matrices (eigenvalues +-2).
    Only rows 0..k of the table enter; integration constants are zero.  Only
    W is stored: a density is one contraction of W with rows 1..k.  The
    recursion is prefix-stable, so for a table whose rows 0..k are the shared
    ones of build_psi one expansion per k, grown under its own lock, serves
    every depth.
    """

    def __init__(self, table: PsiTable):
        self._lock = threading.Lock()
        self.k = table.k
        series = table.psi_series()
        self.rows = [series.coeff(-j) for j in range(self.k + 1)]
        # 1-based orders; index 0 unused
        self.betas: list[DiffPoly] = [DiffPoly.zero()]
        self.gammas: list[DiffPoly] = [DiffPoly.zero()]

    @property
    def depth(self) -> int:
        """The highest order of W solved so far."""
        return len(self.gammas) - 1

    def beta(self, j: int) -> DiffPoly:
        return self._grown(j).betas[j]

    def gamma(self, j: int) -> DiffPoly:
        return self._grown(j).gammas[j]

    def density(self, n: int) -> DiffPoly:
        """Coefficient of lambda^{-n}, n >= 1: W's orders n..n+k-1 against rows 1..k."""
        k, rows = self.k, self.rows
        # order n is named if it is below 1; n+k-1 is the highest order read
        betas, gammas = self._grown(n)._grown(n + k - 1).betas, self.gammas
        pairs = ((rows[m], n + k - m) for m in range(1, k + 1))
        terms = [t for row, i in pairs for t in ((1, row.bp, gammas[i]), (-1, row.cm, betas[i]))]
        return DiffPoly.dot(terms).scale(1, 2)

    def _grown(self, depth: int) -> WZExpansion:
        """The expansion, with every order 1..depth of W solved."""
        if depth < 1:
            raise DepthExhausted(f"order {depth} of W or of dZ is below 1")
        # Orders are only appended, gammas after betas, so a depth already
        # reached needs no lock.
        if depth <= self.depth:
            return self
        with self._lock:
            k, rows, betas, gammas = self.k, self.rows, self.betas, self.gammas
            for j in range(len(gammas), depth + 1):
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
        return self


def _expansion(table: PsiTable) -> WZExpansion:
    """The table's Riccati expansion: shared by the tables that own rows
    0..k, fresh for any other."""
    return _memoized(table, table.k, "riccati", lambda: WZExpansion(table))


def hamiltonian_density(table: PsiTable, n: int) -> DiffPoly:
    """Density whose t_k integral generates the t_n flow: the lambda^{-(n+1)}
    coefficient of (1/2) Tr(sigma3 dZ).  Compare mod total derivatives."""
    if n < 0:
        raise DepthExhausted("hamiltonian_density needs n >= 0")
    return _expansion(table).density(n + 1)


def _variations(table: PsiTable, n: int) -> dict[FieldVar, DiffPoly]:
    """The variational gradient of hamiltonian_density(table, n): shared by
    the tables that own rows 0..k, fresh for any other."""
    return _memoized(
        table,
        table.k,
        ("variations", n),
        lambda: field_bracket_table(table).variational_gradient(hamiltonian_density(table, n)),
    )


def flow_from_hamiltonian(table: PsiTable, n: int) -> PdeSystem:
    """d_n u = sum_v P[u, v] * (variational derivative of the density by v)."""
    variations = _variations(table, n)
    return PdeSystem(k=table.k, n=n, evolution=field_bracket_table(table).vector_field(variations))


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
    d1, d2 = _variations(table, n1), _variations(table, n2)
    return field_bracket_table(table).gradient_bracket(d1, d2)


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
    if depth < 1:
        raise DepthExhausted("resolvent_check needs depth >= 1")
    series = table.psi_series()
    rows = [series.coeff(-j) for j in range(depth + 1)]
    wz = _expansion(table)
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
