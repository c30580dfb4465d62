"""Combinatorial decompositions of smooth numbers and bilinear sums.

Every smooth n above a threshold V0 factors uniquely as n = u*v with the
large primes collected greedily into v: multiply prime factors in
descending order until the product first exceeds V0. The three constraints
P_plus(u) <= P_minus(v), v > V0, v / P_minus(v) <= V0 pin the split down,
which turns character sums over smooth numbers into bilinear double sums;
dyadic cells cover the (u, v, P_plus, P_minus) tuples those sums range
over, and the bilinear form is bounded through the large sieve.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .characters import CharacterSet, DirichletCharacter, primitive_value_matrix
from .core_arith import PrimeTable, factorize, p_plus_minus_arrays
from .discrepancy import _coprime_residues, chunked_map, delta_xi
from .errors import DomainError, OutOfRangeError, ParameterError
from .multfun import MultFn, dirichlet_convolve, to_arith, truncated_convolution


@dataclass(frozen=True)
class SmoothSplit:
    """n = u * v with the large primes of n gathered into v."""

    n: int
    u: int
    v: int
    P_plus_u: int
    P_minus_v: int


def smooth_factor_split(n: int, V0: float, table: PrimeTable) -> SmoothSplit:
    """The unique split of n > V0: descending primes go into v until v > V0."""
    if V0 < 1:  # v / P_minus(v) >= 1, so no split has v / P_minus(v) <= V0 < 1
        raise ParameterError(f"V0={V0} must be >= 1")
    if n > table.limit:
        raise OutOfRangeError(f"n={n} exceeds table limit {table.limit}")
    if n <= V0:
        raise DomainError(
            f"n={n} <= V0={V0}: such n belong to the short initial sum, not the split"
        )
    primes_desc: list[int] = []
    for p, e in reversed(factorize(n, table)):
        primes_desc.extend([p] * e)
    v = 1
    taken = 0
    for p in primes_desc:
        v *= p
        taken += 1
        if v > V0:
            break
    u = n // v
    p_plus_u = max(primes_desc[taken:], default=1)
    p_minus_v = primes_desc[taken - 1]
    assert v / p_minus_v <= V0, "greedy split must stop at the first crossing"
    return SmoothSplit(n=n, u=u, v=v, P_plus_u=p_plus_u, P_minus_v=p_minus_v)


def split_sum_assemble(
    f: MultFn,
    X: float,
    y: float,
    V0: float,
    psi: DirichletCharacter,
    table: PrimeTable,
    threads: int = 1,
) -> complex:
    """Reassemble S_f(X, psi) from the short sum plus the u,v double sum.

    Evaluates  S_f(V0, psi)
             + sum_{V0 < v <= y*V0, v/P_minus(v) <= V0}
                 sum_{u <= X/v, P_plus(u) <= P_minus(v)} f(uv) conj(psi)(uv)
    by direct double summation. Requires V0 = sqrt(X/y); for f supported on
    y-smooth integers this equals the twisted sum, which the tests check.
    """
    if abs(V0 - math.sqrt(X / y)) > 1e-9:
        raise ParameterError(f"V0={V0} does not match sqrt(X/y)={math.sqrt(X / y)}")
    mX = int(math.floor(X))
    if mX > table.limit:
        raise OutOfRangeError(f"X={X} exceeds table limit {table.limit}")
    fd = to_arith(f, mX, table).values
    r = psi.modulus
    cbar = np.conj(psi.residue_values())

    total = 0j
    for n in range(1, int(math.floor(min(V0, mX))) + 1):
        total += fd[n] * cbar[n % r]

    v_lo = int(math.floor(V0)) + 1
    v_hi = int(math.floor(min(y * V0, mX)))
    # u <= X / v < X / V0 and v <= v_hi: both reach about sqrt(X * y)
    pplus, pminus = p_plus_minus_arrays(max(min(mX, int(X / max(V0, 1)) + 1), v_hi), table)

    def chunk_sum(vs: range) -> complex:
        acc = 0j
        for v in vs:
            pm = int(pminus[v])
            if v / pm > V0:
                continue
            umax = int(X // v)
            if umax < 1:
                continue
            us = np.flatnonzero(pplus[1 : umax + 1] <= pm) + 1
            if len(us) == 0:
                continue
            uv = us * v
            acc += complex(np.sum(fd[uv] * cbar[uv % r]))
        return acc

    parts = chunked_map(chunk_sum, range(v_lo, v_hi + 1), 512, threads)
    for part in parts:  # ascending-v reduction
        total += part
    return total


@dataclass(frozen=True)
class DyadicCell:
    """A dyadic block [U,2U) x [V,2V) x [P_plus,2P_plus) x [P_minus,2P_minus)."""

    U: int
    V: int
    P_plus: int
    P_minus: int


def _pows2_upto(hi: float) -> list[int]:
    out = []
    p = 1
    while p <= hi:
        out.append(p)
        p *= 2
    return out


def dyadic_cells(X: float, y: float, V0: float) -> list[DyadicCell]:
    """All powers-of-two cells that can hold a realized split tuple.

    A cell is kept iff each of its four dyadic windows meets the range the
    corresponding quantity actually takes: v in (V0, min(y*V0, X)],
    u <= X/v, P_minus(v) in [2, y], P_plus(u) in [1, y] (u = 1 has
    P_plus = 1), and P_plus < 2*P_minus. Note the v-window test is
    2V > V0, not V > V0: the first dyadic block straddling V0 is needed
    for covering.
    """
    if V0 < 1 or X < V0:
        raise ParameterError(f"need X >= V0 >= 1, got X={X}, V0={V0}")
    if y < 2:
        raise ParameterError(f"need y >= 2, got y={y}")
    cells = []
    v_cap = math.floor(min(y * V0, X))
    for V in _pows2_upto(v_cap):
        v_lo = max(V, math.floor(V0) + 1)
        v_hi = min(2 * V - 1, v_cap)
        if v_lo > v_hi:
            continue
        u_cap = math.floor(X / v_lo)
        for U in _pows2_upto(u_cap):
            for P_minus in _pows2_upto(y):
                if P_minus < 2:
                    continue
                for P_plus in _pows2_upto(min(y, 2 * P_minus - 1)):
                    cells.append(DyadicCell(U=U, V=V, P_plus=P_plus, P_minus=P_minus))
    return cells


def bilinear_ls_eval(
    a_coeffs, b_coeffs, U: int, V: int, R: float
) -> tuple[float, float, float]:
    """Character-averaged bilinear sum against its large-sieve benchmark.

    lhs = sum_{R < r <= 2R} (1/phi(r)) sum*_{psi mod r}
            |sum_{U <= u < 2U} a(u) conj(psi)(u)| * |sum_v b(v) conj(psi)(v)|
    bound = (1/R)(sqrt(U)+R)(sqrt(V)+R)sqrt(UV).
    Returns (lhs, bound, lhs/bound); the ratio tracks the implied constant.
    """
    if U < 1 or V < 1:
        raise ParameterError(f"U and V must be >= 1, got U={U}, V={V}")
    a = np.asarray(a_coeffs, dtype=np.complex128)
    b = np.asarray(b_coeffs, dtype=np.complex128)
    if len(a) != U or len(b) != V:
        raise ParameterError(
            f"coefficient blocks must have lengths U={U} and V={V}, got {len(a)}, {len(b)}"
        )
    if np.any(np.abs(a) > 1 + 1e-12) or np.any(np.abs(b) > 1 + 1e-12):
        raise ParameterError("coefficients must lie in the closed unit disc")
    if R < 1:
        raise ParameterError(f"R must be >= 1, got {R}")
    us = U + np.arange(U)
    vs = V + np.arange(V)
    lhs = 0.0
    for r in range(int(math.floor(R)) + 1, int(math.floor(2 * R)) + 1):
        mat = primitive_value_matrix(r)
        if mat is None:
            continue
        ba_r = np.bincount(us % r, weights=a.real, minlength=r)
        ba_i = np.bincount(us % r, weights=a.imag, minlength=r)
        bb_r = np.bincount(vs % r, weights=b.real, minlength=r)
        bb_i = np.bincount(vs % r, weights=b.imag, minlength=r)
        ba = ba_r + 1j * ba_i
        bb = bb_r + 1j * bb_i
        cbar = np.conj(mat)
        inner = float(np.sum(np.abs(cbar @ ba) * np.abs(cbar @ bb)))
        lhs += inner / len(_coprime_residues(r))
    bound = (math.sqrt(U) + R) * (math.sqrt(V) + R) * math.sqrt(U * V) / R
    return (lhs, bound, lhs / bound)


def truncation_difference_check(
    f: MultFn,
    g: MultFn,
    x: float,
    C: float,
    xi: CharacterSet,
    q: int,
    a: int,
    table: PrimeTable,
) -> float:
    """Residual of the exact truncated-convolution difference identity.

    With L = (log x)^C and y = x/L, both sides of

      D((f*g), x; q, a) - D((f*g)_trunc, x; q, a)
        = sum_{m <= L, (m,q)=1} f(m) (D(g, x/m; q, a/m) - D(g, y; q, a/m))
        + sum_{n <= L, (n,q)=1} g(n) (D(f, x/n; q, a/n) - D(f, y; q, a/n))

    are evaluated exactly (D = delta_xi, truncation cutoff y on both
    factors, a/m meaning a * m^{-1} mod q; terms with gcd(m, q) > 1 vanish
    identically and are skipped). Requires y >= (log x)^{2C} so that no
    product m*n <= x has both factors above y.
    """
    if not x > 1:
        raise ParameterError(f"x={x} must be > 1, so that log x > 0")
    if math.gcd(a, q) != 1:
        raise ParameterError(f"residue a={a} is not coprime to q={q}")
    try:
        L = math.log(x) ** C
        y = x / L
    except (OverflowError, ZeroDivisionError):
        raise DomainError(f"(log x)^C = {math.log(x):g}^{C:g} is out of float range") from None
    if y < L * L:
        raise DomainError(
            f"y={y:g} < (log x)^(2C)={L * L:g}: the two truncation tails overlap "
            "and the difference identity is not exact"
        )
    mx = int(math.floor(x))
    fd = to_arith(f, mx, table)
    gd = to_arith(g, mx, table)
    # each convolution is freed after its one read: fd, gd and one convolution are held
    d_full = delta_xi(dirichlet_convolve(fd, gd, mx), x, q, a, xi).delta
    lhs = d_full - delta_xi(truncated_convolution(fd, gd, y, mx), x, q, a, xi).delta
    rhs = 0j
    for side in range(2):
        outer, innerfn = ((fd, gd), (gd, fd))[side]
        for m in range(1, int(math.floor(L)) + 1):
            if math.gcd(m, q) != 1 or outer.values[m] == 0:
                continue
            am = (a * pow(m, -1, q)) % q
            dx = delta_xi(innerfn, x / m, q, am, xi).delta
            dy = delta_xi(innerfn, y, q, am, xi).delta
            rhs += outer.values[m] * (dx - dy)
    return float(abs(lhs - rhs))
