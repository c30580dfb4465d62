"""Discrepancy measurements in arithmetic progressions.

delta(f, x; q, a) is the progression sum minus the coprime average; the
Xi-corrected variant subtracts the projection onto the characters mod q
induced by a set Xi of primitive characters, rather than just the principal
contribution. Everything is computed from per-residue bucket sums, one pass
over n <= x per modulus, so maximizing over residues costs O(x + phi(q)).

Numerical policy: bucket sums and twisted sums reuse the same masked
arrays, so the plain path and the Xi = {1} path produce bit-identical
results, which the suite checks. Only the O(m) reduction into buckets runs
in float64, for real f and q >= 2: its rows are added one after another,
which rounds the real parts exactly as the complex reduction does. The
q-long bucket vector is widened to complex128 before anything reads it, so
the character sums and the division by phi(q) stay complex. At q = 1 the
reduction is one pairwise sum, whose blocks differ between float64 and
complex128, so it runs in complex128.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .characters import (
    CharacterSet,
    DirichletCharacter,
    induced_set,
    primitive_value_matrix,
)
from .errors import InvariantViolationError, OutOfRangeError, ParameterError
from .multfun import ArithFn

_IMAG_TOL = 1e-9


def bucket_values(f: ArithFn, m: int) -> np.ndarray:
    """A view of f.values[0..m] for residue_buckets: the float64 real parts when f is real."""
    return f.values[: m + 1].real if f.is_real else f.values[: m + 1]


def residue_buckets(values: np.ndarray, m: int, q: int) -> np.ndarray:
    """b[r] = sum of values[n] over 0 <= n <= m with n = r (mod q), as complex128.

    The full rows of q values are reduced as a view of `values`; the partial
    last row, padded with zeros to q entries, is added after them. Float64
    `values` (bucket_values of a real f) are reduced in float64, except at
    q = 1; see the numerical policy above.
    """
    if q == 1:
        values = values[: m + 1].astype(np.complex128, copy=False)
    rows = (m + 1) // q
    last = np.zeros(q, dtype=values.dtype)
    last[: m + 1 - rows * q] = values[rows * q : m + 1]
    b = values[: rows * q].reshape(rows, q).sum(axis=0) + last
    return b.astype(np.complex128, copy=False)


def chunked_map(fn, items: Sequence, size: int, threads: int) -> list:
    """fn over consecutive size-long slices of items, on up to `threads` threads.

    Results come back in slice order, whatever the thread count.
    """
    chunks = [items[i : i + size] for i in range(0, len(items), size)]
    if threads > 1 and len(chunks) > 1:
        with ThreadPoolExecutor(max_workers=threads) as ex:
            return list(ex.map(fn, chunks))
    return [fn(c) for c in chunks]


def _coprime_residues(q: int) -> np.ndarray:
    if q == 1:
        return np.array([0])
    return np.flatnonzero(np.gcd(np.arange(q), q) == 1)


def _check_args(f: ArithFn, x: float, q: int, a: int) -> int:
    if q < 1:
        raise ParameterError(f"modulus must be >= 1, got {q}")
    if math.gcd(a, q) != 1:
        raise ParameterError(f"residue a={a} is not coprime to q={q}")
    m = int(math.floor(x))
    if m < 0:
        raise ParameterError(f"cutoff x={x} must be nonnegative")
    if m > f.limit:
        raise OutOfRangeError(f"x={x} exceeds function limit {f.limit}")
    return m


@dataclass
class DiscrepancyReport:
    """One discrepancy evaluation with its constituent sums kept for audit."""

    f_id: str
    x: float
    q: int
    a: int
    progression_sum: complex
    coprime_sum: complex
    xi_correction: Optional[complex]
    delta: complex
    mode: str  # "plain" or "xi"


def twisted_sum(f: ArithFn, x: float, chi: DirichletCharacter) -> complex:
    """S_f(x, chi) = sum_{n <= x} f(n) conj(chi(n))."""
    m = int(math.floor(x))
    if m > f.limit:
        raise OutOfRangeError(f"x={x} exceeds function limit {f.limit}")
    q = chi.modulus
    b = residue_buckets(bucket_values(f, m), m, q)
    rs = _coprime_residues(q)
    cv = chi.residue_values()
    return complex(np.sum(np.conj(cv[rs]) * b[rs]))


def delta(f: ArithFn, x: float, q: int, a: int, table=None) -> DiscrepancyReport:
    """Plain discrepancy: progression sum minus coprime average."""
    m = _check_args(f, x, q, a)
    b = residue_buckets(bucket_values(f, m), m, q)
    rs = _coprime_residues(q)
    prog = complex(b[a % q])
    cop = complex(np.sum(b[rs]))
    d = prog - cop / len(rs)
    if f.is_real and abs(d.imag) > _IMAG_TOL:
        raise InvariantViolationError(
            f"real-valued input produced delta with imaginary part {d.imag}"
        )
    return DiscrepancyReport(
        f_id=f.label,
        x=x,
        q=q,
        a=a,
        progression_sum=prog,
        coprime_sum=cop,
        xi_correction=None,
        delta=d,
        mode="plain",
    )


def delta_xi(
    f: ArithFn, x: float, q: int, a: int, xi: CharacterSet, table=None
) -> DiscrepancyReport:
    """Xi-corrected discrepancy: subtract (1/phi) sum_{chi in Xi_q} chi(a) S_f(x, chi)."""
    m = _check_args(f, x, q, a)
    b = residue_buckets(bucket_values(f, m), m, q)
    rs = _coprime_residues(q)
    phi = len(rs)
    prog = complex(b[a % q])
    cop = complex(np.sum(b[rs]))
    # Scalar arithmetic sticks to Python complex: numpy's complex division
    # rounds differently, and the Xi = {1} path must match delta() bitwise.
    corr = 0j
    for chi in induced_set(xi, q):
        cv = chi.residue_values()
        s_chi = complex(np.sum(np.conj(cv[rs]) * b[rs]))
        corr += complex(chi.value(a)) * s_chi
    corr /= phi
    return DiscrepancyReport(
        f_id=f.label,
        x=x,
        q=q,
        a=a,
        progression_sum=prog,
        coprime_sum=cop,
        xi_correction=complex(corr),
        delta=prog - complex(corr),
        mode="xi",
    )


@dataclass
class BVSumReport:
    """Averaged worst-residue discrepancies up to modulus Q."""

    Q: int
    per_q: list[tuple[int, int, float]]  # (q, argmax residue, |delta|)
    total: float


def _bv_rows_for(
    values: np.ndarray, m: int, qs: Sequence[int], xi: Optional[CharacterSet]
) -> list[tuple[int, int, float]]:
    rows = []
    for q in qs:
        b = residue_buckets(values, m, q)
        rs = _coprime_residues(q)
        phi = len(rs)
        if xi is None:
            corr = np.full(phi, np.sum(b[rs]))
            corr /= phi
        else:
            corr = np.zeros(phi, dtype=np.complex128)
            for chi in induced_set(xi, q):
                cv = chi.residue_values()
                s_chi = np.sum(np.conj(cv[rs]) * b[rs])
                corr += cv[rs] * s_chi
            corr /= phi
        dist = np.abs(b[rs] - corr)
        idx = int(np.argmax(dist))  # first maximum: smallest residue wins ties
        rows.append((q, int(rs[idx]), float(dist[idx])))
    return rows


def bv_sum(
    f: ArithFn,
    x: float,
    Q: int,
    xi: Optional[CharacterSet] = None,
    table=None,
    threads: int = 1,
) -> BVSumReport:
    """sum_{q <= Q} max_{(a,q)=1} |delta(f, x; q, a)|, scanning residues exhaustively.

    Work is chunked over fixed q-blocks; rows and the ascending-q total are
    identical for any thread count.
    """
    m = int(math.floor(x))
    if m > f.limit:
        raise OutOfRangeError(f"x={x} exceeds function limit {f.limit}")
    if Q < 1:
        raise ParameterError(f"Q must be >= 1, got {Q}")
    if Q > x:
        raise ParameterError(f"Q={Q} exceeds x={x}")
    # every modulus reads the values, so one contiguous copy pays for itself
    values = np.ascontiguousarray(bucket_values(f, m))
    parts = chunked_map(lambda qs: _bv_rows_for(values, m, qs, xi), range(1, Q + 1), 64, threads)
    rows = [row for part in parts for row in part]
    total = 0.0
    for _q, _a, v in rows:
        total += v
    return BVSumReport(Q=Q, per_q=rows, total=total)


def sw_profile(
    f: ArithFn, q: int, a: int, X_grid: Sequence[float], A: float, table=None
) -> list[tuple[float, float, float]]:
    """Normalized discrepancy profile: (X, |delta|, |delta| (log X)^A / X)."""
    out = []
    for X in X_grid:
        rep = delta(f, X, q, a, table)
        ab = abs(rep.delta)
        out.append((float(X), ab, ab * math.log(X) ** A / X))
    return out


def _kernel_residues(q: int, a: int, xi: CharacterSet) -> np.ndarray:
    """F(r) = [r = a mod q] - (1/phi) sum_{chi in Xi_q} chi(a) conj(chi(r))."""
    rs = _coprime_residues(q)
    phi = len(rs)
    ker = np.zeros(q if q > 1 else 1, dtype=np.complex128)
    ker[a % q] = 1
    for chi in induced_set(xi, q):
        cv = chi.residue_values()
        ker -= chi.value(a) * np.conj(cv) / phi
    return ker


def partial_summation_check(
    f: ArithFn, x: float, X: float, q: int, a: int, xi: CharacterSet, table=None
) -> float:
    """Residual of the exact partial-summation identity between f and f*log.

    Both sides of
      D(f log, x) - D(f log, X)
        = D(f, x) log x - D(f, X) log X - int_X^x D(f, t) dt/t
    are evaluated exactly (the integrand is a step function, integrated
    piecewise); the return value is |LHS - RHS|, which is floating error only.
    """
    if X > x:
        raise ParameterError(f"X={X} must not exceed x={x}")
    if X < 2:
        raise ParameterError(f"X={X} must be >= 2")
    m = _check_args(f, x, q, a)
    mX = int(math.floor(X))
    ker = _kernel_residues(q, a, xi)
    ns = np.arange(m + 1)
    w = f.values[: m + 1] * ker[ns % q]
    W = np.cumsum(w)
    logs = np.zeros(m + 1)
    logs[1:] = np.log(ns[1:])
    Wlog = np.cumsum(w * logs)

    lhs = Wlog[m] - Wlog[mX]
    pieces = np.arange(mX, m + 1)
    hi = np.minimum(pieces + 1, x).astype(float)
    lo = np.maximum(pieces, X).astype(float)
    keep = hi > lo
    integral = np.sum(W[pieces[keep]] * (np.log(hi[keep]) - np.log(lo[keep])))
    rhs = W[m] * math.log(x) - W[mX] * math.log(X) - integral
    return float(abs(lhs - rhs))


def large_sieve_check(
    coeffs: Sequence[complex], Q: int, table=None, start: int = 0
) -> tuple[float, float, float]:
    """Check the multiplicative large sieve on one coefficient vector.

    lhs = sum_{r <= Q} (r/phi(r)) sum*_{psi mod r} |sum_n a_n psi(n)|^2 with n
    running over (start, start+N]; rhs = (N + Q^2) sum |a_n|^2. The
    inequality is a theorem, so lhs > rhs raises InvariantViolationError.
    """
    a = np.asarray(coeffs, dtype=np.complex128)
    N = len(a)
    if N < 1:
        raise ParameterError("need at least one coefficient")
    if Q < 1:
        raise ParameterError(f"Q must be >= 1, got {Q}")
    ns = start + 1 + np.arange(N)
    ss = float(np.sum(np.abs(a) ** 2))
    rhs = (N + Q * Q) * ss
    lhs = 0.0
    for r in range(1, Q + 1):
        mat = primitive_value_matrix(r)
        if mat is None:
            continue
        mods = ns % r
        br = np.bincount(mods, weights=a.real, minlength=r)
        bi = np.bincount(mods, weights=a.imag, minlength=r)
        b = br + 1j * bi
        phi = len(_coprime_residues(r))
        inner = float(np.sum(np.abs(mat @ b) ** 2))
        lhs += r / phi * inner
    if lhs > rhs:
        raise InvariantViolationError(
            f"large sieve violated: lhs={lhs} > rhs={rhs} (N={N}, Q={Q})"
        )
    return (lhs, rhs, lhs / rhs if rhs > 0 else 0.0)
