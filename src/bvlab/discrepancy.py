"""Discrepancy measurements in arithmetic progressions.

delta(f, x; q, a) is the progression sum minus the coprime average; the
Xi-corrected variant subtracts the projection onto the characters mod q
induced by a set Xi of primitive characters, rather than just the principal
contribution. Everything is computed from per-residue bucket sums, so
maximizing over residues costs O(x + phi(q)); bv_sum reads n <= x once per
block of 64 swept moduli, and for integer f sweeps only the moduli in
(Q/2, Q].

Numerical policy: bucket sums and twisted sums reuse the same masked
arrays, so the plain path and the Xi = {1} path produce bit-identical
results, which the suite checks. Only the O(m) reduction into buckets runs
in float64, for real f (a float64 ArithFn, read in place) and q >= 2: its
rows are added one after another, which rounds the real parts exactly as
the complex reduction does. The q-long bucket vector is widened to
complex128 before anything reads it, so the character sums and the
division by phi(q) stay complex. At q = 1 the reduction is one pairwise
sum, whose blocks differ between float64 and complex128, so it runs in
complex128. The Xi correction reads the characters of Xi_q from
induced_values, each the same bytes as the residue values of the
character induce() builds mod q, so no unit group is built per modulus;
each is read as a vector, chi(a) as its entry a mod q.

A block of moduli shares one sweep over the values in _SLICE_BYTES slices,
each copied once into a work buffer. Every q >= 2 of the block reduces the
full rows that start in the slice from a seed row: its running bucket
vector (zeros in the first slice), written into the buffer just before
those rows and restored from the values afterwards. numpy's axis-0
reduction starts from +0.0 and adds rows in order, and a running sum that
starts at +0.0 is never -0.0, so 0.0 + seed is the seed bit for bit and
each bucket is still summed row after row from row 0: the slicing changes
no bit. q = 1 keeps its one pairwise sum. One modulus, or one slice
covering 0..m, reduces straight from the values in one pass.

Integer path: when every value is an integer of size <= _INT_BOUND (Moebius,
Liouville, the counterexample), small_integers gives an integer copy, which
bv_sum hands to residue_buckets: int16 when every |value| <= _INT16_BOUND
(15), else int32. Every partial sum, in any order, is then an integer of
size <= 2^52, so each float64 addition of the float path is exact: its
bucket is that integer, and +0.0 when it is 0, -0.0 inputs included.
The integer path reaches the same integer in any order: each slice of
_SLICE_BYTES reduces its rows of q * ceil(_WIDE / q) values in the copy's
own dtype (int16: 2^19 values, at most 2049 rows of entries of size <= 15,
so below 2^15; int32: at most 1025 rows, so below 2^31), adds them into
an int64 running row, folds that row to q entries and converts them to
complex128, whose real part is +0.0 for 0. Wide rows take the per-row
overhead off small moduli. The bits are the float path's.

Fold: with integer buckets, bv_sum sweeps only the moduli M in (Q/2, Q].
Every q <= Q has exactly one such multiple, M = q * floor(Q/q), and
b_q[r] = sum_j b_M[r + jq]: the M/q rows of b_M added up. Those entries are
exact integers of size <= 2^52 stored as complex128, so any sum of them is
the same integer with the same bits, +0.0 (never -0.0) when it is 0: the
folded buckets are the swept ones bit for bit, with half the reads. Each
block of 64 swept moduli folds and reports its own q before the next, so a
thread holds one block's buckets (64 vectors of at most Q entries), never a
table of all of them; the rows are then merged in q order.
delta, delta_xi and twisted_sum read one modulus, for which the copy would
cost as much as the float pass, so they keep it.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import lru_cache
from typing import Optional, Sequence

import numpy as np

from .characters import (
    CharacterSet,
    DirichletCharacter,
    _unit_mask,
    induced_values,
)
from .core_arith import _factor_small
from .errors import InvariantViolationError, OutOfRangeError, ParameterError
from .multfun import ArithFn

_IMAG_TOL = 1e-9


# Slice length of one sweep in residue_buckets: half of a 2 MB per-core L2,
# so the slice stays resident while every modulus of a block reduces it.
# Shorter slices lose at 2 threads to GIL handoffs between many short reduces.
_SLICE_BYTES = 1 << 20


def _full_rows_sum(values: np.ndarray, m: int, q: int) -> np.ndarray:
    if q == 1:
        values = values[: m + 1].astype(np.complex128, copy=False)
    rows = (m + 1) // q
    return values[: rows * q].reshape(rows, q).sum(axis=0)


# Largest |f(n)| that small_integers passes to the integer path. Any
# partial sum of at most 2^32 such values, in any order, is an integer of
# size <= 2^20 * 2^32 = 2^52, so every float64 addition of the float path
# is exact and gives that integer, +0.0 for 0. An int32 slice accumulator
# adds at most 2^18 / _WIDE + 1 = 1025 rows: |sum| < 1025 * 2^20 < 2^31.
_INT_BOUND = 1 << 20

# Largest |f(n)| of an int16 copy (Moebius, Liouville, the counterexample).
# A slice of _SLICE_BYTES // 2 = 2^19 int16 values reduces at most
# 2^19 / _WIDE + 1 = 2049 rows, and 2049 * 15 < 2^15, so no int16 row sum wraps.
_INT16_BOUND = 15

# Row length of the integer path: q * ceil(_WIDE / q), a multiple of q, so
# a small modulus reduces a few long rows instead of many q-long ones.
_WIDE = 256


def small_integers(values: np.ndarray) -> Optional[np.ndarray]:
    """An integer copy of float64 `values` when each is an integer of size <= _INT_BOUND, else None.

    The copy is int16 when every |v| <= _INT16_BOUND, else int32: half the
    bytes for each sweep of residue_buckets to read. -0.0 passes as 0; NaN,
    +-inf and non-integers fail the comparisons.
    """
    if values.dtype != np.float64:
        return None
    lo, hi = values.min(), values.max()
    if not (-_INT_BOUND <= lo and hi <= _INT_BOUND):  # NaN fails here too
        return None
    ints = values.astype(np.int16 if max(-lo, hi) <= _INT16_BOUND else np.int32)
    return ints if np.array_equal(ints, values) else None


def _integer_buckets(values: np.ndarray, m: int, qs: Sequence[int]) -> list[np.ndarray]:
    step = _SLICE_BYTES // values.itemsize
    sums = [np.zeros(q * -(-_WIDE // q), dtype=np.int64) for q in qs]
    for s in range(0, m + 1, step):
        e = min(s + step, m + 1)
        for acc in sums:
            L = len(acc)
            first = -(-s // L) * L  # the full wide rows starting in [s, e)
            k = -(-(min(e, (m + 1) // L * L) - first) // L)
            if k > 0:
                rows = values[first : first + k * L].reshape(k, L)
                acc += rows.sum(axis=0, dtype=values.dtype)
    out = []
    for q, acc in zip(qs, sums):
        L = len(acc)
        tail = (m + 1) // L * L
        acc[: m + 1 - tail] += values[tail : m + 1]
        out.append(acc.reshape(L // q, q).sum(axis=0).astype(np.complex128))
    return out


def residue_buckets(values: np.ndarray, m: int, qs: Sequence[int]) -> list[np.ndarray]:
    """[b_q for q in qs]: b_q[r] = sum of values[n], 0 <= n <= m, n = r (mod q), as complex128.

    Each b_q sums the full rows of q values in order from row 0, then adds
    the partial last row, padded with zeros to q entries. Float64 `values`
    (those of a real f) are reduced in float64, except at q = 1.
    Several moduli share one sweep over `values` in slices; see the
    numerical policy above. Int16 or int32 `values` within the bounds of
    small_integers (such as its copies of float64 ones) are summed exactly
    in wide rows, each slice in the values' own dtype, with the same bits as
    their float64 originals.
    """
    if values.dtype in (np.int16, np.int32):
        return _integer_buckets(values, m, qs)
    top = max(qs)
    step = max(_SLICE_BYTES // values.itemsize, 4 * top)
    sweep = len(qs) > 1 and step <= m
    sums = [
        np.zeros(q, values.dtype) if sweep and q > 1 else _full_rows_sum(values, m, q)
        for q in qs
    ]
    if sweep:
        buf = np.empty(step + 2 * top, dtype=values.dtype)  # value n at n - s + top
        for s in range(0, m + 1, step):
            e = min(s + step, m + 1)
            lo, hi = max(s - top, 0), min(e + top, m + 1)
            buf[lo - s + top : hi - s + top] = values[lo:hi]
            for i, q in enumerate(qs):
                first = -(-s // q) * q  # the full rows starting in [s, e)
                k = -(-(min(e, (m + 1) // q * q) - first) // q)
                if q == 1 or k <= 0:
                    continue
                j = first - s + top - q  # the seed row, just before them
                buf[j : j + q] = sums[i]
                sums[i] = buf[j : j + (k + 1) * q].reshape(k + 1, q).sum(axis=0)
                if s:
                    buf[j : j + q] = values[first - q : first]
    out = []
    for q, b in zip(qs, sums):
        rows = (m + 1) // q
        last = np.zeros(q, dtype=values.dtype)
        last[: m + 1 - rows * q] = values[rows * q : m + 1]
        out.append((b + last).astype(np.complex128, copy=False))
    return out


def chunked_map(fn, items: Sequence, size: int, threads: int) -> list:
    """fn over consecutive size-long slices of items, on up to `threads` threads.

    The pool has min(threads, slices, CPUs) workers. Results come back in
    slice order, whatever the thread count.
    """
    chunks = [items[i : i + size] for i in range(0, len(items), size)]
    workers = min(threads, len(chunks), os.cpu_count() or 1)
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as ex:
            return list(ex.map(fn, chunks))
    return [fn(c) for c in chunks]


def _coprime_residues(q: int) -> np.ndarray:
    return np.flatnonzero(_unit_mask(q))


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
    b = residue_buckets(f.values[: m + 1], m, (q,))[0]
    rs = _coprime_residues(q)
    cv = chi.residue_values()
    return complex(np.sum(np.conj(cv[rs]) * b[rs]))


def plain_delta(b: np.ndarray, q: int, a: int) -> tuple[complex, complex, complex]:
    """(progression sum, coprime sum, delta) of residue a from the buckets b mod q."""
    rs = _coprime_residues(q)
    prog = complex(b[a % q])
    cop = complex(np.sum(b[rs]))
    return prog, cop, prog - cop / len(rs)


def delta(f: ArithFn, x: float, q: int, a: int) -> DiscrepancyReport:
    """Plain discrepancy: progression sum minus coprime average."""
    m = _check_args(f, x, q, a)
    prog, cop, d = plain_delta(residue_buckets(f.values[: m + 1], m, (q,))[0], q, a)
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


def delta_xi(f: ArithFn, x: float, q: int, a: int, xi: CharacterSet) -> DiscrepancyReport:
    """Xi-corrected discrepancy: subtract (1/phi) sum_{chi in Xi_q} chi(a) S_f(x, chi)."""
    m = _check_args(f, x, q, a)
    b = residue_buckets(f.values[: m + 1], m, (q,))[0]
    prog, cop, _ = plain_delta(b, q, a)
    rs = _coprime_residues(q)
    # Scalar arithmetic sticks to Python complex: numpy's complex division
    # rounds differently, and the Xi = {1} path must match delta() bitwise.
    corr = 0j
    for cv in induced_values(xi, q):
        s_chi = complex(np.sum(np.conj(cv[rs]) * b[rs]))
        corr += complex(cv[a % q]) * s_chi
    corr /= len(rs)
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
    values: np.ndarray, m: int, Ms: Sequence[int], folds: dict, xi: Optional[CharacterSet]
) -> list[tuple[int, int, float]]:
    """The rows of every q in folds[M], M in Ms, from one sweep over the moduli Ms.

    Each q divides its M, and b_q is b_M with its M / q rows of q entries
    added up: exact for integer values, see the numerical policy above.
    """
    rows = []
    for M, bM in zip(Ms, residue_buckets(values, m, Ms)):
        for q in folds[M]:
            b = bM if q == M else bM.reshape(M // q, q).sum(axis=0)
            rs = _coprime_residues(q)
            phi = len(rs)
            br = b[rs]
            if xi is None:
                corr = np.full(phi, np.sum(br))
            else:
                corr = np.zeros(phi, dtype=np.complex128)
                for cv in induced_values(xi, q):
                    cr = cv[rs]
                    corr += cr * np.sum(np.conj(cr) * br)
            corr /= phi
            dist = np.abs(br - corr)
            idx = int(np.argmax(dist))  # first maximum: smallest residue wins ties
            rows.append((q, int(rs[idx]), float(dist[idx])))
    return rows


def bv_sum(
    f: ArithFn,
    x: float,
    Q: int,
    xi: Optional[CharacterSet] = None,
    threads: int = 1,
) -> BVSumReport:
    """sum_{q <= Q} max_{(a,q)=1} |delta(f, x; q, a)|, scanning residues exhaustively.

    Work is chunked over fixed blocks of 64 swept moduli; rows and the
    ascending-q total are identical for any thread count. For integer f only
    the moduli M in (Q/2, Q] are swept, and each q <= Q is folded from
    M = q * (Q // q); see the numerical policy above.
    """
    m = int(math.floor(x))
    if m > f.limit:
        raise OutOfRangeError(f"x={x} exceeds function limit {f.limit}")
    if Q < 1:
        raise ParameterError(f"Q must be >= 1, got {Q}")
    if Q > x:
        raise ParameterError(f"Q={Q} exceeds x={x}")
    values = f.values[: m + 1]
    ints = small_integers(values)
    if ints is None:
        swept = range(1, Q + 1)
        folds = {q: [q] for q in swept}
    else:
        values = ints
        swept = range(Q // 2 + 1, Q + 1)
        folds = {M: [] for M in swept}
        for q in range(1, Q + 1):
            folds[q * (Q // q)].append(q)
    parts = chunked_map(lambda Ms: _bv_rows_for(values, m, Ms, folds, xi), swept, 64, threads)
    rows = sorted((row for part in parts for row in part), key=lambda row: row[0])
    total = 0.0
    for _q, _a, v in rows:
        total += v
    return BVSumReport(Q=Q, per_q=rows, total=total)


def sw_profile(
    f: ArithFn, q: int, a: int, X_grid: Sequence[float], A: float
) -> list[tuple[float, float, float]]:
    """Normalized discrepancy profile: (X, |delta|, |delta| (log X)^A / X), every X > 1."""
    if not all(X > 1 for X in X_grid):  # (log X)^A is real and nonzero only for X > 1
        raise ParameterError(f"every X must be > 1, got {list(X_grid)}")
    out = []
    for X in X_grid:
        try:
            scale = math.log(X) ** A
        except OverflowError:
            raise ParameterError(f"(log X)^A = {math.log(X):g}^{A:g} overflows a float") from None
        ab = abs(delta(f, X, q, a).delta)
        out.append((float(X), ab, ab * scale / X))
    return out


def _kernel_residues(q: int, a: int, xi: CharacterSet) -> np.ndarray:
    """F(r) = [r = a mod q] - (1/phi) sum_{chi in Xi_q} chi(a) conj(chi(r))."""
    rs = _coprime_residues(q)
    phi = len(rs)
    ker = np.zeros(q if q > 1 else 1, dtype=np.complex128)
    ker[a % q] = 1
    for cv in induced_values(xi, q):
        ker -= cv[a % q] * np.conj(cv) / phi
    return ker


def partial_summation_check(
    f: ArithFn, x: float, X: float, q: int, a: int, xi: CharacterSet
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
    # ker tiled over 0..m is ker[n % q] at every n
    w = f.values[: m + 1] * np.resize(_kernel_residues(q, a, xi), m + 1)
    W = np.cumsum(w)
    logs = np.arange(m + 1, dtype=np.float64)  # n < 2^53: the same floats as int64 n
    np.log(logs[1:], out=logs[1:])
    w *= logs
    del logs
    Wlog = np.cumsum(w)
    lhs = Wlog[m] - Wlog[mX]
    del w, Wlog
    # piece n = mX..m is [max(n, X), min(n + 1, x)), where D(f, t) = W[n]
    lo = np.arange(mX, m + 1, dtype=np.float64)
    hi = np.minimum(lo + 1, x)
    np.maximum(lo, X, out=lo)
    keep = hi > lo
    dlog = np.log(hi[keep])
    dlog -= np.log(lo[keep])
    del hi, lo
    integral = np.sum(W[mX:][keep] * dlog)
    rhs = W[m] * math.log(x) - W[mX] * math.log(X) - integral
    return float(abs(lhs - rhs))


def _moebius_phi(n: int) -> tuple[int, int]:
    """(mu(n), phi(n)), read off the factorization of n."""
    mu, phi = 1, 1
    for p, e in _factor_small(n):
        mu = -mu if e == 1 else 0
        phi *= (p - 1) * p ** (e - 1)
    return mu, phi


@dataclass(frozen=True)
class _SievePlan:
    """The index arrays of large_sieve_check for every modulus r <= R.

    Entry j reads flat[gather[j]], the bucket sum B_r(u) of one u coprime
    to r (flat holds B_1, B_2, ... back to back, B_r from offset r(r-1)/2),
    and adds it to group key[j]. There is one group per (r, d, c) with
    d | r, mu(r/d) != 0 and c = u mod d, and weight[g] = mu(r/d) phi(d).
    Entries and groups are ordered by r, so those of r <= Q are the first
    entry_end[Q] and group_end[Q]: one plan serves every Q <= R.
    """

    gather: np.ndarray
    key: np.ndarray
    weight: np.ndarray
    entry_end: np.ndarray  # indexed by r = 0..R
    group_end: np.ndarray  # indexed by r = 0..R
    ratio: np.ndarray  # r / phi(r) at index r - 1


@lru_cache(maxsize=None)
def _sieve_plan(R: int) -> _SievePlan:
    mu_phi = [(1, 1)] + [_moebius_phi(n) for n in range(1, R + 1)]
    gather, key, weight = [], [], []
    entry_end, group_end = [0], [0]
    for r in range(1, R + 1):
        u = _coprime_residues(r)
        entries, groups = entry_end[-1], group_end[-1]
        for d in range(1, r + 1):
            if r % d == 0 and mu_phi[r // d][0] != 0:
                gather.append(r * (r - 1) // 2 + u)
                key.append(groups + u % d)
                weight.append(np.full(d, float(mu_phi[r // d][0] * mu_phi[d][1])))
                entries += len(u)
                groups += d
        entry_end.append(entries)
        group_end.append(groups)
    return _SievePlan(
        gather=np.concatenate(gather).astype(np.intp),
        key=np.concatenate(key).astype(np.intp),
        weight=np.concatenate(weight),
        entry_end=np.array(entry_end),
        group_end=np.array(group_end, dtype=np.intp),
        ratio=np.array([r / mu_phi[r][1] for r in range(1, R + 1)]),
    )


def _primitive_sums(a: np.ndarray, Q: int, start: int, plan: _SievePlan) -> np.ndarray:
    """sum*_{psi mod r} |sum_n a_n psi(n)|^2 for r = 1..Q, n in (start, start+N].

    plan is _sieve_plan(R) for any R >= Q. See large_sieve_check.
    """
    N = len(a)
    # a_n sits at index n - start - 1 + Q, with Q zeros on either side, so
    # for every r a window of whole rows starts at some n = 0 (mod r)
    buf = np.zeros(N + 2 * Q, dtype=np.complex128)
    buf[Q : Q + N] = a
    flat = np.empty(Q * (Q + 1) // 2, dtype=np.complex128)
    for r in range(1, Q + 1):
        lo = Q - (start + 1) % r
        rows = -(-(N + Q - lo) // r)
        window = buf[lo : lo + rows * r].reshape(rows, r)
        np.add.reduce(window, axis=0, out=flat[r * (r - 1) // 2 : r * (r + 1) // 2])
    k, g = plan.entry_end[Q], plan.group_end[Q]
    b = flat[plan.gather[:k]]
    re = np.bincount(plan.key[:k], weights=b.real, minlength=g)
    im = np.bincount(plan.key[:k], weights=b.imag, minlength=g)
    return np.add.reduceat(plan.weight[:g] * (re * re + im * im), plan.group_end[:Q])


def large_sieve_check(
    coeffs: Sequence[complex], Q: int, start: int = 0
) -> tuple[float, float, float]:
    """Check the multiplicative large sieve on one coefficient vector.

    lhs = sum_{r <= Q} (r/phi(r)) sum*_{psi mod r} |sum_n a_n psi(n)|^2 with n
    running over (start, start+N]; rhs = (N + Q^2) sum |a_n|^2. The
    inequality is a theorem, so lhs > rhs raises InvariantViolationError.

    No character is computed. With B_r(u) the sum of a_n over n = u (mod r),
    the identity, for (w, r) = 1,
        sum*_{psi mod r} psi(w) = sum_{d | (r, w-1)} phi(d) mu(r/d)
    (Montgomery-Vaughan, Multiplicative Number Theory I, ch. 9) turns the
    sum over primitive characters into real sums over residue classes:
        sum*_psi |sum_u B_r(u) psi(u)|^2
          = sum_{d | r} mu(r/d) phi(d) sum_{c mod d} |sum_{(u,r)=1, u = c (d)} B_r(u)|^2.
    One gather and two bincounts form the class sums of every (r, d) at once.

    Rounding: that inner sum is signed. Each of its 2^omega(r) <= tau(r)
    terms lies in [0, phi(r) sum_u |B_r(u)|^2] (Cauchy-Schwarz over the
    phi(r)/phi(d) units in a class), so adding them up costs an absolute
    error of about eps tau(r) phi(r) sum_u |B_r(u)|^2; after the factor
    r/phi(r) and the sum over r, about eps Q log Q times rhs at most. Where
    r has no primitive character (r = 2 mod 4) the exact inner sum is 0 and
    the computed one may be a tiny negative number; it is added as it is,
    not clamped.
    """
    a = np.asarray(coeffs, dtype=np.complex128)
    N = len(a)
    if N < 1:
        raise ParameterError("need at least one coefficient")
    if Q < 1:
        raise ParameterError(f"Q must be >= 1, got {Q}")
    ss = float(np.sum(np.abs(a) ** 2))
    rhs = (N + Q * Q) * ss
    plan = _sieve_plan(1 << (Q - 1).bit_length())
    lhs = float(np.sum(plan.ratio[:Q] * _primitive_sums(a, Q, start, plan)))
    if lhs > rhs:
        raise InvariantViolationError(
            f"large sieve violated: lhs={lhs} > rhs={rhs} (N={N}, Q={Q})"
        )
    return (lhs, rhs, lhs / rhs if rhs > 0 else 0.0)
