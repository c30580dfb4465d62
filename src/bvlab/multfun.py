"""The class-C function algebra.

A MultFn is a multiplicative function: a limit, a label and an array rule,
int64 arrays p, k -> complex128 f(p^k). The sieve table owns the prime
powers: PrimeTable.prime_powers lists every (p^k, p, k) with p^k <= limit,
ascending in p^k, and keeps that enumeration. The rule is called once, on
the function's first read, over the table's list at the function's limit.
The values are checked on the unit disc and kept as one read-only array,
f(p^k) only. Every later read takes a prefix of the table's three arrays
and of f's values (_prefix: to_arith, lambda_seq, restrict_to_primes,
save_pp_table, prime_power_values, pp_value). Rules that draw random values
lazily, in call order, are read in that one order.

The derived kinds (inverse, companion_split, smooth_truncation) are MultFns
whose rule gets its base f's prefix and builds its values from it, a level
k = 1, 2, ... at a time, as lambda_seq walks its recursion: level k lists
the p^k in ascending p, a prefix of the primes. Their values are not
checked: the inverse of a function outside class C may leave the disc, and
a companion's g reaches 2.

to_arith forms f(n) = f(n / p^e) f(p^e), p^e the spf-power part of n, and
finds p^e with a sieve over each block of n: writing p's powers ascending,
largest p first, leaves spf(n)'s. p^e divides n < 2^53, so the float64
quotient n / p^e is exact.

An ArithFn is a dense value array for non-multiplicative objects
(restrictions to primes, log twists, convolutions) and for feeding the
discrepancy machinery, which wants whole arrays anyway. It is float64
exactly when its values are real, built so from the start: to_arith,
restrict_to_primes and the convolutions work in float64 on real values,
and log_twist keeps float64.
Everything else is complex128.

The log-derivative coefficients lambda_f live on prime powers and satisfy
the triangular recursion  k*log(p)*f(p^k) = sum_{j=1..k} lambda_f(p^j)
f(p^{k-j}); class C means |lambda_f| is dominated by the classical von
Mangoldt function.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .core_arith import PrimeTable
from .errors import ClassViolationError, OutOfRangeError, ParameterError

_TOL = 1e-12  # slack on the unit-disc check for prime-power values
_CHUNK = 1 << 16  # longest run of values to_arith and _divisor_sweep form at once
_PRIMES = 1 << 12  # primes per chunk of _levels


class MultFn:
    """Multiplicative function from an array rule, read once.

    rule(p, k) gives f(p^k) over int64 arrays. A function derived from a
    base is called rule(p, k, fv), fv the base's values at the same prime
    powers, and its limit may not exceed the base's. The first read, under
    a lock, calls the rule over the table's prime powers up to limit and
    keeps the values alone, read-only, in the table's order; it raises
    OutOfRangeError when its table is below limit.
    """

    def __init__(self, rule: Callable, limit: int, label: str = "", base: Optional[MultFn] = None):
        if limit < 1:
            raise ParameterError(f"limit must be >= 1, got {limit}")
        if base is not None and limit > base.limit:
            raise OutOfRangeError(f"limit={limit} exceeds function limit {base.limit}")
        self.rule = rule
        self.limit = limit
        self.label = label
        self.base = base
        self._values = None
        self._lock = threading.Lock()

    def _read(self, table: PrimeTable) -> np.ndarray:
        """f(p^k) for every p^k <= limit, ascending in p^k, from the one rule call.

        A rule without a base is checked on the unit disc, NaN included; the
        first offender is the least p^k.
        """
        with self._lock:
            if self._values is None:
                if self.base is not None:
                    _pks, ps, ks, fv = _prefix(self.base, self.limit, table)
                    v = np.asarray(self.rule(ps, ks, fv), dtype=np.complex128)
                else:
                    _pks, ps, ks = table.prime_powers(self.limit)
                    v = np.asarray(self.rule(ps, ks), dtype=np.complex128)
                    bad = np.flatnonzero(~(np.hypot(v.real, v.imag) <= 1 + _TOL))
                    if len(bad):
                        p, k, z = int(ps[bad[0]]), int(ks[bad[0]]), complex(v[bad[0]])
                        raise ClassViolationError(
                            f"|f({p}^{k})| = {abs(z)} exceeds 1 (label={self.label!r})"
                        )
                v.setflags(write=False)
                self._values = v
        return self._values

    def pp_value(self, p: int, k: int, table: PrimeTable) -> complex:
        """f(p^k), looked up in the array: the slot of p^k must list this p and k."""
        pks, ps, ks, v = _prefix(self, self.limit, table)
        if k >= 1 and p >= 2 and p**k <= self.limit:
            i = int(np.searchsorted(pks, p**k))
            if i < len(pks) and ps[i] == p and ks[i] == k:
                return complex(v[i])
        raise OutOfRangeError(f"{p}^{k} is not a prime power <= {self.limit}")


def _pack(pair) -> np.ndarray:
    """A (re, im) pair of float arrays as one complex128 array, bits kept."""
    out = np.empty(np.shape(pair[0]), dtype=np.complex128)
    out.real, out.imag = pair
    return out


def _cpow(z: np.ndarray, k: np.ndarray) -> np.ndarray:
    """z ** k for integers k >= 1, formed as Python's complex ** int forms it.

    Python squares p = z repeatedly and multiplies r = 1 + 0j by p at each
    set bit of k, low bits first; every product is a _cmul.
    """
    r = np.array([np.ones(len(z)), np.zeros(len(z))])
    sq = np.array([z.real, z.imag])
    bit, top = 1, int(k.max(initial=0))
    while bit <= top:
        r = np.where((k & bit) != 0, _cmul(r, sq), r)
        bit <<= 1
        if bit <= top:
            sq = _cmul(sq, sq)
    return _pack(r)


def one(limit: int) -> MultFn:
    return MultFn(lambda p, k: np.ones(len(p)), limit, label="one")


def moebius(limit: int) -> MultFn:
    return MultFn(lambda p, k: np.where(k == 1, -1.0, 0.0), limit, label="moebius")


def liouville(limit: int) -> MultFn:
    return MultFn(lambda p, k: np.where(k % 2 == 1, -1.0, 1.0), limit, label="liouville")


def powerful(limit: int) -> MultFn:
    """The indicator of the powerful numbers: p^k -> [k >= 2]."""
    return MultFn(lambda p, k: k >= 2, limit, label="powerful")


def cm_from_arrays(
    at_primes: Callable[[np.ndarray], np.ndarray], limit: int, label: str = ""
) -> MultFn:
    """Completely multiplicative f(p^k) = at_primes(p) ** k, at_primes over int64 arrays."""
    return MultFn(
        lambda p, k: _cpow(np.asarray(at_primes(p), dtype=np.complex128), k), limit, label=label
    )


def character_fn(chi, limit: int) -> MultFn:
    """A Dirichlet character wrapped as a completely multiplicative MultFn."""
    at = chi.residue_values()
    return cm_from_arrays(lambda p: at[p % chi.modulus], limit, label=chi.serialize())


@dataclass
class ArithFn:
    """Dense values for 0..limit (index 0 unused, kept at 0).

    float64 exactly when the values are real, whatever the input dtype;
    else complex128. The array is treated as immutable after construction.
    """

    values: np.ndarray
    limit: int
    label: str = ""

    def __post_init__(self):
        if self.values.shape != (self.limit + 1,):
            raise ParameterError(
                f"values must have length limit+1={self.limit + 1}, got {self.values.shape}"
            )
        real = not (np.iscomplexobj(self.values) and self.values.imag.any())
        v = self.values.real if real else self.values  # of a complex array: strided, copied
        dtype = np.float64 if real else np.complex128
        # copy only to change the array: a caller's array is never written
        if v.dtype != dtype or not v.flags.c_contiguous or v[0] != 0:
            self.values = v.astype(dtype)
            self.values[0] = 0

    @property
    def is_real(self) -> bool:
        return self.values.dtype == np.float64


def _prefix(f: MultFn, limit: int, table: PrimeTable) -> tuple[np.ndarray, ...]:
    """(p^k, p, k, f(p^k)) up to limit: views of the table's arrays and of f's values."""
    if limit > f.limit:
        raise OutOfRangeError(f"limit={limit} exceeds function limit {f.limit}")
    fv = f._read(table)
    pks, ps, ks = table.prime_powers(limit)
    return pks, ps, ks, fv[: len(pks)]


def prime_power_values(f: MultFn, limit: int, table: PrimeTable) -> np.ndarray:
    """f(p^k) for every p^k <= limit, ascending in p^k: a prefix of f's array."""
    return _prefix(f, limit, table)[3]


def _levels(fv: np.ndarray, ks: np.ndarray, step) -> np.ndarray:
    """Solve a triangular recursion over the prime powers, one level k at a time.

    Level k holds the p^k in ascending p, a prefix of level k - 1's primes.
    The primes are taken _PRIMES at a time: step(k, lo, fs, out) returns the
    (re, im) pair of level k at the primes lo, lo + 1, ..., given fs[j - 1],
    the pair of fv at level j <= k, and out[j - 1], its own at level j < k,
    all at those primes. Every value is formed per prime, so the chunks
    leave the bits alone and bound the temporaries.
    """
    out = np.empty(len(fv), dtype=np.complex128)
    levels = [np.flatnonzero(ks == k) for k in range(1, int(ks.max(initial=0)) + 1)]
    for lo in range(0, np.count_nonzero(ks == 1), _PRIMES):
        fs, outs = [], []
        for k, at in enumerate(levels, start=1):
            i = at[lo : lo + _PRIMES]
            if not len(i):
                break
            fs.append(np.array([fv.real[i], fv.imag[i]]))
            n = len(i)
            outs.append(step(k, lo, [a[:, :n] for a in fs], [a[:, :n] for a in outs]))
            out.real[i], out.imag[i] = outs[-1]
    return out


def _cmul(a, b):
    """a * b for (re, im) pairs, formed as Python's complex * forms it.

    NumPy's own complex * may fuse or reorder, which changes last bits.
    """
    return np.array([a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0]])


_BLOCK = 1 << 18  # largest block of to_arith, in values


def to_arith(f: MultFn, limit: int, table: PrimeTable) -> ArithFn:
    """Materialize f(1..limit) densely from its prime-power values.

    f(n) = f(n / p^e) * f(p^e) with p^e the spf-power part of n. The
    cofactor is at most n/2, so over the blocks [lo, min(2 lo, lo + _BLOCK))
    each block is one gather from earlier ones, with the operands and order
    of a scalar sweep over n: the values are those of Python complex math.

    Each block finds the index of p^e among the prime powers with a sieve
    of its own. The prime powers in the block take their own indices; then
    each p^k with p <= sqrt(hi) is written at its multiples, largest p
    first and each p's powers ascending. A composite n has spf(n) <=
    sqrt(n), so its last write is from its spf, and from the largest power
    of it that divides n. n / p^e is then an exact quotient in float64,
    because p^e divides n < 2^53.

    When every prime-power value has a zero imaginary part, the sweep runs
    on one float64 array. Its values are the complex sweep's real parts up
    to the sign of zeros: a*c where the complex product forms a*c - b*d,
    b*d = +-0 (73,438 of Moebius's zeros at 10^7; none of Liouville's).

    Past the block index, the quotients, the two gathers and the products
    are formed _CHUNK values at a time in work buffers made once per call,
    so the call holds its output, one block index and a few chunks. The
    gathers are np.take with mode="clip": the indices are in range by
    construction, and the default mode buffers its output.
    """
    pks, ps, ks, pv = _prefix(f, limit, table)
    real = not pv.imag.any()
    pv = np.ascontiguousarray(pv.real) if real else pv  # np.take copies a strided source
    pkf = pks.astype(np.float64)
    # the sieve's prime powers: p <= sqrt(limit), p descending, k ascending
    small = np.flatnonzero(ps <= math.isqrt(limit))
    small = small[np.lexsort((ks[small], -ps[small]))]
    sieve = list(zip(ps[small].tolist(), pks[small].tolist(), small.tolist()))
    vals = np.zeros(limit + 1, dtype=np.float64 if real else np.complex128)
    vals[1:2] = 1.0
    seg = np.empty(min(limit, _BLOCK), dtype=np.intp)
    w = min(limit, _CHUNK)
    ramp = np.arange(w, dtype=np.float64)
    num, den = np.empty(w), np.empty(w)  # n and p^e, then the products' halves
    rest = np.empty(w, dtype=np.intp)
    v, c = np.empty(w, dtype=vals.dtype), np.empty(w, dtype=vals.dtype)
    lo = 2
    while lo <= limit:
        hi = min(2 * lo, lo + _BLOCK, limit + 1)
        i = seg[: hi - lo]
        a, b = np.searchsorted(pks, (lo, hi)).tolist()
        i[pks[a:b] - lo] = np.arange(a, b)
        top = math.isqrt(hi - 1)
        for p, pk, j in sieve:
            if p <= top and pk < hi:
                i[-lo % pk :: pk] = j
        for s in range(lo, hi, _CHUNK):
            m = min(hi - s, _CHUNK)
            j, out = i[s - lo : s - lo + m], vals[s : s + m]
            x, y, r, vs, cs = num[:m], den[:m], rest[:m], v[:m], c[:m]
            np.add(ramp[:m], s, out=x)  # n, exact in float64
            np.take(pkf, j, out=y, mode="clip")
            np.divide(x, y, out=x)
            np.copyto(r, x, casting="unsafe")
            np.take(vals, r, out=vs, mode="clip")
            np.take(pv, j, out=cs, mode="clip")
            if real:
                np.multiply(vs, cs, out=out)
            else:
                # _cmul's products and sums, on the same operands in the same order
                np.multiply(vs.real, cs.real, out=x)
                np.multiply(vs.imag, cs.imag, out=y)
                np.subtract(x, y, out=out.real)
                np.multiply(vs.real, cs.imag, out=x)
                np.multiply(vs.imag, cs.real, out=y)
                np.add(x, y, out=out.imag)
        lo = hi
    return ArithFn(values=vals, limit=limit, label=f.label)




def _divisor_sweep(
    fv: np.ndarray, gv: np.ndarray, cut: int, limit: int, ds: Optional[np.ndarray] = None
) -> np.ndarray:
    """h(n) = sum of f(d) * gv[e] over n = d*e <= limit with d, e <= cut.

    f(d) is fv[d], or, when ds is given, f's support: fv[i] = f(ds[i]) != 0
    with ds ascending, and f is 0 off ds.

    Each h(n) adds its terms in ascending d, in about 2 sqrt(limit) slice
    updates split at T = min(isqrt(limit), cut). Pass 1 sweeps d <= T, one
    slice per d. Every term with d > T has e = n/d < limit/T, so pass 2
    sweeps those terms one slice per e. It runs e in descending order:
    for a fixed n, descending e is ascending d, so each h(n) gets the same
    terms in the same order as a sweep over all d, and the same bits.
    Zero f(d) in pass 1 and zero g(e) in pass 2 are skipped: h never holds
    -0.0, so adding a signed zero would leave it unchanged, and real
    operands sweep in float64 with the complex sweep's real parts as bits.
    Over a support, pass 2 adds, per e, fv * g(e) at e*d for the d in ds
    with T < d <= min(cut, limit/e): the dense slice's terms less its zero
    products, which leave h unchanged on the same argument.

    A slice's products are formed _CHUNK at a time in one reused buffer, so
    the sweep holds h and one chunk; each h(n) still gets one product per
    slice, the same one. A support's pass 2 holds temporaries of its size.
    """
    h = np.zeros(limit + 1, dtype=np.result_type(fv, gv))
    buf = np.empty(min(limit, _CHUNK), dtype=h.dtype)
    cut = max(cut, 0)
    t = min(math.isqrt(limit), cut)
    if ds is None:
        small = ((d, fv[d]) for d in range(1, t + 1))
    else:
        n = int(np.searchsorted(ds, t, side="right"))
        small = zip(ds[:n].tolist(), fv[:n])
        ds, fv = ds[n:], fv[n:]  # the support beyond T, for pass 2
    for d, fd in small:
        if fd != 0:
            ln = min(cut, limit // d)
            for a in range(1, ln + 1, _CHUNK):
                b = min(a + _CHUNK, ln + 1)
                h[d * a : d * (b - 1) + 1 : d] += np.multiply(fd, gv[a:b], out=buf[: b - a])
    for e in range(min(cut, limit // (t + 1)), 0, -1):
        ge = gv[e]
        if ge != 0:
            top = min(cut, limit // e)
            if ds is not None:
                k = np.searchsorted(ds, top, side="right")
                h[e * ds[:k]] += np.multiply(fv[:k], ge)
                continue
            for a in range(t + 1, top + 1, _CHUNK):
                b = min(a + _CHUNK, top + 1)
                h[e * a : e * (b - 1) + 1 : e] += np.multiply(fv[a:b], ge, out=buf[: b - a])
    return h


@dataclass
class Support:
    """A function by its nonzero values: f(ds[i]) = values[i] != 0, ds ascending in 1..limit.

    For an operand that is sparse by construction, such as the companion
    split's g, which lives on the powerful numbers.
    """

    ds: np.ndarray
    values: np.ndarray
    limit: int
    label: str = ""

    @classmethod
    def of(cls, f: ArithFn) -> Support:
        ds = np.flatnonzero(f.values)
        return cls(ds, f.values[ds], f.limit, f.label)


def dirichlet_convolve(f: ArithFn | Support, g: ArithFn, limit: int) -> ArithFn:
    """h(n) = sum_{d|n} f(d) g(n/d) for all n <= limit.

    Each h(n) adds f(d) g(n/d) in ascending d, in two passes split at
    T = isqrt(limit) (see _divisor_sweep). An f given by its Support gives
    the same bytes as its dense values.
    """
    if f.limit < limit or g.limit < limit:
        raise ParameterError(
            f"operands defined to {f.limit} and {g.limit}; need {limit}"
        )
    ds = f.ds if isinstance(f, Support) else None
    h = _divisor_sweep(f.values, g.values, limit, limit, ds)
    return ArithFn(values=h, limit=limit, label=f"({f.label}*{g.label})")


def inverse(f: MultFn, limit: int) -> MultFn:
    """Convolution inverse g: (f*g)(n) = [n=1], via the prime-power recursion.

    g(p^k) = -sum_{j=1..k} f(p^j) g(p^{k-j}), with g(1) = 1, summed from 0 in
    ascending j, for all primes at once, one level k at a time. The inverse
    of a class-C function is class-C, but other inputs may blow up.
    """

    def step(k, _lo, fs, gs):
        acc = np.zeros(fs[0].shape)
        for j in range(1, k + 1):
            acc = acc + _cmul(fs[j - 1], (1.0, 0.0) if j == k else gs[k - j - 1])
        return -acc

    return MultFn(lambda p, k, fv: _levels(fv, k, step), limit, label=f"inv({f.label})", base=f)


@dataclass
class LambdaSeq:
    """lambda_f(n) for n <= limit, stored on the prime powers, where it lives.

    pp_values[i] is lambda_f(prime_powers[i]), prime_powers ascending as
    PrimeTable.prime_powers lists them. is_class_c records whether
    |lambda_f(p^k)| <= log p + 1e-9 everywhere in range; first_violation is
    the least offending prime power, if any.
    """

    prime_powers: np.ndarray
    pp_values: np.ndarray
    limit: int
    is_class_c: bool
    first_violation: Optional[int] = None


def lambda_seq(f: MultFn, limit: int, table: PrimeTable) -> LambdaSeq:
    """lambda_f on the prime powers up to limit, with the class-C verdict.

    The triangular recursion runs for all primes at once, one level k at a
    time, with each product and |.| formed as Python's scalar complex math
    forms it. log p is taken once per prime, by math.log.
    """
    pks, ps, ks, fv = _prefix(f, limit, table)
    primes = ps[ks == 1]
    logp = np.fromiter(map(math.log, memoryview(primes)), dtype=np.float64, count=len(primes))
    worst = []  # the least violating p^k of each level and chunk

    def step(k, lo, fs, lams):
        logs = logp[lo : lo + fs[0].shape[1]]
        lam = _cmul(_cmul(fs[k - 1], (k, 0.0)), (logs, 0.0))
        for j in range(1, k):
            lam = lam - _cmul(lams[j - 1], fs[k - j - 1])
        bad = np.flatnonzero(np.hypot(lam[0], lam[1]) > logs + 1e-9)
        if len(bad):
            worst.append(int(primes[lo + bad[0]]) ** k)
        return lam

    vals = _levels(fv, ks, step)
    first = min(worst, default=None)
    return LambdaSeq(pks, vals, limit, is_class_c=first is None, first_violation=first)


def class_c_check(f: MultFn, limit: int, table: PrimeTable) -> tuple[bool, Optional[int]]:
    """True iff |lambda_f(p^k)| <= log p + 1e-9 for all p^k <= limit.

    On failure, returns the smallest violating prime power as witness.
    """
    lam = lambda_seq(f, limit, table)
    return (lam.is_class_c, lam.first_violation)


def smooth_truncation(f: MultFn, y: float) -> MultFn:
    """f_y: agrees with f on prime powers with p <= y, zero above."""
    if y < 2:
        raise ParameterError(f"smoothness bound must be >= 2, got {y}")
    return MultFn(
        lambda p, k, fv: np.where(p <= y, fv, 0), f.limit, label=f"{f.label}|smooth<={y:g}", base=f
    )


def restrict_to_primes(f: MultFn, table: PrimeTable, limit: int) -> ArithFn:
    """f * 1_P: the values of f at primes up to limit, zero elsewhere."""
    _pks, ps, ks, pv = _prefix(f, limit, table)
    pv, ps = pv[ks == 1], ps[ks == 1]
    pv = pv if pv.imag.any() else pv.real
    vals = np.zeros(limit + 1, dtype=pv.dtype)
    vals[ps] = pv
    return ArithFn(values=vals, limit=limit, label=f"{f.label}|primes")


def log_twist(f: ArithFn, normalize_by: float) -> ArithFn:
    """n -> f(n) log(n) / normalize_by."""
    if normalize_by <= 0:
        raise ParameterError(f"normalize_by must be positive, got {normalize_by}")
    logs = np.arange(f.limit + 1, dtype=np.float64)  # n < 2^53: the same floats as int64 n
    np.log(logs[1:], out=logs[1:])
    v = f.values * logs
    # NumPy divides a complex array by a real as a product with 1 / real; float64 rounds alike
    if v.dtype == np.float64:
        v *= 1.0 / normalize_by
    else:
        v /= normalize_by
    return ArithFn(values=v, limit=f.limit, label=f"{f.label}*log/{normalize_by:g}")


def truncated_convolution(f: ArithFn, g: ArithFn, cutoff: float, limit: int) -> ArithFn:
    """h(r) = sum over r = m*n with both m <= cutoff and n <= cutoff."""
    if f.limit < limit or g.limit < limit:
        raise ParameterError(
            f"operands defined to {f.limit} and {g.limit}; need {limit}"
        )
    cut = min(int(math.floor(cutoff)), limit)
    h = _divisor_sweep(f.values, g.values, cut, limit)
    return ArithFn(values=h, limit=limit, label=f"({f.label}*{g.label})|cut{cutoff:g}")


def companion_split(f: MultFn, limit: int) -> tuple[MultFn, MultFn]:
    """Split f = g_powerful * f_star.

    f_star is completely multiplicative with f_star(p) = f(p); the
    correction g has g(p) = 0 and g(p^k) = f(p^k) - f(p) f(p^{k-1}) for
    k >= 2, so it is supported on powerful numbers and |g(p^k)| <= 2.
    There are about 2.2 sqrt(limit) of them, so a convolution reads g's
    dense values as a Support.
    """

    def star(p, k, fv):
        at = k == 1  # the primes, ascending
        return _cpow(fv[at][np.searchsorted(p[at], p)], k)

    def correction(k, _lo, fs, _g):
        return np.zeros(fs[0].shape) if k == 1 else fs[k - 1] - _cmul(fs[0], fs[k - 2])

    f_star = MultFn(star, limit, label=f"{f.label}*cm", base=f)
    g_powerful = MultFn(
        lambda p, k, fv: _levels(fv, k, correction), limit, label=f"{f.label}|powerful", base=f
    )
    return f_star, g_powerful
