"""The class-C function algebra.

A MultFn is a multiplicative function given by a prime-power rule; values
at arbitrary n come from the factorization. Its one materialized form is
the prime-power array: prime_powers enumerates (p^k, p, k) up to a limit,
ascending in p^k, and one values_at call reads f at all of them in that
order (prime_power_values). to_arith, lambda_seq and save_pp_table each
make that one call on the arrays of their own prime_powers call.

to_arith forms f(n) = f(n / p^e) f(p^e), p^e the spf-power part of n, and
finds p^e with a sieve over each block of n: writing p's powers ascending,
largest p first, leaves spf(n)'s. p^e divides n < 2^53, so the float64
quotient n / p^e is exact.

There are two kinds of rule. The library's functions (builtins,
characters, completely multiplicative functions, tables, inverses,
companions, truncations, the counterexample) have array rules: int64
arrays p, k -> complex128 f(p^k), called once per values_at call, so once
per materialized function. A rule (p, k) -> f(p^k) on Python scalars, as a
caller may pass to MultFn, is called once per prime power and memoized.

An ArithFn is a dense value array for non-multiplicative objects
(restrictions to primes, log twists, convolutions) and for feeding the
discrepancy machinery, which wants whole arrays anyway. It is float64
exactly when its values are real, built so from the start: to_arith,
restrict_to_primes and the convolutions work in float64 on real values,
delta_fn and script_P_indicator are float64, and log_twist keeps float64.
Everything else is complex128.

The log-derivative coefficients lambda_f live on prime powers and satisfy
the triangular recursion  k*log(p)*f(p^k) = sum_{j=1..k} lambda_f(p^j)
f(p^{k-j}); class C means |lambda_f| is dominated by the classical von
Mangoldt function.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Optional

import numpy as np

from .core_arith import PrimeTable
from .errors import ClassViolationError, OutOfRangeError, ParameterError

_TOL = 1e-12  # slack on the unit-disc check for prime-power values


def _violation(p: int, k: int, v: complex, label: str) -> ClassViolationError:
    return ClassViolationError(f"|f({p}^{k})| = {abs(v)} exceeds 1 (label={label!r})")


class MultFn:
    """Multiplicative function from a prime-power rule.

    MultFn(rule, ...) takes a scalar rule (p, k) -> f(p^k), memoized per
    instance; the memo is write-once per prime power (idempotent overwrites
    of identical values), so concurrent evaluation is safe.
    MultFn.from_arrays(rule, ...) takes an array rule, int64 arrays p, k ->
    f(p^k) as complex128, evaluated anew on each values_at call; pp_value
    memoizes its one-entry calls in the same memo. `rule` holds either kind,
    and `_arrays` says which.
    """

    def __init__(
        self,
        rule: Callable[[int, int], complex],
        limit: int,
        label: str = "",
        validate: bool = True,
    ):
        if limit < 1:
            raise ParameterError(f"limit must be >= 1, got {limit}")
        self.rule = rule
        self.limit = limit
        self.label = label
        self.validate = validate
        self._arrays = False
        self._pp: dict[int, complex] = {}

    @classmethod
    def from_arrays(
        cls,
        rule: Callable[[np.ndarray, np.ndarray], np.ndarray],
        limit: int,
        label: str = "",
        validate: bool = True,
    ) -> "MultFn":
        f = cls(rule, limit, label, validate)
        f._arrays = True
        return f

    def values_at(self, p: np.ndarray, k: np.ndarray) -> np.ndarray:
        """f(p^k) for int64 arrays p, k, as complex128, in the order given.

        A scalar rule goes through pp_value once per entry, in that order.
        An array rule is called once; when validating, the least p^k whose
        value lies outside the unit disc (NaN included) is reported.
        """
        if not self._arrays:
            return np.array(
                [self.pp_value(a, b) for a, b in zip(p.tolist(), k.tolist())], dtype=complex
            )
        v = np.asarray(self.rule(p, k), dtype=np.complex128)
        if self.validate:
            bad = np.flatnonzero(~(np.hypot(v.real, v.imag) <= 1 + _TOL))
            if len(bad):
                i = bad[np.argmin(p[bad] ** k[bad])]
                raise _violation(int(p[i]), int(k[i]), complex(v[i]), self.label)
        return v

    def pp_value(self, p: int, k: int) -> complex:
        """f(p^k), memoized (an array rule runs on the one entry); checked when validating."""
        key = p**k
        v = self._pp.get(key)
        if v is None:
            if self._arrays:
                v = complex(self.values_at(np.array([p], np.int64), np.array([k], np.int64))[0])
            else:
                v = complex(self.rule(p, k))
                if self.validate and not abs(v) <= 1 + _TOL:  # NaN fails too
                    raise _violation(p, k, v, self.label)
            self._pp[key] = v
        return v


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


def _per_prime(p: np.ndarray, at_primes: Callable[[np.ndarray], np.ndarray]) -> np.ndarray:
    """at_primes(ps) over the distinct ps of p, read once in ascending order, spread over p."""
    ps, where = np.unique(p, return_inverse=True)
    return np.asarray(at_primes(ps), dtype=np.complex128)[where]


def one(limit: int) -> MultFn:
    return MultFn.from_arrays(lambda p, k: np.ones(len(p)), limit, label="one")


def moebius(limit: int) -> MultFn:
    return MultFn.from_arrays(lambda p, k: np.where(k == 1, -1.0, 0.0), limit, label="moebius")


def liouville(limit: int) -> MultFn:
    return MultFn.from_arrays(
        lambda p, k: np.where(k % 2 == 1, -1.0, 1.0), limit, label="liouville"
    )


def powerful(limit: int) -> MultFn:
    """The indicator of the powerful numbers: p^k -> [k >= 2]."""
    return MultFn.from_arrays(lambda p, k: k >= 2, limit, label="powerful")


def cm_from_arrays(
    at_primes: Callable[[np.ndarray], np.ndarray],
    limit: int,
    label: str = "",
    validate: bool = True,
) -> MultFn:
    """Completely multiplicative f(p^k) = at_primes(p) ** k, at_primes over int64 arrays."""
    return MultFn.from_arrays(
        lambda p, k: _cpow(np.asarray(at_primes(p), dtype=np.complex128), k),
        limit,
        label=label,
        validate=validate,
    )


def character_fn(chi, limit: int) -> MultFn:
    """A Dirichlet character wrapped as a completely multiplicative MultFn."""
    at = chi.residue_values()
    return cm_from_arrays(lambda p: at[p % chi.modulus], limit, label=chi.serialize())


def cm_multfn(prime_value: Callable[[int], complex], limit: int, label: str = "") -> MultFn:
    """Completely multiplicative function from a value-at-primes rule.

    prime_value is called once per distinct prime of each values_at call,
    in ascending order.
    """

    def at_primes(ps: np.ndarray) -> np.ndarray:
        return np.array([complex(prime_value(q)) for q in ps.tolist()], dtype=complex)

    return cm_from_arrays(lambda p: _per_prime(p, at_primes), limit, label=label)


def evaluate(f: MultFn, n: int, table: PrimeTable) -> complex:
    """f(n) as the product of rule(p^k) over the factorization of n."""
    if n < 1:
        raise ParameterError(f"n must be positive, got {n}")
    if n > f.limit:
        raise OutOfRangeError(f"n={n} exceeds function limit {f.limit}")
    if n > table.limit:
        raise OutOfRangeError(f"n={n} exceeds table limit {table.limit}")
    spf = table.spf
    out = 1 + 0j
    m = n
    while m > 1:
        p = int(spf[m])
        k = 0
        while m % p == 0:
            m //= p
            k += 1
        out *= f.pp_value(p, k)
    return out


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


def prime_powers(limit: int, table: PrimeTable) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(p^k, p, k) for every prime power p^k <= limit, ascending in p^k."""
    if limit > table.limit:
        raise OutOfRangeError(f"limit={limit} exceeds table limit {table.limit}")
    primes = table.primes[table.primes <= limit].astype(np.int64)
    levels = [primes]  # levels[k - 1]: the p^k <= limit, over a prefix of the primes
    while len(levels[-1]):
        pk = levels[-1]
        # p^(k+1) <= limit, tested without overflow
        n = int(np.count_nonzero(primes[: len(pk)] <= limit // pk))
        levels.append(pk[:n] * primes[:n])
    pk = np.concatenate(levels)
    p = np.concatenate([primes[: len(level)] for level in levels])
    k = np.repeat(np.arange(1, len(levels) + 1), [len(level) for level in levels])
    order = np.argsort(pk, kind="stable")
    return pk[order], p[order], k[order]


def prime_power_values(f: MultFn, limit: int, table: PrimeTable) -> np.ndarray:
    """f(p^k) for the prime powers of prime_powers(limit, table), in its order.

    One f.values_at call in ascending p^k order: an array rule is called
    once per function, a scalar rule once per prime power, in that order.
    Rules that draw random values lazily, in call order, depend on it, and
    the derived kinds (inverse, companion_split, smooth_truncation) read
    their f in the same order.
    """
    _pk, ps, ks = prime_powers(limit, table)
    return f.values_at(ps, ks)


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
    """
    if limit > f.limit:
        raise OutOfRangeError(f"limit={limit} exceeds function limit {f.limit}")
    pks, ps, ks = prime_powers(limit, table)
    pv = f.values_at(ps, ks)
    real = not pv.imag.any()
    pkf = pks.astype(np.float64)
    # the sieve's prime powers: p <= sqrt(limit), p descending, k ascending
    small = np.flatnonzero(ps <= math.isqrt(limit))
    small = small[np.lexsort((ks[small], -ps[small]))]
    sieve = list(zip(ps[small].tolist(), pks[small].tolist(), small.tolist()))
    vals = np.zeros(limit + 1, dtype=np.float64 if real else np.complex128)
    vals[1:2] = 1.0
    seg = np.empty(min(limit, _BLOCK), dtype=np.intp)
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
        rest = (np.arange(lo, hi, dtype=np.float64) / pkf[i]).astype(np.intp)
        if real:
            np.multiply(vals[rest], pv.real[i], out=vals[lo:hi])
        else:
            # _cmul's products and sums, on the same operands in the same order
            v, c = vals[rest], pv[i]
            vals.real[lo:hi] = v.real * c.real - v.imag * c.imag
            vals.imag[lo:hi] = v.real * c.imag + v.imag * c.real
        lo = hi
    return ArithFn(values=vals, limit=limit, label=f.label)


_CHUNK = 1 << 16  # longest run of products _divisor_sweep forms at once, in values


def _divisor_sweep(fv: np.ndarray, gv: np.ndarray, cut: int, limit: int) -> np.ndarray:
    """h(n) = sum of fv[d] * gv[e] over n = d*e <= limit with d, e <= cut.

    Each h(n) adds its terms in ascending d, in about 2 sqrt(limit) slice
    updates split at T = min(isqrt(limit), cut). Pass 1 sweeps d <= T, one
    slice per d. Every term with d > T has e = n/d < limit/T, so pass 2
    sweeps those terms one slice per e. It runs e in descending order:
    for a fixed n, descending e is ascending d, so each h(n) gets the same
    terms in the same order as a sweep over all d, and the same bits.
    Zero f(d) in pass 1 and zero g(e) in pass 2 are skipped: h never holds
    -0.0, so adding a signed zero would leave it unchanged, and real
    operands sweep in float64 with the complex sweep's real parts as bits.

    A slice's products are formed _CHUNK at a time in one reused buffer, so
    the sweep holds h and one chunk; each h(n) still gets one product per
    slice, the same one.
    """
    h = np.zeros(limit + 1, dtype=np.result_type(fv, gv))
    buf = np.empty(min(limit, _CHUNK), dtype=h.dtype)
    cut = max(cut, 0)
    t = min(math.isqrt(limit), cut)
    for d in range(1, t + 1):
        fd = fv[d]
        if fd != 0:
            ln = min(cut, limit // d)
            for a in range(1, ln + 1, _CHUNK):
                b = min(a + _CHUNK, ln + 1)
                h[d * a : d * (b - 1) + 1 : d] += np.multiply(fd, gv[a:b], out=buf[: b - a])
    for e in range(min(cut, limit // (t + 1)), 0, -1):
        ge = gv[e]
        if ge != 0:
            top = min(cut, limit // e)
            for a in range(t + 1, top + 1, _CHUNK):
                b = min(a + _CHUNK, top + 1)
                h[e * a : e * (b - 1) + 1 : e] += np.multiply(fv[a:b], ge, out=buf[: b - a])
    return h


def dirichlet_convolve(f: ArithFn, g: ArithFn, limit: int) -> ArithFn:
    """h(n) = sum_{d|n} f(d) g(n/d) for all n <= limit.

    Each h(n) adds f(d) g(n/d) in ascending d, in two passes split at
    T = isqrt(limit) (see _divisor_sweep).
    """
    if f.limit < limit or g.limit < limit:
        raise ParameterError(
            f"operands defined to {f.limit} and {g.limit}; need {limit}"
        )
    h = _divisor_sweep(f.values, g.values, limit, limit)
    return ArithFn(values=h, limit=limit, label=f"({f.label}*{g.label})")


def delta_fn(limit: int) -> ArithFn:
    """The convolution identity: 1 at n=1, else 0."""
    v = np.zeros(limit + 1)
    v[1] = 1
    return ArithFn(values=v, limit=limit, label="delta")


def inverse(f: MultFn, limit: int) -> MultFn:
    """Convolution inverse g: (f*g)(n) = [n=1], via the prime-power recursion.

    g(p^k) = -sum_{j=1..k} f(p^j) g(p^{k-j}), with g(1) = 1, summed from 0 in
    ascending j and run for all primes at once, one k at a time. The rule
    reads f at every p^j, j up to the largest k asked at p, in ascending
    p^j. No unit-disc validation: the inverse of a class-C function is
    class-C, but other inputs may blow up.
    """

    def grule(p: np.ndarray, k: np.ndarray) -> np.ndarray:
        qs, at = np.unique(p, return_inverse=True)
        top = np.zeros(len(qs), dtype=np.int64)
        np.maximum.at(top, at, k)
        # primes by descending top: those with top >= j are a prefix, of size n[j - 1]
        order = np.argsort(-top, kind="stable")
        qs, top = qs[order], top[order]
        rank = np.empty_like(order)
        rank[order] = np.arange(len(order))
        n = [int(np.count_nonzero(top >= j)) for j in range(1, int(top.max(initial=0)) + 1)]
        start = np.concatenate([[0], np.cumsum(n)]).astype(np.int64)
        # f at (qs[i], j) sits at start[j - 1] + i; it is read in ascending q^j
        ep = np.concatenate([qs[:m] for m in n]) if n else qs
        ek = np.repeat(np.arange(1, len(n) + 1), n)
        up = np.argsort(ep**ek, kind="stable")
        fv = np.empty(len(ep), dtype=np.complex128)
        fv[up] = f.values_at(ep[up], ek[up])
        fs = np.array([fv.real, fv.imag])
        gs = np.empty_like(fs)
        for kk, m in enumerate(n, start=1):
            acc = np.zeros((2, m))
            for j in range(1, kk + 1):
                fj = fs[:, start[j - 1] : start[j - 1] + m]
                other = (1.0, 0.0) if j == kk else gs[:, start[kk - j - 1] : start[kk - j - 1] + m]
                acc = acc + _cmul(fj, other)
            gs[:, start[kk - 1] : start[kk]] = -acc
        return _pack(gs[:, start[k - 1] + rank[at]])

    return MultFn.from_arrays(grule, limit, label=f"inv({f.label})", validate=False)


@dataclass
class LambdaSeq:
    """lambda_f(n) for n <= limit, stored on the prime powers, where it lives.

    pp_values[i] is lambda_f(prime_powers[i]), prime_powers ascending as
    prime_powers() lists them. `values` spreads them over a dense array on
    0..limit (zero elsewhere), built on first use for callers that index
    by n. is_class_c records whether |lambda_f(p^k)| <= log p + 1e-9
    everywhere in range; first_violation is the least offending prime
    power, if any.
    """

    prime_powers: np.ndarray
    pp_values: np.ndarray
    limit: int
    is_class_c: bool
    first_violation: Optional[int] = None

    @cached_property
    def values(self) -> np.ndarray:
        out = np.zeros(self.limit + 1, dtype=np.complex128)
        out[self.prime_powers] = self.pp_values
        return out


def lambda_seq(f: MultFn, limit: int, table: PrimeTable) -> LambdaSeq:
    """lambda_f on the prime powers up to limit, with the class-C verdict.

    The triangular recursion runs for all primes at once, one k at a time,
    with each product and |.| formed as Python's scalar complex math forms it.
    """
    pks, ps, ks = prime_powers(limit, table)
    fv = f.values_at(ps, ks)
    logp = np.array([math.log(p) for p in ps.tolist()])
    vals = np.empty(len(pks), dtype=np.complex128)
    fs = []  # fs[j - 1]: (re, im) of f(p^j) over the primes with p^j <= limit
    lams = []  # lams[j - 1]: lambda_f(p^j), likewise
    for k in range(1, int(ks.max(initial=0)) + 1):
        at = ks == k  # ascending p: a prefix of the primes of level k - 1
        fs.append(np.array([fv.real[at], fv.imag[at]]))
        n = int(np.count_nonzero(at))
        lam = _cmul(_cmul(fs[k - 1], (k, 0.0)), (logp[at], 0.0))
        for j in range(1, k):
            lam = lam - _cmul(lams[j - 1][:, :n], fs[k - j - 1][:, :n])
        lams.append(lam)
        vals.real[at], vals.imag[at] = lam
    bad = np.flatnonzero(np.hypot(vals.real, vals.imag) > logp + 1e-9)
    worst = int(pks[bad[0]]) if len(bad) else None
    return LambdaSeq(pks, vals, limit, is_class_c=worst is None, first_violation=worst)


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

    def rule(p: np.ndarray, k: np.ndarray) -> np.ndarray:
        out = np.zeros(len(p), dtype=np.complex128)
        low = np.flatnonzero(p <= y)
        out[low] = f.values_at(p[low], k[low])
        return out

    return MultFn.from_arrays(
        rule,
        f.limit,
        label=f"{f.label}|smooth<={y:g}",
        validate=False,  # f checks its own values
    )


def restrict_to_primes(f: MultFn, table: PrimeTable, limit: int) -> ArithFn:
    """f * 1_P: the values of f at primes up to limit, zero elsewhere."""
    if limit > table.limit:
        raise OutOfRangeError(f"limit={limit} exceeds table limit {table.limit}")
    ps = table.primes[table.primes <= limit].astype(np.int64)
    pv = f.values_at(ps, np.ones_like(ps))
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
    """

    def at_primes(ps: np.ndarray) -> np.ndarray:
        return f.values_at(ps, np.ones_like(ps))

    f_star = cm_from_arrays(
        lambda p: _per_prime(p, at_primes),
        limit,
        label=f"{f.label}*cm",
        validate=False,
    )

    def grule(p: np.ndarray, k: np.ndarray) -> np.ndarray:
        out = np.zeros(len(p), dtype=np.complex128)
        hi = np.flatnonzero(k >= 2)
        q, j = p[hi], k[hi]
        fk = f.values_at(q, j)  # first, as f(p^k) is the first read of each p^k
        f1, fprev = f.values_at(q, np.ones_like(j)), f.values_at(q, j - 1)
        prod = _cmul((f1.real, f1.imag), (fprev.real, fprev.imag))
        out.real[hi], out.imag[hi] = fk.real - prod[0], fk.imag - prod[1]
        return out

    g_powerful = MultFn.from_arrays(grule, limit, label=f"{f.label}|powerful", validate=False)
    return f_star, g_powerful
