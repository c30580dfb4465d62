"""Brute-force reference implementations used to freeze expected values.

Everything here is deliberately naive (trial division, full divisor
enumeration, direct double sums) and independent of the library code paths
it is used to check.
"""

import math
from functools import lru_cache

import numpy as np

from bvlab.characters import (
    CharacterSet,
    DirichletCharacter,
    _char_from_exponents,
    _exponent_from_value,
    enumerate_characters,
    induced_set,
    primitive_value_matrix,
    unit_group,
)
from bvlab.core_arith import PrimeTable
from bvlab.counterexample import CounterexampleSpec, _script_P_array
from bvlab.errors import OutOfRangeError, ParameterError
from bvlab.multfun import (
    _BLOCK,
    ArithFn,
    LambdaSeq,
    MultFn,
    _cmul,
    cm_from_arrays,
    prime_power_values,
)


def trial_division(n):
    """Factorization by trial division: list of (p, e), primes ascending."""
    out = []
    m = n
    d = 2
    while d * d <= m:
        if m % d == 0:
            e = 0
            while m % d == 0:
                m //= d
                e += 1
            out.append((d, e))
        d += 1
    if m > 1:
        out.append((m, 1))
    return out


def is_prime_naive(n):
    return n >= 2 and trial_division(n) == [(n, 1)]


def phi_naive(n):
    return sum(1 for a in range(1, n + 1) if math.gcd(a, n) == 1)


def divisors(n):
    out = [d for d in range(1, n + 1) if n % d == 0]
    return out


def brute_convolve(f_vals, g_vals, n):
    """(f*g)(n) by full divisor enumeration; values given as n-indexed maps."""
    return sum(f_vals[d] * g_vals[n // d] for d in divisors(n))


def brute_delta(values, x, q, a):
    """Delta(f,x;q,a) straight from the definition; values is 1-indexed."""
    m = int(math.floor(x))
    prog = sum(values[n] for n in range(1, m + 1) if n % q == a % q)
    cop = sum(values[n] for n in range(1, m + 1) if math.gcd(n, q) == 1)
    return prog - cop / phi_naive(q)


@lru_cache(maxsize=8)
def plain_spf(limit):
    """Smallest prime factors of 0..limit, one pass over the table per prime, as bvlab sieved before segments.

    spf starts as n at n; p is written at p*p, p*p + p, ... for the primes
    p <= sqrt(limit) (found by trial division), largest first. Kept per
    limit, so the array is read-only.
    """
    spf = np.arange(limit + 1, dtype=np.uint32)
    for p in reversed([p for p in range(2, math.isqrt(limit) + 1) if is_prime_naive(p)]):
        spf[p * p :: p] = p
    spf.setflags(write=False)
    return spf


def spf_factors(n, table):
    """[(p, e), ...] of n, p ascending, read off plain_spf over the table's limit."""
    if n < 1:
        raise ParameterError(f"n must be positive, got {n}")
    if n > table.limit:
        raise OutOfRangeError(f"n={n} exceeds table limit {table.limit}")
    spf = plain_spf(table.limit)
    out = []
    m = n
    while m > 1:
        p = int(spf[m])
        e = 0
        while m % p == 0:
            m //= p
            e += 1
        out.append((p, e))
    return out


def copied_residue_buckets(values, m, q):
    """Residue bucket sums as bvlab first computed them, to compare bit for bit.

    values[0..m] are copied into a zero-padded complex128 buffer, which is
    reshaped to (rows, q) and summed over the rows.
    """
    rows = (m + q) // q
    buf = np.zeros(rows * q, dtype=np.complex128)
    buf[: m + 1] = values[: m + 1]
    return buf.reshape(rows, q).sum(axis=0)


def induced_bv_rows(f, x, Q, xi):
    """bv_sum's rows (q, argmax residue, |delta|) for q = 1..Q, with the
    characters of Xi_q built by induce() at every modulus q, as bv_sum once
    built them, and the buckets from copied_residue_buckets."""
    m = int(math.floor(x))
    rows = []
    for q in range(1, Q + 1):
        b = copied_residue_buckets(f.values, m, q)
        rs = np.array([r for r in range(q) if math.gcd(r, q) == 1])
        corr = np.zeros(len(rs), dtype=np.complex128)
        for chi in induced_set(xi, q):
            cv = chi.residue_values()
            s_chi = np.sum(np.conj(cv[rs]) * b[rs])
            corr += cv[rs] * s_chi
        corr /= len(rs)
        dist = np.abs(b[rs] - corr)
        idx = int(np.argmax(dist))
        rows.append((q, int(rs[idx]), float(dist[idx])))
    return rows


def complex_to_arith(f, limit, table):
    """f(0..limit) as complex128, swept as bvlab computed it before real functions were float64.

    f(n) = f(n / p^e) * f(p^e) with p^e the spf-power part of n (from
    plain_spf), in blocks [lo, min(2 lo, lo + 2^18)), each product formed as
    Python's complex * forms it.
    """
    spf = plain_spf(table.limit)
    pks, ps, _ks = table.prime_powers(limit)
    pv = prime_power_values(f, limit, table)
    pos = np.zeros(limit + 1, dtype=np.int32)
    pos[pks] = np.arange(len(pks), dtype=np.int32)
    nxt = np.searchsorted(pks, pks * ps).astype(np.int32)
    vals = np.zeros(limit + 1, dtype=np.complex128)
    re, im = vals.real, vals.imag
    if limit >= 1:
        re[1] = 1.0
    lo = 2
    while lo <= limit:
        hi = min(2 * lo, lo + (1 << 18), limit + 1)
        n = np.arange(lo, hi)
        p = spf[lo:hi].astype(np.int64)
        m = n // p
        i = pos[p]
        same = m % p == 0
        i[same] = nxt[pos[m[same]]]
        pos[lo:hi] = i
        rest = n // pks[i]
        a, b, c, d = re[rest], im[rest], pv.real[i], pv.imag[i]
        re[lo:hi], im[lo:hi] = a * c - b * d, a * d + b * c
        lo = hi
    return vals


def spf_sweep_to_arith(f, limit, table):
    """to_arith as bvlab computed it before each block sieved its own prime powers.

    The index of each n's spf-power part comes from plain_spf and a dense
    int32 array pos over 0..limit, with int64 divisions and a mask scatter
    per block; the values are to_arith's, to compare byte for byte.
    """
    if limit > f.limit:
        raise OutOfRangeError(f"limit={limit} exceeds function limit {f.limit}")
    pks, ps, _ks = table.prime_powers(limit)
    pv = prime_power_values(f, limit, table)
    real = not pv.imag.any()
    # pos[n]: index in pks of the spf-power part of n; nxt[i]: index of
    # pks[i] * ps[i], meaningful while that is <= limit
    pos = np.zeros(limit + 1, dtype=np.int32)
    pos[pks] = np.arange(len(pks), dtype=np.int32)
    nxt = np.searchsorted(pks, pks * ps).astype(np.int32)
    vals = np.zeros(limit + 1, dtype=np.float64 if real else np.complex128)
    re, im = vals.real, None if real else vals.imag
    if limit >= 1:
        re[1] = 1.0
    spf = plain_spf(table.limit)
    lo = 2
    while lo <= limit:
        hi = min(2 * lo, lo + _BLOCK, limit + 1)
        n = np.arange(lo, hi)
        p = spf[lo:hi].astype(np.int64)
        m = n // p
        i = pos[p]
        same = m % p == 0
        i[same] = nxt[pos[m[same]]]
        pos[lo:hi] = i
        rest = n // pks[i]
        if real:
            re[lo:hi] = re[rest] * pv.real[i]
        else:
            re[lo:hi], im[lo:hi] = _cmul((re[rest], im[rest]), (pv.real[i], pv.imag[i]))
        lo = hi
    return ArithFn(values=vals, limit=limit, label=f.label)


def one_pass_convolution(fv, gv, cut, limit):
    """Divisor sums as bvlab first computed them, to compare bit for bit.

    One slice update per d <= cut, ascending, adding f(d) g(e) for every
    e <= min(cut, limit // d); zero f(d) are skipped.
    """
    h = np.zeros(limit + 1, dtype=np.complex128)
    for d in range(1, min(cut, limit) + 1):
        if fv[d] != 0:
            ln = min(cut, limit // d)
            h[d : d * ln + 1 : d] += fv[d] * gv[1 : ln + 1]
    return h


def character_large_sieve(coeffs, Q, start=0):
    """lhs of the multiplicative large sieve as bvlab first computed it.

    For each r <= Q, the matrix of primitive-character values mod r times
    the residue sums of a_n, n in (start, start+N], summed as
    (r/phi(r)) sum |.|^2 in ascending r.
    """
    a = np.asarray(coeffs, dtype=np.complex128)
    ns = start + 1 + np.arange(len(a))
    lhs = 0.0
    for r in range(1, Q + 1):
        mat = primitive_value_matrix(r)
        if mat is None:
            continue
        mods = ns % r
        br = np.bincount(mods, weights=a.real, minlength=r)
        bi = np.bincount(mods, weights=a.imag, minlength=r)
        b = br + 1j * bi
        lhs += r / phi_naive(r) * float(np.sum(np.abs(mat @ b) ** 2))
    return lhs


def smooth_numbers(limit, y):
    """All y-smooth n in [1, limit]."""
    out = []
    for n in range(1, limit + 1):
        fs = trial_division(n)
        if all(p <= y for p, _ in fs):
            out.append(n)
    return out


def full_primitive_set(q):
    """Primitive characters inducing the full group mod q (Xi_q = everything)."""
    return CharacterSet(members=tuple(primitivize(chi) for chi in enumerate_characters(q)))


def is_principal(chi):
    """Whether chi is the principal character mod its modulus."""
    return all(a == 0 for a in chi.exponents)


def cell_covers(cell, split):
    """Whether the dyadic cell holds the split's (u, v, P+(u), P-(v))."""
    return (
        cell.U <= split.u < 2 * cell.U
        and cell.V <= split.v < 2 * cell.V
        and cell.P_plus <= split.P_plus_u < 2 * cell.P_plus
        and cell.P_minus <= split.P_minus_v < 2 * cell.P_minus
    )


# --- scalar prime-power rules ---------------------------------------------
# Each library function kind as bvlab first wrote it: one Python rule call
# per prime power. scalar_multfn adapts such a rule to MultFn's array rule;
# the library's array rules must give the same bits.


def scalar_multfn(rule, limit, label=""):
    """A MultFn whose array rule calls rule(p, k) once per prime power, in the order given.

    MultFn reads it once, over ascending p^k, so lazily drawn values are drawn in that order.
    """

    def array_rule(p, k):
        pairs = zip(p.tolist(), k.tolist())
        return np.array([complex(rule(a, b)) for a, b in pairs], dtype=complex)

    return MultFn(array_rule, limit, label=label)


def cm_multfn(prime_value, limit, label=""):
    """Completely multiplicative function from a value-at-primes rule.

    prime_value is called once per distinct prime, in ascending order; the
    powers are the library's cm_from_arrays.
    """

    def at_primes(p):
        ps, where = np.unique(p, return_inverse=True)
        return np.array([complex(prime_value(q)) for q in ps.tolist()], dtype=complex)[where]

    return cm_from_arrays(at_primes, limit, label=label)


def one_rule(p, k):
    return 1.0


def moebius_rule(p, k):
    return -1.0 if k == 1 else 0.0


def liouville_rule(p, k):
    return float((-1) ** k)


def powerful_rule(p, k):
    return float(k >= 2)


def character_rule(chi):
    return lambda p, k: value(chi, p) ** k


def cm_spec_rule(at, default):
    """The "cm" spec kind: at maps primes to complex values."""
    return lambda p, k: at.get(p, default) ** k


def table_rule(path):
    """The "table" spec kind, looked up in a dict; absent prime powers read as 0."""
    with np.load(path) as data:
        pps = data["prime_powers"].astype(np.int64)
        values = data["values"].astype(np.complex128)
    lookup = {int(pp): complex(v) for pp, v in zip(pps, values)}
    return lambda p, k: lookup.get(p**k, 0j)


def counterexample_rule(spec):
    def at_prime(p):
        if p <= spec.z or p > spec.y:
            return 0.0
        if p in spec.script_P:
            return -1.0
        return 1.0

    return lambda p, k: at_prime(p) ** k


def _scalar_derived(f, limit, rule):
    """A function derived from f: rule(at, p, k), with at[p^k] = f(p^k), called per prime power."""

    def array_rule(p, k, fv):
        at = dict(zip((p**k).tolist(), fv.tolist()))
        return np.array([rule(at, a, b) for a, b in zip(p.tolist(), k.tolist())], dtype=complex)

    return MultFn(array_rule, limit, base=f)


def scalar_inverse(f, limit):
    g = {}

    def grule(at, p, k):
        acc = 0j
        for j in range(1, k + 1):
            acc += at[p**j] * (1 + 0j if j == k else g[p ** (k - j)])
        g[p**k] = -acc
        return -acc

    return _scalar_derived(f, limit, grule)


def scalar_companion_split(f, limit):
    f_star = _scalar_derived(f, limit, lambda at, p, k: at[p] ** k)

    def grule(at, p, k):
        if k == 1:
            return 0j
        return at[p**k] - at[p] * at[p ** (k - 1)]

    return f_star, _scalar_derived(f, limit, grule)


def scalar_smooth_truncation(f, y):
    return _scalar_derived(f, f.limit, lambda at, p, k: at[p**k] if p <= y else 0j)


def scalar_restrict_to_primes(f, table, limit):
    vals = np.zeros(limit + 1, dtype=np.complex128)
    for p in table.primes[table.primes <= limit]:
        vals[p] = f.pp_value(int(p), 1, table)
    return vals


# --- scalar helpers no command runs -----------------------------------------
# Per-n and per-character functions that bvlab once exported; the tests use
# them as references and as inputs.

# Smallest-prime-factor slot reported for n = 1: larger than any prime in
# range, so "P_minus(n) > y" style comparisons behave at n = 1.
PRIME_INF = 2**62


def von_mangoldt(n: int, table: PrimeTable) -> float:
    """log p if n = p^k, else 0."""
    fs = spf_factors(n, table)
    if len(fs) == 1:
        return math.log(fs[0][0])
    return 0.0


def smoothness(n: int, table: PrimeTable) -> tuple[int, int]:
    """(P_plus, P_minus): largest and smallest prime factor of n.

    n = 1 returns (1, PRIME_INF) by convention, so "n is y-smooth" is
    exactly P_plus <= y for every n >= 1.
    """
    fs = spf_factors(n, table)
    if not fs:
        return (1, PRIME_INF)
    return (fs[-1][0], fs[0][0])


def value(chi: DirichletCharacter, n: int) -> complex:
    """chi(n), read from chi's residue values."""
    return complex(chi.residue_values()[n % chi.modulus])


def primitivize(chi: DirichletCharacter) -> DirichletCharacter:
    """The primitive character (mod cond(chi)) that induces chi."""
    r = chi.conductor
    g = unit_group(r)
    exps = []
    for f, lift in zip(g.factors, g.generator_lifts):
        # Lift to an integer congruent to the generator mod r and coprime
        # to chi's modulus, where chi's value equals psi's.
        n = lift
        while math.gcd(n, chi.modulus) != 1:
            n += r
        tl = chi.value_exact(n)
        assert tl is not None
        exps.append(_exponent_from_value(tl[0], tl[1], f.order))
    psi = _char_from_exponents(r, tuple(exps))
    assert psi.conductor == r
    return psi


def script_P_indicator(spec: CounterexampleSpec) -> ArithFn:
    vals = np.zeros(spec.x + 1)
    vals[_script_P_array(spec)] = 1.0
    return ArithFn(values=vals, limit=spec.x, label="1_scriptP")


def delta_fn(limit: int) -> ArithFn:
    """The convolution identity: 1 at n=1, else 0."""
    v = np.zeros(limit + 1)
    v[1] = 1
    return ArithFn(values=v, limit=limit, label="delta")


def evaluate(f: MultFn, n: int, table: PrimeTable) -> complex:
    """f(n) as the product of f(p^k) over the factorization of n."""
    if n < 1:
        raise ParameterError(f"n must be positive, got {n}")
    if n > f.limit:
        raise OutOfRangeError(f"n={n} exceeds function limit {f.limit}")
    out = 1 + 0j
    for p, k in spf_factors(n, table):
        out *= f.pp_value(p, k, table)
    return out


def lambda_values(lam: LambdaSeq) -> np.ndarray:
    """lambda_f over 0..limit as a dense complex128 array, zero off the prime
    powers; spread from lam.pp_values on the first call for lam and kept on it."""
    dense = lam.__dict__.get("_dense")
    if dense is None:
        dense = lam.__dict__["_dense"] = np.zeros(lam.limit + 1, dtype=np.complex128)
        dense[lam.prime_powers] = lam.pp_values
    return dense
