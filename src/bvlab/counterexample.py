"""The explicit function that is well-distributed in every fixed progression
yet fails on average over moduli.

Construction, at scale x with tuning exponent gamma and modulus size Q:
take y = x/(log x)^gamma and z = 2(log x)^gamma, and let script_P be the
primes p in (y/2, y] such that some prime q in (Q, 2Q] divides p - 1. The
completely multiplicative f has f(p) = 0 for p <= z or p > y, f(p) = -1 on
script_P, and f(p) = 1 on the remaining primes in (z, y].

Because z * (y/2) = x, no n <= x can contain a script_P prime together
with another nonzero-valued factor, which gives the exact pointwise
identity f(n) = |f(n)| - 2*[n in script_P] on [1, x]. The bias of script_P
in the progressions 1 mod q is then measured exactly through the plain
discrepancy of the indicator function.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core_arith import PrimeTable, euler_phi, factorize
from .discrepancy import plain_delta
from .errors import InvariantViolationError, OutOfRangeError, ParameterError
from .multfun import MultFn, to_arith

DEFAULT_GAMMA = 2.0


@dataclass(frozen=True)
class CounterexampleSpec:
    x: int
    gamma: float
    Q: int
    y: float
    z: float
    script_P: frozenset[int]


def default_Q(x: int) -> int:
    """round(x^0.35), inside the (x^(1/3), x^(2/5)] window the lower bound needs."""
    return round(x**0.35)


def primes_with_divisor_in(
    y_lo: float, y_hi: float, q_lo: float, q_hi: float, table: PrimeTable
) -> frozenset[int]:
    """Primes p in (y_lo, y_hi] such that p-1 has a prime factor in (q_lo, q_hi]."""
    if y_hi > table.limit:
        raise OutOfRangeError(f"y={y_hi} exceeds table limit {table.limit}")
    out = []
    for p in table.primes_in(y_lo, y_hi):
        p = int(p)
        for r, _e in factorize(p - 1, table):
            if q_lo < r <= q_hi:
                out.append(p)
                break
    return frozenset(out)


def plan_counterexample(
    x: int, gamma: float, Q: int | None, table: PrimeTable
) -> CounterexampleSpec:
    if x < 2:
        raise ParameterError(f"x={x} must be >= 2")
    if Q is None:
        Q = default_Q(x)
    if Q < 1:
        raise ParameterError(f"Q must be >= 1, got {Q}")
    logx = math.log(x)
    try:
        y, z = x / logx**gamma, 2 * logx**gamma
    except (OverflowError, ZeroDivisionError):
        raise ParameterError(f"(log x)^gamma = {logx:g}^{gamma:g} is out of float range") from None
    if y / 2 < 2:
        raise ParameterError(f"y/2={y / 2:g} < 2: x too small for gamma={gamma}")
    if y > table.limit or 2 * Q > table.limit:
        raise OutOfRangeError(
            f"need table limit >= max(y={y:g}, 2Q={2 * Q}); have {table.limit}"
        )
    script_P = primes_with_divisor_in(y / 2, y, Q, 2 * Q, table)
    return CounterexampleSpec(x=x, gamma=gamma, Q=Q, y=y, z=z, script_P=script_P)


def counterexample_multfn(spec: CounterexampleSpec) -> MultFn:
    """The completely multiplicative f with values in {-1, 0, 1} at primes."""
    script_P = _script_P_array(spec)
    z, y = spec.z, spec.y

    def rule(p: np.ndarray, k: np.ndarray) -> np.ndarray:
        at_prime = np.where(np.isin(p, script_P), -1.0, 1.0)
        at_prime[(p <= z) | (p > y)] = 0.0
        return at_prime**k

    return MultFn(rule, spec.x, label=f"counterexample(x={spec.x},gamma={spec.gamma:g},Q={spec.Q})")


def _script_P_array(spec: CounterexampleSpec) -> np.ndarray:
    """The primes of script_P as an int64 array, in no particular order."""
    return np.fromiter(spec.script_P, dtype=np.int64, count=len(spec.script_P))


def identity_validity_bound(spec: CounterexampleSpec) -> int:
    """Largest n up to which f(n) = |f(n)| - 2*[n in script_P] is asserted."""
    return int(min(spec.x, (spec.y / 2) ** 2))


def pointwise_identity_check(
    spec: CounterexampleSpec, n_range: range, table: PrimeTable, f: MultFn | None = None
) -> float:
    """max |f(n) - (|f(n)| - 2*[n in script_P])| over n_range, a non-empty step-1
    range; expected 0.

    f is the spec's counterexample_multfn, built here unless passed in.
    """
    if f is None:
        f = counterexample_multfn(spec)
    bound = identity_validity_bound(spec)
    lo, hi = n_range.start, n_range.stop - 1
    if n_range.step != 1 or not 1 <= lo <= hi <= bound:
        raise ParameterError(f"range {n_range} is not a step-1 range in [1, {bound}]")
    fd = to_arith(f, hi, table).values
    # |(f - |f|) + 2*[n in script_P]| in one buffer: f is in {-1, 0, 1} and
    # the indicator in {0, 1}, so every step is exact on small integers
    # and the maximum is the same float as from the identity as written
    r = np.abs(fd)
    np.subtract(fd, r, out=r)
    sp = _script_P_array(spec)
    r[sp[sp <= hi]] += 2  # script_P is a set: no index repeats
    return float(np.max(np.abs(r, out=r)[lo : hi + 1]))


def range_extension_check(spec: CounterexampleSpec, table: PrimeTable) -> dict[int, bool]:
    """Per prime q in (Q, 2Q]: counting p = 1 (mod q) over script_P equals
    counting over all primes in (y/2, y]."""
    out = {}
    ps = table.primes_in(spec.y / 2, spec.y)
    sp = _script_P_array(spec)
    for q in table.primes_in(spec.Q, 2 * spec.Q):
        q = int(q)
        out[q] = np.count_nonzero(sp % q == 1) == np.count_nonzero(ps % q == 1)
    return out


@dataclass
class LowerBoundReport:
    """Measured mass of sum_{Q < q <= 2Q prime} |Delta(1_P, x; q, 1)|.

    rows: (q, |delta|, phi(q), pi-difference count, #P/phi(q)) per prime q.
    ratio = S / (y / (log x)^2) tracks the implied constant of the lower
    bound; scriptP_density = #P (log x)^2 / y tracks Brun-Titchmarsh.
    """

    bv_partial_sum: float
    normalizer: float
    ratio: float
    scriptP_density: float
    rows: list[tuple[int, float, int, int, float]]


def lower_bound_report(spec: CounterexampleSpec, table: PrimeTable) -> LowerBoundReport:
    """The rows and sums of LowerBoundReport.

    Delta(1_P, x; q, 1) is delta's arithmetic on the residue buckets of the
    indicator, counted for each prime q in (Q, 2Q] by a bincount of script_P
    mod q: the same integers, with the same complex128 bits, as delta's sweep.
    """
    sp = _script_P_array(spec)
    logx = math.log(spec.x)
    ps = table.primes_in(spec.y / 2, spec.y)
    rows = []
    S = 0.0
    for q in map(int, table.primes_in(spec.Q, 2 * spec.Q)):
        b = np.bincount(sp % q, minlength=q).astype(np.complex128)
        d = abs(plain_delta(b, q, 1)[2])
        phi_q = euler_phi(q, table)
        pi_diff = int(np.count_nonzero(ps % q == 1))
        script_term = len(spec.script_P) / phi_q
        # the two expressions for the discrepancy must agree exactly
        alt = abs(pi_diff - script_term)
        if d != alt:
            raise InvariantViolationError(
                f"delta mismatch at q={q}: bucket path {d} vs pi-difference {alt}"
            )
        rows.append((q, d, phi_q, pi_diff, script_term))
        S += d
    normalizer = spec.y / logx**2
    density = len(spec.script_P) * logx**2 / spec.y
    return LowerBoundReport(
        bv_partial_sum=S,
        normalizer=normalizer,
        ratio=S / normalizer,
        scriptP_density=density,
        rows=rows,
    )
