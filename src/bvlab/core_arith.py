"""Exact integer arithmetic substrate.

Everything downstream (characters, multiplicative functions, discrepancy
sums) factors integers through a PrimeTable built here: a flat
smallest-prime-factor array, chosen because factorization is the dominant
operation at desk scale (limits up to ~1e8 are assumed to fit in memory). It
is sieved in L2-sized segments, which also yield its primes; a sieve cache
is read back one segment at a time, each checked against the same sieve.
"""

from __future__ import annotations

import math
import os
import struct
from dataclasses import dataclass

import numpy as np

from .errors import OutOfRangeError, ParameterError

_CACHE_MAGIC = b"BVLAB1"


@dataclass(frozen=True)
class PrimeTable:
    """Smallest-prime-factor table covering 2..limit.

    spf[n] is the smallest prime factor of n (entries 0 and 1 are padding), and
    primes the primes up to limit, ascending int64. Immutable after construction,
    so it is safe to share across worker threads. It keeps the prime-power
    enumeration that prime_powers last made and cuts smaller reads from it.
    """

    limit: int
    spf: np.ndarray
    primes: np.ndarray

    def prime_powers(self, limit: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(p^k, p, k) for every p^k <= limit, ascending in p^k: read-only views.

        The enumeration is made at limit, not at self.limit, and kept; a later
        read up to no more than its limit takes a prefix of it. Threads that
        race may each enumerate, and every read gets the same bytes.
        """
        if limit > self.limit:
            raise OutOfRangeError(f"limit={limit} exceeds table limit {self.limit}")
        kept = self.__dict__.get("_prime_powers")  # (its limit, p^k, p, k)
        if kept is None or kept[0] < limit:
            arrays = prime_powers(self.primes[self.primes <= limit], limit)
            for a in arrays:
                a.setflags(write=False)
            kept = self.__dict__["_prime_powers"] = (limit, *arrays)
        n = int(np.searchsorted(kept[1], limit, side="right"))
        return tuple(a[:n] for a in kept[1:])

    def is_prime(self, n: int) -> bool:
        self._check(n)
        return n >= 2 and int(self.spf[n]) == n

    def primes_in(self, lo: float, hi: float) -> np.ndarray:
        """Primes p with lo < p <= hi."""
        ps = self.primes
        return ps[(ps > lo) & (ps <= hi)]

    def _check(self, n: int) -> None:
        if n < 1:
            raise ParameterError(f"n must be a positive integer, got {n}")
        if n > self.limit:
            raise OutOfRangeError(f"n={n} exceeds table limit {self.limit}")


# Entries of spf sieved at a time: 2^18 uint32 entries, 1 MB, half of a
# 2 MB per-core L2, so a segment stays in cache while every prime up to
# sqrt(limit) marks it (one pass over the whole table per prime is bound by
# memory at 10^7).
_SIEVE_SEGMENT = 1 << 18


def build_prime_table(limit: int) -> PrimeTable:
    """Sieve smallest prime factors for 2..limit, one _SIEVE_SEGMENT at a time."""
    primes = _sieving_primes(limit)
    spf = np.empty(limit + 1, dtype=np.uint32)
    found = []
    for lo in range(0, limit + 1, _SIEVE_SEGMENT):
        found.append(_sieve_segment(spf[lo : lo + _SIEVE_SEGMENT], lo, primes))
    return PrimeTable(limit, spf, np.concatenate(found))


def _sieving_primes(limit: int) -> list[int]:
    """The primes p <= sqrt(limit), largest first, from the table of sqrt(limit)."""
    if limit < 2:
        raise ParameterError(f"sieve limit must be >= 2, got {limit}")
    if limit > 2**32 - 1:  # spf is uint32, and BVLAB1 stores <u4
        raise ParameterError(f"sieve limit must be <= 2^32 - 1, got {limit}")
    root = math.isqrt(limit)
    return build_prime_table(root).primes[::-1].tolist() if root >= 2 else []


def _sieve_segment(seg: np.ndarray, lo: int, primes: list[int]) -> np.ndarray:
    """spf of lo..lo + len(seg) - 1 into seg: n at n, then each p of `primes` (largest
    first, so a composite's last mark is its smallest prime factor) from p*p on.
    Returns the segment's primes: the n >= 2 it leaves at n."""
    hi = lo + len(seg)
    idx = np.arange(lo, hi, dtype=np.uint32)
    seg[:] = idx
    for p in primes:
        start = max(p * p, -(-lo // p) * p)
        if start < hi:
            seg[start - lo :: p] = p
    kept = np.flatnonzero(seg == idx) + lo
    return kept[2:] if lo == 0 else kept


def factorize(n: int, table: PrimeTable) -> tuple[tuple[int, int], ...]:
    """((p, e), ...) with n = prod p^e, p ascending, via the spf table; factorize(1) is ()."""
    table._check(n)
    spf = table.spf
    factors: list[tuple[int, int]] = []
    m = n
    while m > 1:
        p = int(spf[m])
        e = 0
        while m % p == 0:
            m //= p
            e += 1
        factors.append((p, e))
    return tuple(factors)


def euler_phi(n: int, table: PrimeTable) -> int:
    """phi(n) = #{1 <= a <= n : gcd(a, n) = 1}, exact."""
    phi = 1
    for p, e in factorize(n, table):
        phi *= (p - 1) * p ** (e - 1)
    return phi


def prime_powers(primes: np.ndarray, limit: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(p^k, p, k) for every prime power p^k <= limit, ascending in p^k.

    primes are the primes up to limit, ascending.
    """
    primes = primes.astype(np.int64)
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


def p_plus_array(limit: int, table: PrimeTable) -> np.ndarray:
    """Vector of largest prime factors for 0..limit (entries 0,1 are 1).

    Ascending sweep over primes: the last prime to mark an index is its
    largest prime factor.
    """
    if limit > table.limit:
        raise OutOfRangeError(f"limit={limit} exceeds table limit {table.limit}")
    out = np.ones(limit + 1, dtype=np.int64)
    for p in table.primes[table.primes <= limit]:
        out[p::p] = p
    return out


def save_prime_table(table: PrimeTable, path) -> None:
    """Write the sieve cache: magic, little-endian u64 limit, u32 spf[2..limit]."""
    with open(path, "wb") as fh:
        fh.write(_CACHE_MAGIC)
        fh.write(struct.pack("<Q", table.limit))
        fh.write(memoryview(np.asarray(table.spf[2:], dtype="<u4")))


def load_prime_table(path) -> PrimeTable:
    """Load a sieve cache, validating magic bytes, header and payload length.

    Each _SIEVE_SEGMENT of the payload is then read into the table, compared
    with the segment sieved anew and its primes kept, up to the first wrong
    spf[n], which is reported. Memory is the table plus one segment.
    """
    try:
        with open(path, "rb") as fh:
            head = fh.read(14)
            if head[:6] != _CACHE_MAGIC:
                raise ParameterError(f"{path}: not a sieve cache (bad magic)")
            if len(head) < 14:
                raise ParameterError(f"{path}: truncated sieve cache header")
            (limit,) = struct.unpack("<Q", head[6:])
            if limit < 2:
                raise ParameterError(f"{path}: invalid cached limit {limit}")
            size, expected = os.fstat(fh.fileno()).st_size - 14, 4 * (limit - 1)
            if size != expected:
                raise ParameterError(
                    f"{path}: payload is {size} bytes, expected {expected} for limit {limit}"
                )
            return _read_verified(fh, path, limit)
    except OSError as exc:  # missing, a directory, unreadable
        raise ParameterError(f"{path}: cannot read sieve cache: {exc}") from exc


def _read_verified(fh, path, limit: int) -> PrimeTable:
    primes = _sieving_primes(limit)
    spf = np.empty(limit + 1, dtype="<u4")  # BVLAB1's byte order: uint32 on little-endian hosts
    spf[:2] = 0, 1
    buf = np.empty(min(_SIEVE_SEGMENT, limit + 1), dtype=np.uint32)
    found = []
    for lo in range(0, limit + 1, _SIEVE_SEGMENT):
        seg = spf[lo : lo + _SIEVE_SEGMENT]
        want = buf[: len(seg)]
        found.append(_sieve_segment(want, lo, primes))
        first = max(lo, 2)  # the payload starts at spf[2]
        got = fh.readinto(memoryview(spf[first : lo + len(seg)]).cast("B"))
        if got != 4 * (lo + len(seg) - first):
            raise ParameterError(f"{path}: payload ends early, at spf[{first + got // 4}]")
        if not np.array_equal(seg, want):
            n = lo + int(np.flatnonzero(seg != want)[0])
            raise ParameterError(
                f"{path}: spf[{n}] = {int(spf[n])} is not its smallest prime factor"
            )
    return PrimeTable(limit, spf, np.concatenate(found))
