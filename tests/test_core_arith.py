import math
import os
import random
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

from bvlab import (
    OutOfRangeError,
    ParameterError,
    build_prime_table,
    euler_phi,
    factorize,
    load_prime_table,
    save_prime_table,
)
from bvlab.cli import main
from bvlab.core_arith import p_plus_minus_arrays
from oracles import (
    PRIME_INF,
    is_prime_naive,
    phi_naive,
    plain_spf,
    smoothness,
    trial_division,
    von_mangoldt,
)


def _cache_spf(tmp_path, limit):
    """save_prime_table(limit)'s table, and the spf entries its cache holds,
    read back as uint32 over 0..limit (entries 0 and 1 are not stored: 0, 1)."""
    path = tmp_path / "spf.bin"
    table = save_prime_table(limit, path)
    payload = np.frombuffer(path.read_bytes(), dtype="<u4", offset=14)
    assert len(payload) == limit - 1
    return table, np.concatenate([np.array([0, 1], dtype=np.uint32), payload])


def _plain_primes(limit):
    spf = plain_spf(limit)
    return np.flatnonzero(spf == np.arange(limit + 1))[2:]


def test_spf_examples_small(tmp_path):
    t, spf = _cache_spf(tmp_path, 10)
    assert list(spf[2:11]) == [2, 3, 2, 5, 2, 7, 2, 3, 2]
    assert np.array_equal(spf, plain_spf(10))
    assert list(t.primes) == [2, 3, 5, 7]


def test_spf_smallest_case(tmp_path):
    t, spf = _cache_spf(tmp_path, 2)
    assert spf[2] == 2
    assert list(t.primes) == [2]


def test_spf_limit_30(tmp_path):
    t, spf = _cache_spf(tmp_path, 30)
    assert spf[30] == 2
    assert spf[29] == 29
    assert np.array_equal(spf, plain_spf(30))
    assert np.array_equal(t.primes, _plain_primes(30))


def test_build_rejects_tiny_limit():
    with pytest.raises(ParameterError):
        build_prime_table(1)


def test_factorize_examples(table_1e4):
    assert factorize(60, table_1e4) == ((2, 2), (3, 1), (5, 1))
    assert factorize(1, table_1e4) == ()
    assert factorize(97, table_1e4) == ((97, 1),)


def test_factorize_range_errors(table_1e4):
    with pytest.raises(OutOfRangeError):
        factorize(10**4 + 1, table_1e4)
    with pytest.raises(ParameterError):
        factorize(0, table_1e4)


def test_phi_examples(table_1e4):
    assert euler_phi(1, table_1e4) == 1
    assert euler_phi(12, table_1e4) == 4
    assert euler_phi(97, table_1e4) == 96


def test_von_mangoldt_examples(table_1e4):
    assert von_mangoldt(8, table_1e4) == pytest.approx(math.log(2), abs=0)
    assert von_mangoldt(6, table_1e4) == 0.0
    assert von_mangoldt(1, table_1e4) == 0.0


def test_smoothness_examples(table_1e4):
    assert smoothness(60, table_1e4) == (5, 2)
    assert smoothness(1, table_1e4) == (1, PRIME_INF)
    assert smoothness(49, table_1e4) == (7, 7)


def test_factorization_reconstructs_everything():
    limit = 10**5
    t = build_prime_table(limit)
    for n in range(1, limit + 1):
        prod = 1
        for p, e in factorize(n, t):
            prod *= p**e
        assert prod == n


def test_spf_agrees_with_trial_division():
    limit = 10**5
    t = build_prime_table(limit)
    rng = random.Random(11)
    sample = list(range(1, 2000)) + [rng.randrange(1, limit + 1) for _ in range(2000)]
    for n in sample:
        assert list(factorize(n, t)) == trial_division(n)


def test_spf_entries_are_prime_divisors(tmp_path, table_1e4):
    t, spf = _cache_spf(tmp_path, 10**4)
    assert np.array_equal(t.primes, table_1e4.primes)
    for n in range(2, 10**4 + 1):
        p = int(spf[n])
        assert n % p == 0
        assert is_prime_naive(p)
        assert (p == n) == is_prime_naive(n)
    for n in range(1, 10**4 + 1):  # the table's limit included
        assert table_1e4.is_prime(n) == is_prime_naive(n), n


def test_p_plus_minus_arrays_match_trial_division(table_1e4):
    plus, minus = p_plus_minus_arrays(10**4, table_1e4)
    assert plus[:2].tolist() == minus[:2].tolist() == [1, 1]
    for n in range(2, 10**4 + 1):
        fs = trial_division(n)
        assert (plus[n], minus[n]) == (fs[-1][0], fs[0][0]), n
    assert len(p_plus_minus_arrays(97, table_1e4)[1]) == 98
    with pytest.raises(OutOfRangeError):
        p_plus_minus_arrays(10**4 + 1, table_1e4)


def test_phi_is_multiplicative(table_1e4):
    rng = random.Random(7)
    done = 0
    while done < 200:
        m = rng.randrange(1, 100)
        n = rng.randrange(1, 100)
        if math.gcd(m, n) != 1:
            continue
        assert euler_phi(m * n, table_1e4) == euler_phi(m, table_1e4) * euler_phi(n, table_1e4)
        done += 1


def test_phi_against_naive_count(table_1e4):
    for n in range(1, 300):
        assert euler_phi(n, table_1e4) == phi_naive(n)


def test_von_mangoldt_sums_to_log(table_1e4):
    for n in range(1, 10**4 + 1):
        s = sum(von_mangoldt(d, table_1e4) for d in range(1, n + 1) if n % d == 0)
        assert abs(s - math.log(n)) <= 1e-9


def test_primes_listing(table_1e4):
    ps = table_1e4.primes
    assert ps[0] == 2 and ps[1] == 3
    assert all(is_prime_naive(int(p)) for p in ps[:100])
    assert len(ps) == 1229  # pi(10^4)
    assert list(table_1e4.primes_in(50, 100)) == [53, 59, 61, 67, 71, 73, 79, 83, 89, 97]


def test_cache_round_trip(tmp_path, table_1e4):
    path = tmp_path / "sieve.bin"
    saved = save_prime_table(10**4, path)
    loaded = load_prime_table(path)
    assert saved.limit == loaded.limit == table_1e4.limit
    assert np.array_equal(saved.primes, table_1e4.primes)
    assert np.array_equal(loaded.primes, table_1e4.primes)
    payload = np.frombuffer(path.read_bytes(), dtype="<u4", offset=14)
    assert np.array_equal(payload, plain_spf(10**4)[2:])


def test_cache_validates_magic(tmp_path):
    path = tmp_path / "bad.bin"
    path.write_bytes(b"NOTBVL" + b"\x00" * 32)
    with pytest.raises(ParameterError):
        load_prime_table(path)


def test_cache_validates_length(tmp_path):
    path = tmp_path / "trunc.bin"
    save_prime_table(10**4, path)
    blob = path.read_bytes()
    path.write_bytes(blob[:-4])
    with pytest.raises(ParameterError):
        load_prime_table(path)


@pytest.mark.parametrize("wrong", [7, 3])  # not a factor; a factor but not the smallest
def test_cache_validates_spf(tmp_path, wrong):
    path = tmp_path / "corrupt.bin"
    save_prime_table(10**4, path)
    blob = bytearray(path.read_bytes())
    blob[14 + 4 * (12 - 2) : 14 + 4 * (12 - 1)] = wrong.to_bytes(4, "little")
    path.write_bytes(bytes(blob))
    with pytest.raises(ParameterError, match=r"spf\[12\]"):
        load_prime_table(path)


# build_prime_table and save_prime_table sieve 2^18 entries at a time
@pytest.mark.parametrize("limit", [2**18 - 1, 2**18, 2**18 + 1, 3 * 2**18 + 5, 10**6 + 7])
def test_spf_across_segment_boundaries(tmp_path, limit):
    saved, spf = _cache_spf(tmp_path, limit)
    assert spf.dtype == np.uint32
    assert np.array_equal(spf, plain_spf(limit))
    primes = _plain_primes(limit)
    assert np.array_equal(saved.primes, primes)
    assert np.array_equal(build_prime_table(limit).primes, primes)


def test_cache_names_a_wrong_spf_in_the_second_segment(tmp_path, capsys):
    limit, n = 3 * 2**18 + 5, 2**18 + 2  # n = 2 * 3 * 43691
    path = tmp_path / "corrupt.bin"
    save_prime_table(limit, path)
    blob = bytearray(path.read_bytes())
    blob[14 + 4 * (n - 2) : 14 + 4 * (n - 1)] = (3).to_bytes(4, "little")
    path.write_bytes(bytes(blob))
    with pytest.raises(ParameterError, match=rf"spf\[{n}\] = 3 "):
        load_prime_table(path)
    argv = ["delta", "--cache", str(path), "--f", '{"kind":"builtin","name":"moebius"}',
            "--x", "100", "--q", "7", "--a", "1", "--out", str(tmp_path / "d.json")]
    assert main(argv) == 3
    assert f"spf[{n}] = 3 " in capsys.readouterr().err


def _saved(tmp_path, limit, wrong=()):
    """Path of the cache of save_prime_table(limit), with spf[n] = v written for each (n, v) of wrong."""
    path = tmp_path / "sieve.bin"
    save_prime_table(limit, path)
    blob = bytearray(path.read_bytes())
    for n, v in wrong:
        blob[14 + 4 * (n - 2) : 14 + 4 * (n - 1)] = v.to_bytes(4, "little")
    path.write_bytes(bytes(blob))
    return path


# the build sieves, the save sieves and writes, and the loader reads and
# checks the payload, 2^18 entries at a time; each keeps the primes each
# segment leaves
@pytest.mark.parametrize("limit", [2, 3, 2**18 - 1, 2**18, 2**18 + 1, 3 * 2**18 + 5])
def test_streamed_load_matches_plain_sieve(tmp_path, limit):
    want = plain_spf(limit)
    primes = _plain_primes(limit)
    saved, spf = _cache_spf(tmp_path, limit)
    assert np.array_equal(spf, want)
    loaded = load_prime_table(tmp_path / "spf.bin")
    for table in build_prime_table(limit), saved, loaded:
        assert table.limit == limit
        assert table.primes.dtype == primes.dtype == np.int64
        assert np.array_equal(table.primes, primes)


@pytest.mark.parametrize("n", [2, 2**18 - 1, 2**18, 2**18 + 1, 3 * 2**18 + 5])
def test_streamed_load_names_a_wrong_spf(tmp_path, capsys, n):
    limit = 3 * 2**18 + 5  # n = limit is in the partial last segment
    wrong = int(plain_spf(limit)[n]) + 1
    path = _saved(tmp_path, limit, [(n, wrong)])
    with pytest.raises(ParameterError, match=rf"spf\[{n}\] = {wrong} "):
        load_prime_table(path)
    argv = ["delta", "--cache", str(path), "--f", '{"kind":"builtin","name":"moebius"}',
            "--x", "100", "--q", "7", "--a", "1", "--out", str(tmp_path / "d.json")]
    assert main(argv) == 3
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and f"spf[{n}] = {wrong} " in err


def test_streamed_load_names_the_first_of_two_wrong_spf(tmp_path):
    path = _saved(tmp_path, 3 * 2**18 + 5, [(2 * 2**18 + 3, 1), (2**18 + 2, 3)])
    with pytest.raises(ParameterError, match=rf"spf\[{2**18 + 2}\] = 3 "):
        load_prime_table(path)


def test_streamed_load_stops_at_a_short_read(tmp_path, monkeypatch):
    # the file shrinks after its length was checked: the read falls short in
    # the second segment, which is reported before anything compares it
    limit, end = 3 * 2**18 + 5, 2**18 + 10
    path = _saved(tmp_path, limit)
    size = path.stat().st_size
    path.write_bytes(path.read_bytes()[: 14 + 4 * (end - 2)])
    monkeypatch.setattr(os, "fstat", lambda fd: SimpleNamespace(st_size=size))
    with pytest.raises(ParameterError, match=rf"payload ends early, at spf\[{end}\]"):
        load_prime_table(path)


def test_streamed_load_holds_the_table_and_one_segment(tmp_path):
    path = _saved(tmp_path, 2 * 10**6)
    tracemalloc.start()
    try:
        t = load_prime_table(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the primes while they are joined, and a few 1 MB segment buffers; a
    # blob of the payload or an array over 0..limit would add 8 MB
    assert peak < 2 * t.primes.nbytes + 3 * 4 * 2**18


def test_build_holds_the_table_and_one_segment():
    tracemalloc.start()
    try:
        t = build_prime_table(2 * 10**6)
        t.primes
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # as the loader: no spf array, arange or mask over the whole table
    assert peak < 2 * t.primes.nbytes + 3 * 4 * 2**18


def test_save_holds_the_table_and_one_segment(tmp_path):
    path = tmp_path / "sieve.bin"
    tracemalloc.start()
    try:
        t = save_prime_table(2 * 10**6, path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # as the build: each segment is written as it is sieved, with no spf
    # array or payload blob over 0..limit
    assert peak < 2 * t.primes.nbytes + 3 * 4 * 2**18
    assert path.stat().st_size == 14 + 4 * (2 * 10**6 - 1)
