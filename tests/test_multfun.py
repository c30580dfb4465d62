import math
import sys
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from bvlab import (
    ClassViolationError,
    OutOfRangeError,
    ParameterError,
    PrimeTable,
    cli,
    core_arith,
)
from bvlab.characters import enumerate_characters
from bvlab.funcspec import save_pp_table
from bvlab.multfun import (
    _CHUNK,
    ArithFn,
    MultFn,
    Support,
    _divisor_sweep,
    _prefix,
    character_fn,
    class_c_check,
    companion_split,
    dirichlet_convolve,
    inverse,
    lambda_seq,
    liouville,
    log_twist,
    moebius,
    one,
    prime_power_values,
    restrict_to_primes,
    smooth_truncation,
    to_arith,
    truncated_convolution,
)
from families import seeded_family
from oracles import (
    brute_convolve,
    cm_multfn,
    delta_fn,
    divisors,
    evaluate,
    lambda_values,
    one_pass_convolution,
    scalar_multfn,
    trial_division,
    value,
)

LIMIT = 10**4


def moebius_naive(n):
    fs = trial_division(n)
    return 0 if any(e > 1 for _, e in fs) else (-1) ** len(fs)


@pytest.fixture(scope="module")
def table(table_1e4):
    return table_1e4


def test_builtin_examples(table):
    assert evaluate(one(100), 60, table) == 1
    assert evaluate(moebius(100), 60, table) == 0
    chi = enumerate_characters(5)[1]
    f = character_fn(chi, 100)
    assert evaluate(f, 6, table) == pytest.approx(1, abs=1e-12)


def test_evaluate_examples(table):
    assert evaluate(moebius(100), 30, table) == -1
    assert evaluate(one(100), 1, table) == 1
    f = cm_multfn(lambda p: 0.5 if p == 2 else 1.0, 100)
    assert evaluate(f, 8, table) == pytest.approx(0.125)


def test_evaluate_range_errors(table):
    with pytest.raises(OutOfRangeError):
        evaluate(one(10), 11, table)


def test_class_violation_on_bad_rule(table):
    f = scalar_multfn(lambda p, k: 1.5, 100)
    with pytest.raises(ClassViolationError):
        evaluate(f, 2, table)


def test_dense_matches_pointwise(table):
    for f in (one(LIMIT), moebius(LIMIT), liouville(LIMIT)):
        dense = to_arith(f, 2000, table)
        for n in range(1, 2001):
            assert dense.values[n] == evaluate(f, n, table)


def test_dense_moebius_against_naive(table):
    dense = to_arith(moebius(LIMIT), 3000, table)
    for n in range(1, 3001):
        assert dense.values[n] == moebius_naive(n)


def test_convolution_examples(table):
    lim = 50
    o = to_arith(one(lim), lim, table)
    mu = to_arith(moebius(lim), lim, table)
    h = dirichlet_convolve(o, mu, lim)
    assert h.values[12] == pytest.approx(0, abs=1e-12)
    assert h.values[1] == pytest.approx(1)
    tau = dirichlet_convolve(o, o, lim)
    assert tau.values[6] == pytest.approx(4)
    d = delta_fn(lim)
    fd = dirichlet_convolve(mu, d, lim)
    assert np.allclose(fd.values, mu.values)


def test_convolution_against_brute(table):
    lim = 200
    mu = to_arith(moebius(lim), lim, table)
    lam = to_arith(liouville(lim), lim, table)
    h = dirichlet_convolve(mu, lam, lim)
    for n in range(1, lim + 1):
        assert h.values[n] == pytest.approx(
            brute_convolve(mu.values, lam.values, n), abs=1e-12
        )


def test_convolution_limit_mismatch(table):
    o = to_arith(one(10), 10, table)
    big = to_arith(one(20), 20, table)
    with pytest.raises(ParameterError):
        dirichlet_convolve(o, big, 20)


def test_inverse_examples(table):
    g = inverse(one(100), 100)
    assert evaluate(g, 6, table) == pytest.approx(1)  # mu(6)
    g2 = inverse(moebius(100), 100)
    assert evaluate(g2, 4, table) == pytest.approx(1)  # 1(4)
    chi = enumerate_characters(5)[1]
    f = character_fn(chi, 100)
    g3 = inverse(f, 100)
    assert evaluate(g3, 2, table) == pytest.approx(-value(chi, 2), abs=1e-12)


def test_lambda_examples(table):
    lam1 = lambda_seq(one(100), 100, table)
    assert lambda_values(lam1)[9] == pytest.approx(math.log(3))
    assert lambda_values(lam1)[6] == 0
    lamu = lambda_seq(moebius(100), 100, table)
    assert lambda_values(lamu)[2] == pytest.approx(-math.log(2))


def test_lambda_of_one_is_von_mangoldt(table):
    lam = lambda_seq(one(LIMIT), LIMIT, table)
    from oracles import von_mangoldt

    for n in range(1, 2000):
        assert abs(lambda_values(lam)[n] - von_mangoldt(n, table)) <= 1e-12


def test_class_c_examples(table):
    ok, witness = class_c_check(moebius(LIMIT), LIMIT, table)
    assert ok and witness is None

    chi = enumerate_characters(7)[2]
    ok, _ = class_c_check(character_fn(chi, LIMIT), LIMIT, table)
    assert ok

    bad = scalar_multfn(lambda p, k: 1.0 if k == 1 else -1.0, 100)
    ok, witness = class_c_check(bad, 100, table)
    # lambda_f(4) = 2 log2 f(4) - lambda_f(2) f(2) = -3 log 2, beyond log 2.
    assert not ok and witness == 4


def test_class_c_cm_shortcut(table):
    # any completely multiplicative f with |f(p)| <= 1 is class C
    for f in seeded_family(101, 5, 2000, kind="cm"):
        ok, _ = class_c_check(f, 2000, table)
        assert ok


def test_smooth_truncation_examples(table):
    fy = smooth_truncation(one(100), 3)
    assert evaluate(fy, 10, table) == 0
    assert evaluate(fy, 12, table) == 1
    assert evaluate(fy, 1, table) == 1


def test_restrict_to_primes(table):
    r = restrict_to_primes(one(100), table, 100)
    assert r.values[7] == 1 and r.values[8] == 0
    rmu = restrict_to_primes(moebius(100), table, 100)
    assert all(rmu.values[p] == -1 for p in (2, 3, 5, 7, 97))
    # g restricted to primes is the negative of f restricted to primes
    f = seeded_family(7, 1, 500, kind="cm")[0]
    g = inverse(f, 500)
    rf = restrict_to_primes(f, table, 500)
    rg = restrict_to_primes(g, table, 500)
    assert np.allclose(rg.values, -rf.values, atol=1e-12)


def test_log_twist_examples(table):
    o = to_arith(one(100), 100, table)
    t = log_twist(o, math.log(100))
    assert t.values[100] == pytest.approx(1)
    assert t.values[1] == 0
    mu = to_arith(moebius(100), 100, table)
    t2 = log_twist(mu, 1.0)
    assert t2.values[2] == pytest.approx(-math.log(2))


def test_truncated_convolution_examples(table):
    lim = 50
    o = to_arith(one(lim), lim, table)
    h = truncated_convolution(o, o, 4, lim)
    assert h.values[6] == pytest.approx(2)  # (2,3) and (3,2) only
    full = dirichlet_convolve(o, o, lim)
    hfull = truncated_convolution(o, o, lim, lim)
    assert np.allclose(hfull.values, full.values)
    assert hfull.values.tobytes() == full.values.tobytes()
    # h(p) = 0 for prime p > cutoff
    assert h.values[7] == 0


def test_truncated_convolution_brute(table):
    lim = 120
    cutoff = 9
    mu = to_arith(moebius(lim), lim, table)
    o = to_arith(one(lim), lim, table)
    h = truncated_convolution(mu, o, cutoff, lim)
    for n in range(1, lim + 1):
        want = sum(
            mu.values[d] * o.values[n // d]
            for d in divisors(n)
            if d <= cutoff and n // d <= cutoff
        )
        assert h.values[n] == pytest.approx(want, abs=1e-12)


_CONV_KINDS = ("real", "complex", "sparse", "powerful-first")


def _conv_operands(kind, limit, table):
    """Two ArithFn operands defined a little past limit, seeded by kind and limit."""
    rng = np.random.default_rng([limit, _CONV_KINDS.index(kind)])
    size = limit + 8

    def disc():
        return rng.uniform(-1, 1, size) + 1j * rng.uniform(-1, 1, size)

    if kind == "real":
        fv, gv = rng.uniform(-1, 1, size), rng.uniform(-1, 1, size)
    elif kind == "complex":
        fv, gv = disc(), disc()
    else:
        # f zero at small d and at random d; g supported on the powerful
        # numbers, as the companion-check convolution g_powerful * f_star
        fv = disc()
        fv[: math.isqrt(limit) + 2] = 0
        fv[rng.random(size) < 0.3] = 0
        f = seeded_family(limit, 1, size, kind="class-c")[0]
        gv = to_arith(companion_split(f, size)[1], size - 1, table).values
        if kind == "powerful-first":
            fv, gv = gv, fv
    return ArithFn(values=fv, limit=size - 1), ArithFn(values=gv, limit=size - 1)


@pytest.mark.parametrize("kind", _CONV_KINDS)
@pytest.mark.parametrize("lim", [1, 2, 3, 8, 9, 10, 99, 100, 101, 9999, 10**4, 10**4 + 1])
def test_convolutions_match_one_pass_sweep_bytes(table_1e5, kind, lim):
    f, g = _conv_operands(kind, lim, table_1e5)

    def assert_sweep(got, cut):
        want = one_pass_convolution(f.values, g.values, cut, lim)
        if not want.imag.any():  # a real h is float64: the oracle's real parts
            want = want.real
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), cut
        assert kind != "real" or got.dtype == np.float64

    assert_sweep(dirichlet_convolve(f, g, lim).values, lim)
    if kind == "powerful-first":
        assert_sweep(dirichlet_convolve(Support.of(f), g, lim).values, lim)
    t = math.isqrt(lim)
    for cutoff in (-1, 0.5, 1, t - 1, t, t + 1, lim / 2, lim, 2 * lim):
        assert_sweep(truncated_convolution(f, g, cutoff, lim).values, min(math.floor(cutoff), lim))


def test_convolutions_match_one_pass_sweep_bytes_large():
    lim = 2 * 10**5
    rng = np.random.default_rng(20250)
    f, g = (
        ArithFn(values=rng.uniform(-1, 1, lim + 1) + 1j * rng.uniform(-1, 1, lim + 1), limit=lim)
        for _ in range(2)
    )
    want = one_pass_convolution(f.values, g.values, lim, lim)
    assert dirichlet_convolve(f, g, lim).values.tobytes() == want.tobytes()
    cut = int(lim / math.log(lim) ** 1.037)
    want = one_pass_convolution(f.values, g.values, cut, lim)
    assert truncated_convolution(f, g, cut, lim).values.tobytes() == want.tobytes()


@pytest.mark.parametrize("kind", ["real", "complex", "mixed", "mixed-swapped"])
def test_chunked_sweep_matches_one_pass_sweep_at_chunk_edges(kind):
    rng = np.random.default_rng(20251)
    lim = 2 * _CHUNK + 5  # d = 1 and e = 1 take three chunks, d = 2 two
    fv, gv = rng.uniform(-1, 1, lim + 1), rng.uniform(-1, 1, lim + 1)
    if kind != "real":
        gv = gv + 1j * rng.uniform(-1, 1, lim + 1)
    if kind == "complex":
        fv = fv + 1j * rng.uniform(-1, 1, lim + 1)
    if kind == "mixed-swapped":
        fv, gv = gv, fv
    f, g = ArithFn(values=fv, limit=lim), ArithFn(values=gv, limit=lim)
    for cut in (lim, _CHUNK, _CHUNK + 1):
        want = one_pass_convolution(f.values, g.values, cut, lim)
        want = want.real if kind == "real" else want
        got = truncated_convolution(f, g, cut, lim).values
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), cut


@pytest.mark.parametrize("kind", ["moebius", "liouville", "class-c"])
def test_support_sweep_matches_dense_sweep_at_chunk_edges(table_1e6, kind):
    # a sparse first operand, g_powerful of the companion split, against a
    # second with signed zeros; the dense first operand's zeros are signed too
    lim = 2 * _CHUNK + 5
    rng = np.random.default_rng([20252, len(kind)])
    make = {"moebius": moebius, "liouville": liouville}.get(kind)
    f = make(lim) if make else seeded_family(29, 1, lim, kind="class-c")[0]
    fstar, g = companion_split(f, lim)
    a = to_arith(g, lim, table_1e6).values.copy()
    b = to_arith(fstar, lim, table_1e6).values.copy()
    for part in (a.real, a.imag) if a.dtype == np.complex128 else (a,):
        zero = np.flatnonzero(part == 0)
        part[rng.choice(zero, len(zero) // 2, replace=False)] = -0.0
    for part in (b.real, b.imag) if b.dtype == np.complex128 else (b,):
        part[rng.integers(1, lim + 1, 500)] = -0.0
        part[rng.integers(1, lim + 1, 500)] = 0.0
    s = Support.of(ArithFn(values=a, limit=lim))
    assert len(s.ds) < lim // 50 and not (s.values == 0).any()
    assert (a.dtype == np.complex128) == (kind == "class-c")
    for cut in (lim, _CHUNK, _CHUNK + 1):
        want = _divisor_sweep(a, b, cut, lim)
        got = _divisor_sweep(s.values, b, cut, lim, s.ds)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), cut
        oracle = one_pass_convolution(a, b, cut, lim)
        oracle = oracle if want.dtype == np.complex128 else oracle.real
        assert want.tobytes() == oracle.tobytes(), cut


def _traced_peak(run):
    tracemalloc.start()
    try:
        out = run()
        return out, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("kind", ["real", "complex", "mixed"])
def test_convolution_holds_its_output_and_one_chunk(table_1e6, kind):
    lim = 3 * 10**5
    chi = character_fn(enumerate_characters(7)[1], lim)
    a, b = {"real": (moebius, one), "complex": (None, None), "mixed": (moebius, None)}[kind]
    f = to_arith(a(lim) if a else chi, lim, table_1e6)
    g = to_arith(b(lim) if b else chi, lim, table_1e6)
    h, peak = _traced_peak(lambda: dirichlet_convolve(f, g, lim))
    # h, the one product buffer, and the ufunc's own buffer for a real operand
    # cast to complex (8192 values); a product formed over a whole slice
    # would add up to h's size again
    assert peak <= h.values.nbytes + _CHUNK * h.values.itemsize + 2**18


def test_companion_check_holds_two_dense_arrays(table_1e6, tmp_path, monkeypatch):
    lim = 10**6
    rng = np.random.default_rng(20253)
    pks = table_1e6.prime_powers(lim)[0]  # the table's enumeration, outside the trace
    vals = np.sqrt(rng.random(len(pks))) * np.exp(2j * np.pi * rng.random(len(pks)))
    np.savez(tmp_path / "f.npz", prime_powers=pks, values=vals)
    monkeypatch.setattr(cli, "_get_table", lambda args, needed: table_1e6)
    argv = ["companion-check", "--limit", str(lim), "--out", str(tmp_path / "c.json"),
            "--f", f'{{"kind":"table","path":"{tmp_path / "f.npz"}"}}']
    rc, peak = _traced_peak(lambda: cli.main(argv))
    assert rc == 0
    # two dense complex arrays (16 MB each) at a time, with one to_arith's
    # work (under 9 MB) and the prime-power values of f, f* and g (1.3 MB
    # each); a third dense array, g's beside f*'s and their convolution,
    # would not fit
    dense = 16 * (lim + 1)
    assert peak < 2 * dense + 12 * 2**20


@pytest.mark.parametrize(
    "make",
    [moebius, lambda n: character_fn(enumerate_characters(5)[1], n)],
    ids=["moebius", "chi5"],
)
def test_lambda_seq_holds_no_dense_array(table_1e6, make):
    lim = 10**6
    lam, peak = _traced_peak(lambda: lambda_seq(make(lim), lim, table_1e6))
    assert peak < 16 * (lim + 1)  # one dense complex128 array over 0..limit
    assert lam.prime_powers.tobytes() == table_1e6.prime_powers(lim)[0].tobytes()
    dense = lambda_values(lam)
    assert dense.dtype == np.complex128 and dense.shape == (lim + 1,)
    assert dense[lam.prime_powers].tobytes() == lam.pp_values.tobytes()
    off = np.ones(lim + 1, dtype=bool)
    off[lam.prime_powers] = False
    assert not dense[off].any()
    assert lambda_values(lam) is dense  # densified once


def test_lambda_seq_peaks_in_its_prime_powers(table_1e6):
    lim = 10**6
    f = moebius(lim)
    prime_power_values(f, lim, table_1e6)  # f's one read, outside the trace
    primes = table_1e6.primes[table_1e6.primes <= lim]
    _, enumerate_peak = _traced_peak(lambda: core_arith.prime_powers(primes, lim))
    lam, peak = _traced_peak(lambda: lambda_seq(f, lim, table_1e6))
    # the read f keeps its p^k, p and k, so the recursion enumerates nothing:
    # it holds log p, the level indices and the result, and one chunk of
    # primes at a time (3.4 MB here), below prime_powers' own transient; an
    # enumeration again (5.0 MB), a Python list of the logs (5.7 MB) or the
    # recursion over all primes at once would not fit
    assert peak < 0.8 * enumerate_peak
    assert lam.pp_values.tobytes() == lambda_seq(moebius(lim), lim, table_1e6).pp_values.tobytes()


def test_prefix_reads_count_the_prime_powers(table_1e6, monkeypatch):
    # a read up to m takes f's first len(prime_powers(m)) values; check the
    # cut at and next to prime powers, where it moves, and that the table's
    # cut of its kept enumeration is a fresh enumeration at m, byte for byte
    f = liouville(10**6)
    near = {p**k + d for p in (2, 3, 5, 7, 997) for k in range(1, 20) for d in (-1, 0, 1)}
    for m in sorted(n for n in near | set(range(1, 200)) | {10**6} if 1 <= n <= 10**6):
        fresh = core_arith.prime_powers(table_1e6.primes[table_1e6.primes <= m], m)
        kept = table_1e6.prime_powers(m)
        assert [a.tobytes() for a in kept] == [a.tobytes() for a in fresh], m
        assert not any(a.flags.writeable for a in kept), m
        n = len(fresh[0])
        assert len(prime_power_values(f, m, table_1e6)) == n, m
    with pytest.raises(OutOfRangeError):
        table_1e6.prime_powers(10**6 + 1)
    # the table reads without a lock: threads that race over one table may each
    # enumerate, and every read still gets its own limit's bytes
    table = PrimeTable(limit=table_1e6.limit, spf=table_1e6.spf, primes=table_1e6.primes)
    limits = [10**3, 10**5, 10**4, 10**5 + 3] * 4
    want = {m: [a.tobytes() for a in table_1e6.prime_powers(m)] for m in limits}
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=8) as ex:
            reads = [ex.submit(table.prime_powers, m) for m in limits]
            got = [[a.tobytes() for a in r.result(timeout=60)] for r in reads]
    finally:
        sys.setswitchinterval(switch)
    assert got == [want[m] for m in limits]
    # a table enumerates at the limit it is read at, never above it: one
    # enumeration serves every smaller read, and a larger one enumerates again
    table = PrimeTable(limit=table_1e6.limit, spf=table_1e6.spf, primes=table_1e6.primes)
    enumerate_pp = core_arith.prime_powers
    calls = []

    def counting_prime_powers(primes, limit):
        calls.append(limit)
        return enumerate_pp(primes, limit)

    monkeypatch.setattr(core_arith, "prime_powers", counting_prime_powers)
    h = liouville(10**4)
    before = [a.tobytes() for a in _prefix(h, 10**4, table)]
    assert calls == [10**4]  # a table at 10^6 read at 10^4 stops at 10^4
    assert len(table.prime_powers(10**3)[0]) == len(table_1e6.prime_powers(10**3)[0])
    assert calls == [10**4]
    assert len(table.prime_powers(10**5)[0]) == len(table_1e6.prime_powers(10**5)[0])
    assert calls == [10**4, 10**5]
    assert [a.tobytes() for a in _prefix(h, 10**4, table)] == before
    assert calls == [10**4, 10**5]
    assert f.pp_value(997, 2, table_1e6) == 1
    # pp_value finds p^k's slot and checks that it lists this p and k: each of
    # the first four is a prime power listed under another (p, k)
    for p, k in [(4, 1), (8, 1), (9, 1), (4, 2), (2, 0), (1, 1), (6, 1), (2, 20), (10**6 + 3, 1)]:
        with pytest.raises(OutOfRangeError):
            f.pp_value(p, k, table_1e6)
    g = liouville(10**4)
    pks, ps, ks = table_1e6.prime_powers(10**4)
    pv = prime_power_values(g, 10**4, table_1e6)
    got = [g.pp_value(p, k, table_1e6) for p, k in zip(ps.tolist(), ks.tolist())]
    assert np.array(got).tobytes() == pv.tobytes()
    with pytest.raises(OutOfRangeError):
        g.pp_value(10007, 1, table_1e6)  # a prime above g's limit
    # the kept arrays are read-only: a rule that writes into its arguments,
    # a base's shared arrays included, fails and leaves every later read alone
    want = [a.tobytes() for a in (pks, ps, ks, pv)]

    def writes_p(p, k, fv):
        p[0] = 3
        return fv

    for rule in (writes_p, lambda p, k, fv: np.negative(fv, out=fv)):
        with pytest.raises(ValueError):
            prime_power_values(MultFn(rule, 10**4, base=g), 10**4, table_1e6)
    with pytest.raises(ValueError):
        prime_power_values(MultFn(lambda p, k: np.add(k, 1, out=k), 10**4), 10**4, table_1e6)
    assert [a.tobytes() for a in _prefix(g, g.limit, table_1e6)] == want
    assert [g.pp_value(p, k, table_1e6) for p, k in [(2, 1), (3, 2), (9973, 1)]] == [-1, 1, -1]


def test_companion_split_examples(table):
    f = seeded_family(3, 1, 200, kind="cm")[0]
    _, g = companion_split(f, 200)
    for p, k in [(2, 1), (2, 2), (3, 2), (5, 1)]:
        want = 0 if k == 1 else 0  # completely multiplicative: g == delta
        assert g.pp_value(p, k, table) == pytest.approx(want, abs=1e-12)

    mu = moebius(200)
    _, gmu = companion_split(mu, 200)
    assert gmu.pp_value(2, 2, table) == pytest.approx(-1)  # mu(4) - mu(2)^2

    f2 = scalar_multfn(lambda p, k: 1.0 if k == 1 else 0.5, 200)
    fstar, g2 = companion_split(f2, 200)
    assert g2.pp_value(2, 2, table) == pytest.approx(-0.5)
    conv = brute_convolve(
        {1: 1, 2: evaluate(g2, 2, table), 4: evaluate(g2, 4, table)},
        {1: 1, 2: evaluate(fstar, 2, table), 4: evaluate(fstar, 4, table)},
        4,
    )
    assert conv == pytest.approx(evaluate(f2, 4, table))


# --- seeded-family identities -------------------------------------------


def test_inverse_property_family(table):
    lim = 2000
    for f in seeded_family(21, 10, lim, kind="cm"):
        fd = to_arith(f, lim, table)
        gd = to_arith(inverse(f, lim), lim, table)
        conv = dirichlet_convolve(fd, gd, lim)
        want = delta_fn(lim)
        assert np.max(np.abs(conv.values - want.values)) <= 1e-9


def test_lambda_identity_family(table):
    lim = 2000
    for f in seeded_family(22, 6, lim, kind="class-c"):
        lam = lambda_seq(f, lim, table)
        fd = to_arith(f, lim, table)
        gd = to_arith(inverse(f, lim), lim, table)
        flog = log_twist(fd, 1.0)
        rhs = dirichlet_convolve(gd, flog, lim)
        assert np.max(np.abs(lambda_values(lam) - rhs.values)) <= 1e-8


def test_lambda_negation_family(table):
    lim = 2000
    for f in seeded_family(23, 6, lim, kind="class-c"):
        g = inverse(f, lim)
        lf = lambda_seq(f, lim, table)
        lg = lambda_seq(g, lim, table)
        assert np.max(np.abs(lambda_values(lf) + lambda_values(lg))) <= 1e-9


def test_class_closure_family(table):
    lim = 2000
    for f in seeded_family(24, 6, lim, kind="class-c"):
        ok, _ = class_c_check(f, lim, table)
        assert ok
        gok, witness = class_c_check(inverse(f, lim), lim, table)
        assert gok, witness


def test_companion_identity_family(table):
    lim = 2000
    for f in seeded_family(25, 6, lim, kind="class-c"):
        fstar, g = companion_split(f, lim)
        fd = to_arith(f, lim, table)
        conv = dirichlet_convolve(to_arith(g, lim, table), to_arith(fstar, lim, table), lim)
        assert np.max(np.abs(conv.values - fd.values)) <= 1e-9
        gd = to_arith(g, lim, table)
        for n in range(2, lim + 1):
            if gd.values[n] != 0:
                fs = trial_division(n)
                assert all(e >= 2 for _, e in fs), n


def test_arithfn_leaves_the_callers_array_alone():
    v = np.array([5, 1, 2], complex)
    f = ArithFn(values=v, limit=2)
    assert v[0] == 5 and f.values[0] == 0 and f.values is not v
    w = np.array([0, 1, 2j], complex)
    assert ArithFn(values=w, limit=2).values is w  # nothing to change: no copy
    r = np.array([7.0, 1.0, 2.0])
    g = ArithFn(values=r, limit=2)
    assert r[0] == 7 and g.values[0] == 0 and g.values.dtype == np.float64


def test_flog_equals_lambda_star_f(table):
    lim = 2000
    for f in seeded_family(26, 4, lim, kind="class-c"):
        fd = to_arith(f, lim, table)
        lam = lambda_seq(f, lim, table)
        lhs = log_twist(fd, 1.0)
        rhs = dirichlet_convolve(
            ArithFn(values=lambda_values(lam).copy(), limit=lim), fd, lim
        )
        assert np.max(np.abs(lhs.values - rhs.values)) <= 1e-8


def test_cm_lambda_cross_check(table):
    lim = 2000
    for f in seeded_family(27, 3, lim, kind="cm"):
        lam = lambda_seq(f, lim, table)
        for p in (2, 3, 5, 7, 11, 13):
            pk, k = p, 1
            while pk <= lim:
                want = f.pp_value(p, 1, table) ** k * math.log(p)
                assert abs(lambda_values(lam)[pk] - want) <= 1e-9
                pk *= p
                k += 1


@pytest.mark.parametrize("first", ["to_arith", "lambda_seq", "save_pp_table"])
def test_rule_called_once_per_prime_power_ascending(table, tmp_path, first):
    lim = 600
    seen = []

    def rule(p, k):
        seen.append(p**k)
        return 0.5**k

    f = scalar_multfn(rule, lim)
    runs = {
        "to_arith": lambda: to_arith(f, lim, table),
        "lambda_seq": lambda: lambda_seq(f, lim, table),
        "save_pp_table": lambda: save_pp_table(f, lim, table, tmp_path / "f.npz"),
    }
    runs[first]()
    for run in runs.values():
        run()
    assert seen == [n for n in range(2, lim + 1) if len(trial_division(n)) == 1]


def test_memo_concurrent_reads(table):
    f = seeded_family(28, 1, 5000, kind="class-c")[0]
    ns = list(range(1, 5001))

    def worker(_):
        return [evaluate(f, n, table) for n in ns[:500]]

    with ThreadPoolExecutor(max_workers=8) as ex:
        results = list(ex.map(worker, range(8)))
    for r in results[1:]:
        assert r == results[0]
