import math
import random

import numpy as np
import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from bvlab import ParameterError, discrepancy
from bvlab.characters import (
    CharacterSet,
    _turns,
    enumerate_characters,
    trivial_set,
    unit_group,
)
from bvlab.discrepancy import (
    bv_sum,
    delta,
    delta_xi,
    large_sieve_check,
    partial_summation_check,
    residue_buckets,
    small_integers,
    sw_profile,
    twisted_sum,
)
from bvlab.core_arith import build_prime_table
from bvlab.multfun import (
    ArithFn,
    character_fn,
    liouville,
    moebius,
    one,
    restrict_to_primes,
    to_arith,
)
from families import seeded_family
from oracles import (
    brute_delta,
    character_large_sieve,
    copied_residue_buckets,
    divisors,
    full_primitive_set,
    induced_bv_rows,
    phi_naive,
)


@pytest.fixture(scope="module")
def table(table_1e4):
    return table_1e4


def dense(f, limit, table):
    return to_arith(f, limit, table)


def test_residue_buckets_small(table):
    o = dense(one(20), 20, table)
    b = residue_buckets(o.values, 10, (3,))[0]
    assert list(b.real) == [3, 4, 3]  # {3,6,9}, {1,4,7,10}, {2,5,8}


def test_twisted_sum_examples(table):
    mu = dense(moebius(100), 100, table)
    chi0_mod2 = enumerate_characters(2)[0]
    assert twisted_sum(mu, 6, chi0_mod2) == pytest.approx(-1)  # mu(1)+mu(3)+mu(5)
    triv = enumerate_characters(1)[0]
    assert twisted_sum(mu, 50, triv) == pytest.approx(np.sum(mu.values[1:51]))
    chi = enumerate_characters(5)[1]
    f = dense(character_fn(chi, 100), 100, table)
    got = twisted_sum(f, 100, chi)
    coprime_count = sum(1 for n in range(1, 101) if math.gcd(n, 5) == 1)
    assert got == pytest.approx(coprime_count)


def test_delta_examples(table):
    o = dense(one(100), 100, table)
    rep = delta(o, 10, 3, 1)
    assert rep.delta == pytest.approx(0.5)
    assert rep.progression_sum == pytest.approx(4)
    assert rep.coprime_sum == pytest.approx(7)
    rep2 = delta(o, 10, 3, 2)
    assert rep2.delta == pytest.approx(-0.5)
    rep3 = delta(o, 10, 1, 1)
    assert rep3.delta == 0


def test_delta_rejects_noncoprime(table):
    o = dense(one(100), 100, table)
    with pytest.raises(ParameterError):
        delta(o, 10, 6, 3)


def test_delta_against_brute(table):
    rng = random.Random(31)
    mu = dense(moebius(500), 500, table)
    for _ in range(40):
        q = rng.randrange(1, 30)
        a = rng.choice([r for r in range(1, q + 1) if math.gcd(r, q) == 1])
        x = rng.randrange(q, 500)
        want = brute_delta(mu.values, x, q, a)
        assert delta(mu, x, q, a).delta == pytest.approx(want, abs=1e-12)


def test_delta_xi_trivial_equals_delta_bitwise(table):
    mu = dense(moebius(2000), 2000, table)
    xi = trivial_set()
    for q in (1, 2, 3, 7, 12, 45):
        for a in range(1, q + 1):
            if math.gcd(a, q) != 1:
                continue
            plain = delta(mu, 2000, q, a)
            corrected = delta_xi(mu, 2000, q, a, xi)
            assert corrected.delta == plain.delta


def test_delta_xi_full_group_annihilates(table):
    o = dense(one(1000), 1000, table)
    rep = delta_xi(o, 10, 3, 1, full_primitive_set(3))
    assert abs(rep.delta) <= 1e-12
    assert rep.xi_correction == pytest.approx(4)  # (7 + 1)/2
    for q in (4, 5, 8, 12):
        xi = full_primitive_set(q)
        for a in (1, q - 1):
            if math.gcd(a, q) != 1:
                continue
            rep = delta_xi(o, 1000, q, a, xi)
            assert abs(rep.delta) <= 1e-9


def test_character_killing(table):
    x = 10**4
    chi3 = enumerate_characters(3)[1]
    f = dense(character_fn(chi3, x), x, table)
    xi = CharacterSet(members=(chi3,))
    plain = delta(f, x, 3, 1)
    corrected = delta_xi(f, x, 3, 1, xi)
    assert abs(corrected.delta) <= 1
    assert abs(plain.delta) >= x / 3 - 2


def test_bv_sum_example_direct_enumeration(table):
    # q=1 and q=2 contribute 0 (phi(2)=1 forces delta(q=2) = 0); q=3 gives 1/2.
    o = dense(one(100), 100, table)
    rep = bv_sum(o, 10, 3, None)
    assert [r[0] for r in rep.per_q] == [1, 2, 3]
    assert rep.per_q[0][2] == 0
    assert rep.per_q[1][2] == 0
    assert rep.per_q[2][2] == pytest.approx(0.5)
    assert rep.total == pytest.approx(0.5)


def test_bv_sum_Q1_is_zero(table):
    o = dense(one(100), 100, table)
    assert bv_sum(o, 100, 1, None).total == 0


def test_bv_sum_prime_indicator_brute(table):
    ind = restrict_to_primes(one(100), table, 100)
    rep = bv_sum(ind, 100, 5, None)
    want = 0.0
    for q in range(1, 6):
        best = max(
            abs(brute_delta(ind.values, 100, q, a))
            for a in range(1, q + 1)
            if math.gcd(a, q) == 1
        )
        want += best
    assert rep.total == pytest.approx(want, abs=1e-12)


def test_bv_sum_total_is_sum_of_rows(table):
    mu = dense(moebius(2000), 2000, table)
    rep = bv_sum(mu, 2000, 40, None)
    acc = 0.0
    for _q, a, v in rep.per_q:
        acc += v
    assert rep.total == acc
    for q, a, _v in rep.per_q:
        assert math.gcd(a if q > 1 else 1, q) == 1


def test_bv_sum_xi_trivial_matches_plain_bitwise(table):
    mu = dense(moebius(2000), 2000, table)
    plain = bv_sum(mu, 2000, 50, None)
    corrected = bv_sum(mu, 2000, 50, trivial_set())
    assert plain.per_q == corrected.per_q
    assert plain.total == corrected.total


def test_bv_sum_threads_bit_stable(table):
    mu = dense(moebius(2000), 2000, table)
    base = bv_sum(mu, 2000, 200, None, threads=1)
    for threads in (2, 4):
        rep = bv_sum(mu, 2000, 200, None, threads=threads)
        assert rep.per_q == base.per_q
        assert rep.total == base.total


def test_reconstruction_invariant(table):
    # Summing progression sums over coprime a recovers the coprime sum.
    for f in seeded_family(41, 3, 1000, kind="class-c"):
        fd = dense(f, 1000, table)
        for q in (3, 8, 15, 50):
            b = residue_buckets(fd.values, 1000, (q,))[0]
            rs = [r for r in range(q) if math.gcd(r, q) == 1]
            total = sum(b[r] for r in rs)
            cop = sum(fd.values[n] for n in range(1, 1001) if math.gcd(n, q) == 1)
            assert abs(total - cop) <= 1e-9


def test_sw_profile_one_is_bounded(table):
    o = dense(one(10**4), 10**4, table)
    prof = sw_profile(o, 3, 1, [100, 1000, 10**4], 2.0)
    for X, ab, _norm in prof:
        assert ab <= 1


def test_sw_profile_A0_third_column(table):
    mu = dense(moebius(10**4), 10**4, table)
    prof = sw_profile(mu, 3, 1, [100, 1000], 0.0)
    for X, ab, norm in prof:
        assert norm == pytest.approx(ab / X)


def test_sw_profile_moebius_reported(table):
    mu = dense(moebius(10**4), 10**4, table)
    prof = sw_profile(mu, 3, 1, [100, 1000, 10**4], 2.0)
    assert len(prof) == 3
    assert all(np.isfinite(v) for row in prof for v in row)


def test_partial_summation_trivial(table):
    o = dense(one(200), 200, table)
    assert partial_summation_check(o, 100, 100, 3, 1, trivial_set()) == 0


def test_partial_summation_examples(table):
    o = dense(one(200), 200, table)
    resid = partial_summation_check(o, 100, 10, 3, 1, trivial_set())
    assert resid <= 1e-9
    mu = dense(moebius(200), 200, table)
    resid2 = partial_summation_check(mu, 150, 10, 5, 2, full_primitive_set(5))
    assert resid2 <= 1e-9


def test_partial_summation_rejects_bad_range(table):
    o = dense(one(200), 200, table)
    with pytest.raises(ParameterError):
        partial_summation_check(o, 50, 100, 3, 1, trivial_set())


def test_partial_summation_random_tuples(table):
    rng = random.Random(53)
    fs = seeded_family(54, 5, 3000, kind="class-c")
    xis = [trivial_set(), full_primitive_set(3), full_primitive_set(4)]
    for _ in range(40):
        f = rng.choice(fs)
        fd = dense(f, 3000, table)
        q = rng.randrange(1, 15)
        a = rng.choice([r for r in range(1, q + 1) if math.gcd(r, q) == 1])
        x = rng.randrange(30, 3000)
        X = rng.uniform(2, x)
        resid = partial_summation_check(fd, x, X, q, a, rng.choice(xis))
        assert resid <= 1e-8


def test_large_sieve_hand_case():
    lhs, rhs, ratio = large_sieve_check([1.0], 3)
    assert lhs == 2.5  # r=1 gives 1, r=2 has no primitive, r=3 gives 3/2
    assert rhs == 10.0
    assert ratio == 0.25


def test_large_sieve_zero_coeffs():
    lhs, _rhs, ratio = large_sieve_check([0.0, 0.0, 0.0], 5)
    assert lhs == 0 and ratio == 0


def test_large_sieve_random_fuzz():
    rng = np.random.default_rng(77)
    for _ in range(60):
        N = int(rng.integers(1, 200))
        Q = int(rng.integers(1, 60))
        start = int(rng.integers(0, 50))
        coeffs = rng.normal(size=N) + 1j * rng.normal(size=N)
        lhs, rhs, ratio = large_sieve_check(coeffs, Q, start=start)
        assert lhs <= rhs
        assert 0 <= ratio <= 1


def test_imaginary_part_guard():
    vals = np.zeros(101, dtype=np.complex128)
    vals[1:] = 1.0
    f = ArithFn(values=vals, limit=100, label="one")
    rep = delta(f, 100, 4, 1)
    assert rep.delta.imag == 0


def random_table(kind, limit, seed=2):
    """Seeded non-integer values on 1..limit: real ones, or points of the unit disc.

    kind "moebius" is Moebius as to_arith builds it instead, with its -0.0 entries.
    """
    if kind == "moebius":
        return to_arith(moebius(limit), limit, build_prime_table(limit))
    rng = np.random.default_rng(seed)
    vals = rng.uniform(-1, 1, limit + 1).astype(np.complex128)
    if kind == "complex":
        vals = vals * np.exp(2j * np.pi * rng.random(limit + 1))
    return ArithFn(values=vals, limit=limit, label=f"random-{kind}")


def with_copied_kernel(monkeypatch, compute):
    """compute() as it is, then again with the copied complex128 kernel of oracles.py.

    The second run also turns off the integer path, so that the copied
    kernel sums the float64 values.
    """
    got = compute()
    calls = []

    def copied(v, m, qs):
        calls.append(m)
        return [copied_residue_buckets(v, m, q) for q in qs]

    with monkeypatch.context() as mp:
        mp.setattr(discrepancy, "residue_buckets", copied)
        mp.setattr(discrepancy, "small_integers", lambda v: None)
        want = compute()
    assert calls
    return got, want


XI = CharacterSet(members=(enumerate_characters(1)[0], enumerate_characters(3)[1],
                           enumerate_characters(5)[1]))


@pytest.mark.parametrize("kind", ["real", "complex"])
def test_residue_buckets_match_copied_kernel(kind):
    # at m = 4 * 10^5 one call sweeps >= 3 slices of float64 and >= 6 of complex128
    f = random_table(kind, 400000)
    for m in (3000, 2999, 1234, 400000, 399999):
        view = f.values[: m + 1]
        assert view.dtype == (np.float64 if kind == "real" else np.complex128)
        divisors = [q for q in range(130, 10000) if (m + 1) % q == 0]
        small = sorted({*range(1, 130), *range(480, 544), 997, *divisors})
        for qs in (small, [m - 1, m, m + 1, m + 40]):
            want = [copied_residue_buckets(f.values, m, q).tobytes() for q in qs]
            for values in (view, np.ascontiguousarray(view), f.values):
                got = residue_buckets(values, m, qs)
                for q, b, w in zip(qs, got, want):
                    assert b.dtype == np.complex128 and b.tobytes() == w, (m, q)


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    m=st.integers(1, 600000) | st.integers(65536, 600000),  # the latter: several slices
    kind=st.sampled_from(["real", "complex"]),
    data=st.data(),
)
def test_residue_buckets_property(seed, m, kind, data):
    rng = np.random.default_rng(seed)
    values = rng.uniform(-1, 1, m + 1)
    if kind == "complex":
        values = values * np.exp(2j * np.pi * rng.random(m + 1))
    values[rng.integers(0, m + 1, 8)] = -0.0
    top = data.draw(st.integers(1, m + 40) | st.integers(1, min(m + 40, 4096)), label="top")
    qs = sorted(data.draw(st.sets(st.integers(1, top), min_size=1, max_size=64), label="qs"))
    for q, b in zip(qs, residue_buckets(values, m, qs)):
        assert b.tobytes() == copied_residue_buckets(values, m, q).tobytes(), q


B = discrepancy._INT_BOUND


def integer_tables(limit, bound=B):
    """Integer float64 values on 0..limit: Moebius as to_arith builds it (with
    its -0.0 entries), and seeded integers in [-bound, bound] whose class
    3 mod 7 is all -0.0 and whose class 5 mod 7 sums to 0."""
    mu = random_table("moebius", limit).values
    rng = np.random.default_rng(7)
    v = rng.integers(-bound, bound + 1, limit + 1).astype(np.float64)
    v[3::7] = -0.0
    cls = v[5::7]
    pairs = rng.integers(-bound, bound + 1, len(cls) // 2)
    cls[: 2 * len(pairs)] = np.stack([pairs, -pairs], axis=1).ravel()
    cls[2 * len(pairs) :] = 0
    assert np.count_nonzero((mu == 0) & np.signbit(mu)) > 0
    assert cls.sum() == 0 and np.count_nonzero(cls) > 0
    return {"moebius": mu, "seeded": v}


@pytest.mark.parametrize("source", ["moebius", "seeded"])
def test_integer_buckets_match_copied_kernel(source):
    # at m = 4 * 10^5 one call sweeps 2 slices of int32 (seeded) or 1 of int16 (Moebius)
    v = integer_tables(400000)[source]
    for m in (3000, 2999, 1234, 400000, 399999):
        ints = small_integers(v[: m + 1])
        assert ints.dtype == (np.int16 if source == "moebius" else np.int32)
        divisors = [q for q in range(130, 10000) if (m + 1) % q == 0]
        small = sorted({*range(1, 130), *range(480, 544), 997, *divisors})
        for qs in (small, [m - 1, m, m + 1, m + 40]):
            got = residue_buckets(ints, m, qs)
            for q, b in zip(qs, got):
                w = copied_residue_buckets(v, m, q)
                assert b.dtype == np.complex128 and b.tobytes() == w.tobytes(), (m, q)
    if source == "seeded":  # the all -0.0 class, and the class that sums to 0
        b = residue_buckets(small_integers(v), 400000, (7,))[0]
        assert b[3] == 0 and b[5] == 0 and not np.signbit(b[[3, 5]].real).any()


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    m=st.integers(1, 600000) | st.integers(262144, 800000),  # the latter: several int32 slices
    bound=st.sampled_from([1, B]),
    data=st.data(),
)
def test_integer_buckets_property(seed, m, bound, data):
    rng = np.random.default_rng(seed)
    values = rng.integers(-bound, bound + 1, m + 1).astype(np.float64)
    values[rng.integers(0, m + 1, 8)] = -0.0
    ints = small_integers(values)
    assert ints is not None
    top = data.draw(st.integers(1, m + 40) | st.integers(1, min(m + 40, 4096)), label="top")
    qs = sorted(data.draw(st.sets(st.integers(1, top), min_size=1, max_size=64), label="qs"))
    for q, b in zip(qs, residue_buckets(ints, m, qs)):
        assert b.tobytes() == copied_residue_buckets(values, m, q).tobytes(), q


@pytest.mark.parametrize(
    "value, integer",
    [(B, True), (-B, True), (-0.0, True), (B + 1, False), (-B - 1, False), (0.5, False),
     (float("nan"), False), (float("inf"), False), (float("-inf"), False),
     (2.0**31, False), (-(2.0**31), False), (2.0**40 + 1, False),
     (15, True), (-15, True), (16, True), (-16, True), (15.5, False)],
)
def test_small_integers_gate(value, integer):
    values = np.array([0.0, 1.0, -1.0, value, 3.0])
    got = small_integers(values)
    if integer:  # int16 when every |v| <= 15, else int32
        width = np.int16 if abs(value) <= 15 else np.int32
        assert got.dtype == width and np.array_equal(got, values)
    else:
        assert got is None
    assert small_integers(values.astype(np.complex128)) is None
    assert small_integers(values.astype(np.float32)) is None


@pytest.mark.parametrize("sign", [1, -1])
def test_int16_buckets_at_the_slice_bound(sign):
    # a slice of 2^19 int16 values reduces 2048 full rows of 256 values when
    # q = 256: each of its int16 sums reaches +-30720, near the limit 32767
    m = (1 << 20) + (1 << 19) + 300
    values = np.full(m + 1, 15.0 * sign)
    ints = small_integers(values)
    assert ints.dtype == np.int16
    qs = (1, 128, 256, 257, 511)
    for q, b in zip(qs, residue_buckets(ints, m, qs)):
        assert b.tobytes() == copied_residue_buckets(values, m, q).tobytes(), q


def test_coprime_residues_match_gcd_and_totient():
    for q in range(1, 5001):
        got = discrepancy._coprime_residues(q)
        want = np.flatnonzero(np.gcd(np.arange(q), q) == 1)
        assert got.dtype == want.dtype and np.array_equal(got, want), q
        assert len(got) == sympy.totient(q), q


FOLD_QS = (1, 2, 3, 16, 63, 64, 65, 128, 129, 300, 1000)


def fold_table(kind, table):
    """Integer-valued f on 0..4000: a builtin, Moebius restricted to the primes,
    or a seeded table of integers in [-bound, bound] with -0.0 entries and a
    class mod 7 that sums to 0."""
    if kind == "moebius":
        return to_arith(moebius(4000), 4000, table)
    if kind == "liouville":
        return to_arith(liouville(4000), 4000, table)
    if kind == "mu-on-primes":
        return restrict_to_primes(moebius(4000), table, 4000)
    bound = int(kind.split("-")[1])
    return ArithFn(values=integer_tables(4000, bound)["seeded"], limit=4000, label=kind)


@pytest.mark.parametrize("xi", [None, XI])
@pytest.mark.parametrize(
    "kind", ["moebius", "liouville", "mu-on-primes", "seeded-15", "seeded-16", f"seeded-{B}"]
)
def test_folded_bv_sum_matches_copied_kernel(monkeypatch, table, kind, xi):
    f = fold_table(kind, table)
    width = np.int16 if np.abs(f.values).max() <= 15 else np.int32
    assert small_integers(f.values).dtype == width

    def compute():
        return [[bv_sum(f, 3999.5, Q, xi, threads=t) for t in (1, 2, 3)] for Q in FOLD_QS]

    got, want = with_copied_kernel(monkeypatch, compute)
    assert repr(got) == repr(want)  # repr round-trips every float


def test_folded_bv_sum_over_several_int16_slices(monkeypatch):
    f = random_table("moebius", (1 << 20) + 5)
    got, want = with_copied_kernel(monkeypatch, lambda: bv_sum(f, f.limit, 65, XI, threads=2))
    assert repr(got) == repr(want)


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    m=st.integers(1, 20000),
    bound=st.sampled_from([1, 15, 16, B]),
    threads=st.integers(1, 3),
    with_xi=st.booleans(),
    data=st.data(),
)
def test_folded_bv_sum_property(seed, m, bound, threads, with_xi, data):
    rng = np.random.default_rng(seed)
    values = rng.integers(-bound, bound + 1, m + 1).astype(np.float64)
    values[rng.integers(0, m + 1, 8)] = -0.0
    f = ArithFn(values=values, limit=m, label="seeded")
    Q = data.draw(st.integers(1, min(m, 1200)), label="Q")
    xi = XI if with_xi else None
    got, want = with_copied_kernel(pytest.MonkeyPatch, lambda: bv_sum(f, m, Q, xi, threads))
    assert repr(got) == repr(want)


def test_bv_sum_sweeps_only_the_upper_half_for_integer_f(monkeypatch, table):
    swept = []
    sweep = discrepancy.residue_buckets

    def recording(values, m, qs):
        swept.extend(qs)
        return sweep(values, m, qs)

    monkeypatch.setattr(discrepancy, "residue_buckets", recording)
    mu = fold_table("moebius", table)
    cm = random_table("complex", 4000)
    for Q in FOLD_QS:
        for threads in (1, 2):
            swept.clear()
            bv_sum(mu, 4000, Q, threads=threads)
            assert sorted(swept) == list(range(Q // 2 + 1, Q + 1)), Q
            swept.clear()
            bv_sum(cm, 4000, Q, threads=threads)
            assert sorted(swept) == list(range(1, Q + 1)), Q


@pytest.mark.parametrize(
    "kind, x, Q, xi",
    [
        ("real", 3000, 300, None),  # q = 1 sums non-integer reals
        ("real", 3000, 300, XI),
        ("complex", 3000, 300, None),
        ("complex", 3000, 300, XI),
        ("real", 2000.5, 2000, None),  # Q = floor(x): the longest partial rows
        ("complex", 2000.5, 2000, XI),
        ("real", 400000, 300, None),  # several slices per q-block
        ("complex", 400000, 300, XI),
        ("moebius", 400000, 300, None),  # the integer path, folded from one int16 slice
        ("moebius", 400000, 300, XI),
    ],
)
def test_bv_sum_matches_copied_kernel(monkeypatch, kind, x, Q, xi):
    f = random_table(kind, max(3000, int(x)))
    got, want = with_copied_kernel(monkeypatch, lambda: bv_sum(f, x, Q, xi, threads=2))
    assert repr(got) == repr(want)  # repr round-trips every float


@pytest.mark.parametrize("kind", ["real", "complex"])
def test_single_modulus_paths_match_copied_kernel(monkeypatch, kind):
    f = random_table(kind, 3000)

    def compute():
        out = []
        for q in (1, 2, 7, 30, 2500):
            out.append(twisted_sum(f, 2999.5, enumerate_characters(q)[-1]))
            out.append(delta(f, 2999.5, q, 1))
            out.append(delta_xi(f, 2999.5, q, 1, XI))
        return out

    got, want = with_copied_kernel(monkeypatch, compute)
    assert repr(got) == repr(want)


@pytest.mark.parametrize("kind, xi", [("real", None), ("complex", XI)])
def test_bv_sum_rows_identical_across_threads(kind, xi):
    f = random_table(kind, 3000)
    reps = [repr(bv_sum(f, 3000, 300, xi, threads=t)) for t in (1, 2, 3)]
    assert reps[0] == reps[1] == reps[2]


# members of order 6 and 10, whose values are not all snapped to 1, i, -1, -i
COMPLEX_XI = CharacterSet(members=(enumerate_characters(7)[1], enumerate_characters(11)[3]))


@pytest.mark.parametrize("threads", [1, 2])
def test_bv_sum_xi_rows_match_the_induce_oracle(threads):
    f = random_table("complex", 20000)
    rep = bv_sum(f, 20000, 200, COMPLEX_XI, threads=threads)
    assert repr(rep.per_q) == repr(induced_bv_rows(f, 20000, 200, COMPLEX_XI))


@pytest.mark.parametrize("kind", ["complex", "moebius"])
def test_bv_sum_xi_builds_no_unit_group_per_modulus(kind):
    f = random_table(kind, 5000)
    for threads in (1, 2):
        _turns.cache_clear()
        unit_group.cache_clear()
        bv_sum(f, 5000, 500, COMPLEX_XI, threads=threads)
        assert unit_group.cache_info().currsize <= len({psi.modulus for psi in COMPLEX_XI})


# large_sieve_check sums over residue classes where the oracle multiplies
# by primitive-character matrices, so the two round differently. The
# docstring bounds the rounding of the signed inner sum of each r by about
# eps tau(r) phi(r) sum_u |B_r(u)|^2, far below rhs; relative to lhs, the
# two agree to LS_REL.
LS_REL = 1e-13
EPS = np.finfo(np.float64).eps


def _ls_coeffs(rng, N, kind):
    a = rng.uniform(-1, 1, N)
    return a + 1j * rng.uniform(-1, 1, N) if kind == "complex" else a


@pytest.mark.parametrize("Q", [1, 2, 3, 4, 8, 30, 210, 256])
@pytest.mark.parametrize("start", [0, 1, 37])
def test_large_sieve_matches_character_oracle(Q, start):
    rng = np.random.default_rng(1000 * Q + start)
    for N in sorted({1, 2, max(1, Q // 2), Q + 1, 250}):  # N < r for r > N
        for kind in ("real", "complex"):
            a = _ls_coeffs(rng, N, kind)
            lhs, rhs, ratio = large_sieve_check(a, Q, start=start)
            want = character_large_sieve(a, Q, start)
            assert abs(lhs - want) <= LS_REL * want, (N, kind, lhs, want)
            assert rhs == (N + Q * Q) * float(np.sum(np.abs(a.astype(complex)) ** 2))
            assert ratio == lhs / rhs and lhs <= rhs


def test_large_sieve_signed_sum_rounding_bound():
    """r = 2 (mod 4) has no primitive character: its inner sum is 0 exactly.

    The computed one stays within the docstring's bound
    eps tau(r) phi(r) sum_u |B_r(u)|^2, and some come out negative: they are
    not clamped. Any plan of size R >= Q gives the same bits.
    """
    rng = np.random.default_rng(6)
    negative = 0
    for _ in range(40):
        N, Q, start = int(rng.integers(1, 600)), int(rng.integers(2, 130)), int(rng.integers(0, 50))
        a = _ls_coeffs(rng, N, "complex")
        inner = discrepancy._primitive_sums(a, Q, start, discrepancy._sieve_plan(Q))
        wide = discrepancy._primitive_sums(a, Q, start, discrepancy._sieve_plan(512))
        assert inner.tobytes() == wide.tobytes()
        ns = start + 1 + np.arange(N)
        for r in range(2, Q + 1, 4):
            b = np.bincount(ns % r, weights=a.real, minlength=r) + 1j * np.bincount(
                ns % r, weights=a.imag, minlength=r
            )
            bound = EPS * len(divisors(r)) * phi_naive(r) * float(np.sum(np.abs(b) ** 2))
            assert abs(inner[r - 1]) <= bound, (N, Q, start, r)
            negative += inner[r - 1] < 0
    assert negative > 0


@pytest.mark.parametrize(
    "threads, items, cpus, workers",
    [
        (10**5, 1000, 4, 4),  # 16 chunks, capped at the CPU count
        (3, 1000, 8, 3),
        (8, 100, 8, 2),  # two chunks
        (8, 64, 8, None),  # one chunk: no pool
        (8, 1000, None, None),  # CPU count unknown: one worker
        (1, 1000, 8, None),
    ],
)
def test_chunked_map_caps_workers(monkeypatch, threads, items, cpus, workers):
    seen = []

    class RecordingPool:
        def __init__(self, max_workers):
            seen.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, chunks):
            return map(fn, chunks)

    monkeypatch.setattr(discrepancy, "ThreadPoolExecutor", RecordingPool)
    monkeypatch.setattr(discrepancy.os, "cpu_count", lambda: cpus)
    got = discrepancy.chunked_map(sum, range(items), 64, threads)
    assert got == [sum(range(i, min(i + 64, items))) for i in range(0, items, 64)]
    assert seen == ([] if workers is None else [workers])
