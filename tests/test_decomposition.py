import math
import tracemalloc

import numpy as np
import pytest

from bvlab import DomainError, ParameterError
from bvlab.characters import enumerate_characters, trivial_set
from bvlab.decomposition import (
    bilinear_ls_eval,
    dyadic_cells,
    smooth_factor_split,
    split_sum_assemble,
    truncation_difference_check,
)
from bvlab.discrepancy import twisted_sum
from bvlab.multfun import character_fn, moebius, one, smooth_truncation, to_arith
from families import seeded_family
from oracles import cell_covers, full_primitive_set, smooth_numbers, trial_division


@pytest.fixture(scope="module")
def table(table_1e4):
    return table_1e4


def all_split_candidates(n, V0):
    """Every divisor pair (u, v) of n meeting the three split constraints."""
    out = []
    for v in range(1, n + 1):
        if n % v != 0:
            continue
        u = n // v
        fu = trial_division(u)
        fv = trial_division(v)
        p_plus_u = fu[-1][0] if fu else 1
        p_minus_v = fv[0][0] if fv else 1
        if v <= V0:
            continue
        if fv and v / p_minus_v > V0:
            continue
        if not fv:
            continue
        if p_plus_u > p_minus_v:
            continue
        out.append((u, v))
    return out


def test_split_examples(table):
    s = smooth_factor_split(60, math.sqrt(10), table)
    assert (s.u, s.v) == (12, 5)
    s8 = smooth_factor_split(8, 2, table)
    assert (s8.u, s8.v) == (2, 4)
    assert s8.v / s8.P_minus_v == 2  # <= V0
    s30 = smooth_factor_split(30, 2.5, table)
    assert (s30.u, s30.v) == (6, 5)


def test_split_rejects_small_n(table):
    with pytest.raises(DomainError):
        smooth_factor_split(5, 10, table)


def test_split_uniqueness_and_totality(table):
    X, y = 2000, 10
    V0 = math.sqrt(X / y)
    for n in smooth_numbers(X, y):
        if n <= V0:
            continue
        candidates = all_split_candidates(n, V0)
        assert len(candidates) == 1, (n, candidates)
        s = smooth_factor_split(n, V0, table)
        assert candidates[0] == (s.u, s.v)
        assert s.u * s.v == n
        assert s.P_plus_u <= s.P_minus_v
        assert s.v > V0
        assert s.v / s.P_minus_v <= V0


def test_assembly_smooth_count(table):
    X, y = 100, 10
    V0 = math.sqrt(X / y)
    f = smooth_truncation(one(200), y)
    triv = enumerate_characters(1)[0]
    got = split_sum_assemble(f, X, y, V0, triv, table)
    assert got == pytest.approx(len(smooth_numbers(100, 10)), abs=1e-9)


def test_assembly_boundary_X_equals_y(table):
    X = y = 50
    V0 = 1.0
    f = smooth_truncation(one(100), y)
    triv = enumerate_characters(1)[0]
    got = split_sum_assemble(f, X, y, V0, triv, table)
    fd = to_arith(f, 50, table)
    assert got == pytest.approx(twisted_sum(fd, 50, triv), abs=1e-9)


def test_assembly_matches_twisted_sum(table):
    X, y = 200, 10
    V0 = math.sqrt(X / y)
    f = smooth_truncation(moebius(400), y)
    chi = enumerate_characters(3)[1]
    got = split_sum_assemble(f, X, y, V0, chi, table)
    fd = to_arith(f, 200, table)
    assert got == pytest.approx(twisted_sum(fd, X, chi), abs=1e-9)


def test_assembly_grid(table):
    for X in (100, 1000, 10**4):
        for y in (10, 20, 50):
            V0 = math.sqrt(X / y)
            f = smooth_truncation(one(X), y)
            fd = to_arith(f, X, table)
            for r in (1, 3, 4, 5, 7):
                for psi in enumerate_characters(r):
                    if not psi.is_primitive:
                        continue
                    got = split_sum_assemble(f, X, y, V0, psi, table)
                    want = twisted_sum(fd, X, psi)
                    assert abs(got - want) <= 1e-8, (X, y, psi.serialize())


def test_assembly_rejects_V0_mismatch(table):
    f = smooth_truncation(one(100), 10)
    triv = enumerate_characters(1)[0]
    with pytest.raises(ParameterError):
        split_sum_assemble(f, 100, 10, 2.0, triv, table)


def test_assembly_threads_deterministic(table):
    X, y = 10**4, 20
    V0 = math.sqrt(X / y)
    f = smooth_truncation(one(X), y)
    chi = enumerate_characters(5)[1]
    serial = split_sum_assemble(f, X, y, V0, chi, table, threads=1)
    parallel = split_sum_assemble(f, X, y, V0, chi, table, threads=4)
    assert serial == parallel


def test_dyadic_cells_cover_example(table):
    X, y, V0 = 16, 4, 2.0
    cells = dyadic_cells(X, y, V0)
    for n in smooth_numbers(X, y):
        if n <= V0:
            continue
        s = smooth_factor_split(n, V0, table)
        assert any(cell_covers(c, s) for c in cells), s


def test_dyadic_cells_empty_when_V0_at_X():
    assert dyadic_cells(16, 4, 16) == []


def test_dyadic_cells_cover_desk_scale(table):
    X, y = 10**4, 20
    V0 = math.sqrt(X / y)
    cells = dyadic_cells(X, y, V0)
    cell_set = set((c.U, c.V, c.P_plus, c.P_minus) for c in cells)

    def pow2floor(t):
        return 1 << (int(t).bit_length() - 1)

    missed = 0
    for n in smooth_numbers(X, y):
        if n <= V0:
            continue
        s = smooth_factor_split(n, V0, table)
        key = (pow2floor(s.u), pow2floor(s.v), pow2floor(s.P_plus_u), pow2floor(s.P_minus_v))
        if key not in cell_set:
            missed += 1
    assert missed == 0
    # size is polylog; reported for the record
    print(f"dyadic cell count at X={X}, y={y}: {len(cells)}")


def test_dyadic_cells_invariants():
    X, y, V0 = 10**4, 20, math.sqrt(10**4 / 20)
    for c in dyadic_cells(X, y, V0):
        assert c.U * c.V <= X
        assert 2 * c.V > V0
        assert c.P_plus < 2 * c.P_minus
        assert 2 <= c.P_minus <= y
        assert 1 <= c.P_plus <= y


def test_bilinear_hand_enumeration():
    # a = b = all ones on [4, 8); r runs over (2, 4].
    lhs, bound, ratio = bilinear_ls_eval(np.ones(4), np.ones(4), 4, 4, 2.0)
    # mod 3 character: sum over u=4..7 of conj(chi(u)) = 1 - 1 + 0 + 1 = 1
    # mod 4 character: 0 + 1 + 0 - 1 = 0
    want = (1 * 1) / 2 + 0
    assert lhs == pytest.approx(want, abs=1e-12)
    assert bound == pytest.approx((math.sqrt(4) + 2) * (math.sqrt(4) + 2) * 4 / 2)
    assert ratio == pytest.approx(lhs / bound)


def test_bilinear_zero_block():
    lhs, _, ratio = bilinear_ls_eval(np.zeros(8), np.ones(8), 8, 8, 3.0)
    assert lhs == 0 and ratio == 0


def test_bilinear_rejects_large_coeffs():
    with pytest.raises(ParameterError):
        bilinear_ls_eval(np.full(4, 2.0), np.ones(4), 4, 4, 2.0)


# Calibrated once over the seeded campaigns below plus adversarial all-ones
# blocks; worst observed ratio 0.345. Cauchy-Schwarz + the large sieve give
# lhs <= 4 * bound unconditionally, so 1.0 leaves a 3x observation margin.
CALIBRATED_BILINEAR_C = 1.0


def test_bilinear_campaign_at_stated_block():
    # the fixed-block campaign: U = V = 64, R = 8, 200 unit-disc trials
    rng = np.random.default_rng(12345)
    worst = 0.0
    for _ in range(200):
        a = rng.uniform(-1, 1, 64) + 1j * rng.uniform(-1, 1, 64)
        a /= np.maximum(1, np.abs(a))
        b = rng.uniform(-1, 1, 64) + 1j * rng.uniform(-1, 1, 64)
        b /= np.maximum(1, np.abs(b))
        _lhs, _bound, ratio = bilinear_ls_eval(a, b, 64, 64, 8.0)
        worst = max(worst, ratio)
    assert worst <= CALIBRATED_BILINEAR_C
    print(f"bilinear campaign (U=V=64, R=8) worst ratio: {worst:.6f}")


def test_bilinear_fuzz_ratio_bounded():
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(60):
        U = int(2 ** rng.integers(2, 7))
        V = int(2 ** rng.integers(2, 7))
        R = float(2 ** rng.integers(1, 5))
        a = rng.uniform(-1, 1, U) + 1j * rng.uniform(-1, 1, U)
        a /= np.maximum(1, np.abs(a))
        b = rng.uniform(-1, 1, V) + 1j * rng.uniform(-1, 1, V)
        b /= np.maximum(1, np.abs(b))
        _lhs, _bound, ratio = bilinear_ls_eval(a, b, U, V, R)
        worst = max(worst, ratio)
    for U in (2, 4, 16, 128):
        for R in (1.0, 4.0, 16.0):
            _lhs, _bound, ratio = bilinear_ls_eval(np.ones(U), np.ones(U), U, U, R)
            worst = max(worst, ratio)
    assert worst <= CALIBRATED_BILINEAR_C
    print(f"bilinear fuzz worst ratio: {worst:.6f}")


def test_truncation_difference_no_truncation(table):
    # C = 0 puts the cutoff at x itself: both sides are identically zero.
    resid = truncation_difference_check(
        one(10**4), one(10**4), 10**4, 0.0, trivial_set(), 3, 1, table
    )
    assert resid == 0


def test_truncation_difference_ones(table):
    x = 10**4
    C = math.log(10) / math.log(math.log(x))  # (log x)^C = 10
    resid = truncation_difference_check(
        one(x), one(x), x, C, trivial_set(), 3, 1, table
    )
    assert resid <= 1e-8


def test_truncation_difference_moebius(table):
    x = 10**4
    C = math.log(10) / math.log(math.log(x))
    resid = truncation_difference_check(
        moebius(x), one(x), x, C, trivial_set(), 5, 2, table
    )
    assert resid <= 1e-8
    resid2 = truncation_difference_check(
        moebius(x), one(x), x, C, full_primitive_set(4), 4, 3, table
    )
    assert resid2 <= 1e-8


def test_truncation_difference_random_family(table):
    x = 10**4
    C = math.log(10) / math.log(math.log(x))
    f = seeded_family(61, 1, x, kind="class-c")[0]
    g = seeded_family(62, 1, x, kind="class-c")[0]
    resid = truncation_difference_check(f, g, x, C, trivial_set(), 3, 2, table)
    assert resid <= 1e-8


def test_truncation_difference_overlap_guard(table):
    # (log x)^C too large: y < (log x)^{2C} must be refused.
    x = 10**4
    C = 2.5
    with pytest.raises(DomainError):
        truncation_difference_check(one(x), one(x), x, C, trivial_set(), 3, 1, table)


def test_truncation_check_holds_one_convolution_at_a_time(table_1e6):
    x = 10**6
    f, g = character_fn(enumerate_characters(5)[1], x), moebius(x)
    tracemalloc.start()
    try:
        truncation_difference_check(f, g, x, 1.037, trivial_set(), 3, 1, table_1e6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # complex f (16 B a value), real g (8 B), one complex convolution (16 B)
    # and the two prime-power arrays; both convolutions at once would add 16 B
    assert peak < 48 * (x + 1)
