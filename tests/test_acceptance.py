"""Acceptance suite: one test per criterion, each printing a PASS line.

Tolerances are pinned here, not configurable. Run with `pytest -s
tests/test_acceptance.py` to see the per-criterion report lines.
"""

import math
import time

import numpy as np
import pytest

from bvlab.characters import (
    enumerate_characters,
    trivial_set,
)
from bvlab.cli import main as cli_main
from bvlab.counterexample import (
    identity_validity_bound,
    lower_bound_report,
    plan_counterexample,
    pointwise_identity_check,
    range_extension_check,
)
from bvlab.decomposition import (
    smooth_factor_split,
    split_sum_assemble,
    truncation_difference_check,
)
from bvlab.discrepancy import (
    delta,
    delta_xi,
    large_sieve_check,
    partial_summation_check,
    twisted_sum,
)
from bvlab.multfun import (
    class_c_check,
    companion_split,
    dirichlet_convolve,
    inverse,
    lambda_seq,
    log_twist,
    moebius,
    one,
    smooth_truncation,
    to_arith,
)
from families import seeded_family
from oracles import delta_fn, full_primitive_set, lambda_values, smooth_numbers, trial_division
from test_decomposition import all_split_candidates

LIMIT = 10**4
FAMILY_SEED = 20240817

# Recorded on the first verified run (x, Q, #scriptP, ratio); the stability
# criterion re-derives these and checks both reproducibility and the
# factor-2 spread.
STABILITY_FIXTURE = [
    (10**5, 56, 9, 1.4778833198574894),
    (3 * 10**5, 83, 17, 1.2941386946870057),
    (10**6, 126, 37, 1.2145743172924681),
]

def report(num, text):
    print(f"ACCEPTANCE {num}: PASS — {text}")


@pytest.fixture(scope="module")
def cm_family():
    return seeded_family(FAMILY_SEED, 100, LIMIT, kind="cm")


@pytest.fixture(scope="module")
def mixed_family():
    return seeded_family(FAMILY_SEED + 1, 50, LIMIT, kind="cm") + seeded_family(
        FAMILY_SEED + 2, 50, LIMIT, kind="class-c"
    )


def test_criterion_1_convolution_inverse(table_1e4, cm_family):
    start = time.perf_counter()
    ident = delta_fn(LIMIT).values
    worst = 0.0
    for f in cm_family:
        fd = to_arith(f, LIMIT, table_1e4)
        gd = to_arith(inverse(f, LIMIT), LIMIT, table_1e4)
        conv = dirichlet_convolve(fd, gd, LIMIT)
        worst = max(worst, float(np.max(np.abs(conv.values - ident))))
    wall = time.perf_counter() - start
    assert worst <= 1e-9, worst
    assert wall < 10, f"runtime {wall:.1f}s exceeds 10s"
    report(1, f"100 inverses at limit {LIMIT}: max |f*g - delta| = {worst:.2e}, {wall:.1f}s")


def test_criterion_2_lambda_identity(table_1e4, cm_family):
    worst_id = 0.0
    worst_neg = 0.0
    for f in cm_family:
        g = inverse(f, LIMIT)
        lam_f = lambda_seq(f, LIMIT, table_1e4)
        fd = to_arith(f, LIMIT, table_1e4)
        gd = to_arith(g, LIMIT, table_1e4)
        rhs = dirichlet_convolve(gd, log_twist(fd, 1.0), LIMIT)
        worst_id = max(worst_id, float(np.max(np.abs(lambda_values(lam_f) - rhs.values))))
        lam_g = lambda_seq(g, LIMIT, table_1e4)
        worst_neg = max(worst_neg, float(np.max(np.abs(lambda_values(lam_f) + lambda_values(lam_g)))))
    assert worst_id <= 1e-8, worst_id
    assert worst_neg <= 1e-9, worst_neg
    report(2, f"lambda identity residual {worst_id:.2e}, negation residual {worst_neg:.2e}")


def test_criterion_3_class_closure(table_1e4, cm_family):
    for f in cm_family:
        ok, witness = class_c_check(inverse(f, LIMIT), LIMIT, table_1e4)
        assert ok, f"inverse left the class at prime power {witness}"
    report(3, "class membership of all 100 inverses at limit 10^4")


def test_criterion_4_full_group_annihilation(table_1e4):
    x = LIMIT
    fs = seeded_family(FAMILY_SEED + 3, 20, x, kind="class-c")
    denses = [to_arith(f, x, table_1e4) for f in fs]
    worst = 0.0
    for q in range(1, 51):
        xi_full = full_primitive_set(q)
        residues = [a for a in range(1, q + 1) if math.gcd(a, q) == 1]
        for fd in denses:
            for a in residues:
                rep = delta_xi(fd, x, q, a, xi_full)
                worst = max(worst, abs(rep.delta))
    assert worst <= 1e-9, worst

    xi1 = trivial_set()
    for fd in denses[:5]:
        for q in (1, 2, 3, 29, 45, 50):
            for a in (1, q - 1 if q > 2 else 1):
                if math.gcd(a, q) != 1:
                    continue
                assert delta_xi(fd, x, q, a, xi1).delta == delta(fd, x, q, a).delta
    report(4, f"full-group annihilation max |delta_Xi| = {worst:.2e}; trivial Xi bitwise equal")


def test_criterion_5_partial_summation(table_1e4):
    import random

    rng = random.Random(FAMILY_SEED + 4)
    fs = seeded_family(FAMILY_SEED + 5, 10, LIMIT, kind="class-c")
    denses = [to_arith(f, LIMIT, table_1e4) for f in fs]
    xis = [trivial_set(), full_primitive_set(3), full_primitive_set(8)]
    worst = 0.0
    for _ in range(100):
        fd = rng.choice(denses)
        q = rng.randrange(1, 25)
        a = rng.choice([r for r in range(1, q + 1) if math.gcd(r, q) == 1])
        x = rng.randrange(20, LIMIT)
        X = rng.uniform(2, x)
        resid = partial_summation_check(fd, x, X, q, a, rng.choice(xis))
        worst = max(worst, resid)
    assert worst <= 1e-8, worst
    report(5, f"100 partial-summation tuples: worst residual {worst:.2e}")


def test_criterion_6_smooth_split_and_assembly(table_1e4):
    X, y = LIMIT, 20
    V0 = math.sqrt(X / y)
    checked = 0
    for n in smooth_numbers(X, y):
        if n <= V0:
            continue
        candidates = all_split_candidates(n, V0)
        assert len(candidates) == 1, (n, candidates)
        s = smooth_factor_split(n, V0, table_1e4)
        assert candidates[0] == (s.u, s.v)
        assert s.u * s.v == n and s.P_plus_u <= s.P_minus_v
        assert s.v > V0 and s.v / s.P_minus_v <= V0
        checked += 1

    worst = 0.0
    combos = 0
    for Xg in (100, 1000, LIMIT):
        for yg in (10, 20, 50):
            V0g = math.sqrt(Xg / yg)
            f = smooth_truncation(one(Xg), yg)
            fd = to_arith(f, Xg, table_1e4)
            for r in (1, 3, 4, 5, 7):
                for psi in enumerate_characters(r):
                    if not psi.is_primitive:
                        continue
                    got = split_sum_assemble(f, Xg, yg, V0g, psi, table_1e4)
                    want = twisted_sum(fd, Xg, psi)
                    worst = max(worst, abs(got - want))
                    combos += 1
    assert worst <= 1e-8, worst
    report(
        6,
        f"{checked} unique splits at y=20, X=10^4; assembly residual {worst:.2e} "
        f"over {combos} grid points",
    )


def test_criterion_7_large_sieve():
    lhs, rhs, _ = large_sieve_check([1.0], 3)
    assert lhs == 2.5 and rhs == 10.0

    rng = np.random.default_rng(FAMILY_SEED + 6)
    worst_ratio = 0.0
    for _ in range(1000):
        N = int(rng.integers(1, 201))
        Q = int(rng.integers(1, 201))
        coeffs = rng.uniform(-1, 1, N) + 1j * rng.uniform(-1, 1, N)
        lhs, rhs, ratio = large_sieve_check(coeffs, Q)
        assert lhs <= rhs
        worst_ratio = max(worst_ratio, ratio)
    report(7, f"hand case lhs = 5/2 exact; 1000 seeded vectors, worst ratio {worst_ratio:.3f}")


def test_criterion_8_truncation_difference(table_1e4):
    x = LIMIT
    C = math.log(10) / math.log(math.log(x))  # cutoff (log x)^C = 10
    rnd = seeded_family(FAMILY_SEED + 7, 1, x, kind="class-c")[0]
    fns = {"one": one(x), "moebius": moebius(x), "random": rnd}
    worst = 0.0
    cases = 0
    for fname, f in fns.items():
        for gname, g in fns.items():
            resid = truncation_difference_check(
                f, g, x, C, trivial_set(), 3, 1, table_1e4
            )
            worst = max(worst, resid)
            cases += 1
    resid_xi = truncation_difference_check(
        fns["random"], fns["one"], x, C, full_primitive_set(4), 4, 3, table_1e4
    )
    worst = max(worst, resid_xi)
    assert worst <= 1e-8, worst
    report(8, f"truncation-difference residual {worst:.2e} over {cases + 1} cases")


def test_criterion_9_companion_split(table_1e4, mixed_family):
    powerful = np.zeros(LIMIT + 1, dtype=bool)
    powerful[1] = True
    for n in range(2, LIMIT + 1):
        powerful[n] = all(e >= 2 for _, e in trial_division(n))
    worst = 0.0
    worst_pk = 0.0
    for f in mixed_family:
        fstar, g = companion_split(f, LIMIT)
        fd = to_arith(f, LIMIT, table_1e4)
        gd = to_arith(g, LIMIT, table_1e4)
        conv = dirichlet_convolve(gd, to_arith(fstar, LIMIT, table_1e4), LIMIT)
        worst = max(worst, float(np.max(np.abs(conv.values - fd.values))))
        off = gd.values[~powerful]
        assert np.all(off == 0), "correction factor leaked off the powerful numbers"
        for p in (2, 3, 5, 7, 11):
            pk, k = p, 1
            while pk <= LIMIT:
                worst_pk = max(worst_pk, abs(g.pp_value(p, k, table_1e4)))
                pk *= p
                k += 1
    assert worst <= 1e-9, worst
    assert worst_pk <= 2 + 1e-12, worst_pk
    report(
        9,
        f"companion identity residual {worst:.2e}; correction supported on powerful "
        f"numbers with max prime-power value {worst_pk:.3f}",
    )


def test_criterion_10_counterexample(table_1e6):
    start = time.perf_counter()
    x = 10**6
    spec = plan_counterexample(x, 2.0, None, table_1e6)
    assert spec.Q == round(x**0.35)

    bound = identity_validity_bound(spec)
    resid = pointwise_identity_check(spec, range(1, bound + 1), table_1e6)
    assert resid == 0

    flags = range_extension_check(spec, table_1e6)
    assert flags and all(flags.values())

    ratios = []
    for xg, Qg, size_g, ratio_g in STABILITY_FIXTURE:
        sp = plan_counterexample(xg, 2.0, None, table_1e6)
        assert sp.Q == Qg
        assert len(sp.script_P) == size_g
        rep = lower_bound_report(sp, table_1e6)  # raises if the two formulas differ
        assert rep.ratio == pytest.approx(ratio_g, rel=1e-12)
        ratios.append(rep.ratio)
    spread = max(ratios) / min(ratios)
    assert spread < 2, ratios
    wall = time.perf_counter() - start
    assert wall < 60, f"runtime {wall:.1f}s exceeds 60s"
    report(
        10,
        f"#P={len(spec.script_P)} at x=10^6; identity residual 0 on [1, {bound}]; "
        f"range extension all-equal; ratio spread {spread:.3f} over {ratios}; {wall:.1f}s",
    )


def test_criterion_11_determinism(tmp_path, capsys):
    x = 10**6
    cache = str(tmp_path / "sieve.bin")
    code = cli_main(["sieve-cache", "--limit", str(x), "--out", cache])
    assert code == 0
    outputs = {}
    walls = {}
    for threads in (1, 4, 8):
        out = str(tmp_path / f"bv{threads}.csv")
        t0 = time.perf_counter()
        code = cli_main(
            [
                "bv-sum",
                "--cache", cache,
                "--f", '{"kind":"builtin","name":"moebius"}',
                "--x", str(x), "--Q", "1000",
                "--threads", str(threads),
                "--out", out,
            ]
        )
        walls[threads] = time.perf_counter() - t0
        assert code == 0
        outputs[threads] = open(out, "rb").read()
    capsys.readouterr()  # swallow the CLI manifests
    assert outputs[1] == outputs[4] == outputs[8]
    report(
        11,
        f"bv-sum CSV byte-identical at 1/4/8 threads; walls "
        f"{walls[1]:.1f}/{walls[4]:.1f}/{walls[8]:.1f}s "
        f"(soft target: 8-thread < 30s, measured {walls[8]:.1f}s)",
    )
