"""The benchmark's workloads: the bvlab commands each runs, and their checks.

Every output is checked against a computation in oracle.py, which shares no
code with bvlab, or against a property the method must have. A check that
fails raises CheckFailed, and the operation counts as failed.
"""

from __future__ import annotations

import csv
import hashlib
import json
import shutil
import struct
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import inputs
import oracle

# Tolerances pinned by tests/test_acceptance.py for the same identities.
LAMBDA_TOL = 1e-8
TRUNCATION_TOL = 1e-8
NEGATION_TOL = 1e-9
COMPANION_TOL = 1e-9
# Agreement of a discrepancy with the oracle's, relative to max(1, |value|).
REL_TOL = 1e-9

MOEBIUS = '{"kind":"builtin","name":"moebius"}'
XI = "chi:q=1,label=0;chi:q=3,label=1;chi:q=4,label=1"
XI_MODULI = (3, 4)  # the nontrivial members of XI, by modulus

SIZES = {
    "full": {
        "bv-range": {"x": 10**6, "Q": 1000, "sampled": 48,
                     "trials": 300, "N_max": 5000, "Q_max": 300},
        "algebra": {"x": 10**6, "C": 1.037},
        "counterexample-1e7": {"x": 10**7, "gamma": 2.0, "Q": 16, "delta_x": 10**5},
    },
    "tiny": {
        "bv-range": {"x": 10**4, "Q": 100, "sampled": 12,
                     "trials": 20, "N_max": 300, "Q_max": 40},
        "algebra": {"x": 10**4, "C": 1.037},
        "counterexample-1e7": {"x": 10**5, "gamma": 2.0, "Q": 16, "delta_x": 10**4},
    },
}


class CheckFailed(Exception):
    pass


def require(ok: bool, what: str) -> None:
    if not ok:
        raise CheckFailed(what)


@dataclass
class Outcome:
    """One finished CLI process, as the checks see it."""

    rc: int
    stdout: str
    cwd: Path

    def manifest(self) -> dict:
        require(self.rc == 0, f"exit code {self.rc}")
        lines = self.stdout.strip().splitlines()
        require(bool(lines), "no manifest on stdout")
        man = json.loads(lines[-1])
        for out in man["outputs"]:
            digest = hashlib.sha256((self.cwd / out["path"]).read_bytes()).hexdigest()
            require(digest == out["sha256"], f"sha256 of {out['path']} differs")
        return man

    def json(self, name: str) -> dict:
        return json.loads((self.cwd / name).read_text())

    def csv(self, name: str) -> list[dict]:
        with open(self.cwd / name, newline="") as fh:
            return list(csv.DictReader(fh))


@dataclass
class Op:
    """One CLI command of a round."""

    argv: list[str]
    check: Callable[[Outcome], None]
    # Set on an operation that fails today because of a named fault in the
    # program; it counts as failed without making the run incorrect.
    known_fault: str = ""

    @property
    def command(self) -> str:
        return self.argv[0]


def close(a: float, b: float) -> bool:
    return abs(a - b) <= REL_TOL * max(1.0, abs(b))


def check_sieve_cache(out: Outcome, path: str, sieve: oracle.Sieve) -> None:
    man = out.manifest()
    blob = (out.cwd / path).read_bytes()
    require(blob[:6] == b"BVLAB1", "sieve cache magic")
    require(struct.unpack("<Q", blob[6:14])[0] == sieve.limit, "sieve cache limit")
    spf = np.frombuffer(blob, dtype="<u4", offset=14)
    require(np.array_equal(spf, sieve.spf[2:]), "sieve cache spf differs from the oracle's")
    require(man["results"]["limit"] == sieve.limit, "manifest limit")


def check_bv_rows(out: Outcome, path: str, values: np.ndarray, x: int, Q: int,
                  moduli, xi=()) -> None:
    """Rows q = 1..Q in order, the manifest total, and |Delta| and a_max on
    the given moduli against the oracle."""
    man = out.manifest()
    rows = out.csv(path)
    require([int(r["q"]) for r in rows] == list(range(1, Q + 1)), "bv-sum rows are not q = 1..Q")
    total = 0.0
    for r in rows:
        total += float(r["abs_delta"])
    require(man["results"]["Q"] == Q and close(man["results"]["total"], total),
            "manifest total differs from the rows' sum")
    for q in moduli:
        row = rows[q - 1]
        rs, dist = oracle.residue_distances(values, x, q, xi)
        worst = float(dist.max())
        got = float(row["abs_delta"])
        require(close(got, worst), f"q={q}: |Delta| {got!r}, oracle {worst!r}")
        # ties are real (q = 12 with this Xi leaves every residue equidistant),
        # so a_max only has to reach the maximum
        a = int(row["a_max"])
        require(a in rs and close(float(dist[np.searchsorted(rs, a)]), worst),
                f"q={q}: a_max={a} is not a worst residue")


def check_same_bytes(out: Outcome, path: str, reference: str) -> None:
    out.manifest()
    require((out.cwd / path).read_bytes() == (out.cwd / reference).read_bytes(),
            f"{path} differs from {reference}")


class Workload:
    """Seeded inputs, the set-up command and the measured commands of one workload."""

    name = ""
    cache = "sieve.bin"

    def __init__(self, size: dict, seed: int, work: Path):
        self.size = size
        self.work = work
        self.rng = np.random.default_rng([seed, sum(map(ord, self.name))])
        self.sieve = oracle.Sieve(self.limit)

    @property
    def limit(self) -> int:
        return self.size["x"]

    def setup(self) -> Op:
        return Op(["sieve-cache", "--limit", str(self.limit), "--out", self.cache],
                  lambda out: check_sieve_cache(out, self.cache, self.sieve))

    def after_setup(self) -> None:
        pass

    def ops(self) -> list[Op]:
        raise NotImplementedError


class BvRange(Workload):
    """Residue buckets and character tables over many moduli at x = 10^6."""

    name = "bv-range"

    def __init__(self, size, seed, work):
        super().__init__(size, seed, work)
        s = self.size
        self.mu = self.sieve.moebius()
        pp, vals = inputs.random_cm_table(self.rng, self.sieve)
        inputs.save_table(str(work / "cm.npz"), pp, vals)
        self.cm = self.sieve.materialize(pp, vals)
        inner = self.rng.choice(np.arange(2, s["Q"]), size=s["sampled"] - 2, replace=False)
        self.moduli = sorted({1, s["Q"], *map(int, inner)})
        self.fuzz_seed = int(self.rng.integers(2**31))

    def ops(self) -> list[Op]:
        s = self.size
        x, Q = s["x"], s["Q"]
        common = ["--cache", self.cache, "--x", str(x), "--Q", str(Q)]
        return [
            Op(["bv-sum", *common, "--f", MOEBIUS, "--threads", "1", "--out", "mu1.csv"],
               lambda out: check_bv_rows(out, "mu1.csv", self.mu, x, Q, self.moduli)),
            Op(["bv-sum", *common, "--f", MOEBIUS, "--threads", "2", "--out", "mu2.csv"],
               lambda out: check_same_bytes(out, "mu2.csv", "mu1.csv")),
            Op(["bv-sum", *common, "--f", '{"kind":"table","path":"cm.npz"}',
                "--xi", XI, "--threads", "2", "--out", "cmxi.csv"],
               lambda out: check_bv_rows(out, "cmxi.csv", self.cm, x, Q, self.moduli,
                                         XI_MODULI)),
            Op(["large-sieve-fuzz", "--trials", str(s["trials"]), "--N-max", str(s["N_max"]),
                "--Q-max", str(s["Q_max"]), "--seed", str(self.fuzz_seed), "--out", "ls.csv"],
               self.check_fuzz),
        ]

    def check_fuzz(self, out: Outcome) -> None:
        man = out.manifest()
        rows = out.csv("ls.csv")
        s = self.size
        require(len(rows) == s["trials"] == man["results"]["trials"], "fuzz trial count")
        for r in rows:
            ratio = float(r["ratio"])
            # the multiplicative large sieve is a theorem: 0 < lhs <= rhs
            require(0 < ratio <= 1, f"trial {r['trial']}: ratio {ratio}")
            require(close(ratio, float(r["lhs"]) / float(r["rhs"])), "ratio is not lhs/rhs")
            require(1 <= int(r["N"]) <= s["N_max"] and 1 <= int(r["Q"]) <= s["Q_max"],
                    "fuzz N or Q out of range")


class Algebra(Workload):
    """The multfun algebra at 10^6 on seeded class-C tables."""

    name = "algebra"

    def __init__(self, size, seed, work):
        super().__init__(size, seed, work)
        lam = inputs.random_class_c_lambdas(self.rng, self.sieve)
        planted, self.planted_p = inputs.plant_violation(self.rng, self.sieve, lam)
        pp = self.sieve.prime_powers()[0]
        inputs.save_table(str(work / "clean.npz"), pp, inputs.solve_class_c(self.sieve, lam))
        inputs.save_table(str(work / "planted.npz"), pp, inputs.solve_class_c(self.sieve, planted))

    def ops(self) -> list[Op]:
        x = str(self.size["x"])
        clean = '{"kind":"table","path":"clean.npz"}'
        return [
            Op(["lambda-check", "--cache", self.cache, "--limit", x,
                "--f", '{"kind":"table","path":"planted.npz"}', "--out", "lambda.json"],
               self.check_lambda),
            Op(["companion-check", "--cache", self.cache, "--limit", x, "--f", clean,
                "--out", "companion.json"], self.check_companion),
            Op(["truncation-check", "--cache", self.cache, "--f", clean, "--g", MOEBIUS,
                "--x", x, "--C", str(self.size["C"]), "--q", "3", "--a", "1",
                "--out", "truncation.json"], self.check_truncation),
        ]

    def check_lambda(self, out: Outcome) -> None:
        out.manifest()
        r = out.json("lambda.json")
        require(r["lambda_identity_max_residual"] <= LAMBDA_TOL, "lambda identity residual")
        require(r["negation_max_residual"] <= NEGATION_TOL, "negation residual")
        require(r["class_c"] is False, "planted violation not detected")
        require(r["first_violation"] == self.planted_p**2,
                f"first_violation {r['first_violation']}, planted at {self.planted_p}^2")

    def check_companion(self, out: Outcome) -> None:
        out.manifest()
        r = out.json("companion.json")
        require(r["max_residual"] <= COMPANION_TOL, "companion residual")
        require(r["off_powerful_max"] == 0, "companion g off the powerful numbers")
        require(r["max_prime_power_value"] <= 2, "|g(p^k)| > 2")

    def check_truncation(self, out: Outcome) -> None:
        out.manifest()
        require(out.json("truncation.json")["residual"] <= TRUNCATION_TOL, "truncation residual")


class Counterexample(Workload):
    """The biased counterexample at x = 10^7, its dumped table, and a corrupt cache."""

    name = "counterexample-1e7"

    def __init__(self, size, seed, work):
        super().__init__(size, seed, work)
        x = self.limit
        self.Q = round(x**0.35)  # the CLI's documented default modulus size
        self.y, self.z, self.P = oracle.counterexample_set(x, size["gamma"], self.Q, self.sieve)
        self.f, (self.pp, self.pp_values) = oracle.counterexample_values(
            x, self.y, self.z, self.P, self.sieve)

    def after_setup(self) -> None:
        # spf[12] = 7 breaks the table while keeping its magic and length
        shutil.copyfile(self.work / self.cache, self.work / "corrupt.bin")
        with open(self.work / "corrupt.bin", "r+b") as fh:
            fh.seek(14 + 4 * (12 - 2))
            fh.write(struct.pack("<I", 7))

    def ops(self) -> list[Op]:
        s = self.size
        x = str(self.limit)
        return [
            Op(["counterexample", "--cache", self.cache, "--x", x, "--gamma", str(s["gamma"]),
                "--csv", "ce.csv", "--dump-f", "ce.npz", "--out", "ce.json"],
               self.check_counterexample),
            Op(["bv-sum", "--cache", self.cache, "--f", '{"kind":"table","path":"ce.npz"}',
                "--x", x, "--Q", str(s["Q"]), "--out", "cebv.csv"],
               lambda out: check_bv_rows(out, "cebv.csv", self.f, self.limit, s["Q"],
                                         range(1, s["Q"] + 1))),
            Op(["delta", "--cache", "corrupt.bin", "--f", MOEBIUS, "--x", str(s["delta_x"]),
                "--q", "7", "--a", "1", "--out", "corrupt.json"],
               lambda out: require(out.rc == 3, f"corrupt sieve cache accepted (exit {out.rc})"),
               known_fault="load_prime_table checks only the magic and the length"),
        ]

    def check_counterexample(self, out: Outcome) -> None:
        out.manifest()
        r = out.json("ce.json")
        nP = len(self.P)
        require(r["Q"] == self.Q and r["scriptP_size"] == nP, "Q or #P differs from the oracle")
        require(close(r["y"], self.y) and close(r["z"], self.z), "y or z")
        require(r["pointwise_identity_max_residual"] == 0, "pointwise identity")
        require(r["range_extension_all_equal"] is True, "range extension")
        ps = self.sieve.primes
        window = ps[(ps > self.y / 2) & (ps <= self.y)]
        rows = out.csv("ce.csv")
        qs = ps[(ps > self.Q) & (ps <= 2 * self.Q)]
        require([int(row["q"]) for row in rows] == qs.tolist(), "rows are not the primes in (Q, 2Q]")
        S = 0.0
        for row, q in zip(rows, qs.tolist()):
            pi_diff = int(np.count_nonzero(window % q == 1))
            term = nP / (q - 1)
            require(int(row["phi_q"]) == q - 1 and int(row["pi_diff"]) == pi_diff,
                    f"q={q}: phi or pi_diff")
            require(close(float(row["scriptP_term"]), term), f"q={q}: #P/phi(q)")
            require(close(float(row["delta_abs"]), abs(pi_diff - term)), f"q={q}: |Delta|")
            S += abs(pi_diff - term)
        require(close(r["bv_partial_sum"], S), "bv_partial_sum differs from the oracle")
        with np.load(out.cwd / "ce.npz") as dump:
            require(np.array_equal(dump["prime_powers"], self.pp), "dumped prime powers")
            require(np.array_equal(dump["values"], self.pp_values), "dumped values")


WORKLOADS = {w.name: w for w in (BvRange, Algebra, Counterexample)}
