import json
import math

import numpy as np
import pytest

from bvlab.cli import main
from bvlab.core_arith import save_prime_table


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    manifest = json.loads(out.strip().splitlines()[-1]) if out.strip() else None
    return code, manifest


def test_delta_command(tmp_path, capsys):
    out = str(tmp_path / "d.json")
    code, manifest = run(
        capsys,
        "delta",
        "--f", '{"kind":"builtin","name":"one"}',
        "--x", "10", "--q", "3", "--a", "1",
        "--out", out,
    )
    assert code == 0
    got = json.loads(open(out).read())
    assert got["delta"] == [0.5, 0]
    assert manifest["results"]["abs_delta"] == 0.5
    assert manifest["outputs"][0]["path"] == out


def test_bv_sum_direct_enumeration_total(tmp_path, capsys):
    out = str(tmp_path / "bv.csv")
    code, manifest = run(
        capsys,
        "bv-sum",
        "--f", '{"kind":"builtin","name":"one"}',
        "--x", "10", "--Q", "3",
        "--out", out,
    )
    assert code == 0
    assert manifest["results"]["total"] == 0.5
    lines = open(out).read().splitlines()
    assert lines[0] == "q,a_max,abs_delta"
    assert len(lines) == 4


def test_partial_summation_trivial(tmp_path, capsys):
    out = str(tmp_path / "ps.json")
    code, manifest = run(
        capsys,
        "partial-summation",
        "--f", '{"kind":"builtin","name":"moebius"}',
        "--x", "100", "--X", "100", "--q", "3", "--a", "1",
        "--out", out,
    )
    assert code == 0
    assert manifest["results"]["residual"] == 0


def test_delta_xi_command(tmp_path, capsys):
    out = str(tmp_path / "dx.json")
    code, _ = run(
        capsys,
        "delta-xi",
        "--f", '{"kind":"character","q":3,"label":1}',
        "--x", "1000", "--q", "3", "--a", "1",
        "--xi", "chi:q=3,label=1",
        "--out", out,
    )
    assert code == 0
    got = json.loads(open(out).read())
    assert abs(complex(*got["delta"])) <= 1


def test_config_file_with_inline_override(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"f": {"kind": "builtin", "name": "one"}, "x": 10, "q": 3, "a": 2}))
    out = str(tmp_path / "d.json")
    code, _ = run(
        capsys, "delta", "--config", str(cfg), "--a", "1", "--out", out
    )
    assert code == 0
    got = json.loads(open(out).read())
    assert got["a"] == 1  # inline flag wins
    assert got["delta"] == [0.5, 0]


def test_missing_parameter_is_config_error(tmp_path, capsys):
    code, _ = run(capsys, "delta", "--x", "10", "--q", "3", "--a", "1",
                  "--out", str(tmp_path / "d.json"))
    assert code == 2


def test_bad_precondition_exit_code(tmp_path, capsys):
    code, _ = run(
        capsys,
        "delta",
        "--f", '{"kind":"builtin","name":"one"}',
        "--x", "10", "--q", "6", "--a", "3",  # gcd(3, 6) > 1
        "--out", str(tmp_path / "d.json"),
    )
    assert code == 3


def test_sieve_cache_round_trip(tmp_path, capsys):
    cache = str(tmp_path / "sieve.bin")
    code, _ = run(capsys, "sieve-cache", "--limit", "1000", "--out", cache)
    assert code == 0
    out = str(tmp_path / "d.json")
    code, manifest = run(
        capsys,
        "delta",
        "--cache", cache,
        "--f", '{"kind":"builtin","name":"one"}',
        "--x", "1000", "--q", "4", "--a", "3",
        "--out", out,
    )
    assert code == 0
    assert manifest["sieve_limit"] == 1000
    # insufficient cache is a precondition error
    code, _ = run(
        capsys,
        "delta",
        "--cache", cache,
        "--f", '{"kind":"builtin","name":"one"}',
        "--x", "2000", "--q", "4", "--a", "3",
        "--out", out,
    )
    assert code == 3


def test_smooth_split_command(tmp_path, capsys):
    out = str(tmp_path / "s.json")
    code, _ = run(capsys, "smooth-split", "--n", "60", "--V0", "3.1622776601683795",
                  "--out", out)
    assert code == 0
    got = json.loads(open(out).read())
    assert (got["u"], got["v"]) == (12, 5)


def test_assembly_check_command(tmp_path, capsys):
    out = str(tmp_path / "a.json")
    code, manifest = run(
        capsys,
        "assembly-check",
        "--f", '{"kind":"builtin","name":"one","smooth_y":10}',
        "--X", "100", "--y", "10",
        "--out", out,
    )
    assert code == 0
    assert manifest["results"]["residual"] <= 1e-9


def test_dyadic_cells_command(tmp_path, capsys):
    out = str(tmp_path / "cells.csv")
    code, manifest = run(capsys, "dyadic-cells", "--X", "16", "--y", "4", "--V0", "2",
                         "--out", out)
    assert code == 0
    lines = open(out).read().splitlines()
    assert lines[0] == "U,V,P_plus,P_minus"
    assert manifest["results"]["cells"] == len(lines) - 1


def test_fuzz_commands_deterministic(tmp_path, capsys):
    out1 = str(tmp_path / "f1.csv")
    out2 = str(tmp_path / "f2.csv")
    for out in (out1, out2):
        code, _ = run(
            capsys, "bilinear-fuzz",
            "--U", "8", "--V", "8", "--R", "2", "--trials", "5",
            "--seed", "42", "--out", out,
        )
        assert code == 0
    assert open(out1, "rb").read() == open(out2, "rb").read()


def test_fuzz_requires_seed(tmp_path, capsys):
    code, _ = run(
        capsys, "bilinear-fuzz",
        "--U", "8", "--V", "8", "--R", "2", "--trials", "2",
        "--out", str(tmp_path / "f.csv"),
    )
    assert code == 2


def test_truncation_check_command(tmp_path, capsys):
    x = 10**4
    C = math.log(10) / math.log(math.log(x))
    out = str(tmp_path / "t.json")
    code, manifest = run(
        capsys,
        "truncation-check",
        "--f", '{"kind":"builtin","name":"one"}',
        "--g", '{"kind":"builtin","name":"moebius"}',
        "--x", str(x), "--C", str(C), "--q", "3", "--a", "1",
        "--out", out,
    )
    assert code == 0
    assert manifest["results"]["residual"] <= 1e-8


def test_counterexample_command(tmp_path, capsys):
    out = str(tmp_path / "ce.json")
    csv = str(tmp_path / "ce.csv")
    code, manifest = run(
        capsys, "counterexample", "--x", "100000", "--gamma", "2",
        "--out", out, "--csv", csv,
    )
    assert code == 0
    got = json.loads(open(out).read())
    assert got["pointwise_identity_max_residual"] == 0
    assert got["range_extension_all_equal"] is True
    assert got["scriptP_size"] == 9
    lines = open(csv).read().splitlines()
    assert lines[0] == "q,delta_abs,phi_q,pi_diff,scriptP_term"


def test_library_check_commands(tmp_path, capsys):
    # f(2) = 1, f(4) = -1, 0 elsewhere: lambda_f(4) = -3 log 2 breaks class C
    planted = tmp_path / "planted.npz"
    np.savez(planted, prime_powers=np.array([2, 4]), values=np.array([1 + 0j, -1 + 0j]))
    mu = '{"kind":"builtin","name":"moebius"}'
    for cmd, spec, expect_key in (
        ("lambda-check", mu, "lambda_identity_max_residual"),
        ("inverse-check", mu, "max_residual"),
        ("companion-check", mu, "max_residual"),
        ("lambda-check", json.dumps({"kind": "table", "path": str(planted)}),
         "lambda_identity_max_residual"),
    ):
        out = str(tmp_path / f"{cmd}.json")
        code, manifest = run(
            capsys, cmd,
            "--f", spec,
            "--limit", "2000",
            "--out", out,
        )
        assert code == 0
        assert manifest["results"][expect_key] <= 1e-9
    got = json.loads(open(out).read())
    assert got["class_c"] is False
    assert type(got["first_violation"]) is int and got["first_violation"] == 4


def test_invariant_violation_exit_code(tmp_path, capsys, monkeypatch):
    # the large-sieve inequality is a theorem, so force the failure path
    import bvlab.cli as cli
    from bvlab.errors import InvariantViolationError

    def boom(args):
        raise InvariantViolationError("forced for the exit-code contract")

    monkeypatch.setitem(cli._COMMANDS, "large-sieve-fuzz", (boom, []))
    code, _ = run(capsys, "large-sieve-fuzz", "--out", str(tmp_path / "x.csv"))
    assert code == 4


def test_outputs_reproducible_across_threads(tmp_path, capsys):
    outs = []
    for threads in ("1", "2", "4"):
        out = str(tmp_path / f"bv{threads}.csv")
        code, _ = run(
            capsys, "bv-sum",
            "--f", '{"kind":"builtin","name":"moebius"}',
            "--x", "5000", "--Q", "70", "--threads", threads,
            "--out", out,
        )
        assert code == 0
        outs.append(open(out, "rb").read())
    assert outs[0] == outs[1] == outs[2]


MU = '{"kind":"builtin","name":"moebius"}'


@pytest.mark.parametrize(
    "argv, code",
    [
        # malformed, non-finite or missing values, and --threads < 1: exit 2
        (["delta", "--f", MU, "--x", "abc", "--q", "3", "--a", "1"], 2),
        (["delta", "--f", MU, "--x", "nan", "--q", "3", "--a", "1"], 2),
        (["delta", "--f", MU, "--x", "inf", "--q", "3", "--a", "1"], 2),
        (["delta", "--f", MU, "--x", "100", "--q", "3.0", "--a", "1"], 2),
        (["delta", "--config", "q_half.json"], 2),
        (["bv-sum", "--config", "xi_list.json", "--x", "100", "--Q", "3"], 2),
        (["sw-profile", "--f", MU, "--q", "3", "--a", "1", "--X-grid", "", "--A", "2"], 2),
        (["smooth-split", "--n", "60", "--V0", "nan"], 2),
        (["lambda-check", "--f", MU, "--limit", "abc"], 2),
        (["large-sieve-fuzz", "--trials", "2", "--N-max", "0", "--Q-max", "5", "--seed", "1"], 2),
        (["large-sieve-fuzz", "--trials", "-1", "--N-max", "5", "--Q-max", "5", "--seed", "1"], 2),
        (["bv-sum", "--f", MU, "--x", "100", "--Q", "5", "--threads", "0"], 2),
        (["bv-sum", "--f", MU, "--x", "100", "--Q", "5", "--threads", "-3"], 2),
        # violated preconditions, unreadable tables, out-of-disc values: exit 3
        (["bv-sum", "--f", MU, "--x", "100", "--Q", "0"], 3),
        (["bilinear-fuzz", "--U", "0", "--V", "8", "--R", "2", "--trials", "1", "--seed", "1"], 3),
        (["bv-sum", "--f", '{"kind":"table","path":"missing.npz"}', "--x", "100", "--Q", "3"], 3),
        (["bv-sum", "--f", '{"kind":"table","path":"nan.npz"}', "--x", "100", "--Q", "3"], 3),
        (["bv-sum", "--config", "nan_cm.json", "--x", "100", "--Q", "3"], 3),
        # x is a float flag in every command
        (["counterexample", "--x", "1e5", "--gamma", "2"], 0),
        # preconditions checked before sqrt(X / y) and log(x): exit 3
        (["assembly-check", "--f", MU, "--X", "1000", "--y", "0"], 3),
        (["assembly-check", "--f", MU, "--X", "1000", "--y", "-1"], 3),
        (["counterexample", "--x", "1", "--gamma", "2"], 3),
        (["counterexample", "--x", "0", "--gamma", "2"], 3),
        (["counterexample", "--x", "100000", "--gamma", "2", "--Q", "0"], 3),
        (["counterexample", "--x", "100000", "--gamma", "2", "--Q", "-4"], 3),
        # malformed tables: not 1-D, not integer, or a prime power listed twice: exit 3
        (["bv-sum", "--f", '{"kind":"table","path":"t2d.npz"}', "--x", "100", "--Q", "3"], 3),
        (["bv-sum", "--f", '{"kind":"table","path":"t0d.npz"}', "--x", "100", "--Q", "3"], 3),
        (["bv-sum", "--f", '{"kind":"table","path":"v2d.npz"}', "--x", "100", "--Q", "3"], 3),
        (["bv-sum", "--f", '{"kind":"table","path":"flt.npz"}', "--x", "100", "--Q", "3"], 3),
        (["bv-sum", "--f", '{"kind":"table","path":"dup.npz"}', "--x", "100", "--Q", "3"], 3),
        # a composite recorded as its own smallest prime factor: exit 3
        (["delta", "--f", MU, "--x", "100", "--q", "3", "--a", "1", "--cache", "spf15.bin"], 3),
        # cm keys that are not primes: exit 3
        (["bv-sum", "--f", '{"kind":"cm","primes":{"4":[0.5,0]},"default":[1,0]}',
          "--x", "1000", "--Q", "10"], 3),
        (["bv-sum", "--f", '{"kind":"cm","primes":{"-3":[0.5,0]},"default":[1,0]}',
          "--x", "1000", "--Q", "10"], 3),
        (["bv-sum", "--f", '{"kind":"cm","primes":{"1":[0.5,0]},"default":[1,0]}',
          "--x", "1000", "--Q", "10"], 3),
        # sieve limits above 2^32 - 1, and above 2^63 so a regression cannot allocate: exit 3
        (["bv-sum", "--f", MU, "--x", "1e30", "--Q", "10"], 3),
        (["delta", "--f", MU, "--x", "1e30", "--q", "3", "--a", "1"], 3),
        (["lambda-check", "--f", MU, "--limit", str(10**30)], 3),
        (["sieve-cache", "--limit", str(10**20)], 3),
        # X <= 1 in the grid or x <= 1, where log X <= 0, and V0 < 1, where no split exists: exit 3
        (["sw-profile", "--f", MU, "--q", "3", "--a", "1", "--X-grid", "100,0", "--A", "2"], 3),
        (["sw-profile", "--f", MU, "--q", "3", "--a", "1", "--X-grid", "100,1", "--A", "-1"], 3),
        (["sw-profile", "--f", MU, "--q", "3", "--a", "1", "--X-grid", "100,0.5", "--A", "2.5"], 3),
        (["sw-profile", "--f", MU, "--q", "3", "--a", "1", "--X-grid", "100,1", "--A", "2"], 3),
        (["smooth-split", "--n", "1", "--V0", "0.5"], 3),
        (["smooth-split", "--n", "6", "--V0", "0.5"], 3),
        (["truncation-check", "--f", MU, "--g", MU, "--x", "1", "--C", "1", "--q", "3", "--a", "1"], 3),
        # an output in a missing directory, or an existing directory: exit 2, before the work
        (["sieve-cache", "--limit", "100", "--out", "no_such_dir/s.bin"], 2),
        (["sieve-cache", "--limit", "100", "--out", "."], 2),
        (["counterexample", "--x", "5000", "--gamma", "2", "--csv", "no_such_dir/c.csv"], 2),
        (["counterexample", "--x", "5000", "--gamma", "2", "--dump-f", "no_such_dir/f.npz"], 2),
        # a sieve cache that is missing or a directory: exit 3, like an unreadable table
        (["delta", "--f", MU, "--x", "100", "--q", "3", "--a", "1", "--cache", "missing.bin"], 3),
        (["delta", "--f", MU, "--x", "100", "--q", "3", "--a", "1", "--cache", "."], 3),
        # (log x)^gamma, (log x)^C or (log X)^A out of float range: exit 3
        (["counterexample", "--x", "5000", "--gamma", "400"], 3),
        (["counterexample", "--x", "5000", "--gamma=-1e3"], 3),
        (["truncation-check", "--f", MU, "--g", MU, "--x", "10000", "--C", "400", "--q", "3",
          "--a", "1"], 3),
        (["sw-profile", "--f", MU, "--q", "3", "--a", "1", "--X-grid", "10000", "--A", "400"], 3),
    ],
)
def test_bad_inputs_exit_without_traceback(tmp_path, capsys, monkeypatch, argv, code):
    monkeypatch.chdir(tmp_path)
    np.savez("nan.npz", prime_powers=np.array([2, 3]), values=np.array([complex("nan"), 0.5]))
    np.savez("t2d.npz", prime_powers=np.array([[2, 3], [4, 5]]), values=np.full((2, 2), 0.5))
    np.savez("t0d.npz", prime_powers=np.array(2), values=np.array(0.5))
    np.savez("v2d.npz", prime_powers=np.array([2, 3]), values=np.array([[0.5], [0.5]]))
    np.savez("flt.npz", prime_powers=np.array([2.0, 3.0]), values=np.array([0.5, 0.5]))
    np.savez("dup.npz", prime_powers=np.array([2, 2, 3]), values=np.array([1, -1, 0.5]))
    save_prime_table(100, "spf15.bin")
    blob = bytearray((tmp_path / "spf15.bin").read_bytes())
    blob[14 + 4 * (15 - 2) : 14 + 4 * (15 - 1)] = (15).to_bytes(4, "little")
    (tmp_path / "spf15.bin").write_bytes(bytes(blob))
    (tmp_path / "nan_cm.json").write_text(
        json.dumps({"f": {"kind": "cm", "default": [float("nan"), 0]}})
    )
    (tmp_path / "q_half.json").write_text(
        json.dumps({"f": {"kind": "builtin", "name": "one"}, "x": 10, "q": 3.5, "a": 1})
    )
    (tmp_path / "xi_list.json").write_text(json.dumps({"f": json.loads(MU), "xi": ["chi:q=3,label=1"]}))
    out = [] if "--out" in argv else ["--out", "out.txt"]
    assert main([*argv, *out]) == code
    err = capsys.readouterr().err
    if code:
        assert err.count("\n") == 1 and "Traceback" not in err, err


def test_dump_f_writes_the_named_file(tmp_path, capsys):
    # np.savez adds ".npz" to a bare name; the manifest hashes the path as given
    dump = tmp_path / "values"
    code, manifest = run(capsys, "counterexample", "--x", "5000", "--gamma", "2",
                         "--dump-f", str(dump), "--out", str(tmp_path / "ce.json"))
    assert code == 0 and dump.is_file() and not (tmp_path / "values.npz").exists()
    assert manifest["outputs"][1]["path"] == str(dump)
    with np.load(dump) as data:
        assert set(data.files) == {"prime_powers", "values"}
