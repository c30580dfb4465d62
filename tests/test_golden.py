"""What a refactor keeps: the README's CLI commands at reduced sizes, pinned
to the sha256 of every output, and the library names the benchmark traces.

A change that moves an output on purpose says why and updates its hash here.
"""

import ast
import hashlib
import importlib
import importlib.util
import inspect
import json
import os
import random
import subprocess
import sys
from collections import Counter
from pathlib import Path

from bvlab import build_prime_table, core_arith
from bvlab.cli import main
from bvlab.discrepancy import residue_buckets
from bvlab.funcspec import save_pp_table
from bvlab.multfun import MultFn
from families import random_class_c

ROOT = Path(__file__).resolve().parent.parent

MU = '{"kind":"builtin","name":"moebius"}'
ONE = '{"kind":"builtin","name":"one"}'
# complex at every prime, so bv-sum sweeps complex128 values in several slices
CM = '{"kind":"cm","primes":{"2":[0.6,0.8],"3":[0,1],"5":[-0.6,0.8]},"default":[0.28,0.96]}'
XI = "chi:q=1,label=0;chi:q=3,label=1;chi:q=4,label=1"
LIOUVILLE = '{"kind":"builtin","name":"liouville"}'
# real functions restricted to the primes, one of them log-twisted
MU_P = '{"kind":"builtin","name":"moebius","restrict":"primes"}'
LIOUVILLE_P_LOG = '{"kind":"builtin","name":"liouville","restrict":"primes","log_twist":400000}'

COMMANDS = [
    ["sieve-cache", "--limit", "400000", "--out", "sieve.bin"],
    ["delta", "--f", ONE, "--x", "10", "--q", "3", "--a", "1", "--out", "d.json"],
    ["delta-xi", "--f", '{"kind":"character","q":3,"label":1}', "--x", "10000",
     "--q", "3", "--a", "1", "--xi", "chi:q=3,label=1", "--out", "dx.json"],
    ["bv-sum", "--cache", "sieve.bin", "--f", MU, "--x", "400000", "--Q", "300",
     "--threads", "2", "--out", "bv.csv"],
    ["bv-sum", "--cache", "sieve.bin", "--f", CM, "--x", "400000", "--Q", "300",
     "--xi", XI, "--threads", "2", "--out", "bvcm.csv"],
    ["sw-profile", "--f", MU, "--q", "3", "--a", "1", "--X-grid", "100,1000,10000",
     "--A", "2", "--out", "profile.csv"],
    ["partial-summation", "--f", ONE, "--x", "100", "--X", "10", "--q", "3", "--a", "1",
     "--out", "ps.json"],
    ["large-sieve-fuzz", "--trials", "30", "--N-max", "200", "--Q-max", "200", "--seed", "1",
     "--out", "ls.csv"],
    ["smooth-split", "--n", "60", "--V0", "3.1622776601683795", "--out", "split.json"],
    ["assembly-check", "--f", '{"kind":"builtin","name":"one","smooth_y":20}', "--X", "10000",
     "--y", "20", "--psi", "chi:q=5,label=1", "--out", "asm.json"],
    ["dyadic-cells", "--X", "10000", "--y", "20", "--V0", "22.360679774997898",
     "--out", "cells.csv"],
    ["bilinear-fuzz", "--U", "64", "--V", "64", "--R", "8", "--trials", "20",
     "--seed", "12345", "--out", "bl.csv"],
    ["truncation-check", "--f", ONE, "--g", MU, "--x", "10000", "--C", "1.037",
     "--q", "3", "--a", "1", "--out", "tc.json"],
    ["counterexample", "--x", "100000", "--gamma", "2", "--out", "ce.json", "--csv", "ce.csv",
     "--dump-f", "ce_values.npz"],
    ["lambda-check", "--f", MU, "--limit", "10000", "--out", "l.json"],
    ["inverse-check", "--f", MU, "--limit", "10000", "--out", "i.json"],
    ["companion-check", "--f", MU, "--limit", "10000", "--out", "c.json"],
    ["bv-sum", "--cache", "sieve.bin", "--f", MU_P, "--x", "400000", "--Q", "300",
     "--out", "bvp.csv"],
    ["bv-sum", "--cache", "sieve.bin", "--f", LIOUVILLE_P_LOG, "--x", "400000", "--Q", "300",
     "--xi", XI, "--threads", "2", "--out", "bvlp.csv"],
    ["partial-summation", "--cache", "sieve.bin", "--f", MU_P, "--x", "99999.7", "--X", "1000.5",
     "--q", "5", "--a", "1", "--xi", "chi:q=5,label=1;chi:q=5,label=2", "--out", "psp.json"],
    ["inverse-check", "--f", LIOUVILLE, "--limit", "10000", "--out", "il.json"],
    ["companion-check", "--f", LIOUVILLE, "--limit", "10000", "--out", "cl.json"],
]

GOLDEN = {
    "sieve.bin": "5d91549ff70d1e3db92873f501301a054b3e9250add59749df252eb7b4b78b88",
    "d.json": "06c661d92f864949a02c84dbed8a36ddc1190131d6235661215f343517ad77bf",
    "dx.json": "52804b14ef209dc6acff3ed5cfc0e02c637c63026ffa087dbeff98cf52612d44",
    "bv.csv": "b681ff0536a13da8f6edb770ffad16d19825def6252ba189277e3209257a7626",
    "bvcm.csv": "9fbb1983852c7d78f6be86e3c57d1dcb5cc2006dedb8c337688500ecc536f7cd",
    "profile.csv": "13a874f1b32156744d3084e60719b299aca0848ddf6a774ace7785a491d5fda7",
    "ps.json": "62cf8f812dc7e384cdcdf2d9a4c8d5d56f72d904e7bec9feada8815a8f0344a0",
    "ls.csv": "1d92b4dd889ad0fe0beba0214a2e1426b799244e4bb82967bf6943eeac219155",
    "split.json": "94888bb6f8eebd752450ca802312c9d2d0a7161cce0c91ff5610cf20fec6963f",
    "asm.json": "d338e25f9660f16d58b18155a96a8820bd199cd3b56c48a61a4f0c024f17fd1f",
    "cells.csv": "e49e65dd897694627336d4f4f98a9eb29471ac0faf85ba233f508daa9e20937d",
    "bl.csv": "bef6e590bf668381da67d89b39d5b218b35fdbea0545e5c166c26abd2982ca13",
    "tc.json": "62cf8f812dc7e384cdcdf2d9a4c8d5d56f72d904e7bec9feada8815a8f0344a0",
    "ce.json": "6bff2fbeb9f56def7b561c2df472e8f966ee538c87e2192cc85209da5fece0f5",
    "ce.csv": "e4ad954e3a51481f53955f923ba02183d9b537366de36e8886fd41ca7e03ef49",
    "ce_values.npz": "e2f5608799405a64c26af378fa8451d33fb0fbb02925043f575708f17bcd6e27",
    "l.json": "03c1bd0d9d4cc9a2a7ca6d19e4f0be87a2596a66f33173c640db8b947831be7c",
    "i.json": "ba2a82e91e6f8571a255cc1b9f1189042c5231e3f9ca7f0d9e6b9520c95414e6",
    "c.json": "4a22f37fb96809ccfe35730a05fda1e65235681de1ce59c98f8df235a344bdc8",
    "bvp.csv": "4ce711609239724078c914b1f9cebdc416e39d75fed413ad28d31efee670985d",
    "bvlp.csv": "efc688cbb27ea83c31b1b3e5d2d8e06d5bda8756c0f915aeeb65014c3a0dda8e",
    "psp.json": "f99c41571702b21a5718498b79a15b222238decbd68ade09a5cc527fca9890c2",
    "il.json": "ba2a82e91e6f8571a255cc1b9f1189042c5231e3f9ca7f0d9e6b9520c95414e6",
    "cl.json": "fca533fd5407f5b0760ccd7abebab88d8e2a20f59de04cac0ff8d525976edb4a",
}


def test_readme_commands_keep_their_bytes(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    got = {}
    for argv in COMMANDS:
        assert main(argv) == 0, argv
        for flag in ("--out", "--csv", "--dump-f"):
            if flag in argv:
                path = argv[argv.index(flag) + 1]
                got[path] = hashlib.sha256((tmp_path / path).read_bytes()).hexdigest()
    capsys.readouterr()
    assert got == GOLDEN


# the algebra commands on a seeded complex class-C table: lambda, inverse,
# companion and truncated convolutions all sweep complex values
CC = '{"kind":"table","path":"cc.npz"}'
CC_COMMANDS = [
    ["lambda-check", "--f", CC, "--limit", "10000", "--out", "lcc.json"],
    ["inverse-check", "--f", CC, "--limit", "10000", "--out", "icc.json"],
    ["companion-check", "--f", CC, "--limit", "10000", "--out", "ccc.json"],
    ["truncation-check", "--f", CC, "--g", MU, "--x", "10000", "--C", "1.037",
     "--q", "3", "--a", "1", "--xi", "chi:q=3,label=1", "--out", "tcc.json"],
]

CC_GOLDEN = {
    "cc.npz": "f9fc97fd2c1f5ffb4ba46ee1482d1df2e080e715704006134041adf32523fbb7",
    "lcc.json": "1c78f6bce48ec47d42fef433ac801ddbaf05d48e0faef971b377adf0564ba7c4",
    "icc.json": "4bc8add1484035338e8aebe7f8b88651246877a455b099e16bd8c0829f4d1d71",
    "ccc.json": "9c97551aa8676f287f6622318bc1e01e8069036a843529bc9272b90438a4d2c1",
    "tcc.json": "7768ac9baae2009acacf29f1aa547725d5ba656e351cbf550ea0ed5cba11ede4",
}


def test_class_c_table_commands_keep_their_bytes(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    save_pp_table(random_class_c(random.Random(17), 10000), 10000,
                  build_prime_table(10000), "cc.npz")
    for argv in CC_COMMANDS:
        assert main(argv) == 0, argv
    capsys.readouterr()
    got = {p: hashlib.sha256((tmp_path / p).read_bytes()).hexdigest() for p in CC_GOLDEN}
    assert got == CC_GOLDEN


def test_traced_layers_resolve():
    # bench/runner.py wraps these by name; a missing one only shows as a failed traced run
    path = ROOT / "bench" / "runner.py"
    spec = importlib.util.spec_from_file_location("bench_runner", path)
    runner = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(runner)
    assert runner.LAYERS
    for mod_name, attr, _kind, _extras in runner.LAYERS:
        obj = importlib.import_module("bvlab." + mod_name)
        for part in attr.split("."):
            obj = getattr(obj, part)
        assert callable(obj), (mod_name, attr)
    # the bytes_in extras read the values and m of residue_buckets positionally
    assert list(inspect.signature(residue_buckets).parameters)[:2] == ["values", "m"]


def test_src_keeps_only_what_it_runs():
    # every top-level function and non-dunder method of src/bvlab is named in
    # the package outside its own body and __init__.py, or is a layer that
    # bench/runner.py wraps by name; what no command reaches lives in tests
    path = ROOT / "bench" / "runner.py"
    spec = importlib.util.spec_from_file_location("bench_runner", path)
    runner = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(runner)
    traced = {(mod_name, attr) for mod_name, attr, _kind, _extras in runner.LAYERS}

    def names(node):
        return Counter(n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(node)
                       if isinstance(n, (ast.Name, ast.Attribute)))

    src = sorted((ROOT / "src" / "bvlab").glob("*.py"))
    trees = {p.stem: ast.parse(p.read_text()) for p in src}
    used = sum((names(tree) for mod, tree in trees.items() if mod != "__init__"), Counter())
    unreached = []
    for mod, tree in trees.items():
        for node in tree.body:
            if isinstance(node, ast.FunctionDef):
                defs = [(node.name, node)]
            elif isinstance(node, ast.ClassDef):
                defs = [(f"{node.name}.{m.name}", m) for m in node.body
                        if isinstance(m, ast.FunctionDef) and not m.name.startswith("__")]
            else:
                continue
            for qualname, fn in defs:
                if used[fn.name] == names(fn)[fn.name] and (mod, qualname) not in traced:
                    unreached.append(f"{mod}.{qualname}")
    assert unreached == []


def test_traced_run_wraps_the_layers(tmp_path):
    # the same names, wrapped by the runner itself around a command that reads a MultFn
    out = tmp_path / "l.json"
    trace = tmp_path / "trace.jsonl"
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    argv = ["lambda-check", "--f", MU, "--limit", "10000", "--out", str(out)]
    run = subprocess.run([sys.executable, str(ROOT / "bench" / "runner.py"), "--trace-out",
                          str(trace), "--", *argv], env=env, capture_output=True)
    assert run.returncode == 0, run.stderr
    assert hashlib.sha256(out.read_bytes()).hexdigest() == GOLDEN["l.json"]
    records = [json.loads(line) for line in trace.read_text().splitlines()]
    assert {"multfun.lambda_seq", "multfun.to_arith"} <= {r.get("name") for r in records}
    counts = next(r["counts"] for r in records if "counts" in r)
    assert "multfun.MultFn.pp_value" in counts


def test_algebra_commands_call_each_rule_once(tmp_path, monkeypatch, capsys):
    # a MultFn is read once: every rule, of f and of what is derived from it,
    # runs once per command, the table enumerates its prime powers once for
    # every function read over it, and the outputs keep their bytes
    monkeypatch.chdir(tmp_path)
    assert main(next(a for a in COMMANDS if a[0] == "sieve-cache")) == 0  # bv-sum's --cache
    calls = []  # one count per MultFn built
    init = MultFn.__init__
    enumerations = [0]
    enumerate_pp = core_arith.prime_powers

    def counting_init(self, rule, *args, **kwargs):
        calls.append(0)
        i = len(calls) - 1

        def counted(*a):
            calls[i] += 1
            return rule(*a)

        init(self, counted, *args, **kwargs)

    def counting_prime_powers(*a):
        enumerations[0] += 1
        return enumerate_pp(*a)

    monkeypatch.setattr(MultFn, "__init__", counting_init)
    monkeypatch.setattr(core_arith, "prime_powers", counting_prime_powers)
    built, enumerated = {}, {}
    names = ("lambda-check", "inverse-check", "companion-check", "counterexample", "bv-sum",
             "truncation-check")
    for name in names:
        argv = next(a for a in COMMANDS if a[0] == name)
        calls.clear()
        enumerations[0] = 0
        assert main(argv) == 0, argv
        built[name] = list(calls)
        enumerated[name] = enumerations[0]
    capsys.readouterr()
    assert built == {
        "lambda-check": [1, 1],  # f, inverse
        "inverse-check": [1, 1],  # f, inverse
        "companion-check": [1, 1, 1, 1],  # f, f_star, g, the powerful indicator
        "counterexample": [1],  # f, read by the pointwise check and by --dump-f
        "bv-sum": [1],  # f
        "truncation-check": [1, 1],  # f, g
    }
    assert enumerated == {
        "lambda-check": 1,  # the table's, for f and its inverse
        "inverse-check": 1,
        "companion-check": 1,  # f and the powerful indicator share the table's
        "counterexample": 1,
        "bv-sum": 1,
        "truncation-check": 1,  # f and g share the table's
    }
    for path in ("l.json", "i.json", "c.json", "ce.json", "ce.csv", "ce_values.npz"):
        assert hashlib.sha256((tmp_path / path).read_bytes()).hexdigest() == GOLDEN[path], path
