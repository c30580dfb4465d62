"""Run one bvlab CLI command, optionally recording spans around its layers.

    python3 bench/runner.py [--trace-out FILE] -- <bvlab arguments>

Without --trace-out this is `bvlab <arguments>`. With it, the public
functions listed in LAYERS are wrapped in every bvlab module namespace that
binds them (cli, decomposition, counterexample and funcspec import several
by name), before `bvlab.cli.main` runs. Each call of a "span" function
records (id, name, parent id, thread id, start, end, extras); a "count"
function, called too often for a span each, only counts. Spans stay in
memory and are written to FILE as JSON lines when the command ends. The
command's stdout, exit code and output files are unchanged.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor


def _to_arith_extras(args, kwargs, out):
    return {"values": int(out.values.size), "bytes_out": int(out.values.nbytes)}


def _residue_buckets_extras(args, kwargs, out):
    values, m = args[0], args[1]
    return {"bytes_in": int(values.itemsize) * (int(m) + 1)}


# (module, attribute, kind, extras): the layer boundaries that are traced.
LAYERS = [
    ("core_arith", "build_prime_table", "span", None),
    ("core_arith", "save_prime_table", "span", None),
    ("core_arith", "load_prime_table", "span", None),
    ("core_arith", "factorize", "count", None),
    ("characters", "induced_set", "span", None),
    ("characters", "induce", "count", None),
    ("characters", "enumerate_characters", "span", None),
    ("characters", "primitive_value_matrix", "span", None),
    ("multfun", "to_arith", "span", _to_arith_extras),
    ("multfun", "MultFn.pp_value", "count", None),
    ("multfun", "dirichlet_convolve", "span", None),
    ("multfun", "truncated_convolution", "span", None),
    ("multfun", "lambda_seq", "span", None),
    ("multfun", "class_c_check", "span", None),
    ("funcspec", "parse_function_spec", "span", None),
    ("funcspec", "save_pp_table", "span", None),
    ("discrepancy", "bv_sum", "span", None),
    ("discrepancy", "residue_buckets", "span", _residue_buckets_extras),
    ("discrepancy", "delta", "span", None),
    ("discrepancy", "delta_xi", "span", None),
    ("discrepancy", "large_sieve_check", "span", None),
    ("decomposition", "truncation_difference_check", "span", None),
    ("counterexample", "plan_counterexample", "span", None),
    ("counterexample", "pointwise_identity_check", "span", None),
    ("counterexample", "range_extension_check", "span", None),
    ("counterexample", "lower_bound_report", "span", None),
]


class Tracer:
    """Spans and call counts of one process."""

    def __init__(self):
        self.spans = []  # list.append is atomic, so worker threads share it
        self._ids = itertools.count(1)
        self._counters = {}
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self):
        stack = self._stack()
        return stack[-1] if stack else None

    def span(self, name, fn, extras=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = self._stack()
            sid = next(self._ids)
            parent = stack[-1] if stack else None
            stack.append(sid)
            t0 = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                stack.pop()
            record = {"id": sid, "name": name, "parent": parent,
                      "tid": threading.get_ident(), "start": t0, "end": t1}
            if extras is not None:
                record.update(extras(args, kwargs, out))
            self.spans.append(record)
            return out

        return wrapper

    def count(self, name, fn):
        # next() on itertools.count is atomic under the interpreter lock
        counter = self._counters.setdefault(name, itertools.count())

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            next(counter)
            return fn(*args, **kwargs)

        return wrapper

    def counts(self) -> dict:
        return {name: next(c) for name, c in self._counters.items()}

    def pool_class(self):
        """A ThreadPoolExecutor whose tasks run under the submitter's span."""
        tracer = self

        class TracedPool(ThreadPoolExecutor):
            def submit(self, fn, /, *args, **kwargs):
                parent = tracer.current()

                def run(*a, **k):
                    tracer._local.stack = [] if parent is None else [parent]
                    try:
                        return fn(*a, **k)
                    finally:
                        tracer._local.stack = []

                return super().submit(run, *args, **kwargs)

        return TracedPool


def install(tracer: Tracer) -> None:
    """Wrap every LAYERS entry wherever a bvlab module binds it."""
    modules = [m for name, m in list(sys.modules.items())
               if name == "bvlab" or name.startswith("bvlab.")]
    for mod_name, attr, kind, extras in LAYERS:
        mod = importlib.import_module("bvlab." + mod_name)
        name = f"{mod_name}.{attr}"
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(mod, cls_name)
            original = getattr(cls, meth)
            setattr(cls, meth, tracer.count(name, original) if kind == "count"
                    else tracer.span(name, original, extras))
            continue
        original = getattr(mod, attr)
        wrapped = (tracer.count(name, original) if kind == "count"
                   else tracer.span(name, original, extras))
        for m in modules:
            for key, value in list(vars(m).items()):
                if value is original:
                    setattr(m, key, wrapped)
    pool = tracer.pool_class()
    for m in modules:
        if getattr(m, "ThreadPoolExecutor", None) is ThreadPoolExecutor:
            m.ThreadPoolExecutor = pool


def main() -> int:
    argv = sys.argv[1:]
    trace_out = None
    if argv[:1] == ["--trace-out"]:
        trace_out, argv = argv[1], argv[2:]
    if argv[:1] == ["--"]:
        argv = argv[1:]
    import bvlab.cli

    if trace_out is None:
        return bvlab.cli.main(argv)

    t_install = time.perf_counter()
    tracer = Tracer()
    install(tracer)
    cli_main = tracer.span("cli.main", bvlab.cli.main)
    install_s = time.perf_counter() - t_install
    try:
        return cli_main(argv)
    finally:  # also after a traceback or argparse's SystemExit
        sys.stdout.flush()
        t_write = time.perf_counter()
        with open(trace_out, "w") as fh:
            for record in tracer.spans:
                fh.write(json.dumps(record) + "\n")
            fh.write(json.dumps({"counts": tracer.counts()}) + "\n")
            fh.write(json.dumps({"install_s": install_s,
                                 "write_s": time.perf_counter() - t_write}) + "\n")


if __name__ == "__main__":
    sys.exit(main())
