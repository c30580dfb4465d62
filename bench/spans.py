"""Per-layer figures from the span files that runner.py writes."""

from __future__ import annotations

import json
from collections import defaultdict


def covered(intervals, lo: float, hi: float) -> float:
    """Length of the union of `intervals`, clipped to [lo, hi]."""
    total = 0.0
    end = lo
    for a, b in sorted(intervals):
        a, b = max(a, end), min(b, hi)
        if b > a:
            total += b - a
            end = b
    return total


def read(path: str):
    """(spans, counts, tracing cost in seconds) of one traced command."""
    spans, counts, cost = [], {}, 0.0
    with open(path) as fh:
        for line in fh:
            rec = json.loads(line)
            if "counts" in rec:
                counts = rec["counts"]
            elif "install_s" in rec:
                cost = rec["install_s"] + rec["write_s"]
            else:
                spans.append(rec)
    return spans, counts, cost


def layer_figures(spans, counts) -> dict[str, float]:
    """<layer>.self_s, <layer>.calls and summed extras for one command.

    A span's self time is its duration minus the part of it that its child
    spans cover; children on pool threads count once where they overlap.
    """
    children = defaultdict(list)
    for s in spans:
        if s["parent"] is not None:
            children[s["parent"]].append((s["start"], s["end"]))
    out: dict[str, float] = defaultdict(float)
    for s in spans:
        name = s["name"]
        dur = s["end"] - s["start"]
        out[name + ".self_s"] += dur - covered(children[s["id"]], s["start"], s["end"])
        out[name + ".calls"] += 1
        for key in ("values", "bytes_out", "bytes_in"):
            if key in s:
                out[f"{name}.{key}"] += s[key]
    for name, n in counts.items():
        out[name + ".calls"] += n
    return dict(out)
