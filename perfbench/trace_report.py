#!/usr/bin/env python3
"""Prints per-layer self time from perfbench traces.

    python3 perfbench/trace_report.py .perfbench/trace-paper-2023.jsonl [...]

Each trace line is one span (see README.md). A span's self time is its
duration minus its children's, floored at zero, scaled by the item's
normalization factor. One row per program (input), then one total row per
workload: the mean self time per traced item, in ms, of each layer, and
`unaccounted`, the part of an item's span no layer span covers.
"""

import collections
import json
import sys

LAYERS = [
    "frontend.parse",
    "mbqc.translate",
    "partition",
    "mbqc.flow",
    "fusion_graph",
    "mapping",
    "shuffle",
    "service.cache_key",
    "service.http_parse",
]


def load(paths):
    """Yields (workload, input, layer, scaled self ms) per span, and the
    number of items per (workload, input)."""
    rows = collections.defaultdict(lambda: collections.defaultdict(float))
    items = collections.defaultdict(set)
    for path in paths:
        with open(path) as f:
            spans = [json.loads(line) for line in f if line.strip()]
        children = collections.defaultdict(int)
        for s in spans:
            if s["parent"] is not None:
                children[s["parent"]] += s["end_ns"] - s["start_ns"]
        for s in spans:
            own = max(0, s["end_ns"] - s["start_ns"] - children[s["id"]])
            key = (s["workload"], s["input"])
            layer = "unaccounted" if s["parent"] is None else s["name"]
            rows[key][layer] += own * s["factor"] / 1e6
            items[key].add((path, s["item"]))
    return rows, items


def main(paths):
    if not paths:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    rows, items = load(paths)
    columns = [c for c in LAYERS if any(c in r for r in rows.values())] + ["unaccounted"]
    head = f"{'workload':9} {'input':28} {'items':>6}" + "".join(
        f" {c.split('.')[-1]:>12}" for c in columns
    )
    print(head)
    print("-" * len(head))
    totals = collections.defaultdict(lambda: collections.defaultdict(float))
    counts = collections.Counter()
    for (workload, name) in sorted(rows):
        n = len(items[(workload, name)])
        counts[workload] += n
        cells = ""
        for c in columns:
            totals[workload][c] += rows[(workload, name)][c]
            cells += f" {rows[(workload, name)][c] / n:12.4f}"
        print(f"{workload:9} {name[:28]:28} {n:6d}{cells}")
    for workload in sorted(totals):
        n = counts[workload]
        cells = "".join(f" {totals[workload][c] / n:12.4f}" for c in columns)
        print(f"{workload:9} {'(all inputs)':28} {n:6d}{cells}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
