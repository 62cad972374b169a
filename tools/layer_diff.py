#!/usr/bin/env python3
"""Print the per-layer metrics of two benchmark runs side by side.

Takes two result lines of `perfbench/run.py ... --trace 1` — the parent
commit's run first, the change's second — and prints one Markdown table row
per metric: parent -> change, and their ratio change / parent. A row whose
parent value is 0 has no ratio; it is marked "parent 0" instead, so a
counter that only the change records (or that fell to 0 and back) is not
read as an infinite or undefined speedup. Metrics present in only one run
are listed with "-" on the other side.

Each input is a file holding the run's output; its last non-empty line is
the result object {"correct", "attempted", "failed", "metrics"}. Stdlib only.

Usage:
  layer_diff.py PARENT_RESULT CHANGE_RESULT

Example:
  python3 perfbench/run.py --workload design_table1 --seed 3 --seconds 20 \\
      --trace 1 > change.txt   # and the same in the parent's checkout
  python3 tools/layer_diff.py parent.txt change.txt
"""

import json
import math
import sys


def load_metrics(path):
    """The metrics object of the result line that ends the file at path."""
    with open(path, "r", encoding="utf-8") as f:
        lines = [line for line in f.read().splitlines() if line.strip()]
    if not lines:
        raise ValueError("%s: empty" % path)
    result = json.loads(lines[-1])
    metrics = result.get("metrics")
    if not isinstance(metrics, dict):
        raise ValueError("%s: last line has no metrics object" % path)
    return metrics


def fmt(value):
    if value is None:
        return "-"
    if math.isfinite(value) and value == int(value) and abs(value) < 1e15:
        return "%d" % value
    return "%.4g" % value


def rows(parent, change):
    """(name, unit, parent value, change value, ratio text) per metric."""
    names = list(parent) + [n for n in change if n not in parent]
    for name in names:
        p = parent.get(name, {})
        c = change.get(name, {})
        pv = p.get("value")
        cv = c.get("value")
        unit = p.get("unit") or c.get("unit") or ""
        if pv is None or cv is None:
            ratio = "-"
        elif pv == 0:
            ratio = "parent 0"
        else:
            ratio = "%.3f" % (cv / pv)
        yield name, unit, pv, cv, ratio


def main(argv):
    if len(argv) != 3 or argv[1] in ("-h", "--help"):
        print(__doc__.strip(), file=sys.stderr)
        return 2
    try:
        parent = load_metrics(argv[1])
        change = load_metrics(argv[2])
    except (OSError, ValueError) as e:
        print("layer_diff: %s" % e, file=sys.stderr)
        return 2
    print("| metric | unit | parent | change | change/parent |")
    print("|---|---|---:|---:|---:|")
    for name, unit, pv, cv, ratio in rows(parent, change):
        print("| %s | %s | %s | %s | %s |" % (name, unit, fmt(pv), fmt(cv), ratio))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
