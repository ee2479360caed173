#!/usr/bin/env python3
"""Compares two saved outputs of e2ebench/run.py (trace 0) metric by metric.

    python3 e2ebench/compare.py BASE.txt CANDIDATE.txt

Each file holds the stdout of one run: a `host {...}` line and the JSON
result as the last line. Runs from different hosts are not comparable:
the script then reports a host mismatch and exits 3, never a pass or a
regression. Otherwise each end-to-end metric is judged against its bound
in BENCHMARK.json; exit status 1 means at least one regression.
"""

import json
import os
import re
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load(path):
    with open(path) as f:
        text = f.read()
    host = re.search(r"^host (\{.*\})$", text, re.M)
    if host is None:
        sys.exit("%s: no host line" % path)
    return json.loads(host.group(1)), json.loads(text.strip().splitlines()[-1])


def main():
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    base_host, base = load(sys.argv[1])
    cand_host, cand = load(sys.argv[2])
    if base_host != cand_host:
        differs = sorted(k for k in set(base_host) | set(cand_host)
                         if base_host.get(k) != cand_host.get(k))
        print("host mismatch (%s): not comparable" % ", ".join(differs))
        return 3
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        declared = {m["name"]: m for m in json.load(f)["end_to_end"]}
    regressions = 0
    for name, spec in declared.items():
        if name not in base["metrics"] or name not in cand["metrics"]:
            print("%-16s missing" % name)
            continue
        b = base["metrics"][name]["value"]
        c = cand["metrics"][name]["value"]
        change = (c - b) / b if b else 0.0
        worse = change > spec["bound"] if spec["better"] == "lower" else -change > spec["bound"]
        regressions += worse
        print("%-16s %14.4f -> %14.4f %s %+7.1f%% (bound %.0f%%) %s" % (
            name, b, c, spec["unit"], 100 * change, 100 * spec["bound"],
            "REGRESSION" if worse else "ok"))
    if not (base["correct"] and cand["correct"]):
        print("a run had incorrect responses")
        return 1
    return 1 if regressions else 0


if __name__ == "__main__":
    sys.exit(main())
