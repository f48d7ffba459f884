#!/usr/bin/env python3
"""Compare two sets of benchmark records (written by perfbench/run.py
under .bench_build/records/).

    python3 perfbench/compare.py BASE NEW

BASE and NEW are record files or directories of them, e.g. the records
of the parent commit and of a change, each run on several seeds. For
every workload and end-to-end metric it prints both medians, the base's
quartile spread and the change as a share of the base median, and marks
a metric REGRESSED when it is worse by more than the bound in
BENCHMARK.json. Records are only compared when every one of them has
the same host fingerprint (cpu model, core count, compiler, build type);
otherwise the workload is flagged and skipped. Exit status: 0 when
nothing regressed and nothing was flagged, 1 on a regression, 3 when
something was flagged.
"""

import json
import os
import statistics
import sys


def load(paths):
    records = []
    for path in paths:
        files = [path]
        if os.path.isdir(path):
            files = [os.path.join(path, f) for f in sorted(os.listdir(path))
                     if f.endswith(".json")]
        for name in files:
            with open(name) as f:
                records.append(json.load(f))
    return records


def host_key(record):
    return json.dumps(record["fingerprint"]["host"], sort_keys=True)


def code_key(record):
    fp = record["fingerprint"]
    return fp["commit"], fp["source_sha256"]


def compare(base_paths, new_paths, spec):
    """Returns (rows, flags): one row per compared (workload, metric),
    and one message per set of records that could not be compared."""
    base = [r for r in load(base_paths) if r["trace"] == 0]
    new = [r for r in load(new_paths) if r["trace"] == 0]
    rows, flags = [], []
    for workload in [w["name"] for w in spec["workloads"]]:
        b = [r for r in base if r["workload"] == workload]
        n = [r for r in new if r["workload"] == workload]
        if not b or not n:
            continue
        hosts = {host_key(r) for r in b + n}
        if len(hosts) > 1:
            flags.append("%s: records come from %d different host fingerprints; "
                         "not compared: %s" % (workload, len(hosts), " | ".join(sorted(hosts))))
            continue
        for side, records in (("base", b), ("new", n)):
            codes = {code_key(r) for r in records}
            if len(codes) > 1:
                flags.append("%s: %s records mix %d commits/sources" % (workload, side, len(codes)))
        for metric in spec["end_to_end"]:
            name = metric["name"]
            bv = [r["metrics"][name]["value"] for r in b]
            nv = [r["metrics"][name]["value"] for r in n]
            bmed, nmed = statistics.median(bv), statistics.median(nv)
            spread = 0.0
            if len(bv) >= 2 and bmed:
                q = statistics.quantiles(bv, n=4)
                spread = (q[2] - q[0]) / bmed
            change = (nmed - bmed) / bmed if bmed else 0.0
            worse = -change if metric["better"] == "higher" else change
            rows.append({
                "workload": workload, "metric": name, "unit": metric["unit"],
                "base": bmed, "new": nmed, "base_spread": spread,
                "change": change, "bound": metric["bound"],
                "regressed": worse > metric["bound"],
                "runs": (len(bv), len(nv)),
            })
    return rows, flags


def main(argv):
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        spec = json.load(f)
    rows, flags = compare([argv[0]], [argv[1]], spec)
    for row in rows:
        print("%-16s %-26s base %-12.6g new %-12.6g %-16s change %+7.2f%% "
              "(base IQR %.2f%%, bound %.0f%%, runs %d/%d)%s" % (
                  row["workload"], row["metric"], row["base"], row["new"], row["unit"],
                  100 * row["change"], 100 * row["base_spread"], 100 * row["bound"],
                  row["runs"][0], row["runs"][1],
                  "  REGRESSED" if row["regressed"] else ""))
    for flag in flags:
        print("FLAGGED " + flag)
    if flags:
        return 3
    return 1 if any(row["regressed"] for row in rows) else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
