"""Self-test of the repository benchmark (python3 perfbench/run.py --self-test).

1. Every metric name, in BENCHMARK.json and as emitted, matches
   [A-Za-z0-9_.-]+.
2. Every metric the benchmark defines is emitted by every workload, in
   both modes, on a 64-node smoke variant of each workload (--smoke);
   a per-layer metric whose layer does not run there must be marked
   not-applicable rather than dropped.
3. A corrupted digest counts as a failed run.
4. The comparison tool refuses to compare records of different hosts.
5. Every timed point is bracketed by host-speed probe samples, so every
   host-time metric has its figure in reference seconds.
"""

import copy
import json
import os
import re
import sys
import tempfile
from types import SimpleNamespace

import compare
import run

NAME_RE = re.compile(r"[A-Za-z0-9_.-]+")

# The per-layer metrics the benchmark's definition names, by layer.
LAYER_METRICS = [
    "sim.step_ns_p50", "sim.step_ns_p99", "sim.step_samples",
    *("sim.phase.%s_ns" % p for p in (
        "generate", "arrivals", "eject", "route", "transmit", "inject",
        "route_eval", "route_commit", "transmit_eval", "transmit_commit")),
    "sim.scan_visited_per_cycle", "sim.scan_skip_ratio", "sim.active_links_avg",
    "sim.shards_effective", "sim.commit_decisions_per_cycle",
    "sim.commit_conflict_rate", "util.shard_crew_run_ns",
    "routing.route_evals_per_cycle", "routing.memo_hit_rate",
    "routing.lut_route_ns", "routing.fn_route_ns", "routing.select_ns",
    "core.alo_allow_ns", "core.lf_allow_ns", "core.dril_allow_ns",
    "core.alo_allow_ratio",
    "deadlock.detections_per_kcycle", "deadlock.recovery_pending_avg",
    "traffic.source_queue_avg", "traffic.in_flight_avg",
    "config.build_ms", "config.lut_tabulated", "config.estimated_mib",
    "metrics.online_overhead_pct", "trace.overhead_pct",
]
END_TO_END = [
    "sim_cycles_per_s", "sim_cycles_per_cpu_s", "cpu_ns_per_flit", "setup_s",
    "peak_rss_mib", "accepted_flits_node_cycle", "latency_p99_cycles",
]
WORKLOADS = ["sat512", "light512_online"]


class Checks:
    def __init__(self):
        self.passed = 0
        self.failures = []

    def expect(self, cond, what):
        if cond:
            self.passed += 1
        else:
            self.failures.append(what)


def check_names(checks, spec, emitted):
    for section in ("workloads", "end_to_end", "per_layer"):
        for entry in spec[section]:
            checks.expect(NAME_RE.fullmatch(entry["name"]),
                          "BENCHMARK.json name %r" % entry["name"])
    for name in emitted:
        checks.expect(NAME_RE.fullmatch(name), "emitted name %r" % name)
    checks.expect([m["name"] for m in spec["end_to_end"]] == END_TO_END,
                  "BENCHMARK.json end_to_end differs from the defined metrics")
    checks.expect([m["name"] for m in spec["per_layer"]] == LAYER_METRICS,
                  "BENCHMARK.json per_layer differs from the defined metrics")
    checks.expect([w["name"] for w in spec["workloads"]] == WORKLOADS,
                  "BENCHMARK.json workloads differ from the defined workloads")


def smoke_records(checks, spec):
    binary = run.build()
    records = []
    for workload in WORKLOADS + run.EXTRA_WORKLOADS:
        for trace in (0, 1):
            args = SimpleNamespace(workload=workload, seed=7, seconds=0.2, trace=trace)
            record = run.measure(args, spec, binary, extra=["--smoke"])
            records.append(record)
            where = "%s trace=%d" % (workload, trace)
            checks.expect(record["failed"] == 0,
                          "%s: smoke run failed: %s" % (where, record["problems"]))
            expected = LAYER_METRICS if trace else END_TO_END
            emitted = record["raw"]["traced"]["metrics"] if trace else record["metrics"]
            for name in expected:
                checks.expect(name in emitted, "%s: %s not emitted" % (where, name))
            if not trace:
                check_probed(checks, where, record)
            for name in record["not_applicable"]:
                checks.expect(name in LAYER_METRICS,
                              "%s: unknown not-applicable metric %s" % (where, name))
    return records


def check_probed(checks, where, record):
    raw = record["raw"]
    points = len(raw["config"]["limiters"])
    for i, rep in enumerate(raw["reps"]):
        checks.expect(len(rep["probes"]) == points
                      and all(mix > 0 and walk > 0 for mix, walk in rep["probes"]),
                      "%s: rep %d has %d probe samples for %d points" % (
                          where, i, len(rep["probes"]), points))
        checks.expect(rep["ref_wall_s"] > 0 and rep["ref_cpu_s"] > 0 and rep["ref_setup_s"] > 0,
                      "%s: rep %d has no reference-second times" % (where, i))
    checks.expect(len(raw["ref_setup_s"]) == len(raw["setup_s"]),
                  "%s: set-up rounds without reference-second times" % where)
    checks.expect(record["host_speed"] > 0 and set(record["measured_host_s"]) == set(run.HOST_TIME),
                  "%s: measured host-time figures missing" % where)


def check_corrupt_digest(checks, raw, traced_raw):
    """`raw` is an untraced result with at least three repetitions,
    `traced_raw` a traced one, both of a workload without a one-shard
    reference and for a seed without a committed reference."""
    reference = {}
    for clean in (raw, traced_raw):
        _, failed, _ = run.evaluate(clean, reference)
        checks.expect(failed == 0, "clean smoke result already fails")
    bad = copy.deepcopy(raw)
    bad["reps"][0]["state_digest"] = "0" * 16
    attempted, failed, problems = run.evaluate(bad, reference)
    checks.expect(failed == 1 and attempted == len(raw["reps"])
                  and problems[0].startswith("rep 0:"),
                  "corrupted rep digest counted %d failed of %d" % (failed, attempted))
    bad = copy.deepcopy(raw)
    bad["reps"][-1]["result_digest"] = "f" * 16
    _, failed, _ = run.evaluate(bad, reference)
    checks.expect(failed == 1, "corrupted result digest not counted as failed")
    bad = copy.deepcopy(traced_raw)
    bad["traced"]["state_digest"] = "1" * 16
    _, failed, problems = run.evaluate(bad, reference)
    checks.expect(failed == 1 and problems[0].startswith("traced run:"),
                  "corrupted traced digest not counted as failed")
    bad = copy.deepcopy(raw)
    bad["reps"][1]["error"] = "conservation: injected fault"
    _, failed, _ = run.evaluate(bad, reference)
    checks.expect(failed == 1, "invariant violation not counted as failed")
    bad = copy.deepcopy(raw)
    reference = {raw["workload"]: {"state_digest": "2" * 16, "result_digest": "3" * 16}}
    bad["seed"] = run.DEFAULT_SEED
    _, failed, _ = run.evaluate(bad, reference)
    checks.expect(failed == len(raw["reps"]),
                  "digests differing from the committed reference not all failed")


def check_cross_host(checks, record):
    with tempfile.TemporaryDirectory(dir=os.path.dirname(run.RECORD_DIR)) as tmp:
        base = os.path.join(tmp, "base.json")
        other = os.path.join(tmp, "other.json")
        with open(base, "w") as f:
            json.dump(record, f)
        moved = copy.deepcopy(record)
        moved["fingerprint"]["host"]["nproc"] += 1
        with open(other, "w") as f:
            json.dump(moved, f)
        rows, flags = compare.compare([base], [other], run.load_spec())
        checks.expect(not rows and any("host" in f for f in flags),
                      "cross-host records were compared")
        rows, flags = compare.compare([base], [base], run.load_spec())
        checks.expect(rows and not flags, "same-host records were not compared")


def main():
    checks = Checks()
    spec = run.load_spec()
    try:
        records = smoke_records(checks, spec)
    except run.BenchError as e:
        print("self-test: error: %s" % e, file=sys.stderr)
        return 2
    emitted = set()
    for record in records:
        emitted.update(record["metrics"])
    check_names(checks, spec, emitted)
    untraced = records[0]  # sat512, trace 0
    check_corrupt_digest(checks, untraced["raw"], records[1]["raw"])
    check_cross_host(checks, untraced)
    for failure in checks.failures:
        print("self-test: FAIL %s" % failure)
    print("self-test: %d checks passed, %d failed" % (checks.passed, len(checks.failures)))
    return 1 if checks.failures else 0
