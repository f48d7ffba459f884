#!/usr/bin/env python3
"""Repository benchmark of the wormsim simulator.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test
    python3 perfbench/run.py --record-reference

Run from the repository root. Builds perfbench/ (which compiles ../src)
into .bench_build/perfbench, runs the `wormbench` binary, checks every
run's simulated output (invariants and result digests), writes a
fingerprinted record under .bench_build/records/ and prints, as the last
line of stdout, one JSON object with `correct`, `attempted`, `failed`
and `metrics`: the end-to-end metrics of BENCHMARK.json with --trace 0,
its per-layer metrics with --trace 1. See perfbench/README.md.
"""

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from collections import Counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
RECORD_DIR = os.path.join(ROOT, ".bench_build", "records")
SPEC_PATH = os.path.join(ROOT, "BENCHMARK.json")
REFERENCE_PATH = os.path.join(HERE, "reference.json")
WORMBENCH_TIMEOUT_S = 170
# The seed the committed reference digests were recorded with.
DEFAULT_SEED = 1
# Workloads wormbench runs by name that BENCHMARK.json does not list
# (see README.md: their wall-clock spread on a shared host is too wide
# for the benchmark's bounds).
EXTRA_WORKLOADS = ["sat4096_sharded"]


def workload_names(spec):
    return [w["name"] for w in spec["workloads"]] + EXTRA_WORKLOADS

# Metrics that are simulated time or simulated state; they repeat exactly
# for a seed, and a change that only speeds up the simulator must leave
# them identical. Everything else is host time or host memory.
SIMULATED = {
    "accepted_flits_node_cycle", "latency_p99_cycles",
    "sim.scan_visited_per_cycle", "sim.scan_skip_ratio",
    "sim.active_links_avg", "sim.shards_effective",
    "sim.commit_decisions_per_cycle", "sim.commit_conflict_rate",
    "routing.route_evals_per_cycle", "routing.memo_hit_rate",
    "core.alo_allow_ratio", "deadlock.detections_per_kcycle",
    "deadlock.recovery_pending_avg", "traffic.source_queue_avg",
    "traffic.in_flight_avg", "config.lut_tabulated",
    "config.estimated_mib", "sim.step_samples",
}


# Host-time metrics reported in reference seconds (see end_to_end).
HOST_TIME = ["sim_cycles_per_s", "sim_cycles_per_cpu_s", "cpu_ns_per_flit", "setup_s"]


class BenchError(Exception):
    """The benchmark could not produce a result (no JSON is printed)."""


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def load_spec():
    with open(SPEC_PATH) as f:
        return json.load(f)


def load_reference():
    with open(REFERENCE_PATH) as f:
        return json.load(f)


def build():
    """Configure and build wormbench; returns the binary's path."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    for cmd in (["cmake", "-S", HERE, "-B", BUILD_DIR,
                 "-DCMAKE_BUILD_TYPE=Release"],
                ["cmake", "--build", BUILD_DIR, "-j", jobs]):
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            raise BenchError("build failed: " + " ".join(cmd))
    return os.path.join(BUILD_DIR, "wormbench")


def run_wormbench(binary, args):
    proc = subprocess.run([binary] + args, stdout=subprocess.PIPE,
                          stderr=sys.stderr, timeout=WORMBENCH_TIMEOUT_S,
                          text=True)
    if proc.returncode != 0:
        raise BenchError("wormbench exited with %d" % proc.returncode)
    return json.loads(proc.stdout)


def evaluate(raw, reference):
    """Correctness of one wormbench result.

    Every run (each timed repetition, the sharded workload's one-shard
    reference, the traced run) must hold the simulator invariants and end
    in the expected digests. The expected digests are the committed ones
    for DEFAULT_SEED, else the one-shard reference when there is one, else
    the digests most repetitions agree on. Returns (attempted, failed,
    problems)."""
    reps = raw["reps"]
    expected = None
    if raw["seed"] == DEFAULT_SEED and raw["workload"] in reference:
        expected = reference[raw["workload"]]
    elif raw.get("reference"):
        expected = raw["reference"]
    else:
        (state, result), _ = Counter(
            (r["state_digest"], r["result_digest"]) for r in reps).most_common(1)[0]
        expected = {"state_digest": state, "result_digest": result}

    runs = [("rep %d" % i, r, True) for i, r in enumerate(reps)]
    if raw.get("reference"):
        runs.append(("one-shard reference", raw["reference"], True))
    if raw.get("traced"):
        runs.append(("traced run", raw["traced"], False))
    problems = []
    for label, run, has_result in runs:
        if run["error"]:
            problems.append("%s: %s" % (label, run["error"]))
        elif run["state_digest"] != expected["state_digest"]:
            problems.append("%s: state digest %s != %s" % (
                label, run["state_digest"], expected["state_digest"]))
        elif has_result and run["result_digest"] != expected["result_digest"]:
            problems.append("%s: result digest %s != %s" % (
                label, run["result_digest"], expected["result_digest"]))
    return len(runs), len(problems), problems


def end_to_end(raw, prefix="ref_"):
    """The end-to-end metrics. Host times are in reference seconds (the
    `ref_` fields: measured seconds scaled by the host-speed probe, see
    README.md); prefix="" gives the same figures in this host's seconds."""
    reps = raw["reps"]

    def med(f):
        return statistics.median(f(r) for r in reps)

    wall, cpu = prefix + "wall_s", prefix + "cpu_s"
    alo = reps[0]
    return {
        "sim_cycles_per_s": med(lambda r: r["cycles"] / r[wall]),
        "sim_cycles_per_cpu_s": med(lambda r: r["cycles"] / r[cpu]),
        "cpu_ns_per_flit": med(lambda r: r[cpu] * 1e9 / max(1, r["delivered_flits"])),
        "setup_s": statistics.median(raw[prefix + "setup_s"]),
        "peak_rss_mib": raw["peak_rss_mib"],
        "accepted_flits_node_cycle": alo["accepted_flits_node_cycle"],
        "latency_p99_cycles": alo["latency_p99_cycles"],
    }


def host_speed(raw):
    """How fast this host ran relative to the reference host: the ratio
    of measured to reference-second rates, median over repetitions."""
    return statistics.median(r["ref_wall_s"] / r["wall_s"] for r in raw["reps"])


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def commit():
    if os.path.isdir(os.path.join(ROOT, ".git")):
        proc = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                              text=True)
        if proc.returncode == 0:
            return proc.stdout.strip()
    return os.environ.get("WORMSIM_COMMIT", "unknown")


def source_sha256():
    """Digest of the measured sources: identifies the code where no git
    metadata is available."""
    h = hashlib.sha256()
    for top in (os.path.join(ROOT, "src"), HERE):
        for dirpath, dirnames, filenames in sorted(os.walk(top)):
            dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()


def fingerprint(raw):
    host = dict(raw["host"])
    host["cpu_model"] = cpu_model()
    host["machine"] = platform.machine()
    return {"host": host, "commit": commit(), "source_sha256": source_sha256()}


def write_record(record):
    os.makedirs(RECORD_DIR, exist_ok=True)
    name = "%s-seed%d-trace%d-%d.json" % (
        record["workload"], record["seed"], record["trace"], time.time_ns())
    path = os.path.join(RECORD_DIR, name)
    with open(path, "w") as f:
        json.dump(record, f, indent=1, sort_keys=True)
    return path


def measure(args, spec, binary=None, extra=()):
    """Run one workload; returns the record (metrics already checked
    against the BENCHMARK.json metric lists)."""
    names = workload_names(spec)
    if args.workload not in names:
        raise BenchError("unknown workload %r (have %s)" % (args.workload, ", ".join(names)))
    binary = binary or build()
    raw = run_wormbench(binary, ["--workload", args.workload, "--seed", str(args.seed),
                              "--seconds", repr(args.seconds),
                              "--trace", str(args.trace)] + list(extra))
    attempted, failed, problems = evaluate(raw, load_reference())
    measured = {}
    if args.trace:
        values = raw["traced"]["metrics"]
        listed = spec["per_layer"]
    else:
        values = end_to_end(raw)
        listed = spec["end_to_end"]
        measured = end_to_end(raw, prefix="")
    missing = [m["name"] for m in listed if m["name"] not in values]
    if missing:
        raise BenchError("wormbench did not report: " + ", ".join(missing))
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in listed}
    return {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "fingerprint": fingerprint(raw),
        "config": raw["config"], "attempted": attempted, "failed": failed,
        "runs_failed_pct": 100.0 * failed / attempted, "problems": problems,
        "metrics": metrics,
        "measured_host_s": {name: measured[name] for name in HOST_TIME if name in measured},
        "host_speed": host_speed(raw) if not args.trace else None,
        "kind": {name: "simulated" if name in SIMULATED else "host" for name in metrics},
        "not_applicable": raw["traced"]["not_applicable"] if args.trace else [],
        "phase_share": raw["traced"]["phase_share"] if args.trace else {},
        "raw": raw,
    }


def record_reference(spec):
    """Re-record reference.json: the digests of every workload at
    DEFAULT_SEED. Only for changes that deliberately alter simulated
    results; a speed-up must leave the reference as it is."""
    binary = build()
    reference = {}
    for workload in workload_names(spec):
        args = argparse.Namespace(workload=workload, seed=DEFAULT_SEED, seconds=0.1, trace=0)
        raw = measure(args, spec, binary)["raw"]
        runs = raw["reps"] + ([raw["reference"]] if raw["reference"] else [])
        digests = {(r["state_digest"], r["result_digest"]) for r in runs}
        if len(digests) != 1 or any(r["error"] for r in runs):
            raise BenchError("%s: runs disagree or fail; not recorded" % workload)
        (state, result), = digests
        reference[workload] = {"state_digest": state, "result_digest": result}
    with open(REFERENCE_PATH, "w") as f:
        json.dump(reference, f, indent=2, sort_keys=True)
        f.write("\n")


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true",
                        help="run the benchmark's own checks and exit")
    parser.add_argument("--record-reference", action="store_true",
                        help="re-record the seed-%d digests in reference.json" % DEFAULT_SEED)
    args = parser.parse_args(argv)
    try:
        if args.self_test:
            sys.path.insert(0, HERE)
            import selftest
            return selftest.main()
        if args.record_reference:
            record_reference(load_spec())
            return 0
        if not args.workload:
            parser.error("--workload is required")
        record = measure(args, load_spec())
    except (BenchError, OSError, ValueError, KeyError,
            subprocess.TimeoutExpired) as e:
        log("perfbench: error: %s" % e)
        return 2
    path = write_record(record)
    for problem in record["problems"]:
        log("perfbench: FAILED %s" % problem)
    fp = record["fingerprint"]
    print("# %s seed=%d trace=%d host: %s, %d cpus, %s, %s; commit %s; record %s" % (
        record["workload"], record["seed"], record["trace"],
        fp["host"]["cpu_model"], fp["host"]["nproc"], fp["host"]["compiler"],
        fp["host"]["build_type"], fp["commit"][:12], os.path.relpath(path, ROOT)))
    print("runs_failed_pct %.4g %% (%d of %d runs)" % (
        record["runs_failed_pct"], record["failed"], record["attempted"]))
    for name, m in record["metrics"].items():
        na = " (not applicable)" if name in record["not_applicable"] else ""
        print("%s %.6g %s [%s]%s" % (name, m["value"], m["unit"], record["kind"][name], na))
    if record["host_speed"] is not None:
        print("host_speed %.4g (this host's speed relative to the reference host; "
              "host times above are in reference seconds)" % record["host_speed"])
        for name, value in record["measured_host_s"].items():
            print("measured %s %.6g %s [host, this host's seconds]" % (
                name, value, record["metrics"][name]["unit"]))
    for phase, share in record["phase_share"].items():
        print("phase_share %s %.1f %%" % (phase, 100.0 * share))
    print(json.dumps({"correct": record["failed"] == 0,
                      "attempted": record["attempted"],
                      "failed": record["failed"],
                      "metrics": record["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
