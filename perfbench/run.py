#!/usr/bin/env python3
"""The repository benchmark: one-CPU serving workloads with a traced
per-layer ladder (see perfbench/README.md).

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. The first run builds the daemon, the
router and the harness from source into .bench_build/ (Release).
Every process a run uses is placed on one CPU. The last line of
standard output is the result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end metrics of
BENCHMARK.json, with --trace 1 its per-layer metrics. The lines above
it are a readable report; the line starting with RECORD is the full
record (host identity, every metric, the ladder) that compare.py
reads. The traced run also runs one QUAC-TRNG + NIST study iteration
in process, for the study path's ladder. --quick shortens every phase
for the self-test; --corrupt damages the outputs before they are
checked, which must fail the run.
"""

import argparse
import hashlib
import json
import os
import re
import select
import shutil
import signal
import socket
import statistics
import struct
import subprocess
import sys
import tempfile
import time
import urllib.request
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD_DIR = ROOT / ".bench_build" / "perfbench"
BUILD_TYPE = "Release"
WORKLOADS = ("entropy-routed", "puf-fleet")

# Units of the end-to-end metrics the report prints; the JSON line
# carries only the ones BENCHMARK.json lists.
END_TO_END = {
    "setup_s": "s",
    "throughput_rps": "req/s",
    "latency_p50_us": "us",
    "latency_p99_us": "us",
    "peak_rss_mib": "MiB",
}


class BenchError(Exception):
    """A run that cannot produce a result (no result line is printed)."""


# --- build ---------------------------------------------------------------

def build():
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        raise BenchError("the program's sources (CMakeLists.txt, src/) "
                         "are not beside perfbench/; run from a checkout")
    if shutil.which("cmake") is None:
        raise BenchError("cmake not found")
    BUILD_DIR.mkdir(parents=True, exist_ok=True)
    logfile = BUILD_DIR.parent / "perfbench-build.log"
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    with open(logfile, "a") as out:
        if not (BUILD_DIR / "CMakeCache.txt").exists():
            gen = ["-G", "Ninja"] if shutil.which("ninja") else []
            cmd = ["cmake", "-S", str(HERE), "-B", str(BUILD_DIR), *gen,
                   f"-DCMAKE_BUILD_TYPE={BUILD_TYPE}"]
            if subprocess.call(cmd, stdout=out, stderr=out) != 0:
                raise BenchError(f"cmake configure failed; see {logfile}")
        cmd = ["cmake", "--build", str(BUILD_DIR), "-j", jobs]
        if subprocess.call(cmd, stdout=out, stderr=out) != 0:
            raise BenchError(f"build failed; see {logfile}")
    tools = BUILD_DIR / "fracdram" / "tools"
    return {
        "serve": tools / "fracdram_serve",
        "router": tools / "fracdram_router",
        "harness": BUILD_DIR / "perfbench_harness",
    }


# --- processes ------------------------------------------------------------

class Procs:
    """Every process a run starts; stop() ends and reaps them all."""

    def __init__(self, tmp):
        self.tmp = tmp
        self.live = []

    def spawn(self, name, args):
        err = open(self.tmp / f"{name}.log", "ab")
        p = subprocess.Popen([str(a) for a in args], stdout=subprocess.PIPE,
                             stderr=err, stdin=subprocess.DEVNULL)
        err.close()
        self.live.append(p)
        return p

    def stop(self, p):
        if p.poll() is None:
            p.send_signal(signal.SIGTERM)
            try:
                p.wait(timeout=10)
            except subprocess.TimeoutExpired:
                p.kill()
                p.wait()
        if p in self.live:
            self.live.remove(p)

    def stop_all(self):
        for p in list(reversed(self.live)):
            self.stop(p)


def read_ports(proc, count, timeout=30.0):
    """The first @count ports a server announces on its stdout, in
    order (data port, then metrics port). Blocks on the pipe instead of
    polling, so waiting takes no CPU from the server starting up."""
    ports, buf = [], b""
    fd = proc.stdout.fileno()
    deadline = time.monotonic() + timeout
    while len(ports) < count:
        if b"\n" not in buf:
            left = max(0.0, deadline - time.monotonic())
            if not select.select([fd], [], [], left)[0]:
                raise BenchError(f"{proc.args[0]}: no port announced")
            chunk = os.read(fd, 4096)
            if not chunk:
                raise BenchError(f"{proc.args[0]} exited with {proc.wait()}")
            buf += chunk
            continue
        line, buf = buf.split(b"\n", 1)
        found = re.search(rb"127\.0\.0\.1:(\d+)", line)
        if found:
            ports.append(int(found.group(1)))
    return ports


def probe_entropy(port, timeout=30.0):
    """One 32 B GET_ENTROPY frame; returns once it is answered OK."""
    payload = struct.pack("<BBHI", 0x01, 0, 1, 32)
    with socket.create_connection(("127.0.0.1", port), timeout=timeout) as s:
        s.sendall(struct.pack("<I", len(payload)) + payload)
        buf = b""
        while len(buf) < 4 or len(buf) < 4 + struct.unpack("<I", buf[:4])[0]:
            chunk = s.recv(4096)
            if not chunk:
                raise BenchError("probe: connection closed")
            buf += chunk
    rtype, _flags, seq, status = struct.unpack("<BBHB", buf[4:9])
    if rtype != 0x81 or seq != 1 or status != 0:
        raise BenchError(f"probe: bad response type={rtype} status={status}")


def http_get(port, path):
    with urllib.request.urlopen(f"http://127.0.0.1:{port}{path}",
                                timeout=10) as r:
        return r.read().decode()


def daemon_metrics(port, trace=0):
    q = f"/varz?trace={trace}" if trace else "/varz"
    return json.loads(http_get(port, q))


def prom_counter(text, name):
    total = 0.0
    for line in text.splitlines():
        if line.startswith(name) and (line[len(name):][:1] in (" ", "{")):
            total += float(line.rsplit(" ", 1)[1])
    return total


def vm_hwm_mib(pid):
    with open(f"/proc/{pid}/status") as f:
        for line in f:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    return 0.0


def placement_violations(pids, cpu):
    """Threads of @pids allowed on, or last run on, another CPU."""
    bad = []
    for pid in pids:
        try:
            tids = os.listdir(f"/proc/{pid}/task")
        except FileNotFoundError:
            continue
        for tid in tids:
            base = f"/proc/{pid}/task/{tid}"
            try:
                with open(f"{base}/status") as f:
                    allowed = next(l.split(":", 1)[1].strip() for l in f
                                   if l.startswith("Cpus_allowed_list:"))
                with open(f"{base}/stat") as f:
                    stat = f.read()
            except (FileNotFoundError, StopIteration, ProcessLookupError):
                continue
            # Field 39 (processor) counts from 1, and fields 3.. follow
            # the closing parenthesis of the command name.
            last_cpu = int(stat.rsplit(")", 1)[1].split()[36])
            if allowed != str(cpu) or last_cpu != cpu:
                bad.append({"pid": pid, "tid": int(tid),
                            "allowed": allowed, "last_cpu": last_cpu})
    return bad


# --- harness calls --------------------------------------------------------

def harness_json(bins, args, watch=None, cpu=None, guard=None):
    """Run the harness; while it runs, check its placement once."""
    p = subprocess.Popen([str(bins["harness"]), *map(str, args)],
                         stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                         stdin=subprocess.DEVNULL, text=True)
    if watch is not None:
        time.sleep(watch)
        if p.poll() is None and guard is not None:
            guard.extend(placement_violations([p.pid], cpu))
    try:
        out, err = p.communicate(timeout=170)
    except subprocess.TimeoutExpired:
        p.kill()
        p.communicate()
        raise BenchError(f"harness {args[0]} timed out")
    lines = out.strip().splitlines()
    if not lines:
        raise BenchError(f"harness {args[0]} printed nothing "
                         f"(exit {p.returncode}): {err.strip()[-400:]}")
    return json.loads(lines[-1]), p.returncode


def serving_setup(bins, procs, routed, n):
    """Spawn the daemon (and router); time spawn -> answered."""
    t0 = time.perf_counter()
    daemon = procs.spawn(f"daemon{n}", [
        bins["serve"], "--port", 0, "--metrics-port", 0,
        "--shards", 1, "--reactors", 1, "--no-pin", "--quiet"])
    dport, dmport = read_ports(daemon, 2)
    s = {"daemon": daemon, "dport": dport, "dmport": dmport,
         "router": None, "port": dport}
    if routed:
        router = procs.spawn(f"router{n}", [
            bins["router"], "--port", 0,
            "--backend", f"127.0.0.1:{dport}:{dmport}",
            "--metrics-port", 0, "--quiet"])
        s["router"] = router
        s["port"], s["rmport"] = read_ports(router, 2)
    probe_entropy(s["port"])
    s["setup_s"] = time.perf_counter() - t0
    return s


def pids_of(s):
    return [p.pid for p in (s["daemon"], s["router"]) if p is not None]


def load_args(s, mix, seed, seconds, warmup, trace, port=None, corrupt=False):
    """Arguments of one load run (a PUF run enrolls every key first)."""
    conns, window = (4, 16) if mix == "entropy" else (1, 16)
    args = ["load", "--port", port or s["port"], "--mix", mix,
            "--conns", conns, "--window", window, "--seed", seed,
            "--warmup", warmup, "--seconds", seconds, "--trace", int(trace),
            "--pids", ",".join(map(str, pids_of(s)))]
    if corrupt:
        args.append("--corrupt")
    return args


def check_load(res, code, mix, checks):
    """Fold one load run's output checks into @checks."""
    checks["attempted"] += res["attempted"]
    checks["failed"] += res["failed"]
    if code != 0 or not res["connected"]:
        checks["errors"].append(f"load exited {code}")
    if res["failed"]:
        checks["errors"].append(f"failures {res['failures']}")
    # bench_trng's rule: a p-value below 0.01 is retested once on the
    # fresh sample that follows; the run fails only if that fails too.
    if (mix == "entropy" and res["monobit_bits"] and res["monobit_p"] < 0.01
            and res["monobit_retest_p"] < 0.01):
        checks["errors"].append(f"monobit p={res['monobit_p']:.3g}, "
                                f"retest p={res['monobit_retest_p']:.3g}")
        checks["failed"] += 1


# --- workloads ------------------------------------------------------------

def run_serving(bins, a, cpu, procs, checks):
    routed = a.workload == "entropy-routed"
    mix = "entropy" if routed else "puf"
    quick = a.quick
    repeats = 1 if (quick or a.trace) else (15 if routed else 5)
    setups = []
    s = None
    for n in range(repeats):
        s = serving_setup(bins, procs, routed, n)
        setups.append(s["setup_s"])
        if n + 1 < repeats:
            if not routed:
                # Set-up also enrolls every key through the workload
                # path; the harness times its own enrollment phase.
                res, code = harness_json(bins, load_args(
                    s, mix, a.seed, 0, 0, False))
                check_load(res, code, mix, checks)
                setups[-1] += res["enroll_s"]
            procs.stop(s["daemon"])
            if s["router"]:
                procs.stop(s["router"])
    guard = []
    out = {}
    warm = 0.3 if quick else 1.0
    if not a.trace:
        res, code = harness_json(bins, load_args(
            s, mix, a.seed, a.seconds, warm, False, corrupt=a.corrupt),
            watch=min(1.0, a.seconds / 2), cpu=cpu, guard=guard)
        check_load(res, code, mix, checks)
        setups[-1] += res["enroll_s"]
        out.update(
            throughput_rps=res["throughput_rps"],
            latency_p50_us=res["latency_p50_us"],
            latency_p99_us=res["latency_p99_us"],
            latency_samples=res["latency_samples"],
            latency_slices=res["latency_slices"],
            latency_beyond_p99=res["latency_beyond_p99_per_slice"],
            enroll_p50_us=res["enroll_p50_us"],
            verify_p50_us=res["verify_p50_us"])
    else:
        phase = 0.5 if quick else max(2.0, a.seconds / 4)
        untraced, code = harness_json(bins, load_args(
            s, mix, a.seed, phase, warm, False, corrupt=a.corrupt))
        check_load(untraced, code, mix, checks)
        before = daemon_metrics(s["dmport"])["metrics"]
        rbefore = http_get(s["rmport"], "/metrics") if routed else ""
        traced, code = harness_json(bins, load_args(
            s, mix, a.seed + 1, phase, warm / 2, True, corrupt=a.corrupt),
            watch=min(1.0, phase / 2), cpu=cpu, guard=guard)
        check_load(traced, code, mix, checks)
        varz = daemon_metrics(s["dmport"], trace=1024)
        rafter = http_get(s["rmport"], "/metrics") if routed else ""
        direct = None
        if routed:
            direct, code = harness_json(bins, load_args(
                s, mix, a.seed + 2, phase, warm / 2, True,
                port=s["dport"], corrupt=a.corrupt))
            check_load(direct, code, mix, checks)
        out["trace"] = {"untraced": untraced, "traced": traced,
                        "direct": direct, "before": before,
                        "after": varz["metrics"],
                        "timelines": varz.get("requests", []),
                        "router_forwarded": prom_counter(
                            rafter, "fracdram_router_forwarded_total")
                        - prom_counter(rbefore, "fracdram_router_forwarded_total")}
    guard.extend(placement_violations(pids_of(s), cpu))
    out["setup_s"] = statistics.median(setups)
    out["peak_rss_mib"] = sum(vm_hwm_mib(pid) for pid in pids_of(s))
    out["placement_violations"] = guard
    out["pids"] = [s["daemon"].pid, s["router"].pid if routed else None]
    procs.stop_all()
    return out


def run_study(bins, a, cpu, checks):
    """One QUAC-TRNG + NIST study iteration, untraced, then one with the
    program's telemetry on (its counters break the study down)."""
    guard = []
    args = ["study", "--seed", a.seed]
    if a.corrupt:
        args.append("--corrupt")
    res, code = harness_json(bins, args, watch=0.5, cpu=cpu, guard=guard)
    checks["attempted"] += res["attempted"]
    checks["failed"] += res["failed"] + len(guard)
    if code != 0 or res["failed"]:
        checks["errors"].append(f"study: {res['failures'].strip()}")
    if guard:
        checks["errors"].append(f"placement: {guard[:4]}")
    return res


# --- the ladder -----------------------------------------------------------

def hist_delta(before, after, name):
    h0 = before["histograms"].get(name, {"count": 0, "sum": 0})
    h1 = after["histograms"].get(name, {"count": 0, "sum": 0})
    return h1["count"] - h0["count"], h1["sum"] - h0["sum"]


def ctr_delta(before, after, name):
    return after["counters"].get(name, 0) - before["counters"].get(name, 0)


def div(a, b):
    """a / b, or 0 when a failed run left nothing to divide by."""
    return a / b if b else 0.0


def ladder_serving(workload, out, layers):
    """Per-layer metrics and the cost ladder of a traced serving run."""
    t = out["trace"]
    tr, un = t["traced"], t["untraced"]
    routed = workload == "entropy-routed"
    n_win = max(1, tr["latency_samples"])
    sent = max(1, tr["attempted"])
    cpu = tr["cpu"]
    daemon_pid, router_pid = out["pids"]
    per = lambda ns: ns / n_win * 1e-3  # noqa: E731
    m = {}
    m["client.cpu_us_per_req"] = per(cpu["self_ns"])
    m["daemon.cpu_us_per_req"] = per(cpu[str(daemon_pid)])
    m["router.cpu_us_per_req"] = per(cpu[str(router_pid)]) if routed else None
    proc_us = sum(v for k, v in m.items() if v is not None)
    e2e_us = div(1e6, tr["throughput_rps"])
    m["proc.cpu_us_per_req"] = proc_us
    m["ladder.residual_pct"] = div(e2e_us - proc_us, e2e_us) * 100
    m["trace.overhead_pct"] = div(un["throughput_rps"] - tr["throughput_rps"],
                                  un["throughput_rps"]) * 100
    b, a = t["before"], t["after"]
    tl = t["timelines"]
    m["service.request_p50_us"] = (statistics.median(
        r["total_ns"] for r in tl) * 1e-3) if tl else None
    m["service.queue_wait_p50_us"] = (statistics.median(
        r["queue_wait_ns"] for r in tl) * 1e-3) if tl else None
    cnt, tot = hist_delta(b, a, "service.write_batch_frames")
    m["service.write_batch_frames_mean"] = div(tot, cnt)
    reseeds = ctr_delta(b, a, "service.reseeds")
    rcnt, rsum = hist_delta(b, a, "service.reseed_ns")
    m["service.reseeds"] = reseeds
    m["service.reseed_mean_ms"] = div(rsum, rcnt) * 1e-6
    m["service.pool_hit_ratio"] = ctr_delta(b, a, "service.pool_hits") / sent
    m["service.device_faults_per_req"] = (
        ctr_delta(b, a, "service.device_faults") / sent)
    m["service.device_evictions_per_req"] = (
        ctr_delta(b, a, "service.device_evictions") / sent)
    if routed:
        m["router.hop_us"] = (tr["latency_p50_us"]
                              - t["direct"]["latency_p50_us"])
        m["router.forward_ratio"] = t["router_forwarded"] / sent
    else:
        m["client.enroll_p50_us"] = tr["enroll_p50_us"]
        m["client.verify_p50_us"] = tr["verify_p50_us"]

    # The ladder, per request: the window's wall time on the one CPU,
    # split into the processes' CPU, then the daemon's CPU into the
    # layers it calls. Each self time is its span minus its children.
    daemon_us = m["daemon.cpu_us_per_req"]
    _, refill_ns = hist_delta(b, a, "service.pool_refill_ns")
    children = {}
    if routed:
        children["service.proto (decode+encode)"] = (
            layers["service.proto.decode_ns"]
            + layers["service.proto.encode_ns"]) * 1e-3
        children["DRBG refill incl. reseed (daemon timers)"] = (
            refill_ns / sent * 1e-3)
    else:
        f = m["service.device_faults_per_req"]
        children["puf evaluate (resident/fresh mix)"] = (
            f * (layers["service.refault_us"]
                 + layers["puf.evaluate_fresh_us"])
            + (1 - f) * layers["puf.evaluate_resident_us"])
        children["service.proto (decode+encode)"] = (
            layers["service.proto.decode_ns"]
            + layers["service.proto.encode_ns"]) * 1e-3
    rows = [("end-to-end wall per request (1/throughput)", e2e_us, 0)]
    rows.append(("client.cpu_us_per_req", m["client.cpu_us_per_req"], 1))
    if routed:
        rows.append(("router.cpu_us_per_req", m["router.cpu_us_per_req"], 1))
    rows.append(("daemon.cpu_us_per_req", daemon_us, 1))
    for name, v in children.items():
        rows.append((name, v, 2))
    rows.append(("daemon self (reactor, shard handoff, rest)",
                 daemon_us - sum(children.values()), 2))
    rows.append(("residual (not explained by the processes' CPU)",
                 e2e_us - proc_us, 1))
    return m, rows


def ladder_study(res, layers):
    """The study's ladder: one study's wall time split into its layers."""
    requests = res["requests"]
    spb = res["samples_per_block"]
    sha_blocks = spb * 2048 / 512  # one raw sample is 2048 bits
    raw_us = requests * spb * layers["trng.raw_sample_us"]
    sample_parts = (4 * layers["softmc.write_row_us"]
                    + layers["core.multi_row_activate_us"])
    sha_us = requests * sha_blocks * layers["common.sha256.ns_per_block"] * 1e-3
    nist_us = 2 * layers["puf.nist_subset_ms"] * 1e3
    study_us = res["study_s"] * 1e6
    residual = study_us - raw_us - sha_us - nist_us
    m = {"study.study_s": res["study_s"],
         "study.residual_pct": div(residual, study_us) * 100,
         "study.sim_cycles": res["sim_cycles"]}
    for k, v in res["counters"].items():
        if k.startswith(("sim.kernel.", "softmc.cmd.", "trng.")):
            m[f"study.{k}"] = v
    rows = [
        ("study: study_s (16 Kibit on B and M + NIST)", study_us, 0),
        ("QUAC generate: raw samples x trng.raw_sample_us", raw_us, 1),
        ("4 x softmc.write_row_us + core.multi_row_activate_us",
         requests * spb * sample_parts, 2),
        ("raw sample self (rest of rawSample)",
         raw_us - requests * spb * sample_parts, 2),
        ("SHA-256 conditioning: blocks x common.sha256.ns_per_block",
         sha_us, 1),
        ("NIST subset: 2 x puf.nist_subset_ms", nist_us, 1),
        ("residual (not explained by the layers)", residual, 1),
    ]
    return m, rows


# --- report ---------------------------------------------------------------

# What each per-layer metric should move (perfbench/README.md).
MOVES = {
    "client.cpu_us_per_req": "throughput_rps (serving)",
    "router.cpu_us_per_req": "throughput_rps on entropy-routed",
    "daemon.cpu_us_per_req": "throughput_rps on both serving workloads",
    "proc.cpu_us_per_req": "throughput_rps",
    "router.hop_us": "latency_p50_us on entropy-routed",
    "router.forward_ratio": "error_ratio",
    "service.proto.encode_ns": "throughput_rps on entropy-routed",
    "service.proto.decode_ns": "throughput_rps on entropy-routed",
    "service.shard.entropy_ns_per_req": "throughput_rps on entropy-routed",
    "service.shard.puf_ns_per_req": "throughput_rps on puf-fleet",
    "service.request_p50_us": "latency_p50_us",
    "service.queue_wait_p50_us": "latency_p50_us",
    "service.write_batch_frames_mean": "throughput_rps on entropy-routed",
    "service.pool_hit_ratio": "throughput_rps on entropy-routed",
    "service.reseeds": "latency_p99_us on entropy-routed",
    "service.reseed_mean_ms": "latency_p99_us on entropy-routed",
    "service.device_faults_per_req": "throughput_rps on puf-fleet",
    "service.device_evictions_per_req": "throughput_rps on puf-fleet",
    "service.refault_us": "throughput_rps and setup_s on puf-fleet",
    "puf.evaluate_resident_us": "throughput_rps on puf-fleet",
    "puf.evaluate_fresh_us": "throughput_rps on puf-fleet",
    "client.enroll_p50_us": "latency_p50_us on puf-fleet (writes)",
    "client.verify_p50_us": "latency_p50_us on puf-fleet (reads)",
    "puf.nist_subset_ms": "study.study_s",
    "trng.raw_sample_us": "study.study_s",
    "trng.reseed_ms": "latency_p99_us and setup_s on entropy-routed",
    "softmc.write_row_us": "study.study_s",
    "softmc.read_row_us": "study.study_s",
    "core.multi_row_activate_us": "study.study_s",
    "sim.chip_build_us": "setup_s",
    "common.sha256.ns_per_block": "study.study_s (conditioning)",
    "common.sha256.drbg_ns_per_block": "throughput_rps on entropy-routed",
    "ladder.residual_pct": "- (report only: near 0, can change sign)",
    "trace.overhead_pct": "- (report only: near 0, can change sign)",
    "study.study_s": "- (the study path end to end, unbounded)",
    "study.residual_pct": "- (report only: near 0, can change sign)",
}


def unit_of(name, listed):
    """The unit BENCHMARK.json gives @name, else the one its suffix says."""
    if name in listed:
        return listed[name]
    for suffix, unit in (("_ns_per_req", "ns"), ("_us_per_req", "us"),
                         ("_ns", "ns"), ("_us", "us"), ("_ms", "ms"),
                         ("_s", "s"), ("_pct", "%"), ("_ratio", "ratio"),
                         ("_per_req", "1/req"), ("_mean", "frames"),
                         ("cycles", "cycles"), ("_per_sample", "cycles")):
        if name.endswith(suffix):
            return unit
    return "count"


def benchmark_spec():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def host_identity(bins):
    info = json.loads(subprocess.run([str(bins["harness"]), "info"],
                                     capture_output=True, text=True,
                                     check=True).stdout)
    model = "unknown"
    with open("/proc/cpuinfo") as f:
        for line in f:
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    commit = None
    if (ROOT / ".git").exists() and shutil.which("git"):
        r = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                           capture_output=True, text=True)
        commit = r.stdout.strip() or None
    # A checkout without git still identifies its sources by content.
    h = hashlib.sha256()
    for sub in ("src", "tools"):
        for p in sorted((ROOT / sub).rglob("*")):
            if p.is_file():
                h.update(str(p.relative_to(ROOT)).encode())
                h.update(p.read_bytes())
    return {"nproc": os.cpu_count(), "cpu_model": model,
            "isa": info["isa"], "sha_ni": info["sha_ni"],
            "isa_env": os.environ.get("FRACDRAM_ISA"),
            "build_type": BUILD_TYPE, "commit": commit,
            "source_sha256": h.hexdigest()}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--quick", action="store_true",
                    help="shorten every phase (self-test)")
    ap.add_argument("--corrupt", action="store_true",
                    help="damage outputs before checking (self-test)")
    a = ap.parse_args(argv)
    if a.quick:
        a.seconds = min(a.seconds, 1.0)

    e2e_units, layer_units = benchmark_spec()
    bins = build()
    # Every process of the run shares one CPU: the highest one this
    # process may use. Children inherit the mask; the daemon runs with
    # --no-pin so it keeps it.
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    host = host_identity(bins)
    host["cpu"] = cpu

    checks = {"attempted": 0, "failed": 0, "errors": []}
    with tempfile.TemporaryDirectory(dir=BUILD_DIR.parent,
                                     prefix="run-") as tmpdir:
        procs = Procs(Path(tmpdir))
        try:
            out = run_serving(bins, a, cpu, procs, checks)
        finally:
            procs.stop_all()
    violations = out["placement_violations"]
    if violations:
        checks["errors"].append(f"placement: {violations[:4]}")
        checks["failed"] += len(violations)

    ladder_rows = []
    per_layer = {}
    if a.trace:
        study = run_study(bins, a, cpu, checks)
        layers, code = harness_json(bins, [
            "layers", "--workload", a.workload, "--seed", a.seed,
            "--scale", 0.2 if a.quick else 1.0])
        checks["attempted"] += layers["attempted"]
        checks["failed"] += layers["failed"]
        if code != 0:
            checks["errors"].append("layers: an output check failed")
        per_layer.update({k: v for k, v in layers.items()
                          if isinstance(v, (int, float))
                          and not isinstance(v, bool)})
        per_layer.update(layers["exact"])
        m, ladder_rows = ladder_serving(a.workload, out, layers)
        per_layer.update(m)
        m, study_rows = ladder_study(study, layers)
        per_layer.update(m)
        ladder_rows += study_rows
    for k in ("attempted", "failed"):
        per_layer.pop(k, None)
    e2e = {k: out.get(k) for k in END_TO_END}
    e2e["error_ratio"] = checks["failed"] / max(1, checks["attempted"])

    # --- readable report ---
    print(f"perfbench {a.workload} seed={a.seed} seconds={a.seconds:g} "
          f"trace={a.trace} cpu={cpu}")
    print("host " + json.dumps(host))
    if not a.trace:
        for k, unit in {**END_TO_END, "error_ratio": "ratio"}.items():
            if k in e2e and e2e[k] is not None:
                print(f"  {k:<28} {e2e[k]:>16.6g} {unit}")
        print(f"  latency: {out['latency_samples']} samples in "
              f"{out['latency_slices']} slices, "
              f"{out['latency_beyond_p99']} beyond p99 per slice; "
              "median over slices")
    else:
        print(f"ladder {a.workload} (us per request; the study: us per "
              "study)")
        for name, v, depth in ladder_rows:
            print(f"  {'  ' * depth}{name:<{62 - 2 * depth}} {v:>14.3f}")
        print(f"per-layer {a.workload}: metric, value, unit, "
              "the end-to-end metric it should move")
        for k in sorted(per_layer):
            v = per_layer[k]
            if v is None:
                continue
            moves = MOVES.get(k, "(exact count)")
            if k.endswith(".ns_per_elem"):
                moves = "study.study_s, throughput_rps on puf-fleet"
            print(f"  {k:<44} {v:>16.6g} {unit_of(k, layer_units):<6} "
                  f"{moves}")
    for err in checks["errors"]:
        print(f"CHECK FAILED: {err}")
    correct = not checks["errors"] and checks["failed"] == 0

    record = {"workload": a.workload, "seed": a.seed, "seconds": a.seconds,
              "trace": a.trace, "host": host, "correct": correct,
              "end_to_end": e2e, "per_layer": per_layer,
              "ladder": ladder_rows}
    print("RECORD " + json.dumps(record))

    units = layer_units if a.trace else e2e_units
    source = per_layer if a.trace else e2e
    metrics = {}
    for name, unit in units.items():
        v = source.get(name)
        if v is None:
            raise BenchError(f"metric {name} was not measured")
        metrics[name] = {"value": v, "unit": unit}
    print(json.dumps({"correct": correct, "attempted": checks["attempted"],
                      "failed": checks["failed"], "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as e:
        print(f"perfbench: {e}", file=sys.stderr)
        sys.exit(2)
