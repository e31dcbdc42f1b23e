#!/usr/bin/env python3
"""The MoCCML benchmark: three workloads over the user-facing paths.

    python3 perfbench/run.py --workload drift_check --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --runs 10 --out results.jsonl
    python3 perfbench/run.py compare parent.jsonl change.jsonl

Run from the root of a checkout. The benchmark builds the `moccml`
binary (and, for traced runs, the per-layer harness in
`perfbench/layers`) from source into `$CARGO_TARGET_DIR` (default
`.bench_build`), generates every input from `--seed`, measures for
`--seconds`, checks every output against answers it knows
independently of the program, and prints one JSON object as the last
line of stdout. `--trace 1` reports the per-layer metrics and the
layer table instead of the end-to-end metrics. See perfbench/README.md.
"""

import argparse
import json
import os
import socket
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import answers  # noqa: E402
import gen  # noqa: E402
import stamp  # noqa: E402

ROOT = os.path.dirname(HERE)
WORKLOADS = ("drift_check", "drift_smc", "serve_mix")
# end-to-end metrics, in BENCHMARK.json order, with their units
E2E = (("throughput_per_s", "1/s"), ("latency_ms", "ms"), ("peak_rss_mb", "MB"),
       ("setup_s", "s"))
SETUP_REPEATS = 15
OP_TIMEOUT_S = 150
SERVE_CONNECTIONS = 2
SERVE_MIN_REQUESTS = 1000
SERVE_SLICE_S = 2.0
# the per-layer metrics and their units, from the layer map
with open(os.path.join(HERE, "layer_map.json"), encoding="utf-8") as _f:
    PER_LAYER_UNITS = {name: spec["unit"]
                       for layer in json.load(_f)["layers"].values()
                       for name, spec in layer["metrics"].items()}
HARNESS_MIX_LINES = 200


class BenchError(Exception):
    """The benchmark cannot run here (no sources, build failure, ...)."""


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def target_dir():
    return os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build")


def build(harness):
    """Builds the CLI (and the layer harness) from source; returns paths."""
    if not os.path.isfile(os.path.join(ROOT, "Cargo.toml")) or \
            not os.path.isdir(os.path.join(ROOT, "crates", "serve")):
        raise BenchError("no MoCCML sources at %s" % ROOT)
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir())
    commands = [["cargo", "build", "--release", "--offline", "-q",
                 "-p", "moccml-serve", "--bin", "moccml"]]
    if harness:
        commands.append(["cargo", "build", "--release", "--offline", "-q",
                         "--manifest-path", os.path.join(HERE, "layers", "Cargo.toml")])
    for cmd in commands:
        done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            raise BenchError("build failed: %s" % " ".join(cmd))
    release = os.path.join(target_dir(), "release")
    return os.path.join(release, "moccml"), os.path.join(release, "moccml-perfbench-layers")


def workdir(workload, seed):
    path = os.path.join(ROOT, ".bench_out", "%s-%d-%d" % (workload, seed, os.getpid()))
    os.makedirs(path, exist_ok=True)
    return path


def write(path, text):
    with open(path, "w", encoding="utf-8") as f:
        f.write(text)
    return path


def run_cli(argv):
    """Runs one CLI invocation: (exit code, stdout, wall s, peak RSS MB)."""
    start = time.perf_counter()
    proc = subprocess.Popen(argv, cwd=ROOT, stdout=subprocess.PIPE,
                            stderr=subprocess.DEVNULL)
    killer = threading.Timer(OP_TIMEOUT_S, proc.kill)
    killer.start()
    try:
        out = proc.stdout.read()
        proc.stdout.close()
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        killer.cancel()
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, out.decode("utf-8", "replace"), wall, usage.ru_maxrss / 1024.0


def parse_payload(stdout):
    try:
        return json.loads(stdout.strip().splitlines()[-1])
    except (ValueError, IndexError):
        return {}


def percentile(values, q):
    """The q-quantile by linear interpolation (q in [0, 1])."""
    ordered = sorted(values)
    pos = q * (len(ordered) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


class Window:
    """The operations of one measured window.

    The host is shared, and neighbours slow any stretch of a run by up
    to a third, so a window's median timing moves with them. The
    end-to-end figures are therefore the least-disturbed ones: the
    fastest invocation of a CLI workload, the best slice of serve_mix.
    Medians and tails over the whole window are printed alongside.
    """

    def __init__(self):
        self.latencies = []  # seconds, per operation
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.rss_mb = 0.0
        self.spans = []      # (name, start, end, attrs) when traced
        self.kinds = {}      # serve request kind -> count
        self.throughput = 0.0  # work units per second
        self.latency = 0.0     # seconds

    def fail(self, problems):
        self.failed += 1
        if len(self.problems) < 20:
            self.problems.extend(problems)

    def e2e(self, setup_s):
        return {
            "throughput_per_s": self.throughput,
            "latency_ms": self.latency * 1e3,
            "peak_rss_mb": self.rss_mb,
            "setup_s": setup_s,
        }


class CliWorkload:
    """A workload of back-to-back `moccml` CLI invocations; throughput
    is the work units of one invocation per second of its wall time."""

    def __init__(self, cli, seed, out):
        self.cli, self.seed, self.out = cli, seed, out
        self.op_index = 0

    def window(self, seconds, traced):
        w = Window()
        per_op = []
        start = time.perf_counter()
        while not w.attempted or time.perf_counter() - start < seconds:
            t0 = time.perf_counter()
            ok, units, wall, rss, problems = self.op()
            w.attempted += 1
            w.latencies.append(wall)
            w.rss_mb = max(w.rss_mb, rss)
            if traced:
                w.spans.append((self.name, t0, time.perf_counter(), {"op": self.op_index}))
            if ok:
                per_op.append(units / wall)
            else:
                w.fail(problems)
            self.op_index += 1
        w.throughput = max(per_op, default=0.0)
        w.latency = min(w.latencies)
        return w

    def close(self):
        pass


class DriftCheck(CliWorkload):
    name = "drift_check"

    def setup(self):
        text, names = gen.cube(self.seed)
        self.names = names
        self.spec = write(os.path.join(self.out, "cube.mcc"), text)

    def op(self):
        code, stdout, wall, rss = run_cli(
            [self.cli, "check", self.spec, "--workers", "2", "--max-states", "200000",
             "--format", "json"])
        problems = answers.check_cube(parse_payload(stdout), self.names, code)
        return not problems, 2 * answers.CUBE_STATES, wall, rss, problems

    def harness_lang(self):
        return self.spec


class DriftSmc(CliWorkload):
    name = "drift_smc"

    def setup(self):
        text = gen.read_spec("drift.mcc")
        self.spec = write(os.path.join(self.out, "drift.mcc"), text)

    def op(self):
        code, stdout, wall, rss = run_cli(
            [self.cli, "check", self.spec, "--statistical", "--workers", "1",
             "--max-trace-len", str(answers.SMC_TRACE_LEN),
             "--epsilon", str(answers.SMC_EPSILON), "--delta", str(answers.SMC_DELTA),
             "--seed", str(gen.smc_seed(self.seed, self.op_index)), "--format", "json"])
        problems = answers.check_drift_smc(parse_payload(stdout), code)
        return not problems, 3 * answers.SMC_TRACES, wall, rss, problems

    def harness_lang(self):
        return self.spec


class Daemon:
    """A spawned `moccml serve` process."""

    def __init__(self, cli):
        self.proc = subprocess.Popen(
            [cli, "serve", "--listen", "127.0.0.1:0", "--workers", "2"],
            cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL)
        banner = self.proc.stdout.readline().decode()
        if "listening on" not in banner:
            self.stop()
            raise BenchError("daemon did not start: %r" % banner)
        host, port = banner.split()[-1].rsplit(":", 1)
        self.addr = (host, int(port))

    def connect(self):
        return Connection(socket.create_connection(self.addr, timeout=OP_TIMEOUT_S))

    def peak_rss_mb(self):
        with open("/proc/%d/status" % self.proc.pid) as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        return 0.0

    def stop(self):
        """Graceful shutdown, then kill if it lingers; always reaps."""
        if self.proc.poll() is None and hasattr(self, "addr"):
            try:
                conn = self.connect()
                conn.call('{"id":"perfbench-shutdown","method":"shutdown"}\n',
                          "perfbench-shutdown")
                conn.close()
                self.proc.wait(timeout=30)
            except (OSError, subprocess.TimeoutExpired, BenchError):
                pass
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        self.proc.stdout.close()


class Connection:
    def __init__(self, sock):
        self.sock = sock
        self.reader = sock.makefile("rb")

    def call(self, line, request_id):
        """Sends one request line; returns its terminal event (a dict).

        The daemon writes each event as its own small segment without
        TCP_NODELAY, so against a client that delays its ACKs every
        request after the first stalls ~40 ms on Nagle's algorithm.
        Re-arming TCP_QUICKACK before each read keeps that timer out of
        the measurement, which is the daemon's work."""
        self.sock.sendall(line.encode())
        while True:
            self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_QUICKACK, 1)
            raw = self.reader.readline()
            if not raw:
                raise BenchError("daemon closed the connection")
            event = json.loads(raw)
            if event.get("id") == request_id and \
                    event.get("event") in ("result", "error", "cancelled"):
                return event

    def close(self):
        self.reader.close()
        self.sock.close()


class ServeMix:
    name = "serve_mix"

    def __init__(self, cli, seed, out):
        self.cli, self.seed, self.out = cli, seed, out
        self.daemon = None
        self.sent = [0] * SERVE_CONNECTIONS

    def setup(self):
        self.mix = gen.ServeMix(self.seed)
        self.streams = [self.mix.stream(c) for c in range(SERVE_CONNECTIONS)]
        self.daemon = Daemon(self.cli)
        self.conns = [self.daemon.connect() for _ in range(SERVE_CONNECTIONS)]
        status = self.conns[0].call('{"id":"perfbench-status","method":"status"}\n',
                                    "perfbench-status")
        if status.get("event") != "result":
            raise BenchError("daemon status failed: %s" % status)

    def window(self, seconds, traced):
        w = Window()
        records = [[] for _ in range(SERVE_CONNECTIONS)]
        errors = []
        start = time.perf_counter()
        deadline = start + seconds

        def client(c):
            conn, stream, mine = self.conns[c], self.streams[c], records[c]
            try:
                while time.perf_counter() < deadline or \
                        sum(len(r) for r in records) < SERVE_MIN_REQUESTS:
                    index = next(stream)
                    request_id = "c%d-%d" % (c, self.sent[c])
                    self.sent[c] += 1
                    line = self.mix.line(index, request_id)
                    t0 = time.perf_counter()
                    event = conn.call(line, request_id)
                    mine.append((index, t0, time.perf_counter(), event))
            except (OSError, ValueError, BenchError) as e:
                errors.append(str(e))

        threads = [threading.Thread(target=client, args=(c,)) for c in range(SERVE_CONNECTIONS)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        w.wall = time.perf_counter() - start
        width = min(SERVE_SLICE_S, seconds)
        slices = [[] for _ in range(max(1, int(seconds / width)))]
        for c, recs in enumerate(records):
            for index, t0, t1, event in recs:
                kind = self.mix.pool[index][0]
                w.kinds[kind] = w.kinds.get(kind, 0) + 1
                w.attempted += 1
                w.latencies.append(t1 - t0)
                if traced:
                    w.spans.append(("request", t0, t1, {"conn": c, "kind": kind,
                                                        "id": event.get("id")}))
                problems = self.validate(index, event)
                if problems:
                    w.fail(problems)
                elif int((t1 - start) / width) < len(slices):
                    slices[int((t1 - start) / width)].append(t1 - t0)
        for e in errors:
            w.attempted += 1
            w.fail(["client: " + e])
        # the best slice: most requests completed, lowest median latency
        full = [s for s in slices if s] or [[w.wall]]
        w.throughput = max(len(s) for s in full) / width
        w.latency = min(statistics.median(s) for s in full)
        w.rss_mb = self.daemon.peak_rss_mb()
        return w

    def validate(self, index, event):
        kind, _, names = self.mix.pool[index]
        if event.get("event") != "result":
            return ["%s: %s terminal: %s" % (kind, event.get("event"), event.get("message"))]
        payload = event.get("result", {})
        if kind == "hit":
            return answers.check_pam_check(payload, {e: e for e in gen.PAM_EVENTS})
        if kind == "miss":
            return answers.check_pam_check(payload, names)
        return {"simulate": answers.check_pam_simulate,
                "conformance": answers.check_conformance,
                "lint": answers.check_lint,
                "explore": answers.check_pam_explore}[kind](payload)

    def status(self):
        event = self.conns[0].call('{"id":"perfbench-status2","method":"status"}\n',
                                   "perfbench-status2")
        return event.get("result", {})

    def close(self):
        if self.daemon is not None:
            for conn in self.conns:
                conn.close()
            self.daemon.stop()
            self.daemon = None

    def harness_lang(self):
        text, _ = gen.pam_variant(gen.SplitMix64(self.seed).fork(5))
        return write(os.path.join(self.out, "pam_variant.mcc"), text)


WORKLOAD_CLASSES = {"drift_check": DriftCheck, "drift_smc": DriftSmc, "serve_mix": ServeMix}


def timed_setup(workload):
    """Sets the workload up SETUP_REPEATS times (the last one stays)
    and returns the median wall seconds."""
    times = []
    for _ in range(SETUP_REPEATS):
        workload.close()
        t0 = time.perf_counter()
        workload.setup()
        times.append(time.perf_counter() - t0)
    return statistics.median(times), times


def run_harness(harness, workload, seed, out):
    mix = gen.ServeMix(seed)
    stream = mix.stream(0)
    # the head of one connection's stream, plus one request of each kind
    indices = [next(stream) for _ in range(HARNESS_MIX_LINES)]
    indices += [members[0] for members in mix.by_kind.values()]
    lines = [mix.line(index, "m-%d" % i) for i, index in enumerate(indices)]
    files = {
        "lang": workload.harness_lang(),
        "cube": write(os.path.join(out, "harness_cube.mcc"), gen.cube(seed)[0]),
        "drift": os.path.join(gen.SPECS, "drift.mcc"),
        "pam": os.path.join(gen.SPECS, "pam.mcc"),
        "verif": os.path.join(gen.SPECS, "verification.mcc"),
        "trace": os.path.join(gen.SPECS, "verification.trace"),
        "mix": write(os.path.join(out, "harness_mix.jsonl"), "".join(lines)),
    }
    spans = os.path.join(out, "harness_spans.json")
    argv = [harness, "--seed", str(seed), "--spans", spans,
            "--smc-epsilon", str(answers.SMC_EPSILON)]
    for key, path in files.items():
        argv += ["--" + key, path]
    done = subprocess.run(argv, cwd=ROOT, stdout=subprocess.PIPE, stderr=sys.stderr,
                          timeout=OP_TIMEOUT_S)
    if done.returncode != 0:
        raise BenchError("layer harness failed")
    report = json.loads(done.stdout.decode().strip().splitlines()[-1])
    with open(spans) as f:
        report["spans"] = json.load(f)
    return report


def layer_table(name, window, harness):
    """Self time per operation of each layer (seconds), the e2e time of
    one operation, and the unattributed remainder. See README.md for
    how each workload's operation is decomposed."""
    m, raw = harness["metrics"], harness["raw"]
    lang = (m["lang.parse_us"] + m["lang.compile_us"]) * 1e-6
    layers = dict.fromkeys(("lang", "engine", "explorer", "verify", "smc", "analyze", "serve"), 0.0)
    if name == "drift_check":
        op = statistics.median(window.latencies)
        share = min(max(m["explorer.non_expand_share"], 0.0), 1.0)
        layers.update(lang=lang,
                      verify=max(raw["cube_check_s"] - raw["cube_explore_s"], 0.0),
                      explorer=raw["cube_explore_s"] * share,
                      engine=raw["cube_explore_s"] * (1 - share))
    elif name == "drift_smc":
        op = statistics.median(window.latencies)
        engine = (raw["smc_deadlock_free_traces"] * answers.SMC_TRACE_LEN
                  * m["engine.drift_step_ns"] * 1e-9 / raw["smc_deadlock_free_s"])
        engine = min(engine, 1.0)
        layers.update(lang=lang, engine=raw["smc_all_s"] * engine,
                      smc=raw["smc_all_s"] * (1 - engine))
    else:
        op = statistics.mean(window.latencies)
        total = sum(window.kinds.values())
        us = 1e-6
        pam_engine = m["engine.pam_expand_ns"] * 1e-9
        visited = m["verify.states_visited"]
        explored = raw["pam_explore_us"] * us * visited / raw["pam_states"]
        cost = {}
        check = dict(engine=visited * pam_engine, explorer=explored - visited * pam_engine,
                     verify=(m["verify.check_us"] + m["verify.minimize_us"]) * us - explored)
        cost["hit"] = check
        cost["miss"] = dict(check, lang=lang, engine=check["engine"]
                            + max(raw["op_check_cold_us"] - m["serve.op_check_us"], 0.0) * us)
        cost["simulate"] = dict(engine=m["serve.op_simulate_us"] * us)
        cost["conformance"] = dict(verify=m["serve.op_conformance_us"] * us)
        cost["lint"] = dict(analyze=m["analyze.lint_us"] * us)
        states = raw["pam_states"] * pam_engine
        cost["explore"] = dict(engine=states, explorer=raw["op_explore_us"] * us - states)
        inproc = {"hit": "check", "miss": "check"}
        call = 0.0
        for kind, count in window.kinds.items():
            for layer, secs in cost[kind].items():
                layers[layer] += secs * count / total
            key = "serve.inproc_%s_us" % inproc.get(kind, kind)
            call += m[key] * us * count / total
        layers["serve"] = call - sum(layers.values())
    # a self time below zero means the estimate's parts overlap: count
    # the layer as 0 and leave the difference in the remainder
    layers = {layer: max(secs, 0.0) for layer, secs in layers.items()}
    layers["unattributed"] = op - sum(layers.values())
    return op, layers


def measure(args, cli, harness):
    """One benchmark run; returns (result dict, stdout report lines)."""
    cls = WORKLOAD_CLASSES[args.workload]
    out = workdir(args.workload, args.seed)
    workload = cls(cli, args.seed, out)
    lines = []
    try:
        setup_s, setup_samples = timed_setup(workload)
        if not args.trace:
            w = workload.window(args.seconds, traced=False)
            metrics = w.e2e(setup_s)
            attempted, failed, problems = w.attempted, w.failed, w.problems
        else:
            plain = workload.window(args.seconds / 2, traced=False)
            traced = workload.window(args.seconds / 2, traced=True)
            if isinstance(workload, ServeMix):
                status = workload.status()
            workload.close()
            report = run_harness(harness, workload, args.seed, out)
            metrics = dict(report["metrics"])
            if isinstance(workload, ServeMix):
                cache = status.get("cache", {})
                hits, misses = cache.get("hits", 0), cache.get("misses", 0)
                metrics["serve.cache_hit_ratio"] = hits / max(hits + misses, 1)
            overhead = plain.throughput / traced.throughput if traced.throughput else 0.0
            metrics["obs.trace_overhead"] = overhead
            op, layers = layer_table(args.workload, traced, report)
            metrics["layers.op_ms"] = op * 1e3
            lines.append("# layer table: %s, one operation = %.3f ms"
                         % (args.workload, op * 1e3))
            lines.append("# %-14s %12s %8s" % ("layer", "self_ms", "share"))
            for layer, secs in layers.items():
                metrics["layers.%s_share" % layer] = secs / op
                lines.append("# %-14s %12.3f %7.1f%%" % (layer, secs * 1e3, 100 * secs / op))
            lines.append("# obs.trace_overhead %.4f (untraced / traced throughput)" % overhead)
            write(os.path.join(out, "trace.json"), json.dumps({
                "workload": args.workload, "seed": args.seed,
                "bench_spans": [{"name": n, "start_s": a, "end_s": b, **attrs}
                                for n, a, b, attrs in traced.spans],
                "harness_spans": report["spans"]}))
            lines.append("# spans written to %s" % os.path.relpath(
                os.path.join(out, "trace.json"), ROOT))
            attempted = plain.attempted + traced.attempted
            failed = plain.failed + traced.failed
            problems = plain.problems + traced.problems
            w = traced
    finally:
        workload.close()
    for p in problems[:10]:
        lines.append("# FAILED: %s" % p)
    if not args.trace:
        for alias, value in aliases(args.workload, w, metrics, attempted, failed):
            lines.append("# %s %s = %s" % (args.workload, alias, value))
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": unit_of(k)} for k, v in metrics.items()},
    }
    return result, lines, {"latencies_s": w.latencies, "setup_s": setup_samples}


def aliases(workload, window, metrics, attempted, failed):
    """The end-to-end figures under their per-workload names, with the
    whole-window medians and tails next to the least-disturbed ones."""
    lat = window.latencies
    if workload == "serve_mix":
        rows = [("serve_rps", "%.6g 1/s best %gs slice, %.6g 1/s over %.1f s"
                 % (metrics["throughput_per_s"], SERVE_SLICE_S, len(lat) / window.wall,
                    window.wall)),
                ("serve_p50_ms", "%.4f ms best slice, %.4f ms over the run"
                 % (metrics["latency_ms"], statistics.median(lat) * 1e3)),
                ("serve_p99_ms", "%.4f ms over the run (%d samples)"
                 % (percentile(lat, 0.99) * 1e3, len(lat)))]
    else:
        name = {"drift_check": "states_per_s", "drift_smc": "traces_per_s"}[workload]
        rows = [(name, "%.6g 1/s fastest invocation" % metrics["throughput_per_s"]),
                ("invocation_ms", "%.1f fastest, %.1f median, %.1f max (%d invocations)"
                 % (metrics["latency_ms"], statistics.median(lat) * 1e3, max(lat) * 1e3,
                    len(lat)))]
    rows += [("peak_rss_mb", "%.2f MB" % metrics["peak_rss_mb"]),
             ("setup_s", "%.6f s" % metrics["setup_s"]),
             ("fail_frac", "%.4f (%d of %d)" % (failed / max(attempted, 1), failed, attempted))]
    return rows


def unit_of(metric):
    for name, unit in E2E:
        if name == metric:
            return unit
    return PER_LAYER_UNITS[metric]


def main(argv):
    if argv[:1] == ["compare"]:
        import compare
        return compare.main(argv[1:])
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--runs", type=int, default=1,
                        help="with --workload all: runs per workload (seeds seed, seed+1, ...)")
    parser.add_argument("--out", help="append each run's record to this JSONL file")
    args = parser.parse_args(argv)
    try:
        cli, harness = build(harness=args.trace == 1)
    except BenchError as e:
        log("perfbench:", e)
        return 2
    info = stamp.stamp(ROOT)
    print("# stamp: " + json.dumps(info, sort_keys=True))
    plan = [(w, args.seed + r) for w in WORKLOADS for r in range(args.runs)] \
        if args.workload == "all" else [(args.workload, args.seed)]
    results = []
    for workload, seed in plan:
        run = argparse.Namespace(**vars(args))
        run.workload, run.seed = workload, seed
        try:
            result, lines, samples = measure(run, cli, harness)
        except BenchError as e:
            log("perfbench:", e)
            return 3
        for line in lines:
            print(line)
        results.append((workload, seed, result))
        if args.out:
            with open(args.out, "a", encoding="utf-8") as f:
                f.write(json.dumps({"workload": workload, "seed": seed, "trace": args.trace,
                                    "seconds": args.seconds, "stamp": info,
                                    "samples": samples, "result": result}) + "\n")
    if args.workload == "all":
        print_summary(results)
        correct = all(r["correct"] for _, _, r in results)
        print(json.dumps({"correct": correct,
                          "attempted": sum(r["attempted"] for _, _, r in results),
                          "failed": sum(r["failed"] for _, _, r in results),
                          "metrics": {}}))
    else:
        print(json.dumps(results[0][2]))
    return 0


def print_summary(results):
    print("# %-12s %5s %-22s %14s %s" % ("workload", "seed", "metric", "value", "unit"))
    for workload, seed, result in results:
        for name, entry in result["metrics"].items():
            print("# %-12s %5d %-22s %14.6g %s"
                  % (workload, seed, name, entry["value"], entry["unit"]))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
