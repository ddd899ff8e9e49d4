"""The c2bezout benchmark.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
`src/`.  All workloads are closed loops: one caller, one process at a
time, no threads.  Every timed process is a fresh interpreter, so the
ambient registry and the reduction caches start empty, as in every
`c2bezout` process.

  sweep_default  rounds of one default run_verify() (SweepConfig.seed = N)
  query_stream   rounds of the seed's STREAM_LENGTH euler/bezout queries
                 through the library API, text and JSON rendered
  cli_oneshot    rounds of the seed's CLI_ROUND `python -m c2bezout.cli`
                 calls on small inputs, each timed from spawn to exit

With --trace 0 the run repeats rounds until S seconds have passed, so each
operation (a whole sweep, a query, a CLI call) is timed several times,
and prints the end-to-end metrics computed from each operation's median
repeat, with every timing scaled by the host's speed probed next to it
(see end_to_end and pace.py).  With --trace 1 it runs a fixed amount of work
(one sweep, one query round, the first CLI_TRACED calls) untraced and
then traced, and prints the per-layer metrics and the tracing overhead;
counts repeat exactly for a seed.  Spans of the traced run are written
to .bench_out/.

The last line of output is one JSON object with the keys correct,
attempted, failed and metrics.  The exit code is 0 when every output was
checked correct, 1 when a correctness gate failed and 2 when the package
cannot be run at all.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import pace
import queries
import tracer
from worker import SWEEP_SUMMARY

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"

WORKLOADS = ("sweep_default", "query_stream", "cli_oneshot")
SETUP_BATCH = 4       # imports per set-up batch
SETUP_EVERY_S = 4     # a batch before the rounds, after the last one and
                      # between rounds whenever this long has passed
CLI_TRACED = 12
CLI_ROUND = 16        # calls per round of cli_oneshot
DEADLINE_S = 170
IMPORT_PROBE = ("import sys, time; sys.path.insert(0, sys.argv[1]); import pace; "
                "p = pace.probe(); t = time.perf_counter(); import c2bezout; "
                "t = time.perf_counter() - t; print(t, (p + pace.probe()) / 2)")
END_TO_END = {"setup_s": "s", "op_p50_ms": "ms", "op_tail_ms": "ms",
              "throughput_per_s": "1/s", "peak_rss_mb": "MB"}
# the names the metrics carry on each workload in the human-readable report
ALIASES = {
    "sweep_default": {"op_p50_ms": "sweep_s x 1000", "op_tail_ms": "sweep_s x 1000",
                      "throughput_per_s": "cases_per_s"},
    "query_stream": {"op_p50_ms": "query_p50_ms", "op_tail_ms": "query_p99_ms",
                     "throughput_per_s": "queries_per_s"},
    "cli_oneshot": {"op_p50_ms": "cli_p50_ms", "op_tail_ms": "cli_p90_ms",
                    "throughput_per_s": "calls_per_s"},
}


class BenchError(Exception):
    """The package under test could not be run."""


def child_env() -> dict:
    """The package on the path, a fixed hash seed so counts repeat, and
    bytecode caches allowed whatever the caller's setting, since an
    installed package imports from them (check_importable writes them)."""
    env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED="0")
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def spawn(argv: list) -> tuple:
    """Run one child to completion: (wall s, exit code, output, peak RSS MB).

    stderr is merged into stdout, so reading one pipe to its end cannot
    deadlock; wait4 then reaps the child with its own resource usage.
    """
    t0 = time.perf_counter()
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                            env=child_env(), cwd=ROOT)
    try:
        out = proc.stdout.read()
        _, status, usage = os.wait4(proc.pid, 0)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    finally:
        proc.stdout.close()
    wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, proc.returncode, out, usage.ru_maxrss / 1024


def worker(*args) -> dict:
    """Run bench/worker.py and return the JSON object it prints last."""
    _, rc, out, rss = spawn([sys.executable, str(BENCH / "worker.py"), *map(str, args)])
    if rc != 0:
        raise BenchError(f"worker {args} exited {rc}:\n{out.decode()[-2000:]}")
    result = json.loads(out.decode().strip().splitlines()[-1])
    result["rss_mb"] = rss
    return result


def check_importable() -> None:
    """Import the package once, untimed; this also writes its bytecode caches."""
    _, rc, out, _ = spawn([sys.executable, "-c", IMPORT_PROBE, str(BENCH)])
    if rc != 0:
        raise BenchError(f"cannot import c2bezout from {SRC}:\n{out.decode()[-2000:]}")


def probed_spawn(argv: list) -> tuple:
    """spawn(argv) with the host's speed probed right before and after:
    (wall s, adjusted s, exit code, output, peak RSS MB)."""
    before = pace.probe()
    wall, rc, out, rss = spawn(argv)
    probe_s = (before + pace.probe()) / 2
    return wall, pace.adjust(wall, probe_s), rc, out, rss


def import_time() -> tuple:
    """Import time of c2bezout in a fresh interpreter, probed there right
    before and after: (wall s, adjusted s)."""
    out = spawn([sys.executable, "-c", IMPORT_PROBE, str(BENCH)])[2]
    import_s, probe_s = map(float, out.split()[-2:])
    return import_s, pace.adjust(import_s, probe_s)


class Tally:
    """What one run did.  A run repeats the same operations in rounds, so
    each operation (a whole sweep, a query, a CLI call) is timed several
    times; `ops` maps it to its adjusted times, `walls` to its wall times."""

    def __init__(self):
        self.ops: dict = {}         # operation -> adjusted times in s
        self.walls: dict = {}       # operation -> wall times in s
        self.digests: dict = {}     # operation or round -> digest of outputs
        self.attempted = 0
        self.failed = 0
        self.gate_ok = True
        self.errors: list = []
        self.rss_mb: list = []      # one per process
        self.setup: list = []       # import times, (wall s, adjusted s)

    def time(self, op, wall: float, adjusted: float) -> None:
        self.walls.setdefault(op, []).append(wall)
        self.ops.setdefault(op, []).append(adjusted)

    def set_up(self) -> None:
        """A batch of SETUP_BATCH set-up (import) times."""
        self.setup += [import_time() for _ in range(SETUP_BATCH)]

    def count(self, result: dict, key="round") -> None:
        """Failures, outputs and memory of one process; repeats of the same
        work must give the same outputs."""
        self.attempted += result["attempted"]
        self.failed += result["failed"]
        self.gate_ok &= result["gate_ok"]
        self.errors += result["errors"]
        self.rss_mb.append(result["rss_mb"])
        if self.digests.setdefault(key, result["digest"]) != result["digest"]:
            self.gate_ok = False
            self.errors.append(f"{key}: outputs differ between repeats")

    def typical(self, wall=False) -> list:
        """Each operation's median repeat, in the order first run."""
        return [statistics.median(times)
                for times in (self.walls if wall else self.ops).values()]


def until(seconds: float, tally: Tally):
    """Closed loop: yield 0, 1, 2, ... until `seconds` have passed.

    Set-up batches are spread over the run, like the rounds: one before
    the first round, one after the last, and one between rounds whenever
    SETUP_EVERY_S has passed since the previous batch."""
    start = last = time.perf_counter()
    tally.set_up()
    i = 0
    while True:
        yield i
        i += 1
        now = time.perf_counter()
        if now - start >= seconds:
            tally.set_up()
            return
        if now - last >= SETUP_EVERY_S:
            tally.set_up()
            last = time.perf_counter()


def sweep_default(seed: int, seconds: float) -> Tally:
    tally = Tally()
    for _ in until(seconds, tally):
        result = worker("sweep", seed, 0)
        tally.count(result)
        tally.time("sweep", result["op_s"][0], result["adjusted_s"][0])
    return tally


def query_stream(seed: int, seconds: float) -> Tally:
    tally = Tally()
    for _ in until(seconds, tally):
        result = worker("queries", seed, 0)
        tally.count(result)
        for i, times in enumerate(zip(result["op_s"], result["adjusted_s"])):
            tally.time(i, *times)
    return tally


def cli_call(args: list, trace_file: Path | None = None) -> dict:
    if trace_file is None:
        argv = [sys.executable, "-m", "c2bezout.cli", *args]
    else:
        argv = [sys.executable, str(BENCH / "worker.py"), "cli", str(trace_file), *args]
    wall, adjusted, rc, out, rss = probed_spawn(argv)
    digest = hashlib.sha256(json.dumps(args).encode() + b"\0" + out).hexdigest()
    return {"op_s": [wall], "adjusted_s": [adjusted], "attempted": 1, "failed": int(rc != 0),
            "gate_ok": rc == 0, "digest": digest, "rss_mb": rss,
            "errors": [] if rc == 0 else [f"{args} exited {rc}: {out.decode()[-300:]}"]}


def cli_oneshot(seed: int, seconds: float) -> Tally:
    tally = Tally()
    calls = queries.cli_calls(seed, CLI_ROUND)
    for i in until(seconds, tally):
        result = cli_call(calls[i % CLI_ROUND])
        tally.count(result, key=i % CLI_ROUND)
        tally.time(i % CLI_ROUND, result["op_s"][0], result["adjusted_s"][0])
    return tally


def quantile(values: list, q: int) -> float:
    """The q-th percentile (statistics.quantiles, exclusive method)."""
    return statistics.quantiles(values, n=100)[q - 1]


def end_to_end(workload: str, tally: Tally, wall=False) -> dict:
    """Timings from each operation's median repeat, set-up time as the
    median import time, memory as the median over processes.

    Every timing is adjusted to the host's nominal speed (pace.py): this
    host's CPU runs up to half slower for spells that can outlast a whole
    run, and a reference loop timed next to the work slows down with it.
    With `wall` the timings are the plain wall times instead, as printed
    for reference."""
    typical = tally.typical(wall)
    if workload == "sweep_default":
        sweep_s = typical[0]
        p50 = tail = sweep_s * 1e3
        throughput = SWEEP_SUMMARY["cases"] / sweep_s
    else:
        ms = [s * 1e3 for s in typical]
        p50 = statistics.median(ms)
        tail = quantile(ms, 99 if workload == "query_stream" else 90)
        throughput = len(typical) / sum(typical)
    return {"setup_s": statistics.median(s[0 if wall else 1] for s in tally.setup),
            "op_p50_ms": p50, "op_tail_ms": tail, "throughput_per_s": throughput,
            "peak_rss_mb": statistics.median(tally.rss_mb)}


# -- traced run ---------------------------------------------------------------

def traced(workload: str, seed: int) -> tuple:
    """The same fixed work run untraced, then traced.

    Returns (tally of the traced run, per-layer metrics, spans)."""
    layers = dict.fromkeys(tracer.metric_units(), 0)
    if workload == "cli_oneshot":
        tally, spans = traced_cli(seed, layers)
        return tally, layers, spans
    tally = Tally()
    args = ("sweep" if workload == "sweep_default" else "queries", seed)
    plain = worker(*args, 0)
    result = worker(*args, 1)
    if result["digest"] != plain["digest"]:
        result["gate_ok"] = False
        result["errors"].append("traced outputs differ from untraced outputs")
    tally.count(result)
    layers.update(result["layers"])
    layers["trace.overhead_s"] = sum(result["op_s"]) - sum(plain["op_s"])
    return tally, layers, result["spans"]


def traced_cli(seed: int, layers: dict) -> tuple:
    """CLI_TRACED calls, each through worker.py's phase probe.

    Layer counts and self times are summed over the calls; the phase
    times are medians per call."""
    tally = Tally()
    OUT_DIR.mkdir(exist_ok=True)
    trace_file = OUT_DIR / "cli_probe.json"
    calls = queries.cli_calls(seed, CLI_TRACED)
    plain = [cli_call(args) for args in calls]
    phases = {"cli.import_s": [], "cli.parser_s": [], "cli.command_s": []}
    spans = []
    for i, (args, base) in enumerate(zip(calls, plain)):
        result = cli_call(args, trace_file)
        data = json.loads(trace_file.read_text())
        trace_file.unlink()
        for name, value in data["layers"].items():
            if name in phases:
                phases[name].append(value)
            else:
                layers[name] += value
        spans.append({"argv": args, "spans": data["spans"]})
        if result["digest"] != base["digest"]:
            result["gate_ok"] = False
            result["errors"].append(f"{args}: traced output differs")
        tally.count(result, key=i)
        tally.time(i, result["op_s"][0], result["adjusted_s"][0])
    layers.update({name: statistics.median(v) for name, v in phases.items()})
    reduces = layers["projective.reduce_mono.calls"]
    layers["projective.reduce_hit_ratio"] = (
        (reduces - layers["projective.reduce_new_keys"]) / reduces if reduces else 0.0)
    layers["trace.overhead_s"] = (sum(tally.typical(wall=True))
                                  - sum(r["op_s"][0] for r in plain))
    return tally, spans


# -- main ---------------------------------------------------------------------

def _deadline(signum, frame):
    raise TimeoutError(f"benchmark run exceeded {DEADLINE_S} s")


def run(workload: str, seed: int, seconds: float, trace: bool) -> int:
    if not (SRC / "c2bezout" / "__init__.py").is_file():
        raise BenchError(f"no package at {SRC / 'c2bezout'}; run from a source checkout")
    # one CPU for the run and every child, so that a probe taken here
    # gauges the CPU a child ran on (the two CPUs of a shared host differ)
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    check_importable()
    if trace:
        tally, values, spans = traced(workload, seed)
        units = tracer.metric_units()
        OUT_DIR.mkdir(exist_ok=True)
        (OUT_DIR / f"spans-{workload}-{seed}.json").write_text(json.dumps(spans))
    else:
        tally = {"sweep_default": sweep_default, "query_stream": query_stream,
                 "cli_oneshot": cli_oneshot}[workload](seed, seconds)
        values, units = end_to_end(workload, tally), END_TO_END
        walls = end_to_end(workload, tally, wall=True)
    correct = tally.gate_ok and tally.failed == 0
    repeats = sum(len(times) for times in tally.ops.values())
    print(f"workload {workload} seed {seed} trace {int(trace)}: {tally.attempted} "
          f"operations in {len(tally.rss_mb)} processes; {len(tally.ops)} timed, "
          f"{repeats} timings")
    aliases = ALIASES[workload] if not trace else {}
    for name, value in values.items():
        alias = f"  ({aliases[name]})" if name in aliases else ""
        wall = f"  wall {walls[name]:.6f}" if not trace and walls[name] != value else ""
        print(f"  {name:36s} {value:14.6f} {units[name]}{wall}{alias}")
    print(f"  error_rate {tally.failed}/{tally.attempted} = "
          f"{tally.failed / tally.attempted:.6f}")
    digests = list(tally.digests.values())
    combined = hashlib.sha256("\n".join(digests).encode()).hexdigest()
    print(f"  outputs sha256 {combined} ({len(digests)} distinct units of work)")
    for err in tally.errors[:10]:
        print(f"  FAILED {err}")
    print(json.dumps({"correct": correct, "attempted": tally.attempted,
                      "failed": tally.failed,
                      "metrics": {name: {"value": values[name], "unit": units[name]}
                                  for name in units}}))
    return 0 if correct else 1


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    signal.signal(signal.SIGALRM, _deadline)
    signal.alarm(DEADLINE_S)
    try:
        return run(args.workload, args.seed, args.seconds, bool(args.trace))
    except (BenchError, TimeoutError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        signal.alarm(0)


if __name__ == "__main__":
    sys.exit(main())
