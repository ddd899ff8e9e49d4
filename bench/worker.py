"""One unit of benchmark work in a fresh interpreter.

    python3 bench/worker.py sweep SEED TRACE
    python3 bench/worker.py queries SEED TRACE
    python3 bench/worker.py cli TRACE_FILE ARG...

The package must be importable (run.py puts `src` on PYTHONPATH).  Each
worker is a fresh interpreter, so the ambient registry and the reduction
caches start empty, as in every `c2bezout` process.  `sweep` and
`queries` print one JSON object as their last line of output, with the
tracer installed when TRACE is 1.  `cli` runs `c2bezout.cli.main` with the
CLI's own output and exit code, times its phases with the tracer
installed, and writes the layer numbers to TRACE_FILE.

`sweep` and `queries` also probe the host's speed (pace.py) every
PROBE_VERDICTS verdicts or PROBE_QUERIES queries and report each timing
adjusted to it next to its wall time.
"""

from __future__ import annotations

import hashlib
import json
import sys
import time

import pace
import queries
from tracer import Tracer

SWEEP_SUMMARY = {"pass": 16483, "fail": 0, "skipped": 32, "cases": 325428}
PROBE_VERDICTS = 1024   # verdicts between speed probes (~126k in a sweep)
PROBE_QUERIES = 32      # queries between speed probes


def _trace(enabled: bool):
    if not enabled:
        return None
    tracer = Tracer()
    tracer.install()
    return tracer


def sweep_digest(report) -> str:
    """SHA-256 of the sorted JSON report without its wall times."""
    data = report.to_json()
    data.pop("wall_time_s")
    data["summary"].pop("wall_time_s")
    data["records"] = sorted(json.dumps(r, sort_keys=True) for r in data["records"])
    return hashlib.sha256(json.dumps(data, sort_keys=True).encode()).hexdigest()


class Pacer:
    """Probes of the host's speed (pace.py) between segments of work."""

    def __init__(self):
        self.last = pace.probe()

    def probe(self) -> float:
        """The mean of the probes right before and right after a segment,
        called when the segment ends."""
        now = pace.probe()
        probe_s, self.last = (self.last + now) / 2, now
        return probe_s


class Segments:
    """Wall time of some work in segments, probed between segments; the
    probes' own time is in no segment."""

    def __init__(self):
        self.parts: list = []       # (wall s, probe s)
        self.pacer = Pacer()
        self.start = time.perf_counter()

    def cut(self) -> None:
        end = time.perf_counter()
        self.parts.append((end - self.start, self.pacer.probe()))
        self.start = time.perf_counter()

    def wall(self) -> float:
        return sum(wall for wall, _ in self.parts)

    def adjusted(self) -> float:
        return sum(pace.adjust(wall, probe) for wall, probe in self.parts)


def _probe_verdicts(verify, segments: Segments) -> None:
    """Cut the sweep into segments of PROBE_VERDICTS verdicts, by wrapping
    Recorder.ok/fail/skip.  A sweep of a seed gives the same verdicts in
    the same order every time, so each segment is the same work in every
    round."""
    calls = [0]

    def probed(fn):
        def verdict(self, *args, **kwargs):
            calls[0] += 1
            if calls[0] % PROBE_VERDICTS == 0:
                segments.cut()
            return fn(self, *args, **kwargs)
        return verdict

    for name in ("ok", "fail", "skip"):
        setattr(verify.Recorder, name, probed(getattr(verify.Recorder, name)))


def run_sweep(seed: int, trace: bool) -> dict:
    import c2bezout
    tracer = _trace(trace)
    cfg = c2bezout.SweepConfig(seed=seed)
    segments = Segments()
    if not tracer:   # probes inside check groups would count as verify time
        _probe_verdicts(c2bezout.verify, segments)
    segments.start = time.perf_counter()
    report = c2bezout.run_verify(cfg)
    segments.cut()
    summary = report.summary()
    summary.pop("wall_time_s")
    errors = [] if summary == SWEEP_SUMMARY else [f"summary {summary} != {SWEEP_SUMMARY}"]
    errors += [f"{r.name} {r.params}: {r.detail}" for r in report.failures][:5]
    out = {"op_s": [segments.wall()], "adjusted_s": [segments.adjusted()],
           "attempted": len(report.records), "failed": len(report.failures),
           "gate_ok": report.passed and summary == SWEEP_SUMMARY,
           "errors": errors, "digest": sweep_digest(report)}
    if tracer:
        out["layers"] = tracer.metrics()
        out["spans"] = tracer.spans
    return out


def answer(lib, render, qry: dict) -> tuple:
    """Answer one query the way the CLI's euler/bezout commands do.

    Returns (rendered text, JSON payload, whether the two routes agree);
    agreement is None when the sum is outside the closed-form hypotheses
    and only the product is given, with a warning.
    """
    p, q = qry["p"], qry["q"]
    amb = lib.ambient(p, q)
    bs = lib.BundleSum((p, q), lib.parse_bundles(qry["bundles"]))
    inv = lib.bundle_invariants(bs)
    product = lib.euler_product(amb, bs)
    payload = {"p": p, "q": q, "bundles": bs.token(), "kind": qry["kind"],
               "product": render.proj_json(product)}
    lines = [f"e(F) product = {render.proj_text(product)}"]
    agrees = None
    if not inv.context_ok:
        payload["context_violations"] = list(inv.context_violations)
        lines += [f"context warning: {v}" for v in inv.context_violations]
    elif qry["kind"] == "euler":
        closed = lib.euler_closed_form(amb, inv)
        agrees = closed == product
        payload["closed_form"] = render.proj_json(closed)
        lines.append(f"e(F) closed form = {render.proj_text(closed)}")
    else:
        exp = lib.bezout_expansion(inv)
        cls = lib.expansion_class(exp, amb)
        agrees = cls == product
        payload["expansion"] = render.expansion_json(exp, amb)
        lines.append(f"e(F) = {render.expansion_text(exp, amb)}")
        lines.append(f"     = {render.proj_text(cls)}")
    payload["agrees"] = agrees
    return "\n".join(lines), json.dumps(payload, sort_keys=True), agrees


def run_queries(seed: int, trace: bool) -> dict:
    import c2bezout as lib
    from c2bezout import render
    tracer = _trace(trace)
    stream = queries.query_stream(seed)
    digest = hashlib.sha256()
    latencies, adjusted, errors = [], [], []
    failed = 0
    clock = time.perf_counter
    pacer = Pacer()
    for i, qry in enumerate(stream):
        t0 = clock()
        try:
            if tracer:
                with tracer.span("query", index=i, kind=qry["kind"],
                                 p=qry["p"], q=qry["q"]):
                    text, js, agrees = answer(lib, render, qry)
            else:
                text, js, agrees = answer(lib, render, qry)
        except Exception as exc:  # every failure counts; the stream goes on
            text = js = f"{type(exc).__name__}: {exc}"
            agrees = False
        latencies.append(clock() - t0)
        digest.update(text.encode() + b"\0" + js.encode() + b"\0")
        if agrees is False:
            failed += 1
            if len(errors) < 5:
                errors.append(f"{qry}: {text[:200]}")
        if (i + 1) % PROBE_QUERIES == 0 or i + 1 == len(stream):
            probe_s = pacer.probe()
            adjusted += [pace.adjust(s, probe_s) for s in latencies[len(adjusted):]]
    out = {"op_s": latencies, "adjusted_s": adjusted,
           "attempted": len(stream), "failed": failed, "gate_ok": failed == 0,
           "errors": errors, "digest": digest.hexdigest()}
    if tracer:
        out["layers"] = tracer.metrics()
        out["spans"] = tracer.spans
    return out


def run_cli(trace_file: str, argv: list) -> int:
    """c2bezout.cli.main(argv) in three phases: import, parser, command."""
    t0 = time.perf_counter_ns()
    from c2bezout import cli
    t1 = time.perf_counter_ns()
    tracer = Tracer()
    tracer.install()
    for name in COMMANDS:
        setattr(cli, name, _phase(tracer, getattr(cli, name)))
    with tracer.span("cli", argv=argv) as root:
        tracer.spans.append({"id": len(tracer.spans) + 1, "name": "cli.import", "attrs": {},
                             "parent": root["id"], "start_ns": t0, "end_ns": t1})
        rc = cli.main(argv)
    main_s = (tracer.spans[0]["end_ns"] - tracer.spans[0]["start_ns"]) / 1e9
    command_s = sum(tracer.stats[f"cli.{name}"][1] for name in COMMANDS) / 1e9
    sys.stdout.flush()
    layers = tracer.metrics()
    layers.update({"cli.import_s": (t1 - t0) / 1e9,
                   "cli.parser_s": main_s - command_s, "cli.command_s": command_s})
    with open(trace_file, "w") as fh:
        json.dump({"layers": layers, "spans": tracer.spans}, fh)
    return rc


COMMANDS = ("cmd_euler", "cmd_bezout", "cmd_basis", "cmd_point_table", "cmd_verify")


def _phase(tracer: Tracer, fn):
    """A command run as the span of the CLI's command phase."""
    def command(args):
        with tracer.span("cli.command"):
            return fn(args)
    return command


def main(argv: list) -> int:
    mode = argv[0]
    if mode == "cli":
        return run_cli(argv[1], argv[2:])
    if mode == "sweep":
        out = run_sweep(int(argv[1]), argv[2] == "1")
    elif mode == "queries":
        out = run_queries(int(argv[1]), argv[2] == "1")
    else:
        raise SystemExit(f"unknown mode {mode!r}")
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
