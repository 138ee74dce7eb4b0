#!/usr/bin/env python3
"""The mmfuse benchmark: seeded table reproduction and loopback wire sessions.

Usage (from the repository root):

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all --seed N --seconds S --trace 0|1

It runs against ``src/`` on ``sys.path`` (the package need not be
installed) and exits with code 2, printing no result, when ``src/mmfuse``
is not there. Human-readable lines come first; the last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``. ``--trace 0`` installs no hooks and reports the end-to-end
metrics; ``--trace 1`` hooks every layer and reports the per-layer metrics.
Each run also writes its record (machine, versions, ``src/`` line count,
seed, workload reasons) and result to ``bench/out/``, and with ``--trace 1``
the kept spans beside it. See ``bench/README.md`` for what each metric
means on each workload.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

clock = time.perf_counter

#: Why each workload is in the benchmark (also in BENCHMARK.json).
WORKLOADS: Dict[str, str] = {
    "table4_mc": (
        "stepped fused episodes plus the default-scale report: the simulator "
        "layers do all the work, protocol and server none"
    ),
    "wire_stream": (
        "2 long sessions, closed loop then pipelined: the per-line codec, "
        "session, step and socket write path do all the work"
    ),
    "wire_churn": (
        "2 closed-loop clients running one-episode sessions back to back: "
        "accept, thread and session set-up dominate"
    ),
}

# -- table4_mc ---------------------------------------------------------------
BLOCKS = 4
BLOCK_SIZE = 1250  # 5000 episodes per operation per round
REPORTS_PER_ROUND = 4
#: A check passes when the estimate is within this many standard errors.
SE_MULTIPLE = 5.0
#: Traced runs do fixed work so per-layer totals compare across commits.
TRACE_ROUNDS_PER_S = 1.0

# -- wire workloads ------------------------------------------------------------
CONNECTIONS = 2
#: Closed-loop lines per connection for each second of --seconds. The reply
#: stall lets about 25 lines/s through a connection, so the closed loop
#: takes about 60% of the run; pipelined rounds fill the rest.
STREAM_LINES_PER_S = 15
#: Lines per connection in one pipelined round.
PIPELINE_LINES = 2000
#: Pipelined rounds run at least this many times, whatever --seconds says.
MIN_PIPELINE_ROUNDS = 5
#: Pipelined rounds a traced run times, untraced and then traced; they give
#: server.cpu_us_per_line and trace.overhead_frac on wire_stream.
TRACE_PIPELINE_ROUNDS = 5
CHURN_CLIENTS = 2
TRACE_SESSIONS_PER_S_PER_CLIENT = 8
READ_TIMEOUT_S = 2.0

#: Set-up is timed this many times per run; the median is reported.
SETUP_REPEATS = 11

#: Untraced share of a traced run, the reference for trace.overhead_frac.
TRACE_REFERENCE_SHARE = 1.0 / 3.0

# (metric, unit) reported with --trace 0, in BENCHMARK.json order.
END_TO_END = (
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("throughput_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p90_ms", "ms"),
)

# (metric, unit) measured by the benchmark itself in --trace 1 runs.
DERIVED_METRICS = (
    ("fusion.steps_per_episode", "steps/episode"),
    ("server.cpu_us_per_line", "us"),
    ("server.threads_peak", "count"),
    ("loadgen.first_reply_p50_ms", "ms"),
    ("loadgen.reply_spread_p50_ms", "ms"),
    ("loadgen.connect_p50_ms", "ms"),
    ("loadgen.late_p99_ms", "ms"),
    ("trace.overhead_frac", "frac"),
)


class MissingSource(RuntimeError):
    """The checkout holds no ``src/mmfuse`` package to benchmark."""


def _import_package() -> None:
    if not (SRC / "mmfuse" / "__init__.py").is_file():
        raise MissingSource(f"no mmfuse package under {SRC}")
    sys.path.insert(0, str(SRC))
    import mmfuse

    where = Path(mmfuse.__file__).resolve()
    if SRC.resolve() not in where.parents:
        raise MissingSource(f"mmfuse was imported from {where}, not from {SRC}")


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated percentile, ``q`` in [0, 100]."""
    v = sorted(values)
    if not v:
        raise ValueError("no samples")
    pos = (len(v) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(v) - 1)
    return v[lo] + (v[hi] - v[lo]) * (pos - lo)


class Run:
    """What one workload run measured and checked."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.metrics: Dict[str, dict] = {}
        self.notes: List[str] = []  # human-readable lines, issue metric names
        self.errors: List[str] = []
        self.raw: Dict[str, object] = {}  # unscaled figures for the run record

    def check(self, ok: bool, what: str) -> None:
        self.tally(1, 0 if ok else 1, what)

    def tally(self, attempted: int, failed: int, what: str) -> None:
        """Count ``attempted`` operations, ``failed`` of them described by ``what``."""
        self.attempted += attempted
        self.failed += failed
        if failed:
            self.errors.append(what)

    def metric(self, name: str, value: float, unit: str, **extra) -> None:
        self.metrics[name] = {"value": value, "unit": unit, **extra}

    def end_to_end(self, *values: float) -> None:
        """The end-to-end metrics, one value each in END_TO_END order."""
        assert len(values) == len(END_TO_END)
        for (name, unit), value in zip(END_TO_END, values):
            self.metric(name, value, unit)

    def note(self, name: str, value: float, unit: str, detail: str = "") -> None:
        self.notes.append(f"{name} = {value:.6g} {unit}" + (f"  ({detail})" if detail else ""))


def _seed_for(seed: int, *index: int) -> int:
    """Stable 64-bit child seed of the benchmark seed."""
    s = seed & (2**64 - 1)
    for i in index:
        s = (s * 1_000_003 + i + 1) & (2**64 - 1)
    return s


# ---------------------------------------------------------------------------
# Machine speed
# ---------------------------------------------------------------------------

#: Median time of :func:`reference_loop_s` on the machine the bounds were set
#: on (2-CPU Xeon VM, Python 3.11.7, numpy 2.4.6).
REF_NOMINAL_S = 0.014


class _Point:
    __slots__ = ("a", "b")

    def __init__(self, a: int, b: float) -> None:
        self.a = a
        self.b = b


def reference_loop_s() -> float:
    """Time a fixed loop of Python objects, branches and numpy scalar draws.

    It shares no code with mmfuse, so no change to the package moves it; it
    only tracks how fast this machine runs such code right now.
    """
    import numpy as np

    start = clock()
    rng = np.random.Generator(np.random.PCG64(1))
    acc = 0.0
    seen: Dict[int, tuple] = {}
    for i in range(10_000):
        p = _Point(i, rng.random())
        if isinstance(p, _Point) and p.b < 0.5:
            acc += p.b
        seen[i & 63] = (p.a, acc)
    return clock() - start


class MachineSpeed:
    """Scales CPU-bound timings to the nominal machine.

    On a shared VM the same code runs up to 1.5x faster or slower from one
    minute to the next. The reference loop is timed before and after each
    measured phase; a phase's time times ``REF_NOMINAL_S`` over the mean of
    the two loop times reads as seconds on the nominal machine, which keeps
    run-to-run spread within the bounds. Process start-up (the interpreter,
    imports, fork and exec) does not track the loop, so set-up times are left
    raw. Every phase's raw time and loop times are kept for the run record.
    """

    def __init__(self) -> None:
        self.loops = [reference_loop_s()]
        self.phases: List[dict] = []

    def scale(self, phase: str, raw_s: float) -> float:
        """``raw_s`` seconds of the phase since the last call, in nominal seconds."""
        self.loops.append(reference_loop_s())
        before, after = self.loops[-2:]
        self.phases.append({"phase": phase, "raw_s": raw_s, "loop_s": [before, after]})
        return raw_s * REF_NOMINAL_S / ((before + after) / 2)

    def note(self, run: "Run") -> None:
        loop = statistics.median(self.loops)
        run.note(
            "machine_speed", REF_NOMINAL_S / loop, "x nominal",
            f"reference loop {loop * 1e3:.1f} ms, median of {len(self.loops)}",
        )
        run.raw["reference_nominal_s"] = REF_NOMINAL_S
        run.raw["phases"] = self.phases


# ---------------------------------------------------------------------------
# table4_mc
# ---------------------------------------------------------------------------

_SETUP_PROBE = (
    "import sys; sys.path.insert(0, sys.argv[1]); "
    "from mmfuse.harness import default_fusion_config; "
    "default_fusion_config(); print('ready', flush=True)"
)


def _probe_setup_s() -> float:
    """Process start until the package is imported and the config calibrated."""
    start = clock()
    proc = subprocess.run(
        [sys.executable, "-c", _SETUP_PROBE, str(SRC)],
        cwd=str(ROOT),
        capture_output=True,
        text=True,
        timeout=60,
    )
    elapsed = clock() - start
    if proc.returncode != 0 or proc.stdout.strip() != "ready":
        raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()}")
    return elapsed


def _within(errors: int, n: int, p: float) -> bool:
    """``errors / n`` lies within SE_MULTIPLE standard errors of rate ``p``."""
    se = (p * (1.0 - p) / n) ** 0.5
    return abs(errors / n - p) <= SE_MULTIPLE * se


class _Table4:
    def __init__(self, run: Run, seed: int, work: Path) -> None:
        from mmfuse import fusion, harness, report, vocab

        self.fusion, self.harness, self.report = fusion, harness, report
        self.ops = list(vocab.FUSION_OPERATIONS)
        self.run = run
        self.seed = seed
        self.work = work
        self.models = fusion.default_models()
        self.cfg = harness.default_fusion_config()
        # (label, expected rate) -> [errors, trials], pooled over the run
        self.pooled: Dict[Tuple[str, float], List[int]] = {}
        self.first_report: Optional[Dict[str, bytes]] = None
        self.first_report_seed = 0

    def fused_rate(self, op) -> float:
        g = self.models.gesture.error_rate(op.gesture)
        s = self.models.speech.error_rate(op.speech)
        return self.fusion.closed_form_fused_error(g, s, self.cfg.detection_prob(op))

    def episodes(self, r: int, tracer=None) -> int:
        """Round ``r`` of big stepped runs, every operation; episodes run."""
        episodes = 0
        for i, op in enumerate(self.ops):
            if tracer is not None:
                tracer.set_request(("fusion", r, i))
            bs = self.harness.run_fusion_experiment(
                op,
                blocks=BLOCKS,
                block_size=BLOCK_SIZE,
                cfg=self.cfg,
                seed=_seed_for(self.seed, 1, r),
                models=self.models,
            )
            self._pool(
                f"fused {op.label}", self.fused_rate(op), sum(bs.block_errors), bs.total_trials
            )
            episodes += bs.total_trials
        return episodes

    def _pool(self, label: str, rate: float, errors: int, trials: int) -> None:
        tally = self.pooled.setdefault((label, rate), [0, 0])
        tally[0] += errors
        tally[1] += trials

    def report_into(self, seed: int, out: Path):
        """Reference run at the CLI's default scale; report and chart into ``out``."""
        results = self.harness.run_reference_experiments(seed=seed, cfg=self.cfg)
        self.report.emit_report(results, out)
        self.report.emit_chart(results.fusion, out / "figure4_fused.svg")
        return results

    def reports(self, r: int, speed: MachineSpeed, tracer=None) -> List[float]:
        """Round ``r`` of default-scale reports; nominal seconds each.

        Each report is bracketed by the reference loop on its own, so a burst
        of load from outside shows in the loop as well as in the report.
        """
        times = []
        for m in range(REPORTS_PER_ROUND):
            if tracer is not None:
                tracer.set_request(("report", r, m))
            out = self.work / "report"
            start = clock()
            results = self.report_into(_seed_for(self.seed, 2, r, m), out)
            times.append(speed.scale("report", clock() - start))
            self.pool_reference(results)
            if self.first_report is None:
                self.first_report = _read_tree(out)
                self.first_report_seed = results.seed
        return times

    def round(self, r: int, speed: MachineSpeed, tracer=None):
        """Round ``r``: (episodes, their seconds, [report seconds]), nominal."""
        start = clock()
        episodes = self.episodes(r, tracer)
        episode_s = speed.scale("episodes", clock() - start)
        return episodes, episode_s, self.reports(r, speed, tracer)

    def pool_reference(self, results) -> None:
        """Add a reference run's rows to the pooled tallies."""
        for kind, table, model in (
            ("gesture", results.emg, self.models.gesture),
            ("speech", results.speech, self.models.speech),
        ):
            for row in table.rows:
                rate = model.error_rate(row.item)
                self._pool(f"{kind} {row.item.value}", rate, row.errors, row.trials)
        for op, bs in results.fusion.items():
            self._pool(
                f"reference fused {op.label}",
                self.fused_rate(op),
                sum(bs.block_errors),
                bs.total_trials,
            )

    def finish(self) -> None:
        """Check pooled rates against the models and closed form; determinism.

        Rows are pooled over the whole run, so the normal approximation
        behind the SE_MULTIPLE bound holds even for rare errors.
        """
        for (label, rate), (errors, trials) in sorted(self.pooled.items()):
            self.run.check(
                _within(errors, trials, rate),
                f"{label}: {errors}/{trials} errors, expected rate {rate:.5f}",
            )
        again = self.work / "again"
        self.report_into(self.first_report_seed, again)
        self.run.check(
            self.first_report is not None and _read_tree(again) == self.first_report,
            "same seed did not emit byte-identical report files",
        )


def _read_tree(path: Path) -> Dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(path.iterdir()) if p.is_file()}


def _round_s(measured) -> float:
    _, episode_s, report_s = measured
    return episode_s + sum(report_s)


def table4_mc(run: Run, seed: int, seconds: float, trace: bool, work: Path, tracer):
    if not trace:
        setup = [_probe_setup_s() for _ in range(SETUP_REPEATS)]
    speed = MachineSpeed()
    t4 = _Table4(run, seed, work)
    rates, reports = [], []
    if trace:
        # scaled seconds per episode and per report, untraced then traced
        n_rounds = max(2, round(seconds * TRACE_ROUNDS_PER_S))
        n_ref = max(1, round(n_rounds * TRACE_REFERENCE_SHARE))
        ref = [_round_s(t4.round(n_rounds + r, speed)) for r in range(n_ref)]
        from tracer import install_layers

        install_layers(tracer)
        t4.cfg = t4.harness.default_fusion_config()
        traced = [_round_s(t4.round(r, speed, tracer)) for r in range(n_rounds)]
        t4.finish()
        overhead = statistics.median(traced) / statistics.median(ref) - 1.0
        return {"trace.overhead_frac": overhead}

    deadline = clock() + seconds
    r = 0
    while r < 2 or clock() < deadline:
        episodes, episode_s, times = t4.round(r, speed)
        rates.append(episodes / episode_s)
        reports += times
        r += 1
    t4.finish()

    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    setup_s = statistics.median(setup)
    eps = statistics.median(rates)
    p50, p90 = percentile(reports, 50), percentile(reports, 90)
    run.end_to_end(setup_s, rss_mb, eps, p50 * 1e3, p90 * 1e3)
    speed.note(run)
    run.note("setup_s", setup_s, "s", f"median of {len(setup)} start-ups")
    run.note("peak_rss_mb", rss_mb, "MB", "benchmark process")
    raw = {
        phase: [p["raw_s"] for p in speed.phases if p["phase"] == phase]
        for phase in ("episodes", "report")
    }
    # every round runs the same number of episodes
    raw_eps = statistics.median(episodes / t for t in raw["episodes"])
    run.note("episodes_per_s", eps, "1/s nominal", f"median of {len(rates)} rounds")
    run.note("episodes_per_s_raw", raw_eps, "1/s", "unscaled, same rounds")
    run.note("report_s", p50, "s nominal", f"median of {len(reports)} reports")
    run.note("report_p90_s", p90, "s nominal", f"n={len(reports)}")
    run.note("report_s_raw", statistics.median(raw["report"]), "s", "unscaled, same reports")
    return {}


# ---------------------------------------------------------------------------
# wire workloads
# ---------------------------------------------------------------------------


def _start_server(run: Run):
    """Start the server SETUP_REPEATS times; keep the last one running.

    Returns the server and the median start-up time.
    """
    import loadgen

    ready = []
    for _ in range(SETUP_REPEATS - 1):
        with loadgen.ServerProcess() as probe:
            ready.append(probe.ready_s)
    server = loadgen.ServerProcess()
    ready.append(server.ready_s)
    setup_s = statistics.median(ready)
    run.note("setup_s", setup_s, "s", f"median of {SETUP_REPEATS} server start-ups")
    return server, setup_s


def _line_stats(line_times) -> dict:
    """First-reply, reply-spread and lateness samples (ms).

    ``line_times`` pairs each connection's LineTimes with its reply count per
    line; the spread is taken over lines answered with more than one reply.
    """
    first, spread, late = [], [], []
    for lt, replies in line_times:
        for i, last in enumerate(lt.last):
            if lt.sent[i] is not None:
                late.append((lt.sent[i] - lt.due[i]) * 1e3)
            if last is None:
                continue
            first.append((lt.first[i] - lt.sent[i]) * 1e3)
            if replies[i] > 1:
                spread.append((last - lt.first[i]) * 1e3)
    return {"first": first, "spread": spread, "late": late}


def _loadgen_metrics(stats: dict, connect_ms: List[float]) -> dict:
    out = {
        "loadgen.first_reply_p50_ms": percentile(stats["first"], 50),
        "loadgen.connect_p50_ms": percentile(connect_ms, 50),
        "loadgen.late_p99_ms": percentile(stats["late"], 99),
    }
    if stats["spread"]:
        out["loadgen.reply_spread_p50_ms"] = percentile(stats["spread"], 50)
    return out


def _stream_transcripts(seed: int, n_lines: int):
    import loadgen

    return [loadgen.stream_transcript(seed, c, n_lines) for c in range(CONNECTIONS)]


def _check_shapes(run: Run, seen: set) -> None:
    import loadgen

    run.check(
        seen == set(loadgen.SHAPES),
        f"transcripts cover {sorted(seen)}, not all of {list(loadgen.SHAPES)}",
    )


def _stream_once(
    run: Run, server, transcripts, pipelined: bool = False, threads: Optional[list] = None
):
    import loadgen

    before = server.stats()
    on_hello = (lambda: threads.append(server.threads())) if threads is not None else None
    res = loadgen.run_stream(server.port, transcripts, pipelined, READ_TIMEOUT_S, on_hello)
    after = server.stats()
    total = sum(len(tr.lines) for tr in transcripts)
    run.tally(total, total - res.answered(), "; ".join(res.errors[:3]))
    return res, before, after


def _answered_rate(res) -> float:
    """Lines answered per second, from the first line due to the last reply."""
    last = [t for lt in res.conns for t in lt.last if t is not None]
    start = min(lt.due[0] for lt in res.conns)
    return len(last) / (max(last) - start) if last else 0.0


def _pipelined_cpu(run: Run, server, bulk) -> float:
    """Server CPU seconds per line over TRACE_PIPELINE_ROUNDS pipelined rounds."""
    cpu = 0.0
    for _ in range(TRACE_PIPELINE_ROUNDS):
        _, before, after = _stream_once(run, server, bulk, pipelined=True)
        cpu += after["cpu_s"] - before["cpu_s"]
    return cpu / (TRACE_PIPELINE_ROUNDS * sum(len(t.lines) for t in bulk))


def wire_stream(run: Run, seed: int, seconds: float, trace: bool, work: Path, tracer):
    import loadgen

    n_lines = max(4, round(seconds * STREAM_LINES_PER_S))
    transcripts = _stream_transcripts(_seed_for(seed, 3), n_lines)
    _check_shapes(run, loadgen.shapes_seen(transcripts))

    bulk = _stream_transcripts(_seed_for(seed, 7), PIPELINE_LINES)
    if trace:
        with loadgen.ServerProcess() as server:
            ref_cpu = _pipelined_cpu(run, server, bulk)
        threads: List[int] = []
        with loadgen.ServerProcess(spans=work / "server-spans.jsonl") as server:
            res, _, _ = _stream_once(run, server, transcripts, threads=threads)
            cpu = _pipelined_cpu(run, server, bulk)
            a = server.stats()
        _record_loadgen_spans(tracer, res.conns)
        stats = _line_stats(
            zip(res.conns, ([len(g) for g in t.replies] for t in transcripts))
        )
        derived = _loadgen_metrics(stats, [s * 1e3 for s in res.connect_s])
        derived.update(
            {
                "server.cpu_us_per_line": ref_cpu * 1e6,
                "server.threads_peak": max(threads) if threads else 0,
                "trace.overhead_frac": cpu / ref_cpu - 1.0,
                "_server": a,
            }
        )
        return derived

    server, setup_s = _start_server(run)
    try:
        deadline = clock() + seconds
        res, _, _ = _stream_once(run, server, transcripts)
        speed = MachineSpeed()
        rates, raw_rates = [], []
        while len(rates) < MIN_PIPELINE_ROUNDS or clock() < deadline:
            piped, _, after = _stream_once(run, server, bulk, pipelined=True)
            raw = _answered_rate(piped)
            raw_rates.append(raw)
            rates.append(1.0 / speed.scale("pipelined", 1.0 / raw) if raw else 0.0)
    finally:
        server.stop()
    lat = [
        (last - lt.due[i]) * 1e3
        for lt in res.conns
        for i, last in enumerate(lt.last)
        if last is not None
    ] or [float("nan")]  # nothing answered: the run has failed
    rate = _answered_rate(res)
    rss_mb = after["maxrss_kb"] / 1024.0
    p50, p90, p99 = (percentile(lat, q) for q in (50, 90, 99))
    run.end_to_end(setup_s, rss_mb, rate, p50, p90)
    speed.note(run)
    run.raw["pipelined_lines_per_s"] = raw_rates
    run.note("peak_rss_mb", rss_mb, "MB", "server process")
    run.note("lines_per_s", rate, "1/s", f"closed loop, {len(lat)} lines, {CONNECTIONS} connections")
    run.note("line_p50_ms", p50, "ms", f"closed loop, send to last reply, n={len(lat)}")
    run.note("line_p90_ms", p90, "ms", f"n={len(lat)}")
    run.note("line_p99_ms", p99, "ms", f"n={len(lat)}, printed only: too unsteady to bound")
    run.note(
        "pipelined_lines_per_s", statistics.median(rates), "1/s nominal",
        f"median of {len(rates)} rounds of {sum(len(t.lines) for t in bulk)} lines; "
        "printed only: too unsteady to bound",
    )
    run.note("pipelined_lines_per_s_raw", statistics.median(raw_rates), "1/s", "unscaled, same rounds")
    return {}


def _record_loadgen_spans(tracer, conns) -> None:
    for c, lt in enumerate(conns):
        for i, last in enumerate(lt.last):
            if last is not None:
                tracer.record("loadgen.line", lt.due[i], last, (c, i))


def wire_churn(run: Run, seed: int, seconds: float, trace: bool, work: Path, tracer):
    import loadgen

    churn_seed = _seed_for(seed, 5)
    if trace:
        with loadgen.ServerProcess() as server:
            b = server.stats()
            ref = loadgen.run_churn(
                server.port,
                _seed_for(seed, 6),
                CHURN_CLIENTS,
                READ_TIMEOUT_S,
                deadline=clock() + seconds * TRACE_REFERENCE_SHARE,
            )
            a = server.stats()
        _check_sessions(run, ref)
        ref_cpu = (a["cpu_s"] - b["cpu_s"]) / max(1, len(ref.sessions))
        threads: List[int] = []
        with loadgen.ServerProcess(spans=work / "server-spans.jsonl") as server:
            b = server.stats()
            res = loadgen.run_churn(
                server.port,
                churn_seed,
                CHURN_CLIENTS,
                READ_TIMEOUT_S,
                per_client=max(1, round(seconds * TRACE_SESSIONS_PER_S_PER_CLIENT)),
                on_hello=lambda: threads.append(server.threads()),
            )
            a = server.stats()
        _check_sessions(run, res)
        cpu = a["cpu_s"] - b["cpu_s"]
        n_lines = sum(len(s.lines.due) for s in res.sessions)
        for k, s in enumerate(res.sessions):
            tracer.record("loadgen.session", s.start, s.end, (k,))
        stats = _line_stats((s.lines, s.replies) for s in res.sessions)
        derived = _loadgen_metrics(stats, [s.connect_s * 1e3 for s in res.sessions])
        derived.update(
            {
                "server.cpu_us_per_line": cpu / max(1, n_lines) * 1e6,
                "server.threads_peak": max(threads) if threads else 0,
                "trace.overhead_frac": (cpu / max(1, len(res.sessions))) / ref_cpu - 1.0,
                "_server": a,
            }
        )
        return derived

    server, setup_s = _start_server(run)
    try:
        start = clock()
        res = loadgen.run_churn(
            server.port, churn_seed, CHURN_CLIENTS, READ_TIMEOUT_S, deadline=start + seconds
        )
        elapsed = max(s.end for s in res.sessions) - start if res.sessions else seconds
        after = server.stats()
    finally:
        server.stop()
    _check_sessions(run, res)
    times = [(s.end - s.start) * 1e3 for s in res.sessions]
    rate = len(times) / elapsed
    rss_mb = after["maxrss_kb"] / 1024.0
    p50, p90 = percentile(times, 50), percentile(times, 90)
    run.end_to_end(setup_s, rss_mb, rate, p50, p90)
    run.note("peak_rss_mb", rss_mb, "MB", "server process")
    run.note("sessions_per_s", rate, "1/s", f"{len(times)} sessions, {CHURN_CLIENTS} clients")
    run.note("session_p50_ms", p50, "ms", f"connect to BYE echoed, n={len(times)}")
    run.note("session_p90_ms", p90, "ms", f"n={len(times)}")
    return {}


def _check_sessions(run: Run, res) -> None:
    run.tally(res.attempted, res.attempted - len(res.sessions), "; ".join(res.errors[:3]))
    _check_shapes(run, res.shapes)


# ---------------------------------------------------------------------------
# Per-layer metrics, run record, output
# ---------------------------------------------------------------------------


def _layer_metrics(run: Run, totals: Dict[str, list], absent: Sequence[str], derived: dict) -> None:
    """Every per-layer metric: hooks never reached read 0, gone ones absent."""
    from tracer import FIELD_INDEX, LAYER_HOOKS

    for _, layer, fields in LAYER_HOOKS:
        for field in fields:
            value = totals.get(layer, [0, 0.0, 0.0])[FIELD_INDEX[field]]
            unit = "count" if field == "calls" else "s"
            extra = {"absent": True} if layer in absent else {}
            run.metric(f"{layer}.{field}", value, unit, **extra)
    episodes = totals.get("fusion.run_episode", [0])[0]
    if episodes:
        derived["fusion.steps_per_episode"] = totals.get("fusion.step", [0])[0] / episodes
    for metric, unit in DERIVED_METRICS:
        run.metric(metric, derived.get(metric, 0), unit)
    for metric, entry in run.metrics.items():
        mark = "  (absent: hook target gone)" if entry.get("absent") else ""
        run.notes.append(f"{metric} = {entry['value']:.6g} {entry['unit']}{mark}")


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _src_lines() -> int:
    return sum(
        len(p.read_text(encoding="utf-8").splitlines()) for p in sorted(SRC.rglob("*.py"))
    )


def run_record(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    import numpy

    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "src_lines": _src_lines(),
        "workloads": WORKLOADS,
    }


RUNNERS = {"table4_mc": table4_mc, "wire_stream": wire_stream, "wire_churn": wire_churn}


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """Run one workload; print its lines; return the result object."""
    record = run_record(workload, seed, seconds, trace)
    print(f"# {workload}: {WORKLOADS[workload]}")
    print(
        f"# seed {seed}, {seconds:g} s, trace {int(trace)}, {record['nproc']} CPUs "
        f"({record['cpu_model']}), Python {record['python']}, numpy {record['numpy']}, "
        f"src {record['src_lines']} lines"
    )
    run = Run()
    tracer = None
    if trace:
        from tracer import Tracer

        tracer = Tracer()
    OUT.mkdir(parents=True, exist_ok=True)
    stem = f"{workload}-seed{seed}-trace{int(trace)}"
    with tempfile.TemporaryDirectory(prefix=".work-", dir=str(BENCH)) as tmp:
        work = Path(tmp)
        derived = RUNNERS[workload](run, seed, seconds, trace, work, tracer)
        if trace:
            server = derived.pop("_server", {})
            totals = tracer.totals()
            for layer, agg in server.get("totals", {}).items():
                mine = totals.setdefault(layer, [0, 0.0, 0.0])
                for k in range(3):
                    mine[k] += agg[k]
            absent = set(tracer.absent) | set(server.get("absent", ()))
            _layer_metrics(run, totals, absent, derived)
            tracer.write(OUT / f"{stem}-spans.jsonl")
            if (work / "server-spans.jsonl").exists():
                shutil.copyfile(work / "server-spans.jsonl", OUT / f"{stem}-server-spans.jsonl")
    failed_frac = run.failed / run.attempted if run.attempted else 1.0
    run.note("failed_frac", failed_frac, "frac", f"{run.failed} of {run.attempted} failed")
    for line in run.notes:
        print(line)
    for err in run.errors[:10]:
        print(f"FAILED: {err}")
    result = {
        "correct": run.failed == 0 and run.attempted > 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": run.metrics,
    }
    (OUT / f"{stem}.json").write_text(
        json.dumps(
            {"record": record, "errors": run.errors, "raw": run.raw, "result": result}, indent=2
        ) + "\n",
        encoding="utf-8",
    )
    return result


def run_all(seed: int, seconds: float, trace: bool) -> dict:
    """Each workload in its own process; metrics keyed ``workload.metric``."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", str(int(trace))],
            cwd=str(ROOT),
            stdout=subprocess.PIPE,
            text=True,
            timeout=600,
        )
        lines = proc.stdout.splitlines()
        if proc.returncode != 0 or not lines:
            raise RuntimeError(f"{workload} exited with code {proc.returncode}")
        for line in lines[:-1]:
            print(line)
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, entry in result["metrics"].items():
            combined["metrics"][f"{workload}.{name}"] = entry
    return combined


def main(argv: Optional[Sequence[str]] = None) -> int:
    ap = argparse.ArgumentParser(description="mmfuse benchmark")
    ap.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    try:
        _import_package()
    except (MissingSource, ImportError) as e:
        print(f"bench: cannot benchmark this checkout: {e}", file=sys.stderr)
        return 2
    if args.workload == "all":
        result = run_all(args.seed, args.seconds, bool(args.trace))
    else:
        result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
