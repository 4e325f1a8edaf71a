#!/usr/bin/env python3
"""agcodec benchmark: seeded, single-threaded, closed-loop workloads.

Run from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

``--trace 0`` measures the end-to-end metrics with nothing instrumented.
Times are reported at reference speed (see ``Sampler``), wall-clock times
beside them in the summary lines.
``--trace 1`` is a separate pass that wraps the library's public functions
(see ``tracer.py``), records spans in memory, writes them to
``perfbench/out/spans-<workload>.tsv.gz`` and reports the per-layer
metrics.  The metric names are listed in ``BENCHMARK.json``.

Every run, timed or traced, goes through the correctness gate: each decode
is checked against the message that was sent, and a fixed set of CLI
calls on the bundled q=3 fixture is checked against the golden trace, the
zero message and the closed-form radius.  Human-readable lines go first on
standard output; the last line is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code is 0
only when no check failed and no operation raised.
"""

from __future__ import annotations

import argparse
import bisect
import dataclasses
import gc
import io
import json
import random
import resource
import signal
import statistics
import sys
import tempfile
import time
import traceback
from contextlib import contextmanager, redirect_stderr, redirect_stdout
from pathlib import Path
from typing import Callable, Iterator, Optional, Sequence

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
FIXTURES = ROOT / "tests" / "fixtures"
CONFIG_Q3 = FIXTURES / "hermitian_q3_u16.json"
VECTOR_Q3 = FIXTURES / "received_vector_q3.txt"
GOLDEN_TRACE_Q3 = FIXTURES / "trace_q3_golden.txt"
OUT_DIR = BENCH_DIR / "out"

# The q=3 fixture code, which every CLI call in the benchmark uses.
CLI_Q, CLI_U = 3, 16
#: Trials of the run's one ``simulate`` call.
SIMULATE_TRIALS = 100
#: Ops run untraced and traced, in alternation, to measure tracing overhead:
#: two CLI rounds on cli-q3-mixed, ten decodes elsewhere.
OVERHEAD_OPS = 10
#: Fewest samples the timed loop and the CLI gate collect, so that at least
#: ten lie beyond each p90.
MIN_SAMPLES = 100

Interval = tuple[int, int]  # perf_counter_ns() at start and end of a call


@dataclasses.dataclass(frozen=True)
class Spec:
    """One workload.

    ``q``/``u`` name the Hermitian code the library loop decodes with; with
    ``q`` None the timed loop is CLI calls on the q=3 fixture instead.
    ``weights`` are the error weights cycled through (None: exactly the
    guaranteed radius t = (d-1)//2).  After the loop every run makes the
    CLI rounds in ``gate_weights`` and one ``simulate``.
    """

    name: str
    q: Optional[int]
    u: int
    weights: Optional[tuple[int, ...]]
    setup_repeats: int
    # twenty CLI rounds of five calls: MIN_SAMPLES cli_ms samples
    gate_weights: tuple[int, ...] = tuple(w % 8 for w in range(20))


WORKLOADS = {
    spec.name: spec for spec in (
        Spec("decode-q4", q=4, u=30, weights=None, setup_repeats=3),
        Spec("build-q5", q=5, u=60, weights=(0, 1, 2, 3, 4), setup_repeats=3),
        Spec("cli-q3-mixed", q=None, u=CLI_U, weights=tuple(range(8)),
             setup_repeats=7, gate_weights=()),
    )
}


class GateFailure(Exception):
    """An output of the library or the CLI failed a correctness check."""


# ---------------------------------------------------------------------------
# Inputs
# ---------------------------------------------------------------------------

def random_message(code, rng: random.Random) -> tuple:
    elems = code.field.elements()
    return tuple(elems[rng.randrange(len(elems))] for _ in range(code.k))


def corrupt(code, word: Sequence, weight: int, rng: random.Random) -> tuple:
    """``word`` with exactly ``weight`` symbols changed by random nonzero
    amounts at random positions."""
    elems = code.field.elements()
    out = list(word)
    for pos in rng.sample(range(code.n), weight):
        out[pos] = out[pos] + elems[rng.randrange(1, len(elems))]
    return tuple(out)


def radius(code) -> int:
    return (code.decoding_distance() - 1) // 2


# ---------------------------------------------------------------------------
# The correctness gate.  Each check returns None or the reason it failed.
# ---------------------------------------------------------------------------

def check_decode(code, sent: Sequence, received: Sequence, weight: int,
                 message: Sequence, status: str) -> Optional[str]:
    """Within the radius the sent message must come back with status ok or
    low-confidence; beyond it any status but failed-verification needs a
    re-encoding within the radius of the received word."""
    from agcodec.decoder import (STATUS_FAILED, STATUS_LOW_CONFIDENCE,
                                 STATUS_OK, hamming_distance)

    t = radius(code)
    if weight <= t:
        if tuple(message) != tuple(sent):
            return f"weight {weight} <= {t}: decoded message differs"
        if status not in (STATUS_OK, STATUS_LOW_CONFIDENCE):
            return f"weight {weight} <= {t}: status {status}"
        return None
    distance = hamming_distance(code.encode(message), received)
    if status == STATUS_FAILED:
        if distance <= t:
            return ("failed-verification but re-encoding at distance "
                    f"{distance}")
    elif distance > t:
        return f"status {status} but re-encoding at distance {distance} > {t}"
    return None


def check_trace(text: str) -> Optional[str]:
    if text.encode("utf-8") != GOLDEN_TRACE_Q3.read_bytes():
        return "trace output differs from the golden trace"
    return None


def check_zero_message(code, text: str) -> Optional[str]:
    from agcodec.code import parse_vector

    message = parse_vector(code.field, text, expect_length=code.k)
    if any(not e.is_zero for e in message):
        return "bundled vector did not decode to the zero message"
    return None


def check_radius(text: str) -> Optional[str]:
    from agcodec.code import hermitian_decoding_distance

    rows = [line.split() for line in text.splitlines()
            if line and not line.startswith("#")]
    if not rows:
        return "radius printed no rows"
    for u, d in rows:
        if int(d) != hermitian_decoding_distance(CLI_Q, int(u)):
            return f"radius row u={u}: d={d}, closed form differs"
    return None


def check_simulate(text: str, trials: int) -> Optional[str]:
    if f"successes={trials} failures=0" not in text:
        return "simulate at the guaranteed radius reported failures"
    return None


def require(reason: Optional[str]) -> None:
    if reason is not None:
        raise GateFailure(reason)


# ---------------------------------------------------------------------------
# Machine speed.  On a shared host the speed of pure-Python work can drop to
# half as other tenants come and go on the same cores, for seconds to
# minutes at a time, so raw times of identical runs differ by more than any
# useful regression bound (see README.md).  A fixed pure-Python probe slows
# down with the library: while the benchmark runs, a timer signal runs it every
# PROBE_INTERVAL_S, and every measured interval is converted to reference
# speed by scaling each stretch of it by REFERENCE_PROBE_S / (the probe
# time measured next to it, median of SMOOTH probes).  The probes' own time
# is left out of every interval, wall-clock figures included.
# ---------------------------------------------------------------------------

PROBE_KEYS = 6000
PROBE_INTERVAL_S = 0.05
SMOOTH = 3
#: Probe time on a 2-core Xeon VM at 2.1 GHz under Python 3.11 when no other
#: tenant is busy; it only fixes the scale of the reported times.
REFERENCE_PROBE_S = 0.0016


def probe_work() -> None:
    """The probe: dict updates under small tuple keys, the kind of work the
    library's sparse polynomials do.  (A plain integer loop slows down less
    than the library when the host is busy and corrects only half as well.)
    """
    table: dict[tuple[int, int], int] = {}
    for i in range(PROBE_KEYS):
        key = (i % 97, i % 13)
        prev = table.get(key)
        table[key] = i if prev is None else prev ^ i
        if i % 5 == 0:
            table.pop((i % 89, i % 11), None)


class Sampler:
    """Samples the machine's speed; converts intervals to seconds."""

    def __init__(self) -> None:
        self.starts: list[int] = []
        self.ends: list[int] = []
        self.factors: list[float] = []
        self._busy = False

    def probe(self, *_signal) -> None:
        """Time one probe, with the garbage collector off so that the size
        of the library's heap cannot reach the probe through a collection."""
        if self._busy:
            return
        self._busy = True
        collecting = gc.isenabled()
        gc.disable()
        started = time.perf_counter_ns()
        probe_work()
        self.starts.append(started)
        self.ends.append(time.perf_counter_ns())
        if collecting:
            gc.enable()
        self._busy = False

    @contextmanager
    def running(self):
        """Probe every PROBE_INTERVAL_S while the block runs."""
        for _ in range(SMOOTH):
            self.probe()
        previous = signal.signal(signal.SIGALRM, self.probe)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S,
                         PROBE_INTERVAL_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
            for _ in range(SMOOTH):
                self.probe()
            probes = [e - s for s, e in zip(self.starts, self.ends)]
            half = SMOOTH // 2
            self.factors = [
                REFERENCE_PROBE_S * 1e9
                / statistics.median(probes[max(0, i - half):i + half + 1])
                for i in range(len(probes))]

    def seconds(self, start: int, end: int) -> tuple[float, float]:
        """(reference-speed, wall) seconds of an interval, probes left out.

        Each stretch between probes takes the factor of the probe after it.
        """
        ref = wall = 0.0
        t = start
        i = bisect.bisect_right(self.ends, start)
        while i < len(self.starts) and self.starts[i] < end:
            if self.starts[i] > t:
                ref += (self.starts[i] - t) * self.factors[i]
                wall += self.starts[i] - t
            t = max(t, self.ends[i])
            i += 1
        if end > t:
            ref += (end - t) * self.factors[min(i, len(self.factors) - 1)]
            wall += end - t
        return ref / 1e9, wall / 1e9

    def convert(self, intervals: Sequence[Interval]
                ) -> tuple[list[float], list[float]]:
        """Reference-speed and wall seconds of each interval."""
        pairs = [self.seconds(a, b) for a, b in intervals]
        return [r for r, _ in pairs], [w for _, w in pairs]


# ---------------------------------------------------------------------------
# Operations.  An Op is one request of the closed loop: ``run`` performs it,
# checks its output and returns the interval of the library or CLI call.
# ---------------------------------------------------------------------------

@dataclasses.dataclass
class Op:
    kind: str  # "decode", "cli" or "simulate"
    run: Callable[[], Interval]


class Context:
    """What the set-up built and what the runs share."""

    def __init__(self, spec: Spec, seed: int, workdir: Path) -> None:
        self.spec = spec
        self.seed = seed
        self.workdir = workdir
        self.code = None       # the library loop's code (q set)
        self.cli_code = None   # the q=3 fixture code, for checking the CLI

    def path(self, name: str) -> Path:
        return self.workdir / name


def build_codes(spec: Spec) -> list:
    """Construct every code the workload's library calls use."""
    from agcodec.code import Code, code_from_config
    from agcodec.curvering import Curve

    if spec.q is not None:
        codes = [Code(Curve.hermitian(spec.q), spec.u)]
    else:
        cfg = json.loads(CONFIG_Q3.read_text(encoding="utf-8"))
        codes = [code_from_config(cfg),
                 Code(Curve.hermitian(CLI_Q), CLI_U)]  # what simulate builds
    for code in codes:
        code.decoding_distance()
    return codes


def fixture_code():
    from agcodec.code import code_from_config

    return code_from_config(json.loads(CONFIG_Q3.read_text(encoding="utf-8")))


def decode_inputs(code, weights: Optional[Sequence[int]],
                  rng: random.Random) -> Iterator[tuple[tuple, tuple, int]]:
    """(sent message, received word, error weight) triples; the error
    weights cycle through ``weights`` (default: the guaranteed radius)."""
    weights = weights or (radius(code),)
    i = 0
    while True:
        weight = weights[i % len(weights)]
        i += 1
        sent = random_message(code, rng)
        yield sent, corrupt(code, code.encode(sent), weight, rng), weight


def decode_ops(ctx: Context, rng: random.Random) -> Iterator[Op]:
    """Library decodes of fresh random messages."""
    from agcodec import decoder

    code = ctx.code
    for sent, received, weight in decode_inputs(code, ctx.spec.weights, rng):

        def run(sent=sent, received=received, weight=weight) -> Interval:
            started = time.perf_counter_ns()
            result = decoder.decode(code, received)
            interval = (started, time.perf_counter_ns())
            require(check_decode(code, sent, received, weight,
                                 result.message, result.status))
            return interval

        yield Op("decode", run)


def call_cli(argv: Sequence[str]) -> tuple[int, str, Interval]:
    """One in-process ``agcodec.cli.main`` call: (exit code, stdout,
    interval)."""
    from agcodec import cli

    out, err = io.StringIO(), io.StringIO()
    started = time.perf_counter_ns()
    with redirect_stdout(out), redirect_stderr(err):
        rc = cli.main(list(argv))
    interval = (started, time.perf_counter_ns())
    if rc not in (0, 2):
        raise GateFailure(f"agcodec {argv[0]} exited {rc}: "
                          f"{err.getvalue().strip()}")
    return rc, out.getvalue(), interval


def cli_round(ctx: Context, rng: random.Random, weight: int) -> Iterator[Op]:
    """Five CLI calls: encode a random message, decode it with ``weight``
    errors, trace and decode the bundled vector, and the radius table."""
    from agcodec.code import format_vector, parse_vector
    from agcodec.decoder import STATUS_FAILED

    code = ctx.cli_code
    config = str(CONFIG_Q3)
    msg_file, cw_file = ctx.path("message.txt"), ctx.path("codeword.txt")
    rx_file, out_file = ctx.path("received.txt"), ctx.path("decoded.txt")
    trace_file, rad_file = ctx.path("trace.txt"), ctx.path("radius.txt")
    sent = random_message(code, rng)
    error_rng = random.Random(rng.getrandbits(64))

    def encode() -> Interval:
        msg_file.write_text(format_vector(sent) + "\n", encoding="utf-8")
        _, _, interval = call_cli(["encode", "--code", config,
                                   "--in", str(msg_file),
                                   "--out", str(cw_file)])
        word = parse_vector(code.field, cw_file.read_text(encoding="utf-8"))
        if word != code.encode(sent):
            raise GateFailure("CLI encode differs from Code.encode")
        received = corrupt(code, word, weight, error_rng)
        rx_file.write_text(format_vector(received) + "\n", encoding="utf-8")
        return interval

    def decode() -> Interval:
        received = parse_vector(code.field,
                                rx_file.read_text(encoding="utf-8"))
        rc, out, interval = call_cli(["decode", "--code", config,
                                      "--in", str(rx_file),
                                      "--out", str(out_file)])
        status = out.strip().removeprefix("status: ")
        if (rc == 2) != (status == STATUS_FAILED):
            raise GateFailure(f"decode exit code {rc} with status {status}")
        message = parse_vector(code.field,
                               out_file.read_text(encoding="utf-8"))
        require(check_decode(code, sent, received, weight, message, status))
        return interval

    def trace() -> Interval:
        _, _, interval = call_cli(["trace", "--code", config,
                                   "--in", str(VECTOR_Q3),
                                   "--trace-out", str(trace_file)])
        require(check_trace(trace_file.read_text(encoding="utf-8")))
        return interval

    def decode_bundled() -> Interval:
        rc, _, interval = call_cli(["decode", "--code", config,
                                    "--in", str(VECTOR_Q3),
                                    "--out", str(out_file)])
        if rc != 0:
            raise GateFailure(f"bundled vector: exit code {rc}")
        require(check_zero_message(code, out_file.read_text(encoding="utf-8")))
        return interval

    def radius_table() -> Interval:
        _, _, interval = call_cli(["radius", "--code", config,
                                   "--out", str(rad_file)])
        require(check_radius(rad_file.read_text(encoding="utf-8")))
        return interval

    for fn in (encode, decode, trace, decode_bundled, radius_table):
        yield Op("cli", fn)


def cli_ops(ctx: Context, rng: random.Random,
            weights: Sequence[int], repeat: bool) -> Iterator[Op]:
    while True:
        for weight in weights:
            yield from cli_round(ctx, rng, weight)
        if not repeat:
            return


def simulate_op(ctx: Context) -> Op:
    trials = SIMULATE_TRIALS
    sim_file = ctx.path("simulate.txt")

    def run() -> Interval:
        _, _, interval = call_cli(
            ["simulate", "--hermitian-q", str(CLI_Q), "--u", str(CLI_U),
             "--trials", str(trials), "--weight", "5",
             "--seed", str(ctx.seed), "--out", str(sim_file)])
        require(check_simulate(sim_file.read_text(encoding="utf-8"), trials))
        return interval

    return Op("simulate", run)


def loop_ops(ctx: Context) -> Iterator[Op]:
    """The workload's timed closed loop; the same seed gives the same ops."""
    rng = random.Random(f"{ctx.spec.name}:{ctx.seed}:loop")
    if ctx.spec.q is not None:
        return decode_ops(ctx, rng)
    return cli_ops(ctx, rng, ctx.spec.weights, repeat=True)


def gate_ops(ctx: Context) -> Iterator[Op]:
    """The CLI checks every run ends with, then the run's one simulate."""
    rng = random.Random(f"{ctx.spec.name}:{ctx.seed}:gate")
    yield from cli_ops(ctx, rng, ctx.spec.gate_weights, repeat=False)
    yield simulate_op(ctx)


# ---------------------------------------------------------------------------
# Running
# ---------------------------------------------------------------------------

class Runner:
    """Runs ops, keeping each one's interval by kind and counting attempts
    and failures."""

    def __init__(self, tracer=None) -> None:
        self.tracer = tracer
        self.attempted = 0
        self.failed = 0
        self.intervals: dict[str, list[Interval]] = {}
        self.errors: list[str] = []

    def run(self, op: Op, phase: str) -> None:
        self.attempted += 1
        if self.tracer is not None:
            self.tracer.start_op(phase, op.kind)
        try:
            interval = op.run()
        except Exception as exc:  # a failed op is counted, not fatal
            self.fail(f"{phase} {op.kind}: " + (
                str(exc) if isinstance(exc, GateFailure)
                else traceback.format_exc()))
            return
        self.intervals.setdefault(op.kind, []).append(interval)

    def fail(self, reason: str) -> None:
        self.failed += 1
        if len(self.errors) < 5:
            self.errors.append(reason)

    def run_for(self, ops: Iterator[Op], seconds: float, phase: str,
                samples: Optional[list] = None) -> Interval:
        """Closed loop: the next op starts when the previous one ends, for
        ``seconds`` and, while no op has failed, until ``samples`` (when
        given) holds MIN_SAMPLES entries.  Returns the loop's interval,
        input generation and checks included."""
        started = time.perf_counter_ns()
        deadline = started + int(seconds * 1e9)
        done = 0
        while done < 2 or time.perf_counter_ns() < deadline or (
                samples is not None and len(samples) < MIN_SAMPLES
                and not self.failed):
            op = next(ops, None)
            if op is None:
                break
            self.run(op, phase)
            done += 1
        return started, time.perf_counter_ns()

    def run_all(self, ops: Iterator[Op], phase: str) -> None:
        for op in ops:
            self.run(op, phase)


def setup(spec: Spec, runner: Runner,
          repeats: Optional[int] = None) -> tuple[list, list[Interval]]:
    """Build the workload's codes ``repeats`` times; keep the last build."""
    intervals = []
    codes: list = []
    tracer = runner.tracer
    for _ in range(repeats or spec.setup_repeats):
        runner.attempted += 1
        if tracer is not None:
            tracer.start_op("setup", "setup")
        build = build_codes if tracer is None else \
            tracer.timed("bench.setup", build_codes)
        started = time.perf_counter_ns()
        codes = build(spec)
        intervals.append((started, time.perf_counter_ns()))
    return codes, intervals


def attach(spec: Spec, ctx: Context, codes: list) -> None:
    if spec.q is not None:
        ctx.code = codes[0]
        ctx.cli_code = fixture_code()
    else:
        ctx.cli_code = codes[0]


def percentile(values: Sequence[float], pct: int) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def timings(seconds: dict[str, list[float]]) -> dict:
    """The end-to-end timing metrics from seconds on one scale, by kind:
    setup builds, decodes, the loop, CLI calls and simulate."""
    ms = [1000.0 * t for t in seconds["decode"]]
    cms = [1000.0 * t for t in seconds["cli"]]
    return {
        "setup_s": metric(statistics.median(seconds["setup"]), "s"),
        "decode_ms.p50": metric(statistics.median(ms), "ms"),
        "decode_ms.p90": metric(percentile(ms, 90), "ms"),
        "decode_words_per_s": metric(len(ms) / seconds["loop"][0], "1/s"),
        "cli_ms.p50": metric(statistics.median(cms), "ms"),
        "cli_ms.p90": metric(percentile(cms, 90), "ms"),
        "simulate_s": metric(seconds["simulate"][0], "s"),
    }


def timed_pass(spec: Spec, seed: int, seconds: float, workdir: Path,
               sampler: Sampler) -> tuple[Runner, dict]:
    """The untraced pass: every end-to-end metric."""
    from agcodec import cli

    runner = Runner()
    ctx = Context(spec, seed, workdir)
    cli_decodes: list[Interval] = []
    restore = cli.decode

    def timed_decode(*args, **kwargs):
        started = time.perf_counter_ns()
        try:
            return restore(*args, **kwargs)
        finally:
            cli_decodes.append((started, time.perf_counter_ns()))

    with sampler.running():
        codes, builds = setup(spec, runner)
        attach(spec, ctx, codes)
        if spec.q is None:
            # decode() latency inside the CLI: one clock pair per call
            cli.decode = timed_decode
        decodes = cli_decodes if spec.q is None else \
            runner.intervals.setdefault("decode", [])
        try:
            loop = runner.run_for(loop_ops(ctx), seconds, "loop", decodes)
        finally:
            cli.decode = restore
        runner.run_all(gate_ops(ctx), "gate")

    if not decodes or "cli" not in runner.intervals \
            or "simulate" not in runner.intervals:
        runner.fail("no successful decode, CLI or simulate call")
        return runner, {}
    ref_s, wall_s = {}, {}
    for key, intervals in (("setup", builds), ("decode", decodes),
                           ("loop", [loop]), ("cli", runner.intervals["cli"]),
                           ("simulate", runner.intervals["simulate"])):
        ref_s[key], wall_s[key] = sampler.convert(intervals)
    ref, wall = timings(ref_s), timings(wall_s)
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    ref["peak_rss_mb"] = metric(rss_kb / 1024.0, "MB")
    samples = {"setup_s": len(builds), "decode_ms": len(decodes),
               "decode_words_per_s": len(decodes),
               "cli_ms": len(runner.intervals["cli"]),
               "simulate_s": len(runner.intervals["simulate"])}
    return runner, {"metrics": ref, "wall": wall, "samples": samples}


def traced_pass(spec: Spec, seed: int, seconds: float, workdir: Path,
                sampler: Sampler, out_dir: Path) -> tuple[Runner, dict]:
    """The traced pass: every per-layer metric, from spans."""
    from tracer import END, START, Tracer
    import layers

    tracer = Tracer()
    runner = Runner(tracer)
    plain, traced = Runner(), Runner(tracer)
    ctx = Context(spec, seed, workdir)
    pair_ctx = [Context(spec, seed, workdir / name)
                for name in ("plain", "traced")]
    with sampler.running():
        micro = layers.gf_microbench(spec, seed)
        with tracer.installed():
            codes, _ = setup(spec, runner, repeats=1)
        for c in (ctx, *pair_ctx):
            c.workdir.mkdir(exist_ok=True)
            attach(spec, c, codes)
        # tracing overhead: the loop's first ops, untraced and traced in
        # alternation, so that both sides see the same machine speed
        plain_ops, traced_ops = (loop_ops(c) for c in pair_ctx)
        for _ in range(OVERHEAD_OPS):
            plain.run(next(plain_ops), "overhead")
            with tracer.installed():
                traced.run(next(traced_ops), "overhead")
        with tracer.installed():
            runner.run_for(loop_ops(ctx), seconds, "loop")
            runner.run_all(gate_ops(ctx), "gate")
    for other in (plain, traced):
        runner.attempted += other.attempted
        runner.failed += other.failed
        runner.errors += other.errors

    kind = "decode" if spec.q is not None else "cli"
    if kind not in plain.intervals or kind not in traced.intervals:
        runner.fail("no successful operation to trace")
        return runner, {}
    overhead_ms = 1000.0 * (
        statistics.median(sampler.convert(traced.intervals[kind])[0])
        - statistics.median(sampler.convert(plain.intervals[kind])[0]))
    durations = [sampler.seconds(sp[START], sp[END])[0] * 1e9
                 for sp in tracer.spans]
    tracer.dump(out_dir / f"spans-{spec.name}.tsv.gz", durations)
    metrics, bases = layers.per_layer(tracer, durations, sampler, micro,
                                      overhead_ms)
    return runner, {"metrics": metrics, "samples": bases}


def check_sources() -> Optional[str]:
    for need in (SRC / "agcodec" / "__init__.py", CONFIG_Q3, VECTOR_Q3,
                 GOLDEN_TRACE_Q3):
        if not need.is_file():
            return f"missing {need.relative_to(ROOT)}: run from a checkout"
    return None


def run_workload(spec: Spec, seed: int, seconds: float, trace: bool,
                 out_dir: Path = OUT_DIR) -> dict:
    """Run one workload and return the result object printed last."""
    for path in (BENCH_DIR, SRC):
        if str(path) not in sys.path:
            sys.path.insert(0, str(path))
    out_dir.mkdir(parents=True, exist_ok=True)
    sampler = Sampler()
    with tempfile.TemporaryDirectory(dir=out_dir) as tmp:
        if trace:
            runner, report = traced_pass(spec, seed, seconds, Path(tmp),
                                         sampler, out_dir)
        else:
            runner, report = timed_pass(spec, seed, seconds, Path(tmp),
                                        sampler)
    return {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": report.get("metrics", {}),
        "wall": report.get("wall", {}),
        "samples": report.get("samples", {}),
        "speed": statistics.median(sampler.factors),
        "errors": runner.errors,
    }


def summary_lines(name: str, seed: int, trace: bool,
                  result: dict) -> list[str]:
    lines = [f"# agcodec benchmark: workload={name} seed={seed} "
             f"trace={int(trace)}"]
    samples, wall = result["samples"], result["wall"]
    for key, m in result["metrics"].items():
        notes = []
        if not trace and key.split(".p")[0] in samples:
            notes.append(f"n={samples[key.split('.p')[0]]}")
        if key in wall:
            notes.append(f"wall-clock {wall[key]['value']:.6g}")
        note = f"  ({', '.join(notes)})" if notes else ""
        lines.append(f"{key} = {m['value']:.6g} {m['unit']}{note}")
    lines.append(f"# speed factor (reference-speed s per wall s), median: "
                 f"{result['speed']:.4g}")
    if trace:
        lines.extend(f"# base {k} = {v}" for k, v in samples.items())
    attempted, failed = result["attempted"], result["failed"]
    lines.append(f"failed_frac = {failed / attempted:.6g} "
                 f"({failed} of {attempted} operations)")
    lines.extend(f"# error: {e}" for e in result["errors"])
    return lines


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    problem = check_sources()
    if problem is not None:
        print(f"perfbench: {problem}", file=sys.stderr)
        return 2
    result = run_workload(WORKLOADS[args.workload], args.seed, args.seconds,
                          bool(args.trace))
    for line in summary_lines(args.workload, args.seed, bool(args.trace),
                              result):
        print(line)
    print(json.dumps({k: result[k]
                      for k in ("correct", "attempted", "failed", "metrics")}))
    return 0 if result["correct"] and result["metrics"] else 1


if __name__ == "__main__":
    sys.exit(main())
