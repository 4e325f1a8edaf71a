"""Per-layer metrics of the traced pass, computed from the recorded spans.

Layer names follow the agcodec modules (``gf``, ``curvering``, ``code``,
``decoder``, ``cli``).  "Per decode" figures are means over the library
``decode()`` calls made in the timed loop; "per call" CLI figures are
means over the ``cli.main`` calls other than ``simulate``.
"""

from __future__ import annotations

import random
import statistics
import time

from tracer import (END, GF_END, GF_START, INFO, NAME, OP, PARENT, START,
                    child_time)

MICRO_BATCH = 4000
MICRO_REPEATS = 7


def _passes(loop, pairs) -> list[tuple[int, int]]:
    intervals = []
    for _ in range(MICRO_REPEATS):
        started = time.perf_counter_ns()
        loop(pairs)
        intervals.append((started, time.perf_counter_ns()))
    return intervals


def _add(pairs):
    for a, b in pairs:
        a + b


def _mul(pairs):
    for a, b in pairs:
        a * b


def _div(pairs):
    for a, b in pairs:
        a / b


def gf_microbench(spec, seed: int) -> dict:
    """Timed passes of FieldElement +, *, / over a seeded batch of
    MICRO_BATCH pairs (divisors nonzero) in the workload's field."""
    from agcodec.curvering import Curve

    field = Curve.hermitian(spec.q or 3).field
    elems = field.elements()
    rng = random.Random(f"{spec.name}:{seed}:gf")
    pairs = [(elems[rng.randrange(len(elems))],
              elems[rng.randrange(1, len(elems))])
             for _ in range(MICRO_BATCH)]
    return {"gf.add_ns": _passes(_add, pairs),
            "gf.mul_ns": _passes(_mul, pairs),
            "gf.div_ns": _passes(_div, pairs)}


def _subtree_end(spans, idx: int) -> int:
    """One past the last span index inside span ``idx``'s subtree."""
    end = spans[idx][END]
    j = idx + 1
    while j < len(spans) and spans[j][START] < end:
        j += 1
    return j


def _decode_stats(spans, durs, covered, idx: int) -> dict:
    root = spans[idx]
    dur = durs[idx]
    totals: dict[str, int] = {}
    calls: dict[str, int] = {}
    step_self = verify = spoly_out = kept_f = 0
    max_g = max_f = 0
    margins = []
    for j in range(idx + 1, _subtree_end(spans, idx)):
        sp = spans[j]
        name, d = sp[NAME], durs[j]
        totals[name] = totals.get(name, 0) + d
        calls[name] = calls.get(name, 0) + 1
        if name == "decoder.step":
            step_self += d - covered[j]
            kept_f += sp[INFO][1]
        if name in ("decoder.step", "decoder.interpolate"):
            max_g = max(max_g, sp[INFO][0])
            max_f = max(max_f, sp[INFO][1])
        elif name == "decoder.spoly":
            spoly_out += sp[INFO]
        elif name == "decoder.vote":
            margins.append(sp[INFO])
        if sp[PARENT] == idx and name in ("code.encode", "decoder.hamming"):
            verify += d
    return {
        "dur": dur, "covered": covered[idx], "totals": totals,
        "calls": calls, "step_self": step_self, "verify": verify,
        "spoly_out": spoly_out, "kept_f": kept_f, "max_g": max_g,
        "max_f": max_f, "min_margin": min(margins) if margins else 0,
        "gf_ops": root[GF_END] - root[GF_START],
    }


def _mean(values) -> float:
    values = list(values)
    return sum(values) / len(values) if values else 0.0


def per_layer(tracer, durs: list[float], sampler, micro: dict,
              overhead_ms: float) -> tuple[dict, dict]:
    """(metrics, bases): every per-layer metric, and the counts each mean
    or ratio is taken over.  ``durs`` are the spans' durations in
    reference-speed ns; ``micro`` the intervals of the gf passes."""
    spans = tracer.spans
    kinds = tracer.op_kinds
    covered = child_time(spans, durs)

    def phase(sp):
        return kinds[sp[OP]][0]

    decodes = [_decode_stats(spans, durs, covered, i)
               for i, sp in enumerate(spans)
               if sp[NAME] == "decoder.decode" and phase(sp) == "loop"]
    n_dec = max(len(decodes), 1)

    def per_decode_ms(key):
        return sum(d["totals"].get(key, 0) for d in decodes) / n_dec / 1e6

    def per_decode(key):
        return sum(d[key] for d in decodes) / n_dec

    def calls_per_decode(name):
        return sum(d["calls"].get(name, 0) for d in decodes) / n_dec

    spoly_out = sum(d["spoly_out"] for d in decodes)
    kept_f = sum(d["kept_f"] for d in decodes)

    setup_spans = [sp for sp in spans
                   if sp[NAME] == "bench.setup" and phase(sp) == "setup"]
    cli_calls = [i for i, sp in enumerate(spans) if sp[NAME] == "cli.main"
                 and kinds[sp[OP]][1] == "cli"]
    n_cli = max(len(cli_calls), 1)
    cli_child = {"cli.build": 0, "cli.parse": 0, "decoder.decode": 0}
    cli_self = 0
    cli_set = set(cli_calls)
    for sp, d in zip(spans, durs):
        if sp[PARENT] in cli_set and sp[NAME] in cli_child:
            cli_child[sp[NAME]] += d
    for i in cli_calls:
        cli_self += durs[i] - covered[i]

    def mean_ms(name, phases=("setup", "loop", "gate")):
        """Mean duration of the ``name`` spans in ``phases``."""
        return _mean(d / 1e6 for sp, d in zip(spans, durs)
                     if sp[NAME] == name and phase(sp) in phases)

    metrics_ = {name: statistics.median(sampler.convert(passes)[0]) * 1e9
                / MICRO_BATCH for name, passes in micro.items()}
    metrics_.update({
        "gf.ops_per_decode": per_decode("gf_ops"),
        "gf.ops_setup":
            _mean(sp[GF_END] - sp[GF_START] for sp in setup_spans),
        "curvering.mul_calls_per_decode": calls_per_decode("curvering.mul"),
        "curvering.mul_ms_per_decode": per_decode_ms("curvering.mul"),
        "curvering.reduce_ms_per_decode": per_decode_ms("curvering.reduce"),
        "code.points_ms": mean_ms("code.points", ("setup",)),
        "code.ideal_basis_s": mean_ms("code.ideal_basis", ("setup",)) / 1e3,
        "code.distance_ms": mean_ms("code.distance", ("setup",)),
        "code.lagrange_ms": mean_ms("code.lagrange", ("loop",)),
        "code.encode_ms": mean_ms("code.encode", ("loop",)),
        "code.radius_s": mean_ms("code.radius") / 1e3,
        "decoder.interpolate_ms": per_decode_ms("decoder.interpolate"),
        "decoder.vote_ms": per_decode_ms("decoder.vote"),
        "decoder.shift_ms": per_decode_ms("decoder.shift"),
        "decoder.spoly_ms": per_decode_ms("decoder.spoly"),
        "decoder.step_ms": per_decode("step_self") / 1e6,
        "decoder.verify_ms": per_decode("verify") / 1e6,
        "decoder.steps": calls_per_decode("decoder.step"),
        "decoder.votes": calls_per_decode("decoder.vote"),
        "decoder.spoly_calls": calls_per_decode("decoder.spoly"),
        "decoder.spoly_outputs": spoly_out / n_dec,
        "decoder.max_g": per_decode("max_g"),
        "decoder.max_f": per_decode("max_f"),
        "decoder.min_margin": per_decode("min_margin"),
        "decoder.spoly_keep_ratio": kept_f / spoly_out if spoly_out else 0.0,
        "decoder.phase_coverage":
            sum(d["covered"] for d in decodes)
            / max(sum(d["dur"] for d in decodes), 1),
        "cli.build_ms": cli_child["cli.build"] / n_cli / 1e6,
        "cli.parse_ms": cli_child["cli.parse"] / n_cli / 1e6,
        "cli.decode_ms": cli_child["decoder.decode"] / n_cli / 1e6,
        "cli.self_ms": cli_self / n_cli / 1e6,
        "trace.overhead_ms": overhead_ms,
    })
    metrics = {name: {"value": metrics_[name], "unit": unit}
               for name, unit in PER_LAYER_UNITS.items()}
    bases = {"decodes": len(decodes), "cli_calls": len(cli_calls),
             "setup_builds": len(setup_spans), "spoly_outputs": spoly_out,
             "f_kept": kept_f, "spans": len(spans)}
    return metrics, bases


PER_LAYER_UNITS = {
    "gf.add_ns": "ns", "gf.mul_ns": "ns", "gf.div_ns": "ns",
    "gf.ops_per_decode": "count", "gf.ops_setup": "count",
    "curvering.mul_calls_per_decode": "count",
    "curvering.mul_ms_per_decode": "ms",
    "curvering.reduce_ms_per_decode": "ms",
    "code.points_ms": "ms", "code.ideal_basis_s": "s",
    "code.distance_ms": "ms", "code.lagrange_ms": "ms",
    "code.encode_ms": "ms", "code.radius_s": "s",
    "decoder.interpolate_ms": "ms", "decoder.vote_ms": "ms",
    "decoder.shift_ms": "ms", "decoder.spoly_ms": "ms",
    "decoder.step_ms": "ms", "decoder.verify_ms": "ms",
    "decoder.steps": "count", "decoder.votes": "count",
    "decoder.spoly_calls": "count", "decoder.spoly_outputs": "count",
    "decoder.max_g": "count", "decoder.max_f": "count",
    "decoder.min_margin": "count", "decoder.spoly_keep_ratio": "ratio",
    "decoder.phase_coverage": "ratio",
    "cli.build_ms": "ms", "cli.parse_ms": "ms", "cli.decode_ms": "ms",
    "cli.self_ms": "ms",
    "trace.overhead_ms": "ms",
}
