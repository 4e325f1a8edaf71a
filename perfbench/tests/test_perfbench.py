"""Tests of the benchmark itself: every workload end to end at a tiny size,
the emitted metric names against BENCHMARK.json, seeded inputs, and the
correctness gate rejecting wrong output."""

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parents[1]
ROOT = BENCH_DIR.parent
for path in (BENCH_DIR, ROOT / "src"):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

import run  # noqa: E402
from agcodec import Code, Curve, decode  # noqa: E402

# Hermitian q=2 codes (n=8, t=1) for the library loops and one CLI round,
# so that each workload runs in a few seconds.
TINY = {
    "decode-q4": dataclasses.replace(
        run.WORKLOADS["decode-q4"], q=2, u=4, setup_repeats=2,
        gate_weights=(7,)),
    "build-q5": dataclasses.replace(
        run.WORKLOADS["build-q5"], q=2, u=5, weights=(0, 1),
        setup_repeats=2, gate_weights=(7,)),
    "cli-q3-mixed": dataclasses.replace(
        run.WORKLOADS["cli-q3-mixed"], setup_repeats=2),
}
TINY_MIN_SAMPLES = 4


def benchmark_json():
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


@pytest.fixture(scope="module")
def results(tmp_path_factory):
    out = tmp_path_factory.mktemp("perfbench")
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(run, "MIN_SAMPLES", TINY_MIN_SAMPLES)
        return {(name, trace): run.run_workload(spec, 1, 0.01, trace, out)
                for name, spec in TINY.items() for trace in (False, True)}


def test_tiny_workloads_run_end_to_end(results):
    for (name, trace), result in results.items():
        assert result["correct"], (name, trace, result["errors"])
        assert result["failed"] == 0
        assert result["attempted"] >= 1
        values = [m["value"] for m in result["metrics"].values()]
        assert values and all(v == v for v in values)  # no NaN


def test_metric_names_match_benchmark_json(results):
    spec = benchmark_json()
    names = sorted(w["name"] for w in spec["workloads"])
    assert names == sorted(run.WORKLOADS)
    expected = {False: {m["name"]: m["unit"] for m in spec["end_to_end"]},
                True: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    for (name, trace), result in results.items():
        emitted = {k: m["unit"] for k, m in result["metrics"].items()}
        assert emitted == expected[trace], (name, trace)


def test_same_seed_same_inputs_second_seed_same_shape():
    code = Code(Curve.hermitian(2), 4)

    def inputs(seed, count=6):
        stream = run.decode_inputs(code, (0, 1),
                                   run.random.Random(f"decode-q4:{seed}"))
        return [next(stream) for _ in range(count)]

    first, again, other = inputs(1), inputs(1), inputs(2)
    assert first == again
    assert first != other
    shape = [(len(s), len(r), w) for s, r, w in first]
    assert shape == [(len(s), len(r), w) for s, r, w in other]
    for sent, received, weight in first:
        assert sum(a != b for a, b in zip(code.encode(sent), received)) \
            == weight


def test_gate_rejects_a_flipped_message_symbol():
    code = Code(Curve.hermitian(2), 4)
    rng = run.random.Random(5)
    sent, received, weight = next(run.decode_inputs(code, None, rng))
    result = decode(code, received)
    assert run.check_decode(code, sent, received, weight, result.message,
                            result.status) is None
    flipped = list(result.message)
    flipped[0] = flipped[0] + code.field.one
    assert run.check_decode(code, sent, received, weight, flipped,
                            result.status) is not None
    # beyond the radius, "ok" needs a re-encoding close to the word
    far = run.corrupt(code, code.encode(sent), code.n, rng)
    assert run.check_decode(code, sent, far, code.n, sent, "ok") is not None


def test_gate_rejects_wrong_cli_outputs():
    golden = run.GOLDEN_TRACE_Q3.read_text(encoding="utf-8")
    assert run.check_trace(golden) is None
    assert run.check_trace(golden.replace("w=0", "w=1", 1)) is not None
    assert run.check_radius("# header\n3 24\n4 23\n") is None
    assert run.check_radius("# header\n3 24\n4 22\n") is not None
    assert run.check_simulate("successes=4 failures=0 low", 4) is None
    assert run.check_simulate("successes=3 failures=1 low", 4) is not None


def test_timed_loop_collects_min_samples(results):
    for name in TINY:
        samples = results[name, False]["samples"]
        assert samples["decode_ms"] >= TINY_MIN_SAMPLES, name


def test_reference_speed_keeps_a_library_slowdown():
    """A fixed slowdown put into the library from outside (a FieldElement
    multiply that also does extra work and keeps what it builds, so the
    heap grows) raises reference-speed decode time by the same ratio as
    wall time: the probe does not absorb it."""
    from agcodec.gf import FieldElement

    code = Code(Curve.hermitian(3), 16)
    rng = run.random.Random(3)
    words = [received for _, received, _ in
             (next(run.decode_inputs(code, None, rng)) for _ in range(6))]
    plain_mul, kept = FieldElement.__mul__, []

    def slow_mul(a, b):
        kept.append([a, b, sum(range(200))])
        return plain_mul(a, b)

    def batch():
        started = run.time.perf_counter_ns()
        for word in words:
            decode(code, word)
        return started, run.time.perf_counter_ns()

    plain, slowed = [], []
    sampler = run.Sampler()
    with sampler.running():
        for _ in range(8):  # alternate, so both see the same machine speed
            plain.append(batch())
            FieldElement.__mul__ = slow_mul
            try:
                slowed.append(batch())
            finally:
                FieldElement.__mul__ = plain_mul
    ref_p, wall_p = sampler.convert(plain)
    ref_s, wall_s = sampler.convert(slowed)
    wall_ratio = sum(wall_s) / sum(wall_p)
    ref_ratio = sum(ref_s) / sum(ref_p)
    assert wall_ratio > 1.5, wall_ratio
    assert ref_ratio == pytest.approx(wall_ratio, rel=0.15)


def test_failed_check_makes_the_run_incorrect(tmp_path, monkeypatch):
    real = run.check_decode

    def flip_then_check(code, sent, received, weight, message, status):
        message = list(message)
        message[0] = message[0] + code.field.one
        return real(code, sent, received, weight, message, status)

    monkeypatch.setattr(run, "check_decode", flip_then_check)
    result = run.run_workload(TINY["decode-q4"], 1, 0.01, False, tmp_path)
    assert not result["correct"]
    assert result["failed"] > 0


def test_exits_nonzero_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    spec = benchmark_json()
    proc = subprocess.run(
        [sys.executable, *spec["command"][1:], "--workload", "decode-q4",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
