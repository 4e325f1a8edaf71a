"""Interleaved A/B timing of two checkouts' decoders on fresh words.

Copies ``src/agcodec`` of each checkout into a temporary directory under
the package names ``agcodec_a`` and ``agcodec_b``, so both load in one
process.  Builds the same Hermitian code with each.  Every round draws a
fresh seeded word set (from the seed and the round number), so a memo
warmed on one round's words does not flatter the side that has one; both
sides decode that set, in alternating order (A first in even rounds, B
first in odd ones), so both see the same machine speed, and their
messages, statuses, re-encoding distances and vote records must agree on
every word.  ``--cold`` empties each package's memos of pole-order
arithmetic, where it has them (the decoder's step plans and G staircase,
``Semigroup.covered``'s tallies), before every decode, as a one-shot
process would start.  Prints ms per word for each side (best and median
round), the ratio of B's best round to A's, the median of the per-round
ratios B/A, and the rounds B wins.  Exits 1 when the decodes disagree.
``--cpu N`` pins the process to CPU N (``os.sched_setaffinity``), so both
sides run on one core and the ratios do not scatter with the scheduler;
it exits 1 for a CPU outside the process's current affinity set.
``--intrinsic`` checks only what every basis with the decoder's leads
gives: messages, statuses, distances and each vote's s, chosen value,
margin and nonzero tallies, so a side whose basis tails differ (and with
them the candidates of tally 0) can be timed; it prints how many words
differ in their whole vote records.

    python3 tools/abdecode.py A_CHECKOUT B_CHECKOUT [--q 5] [--u 60]
        [--weights 0,1,2,3,4 | --weights radius] [--words 10]
        [--rounds 15] [--seed 1] [--cold] [--cpu N] [--intrinsic]

Stdlib only; each checkout needs only ``src/agcodec``.
"""

import argparse
import gc
import importlib
import os
import random
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

SIDES = ("a", "b")


def load(checkouts: list[str], tmp: Path) -> list:
    """The two packages, each checkout's ``src/agcodec`` copied into tmp
    under its own name and imported afresh (tmp is put on ``sys.path``)."""
    sys.path.insert(0, str(tmp))
    pkgs = []
    for side, checkout in zip(SIDES, checkouts):
        source = Path(checkout) / "src" / "agcodec"
        if not (source / "__init__.py").is_file():
            raise SystemExit(f"{checkout}: no src/agcodec package")
        name = f"agcodec_{side}"
        shutil.copytree(source, tmp / name,
                        ignore=shutil.ignore_patterns("__pycache__"))
        for key in [k for k in sys.modules
                    if k == name or k.startswith(name + ".")]:
            del sys.modules[key]  # a package an earlier call loaded
        pkgs.append(importlib.import_module(name))
    return pkgs


def words(pkg, code, weights: list[int], count: int, seed) -> list[str]:
    """count seeded received words as text, error weights cycling through
    weights."""
    rng = random.Random(seed)
    elems = code.field.elements()
    out = []
    for i in range(count):
        message = [elems[rng.randrange(len(elems))] for _ in range(code.k)]
        received = list(code.encode(message))
        for pos in rng.sample(range(code.n), weights[i % len(weights)]):
            received[pos] += elems[rng.randrange(1, len(elems))]
        out.append(pkg.format_vector(received))
    return out


def summary(result, intrinsic: bool = False) -> tuple:
    """A decode result as text and integers, comparable across packages:
    whole vote records, or with intrinsic only each vote's s, chosen
    value, margin and nonzero tallies (as a sorted tuple, since the order
    of nomination depends on the basis)."""
    if intrinsic:
        votes = tuple((r.s, str(r.chosen), r.margin,
                       tuple(sorted((str(c), t) for c, t in r.tallies.items()
                                    if t))) for r in result.votes)
    else:
        votes = tuple((r.s, tuple(map(str, r.candidates)),
                       tuple((str(c), t) for c, t in r.tallies.items()),
                       str(r.chosen), r.margin) for r in result.votes)
    return (tuple(map(str, result.message)), result.status, result.distance,
            votes)


def memos(pkg) -> list:
    """The clear methods of the package's memos of pole-order arithmetic,
    those it has of the decoder's step plans (``_PLANS``) and G staircase
    (``_g_staircase``) and of ``Semigroup.covered``'s tallies
    (``_TALLIES``)."""
    found = [getattr(pkg.decoder, "_PLANS", None),
             getattr(pkg.curvering, "_TALLIES", None)]
    clears = [memo.clear for memo in found if memo is not None]
    staircase = getattr(pkg.decoder, "_g_staircase", None)
    if staircase is not None:
        clears.append(staircase.cache_clear)
    return clears


def batch_ms(pkg, code, received: list, clears: list) -> tuple[float, list]:
    """(ms per word, results) of one pass of decodes; the clears run
    before each decode, outside its time."""
    gc.collect()
    results, spent = [], 0
    for v in received:
        for clear in clears:
            clear()
        started = time.perf_counter_ns()
        results.append(pkg.decode(code, v))
        spent += time.perf_counter_ns() - started
    return spent / 1e6 / len(received), results


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("checkouts", nargs=2, metavar="CHECKOUT")
    parser.add_argument("--q", type=int, default=5)
    parser.add_argument("--u", type=int, default=60)
    parser.add_argument("--weights", default="0,1,2,3,4",
                        help="comma-separated error weights, or 'radius'")
    parser.add_argument("--words", type=int, default=10)
    parser.add_argument("--rounds", type=int, default=15)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--cold", action="store_true",
                        help="empty the memos before every decode")
    parser.add_argument("--cpu", type=int,
                        help="pin the process to this CPU")
    parser.add_argument("--intrinsic", action="store_true",
                        help="compare only the intrinsic vote fields")
    args = parser.parse_args(argv)
    if args.cpu is not None:
        allowed = sorted(os.sched_getaffinity(0))
        if args.cpu not in allowed:
            print(f"CPU {args.cpu} is not in this process's affinity set "
                  f"{allowed}")
            return 1
        os.sched_setaffinity(0, {args.cpu})
        print(f"pinned to CPU {args.cpu}")

    with tempfile.TemporaryDirectory() as tmp:
        try:
            return compare(args, load(args.checkouts, Path(tmp)))
        finally:
            sys.path.remove(tmp)


def compare(args: argparse.Namespace, pkgs: list) -> int:
    """Time both packages on a fresh word set per round, checking that
    they decode every word alike; returns the exit status."""
    codes = [pkg.Code(pkg.Curve.hermitian(args.q), args.u) for pkg in pkgs]
    code = codes[0]
    radius = (code.decoding_distance() - 1) // 2
    weights = ([radius] if args.weights == "radius"
               else [int(w) for w in args.weights.split(",")])
    clears = [memos(pkg) if args.cold else [] for pkg in pkgs]
    print(f"Hermitian q={args.q} u={args.u} (n={code.n} k={code.k} "
          f"radius {radius}): {args.words} fresh words a round at weights "
          f"{','.join(map(str, weights))}, seed {args.seed}, "
          f"{args.rounds} rounds, memos "
          f"{'emptied before every decode' if args.cold else 'kept'}")

    times: list[list[float]] = [[], []]
    differ = 0  # words whose whole vote records differ
    for r in range(args.rounds):
        texts = words(pkgs[0], code, weights, args.words, f"{args.seed}:{r}")
        results: list[list] = [[], []]
        for side in ((0, 1) if r % 2 == 0 else (1, 0)):
            pkg, c = pkgs[side], codes[side]
            received = [pkg.parse_vector(c.field, text) for text in texts]
            ms, results[side] = batch_ms(pkg, c, received, clears[side])
            times[side].append(ms)
        for i, (a, b) in enumerate(zip(*results)):
            if summary(a, args.intrinsic) != summary(b, args.intrinsic):
                print(f"round {r}, word {i}: the decodes disagree")
                return 1
            differ += summary(a) != summary(b)
    total = args.rounds * args.words
    if args.intrinsic:
        print(f"agree: messages, statuses, distances and each vote's s, "
              f"chosen value, margin and nonzero tallies, on all {total} "
              f"words; {differ} of them differ in their whole vote records")
    else:
        print(f"agree: messages, statuses, distances and vote records, on "
              f"all {total} words")
    for side, checkout, ms in zip(SIDES, args.checkouts, times):
        print(f"{side.upper()} {checkout}: {min(ms):.3f} ms/word best, "
              f"{statistics.median(ms):.3f} median")
    ratios = [b / a for a, b in zip(*times)]
    print(f"best B / best A: {min(times[1]) / min(times[0]):.3f}")
    print(f"median pair ratio B/A: {statistics.median(ratios):.3f}")
    print(f"B wins {sum(x < 1 for x in ratios)} of {args.rounds} rounds")
    return 0


if __name__ == "__main__":
    sys.exit(main())
