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

    python3 tools/abdecode.py A_CHECKOUT B_CHECKOUT [--q 5] [--u 60]
        [--weights 0,1,2,3,4 | --weights radius] [--words 10]
        [--rounds 15] [--seed 1] [--cold]

Stdlib only; each checkout needs only ``src/agcodec``.
"""

import argparse
import gc
import importlib
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


def summary(result) -> tuple:
    """A decode result as text and integers, comparable across packages."""
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
    args = parser.parse_args(argv)

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
    for r in range(args.rounds):
        texts = words(pkgs[0], code, weights, args.words, f"{args.seed}:{r}")
        results: list[list] = [[], []]
        for side in ((0, 1) if r % 2 == 0 else (1, 0)):
            pkg, c = pkgs[side], codes[side]
            received = [pkg.parse_vector(c.field, text) for text in texts]
            ms, results[side] = batch_ms(pkg, c, received, clears[side])
            times[side].append(ms)
        for i, (a, b) in enumerate(zip(*results)):
            if summary(a) != summary(b):
                print(f"round {r}, word {i}: the decodes disagree")
                return 1
    print(f"agree: messages, statuses, distances and vote records, on all "
          f"{args.rounds * args.words} words")
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
