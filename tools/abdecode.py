"""Interleaved A/B timing of two checkouts' decoders on the same words.

Copies ``src/agcodec`` of each checkout into a temporary directory under
the package names ``agcodec_a`` and ``agcodec_b``, so both load in one
process.  Builds the same Hermitian code with each, and decodes the same
seeded words with both: first once, to check that messages, statuses,
re-encoding distances and vote records agree, then in alternating rounds
(A first in even rounds, B first in odd ones), so both see the same
machine speed.  Prints ms per word for each side (best and median round),
the ratio of B's best round to A's, the median of the per-round ratios
B/A, and the rounds B wins.  Exits 1 when the decodes disagree.

    python3 tools/abdecode.py A_CHECKOUT B_CHECKOUT [--q 5] [--u 60]
        [--weights 0,1,2,3,4 | --weights radius] [--words 10]
        [--rounds 15] [--seed 1]

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


def words(pkg, code, weights: list[int], count: int, seed: int) -> list[str]:
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


def batch_ms(pkg, code, received: list) -> float:
    """ms per word of one pass of decodes."""
    gc.collect()
    started = time.perf_counter_ns()
    for v in received:
        pkg.decode(code, v)
    return (time.perf_counter_ns() - started) / 1e6 / len(received)


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
    args = parser.parse_args(argv)

    with tempfile.TemporaryDirectory() as tmp:
        try:
            return compare(args, load(args.checkouts, Path(tmp)))
        finally:
            sys.path.remove(tmp)


def compare(args: argparse.Namespace, pkgs: list) -> int:
    """Check that both packages decode alike, then time them; returns the
    exit status."""
    codes = [pkg.Code(pkg.Curve.hermitian(args.q), args.u) for pkg in pkgs]
    code = codes[0]
    radius = (code.decoding_distance() - 1) // 2
    weights = ([radius] if args.weights == "radius"
               else [int(w) for w in args.weights.split(",")])
    texts = words(pkgs[0], code, weights, args.words, args.seed)
    received = [[pkg.parse_vector(c.field, text) for text in texts]
                for pkg, c in zip(pkgs, codes)]
    print(f"Hermitian q={args.q} u={args.u} (n={code.n} k={code.k} "
          f"radius {radius}): {args.words} words at weights "
          f"{','.join(map(str, weights))}, seed {args.seed}, "
          f"{args.rounds} rounds")

    for i in range(args.words):
        a, b = (summary(pkg.decode(c, vs[i]))
                for pkg, c, vs in zip(pkgs, codes, received))
        if a != b:
            print(f"word {i}: the decodes disagree")
            return 1
    print("agree: messages, statuses, distances and vote records")

    times: list[list[float]] = [[], []]
    for r in range(args.rounds):
        for side in ((0, 1) if r % 2 == 0 else (1, 0)):
            times[side].append(batch_ms(pkgs[side], codes[side],
                                        received[side]))
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
