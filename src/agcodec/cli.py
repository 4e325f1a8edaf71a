"""Command-line front end.

Subcommands:

    encode    message file -> codeword file
    decode    vector file -> message file, with a status line
    simulate  Monte-Carlo channel runs with errors of exact weight t
    trace     per-weight decoding records in a stable line format
    radius    (u, d_u) table rows for every nongap u < n

The code is given either as --code FILE (JSON config) or inline as
--hermitian-q Q --u U.  Exit codes: 0 success, 1 usage or parse failure,
2 decoding verification failure.  Identical seed and config give
byte-identical simulate and trace output, except the "# mean_decode_ms"
comment line, which carries wall-clock timing.
"""

from __future__ import annotations

import argparse
import functools
import json
import random
import sys
import time
from typing import Optional, Sequence

from .code import (Code, VectorParseError, _checked_u, _required,
                   code_from_config, curve_from_config, format_vector,
                   parse_vector, radius_rows, rational_points)
from .decoder import (STATUS_FAILED, STATUS_LOW_CONFIDENCE, GBState, Lead,
                      UP, VoteRecord, decode)

TRACE_FORMAT = "# agcodec trace v1"
RADIUS_FORMAT = "# agcodec radius v1"
SIMULATE_FORMAT = "# agcodec simulate v1"


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # exit 1 on usage errors, not 2
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _add_code_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--code", metavar="FILE",
                   help="JSON code configuration file")
    p.add_argument("--hermitian-q", type=int, metavar="Q",
                   help="inline Hermitian code over GF(Q^2)")
    p.add_argument("--u", type=int, metavar="U",
                   help="pole-order limit of the code")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on the first call and shared after it:
    parsing does not change it, and it has no mutable defaults."""
    parser = _Parser(prog="agcodec",
                     description="Evaluation codes on Miura-Kamiya curves: "
                                 "encode, decode, simulate, trace, radius.")
    sub = parser.add_subparsers(dest="command", required=True)

    enc = sub.add_parser("encode", help="encode a message file")
    _add_code_args(enc)
    enc.add_argument("--in", dest="infile", required=True, metavar="FILE")
    enc.add_argument("--out", dest="outfile", metavar="FILE")

    dec = sub.add_parser("decode", help="decode a received vector file")
    _add_code_args(dec)
    dec.add_argument("--in", dest="infile", required=True, metavar="FILE")
    dec.add_argument("--out", dest="outfile", metavar="FILE")

    sim = sub.add_parser("simulate", help="random-error channel simulation")
    _add_code_args(sim)
    sim.add_argument("--trials", type=int, required=True)
    sim.add_argument("--weight", type=int, required=True,
                     help="exact error weight per trial")
    sim.add_argument("--seed", type=int, default=0,
                     help="PRNG seed (default 0)")
    sim.add_argument("--out", dest="outfile", metavar="FILE")

    tra = sub.add_parser("trace", help="emit per-weight decoding records")
    _add_code_args(tra)
    tra.add_argument("--in", dest="infile", required=True, metavar="FILE")
    tra.add_argument("--trace-out", dest="traceout", metavar="FILE")

    rad = sub.add_parser("radius", help="decoding-distance table")
    _add_code_args(rad)
    rad.add_argument("--out", dest="outfile", metavar="FILE")
    return parser


def _load_config(args: argparse.Namespace) -> dict:
    if args.code and args.hermitian_q is not None:
        raise ValueError("give either --code or --hermitian-q, not both")
    if args.code and args.u is not None:
        raise ValueError("--u does not apply with --code: a --code file sets u")
    if args.code:
        try:
            with open(args.code, "r", encoding="utf-8") as fh:
                return json.load(fh)
        except RecursionError:
            raise ValueError(f"{args.code}: JSON nested too deeply") from None
    if args.hermitian_q is not None:
        cfg = {"type": "hermitian", "q": args.hermitian_q}
        if args.u is not None:
            cfg["u"] = args.u
        return cfg
    raise ValueError("a code is required: --code FILE or --hermitian-q Q --u U")


def _load_code(args: argparse.Namespace) -> Code:
    return code_from_config(_load_config(args))


def _read_text(path: str) -> str:
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _write_lines(path: Optional[str], lines: Sequence[str]) -> None:
    text = "\n".join(lines) + "\n"
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _lead_str(lead: Lead) -> str:
    field = lead.coefficient.field
    parts = []
    if lead.coefficient != field.one:
        parts.append(str(lead.coefficient))
    if lead.monomial != (0, 0):
        parts.append(str(lead.monomial))
    if lead.location is UP:
        parts.append("z")
    return "*".join(parts) if parts else "1"


def _code_line(code: Code) -> str:
    return (f"# code: n={code.n} k={code.k} u={code.u} "
            f"d={code.decoding_distance()}")


def _vote_fields(record: Optional[VoteRecord]) -> str:
    if record is None:
        return "W=- tallies=- w=-"
    w_str = ",".join(str(c) for c in record.candidates)
    t_str = ",".join(f"{c}:{record.tallies[c]}" for c in record.candidates)
    return f"W=[{w_str}] tallies=[{t_str}] w={record.chosen}"


def trace_lines(code: Code, v) -> tuple[list[str], object]:
    lines = [TRACE_FORMAT, _code_line(code)]

    def watch(s: int, state: GBState, record: Optional[VoteRecord]) -> None:
        g_str = ",".join(_lead_str(ld) for ld in state.g_leads())
        f_str = ",".join(_lead_str(ld) for ld in state.f_leads())
        lines.append(f"s={s} G=[{g_str}] F=[{f_str}] {_vote_fields(record)}")

    result = decode(code, v, watch=watch)
    return lines, result


def _cmd_encode(args: argparse.Namespace) -> int:
    code = _load_code(args)
    message = parse_vector(code.field, _read_text(args.infile),
                           expect_length=code.k)
    _write_lines(args.outfile, [format_vector(code.encode(message))])
    return 0


def _cmd_decode(args: argparse.Namespace) -> int:
    code = _load_code(args)
    v = parse_vector(code.field, _read_text(args.infile),
                     expect_length=code.n)
    result = decode(code, v)
    out_line = format_vector(result.message)
    if args.outfile:
        _write_lines(args.outfile, [out_line])
        print(f"status: {result.status}")
    else:
        print(out_line)
        print(f"status: {result.status}", file=sys.stderr)
    return 2 if result.status == STATUS_FAILED else 0


def _cmd_trace(args: argparse.Namespace) -> int:
    code = _load_code(args)
    v = parse_vector(code.field, _read_text(args.infile),
                     expect_length=code.n)
    lines, result = trace_lines(code, v)
    _write_lines(args.traceout, lines)
    return 2 if result.status == STATUS_FAILED else 0


def _cmd_radius(args: argparse.Namespace) -> int:
    cfg = _load_config(args)
    curve, points = curve_from_config(cfg)
    if points is None:
        points = rational_points(curve)
    rows = radius_rows(curve, points)
    if "u" in cfg:  # the table ignores u, but a given u is checked as a code's
        _checked_u(_required(cfg, "u"), len(points))
    lines = [RADIUS_FORMAT,
             "# rows cover nongap u < n only; gap u have no voting round",
             f"# code: n={len(points)}"]
    lines.extend(f"{u} {d}" for u, d in rows)
    _write_lines(args.outfile, lines)
    return 0


def _cmd_simulate(args: argparse.Namespace) -> int:
    code = _load_code(args)
    if not 0 <= args.weight <= code.n:
        raise ValueError(f"error weight must be in [0, {code.n}]")
    if args.trials < 1:
        raise ValueError("trials must be >= 1")
    rng = random.Random(args.seed)
    elems = code.field.elements()
    q = code.field.order
    successes = failures = low_confidence = 0
    total_time = 0.0
    for _ in range(args.trials):
        message = tuple(elems[rng.randrange(q)] for _ in range(code.k))
        sent = code.encode(message)
        received = list(sent)
        for pos in rng.sample(range(code.n), args.weight):
            received[pos] = received[pos] + elems[rng.randrange(1, q)]
        started = time.perf_counter()
        result = decode(code, tuple(received))
        total_time += time.perf_counter() - started
        if result.message == message:
            successes += 1
        else:
            failures += 1
        if result.status == STATUS_LOW_CONFIDENCE:
            low_confidence += 1
    mean_ms = 1000.0 * total_time / args.trials
    lines = [SIMULATE_FORMAT,
             "# prng: mt19937 (python random.Random, stream: per trial "
             "k message draws, error support sample, value draws)",
             _code_line(code),
             f"params: seed={args.seed} trials={args.trials} "
             f"weight={args.weight}",
             f"successes={successes} failures={failures} "
             f"low_confidence={low_confidence}",
             f"# mean_decode_ms={mean_ms:.3f}"]
    _write_lines(args.outfile, lines)
    return 0


_COMMANDS = {
    "encode": _cmd_encode,
    "decode": _cmd_decode,
    "simulate": _cmd_simulate,
    "trace": _cmd_trace,
    "radius": _cmd_radius,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except VectorParseError as exc:
        print(f"agcodec: parse error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"agcodec: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
