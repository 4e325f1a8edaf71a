"""In-memory span recorder for the traced benchmark pass.

Spans are recorded only from the benchmark's side: ``Tracer.install``
replaces public functions and methods of the agcodec modules by wrappers
that time each call, and ``Tracer.uninstall`` puts the originals back.
Nothing under ``src/`` is edited.

A span is the tuple

    (name, start_ns, end_ns, parent, op, gf_start, gf_end, info)

where ``parent`` is the index of the enclosing span (-1 for none), ``op``
is the benchmark operation the span belongs to, ``gf_start``/``gf_end``
read the running count of FieldElement ``+ - * /`` calls, and ``info`` is
what an observer extracted from the call's result (a size or a margin).
Calls run on one thread, so spans nest: the spans of a call's subtree
follow its own span in the list, and a span's self time is its duration
minus the sum of its direct children's durations.  Durations are taken
at reference speed (``run.Sampler``) before any of this arithmetic.
"""

from __future__ import annotations

import gzip
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Callable, Optional

NAME, START, END, PARENT, OP, GF_START, GF_END, INFO = range(8)

#: FieldElement operators whose calls are counted (not timed: there are
#: millions per code build, and a span per call would dwarf the work).
GF_OPERATORS = ("__add__", "__sub__", "__mul__", "__truediv__")


def _spoly_info(out):
    return len(out)


def _state_info(state):
    return (len(state.g), len(state.f))


def _vote_info(record):
    return record.margin


def _targets():
    """(owner, attribute, span name, observer) for every traced call.

    The owner is the object the caller looks the name up on: a module
    global for functions, the class for methods.  The CLI imports some
    functions by name, so those are wrapped on ``agcodec.cli`` as well.
    """
    from agcodec import cli, code, curvering, decoder

    return [
        (code, "rational_points", "code.points", None),
        (code, "points_ideal_basis", "code.ideal_basis", None),
        (code.Code, "decoding_distance", "code.distance", None),
        (code.Code, "lagrange", "code.lagrange", None),
        (code.Code, "encode", "code.encode", None),
        (curvering.RingElement, "__mul__", "curvering.mul", None),
        (curvering.Curve, "reduce", "curvering.reduce", None),
        (decoder, "decode", "decoder.decode", None),
        (decoder, "initial_basis", "decoder.interpolate", _state_info),
        (decoder, "vote", "decoder.vote", _vote_info),
        (decoder, "shift", "decoder.shift", None),
        (decoder, "step", "decoder.step", _state_info),
        (decoder, "spoly", "decoder.spoly", _spoly_info),
        (decoder, "hamming_distance", "decoder.hamming", None),
        (cli, "main", "cli.main", None),
        (cli, "code_from_config", "cli.build", None),
        (cli, "parse_vector", "cli.parse", None),
        (cli, "decode", "decoder.decode", None),
        (cli, "radius_rows", "code.radius", None),
    ]


class Tracer:
    """Records spans in memory; writes them out with ``dump``."""

    def __init__(self) -> None:
        self.spans: list[Optional[tuple]] = []
        self.op = 0
        self.op_kinds: dict[int, tuple[str, str]] = {0: ("none", "none")}
        self.gf_ops = [0]
        self._stack: list[int] = []
        self._saved: list[tuple[Any, str, Any]] = []

    # -- operations ---------------------------------------------------------

    def start_op(self, phase: str, kind: str) -> int:
        """Open a new benchmark operation; later spans carry its id."""
        self.op += 1
        self.op_kinds[self.op] = (phase, kind)
        return self.op

    # -- wrappers -----------------------------------------------------------

    def timed(self, name: str, fn: Callable,
              observe: Optional[Callable] = None) -> Callable:
        """``fn`` wrapped to record a span ``name`` per call; ``observe``
        extracts the span's info from the call's result."""
        spans, stack, gf = self.spans, self._stack, self.gf_ops
        clock = time.perf_counter_ns
        tracer = self

        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            g0 = gf[0]
            t0 = clock()
            info = None
            try:
                out = fn(*args, **kwargs)
                if observe is not None:
                    info = observe(out)
                return out
            finally:
                t1 = clock()
                stack.pop()
                spans[idx] = (name, t0, t1, parent, tracer.op, g0, gf[0],
                              info)

        wrapper.__wrapped__ = fn
        return wrapper

    def _counted(self, fn: Callable) -> Callable:
        gf = self.gf_ops

        def wrapper(a, b):
            gf[0] += 1
            return fn(a, b)

        wrapper.__wrapped__ = fn
        return wrapper

    def _replace(self, owner, attr: str, new) -> None:
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def install(self) -> None:
        from agcodec.gf import FieldElement

        if self._saved:
            raise RuntimeError("tracer already installed")
        for owner, attr, name, observe in _targets():
            self._replace(owner, attr,
                          self.timed(name, getattr(owner, attr), observe))
        for attr in GF_OPERATORS:
            self._replace(FieldElement, attr,
                          self._counted(getattr(FieldElement, attr)))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, orig = self._saved.pop()
            setattr(owner, attr, orig)

    @contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    # -- output -------------------------------------------------------------

    def dump(self, path: Path, durations: list[float]) -> None:
        """Write every span as one tab-separated line, gzip-compressed,
        with its duration in reference-speed ns (see run.Sampler)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", compresslevel=1, encoding="utf-8") as fh:
            fh.write("index\tname\tstart_ns\tend_ns\tparent\top\tphase\t"
                     "op_kind\tref_ns\tgf_ops\tinfo\n")
            for idx, (sp, dur) in enumerate(zip(self.spans, durations)):
                phase, kind = self.op_kinds[sp[OP]]
                fh.write(f"{idx}\t{sp[NAME]}\t{sp[START]}\t{sp[END]}\t"
                         f"{sp[PARENT]}\t{sp[OP]}\t{phase}\t{kind}\t"
                         f"{dur:.0f}\t{sp[GF_END] - sp[GF_START]}\t"
                         f"{sp[INFO]}\n")


def child_time(spans: list[tuple], durations: list[float]) -> list[float]:
    """For every span index, the summed duration of its direct children."""
    covered = [0.0] * len(spans)
    for sp, dur in zip(spans, durations):
        if sp[PARENT] >= 0:
            covered[sp[PARENT]] += dur
    return covered
