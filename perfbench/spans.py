"""Spans around the calls into each halfbvm layer, recorded from outside.

The program itself carries no tracing.  ``Tracer.installed`` replaces the
attributes that callers look up (``cli.gmres_solve``, ``bvm.AllAtOnceSystem
.apply``, ...) with timing wrappers and puts the originals back on exit.
Spans carry a name, start, end, parent span and op id; they stay in memory
and the caller writes them out when the run ends.

A layer's self time is its span's duration minus the part of that interval
its child spans cover.  Within one thread the self times of an op's spans add
up to the op's wall time.  In the ``converge`` sweep the sweep points run on
two threads, so layer sums there are thread-seconds.
"""

import functools
import importlib
import itertools
import threading
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Target:
    """One wrapped attribute: ``module`` is a module path, ``attr`` may be
    ``Class.method``.  ``kind`` is "span", "capture" (span plus the call's
    arguments and result kept for checks) or "count" (a counter, no span)."""

    module: str
    attr: str
    name: str
    kind: str = "span"


# Each wrapper sits on the attribute the caller looks up at call time.
COARSE = (
    Target("halfbvm.problems", "setup_run", "problems.setup_run"),
    Target("halfbvm.cli", "assemble_all_at_once", "bvm.assemble"),
    Target("halfbvm.cli", "build_preconditioner", "krylov.precond_build"),
    Target("halfbvm.cli", "gmres_solve", "krylov.gmres", "capture"),
    Target("halfbvm.cli", "direct_solve", "krylov.direct", "capture"),
)
FULL = COARSE + (
    Target("halfbvm.cli", "eigenvalues_of_D", "spectrum.eigs"),
    Target("halfbvm.cli", "relative_l2_error", "oracles.error"),
    Target("halfbvm.problems", "assemble_discrete_system", "spatial.assemble"),
    Target("halfbvm.problems", "doubled_initial_state", "doubling.initial_state"),
    Target("halfbvm.hilbert", "weideman_fit", "hilbert.fit"),
    Target("halfbvm.hilbert", "weideman_eval", "hilbert.eval"),
    Target("halfbvm.hilbert", "CatalogFunction.hilbert_derivative",
           "hilbert.closed_form"),
    Target("halfbvm.bvm", "source_block_values", "doubling.source_blocks"),
    Target("halfbvm.bvm", "doubled_source", "doubling.doubled_source"),
    Target("halfbvm.bvm", "AllAtOnceSystem.apply", "bvm.apply"),
    Target("halfbvm.krylov", "apply_preconditioner", "krylov.precond_apply"),
    Target("halfbvm.krylov", "solve_frequency_block", "krylov.block_solve",
           "count"),
    Target("halfbvm.oracles", "FourierSeriesSolution.__post_init__",
           "oracles.build"),
    Target("halfbvm.oracles", "FourierSeriesSolution.__call__", "oracles.eval"),
)

# Spans whose first positional argument after ``self``/the expansion is the
# array of evaluation points; their sizes add up to ``hilbert.eval_points``.
POINT_ARG = {"hilbert.eval": 1, "hilbert.closed_form": 1}


@dataclass(frozen=True)
class Span:
    """``start``/``end`` are ``perf_counter`` seconds; ``cpu`` is the CPU time
    of the span's own thread while it was open, children included."""

    id: int
    name: str
    start: float
    end: float
    parent: int | None
    op: int | None
    thread: int
    cpu: float = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start


def covered(intervals, lo: float, hi: float) -> float:
    """Length of [lo, hi] covered by the union of the given intervals."""
    total = 0.0
    cur_lo = cur_hi = None
    for s, e in sorted((max(s, lo), min(e, hi)) for s, e in intervals):
        if e <= s:
            continue
        if cur_hi is None or s > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = s, e
        else:
            cur_hi = max(cur_hi, e)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans) -> dict:
    """Span id -> duration minus the part of it that child spans cover.

    Children that overlap each other (concurrent threads) are counted once.
    """
    children = defaultdict(list)
    for sp in spans:
        if sp.parent is not None:
            children[sp.parent].append((sp.start, sp.end))
    return {sp.id: sp.duration - covered(children[sp.id], sp.start, sp.end)
            for sp in spans}


def _resolve(target: Target):
    owner = importlib.import_module(target.module)
    *path, attr = target.attr.split(".")
    for part in path:
        owner = getattr(owner, part)
    if attr not in vars(owner):
        raise AttributeError(f"{target.module}.{target.attr} is not defined "
                             "on its owner; wrapping it would shadow a parent")
    return owner, attr


class Tracer:
    """Collects spans, counts and captured solver calls for one run."""

    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self.captured = []
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._local = threading.local()
        self._op = None

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def op(self, name: str):
        """Root span of one CLI operation; spans on other threads hang here."""
        if self._op is not None:
            raise RuntimeError("ops do not nest")
        sid = next(self._ids)
        self._op = sid
        cpu0, start = time.thread_time(), time.perf_counter()
        try:
            yield sid
        finally:
            end, cpu = time.perf_counter(), time.thread_time() - cpu0
            self._op = None
            self.spans.append(Span(sid, name, start, end, None, sid,
                                   threading.get_ident(), cpu))

    def _call(self, target: Target, fn, args, kwargs):
        op = self._op
        if op is None:
            return fn(*args, **kwargs)
        if target.kind == "count":
            with self._lock:
                self.counts[target.name] += 1
            return fn(*args, **kwargs)
        if target.name in POINT_ARG:
            with self._lock:
                self.counts["hilbert.eval_points"] += int(
                    np.size(args[POINT_ARG[target.name]]))
        stack = self._stack()
        parent = stack[-1] if stack else op
        with self._lock:
            sid = next(self._ids)
        stack.append(sid)
        cpu0, start = time.thread_time(), time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            end, cpu = time.perf_counter(), time.thread_time() - cpu0
            stack.pop()
            self.spans.append(Span(sid, target.name, start, end, parent, op,
                                   threading.get_ident(), cpu))
        if target.kind == "capture":
            self.captured.append((target.name, args, kwargs, result))
        return result

    @contextmanager
    def installed(self, targets):
        """Wrap every target for the duration of the block, then restore."""
        saved = []
        try:
            for target in targets:
                owner, attr = _resolve(target)
                original = vars(owner)[attr]
                saved.append((owner, attr, original))
                setattr(owner, attr, self._wrapper(target, original))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def _wrapper(self, target: Target, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self._call(target, fn, args, kwargs)
        return wrapper

    def take(self):
        """Hand over and forget the spans and counts so far."""
        spans, counts = self.spans, self.counts
        self.spans, self.counts = [], Counter()
        return spans, counts
