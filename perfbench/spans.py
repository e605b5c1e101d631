"""Per-layer spans and counters, installed from outside the package.

The tracer replaces the module attributes through which callers reach a
layer's public functions with thin wrappers, and puts the originals back
afterwards. distbeam modules import each other's functions by name, so a
function is reachable from every module that imported it (``run_protocol``
lives in ``protocol`` but ``experiments`` and ``selfcheck`` hold their own
references). ``install`` therefore scans every loaded ``distbeam`` module
for attributes that are the original function, and tuples of them such as
``selfcheck.ALL_CHECKS``, and patches each one.

Span time is thread CPU time (``time.thread_time_ns``). Trials run on pool
threads that share the interpreter lock, so a wall-clock span would also
count the time its thread waited for the lock, and the per-thread sums
would exceed the run's wall time. Self time is a span's duration minus the
spans it called on the same thread. Stats are aggregated per thread while
the workload runs, then merged: one record per call would cost more memory
than the spans are worth at a million calls per execution.
"""

from __future__ import annotations

import importlib
import sys
import threading
import time
from array import array
from dataclasses import dataclass, field

import numpy as np

#: Timed layer boundaries, as (defining module, qualified name).
SPANS = (
    ("distbeam.cli", "cli_main"),
    ("distbeam.experiments", "run_experiment"),
    ("distbeam.experiments", "ExperimentResult.write"),
    ("distbeam.channel", "generate_scenario"),
    ("distbeam.protocol", "run_protocol"),
    ("distbeam.protocol", "efficiency_lower_bound"),
    ("distbeam.protocol", "check_induction_inequality"),
    ("distbeam.adapt", "adapt_phase"),
    ("distbeam.adapt", "probe_pair"),
    ("distbeam.adapt", "bisect_arc"),
    ("distbeam.power", "partial_power"),
    ("distbeam.power", "sum_signal"),
    ("distbeam.power", "harvested_power"),
    ("distbeam.power", "measure"),
    ("distbeam.baseline", "run_random_perturbation"),
)

#: Leaves called about a dozen times per feedback interval: timing them
#: would swamp the trace, so they are only counted. Their cost comes from
#: the isolated kernel timings.
COUNTED = (("distbeam.angles", "wrap_angle"),)

#: Every ``check_*`` listed in this tuple gets a span of its own.
SELFCHECK = ("distbeam.selfcheck", "ALL_CHECKS")

#: Probes are the power readings the bisection asks for, i.e. the calls to
#: ``partial_power`` made through ``adapt``'s own reference.
PROBE_LOOKUP = ("distbeam.adapt", "partial_power")


def span_name(module: str, qualname: str) -> str:
    return f"{module.removeprefix('distbeam.')}.{qualname}"


def _resolve(module: str, qualname: str):
    owner = importlib.import_module(module)
    *path, attr = qualname.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, attr, getattr(owner, attr)


@dataclass
class _Stat:
    calls: int = 0
    self_ns: int = 0
    total_ns: int = 0
    durations_ns: array = field(default_factory=lambda: array("q"))


class _ThreadState:
    """One thread's open-span stack and stats; only that thread writes it."""

    def __init__(self):
        self.stack: list[int] = []     # child time accumulated per open span
        self.stats: dict[str, _Stat] = {}
        self.counts: dict[str, int] = {}


@dataclass
class LayerStats:
    """Merged stats of one span name over one traced execution."""

    calls: int
    self_ns: int
    total_ns: int
    durations_ns: np.ndarray


@dataclass
class Snapshot:
    """Everything one traced execution recorded."""

    spans: dict[str, LayerStats]
    counts: dict[str, int]
    threads: int


class Tracer:
    """Installs span and count wrappers; use as a context manager."""

    def __init__(self):
        self._patches: list[tuple[object, str, object]] = []
        self._lock = threading.Lock()
        self.reset()

    # ----- per-thread state -------------------------------------------
    def reset(self) -> None:
        """Start a fresh recording (call between executions)."""
        self._local = threading.local()
        self._states: list[_ThreadState] = []

    def _state(self) -> _ThreadState:
        try:
            return self._local.state
        except AttributeError:
            st = _ThreadState()
            self._local.state = st
            with self._lock:
                self._states.append(st)
            return st

    # ----- wrappers ---------------------------------------------------
    def _span_wrapper(self, name: str, fn):
        clock = time.thread_time_ns

        def span(*args, **kwargs):
            st = self._state()
            stack = st.stack
            stack.append(0)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = clock() - t0
                child = stack.pop()
                if stack:
                    stack[-1] += dur
                rec = st.stats.get(name)
                if rec is None:
                    rec = st.stats[name] = _Stat()
                rec.calls += 1
                rec.self_ns += dur - child
                rec.total_ns += dur
                rec.durations_ns.append(dur)

        span.__wrapped__ = fn
        return span

    def _count_wrapper(self, name: str, fn):
        def counted(*args, **kwargs):
            counts = self._state().counts
            counts[name] = counts.get(name, 0) + 1
            return fn(*args, **kwargs)

        counted.__wrapped__ = fn
        return counted

    # ----- install / restore ------------------------------------------
    def _patch(self, owner, attr: str, new) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def _patch_everywhere(self, original, wrapper) -> None:
        """Point every loaded distbeam module's reference at the wrapper."""
        for modname, mod in list(sys.modules.items()):
            if modname != "distbeam" and not modname.startswith("distbeam."):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._patch(mod, attr, wrapper)
                elif isinstance(value, tuple) and any(v is original for v in value):
                    self._patch(mod, attr, tuple(wrapper if v is original else v
                                                 for v in value))

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        importlib.import_module("distbeam.cli")    # load every layer first
        for module, qualname in SPANS:
            owner, attr, fn = _resolve(module, qualname)
            wrapper = self._span_wrapper(span_name(module, qualname), fn)
            if isinstance(owner, type):
                self._patch(owner, attr, wrapper)   # a method: patch the class
            else:
                self._patch_everywhere(fn, wrapper)
        module, attr = SELFCHECK
        for check in getattr(importlib.import_module(module), attr):
            self._patch_everywhere(
                check, self._span_wrapper(span_name(module, check.__name__), check))
        for module, qualname in COUNTED:
            _, _, fn = _resolve(module, qualname)
            self._patch_everywhere(fn, self._count_wrapper(span_name(module, qualname), fn))
        module, attr = PROBE_LOOKUP
        owner = importlib.import_module(module)
        self._patch(owner, attr, self._count_wrapper("adapt.probes", getattr(owner, attr)))

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.restore()

    # ----- results ----------------------------------------------------
    def snapshot(self) -> Snapshot:
        """Merge the per-thread records made since the last reset."""
        with self._lock:
            states = list(self._states)
        spans: dict[str, LayerStats] = {}
        counts: dict[str, int] = {}
        for st in states:
            for name, rec in st.stats.items():
                durs = np.frombuffer(rec.durations_ns, dtype=np.int64)
                cur = spans.get(name)
                if cur is None:
                    spans[name] = LayerStats(rec.calls, rec.self_ns, rec.total_ns, durs.copy())
                else:
                    cur.calls += rec.calls
                    cur.self_ns += rec.self_ns
                    cur.total_ns += rec.total_ns
                    cur.durations_ns = np.concatenate([cur.durations_ns, durs])
            for name, n in st.counts.items():
                counts[name] = counts.get(name, 0) + n
        threads = sum(1 for st in states if st.stats)
        return Snapshot(spans, counts, threads)


def all_span_names() -> list[str]:
    """Every span the tracer can report, in a fixed order."""
    names = [span_name(m, q) for m, q in SPANS]
    module, attr = SELFCHECK
    names += [span_name(module, c.__name__)
              for c in getattr(importlib.import_module(module), attr)]
    return names

