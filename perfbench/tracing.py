"""Layer spans recorded from outside the program.

:func:`install` wraps the public callables in :data:`TARGETS` with timing
wrappers — at run time, only in this process — and :meth:`Installed.uninstall`
puts the identical original objects back.  Class attributes are patched on
the class; module-level functions are patched in every ``repro.*``
namespace where the same object is bound (``from x import f`` copies the
binding, e.g. ``repro.sim.cohort.validate_read_batch``).

A span records name, start, end and parent; the workload repeat is the
root span and all spans of a repeat share its id.  A callable's self time
is its duration minus the time its child spans cover (single-threaded,
so children never overlap).  Aggregates are always kept; raw spans only
up to a cap, and written as Chrome-trace JSON when the run ends.

Spans inside pool workers are not collected: a forked worker drops the
wrappers on its first instruction, so it runs the unwrapped program.
"""

from __future__ import annotations

import importlib
import json
import os
import sys
import time
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

__all__ = ["TARGETS", "SpanRecorder", "Installed", "install"]

#: span name -> the ``module:attribute`` paths recorded under it
TARGETS: Dict[str, Tuple[str, ...]] = {
    "ServerWorkload.next_transaction": (
        "repro.server.workload:ServerWorkload.next_transaction",
    ),
    "BroadcastServer.commit_update": (
        "repro.server.server:BroadcastServer.commit_update",
    ),
    "BroadcastServer.begin_cycle": (
        "repro.server.server:BroadcastServer.begin_cycle",
    ),
    "BroadcastServer.submit_client_update": (
        "repro.server.server:BroadcastServer.submit_client_update",
    ),
    "ControlMatrix.apply_commit": (
        "repro.core.control_matrix:ControlMatrix.apply_commit",
    ),
    "group_matrix.apply_commit": (
        "repro.core.group_matrix:GroupedControlState.apply_commit",
        "repro.core.group_matrix:LastWriteVector.apply_commit",
    ),
    "ReadValidator.validate_read": (
        "repro.core.validators:ReadValidator.validate_read",
    ),
    "validate_read_batch": ("repro.core.validators:validate_read_batch",),
    "validate_read_batch_inorder": (
        "repro.core.validators:validate_read_batch_inorder",
    ),
    "layout.next_read": (
        "repro.broadcast.layout:FlatLayout.next_read",
        "repro.broadcast.layout:MultiDiskLayout.next_read",
    ),
    "QuasiCache.lookup": ("repro.client.cache:QuasiCache.lookup",),
    "QuasiCache.insert": ("repro.client.cache:QuasiCache.insert",),
    "Simulator.run": ("repro.sim.engine:Simulator.run",),
    "run_analytic": ("repro.sim.analytic:run_analytic",),
    "MetricsCollector.record_commit": (
        "repro.sim.metrics:MetricsCollector.record_commit",
    ),
    "MetricsCollector.merge_from": (
        "repro.sim.metrics:MetricsCollector.merge_from",
    ),
    "FaultRuntime.slot_heard": ("repro.sim.faults:FaultRuntime.slot_heard",),
    "FaultRuntime.uplink_lost": ("repro.sim.faults:FaultRuntime.uplink_lost",),
    "run_sweep": ("repro.experiments.sweeps:run_sweep",),
}

#: raw spans kept per recorder (aggregates cover every span regardless)
SPAN_CAP = 200_000


class SpanRecorder:
    """Span stack, per-callable aggregates and the capped raw span list."""

    def __init__(
        self, clock: Callable[[], float] = time.perf_counter, cap: int = SPAN_CAP
    ) -> None:
        self.clock = clock
        self.cap = cap
        #: (id, name, start, end, parent id or -1, root id)
        self.spans: List[Tuple[int, str, float, float, int, int]] = []
        self.dropped = 0
        #: name -> [calls, total seconds, self seconds]
        self.totals: Dict[str, List[float]] = {}
        #: open spans, innermost last: [id, seconds covered by children]
        self._stack: List[List[Any]] = []
        self._next_id = 0

    def wrap(self, name: str, fn: Callable[..., Any]) -> Callable[..., Any]:
        """``fn`` timed as a span called ``name``."""
        clock = self.clock
        stack = self._stack
        total = self.totals.setdefault(name, [0, 0.0, 0.0])
        close = self._close

        def traced(*args: Any, **kwargs: Any) -> Any:
            frame = [self._next_id, 0.0]
            self._next_id += 1
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                close(name, total, frame, start, clock())

        traced.__wrapped__ = fn  # type: ignore[attr-defined]
        return traced

    def _close(
        self, name: str, total: List[float], frame: List[Any], start: float, end: float
    ) -> None:
        stack = self._stack
        stack.pop()
        duration = end - start
        total[0] += 1
        total[1] += duration
        total[2] += duration - frame[1]
        span_id = frame[0]
        parent = root = -1
        if stack:
            stack[-1][1] += duration
            parent = stack[-1][0]
            root = stack[0][0]
        if len(self.spans) < self.cap:
            self.spans.append(
                (span_id, name, start, end, parent, span_id if root < 0 else root)
            )
        else:
            self.dropped += 1

    def root(self, name: str, fn: Callable[[], Any]) -> Any:
        """Run ``fn`` as the root span (one workload repeat)."""
        return self.wrap(name, fn)()

    # -- reporting -----------------------------------------------------
    def aggregate(self, root_name: str) -> Dict[str, Any]:
        """``calls`` / ``total_s`` / ``self_s`` per callable, plus the share
        of the root no wrapped callable accounts for."""
        _calls, root_total, root_self = self.totals[root_name]
        return {
            "root_s": root_total,
            "unattributed_s": root_self,
            "spans_recorded": len(self.spans),
            "spans_dropped": self.dropped,
            "callables": {
                name: {"calls": int(calls), "total_s": total, "self_s": self_s}
                for name, (calls, total, self_s) in self.totals.items()
                if name != root_name
            },
        }

    def write_chrome_trace(self, path: Path) -> None:
        """The raw spans as a Chrome-trace document (``chrome://tracing``,
        Perfetto): complete events in microseconds from the first span."""
        origin = min((span[2] for span in self.spans), default=0.0)
        pid = os.getpid()
        path.parent.mkdir(parents=True, exist_ok=True)
        # streamed and compact: a full 200 k-span trace is ~20 MB as it is
        with path.open("w") as handle:
            handle.write('{"traceEvents":[')
            for index, (span_id, name, start, end, parent, root) in enumerate(self.spans):
                event = {
                    "name": name,
                    "ph": "X",
                    "ts": round((start - origin) * 1e6, 3),
                    "dur": round((end - start) * 1e6, 3),
                    "pid": pid,
                    "tid": 0,
                    "args": {"id": span_id, "parent": parent, "root": root},
                }
                handle.write("," if index else "")
                handle.write(json.dumps(event, separators=(",", ":")))
            handle.write("]}")


def _resolve(path: str) -> Tuple[Any, str, Any]:
    """``module:Class.attr`` or ``module:function`` -> (owner, attr, object)."""
    module_name, _, qualname = path.partition(":")
    owner: Any = importlib.import_module(module_name)
    *parents, attr = qualname.split(".")
    for part in parents:
        owner = getattr(owner, part)
    return owner, attr, vars(owner)[attr]


class Installed:
    """The patches one :func:`install` call made, and how to undo them."""

    def __init__(self, recorder: SpanRecorder) -> None:
        self.recorder = recorder
        #: (namespace dict owner, attribute, original object)
        self._patches: List[Tuple[Any, str, Any]] = []

    def _patch(self, owner: Any, attr: str, original: Any, wrapper: Any) -> None:
        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def uninstall(self) -> None:
        """Restore the identical original objects, newest patch first."""
        global _ACTIVE
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)
        if _ACTIVE is self:
            _ACTIVE = None

    def __enter__(self) -> SpanRecorder:
        return self.recorder

    def __exit__(self, *_exc: object) -> None:
        self.uninstall()


#: the live installation, so a forked pool worker can drop the wrappers
_ACTIVE: Optional[Installed] = None
_FORK_HOOK_REGISTERED = False


def _uninstall_in_child() -> None:
    if _ACTIVE is not None:
        _ACTIVE.uninstall()


def install(recorder: Optional[SpanRecorder] = None) -> Installed:
    """Wrap every callable in :data:`TARGETS`; returns the undo handle."""
    global _ACTIVE, _FORK_HOOK_REGISTERED
    if _ACTIVE is not None:
        raise RuntimeError("tracing wrappers are already installed")
    installed = Installed(recorder or SpanRecorder())
    for name, paths in TARGETS.items():
        for path in paths:
            owner, attr, original = _resolve(path)
            wrapper = installed.recorder.wrap(name, original)
            if isinstance(owner, type):
                installed._patch(owner, attr, original, wrapper)
                continue
            for module_name, module in list(sys.modules.items()):
                if module is None or not (
                    module_name == "repro" or module_name.startswith("repro.")
                ):
                    continue
                for bound_as, value in list(vars(module).items()):
                    if value is original:
                        installed._patch(module, bound_as, original, wrapper)
    _ACTIVE = installed
    if not _FORK_HOOK_REGISTERED:
        os.register_at_fork(after_in_child=_uninstall_in_child)
        _FORK_HOOK_REGISTERED = True
    return installed
