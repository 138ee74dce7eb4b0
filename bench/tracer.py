"""In-memory span tracer that hooks mmfuse layers from outside the package.

A hook replaces one function or method with a wrapper that records a span:
name, start, end, the span that was open when it started (its parent), and
the request id current on that thread. Spans of one wire line share a
``(connection, line)`` request id. Self time is the span's duration minus
the time its child spans cover; it is summed as each span closes, so the
per-layer totals cover every call while only the first ``max_kept`` spans
are kept for the span file written at the end.

Hooks are resolved by dotted name when installed. A target that no longer
exists is reported as absent instead of failing the run, so the benchmark
survives refactors that delete or move the code it watches. A module-level
function is rebound everywhere the package imported it by name (``step`` is
bound in ``mmfuse.fusion``, ``mmfuse.server`` and ``mmfuse.repl``).
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import json
import sys
import threading
import time
import weakref
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

clock = time.perf_counter

#: (hook target, layer name, reported fields) for every layer the traced
#: runs watch. A field is ``calls``, ``busy_s`` (seconds inside the call) or
#: ``self_s`` (seconds inside minus the time in hooked callees); each is
#: reported as the per-layer metric ``<layer name>.<field>``.
LAYER_HOOKS: Tuple[Tuple[str, str, Tuple[str, ...]], ...] = (
    ("mmfuse.seeding:make_rng", "seeding.make_rng", ("calls",)),
    ("mmfuse.emg:GestureOutcomeModel.draw_confusable", "emg.draw_confusable", ("self_s",)),
    ("mmfuse.emg:GestureOutcomeModel.sample_kinds", "emg.sample_kinds", ("busy_s",)),
    ("mmfuse.speech:sample_recognition", "speech.sample_recognition", ("self_s",)),
    ("mmfuse.speech:sample_capture_kinds", "speech.sample_capture_kinds", ("busy_s",)),
    ("mmfuse.fusion:step", "fusion.step", ("calls", "self_s")),
    ("mmfuse.fusion:run_episode", "fusion.run_episode", ("calls", "self_s")),
    ("mmfuse.harness:default_fusion_config", "harness.default_fusion_config", ("busy_s",)),
    ("mmfuse.harness:run_modality_experiment", "harness.run_modality_experiment", ("busy_s",)),
    ("mmfuse.harness:run_fusion_experiment", "harness.run_fusion_experiment", ("busy_s",)),
    ("mmfuse.report:emit_report", "report.emit_report", ("busy_s",)),
    ("mmfuse.report:emit_chart", "report.emit_chart", ("busy_s",)),
    ("mmfuse.protocol:decode", "protocol.decode", ("calls", "self_s")),
    ("mmfuse.protocol:encode", "protocol.encode", ("calls", "self_s")),
    ("mmfuse.server:Session.__init__", "server.Session.init", ("busy_s",)),
    ("mmfuse.server:Session.handle_line", "server.Session.handle_line", ("self_s",)),
)

#: Index of each field in a layer's totals ``[calls, busy, self]``.
FIELD_INDEX = {"calls": 0, "busy_s": 1, "self_s": 2}

#: Modules imported before hooking, so names they import get rebound too.
_PACKAGE_MODULES = (
    "mmfuse",
    "mmfuse.seeding",
    "mmfuse.emg",
    "mmfuse.speech",
    "mmfuse.fusion",
    "mmfuse.harness",
    "mmfuse.report",
    "mmfuse.protocol",
    "mmfuse.server",
    "mmfuse.repl",
)


class _ThreadState:
    __slots__ = ("stack", "agg", "req")

    def __init__(self) -> None:
        self.stack: List[list] = []  # open spans: [span id, start, child time]
        self.agg: Dict[str, list] = {}  # name -> [calls, busy seconds, self seconds]
        self.req: object = None


class Tracer:
    """Collects spans and per-layer totals for one process."""

    def __init__(self, max_kept: int = 20_000) -> None:
        self.max_kept = max_kept
        self.kept: List[tuple] = []
        self.absent: List[str] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._states: List[_ThreadState] = []

    def _state(self) -> _ThreadState:
        st = getattr(self._local, "st", None)
        if st is None:
            st = _ThreadState()
            self._local.st = st
            with self._lock:
                self._states.append(st)
        return st

    def set_request(self, req: object) -> None:
        """Request id stamped on spans this thread opens from now on."""
        self._state().req = req

    def _close(self, st: _ThreadState, name: str, frame: list, end: float) -> None:
        dur = end - frame[1]
        a = st.agg.get(name)
        if a is None:
            a = st.agg[name] = [0, 0.0, 0.0]
        a[0] += 1
        a[1] += dur
        a[2] += dur - frame[2]
        parent = st.stack[-1] if st.stack else None
        if parent is not None:
            parent[2] += dur
        if len(self.kept) < self.max_kept:
            self.kept.append(
                (frame[0], parent[0] if parent else 0, name, frame[1], end, st.req)
            )

    def record(self, name: str, start: float, end: float, req: object = None) -> None:
        """Add a finished span measured by the caller (no children)."""
        st = self._state()
        saved, st.req = st.req, req
        self._close(st, name, [next(self._ids), start, 0.0], end)
        st.req = saved

    def wrap(
        self,
        name: str,
        fn: Callable,
        request: Optional[Callable[[tuple], object]] = None,
    ) -> Callable:
        """``fn`` recording a span per call; ``request(args)`` sets the id."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            st = tracer._state()
            if request is not None:
                st.req = request(args)
            frame = [next(tracer._ids), clock(), 0.0]
            st.stack.append(frame)
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                st.stack.pop()
                tracer._close(st, name, frame, end)

        return traced

    def install(
        self,
        target: str,
        name: str,
        request: Optional[Callable[[tuple], object]] = None,
    ) -> bool:
        """Hook ``module:qualname``; False (and listed absent) if it is gone."""
        modname, _, qualname = target.partition(":")
        parts = qualname.split(".")
        try:
            owner = importlib.import_module(modname)
            for part in parts[:-1]:
                owner = getattr(owner, part)
            if inspect.isclass(owner):
                orig = owner.__dict__[parts[-1]]
            else:
                orig = getattr(owner, parts[-1])
        except (ImportError, AttributeError, KeyError):
            self.absent.append(name)
            return False
        if not inspect.isfunction(orig):
            self.absent.append(name)
            return False
        traced = self.wrap(name, orig, request)
        if inspect.isclass(owner):
            setattr(owner, parts[-1], traced)
        else:
            root = modname.split(".")[0]
            for modkey, mod in list(sys.modules.items()):
                if mod is None or not (modkey == root or modkey.startswith(root + ".")):
                    continue
                for attr, value in list(vars(mod).items()):
                    if value is orig:
                        setattr(mod, attr, traced)
        return True

    def totals(self) -> Dict[str, list]:
        """name -> [calls, busy seconds, self seconds], over all threads."""
        out: Dict[str, list] = {}
        with self._lock:
            states = list(self._states)
        for st in states:
            for name, (calls, busy, own) in list(st.agg.items()):
                a = out.setdefault(name, [0, 0.0, 0.0])
                a[0] += calls
                a[1] += busy
                a[2] += own
        return out

    def write(self, path: Path) -> None:
        """Write the kept spans, one JSON object per line."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as f:
            for sid, parent, name, start, end, req in self.kept:
                f.write(
                    json.dumps(
                        {
                            "id": sid,
                            "parent": parent,
                            "name": name,
                            "start": start,
                            "end": end,
                            "req": req,
                        }
                    )
                    + "\n"
                )


def install_layers(tracer: Tracer) -> None:
    """Hook every layer in :data:`LAYER_HOOKS` that still exists.

    Lines handled by one ``Session`` share the request id
    ``(session ordinal, line ordinal)``; sessions are numbered in the order
    their first line arrives.
    """
    for modname in _PACKAGE_MODULES:
        try:
            importlib.import_module(modname)
        except ImportError:
            pass
    line_ids: "weakref.WeakKeyDictionary[object, list]" = weakref.WeakKeyDictionary()
    ordinals = itertools.count()
    lock = threading.Lock()

    def line_request(args: tuple) -> object:
        session = args[0]
        with lock:
            ids = line_ids.get(session)
            if ids is None:
                ids = line_ids[session] = [next(ordinals), -1]
            ids[1] += 1
            return (ids[0], ids[1])

    for target, name, _ in LAYER_HOOKS:
        request = line_request if name == "server.Session.handle_line" else None
        tracer.install(target, name, request)

