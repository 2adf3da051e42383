"""Outside-in tracing: wrap the program's public functions at run time.

The program is never edited.  :class:`Patcher` rebinds a function (at
every ``repro`` module global that refers to it, so each caller's lookup
sees the wrapper) or a class member, and restores every original on
exit.  :class:`Tracer` builds span wrappers for it.

Self time is charged as the run goes: whenever a span opens or closes,
the interval since the previous event is charged to the innermost open
span.  Every interval is charged to exactly one span, so the self times
of a traced run sum to its wall time.  Intervals are also split at
verdict boundaries (:meth:`Tracer.boundary`), which gives each verdict
its own per-span breakdown.

Spans are kept in compact arrays (name, start, end, parent, request) and
written once, by :meth:`Tracer.write_spans`, after the run.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
from array import array
from time import perf_counter
from types import ModuleType
from typing import Any, Callable, Iterator

#: Name of the span that covers the whole traced region; its self time is
#: the time spent outside every wrapped function.
ROOT = "root"

SizeFn = Callable[[tuple, dict], int]


def _resolve(module: str, target: str) -> tuple[Any, str]:
    """``(owner, attribute)`` for ``module`` + ``"func"`` or ``"Class.member"``."""
    mod = importlib.import_module(module)
    if "." in target:
        cls_name, attr = target.split(".", 1)
        return getattr(mod, cls_name), attr
    return mod, target


class Patcher:
    """Rebinds functions and class members; :meth:`restore` undoes all of it.

    Use as a context manager so originals come back even when the
    wrapped run raises.
    """

    def __init__(self) -> None:
        self._undo: list[tuple[Any, str, Any]] = []

    def _set(self, owner: Any, attr: str, value: Any) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def wrap(
        self,
        module: str,
        target: str,
        make: Callable[[Callable[..., Any]], Callable[..., Any]],
        *,
        everywhere: bool = True,
    ) -> None:
        """Replace ``module.target`` by ``make(original)``.

        A module-level function is rebound at every ``repro`` module
        global bound to the same object (``from x import f`` copies), and
        at its defining module; with ``everywhere=False`` only at
        ``module`` itself, for a hook on one call site.  A
        ``Class.member`` target is replaced on the class itself; class
        and static methods keep their kind.
        """
        owner, attr = _resolve(module, target)
        if isinstance(owner, ModuleType):
            original = getattr(owner, attr)
            wrapper = make(original)
            homes = self._modules(owner) if everywhere else iter((owner,))
            for mod in homes:
                for name, value in list(vars(mod).items()):
                    if value is original:
                        self._set(mod, name, wrapper)
            return
        raw = owner.__dict__[attr]
        if isinstance(raw, (classmethod, staticmethod)):
            self._set(owner, attr, type(raw)(make(raw.__func__)))
        else:
            self._set(owner, attr, make(raw))

    @staticmethod
    def _modules(home: ModuleType) -> Iterator[ModuleType]:
        yield home
        for name, mod in list(sys.modules.items()):
            if mod is not home and (name == "repro" or name.startswith("repro.")):
                yield mod

    def restore(self) -> None:
        """Put every original back, newest patch first."""
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Patcher":
        return self

    def __exit__(self, *exc: object) -> None:
        self.restore()


def after(callback: Callable[[Any], None]) -> Callable[[Callable[..., Any]], Callable[..., Any]]:
    """Wrapper factory: call ``callback(result)`` after each normal return."""

    def make(fn: Callable[..., Any]) -> Callable[..., Any]:
        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            result = fn(*args, **kwargs)
            callback(result)
            return result

        return wrapper

    return make


def timed(acc: list[float]) -> Callable[[Callable[..., Any]], Callable[..., Any]]:
    """Wrapper factory: add each call's wall seconds to ``acc[0]``.

    Nested calls of wrapped functions are counted once, by the outermost.
    """
    depth = [0]

    def make(fn: Callable[..., Any]) -> Callable[..., Any]:
        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            depth[0] += 1
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                depth[0] -= 1
                if depth[0] == 0:
                    acc[0] += perf_counter() - t0

        return wrapper

    return make


class Tracer:
    """Span recorder with exclusive-time accounting.

    Call :meth:`start` before the traced region and :meth:`stop` after;
    wrappers from :meth:`span` record one span per call in between.
    """

    def __init__(self) -> None:
        self.names: list[str] = [ROOT]
        self._ids: dict[str, int] = {ROOT: 0}
        self.span_name = array("l")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("l")
        self.span_request = array("l")
        self.span_size = array("q")
        self._open: list[int] = []
        self._top: list[int] = []
        self._last = 0.0
        self._row: list[float] = []
        #: Per-verdict self seconds, indexed ``[verdict][name id]``.
        self.rows: list[list[float]] = []
        #: Request id stored on spans opened from now on; the caller
        #: advances it (verdict index, or instance index offline).
        self.request = 0
        self.t0 = 0.0
        self.t1 = 0.0

    def name_id(self, name: str) -> int:
        """Register ``name`` (idempotent) and return its id."""
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
            self._row.append(0.0)
        return nid

    # -- recording -----------------------------------------------------

    def start(self) -> None:
        """Open the root span."""
        self._row = [0.0] * len(self.names)
        self.t0 = self._last = perf_counter()
        self._open.append(self._record(0, self.t0, 0))
        self._top.append(0)

    def stop(self) -> None:
        """Close the root span; every span must be closed by now."""
        if len(self._open) != 1:
            raise RuntimeError(
                f"{len(self._open) - 1} span(s) still open at stop: "
                f"{[self.names[n] for n in self._top[1:]]}"
            )
        self.t1 = self._charge()
        self.span_end[self._open.pop()] = self.t1
        self._top.pop()
        self.rows.append(self._row)
        self._row = [0.0] * len(self.names)

    def _record(self, nid: int, now: float, size: int) -> int:
        idx = len(self.span_name)
        self.span_name.append(nid)
        self.span_start.append(now)
        self.span_end.append(now)
        self.span_parent.append(self._open[-1] if self._open else -1)
        self.span_request.append(self.request)
        self.span_size.append(size)
        return idx

    def _charge(self) -> float:
        now = perf_counter()
        self._row[self._top[-1]] += now - self._last
        self._last = now
        return now

    def enter(self, nid: int, size: int = 0) -> int:
        """Open a span of name id ``nid``; returns its record index."""
        idx = self._record(nid, self._charge(), size)
        self._open.append(idx)
        self._top.append(nid)
        return idx

    def exit(self, idx: int) -> None:
        """Close the span opened as record ``idx`` (must be innermost)."""
        if self._open[-1] != idx:
            raise RuntimeError("spans closed out of order")
        self.span_end[idx] = self._charge()
        self._open.pop()
        self._top.pop()

    def boundary(self) -> None:
        """End the current verdict's row of self times."""
        self._charge()
        self.rows.append(self._row)
        self._row = [0.0] * len(self.names)

    def span(
        self, name: str, size: SizeFn | None = None
    ) -> Callable[[Callable[..., Any]], Callable[..., Any]]:
        """Wrapper factory recording one ``name`` span per call.

        ``size(args, kwargs)``, when given, is stored on the span (work
        items the call carried, e.g. tasks in a probe batch).
        """
        nid = self.name_id(name)
        enter, exit_ = self.enter, self.exit

        def make(fn: Callable[..., Any]) -> Callable[..., Any]:
            if size is None:

                @functools.wraps(fn)
                def wrapper(*args: Any, **kwargs: Any) -> Any:
                    idx = enter(nid)
                    try:
                        return fn(*args, **kwargs)
                    finally:
                        exit_(idx)

            else:

                @functools.wraps(fn)
                def wrapper(*args: Any, **kwargs: Any) -> Any:
                    idx = enter(nid, size(args, kwargs))
                    try:
                        return fn(*args, **kwargs)
                    finally:
                        exit_(idx)

            return wrapper

        return make

    # -- results -------------------------------------------------------

    @property
    def wall_s(self) -> float:
        """Duration of the root span."""
        return self.t1 - self.t0

    def self_seconds(self) -> dict[str, float]:
        """Self time per span name, summed over all verdicts."""
        totals = [0.0] * len(self.names)
        for row in self.rows:
            for nid, v in enumerate(row):
                totals[nid] += v
        return dict(zip(self.names, totals))

    def calls(self) -> dict[str, int]:
        """Span count per name (the root counts once)."""
        counts = [0] * len(self.names)
        for nid in self.span_name:
            counts[nid] += 1
        return dict(zip(self.names, counts))

    def total_size(self, name: str, parent: str | None = None) -> int:
        """Sum of stored sizes of ``name`` spans, optionally only those
        whose parent span is a ``parent`` span."""
        nid = self._ids.get(name)
        if nid is None:
            return 0
        pid = None if parent is None else self._ids.get(parent, -2)
        total = 0
        for i, n in enumerate(self.span_name):
            if n != nid:
                continue
            if pid is not None:
                p = self.span_parent[i]
                if p < 0 or self.span_name[p] != pid:
                    continue
            total += self.span_size[i]
        return total

    def count_children(self, parent: str, names: tuple[str, ...]) -> int:
        """Number of spans named in ``names`` whose parent is ``parent``."""
        pid = self._ids.get(parent)
        wanted = {self._ids[n] for n in names if n in self._ids}
        if pid is None or not wanted:
            return 0
        total = 0
        for i, n in enumerate(self.span_name):
            p = self.span_parent[i]
            if n in wanted and p >= 0 and self.span_name[p] == pid:
                total += 1
        return total

    def requests_with(self, name: str) -> int:
        """Number of distinct request ids carrying at least one ``name`` span."""
        nid = self._ids.get(name)
        if nid is None:
            return 0
        return len(
            {r for n, r in zip(self.span_name, self.span_request) if n == nid}
        )

    def write_spans(self, path: str, request_ids: list[str] | None = None) -> int:
        """Write every span as one JSON line; returns the span count.

        Times are seconds since the root span opened.  ``request`` is the
        stored request index, or its entry in ``request_ids`` when given.
        """
        with open(path, "w", encoding="utf-8") as fh:
            for i, nid in enumerate(self.span_name):
                req: Any = self.span_request[i]
                if request_ids is not None and req < len(request_ids):
                    req = request_ids[req]
                fh.write(
                    json.dumps(
                        {
                            "name": self.names[nid],
                            "start": self.span_start[i] - self.t0,
                            "end": self.span_end[i] - self.t0,
                            "parent": self.span_parent[i],
                            "request": req,
                        }
                    )
                    + "\n"
                )
        return len(self.span_name)
