"""Span tracing of nonlocal_lab from outside the package.

`Tracer.install()` replaces every public function of the layer modules
(and the public methods plus `__post_init__` of the classes they define)
with a timing wrapper. Names that other modules imported directly, such
as `acceptance.born_table` or `lhv.run_batched`, are found by identity and
patched too, and so are module-level lists, tuples and dicts that hold the
functions (`acceptance.CRITERIA`, which `run_all` calls through): the
module gets a copy that holds the wrappers. `uninstall()` puts every
original object back. The package itself is never edited.

Each span records its name, parent, start, end, a count (samples in a
batch, cells in a Born table) and a tag (the local dimension of a Born
table). Spans are kept per thread in flat arrays and analysed after the
run by `Tracer.analysis()`.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import threading
import time
from array import array

import numpy as np

LAYERS = ("qmat", "states", "measure", "bell", "mc", "lhv", "filters", "acceptance", "cli")
# Kernel closures are defined in lhv and handed to mc.run_batched, which has
# no name for them; the run_batched wrapper wraps each kernel under this name.
KERNEL = "lhv.kernel"


class _ThreadLog:
    __slots__ = ("thread", "name", "parent", "start", "end", "count", "tag", "stack")

    def __init__(self) -> None:
        self.thread = threading.get_ident()
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.count = array("q")
        self.tag = array("q")
        self.stack: list[int] = []

    def open(self, nid: int, count: int, tag: int, now: float) -> int:
        i = len(self.name)
        self.name.append(nid)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.count.append(count)
        self.tag.append(tag)
        self.end.append(0.0)
        self.start.append(now)
        self.stack.append(i)
        return i

    def close(self, i: int, now: float) -> None:
        self.end[i] = now
        self.stack.pop()


class Tracer:
    """Installs span wrappers on the layers of `package`; use as a context manager."""

    def __init__(self, package) -> None:
        self.package = package
        self.modules = [importlib.import_module(f"{package.__name__}.{m}") for m in LAYERS]
        self._names: list[str] = []
        self._ids: dict[str, int] = {}
        self._local = threading.local()
        self._logs: list[_ThreadLog] = []
        self._logs_lock = threading.Lock()
        self.patches: list[tuple[object, str, object]] = []
        self._hooks = {"mc.run_batched": self._run_batched_hook, "measure.born_table": _born_table_hook}

    # -- recording ---------------------------------------------------------

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self._names)
            self._names.append(name)
        return self._ids[name]

    def _log(self) -> _ThreadLog:
        try:
            return self._local.log
        except AttributeError:
            log = self._local.log = _ThreadLog()
            with self._logs_lock:
                self._logs.append(log)
            return log

    def wrap(self, name: str, fn, hook=None):
        """Timing wrapper around fn. hook(fn, args, kwargs) -> (args, kwargs, count, tag)."""
        nid = self._id(name)
        log_of = self._log
        clock = time.perf_counter

        if hook is None:  # the common case; keep its per-call cost minimal
            def traced(*args, **kwargs):
                log = log_of()
                i = log.open(nid, 0, 0, clock())
                try:
                    return fn(*args, **kwargs)
                finally:
                    log.close(i, clock())
        else:
            def traced(*args, **kwargs):
                args, kwargs, count, tag = hook(fn, args, kwargs)
                log = log_of()
                i = log.open(nid, count, tag, clock())
                try:
                    return fn(*args, **kwargs)
                finally:
                    log.close(i, clock())

        return functools.update_wrapper(traced, fn)

    def _run_batched_hook(self, fn, args, kwargs):
        bound = inspect.signature(fn).bind(*args, **kwargs)
        bound.arguments["kernel"] = self.wrap(KERNEL, bound.arguments["kernel"], _kernel_hook)
        return bound.args, bound.kwargs, int(bound.arguments["n"]), 0

    # -- patching ----------------------------------------------------------

    def _patch(self, owner, attr: str, new) -> None:
        self.patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, new)

    def install(self) -> "Tracer":
        if self.patches:
            raise RuntimeError("tracer is already installed")
        self.client = threading.get_ident()
        wrapped = {}
        for mod in self.modules:
            layer = mod.__name__.rsplit(".", 1)[1]
            for attr, obj in list(vars(mod).items()):
                if getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj) and not attr.startswith("_"):
                    name = f"{layer}.{attr}"
                    wrapped[obj] = self.wrap(name, obj, self._hooks.get(name))
                elif inspect.isclass(obj):
                    self._install_methods(f"{layer}.{attr}", obj)
        for ns in [self.package, *self.modules]:
            for attr, obj in list(vars(ns).items()):
                if inspect.isfunction(obj) and obj in wrapped:
                    self._patch(ns, attr, wrapped[obj])
                elif type(obj) in (list, tuple, dict) and not attr.startswith("__"):
                    # Registries such as acceptance.CRITERIA hold the functions
                    # themselves; the module gets a copy that holds the wrappers.
                    sub = _substituted(obj, wrapped)
                    if sub is not None:
                        self._patch(ns, attr, sub)
        return self

    def _install_methods(self, prefix: str, cls) -> None:
        for attr, obj in list(vars(cls).items()):
            if attr.startswith("_") and attr != "__post_init__":
                continue
            if isinstance(obj, (classmethod, staticmethod)):
                self._patch(cls, attr, type(obj)(self.wrap(f"{prefix}.{attr}", obj.__func__)))
            elif inspect.isfunction(obj):
                self._patch(cls, attr, self.wrap(f"{prefix}.{attr}", obj))

    def uninstall(self) -> None:
        while self.patches:
            owner, attr, original = self.patches.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # -- analysis ----------------------------------------------------------

    def analysis(self) -> "Analysis":
        logs = list(self._logs)
        if any(log.stack for log in logs):
            raise RuntimeError("analysis requested while spans are still open")
        parts = {k: [] for k in ("name", "parent", "start", "end", "count", "tag", "client")}
        offset = 0
        for log in logs:
            parts["client"].append(np.full(len(log.name), log.thread == self.client))
            parent = np.frombuffer(log.parent, dtype=np.int32).astype(np.int64)
            parts["parent"].append(np.where(parent >= 0, parent + offset, -1))
            for k in ("name", "start", "end", "count", "tag"):
                parts[k].append(np.frombuffer(getattr(log, k), dtype=_DTYPES[k]).copy())
            offset += len(log.name)
        cols = {k: (np.concatenate(v) if v else np.empty(0, dtype=_DTYPES[k])) for k, v in parts.items()}
        return Analysis(list(self._names), **cols)


def _substituted(container, wrapped: dict):
    """A copy of a list, tuple or dict with every wrapped function replaced, or None if it holds none."""
    def sub(x):
        return wrapped.get(x, x) if inspect.isfunction(x) else x

    if isinstance(container, dict):
        new = {k: sub(v) for k, v in container.items()}
        changed = any(new[k] is not v for k, v in container.items())
    else:
        new = type(container)(sub(x) for x in container)
        changed = any(a is not b for a, b in zip(new, container))
    return new if changed else None


_DTYPES = {"name": np.int32, "start": np.float64, "end": np.float64, "count": np.int64, "tag": np.int64, "parent": np.int64, "client": bool}


def _kernel_hook(fn, args, kwargs):
    return args, kwargs, int(args[1]), 0


def _born_table_hook(fn, args, kwargs):
    a = inspect.signature(fn).bind(*args, **kwargs).arguments
    return args, kwargs, len(a["elements_a"]) * len(a["elements_b"]), int(a["rho"].d_a)


class Analysis:
    """Span table with self times; every query takes a set of span names.

    Spans from pool threads (mc.run_batched with workers > 1) are roots of
    their own thread. They count in calls, counts and inclusive times, which
    are busy times and may then exceed wall time, but not in self times:
    those cover the client thread, the one that installed the tracer, so
    they add up to its wall time, and a pooled run_batched keeps the time it
    waits for its workers as self time.
    """

    def __init__(self, names, name, parent, start, end, count, tag, client) -> None:
        self.names = names
        self.name, self.parent, self.count, self.tag, self.client = name, parent, count, tag, client
        self.dur = end - start
        has_parent = parent >= 0
        covered = np.bincount(parent[has_parent], weights=self.dur[has_parent], minlength=len(name))
        self.self_time = self.dur - covered

    def __len__(self) -> int:
        return len(self.name)

    def _mask(self, names) -> np.ndarray:
        ids = [i for i, n in enumerate(self.names) if n in names]
        return np.isin(self.name, ids)

    def _below(self, mask: np.ndarray) -> np.ndarray:
        """True for spans that have an ancestor in mask."""
        below = np.zeros(len(mask), dtype=bool)
        has_parent = self.parent >= 0
        idx = self.parent[has_parent]
        while True:
            nxt = np.zeros_like(below)
            nxt[has_parent] = (mask | below)[idx]
            if np.array_equal(nxt, below):
                return below
            below = nxt

    def calls(self, names) -> int:
        return int(self._mask(names).sum())

    def count_sum(self, names) -> int:
        return int(self.count[self._mask(names)].sum())

    def inclusive(self, names, tag: int | None = None) -> float:
        """Wall time in the named spans, counting nested ones of the set once."""
        mask = self._mask(names)
        sel = mask & ~self._below(mask)
        if tag is not None:
            sel &= self.tag == tag
        return float(self.dur[sel].sum())

    def inside(self, names, ancestors) -> float:
        """Inclusive time of the named spans that run under an ancestor span."""
        mask = self._mask(names)
        sel = mask & ~self._below(mask) & self._below(self._mask(ancestors))
        return float(self.dur[sel].sum())

    def self_time_of(self, names) -> float:
        return float(self.self_time[self._mask(names) & self.client].sum())

    def self_by_layer(self) -> dict[str, float]:
        per_name = np.bincount(self.name[self.client], weights=self.self_time[self.client], minlength=len(self.names))
        out = dict.fromkeys(LAYERS, 0.0)
        for n, t in zip(self.names, per_name):
            out[n.split(".", 1)[0]] += float(t)
        return out
