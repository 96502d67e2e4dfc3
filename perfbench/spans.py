"""In-memory span tracing of qwitness's layers, from outside the program.

``Tracer.install`` replaces every public function and public method of the
qwitness modules with a wrapper that records a span (name, start, end,
parent span, task id), and rebinds every name other modules imported it
under, so calls across module boundaries are caught too.  ``uninstall`` puts
the originals back.  Nothing is wrapped unless a traced run installs the
tracer.  Spans stay in ``array`` buffers
until the run ends; per-layer self times and counts are derived from them
afterwards.

Only the thread that installed the tracer records spans.  Calls made from
worker threads pass through unrecorded: their time already sits inside the
recording thread's enclosing span, and recording them would count it twice.
"""

from __future__ import annotations

import contextlib
import functools
import gzip
import inspect
import threading
import time
from array import array

import qwitness
from qwitness import classical, cli, ineq, opalg, optimize, qobs, witness

MODULES = (opalg, qobs, ineq, witness, classical, optimize, cli)

BENCH_LAYER = "bench"
TASK_SPAN = "bench.task"

# Functions whose spans carry a work count (recorded in the span's value).
_EIG = {"opalg.hermitian_eigenvalues", "opalg.is_psd"}
_BOUNDS = {"classical.lhv_bound", "classical.hybrid_bound", "classical.noncontextual_bound"}
_ASCENTS = {"optimize.maximize_violation", "optimize.maximize_expectation"}


def layer_of(span_name: str) -> str:
    """Layer label of a span name such as ``opalg.kron``."""
    module, _, qualname = span_name.partition(".")
    if module == "opalg":
        return "opalg.eig" if span_name in _EIG else "opalg.algebra"
    if module == "classical":
        return "classical.hybrid" if "hybrid" in qualname.lower() else "classical.lhv"
    return module


LAYERS = (
    "cli", "ineq", "witness", "opalg.eig", "opalg.algebra", "qobs",
    "classical.lhv", "classical.hybrid", "optimize", BENCH_LAYER,
)


def _public_callables(module):
    """(owner, attribute, function, span name) for the module's own public API."""
    short = module.__name__.rsplit(".", 1)[1]
    for name, obj in sorted(vars(module).items()):
        if name.startswith("_"):
            continue
        if inspect.isfunction(obj) and obj.__module__ == module.__name__:
            yield module, name, obj, f"{short}.{name}"
        elif inspect.isclass(obj) and obj.__module__ == module.__name__:
            for attr, member in sorted(vars(obj).items()):
                if attr.startswith("_"):
                    continue
                if inspect.isfunction(member) or isinstance(member, classmethod):
                    yield obj, attr, member, f"{short}.{name}.{attr}"


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.name_ids: dict[str, int] = {}
        self.span_name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.task = array("i")
        self.value = array("d")
        self.current_task = -1
        self._stack: list[int] = []
        self._thread = threading.get_ident()
        self._wrappers: dict[int, tuple] | None = None

    def _name_id(self, name: str) -> int:
        if name not in self.name_ids:
            self.name_ids[name] = len(self.names)
            self.names.append(name)
        return self.name_ids[name]

    def _open(self, name_id: int) -> int:
        idx = len(self.start)
        self.span_name.append(name_id)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.task.append(self.current_task)
        self.value.append(0.0)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        """Record one span around the body, on the tracing thread."""
        idx = self._open(self._name_id(name))
        try:
            yield
        finally:
            self._close(idx)

    def _wrap(self, func, name: str):
        name_id = self._name_id(name)
        tracer = self
        if name in _EIG:
            measure = lambda args, kwargs, result: float(  # noqa: E731
                (args[0] if args else kwargs["h"]).shape[0]
            )
        elif name in _BOUNDS:
            measure = lambda args, kwargs, result: float(result.evaluations)  # noqa: E731
        elif name in _ASCENTS:
            measure = lambda args, kwargs, result: float(result.iterations)  # noqa: E731
        else:
            measure = None

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            if threading.get_ident() != tracer._thread:
                return func(*args, **kwargs)
            idx = tracer._open(name_id)
            try:
                result = func(*args, **kwargs)
            finally:
                tracer._close(idx)
            if measure is not None:
                tracer.value[idx] = measure(args, kwargs, result)
            return result

        return wrapper

    def install(self) -> None:
        """Wrap the public API of every module and rebind imported aliases."""
        if self._wrappers is None:
            self._wrappers = {}
            for module in MODULES:
                for owner, attr, member, name in _public_callables(module):
                    if isinstance(member, classmethod):
                        wrapped = classmethod(self._wrap(member.__func__, name))
                    else:
                        wrapped = self._wrap(member, name)
                    self._wrappers[id(member)] = (member, wrapped)
        self._rebind({key: wrapped for key, (_, wrapped) in self._wrappers.items()})

    def uninstall(self) -> None:
        """Put every original function back where install found it."""
        self._rebind({id(wrapped): member for member, wrapped in self._wrappers.values()})

    @staticmethod
    def _rebind(mapping: dict[int, object]) -> None:
        """Replace every binding of an object in ``mapping`` (keyed by id)."""
        owners = list(MODULES) + [qwitness]
        owners += [obj for m in MODULES for obj in vars(m).values()
                   if inspect.isclass(obj) and obj.__module__ == m.__name__]
        for owner in owners:
            for name, obj in list(vars(owner).items()):
                if name.startswith("__"):
                    continue
                if id(obj) in mapping:
                    setattr(owner, name, mapping[id(obj)])
                elif isinstance(obj, dict):
                    # Dispatch tables such as cli._HANDLERS hold functions too.
                    for key, value in list(obj.items()):
                        if id(value) in mapping:
                            obj[key] = mapping[id(value)]

    # ------------------------------------------------------------ results

    def self_times(self) -> list[float]:
        """Per-span duration minus the time its direct children cover."""
        own = [e - s for s, e in zip(self.start, self.end)]
        for idx, parent in enumerate(self.parent):
            if parent >= 0:
                own[parent] -= self.end[idx] - self.start[idx]
        return own

    def layer_metrics(self, n_tasks: int) -> dict[str, float]:
        """Per-task self ms and call counts per layer, plus the work counters."""
        own = self.self_times()
        self_ms = {layer: 0.0 for layer in LAYERS}
        calls = {layer: 0 for layer in LAYERS}
        strategies = sweeps = max_dim = 0.0
        task_ms = 0.0
        span_layer = [BENCH_LAYER if n == TASK_SPAN else layer_of(n) for n in self.names]
        for idx, name_id in enumerate(self.span_name):
            layer = span_layer[name_id]
            self_ms[layer] += own[idx] * 1000.0
            name = self.names[name_id]
            if name == TASK_SPAN:
                task_ms += (self.end[idx] - self.start[idx]) * 1000.0
                continue
            calls[layer] += 1
            if name in _EIG:
                max_dim = max(max_dim, self.value[idx])
            elif name in _BOUNDS:
                strategies += self.value[idx]
            elif name in _ASCENTS:
                sweeps += self.value[idx]
        out = {}
        for layer in LAYERS:
            out[f"{layer}.self_ms"] = self_ms[layer] / n_tasks
            if layer != BENCH_LAYER and not layer.startswith("classical."):
                out[f"{layer}.calls"] = calls[layer] / n_tasks
        out["classical.calls"] = (calls["classical.lhv"] + calls["classical.hybrid"]) / n_tasks
        out["classical.strategies"] = strategies / n_tasks
        out["optimize.sweeps"] = sweeps / n_tasks
        out["opalg.eig.max_dim"] = max_dim
        out["trace.task_ms"] = task_ms / n_tasks
        return out

    def write(self, path: str) -> None:
        """Write every span as a gzipped TSV row."""
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write("span\tname\tstart\tend\tparent\ttask\tvalue\n")
            t0 = self.start[0] if self.start else 0.0
            for idx, name_id in enumerate(self.span_name):
                fh.write(
                    f"{idx}\t{self.names[name_id]}\t{self.start[idx] - t0:.9f}\t"
                    f"{self.end[idx] - t0:.9f}\t{self.parent[idx]}\t{self.task[idx]}\t"
                    f"{self.value[idx]:g}\n"
                )
