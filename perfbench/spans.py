"""In-memory spans around calls into each ``repro`` layer.

The benchmark never edits ``src/``: :func:`install` replaces public
functions and methods of the loaded ``repro`` modules with wrappers that
record a span (name, start, end, parent, request id) per call. Spans
stay in memory and are written out when the run ends. A layer's *self*
time is its spans' durations minus the child spans they enclose, so the
self times of one thread's nested spans add up to the outermost span.
"""

from __future__ import annotations

import contextvars
import functools
import sys
import threading
import time
from collections import defaultdict

#: The request a span belongs to (the serve host sets it per request).
REQUEST_ID = contextvars.ContextVar("perfbench_request_id", default=None)

_clock = time.perf_counter


class Recorder:
    """Spans and exact counts of one traced run.

    ``delays`` maps a span name to seconds slept inside every span of
    that name; only the attribution self-test sets it, to prove that a
    known cost lands in the layer it was put in.
    """

    def __init__(self, delays=None):
        self.spans = []          # [name, start, end, parent, request_id]
        self.intervals = []      # (name, start, end, request_id); unnested
        self.counts = defaultdict(float)
        self.delays = dict(delays or {})
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def enter(self, name: str) -> int:
        stack = self._stack()
        parent = stack[-1] if stack else None
        with self._lock:
            index = len(self.spans)
            self.spans.append([name, _clock(), None, parent,
                               REQUEST_ID.get()])
        stack.append(index)
        delay = self.delays.get(name)
        if delay:
            time.sleep(delay)
        return index

    def exit(self, index: int) -> None:
        self.spans[index][2] = _clock()
        self._stack().pop()

    def interval(self, name: str, start: float, end: float,
                 request_id=None) -> None:
        """An interval that is not a call on one thread's stack (a pool
        round trip, a served request); never part of self time."""
        with self._lock:
            self.intervals.append((name, start, end, request_id))

    def count(self, name: str, amount: float = 1.0) -> None:
        with self._lock:
            self.counts[name] += amount

    def self_seconds(self) -> dict:
        """Self time per span name, summed over closed spans."""
        child = defaultdict(float)
        for _name, start, end, parent, _rid in self.spans:
            if parent is not None and end is not None:
                child[parent] += end - start
        totals = defaultdict(float)
        for index, (name, start, end, _parent, _rid) in enumerate(self.spans):
            if end is not None:
                totals[name] += (end - start) - child[index]
        return dict(totals)

    def durations(self, name: str) -> list:
        """Wall durations (s) of every closed span called ``name``."""
        return [end - start for span_name, start, end, _p, _r in self.spans
                if span_name == name and end is not None]

    def interval_ms(self, name: str) -> dict:
        """Duration (ms) of every interval called ``name``, by request."""
        return {_request_id(rid): 1e3 * (end - start)
                for span_name, start, end, rid in self.intervals
                if span_name == name}

    def to_dict(self) -> dict:
        return {"spans": [[name, start, end, parent, _request_id(rid)]
                          for name, start, end, parent, rid in self.spans],
                "intervals": [[name, start, end, _request_id(rid)]
                              for name, start, end, rid in self.intervals],
                "counts": dict(self.counts)}


def _request_id(value):
    """A request holder (see :func:`install`) resolves to its job id."""
    return value.get("id") if isinstance(value, dict) else value


# ---------------------------------------------------------------------------
# Wrappers
# ---------------------------------------------------------------------------

def _traced(recorder: Recorder, name: str, fn, on_result=None):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        index = recorder.enter(name)
        try:
            result = fn(*args, **kwargs)
        except Exception:
            recorder.count(name + ".raised")
            raise
        finally:
            recorder.exit(index)
        if on_result is not None:
            on_result(result)
        return result

    wrapper.__perfbench_original__ = fn
    return wrapper


def _rebind(original, replacement) -> int:
    """Point every ``repro`` module attribute bound to ``original`` at
    ``replacement`` (covers ``from x import f`` copies); returns how
    many bindings changed."""
    changed = 0
    for module_name, module in list(sys.modules.items()):
        if module is None or not (module_name == "repro"
                                  or module_name.startswith("repro.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)
                changed += 1
    return changed


class Patches:
    """The wrappers one :func:`install` put in place, undone by
    :meth:`remove` (tests install and remove within one process)."""

    def __init__(self):
        self._undo = []

    def function(self, recorder, name, module, attr, on_result=None):
        original = getattr(module, attr)
        wrapper = _traced(recorder, name, original, on_result)
        if not _rebind(original, wrapper):
            raise RuntimeError(f"no binding of {module.__name__}.{attr}")
        self._undo.append(lambda: _rebind(wrapper, original))

    def replace(self, module, attr, replacement):
        original = getattr(module, attr)
        _rebind(original, replacement)
        self._undo.append(lambda: _rebind(replacement, original))

    def method(self, recorder, name, cls, attr, on_result=None):
        raw = cls.__dict__[attr]
        if isinstance(raw, classmethod):
            wrapped = classmethod(_traced(recorder, name, raw.__func__,
                                          on_result))
        else:
            wrapped = _traced(recorder, name, raw, on_result)
        self.attribute(cls, attr, wrapped)

    def attribute(self, owner, attr, value):
        raw = owner.__dict__[attr]
        setattr(owner, attr, value)
        self._undo.append(lambda: setattr(owner, attr, raw))

    def remove(self) -> None:
        while self._undo:
            self._undo.pop()()


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


def install(recorder: Recorder) -> Patches:
    """Wrap every layer boundary the per-layer split reports.

    Imports the ``repro`` modules first, so the scan for imported
    copies of each function sees every module that can call it.
    """
    import repro.frameworks  # noqa: F401  (every engine module)
    import repro.kernels.registry  # noqa: F401  (every Kernel subclass)
    from repro.cluster import simulator
    from repro.datagen import cache, rmat, stream
    from repro.graph import csr, edgelist, partition, sharded
    from repro.harness import graph500, runner, supervisor, sweep, tables
    from repro.kernels import spmv, triangles
    from repro.kernels.base import Kernel, KernelWork
    from repro.serve import admission, app, jobs

    patches = Patches()

    # datagen: generation, and the cache lookups around it. A lookup is
    # a hit exactly when it does not call its build callable.
    patches.function(recorder, "datagen.generate", rmat, "rmat_edges")
    patches.method(recorder, "datagen.generate", stream.RMATStream, "chunk")
    for attr in ("get_or_build", "get_or_build_dir"):
        patches.replace(cache, attr,
                        _cache_lookup(recorder, getattr(cache, attr)))
    patches.function(recorder, "datagen.generate", rmat,
                     "rmat_graph_sharded")

    # graph: CSR/sharded builds, edge-list preparation, partitioning.
    patches.method(recorder, "graph.build", csr.CSRGraph, "from_edges")
    patches.method(recorder, "graph.build", csr.CSRGraph, "reverse")
    patches.method(recorder, "graph.build", sharded.ShardedCSRGraph,
                   "reverse")
    patches.function(recorder, "graph.build", sharded, "build_sharded_csr")
    for attr in ("deduplicate", "drop_self_loops", "symmetrize",
                 "orient_by_id"):
        patches.method(recorder, "graph.build", edgelist.EdgeList, attr)
    for attr in ("partition_vertices_1d", "partition_edges_1d",
                 "partition_2d", "partition_vertex_cut"):
        patches.function(recorder, "graph.partition", partition, attr)

    # kernels: every registered kernel's prepare/step, plus the matrix
    # engines' direct kernel calls.
    def count_step(result):
        if isinstance(result, tuple) and result \
                and isinstance(result[-1], KernelWork):
            recorder.count("kernels.edges", result[-1].edges)

    for cls in _subclasses(Kernel):
        if "step" in cls.__dict__:
            patches.method(recorder, "kernels.step", cls, "step",
                           on_result=count_step)
        if "prepare" in cls.__dict__:
            patches.method(recorder, "kernels.prepare", cls, "prepare")
    patches.function(recorder, "kernels.step", spmv, "semiring_spmv")
    patches.function(recorder, "kernels.step", triangles, "aa_product")
    patches.function(recorder, "kernels.step", triangles, "masked_sum")

    # frameworks: one experiment run; its self time is the engines'
    # own bookkeeping once every layer below is subtracted.
    patches.function(recorder, "frameworks.run", runner, "run")

    # cluster: simulator accounting.
    patches.method(recorder, "cluster.superstep", simulator.Cluster,
                   "superstep")
    for attr in ("allocate", "allocate_all", "mark_iteration"):
        patches.method(recorder, "cluster.account", simulator.Cluster, attr)

    # harness: the sweep's cells and journal, the roots the benchmark
    # calls, and pool round trips (submit -> ticket done).
    patches.function(recorder, "harness.cell", sweep, "execute_cell")
    patches.method(recorder, "harness.journal", sweep.SweepJournal, "append")
    patches.function(recorder, "harness.root", tables, "table5")
    patches.function(recorder, "harness.root", graph500,
                     "graph500_protocol")
    submit = supervisor.SupervisorPool.submit

    @functools.wraps(submit)
    def timed_submit(pool, *args, **kwargs):
        start = _clock()
        request_id = REQUEST_ID.get()
        ticket = submit(pool, *args, **kwargs)
        ticket.add_done_callback(lambda _t: recorder.interval(
            "harness.pool", start, _clock(), request_id))
        return ticket

    patches.attribute(supervisor.SupervisorPool, "submit", timed_submit)

    # serve: admission and the job registry. Every span of one request
    # carries the same holder, which the registry fills with the job id.
    def name_request(job):
        holder = REQUEST_ID.get()
        if holder is not None:
            holder["id"] = job.id

    patches.method(recorder, "serve.admission", admission.AdmissionController,
                   "admit")
    patches.method(recorder, "serve.registry", jobs.JobRegistry, "create",
                   on_result=name_request)
    patches.method(recorder, "serve.registry", jobs.JobRegistry,
                   "transition")
    route = app.ExperimentService._route

    @functools.wraps(route)
    async def traced_route(service, method, path, raw, writer):
        token = REQUEST_ID.set({"id": None})
        try:
            return await route(service, method, path, raw, writer)
        finally:
            REQUEST_ID.reset(token)

    patches.attribute(app.ExperimentService, "_route", traced_route)
    return patches


def _cache_lookup(recorder: Recorder, lookup):
    """Wrap a dataset-cache lookup (``get_or_build[_dir]``): time it as
    ``datagen.cache``, time its build callable as ``datagen.generate``,
    and count lookups and hits."""
    @functools.wraps(lookup)
    def wrapper(generator, params, build, *args, **kwargs):
        built = []

        @functools.wraps(build)
        def timed_build(*build_args):
            built.append(True)
            index = recorder.enter("datagen.generate")
            try:
                return build(*build_args)
            finally:
                recorder.exit(index)

        index = recorder.enter("datagen.cache")
        try:
            return lookup(generator, params, timed_build, *args, **kwargs)
        finally:
            recorder.exit(index)
            recorder.count("datagen.lookups")
            if not built:
                recorder.count("datagen.hits")

    return wrapper
