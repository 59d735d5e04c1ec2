"""Per-layer tracing from outside the program.

The benchmark measures the library without editing it: :class:`Tracer`
replaces the public functions and methods at each layer boundary of
``repro`` with thin wrappers for the duration of a traced pass, and puts
the originals back afterwards, so untraced passes run the library exactly
as shipped.

Every wrapped call records a span: its layer label, its duration and the
span that caused it (the enclosing span, tracked in a ``ContextVar`` so it
follows ``asyncio`` tasks and ``asyncio.to_thread`` workers).  Spans are
folded into per-layer totals as they close:

* ``count`` — calls that are not nested inside a span of the same layer;
* ``self`` — duration minus the time covered by child spans, the layer's
  own work;
* ``inclusive`` — duration of the outermost spans of the layer.

Totals are kept per *scope* (a label the workload sets around each
operation, such as one spec of ``run-large``), so the split between two
operations can be read off directly.

:data:`LAYERS` is the single table of what is wrapped and which per-layer
metric each label feeds.  A target that no longer exists (a later change
renamed a private helper) is reported in :attr:`Tracer.missing` instead of
failing the run.
"""

from __future__ import annotations

import contextvars
import functools
import importlib
import inspect
import sys
import threading
from dataclasses import dataclass, field
from time import perf_counter_ns
from typing import Any, Callable


def _arg(args: tuple, kwargs: dict, index: int, name: str) -> Any:
    """Positional-or-keyword argument ``name`` at position ``index`` (self = 0)."""
    return args[index] if len(args) > index else kwargs[name]


def _solve_hook(args, kwargs, result, self_ns):
    """Transient-system size and the solve backend the library selects.

    Exact arithmetic solves with rational Gaussian elimination; float solves
    go to scipy's sparse LU past ``repro.exact.solve.DEFAULT_MAX_TRANSIENT``
    and to a dense numpy solve below it (the crossover is read from the
    library at call time, not copied here).
    """
    size = len(_arg(args, kwargs, 1, "transient"))
    if kwargs.get("exact"):
        backend = "rational"
    else:
        solve = sys.modules["repro.exact.solve"]
        backend = "sparse" if size > solve.DEFAULT_MAX_TRANSIENT else "dense"
    return {"exact.transient_size": size, f"exact.solve_{backend}_s": self_ns / 1e9}


def _chain_hook(args, kwargs, result, self_ns):
    chain = args[0]
    return {
        "exact.configurations": chain.num_source_configurations,
        "exact.orbits": chain.num_configurations,
    }


def _kernel_hook(args, kwargs, result, self_ns):
    rows = _arg(args, kwargs, 1, "rows")
    return {"kernel.interactions": len(rows) * _arg(args, kwargs, 2, "length")}


def _group_hook(args, kwargs, result, self_ns):
    return {"executor.group_rows": len(_arg(args, kwargs, 0, "specs"))}


def _store_get_hook(args, kwargs, result, self_ns):
    return {"store.hits": int(result is not None)}


@dataclass(frozen=True)
class Layer:
    """One traced layer: its label, its metrics, and what it wraps.

    A target is ``"module:function"`` or ``"module:Class.method"``; with
    ``subclasses`` the method is also wrapped on every loaded subclass that
    overrides it.
    """

    label: str
    time_metric: str | None
    count_metric: str | None
    targets: tuple[str, ...]
    subclasses: bool = False
    hook: Callable | None = None


LAYERS: tuple[Layer, ...] = (
    Layer("workloads.generate", "workloads.generate_s", None,
          ("repro.api.executor:resolve_workload",)),
    Layer("engine.setup", "engine.setup_s", None, (
        "repro.simulation.base:ConfigurationEngine.__init__",
        "repro.simulation.batch_engine:BatchConfigurationSimulation.__init__",
        "repro.simulation.engine:AgentSimulation.__init__",
        "repro.simulation.vector_engine:ReplicateGroup.__init__",
        "repro.exact.engine:ExactMarkovEngine.__init__",
    )),
    Layer("compile", "compile.s", "compile.calls", ("repro.compile.compiled:compile_from_states",)),
    Layer("kernel", "kernel.advance_s", "kernel.calls",
          ("repro.simulation.vector_kernel:PairCodeKernel.advance",), hook=_kernel_hook),
    Layer("engine.run", "engine.run_s", None, (
        "repro.simulation.base:SimulationEngine.run",
        "repro.simulation.vector_engine:ReplicateGroup.run",
        "repro.exact.engine:ExactMarkovEngine.run",
    )),
    Layer("engine.book", "engine.book_s", "engine.bookings", (
        "repro.simulation.base:ConfigurationEngine._book_changed_codes",
        "repro.simulation.base:ConfigurationEngine._apply_changed_transition",
        "repro.simulation.batch_engine:BatchConfigurationSimulation._book_round_codes",
    )),
    Layer("criterion", "criterion.check_s", "criterion.checks", (
        "repro.simulation.convergence:ConvergenceCriterion.is_converged_counts",
        "repro.simulation.convergence:ConvergenceCriterion.is_converged_configuration",
    ), subclasses=True),
    Layer("observers", "observers.delta_s", "observers.deltas",
          ("repro.simulation.observers:Observer.on_delta",), subclasses=True),
    Layer("core.energy", "core.energy_s", None, (
        "repro.core.potential:configuration_energy",
        "repro.api.executor:_configuration_energy_counts",
    )),
    Layer("executor.run", "executor.run_s", "executor.runs", ("repro.api.executor:execute_run",)),
    Layer("executor.group", "executor.group_s", "executor.groups",
          ("repro.api.executor:execute_replicate_group",), hook=_group_hook),
    Layer("records.assemble", "records.assemble_s", None, (
        "repro.api.records:RunRecord.from_result",
        "repro.api.executor:_replicate_record",
    )),
    Layer("store.get", "store.get_s", "store.gets",
          ("repro.service.store:ResultStore.get",), hook=_store_get_hook),
    Layer("store.put", "store.put_s", "store.puts", ("repro.service.store:ResultStore.put",)),
    Layer("store.manifest", "store.manifest_save_s", "store.manifest_saves",
          ("repro.service.store:ResultStore.save_manifest",)),
    Layer("service", "service.server_s", "service.requests", (
        "repro.service.serve:SweepService.execute_single",
        "repro.service.serve:SweepService.stream_sweep",
    )),
    Layer("queue", "queue.map_s", "queue.maps", ("repro.service.queue:AsyncExecutor.map",)),
    Layer("exact.chain", "exact.chain_s", None, (
        "repro.exact.chain:ConfigurationChain.__init__",
        "repro.exact.quotient:QuotientChain.__init__",
    ), hook=_chain_hook),
    Layer("verify.symmetry", "verify.symmetry_s", None,
          ("repro.verify.symmetry:symmetry_actions",)),
    Layer("exact.solve", "exact.solve_s", "exact.solve_calls",
          ("repro.exact.solve:solve_transient_systems",), hook=_solve_hook),
    Layer("exact.absorption", "exact.absorption_s", None, (
        "repro.exact.absorption:analyze_absorption",
        "repro.exact.absorption:hitting_analysis",
    )),
    Layer("exact.lift", "exact.lift_s", None, (
        "repro.exact.chain:ConfigurationChain.lift_classes",
        "repro.exact.quotient:QuotientChain.lift_classes",
    )),
)

#: Metrics derived from hooks and from the workload rather than from a
#: layer's own count or time.
DERIVED_METRICS: tuple[str, ...] = (
    "kernel.interactions",
    "executor.group_rows",
    "store.hit_ratio",
    "service.http_s",
    "exact.configurations",
    "exact.orbits",
    "exact.transient_size",
    "exact.solve_rational_s",
    "exact.solve_dense_s",
    "exact.solve_sparse_s",
    "trace.overhead_frac",
)


def per_layer_metrics() -> list[str]:
    """Every per-layer metric name the traced run reports, in table order."""
    names: list[str] = []
    for layer in LAYERS:
        for name in (layer.count_metric, layer.time_metric):
            if name is not None:
                names.append(name)
    return names + list(DERIVED_METRICS)


def metric_unit(name: str) -> str:
    if name.endswith("_s") or name == "compile.s":
        return "s"
    if name.endswith("_frac") or name.endswith("_ratio"):
        return "fraction"
    return "count"


@dataclass
class _Totals:
    count: int = 0
    self_ns: int = 0
    inclusive_ns: int = 0
    extra: dict[str, float] = field(default_factory=dict)


class Tracer:
    """Wraps :data:`LAYERS` while installed and folds spans into totals."""

    def __init__(self) -> None:
        self.layers = LAYERS
        self.scope = "all"
        #: Targets that could not be resolved in this version of the library.
        self.missing: list[str] = []
        self._current: contextvars.ContextVar = contextvars.ContextVar(
            "perfbench_span", default=None
        )
        self._lock = threading.Lock()
        self._totals: dict[tuple[str, str], _Totals] = {}
        self._patches: list[tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------------

    def reset(self) -> None:
        with self._lock:
            self._totals = {}

    def _close(self, span: list, parent: list | None, duration: int, hook=None, args=(),
               kwargs=None, result=None, outer: bool | None = None) -> bool:
        """Fold a closed span into the totals of its scope and layer.

        ``span`` is ``[label, child_ns, scope]``.  A new call (``outer`` is
        None) is outermost unless its parent span has the same label.  The
        later resumptions of a traced generator pass the answer of its first
        call as ``outer``: each adds its duration to the inclusive time, but
        only the first counts as a call.  Returns whether the span is
        outermost.
        """
        label = span[0]
        self_ns = duration - span[1]
        new_call = outer is None
        if new_call:
            outer = parent is None or parent[0] != label
        extra = (hook(args, kwargs, result, self_ns)
                 if hook is not None and outer and new_call else None)
        with self._lock:
            if parent is not None:
                parent[1] += duration
            totals = self._totals.get((span[2], label))
            if totals is None:
                totals = self._totals[(span[2], label)] = _Totals()
            totals.self_ns += self_ns
            if outer:
                totals.inclusive_ns += duration
                if new_call:
                    totals.count += 1
            if extra:
                for key, value in extra.items():
                    totals.extra[key] = totals.extra.get(key, 0) + value
        return outer

    def _wrap(self, layer: Layer, fn: Callable) -> Callable:
        label, hook, current = layer.label, layer.hook, self._current
        if inspect.isgeneratorfunction(fn):
            @functools.wraps(fn)
            def traced_generator(*args, **kwargs):
                inner = fn(*args, **kwargs)
                outer = None
                try:
                    while True:
                        parent = current.get()
                        span = [label, 0, self.scope]
                        token = current.set(span)
                        start = perf_counter_ns()
                        try:
                            item = next(inner)
                        except StopIteration:
                            return
                        finally:
                            duration = perf_counter_ns() - start
                            current.reset(token)
                            outer = self._close(span, parent, duration, outer=outer)
                        yield item
                finally:
                    inner.close()
            return traced_generator

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = current.get()
            span = [label, 0, self.scope]
            token = current.set(span)
            start = perf_counter_ns()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                duration = perf_counter_ns() - start
                current.reset(token)
                self._close(span, parent, duration, hook, args, kwargs, result)
        return traced

    # -- installation ----------------------------------------------------------

    def _resolve(self, target: str):
        module_name, _, qualname = target.partition(":")
        module = importlib.import_module(module_name)
        owner: Any = module
        parts = qualname.split(".")
        for part in parts[:-1]:
            owner = getattr(owner, part)
        return module, owner, parts[-1]

    def install(self) -> None:
        """Wrap every resolvable target (idempotent per install/uninstall pair)."""
        if self._patches:
            raise RuntimeError("tracer is already installed")
        self.missing = []
        for layer in self.layers:
            for target in layer.targets:
                try:
                    module, owner, name = self._resolve(target)
                except (ImportError, AttributeError):
                    self.missing.append(target)
                    continue
                if owner is module:
                    if not hasattr(module, name):
                        self.missing.append(target)
                        continue
                    self._patch_function(layer, getattr(module, name))
                    continue
                classes = [owner]
                if layer.subclasses:
                    classes.extend(_all_subclasses(owner))
                patched = False
                for cls in classes:
                    if name in cls.__dict__:
                        self._patch_method(layer, cls, name)
                        patched = True
                if not patched:
                    self.missing.append(target)

    def _patch_function(self, layer: Layer, original: Callable) -> None:
        """Replace ``original`` in every loaded ``repro`` module that binds it."""
        wrapped = self._wrap(layer, original)
        for module_name, module in list(sys.modules.items()):
            if module is None or not (module_name == "repro" or module_name.startswith("repro.")):
                continue
            for attribute, value in list(vars(module).items()):
                if value is original:
                    self._patches.append((module, attribute, original))
                    setattr(module, attribute, wrapped)

    def _patch_method(self, layer: Layer, cls: type, name: str) -> None:
        raw = cls.__dict__[name]
        if isinstance(raw, classmethod):
            replacement: object = classmethod(self._wrap(layer, raw.__func__))
        elif isinstance(raw, staticmethod):
            replacement = staticmethod(self._wrap(layer, raw.__func__))
        else:
            replacement = self._wrap(layer, raw)
        self._patches.append((cls, name, raw))
        setattr(cls, name, replacement)

    def uninstall(self) -> None:
        """Put every original back, in reverse order of patching."""
        while self._patches:
            owner, name, original = self._patches.pop()
            setattr(owner, name, original)

    # -- reporting -------------------------------------------------------------

    def scopes(self) -> list[str]:
        with self._lock:
            return sorted({scope for scope, _ in self._totals})

    def metrics(self, scope: str | None = None) -> dict[str, float]:
        """Per-layer metric values summed over ``scope`` (all scopes if None).

        Every name of :func:`per_layer_metrics` is present except the ones
        the workload itself supplies (``service.http_s``,
        ``trace.overhead_frac``); layers with no calls read 0.
        """
        values: dict[str, float] = {
            name: 0 for name in per_layer_metrics()
            if name not in ("service.http_s", "trace.overhead_frac")
        }
        with self._lock:
            items = [(key, totals) for key, totals in self._totals.items()
                     if scope is None or key[0] == scope]
            by_label = {layer.label: layer for layer in self.layers}
            for (_, label), totals in items:
                layer = by_label[label]
                if layer.count_metric is not None:
                    values[layer.count_metric] += totals.count
                if layer.time_metric is not None:
                    values[layer.time_metric] += totals.self_ns / 1e9
                for key, value in totals.extra.items():
                    values[key] = values.get(key, 0) + value
        hits = values.pop("store.hits", 0)
        values["store.hit_ratio"] = hits / values["store.gets"] if values["store.gets"] else 0
        return values

    def inclusive_s(self, label: str) -> float:
        """Total duration of the outermost spans of ``label``, all scopes."""
        with self._lock:
            return sum(t.inclusive_ns for (_, lab), t in self._totals.items() if lab == label) / 1e9


def _all_subclasses(cls: type) -> list[type]:
    found: list[type] = []
    pending = list(cls.__subclasses__())
    while pending:
        sub = pending.pop()
        if sub not in found:
            found.append(sub)
            pending.extend(sub.__subclasses__())
    return found
