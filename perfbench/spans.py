"""Layer spans recorded from outside the program.

The benchmark never edits ``src/repro``.  Instead, a traced process
replaces each layer's public entry points with a thin wrapper that
records a span (layer, parent span, start, end) in memory.  At the end
the spans are folded into per-layer self time (span duration minus the
time covered by its direct child spans) and call counts, and written
out as JSON lines.

:data:`LAYERS` is the single table of which function belongs to which
layer; ``install()`` applies it.
"""

import functools
import importlib
import json
import sys
import time

# (layer, owner, attribute): ``owner`` is a dotted module path, or
# ``module:Class`` for a method.  Module-level functions are replaced
# wherever a ``repro`` module (or registry) holds a reference to them,
# because callers import them by name.
LAYERS = (
    ("scenario.parse", "repro.scenario.spec:Scenario", "from_dict"),
    ("scenario.serialize", "repro.scenario.spec:Scenario", "to_dict"),
    ("scenario.build", "repro.scenario.spec:Scenario", "build"),
    ("trace.digest", "repro.trace.store", "scenario_trace_digest"),
    ("mpsoc.platform", "repro.mpsoc.platform", "build_platform"),
    ("thermal.floorplan", "repro.thermal.floorplan", "floorplan_4xarm7"),
    ("thermal.floorplan", "repro.thermal.floorplan", "floorplan_4xarm11"),
    ("thermal.floorplan", "repro.thermal.floorplan", "floorplan_hetero"),
    ("thermal.network", "repro.thermal.rc_network", "network_for"),
    ("emulation.advance", "repro.core.workload_model:DirectWorkload",
     "advance"),
    ("emulation.advance", "repro.core.workload_model:ProfiledWorkload",
     "advance"),
    ("emulation.advance", "repro.emulation.windowed:WindowedWorkload",
     "advance"),
    ("emulation.calibrate", "repro.emulation.windowed", "calibration_for"),
    ("core.stats", "repro.core.sniffers:SnifferBank", "collect_window"),
    ("core.stats", "repro.core.sniffers:SnifferBank", "window_payload_bytes"),
    ("power.model", "repro.power.models:PowerModel", "component_power"),
    ("core.dispatch", "repro.core.dispatcher:EthernetDispatcher",
     "dispatch_window"),
    ("thermal.solve", "repro.thermal.solver:ThermalSolver", "step_be"),
    ("thermal.solve", "repro.thermal.backends:BatchedLU", "step_batch"),
    ("thermal.sensors", "repro.thermal.sensors:SensorBank", "update"),
    ("policy.react", "repro.policy.builtin:NoManagementPolicy", "react"),
    ("policy.react", "repro.policy.builtin:DualThresholdDfsPolicy", "react"),
    ("core.framework", "repro.core.framework:EmulationFramework",
     "step_window"),
    ("core.framework", "repro.core.framework:EmulationFramework",
     "_window_power"),
    ("core.framework", "repro.core.framework:EmulationFramework",
     "_window_commit"),
    ("core.report", "repro.core.framework:EmulationFramework", "report"),
    ("core.report", "repro.trace.replay:ReplaySource", "report"),
    ("trace.store_get", "repro.trace.store:TraceStore", "get"),
    ("trace.store_put", "repro.trace.store:TraceStore", "put"),
    ("trace.capture", "repro.trace.capture:PowerTraceCapture", "on_window"),
    ("trace.capture", "repro.trace.capture:PowerTraceCapture", "to_archive"),
    ("trace.replay", "repro.trace.replay:ReplaySource", "__init__"),
    ("trace.replay", "repro.trace.replay:ReplaySource", "step_window"),
    ("trace.replay", "repro.trace.replay:ReplaySource", "_window_power"),
    ("trace.replay", "repro.trace.replay:ReplaySource", "_window_commit"),
    ("scenario.runner", "repro.scenario.runner:Runner", "run"),
    ("scenario.runner", "repro.scenario.runner:Runner", "run_batched"),
    ("dse.pareto", "repro.dse.pareto", "pareto_front"),
)

#: Every layer reported, in report order.  ``startup.import`` is timed
#: by the worker around its imports rather than by a wrapper.
LAYER_NAMES = ("startup.import",) + tuple(dict.fromkeys(l for l, _, _ in LAYERS))


class Tracer:
    """In-memory span recorder plus the counters the wrappers keep."""

    def __init__(self):
        self.spans = []  # index = span id; (layer, parent id, start, end)
        self.stack = []
        self.missing = set()  # entry points install() could not find
        self.counts = {
            "network_builds": 0,
            "factorizations": 0,
            "store_gets": 0,
            "store_hits": 0,
            "store_bytes": 0,
        }

    def add(self, layer, start, end, parent=-1):
        """Record a span timed elsewhere (the import section)."""
        self.spans.append((layer, parent, start, end))

    def wrap(self, fn, layer, after=None):
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else -1
            span_id = len(spans)
            spans.append(None)
            stack.append(span_id)
            start = clock()
            try:
                result = fn(*args, **kwargs)
                if after is not None:
                    after(args, result)
                return result
            finally:
                stack.pop()
                spans[span_id] = (layer, parent, start, clock())

        return wrapper

    # -- folding ---------------------------------------------------------
    def layer_table(self, until=None):
        """``{layer: [self seconds, calls]}`` over the spans that started
        before ``until``.  A call is counted when a span's parent belongs
        to another layer, so a layer's own nested entry points
        (``step_window`` calling ``_window_power``) count once."""
        spans = self.spans
        if until is not None:
            # Spans are appended in start order, and nothing straddles
            # ``until``: the workload stops the clock outside any layer.
            spans = [s for s in spans if s[2] < until]
        child_time = [0.0] * len(spans)
        for layer, parent, start, end in spans:
            if parent >= 0:
                child_time[parent] += end - start
        table = {name: [0.0, 0] for name in LAYER_NAMES}
        for index, (layer, parent, start, end) in enumerate(spans):
            entry = table[layer]
            entry[0] += (end - start) - child_time[index]
            if parent < 0 or spans[parent][0] != layer:
                entry[1] += 1
        return table

    def write_jsonl(self, path):
        with open(path, "w") as handle:
            for index, (layer, parent, start, end) in enumerate(self.spans):
                handle.write(json.dumps(
                    {"id": index, "parent": parent, "layer": layer,
                     "start": start, "end": end}
                ) + "\n")


def _resolve(owner):
    module_name, _, class_name = owner.partition(":")
    module = importlib.import_module(module_name)
    return module, (getattr(module, class_name) if class_name else None)


def _replace_references(original, replacement):
    """Point every ``repro`` module attribute and registry entry that
    holds ``original`` at ``replacement``."""
    for name, module in list(sys.modules.items()):
        if not (name == "repro" or name.startswith("repro.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)
            elif isinstance(value, dict):
                for key, entry in list(value.items()):
                    if entry is original:
                        value[key] = replacement
            entries = getattr(value, "_entries", None)
            if isinstance(entries, dict):  # repro.util.registry.Registry
                for key, entry in list(entries.items()):
                    if entry is original:
                        entries[key] = replacement


def _counting_hooks(tracer):
    """Post-call hooks that keep the ratio and volume counters."""
    counts = tracer.counts

    def store_get(args, archive):
        counts["store_gets"] += 1
        counts["store_hits"] += archive is not None

    def store_put(args, digest):
        archive = args[1]
        counts["store_bytes"] += sum(
            getattr(archive, key).nbytes
            for key in ("power_w", "frequency_hz", "time_s",
                        "component_temps_k")
        )

    return {
        "trace.store_get": store_get,
        "trace.store_put": store_put,
    }


def install(tracer):
    """Wrap every entry point in :data:`LAYERS`; returns ``tracer``.

    An entry point or counter the program no longer has is added to
    ``tracer.missing``; the worker reports each as a failed check, so a
    renamed function fails the run instead of reading zero."""
    hooks = _counting_hooks(tracer)
    counts = tracer.counts

    def factorized(backend):
        try:
            return backend.factorizations
        except AttributeError:
            tracer.missing.add(f"{type(backend).__name__}.factorizations")
            return 0

    def solver_step(fn, layer):
        def step_be(self, *args, **kwargs):
            before = factorized(self.backend)
            try:
                return fn(self, *args, **kwargs)
            finally:
                counts["factorizations"] += factorized(self.backend) - before
        return tracer.wrap(functools.wraps(fn)(step_be), layer)

    def batch_step(fn, layer):
        def step_batch(self, *args, **kwargs):
            before = factorized(self)
            try:
                return fn(self, *args, **kwargs)
            finally:
                counts["factorizations"] += factorized(self) - before
        return tracer.wrap(functools.wraps(fn)(step_batch), layer)

    special = {"step_be": solver_step, "step_batch": batch_step}

    # network_for builds a grid only on an assembly-cache miss.
    from repro.thermal import rc_network

    build_grid = getattr(rc_network, "build_grid", None)
    if build_grid is None:
        tracer.missing.add("repro.thermal.rc_network.build_grid")
    else:
        def counted_build_grid(*args, **kwargs):
            counts["network_builds"] += 1
            return build_grid(*args, **kwargs)

        rc_network.build_grid = counted_build_grid
    for layer, owner, attr in LAYERS:
        try:
            module, cls = _resolve(owner)
            raw = vars(cls)[attr] if cls is not None else getattr(module, attr)
        except (ImportError, AttributeError, KeyError):
            tracer.missing.add(f"{owner}.{attr}")
            continue
        if cls is None:
            _replace_references(raw, tracer.wrap(raw, layer, hooks.get(layer)))
            continue
        if isinstance(raw, classmethod):
            setattr(cls, attr, classmethod(
                tracer.wrap(raw.__func__, layer, hooks.get(layer))
            ))
        elif attr in special:
            setattr(cls, attr, special[attr](raw, layer))
        else:
            setattr(cls, attr, tracer.wrap(raw, layer, hooks.get(layer)))
    return tracer
