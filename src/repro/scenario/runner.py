"""Batch execution of scenarios, optionally across worker processes.

:class:`Runner` executes a list of scenarios (or raw scenario dicts) and
returns uniform :class:`ScenarioResult` objects in input order.  With
``workers > 1`` the batch fans out over a ``multiprocessing`` pool —
scenarios travel as their JSON-compatible dicts and come back as
pickled results, so the only requirement on a scenario is the same
one the CLI imposes: it must be expressible as plain data.

:meth:`Runner.run_batched` is the orthogonal fast path: instead of
fanning scenarios out, it co-steps scenarios that share one network
structure through a single multi-RHS thermal solve per window (one
factorization for the whole group — see
:class:`repro.thermal.backends.BatchedLU`).

``trace_store`` adds the record-once/replay-many decoupling from
:mod:`repro.trace`: every emulated scenario is captured into the store
under its canonical scenario digest
(:func:`repro.trace.store.scenario_trace_digest`), and any scenario
whose digest is already present — a previous run, or another member of
the *same* batch that differs only in thermal-side knobs — replays the
recorded boundary stream through the thermal solver instead of
re-emulating the platform.  Replayed members carry provenance in
``report.extras["replay"]``.
"""

import logging
import multiprocessing
import time
import traceback as traceback_module
from collections import defaultdict
from dataclasses import dataclass

import numpy as np

from repro.core.framework import RunReport
from repro.obs import catalog as obs_catalog
from repro.obs import tracing as obs_tracing
from repro.scenario.spec import Scenario
from repro.thermal.backends import BatchedLU
from repro.trace.capture import PowerTraceCapture
from repro.trace.replay import ReplaySource
from repro.trace.store import TraceStore, scenario_trace_digest

_log = logging.getLogger(__name__)

#: Scenarios-per-batch histogram buckets (counts, not seconds).
BATCH_SIZE_BUCKETS = (1, 2, 4, 8, 16, 32, 64, 128, 256)


@dataclass
class ScenarioResult:
    """Outcome of one scenario in a batch."""

    name: str
    index: int
    report: RunReport | None = None
    wall_seconds: float = 0.0
    error: str | None = None
    traceback: str | None = None  # the failing worker's formatted stack
    trace: object = None  # ThermalTrace when the runner captures traces

    @property
    def ok(self):
        return self.error is None

    @property
    def status(self):
        """``"ok"`` or ``"failed"`` — the uniform outcome tag batch
        consumers (and the farm's job records) key on."""
        return "ok" if self.error is None else "failed"

    @property
    def replayed(self):
        """True when this member replayed a recorded trace instead of
        re-emulating (see ``report.extras["replay"]``)."""
        return self.report is not None and "replay" in self.report.extras

    @property
    def policy_stats(self):
        """Per-policy statistics the run's policy exported via
        ``report()`` (``RunReport.extras["policy"]``), or ``{}``."""
        if self.report is None:
            return {}
        return dict(self.report.extras.get("policy", {}))

    def to_dict(self):
        out = {
            "name": self.name,
            "index": self.index,
            "status": self.status,
            "wall_seconds": self.wall_seconds,
            "error": self.error,
            "traceback": self.traceback,
            "report": self.report.to_dict() if self.report else None,
        }
        if self.trace is not None:
            out["trace"] = self.trace.digest()
        return out

    def summary(self):
        if not self.ok:
            return f"{self.name}: FAILED — {self.error}"
        return f"{self.name}: {self.report.summary()}\n  wall {self.wall_seconds:.2f} s"


def _prepare(scenario, archive=None, record=False, library=None, source=None):
    """The runnable of one planned member: a :class:`ReplaySource` over
    ``archive`` when there is one, else a live framework — plus the
    capture that records its boundary stream when ``record``."""
    if archive is not None:
        runnable = ReplaySource(
            archive, config=scenario.config, floorplan=scenario.floorplan,
            source=source,
        )
    else:
        runnable = scenario.build(library=library)
    capture = runnable.attach_capture(PowerTraceCapture()) if record else None
    return runnable, capture


def _failed(index, name, exc, wall=0.0):
    """The result of a member that raised ``exc`` (call inside the
    ``except`` block, so the traceback is the live one)."""
    return ScenarioResult(
        name=name,
        index=index,
        wall_seconds=wall,
        error=f"{type(exc).__name__}: {exc}",
        traceback=traceback_module.format_exc(),
    )


def _execute(payload):
    """Run one member to its bounds; returns ``(ScenarioResult,
    recording)``.

    ``payload`` is ``(index, scenario, capture_trace, digest, archive,
    source)``.  With an ``archive`` the member replays it, otherwise it
    emulates live; with a ``digest`` (the plan's, for a leader) the run
    captures its boundary stream and ships the
    :class:`~repro.trace.format.TraceArchive` back (NumPy arrays pickle
    fine) so the parent can file it in the trace store.
    """
    index, scenario, capture_trace, digest, archive, source = payload
    start = time.perf_counter()
    try:
        runnable, capture = _prepare(
            scenario, archive, digest is not None, source=source
        )
        report = runnable.run(
            max_emulated_seconds=scenario.max_emulated_seconds,
            max_windows=scenario.max_windows,
            max_stall_windows=scenario.max_stall_windows,
        )
        recording = None
        if capture is not None:
            recording = capture.to_archive(
                runnable, scenario=scenario, report=report,
                scenario_digest=digest,
            )
        result = ScenarioResult(
            name=scenario.name,
            index=index,
            report=report,
            wall_seconds=time.perf_counter() - start,
            trace=runnable.trace if capture_trace else None,
        )
        return result, recording
    except Exception as exc:  # the batch survives one bad scenario
        return (
            _failed(index, scenario.name, exc, time.perf_counter() - start),
            None,
        )


def _group_key(runnable):
    """The batching key of one runnable (a live framework or a replay).

    Grouping is defined by *configuration*, not object identity: the
    structure-keyed assembly cache stamps every network it hands out
    with its content key (:attr:`repro.thermal.rc_network.RCNetwork.
    structure_key`), so two scenarios whose floorplan + grid knobs
    coincide group together even when cache eviction (or a custom
    build) gave them distinct grid objects.  Networks without a content
    key (custom material properties) fall back to grid identity.
    """
    structure = runnable.network.structure_key
    if structure is None:
        # repro: allow[determinism] — process-local batching key; grouping affects solve order, never any emulated value
        structure = ("grid-id", id(runnable.grid))
    return (structure, runnable.config.sampling_period_s)


@dataclass
class _Plan:
    """A batch parsed, digested and deduplicated (:meth:`Runner._plan`).

    ``scenarios[i]`` is member ``i`` parsed once, or ``None`` when it
    does not parse; its failed result is then already in
    ``results[i]``, and it is in none of the index lists.
    ``digests[i]`` is its scenario digest, or ``None`` without a store
    (or when it cannot be digested: it then runs unrecorded).
    ``hits`` maps members to store archives; each ``leader`` emulates
    (and records when it has a digest); each ``follower`` replays its
    leader's fresh recording.
    """

    scenarios: list
    digests: list
    results: list
    hits: dict
    leaders: list
    followers: list


class Runner:
    """Executes scenario batches with ``workers`` parallel processes.

    ``workers <= 1`` runs in-process (and then also sees workloads and
    policies registered after import, regardless of start method).
    ``capture_trace=True`` ships each run's :class:`ThermalTrace` back in
    the result — useful for plotting, costly for very long runs;
    ``trace_stride=k`` decimates those traces to every k-th sample (the
    run's peak/final temperatures are tracked independently and stay
    exact).  ``trace_store`` (a :class:`repro.trace.store.TraceStore`,
    a directory path, or ``True`` for an in-memory store) turns on
    record-once/replay-many: see the module docstring.
    """

    def __init__(self, workers=1, capture_trace=False, start_method=None,
                 trace_store=None, trace_stride=None):
        if workers < 0:
            raise ValueError("workers must be >= 0")
        self.workers = workers
        self.capture_trace = capture_trace
        if trace_stride is not None and (
            not isinstance(trace_stride, int) or trace_stride < 1
        ):
            raise ValueError(
                f"trace_stride must be a positive integer, got {trace_stride!r}"
            )
        self.trace_stride = trace_stride
        if trace_store is not None:
            if trace_store is True:
                trace_store = TraceStore()
            elif not isinstance(trace_store, TraceStore):
                trace_store = TraceStore(trace_store)
        self.trace_store = trace_store
        self._recordings = {}  # digest -> this batch's recording (_file)
        if start_method is None:
            methods = multiprocessing.get_all_start_methods()
            start_method = "fork" if "fork" in methods else methods[0]
        self.start_method = start_method

    # -- scenario normalization ------------------------------------------------
    def _scenario_dict(self, item, index):
        """One scenario as its dict form, with runner overrides applied."""
        if isinstance(item, Scenario):
            data = item.to_dict()
        else:
            data = dict(item)
            data.setdefault("name", f"scenario{index}")
        if self.trace_stride is not None:
            config = dict(data.get("config") or {})
            config["trace_stride"] = self.trace_stride
            data["config"] = config
        return data

    # -- the record-once/replay-many plan -------------------------------------
    def _plan(self, items):
        """Parse, digest and deduplicate a batch against the trace store.

        Each member is parsed once (:meth:`Scenario.from_dict` of its
        :meth:`_scenario_dict`) and, with a store, digested once from
        the parsed scenario; everything after the plan reuses both, and
        a leader's recording is filed under the plan's digest.  A
        member that does not parse fails here.  Store hits replay, one
        *leader* per unseen digest emulates and records, and the
        *followers* replay their leader's fresh recording.  Without a
        store every parsed member leads.  Returns a :class:`_Plan`.
        """
        self._recordings = {}
        plan = _Plan([], [], [None] * len(items), {}, [], [])
        claimed = set()
        for index, item in enumerate(items):
            data = self._scenario_dict(item, index)
            scenario = digest = None
            try:
                scenario = Scenario.from_dict(data)
            except Exception as exc:  # the batch survives one bad scenario
                name = data.get("name", f"scenario{index}")
                plan.results[index] = _failed(index, name, exc)
            if scenario is not None and self.trace_store is not None:
                try:
                    digest = scenario_trace_digest(scenario)
                except Exception:
                    pass  # not digestible: the member runs unrecorded
            plan.scenarios.append(scenario)
            plan.digests.append(digest)
            if scenario is None:
                continue
            archive = (
                None if digest is None else self.trace_store.get(digest)
            )
            if archive is not None:
                plan.hits[index] = archive
            elif digest is not None and digest in claimed:
                plan.followers.append(index)
            else:
                claimed.add(digest)
                plan.leaders.append(index)
        return plan

    def _file(self, recording):
        """Keep a leader's recording for this batch's followers and put
        it in the store.  Store I/O is best-effort: a full or read-only
        disk is counted and logged, never a failed run."""
        if recording is None:
            return
        digest = recording.scenario_digest
        self._recordings[digest] = recording
        try:
            self.trace_store.put(recording)
        except OSError as exc:
            obs_catalog.counter("repro_store_put_errors_total").inc()
            _log.warning("trace store put of %s failed: %s", digest, exc)

    def _recording(self, digest):
        """A follower's archive: its leader's recording from this batch,
        else the store's copy, else ``None`` (the leader failed)."""
        if digest not in self._recordings:
            self._recordings[digest] = self.trace_store.get(digest)
        return self._recordings[digest]

    @property
    def _source(self):
        """Provenance label replays carry for the store."""
        store = self.trace_store
        if store is None:
            return None
        return "memory" if store.in_memory else str(store.root)

    # -- observability ---------------------------------------------------------
    def _observe_batch(self, results, wall_s, kind):
        """Record one finished batch into the metrics registry (and the
        active tracer, when any): batch size, per-scenario modes, and —
        for pooled batches — worker utilization."""
        if not results:
            return
        obs_catalog.counter("repro_runner_batches_total").inc()
        obs_catalog.histogram(
            "repro_runner_batch_size", buckets=BATCH_SIZE_BUCKETS
        ).observe(len(results))
        scenarios_total = obs_catalog.counter(
            "repro_runner_scenarios_total", labels=("mode",)
        )
        modes = {}
        for result in results:
            mode = (
                "failed" if not result.ok
                else "replayed" if result.replayed
                else "emulated"
            )
            modes[mode] = modes.get(mode, 0) + 1
        for mode, count in modes.items():
            scenarios_total.labels(mode=mode).inc(count)
        workers_used = max(1, min(self.workers, len(results)))
        if wall_s > 0:
            busy_s = sum(r.wall_seconds for r in results)
            obs_catalog.gauge("repro_runner_worker_utilization_ratio").set(
                min(1.0, busy_s / (workers_used * wall_s))
            )
        tracer = obs_tracing.ACTIVE
        if tracer is not None:
            for result in results:
                tracer.emit(
                    "runner.scenario", result.wall_seconds,
                    scenario=result.name, status=result.status,
                    replayed=result.replayed,
                )
            tracer.emit(
                "runner.batch", wall_s, kind=kind,
                scenarios=len(results), workers=workers_used,
            )

    # -- plain batches ---------------------------------------------------------
    def run(self, scenarios):
        """Run every scenario; returns ``list[ScenarioResult]`` in input
        order.  Items may be :class:`Scenario` objects or raw dicts.

        With a trace store, scenarios are deduplicated by their
        canonical digest before anything runs (:meth:`_plan`): store
        hits replay in-process, exactly one *leader* per unseen digest
        emulates (and records) on the worker pool, and the remaining
        *followers* replay the leader's fresh recording — so a
        16-variant thermal sweep costs one emulation plus 16 thermal
        solves, not 16 emulations.  A follower whose leader failed to
        record runs live: its thermal side differs, so the failure may
        not repeat.
        """
        start = time.perf_counter()
        plan = self._plan(scenarios)
        trace, source = self.capture_trace, self._source
        members, digests, results = plan.scenarios, plan.digests, plan.results
        for index, archive in plan.hits.items():
            results[index], _ = _execute(
                (index, members[index], trace, None, archive, source)
            )
        for result, recording in self._run_payloads([
            (index, members[index], trace, digests[index], None, source)
            for index in plan.leaders
        ]):
            results[result.index] = result
            self._file(recording)
        for index in plan.followers:
            results[index], _ = _execute(
                (index, members[index], trace, None,
                 self._recording(digests[index]), source)
            )
        self._observe_batch(results, time.perf_counter() - start, "run")
        return results

    def _run_payloads(self, payloads):
        if self.workers <= 1 or len(payloads) <= 1:
            return [_execute(p) for p in payloads]
        ctx = multiprocessing.get_context(self.start_method)
        with ctx.Pool(processes=min(self.workers, len(payloads))) as pool:
            return pool.map(_execute, payloads)

    # -- batched thermal solving ----------------------------------------------
    def run_batched(self, scenarios, library=None):
        """Run the batch in-process, co-stepping structure-sharing groups.

        Scenarios whose floorplan + grid configuration + sampling period
        coincide (and therefore share one cached network structure) are
        advanced window by window *together*: every window each member
        contributes one right-hand-side column and one shared
        :class:`~repro.thermal.backends.BatchedLU` performs a single
        multi-RHS backward-Euler solve — one factorization for the whole
        group instead of one per scenario per window.  The members'
        configured solver backends are bypassed for the shared
        integration, which carries CachedLU's bounded linearization
        error (exact for linear stacks); every member's report names
        the shared backend in ``extras["integrator"]``.

        With a trace store, members follow the same plan as :meth:`run`:
        store hits become :class:`~repro.trace.replay.ReplaySource`
        members (no platform, no workload — just the recorded stream
        driving the shared solve) co-stepped beside the leaders, which
        emulate with a capture attached and are filed into the store
        when their group ends; followers then co-step over the leaders'
        recordings.

        Results return in input order.  ``wall_seconds`` of each member
        is its *group's* wall time (the solves are genuinely shared); a
        failure while co-stepping marks every unfinished member of that
        group as failed.
        """
        start = time.perf_counter()
        plan = self._plan(scenarios)
        hits, digests = plan.hits, plan.digests
        self._run_groups(
            [
                (index, hits.get(index),
                 None if index in hits else digests[index])
                for index in sorted([*hits, *plan.leaders])
            ],
            plan, library,
        )
        self._run_groups(
            [
                (index, self._recording(digests[index]), None)
                for index in plan.followers
            ],
            plan, library,
        )
        results = plan.results
        self._observe_batch(results, time.perf_counter() - start, "batched")
        return results

    def _run_groups(self, members, plan, library):
        """Prepare ``members`` (``(index, archive, digest)`` triples; a
        member with a digest records under it), group them by network
        structure, co-step every group, fill ``plan.results`` and file
        the recordings."""
        results = plan.results
        groups = defaultdict(list)
        for index, archive, digest in members:
            scenario = plan.scenarios[index]
            try:  # the batch survives one bad scenario
                runnable, capture = _prepare(
                    scenario, archive, digest is not None, library,
                    self._source,
                )
            except Exception as exc:
                results[index] = _failed(index, scenario.name, exc)
                continue
            groups[_group_key(runnable)].append(
                (index, scenario, runnable, capture, digest)
            )
        for group in groups.values():
            start = time.perf_counter()
            completed = set()
            try:
                self._co_step(group, completed)
                error = tb = None
            except Exception as exc:
                error = f"{type(exc).__name__}: {exc}"
                tb = traceback_module.format_exc()
            wall = time.perf_counter() - start
            for position, (index, scenario, runnable, capture, digest) in (
                enumerate(group)
            ):
                # A member that had already reached its bounds *before*
                # the failing window completed normally and keeps its
                # report; everyone else (including a member whose
                # workload happened to finish during the window that
                # raised) is marked failed, matching serial semantics.
                member_error = None if position in completed else error
                report = None
                if not member_error:
                    report = runnable.report()
                    if capture is not None:
                        # Assembly errors propagate (they are bugs, and
                        # masking them would silently disable replay);
                        # only store I/O is best-effort.
                        self._file(capture.to_archive(
                            runnable, scenario=scenario, report=report,
                            scenario_digest=digest,
                        ))
                results[index] = ScenarioResult(
                    name=scenario.name,
                    index=index,
                    report=report,
                    wall_seconds=wall,
                    error=member_error,
                    traceback=tb if member_error else None,
                    trace=(
                        runnable.trace
                        if self.capture_trace and not member_error
                        else None
                    ),
                )

    @staticmethod
    def _co_step(group, completed):
        """Advance one structure-sharing group to its bounds, window by
        window, through a single shared multi-RHS factorization.

        ``completed`` (a set of group positions) is filled in-place as
        members reach their bounds at a window boundary, so the caller
        knows who finished cleanly even if a later window raises.
        Members may be live :class:`EmulationFramework` instances or
        :class:`~repro.trace.replay.ReplaySource` players — both are
        :class:`~repro.core.framework.ThermalSide` subclasses.
        """
        frameworks = [framework for _, _, framework, _, _ in group]
        bounds = [
            (
                scenario.max_emulated_seconds,
                scenario.max_windows,
                scenario.max_stall_windows,
            )
            for _, scenario, _, _, _ in group
        ]
        backend = BatchedLU().bind(frameworks[0].network)
        for framework in frameworks:
            # Provenance: the shared solve, not each member's configured
            # backend, integrates every window (RunReport.extras).
            framework.integrator = backend.name
        dt = frameworks[0].config.sampling_period_s
        active = list(range(len(frameworks)))
        while True:
            still = []
            for b in active:
                if frameworks[b].bounds_reached(*bounds[b]):
                    completed.add(b)
                else:
                    still.append(b)
            active = still
            if not active:
                return backend
            pending = []
            for b in active:
                powers, frequency = frameworks[b]._window_power()
                pending.append((b, powers, frequency))
            temps = np.stack(
                [frameworks[b].solver.temperatures for b, _, _ in pending], axis=1
            )
            rhs = np.stack(
                [frameworks[b].network.rhs() for b, _, _ in pending], axis=1
            )
            advanced = backend.step_batch(temps, dt, rhs)
            for col, (b, powers, frequency) in enumerate(pending):
                solver = frameworks[b].solver
                solver.temperatures = advanced[:, col]
                solver.time += dt
                frameworks[b]._window_commit(powers, frequency)
