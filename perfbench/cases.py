"""The four benchmark workloads: seeded inputs, the run, output checks.

Each workload is a pair of functions.  ``inputs_<name>(seed)`` returns
the JSON-compatible inputs a seed generates (sizes and utilizations
within fixed ranges, chosen so the amount of work barely depends on the
seed).  ``run_<name>(inputs, ctx)`` drives the program through its
public API and returns a :class:`Outcome`.  The only clock here is
``ctx.stop_clock()``, called where the program's work ends and checking
begins; :mod:`worker` owns the rest, so the same code serves the
untraced and the traced process.

Checks never raise.  Each one is recorded as passed or failed, and a
failed check counts toward the run's failure ratio.
"""

import hashlib
import random
import struct
import sys
import traceback
from dataclasses import dataclass, field

WORKLOADS = ("isa_cosim", "thermal_dfs", "dse_sweep", "replay_sweep")

#: MATRIX cycles per iteration (b) and fixed cost (a), per matrix size,
#: measured on the 4-core Microblaze bus platform; iterations are picked
#: so every seed emulates about ``MATRIX_TARGET_CYCLES``.
MATRIX_COST = {4: (334, 2783), 5: (470, 5254), 6: (634, 8881)}
MATRIX_TARGET_CYCLES = 220_000
#: Dithering image shapes of equal area (height divisible by 4 cores).
DITHER_SHAPES = ((32, 16), (16, 32))
ISA_WINDOW_S = 1e-3
#: Uniform-grid die resolutions of the replay sweep (about 20 to 580
#: cells with a 2x2 spreader).
REPLAY_DIE_GRIDS = (4, 8, 12, 16, 20, 24)
REPLAY_RECORDINGS = 3
REPLAY_WINDOWS = 60
DSE_SAMPLED_POINTS = 4
DSE_SERIAL_TOLERANCE_K = 0.5  # the existing batched-vs-serial bound
WINDOWED_INSTRUCTION_TOLERANCE = 0.005


@dataclass
class Outcome:
    """What one workload run produced, for metrics and checks."""

    scenarios: int = 0
    failed_scenarios: int = 0
    windows: int = 0
    replayed: int = 0
    emulated_cycles: float = 0.0
    instructions: float = 0.0
    dfs_transitions: int = 0
    digests: dict = field(default_factory=dict)  # scenario -> trace hash
    checks: list = field(default_factory=list)  # (name, passed, detail)

    def check(self, name, passed, detail=""):
        self.checks.append((name, bool(passed), str(detail)))

    def crashed(self, name, exc):
        """A scenario or pass raised: print the traceback, count it."""
        traceback.print_exception(exc, file=sys.stderr)
        self.check(name, False, f"{type(exc).__name__}: {exc}")

    def add_result(self, name, report, trace, period_s, replayed=False):
        """Account one finished scenario (live or replayed)."""
        self.scenarios += 1
        if report is None:
            self.failed_scenarios += 1
            return
        self.windows += report.windows
        self.dfs_transitions += report.frequency_transitions
        if replayed:
            self.replayed += 1
        else:
            self.instructions += report.instructions
            self.emulated_cycles += trace_cycles(trace, period_s)
        self.digests[name] = trace_hash(trace)


def trace_hash(trace):
    """SHA-256 over every sample of a ThermalTrace, bit for bit."""
    h = hashlib.sha256()
    for s in trace.samples:
        h.update(struct.pack(
            "<4d", s.time_s, s.frequency_hz, s.total_power_w, s.max_temp_k
        ))
        for name in sorted(s.component_temps):
            h.update(name.encode())
            h.update(struct.pack("<d", s.component_temps[name]))
        h.update(repr(s.events).encode())
    return h.hexdigest()


def trace_cycles(trace, period_s):
    """Virtual-clock cycles the emulated platform covered."""
    return sum(s.frequency_hz * period_s for s in trace.samples)


def combined_hash(digests):
    h = hashlib.sha256()
    for name in sorted(digests):
        h.update(f"{name}={digests[name]};".encode())
    return h.hexdigest()


def _rng(workload, seed):
    return random.Random(f"{workload}:{seed}")


def _utilization_profile(rng, core_low, core_high):
    """A MATRIX-TM-class activity profile with seeded utilizations."""
    from repro.core.workload_model import ActivityProfile

    utilization = {}
    for i in range(4):
        utilization[("core", i)] = round(rng.uniform(core_low, core_high), 4)
        utilization[("icache", i)] = round(rng.uniform(0.4, 0.6), 4)
        utilization[("dcache", i)] = round(rng.uniform(0.25, 0.45), 4)
        utilization[("private_mem", i)] = round(rng.uniform(0.1, 0.3), 4)
    utilization[("shared_mem", None)] = round(rng.uniform(0.15, 0.35), 4)
    return ActivityProfile(
        name="bench_stress",
        cycles_per_iteration=1000.0,
        utilization=utilization,
        instructions_per_iteration=850.0,
    ).to_dict()


def _build_all(scenarios, outcome):
    """Build every scenario before any window runs, so one-off costs
    (windowed calibration, network assembly) land in set-up."""
    built = []
    for scenario in scenarios:
        try:
            built.append((scenario, scenario.build()))
        except Exception as exc:
            outcome.crashed(f"{scenario.name}.build", exc)
    return built


def _run_serially(built, outcome, ctx):
    """Step each built framework to its bounds, one window at a time;
    returns ``{name: (framework, report)}`` of the runs that finished."""
    runs, failed = {}, []
    for scenario, framework in built:
        try:
            while not framework.bounds_reached(
                scenario.max_emulated_seconds, scenario.max_windows,
                scenario.max_stall_windows,
            ):
                framework.step_window()
            runs[scenario.name] = (framework, framework.report())
        except Exception as exc:
            failed.append((scenario.name, exc))
    ctx.stop_clock()
    for name, exc in failed:
        outcome.crashed(f"{name}.run", exc)
    for scenario, framework in built:
        if scenario.name in runs:
            outcome.add_result(
                scenario.name, runs[scenario.name][1], framework.trace,
                scenario.config.sampling_period_s,
            )
    return runs


# -- isa_cosim ---------------------------------------------------------------
def inputs_isa_cosim(seed):
    rng = _rng("isa_cosim", seed)
    n = rng.choice(sorted(MATRIX_COST))
    fixed, per_iteration = MATRIX_COST[n]
    iterations = round((MATRIX_TARGET_CYCLES - fixed) / per_iteration)
    width, height = rng.choice(DITHER_SHAPES)
    return {"matrix_n": n, "matrix_iterations": iterations,
            "dither_width": width, "dither_height": height}


def run_isa_cosim(inputs, ctx):
    """Event-driven MATRIX on the bus, DITHERING on the 2-switch NoC,
    then the same MATRIX on the windowed backend.  All three are built
    (windowed calibration included) before the first window runs."""
    import numpy as np

    from repro.emulation.backends import EMULATION_BACKENDS
    from repro.scenario.presets import PRESETS
    from repro.scenario.spec import Scenario
    from repro.workloads import expected_checksum, golden_dither
    from repro.workloads.dithering import read_image
    from repro.workloads.images import synthetic_grey_image

    n, iterations = inputs["matrix_n"], inputs["matrix_iterations"]
    width, height = inputs["dither_width"], inputs["dither_height"]
    matrix = PRESETS.get("matrix_quickstart")()
    matrix.workload.params.update(n=n, iterations=iterations)
    matrix.config.sampling_period_s = ISA_WINDOW_S
    dither = PRESETS.get("dithering_noc")()
    dither.workload.params.update(width=width, height=height)
    dither.config.sampling_period_s = ISA_WINDOW_S
    windowed = Scenario.from_dict(matrix.to_dict())
    windowed.name = "matrix_windowed"
    windowed.config.emulation_backend = "windowed"

    outcome = Outcome()
    built = _build_all((matrix, dither, windowed), outcome)
    runs = _run_serially(built, outcome, ctx)

    if "matrix_quickstart" in runs:
        platform = runs["matrix_quickstart"][0].platform
        got = [platform.shared_mem.read_word(4 * c) for c in range(4)]
        want = [expected_checksum(n, c) for c in range(4)]
        outcome.check("matrix.checksum", got == want, f"{got} vs {want}")
    if "dithering_noc" in runs:
        platform = runs["dithering_noc"][0].platform
        bad = [
            index for index in range(2)
            if not np.array_equal(
                read_image(platform, index, width, height),
                golden_dither(
                    synthetic_grey_image(width, height, variant=index),
                    num_segments=4,
                ),
            )
        ]
        outcome.check("dithering.golden", not bad, f"images differ: {bad}")
    if "matrix_quickstart" in runs and "matrix_windowed" in runs:
        exact = runs["matrix_quickstart"][0].trace.samples
        fast = runs["matrix_windowed"][0].trace.samples
        tolerance = EMULATION_BACKENDS.get("windowed").power_tolerance_pct
        worst = max(
            (abs(f.total_power_w - e.total_power_w) / e.total_power_w * 100.0
             for e, f in zip(exact, fast) if e.total_power_w > 0),
            default=float("inf"),
        )
        outcome.check(
            "windowed.power_tolerance",
            len(exact) == len(fast) and worst <= tolerance,
            f"{len(fast)} vs {len(exact)} windows, worst {worst:.3f}% "
            f"(tolerance {tolerance}%)",
        )
        want = runs["matrix_quickstart"][1].instructions
        got = runs["matrix_windowed"][1].instructions
        drift = abs(got - want) / want
        outcome.check(
            "windowed.instructions", drift <= WINDOWED_INSTRUCTION_TOLERANCE,
            f"{got} vs {want} ({drift:.4%})",
        )
    return outcome


# -- thermal_dfs -------------------------------------------------------------
def inputs_thermal_dfs(seed):
    rng = _rng("thermal_dfs", seed)
    return {"profile": _utilization_profile(rng, 0.95, 0.99)}


def run_thermal_dfs(inputs, ctx):
    """The closed-loop Figure 6 pair, serially, on exact ``sparse_be``."""
    from repro.scenario.presets import PRESETS

    scenarios = []
    for name in ("matrix_tm_dfs", "matrix_tm_unmanaged"):
        scenario = PRESETS.get(name)()
        scenario.workload.params["profile"] = inputs["profile"]
        scenarios.append(scenario)
    outcome = Outcome()
    runs = _run_serially(_build_all(scenarios, outcome), outcome, ctx)

    if len(runs) == 2:
        dfs = runs["matrix_tm_dfs"][1]
        unmanaged = runs["matrix_tm_unmanaged"][1]
        outcome.check(
            "dfs.completes", dfs.workload_done and unmanaged.workload_done,
            f"done {dfs.workload_done}/{unmanaged.workload_done}",
        )
        outcome.check(
            "dfs.cooler", dfs.peak_temperature_k < unmanaged.peak_temperature_k
            and dfs.frequency_transitions > 0,
            f"peak {dfs.peak_temperature_k:.2f} K vs "
            f"{unmanaged.peak_temperature_k:.2f} K, "
            f"{dfs.frequency_transitions} transitions",
        )
    return outcome


# -- dse_sweep ---------------------------------------------------------------
def inputs_dse_sweep(seed):
    """The full default space in a seeded order, plus the points that
    are re-run serially as a check."""
    from repro.dse.space import default_points

    labels = [p.label for p in default_points()]
    rng = _rng("dse_sweep", seed)
    order = list(range(len(labels)))
    rng.shuffle(order)
    sampled = sorted(rng.sample(range(len(labels)), DSE_SAMPLED_POINTS))
    return {"order": order, "sampled": [labels[i] for i in sampled]}


def _dominates(a, b, objectives):
    no_worse = all(
        (a[k] <= b[k]) if sense == "min" else (a[k] >= b[k])
        for k, sense in objectives
    )
    better = any(
        (a[k] < b[k]) if sense == "min" else (a[k] > b[k])
        for k, sense in objectives
    )
    return no_worse and better


def run_dse_sweep(inputs, ctx):
    """``run_dse`` over all 1008 points as ``dse --check`` runs it."""
    from repro.dse.driver import run_dse
    from repro.dse.space import default_points, point_scenario
    from repro.scenario.runner import Runner

    points = default_points()
    points = [points[i] for i in inputs["order"]]
    # Keep every batch run_dse makes: the sweep, then the refinement.
    batches = []
    run_batched = Runner.run_batched

    def keep(self, scenarios, library=None):
        batch = run_batched(self, scenarios, library=library)
        batches.append(batch)
        return batch

    outcome = Outcome()
    Runner.run_batched = keep
    try:
        report = run_dse(points)
    except Exception as exc:
        outcome.crashed("dse.run", exc)
        return outcome
    finally:
        Runner.run_batched = run_batched
    ctx.stop_clock()

    period = point_scenario(points[0]).config.sampling_period_s
    for number, batch in enumerate(batches):
        for result in batch:
            outcome.add_result(
                f"{number}/{result.name}",
                result.report if result.ok else None, result.trace, period,
                replayed=result.replayed,
            )
    outcome.check(
        "dse.evaluated", report["evaluated"] == len(points)
        and report["failed"] == 0,
        f"{report['evaluated']} evaluated, {report['failed']} failed",
    )
    outcome.check(
        "dse.replayed", report["replayed"] == len(points) // 2,
        f"{report['replayed']} replayed",
    )
    objectives = [tuple(o) for o in report["objectives"]]
    front = report["front"]
    clash = next(
        ((a["design"], b["design"]) for a in front for b in front
         if a is not b and _dominates(a, b, objectives)),
        None,
    )
    outcome.check("dse.front_nondominated", front and clash is None,
                  f"{len(front)} on the front, dominating pair {clash}")

    by_label = {p.label: p for p in points}
    swept = {r.name: r for r in batches[0]}
    for label in inputs["sampled"]:
        try:
            _, live = point_scenario(by_label[label]).run()
            delta = abs(
                live.peak_temperature_k - swept[label].report.peak_temperature_k
            )
        except Exception as exc:
            outcome.crashed(f"dse.serial.{label}", exc)
            continue
        outcome.check(
            f"dse.serial.{label}", delta <= DSE_SERIAL_TOLERANCE_K,
            f"|peak batched - serial sparse_be| = {delta:.4f} K",
        )
    return outcome


# -- replay_sweep ------------------------------------------------------------
def inputs_replay_sweep(seed):
    rng = _rng("replay_sweep", seed)
    return {"profiles": [
        _utilization_profile(rng, 0.6, 0.99)
        for _ in range(REPLAY_RECORDINGS)
    ]}


def _replay_scenarios(inputs):
    from repro.scenario.presets import PRESETS

    scenarios = []
    for r, profile in enumerate(inputs["profiles"]):
        for die in REPLAY_DIE_GRIDS:
            scenario = PRESETS.get("matrix_tm_unmanaged")()
            scenario.name = f"rec{r}_die{die}"
            scenario.workload.params["profile"] = profile
            scenario.config.grid_mode = "uniform"
            scenario.config.die_resolution = (die, die)
            scenario.max_windows = REPLAY_WINDOWS
            scenarios.append(scenario)
    return scenarios


def run_replay_sweep(inputs, ctx):
    """A cold pass into a fresh disk store, then a warm pass from it."""
    from repro.scenario.runner import Runner

    scenarios = _replay_scenarios(inputs)
    period = scenarios[0].config.sampling_period_s
    outcome = Outcome()
    passes = {}
    for label in ("cold", "warm"):
        runner = Runner(capture_trace=True, trace_store=ctx.store_dir)
        try:
            passes[label] = runner.run(scenarios)
        except Exception as exc:
            outcome.crashed(f"replay.{label}", exc)
            continue
    ctx.stop_clock()

    for label, results in passes.items():
        for result in results:
            outcome.add_result(
                f"{label}/{result.name}",
                result.report if result.ok else None, result.trace, period,
                replayed=result.replayed,
            )
    if len(passes) == 2:
        cold, warm = passes["cold"], passes["warm"]
        leaders = sum(1 for r in cold if r.ok and not r.replayed)
        outcome.check(
            "replay.cold_leaders", leaders == REPLAY_RECORDINGS,
            f"{leaders} live recordings",
        )
        outcome.check(
            "replay.warm_all_hits", all(r.ok and r.replayed for r in warm),
            f"{sum(r.replayed for r in warm)}/{len(warm)} replayed",
        )
        mismatched = [
            c.name for c, w in zip(cold, warm)
            if not (c.ok and w.ok)
            or outcome.digests.get(f"cold/{c.name}")
            != outcome.digests.get(f"warm/{w.name}")
        ]
        outcome.check("replay.bit_exact", not mismatched,
                      f"replay differs from live: {mismatched}")
    return outcome


INPUTS = {name: globals()[f"inputs_{name}"] for name in WORKLOADS}
RUNS = {name: globals()[f"run_{name}"] for name in WORKLOADS}
