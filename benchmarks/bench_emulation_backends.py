"""Emulation-backend throughput: windows/sec per backend, equivalence-gated.

The co-emulation loop spends its HW-side budget advancing the platform
one sampling window at a time.  This bench drives every registered
emulation backend (:data:`repro.emulation.backends.EMULATION_BACKENDS`)
through the same MATRIX scenario — the default ``matrix_quickstart``
preset sized up to a multi-window run — and reports emulate-phase
windows/sec (from the framework's ``extras["timing"]`` breakdown), the
event-driven interpreter's microseconds per instruction, the speedup
over the ``event_driven`` reference, and the windowed backend's one-off
calibration cost.  The timing is only trusted after an
equivalence harness passes: identical window counts and completion
semantics, instruction totals within 0.5%, and per-window total power
within each backend's declared ``power_tolerance_pct``.

Check mode (``python benchmarks/bench_emulation_backends.py --check``,
run in CI) asserts the equivalence harness plus the acceptance bar —
the windowed backend must advance windows >= 10x faster than
``event_driven`` — without printing the full table.

``--json`` writes the measurements to
``benchmarks/results/BENCH_emulation.json`` (machine readable).  That
directory is not versioned; CI uploads the file as a build artifact.
"""

import argparse
import json
import pathlib
import sys
import time

import numpy as np

from repro.emulation.backends import EMULATION_BACKENDS
from repro.emulation.windowed import calibration_cache_size, clear_calibration_cache
from repro.scenario.presets import PRESETS
from repro.trace.capture import PowerTraceCapture
from repro.util.records import Table

RESULTS_DIR = pathlib.Path(__file__).parent / "results"

DEFAULT_ITERATIONS = 40   # MATRIX platform iterations: ~9 windows at 1 ms
SAMPLING_PERIOD_S = 0.001  # 100k cycles/window at the preset's 100 MHz
SPEEDUP_BAR = 10.0         # acceptance: windowed >= 10x event_driven
INSTRUCTION_TOLERANCE = 0.005  # relative instruction-total agreement
#: On the default preset's window size the fast path must stay within a
#: few percent — tighter than the backend's universal declaration, which
#: also covers boundary windows at much finer sampling.
PRESET_POWER_TOLERANCE_PCT = 3.0

#: Backends the full bench times.  ``cycle_accurate`` evaluates every
#: component every cycle, so it gets a deliberately tiny workload and is
#: reported for scale, not raced on the main scenario.
TIMED_BACKENDS = ("event_driven", "windowed")
CA_ITERATIONS = 1


def make_scenario(backend, iterations=DEFAULT_ITERATIONS):
    """The default preset, sized to a multi-window run, on ``backend``."""
    scenario = PRESETS.get("matrix_quickstart")()
    scenario.workload.params["iterations"] = iterations
    scenario.config.sampling_period_s = SAMPLING_PERIOD_S
    scenario.config.emulation_backend = backend
    scenario.config._validate_emulation_backend()
    return scenario


def run_backend(backend, iterations=DEFAULT_ITERATIONS):
    """Build + run one scenario; returns a flat measurement dict.

    ``build_seconds`` includes the windowed backend's calibration when
    the module-level calibration cache is cold; ``emulate_seconds`` is
    the framework's own emulate-phase accumulator — the hot loop this
    bench exists to race.  ``window_power_w`` is the per-window total
    platform power at the dispatcher boundary (the equivalence signal).
    """
    scenario = make_scenario(backend, iterations)
    start = time.perf_counter()
    framework = scenario.build()
    build_seconds = time.perf_counter() - start
    capture = framework.attach_capture(PowerTraceCapture())
    start = time.perf_counter()
    report = framework.run(
        max_emulated_seconds=scenario.max_emulated_seconds,
        max_windows=scenario.max_windows,
        max_stall_windows=scenario.max_stall_windows,
    )
    run_seconds = time.perf_counter() - start
    archive = capture.to_archive(framework, scenario=scenario, report=report)
    return {
        "backend": backend,
        "windows": report.windows,
        "workload_done": report.workload_done,
        "instructions": float(report.instructions),
        "peak_temperature_k": float(report.peak_temperature_k),
        "build_seconds": build_seconds,
        "run_seconds": run_seconds,
        "emulate_seconds": report.extras["timing"]["emulate"],
        "window_power_w": [float(p) for p in archive.power_w.sum(axis=1)],
    }


def equivalence(reference, candidate, tolerance_pct):
    """Compare a run against the event-driven reference.

    Returns ``(worst_power_deviation_pct, failures)`` where ``failures``
    is a list of human-readable violations (empty means equivalent).
    """
    failures = []
    if candidate["windows"] != reference["windows"]:
        failures.append(
            f"windows {candidate['windows']} != {reference['windows']}"
        )
    if candidate["workload_done"] != reference["workload_done"]:
        failures.append("completion semantics differ")
    ref_instr = max(reference["instructions"], 1.0)
    instr_dev = abs(candidate["instructions"] - reference["instructions"]) / ref_instr
    if instr_dev > INSTRUCTION_TOLERANCE:
        failures.append(f"instruction totals differ by {instr_dev:.2%}")
    ref_power = np.asarray(reference["window_power_w"])
    cand_power = np.asarray(candidate["window_power_w"])
    worst_pct = 0.0
    if len(ref_power) == len(cand_power) and len(ref_power):
        deviations = np.abs(cand_power - ref_power) / np.maximum(ref_power, 1e-12)
        worst_pct = float(np.max(deviations)) * 100.0
        if worst_pct > tolerance_pct:
            failures.append(
                f"per-window power off by {worst_pct:.2f}% "
                f"(declared tolerance {tolerance_pct:g}%)"
            )
    return worst_pct, failures


def us_per_instruction(run):
    """Emulate-phase microseconds per executed instruction."""
    return run["emulate_seconds"] / max(run["instructions"], 1.0) * 1e6


def measure(iterations=DEFAULT_ITERATIONS, include_cycle_accurate=True):
    """Run the harness; returns the machine-readable payload.

    The windowed backend is run twice: the first run pays calibration
    (reported as ``calibration_seconds``), the second measures the
    steady state every sweep after the first enjoys.
    """
    clear_calibration_cache()
    runs = {"event_driven": run_backend("event_driven", iterations)}
    cold = run_backend("windowed", iterations)
    assert calibration_cache_size() == 1, "calibration was not cached"
    runs["windowed"] = run_backend("windowed", iterations)
    runs["windowed"]["calibration_seconds"] = (
        cold["build_seconds"] - runs["windowed"]["build_seconds"]
    )
    checks = {}
    for name in ("windowed",):
        tolerance = min(
            EMULATION_BACKENDS.get(name).power_tolerance_pct,
            PRESET_POWER_TOLERANCE_PCT,
        )
        worst_pct, failures = equivalence(runs["event_driven"], runs[name], tolerance)
        checks[name] = {
            "worst_power_deviation_pct": worst_pct,
            "tolerance_pct": tolerance,
            "failures": failures,
        }
    reference_rate = runs["event_driven"]["windows"] / max(
        runs["event_driven"]["emulate_seconds"], 1e-12
    )
    windowed_rate = runs["windowed"]["windows"] / max(
        runs["windowed"]["emulate_seconds"], 1e-12
    )
    payload = {
        "scenario": "matrix_quickstart",
        "iterations": iterations,
        "sampling_period_s": SAMPLING_PERIOD_S,
        "speedup_bar": SPEEDUP_BAR,
        "runs": runs,
        "equivalence": checks,
        "windows_per_second": {
            "event_driven": reference_rate,
            "windowed": windowed_rate,
        },
        "windowed_speedup": windowed_rate / reference_rate,
        "event_driven_us_per_instruction": us_per_instruction(
            runs["event_driven"]
        ),
    }
    if include_cycle_accurate:
        # A deliberately tiny datapoint: every component, every cycle.
        ca = run_backend("cycle_accurate", CA_ITERATIONS)
        ca_small = run_backend("event_driven", CA_ITERATIONS)
        payload["cycle_accurate_small"] = {
            "iterations": CA_ITERATIONS,
            "cycle_accurate": ca,
            "event_driven": ca_small,
        }
    return payload


def enforce(payload):
    """Raise AssertionError on any equivalence or speedup violation."""
    for name, check in payload["equivalence"].items():
        assert not check["failures"], (
            f"{name} backend is not equivalent to event_driven: "
            + "; ".join(check["failures"])
        )
    speedup = payload["windowed_speedup"]
    assert speedup >= SPEEDUP_BAR, (
        f"windowed backend must advance windows >= {SPEEDUP_BAR:.0f}x faster "
        f"than event_driven, measured {speedup:.1f}x"
    )


def render(payload):
    """The human-readable report for the full bench."""
    table = Table(
        ["backend", "windows", "emulate s", "windows/s", "us/instr",
         "speedup", "max power dev"],
        title=(
            f"Emulation backend throughput (matrix_quickstart, "
            f"{payload['iterations']} iterations, "
            f"{payload['sampling_period_s'] * 1e3:.0f} ms windows)"
        ),
    )
    reference_rate = payload["windows_per_second"]["event_driven"]
    for name in TIMED_BACKENDS:
        run = payload["runs"][name]
        rate = payload["windows_per_second"][name]
        check = payload["equivalence"].get(name)
        deviation = (
            f"{check['worst_power_deviation_pct']:.2f}%" if check else "(reference)"
        )
        table.add_row(
            name,
            run["windows"],
            f"{run['emulate_seconds']:.3f}",
            f"{rate:,.1f}",
            # Only the interpreter executes instructions one by one.
            f"{us_per_instruction(run):.2f}" if name == "event_driven" else "-",
            f"{rate / reference_rate:.1f}x",
            deviation,
        )
    lines = [str(table), ""]
    windowed = payload["runs"]["windowed"]
    lines.append(
        f"windowed calibration: {windowed['calibration_seconds']:.2f} s once "
        f"per platform content digest (cached for every later build)"
    )
    ca = payload.get("cycle_accurate_small")
    if ca:
        ratio = (
            ca["cycle_accurate"]["emulate_seconds"]
            / max(ca["event_driven"]["emulate_seconds"], 1e-12)
        )
        lines.append(
            f"cycle_accurate scale datapoint ({ca['iterations']} iteration): "
            f"{ca['cycle_accurate']['emulate_seconds']:.2f} s vs "
            f"{ca['event_driven']['emulate_seconds']:.2f} s event-driven "
            f"({ratio:.0f}x slower — every component, every cycle)"
        )
    lines.append(
        f"windowed speedup on the emulate phase: "
        f"{payload['windowed_speedup']:.0f}x (acceptance bar: >= "
        f"{SPEEDUP_BAR:.0f}x)"
    )
    return "\n".join(lines)


def write_json(payload):
    RESULTS_DIR.mkdir(exist_ok=True)
    path = RESULTS_DIR / "BENCH_emulation.json"
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return path


# -- pytest entry points (benchmarks/ is run explicitly, not by tier-1) ------

def test_emulation_backends(report):
    payload = measure()
    enforce(payload)
    report("emulation_backends", render(payload))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--check", action="store_true",
        help="assert equivalence + the >= 10x bar, minimal output (CI mode)",
    )
    parser.add_argument(
        "--json", action="store_true", dest="as_json",
        help="also write benchmarks/results/BENCH_emulation.json",
    )
    parser.add_argument(
        "--iterations", type=int, default=DEFAULT_ITERATIONS,
        help=f"MATRIX platform iterations (default {DEFAULT_ITERATIONS})",
    )
    args = parser.parse_args(argv)
    payload = measure(
        iterations=args.iterations,
        include_cycle_accurate=not args.check,
    )
    enforce(payload)
    if args.as_json:
        print(f"wrote {write_json(payload)}")
    if args.check:
        print(
            f"emulation backends equivalent; windowed speedup "
            f"{payload['windowed_speedup']:.0f}x (bar {SPEEDUP_BAR:.0f}x); "
            f"event-driven {payload['windows_per_second']['event_driven']:.1f}"
            f" windows/s, "
            f"{payload['event_driven_us_per_instruction']:.2f} us/instruction"
        )
        return 0
    print(render(payload))
    return 0


if __name__ == "__main__":
    sys.exit(main())
