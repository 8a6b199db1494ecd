"""Observability overhead: the repro.obs hot-path tax, gated.

The per-window instrumentation in ``EmulationFramework.step_window``
promises to be near-free when tracing is off: one module attribute read
and an ``is None`` branch per window (the phase accumulators existed
before :mod:`repro.obs`).  This bench holds the layer to that promise
two ways:

* **Disabled (modeled)** — a microbenchmark times the exact guard the
  hot loop runs (``obs_tracing.ACTIVE`` read + ``is None`` branch), and
  the cost is expressed as a fraction of one steady-state ``windowed``
  backend window.  Gate: < 1%.  Modeled rather than differenced because
  a sub-0.1% effect drowns in run-to-run noise — the guard cost itself
  is what the instrumentation added, so it is measured directly.
* **Enabled (measured)** — interleaved pairs of full runs timed in CPU
  seconds, tracing off vs tracing on (in-memory :class:`~repro.obs.tracing.SpanTracer`, five
  span events per window plus the run span).  The tax is the median of
  the per-pair differences over the median tracing-off run; each run is
  sized by window count to last at least ``MIN_RUN_S``, so a pair's
  difference is several timer ticks and scheduler slices long.  Gate:
  < 5%.  The spread of the per-pair taxes is printed beside the verdict.

Check mode (``python benchmarks/bench_obs_overhead.py --check``, run in
CI) asserts both gates with minimal output.  ``--json`` persists the
measurements to ``benchmarks/results/BENCH_obs.json``.
"""

import argparse
import json
import pathlib
import sys
import time

from repro.emulation.windowed import clear_calibration_cache
from repro.obs import tracing as obs_tracing
from repro.obs.tracing import SpanTracer
from repro.scenario.presets import PRESETS
from repro.util.records import Table

RESULTS_DIR = pathlib.Path(__file__).parent / "results"

DEFAULT_ITERATIONS = 40    # MATRIX platform iterations: ~9 windows at 1 ms
SAMPLING_PERIOD_S = 0.001  # 100k cycles/window at the preset's 100 MHz
MIN_RUN_S = 0.1            # each timed run lasts at least this long
MIN_PAIRS = 7              # off/on run pairs: at least this many
DEFAULT_PAIRS = 15         # medians of per-pair differences beat the noise
GUARD_SAMPLES = 200_000    # guard microbenchmark iterations

DISABLED_BAR_PCT = 1.0     # modeled guard cost per window
ENABLED_BAR_PCT = 5.0      # measured full-tracing tax


def make_scenario(iterations=DEFAULT_ITERATIONS,
                  sampling_period_s=SAMPLING_PERIOD_S):
    """The default preset on the fast windowed backend — the highest
    window rate in the repo, i.e. the worst case for per-window tax."""
    scenario = PRESETS.get("matrix_quickstart")()
    scenario.workload.params["iterations"] = iterations
    scenario.config.sampling_period_s = sampling_period_s
    scenario.config.emulation_backend = "windowed"
    return scenario


def run_once(iterations, traced, sampling_period_s=SAMPLING_PERIOD_S):
    """One full build + run; returns ``(cpu_seconds, windows)`` of the run.

    CPU time rather than wall time: the run is single-threaded and does
    no I/O, so the time it waits for a CPU on a shared host is noise."""
    framework = make_scenario(iterations, sampling_period_s).build()
    start = time.process_time()
    if traced:
        with obs_tracing.activate(SpanTracer()):
            report = framework.run()
    else:
        report = framework.run()
    return time.process_time() - start, report.windows


def sized_period(iterations):
    """The sampling period that makes one tracing-off run last at least
    ``MIN_RUN_S``: the workload stays the same (so does its cached
    calibration), it is cut into proportionally more windows."""
    period = SAMPLING_PERIOD_S
    for _ in range(4):
        cpu, _ = run_once(iterations, traced=False, sampling_period_s=period)
        if cpu >= MIN_RUN_S:
            break
        # 25% headroom so host noise rarely drops a run under the floor.
        period *= cpu / (1.25 * MIN_RUN_S)
    return period


def guard_cost_seconds(samples=GUARD_SAMPLES):
    """Per-call cost of the tracing-off guard the window loop runs."""
    start = time.perf_counter()
    for _ in range(samples):
        tracer = obs_tracing.ACTIVE
        if tracer is not None:  # pragma: no cover - tracing is off here
            raise AssertionError("tracing must be off during the guard bench")
    return (time.perf_counter() - start) / samples


def _median(values):
    ordered = sorted(values)
    return ordered[len(ordered) // 2]


def _quartiles(values):
    ordered = sorted(values)
    return ordered[len(ordered) // 4], ordered[(3 * len(ordered)) // 4]


def measure(iterations=DEFAULT_ITERATIONS, pairs=DEFAULT_PAIRS):
    """Run the harness; returns the machine-readable payload."""
    if pairs < MIN_PAIRS:
        raise ValueError(f"need at least {MIN_PAIRS} pairs, got {pairs}")
    clear_calibration_cache()
    run_once(iterations, traced=False)  # warm calibration + caches
    period = sized_period(iterations)
    off_cpus, on_cpus = [], []
    windows = 0
    for pair in range(pairs):
        # Alternate which run of a pair goes first, so a host slowing
        # down or speeding up over the bench does not bias the tax.
        for traced in (False, True) if pair % 2 == 0 else (True, False):
            seconds, windows = run_once(iterations, traced=traced,
                                        sampling_period_s=period)
            (on_cpus if traced else off_cpus).append(seconds)
    off = _median(off_cpus)
    pair_taxes = [
        (on - off_cpu) / off * 100.0
        for off_cpu, on in zip(off_cpus, on_cpus)
    ]
    low, high = _quartiles(pair_taxes)
    seconds_per_window = off / max(windows, 1)
    guard = guard_cost_seconds()
    return {
        "scenario": "matrix_quickstart",
        "backend": "windowed",
        "iterations": iterations,
        "sampling_period_s": period,
        "pairs": pairs,
        "windows": windows,
        "median_cpu_off_s": off,
        "median_cpu_on_s": _median(on_cpus),
        "off_spread_pct": (max(off_cpus) - min(off_cpus)) / off * 100.0,
        "pair_tax_iqr_pct": [low, high],
        "seconds_per_window": seconds_per_window,
        "guard_cost_ns": guard * 1e9,
        "disabled_overhead_pct": guard / seconds_per_window * 100.0,
        "enabled_overhead_pct": _median(pair_taxes),
        "disabled_bar_pct": DISABLED_BAR_PCT,
        "enabled_bar_pct": ENABLED_BAR_PCT,
    }


def spread(payload):
    """The run-to-run spread, printed beside every verdict."""
    low, high = payload["pair_tax_iqr_pct"]
    return (
        f"per-pair tax IQR {low:.2f}..{high:.2f}%, tracing-off runs "
        f"spread {payload['off_spread_pct']:.1f}% over {payload['pairs']} "
        f"pairs of {payload['median_cpu_off_s'] * 1e3:.0f} ms "
        f"({payload['windows']} windows)"
    )


def enforce(payload):
    """Raise AssertionError when either overhead gate is violated."""
    disabled = payload["disabled_overhead_pct"]
    assert disabled < DISABLED_BAR_PCT, (
        f"tracing-off guard costs {disabled:.3f}% of a window "
        f"(bar {DISABLED_BAR_PCT:g}%)"
    )
    enabled = payload["enabled_overhead_pct"]
    assert enabled < ENABLED_BAR_PCT, (
        f"tracing-on runs are {enabled:.2f}% slower than tracing-off "
        f"(bar {ENABLED_BAR_PCT:g}%; {spread(payload)})"
    )


def render(payload):
    """The human-readable report for the full bench."""
    table = Table(
        ["mode", "median CPU (ms)", "overhead", "bar"],
        title=(
            f"Observability overhead (windowed backend, "
            f"{payload['windows']} windows x {payload['pairs']} pairs, "
            f"{payload['seconds_per_window'] * 1e6:.0f} us/window)"
        ),
    )
    table.add_row(
        "tracing off (modeled guard)",
        f"{payload['median_cpu_off_s'] * 1e3:.2f}",
        f"{payload['disabled_overhead_pct']:.4f}%",
        f"< {payload['disabled_bar_pct']:g}%",
    )
    table.add_row(
        "tracing on (measured)",
        f"{payload['median_cpu_on_s'] * 1e3:.2f}",
        f"{payload['enabled_overhead_pct']:.2f}%",
        f"< {payload['enabled_bar_pct']:g}%",
    )
    lines = [str(table), ""]
    lines.append(spread(payload))
    lines.append(
        f"guard cost: {payload['guard_cost_ns']:.0f} ns per window "
        f"(one module read + `is None`); five span events per window "
        f"when a tracer is active"
    )
    return "\n".join(lines)


def write_json(payload):
    RESULTS_DIR.mkdir(exist_ok=True)
    path = RESULTS_DIR / "BENCH_obs.json"
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return path


# -- pytest entry points (benchmarks/ is run explicitly, not by tier-1) ------

def test_obs_overhead(report):
    payload = measure()
    enforce(payload)
    report("obs_overhead", render(payload))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--check", action="store_true",
        help="assert the <1%% disabled / <5%% enabled gates (CI mode)",
    )
    parser.add_argument(
        "--json", action="store_true", dest="as_json",
        help="also write benchmarks/results/BENCH_obs.json",
    )
    parser.add_argument(
        "--iterations", type=int, default=DEFAULT_ITERATIONS,
        help=f"MATRIX platform iterations (default {DEFAULT_ITERATIONS})",
    )
    parser.add_argument(
        "--pairs", type=int, default=DEFAULT_PAIRS,
        help=f"off/on run pairs to median over (at least {MIN_PAIRS}, "
        f"default {DEFAULT_PAIRS})",
    )
    args = parser.parse_args(argv)
    payload = measure(iterations=args.iterations, pairs=args.pairs)
    enforce(payload)
    if args.as_json:
        print(f"wrote {write_json(payload)}")
    if args.check:
        print(
            f"obs overhead ok: disabled "
            f"{payload['disabled_overhead_pct']:.4f}% "
            f"(bar {DISABLED_BAR_PCT:g}%), enabled "
            f"{payload['enabled_overhead_pct']:.2f}% "
            f"(bar {ENABLED_BAR_PCT:g}%); {spread(payload)}"
        )
        return 0
    print(render(payload))
    return 0


if __name__ == "__main__":
    sys.exit(main())
