"""One cold benchmark process: import, build, run one workload, check.

``run.py`` starts this script once per sample, in a fresh interpreter,
and reads back the JSON it writes to ``--out``.  Timestamps that the
parent compares with its own spawn time are ``time.monotonic()``
readings, which share one system-wide clock between processes.
CPU times are ``time.process_time()`` readings: this process's user
plus system seconds since it started.

With ``--trace 1`` the layer wrappers from :mod:`spans` are installed
before the workload runs.  With ``--latency 1`` the host latency of
every serial ``step_window`` call is recorded instead.  A plain process
installs only a one-shot marker that notes when the first window starts
and then removes itself.
"""

import argparse
import json
import resource
import sys
import time


def _mark_first_window(stamps, classes):
    """Note when the first window starts, then restore the methods.

    Both window entry points are watched: serial loops call
    ``step_window`` and batched co-stepping calls ``_window_power``."""
    originals = [
        (cls, name, vars(cls)[name])
        for cls in classes
        for name in ("step_window", "_window_power")
        if name in vars(cls)
    ]

    def make(method):
        def first_window(*args, **kwargs):
            if "first_window" not in stamps:
                stamps["first_window"] = time.monotonic()
                stamps["first_window_cpu"] = time.process_time()
            for owner, name, original in originals:
                setattr(owner, name, original)
            return method(*args, **kwargs)
        return first_window

    for cls, name, method in originals:
        setattr(cls, name, make(method))


def _record_latency(latencies, classes):
    """Append the host seconds of every ``step_window`` call."""
    clock = time.perf_counter

    def make(step_window):
        def timed_step_window(self):
            start = clock()
            try:
                return step_window(self)
            finally:
                latencies.append(clock() - start)
        return timed_step_window

    for cls in classes:
        cls.step_window = make(cls.step_window)


class Context:
    """What a workload gets besides its inputs."""

    def __init__(self, store_dir, stamps, latencies):
        self.store_dir = store_dir
        self._stamps = stamps
        self._latencies = latencies

    def stop_clock(self):
        """The program's work is done; what follows is checking."""
        self._stamps["work_end"] = time.monotonic()
        self._stamps["work_end_perf"] = time.perf_counter()
        self._stamps["work_end_cpu"] = time.process_time()
        self._stamps["timed_windows"] = len(self._latencies)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--inputs", required=True, help="inputs JSON file")
    parser.add_argument("--out", required=True, help="result JSON file")
    parser.add_argument("--store-dir", required=True)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--latency", type=int, default=0)
    parser.add_argument("--spans", help="write the traced spans here")
    args = parser.parse_args(argv)

    import_start = time.perf_counter()
    import repro.__main__  # noqa: F401  (what `python -m repro` imports)
    import repro.scenario.presets  # noqa: F401
    from repro.core.framework import EmulationFramework
    from repro.trace.replay import ReplaySource
    import_end = time.perf_counter()

    import cases

    stamps = {}
    tracer = None
    if args.trace:
        import spans

        tracer = spans.install(spans.Tracer())
        tracer.add("startup.import", import_start, import_end)
    latencies = []
    if args.latency:
        _record_latency(latencies, (EmulationFramework, ReplaySource))
    _mark_first_window(stamps, (EmulationFramework, ReplaySource))

    with open(args.inputs) as handle:
        inputs = json.load(handle)
    outcome = cases.RUNS[args.workload](
        inputs, Context(args.store_dir, stamps, latencies)
    )

    result = {
        "first_window": stamps.get("first_window"),
        "work_end": stamps.get("work_end"),
        "setup_cpu_s": stamps.get("first_window_cpu"),
        "cpu_s": stamps.get("work_end_cpu", time.process_time()),
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "scenarios": outcome.scenarios,
        "failed_scenarios": outcome.failed_scenarios,
        "windows": outcome.windows,
        "replayed": outcome.replayed,
        "emulated_cycles": outcome.emulated_cycles,
        "instructions": outcome.instructions,
        "dfs_transitions": outcome.dfs_transitions,
        "trace_hash": cases.combined_hash(outcome.digests),
        "checks": outcome.checks,
        "latencies_s": latencies[:stamps.get("timed_windows")],
    }
    if tracer is not None:
        result["checks"] += [
            ("spans.entry_point", False, f"no {name}: its layer is untraced")
            for name in sorted(tracer.missing)
        ]
        result["layers"] = tracer.layer_table(stamps.get("work_end_perf"))
        result["counts"] = tracer.counts
        if args.spans:
            tracer.write_jsonl(args.spans)
    with open(args.out, "w") as handle:
        json.dump(result, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main())
