"""The repository benchmark: one workload, measured in cold processes.

Run from the root of a checkout::

    python3 perfbench/run.py --workload thermal_dfs --seed 1 --seconds 20 --trace 0

The seed generates the workload's inputs once.  The benchmark then
starts ``perfbench/worker.py`` in a fresh interpreter again and again,
one sample per process, until ``--seconds`` have passed, and reports
the median of each metric over the samples.

End-to-end times are host-normalised CPU seconds.  A sample's CPU
time (user plus system, from the process's start) leaves out the time
it waited for a CPU; the program runs on one thread.  The host is a few
virtual CPUs shared with other machines, and their load still moves
the speed of a CPU second by a third and more within minutes.  So the
parent times a fixed reference kernel just before and just after each
sample, on the same CPU, and scales the sample's CPU seconds by
``REFERENCE_S`` over that kernel's CPU seconds: ``norm_cpu_s`` to the
end of the program's work, ``setup_s`` to the start of the first
window, and the rates per ``norm_cpu_s`` after set-up.  Raw CPU and
wall times are printed beside them and reported as per-layer metrics.

``--trace 0`` prints the end-to-end metrics of untraced processes.
``--trace 1`` alternates traced processes (layer wrappers from
``spans.py``) with untraced ones and prints the per-layer metrics,
the tracing overhead, and the host latency of serial windows measured
in the untraced ones.

Every output check of every sample counts toward ``attempted``; a
failed check or a failed scenario counts toward ``failed``.  The last
line of standard output is the JSON result.
"""

import argparse
import gc
import json
import os
import pathlib
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = pathlib.Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import cases  # noqa: E402
import spans  # noqa: E402

DEFAULT_SEED = 0
WORK_DIR = ".perfbench"
# The contract is an exit within 180 s; a hung sample is killed in time.
RUN_LIMIT_S = 160
# Enough cold processes for a median even when one takes half the run.
MIN_SAMPLES = 3


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def environment():
    """Interpreter, library versions and host, for the run report."""
    import numpy
    import scipy

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "cpu": cpu,
    }


def _reference_kernel(np, diags, splu):
    """Fixed work in the program's mix: interpreter-bound dict traffic,
    then sparse LU solves of a small grid."""
    table, total = {}, 0
    for i in range(250_000):
        key = i & 255
        total += table.get(key, 0) ^ i
        table[key] = total & 0xFFFF
    n = 300
    lu = splu(diags([-1.0, 2.05, -1.0], [-1, 0, 1], shape=(n, n), format="csc"))
    x = np.ones(n)
    for _ in range(1500):
        x = lu.solve(x)
        x /= x.max()
    return total, x


#: About the reference kernel's CPU seconds on an unloaded 2-vCPU Xeon
#: core: normalised seconds are seconds on such a core.
REFERENCE_S = 0.05


def reference_cpu_s(rounds=5):
    """Median CPU seconds of the reference kernel over a few rounds,
    with the collector off so this process's heap does not count."""
    import numpy
    from scipy.sparse import diags
    from scipy.sparse.linalg import splu

    times = []
    gc.disable()
    try:
        for _ in range(rounds):
            start = time.process_time()
            _reference_kernel(numpy, diags, splu)
            times.append(time.process_time() - start)
    finally:
        gc.enable()
    return sorted(times)[rounds // 2]


# -- one cold process ---------------------------------------------------------
def worker_env(src):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(src)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    return env


def warm_up(src):
    """Byte-compile the program and import it once, untimed, so the
    first sample does not pay for compiling or a cold file cache."""
    for command in (
        ["-m", "compileall", "-q", str(src / "repro")],
        ["-c", "import repro.__main__, repro.scenario.presets"],
    ):
        subprocess.run([sys.executable, *command], env=worker_env(src),
                       check=False, stdout=subprocess.DEVNULL)


def run_process(workload, run_dir, index, inputs_path, src, trace, latency,
                timeout, spans_path=None):
    """Start one worker, wait for it, return its sample dict or None."""
    out = run_dir / f"sample{index}.json"
    store = run_dir / f"store{index}"
    command = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", workload, "--inputs", str(inputs_path),
        "--out", str(out), "--store-dir", str(store),
        "--trace", str(int(trace)), "--latency", str(int(latency)),
    ]
    if spans_path is not None:
        command += ["--spans", str(spans_path)]
    spawned = time.monotonic()
    process = subprocess.Popen(command, env=worker_env(src),
                               stdout=subprocess.DEVNULL)
    try:
        code = process.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        process.kill()
        process.wait()
        code = None
    exited = time.monotonic()
    shutil.rmtree(store, ignore_errors=True)
    if code != 0 or not out.is_file():
        print(f"perfbench: sample {index} exited with {code}", file=sys.stderr)
        return None
    sample = json.loads(out.read_text())
    if sample["first_window"] is None:
        print(f"perfbench: sample {index} ran no window", file=sys.stderr)
        return None
    sample["traced"] = bool(trace)
    sample["wall_s"] = (sample["work_end"] or exited) - spawned
    sample["setup_wall_s"] = sample["first_window"] - spawned
    return sample


def collect(workload, seconds, trace, inputs_path, src, run_dir, spans_path):
    """Samples until ``seconds`` have passed and at least
    ``MIN_SAMPLES`` processes ran; a traced run alternates traced and
    untraced processes, starting with a traced one."""
    samples, failures = [], 0
    start = time.monotonic()
    deadline = start + RUN_LIMIT_S
    index = 0
    reference = reference_cpu_s()
    while (index < MIN_SAMPLES or time.monotonic() - start < seconds) \
            and time.monotonic() < deadline:
        traced = bool(trace) and index % 2 == 0
        sample = run_process(
            workload, run_dir, index, inputs_path, src,
            trace=traced, latency=bool(trace) and not traced,
            timeout=deadline - time.monotonic(),
            spans_path=spans_path if traced else None,
        )
        index += 1
        before, reference = reference, reference_cpu_s()
        if sample is None:
            failures += 1
        else:
            sample["reference_cpu_s"] = (before + reference) / 2
            samples.append(sample)
    return samples, failures


# -- metrics ------------------------------------------------------------------
def end_to_end(samples):
    per = {}
    for s in samples:
        scale = REFERENCE_S / s["reference_cpu_s"]
        cpu, setup = s["cpu_s"] * scale, s["setup_cpu_s"] * scale
        for name, value in (
            ("norm_cpu_s", cpu),
            ("setup_s", setup),
            ("windows_per_norm_cpu_s", s["windows"] / (cpu - setup)),
            ("scenarios_per_norm_cpu_s", s["scenarios"] / cpu),
            ("emulated_cycles_per_norm_cpu_s",
             s["emulated_cycles"] / (cpu - setup)),
            ("peak_rss_mb", s["peak_rss_kb"] / 1024.0),
        ):
            per.setdefault(name, []).append(value)
    return {name: statistics.median(v) for name, v in per.items()}


def per_layer(traced, untraced):
    """Medians over traced samples, plus what the untraced ones give."""
    values = {}

    def median(key):
        return statistics.median(key(s) for s in traced)

    for layer in spans.LAYER_NAMES:
        values[f"{layer}_s"] = median(lambda s: s["layers"][layer][0])
        if layer != "startup.import":  # always one call
            values[f"{layer}_calls"] = median(lambda s: s["layers"][layer][1])
    def counts(name):
        return median(lambda s: s["counts"][name])

    network_calls = values["thermal.network_calls"]
    values["thermal.network_builds"] = counts("network_builds")
    values["thermal.network_hit_ratio"] = (
        1.0 - values["thermal.network_builds"] / network_calls
        if network_calls else 0.0
    )
    solves = values["thermal.solve_calls"]
    values["thermal.solve_us"] = (
        values["thermal.solve_s"] / solves * 1e6 if solves else 0.0
    )
    values["thermal.factorizations"] = counts("factorizations")
    gets = counts("store_gets")
    values["trace.store_hit_ratio"] = counts("store_hits") / gets if gets else 0.0
    values["trace.store_bytes"] = counts("store_bytes")
    values["traced_wall_s"] = median(lambda s: s["wall_s"])
    values["unattributed_s"] = median(
        lambda s: s["wall_s"] - sum(v[0] for v in s["layers"].values())
    )
    for name in ("cpu_s", "reference_cpu_s", "wall_s", "setup_wall_s"):
        values[name] = statistics.median(s[name] for s in untraced)
    values["trace_overhead_ratio"] = values["traced_wall_s"] / values["wall_s"]
    latencies = sorted(x for s in untraced for x in s["latencies_s"])
    values["window_samples"] = len(latencies)
    for q in (50, 99):
        values[f"window_p{q}_us"] = (
            latencies[min(len(latencies) - 1, len(latencies) * q // 100)] * 1e6
            if latencies else 0.0
        )
    values["sim.windows"] = median(lambda s: s["windows"])
    values["sim.emulated_cycles"] = median(lambda s: s["emulated_cycles"])
    values["sim.instructions"] = median(lambda s: s["instructions"])
    values["sim.dfs_transitions"] = median(lambda s: s["dfs_transitions"])
    values["sim.replayed"] = median(lambda s: s["replayed"])
    return values


def dominant_layer(values):
    return max(spans.LAYER_NAMES, key=lambda name: values[f"{name}_s"])


# -- main ---------------------------------------------------------------------
def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=cases.WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = pathlib.Path.cwd()
    src = root / "src"
    if not (src / "repro" / "__init__.py").is_file():
        fail(f"no program source at {src / 'repro'}; run from a checkout root")
    sys.path.insert(0, str(src))
    layers = json.loads((HERE / "layers.json").read_text())
    # Metric names and units are declared once, in BENCHMARK.json.
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    units = {
        m["name"]: m["unit"]
        for m in bench["per_layer" if args.trace else "end_to_end"]
    }

    # The reference kernel and every sample run on one CPU, so both see
    # the same host core and its neighbours' load.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    work = root / WORK_DIR
    work.mkdir(exist_ok=True)
    run_dir = pathlib.Path(tempfile.mkdtemp(prefix="run-", dir=work))
    try:
        warm_up(src)
        inputs = cases.INPUTS[args.workload](args.seed)
        inputs_path = run_dir / "inputs.json"
        inputs_path.write_text(json.dumps(inputs))
        spans_path = work / f"spans-{args.workload}.jsonl"
        samples, crashed = collect(
            args.workload, args.seconds, args.trace, inputs_path, src,
            run_dir, spans_path,
        )
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    references = {}
    if args.seed == DEFAULT_SEED:
        references = json.loads((HERE / "references.json").read_text())
    first_hash = samples[0]["trace_hash"] if samples else None
    attempted, failed, failures = crashed, crashed, []
    for sample in samples:
        got = sample["trace_hash"]
        checks = list(sample["checks"])
        # The program is deterministic: every cold process of one run
        # must produce the same traces, bit for bit.
        checks.append(("determinism.trace_hash", got == first_hash,
                       f"{got} vs {first_hash}"))
        if args.workload in references:
            want = references[args.workload]
            checks.append(("reference.trace_hash", got == want,
                           f"{got} vs {want}"))
        attempted += sample["scenarios"] + len(checks)
        failed += sample["failed_scenarios"]
        for name, passed, detail in checks:
            if not passed:
                failed += 1
                failures.append(f"{name}: {detail}")
    attempted = max(attempted, 1)

    untraced = [s for s in samples if not s["traced"]]
    traced = [s for s in samples if s["traced"]]
    env = environment()
    print(f"environment: {json.dumps(env, sort_keys=True)}")
    print(f"workload {args.workload} seed {args.seed}: {len(untraced)} untraced "
          f"and {len(traced)} traced cold processes, {crashed} crashed")
    for index, s in enumerate(samples):
        print(f"  sample {index}: cpu_s {s['cpu_s']:.4f} setup_cpu_s "
              f"{s['setup_cpu_s']:.4f} wall_s {s['wall_s']:.4f} setup_wall_s "
              f"{s['setup_wall_s']:.4f} reference_cpu_s "
              f"{s['reference_cpu_s']:.4f}{' traced' if s['traced'] else ''}")
    print(f"trace_hash {first_hash}")
    for failure in sorted(set(failures)):
        print(f"FAILED {failure}")
    print(f"failed_ratio {failed / attempted:.6f} ({failed}/{attempted})")
    if not untraced or (args.trace and not traced):
        print("perfbench: no usable sample", file=sys.stderr)
        return 1

    if args.trace:
        values = per_layer(traced, untraced)
        dominant = dominant_layer(values)
        predicted = layers["workloads"][args.workload]["predicted_dominant"]
        print(f"wall_s {values['traced_wall_s']:.4f} traced, unattributed_s "
              f"{values['unattributed_s']:.4f}; dominant layer {dominant} "
              f"(predicted {predicted})")
        report = {
            "workload": args.workload, "seed": args.seed,
            "environment": env, "dominant_layer": dominant,
            "predicted_dominant": predicted,
            "moves": layers["workloads"][args.workload]["moves"],
            "metrics": values,
        }
        (work / f"report-{args.workload}.json").write_text(
            json.dumps(report, indent=2)
        )
    else:
        values = end_to_end(untraced)
    for name, unit in units.items():
        print(f"  {name:34s} {values[name]:16.6f} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": values[name], "unit": unit}
            for name, unit in units.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
