"""repro — a HW/SW FPGA-based thermal emulation framework for MPSoC.

A faithful, executable reproduction of Atienza et al., *"A Fast HW/SW
FPGA-Based Thermal Emulation Framework for Multi-Processor
System-on-Chip"* (DAC 2006): an emulated MPSoC platform (cores, caches,
memories, buses, NoCs) with a transparent statistics-extraction fabric,
a Virtual Platform Clock Manager, an Ethernet statistics link, an RC
thermal model with non-linear silicon conductivity, and the closed
co-emulation loop that lets run-time thermal-management policies (DFS)
act on live temperatures.

Quick start::

    from repro import (MPSoCConfig, CoreConfig, CacheConfig, build_platform,
                       matrix_programs, floorplan_4xarm11,
                       EmulationFramework, DualThresholdDfsPolicy)

    platform = build_platform(MPSoCConfig(
        name="demo",
        cores=[CoreConfig(f"cpu{i}", spec="arm11") for i in range(4)],
        icache=CacheConfig(name="i", size=8192, line_size=16),
        dcache=CacheConfig(name="d", size=8192, line_size=16, assoc=2),
    ))
    platform.load_program_all(matrix_programs(4, n=8))
    framework = EmulationFramework(platform, floorplan_4xarm11(),
                                   policy=DualThresholdDfsPolicy())
    report = framework.run(max_emulated_seconds=1.0)

Or declaratively, as a serializable :class:`Scenario` (saved, swept and
run in bulk through :class:`Runner` — see ``python -m repro``)::

    from repro import PolicySpec, Runner, Scenario, WorkloadSpec

    scenario = Scenario(
        name="demo",
        workload=WorkloadSpec("matrix", {"n": 8}),
        platform=platform_config,          # an MPSoCConfig (or its dict)
        floorplan="4xarm11",
        policy=PolicySpec("dual_threshold"),
    )
    [result] = Runner(workers=1).run([scenario])

See README.md for the paper-to-module map, the scenario quick start and
the reproduced tables and figures.
"""

from repro.core import (
    ActivityProfile,
    DirectWorkload,
    EmulationFlow,
    EmulationFramework,
    FrameworkConfig,
    ProfiledWorkload,
    SnifferBank,
    SynthesisModel,
    ThermalTrace,
    Vpcm,
    profile_platform_run,
)
from repro.mpsoc import (
    BusConfig,
    CacheConfig,
    MemoryConfig,
    MPSoCConfig,
    NocConfig,
    Program,
    assemble,
    build_platform,
    generate_custom,
    generate_mesh,
)
from repro.mpsoc.platform import CoreConfig
from repro.policy import (
    DualThresholdDfsPolicy,
    DvfsLadderPolicy,
    NoManagementPolicy,
    PerCoreDfsPolicy,
    PerDomainPolicy,
    PidFrequencyPolicy,
    PredictiveThrottlePolicy,
    StopGoPolicy,
    ThermalPolicy,
)
from repro.policy.comparison import (
    PolicyComparison,
    PolicyOutcome,
    compare_policies,
)
from repro.power import DEFAULT_LIBRARY, PowerClass, PowerLibrary, PowerModel
from repro.thermal import (
    Floorplan,
    FloorplanComponent,
    RCNetwork,
    SensorBank,
    ThermalProperties,
    ThermalSolver,
    build_grid,
    floorplan_4xarm7,
    floorplan_4xarm11,
)
from repro.scenario import (
    ExperimentSuite,
    PolicySpec,
    Runner,
    Scenario,
    ScenarioResult,
    Variant,
    WorkloadSpec,
    sweep,
)
from repro.trace import (
    ReplaySource,
    TraceArchive,
    TraceStore,
    load_archive,
    record,
    replay,
    scenario_trace_digest,
)
from repro.workloads import (
    dithering_programs,
    golden_dither,
    load_images,
    matrix_programs,
    read_image,
)

__version__ = "1.1.0"

__all__ = [
    "ActivityProfile",
    "BusConfig",
    "CacheConfig",
    "CoreConfig",
    "DEFAULT_LIBRARY",
    "DirectWorkload",
    "DualThresholdDfsPolicy",
    "DvfsLadderPolicy",
    "EmulationFlow",
    "EmulationFramework",
    "ExperimentSuite",
    "Floorplan",
    "FloorplanComponent",
    "FrameworkConfig",
    "MemoryConfig",
    "MPSoCConfig",
    "NoManagementPolicy",
    "NocConfig",
    "PerCoreDfsPolicy",
    "PerDomainPolicy",
    "PidFrequencyPolicy",
    "PolicyComparison",
    "PolicyOutcome",
    "PolicySpec",
    "PredictiveThrottlePolicy",
    "PowerClass",
    "PowerLibrary",
    "PowerModel",
    "ProfiledWorkload",
    "Program",
    "RCNetwork",
    "ReplaySource",
    "Runner",
    "Scenario",
    "ScenarioResult",
    "SensorBank",
    "SnifferBank",
    "StopGoPolicy",
    "SynthesisModel",
    "ThermalPolicy",
    "ThermalProperties",
    "ThermalSolver",
    "ThermalTrace",
    "TraceArchive",
    "TraceStore",
    "Variant",
    "Vpcm",
    "WorkloadSpec",
    "assemble",
    "build_grid",
    "build_platform",
    "compare_policies",
    "dithering_programs",
    "floorplan_4xarm7",
    "floorplan_4xarm11",
    "generate_custom",
    "generate_mesh",
    "golden_dither",
    "load_archive",
    "load_images",
    "matrix_programs",
    "profile_platform_run",
    "read_image",
    "record",
    "replay",
    "scenario_trace_digest",
    "sweep",
    "__version__",
]
