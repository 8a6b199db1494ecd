"""Event hooks see every event the counters count.

Event-logging sniffers attach hooks to components; the cache and
memory-controller hit fast paths must still emit one event for every
hit, miss, eviction and writeback, every memory access and every
interconnect transaction they count.  Raw hooks are used so no
``max_events`` cap drops anything.
"""

import random
from collections import Counter

import pytest

from repro.emulation.engine import EventDrivenEngine
from repro.mpsoc import build_platform
from repro.mpsoc import events as ev
from repro.mpsoc.asm import assemble
from repro.scenario.presets import PRESETS
from tests.conftest import small_config
from tests.mpsoc.test_isa_fuzz import fuzz_source
from tests.mpsoc.test_step_differential import PLATFORMS

CACHE_KINDS = (ev.CACHE_HIT, ev.CACHE_MISS, ev.CACHE_EVICT, ev.CACHE_WRITEBACK)
#: Counter increments per emitted event: a NoC transfer emits one
#: packet event and counts its request and response packets.
PER_EVENT = {ev.BUS_TXN: 1, ev.NOC_PACKET: 2}


def preset_platform(name, **params):
    scenario = PRESETS.get(name)()
    scenario.workload.params.update(params)
    return scenario.build().platform


def fuzz_platform():
    """Two cores on 2-way write-back caches: evictions and writebacks."""
    platform = build_platform(small_config(2, **PLATFORMS["bus-2way-write-back"]))
    platform.load_program_all([
        assemble(fuzz_source(random.Random(f"hooks-{core}"), 200, control_flow=True))
        for core in range(2)
    ])
    return platform


MAKE_PLATFORM = {
    "matrix": lambda: preset_platform("matrix_quickstart", n=4, iterations=2),
    "dithering_noc": lambda: preset_platform(
        "dithering_noc", width=8, height=8, num_images=1
    ),
    "fuzz_write_back": fuzz_platform,
}


@pytest.mark.parametrize("name", sorted(MAKE_PLATFORM))
def test_hook_events_match_counter_deltas(name):
    platform = MAKE_PLATFORM[name]()
    caches = platform.icaches + platform.dcaches
    memories = [*platform.private_mems, platform.shared_mem]
    inter = platform.interconnect
    watched = [*caches, *memories, inter]
    events = Counter()  # (source, kind) -> events
    words = Counter()  # (source, kind) -> sum of the nwords payloads

    def hook(event):
        events[event.source, event.kind] += 1
        if event.kind in (ev.MEM_READ, ev.MEM_WRITE):
            words[event.source, event.kind] += event.info[0]

    for component in watched:
        component.attach_hook(hook)
    before = {c.name: c.counters.snapshot() for c in watched}
    EventDrivenEngine(platform).run_to_completion()

    def delta(component, kind):
        return component.counters.get(kind) - before[component.name].get(kind, 0)

    for cache in caches:
        for kind in CACHE_KINDS:
            assert events[cache.name, kind] == delta(cache, kind), (cache.name, kind)
    for memory in memories:
        for kind in (ev.MEM_READ, ev.MEM_WRITE):
            assert words[memory.name, kind] == delta(memory, kind), (memory.name, kind)
    for kind, per_event in PER_EVENT.items():
        assert per_event * events[inter.name, kind] == delta(inter, kind), kind

    # The run exercised the paths under test.
    totals = Counter()
    for (_source, kind), count in events.items():
        totals[kind] += count
    assert totals[ev.CACHE_HIT] > 0 and totals[ev.CACHE_MISS] > 0
    assert totals[ev.MEM_READ] > 0 and totals[ev.MEM_WRITE] > 0
    assert totals[ev.BUS_TXN] + totals[ev.NOC_PACKET] > 0
    if name == "fuzz_write_back":  # small caches: the miss paths run too
        assert totals[ev.CACHE_EVICT] > 0 and totals[ev.CACHE_WRITEBACK] > 0
