"""The per-window sniffer payload is exact without flat records.

The payload size sets the dispatcher's Ethernet load, hence its clock
freezes and the emulated time, so ``SnifferBank.window_payload_bytes``
must equal the size of the flattened records it stands for in every
window: one header plus one counter entry per numeric leaf of each
enabled component's ``stats()``, and one record per logged event.
"""

import pytest

from repro.core.sniffers import (
    COUNT_RECORD_BYTES_PER_COUNTER,
    COUNT_RECORD_HEADER_BYTES,
    EVENT_RECORD_BYTES,
    REG_ENABLE,
    CountLoggingSniffer,
    EventLoggingSniffer,
    SnifferBank,
)
from repro.core.stats import count_numeric, flatten_numeric
from repro.dse.space import default_points, point_scenario
from repro.mpsoc.memory import Memory, MemoryConfig
from repro.mpsoc.noc import Noc, generate_mesh
from repro.scenario.presets import PRESETS


def flat_payload(bank):
    """The payload as the flattened records measure it."""
    total = 0
    for sniffer in bank.sniffers:
        if isinstance(sniffer, CountLoggingSniffer):
            if sniffer.enabled:
                counters = len(flatten_numeric(sniffer.component.stats()))
                total += (
                    COUNT_RECORD_HEADER_BYTES
                    + COUNT_RECORD_BYTES_PER_COUNTER * counters
                )
        else:
            total += EVENT_RECORD_BYTES * len(sniffer.events)
    return total


def checked_run(framework, max_windows=None):
    """Run ``framework``, comparing the payload with the flat formula at
    the very point of every window where the dispatcher reads it."""
    bank = framework.sniffer_bank
    exact = bank.window_payload_bytes
    seen = []

    def window_payload_bytes():
        payload = exact()
        seen.append((payload, flat_payload(bank)))
        return payload

    bank.window_payload_bytes = window_payload_bytes
    report = framework.run(max_windows=max_windows)
    assert len(seen) == report.windows > 1
    assert all(payload == flat for payload, flat in seen), seen
    return seen


@pytest.mark.parametrize("preset,backend", [
    ("matrix_quickstart", "event_driven"),
    ("dithering_noc", "event_driven"),
    ("dithering_noc", "windowed"),
])
def test_payload_matches_flat_records_every_window(preset, backend):
    scenario = PRESETS.get(preset)()
    scenario.config.emulation_backend = backend
    scenario.config.sampling_period_s = 2e-5  # many short windows
    checked_run(scenario.build())


def test_payload_matches_flat_records_on_a_hetero_dse_point():
    point = next(p for p in default_points() if p.big == 4 and p.little == 5)
    scenario = point_scenario(point, max_windows=6)
    checked_run(scenario.build(), max_windows=scenario.max_windows)


def test_payload_grows_when_a_noc_link_carries_its_first_flit():
    noc = Noc(generate_mesh("noc", 1, 2))
    master = noc.register_master("cpu", "sw0_0")
    mem = Memory(MemoryConfig(name="mem", size=4096, latency=1))
    noc.register_endpoint("mem", "sw0_1")
    sniffer = CountLoggingSniffer("noc.cnt", noc)
    before = sniffer.window_payload_bytes()
    assert not noc.link_flits
    noc.transfer(master, mem, 0x0, False, 4, t=0)
    after = sniffer.window_payload_bytes()
    # Both directions of the one link carried flits for the first time.
    assert len(noc.link_flits) == 2
    assert after == before + 2 * COUNT_RECORD_BYTES_PER_COUNTER
    assert after == COUNT_RECORD_HEADER_BYTES + (
        COUNT_RECORD_BYTES_PER_COUNTER * len(flatten_numeric(noc.stats()))
    )


def test_payload_follows_an_mmio_enable_toggle(platform2):
    bank = SnifferBank.from_platform(platform2)
    target = bank.sniffers[0]
    full = bank.window_payload_bytes()
    record = target.window_payload_bytes()
    assert record > 0
    target.mmio_write(REG_ENABLE, 0)
    assert bank.window_payload_bytes() == full - record == flat_payload(bank)
    target.mmio_write(REG_ENABLE, 1)
    assert bank.window_payload_bytes() == full == flat_payload(bank)


def test_event_sniffers_are_drained_every_window():
    framework = PRESETS.get("matrix_quickstart")().build()
    framework.config.sampling_period_s = 2e-5
    platform = framework.platform
    icache = platform.icaches[0]
    events = framework.sniffer_bank.add(
        EventLoggingSniffer(f"{icache.name}.evt", icache), platform.mmio
    )
    logged = []
    bank_payload = framework.sniffer_bank.window_payload_bytes

    def window_payload_bytes():
        logged.append(len(events.events))
        return bank_payload()

    framework.sniffer_bank.window_payload_bytes = window_payload_bytes
    for _ in range(5):
        framework.step_window()
        assert events.events == []  # drained with the window
    assert len(logged) == 5 and all(count > 0 for count in logged)
    sent = framework.dispatcher.stats()
    assert sent["bytes_sent"] >= EVENT_RECORD_BYTES * sum(logged)


@pytest.mark.parametrize("stats", [
    {},
    {"a": 1, "b": 2.5, "s": "text", "flag": True, "none": None},
    {"nested": {"x": 1, "y": {"z": 2}}, "ints": {0: 1, 1: 2}},
    {"links": {("sw0", "sw1"): 3, ("sw1", "sw0"): 4}},
    # Keys whose dotted names collide: the flat record keeps one entry.
    {"a.b": 1, "a": {"b": 2}},
    {0: 1, "0": 2},
    {"": {"a": 1}, "a": 2},
    {1.5: 1, "x": {"": 2}},
])
def test_count_numeric_equals_flat_length(stats):
    assert count_numeric(stats) == len(flatten_numeric(stats))
