"""Differential test: the predecoded interpreter against a reference step.

The oracle below is the straightforward interpreter the predecoded one
replaced, kept verbatim in spirit: a fresh ``Instruction`` per pc,
mnemonic if-chains for the semantics, a cache that recomputes its
geometry and allocates a result per access, and a memory controller that
scans its range list and decodes every data access twice.  Fuzzed
programs (forward branches, jumps, calls, loads and stores to private
and shared memory) run on two identical platforms, one instruction at a
time; after every step the architectural state, the timing accounting
and every component's counters must agree.
"""

import random

import pytest

import heapq

from repro.core.sniffers import REG_SELECT, REG_VALUE, SnifferBank
from repro.core.stats import flatten_numeric
from repro.emulation.engine import EventDrivenEngine
from repro.mpsoc import build_platform, isa
from repro.mpsoc.asm import assemble
from repro.mpsoc.cache import WRITE_BACK, WRITE_THROUGH, Cache, CacheConfig
from repro.mpsoc.isa import (
    CLASS_ALU,
    CLASS_BRANCH,
    CLASS_DIV,
    CLASS_JUMP,
    CLASS_LOAD,
    CLASS_MUL,
    CLASS_STORE,
    CLASS_SYSTEM,
    to_unsigned,
)
from repro.mpsoc.memctrl import AccessFault, MemoryController
from repro.mpsoc.noc import generate_custom
from repro.mpsoc.platform import MMIO_BASE
from repro.mpsoc.processor import ExecutionError
from repro.mpsoc.trace import TraceCore, strided_trace
from tests.conftest import small_config
from tests.mpsoc.test_isa_fuzz import fuzz_source


# -- the reference oracle ----------------------------------------------------
def to_signed(word):
    return isa.sign_extend(word, 32)


class ReferenceCache(Cache):
    """Tag-array access with geometry read through the config each time."""

    def access(self, addr, is_write, cycle=0):
        cfg = self.config
        line = addr // cfg.line_size
        set_index, tag = line % cfg.num_sets, line // cfg.num_sets
        entries = self._sets[set_index]
        self.counters.add("accesses")
        for pos, entry in enumerate(entries):
            if entry[0] == tag:
                entries.append(entries.pop(pos))
                through = False
                if is_write:
                    if cfg.write_policy == WRITE_BACK:
                        entry[1] = True
                    else:
                        through = True
                self.counters.add("cache.hit")
                return {"hit": True, "through_write": through}
        self.counters.add("cache.miss")
        if is_write and cfg.write_policy == WRITE_THROUGH:
            return {"hit": False, "through_write": True}
        writeback = False
        victim_addr = None
        if len(entries) >= cfg.assoc:
            victim_tag, victim_dirty = entries.pop(0)
            self.counters.add("cache.evict")
            victim_addr = (victim_tag * cfg.num_sets + set_index) * cfg.line_size
            if victim_dirty:
                writeback = True
                self.counters.add("cache.writeback")
        entries.append([tag, bool(is_write and cfg.write_policy == WRITE_BACK)])
        return {"hit": False, "fill": True, "writeback": writeback,
                "victim_addr": victim_addr}


class ReferenceMemoryController(MemoryController):
    """Scans the range list on every access and decodes data twice."""

    def read_value(self, addr, size):
        rng = self.decode(addr)
        if rng.is_mmio:
            return rng.target.mmio_read(rng.offset(addr))
        off = rng.offset(addr)
        return rng.target.read_word(off) if size == 4 else rng.target.read_byte(off)

    def write_value(self, addr, size, value):
        rng = self.decode(addr)
        if rng.is_mmio:
            rng.target.mmio_write(rng.offset(addr), value)
        elif size == 4:
            rng.target.write_word(rng.offset(addr), value)
        else:
            rng.target.write_byte(rng.offset(addr), value)

    def _cached(self, cache, rng, addr, is_write, t):
        result = cache.access(addr, is_write, t)
        latency = cache.config.hit_latency
        line_words = cache.config.line_words
        if result.get("writeback"):
            latency += self._backing_latency(
                rng, result["victim_addr"], True, line_words, t + latency
            )
        if result.get("fill"):
            base = addr - addr % cache.config.line_size
            latency += self._backing_latency(rng, base, False, line_words, t + latency)
        if result.get("through_write"):
            latency += self._backing_latency(rng, addr, True, 1, t + latency)
        return latency

    def fetch_timing(self, addr, t):
        rng = self.decode(addr)
        self.counters.add("fetches")
        if rng.cacheable and self.icache is not None:
            return self._cached(self.icache, rng, addr, False, t)
        return self._backing_latency(rng, addr, False, 1, t)

    def load(self, addr, size, t):
        rng = self.decode(addr)
        self.counters.add("loads")
        if rng.is_mmio:
            return rng.target.mmio_read(rng.offset(addr)), 1
        value = self.read_value(addr, size)
        if rng.cacheable and self.dcache is not None:
            return value, self._cached(self.dcache, rng, addr, False, t)
        return value, self._backing_latency(rng, addr, False, 1, t)

    def store(self, addr, size, value, t):
        rng = self.decode(addr)
        self.counters.add("stores")
        if rng.is_mmio:
            rng.target.mmio_write(rng.offset(addr), value)
            return 1
        self.write_value(addr, size, value)
        if rng.cacheable and self.dcache is not None:
            return self._cached(self.dcache, rng, addr, True, t)
        return self._backing_latency(rng, addr, True, 1, t)


def _execute_alu(core, instr):
    regs = core.regs
    m = instr.mnemonic
    a = regs[instr.rs1]
    if instr.spec.fmt == "R":
        b = regs[instr.rs2]
    else:
        b = instr.imm & 0xFFFFFFFF if instr.imm >= 0 else instr.imm
    if m in ("add", "addi"):
        value = a + (b if m == "add" else instr.imm)
    elif m == "sub":
        value = a - b
    elif m in ("and", "andi"):
        value = a & (b if m == "and" else instr.imm)
    elif m in ("or", "ori"):
        value = a | (b if m == "or" else instr.imm)
    elif m in ("xor", "xori"):
        value = a ^ (b if m == "xor" else instr.imm)
    elif m in ("sll", "slli"):
        value = a << ((b if m == "sll" else instr.imm) & 31)
    elif m in ("srl", "srli"):
        value = (a & 0xFFFFFFFF) >> ((b if m == "srl" else instr.imm) & 31)
    elif m in ("sra", "srai"):
        value = to_signed(a) >> ((b if m == "sra" else instr.imm) & 31)
    elif m in ("slt", "slti"):
        rhs = to_signed(b) if m == "slt" else instr.imm
        value = 1 if to_signed(a) < rhs else 0
    elif m == "sltu":
        value = 1 if to_unsigned(a) < to_unsigned(b) else 0
    elif m == "lui":
        value = (instr.imm & 0xFFFF) << 16
    else:
        assert m == "nop", m
        return
    if instr.rd != 0:
        regs[instr.rd] = value & 0xFFFFFFFF


def _execute_muldiv(core, instr):
    a = to_signed(core.regs[instr.rs1])
    b = to_signed(core.regs[instr.rs2])
    m = instr.mnemonic
    if m == "mul":
        value = a * b
    elif m == "div":
        value = -1 if b == 0 else int(a / b)
    else:
        value = a if b == 0 else a - int(a / b) * b
    if instr.rd != 0:
        core.regs[instr.rd] = value & 0xFFFFFFFF


def _branch_taken(core, instr):
    a = core.regs[instr.rs1]
    b = core.regs[instr.rs2]
    m = instr.mnemonic
    if m == "beq":
        return a == b
    if m == "bne":
        return a != b
    if m == "blt":
        return to_signed(a) < to_signed(b)
    if m == "bge":
        return to_signed(a) >= to_signed(b)
    if m == "bltu":
        return to_unsigned(a) < to_unsigned(b)
    assert m == "bgeu", m
    return to_unsigned(a) >= to_unsigned(b)


def reference_step(core):
    """One instruction, interpreted the direct way; returns its cycles."""
    if core.state != "running":
        return 0
    code = core.program.code
    if not 0 <= core.pc < len(code):
        raise ExecutionError(
            f"{core.name}: pc {core.pc} outside text ({len(code)} instrs)"
        )
    memctrl = core.memctrl
    fetch_addr = core.program.text_base + 4 * core.pc
    fetch_latency = memctrl.fetch_timing(fetch_addr, core.cycle)
    instr = isa.decode(code[core.pc])
    cls = instr.cls
    cpi = core.spec.cpi[cls]
    exec_start = core.cycle + fetch_latency
    mem_latency = 0
    m = instr.mnemonic
    regs = core.regs
    next_pc = core.pc + 1
    if cls == CLASS_ALU:
        _execute_alu(core, instr)
    elif cls in (CLASS_MUL, CLASS_DIV):
        _execute_muldiv(core, instr)
    elif cls == CLASS_LOAD:
        addr = to_unsigned(regs[instr.rs1] + instr.imm)
        size = 4 if m == "lw" else 1
        if size == 4 and addr % 4:
            raise ExecutionError(f"{core.name}: misaligned lw at 0x{addr:08x}")
        value, mem_latency = memctrl.load(addr, size, exec_start + 1)
        if m == "lb":
            value = isa.sign_extend(value, 8) & 0xFFFFFFFF
        if instr.rd != 0:
            regs[instr.rd] = value & 0xFFFFFFFF
    elif cls == CLASS_STORE:
        addr = to_unsigned(regs[instr.rs1] + instr.imm)
        size = 4 if m == "sw" else 1
        if size == 4 and addr % 4:
            raise ExecutionError(f"{core.name}: misaligned sw at 0x{addr:08x}")
        mem_latency = memctrl.store(addr, size, regs[instr.rd], exec_start + 1)
    elif cls == CLASS_BRANCH:
        if _branch_taken(core, instr):
            next_pc = core.pc + 1 + instr.imm
    elif cls == CLASS_JUMP:
        if m in ("j", "jal"):
            target = instr.imm
        else:
            target = regs[instr.rs1]
        if m in ("jal", "jalr") and instr.rd != 0:
            regs[instr.rd] = core.pc + 1
        next_pc = target
    else:
        assert cls == CLASS_SYSTEM and m == "halt"
        core.state = "halted"
    ihit = memctrl.icache.config.hit_latency if memctrl.icache is not None else 1
    active = cpi + min(fetch_latency, ihit)
    if cls in (CLASS_LOAD, CLASS_STORE):
        dhit = memctrl.dcache.config.hit_latency if memctrl.dcache is not None else 1
        active += min(mem_latency, dhit)
    total = fetch_latency + cpi + mem_latency
    core.active_cycles += active
    core.stall_cycles += total - active
    core.cycle += total
    core.instructions += 1
    core.class_counts[cls] += 1
    core.pc = next_pc
    return total


# -- the harness -------------------------------------------------------------
def _caches(assoc, policy):
    return {
        f"{name}cache": CacheConfig(
            name=name, size=256, line_size=16, assoc=assoc, write_policy=policy
        )
        for name in ("i", "d")
    }


PLATFORMS = {
    "bus-direct-write-through": dict(interconnect="bus", **_caches(1, WRITE_THROUGH)),
    "bus-2way-write-back": dict(interconnect="bus", **_caches(2, WRITE_BACK)),
    "noc-direct-write-back": dict(
        interconnect="noc", noc=generate_custom("n", 2, ring=False),
        **_caches(1, WRITE_BACK),
    ),
    "noc-4way-write-through": dict(
        interconnect="noc", noc=generate_custom("n", 2, ring=False),
        **_caches(4, WRITE_THROUGH),
    ),
}


def _pair(kind, programs):
    """Two identical platforms; the second runs the reference path."""
    fast = build_platform(small_config(len(programs), **PLATFORMS[kind]))
    oracle = build_platform(small_config(len(programs), **PLATFORMS[kind]))
    for cache in oracle.icaches + oracle.dcaches:
        cache.__class__ = ReferenceCache
    for memctrl in oracle.memctrls:
        memctrl.__class__ = ReferenceMemoryController
    for platform in (fast, oracle):
        platform.load_program_all(programs)
    return fast, oracle


def _state(platform):
    return {
        "cores": [
            (list(getattr(c, "regs", ())), getattr(c, "pc", None), c.cycle,
             c.state, c.active_cycles, c.stall_cycles, c.idle_cycles,
             c.instructions, dict(getattr(c, "class_counts", {})))
            for c in platform.cores
        ],
        "counters": {
            name: dict(component.counters.counts)
            for name, component in platform.components()
        },
        "per_master_wait": dict(platform.interconnect.per_master_wait),
    }


def _next_core(platform):
    running = [
        (core.cycle, index) for index, core in enumerate(platform.cores)
        if not core.halted
    ]
    return min(running)[1] if running else None


def _lockstep(fast, oracle, max_steps=20_000):
    """Step both platforms one instruction at a time (earliest core
    first); returns the number of steps."""
    for steps in range(max_steps):
        index = _next_core(fast)
        assert index == _next_core(oracle)
        if index is None:
            return steps
        got = fast.cores[index].step()
        want = reference_step(oracle.cores[index])
        assert got == want, f"step {steps}: cycles {got} != {want}"
        assert _state(fast) == _state(oracle), f"diverged at step {steps}"
    raise AssertionError("programs did not halt")


@pytest.mark.parametrize("seed", (3, 17))
@pytest.mark.parametrize("kind", sorted(PLATFORMS))
def test_fuzzed_programs_match_reference_step(kind, seed):
    programs = [
        assemble(fuzz_source(random.Random(f"{kind}-{seed}-{core}"), 120,
                             control_flow=True))
        for core in range(2)
    ]
    fast, oracle = _pair(kind, programs)
    steps = _lockstep(fast, oracle)
    assert steps > 240  # both cores ran most of their streams
    assert fast.stats() == oracle.stats()
    for a, b in zip(fast.icaches + fast.dcaches, oracle.icaches + oracle.dcaches):
        assert a._sets == b._sets
    assert fast.shared_mem.data == oracle.shared_mem.data
    for a, b in zip(fast.private_mems, oracle.private_mems):
        assert a.data == b.data
    # The fuzz really exercised the paths the fast one short-cuts.
    counters = _state(fast)["counters"]
    assert counters["cpu0.dcache"].get("cache.miss", 0) > 0
    assert counters["cpu0.icache"].get("cache.evict", 0) > 0
    classes = fast.cores[0].class_counts
    assert all(classes[c] > 0 for c in (CLASS_LOAD, CLASS_STORE, CLASS_BRANCH, CLASS_JUMP))


def test_run_burst_matches_single_steps():
    """One ``run()`` burst leaves the same state as the same number of
    single ``step()`` calls."""
    program = assemble(fuzz_source(random.Random("burst"), 150, control_flow=True))
    burst = build_platform(small_config(1, **PLATFORMS["bus-2way-write-back"]))
    single = build_platform(small_config(1, **PLATFORMS["bus-2way-write-back"]))
    burst.load_program(0, program)
    single.load_program(0, program)
    executed = burst.cores[0].run(max_instructions=100_000)
    for _ in range(executed):
        single.cores[0].step()
    assert single.cores[0].halted
    assert _state(burst) == _state(single)


def test_burst_state_is_visible_to_mmio_reads():
    """A program reading its own core's count sniffer through MMIO in a
    loop sees, inside one ``run()`` burst, the clock and counters of
    each instruction — the same values single steps give it."""
    platforms = []
    for _ in range(2):
        platform = build_platform(small_config(1))
        bank = SnifferBank.from_platform(platform)
        core = platform.cores[0]
        keys = sorted(flatten_numeric(core.stats()))
        window = MMIO_BASE + bank.mmio_offsets[f"{core.name}.cnt"]
        program = assemble(f"""
            main:   li   r1, 0x{window:08x}
                    li   r2, 20
                    li   r6, {keys.index("cycles")}
                    li   r7, {keys.index("instructions")}
            loop:   sw   r6, {REG_SELECT}(r1)
                    lw   r3, {REG_VALUE}(r1)
                    add  r10, r10, r3
                    sw   r7, {REG_SELECT}(r1)
                    lw   r4, {REG_VALUE}(r1)
                    add  r11, r11, r4
                    addi r2, r2, -1
                    bgt  r2, r0, loop
                    halt
        """)
        platform.load_program(0, program)
        platforms.append(platform)
    burst, single = platforms
    burst.cores[0].run(max_instructions=100_000)
    while not single.cores[0].halted:
        single.cores[0].step()
    assert _state(burst) == _state(single)
    regs = burst.cores[0].regs
    assert 0 < regs[4] < burst.cores[0].instructions  # a mid-burst count
    assert 0 < regs[3] < burst.cores[0].cycle


def _idle_stragglers(platform, until_cycle):
    for core in platform.cores:
        if core.halted and core.cycle < until_cycle:
            core.idle_until(until_cycle)


def reference_run_window(platform, until_cycle, max_instructions=None):
    """The engine's scheduling rule, one ``step()`` at a time: pop the
    earliest ``(cycle, index)`` core, run it while its clock is at most
    the next core's and below the boundary, check the budget after each
    instruction; halted cores idle to the boundary."""
    heap = []
    for index, core in enumerate(platform.cores):
        if not core.halted and core.cycle < until_cycle:
            heapq.heappush(heap, (core.cycle, index, core))
    executed = 0
    budget = max_instructions
    while heap:
        _, index, core = heapq.heappop(heap)
        if core.halted or core.cycle >= until_cycle:
            continue
        horizon = min(until_cycle, heap[0][0] if heap else until_cycle)
        while core.cycle <= horizon and not core.halted:
            if core.cycle >= until_cycle:
                break
            core.step()
            executed += 1
            if budget is not None:
                budget -= 1
                if budget <= 0:
                    _idle_stragglers(platform, until_cycle)
                    return executed
        if not core.halted and core.cycle < until_cycle:
            heapq.heappush(heap, (core.cycle, index, core))
    _idle_stragglers(platform, until_cycle)
    return executed


@pytest.mark.parametrize("budget", (None, 0, 1, 37))
def test_engine_bursts_keep_the_reference_schedule(budget):
    """Window by window, the engine's per-core bursts leave the same
    state as the reference scheduler, with a trace-driven core in one
    slot and an instruction budget or none."""
    programs = [
        assemble(fuzz_source(random.Random(f"schedule-{core}"), 150,
                             control_flow=True))
        for core in range(3)
    ]
    platforms = []
    for _ in range(2):
        platform = build_platform(small_config(3, **PLATFORMS["bus-2way-write-back"]))
        platform.load_program_all(programs)
        platform.cores[1] = TraceCore(
            "t1", platform.memctrls[1], strided_trace(0x1000_0000, 60, gap=3)
        )
        platforms.append(platform)
    engine = EventDrivenEngine(platforms[0])
    for window in range(1, 40):
        until = 97 * window
        got = engine.run_window(until, max_instructions=budget)
        want = reference_run_window(platforms[1], until, max_instructions=budget)
        assert got == want, f"window {window}"
        assert _state(platforms[0]) == _state(platforms[1]), f"window {window}"
    assert engine.all_halted or budget in (0, 1)


FAULTS = {
    "misaligned lw": (
        "main: li r1, 8194\n      lw r2, 0(r1)\n      halt",
        ExecutionError, "cpu0: misaligned lw at 0x00002002", 1,
    ),
    "misaligned sw": (
        "main: li r1, 8193\n      sw r2, 4(r1)\n      halt",
        ExecutionError, "cpu0: misaligned sw at 0x00002005", 1,
    ),
    "pc out of range": (
        "main: li r1, 4000\n      jr r1\n      halt",
        ExecutionError, "cpu0: pc 4000 outside text (3 instrs)", 4000,
    ),
    "unmapped load": (
        "main: lui r1, 0x3000\n      lw r2, 0(r1)\n      halt",
        AccessFault, "cpu0.memctrl: no range maps address 0x30000000", 1,
    ),
    "unmapped store": (
        "main: lui r1, 0x3000\n      sb r2, 3(r1)\n      halt",
        AccessFault, "cpu0.memctrl: no range maps address 0x30000003", 1,
    ),
}


@pytest.mark.parametrize("fault", sorted(FAULTS))
def test_faults_keep_type_message_and_state(fault):
    source, error, message, fault_pc = FAULTS[fault]
    fast, oracle = _pair("bus-direct-write-through", [assemble(source)])
    raised = []
    for platform, step in ((fast, lambda c: c.step()), (oracle, reference_step)):
        core = platform.cores[0]
        with pytest.raises(error) as info:
            for _ in range(10):
                step(core)
        raised.append((type(info.value), str(info.value)))
    assert raised[0] == raised[1] == (error, message)
    # The faulting instruction left both cores where it found them.
    assert _state(fast) == _state(oracle)
    assert fast.cores[0].pc == fault_pc
