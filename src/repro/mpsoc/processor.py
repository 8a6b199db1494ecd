"""Processing-element models (Section 3.1).

The paper ports a PowerPC405 hard core and a Microblaze soft core onto
the FPGA and keeps the framework open to other cores (ARM, VLIW); only
the instruction-set part of a core is used — its L1 hierarchy is always
replaced by the framework's own caches.

We model a core as a RISC-32 interpreter parameterized by a
:class:`CoreSpec` (per-class CPI, default frequency, power class, FPGA
resource cost).  The interpreter is *timed*: every instruction charges
its CPI and any memory latency reported by the memory controller, and
the core keeps the active/stall/idle accounting the thermal sniffers
need ("HW sniffers measure the time that each processor spends in
active/stalled/idle mode", Section 4.1).
"""

import operator
from dataclasses import dataclass

from repro.mpsoc import isa
from repro.mpsoc.events import CounterBlock, Observable
from repro.mpsoc.isa import (
    CLASS_ALU,
    CLASS_BRANCH,
    CLASS_DIV,
    CLASS_JUMP,
    CLASS_LOAD,
    CLASS_MUL,
    CLASS_STORE,
    CLASS_SYSTEM,
    WORD_MASK,
    sign_extend,
    to_signed,
    to_unsigned,
)

STATE_RUNNING = "running"
STATE_HALTED = "halted"


@dataclass(frozen=True)
class CoreSpec:
    """Static description of a processing-core family."""

    name: str
    description: str
    cpi: dict
    default_hz: float
    power_class: str  # key into the Table 1 power library
    fpga_slices: int  # resource model (V2VP30 has 13696 slices)

    def cycles_for(self, cls):
        return self.cpi[cls]


# CPI tables: simple single-issue in-order models.  The values follow the
# usual pipeline depths: ARM7 is a 3-stage core with slow multiplies and
# 3-cycle taken branches; ARM11/PowerPC405 are deeper but predicted;
# Microblaze is the 3-stage Xilinx soft core (its divider is iterative).
CORE_SPECS = {
    "microblaze": CoreSpec(
        name="microblaze",
        description="Xilinx Microblaze RISC-32 soft core",
        cpi={
            CLASS_ALU: 1,
            CLASS_MUL: 3,
            CLASS_DIV: 32,
            CLASS_LOAD: 1,
            CLASS_STORE: 1,
            CLASS_BRANCH: 2,
            CLASS_JUMP: 2,
            CLASS_SYSTEM: 1,
        },
        default_hz=100e6,
        power_class="arm7",  # closest Table 1 class for a small RISC-32
        fpga_slices=574,  # 4% of the V2VP30's 13696 slices (Section 3.1)
    ),
    "ppc405": CoreSpec(
        name="ppc405",
        description="PowerPC 405 hard core",
        cpi={
            CLASS_ALU: 1,
            CLASS_MUL: 2,
            CLASS_DIV: 35,
            CLASS_LOAD: 1,
            CLASS_STORE: 1,
            CLASS_BRANCH: 2,
            CLASS_JUMP: 2,
            CLASS_SYSTEM: 1,
        },
        default_hz=100e6,
        power_class="arm7",
        fpga_slices=0,  # hard macro: consumes no slices
    ),
    "arm7": CoreSpec(
        name="arm7",
        description="ARM7-class RISC-32 (Table 1 / Figure 4a)",
        cpi={
            CLASS_ALU: 1,
            CLASS_MUL: 4,
            CLASS_DIV: 40,
            CLASS_LOAD: 2,
            CLASS_STORE: 2,
            CLASS_BRANCH: 3,
            CLASS_JUMP: 3,
            CLASS_SYSTEM: 1,
        },
        default_hz=100e6,
        power_class="arm7",
        fpga_slices=900,
    ),
    "arm11": CoreSpec(
        name="arm11",
        description="ARM11-class RISC-32 (Table 1 / Figure 4b)",
        cpi={
            CLASS_ALU: 1,
            CLASS_MUL: 2,
            CLASS_DIV: 20,
            CLASS_LOAD: 1,
            CLASS_STORE: 1,
            CLASS_BRANCH: 2,
            CLASS_JUMP: 2,
            CLASS_SYSTEM: 1,
        },
        default_hz=500e6,
        power_class="arm11",
        fpga_slices=1400,
    ),
    # The TC4SOC-class 32-bit VLIW the related work brings up (Section 2).
    # Our interpreter is single-issue, so the VLIW advantage appears as a
    # uniformly aggressive CPI table rather than multi-issue slots.
    "vliw32": CoreSpec(
        name="vliw32",
        description="TC4SOC-class 32-bit VLIW core",
        cpi={
            CLASS_ALU: 1,
            CLASS_MUL: 1,
            CLASS_DIV: 12,
            CLASS_LOAD: 1,
            CLASS_STORE: 1,
            CLASS_BRANCH: 2,
            CLASS_JUMP: 1,
            CLASS_SYSTEM: 1,
        },
        default_hz=200e6,
        power_class="arm11",
        fpga_slices=2300,
    ),
}


class ExecutionError(Exception):
    """Raised on run-time program faults (bad jump, misaligned access...)."""


# -- semantics ------------------------------------------------------------------
# The one place where register, branch and mul/div semantics live.  Each
# entry is ``fn(a, b)``: ``a`` is rs1's value and ``b`` rs2's value (R
# format) or the decoded immediate (I format); the result is masked to a
# word by the caller.  Register values are always unsigned words.
def _sll(a, b):
    return a << (b & 31)


def _srl(a, b):
    return (a & WORD_MASK) >> (b & 31)


def _sra(a, b):
    return to_signed(a) >> (b & 31)


def _slt(a, b):
    return 1 if to_signed(a) < to_signed(b) else 0


def _slti(a, imm):
    return 1 if to_signed(a) < imm else 0


def _sltu(a, b):
    return 1 if to_unsigned(a) < to_unsigned(b) else 0


def _lui(_a, imm):
    return (imm & 0xFFFF) << 16


def _mul(a, b):
    return to_signed(a) * to_signed(b)


def _div(a, b):
    a, b = to_signed(a), to_signed(b)
    if b == 0:
        return -1
    return int(a / b)  # C-style truncation toward zero


def _rem(a, b):
    a, b = to_signed(a), to_signed(b)
    if b == 0:
        return a
    return a - int(a / b) * b


ALU_SEMANTICS = {
    "add": operator.add,
    "addi": operator.add,
    "sub": operator.sub,
    "and": operator.and_,
    "andi": operator.and_,
    "or": operator.or_,
    "ori": operator.or_,
    "xor": operator.xor,
    "xori": operator.xor,
    "sll": _sll,
    "slli": _sll,
    "srl": _srl,
    "srli": _srl,
    "sra": _sra,
    "srai": _sra,
    "slt": _slt,
    "slti": _slti,
    "sltu": _sltu,
    "lui": _lui,
    "mul": _mul,
    "div": _div,
    "rem": _rem,
}

BRANCH_SEMANTICS = {
    "beq": operator.eq,
    "bne": operator.ne,
    "blt": lambda a, b: to_signed(a) < to_signed(b),
    "bge": lambda a, b: to_signed(a) >= to_signed(b),
    "bltu": lambda a, b: to_unsigned(a) < to_unsigned(b),
    "bgeu": lambda a, b: to_unsigned(a) >= to_unsigned(b),
}


def _sign_extend_byte(value):
    return sign_extend(value, 8) & WORD_MASK


# -- predecoded ops ---------------------------------------------------------------
# ``load_program`` turns every instruction into one op tuple
# ``(fetch_addr, kind, cls, cpi, rd, rs1, rs2, imm, fn)`` so the
# interpreter does one unpack and one short branch on ``kind``:
#
# OP_REG    rd <- fn(rs1, rs2)          (R-format ALU, mul, div, rem)
# OP_IMM    rd <- fn(rs1, imm)          (I-format ALU, lui)
# OP_BRANCH pc <- imm if fn(rs1, rs2)   (imm is the absolute target)
# OP_LOAD   rd <- [rs1 + imm]           (rs2 is the size, fn the extension)
# OP_STORE  [rs1 + imm] <- rd           (rs2 is the size)
# OP_JUMP   rd <- pc + 1; pc <- imm     (j, jal; rd 0 links nothing)
# OP_JUMP_REG rd <- pc + 1; pc <- rs1   (jr, jalr)
# OP_NOP    nothing (nop, and every ALU op that writes r0)
# OP_HALT   the core halts
OP_REG = 0
OP_IMM = 1
OP_BRANCH = 2
OP_LOAD = 3
OP_STORE = 4
OP_JUMP = 5
OP_JUMP_REG = 6
OP_NOP = 7
OP_HALT = 8

_NO_LIMIT = float("inf")


def _predecode(instr, pc, text_base, cpi):
    """The op tuple of ``instr`` at instruction index ``pc``."""
    spec = instr.spec
    cls = spec.cls
    m = instr.mnemonic
    rd, rs1, rs2, imm = instr.rd, instr.rs1, instr.rs2, instr.imm
    fn = None
    if cls in (CLASS_ALU, CLASS_MUL, CLASS_DIV):
        if m == "nop" or rd == 0:
            kind = OP_NOP
        else:
            kind = OP_REG if spec.fmt == isa.FMT_R else OP_IMM
            fn = ALU_SEMANTICS[m]
    elif cls == CLASS_LOAD:
        kind = OP_LOAD
        rs2 = 4 if m == "lw" else 1
        fn = _sign_extend_byte if m == "lb" else None
    elif cls == CLASS_STORE:
        kind = OP_STORE
        rs2 = 4 if m == "sw" else 1
    elif cls == CLASS_BRANCH:
        kind = OP_BRANCH
        fn = BRANCH_SEMANTICS[m]
        imm = pc + 1 + imm
    elif m in ("j", "jal"):
        kind = OP_JUMP
        rd = rd if m == "jal" else 0
    elif m in ("jr", "jalr"):
        kind = OP_JUMP_REG
        rd = rd if m == "jalr" else 0
    else:
        kind = OP_HALT
    return (text_base + 4 * pc, kind, cls, cpi[cls], rd, rs1, rs2, imm, fn)


class Processor(Observable):
    """A timed RISC-32 interpreter bound to one memory controller.

    The core spec's CPI table and the L1 hit latencies are read once, at
    construction and program load; neither changes afterwards.
    """

    def __init__(self, name, spec, memctrl, frequency_hz=None):
        super().__init__()
        self.name = name
        self.spec = spec
        self.memctrl = memctrl
        self.frequency_hz = frequency_hz or spec.default_hz
        self.counters = CounterBlock(name)
        self.regs = [0] * isa.NUM_REGISTERS
        self.pc = 0
        self.cycle = 0  # local virtual time
        self.state = STATE_HALTED
        self.program = None
        self._ops = []  # predecoded program (decode once, execute many)
        # The memory paths, and the part of a fetch / data access charged
        # as active time (the L1 hit latency).
        icache, dcache = memctrl.icache, memctrl.dcache
        self._ports = (
            memctrl.fetch_timing,
            memctrl.load,
            memctrl.store,
            icache.hit_latency if icache is not None else 1,
            dcache.hit_latency if dcache is not None else 1,
        )
        # active/stall/idle accounting (virtual cycles)
        self.active_cycles = 0
        self.stall_cycles = 0
        self.idle_cycles = 0
        self.instructions = 0
        self.class_counts = {cls: 0 for cls in isa.INSTRUCTION_CLASSES}

    # -- program loading ----------------------------------------------------
    def load_program(self, program):
        """Bind an assembled program; text/data must already be in memory
        (the platform loader does that) — the core keeps a predecoded copy
        of the text for interpretation speed."""
        self.program = program
        cpi = self.spec.cpi
        self._ops = [
            _predecode(isa.decode(word), pc, program.text_base, cpi)
            for pc, word in enumerate(program.code)
        ]
        self.pc = program.entry
        self.regs = [0] * isa.NUM_REGISTERS
        self.state = STATE_RUNNING

    def reset_stats(self):
        self.counters.reset()
        self.active_cycles = 0
        self.stall_cycles = 0
        self.idle_cycles = 0
        self.instructions = 0
        self.class_counts = {cls: 0 for cls in isa.INSTRUCTION_CLASSES}

    @property
    def halted(self):
        return self.state == STATE_HALTED

    # -- execution --------------------------------------------------------------
    def step(self):
        """Execute one instruction; returns the virtual cycles it took
        (0 when the core is halted)."""
        start = self.cycle
        self.run(max_instructions=1)
        return self.cycle - start

    def run(self, max_instructions=None, until_cycle=None, horizon=None):
        """Run until halt, the instruction budget, the local clock reaching
        ``until_cycle`` or passing ``horizon`` — the conditions are checked
        before every instruction.  Returns the instructions executed.

        Fetch goes through the I-cache path of the memory controller;
        loads/stores through the D-side.  Cycle split: CPI + cache hit
        latencies count as *active*, anything beyond (miss refills, bus
        waits) as *stall*.  The clock and counters live in locals during
        the burst and are stored back before every load and store (the
        memory side may read them: the core's count sniffer sits in the
        MMIO window) and at the end, even when an instruction faults; a
        faulting instruction leaves the core as it found it.
        """
        if self.state != STATE_RUNNING:
            return 0
        ops = self._ops
        fetch, load, store, fetch_hit, data_hit = self._ports
        regs = self.regs
        class_counts = self.class_counts
        budget = _NO_LIMIT if max_instructions is None else max_instructions
        until = _NO_LIMIT if until_cycle is None else until_cycle
        if horizon is None:
            horizon = _NO_LIMIT
        pc = self.pc
        cycle = self.cycle
        active_total = self.active_cycles
        stall_total = self.stall_cycles
        retired = self.instructions
        executed = 0
        try:
            while executed < budget and cycle < until and cycle <= horizon:
                if not 0 <= pc < len(ops):
                    raise ExecutionError(
                        f"{self.name}: pc {pc} outside text ({len(ops)} instrs)"
                    )
                fetch_addr, kind, cls, cpi, rd, rs1, rs2, imm, fn = ops[pc]
                latency = fetch(fetch_addr, cycle)
                total = latency + cpi
                active = cpi + (latency if latency <= fetch_hit else fetch_hit)
                next_pc = pc + 1
                if kind == OP_REG:
                    regs[rd] = fn(regs[rs1], regs[rs2]) & WORD_MASK
                elif kind == OP_IMM:
                    regs[rd] = fn(regs[rs1], imm) & WORD_MASK
                elif kind == OP_BRANCH:
                    if fn(regs[rs1], regs[rs2]):
                        next_pc = imm
                elif kind == OP_LOAD:
                    addr = (regs[rs1] + imm) & WORD_MASK
                    if rs2 == 4 and addr % 4:
                        raise ExecutionError(
                            f"{self.name}: misaligned lw at 0x{addr:08x}"
                        )
                    self.pc = pc
                    self.cycle = cycle
                    self.active_cycles = active_total
                    self.stall_cycles = stall_total
                    self.instructions = retired + executed
                    value, latency = load(addr, rs2, cycle + latency + 1)
                    if fn is not None:
                        value = fn(value)
                    if rd != 0:
                        regs[rd] = value & WORD_MASK
                    total += latency
                    active += latency if latency <= data_hit else data_hit
                elif kind == OP_STORE:
                    addr = (regs[rs1] + imm) & WORD_MASK
                    if rs2 == 4 and addr % 4:
                        raise ExecutionError(
                            f"{self.name}: misaligned sw at 0x{addr:08x}"
                        )
                    self.pc = pc
                    self.cycle = cycle
                    self.active_cycles = active_total
                    self.stall_cycles = stall_total
                    self.instructions = retired + executed
                    latency = store(addr, rs2, regs[rd], cycle + latency + 1)
                    total += latency
                    active += latency if latency <= data_hit else data_hit
                elif kind == OP_JUMP:
                    if rd != 0:
                        regs[rd] = next_pc
                    next_pc = imm
                elif kind == OP_JUMP_REG:
                    target = regs[rs1]
                    if rd != 0:
                        regs[rd] = next_pc
                    next_pc = target
                elif kind == OP_HALT:
                    self.state = STATE_HALTED
                    budget = 0  # ends the burst after this instruction
                active_total += active
                stall_total += total - active
                cycle += total
                class_counts[cls] += 1
                executed += 1
                pc = next_pc
        finally:
            self.pc = pc
            self.cycle = cycle
            self.active_cycles = active_total
            self.stall_cycles = stall_total
            self.instructions = retired + executed
        return executed

    def retire(self, op):
        """Apply the register and control effect of the non-memory ``op``
        at ``pc`` and advance ``pc`` (the signal-level engine's retire
        step; loads and stores do their functional part at issue)."""
        _addr, kind, _cls, _cpi, rd, rs1, rs2, imm, fn = op
        regs = self.regs
        next_pc = self.pc + 1
        if kind == OP_REG:
            regs[rd] = fn(regs[rs1], regs[rs2]) & WORD_MASK
        elif kind == OP_IMM:
            regs[rd] = fn(regs[rs1], imm) & WORD_MASK
        elif kind == OP_BRANCH:
            if fn(regs[rs1], regs[rs2]):
                next_pc = imm
        elif kind in (OP_JUMP, OP_JUMP_REG):
            target = imm if kind == OP_JUMP else regs[rs1]
            if rd != 0:
                regs[rd] = next_pc
            next_pc = target
        elif kind == OP_HALT:
            self.state = STATE_HALTED
        self.pc = next_pc

    def idle_until(self, cycle):
        """Advance local time in the idle state (halted core, frozen clock)."""
        if cycle > self.cycle:
            self.idle_cycles += cycle - self.cycle
            self.cycle = cycle

    # -- statistics -----------------------------------------------------------
    def stats(self):
        total = self.active_cycles + self.stall_cycles + self.idle_cycles
        busy = self.active_cycles + self.stall_cycles
        return {
            "instructions": self.instructions,
            "cycles": self.cycle,
            "active_cycles": self.active_cycles,
            "stall_cycles": self.stall_cycles,
            "idle_cycles": self.idle_cycles,
            "activity": (self.active_cycles / total) if total else 0.0,
            "class_counts": dict(self.class_counts),
            # CPI over execution cycles only — idle (post-halt / frozen
            # clock) time is not instruction time.
            "cpi": (busy / self.instructions) if self.instructions else 0.0,
        }
