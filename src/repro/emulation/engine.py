"""Event-driven MPSoC execution engine (the FPGA's stand-in).

Cores are interleaved in global virtual-time order: the engine always
steps the core with the smallest local clock, so accesses to shared
resources (bus, NoC links, shared-memory port) are issued in causal
order and the busy-until bookkeeping inside those models yields correct
contention.  This is conservative discrete-event simulation with zero
lookahead — the fast vehicle that lets the framework skip idle cycles,
which is exactly why FPGA emulation (and this engine) beats a
signal-level simulator that must evaluate every component every cycle.
"""

from heapq import heapify, heappop, heappush


class EventDrivenEngine:
    """Runs all cores of a :class:`repro.mpsoc.platform.Platform`."""

    def __init__(self, platform):
        self.platform = platform
        self.instructions_executed = 0

    def run_window(self, until_cycle, max_instructions=None, idle_to_boundary=True):
        """Run every core up to ``until_cycle`` (local virtual time).

        Halted cores idle to the window boundary so their idle cycles are
        accounted (the sniffers report active/stalled/idle splits).
        Returns the number of instructions executed in this window.
        """
        heap = [
            # Tie-break same-cycle cores by platform index: a stable,
            # process-independent order (id() varies per process and
            # would make contention outcomes and trace digests
            # irreproducible).
            (core.cycle, index, core)
            for index, core in enumerate(self.platform.cores)
            if not core.halted and core.cycle < until_cycle
        ]
        heapify(heap)
        executed = 0
        # A non-positive budget still runs one instruction.
        budget = None if max_instructions is None else max(1, max_instructions)
        while heap:
            _cycle, index, core = heappop(heap)
            # Run this core while it remains the globally earliest one
            # (up to and including the next core's clock — ties go to the
            # lower index, which pops first): accesses it issues cannot
            # be overtaken by any other core.  Only the running core's
            # state changes, so heap entries never go stale.
            horizon = heap[0][0] if heap else until_cycle
            ran = core.run(budget, until_cycle, horizon)
            executed += ran
            if budget is not None:
                budget -= ran
                if budget <= 0:
                    break
            if not core.halted and core.cycle < until_cycle:
                heappush(heap, (core.cycle, index, core))
        if idle_to_boundary:
            self._idle_stragglers(until_cycle)
        self.instructions_executed += executed
        return executed

    def _idle_stragglers(self, until_cycle):
        for core in self.platform.cores:
            if core.halted and core.cycle < until_cycle:
                core.idle_until(until_cycle)

    def run_to_completion(self, max_cycles=10**12, max_instructions=None):
        """Run until every core halts; returns (instructions, end_cycle).

        ``max_cycles`` bounds runaway programs; the end cycle is the
        largest local clock among the cores (the platform finish time).
        """
        executed = self.run_window(
            max_cycles, max_instructions, idle_to_boundary=False
        )
        if any(not core.halted for core in self.platform.cores):
            raise RuntimeError(
                "engine budget exhausted before all cores halted "
                f"(executed {executed} instructions)"
            )
        end_cycle = max(core.cycle for core in self.platform.cores)
        # Align the early finishers: they idle until the platform is done.
        self._idle_stragglers(end_cycle)
        return executed, end_cycle

    @property
    def all_halted(self):
        return all(core.halted for core in self.platform.cores)
