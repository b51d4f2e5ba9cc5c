"""Guest OS protocol and shared fault-propagation behaviour.

A guest model does three things:

1. **Generate traps.** Each simulation quantum it reports the VM exits its
   workload caused (hypercalls, WFI, system-register accesses, MMIO) as
   :class:`GuestEvent` objects. The system-under-test feeds those through the
   hypervisor's hookable entry points.
2. **Produce observable output.** Tasks print to the cell's UART; the paper
   judges availability purely from this output.
3. **React to a (possibly corrupted) resume context.** After a trap returns,
   the guest inspects the architectural state it was resumed with. A PC
   outside the cell's executable mappings faults at the next fetch; a stack
   pointer outside mapped RAM faults at the next stack access (unless the
   scheduler reloads SP first); a corrupted link register only matters if the
   running task returns through it before it is overwritten. These rules are
   what turn the paper's random bit flips into the outcome distribution of
   Figure 3 — they are behavioural properties of the guest, not of the
   injector.
"""

from __future__ import annotations

import abc
import copy
import dataclasses
import enum
from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from repro.hw.board import BananaPiBoard
from repro.hw.memory import AccessType
from repro.hw.registers import Register, TrapContext
from repro.hypervisor.cell import Cell
from repro.hypervisor.traps import TrapCode

#: Probability that a task dereferences its (corrupted) stack pointer before
#: the scheduler reloads SP from the task control block at the next switch.
DEFAULT_STACK_USE_PROBABILITY = 0.35
#: Probability that the running task returns through a corrupted link register
#: before overwriting it with a new call.
DEFAULT_LINK_RETURN_PROBABILITY = 0.10

# Enum members read on every step and trap resume, bound once: on CPython 3.11
# the enum metaclass's ``__getattr__`` makes each member lookup cost ~40 ns.
_PC, _SP, _LR = Register.PC, Register.SP, Register.LR
_WRITE = AccessType.WRITE


class GuestState(enum.Enum):
    """Lifecycle state of a guest model."""

    STOPPED = "stopped"
    RUNNING = "running"
    CRASHED = "crashed"
    PANICKED = "panicked"


@dataclass(slots=True)
class GuestEvent:
    """One VM exit requested by the guest (slotted: built every quantum)."""

    trap: TrapCode
    registers: Dict[Register, int] = field(default_factory=dict)
    fault_address: Optional[int] = None
    description: str = ""


@dataclass
class GuestStats:
    """Counters kept by every guest model."""

    steps: int = 0
    traps_generated: int = 0
    uart_lines: int = 0
    interrupts_received: int = 0
    faults_after_resume: int = 0
    silent_corruptions: int = 0


class GuestOS(abc.ABC):
    """Base class for guest OS models.

    RNG contract: every random draw a guest makes consumes its numpy
    stream (``self.rng``) exactly as :class:`numpy.random.Generator` would.
    Bounded integers come from :meth:`draw_int` and unit floats from
    :meth:`draw_unit`, which return the values ``Generator.integers`` and
    ``Generator.random`` would return and leave the same
    ``bit_generator.state`` behind, so records, snapshots and restores do
    not depend on which of them made a draw.
    """

    def __init__(self, name: str, *, seed: int = 0,
                 stack_use_probability: float = DEFAULT_STACK_USE_PROBABILITY,
                 link_return_probability: float = DEFAULT_LINK_RETURN_PROBABILITY) -> None:
        self.name = name
        self.state = GuestState.STOPPED
        self.stats = GuestStats()
        self.cell: Optional[Cell] = None
        self.board: Optional[BananaPiBoard] = None
        self.rng = np.random.default_rng(seed)
        self.stack_use_probability = stack_use_probability
        self.link_return_probability = link_return_probability
        self.crash_reason: Optional[str] = None
        #: Cached (cell, base, size, code_hi, stack_lo, stack_hi) draw bounds.
        # repro: allow[snapshot-complete] -- self-validating cache keyed on cell identity; recomputed whenever the cell changes
        self._nominal_bounds: Optional[tuple] = None

    # -- lifecycle --------------------------------------------------------------------

    def attach(self, cell: Cell, board: BananaPiBoard) -> None:
        """Bind the guest to its cell and board; called at cell load time."""
        self.cell = cell
        self.board = board
        cell.attach_guest(self)

    def boot(self) -> None:
        """Mark the guest as running and emit its boot banner."""
        if self.cell is None or self.board is None:
            raise RuntimeError(f"guest {self.name!r} must be attached before boot")
        self.state = GuestState.RUNNING
        # Establish sane architectural state on every online vCPU: a real guest
        # sets up its own stack and code pointers long before the first trap.
        for cpu_id in sorted(self.cell.online_cpus):
            self.place_registers(cpu_id, self.nominal_registers(cpu_id))
        self.console(self.boot_banner())

    def boot_banner(self) -> str:
        return f"{self.name} booting"

    @property
    def alive(self) -> bool:
        return self.state is GuestState.RUNNING

    # -- random stream ----------------------------------------------------------------

    @property
    def rng(self) -> np.random.Generator:
        """The guest's numpy stream; every draw the guest makes consumes it."""
        return self._rng

    @rng.setter
    def rng(self, generator: np.random.Generator) -> None:
        # Looking ``bit_generator.ctypes`` up on every draw costs more than
        # the draw itself; bind the C entry points once per generator. They
        # act on the generator's own state, so a restore of
        # ``bit_generator.state`` keeps them valid.
        self._rng = generator
        bitgen = generator.bit_generator.ctypes
        self._draw_handles = (bitgen.next_uint32, bitgen.next_double,
                              bitgen.state)

    def draw_int(self, low: int, high: int) -> int:
        """``int(self.rng.integers(low, high))``, without the numpy call overhead.

        numpy's own algorithm for ranges that fit in 32 bits: Lemire's
        bounded method over the bit generator's ``next_uint32``, which
        shares PCG64's buffered half-word with every other draw. The value
        and the stream state afterwards are those of ``Generator.integers``.
        Requires ``2 <= high - low <= 2**32``; callers check their bounds
        once, not per draw.
        """
        next_uint32, _next_double, state = self._draw_handles
        span = high - low
        product = next_uint32(state) * span
        if (product & 0xFFFFFFFF) < span:
            threshold = 0x100000000 % span
            while (product & 0xFFFFFFFF) < threshold:
                product = next_uint32(state) * span
        return low + (product >> 32)

    def draw_unit(self) -> float:
        """``self.rng.random()``, without the numpy call overhead.

        ``Generator.random`` is the bit generator's ``next_double``; calling
        it directly returns the same value and leaves the same stream state.
        """
        _next_uint32, next_double, state = self._draw_handles
        return next_double(state)

    # -- console ------------------------------------------------------------------------

    def console(self, text: str) -> None:
        """Write one line to the cell's UART, tagged with the cell name."""
        if self.board is None or self.cell is None:
            return
        if not self.cell.config.console.enabled:
            return
        self.board.uart.write_line(self.cell.name, text)
        self.stats.uart_lines += 1
        self.cell.stats.uart_lines += 1

    # -- abstract workload ------------------------------------------------------------------

    @abc.abstractmethod
    def step(self, cpu_id: int, now: float, dt: float) -> List[GuestEvent]:
        """Run one quantum on ``cpu_id`` and return the traps it caused."""

    def on_interrupt(self, irq: int, cpu_id: int) -> None:
        """An interrupt owned by this cell was delivered."""
        self.stats.interrupts_received += 1

    def on_cpu_online(self, cpu_id: int) -> None:
        """A CPU just came online for this guest's cell.

        Models the guest's secondary-CPU startup code, which establishes a
        valid stack and return pointer before interrupts are enabled.
        """
        self.place_registers(cpu_id, self.nominal_registers(cpu_id))

    def on_system_panic(self, reason: str) -> None:
        """The hypervisor panicked underneath this guest."""
        self.state = GuestState.PANICKED

    # -- fault propagation after resume ----------------------------------------------------------

    def resume_from_trap(self, cpu_id: int, context: TrapContext) -> Optional[GuestEvent]:
        """Inspect the resumed state; return a follow-up fault event if it is bad.

        The returned event (if any) is dispatched immediately by the system
        under test, modelling the fact that a corrupted PC faults on the very
        next instruction fetch.
        """
        if self.cell is None:
            return None
        memory_map = self.cell.memory_map
        registers = context.registers

        pc = registers[_PC]
        if not memory_map.is_executable(pc):
            self.stats.faults_after_resume += 1
            return GuestEvent(
                trap=TrapCode.PREFETCH_ABORT,
                registers=dict(registers),
                fault_address=pc,
                description=f"instruction fetch from unmapped 0x{pc:08x}",
            )

        sp = registers[_SP]
        if not memory_map.is_mapped(sp, 4, _WRITE):
            if self.draw_unit() < self.stack_use_probability:
                self.stats.faults_after_resume += 1
                return GuestEvent(
                    trap=TrapCode.DATA_ABORT,
                    registers=dict(context.registers),
                    fault_address=sp,
                    description=f"stack access at unmapped 0x{sp:08x}",
                )
            # The scheduler reloads SP from the task control block before the
            # corrupted value is ever dereferenced.
            self._restore_stack_pointer(cpu_id)

        lr = registers[_LR]
        if not memory_map.is_executable(lr):
            if self.draw_unit() < self.link_return_probability:
                self.stats.faults_after_resume += 1
                return GuestEvent(
                    trap=TrapCode.PREFETCH_ABORT,
                    registers=dict(context.registers),
                    fault_address=lr,
                    description=f"return to unmapped 0x{lr:08x}",
                )

        return None

    def _restore_stack_pointer(self, cpu_id: int) -> None:
        """Reload a sane SP on the vCPU (models the next context switch)."""
        if self.board is None or self.cell is None:
            return
        ram = self.cell.memory_map.ram_mappings()
        if not ram:
            return
        top = ram[0].virt_start + ram[0].size - 0x100
        self.board.cpu(cpu_id).registers.write(Register.SP, top)

    # -- vCPU register housekeeping ---------------------------------------------------------------------

    def place_registers(self, cpu_id: int, values: Dict[Register, int]) -> None:
        """Write workload register values onto the vCPU before trapping.

        Hot path: callers pass :class:`Register`-keyed dicts built by the
        guest models, so the per-register validation of
        :meth:`~repro.hw.registers.RegisterFile.write` is skipped.
        """
        if self.board is None:
            return
        self.board.cpus[cpu_id].registers.load_masked(values)

    def nominal_registers(self, cpu_id: int) -> Dict[Register, int]:
        """Plausible architectural state for this guest while it executes."""
        cell = self.cell
        if cell is None:
            return {}
        # The RAM geometry is static per cell; cache the draw bounds (this
        # runs once per guest per simulation step).
        cached = self._nominal_bounds
        if cached is None or cached[0] is not cell:
            ram = cell.memory_map.ram_mappings()
            if not ram:
                return {}
            first = ram[0]
            size = first.size
            code_hi = max(0x200, size // 4)
            stack_lo, stack_hi = size // 2, size - 0x100
            # draw_int's domain; the code range (0x100 values or a quarter
            # of RAM) is inside it whenever the stack range (half) is.
            if not 2 <= stack_hi - stack_lo <= 1 << 32:
                raise ValueError(
                    f"guest {self.name!r}: RAM size 0x{size:x} gives no "
                    f"register draw range of 2 to 2**32 values"
                )
            cached = self._nominal_bounds = (
                cell, first.virt_start, size, code_hi, stack_lo, stack_hi,
            )
        _, base, size, code_hi, stack_lo, stack_hi = cached
        code_offset = self.draw_int(0x100, code_hi) & ~0x3
        stack_offset = self.draw_int(stack_lo, stack_hi) & ~0x7
        return {
            _PC: base + code_offset,
            _SP: base + stack_offset,
            _LR: base + ((code_offset + 0x40) % size),
        }

    def crash(self, reason: str) -> None:
        """Mark the guest as crashed (stops producing output)."""
        self.state = GuestState.CRASHED
        self.crash_reason = reason

    # -- snapshot / restore ------------------------------------------------------------

    def snapshot_state(self) -> dict:
        """Capture guest lifecycle state, counters, RNG stream and bindings.

        Subclasses extend the returned dict via ``super().snapshot_state()``.
        The RNG is captured as the bit-generator state so a restored guest
        replays exactly the same random draws a cold-booted one would.
        """
        return {
            "state": self.state,
            "stats": dataclasses.replace(self.stats),
            "cell": self.cell,
            "board": self.board,
            "rng": copy.deepcopy(self.rng.bit_generator.state),
            "crash_reason": self.crash_reason,
        }

    def restore_state(self, state: dict) -> None:
        """Restore a prior :meth:`snapshot_state` in place."""
        self.state = state["state"]
        self.stats = dataclasses.replace(state["stats"])
        self.cell = state["cell"]
        self.board = state["board"]
        self.rng.bit_generator.state = copy.deepcopy(state["rng"])
        self.crash_reason = state["crash_reason"]
