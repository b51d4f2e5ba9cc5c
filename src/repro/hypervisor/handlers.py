"""The three virtualization entry points profiled by the paper.

The paper's profiling of golden runs identified three candidate injection
points in Jailhouse's ARMv7 port: the hardware interrupt request function
(``irqchip_handle_irq()``), the trap exception handler
(``arch_handle_trap()``), and the hypervisor call handler
(``arch_handle_hvc()``). This module implements those handlers against the
hypervisor model and exposes *entry hooks*: callables invoked with the saved
guest context at the top of each handler, which is exactly where the paper's
~dozen-line patch injects its bit flips.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, TYPE_CHECKING

from repro.hw.cpu import CpuCore, CpuState
from repro.hw.gic import SPURIOUS_IRQ
from repro.hw.registers import (
    CPSR_MODE_MASK,
    GUEST_RETURNABLE_MODES,
    Register,
    TrapContext,
)
from repro.hypervisor.hypercalls import HypercallRequest, HypercallResult, ReturnCode
from repro.hypervisor.traps import (
    ExceptionClass,
    UNHANDLED_TRAP_ERROR,
    decode_exception_class,
    describe_trap,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.hypervisor.core import Hypervisor

#: Names of the hookable handlers, as used by injection targets.
HANDLER_IRQCHIP = "irqchip_handle_irq"
HANDLER_TRAP = "arch_handle_trap"
HANDLER_HVC = "arch_handle_hvc"
ALL_HANDLERS = (HANDLER_IRQCHIP, HANDLER_TRAP, HANDLER_HVC)

#: PSCI function identifiers (SMC calling convention) used for CPU hotplug.
PSCI_CPU_ON = 0x8400_0003
PSCI_CPU_OFF = 0x8400_0002

EntryHook = Callable[[str, CpuCore, TrapContext], None]


class TrapResult(enum.Enum):
    """How a handler disposed of a trap."""

    HANDLED = "handled"
    UNHANDLED_PARKED = "unhandled_parked"
    PANIC = "panic"
    CPU_ONLINE_FAILED = "cpu_online_failed"


# Enum members read on every trap return, bound once: on CPython 3.11 the
# enum metaclass's ``__getattr__`` makes each member lookup cost ~40 ns.
_HANDLED = TrapResult.HANDLED
_WAIT_FOR_POWERON = CpuState.WAIT_FOR_POWERON
_CPSR = Register.CPSR


@dataclass
class HandlerStats:
    """Per-handler call and disposition counters."""

    calls: int = 0
    handled: int = 0
    parked: int = 0
    panics: int = 0


class ArchHandlers:
    """Hookable implementation of the three ARMv7 entry points."""

    def __init__(self, hypervisor: "Hypervisor") -> None:
        self._hv = hypervisor
        self._hooks: Dict[str, List[EntryHook]] = {name: [] for name in ALL_HANDLERS}
        self.stats: Dict[str, HandlerStats] = {
            name: HandlerStats() for name in ALL_HANDLERS
        }

    # -- hook management (the paper's "dozen lines of code added to Jailhouse") ----

    def add_entry_hook(self, handler_name: str, hook: EntryHook) -> None:
        """Install ``hook`` at the entry of ``handler_name``."""
        if handler_name not in self._hooks:
            raise KeyError(f"unknown handler {handler_name!r}")
        self._hooks[handler_name].append(hook)

    def remove_entry_hook(self, handler_name: str, hook: EntryHook) -> None:
        self._hooks[handler_name].remove(hook)

    def clear_hooks(self) -> None:
        for hooks in self._hooks.values():
            hooks.clear()

    def call_count(self, handler_name: str) -> int:
        return self.stats[handler_name].calls

    # -- snapshot / restore ----------------------------------------------------

    def snapshot_state(self) -> dict:
        """Capture per-handler counters and installed hooks."""
        return {
            "stats": {
                name: (s.calls, s.handled, s.parked, s.panics)
                for name, s in self.stats.items()
            },
            "hooks": {name: list(hooks) for name, hooks in self._hooks.items()},
        }

    def restore_state(self, state: dict) -> None:
        """Restore a prior :meth:`snapshot_state` in place."""
        for name, (calls, handled, parked, panics) in state["stats"].items():
            stats = self.stats[name]
            stats.calls, stats.handled = calls, handled
            stats.parked, stats.panics = parked, panics
        self._hooks = {name: list(hooks) for name, hooks in state["hooks"].items()}

    def _enter(self, handler_name: str, cpu: CpuCore, context: TrapContext) -> None:
        self.stats[handler_name].calls += 1
        for hook in self._hooks[handler_name]:
            hook(handler_name, cpu, context)

    # -- arch_handle_hvc -------------------------------------------------------------

    def arch_handle_hvc(self, cpu: CpuCore, context: TrapContext) -> TrapResult:
        """Hypervisor-call handler: dispatch the hypercall held in r0..r2."""
        self._enter(HANDLER_HVC, cpu, context)
        cell = self._hv.cell_of_cpu(cpu.cpu_id)
        request = HypercallRequest(
            code=context.read(Register.R0),
            arg1=context.read(Register.R1),
            arg2=context.read(Register.R2),
            cpu_id=cpu.cpu_id,
            cell_id=cell.cell_id if cell is not None else None,
        )
        result = self._hv.handle_hypercall(cell, request)
        context.write(Register.R0, result.code & 0xFFFF_FFFF)
        if cell is not None:
            cell.stats.hypercalls += 1
        return self._return_to_guest(HANDLER_HVC, cpu, context)

    # -- arch_handle_trap --------------------------------------------------------------

    def arch_handle_trap(self, cpu: CpuCore, context: TrapContext,
                         fault_address: Optional[int] = None) -> TrapResult:
        """General trap handler: dispatch on the HSR exception class."""
        self._enter(HANDLER_TRAP, cpu, context)
        cell = self._hv.cell_of_cpu(cpu.cpu_id)
        if cell is not None:
            cell.stats.traps += 1
        exception = decode_exception_class(context.hsr)

        if exception is ExceptionClass.HVC32:
            # The HVC path shares the register-save area with the trap path.
            return self.arch_handle_hvc(cpu, context)

        if exception is ExceptionClass.WFI_WFE:
            # Emulated wait-for-interrupt: nothing to do besides returning.
            return self._return_to_guest(HANDLER_TRAP, cpu, context)

        if exception in (ExceptionClass.CP15_TRAP, ExceptionClass.CP14_TRAP):
            # System-register access emulation (reads return 0).
            context.write(Register.R0, 0)
            return self._return_to_guest(HANDLER_TRAP, cpu, context)

        if exception is ExceptionClass.SMC32:
            return self._handle_smc(cpu, context)

        if exception is ExceptionClass.DATA_ABORT_LOWER:
            return self._handle_data_abort(cpu, context, fault_address)

        if exception is ExceptionClass.PREFETCH_ABORT_LOWER:
            return self._handle_prefetch_abort(cpu, context, fault_address)

        # Anything else is an unhandled trap: dump the context and park the CPU.
        self.stats[HANDLER_TRAP].parked += 1
        self._hv.report_unhandled_trap(cpu, context, error_code=UNHANDLED_TRAP_ERROR)
        return TrapResult.UNHANDLED_PARKED

    def _handle_smc(self, cpu: CpuCore, context: TrapContext) -> TrapResult:
        """PSCI secure-monitor calls: CPU hotplug used during cell start."""
        function = context.read(Register.R0)
        if function == PSCI_CPU_ON:
            entry_point = context.read(Register.R2)
            ok = self._hv.psci_cpu_on(cpu, entry_point, context)
            if not ok:
                self.stats[HANDLER_TRAP].handled += 1
                return TrapResult.CPU_ONLINE_FAILED
            return self._return_to_guest(HANDLER_TRAP, cpu, context)
        if function == PSCI_CPU_OFF:
            self._hv.psci_cpu_off(cpu)
            self.stats[HANDLER_TRAP].handled += 1
            return TrapResult.HANDLED
        # Unknown SMC: report not-supported to the caller, keep running.
        context.write(Register.R0, (-1) & 0xFFFF_FFFF)
        return self._return_to_guest(HANDLER_TRAP, cpu, context)

    def _handle_data_abort(self, cpu: CpuCore, context: TrapContext,
                           fault_address: Optional[int]) -> TrapResult:
        """Stage-2 data abort: MMIO emulation or the 0x24 unhandled-trap park."""
        cell = self._hv.cell_of_cpu(cpu.cpu_id)
        address = fault_address if fault_address is not None else context.read(Register.R1)
        if cell is not None:
            mapping = cell.memory_map.find(address, 4)
            if mapping is not None:
                # The access targets a mapped window: emulate it and move on.
                cell.stats.mmio_accesses += 1
                return self._return_to_guest(HANDLER_TRAP, cpu, context)
        # No mapping claims the address: this is the unhandled trap the paper
        # reports as error code 0x24, which parks the faulting CPU only.
        self.stats[HANDLER_TRAP].parked += 1
        self._hv.report_unhandled_trap(
            cpu, context, error_code=UNHANDLED_TRAP_ERROR, fault_address=address
        )
        return TrapResult.UNHANDLED_PARKED

    def _handle_prefetch_abort(self, cpu: CpuCore, context: TrapContext,
                               fault_address: Optional[int]) -> TrapResult:
        """Stage-2 instruction abort: the guest's PC left its executable mappings.

        Jailhouse has no recovery path for a lower-EL instruction fetch fault;
        the hypervisor state on this CPU can no longer be trusted, so the
        failure propagates to the whole system (the paper's "panic park").
        """
        cell = self._hv.cell_of_cpu(cpu.cpu_id)
        address = fault_address if fault_address is not None else context.pc
        if cell is not None and cell.memory_map.is_executable(address):
            # Spurious abort on a mapped page: treat as handled.
            return self._return_to_guest(HANDLER_TRAP, cpu, context)
        reason = (
            f"unhandled prefetch abort at 0x{address:08x} "
            f"({describe_trap(context.hsr)})"
        )
        if (self._hv.contains_guest_faults and cell is not None
                and not cell.is_root):
            # Bao-like containment policy: the offending cell dies, the rest
            # of the system keeps running.
            self.stats[HANDLER_TRAP].parked += 1
            self._hv.fail_cell(cell, reason,
                               error_code=int(ExceptionClass.PREFETCH_ABORT_LOWER))
            return TrapResult.UNHANDLED_PARKED
        self.stats[HANDLER_TRAP].panics += 1
        self._hv.panic(reason, cpu_id=cpu.cpu_id)
        return TrapResult.PANIC

    # -- irqchip_handle_irq ---------------------------------------------------------------

    def irqchip_handle_irq(self, cpu: CpuCore, context: TrapContext) -> TrapResult:
        """Interrupt entry: acknowledge pending IRQs and route them to the owner cell."""
        self._enter(HANDLER_IRQCHIP, cpu, context)
        hypervisor = self._hv
        interface = hypervisor.board.gic.cpu_interfaces[cpu.cpu_id]
        acknowledge = interface.acknowledge
        end_of_interrupt = interface.end_of_interrupt
        route_irq = hypervisor.route_irq
        delivered = 0
        while True:
            irq = acknowledge()
            if irq == SPURIOUS_IRQ:
                break
            route_irq(cpu, irq)
            end_of_interrupt(irq)
            delivered += 1
            if delivered > 64:  # pragma: no cover - runaway guard
                break
        return self._return_to_guest(HANDLER_IRQCHIP, cpu, context)

    # -- common return path -------------------------------------------------------------------

    def _return_to_guest(self, handler_name: str, cpu: CpuCore,
                         context: TrapContext) -> TrapResult:
        """Validate the (possibly corrupted) context and resume the guest.

        An exception return to an illegal or hypervisor-privileged mode leaves
        the HYP banked state inconsistent; Jailhouse treats this as an
        unrecoverable internal error, so the failure escalates to a panic.

        A CPU that is still waiting to be powered on for a cell (the hotplug
        swap) has no guest context to return to, so no exception return — and
        therefore no mode check — happens for it.
        """
        if cpu.state is _WAIT_FOR_POWERON:
            self.stats[handler_name].handled += 1
            return _HANDLED
        # Inlined is_valid_guest_cpsr(context.cpsr): this runs once per trap.
        cpsr = context.registers[_CPSR]
        if cpsr & CPSR_MODE_MASK not in GUEST_RETURNABLE_MODES:
            reason = f"illegal exception return (cpsr=0x{cpsr:08x})"
            cell = self._hv.cell_of_cpu(cpu.cpu_id)
            if (self._hv.contains_guest_faults and cell is not None
                    and not cell.is_root):
                self.stats[handler_name].parked += 1
                self._hv.fail_cell(cell, reason,
                                   error_code=int(ExceptionClass.DATA_ABORT_HYP))
                return TrapResult.UNHANDLED_PARKED
            self.stats[handler_name].panics += 1
            self._hv.panic(reason, cpu_id=cpu.cpu_id)
            return TrapResult.PANIC
        self.stats[handler_name].handled += 1
        cpu.exit_trap(context)
        return _HANDLED
