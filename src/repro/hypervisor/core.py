"""The partitioning hypervisor itself.

:class:`Hypervisor` owns the cell registry, dispatches hypercalls, brings
CPUs online for non-root cells (the CPU-hotplug "swap" the paper mentions),
and implements the two failure reactions the paper observes:

* ``cpu_park()`` — the response to an unhandled trap (error code 0x24): the
  faulting CPU is parked, its cell stops producing output, but isolation is
  preserved and the cell can still be destroyed cleanly.
* panic ("panic park") — an unrecoverable internal error: the failure
  propagates to the whole system, all CPUs are parked and the root Linux
  reports a kernel panic on the console.
"""

from __future__ import annotations

import enum
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.errors import CellStateError, ConfigurationError, HypervisorError
from repro.hw.board import BananaPiBoard
from repro.hw.cpu import CpuCore, CpuState
from repro.hw.registers import (
    Register,
    TrapContext,
    format_context,
    is_valid_guest_cpsr,
    make_cpsr,
)
from repro.hypervisor.cell import Cell, CellState, LoadedImage
from repro.hypervisor.config import CellConfig, SystemConfig
from repro.hypervisor.handlers import ArchHandlers, PSCI_CPU_ON, TrapResult
from repro.hypervisor.hypercalls import (
    Hypercall,
    HypercallRequest,
    HypercallResult,
    ReturnCode,
    is_privileged,
)
from repro.hypervisor.ivshmem import IvshmemChannel
from repro.hypervisor.paging import check_host_exclusivity
from repro.hypervisor.traps import TrapCode, encode_hsr

#: Console tag used for hypervisor-generated serial output.
HV_CONSOLE = "hypervisor"

#: Base guest-physical address (inside root RAM) where config blobs are staged.
CONFIG_STAGING_BASE = 0x4100_0000

#: Number of hypervisor entries a CPU takes on the target core during the
#: hotplug "swap" that hands it from the root cell to a starting non-root
#: cell (wait-loop iterations plus maintenance work before the final PSCI
#: reset). Injections filtered to that CPU can corrupt this sequence, which is
#: how the paper's high-intensity non-root experiments leave the cell
#: allocated-but-dead.
BRINGUP_TRAP_STEPS = 150


class HypervisorState(enum.Enum):
    """Lifecycle state of the hypervisor."""

    DISABLED = "disabled"
    ENABLED = "enabled"
    PANICKED = "panicked"


class HypervisorEventKind(enum.Enum):
    """Kinds of events recorded for outcome classification."""

    ENABLED = "enabled"
    DISABLED = "disabled"
    CELL_CREATED = "cell_created"
    CELL_CREATE_FAILED = "cell_create_failed"
    CELL_STARTED = "cell_started"
    CELL_SHUTDOWN = "cell_shutdown"
    CELL_DESTROYED = "cell_destroyed"
    CPU_ONLINE = "cpu_online"
    CPU_ONLINE_FAILED = "cpu_online_failed"
    CPU_PARKED = "cpu_parked"
    CELL_FAILED = "cell_failed"
    PANIC = "panic"
    HYPERCALL_FAILED = "hypercall_failed"


@dataclass(frozen=True)
class HypervisorEvent:
    """One recorded hypervisor event."""

    timestamp: float
    kind: HypervisorEventKind
    cpu_id: Optional[int] = None
    cell_name: Optional[str] = None
    detail: str = ""


@dataclass(frozen=True)
class ManagementCallOutcome:
    """Result of a management operation issued through a real hypercall."""

    trap_result: TrapResult
    code: int

    @property
    def ok(self) -> bool:
        return self.trap_result is TrapResult.HANDLED and self.code >= 0

    @property
    def message(self) -> str:
        return ReturnCode.describe(self.code)


class Hypervisor:
    """Jailhouse-like static partitioning hypervisor."""

    def __init__(self, board: BananaPiBoard, *,
                 contains_guest_faults: bool = False,
                 escalate_parks_to_panic: bool = False) -> None:
        self.board = board
        self.state = HypervisorState.DISABLED
        self.handlers = ArchHandlers(self)
        #: Containment policy knobs used by the hypervisor-comparison ablation:
        #: ``contains_guest_faults`` makes unrecoverable guest faults fail only
        #: the offending cell (a Bao-like policy) instead of panicking the
        #: whole system; ``escalate_parks_to_panic`` removes containment
        #: entirely (the no-partitioning baseline).
        self.contains_guest_faults = contains_guest_faults
        self.escalate_parks_to_panic = escalate_parks_to_panic
        self.cells: Dict[int, Cell] = {}
        self.root_cell: Optional[Cell] = None
        self.events: List[HypervisorEvent] = []
        #: Timestamps parallel to ``events`` (non-decreasing: the simulation
        #: clock never moves backwards), enabling bisected window queries.
        self._event_times: List[float] = []
        self.ivshmem_channels: List[IvshmemChannel] = []
        self.panic_reason: Optional[str] = None
        self._next_cell_id = 0
        self._config_blobs: Dict[int, bytes] = {}
        self._next_config_address = CONFIG_STAGING_BASE
        self._system_config: Optional[SystemConfig] = None

    # -- lifecycle ------------------------------------------------------------------

    def enable(self, system_config: SystemConfig) -> Cell:
        """Enable the hypervisor and create the root cell."""
        if self.state is not HypervisorState.DISABLED:
            raise HypervisorError("hypervisor is already enabled")
        system_config.validate()
        self._system_config = system_config
        root = Cell(self._allocate_cell_id(), system_config.root_cell)
        root.mark_running()
        for cpu_id in root.cpus:
            cpu = self.board.cpu(cpu_id)
            if not cpu.is_executing:
                cpu.power_on(entry_point=self.board.config.dram_base, cell_id=root.cell_id)
            else:
                cpu.assigned_cell = root.cell_id
            root.cpu_online(cpu_id)
        self.cells[root.cell_id] = root
        self.root_cell = root
        self.state = HypervisorState.ENABLED
        self._record(HypervisorEventKind.ENABLED, cell_name=root.name,
                     detail="hypervisor enabled, root cell online")
        self._console(f"Initializing Jailhouse hypervisor on {self.board.config.name}")
        self._console(f"Activating root cell \"{root.name}\"")
        return root

    def disable(self) -> None:
        """Disable the hypervisor (only legal once every non-root cell is gone)."""
        self._require_enabled()
        non_root = [cell for cell in self.cells.values() if not cell.is_root]
        if non_root:
            raise HypervisorError(
                f"cannot disable: {len(non_root)} non-root cell(s) still exist"
            )
        self.state = HypervisorState.DISABLED
        self._record(HypervisorEventKind.DISABLED)

    def _require_enabled(self) -> None:
        if self.state is HypervisorState.DISABLED:
            raise HypervisorError("hypervisor is not enabled")

    # -- cell lookup helpers ------------------------------------------------------------

    def cell_by_id(self, cell_id: int) -> Optional[Cell]:
        return self.cells.get(cell_id)

    def cell_by_name(self, name: str) -> Optional[Cell]:
        for cell in self.cells.values():
            if cell.name == name:
                return cell
        return None

    def cell_of_cpu(self, cpu_id: int) -> Optional[Cell]:
        """Cell currently owning ``cpu_id`` (root included)."""
        for cell in self.cells.values():
            if cpu_id in cell.cpus:
                return cell
        return None

    def non_root_cells(self) -> List[Cell]:
        return [cell for cell in self.cells.values() if not cell.is_root]

    def _allocate_cell_id(self) -> int:
        cell_id = self._next_cell_id
        self._next_cell_id += 1
        return cell_id

    # -- config staging (what the root cell does before CELL_CREATE) -----------------------

    def stage_config(self, config: CellConfig) -> int:
        """Place a serialized cell config in root memory; returns its address."""
        config.validate()
        blob = config.to_bytes()
        address = self._next_config_address
        self._next_config_address += (len(blob) + 0xFFF) & ~0xFFF
        self._config_blobs[address] = blob
        return address

    # -- management API issued through real hypercalls ------------------------------------------

    def issue_hypercall(self, cpu_id: int, code: int, arg1: int = 0,
                        arg2: int = 0) -> ManagementCallOutcome:
        """Issue a hypercall from the guest running on ``cpu_id``.

        The call goes through the real ``arch_handle_hvc`` entry point, so any
        fault-injection hooks installed there see (and may corrupt) it — this
        is how the paper's high-intensity root-cell experiments reach the cell
        management path.
        """
        if self.state is HypervisorState.DISABLED:
            return ManagementCallOutcome(trap_result=TrapResult.PANIC,
                                         code=int(ReturnCode.EIO))
        cpu = self.board.cpu(cpu_id)
        if not cpu.is_executing:
            # The issuing CPU is parked or offline (e.g. after a panic park):
            # the management request cannot even be submitted.
            return ManagementCallOutcome(trap_result=TrapResult.PANIC,
                                         code=int(ReturnCode.EIO))
        cpu.registers.write(Register.R0, code)
        cpu.registers.write(Register.R1, arg1)
        cpu.registers.write(Register.R2, arg2)
        context = cpu.enter_trap(
            "hvc", encode_hsr(TrapCode.HYPERCALL), timestamp=self.board.clock.now
        )
        result = self.handlers.arch_handle_hvc(cpu, context)
        raw = context.read(Register.R0)
        signed = raw - (1 << 32) if raw >= (1 << 31) else raw
        return ManagementCallOutcome(trap_result=result, code=signed)

    # -- hypercall dispatch --------------------------------------------------------------------

    def handle_hypercall(self, cell: Optional[Cell],
                         request: HypercallRequest) -> HypercallResult:
        """Validate and dispatch one hypercall request."""
        if self.state is HypervisorState.DISABLED:
            return HypercallResult(request, int(ReturnCode.EIO),
                                   "hypervisor is disabled")
        call = request.hypercall
        if call is None:
            result = HypercallResult(request, int(ReturnCode.ENOSYS),
                                     f"unknown hypercall {request.code}")
            self._record_failure(request, result)
            return result
        if is_privileged(call) and (cell is None or not cell.is_root):
            result = HypercallResult(request, int(ReturnCode.EPERM),
                                     "privileged hypercall from non-root cell")
            self._record_failure(request, result)
            return result

        dispatch = {
            Hypercall.DISABLE: self._hc_disable,
            Hypercall.CELL_CREATE: self._hc_cell_create,
            Hypercall.CELL_START: self._hc_cell_start,
            Hypercall.CELL_SET_LOADABLE: self._hc_cell_set_loadable,
            Hypercall.CELL_DESTROY: self._hc_cell_destroy,
            Hypercall.HYPERVISOR_GET_INFO: self._hc_get_info,
            Hypercall.CELL_GET_STATE: self._hc_cell_get_state,
            Hypercall.CPU_GET_INFO: self._hc_cpu_get_info,
            Hypercall.DEBUG_CONSOLE_PUTC: self._hc_console_putc,
        }
        result = dispatch[call](cell, request)
        if not result.ok:
            self._record_failure(request, result)
        return result

    def _record_failure(self, request: HypercallRequest,
                        result: HypercallResult) -> None:
        self._record(
            HypervisorEventKind.HYPERCALL_FAILED,
            cpu_id=request.cpu_id,
            detail=f"hypercall {request.code}: {result.message}",
        )

    # individual hypercalls ------------------------------------------------------------

    def _hc_disable(self, cell: Optional[Cell],
                    request: HypercallRequest) -> HypercallResult:
        if self.non_root_cells():
            return HypercallResult(request, int(ReturnCode.EBUSY),
                                   "non-root cells still exist")
        self.state = HypervisorState.DISABLED
        self._record(HypervisorEventKind.DISABLED)
        return HypercallResult(request, int(ReturnCode.SUCCESS))

    def _hc_cell_create(self, cell: Optional[Cell],
                        request: HypercallRequest) -> HypercallResult:
        blob = self._config_blobs.get(request.arg1)
        if blob is None:
            return HypercallResult(request, int(ReturnCode.EINVAL),
                                   f"no configuration at 0x{request.arg1:08x}")
        try:
            config = CellConfig.from_bytes(blob)
        except ConfigurationError as exc:
            return HypercallResult(request, int(ReturnCode.EINVAL), str(exc))
        if self.cell_by_name(config.name) is not None:
            return HypercallResult(request, int(ReturnCode.EEXIST),
                                   f"cell {config.name!r} already exists")
        assert self.root_cell is not None
        if not config.cpus <= self.root_cell.cpus:
            return HypercallResult(
                request, int(ReturnCode.EINVAL),
                f"CPUs {sorted(config.cpus - self.root_cell.cpus)} not owned by root",
            )
        new_cell = Cell(self._allocate_cell_id(), config)
        # Isolation invariant: the new cell's host-physical ranges must not
        # collide with any other non-root cell's unless both sides mark them
        # shared (the root cell legitimately retains shared windows).
        try:
            check_host_exclusivity(
                [c.memory_map for c in self.non_root_cells()] + [new_cell.memory_map]
            )
        except HypervisorError as exc:
            self._next_cell_id -= 1
            return HypercallResult(request, int(ReturnCode.EINVAL), str(exc))
        # CPU hotplug "swap": the root cell offlines the CPUs and hands them over.
        for cpu_id in config.cpus:
            self.root_cell.cpus.discard(cpu_id)
            self.root_cell.cpu_offline(cpu_id)
            cpu = self.board.cpu(cpu_id)
            cpu.power_off()
            cpu.state = CpuState.WAIT_FOR_POWERON
            cpu.assigned_cell = new_cell.cell_id
        self.root_cell.irqs -= config.irqs
        self.cells[new_cell.cell_id] = new_cell
        self._record(HypervisorEventKind.CELL_CREATED, cell_name=config.name,
                     cpu_id=request.cpu_id)
        self._console(f"Created cell \"{config.name}\"")
        return HypercallResult(request, new_cell.cell_id)

    def _hc_cell_start(self, cell: Optional[Cell],
                       request: HypercallRequest) -> HypercallResult:
        target = self.cell_by_id(request.arg1)
        if target is None:
            return HypercallResult(request, int(ReturnCode.ENOENT),
                                   f"no cell with id {request.arg1}")
        if target.is_root:
            return HypercallResult(request, int(ReturnCode.EINVAL),
                                   "cannot start the root cell")
        if target.state.is_running:
            return HypercallResult(request, int(ReturnCode.EBUSY),
                                   f"cell {target.name!r} is already running")
        entry = target.entry_point()
        if entry is None:
            ram = target.memory_map.ram_mappings()
            entry = ram[0].virt_start if ram else 0
        # Jailhouse marks the cell running before the target CPUs have actually
        # reset onto it; the divergence between this state and reality is the
        # "inconsistent state" the paper flags.
        target.mark_running()
        self._record(HypervisorEventKind.CELL_STARTED, cell_name=target.name,
                     cpu_id=request.cpu_id)
        self._console(f"Started cell \"{target.name}\"")
        for cpu_id in sorted(target.cpus):
            self._wake_cpu_for_cell(target, cpu_id, entry)
        return HypercallResult(request, int(ReturnCode.SUCCESS))

    def _hc_cell_set_loadable(self, cell: Optional[Cell],
                              request: HypercallRequest) -> HypercallResult:
        target = self.cell_by_id(request.arg1)
        if target is None:
            return HypercallResult(request, int(ReturnCode.ENOENT),
                                   f"no cell with id {request.arg1}")
        if target.is_root:
            return HypercallResult(request, int(ReturnCode.EINVAL),
                                   "cannot shut down the root cell")
        self._stop_cell_cpus(target)
        target.mark_shut_down()
        self._record(HypervisorEventKind.CELL_SHUTDOWN, cell_name=target.name,
                     cpu_id=request.cpu_id)
        self._console(f"Cell \"{target.name}\" can be loaded")
        return HypercallResult(request, int(ReturnCode.SUCCESS))

    def _hc_cell_destroy(self, cell: Optional[Cell],
                         request: HypercallRequest) -> HypercallResult:
        target = self.cell_by_id(request.arg1)
        if target is None:
            return HypercallResult(request, int(ReturnCode.ENOENT),
                                   f"no cell with id {request.arg1}")
        if target.is_root:
            return HypercallResult(request, int(ReturnCode.EINVAL),
                                   "cannot destroy the root cell")
        self._stop_cell_cpus(target)
        target.mark_shut_down()
        assert self.root_cell is not None
        # Return CPUs and peripherals to the root cell, as observed working in
        # the paper even after a CPU park.
        for cpu_id in target.config.cpus:
            cpu = self.board.cpu(cpu_id)
            cpu.reset()
            cpu.power_on(entry_point=self.board.config.dram_base,
                         cell_id=self.root_cell.cell_id)
            self.root_cell.cpus.add(cpu_id)
            self.root_cell.cpu_online(cpu_id)
            if self.root_cell.guest is not None:
                self.root_cell.guest.on_cpu_online(cpu_id)
        self.root_cell.irqs |= target.config.irqs
        del self.cells[target.cell_id]
        self._record(HypervisorEventKind.CELL_DESTROYED, cell_name=target.name,
                     cpu_id=request.cpu_id)
        self._console(f"Closed cell \"{target.name}\"")
        return HypercallResult(request, int(ReturnCode.SUCCESS))

    def _hc_get_info(self, cell: Optional[Cell],
                     request: HypercallRequest) -> HypercallResult:
        return HypercallResult(request, len(self.cells))

    def _hc_cell_get_state(self, cell: Optional[Cell],
                           request: HypercallRequest) -> HypercallResult:
        target = self.cell_by_id(request.arg1)
        if target is None:
            return HypercallResult(request, int(ReturnCode.ENOENT),
                                   f"no cell with id {request.arg1}")
        states = {
            CellState.RUNNING: 0,
            CellState.RUNNING_LOCKED: 1,
            CellState.SHUT_DOWN: 2,
            CellState.FAILED: 3,
        }
        return HypercallResult(request, states[target.state])

    def _hc_cpu_get_info(self, cell: Optional[Cell],
                         request: HypercallRequest) -> HypercallResult:
        if not 0 <= request.arg1 < self.board.num_cpus:
            return HypercallResult(request, int(ReturnCode.EINVAL),
                                   f"no CPU with id {request.arg1}")
        cpu = self.board.cpu(request.arg1)
        states = {
            CpuState.ONLINE: 0,
            CpuState.WAIT_FOR_POWERON: 1,
            CpuState.OFFLINE: 2,
            CpuState.PARKED: 3,
            CpuState.FAILED: 4,
        }
        return HypercallResult(request, states[cpu.state])

    def _hc_console_putc(self, cell: Optional[Cell],
                         request: HypercallRequest) -> HypercallResult:
        source = cell.name if cell is not None else HV_CONSOLE
        self.board.uart.write_char(source, chr(request.arg1 & 0xFF))
        return HypercallResult(request, int(ReturnCode.SUCCESS))

    # -- CPU bring-up / tear-down --------------------------------------------------------------

    def _wake_cpu_for_cell(self, cell: Cell, cpu_id: int, entry: int) -> bool:
        """Reset a waiting CPU onto ``cell`` through the hotplug-swap path.

        The bring-up executes hypervisor code *on the target CPU*: the core
        spins through a wait loop (modeled as a sequence of hypervisor entries
        sharing one saved context) before the final PSCI ``CPU_ON`` resets it
        onto the cell's entry point. Fault-injection hooks filtered to that CPU
        see every one of these entries, and because the cell entry point and
        PSCI arguments live in the saved context across the whole sequence, a
        corruption anywhere in it can leave the CPU unable to come online —
        the paper's "CPU fails to come online / cell left in a non-executable
        state" finding.
        """
        cpu = self.board.cpu(cpu_id)
        context = TrapContext(
            cpu_id=cpu_id,
            registers={
                Register.R0: PSCI_CPU_ON,
                Register.R1: cpu_id,
                Register.R2: entry,
                Register.CPSR: make_cpsr(0b10011, irq_masked=True),
            },
            hsr=encode_hsr(TrapCode.SMC),
            exception_vector="smc",
            timestamp=self.board.clock.now,
        )
        # Wait-loop iterations of the hotplug swap: each is a hypervisor entry
        # on the target CPU that preserves (and may expose to corruption) the
        # pending PSCI arguments.
        for _ in range(BRINGUP_TRAP_STEPS):
            context.exception_vector = "bringup"
            context.hsr = encode_hsr(TrapCode.WFI)
            self.handlers.arch_handle_trap(cpu, context)
            if self.panicked:
                return False
        # Final step: the PSCI CPU_ON request that resets the core onto the cell.
        context.exception_vector = "smc"
        context.hsr = encode_hsr(TrapCode.SMC)
        result = self.handlers.arch_handle_trap(cpu, context)
        online = result is TrapResult.HANDLED and cpu_id in cell.online_cpus
        if not online and cpu_id not in cell.online_cpus:
            now = self.board.clock.now
            if not any(
                event.kind is HypervisorEventKind.CPU_ONLINE_FAILED
                and event.cpu_id == cpu_id
                for event in self.events_between(now, now)
            ):
                self._record(
                    HypervisorEventKind.CPU_ONLINE_FAILED,
                    cpu_id=cpu_id,
                    cell_name=cell.name,
                    detail="hotplug swap derailed before the PSCI reset",
                )
                self._console(
                    f"CPU {cpu_id} failed to come online for cell \"{cell.name}\""
                )
        return online

    def psci_cpu_on(self, cpu: CpuCore, entry_point: int,
                    context: TrapContext) -> bool:
        """Bring ``cpu`` online for its assigned cell at ``entry_point``."""
        cell = self.cell_of_cpu(cpu.cpu_id)
        if cell is None:
            return False
        valid_entry = cell.memory_map.is_executable(entry_point)
        valid_target = context.read(Register.R1) == cpu.cpu_id
        valid_mode = is_valid_guest_cpsr(context.cpsr)
        if not valid_entry or not valid_mode or not valid_target:
            # The CPU fails to come online; Jailhouse still believes the cell
            # started. The cell is left in a non-executable state.
            self._record(
                HypervisorEventKind.CPU_ONLINE_FAILED,
                cpu_id=cpu.cpu_id,
                cell_name=cell.name,
                detail=(
                    f"entry=0x{entry_point:08x} valid_entry={valid_entry} "
                    f"valid_mode={valid_mode}"
                ),
            )
            self._console(
                f"CPU {cpu.cpu_id} failed to come online for cell \"{cell.name}\""
            )
            cpu.state = CpuState.FAILED
            return False
        cpu.state = CpuState.OFFLINE
        cpu.power_on(entry_point=entry_point, cell_id=cell.cell_id)
        cell.cpu_online(cpu.cpu_id)
        if cell.guest is not None:
            cell.guest.on_cpu_online(cpu.cpu_id)
        self._record(HypervisorEventKind.CPU_ONLINE, cpu_id=cpu.cpu_id,
                     cell_name=cell.name)
        return True

    def psci_cpu_off(self, cpu: CpuCore) -> None:
        cell = self.cell_of_cpu(cpu.cpu_id)
        if cell is not None:
            cell.cpu_offline(cpu.cpu_id)
        cpu.power_off()

    def _stop_cell_cpus(self, cell: Cell) -> None:
        for cpu_id in cell.cpus:
            cpu = self.board.cpu(cpu_id)
            if cpu.state in (CpuState.ONLINE, CpuState.PARKED, CpuState.FAILED):
                cpu.power_off()
            cpu.state = CpuState.WAIT_FOR_POWERON
            cpu.assigned_cell = cell.cell_id
            cell.cpu_offline(cpu_id)

    # -- failure reactions ------------------------------------------------------------------------

    def report_unhandled_trap(self, cpu: CpuCore, context: TrapContext, *,
                              error_code: int,
                              fault_address: Optional[int] = None) -> None:
        """Dump the context and park the faulting CPU (the paper's 0x24 outcome)."""
        detail = f"unhandled trap exception, error 0x{error_code:02x}"
        if fault_address is not None:
            detail += f", fault address 0x{fault_address:08x}"
        self._console(f"CPU {cpu.cpu_id}: {detail}")
        for line in format_context(context).splitlines():
            self._console(line)
        if self.escalate_parks_to_panic:
            # Without partitioning there is nothing to confine the fault to:
            # the shared kernel goes down with it.
            self.panic(detail, cpu_id=cpu.cpu_id)
            return
        self._console(f"Parking CPU {cpu.cpu_id} (cell left in faulted state)")
        self.cpu_park(cpu.cpu_id, detail, error_code=error_code)

    def cpu_park(self, cpu_id: int, reason: str, *,
                 error_code: Optional[int] = None) -> None:
        """Park one CPU; its cell keeps its reported state (per the paper)."""
        cpu = self.board.cpu(cpu_id)
        cpu.park(reason, timestamp=self.board.clock.now, error_code=error_code)
        cell = self.cell_of_cpu(cpu_id)
        if cell is not None:
            cell.cpu_offline(cpu_id)
        self._record(HypervisorEventKind.CPU_PARKED, cpu_id=cpu_id,
                     cell_name=cell.name if cell else None, detail=reason)

    def fail_cell(self, cell: Cell, reason: str, *,
                  error_code: Optional[int] = None) -> None:
        """Contain an unrecoverable guest fault to its cell (Bao-like policy)."""
        self._console(f"Cell \"{cell.name}\" failed: {reason}")
        for cpu_id in sorted(cell.cpus):
            cpu = self.board.cpu(cpu_id)
            if cpu.state is CpuState.ONLINE:
                cpu.park(f"cell failure: {reason}",
                         timestamp=self.board.clock.now, error_code=error_code)
            cell.cpu_offline(cpu_id)
        cell.mark_failed()
        self._record(HypervisorEventKind.CELL_FAILED, cell_name=cell.name,
                     detail=reason)

    def panic(self, reason: str, *, cpu_id: Optional[int] = None) -> None:
        """Unrecoverable hypervisor error: propagate to the whole system."""
        if self.state is HypervisorState.PANICKED:
            return
        self.state = HypervisorState.PANICKED
        self.panic_reason = reason
        self._console(f"JAILHOUSE PANIC on CPU {cpu_id}: {reason}")
        self._record(HypervisorEventKind.PANIC, cpu_id=cpu_id, detail=reason)
        for cpu in self.board.cpus:
            if cpu.state is CpuState.ONLINE:
                cpu.park(f"panic park: {reason}", timestamp=self.board.clock.now)
        for cell in self.cells.values():
            cell.online_cpus.clear()
            if cell.guest is not None:
                cell.guest.on_system_panic(reason)

    @property
    def panicked(self) -> bool:
        return self.state is HypervisorState.PANICKED

    # -- interrupt routing --------------------------------------------------------------------------

    def route_irq(self, cpu: CpuCore, irq: int) -> None:
        """Forward an acknowledged interrupt to the cell that owns it."""
        owner: Optional[Cell]
        if irq < 32:
            # Inlined cell_of_cpu(): a banked IRQ (the timer tick) goes to
            # the cell owning this CPU, once or more per simulation step.
            cpu_id = cpu.cpu_id
            for owner in self.cells.values():
                if cpu_id in owner.cpus:
                    break
            else:
                owner = None
        else:
            owner = next(
                (cell for cell in self.cells.values() if irq in cell.irqs), None
            )
        if owner is None:
            self._console(f"Spurious IRQ {irq} on CPU {cpu.cpu_id}")
            return
        owner.stats.interrupts += 1
        if owner.guest is not None:
            owner.guest.on_interrupt(irq, cpu.cpu_id)

    # -- ivshmem -------------------------------------------------------------------------------------

    def create_ivshmem_channel(self, peer_a: str, peer_b: str, *,
                               doorbell_irq: int = 155) -> IvshmemChannel:
        """Create an inter-cell shared-memory channel between two cells."""
        for name in (peer_a, peer_b):
            if self.cell_by_name(name) is None:
                raise HypervisorError(f"no cell named {name!r}")
        channel = IvshmemChannel(
            f"ivshmem:{peer_a}<->{peer_b}", peer_a, peer_b,
            doorbell_irq=doorbell_irq, gic=self.board.gic,
        )
        self.ivshmem_channels.append(channel)
        return channel

    # -- observability ----------------------------------------------------------------------------------

    def _console(self, text: str) -> None:
        self.board.uart.write_line(HV_CONSOLE, text)

    def _record(self, kind: HypervisorEventKind, *, cpu_id: Optional[int] = None,
                cell_name: Optional[str] = None, detail: str = "") -> None:
        timestamp = self.board.clock.now
        self.events.append(
            HypervisorEvent(
                timestamp=timestamp,
                kind=kind,
                cpu_id=cpu_id,
                cell_name=cell_name,
                detail=detail,
            )
        )
        self._event_times.append(timestamp)

    def events_of_kind(self, kind: HypervisorEventKind) -> List[HypervisorEvent]:
        return [event for event in self.events if event.kind is kind]

    def events_between(self, start: float, end: float) -> List[HypervisorEvent]:
        """Events with ``start <= timestamp <= end`` (bisected, not scanned)."""
        lo = bisect_left(self._event_times, start)
        hi = bisect_right(self._event_times, end, lo)
        return self.events[lo:hi]

    def cell_list(self) -> str:
        """Render the cell table like ``jailhouse cell list``."""
        lines = ["ID    Name                     State           Assigned CPUs"]
        for cell in sorted(self.cells.values(), key=lambda c: c.cell_id):
            lines.append(cell.describe())
        return "\n".join(lines)

    # -- snapshot / restore ---------------------------------------------------------

    def snapshot_state(self) -> dict:
        """Capture the hypervisor: cell registry, event log, channels, staging.

        Cells are captured by reference plus their mutable state, so a restore
        keeps object identity — guests attached to a cell stay attached to the
        *same* cell object. Cells created after the snapshot are dropped.
        """
        return {
            "state": self.state,
            "cells": [(cell_id, cell, cell.snapshot_state())
                      for cell_id, cell in self.cells.items()],
            "root_cell": self.root_cell,
            "events": list(self.events),
            "event_times": list(self._event_times),
            "ivshmem": [(channel, channel.snapshot_state())
                        for channel in self.ivshmem_channels],
            "panic_reason": self.panic_reason,
            "next_cell_id": self._next_cell_id,
            "config_blobs": dict(self._config_blobs),
            "next_config_address": self._next_config_address,
            "system_config": self._system_config,
            "handlers": self.handlers.snapshot_state(),
        }

    def restore_state(self, state: dict) -> None:
        """Restore a prior :meth:`snapshot_state` in place."""
        self.state = state["state"]
        self.cells = {}
        for cell_id, cell, cell_state in state["cells"]:
            cell.restore_state(cell_state)
            self.cells[cell_id] = cell
        self.root_cell = state["root_cell"]
        self.events = list(state["events"])
        self._event_times = list(state["event_times"])
        self.ivshmem_channels = []
        for channel, channel_state in state["ivshmem"]:
            channel.restore_state(channel_state)
            self.ivshmem_channels.append(channel)
        self.panic_reason = state["panic_reason"]
        self._next_cell_id = state["next_cell_id"]
        self._config_blobs = dict(state["config_blobs"])
        self._next_config_address = state["next_config_address"]
        self._system_config = state["system_config"]
        self.handlers.restore_state(state["handlers"])
