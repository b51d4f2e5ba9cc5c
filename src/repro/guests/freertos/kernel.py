"""FreeRTOS-like kernel: fixed-priority preemptive scheduler plus trap model.

The kernel schedules the paper's task set (blink, send/receive, floating
point, integer) with fixed priorities, executes due task bodies each quantum,
and reports the hypervisor traps the cell generates while doing so (WFI on
idle, occasional system-register accesses, MMIO accesses to the ivshmem
window, and rare debug-console hypercalls). Those traps are what the paper's
medium-intensity campaign injects into.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from repro.core.registry import GUESTS
from repro.guests.base import GuestEvent, GuestOS, GuestState
from repro.guests.freertos.queue import MessageQueue
from repro.guests.freertos.task import EffectKind, Task, TaskEffect, TaskState
from repro.hw.registers import Register
from repro.hypervisor.hypercalls import Hypercall
from repro.hypervisor.ivshmem import IvshmemChannel
from repro.hypervisor.traps import TrapCode
from repro.errors import SchedulerError


@dataclass
class KernelConfig:
    """Tuning knobs of the FreeRTOS model.

    The trap probabilities are calibrated so the non-root cell takes roughly
    25 hypervisor traps per second — the order of magnitude that makes the
    paper's "one injection every 100 calls over a one-minute test" produce a
    double-digit number of injections per test.
    """

    tick_period: float = 0.010          # 100 Hz tick, FreeRTOS default
    wfi_probability: float = 0.35       # idle WFI trap per quantum
    cp15_probability: float = 0.05      # system-register access per quantum
    ivshmem_mmio_probability: float = 0.08
    debug_putc_probability: float = 0.02
    status_print_period: float = 1.0    # heartbeat line cadence per task group


@GUESTS.register("freertos")
class FreeRTOSKernel(GuestOS):
    """The non-root cell's RTOS."""

    def __init__(self, name: str = "FreeRTOS", *, seed: int = 0,
                 config: Optional[KernelConfig] = None) -> None:
        super().__init__(name, seed=seed)
        self.config = config or KernelConfig()
        self.tasks: List[Task] = []
        self._priority_order: List[Task] = []
        # repro: allow[snapshot-complete] -- pure memo of dt -> tick count; a hit and a recompute yield identical state
        self._ticks_cache: Optional[tuple] = None
        self.queues: Dict[str, MessageQueue] = {}
        self.ivshmem: Optional[IvshmemChannel] = None
        self.tick_count = 0
        self.idle_ticks = 0
        self.context_switches = 0
        self.float_accumulator = 0.0
        self.int_accumulator = 0
        self._last_status_print = 0.0

    # -- task and queue management -----------------------------------------------------

    def create_task(self, task: Task) -> None:
        """Register a task with the scheduler (unique names required)."""
        if any(existing.name == task.name for existing in self.tasks):
            raise SchedulerError(f"task {task.name!r} already exists")
        self.tasks.append(task)
        # Fixed priorities: precompute the dispatch order (highest priority
        # first, FIFO among equals) instead of re-sorting every quantum.
        self._priority_order = sorted(self.tasks, key=lambda t: -t.priority)

    def create_queue(self, name: str, capacity: int = 16) -> MessageQueue:
        if name in self.queues:
            raise SchedulerError(f"queue {name!r} already exists")
        queue = MessageQueue(name, capacity)
        self.queues[name] = queue
        return queue

    def attach_ivshmem(self, channel: IvshmemChannel) -> None:
        """Give the send/receive tasks an inter-cell channel to talk over."""
        self.ivshmem = channel

    def task_by_name(self, name: str) -> Optional[Task]:
        for task in self.tasks:
            if task.name == name:
                return task
        return None

    def boot_banner(self) -> str:
        return (
            f"FreeRTOS V10 starting on cell \"{self.name}\" "
            f"with {len(self.tasks)} tasks"
        )

    # -- scheduler --------------------------------------------------------------------------

    def _ready_tasks(self, now: float) -> List[Task]:
        """Release the tasks that are due and return every READY task.

        One pass over the dispatch order (highest priority first, FIFO
        among equals): a task's release depends only on its own state, so
        releasing and collecting it in the same pass gives the order a
        separate release scan would. ``Task.release_if_due`` is inlined;
        this runs once per task per quantum.
        """
        ready_state = TaskState.READY
        suspended = TaskState.SUSPENDED
        deleted = TaskState.DELETED
        deadline = now + 1e-12
        ready = []
        for task in self._priority_order:
            state = task.state
            if state is not ready_state:
                if (state is suspended or state is deleted
                        or deadline < task.next_release):
                    continue
                if task.run_count and now - task.next_release >= task.period:
                    task.missed_deadlines += 1
                task.state = ready_state
            ready.append(task)
        return ready

    def step(self, cpu_id: int, now: float, dt: float) -> List[GuestEvent]:
        """Run one scheduling quantum and return the traps it generated."""
        if self.state is not GuestState.RUNNING:
            return []
        self.stats.steps += 1
        ticks_cache = self._ticks_cache
        if ticks_cache is not None and ticks_cache[0] == dt:
            ticks = ticks_cache[1]
        else:
            ticks = max(1, int(round(dt / self.config.tick_period)))
            self._ticks_cache = (dt, ticks)
        self.tick_count += ticks

        events: List[GuestEvent] = []
        ready = self._ready_tasks(now)
        if ready:
            self.context_switches += len(ready)
            # COMPUTE effects (about nine in ten) are applied here, in the
            # order _apply_effect would apply them; the rest go through it.
            compute = EffectKind.COMPUTE
            apply_effect = self._apply_effect
            float_accumulator = self.float_accumulator
            int_accumulator = self.int_accumulator
            for task in ready:
                for effect in task.run(now):
                    if effect.kind is compute:
                        value = effect.value
                        if isinstance(value, float) and not value.is_integer():
                            float_accumulator += value
                        else:
                            int_accumulator += int(value)
                    else:
                        apply_effect(task, effect, now)
            self.float_accumulator = float_accumulator
            self.int_accumulator = int_accumulator
        else:
            self.idle_ticks += ticks

        self._maybe_print_status(now)
        self._generate_traps(cpu_id, now, events, idle=not ready)
        self.stats.traps_generated += len(events)
        return events

    def _apply_effect(self, task: Task, effect: TaskEffect, now: float) -> None:
        # COMPUTE effects are applied inline by step(); queue traffic is the
        # next most frequent, prints and LED toggles are comparatively rare.
        kind = effect.kind
        if kind is EffectKind.QUEUE_SEND:
            queue = self.queues.get(effect.queue_name)
            if queue is not None:
                queue.send(effect.payload, now=now)
        elif kind is EffectKind.QUEUE_RECEIVE:
            queue = self.queues.get(effect.queue_name)
            if queue is not None:
                queue.receive()
        elif kind is EffectKind.IVSHMEM_SEND:
            if self.ivshmem is not None and self.cell is not None:
                payload = effect.payload
                if not isinstance(payload, (bytes, bytearray)):
                    payload = str(payload).encode()
                self.ivshmem.send(self.cell.name, bytes(payload))
        elif kind is EffectKind.PRINT:
            self.console(f"[{task.name}] {effect.text}")
        elif kind is EffectKind.LED_TOGGLE:
            if self.board is not None:
                self.board.led.toggle()

    def _maybe_print_status(self, now: float) -> None:
        if now - self._last_status_print < self.config.status_print_period:
            return
        self._last_status_print = now
        alive = sum(1 for task in self.tasks if task.state is not TaskState.DELETED)
        self.console(
            f"tick={self.tick_count} tasks={alive} "
            f"switches={self.context_switches} idle={self.idle_ticks}"
        )

    # -- trap generation ------------------------------------------------------------------------

    def _generate_traps(self, cpu_id: int, now: float,
                        events: Optional[List[GuestEvent]] = None, *,
                        idle: bool) -> List[GuestEvent]:
        if events is None:
            events = []
        nominal = self.nominal_registers(cpu_id)
        self.place_registers(cpu_id, nominal)

        if idle and self.draw_unit() < self.config.wfi_probability:
            events.append(GuestEvent(trap=TrapCode.WFI, registers=dict(nominal),
                                     description="idle loop WFI"))
        if self.draw_unit() < self.config.cp15_probability:
            events.append(GuestEvent(trap=TrapCode.CP15_ACCESS,
                                     registers=dict(nominal),
                                     description="performance counter read"))
        if self.ivshmem is not None and self.draw_unit() < self.config.ivshmem_mmio_probability:
            doorbell = self._ivshmem_doorbell_address()
            if doorbell is not None:
                events.append(
                    GuestEvent(
                        trap=TrapCode.DATA_ABORT,
                        registers=dict(nominal),
                        fault_address=doorbell,
                        description="ivshmem doorbell write",
                    )
                )
        if self.draw_unit() < self.config.debug_putc_probability:
            registers = dict(nominal)
            registers[Register.R0] = int(Hypercall.DEBUG_CONSOLE_PUTC)
            registers[Register.R1] = ord(".")
            events.append(GuestEvent(trap=TrapCode.HYPERCALL, registers=registers,
                                     description="debug console putc"))
        return events

    def _ivshmem_doorbell_address(self) -> Optional[int]:
        if self.cell is None:
            return None
        mapping = self.cell.memory_map.find_by_name("ivshmem")
        if mapping is None:
            return None
        return mapping.virt_start + 0x10

    # -- interrupts and panic -----------------------------------------------------------------------

    def on_interrupt(self, irq: int, cpu_id: int) -> None:
        super().on_interrupt(irq, cpu_id)
        if self.ivshmem is not None and irq == self.ivshmem.doorbell_irq:
            self._drain_ivshmem(cpu_id)

    def _drain_ivshmem(self, cpu_id: int) -> None:
        assert self.ivshmem is not None and self.cell is not None
        message = self.ivshmem.receive(self.cell.name)
        while message is not None:
            queue = self.queues.get("rx")
            if queue is not None:
                queue.send(message.payload, now=self.board.clock.now if self.board else 0.0)
            message = self.ivshmem.receive(self.cell.name)

    def on_system_panic(self, reason: str) -> None:
        super().on_system_panic(reason)
        # The cell's CPUs are parked; no further output will appear.

    # -- health metrics used by tests and monitors -----------------------------------------------------

    def healthy(self) -> bool:
        """Whether the RTOS is still scheduling tasks."""
        return self.state is GuestState.RUNNING and bool(self.tasks)

    def runs_per_task(self) -> Dict[str, int]:
        return {task.name: task.run_count for task in self.tasks}

    # -- snapshot / restore -----------------------------------------------------------

    def snapshot_state(self) -> dict:
        state = super().snapshot_state()
        state["freertos"] = (
            self.tick_count, self.idle_ticks, self.context_switches,
            self.float_accumulator, self.int_accumulator,
            self._last_status_print, self.ivshmem,
        )
        # The dispatch order is a list of the same Task objects restore
        # mutates in place; copying the list (not the tasks) is enough to
        # bring back the order that was live at capture time even if
        # create_task() ran in between.
        state["priority_order"] = list(self._priority_order)
        state["tasks"] = [task.snapshot_state() for task in self.tasks]
        state["queues"] = {
            name: queue.snapshot_state() for name, queue in self.queues.items()
        }
        return state

    def restore_state(self, state: dict) -> None:
        super().restore_state(state)
        (self.tick_count, self.idle_ticks, self.context_switches,
         self.float_accumulator, self.int_accumulator,
         self._last_status_print, self.ivshmem) = state["freertos"]
        self._priority_order = list(state["priority_order"])
        for task, task_state in zip(self.tasks, state["tasks"]):
            task.restore_state(task_state)
        for name, queue_state in state["queues"].items():
            self.queues[name].restore_state(queue_state)
