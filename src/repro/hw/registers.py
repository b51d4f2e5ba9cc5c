"""ARMv7-A architectural register model.

The fault model used by the paper is a single (or multiple) bit flip on a
random *architectural register* captured in the trap context at the entry of a
hypervisor handler. This module models exactly that state: the sixteen core
registers (r0–r12, sp, lr, pc), the CPSR, and the HYP-mode syndrome/return
registers that the hypervisor reads (HSR, ELR_HYP, SPSR_HYP).

The register file is deliberately simple — a mapping from register name to a
32-bit unsigned value — but the *classification* of registers
(:class:`RegisterClass`) matters: the fault-propagation rules implemented by
the hypervisor and guest models depend on which class of register was
corrupted, mirroring how a real Cortex-A7 reacts (a corrupted PC faults at the
next fetch, a corrupted GPR usually stays benign, and so on).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, List, Optional, Tuple

from repro.errors import InvalidRegisterError

WORD_MASK = 0xFFFF_FFFF
WORD_BITS = 32


class Register(str, enum.Enum):
    """Names of the modeled ARMv7 registers."""

    R0 = "r0"
    R1 = "r1"
    R2 = "r2"
    R3 = "r3"
    R4 = "r4"
    R5 = "r5"
    R6 = "r6"
    R7 = "r7"
    R8 = "r8"
    R9 = "r9"
    R10 = "r10"
    R11 = "r11"
    R12 = "r12"
    SP = "sp"
    LR = "lr"
    PC = "pc"
    CPSR = "cpsr"
    # HYP-mode registers visible to the hypervisor trap handlers.
    HSR = "hsr"
    ELR_HYP = "elr_hyp"
    SPSR_HYP = "spsr_hyp"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


class RegisterClass(enum.Enum):
    """Classes of registers with distinct fault-propagation behaviour."""

    GENERAL_PURPOSE = "gpr"
    STACK_POINTER = "sp"
    LINK_REGISTER = "lr"
    PROGRAM_COUNTER = "pc"
    STATUS = "status"
    SYNDROME = "syndrome"
    HYP_RETURN = "hyp_return"


#: Registers belonging to the guest-visible "architecture register" set used
#: by the paper's fault model (random register selection draws from these).
ARCHITECTURAL_REGISTERS: Tuple[Register, ...] = (
    Register.R0,
    Register.R1,
    Register.R2,
    Register.R3,
    Register.R4,
    Register.R5,
    Register.R6,
    Register.R7,
    Register.R8,
    Register.R9,
    Register.R10,
    Register.R11,
    Register.R12,
    Register.SP,
    Register.LR,
    Register.PC,
    Register.CPSR,
)

_ARCH_REGISTER_SET = frozenset(ARCHITECTURAL_REGISTERS)

_REGISTER_CLASSES: Dict[Register, RegisterClass] = {
    Register.SP: RegisterClass.STACK_POINTER,
    Register.LR: RegisterClass.LINK_REGISTER,
    Register.PC: RegisterClass.PROGRAM_COUNTER,
    Register.CPSR: RegisterClass.STATUS,
    Register.HSR: RegisterClass.SYNDROME,
    Register.ELR_HYP: RegisterClass.HYP_RETURN,
    Register.SPSR_HYP: RegisterClass.HYP_RETURN,
}
for _reg in ARCHITECTURAL_REGISTERS:
    _REGISTER_CLASSES.setdefault(_reg, RegisterClass.GENERAL_PURPOSE)


def register_class(register: Register) -> RegisterClass:
    """Return the :class:`RegisterClass` of ``register``."""
    return _REGISTER_CLASSES[register]


def registers_in_class(cls: RegisterClass) -> Tuple[Register, ...]:
    """Return every modeled register belonging to class ``cls``."""
    return tuple(reg for reg, c in _REGISTER_CLASSES.items() if c is cls)


def flip_bit(value: int, bit: int) -> int:
    """Return ``value`` with bit ``bit`` flipped (32-bit wrap)."""
    if not 0 <= bit < WORD_BITS:
        raise ValueError(f"bit index must be in [0, {WORD_BITS}), got {bit}")
    return (value ^ (1 << bit)) & WORD_MASK


# --- CPSR field helpers -----------------------------------------------------

CPSR_MODE_MASK = 0x1F
CPSR_THUMB_BIT = 5
CPSR_FIQ_DISABLE_BIT = 6
CPSR_IRQ_DISABLE_BIT = 7

#: Valid ARMv7 processor-mode encodings of the CPSR M[4:0] field.
VALID_CPSR_MODES: Dict[int, str] = {
    0b10000: "USR",
    0b10001: "FIQ",
    0b10010: "IRQ",
    0b10011: "SVC",
    0b10110: "MON",
    0b10111: "ABT",
    0b11010: "HYP",
    0b11011: "UND",
    0b11111: "SYS",
}

#: Modes a *guest* is allowed to return to. Returning to HYP or MON from a
#: guest context is an illegal exception return for the hypervisor.
GUEST_RETURNABLE_MODES = frozenset(
    mode for mode, name in VALID_CPSR_MODES.items() if name not in ("HYP", "MON")
)


def cpsr_mode(cpsr: int) -> int:
    """Extract the mode field M[4:0] from a CPSR value."""
    return cpsr & CPSR_MODE_MASK


def cpsr_mode_name(cpsr: int) -> Optional[str]:
    """Human-readable mode name, or ``None`` if the encoding is invalid."""
    return VALID_CPSR_MODES.get(cpsr_mode(cpsr))


def is_valid_guest_cpsr(cpsr: int) -> bool:
    """Whether an exception return to ``cpsr`` is legal for a guest context."""
    return cpsr_mode(cpsr) in GUEST_RETURNABLE_MODES


def make_cpsr(mode: int, *, thumb: bool = False, irq_masked: bool = False,
              fiq_masked: bool = False) -> int:
    """Build a CPSR value from its fields."""
    if mode not in VALID_CPSR_MODES:
        raise ValueError(f"invalid CPSR mode encoding 0b{mode:05b}")
    value = mode
    if thumb:
        value |= 1 << CPSR_THUMB_BIT
    if fiq_masked:
        value |= 1 << CPSR_FIQ_DISABLE_BIT
    if irq_masked:
        value |= 1 << CPSR_IRQ_DISABLE_BIT
    return value


class RegisterFile:
    """A mutable mapping of :class:`Register` to 32-bit values."""

    def __init__(self, initial: Optional[Dict[Register, int]] = None) -> None:
        self._values: Dict[Register, int] = {reg: 0 for reg in Register}
        self._values[Register.CPSR] = make_cpsr(0b10011)  # boot in SVC mode
        if initial:
            for reg, value in initial.items():
                self.write(reg, value)

    def read(self, register: Register) -> int:
        """Read a register value."""
        try:
            return self._values[register]
        except KeyError as exc:  # pragma: no cover - defensive
            raise InvalidRegisterError(f"unknown register {register!r}") from exc

    def write(self, register: Register, value: int) -> None:
        """Write a 32-bit value to a register (masked to 32 bits)."""
        if register not in self._values:
            raise InvalidRegisterError(f"unknown register {register!r}")
        if not isinstance(value, int):
            raise InvalidRegisterError(
                f"register value must be an int, got {type(value).__name__}"
            )
        self._values[register] = value & WORD_MASK

    def flip(self, register: Register, bit: int) -> int:
        """Flip one bit of ``register`` in place and return the new value."""
        new_value = flip_bit(self.read(register), bit)
        self.write(register, new_value)
        return new_value

    def snapshot(self) -> Dict[Register, int]:
        """Return a copy of all register values."""
        return dict(self._values)

    def load(self, values: Dict[Register, int]) -> None:
        """Bulk-write register values."""
        for reg, value in values.items():
            self.write(reg, value)

    def load_context(self, values: Dict[Register, int]) -> None:
        """Trusted bulk load used by the trap-exit hot path.

        ``values`` must map :class:`Register` keys to already-masked 32-bit
        ints (a :class:`TrapContext` register dict qualifies: every write into
        a context is masked). Skips the per-register validation of
        :meth:`load`, which dominates the simulation step cost otherwise.
        """
        self._values.update(values)

    def load_masked(self, values: Dict[Register, int]) -> None:
        """Trusted bulk write with 32-bit masking.

        Like :meth:`load_context` but masks each value; callers must pass
        :class:`Register` keys (the guest models placing workload state do).
        """
        target = self._values
        for reg, value in values.items():
            target[reg] = value & WORD_MASK

    def reset(self) -> None:
        """Reset all registers to their boot values."""
        for reg in self._values:
            self._values[reg] = 0
        self._values[Register.CPSR] = make_cpsr(0b10011)

    def __iter__(self) -> Iterator[Tuple[Register, int]]:
        return iter(self._values.items())

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RegisterFile):
            return NotImplemented
        return self._values == other._values

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        core = ", ".join(
            f"{reg.value}=0x{val:08x}"
            for reg, val in self._values.items()
            if reg in (Register.PC, Register.SP, Register.LR, Register.CPSR)
        )
        return f"RegisterFile({core})"


@dataclass(slots=True)
class TrapContext:
    """Guest register state captured at hypervisor-entry.

    This is the structure the paper's fault injector corrupts: a copy of the
    guest's architectural registers saved on the HYP stack when the CPU takes
    an exception into the hypervisor, plus the HYP syndrome register describing
    why the trap happened.
    """

    cpu_id: int
    registers: Dict[Register, int] = field(default_factory=dict)
    hsr: int = 0
    exception_vector: str = "hvc"
    timestamp: float = 0.0

    def __post_init__(self) -> None:
        # Hand-built contexts may be partial: fill the missing architectural
        # registers with 0. Trap entry goes through from_snapshot instead.
        if not _ARCH_REGISTER_SET <= self.registers.keys():
            for reg in ARCHITECTURAL_REGISTERS:
                self.registers.setdefault(reg, 0)

    @classmethod
    def from_snapshot(cls, cpu_id: int, registers: Dict[Register, int],
                      hsr: int, exception_vector: str,
                      timestamp: float) -> "TrapContext":
        """A context over a full :meth:`RegisterFile.snapshot` (trap entry).

        Skips ``__post_init__``: a full snapshot already holds every
        architectural register, and this runs on every hypervisor entry.
        """
        context = object.__new__(cls)
        context.cpu_id = cpu_id
        context.registers = registers
        context.hsr = hsr
        context.exception_vector = exception_vector
        context.timestamp = timestamp
        return context

    def read(self, register: Register) -> int:
        if register is Register.HSR:
            return self.hsr
        try:
            return self.registers[register]
        except KeyError as exc:
            raise InvalidRegisterError(f"{register!r} not in trap context") from exc

    def write(self, register: Register, value: int) -> None:
        value &= WORD_MASK
        if register is Register.HSR:
            self.hsr = value
        elif register in self.registers or register in ARCHITECTURAL_REGISTERS:
            self.registers[register] = value
        else:
            raise InvalidRegisterError(f"{register!r} not in trap context")

    def flip(self, register: Register, bit: int) -> int:
        """Flip one bit of ``register`` inside the saved context."""
        new_value = flip_bit(self.read(register), bit)
        self.write(register, new_value)
        return new_value

    def corruptible_registers(self) -> Tuple[Register, ...]:
        """Registers the paper's fault model may target in this context."""
        return ARCHITECTURAL_REGISTERS

    def copy(self) -> "TrapContext":
        return TrapContext(
            cpu_id=self.cpu_id,
            registers=dict(self.registers),
            hsr=self.hsr,
            exception_vector=self.exception_vector,
            timestamp=self.timestamp,
        )

    def diff(self, other: "TrapContext") -> List[Tuple[Register, int, int]]:
        """Return ``(register, self_value, other_value)`` for differing registers."""
        changes: List[Tuple[Register, int, int]] = []
        for reg in ARCHITECTURAL_REGISTERS:
            a, b = self.read(reg), other.read(reg)
            if a != b:
                changes.append((reg, a, b))
        if self.hsr != other.hsr:
            changes.append((Register.HSR, self.hsr, other.hsr))
        return changes

    @property
    def pc(self) -> int:
        return self.read(Register.PC)

    @property
    def sp(self) -> int:
        return self.read(Register.SP)

    @property
    def cpsr(self) -> int:
        return self.read(Register.CPSR)


def format_context(context: TrapContext) -> str:
    """Render a trap context in the style of Jailhouse's register dumps."""
    lines = [f"CPU {context.cpu_id} trap context ({context.exception_vector}):"]
    row: List[str] = []
    for index, reg in enumerate(ARCHITECTURAL_REGISTERS):
        row.append(f"{reg.value:>4}=0x{context.read(reg):08x}")
        if (index + 1) % 4 == 0:
            lines.append("  " + " ".join(row))
            row = []
    if row:
        lines.append("  " + " ".join(row))
    lines.append(f"   hsr=0x{context.hsr:08x}")
    return "\n".join(lines)
