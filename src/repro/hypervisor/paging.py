"""Stage-2 address-space model (per-cell memory isolation).

Jailhouse enforces cell isolation with stage-2 translation: each cell can only
reach the guest-physical ranges listed in its configuration, and those map to
host-physical regions owned exclusively by that cell (unless explicitly marked
shared, e.g. the ivshmem window). This module provides the per-cell
:class:`CellMemoryMap` used by the trap handlers to decide whether a faulting
access is a legal MMIO emulation, an isolation violation, or an unhandled
abort — the distinction at the heart of the paper's outcome taxonomy.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Optional, Tuple

from repro.errors import ConfigurationError, IsolationViolationError
from repro.hw.memory import AccessType, MemoryFlags
from repro.hypervisor.config import MemoryAssignment

_READ_BIT = int(MemoryFlags.READ)
_WRITE_BIT = int(MemoryFlags.WRITE)
_EXECUTE_BIT = int(MemoryFlags.EXECUTE)
_IO_BIT = int(MemoryFlags.IO)
# Compared by identity in is_mapped(): a dict keyed by the member would hash
# it through the Python-level ``Enum.__hash__`` on every resume check.
_READ, _WRITE = AccessType.READ, AccessType.WRITE


@dataclass(frozen=True)
class Stage2Mapping:
    """One guest-physical to host-physical mapping of a cell."""

    name: str
    virt_start: int
    phys_start: int
    size: int
    flags: MemoryFlags
    shared: bool = False

    @property
    def virt_end(self) -> int:
        return self.virt_start + self.size

    @property
    def phys_end(self) -> int:
        return self.phys_start + self.size

    def contains_virt(self, address: int, size: int = 1) -> bool:
        return self.virt_start <= address and address + size <= self.virt_end

    def translate(self, address: int) -> int:
        """Translate one guest-physical address to a host-physical address."""
        if not self.contains_virt(address):
            raise IsolationViolationError(
                f"address 0x{address:08x} outside mapping {self.name!r}"
            )
        return self.phys_start + (address - self.virt_start)

    def permits(self, access: AccessType) -> bool:
        return bool(self.flags & access.required_flag())

    @classmethod
    def from_assignment(cls, assignment: MemoryAssignment) -> "Stage2Mapping":
        return cls(
            name=assignment.name,
            virt_start=assignment.virt_start,
            phys_start=assignment.phys_start,
            size=assignment.size,
            flags=assignment.flags,
            shared=assignment.shared,
        )


class CellMemoryMap:
    """The stage-2 view of one cell."""

    def __init__(self, cell_name: str,
                 mappings: Optional[Iterable[Stage2Mapping]] = None) -> None:
        self.cell_name = cell_name
        self._mappings: List[Stage2Mapping] = []
        #: Flat ``(virt_start, virt_end, flags int, mapping)`` tuples used by
        #: the per-access queries: tuple indexing and plain-int flag tests are
        #: several times cheaper than dataclass attribute access plus
        #: ``IntFlag.__and__``, and these run a handful of times per
        #: simulation step (every resume-context validation).
        self._spans: List[Tuple[int, int, int, Stage2Mapping]] = []
        self._ram_cache: Optional[Tuple[Stage2Mapping, ...]] = None
        if mappings:
            for mapping in mappings:
                self.add(mapping)

    def _reindex(self) -> None:
        self._mappings.sort(key=lambda m: m.virt_start)
        self._spans = [
            (m.virt_start, m.virt_end, int(m.flags), m) for m in self._mappings
        ]
        self._ram_cache: Optional[Tuple[Stage2Mapping, ...]] = None

    def add(self, mapping: Stage2Mapping) -> None:
        """Add a mapping; overlapping guest-physical ranges are rejected."""
        for existing in self._mappings:
            if (mapping.virt_start < existing.virt_end
                    and existing.virt_start < mapping.virt_end):
                raise ConfigurationError(
                    f"cell {self.cell_name!r}: mapping {mapping.name!r} overlaps "
                    f"{existing.name!r} in guest-physical space"
                )
        self._mappings.append(mapping)
        self._reindex()

    def remove(self, name: str) -> None:
        mapping = self.find_by_name(name)
        if mapping is None:
            raise KeyError(f"no mapping named {name!r}")
        self._mappings.remove(mapping)
        self._reindex()

    @property
    def mappings(self) -> Tuple[Stage2Mapping, ...]:
        return tuple(self._mappings)

    def find(self, address: int, size: int = 1) -> Optional[Stage2Mapping]:
        """Mapping containing the guest-physical window, or ``None``."""
        end = address + size
        for virt_start, virt_end, _flags, mapping in self._spans:
            if virt_start <= address and end <= virt_end:
                return mapping
        return None

    def find_by_name(self, name: str) -> Optional[Stage2Mapping]:
        for mapping in self._mappings:
            if mapping.name == name:
                return mapping
        return None

    def is_mapped(self, address: int, size: int = 1,
                  access: AccessType = AccessType.READ) -> bool:
        """Whether the cell may perform ``access`` on the given window."""
        bit = (_WRITE_BIT if access is _WRITE
               else _READ_BIT if access is _READ else _EXECUTE_BIT)
        end = address + size
        for virt_start, virt_end, flags, _mapping in self._spans:
            if virt_start <= address and end <= virt_end:
                return bool(flags & bit)
        return False

    def is_executable(self, address: int) -> bool:
        """Whether the cell may fetch instructions from ``address``."""
        end = address + 4
        for virt_start, virt_end, flags, _mapping in self._spans:
            if virt_start <= address and end <= virt_end:
                return bool(flags & _EXECUTE_BIT)
        return False

    def translate(self, address: int) -> int:
        """Translate a guest-physical address, raising on isolation violations."""
        mapping = self.find(address)
        if mapping is None:
            raise IsolationViolationError(
                f"cell {self.cell_name!r}: stage-2 fault at 0x{address:08x}"
            )
        return mapping.translate(address)

    def io_mappings(self) -> Tuple[Stage2Mapping, ...]:
        """Mappings that describe MMIO windows."""
        return tuple(m for m in self._mappings if int(m.flags) & _IO_BIT)

    def ram_mappings(self) -> Tuple[Stage2Mapping, ...]:
        cached = self._ram_cache
        if cached is None:
            cached = self._ram_cache = tuple(
                m for m in self._mappings if not int(m.flags) & _IO_BIT
            )
        return cached

    def host_ranges(self) -> Tuple[Tuple[int, int, bool], ...]:
        """Host-physical ``(start, end, shared)`` tuples covered by this cell."""
        return tuple((m.phys_start, m.phys_end, m.shared) for m in self._mappings)

    @classmethod
    def from_assignments(cls, cell_name: str,
                         assignments: Iterable[MemoryAssignment]) -> "CellMemoryMap":
        return cls(
            cell_name,
            (Stage2Mapping.from_assignment(a) for a in assignments),
        )


def check_host_exclusivity(maps: Iterable[CellMemoryMap]) -> None:
    """Verify that no two cells share a host-physical range unless both mark it shared.

    This is the isolation invariant the paper's experiments probe: the
    hypervisor enforces it at ``cell_create`` time and the property-based
    tests assert it over arbitrary configurations.
    """
    seen: List[Tuple[int, int, bool, str]] = []
    for cell_map in maps:
        for start, end, shared in cell_map.host_ranges():
            for o_start, o_end, o_shared, o_cell in seen:
                if o_cell == cell_map.cell_name:
                    continue
                if start < o_end and o_start < end:
                    if not (shared and o_shared):
                        raise IsolationViolationError(
                            f"cells {cell_map.cell_name!r} and {o_cell!r} both map "
                            f"host range 0x{max(start, o_start):08x}-"
                            f"0x{min(end, o_end) - 1:08x} without marking it shared"
                        )
            seen.append((start, end, shared, cell_map.cell_name))
