"""Tests for stage-2 paging, the cell state machine, and ivshmem."""

import pytest

from repro.errors import CellStateError, ConfigurationError, HypervisorError, IsolationViolationError
from repro.hw.gic import Gic
from repro.hw.memory import AccessType, MemoryFlags
from repro.hypervisor.cell import Cell, CellState, LoadedImage
from repro.hypervisor.config import MemoryAssignment, freertos_cell_config
from repro.hypervisor.ivshmem import IvshmemChannel
from repro.hypervisor.paging import (
    CellMemoryMap,
    Stage2Mapping,
    check_host_exclusivity,
)


def make_map(name: str = "cell", base: int = 0x7800_0000,
             shared: bool = False) -> CellMemoryMap:
    return CellMemoryMap(
        name,
        [
            Stage2Mapping("ram", 0x0, base, 1 << 20, MemoryFlags.RWX),
            Stage2Mapping("shm", 0x3000_0000, 0x7BF0_0000, 0x10_0000,
                          MemoryFlags.RW, shared=shared),
        ],
    )


class TestStage2:
    def test_translate_applies_offset(self):
        mapping = Stage2Mapping("ram", 0x0, 0x7800_0000, 0x1000, MemoryFlags.RWX)
        assert mapping.translate(0x100) == 0x7800_0100

    def test_translate_outside_mapping_raises(self):
        mapping = Stage2Mapping("ram", 0x0, 0x7800_0000, 0x1000, MemoryFlags.RWX)
        with pytest.raises(IsolationViolationError):
            mapping.translate(0x2000)

    def test_from_assignment_copies_fields(self):
        assignment = MemoryAssignment("ram", 0x10, 0x20, 0x30,
                                      MemoryFlags.RW, shared=True)
        mapping = Stage2Mapping.from_assignment(assignment)
        assert (mapping.virt_start, mapping.phys_start, mapping.size) == (0x10, 0x20, 0x30)
        assert mapping.shared

    def test_overlapping_mappings_rejected(self):
        cell_map = make_map()
        with pytest.raises(ConfigurationError):
            cell_map.add(Stage2Mapping("dup", 0x800, 0x9000_0000, 0x1000,
                                       MemoryFlags.RW))

    def test_is_mapped_checks_permissions(self):
        cell_map = make_map()
        assert cell_map.is_mapped(0x100, 4, AccessType.WRITE)
        assert cell_map.is_executable(0x100)
        assert not cell_map.is_executable(0x3000_0000)   # shm is not executable
        assert not cell_map.is_mapped(0x5000_0000, 4)

    #: One mapping per permission mix, so every access type is both granted
    #: and refused somewhere.
    PERMISSION_MAP = [
        Stage2Mapping("rwx", 0x0000, 0x1000, 0x1000, MemoryFlags.RWX),
        Stage2Mapping("ro", 0x2000, 0x3000, 0x1000, MemoryFlags.READ),
        Stage2Mapping("wo-io", 0x4000, 0x5000, 0x1000,
                      MemoryFlags.WRITE | MemoryFlags.IO),
        Stage2Mapping("xo", 0x6000, 0x7000, 0x1000, MemoryFlags.EXECUTE),
    ]

    @pytest.mark.parametrize("access", list(AccessType))
    @pytest.mark.parametrize("mapping", PERMISSION_MAP, ids=lambda m: m.name)
    def test_is_mapped_agrees_with_permits_inside_a_mapping(self, mapping,
                                                            access):
        cell_map = CellMemoryMap("cell", self.PERMISSION_MAP)
        expected = mapping.permits(access)
        for address, size in ((mapping.virt_start, 1),
                              (mapping.virt_start + 0x10, 4),
                              (mapping.virt_end - 4, 4),
                              (mapping.virt_start, mapping.size)):
            assert cell_map.is_mapped(address, size, access) is expected

    @pytest.mark.parametrize("access", list(AccessType))
    @pytest.mark.parametrize("mapping", PERMISSION_MAP, ids=lambda m: m.name)
    def test_is_mapped_refuses_windows_outside_or_straddling(self, mapping,
                                                             access):
        cell_map = CellMemoryMap("cell", self.PERMISSION_MAP)
        # Past the end (inside the gap to the next mapping), straddling the
        # end, and one byte longer than the whole mapping.
        for address, size in ((mapping.virt_end, 4),
                              (mapping.virt_end - 2, 4),
                              (mapping.virt_start, mapping.size + 1)):
            assert cell_map.is_mapped(address, size, access) is False
        assert cell_map.is_mapped(0x9000_0000, 4, access) is False

    def test_translate_through_the_map(self):
        cell_map = make_map()
        assert cell_map.translate(0x10) == 0x7800_0010
        with pytest.raises(IsolationViolationError):
            cell_map.translate(0xFFFF_0000)

    def test_ram_and_io_mapping_views(self):
        cell_map = CellMemoryMap.from_assignments("c", freertos_cell_config().memory)
        assert any(m.name == "uart0" for m in cell_map.io_mappings())
        assert all(not (m.flags & MemoryFlags.IO) for m in cell_map.ram_mappings())

    def test_remove_mapping(self):
        cell_map = make_map()
        cell_map.remove("shm")
        assert cell_map.find_by_name("shm") is None
        with pytest.raises(KeyError):
            cell_map.remove("shm")

    def test_host_exclusivity_accepts_disjoint_cells(self):
        check_host_exclusivity([make_map("a", 0x7800_0000, shared=True),
                                make_map("b", 0x7900_0000, shared=True)])

    def test_host_exclusivity_rejects_unshared_overlap(self):
        with pytest.raises(IsolationViolationError):
            check_host_exclusivity([make_map("a", 0x7800_0000),
                                    make_map("b", 0x7800_0000)])

    def test_host_exclusivity_allows_mutually_shared_overlap(self):
        check_host_exclusivity([make_map("a", 0x7800_0000, shared=True),
                                make_map("b", 0x7900_0000, shared=True)])


class TestCellStateMachine:
    def make_cell(self) -> Cell:
        return Cell(1, freertos_cell_config())

    @pytest.mark.parametrize("state", list(CellState))
    def test_is_running_exactly_for_the_running_states(self, state):
        assert state.is_running is (
            state in (CellState.RUNNING, CellState.RUNNING_LOCKED))

    def test_new_cell_is_shut_down(self):
        cell = self.make_cell()
        assert cell.state is CellState.SHUT_DOWN
        assert not cell.state.is_running
        assert cell.is_consistent()

    def test_mark_running_and_double_start_rejected(self):
        cell = self.make_cell()
        cell.mark_running()
        assert cell.state.is_running
        with pytest.raises(CellStateError):
            cell.mark_running()

    def test_state_history_tracks_transitions(self):
        cell = self.make_cell()
        cell.mark_running()
        cell.mark_shut_down()
        assert cell.state_history == [
            CellState.SHUT_DOWN, CellState.RUNNING, CellState.SHUT_DOWN,
        ]
        assert cell.stats.state_transitions == 2

    def test_load_image_into_loadable_region(self):
        cell = self.make_cell()
        cell.load_image(LoadedImage("ram", entry_point=0x0, size=4096))
        assert cell.entry_point() == 0x0

    def test_load_rejects_running_cell(self):
        cell = self.make_cell()
        cell.mark_running()
        with pytest.raises(CellStateError):
            cell.load_image(LoadedImage("ram", 0x0, 4096))

    def test_load_rejects_unknown_or_non_loadable_region(self):
        cell = self.make_cell()
        with pytest.raises(CellStateError):
            cell.load_image(LoadedImage("ghost", 0x0, 16))
        with pytest.raises(CellStateError):
            cell.load_image(LoadedImage("uart0", 0x0, 16))

    def test_load_rejects_oversized_image(self):
        cell = self.make_cell()
        with pytest.raises(CellStateError):
            cell.load_image(LoadedImage("ram", 0x0, 10 << 20))

    def test_cpu_online_tracking_and_consistency(self):
        cell = self.make_cell()
        cell.mark_running()
        assert not cell.is_consistent()     # running with no online CPUs
        cell.cpu_online(1)
        assert cell.is_consistent()
        cell.cpu_offline(1)
        assert not cell.is_consistent()

    def test_cpu_online_rejects_foreign_cpu(self):
        with pytest.raises(CellStateError):
            self.make_cell().cpu_online(0)

    def test_shut_down_clears_online_cpus(self):
        cell = self.make_cell()
        cell.mark_running()
        cell.cpu_online(1)
        cell.mark_shut_down()
        assert not cell.online_cpus
        assert cell.is_consistent()

    def test_describe_lists_name_state_cpus(self):
        text = self.make_cell().describe()
        assert "FreeRTOS" in text
        assert "shut down" in text
        assert "1" in text


class TestIvshmem:
    def make_channel(self, gic: Gic | None = None) -> IvshmemChannel:
        return IvshmemChannel("chan", "root", "inmate", capacity=2,
                              doorbell_irq=155, gic=gic)

    def test_peers_must_differ_and_capacity_positive(self):
        with pytest.raises(HypervisorError):
            IvshmemChannel("x", "a", "a")
        with pytest.raises(HypervisorError):
            IvshmemChannel("x", "a", "b", capacity=0)

    def test_send_receive_fifo_order(self):
        channel = self.make_channel()
        channel.send("root", b"one")
        channel.send("root", b"two")
        first = channel.receive("inmate")
        second = channel.receive("inmate")
        assert (first.payload, second.payload) == (b"one", b"two")
        assert first.sequence < second.sequence
        assert channel.receive("inmate") is None

    def test_capacity_limit_drops_excess_messages(self):
        channel = self.make_channel()
        assert channel.send("root", b"1")
        assert channel.send("root", b"2")
        assert not channel.send("root", b"3")
        assert channel.dropped == 1
        assert channel.pending("inmate") == 2

    def test_non_peer_access_is_rejected(self):
        channel = self.make_channel()
        with pytest.raises(HypervisorError):
            channel.send("stranger", b"x")
        with pytest.raises(HypervisorError):
            channel.receive("stranger")

    def test_doorbell_raises_irq_for_configured_target(self):
        gic = Gic(2)
        gic.enable_irq(155, targets={1})
        channel = self.make_channel(gic)
        channel.set_doorbell_target("inmate", 1)
        channel.send("root", b"ping")
        assert 155 in gic.pending_for(1)

    def test_other_peer_resolution(self):
        channel = self.make_channel()
        assert channel.other_peer("root") == "inmate"
        assert channel.other_peer("inmate") == "root"

    def test_reset_clears_pending_messages(self):
        channel = self.make_channel()
        channel.send("root", b"x")
        channel.reset()
        assert channel.pending("inmate") == 0
