"""Unit tests for the functional per-node memory."""

from array import array

import pytest

from repro.memory.main_memory import LostMemoryError, NodeMemory


class TestNodeMemory:
    def test_unwritten_lines_read_zero(self):
        mem = NodeMemory(0)
        assert mem.read_line(0x1000) == 0

    def test_write_read_roundtrip(self):
        mem = NodeMemory(0)
        mem.write_line(0x40, 0xdeadbeef)
        assert mem.read_line(0x40) == 0xdeadbeef

    def test_zero_writes_keep_store_sparse(self):
        mem = NodeMemory(0)
        mem.write_line(0x40, 5)
        mem.write_line(0x40, 0)
        assert len(mem) == 0
        assert mem.read_line(0x40) == 0

    def test_huge_line_values(self):
        mem = NodeMemory(0)
        value = (1 << 512) - 1          # a full 64-byte line of ones
        mem.write_line(0x80, value)
        assert mem.read_line(0x80) == value

    def test_destroy_blocks_access(self):
        mem = NodeMemory(3)
        mem.write_line(0x40, 1)
        mem.destroy()
        assert mem.lost
        assert len(mem) == 0
        with pytest.raises(LostMemoryError):
            mem.read_line(0x40)
        with pytest.raises(LostMemoryError):
            mem.write_line(0x40, 2)

    def test_restore_works_while_lost(self):
        mem = NodeMemory(0)
        mem.destroy()
        mem.restore_line(0x40, 7)
        mem.mark_recovered()
        assert mem.read_line(0x40) == 7
        assert not mem.lost

    def test_snapshot_is_a_copy(self):
        mem = NodeMemory(0)
        mem.write_line(0x40, 1)
        snap = mem.snapshot()
        mem.write_line(0x40, 2)
        assert snap == {"addrs": array("b", [0x40]), "values": [1],
                        "lost": False}

    def test_snapshot_restore_roundtrip(self):
        mem = NodeMemory(0)
        mem.write_line(0x40, 1)
        mem.write_line(0x80, 5)
        snap = mem.snapshot()
        mem.write_line(0x40, 9)
        mem.destroy()
        mem.restore(snap)
        assert not mem.lost
        assert mem.read_line(0x40) == 1
        assert mem.read_line(0x80) == 5

    def test_lines_iterates_nonzero(self):
        mem = NodeMemory(0)
        mem.write_line(0x40, 1)
        mem.write_line(0x80, 2)
        assert dict(mem.lines()) == {0x40: 1, 0x80: 2}
