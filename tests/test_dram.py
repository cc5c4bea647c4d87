"""Unit tests for the DRAM timing model."""

from repro.machine.config import MachineConfig
from repro.memory.dram import MemoryTimingModel


class TestMemoryTimingModel:
    def make(self):
        return MemoryTimingModel(MachineConfig.tiny(4), node=0)

    def test_row_miss_latency(self):
        m = self.make()
        done = m.access(at=100)
        assert done == 100 + m.config.mem_row_miss_ns

    def test_row_hit_is_cheaper(self):
        m = self.make()
        miss = m.access(at=0) - 0
        m.reset()
        hit = m.access(at=0, row_hit=True) - 0
        assert hit < miss

    def test_bus_occupancy_throttles_bursts(self):
        m = self.make()
        # Fire 100 accesses at the same instant: the bus serialises
        # them at ~20ns/line, so the last starts ~2us later.
        completions = [m.access(at=0) for _ in range(100)]
        spread = max(completions) - min(completions)
        assert spread >= 90 * m.bus_ns_per_line * 0.8

    def test_bus_rate_matches_config(self):
        cfg = MachineConfig.tiny(4)
        m = MemoryTimingModel(cfg, 0)
        assert m.bus_ns_per_line == round(cfg.line_size
                                          / cfg.mem_bytes_per_ns)

    def test_access_counting_and_utilization(self):
        m = self.make()
        for i in range(10):
            m.access(at=i * 1000)
        assert m.accesses == 10
        assert 0 < m.utilization(10_000) < 1

    def test_reset(self):
        m = self.make()
        m.access(at=0)
        m.reset()
        assert m.accesses == 0
