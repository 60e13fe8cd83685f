"""Chunk-pool sizing and recycling (processes backend).

The persistent pool is sized from the planner's machine-model core
count (clamped to real CPUs and a hard cap) and recycled after a
bounded number of region dispatches so child interpreters cannot
accumulate deserialized state forever.
"""

import pytest

from repro import Session
from repro.planner.machine import MachineModel
from repro.runtime import backends


@pytest.fixture(autouse=True)
def fresh_pool():
    backends._reset_chunk_pool()
    yield
    backends._reset_chunk_pool()


class TestDesiredSize:
    def test_default_caps_at_eight(self, monkeypatch):
        monkeypatch.setattr("os.cpu_count", lambda: 32)
        assert backends._desired_pool_size(None) == 8

    def test_machine_cores_clamped_to_cpus(self, monkeypatch):
        monkeypatch.setattr("os.cpu_count", lambda: 4)
        assert backends._desired_pool_size(56) == 4

    def test_hard_cap(self, monkeypatch):
        monkeypatch.setattr("os.cpu_count", lambda: 64)
        assert backends._desired_pool_size(56) == backends._POOL_MAX_WORKERS

    def test_default_respects_hard_cap(self, monkeypatch):
        # The ``requested is None`` branch must honor the hard ceiling
        # too, not just the historical min(8, cpus) heuristic.
        monkeypatch.setattr("os.cpu_count", lambda: 32)
        monkeypatch.setattr(backends, "_POOL_MAX_WORKERS", 4)
        assert backends._desired_pool_size(None) == 4

    def test_floor_of_two(self, monkeypatch):
        monkeypatch.setattr("os.cpu_count", lambda: 1)
        assert backends._desired_pool_size(1) == 2


class TestPoolLifecycle:
    def test_same_size_reuses_pool(self):
        first = backends._chunk_pool(2)
        second = backends._chunk_pool(2)
        assert first is second

    def test_pool_grows_but_never_shrinks(self, monkeypatch):
        monkeypatch.setattr("os.cpu_count", lambda: 8)
        small = backends._chunk_pool(2)
        grown = backends._chunk_pool(4)
        assert grown is not small
        assert backends._POOL_SIZE == 4
        # A smaller request reuses the wider pool: alternating callers
        # (session machine model vs the None default) must not thrash
        # teardown/re-fork cycles.
        assert backends._chunk_pool(2) is grown
        assert backends._POOL_SIZE == 4

    def test_recycles_after_region_budget(self, monkeypatch):
        monkeypatch.setattr(backends, "POOL_RECYCLE_REGIONS", 2)
        first = backends._chunk_pool(2)
        assert backends._chunk_pool(2) is first  # dispatch 2 of 2
        third = backends._chunk_pool(2)  # budget exhausted: fresh pool
        assert third is not first
        assert backends._POOL_REGIONS == 1

    def test_reset_forgets_broadcasts_and_bumps_epoch(self):
        """Regression: both reset paths must forget what the dead
        workers were sent.

        The supervisor's recovery path (and plain recycling) depends on
        it — a reset that kept the module-broadcast epoch or the
        parent's primed-worker bookkeeping would let the next dispatch
        omit module bytes no live worker holds.
        """
        from repro.runtime import payload

        for kill in (False, True):
            backends._chunk_pool(2)
            payload._SHIPPED_MODULES.add((backends._POOL_EPOCH, "key"))
            before = backends._POOL_EPOCH
            backends._reset_chunk_pool(kill=kill)
            assert backends._POOL_EPOCH == before + 1, f"kill={kill}"
            assert not payload._SHIPPED_MODULES, f"kill={kill}"

    def test_run_after_reset_reships_full_state(self):
        """Post-reset, the first region carries everything the fresh
        workers need — module and state attached up front, so no miss
        round-trip is paid."""
        from repro.runtime import payload

        session = Session.from_kernel("EP")
        warm = session.run("PS-PDG", workers=2, backend="processes")
        backends._reset_chunk_pool()
        cold = session.run("PS-PDG", workers=2, backend="processes")
        assert cold.output == warm.output
        first = cold.parallel_regions[0]
        assert first["retry_payload_bytes"] == 0
        assert first["payload_bytes"] > len(
            payload.module_codec(session.module).module_bytes
        )

    def test_session_sizes_pool_from_machine_model(self, monkeypatch):
        monkeypatch.setattr("os.cpu_count", lambda: 8)
        machine = MachineModel(cores=3)
        session = Session.from_kernel("EP", machine=machine)
        result = session.run("PS-PDG", workers=2, backend="processes")
        assert result.parallel_regions
        assert backends._POOL_SIZE == 3
