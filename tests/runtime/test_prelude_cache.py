"""Resident-prelude protocol: hits, misses, invalidation, verification.

The processes backend's wire format v2 keeps the decoded shared state
resident in each pool worker, keyed by a content-hash chain, and ships
dirty-slot deltas between dispatches.  Every path that can desynchronize
a worker must degrade to full-state shipping — never to wrong results:
a worker joining mid-epoch (prelude miss + retry), a pool recycle
(epoch invalidation), a parent whose chain outran the delta window
(windowed catch-up), and a parent-side mutation that bypassed the write
log (caught loudly by ``VERIFY_PRELUDE``, fixed by explicit
invalidation).
"""

import math

import pytest

from repro import Session
from repro.runtime import backends
from repro.runtime import payload as payload_codec
from repro.util.errors import EmulationError
from support.conformance import outputs_close

pytestmark = pytest.mark.usefixtures("fresh_codec")


@pytest.fixture
def fresh_codec():
    backends._reset_chunk_pool()
    payload_codec.reset_codec_caches()
    yield
    backends._reset_chunk_pool()
    payload_codec.reset_codec_caches()


@pytest.fixture
def captured_payloads(monkeypatch):
    """Encoded payloads of a warm CG run (multi-region, dirty deltas)."""
    captured = []
    real = payload_codec.encode_region

    def spy(**kwargs):
        encoded = real(**kwargs)
        captured.append(encoded)
        return encoded

    monkeypatch.setattr(backends.payload_codec, "encode_region", spy)
    session = Session.from_kernel("CG")
    result = session.run("PS-PDG", workers=4, backend="processes")
    assert outputs_close(result.output, session.execution.output)
    assert len(captured) >= 3
    return captured


def _decode(worker_payload):
    return payload_codec.decode_payload(worker_payload.wire())


class TestResidentPath:
    def test_warm_regions_hit_and_save_bytes(self):
        session = Session.from_kernel("CG")
        session.run("PS-PDG", workers=4, backend="processes")
        result = session.run("PS-PDG", workers=4, backend="processes")
        regions = result.parallel_regions
        assert sum(r["prelude_hits"] for r in regions) > 0
        assert sum(r["prelude_bytes_saved"] for r in regions) > 0
        # Steady-state payloads must undercut what full-state shipping
        # would have cost (the hits' savings estimate says by how much).
        total = sum(r["payload_bytes"] for r in regions)
        saved = sum(r["prelude_bytes_saved"] for r in regions)
        assert saved > total

    def test_decode_applies_dirty_delta(self, captured_payloads):
        payload_codec._RESIDENT_STATES.clear()
        cold, warm = captured_payloads[0], captured_payloads[1]
        decoded, miss = _decode(cold.workers[0])
        assert miss is None
        resident = payload_codec._RESIDENT_STATES[
            cold.workers[0].stream_id
        ]
        assert resident.key == cold.next_key
        assert warm.workers[0].state_bytes is None
        decoded, miss = _decode(warm.workers[0])
        assert miss is None
        assert resident.key == warm.next_key

    def test_sibling_payload_skips_already_applied_delta(
        self, captured_payloads
    ):
        payload_codec._RESIDENT_STATES.clear()
        cold, warm = captured_payloads[0], captured_payloads[1]
        assert _decode(cold.workers[0])[1] is None
        assert _decode(warm.workers[0])[1] is None
        # The second worker of the same region finds the delta already
        # applied (resident key == next key) and must not re-apply.
        resident = payload_codec._RESIDENT_STATES[
            warm.workers[1].stream_id
        ]
        snapshot = [list(storage) for storage in resident.table]
        assert _decode(warm.workers[1])[1] is None
        assert [list(s) for s in resident.table] == snapshot

    def test_windowed_catchup_skips_a_region(self, captured_payloads):
        """A worker that missed a whole region catches up via the union
        delta instead of re-shipping the full state."""
        payload_codec._RESIDENT_STATES.clear()
        cold, skipped, later = captured_payloads[:3]
        assert _decode(cold.workers[0])[1] is None
        # Skip ``skipped`` entirely: the next region's window must still
        # cover the cold key.
        assert cold.next_key in later.workers[0].keys
        decoded, miss = _decode(later.workers[0])
        assert miss is None
        resident = payload_codec._RESIDENT_STATES[
            later.workers[0].stream_id
        ]
        assert resident.key == later.next_key


class TestMissAndRetry:
    def test_unknown_stream_reports_prelude_miss(self, captured_payloads):
        # Prime this process's module cache (region 1 broadcasts it),
        # then drop the resident state: a delta payload must miss.
        assert _decode(captured_payloads[0].workers[0])[1] is None
        payload_codec._RESIDENT_STATES.clear()
        warm = next(
            enc for enc in captured_payloads
            if enc.workers[0].state_bytes is None
        )
        assert _decode(warm.workers[0]) == (None, "prelude")

    def test_retry_with_state_recovers(self, captured_payloads):
        assert _decode(captured_payloads[0].workers[0])[1] is None
        payload_codec._RESIDENT_STATES.clear()
        warm = next(
            enc for enc in captured_payloads
            if enc.workers[0].state_bytes is None
        )
        refreshed = warm.workers[0].with_state(warm.state_bytes())
        decoded, miss = _decode(refreshed)
        assert miss is None
        assert decoded["segments"]
        resident = payload_codec._RESIDENT_STATES[refreshed.stream_id]
        assert resident.key == warm.next_key

    def test_out_of_window_key_misses(self, captured_payloads):
        payload_codec._RESIDENT_STATES.clear()
        cold = captured_payloads[0]
        assert _decode(cold.workers[0])[1] is None
        resident = payload_codec._RESIDENT_STATES[cold.workers[0].stream_id]
        resident.key = "not-a-chain-key"
        warm = captured_payloads[1]
        assert _decode(warm.workers[0]) == (None, "prelude")

    def test_mid_epoch_join_falls_back_end_to_end(self, monkeypatch):
        """Delta payloads whose chain keys no pool worker holds (the
        situation a freshly-joined worker is in): every one must miss,
        retry with the full state, and still produce the sequential
        results."""
        real = payload_codec.encode_region
        calls = {"n": 0}

        def poisoning(**kwargs):
            calls["n"] += 1
            if calls["n"] == 3:
                # Rewrite the chain so this region's delta references
                # keys no worker can possibly hold resident.
                prelude = kwargs["prelude"]
                if prelude.key is not None:
                    prelude.key = "poisoned-" + prelude.key
                for entry in prelude.history:
                    entry[0] = "poisoned-" + entry[0]
            return real(**kwargs)

        monkeypatch.setattr(
            backends.payload_codec, "encode_region", poisoning
        )
        session = Session.from_kernel("CG")
        result = session.run("PS-PDG", workers=4, backend="processes")
        assert outputs_close(result.output, session.execution.output)
        regions = result.parallel_regions
        assert sum(r["prelude_misses"] for r in regions) > 0


class TestInvalidation:
    def test_pool_recycle_invalidates_resident_state(self):
        session = Session.from_kernel("CG")
        session.run("PS-PDG", workers=4, backend="processes")
        backends._reset_chunk_pool()
        result = session.run("PS-PDG", workers=4, backend="processes")
        assert outputs_close(result.output, session.execution.output)
        # The fresh pool generation has no resident state: the first
        # region must ship the full state cold, not hit.
        first = result.parallel_regions[0]
        assert first["prelude_hits"] == 0

    def test_recycle_resets_pool_caches_but_keeps_module_bytes(
        self, monkeypatch
    ):
        session = Session.from_kernel("EP")
        codec = payload_codec.module_codec(session.module)
        payload_codec._SHIPPED_MODULES.add((0, "sentinel"))
        monkeypatch.setattr(backends, "POOL_RECYCLE_REGIONS", 1)
        backends._chunk_pool(2)
        backends._chunk_pool(2)  # recycle: stale branch must reset caches
        assert not payload_codec._SHIPPED_MODULES
        # The parent-side pickled-module LRU is epoch-independent and
        # expensive to rebuild: recycling must not drop it.
        assert payload_codec.module_codec(session.module) is codec

    def test_explicit_invalidation_reships_full_state(self):
        session = Session.from_kernel("CG")
        session.run("PS-PDG", workers=4, backend="processes")
        session._prelude_codec().invalidate()
        result = session.run("PS-PDG", workers=4, backend="processes")
        assert outputs_close(result.output, session.execution.output)
        assert result.parallel_regions[0]["prelude_hits"] == 0

    def test_worker_error_discards_resident_state(self, captured_payloads):
        payload_codec._RESIDENT_STATES.clear()
        cold = captured_payloads[0]
        stream_id = cold.workers[0].stream_id
        assert _decode(cold.workers[0])[1] is None
        assert stream_id in payload_codec._RESIDENT_STATES
        payload_codec.discard_resident(stream_id)
        assert stream_id not in payload_codec._RESIDENT_STATES


class TestSessionHandoff:
    def test_chain_survives_run_boundaries(self):
        """A session's second run rebinds the codec onto the fresh
        interpreter's storages instead of starting a cold stream."""
        session = Session.from_kernel("EP")
        session.run("PS-PDG", workers=4, backend="processes")
        codec = session._prelude_codec()
        key_after_first = codec.key
        assert key_after_first is not None
        result = session.run("PS-PDG", workers=4, backend="processes")
        assert outputs_close(result.output, session.execution.output)
        assert codec.key != key_after_first
        assert codec is session._prelude_codec()

    def test_rebind_diffs_only_changed_state(self):
        session = Session.from_kernel("CG")
        first = session.run("PS-PDG", workers=4, backend="processes")
        second = session.run("PS-PDG", workers=4, backend="processes")
        bytes_first = sum(r["payload_bytes"] for r in first.parallel_regions)
        bytes_second = sum(
            r["payload_bytes"] for r in second.parallel_regions
        )
        # Run 2 never re-ships the module, and its post-rebind regions
        # ride the resident path.
        assert bytes_second < bytes_first
        assert sum(
            r["prelude_hits"] for r in second.parallel_regions
        ) > 0

    def test_shape_change_falls_back_to_cold(self):
        codec = payload_codec.PreludeCodec(log={})
        codec.key = "k"
        codec.table = [[1, 2], [3, 4]]
        codec.table_ids = {id(s): i for i, s in enumerate(codec.table)}
        codec.adopt_log({})
        # A walk with mismatched storage shapes cannot be rebound.
        assert codec.rebind([[1, 2, 3], [3, 4]]) is False


class TestUnloggedMutationVerification:
    def test_verify_prelude_catches_unlogged_mutation(self, monkeypatch):
        """Shared state mutated behind the write log diverges the
        resident image; ``VERIFY_PRELUDE`` must fail loudly instead of
        silently computing on stale slots."""
        monkeypatch.setattr(payload_codec, "VERIFY_PRELUDE", True)
        real = payload_codec.encode_region
        calls = {"n": 0}

        def corrupting(**kwargs):
            calls["n"] += 1
            if calls["n"] == 2:
                prelude = kwargs["prelude"]
                logged = {key for key in prelude.log}
                # Mutate a slot the write log knows nothing about.
                for storage in kwargs["global_storage"].values():
                    for slot in range(len(storage)):
                        if (id(storage), slot) not in logged:
                            storage[slot] = storage[slot] + 17
                            return real(**kwargs)
            return real(**kwargs)

        monkeypatch.setattr(
            backends.payload_codec, "encode_region", corrupting
        )
        session = Session.from_kernel("CG")
        with pytest.raises(EmulationError, match="diverged"):
            session.run("PS-PDG", workers=4, backend="processes")

    def test_global_name_divergence_is_fatal_not_retried(self, monkeypatch):
        """A resident image whose *global-name set* diverged is the same
        caught bug as a diverged slot: it must fail the run on the first
        attempt.  (Raised as a plain decode error it was retried with
        the full state attached — which has nothing left to verify — and
        the divergence was silently blessed.)"""
        monkeypatch.setattr(payload_codec, "VERIFY_PRELUDE", True)
        real = payload_codec.encode_region
        calls = {"n": 0}

        def growing(**kwargs):
            calls["n"] += 1
            if calls["n"] == 2:
                # A global the workers' resident dict has never seen,
                # added behind the write log's back.
                kwargs["global_storage"]["__ghost__"] = [0]
            return real(**kwargs)

        monkeypatch.setattr(
            backends.payload_codec, "encode_region", growing
        )
        session = Session.from_kernel("CG")
        with pytest.raises(EmulationError, match="global names"):
            session.run("PS-PDG", workers=4, backend="processes")
        assert calls["n"] == 2  # zero retries: no third encode

    def test_invalidation_makes_unlogged_mutation_safe(self, monkeypatch):
        """The documented contract: mutate outside the interpreter, call
        ``invalidate``, and the next region re-ships the full state."""
        monkeypatch.setattr(payload_codec, "VERIFY_PRELUDE", True)
        real = payload_codec.encode_region
        calls = {"n": 0}

        def corrupting_but_invalidating(**kwargs):
            calls["n"] += 1
            if calls["n"] == 2:
                prelude = kwargs["prelude"]
                logged = {key for key in prelude.log}
                for storage in kwargs["global_storage"].values():
                    for slot in range(len(storage)):
                        if (id(storage), slot) not in logged:
                            storage[slot] = storage[slot] + 17
                            prelude.invalidate()
                            prelude.log.clear()
                            return real(**kwargs)
            return real(**kwargs)

        monkeypatch.setattr(
            backends.payload_codec, "encode_region",
            corrupting_but_invalidating,
        )
        session = Session.from_kernel("CG")
        # Results are *different* from the unmutated program (the
        # mutation is real) but the run must complete without a
        # divergence error: the full-state re-ship carried the mutation.
        session.run("PS-PDG", workers=4, backend="processes")
        assert calls["n"] >= 2


class TestWireHelpers:
    def test_rollback_restores_before_values(self):
        storage = [1.0, 2.0, 3.0]
        log = {}
        from repro.emulator.interp import record_write

        record_write(log, storage, 1)
        storage[1] = 9.0
        record_write(log, storage, 1)  # second write keeps first before
        storage[1] = 11.0
        payload_codec.rollback_writes(log)
        assert storage == [1.0, 2.0, 3.0]

    @pytest.mark.parametrize("values", [
        [],
        [3],
        list(range(100)),
        list(range(0, 64, 4)),
        [0, 1, 2, 3, 50, 51, 52, 53],
        [5, 9, 2, 40, 41, 42, 43, 44, 45, 46, 47],
    ])
    def test_iteration_packing_roundtrips(self, values):
        packed = payload_codec._pack_iterations(values)
        assert payload_codec._unpack_iterations(packed) == list(values)

    def test_dense_dirty_packs_into_runs(self):
        dirty = {(0, slot): float(slot) for slot in range(32)}
        dirty[(2, 7)] = 1.5
        singles, runs = payload_codec._pack_dirty(dirty)
        assert runs == [(0, 0, [float(s) for s in range(32)])]
        assert singles == [2, 7, 1.5]

    def test_live_in_registers_excludes_loop_defs(self):
        from repro.analysis.loops import find_natural_loops
        from repro.frontend import compile_source

        module = compile_source("""
        global a: int[8];

        func main() {
          var base: int = 3;
          for i in 0..8 {
            a[i] = base + i;
          }
          print(a[5]);
        }
        """)
        function = module.function("main")
        loops = find_natural_loops(function)
        needed = payload_codec.live_in_registers(loops)
        inside = {
            inst
            for loop in loops
            for block in loop.blocks
            for inst in block.instructions
        }
        assert needed
        assert not (needed & inside)

    def test_drain_never_elides_zero_sign_or_type_changes(self):
        codec = payload_codec.PreludeCodec(log={})
        storage = [0.0, 1, 2.0]
        codec.add_storage(storage)
        for slot in range(3):
            codec.log[(id(storage), slot)] = (storage, storage[slot])
        storage[0] = -0.0  # == 0.0 but a different value downstream
        storage[1] = 1.0  # == 1 but a different type
        storage[2] = 2.0  # genuinely unchanged: elided
        dirty = codec.drain_dirty()
        assert dirty == {(0, 0): -0.0, (0, 1): 1.0}
        assert math.copysign(1.0, dirty[(0, 0)]) == -1.0

    def test_window_never_evicts_its_newest_entry(self):
        codec = payload_codec.PreludeCodec(log={})
        codec.key = "k0"
        huge = {(0, slot): slot for slot in range(20_000)}
        keys, union, _base = codec.window(huge)
        # Larger than every cap, but the just-shipped region's workers
        # must still be able to stay resident.
        assert keys == ("k0",)
        assert len(union) == len(huge)

    def test_reset_codec_caches_clears_resident_states(self):
        payload_codec._RESIDENT_STATES[123] = object()
        payload_codec.reset_codec_caches()
        assert not payload_codec._RESIDENT_STATES
