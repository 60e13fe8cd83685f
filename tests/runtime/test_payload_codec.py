"""Region payload codec invariants (processes backend wire format).

The codec must be a pure re-encoding of what the seed shipped: the same
region encodes to byte-identical streams, a decoded worker frame
preserves the register→storage aliasing the child's diff and write-back
rely on, the write-log diff is byte-for-byte the legacy snapshot diff on
every NAS kernel, the module's bytes travel at most once per pool
recycle epoch (with the miss/retry path covering pool workers that
joined late), and a dispatch depends on nothing an earlier dispatch left
behind but the decoded module.
"""

import pytest

from repro import Session
from repro.frontend import compile_source
from repro.runtime import backends, run_source_plan
from repro.runtime import payload as payload_codec
from support.conformance import outputs_close

pytestmark = pytest.mark.usefixtures("fresh_codec")

KERNELS = ("BT", "CG", "EP", "FT", "IS", "LU", "MG", "SP")


@pytest.fixture
def fresh_codec():
    backends._reset_chunk_pool()
    payload_codec.reset_codec_caches()
    yield
    backends._reset_chunk_pool()
    payload_codec.reset_codec_caches()


@pytest.fixture
def captured_region(monkeypatch):
    """The encode_region outputs of a real CG processes run.

    Each capture holds the region's payloads plus an immediate second
    encoding of the *same live state* (the run mutates storage right
    after, so re-encoding later would see different values).
    """
    captured = []
    real = payload_codec.encode_region

    def spy(**kwargs):
        encoded = real(**kwargs)
        captured.append((encoded, real(**kwargs)))
        return encoded

    monkeypatch.setattr(backends.payload_codec, "encode_region", spy)
    session = Session.from_kernel("CG")
    result = session.run("PS-PDG", workers=4, backend="processes")
    assert result.parallel_regions and captured
    return session, captured


class TestEncodeDeterminism:
    def test_same_region_encodes_byte_identical_streams(
        self, captured_region
    ):
        _session, captured = captured_region
        # Encoding the same live region twice must reproduce the wire
        # bytes exactly: the persistent-id traversal, the storage walk,
        # and the memo priming are all deterministic within a session.
        for first, again in captured:
            assert [p.header_bytes for p in again.workers] == [
                p.header_bytes for p in first.workers
            ]
            assert [p.delta_bytes for p in again.workers] == [
                p.delta_bytes for p in first.workers
            ]
            assert [p.state_bytes for p in again.workers] == [
                p.state_bytes for p in first.workers
            ]
            assert len(set(p.header_bytes for p in first.workers)) == 1
            # One state stream per region, shared by its payloads.
            assert len(set(id(p.state_bytes) for p in first.workers)) == 1

    def test_deltas_are_small_relative_to_state(self, captured_region):
        _session, captured = captured_region
        encoded, _again = captured[0]
        for worker_payload in encoded.workers:
            assert (
                len(worker_payload.delta_bytes)
                < len(worker_payload.state_bytes)
            )


class TestDecodedAliasing:
    def test_register_points_into_decoded_shared_storage(
        self, captured_region
    ):
        _session, captured = captured_region
        encoded, _again = captured[0]
        worker_payload = encoded.workers[0]
        decoded = payload_codec.decode_payload(worker_payload.wire())
        frame = decoded["frame"]
        shared_ids = {
            id(values) for values in decoded["global_storage"].values()
        }
        shared_ids.update(id(storage) for storage in frame.objects.values())
        pointer_registers = [
            value
            for value in frame.registers.values()
            if isinstance(value, tuple) and len(value) == 2
        ]
        assert pointer_registers
        # Every materialized pointer register aims at a decoded object
        # table entry — not at a duplicate an independent-unpickler
        # split would have produced.
        assert all(
            id(storage) in shared_ids for storage, _offset in pointer_registers
        )

    def test_store_through_register_is_visible_in_diff(
        self, captured_region
    ):
        _session, captured = captured_region
        encoded, _again = captured[0]
        decoded = payload_codec.decode_payload(encoded.workers[0].wire())
        frame = decoded["frame"]
        index = payload_codec.shared_index(
            frame, decoded["global_storage"], decoded["private_alloca_uids"]
        )
        shared_ids = {
            id(storage)
            for group in index
            for _key, storage in group
        }
        # Prefer a store through a pre-materialized pointer register;
        # registers are pruned to the region's live-ins, so fall back to
        # a decoded shared object when none of them aliases the index.
        storage, offset = next(
            (
                value
                for value in frame.registers.values()
                if isinstance(value, tuple)
                and len(value) == 2
                and id(value[0]) in shared_ids
            ),
            ((index[0] or index[1])[0][1], 0),
        )
        before = storage[offset]
        log = {(id(storage), offset): (storage, before)}
        storage[offset] = before + 7
        diffs = payload_codec.diff_write_log(log, index)
        assert any(
            entry[1] == offset and entry[2] == before + 7
            for group in diffs
            for entry in group
        )


class TestWriteLogMatchesSnapshot:
    @pytest.mark.parametrize("kernel", KERNELS)
    def test_diffs_identical_on_kernel(self, kernel, monkeypatch):
        # The pool worker computes both diffs and errors out on any
        # divergence, so a passing run is the assertion.
        monkeypatch.setattr(payload_codec, "VERIFY_DIFFS", True)
        session = Session.from_kernel(kernel)
        result = session.run("PS-PDG", workers=4, backend="processes")
        assert outputs_close(result.output, session.execution.output)
        processes_regions = [
            region
            for region in result.parallel_regions
            if region["backend"] == "processes"
        ]
        assert processes_regions
        assert all(
            region["dirty_slots"] > 0 for region in processes_regions
        )


class TestModuleByteCache:
    def test_module_ships_once_per_epoch(self):
        session = Session.from_kernel("EP")
        first = session.run("PS-PDG", workers=4, backend="processes")
        second = session.run("PS-PDG", workers=4, backend="processes")
        bytes_first = sum(
            r["payload_bytes"] for r in first.parallel_regions
        )
        bytes_second = sum(
            r["payload_bytes"] for r in second.parallel_regions
        )
        module_bytes = len(
            payload_codec.module_codec(session.module).module_bytes
        )
        # Run 1 broadcast the module; run 2 shipped no module bytes.
        assert bytes_first >= bytes_second + module_bytes
        # A pool recycle wipes the workers' caches: the next run must
        # broadcast again.
        backends._reset_chunk_pool()
        third = session.run("PS-PDG", workers=4, backend="processes")
        bytes_third = sum(
            r["payload_bytes"] for r in third.parallel_regions
        )
        assert bytes_third >= bytes_second + module_bytes

    def test_module_miss_retry(self):
        session = Session.from_kernel("EP")
        codec = payload_codec.module_codec(session.module)
        # Poison the parent's shipped-set for the epoch the next run
        # will create: the parent omits the module bytes, every fresh
        # pool worker misses, and the retry path must recover.
        payload_codec._SHIPPED_MODULES.add(
            (backends._POOL_EPOCH + 1, codec.key)
        )
        result = session.run("PS-PDG", workers=4, backend="processes")
        assert result.output == session.execution.output
        region = result.parallel_regions[0]
        workers_used = sum(
            1 for worker in region["per_worker"] if worker["iterations"]
        )
        assert region["payloads"] > workers_used  # retries happened

    def test_decode_reports_module_miss(self):
        wire = ("no-such-key", None, b"", b"", b"")
        assert payload_codec.decode_payload(wire) is None

    def test_codec_cache_reuses_by_identity(self):
        session = Session.from_kernel("EP")
        first = payload_codec.module_codec(session.module)
        assert payload_codec.module_codec(session.module) is first

    def test_recycle_keeps_module_bytes(self, monkeypatch):
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

    def test_nine_rotating_modules_stay_cached(self, monkeypatch):
        """``run-procs-warm``'s traffic: nine live Sessions taking turns
        on one pool.  After the first round neither side may redo module
        work — no module bytes, no miss round-trips, no re-pickle."""
        # One pool process, so which worker has seen which module does
        # not depend on how the pool happened to hand payloads out.
        monkeypatch.setattr(backends, "_desired_pool_size", lambda _n: 1)
        sessions = [
            Session.from_source(ROTATING % index, name=f"rotating-{index}")
            for index in range(9)
        ]
        codecs = [
            payload_codec.module_codec(session.module) for session in sessions
        ]
        assert len({codec.key for codec in codecs}) == 9

        def one_round():
            regions = []
            for index, session in enumerate(sessions):
                result = session.run(
                    "PS-PDG", workers=2, backend="processes", opt=0
                )
                assert result.output == [(None, (5 * index,))]
                regions.extend(result.parallel_regions)
            return regions

        first = one_round()
        assert sum(r["payload_bytes"] for r in first) > sum(
            len(codec.module_bytes) for codec in codecs
        )
        second = one_round()
        assert all(r["backend"] == "processes" for r in second)
        assert sum(r["retry_payload_bytes"] for r in second) == 0
        smallest = min(len(codec.module_bytes) for codec in codecs)
        assert all(r["payload_bytes"] < smallest for r in second)
        assert [
            payload_codec.module_codec(session.module) for session in sessions
        ] == codecs


ROTATING = """
global a: int[8];

func main() {
  pragma omp parallel for
  for i in 0..8 {
    a[i] = i * %d;
  }
  print(a[5]);
}
"""


UNLOGGED_WRITE = """
global scale: int[1];
global pad: int[512];
global a: int[16];
global b: int[16];

func main() {
  scale[0] = 2;
  pragma omp parallel for
  for i in 0..16 {
    a[i] = i * scale[0];
  }
  pragma omp parallel for
  for j in 0..16 {
    b[j] = a[j] + scale[0];
  }
  print(b[3], pad[0]);
}
"""


class TestStatelessDispatch:
    def test_unlogged_storage_write_reaches_next_region(self, monkeypatch):
        """A region's payloads describe the parent's storage as it *is*.

        Between the two regions ``scale`` is written straight into the
        interpreter's storage list — no store instruction, no write
        log, no invalidation call, no knob.  The second region must
        compute with the new value: nothing a worker kept from the
        first dispatch may stand in for it.
        """
        real = payload_codec.encode_region
        calls = []

        def poking(**kwargs):
            calls.append(kwargs["loops"][0].header.name)
            if len(calls) == 2:
                kwargs["global_storage"]["scale"][0] = 10
            return real(**kwargs)

        monkeypatch.setattr(backends.payload_codec, "encode_region", poking)
        result = run_source_plan(
            compile_source(UNLOGGED_WRITE), workers=2, backend="processes"
        )
        assert len(calls) == 2
        assert [r["backend"] for r in result.parallel_regions] == [
            "processes", "processes",
        ]
        assert result.output == [(None, (3 * 2 + 10, 0))]


class TestWireHelpers:
    @pytest.mark.parametrize("values", [
        [],
        [3],
        list(range(100)),
        list(range(0, 64, 4)),
        [0, 1, 2, 3, 50, 51, 52, 53],
        [5, 9, 2, 40, 41, 42, 43, 44, 45, 46, 47],
        [(t, i) for t in range(3) for i in range(0, 40, 2)],  # cross product
        [(0, 1), (0, 2), (1, 1)],  # pairs that are no cross product
    ])
    def test_iteration_packing_roundtrips(self, values):
        packed = payload_codec._pack_iterations(values)
        assert payload_codec._unpack_iterations(packed) == list(values)

    def test_live_in_registers_excludes_loop_defs(self):
        from repro.analysis.loops import find_natural_loops

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
