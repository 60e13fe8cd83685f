"""Region payload codec invariants (processes backend wire format).

The codec must be a pure re-encoding of what the seed shipped: the same
region encodes to byte-identical streams, a decoded worker frame
preserves the register→storage aliasing the child's diff and write-back
rely on, the table diff a child ships home is exactly the shared slots
its chunk changed (one body per loop lowered, armed or not), the
module's bytes travel once per pool child (the parent's ledger of what
each child holds decides which payload carries them), and a dispatch
depends on nothing an earlier dispatch left behind but the decoded
module.
"""

import pickle
import random

import pytest

from repro import Session
from repro.codegen import cache as codegen_cache
from repro.frontend import compile_source
from repro.runtime import backends, knobs
from repro.runtime import payload as payload_codec
from repro.util.errors import EmulationError, ReproError
from support.conformance import outputs_close
from support.plans import run_source_plan
from support.programs import ROTATING

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


def _decode_here(encoded):
    """Worker 0's payload decoded in this process, its module installed
    first as a pool child would have it."""
    codec = encoded.codec
    payload_codec.install_module(codec.key, codec.module_bytes)
    return payload_codec.decode_payload(encoded.workers[0].wire())


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
        decoded = _decode_here(encoded)
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
        decoded = _decode_here(encoded)
        table = decoded["table"]
        before = [list(storage) for storage in table]
        index_of = {id(storage): i for i, storage in enumerate(table)}
        # Prefer a store through a pre-materialized pointer register;
        # registers are pruned to the region's live-ins, so fall back to
        # the first table entry when none of them aims into the table.
        storage, offset = next(
            (
                value
                for value in decoded["frame"].registers.values()
                if isinstance(value, tuple)
                and len(value) == 2
                and id(value[0]) in index_of
            ),
            (table[0], 0),
        )
        storage[offset] += 7
        assert payload_codec.diff_table(table, before) == [
            (index_of[id(storage)], offset, storage[offset])
        ]


def _apply(diffs, table):
    for index, slot, value in diffs:
        table[index][slot] = value


class TestDiffTable:
    """The one diff that is left, on hand-built tables."""

    def test_untouched_storage_contributes_nothing(self):
        table = [[1, 2, 3], [0.5, float("nan")], []]
        before = [list(storage) for storage in table]
        assert payload_codec.diff_table(table, before) == []
        table[0][1] = 20
        assert payload_codec.diff_table(table, before) == [(0, 1, 20)]

    def test_slot_rewritten_to_its_original_value_is_elided(self):
        table = [[1.5, 2.5], [7]]
        before = [list(storage) for storage in table]
        table[0][0] = 9.0
        table[0][0] = float("1.5")  # an equal value, a new object
        table[1][0] = 8
        assert payload_codec.diff_table(table, before) == [(1, 0, 8)]

    def test_nan_and_int_float_rewrites(self):
        nan = float("nan")
        table = [[nan, nan, 1, 2.0, 3]]
        before = [list(storage) for storage in table]
        recomputed = float("nan")
        table[0][1] = recomputed  # ``value != before``: nan != nan
        table[0][2] = 1.0  # ``1.0 != 1`` is false: the parent keeps its int
        table[0][3] = 2  # likewise the other way round
        table[0][4] = 3.5
        diffs = payload_codec.diff_table(table, before)
        assert [(i, slot) for i, slot, _value in diffs] == [(0, 1), (0, 4)]
        assert diffs[0][2] is recomputed and diffs[1][2] == 3.5

    def test_untouched_nan_does_not_overwrite_a_sibling_write(self):
        # Two workers decode the same table and each writes its own
        # slot.  The NaN the second worker never touched must not ride
        # home in its diff just because ``nan != nan``: applied second,
        # it would undo the first worker's write.
        parent = [[float("nan"), float("nan"), 0.0]]

        def child(slot, value):
            table = pickle.loads(pickle.dumps(parent))
            before = [list(storage) for storage in table]
            table[0][slot] = value
            return payload_codec.diff_table(table, before)

        diffs = [child(0, 1.0), child(1, 2.0)]
        assert diffs == [[(0, 0, 1.0)], [(0, 1, 2.0)]]
        for diff in diffs:  # worker order
            _apply(diff, parent)
        assert parent == [[1.0, 2.0, 0.0]]

    @pytest.mark.parametrize("seed", range(8))
    def test_applying_the_diff_reproduces_the_table(self, seed):
        """The defining property: ``before`` + ``diff_table(after,
        before)`` is ``after``."""
        draw = random.Random(seed)

        def scalar():
            kind = draw.randrange(4)
            if kind == 0:
                return draw.randrange(-3, 4)
            if kind == 1:
                return float(draw.randrange(-3, 4))  # equal to some int
            if kind == 2:
                return draw.random()
            return float("nan")

        before = [
            [scalar() for _ in range(draw.randrange(0, 12))]
            for _ in range(draw.randrange(1, 6))
        ]
        after = [list(storage) for storage in before]
        for storage in after:
            for slot in range(len(storage)):
                if draw.random() < 0.3:
                    storage[slot] = scalar()
        diffs = payload_codec.diff_table(after, before)
        patched = [list(storage) for storage in before]
        _apply(diffs, patched)
        # List equality compares by identity first, so the NaNs a diff
        # carried over (the very objects in ``after``) compare equal.
        assert patched == after
        assert len(diffs) <= sum(
            a is not b for new, old in zip(after, before)
            for a, b in zip(new, old)
        )


DISJOINT_HALVES = """
global a: int[16];

func main() {
  pragma omp parallel for
  for i in 0..16 {
    var t: int = i + 1;
    a[i] = t * 3;
  }
  print(a[0], a[7], a[8], a[15]);
}
"""


def _shared_lists(interp, frame):
    return payload_codec._walk_storages(frame, interp._global_storage)


@pytest.fixture
def counted_dispatches(monkeypatch):
    """``(RegionStats, shared slots the dispatch changed in the parent)``
    per supervised dispatch, the count taken the slow obvious way."""
    seen = []
    real = backends.ProcessesBackend._run_supervised

    def counting(self, interp, prepared, frame, workers, stats):
        before = [list(storage) for storage in _shared_lists(interp, frame)]
        real(self, interp, prepared, frame, workers, stats)
        changed = sum(
            value is not was and value != was
            for storage, old in zip(_shared_lists(interp, frame), before)
            for value, was in zip(storage, old)
        )
        seen.append((stats, changed))

    monkeypatch.setattr(
        backends.ProcessesBackend, "_run_supervised", counting
    )
    return seen


class TestTableDiffDispatch:
    @pytest.mark.parametrize("kernel", KERNELS)
    def test_diffs_land_and_are_counted_on_kernel(
        self, kernel, counted_dispatches
    ):
        session = Session.from_kernel(kernel)
        result = session.run("PS-PDG", workers=4, backend="processes")
        assert outputs_close(result.output, session.execution.output)
        assert counted_dispatches
        # A correct DOALL's shared writes are disjoint across workers,
        # so what the children report adds up to what the parent saw.
        for stats, changed in counted_dispatches:
            assert stats.backend == "processes"
            assert stats.dirty_slots == changed
        if kernel == "EP":
            # Reductions only: private copies come home whole and are
            # joined; no shared slot moves during the dispatch.
            assert [changed for _stats, changed in counted_dispatches] == [0]
        else:
            assert any(changed for _stats, changed in counted_dispatches)

    def test_two_workers_writing_disjoint_halves_both_land(self):
        module = compile_source(DISJOINT_HALVES)
        reference = run_source_plan(module, workers=2, backend="threads")
        result = run_source_plan(module, workers=2, backend="processes")
        assert result.output == reference.output == [(None, (3, 24, 27, 48))]
        (region,) = result.parallel_regions
        assert region["backend"] == "processes"
        # ``t`` is allocated inside the body: scratch in no table, so
        # the sixteen array slots are all that came home.
        assert region["dirty_slots"] == 16
        assert [w["iterations"] for w in region["per_worker"]] == [8, 8]


    def test_unknown_private_alloca_is_an_error_naming_the_region(
        self, monkeypatch
    ):
        real = backends.ProcessesBackend._dispatch_once

        def tampering(self, interp, *args):
            table, completed = real(self, interp, *args)
            completed[0][1]["alloca_privates"][987654] = [0]
            return table, completed

        monkeypatch.setattr(
            backends.ProcessesBackend, "_dispatch_once", tampering
        )
        with pytest.raises(
            EmulationError, match=r"region for\.header.*%987654"
        ):
            run_source_plan(
                compile_source(DISJOINT_HALVES), workers=2,
                backend="processes",
            )


class TestPlainBodyOnly:
    """A loop has one compiled body: the stage lowers it once, and a
    pool worker runs that one, under the ``VERIFY_COMPILED`` oracle too."""

    @pytest.mark.parametrize("armed", [False, True])
    def test_an_in_process_child_runs_the_one_body(self, armed, monkeypatch):
        monkeypatch.setattr(knobs, "VERIFY_COMPILED", armed)
        wires = []
        real = payload_codec.encode_region

        def spy(**kwargs):
            encoded = real(**kwargs)
            codec = encoded.codec
            wires.append((codec.key, codec.module_bytes,
                          encoded.workers[0].wire()))
            return encoded

        monkeypatch.setattr(backends.payload_codec, "encode_region", spy)
        Session.from_kernel("CG").run(
            "PS-PDG", workers=4, backend="processes"
        )
        interpreted = []
        run_chunk = backends._WorkerInterpreter.run_chunk

        def counting(self, *args, **kwargs):
            interpreted.append(1)
            return run_chunk(self, *args, **kwargs)

        monkeypatch.setattr(
            backends._WorkerInterpreter, "run_chunk", counting
        )
        codegen_cache.reset()
        key, module_bytes, wire = wires[0]
        payload_codec.install_module(key, module_bytes)
        report = backends._pool_chunk_entry(wire)
        assert "error" not in report, report
        # One lowered body; armed, the interpreter ran it too, the
        # oracle agreed, and the interpreter's effects came home.
        assert report["stats"].compiled_chunks == 1
        assert interpreted == [1] * armed
        assert report["stats"].dirty_slots == len(report["diffs"]) > 0
        assert codegen_cache.stats()["compiles"] == 1

    @pytest.mark.parametrize("kernel,opt", [("LU", 2), ("FT", 2), ("SP", 3)])
    def test_cold_stage_lowers_one_body_per_loop(self, kernel, opt):
        summary = Session.from_kernel(kernel, opt_level=opt).compiled_regions
        assert summary["compiled"] and not summary["fallback"]
        assert summary["codegen"]["compiles"] == len(summary["compiled"])


class TestModuleByteCache:
    def test_module_ships_once_per_pool(self):
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
        # A new pool's workers hold nothing: the next run must
        # broadcast again.
        backends._reset_chunk_pool()
        third = session.run("PS-PDG", workers=4, backend="processes")
        bytes_third = sum(
            r["payload_bytes"] for r in third.parallel_regions
        )
        assert bytes_third >= bytes_second + module_bytes

    @pytest.mark.parametrize("kernel", ["EP", "LU"])
    def test_first_contact_ships_one_copy_per_child(
            self, kernel, monkeypatch):
        """A fresh two-child pool, four payloads a region: the module's
        bytes go to each child once — with the first payload it gets —
        not with every payload of the first region."""
        monkeypatch.setattr(backends, "_desired_pool_size", lambda _n: 2)
        session = Session.from_kernel(kernel, opt_level=2)

        def run():
            result = session.run("PS-PDG", workers=4, backend="processes")
            assert outputs_close(result.output, session.execution.output)
            regions = result.parallel_regions
            assert any(r["backend"] == "processes" for r in regions)
            assert all(r["retry_payload_bytes"] == 0 for r in regions)
            return sum(r["payload_bytes"] for r in regions)

        first, second = run(), run()
        module_bytes = len(
            payload_codec.module_codec(session.module).module_bytes
        )
        assert first == second + 2 * module_bytes

    def test_a_module_the_child_lacks_is_a_decode_error(self):
        wire = ("no-such-key", b"", b"", b"")
        with pytest.raises(ReproError, match="not installed"):
            payload_codec.decode_payload(wire)
        report = backends._pool_chunk_entry(wire)
        assert report["phase"] == "decode"
        assert "not installed" in report["error"]

    def test_codec_cache_reuses_by_identity(self):
        session = Session.from_kernel("EP")
        first = payload_codec.module_codec(session.module)
        assert payload_codec.module_codec(session.module) is first

    def test_a_module_the_pickler_cannot_walk_is_a_typed_error(
            self, monkeypatch):
        """Before 3.13, CPython's pickler runs out of recursion on ``if``s
        nested a hundred deep (``test_structured_lowering`` runs one);
        the codec names the module in a :class:`ReproError`."""
        module = compile_source(ROTATING % 0)

        class Exhausted(pickle.Pickler):
            def dump(self, obj):
                raise RecursionError("maximum recursion depth exceeded")

        monkeypatch.setattr(payload_codec.pickle, "Pickler", Exhausted)
        with pytest.raises(ReproError, match=f"module {module.name!r}"):
            payload_codec.module_codec(module)

    def test_reset_keeps_module_bytes(self):
        session = Session.from_kernel("EP")
        codec = payload_codec.module_codec(session.module)
        backends._chunk_pool(2)
        backends._reset_chunk_pool()
        # The parent-side pickled-module LRU names no pool and is
        # expensive to rebuild: replacing the pool must not drop it.
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
        list(range(40, 0, -3)),  # descending run
        list(range(-8, 8)) + [-20, -30, -40],  # negative starts
    ])
    def test_iteration_packing_roundtrips(self, values):
        packed = payload_codec._pack_iterations(values)
        assert payload_codec._unpack_iterations(packed) == list(values)
