"""Chunk-pool sizing and lifecycle (processes backend).

The persistent pool is sized from the planner's machine-model core
count (clamped to real CPUs and a hard cap) and lives as long as the
process: only a wider request or a reset (infrastructure failure,
exit) replaces it.  What bounds a worker is its ledger — the parent's
per-child list of the modules that child holds, at most
``MODULE_CACHE_CAP`` — which is that pool's own state: built with it,
dead with it.
"""

import os
import sys
import threading

import pytest

from repro import Session
from repro.planner.machine import MachineModel
from repro.runtime import backends, payload
from support.conformance import outputs_close
from support.programs import ROTATING


def _call(pool, function, *args):
    """``function(*args)`` on one child of ``pool`` (the first idle)."""
    with pool.lock:
        (reply,), _copies = pool.run(
            [(function, args)], backends._PROCESS_TIMEOUT
        )
    return reply


def _decoded_modules_held():
    """Called in a pool child: how many decoded modules it holds."""
    return len(payload._DECODED_MODULES)


def _running(pids):
    """Those of ``pids`` that are still processes (not yet reaped)."""
    running = []
    for pid in pids:
        try:
            os.kill(pid, 0)  # signal 0: an existence check only
        except ProcessLookupError:
            continue
        running.append(pid)
    return running


def _rotating_sessions(count):
    """``count`` one-region programs, each its own module content."""
    return [
        Session.from_source(ROTATING % index, name=f"rotating-{index}")
        for index in range(count)
    ]


def _run(session):
    result = session.run("PS-PDG", workers=2, backend="processes", opt=0)
    assert result.output == session.execution.output
    assert all(r["backend"] == "processes" for r in result.parallel_regions)
    return result.parallel_regions


def _module_bytes(session):
    return len(payload.module_codec(session.module).module_bytes)


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
        assert grown.size == len(grown.children) == 4
        assert small.closed and not grown.closed
        # A smaller request reuses the wider pool: alternating callers
        # (session machine model vs the None default) must not thrash
        # teardown/re-fork cycles.
        assert backends._chunk_pool(2) is grown

    def test_300_regions_keep_the_pool_and_its_children(self):
        """No region budget: region 300 runs on the pool and the child
        processes of region 1, every output the sequential one."""
        sessions = _rotating_sessions(4) + [Session.from_kernel("EP")]
        regions = len(_run(sessions[0]))
        pool = backends._chunk_pool(2)
        first_pids = [child.pid for child in pool.children]
        assert len(first_pids) == pool.size
        turn = 0
        while regions < 300:
            turn += 1
            regions += len(_run(sessions[turn % len(sessions)]))
        assert backends._chunk_pool(2) is pool
        assert [child.pid for child in pool.children] == first_pids
        assert all(child.is_alive() for child in pool.children)
        # The first idle child answers a probe, on the pipe it was forked with.
        assert _call(pool, os.getpid) == first_pids[0]

    def test_reset_pool_starts_with_empty_ledgers(self):
        """A reset kills the children, and the pool built next has a
        ledger per child that names nothing — the supervisor's recovery
        depends on the next dispatch attaching module bytes no live
        worker holds."""
        session = Session.from_kernel("EP")
        key = payload.module_codec(session.module).key
        _run(session)
        old = backends._chunk_pool(2)
        pids = [child.pid for child in old.children]
        assert any(key in ledger for ledger in old.ledgers.values())
        backends._reset_chunk_pool()
        assert old.closed and _running(pids) == []
        backends._reset_chunk_pool(old)  # a second reset is a no-op
        fresh = backends._chunk_pool(2)
        assert fresh is not old
        assert set(fresh.ledgers) == set(fresh.pipes)
        assert not any(fresh.ledgers.values())
        assert _call(fresh, _decoded_modules_held) == 0
        first = _run(session)[0]
        assert first["retry_payload_bytes"] == 0
        assert first["payload_bytes"] > _module_bytes(session)

    def test_a_reset_between_taking_the_pool_and_sending(self, monkeypatch):
        """Another dispatching thread's reset lands after this one took
        the pool: the first send meets a closed pipe, nothing was
        collected, and the region retries on a fresh pool like any other
        infrastructure failure."""
        real = backends._chunk_pool
        resets = []

        def racing(requested=None):
            taken = real(requested)
            if not resets:
                resets.append(taken)
                backends._reset_chunk_pool()  # the other thread's
            return taken

        monkeypatch.setattr(backends, "_chunk_pool", racing)
        monkeypatch.setattr(backends, "RETRY_BACKOFF", 0.0)
        regions = _run(Session.from_kernel("EP"))  # the sequential output
        assert resets and regions[0]["retries"] >= 1
        assert resets[0].closed
        assert backends._chunk_pool(2) is not resets[0]

    def test_a_worker_holds_at_most_the_module_cap(self, monkeypatch):
        """What bounds a worker: ``MODULE_CACHE_CAP + 4`` modules through
        one child leave it ``MODULE_CACHE_CAP`` decoded ones, exactly its
        ledger; an evicted module comes back with its bytes attached up
        front and is lowered again, a resident one ships no module
        bytes."""
        monkeypatch.setattr(backends, "_desired_pool_size", lambda _n: 1)
        cap = payload.MODULE_CACHE_CAP
        sessions = _rotating_sessions(cap + 4)
        keys = [payload.module_codec(s.module).key for s in sessions]
        smallest = min(_module_bytes(session) for session in sessions)
        for session in sessions:  # first contact: attached up front
            (region,) = _run(session)
            assert region["retry_payload_bytes"] == 0
            assert region["payload_bytes"] > _module_bytes(session)
        pool = backends._chunk_pool()
        (ledger,) = pool.ledgers.values()
        assert list(ledger) == keys[-cap:]
        assert _call(pool, _decoded_modules_held) == cap
        # Module 0 was evicted and the ledger says so: its one child gets
        # the bytes with the first payload, and no payload goes twice.
        (region,) = _run(sessions[0])
        used = sum(1 for row in region["per_worker"] if row["iterations"])
        assert region["payloads"] == used
        assert region["retry_payload_bytes"] == 0
        assert region["payload_bytes"] > _module_bytes(sessions[0])
        # Re-decoded into new objects, so lowered again: the codegen
        # cache is keyed by the module object, never by content.
        assert region["codegen_compiles"] > 0
        assert region["codegen_source_hits"] == 0
        assert _call(pool, _decoded_modules_held) == cap
        # Resident now: the last cap - 1 of the first pass, and module 0.
        for session in sessions[-(cap - 1):] + sessions[:1]:
            (region,) = _run(session)
            assert region["retry_payload_bytes"] == 0
            assert region["payload_bytes"] < smallest
        assert _call(pool, _decoded_modules_held) == cap
        assert backends._chunk_pool() is pool

    def test_run_after_reset_reships_full_state(self):
        """Post-reset, the first region carries everything the fresh
        workers need — module and state attached up front, and no
        payload is sent twice."""
        session = Session.from_kernel("EP")
        warm = session.run("PS-PDG", workers=2, backend="processes")
        backends._reset_chunk_pool()
        cold = session.run("PS-PDG", workers=2, backend="processes")
        assert cold.output == warm.output
        first = cold.parallel_regions[0]
        assert first["retry_payload_bytes"] == 0
        assert first["payload_bytes"] > _module_bytes(session)

    def test_session_sizes_pool_from_machine_model(self, monkeypatch):
        monkeypatch.setattr("os.cpu_count", lambda: 8)
        machine = MachineModel(cores=3)
        session = Session.from_kernel("EP", machine=machine)
        result = session.run("PS-PDG", workers=2, backend="processes")
        assert result.parallel_regions
        assert backends._POOL.size == 3


def test_two_dispatching_threads_share_a_two_child_pool(monkeypatch):
    """Five payloads a region on two children, from two Python threads at
    once: each dispatch owns the pool from its first send to its last
    reply, so every run's output is the one a lone run gives — a reply
    routed to the other thread's region would break that equality."""
    monkeypatch.setattr(backends, "_desired_pool_size", lambda _n: 2)
    sessions = [Session.from_kernel("IS"), Session.from_kernel("EP")]

    def run(session):
        return session.run("PS-PDG", opt=2, workers=5, backend="processes")

    expected = [run(session).output for session in sessions]
    for session, output in zip(sessions, expected):
        assert outputs_close(output, session.execution.output)
    pool = backends._chunk_pool()
    failures = []

    def drive(session, reference):
        try:
            for _ in range(8):
                result = run(session)
                if result.output != reference:
                    failures.append((session.config.name, result.output))
                if sum(r["retries"] for r in result.parallel_regions):
                    failures.append((session.config.name, "retried"))
        except BaseException as exc:  # reported below, on the main thread
            failures.append((session.config.name, repr(exc)))

    drivers = [
        threading.Thread(target=drive, args=pair)
        for pair in zip(sessions, expected)
    ]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # interleave the two dispatchers
    try:
        for driver in drivers:
            driver.start()
        for driver in drivers:
            driver.join(120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(driver.is_alive() for driver in drivers)
    assert failures == []
    assert backends._chunk_pool() is pool and pool.size == 2
