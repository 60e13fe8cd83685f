"""CalibrationStore: EWMA behavior, outlier rejection, persistence.

The store is the profile-guided planning substrate: region stats in,
measured MachineModel coefficients and per-program wire feedback out.
These tests drive it with hand-built :class:`RegionStats` records (the
runtime's published shape) so each estimator is pinned without spinning
up a pool.
"""

import json
import os
import stat

import pytest

from repro.planner.calibration import (
    DECAY,
    OUTLIER_MIN_SAMPLES,
    PAYLOAD_SAMPLE_FLOOR,
    CalibrationStore,
)
from repro.planner.machine import DEFAULT_MACHINE
from repro.util.regionstats import RegionStats

# A profile file the store opens must be closed when ``load`` returns: a
# leaked handle surfaces as a ResourceWarning from the finalizer, which
# pytest reports as an unraisable exception.
pytestmark = pytest.mark.filterwarnings(
    "error::ResourceWarning",
    "error::pytest.PytestUnraisableExceptionWarning",
)


def region(header="for.header.0", *, seconds=0.5, worker_seconds=(0.1, 0.1),
           worker_steps=(100, 100), payloads=0, payload_bytes=0,
           backend="processes",
           retries=0, failovers=0, faults_injected=0, **extra):
    """One runtime region record, minimally populated."""
    return RegionStats(
        header=header,
        backend=backend,
        workers=len(worker_seconds),
        iterations=sum(worker_steps),
        seconds=seconds,
        per_worker=[
            {"worker": i, "iterations": steps, "steps": steps,
             "seconds": secs}
            for i, (steps, secs) in enumerate(
                zip(worker_steps, worker_seconds)
            )
        ],
        payloads=payloads,
        payload_bytes=payload_bytes,
        retries=retries,
        failovers=failovers,
        faults_injected=faults_injected,
        **extra,
    )


class TestEwma:
    def test_first_sample_is_taken_verbatim(self):
        store = CalibrationStore()
        assert store._update("threads_region_cost", 1000.0)
        assert store.coefficients["threads_region_cost"]["value"] == 1000.0

    def test_later_samples_decay(self):
        store = CalibrationStore()
        store._update("threads_region_cost", 1000.0)
        store._update("threads_region_cost", 2000.0)
        expected = (1 - DECAY) * 1000.0 + DECAY * 2000.0
        assert store.coefficients["threads_region_cost"]["value"] == expected

    def test_unusable_samples_rejected(self):
        store = CalibrationStore()
        for bad in (0.0, -1.0, float("nan"), float("inf"), None, True):
            assert not store._update("compiled_speedup", bad)
        assert not store.measured_coefficients()

    def test_outliers_rejected_after_settling(self):
        store = CalibrationStore()
        for _ in range(OUTLIER_MIN_SAMPLES):
            store._update("payload_cost_per_byte", 0.01)
        assert not store._update("payload_cost_per_byte", 10.0)  # 1000x
        entry = store.coefficients["payload_cost_per_byte"]
        assert entry["rejected"] == 1
        assert entry["value"] == 0.01

    def test_outliers_accepted_while_settling(self):
        # Before OUTLIER_MIN_SAMPLES the estimate is not trusted yet.
        store = CalibrationStore()
        store._update("payload_cost_per_byte", 0.01)
        assert store._update("payload_cost_per_byte", 10.0)


class TestObserveRun:
    def test_processes_overhead_splits_dispatch_and_wire(self):
        store = CalibrationStore()
        assert store.observe_run([
            region(seconds=1.0, worker_seconds=(0.25, 0.25),
                   worker_steps=(1000, 1000), payloads=2,
                   payload_bytes=10_000),
        ])
        measured = store.measured_coefficients()
        assert "threads_region_cost" in measured
        assert "payload_cost_per_byte" in measured
        assert "serial_region_cost" in measured
        # rate = 2000 steps / 0.5s = 4000 steps/s; overhead 0.75s ->
        # 3000 steps, half to dispatch, half over 10k bytes.
        assert measured["threads_region_cost"][0] == 1500.0
        assert measured["payload_cost_per_byte"][0] == 1500.0 / 10_000

    def test_tiny_payloads_yield_no_per_byte_sample(self):
        # A region whose whole shared state is below the floor: all the
        # overhead is fixed dispatch, none of it prices the wire.
        store = CalibrationStore()
        store.observe_run([
            region(seconds=1.0, worker_seconds=(0.25, 0.25),
                   worker_steps=(1000, 1000), payloads=2,
                   payload_bytes=PAYLOAD_SAMPLE_FLOOR - 1),
        ])
        measured = store.measured_coefficients()
        assert "payload_cost_per_byte" not in measured
        # Full (not half) overhead goes to the dispatch bar: 3000 steps.
        assert measured["threads_region_cost"][0] == 3000.0

    def test_dispatched_tiny_program_stays_under_the_floor(self):
        """The case the floor still exists for, end to end: a program
        whose whole shared state is a few scalars ships a few hundred
        bytes per region once its module is out."""
        from repro import Session

        session = Session.from_source("""
        global a: int[8];

        func main() {
          pragma omp parallel for
          for i in 0..8 {
            a[i] = i * 3;
          }
          print(a[5]);
        }
        """, name="tiny-state")
        session.run("PS-PDG", workers=2, backend="processes", opt=0)
        result = session.run("PS-PDG", workers=2, backend="processes", opt=0)
        (dispatch,) = result.parallel_regions
        assert dispatch.backend == "processes"
        assert 0 < dispatch.payload_bytes < PAYLOAD_SAMPLE_FLOOR
        store = CalibrationStore()
        assert store.observe_run(result.parallel_regions)
        measured = store.measured_coefficients()
        assert "payload_cost_per_byte" not in measured
        assert "threads_region_cost" in measured

    def test_threads_overhead_is_all_dispatch(self):
        store = CalibrationStore()
        store.observe_run([
            region(backend="threads", seconds=0.5,
                   worker_seconds=(0.25, 0.25), worker_steps=(500, 500)),
        ])
        measured = store.measured_coefficients()
        assert "payload_cost_per_byte" not in measured
        assert measured["threads_region_cost"][0] == 0.25 * 2000.0

    def test_recovery_inflated_regions_are_excluded(self):
        store = CalibrationStore()
        accepted = store.observe_run([
            region(seconds=5.0, worker_seconds=(0.1, 0.1),
                   worker_steps=(100, 100), payloads=2,
                   payload_bytes=1000, retries=1),
            region(seconds=5.0, worker_seconds=(0.1, 0.1),
                   worker_steps=(100, 100), payloads=2,
                   payload_bytes=1000, failovers=1),
            region(seconds=5.0, worker_seconds=(0.1, 0.1),
                   worker_steps=(100, 100), payloads=2,
                   payload_bytes=1000, faults_injected=1),
        ])
        assert not accepted
        assert not store.measured_coefficients()
        assert store.runs == 0

    def test_untimed_workers_produce_no_samples(self):
        # The simulated oracle's workers carry seconds=0.0.
        store = CalibrationStore()
        accepted = store.observe_run([
            region(backend="simulated(seed=0)", seconds=0.001,
                   worker_seconds=(0.0, 0.0), worker_steps=(100, 100)),
        ])
        assert not accepted

    def test_version_moves_only_on_acceptance(self):
        store = CalibrationStore()
        before = store.version
        store.observe_run([region(retries=1)])
        assert store.version == before
        store.observe_run([
            region(seconds=1.0, worker_seconds=(0.2, 0.2),
                   worker_steps=(500, 500), payloads=2,
                   payload_bytes=5000),
        ])
        assert store.version == before + 1

    def test_region_feedback_is_per_program(self):
        store = CalibrationStore()
        store.observe_run(
            [region(payloads=2, payload_bytes=8192,
                    worker_seconds=(0.2, 0.2), worker_steps=(500, 500),
                    seconds=1.0)],
            program_key="prog-a",
        )
        payload_bytes, _ = store.region_feedback("prog-a")
        assert payload_bytes == {"for.header.0": 4096}
        assert store.region_feedback("prog-b") == ({}, {})


class TestPersistence:
    def test_save_load_round_trip(self, tmp_path):
        path = str(tmp_path / "nested" / "profile.json")
        store = CalibrationStore(path)
        store.observe_run(
            [region(seconds=1.0, worker_seconds=(0.2, 0.2),
                    worker_steps=(500, 500), payloads=2,
                    payload_bytes=5000)],
            program_key="prog-a",
        )
        saved = store.save()
        assert saved == path

        warm = CalibrationStore(path)
        assert warm.measured_coefficients() == store.measured_coefficients()
        assert warm.region_feedback("prog-a") == \
            store.region_feedback("prog-a")
        assert warm.runs == store.runs

    def test_a_failed_save_keeps_the_previous_profile(
            self, tmp_path, monkeypatch):
        path = str(tmp_path / "profile.json")
        store = CalibrationStore(path)
        store.observe_run(
            [region(seconds=1.0, worker_seconds=(0.2, 0.2),
                    worker_steps=(500, 500), payloads=2,
                    payload_bytes=5000)],
            program_key="prog-a",
        )
        store.save()
        saved = CalibrationStore(path).measured_coefficients()
        assert saved

        store._update("compiled_speedup", 3.0)

        def broken_dump(*_args, **_kwargs):
            raise OSError("disk full")

        monkeypatch.setattr(json, "dump", broken_dump)
        with pytest.raises(OSError, match="disk full"):
            store.save()
        monkeypatch.undo()
        assert CalibrationStore(path).measured_coefficients() == saved
        assert os.listdir(tmp_path) == ["profile.json"]
        # The profile keeps the mode a plain open() gives it.
        umask = os.umask(0)
        os.umask(umask)
        assert stat.S_IMODE(os.stat(path).st_mode) == 0o666 & ~umask

    def test_missing_file_is_empty(self, tmp_path):
        store = CalibrationStore(str(tmp_path / "absent.json"))
        assert not store.measured_coefficients()

    def test_corrupt_file_is_empty(self, tmp_path):
        path = tmp_path / "corrupt.json"
        path.write_text("{not json")
        assert not CalibrationStore(str(path)).measured_coefficients()

    @staticmethod
    def _profile():
        """A well-formed schema-2 profile: two coefficients, one program
        with two labels."""
        return {
            "schema": 2, "runs": 3, "version": 3,
            "machine": {
                "compiled_speedup":
                    {"value": 2.0, "samples": 3, "rejected": 0},
                "threads_region_cost":
                    {"value": 900.0, "samples": 3, "rejected": 1},
            },
            "programs": {"prog-a": {
                "for.header.0":
                    {"payload_bytes": 4096.0, "compiled_speedup": 1.5},
                "for.header.1": {"payload_bytes": 512.0},
            }},
        }

    @pytest.mark.parametrize("damage, survivor", [
        (lambda d: d.update(runs="x"), None),
        (lambda d: d.update(runs=None), None),
        (lambda d: d.update(machine=[]), None),
        (lambda d: d["machine"].update(threads_region_cost=7),
         lambda d: d["machine"].pop("threads_region_cost")),
        (lambda d: d["machine"]["threads_region_cost"].update(samples="x"),
         lambda d: d["machine"].pop("threads_region_cost")),
        (lambda d: d["programs"].update(k=5), lambda d: None),
        (lambda d: d["programs"]["prog-a"].update({"for.header.1": 5}),
         lambda d: d["programs"]["prog-a"].pop("for.header.1")),
        (lambda d: d["programs"]["prog-a"].update({"for.header.1": {
            "payload_bytes": float("nan"), "compiled_speedup": -1.0,
        }}), lambda d: d["programs"]["prog-a"]["for.header.1"].clear()),
    ], ids=[
        "runs-str", "runs-null", "machine-list", "coefficient-number",
        "samples-str", "program-number", "label-number", "feedback-nan",
    ])
    def test_malformed_profile_drops_what_does_not_parse(
            self, tmp_path, damage, survivor):
        """A wrong top-level shape loads as an empty store; a bad entry
        is skipped and the rest of the profile loads as written.
        ``survivor`` cuts the damaged part out of the clean profile
        (``None``: nothing survives)."""
        damaged = self._profile()
        damage(damaged)
        path = tmp_path / "damaged.json"
        path.write_text(json.dumps(damaged))
        store = CalibrationStore(str(path))
        expected = CalibrationStore()
        if survivor is not None:
            clean = self._profile()
            survivor(clean)
            expected.from_dict(clean)
        assert store.to_dict() == expected.to_dict()
        # What planning asks of a warm store must answer, not raise.
        assert store.region_feedback("prog-a") == \
            expected.region_feedback("prog-a")
        assert store.calibrated_machine() == expected.calibrated_machine()

    def test_stale_schema_is_ignored(self, tmp_path):
        path = tmp_path / "stale.json"
        store = CalibrationStore()
        store._update("compiled_speedup", 2.0)
        data = store.to_dict()
        data["schema"] = -1
        path.write_text(json.dumps(data))
        assert not CalibrationStore(str(path)).measured_coefficients()

    def test_schema_1_profile_loads_as_no_measurements(self, tmp_path):
        # What a pre-stateless-dispatch writer left behind: its
        # coefficients were estimated against a wire that no longer
        # exists, so none of them — not even the still-known names — is
        # adopted.
        path = tmp_path / "schema1.json"
        path.write_text(json.dumps({
            "schema": 1, "runs": 3, "version": 3,
            "machine": {
                "payload_cost_per_byte":
                    {"value": 0.5, "samples": 3, "rejected": 0},
                "prelude_cache_discount":
                    {"value": 0.9, "samples": 3, "rejected": 0},
            },
            "programs": {"prog-a": {"for.header.0": {
                "payload_bytes": 300.0, "prelude_warm": 1.0,
            }}},
        }))
        store = CalibrationStore(str(path))
        assert not store.measured_coefficients()
        assert store.runs == 0
        assert store.region_feedback("prog-a") == ({}, {})

    def test_unknown_coefficients_skipped_on_load(self, tmp_path):
        path = tmp_path / "future.json"
        store = CalibrationStore()
        store._update("compiled_speedup", 2.0)
        data = store.to_dict()
        data["machine"]["quantum_dispatch_cost"] = {
            "value": 1.0, "samples": 5, "rejected": 0
        }
        path.write_text(json.dumps(data))
        warm = CalibrationStore(str(path))
        assert set(warm.measured_coefficients()) == {"compiled_speedup"}

    def test_describe_mentions_static_and_measured(self):
        store = CalibrationStore()
        store._update("compiled_speedup", 2.0)
        text = store.describe(DEFAULT_MACHINE)
        assert "compiled_speedup" in text
        assert "(static)" in text  # the never-observed coefficients

