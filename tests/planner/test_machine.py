"""MachineModel edge cases.

The cost helpers' edge cases (zero-trip loops, non-positive payloads)
are what the calibration store's estimators can legitimately produce,
so they are pinned here rather than discovered in a calibrated run's
stack trace.
"""

import dataclasses

import pytest

from repro.planner.machine import DEFAULT_MACHINE, MachineModel


class TestSerializationCost:
    def test_zero_bytes_is_free(self):
        assert DEFAULT_MACHINE.serialization_cost(0) == 0

    def test_none_bytes_is_free(self):
        assert DEFAULT_MACHINE.serialization_cost(None) == 0

    def test_negative_bytes_is_free(self):
        assert DEFAULT_MACHINE.serialization_cost(-1024) == 0

    def test_positive_bytes_cost_at_least_one(self):
        # 1 byte * 0.01/byte truncates to 0; the clamp keeps it 1.
        assert DEFAULT_MACHINE.serialization_cost(1) == 1


class TestTileIterations:
    def test_zero_trip_loop_has_no_constraint(self):
        assert DEFAULT_MACHINE.tile_iterations(1000, 0) is None

    def test_unknown_cost_has_no_constraint(self):
        assert DEFAULT_MACHINE.tile_iterations(None, 100) is None
        assert DEFAULT_MACHINE.tile_iterations(0, 100) is None

    def test_heavy_iterations_need_no_tiling(self):
        # Per-iteration work already above the dispatch overhead.
        assert DEFAULT_MACHINE.tile_iterations(10_000_000, 10) is None

    def test_tile_never_exceeds_trip(self):
        tile = DEFAULT_MACHINE.tile_iterations(100, 10)
        assert tile == 10  # overhead wants more, trip caps it

    def test_light_iterations_get_a_tile(self):
        # cost 1000 over trip 1000 -> 1 step/iter -> tile = threads bar.
        model = MachineModel(threads_region_cost=64)
        assert model.tile_iterations(1000, 1000) == 64


class TestCalibratedMachineStaysLegal:
    """Property: calibration can never produce a non-positive coefficient."""

    def test_calibrated_coefficients_stay_positive(self):
        import random

        from repro.planner.calibration import CalibrationStore

        rng = random.Random(0xC0FFEE)
        store = CalibrationStore()
        names = (
            "payload_cost_per_byte", "serial_region_cost",
            "threads_region_cost", "compiled_speedup",
        )
        for _ in range(500):
            name = rng.choice(names)
            # Adversarial samples: zeros, negatives, denormals, huge.
            sample = rng.choice([
                0.0, -rng.random() * 1e6, rng.random() * 1e-12,
                rng.random() * 1e9, rng.random(), float("inf"),
                float("nan"),
            ])
            store._update(name, sample)
        machine = store.calibrated_machine(DEFAULT_MACHINE)
        assert machine.payload_cost_per_byte > 0
        assert machine.serial_region_cost >= 1
        assert machine.threads_region_cost >= 1
        assert machine.compiled_speedup > 0

    def test_projected_machine_survives_a_saved_profile(self, tmp_path):
        # The profile persists coefficients, not machines: a warm store
        # must project the machine the cold one did, field for field.
        from repro.planner.calibration import CalibrationStore

        path = str(tmp_path / "profile.json")
        store = CalibrationStore(path)
        for name, sample in (
            ("payload_cost_per_byte", 0.25), ("serial_region_cost", 7.4),
            ("threads_region_cost", 2999.5), ("compiled_speedup", 1.5),
            ("threads_region_cost", -3.0),
        ):
            store._update(name, sample)
        store.save()
        machine = store.calibrated_machine(DEFAULT_MACHINE)
        assert machine != DEFAULT_MACHINE
        warm = CalibrationStore(path).calibrated_machine(DEFAULT_MACHINE)
        assert warm == machine
        assert isinstance(warm.threads_region_cost, int)

    def test_replace_preserves_int_typing(self):
        from repro.planner.calibration import CalibrationStore

        store = CalibrationStore()
        store._update("threads_region_cost", 1234.56)
        machine = store.calibrated_machine(DEFAULT_MACHINE)
        assert isinstance(machine.threads_region_cost, int)
        assert machine.threads_region_cost == 1235

    def test_effective_region_cost_never_zero(self):
        model = MachineModel(compiled_speedup=100.0)
        assert model.effective_region_cost(5, compiled=True) == 1
        assert model.effective_region_cost(None, compiled=True) is None

    def test_fields_unchanged_without_observations(self):
        from repro.planner.calibration import CalibrationStore

        base = dataclasses.replace(DEFAULT_MACHINE, cores=3)
        assert CalibrationStore().calibrated_machine(base) is base


@pytest.mark.parametrize("fields, message", [
    ({"cores": 0}, "cores must be at least 1"),
    ({"cores": -3}, "cores must be at least 1"),
    ({"chunk_sizes": (1, 0, 4)}, r"chunk sizes must be at least 1, got \[0\]"),
    ({"chunk_sizes": (-2,)}, "chunk sizes must be at least 1"),
])
def test_a_machine_needs_a_core_and_positive_chunks(fields, message):
    with pytest.raises(ValueError, match=message):
        MachineModel(**fields)
