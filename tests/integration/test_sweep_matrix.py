"""Cross-path sweep equivalence matrix.

Every way the repo can run a parameter sweep must agree on the same
grid.  For the analytical model the bar is **byte identity**: the
batched kernel, the per-point path (serial and pooled), the
checkpoint-resumed path, the service ``/sweep`` endpoint, and the
distributed work-stealing path (1, 2, and 4 workers) must produce the
same ``json.dumps`` bytes for the rows, and paths that write a
checkpoint must write the same file bytes.  For Monte Carlo the bar is
**seed identity**: per-point, distributed, and resumed paths share the
common-random-numbers design, so the same root seed gives the same
rows bitwise; the fused engine is its own deterministic path and meets
the per-point rows at ``N = max(num_sensors)`` bitwise.
"""

import asyncio
import json

import pytest

from repro.experiments.presets import small_scenario
from repro.experiments.sweeps import (
    analytical_grid_sweep,
    distributed_grid_sweep,
    simulated_grid_sweep,
)

GRIDS = {"num_sensors": [8, 12, 16], "threshold": [1, 2]}
MC_GRIDS = {"num_sensors": [6, 10]}
MC_TRIALS = 300
MC_SEED = 20080619


@pytest.fixture(scope="module")
def scenario():
    return small_scenario()


@pytest.fixture(scope="module")
def serial_rows(scenario):
    """The reference: the batched serial path."""
    return analytical_grid_sweep(scenario, GRIDS)


def _bytes(rows):
    return json.dumps(rows, sort_keys=True)


class TestAnalyticalMatrix:
    def test_per_point_serial_matches_batched(self, scenario, serial_rows):
        rows = analytical_grid_sweep(scenario, GRIDS, batch=False)
        assert _bytes(rows) == _bytes(serial_rows)

    def test_per_point_pooled_matches_batched(self, scenario, serial_rows):
        rows = analytical_grid_sweep(scenario, GRIDS, batch=False, workers=2)
        assert _bytes(rows) == _bytes(serial_rows)

    def test_checkpoint_resume_matches_fresh(
        self, scenario, serial_rows, tmp_path
    ):
        fresh_ck = tmp_path / "fresh.json"
        resumed_ck = tmp_path / "resumed.json"
        fresh = analytical_grid_sweep(
            scenario, GRIDS, checkpoint=str(fresh_ck)
        )
        state = json.loads(fresh_ck.read_text())
        for lost in ("1", "4"):
            del state["completed"][lost]
        resumed_ck.write_text(json.dumps(state))
        resumed = analytical_grid_sweep(
            scenario, GRIDS, checkpoint=str(resumed_ck)
        )
        assert _bytes(fresh) == _bytes(resumed) == _bytes(serial_rows)
        assert fresh_ck.read_bytes() == resumed_ck.read_bytes()

    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_distributed_matches_serial(
        self, scenario, serial_rows, tmp_path, workers
    ):
        dist_ck = tmp_path / f"dist{workers}.json"
        serial_ck = tmp_path / f"serial{workers}.json"
        rows = distributed_grid_sweep(
            scenario,
            GRIDS,
            workers=workers,
            checkpoint=str(dist_ck),
            timeout=120,
        )
        assert _bytes(rows) == _bytes(serial_rows)
        analytical_grid_sweep(scenario, GRIDS, checkpoint=str(serial_ck))
        assert dist_ck.read_bytes() == serial_ck.read_bytes()

    def test_service_sweep_matches_serial_axis(self, scenario):
        from repro.service import AnalysisService, ServiceConfig

        axis = [8, 12, 16]
        reference = analytical_grid_sweep(scenario, {"num_sensors": axis})

        async def drive():
            service = AnalysisService(ServiceConfig(workers=1, replicas=1))
            try:
                body = json.dumps(
                    {
                        "scenario": scenario.to_dict(),
                        "parameter": "num_sensors",
                        "values": axis,
                    }
                ).encode()
                status, _, payload = await service.dispatch(
                    "POST", "/sweep", body
                )
                return status, json.loads(payload)
            finally:
                await service.stop()

        status, payload = asyncio.run(drive())
        assert status == 200
        assert _bytes(payload["rows"]) == _bytes(reference)


class TestMonteCarloMatrix:
    @pytest.fixture(scope="class")
    def per_point_rows(self, scenario):
        return simulated_grid_sweep(
            scenario, MC_GRIDS, trials=MC_TRIALS, seed=MC_SEED, fused=False
        )

    def test_distributed_matches_per_point_serial(
        self, scenario, per_point_rows, tmp_path
    ):
        dist_ck = tmp_path / "dist.json"
        serial_ck = tmp_path / "serial.json"
        rows = distributed_grid_sweep(
            scenario,
            MC_GRIDS,
            kind="simulated",
            trials=MC_TRIALS,
            seed=MC_SEED,
            workers=2,
            checkpoint=str(dist_ck),
            timeout=300,
        )
        assert _bytes(rows) == _bytes(per_point_rows)
        simulated_grid_sweep(
            scenario,
            MC_GRIDS,
            trials=MC_TRIALS,
            seed=MC_SEED,
            fused=False,
            checkpoint=str(serial_ck),
        )
        assert dist_ck.read_bytes() == serial_ck.read_bytes()

    def test_resumed_matches_fresh(self, scenario, per_point_rows, tmp_path):
        path = tmp_path / "ck.json"
        simulated_grid_sweep(
            scenario,
            MC_GRIDS,
            trials=MC_TRIALS,
            seed=MC_SEED,
            fused=False,
            checkpoint=str(path),
        )
        state = json.loads(path.read_text())
        del state["completed"]["0"]
        path.write_text(json.dumps(state))
        resumed = simulated_grid_sweep(
            scenario,
            MC_GRIDS,
            trials=MC_TRIALS,
            seed=MC_SEED,
            fused=False,
            checkpoint=str(path),
        )
        assert _bytes(resumed) == _bytes(per_point_rows)

    def test_fused_path_is_deterministic(self, scenario):
        first = simulated_grid_sweep(
            scenario, MC_GRIDS, trials=MC_TRIALS, seed=MC_SEED, fused=True
        )
        second = simulated_grid_sweep(
            scenario, MC_GRIDS, trials=MC_TRIALS, seed=MC_SEED, fused=True
        )
        assert _bytes(first) == _bytes(second)

    def test_fused_meets_per_point_at_full_population(
        self, scenario, per_point_rows
    ):
        """The common-random-numbers contract from the fused engine: at
        ``N = max(num_sensors)`` both paths draw the same trials."""
        fused = simulated_grid_sweep(
            scenario, MC_GRIDS, trials=MC_TRIALS, seed=MC_SEED, fused=True
        )
        n_max = max(MC_GRIDS["num_sensors"])
        fused_row = next(r for r in fused if r["num_sensors"] == n_max)
        serial_row = next(
            r for r in per_point_rows if r["num_sensors"] == n_max
        )
        assert fused_row == serial_row


class TestCrossEntryBits:
    """One question, every entry point: the same bits.

    ``/analyze``, ``/sweep``, the sweep layer, the design evaluator and
    the figures all run the one M-S-approach engine, so the answer to
    "P[X >= k] at this scenario" must agree to the last bit (compared by
    ``float.hex``), whether it was computed as a singleton or as one row
    of a larger grid.
    """

    def test_analyze_sweep_grid_design_and_figure_agree(self):
        from repro.adaptive import InProcessEvaluator
        from repro.experiments.figures import fig9a_straight_line
        from repro.experiments.presets import onr_scenario
        from repro.service.handlers import (
            canonicalize_analyze,
            canonicalize_sweep,
            compute_analyze,
            compute_sweep,
        )

        count, speed = 240, 10.0
        scenario = onr_scenario(num_sensors=count, speed=speed)
        axis = [120, count]
        answers = {
            "analyze": compute_analyze(
                canonicalize_analyze({"scenario": scenario.to_dict()})
            )["detection_probability"],
            "sweep": compute_sweep(
                canonicalize_sweep(
                    {
                        "scenario": scenario.to_dict(),
                        "parameter": "num_sensors",
                        "values": axis,
                    }
                )
            )["rows"][1]["detection_probability"],
            "grid": analytical_grid_sweep(scenario, {"num_sensors": axis})[1][
                "detection_probability"
            ],
            "design": InProcessEvaluator().evaluate(
                scenario, [{"num_sensors": count}]
            )[0],
            "figure": fig9a_straight_line(
                node_counts=[count], speeds=[speed], trials=20, seed=7
            ).rows[0]["analysis"],
        }
        bits = {name: float.hex(value) for name, value in answers.items()}
        assert len(set(bits.values())) == 1, bits

    @pytest.mark.parametrize(
        "parameter, axis",
        [("num_sensors", [120, 240]), ("detect_prob", [0.5, 0.9])],
    )
    def test_sweep_entry_points_agree_per_row(self, parameter, axis):
        """A batched and a non-batched axis: ``/sweep``, both serial
        dispatch modes and the fleet run the same point function or the
        same one-pass grid, row for row."""
        from repro.experiments.presets import onr_scenario
        from repro.service.handlers import canonicalize_sweep, compute_sweep

        scenario = onr_scenario(num_sensors=240, speed=10.0)
        grids = {parameter: axis}
        answers = {
            "sweep": compute_sweep(
                canonicalize_sweep(
                    {
                        "scenario": scenario.to_dict(),
                        "parameter": parameter,
                        "values": axis,
                    }
                )
            )["rows"],
            "grid": analytical_grid_sweep(scenario, grids),
            "per_point": analytical_grid_sweep(scenario, grids, batch=False),
            "distributed": distributed_grid_sweep(
                scenario, grids, workers=2, timeout=120
            ),
        }
        bits = {
            name: tuple(
                float.hex(row["detection_probability"]) for row in rows
            )
            for name, rows in answers.items()
        }
        assert len(set(bits.values())) == 1, bits

    @pytest.mark.parametrize(
        "parameter, axis", [("num_sensors", [6, 10]), ("threshold", [1, 2, 3])]
    )
    def test_simulate_sweep_matches_simulated_grid_sweep(
        self, scenario, parameter, axis
    ):
        from repro.service.handlers import (
            canonicalize_simulate,
            compute_simulate,
        )

        response = compute_simulate(
            canonicalize_simulate(
                {
                    "scenario": scenario.to_dict(),
                    "trials": MC_TRIALS,
                    "seed": MC_SEED,
                    "sweep": {"parameter": parameter, "values": axis},
                }
            )
        )
        rows = simulated_grid_sweep(
            scenario, {parameter: axis}, trials=MC_TRIALS, seed=MC_SEED
        )
        assert [row["detections"] for row in response["rows"]] == [
            row["detections"] for row in rows
        ]
        assert [
            float.hex(row["detection_probability"]) for row in response["rows"]
        ] == [float.hex(row["detection_probability"]) for row in rows]
