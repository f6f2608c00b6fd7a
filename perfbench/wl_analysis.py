"""analysis-slow: cold slow-target design questions, in process.

One operation is one question, three calls on a geometry the run has not
seen (the analysis cache is cleared before each question, outside its
timing):

* ``MarkovSpatialAnalysis.detection_probability`` -- the ``/analyze``
  engine, at one point of the grid below;
* ``BatchedMarkovSpatialAnalysis.detection_probability_grid`` over an
  8 x 4 N x k grid -- the ``/sweep`` and design engine;
* ``adaptive_minimum_sensors`` -- ``repro design --adaptive``.

A cycle is one question per ``ms`` stratum, so every run measures the
same mix of cheap and expensive geometries.

Checks: the scalar answer equals its grid cell within 1e-9; the scalar
answer and the grid's eight cells fixed by the catalogue entry match the
values recorded in ``data/references.json`` within 1e-9; the adaptive N
equals the recorded dense ``minimum_sensors`` answer.
"""

from __future__ import annotations

import json
import os

import checks
import inputs
from common import Breakdown, Op, Phase, run_cycles, timed

TAIL_PERCENTILE = 70
IMPORTS = ["repro", "repro.adaptive"]
REFERENCES = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data", "references.json")


def load_references() -> dict:
    with open(REFERENCES, encoding="utf-8") as handle:
        return json.load(handle)["slow"]


class Workload:
    name = "analysis-slow"
    tail_percentile = TAIL_PERCENTILE
    imports = IMPORTS

    def setup(self, seed: int) -> dict:
        import repro
        from repro.adaptive import InProcessEvaluator, adaptive_minimum_sensors

        references = load_references()
        catalogue = inputs.slow_catalogue()
        # Warm the code paths (lazy imports, first-call dispatch) on a
        # geometry outside the catalogue, then drop what it cached.
        warm = repro.Scenario.from_dict(inputs.slow_dict(2.5, 14, 40, 3))
        repro.MarkovSpatialAnalysis(warm).detection_probability()
        repro.BatchedMarkovSpatialAnalysis(warm).detection_probability_grid(
            num_sensors=[20, 40], thresholds=[1, 3]
        )
        adaptive_minimum_sensors(warm, 0.5, max_sensors=16, evaluator=InProcessEvaluator())
        repro.clear_analysis_cache()
        return {
            "stream": inputs.QuestionStream(seed, catalogue),
            "references": references,
        }

    def teardown(self, state: dict) -> None:
        pass

    def run(self, state: dict, seconds: float, recorder=None) -> Phase:
        import repro
        from repro.adaptive import InProcessEvaluator, adaptive_minimum_sensors

        stream = state["stream"]
        cache_stats = {"hits": 0, "lookups": 0}

        def ask(question):
            entry = question.entry
            scalar = repro.MarkovSpatialAnalysis(
                repro.Scenario.from_dict(question.scenario(question.point_n, question.point_k))
            ).detection_probability()
            grid = repro.BatchedMarkovSpatialAnalysis(
                repro.Scenario.from_dict(question.scenario(question.grid_n[0], question.grid_k[0]))
            ).detection_probability_grid(
                num_sensors=question.grid_n, thresholds=question.grid_k
            )
            evaluator = InProcessEvaluator()
            answer = adaptive_minimum_sensors(
                repro.Scenario.from_dict(question.scenario(1, entry["threshold"])),
                entry["required_probability"],
                max_sensors=inputs.SLOW_MAX_SENSORS,
                evaluator=evaluator,
            )
            return {
                "scalar": scalar,
                "grid": grid,
                "adaptive": answer,
                "ledger": evaluator.ledger.stats(),
            }

        def prepare(question):
            stats = repro.analysis_cache().stats()
            cache_stats["hits"] += stats["hits"]
            cache_stats["lookups"] += stats["lookups"]
            repro.clear_analysis_cache()

        def run_op(question) -> Op:
            op = timed(
                "question",
                lambda out: 1 + out["grid"].size,
                lambda: ask(question),
            )
            op.output["question"] = question
            return op

        phase = run_cycles(stream.next_cycle, run_op, seconds, recorder, prepare)
        prepare(None)
        phase.extra["cache"] = cache_stats
        references = state["references"]
        for op in phase.ops:
            out = op.output
            question = out["question"]
            entry = question.entry
            recorded = references["probabilities"][entry["id"]]
            cells = {
                (question.grid_n.index(n), question.grid_k.index(k)): recorded[i][j]
                for i, n in enumerate(entry["ref_n"])
                for j, k in enumerate(entry["ref_k"])
            }
            reason = checks.check_question(
                out["scalar"],
                out["grid"],
                (question.grid_n.index(question.point_n), question.grid_k.index(question.point_k)),
                cells,
                out["adaptive"],
                references["minimum_sensors"][entry["id"]],
            )
            if reason is not None:
                phase.failures.append(f"{question.entry['id']}: {reason}")
            del out["grid"]
        return phase

    def layers(self, untraced: Phase, traced: Phase, breakdown: Breakdown, state) -> dict:
        cache = traced.extra["cache"]
        first = [op.output["ledger"] for op in traced.ops if op.cycle == 0]
        return {
            "cache.analysis_hit_ratio": cache["hits"] / max(cache["lookups"], 1),
            "cache.analysis_lookups": cache["lookups"],
            "adaptive.evaluations": sum(ledger["evaluations"] for ledger in first),
            "adaptive.fallbacks": sum(ledger["fallbacks"] for ledger in first),
        }
