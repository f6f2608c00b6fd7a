"""The sweep planner: every parameter sweep in the repo is planned here.

:func:`sweep` and :func:`grid_sweep` apply an opaque ``compute`` to
each point.  A *scenario sweep* — the M-S-approach (``"analytical"``) or
Monte Carlo (``"simulated"``) detection probability over a grid of
:class:`~repro.core.scenario.Scenario` fields — is described by one
plain-JSON spec (:func:`sweep_spec`, the dict the distributed tier also
sends workers), and :func:`scenario_sweep` plans it with two pieces:

* :func:`point_function` — the picklable per-point function the serial,
  pooled and distributed paths all run;
* :func:`grid_function` — a grid whose axes are all in
  :data:`BATCHED_FIELDS` (``num_sensors``, ``threshold``) answered in one
  engine pass: one batched analytical grid, or one fused
  :class:`~repro.simulation.fused.FusedMonteCarloEngine` pass (one
  deployment at ``max(num_sensors)`` per trial, smaller ``N`` read off
  its prefix under common random numbers).

:func:`analytical_grid_sweep`, :func:`simulated_grid_sweep`,
:func:`distributed_grid_sweep`, ``repro sweep`` and the service's
``/sweep`` and ``/simulate`` sweep axis are thin callers of the planner.
Other axes fall back to per-point evaluation (counted in the
``batch.fallbacks`` / ``mc.fallbacks`` obs counters).  The analytical
kernel is batch-invariant, so its two paths give **byte-identical**
rows; the Monte Carlo paths consume randomness differently and agree
only at ``N = max(num_sensors)`` (a fused pass sharded over ``w``
processes draws differently again), each deterministic for a seed.

With ``workers > 1`` points run on :func:`repro.parallel.parallel_map`,
in input order, so ``compute`` must be picklable (a module-level
function or :func:`functools.partial`).

Checkpoint/resume
-----------------

``checkpoint="path.json"`` writes every completed row (atomically —
temp file plus :func:`os.replace`) keyed by its index in the sweep
order; re-running the same sweep with the same path computes only the
missing points and returns the exact rows the uninterrupted run would
have.  The file carries the sweep's identity, :func:`sweep_fingerprint`:
the point list for an opaque-callable sweep, the point list *plus the
spec* for a scenario sweep — and the simulated spec records which
dispatch path ran (and its shard count).  A checkpoint from another
scenario, other parameters, another seed or another Monte Carlo path
raises :class:`~repro.errors.SimulationError` instead of silently mixing
rows; the analytical batched and per-point paths share one identity, as
their rows are identical.

Every row passes through :func:`canonical_row` on the write path (numpy
scalars become plain numbers, keys come back sorted, floats round-trip
exactly through ``repr``), so fresh, resumed and wire-transported rows
are **byte-identical**; rows must therefore be JSON-serialisable.
"""

from __future__ import annotations

import functools
import hashlib
import itertools
import json
import os
import tempfile
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro import obs
from repro.core.scenario import Scenario
from repro.errors import AnalysisError, SimulationError
from repro.parallel import parallel_map

__all__ = [
    "BATCHED_FIELDS",
    "SWEEPABLE_FIELDS",
    "analytical_grid_sweep",
    "canonical_row",
    "distributed_grid_sweep",
    "grid_function",
    "grid_points",
    "grid_sweep",
    "point_function",
    "scenario_sweep",
    "simulated_grid_sweep",
    "sweep",
    "sweep_fingerprint",
    "sweep_spec",
]

#: Scenario fields the batched kernel can broadcast over: the occupancy
#: binomial's ``N`` and the detection rule's ``k``.  Any other swept field
#: changes the region geometry or detection physics and forces the
#: per-point path.
BATCHED_FIELDS = ("num_sensors", "threshold")

#: Scenario fields a sweep may vary: the model's numeric knobs (every
#: dataclass field but the field geometry).  Derived properties such as
#: ``ms`` are not fields and cannot be swept.
SWEEPABLE_FIELDS = tuple(
    name for name in Scenario.__dataclass_fields__ if name != "field"
)

#: The parameters (and their defaults) a spec of each kind carries.
_SPEC_FIELDS: Dict[str, Dict[str, Any]] = {
    "analytical": {
        "body_truncation": 3,
        "head_truncation": None,
        "substeps": 1,
        "normalize": True,
    },
    "simulated": {
        "trials": 10_000,
        "seed": None,
        "boundary": "torus",
        "batch_size": 512,
    },
}

_CHECKPOINT_VERSION = 1

#: Exact value types a JSON round-trip returns unchanged (numpy scalars,
#: which subclass some of them, are not among them).
_JSON_SCALARS = (str, int, float, bool, type(None))


def _json_default(value: Any) -> Any:
    """Coerce numpy scalars/arrays so simulator-derived rows serialise."""
    if isinstance(value, np.generic):
        return value.item()
    if isinstance(value, np.ndarray):
        return value.tolist()
    raise TypeError(
        "checkpoint rows must be JSON-serialisable (plain dicts of "
        f"numbers/strings), got {type(value).__name__}: {value!r}"
    )


def canonical_row(row: Dict[str, Any]) -> Dict[str, Any]:
    """The canonical form of a sweep row: what a checkpoint holds.

    One JSON round-trip with sorted keys — numpy scalars and arrays
    collapse to plain Python numbers/lists, key order becomes sorted.
    Applying it on the write path (rather than only on resume) is what
    makes fresh, resumed, and wire-transported rows byte-identical:
    every execution path converges on this one representation.  Floats
    are exact across the round-trip (JSON serialises via ``repr``).

    Raises:
        TypeError: for a row JSON cannot represent.
    """
    if all(
        type(key) is str and type(value) in _JSON_SCALARS
        for key, value in row.items()
    ):
        return dict(sorted(row.items()))  # the round-trip would only sort
    return json.loads(json.dumps(row, sort_keys=True, default=_json_default))


def sweep_fingerprint(
    points: Sequence[Any], spec: Optional[Dict[str, Any]] = None
) -> str:
    """The sweep identity checkpoints and the distributed handshake carry:
    a digest of the ordered points, plus the spec of a scenario sweep
    (an opaque ``"callable"`` spec, or none, adds nothing)."""
    payload: Any = points
    if spec is not None and spec.get("kind") in _SPEC_FIELDS:
        payload = {"points": points, "spec": spec}
    text = json.dumps(payload, sort_keys=True, default=repr)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _load_checkpoint(path: str, fingerprint: str) -> Dict[int, Any]:
    """Read completed rows from ``path``; empty dict when absent."""
    if not os.path.exists(path):
        return {}
    try:
        with open(path, "r", encoding="utf-8") as handle:
            state = json.load(handle)
    except (OSError, json.JSONDecodeError) as exc:
        raise SimulationError(
            f"checkpoint file {path!r} is unreadable or corrupt: {exc}"
        ) from exc
    if state.get("version") != _CHECKPOINT_VERSION:
        raise SimulationError(
            f"checkpoint file {path!r} has unsupported version "
            f"{state.get('version')!r}"
        )
    if state.get("fingerprint") != fingerprint:
        raise SimulationError(
            f"checkpoint file {path!r} was written by a different sweep "
            "(point list or spec mismatch); delete it or use a fresh path"
        )
    completed = state.get("completed", {})
    return {int(index): row for index, row in completed.items()}


def _write_checkpoint(
    path: str, fingerprint: str, completed: Dict[int, Any]
) -> None:
    """Atomically persist the completed-row map.

    Indexes are written in sorted order so the file's bytes depend only
    on *which* points completed, not on the order they completed in —
    a distributed sweep finishing points out of order and the serial
    path produce identical checkpoint files.
    """
    state = {
        "version": _CHECKPOINT_VERSION,
        "fingerprint": fingerprint,
        "completed": {str(index): completed[index] for index in sorted(completed)},
    }
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp_path = tempfile.mkstemp(
        prefix=os.path.basename(path) + ".", suffix=".tmp", dir=directory
    )
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            json.dump(state, handle, default=_json_default)
        os.replace(tmp_path, path)
    except BaseException:
        try:
            os.unlink(tmp_path)
        except OSError:
            pass
        raise


def _run_points(
    points: List[Any],
    compute: Callable[..., Dict[str, Any]],
    workers: int,
    kwargs_items: bool,
    checkpoint: Optional[str],
    timeout: Optional[float],
    max_retries: int,
    canonical: bool = False,
    spec: Optional[Dict[str, Any]] = None,
) -> List[Dict[str, Any]]:
    """Shared sweep engine: resume from checkpoint, compute the rest.

    ``canonical=True`` (or any checkpointed run) passes every row
    through :func:`canonical_row` so all execution paths — fresh,
    resumed, batched, distributed — return byte-identical row lists.
    ``spec`` joins the points in the checkpoint identity
    (:func:`sweep_fingerprint`).

    Observability: with instrumentation active the engine counts every
    point (``sweep.points``), marks the ones served from a checkpoint
    (``sweep.points_from_checkpoint`` plus a ``sweep.resume`` event
    listing their indexes), emits a ``sweep.point_complete`` event and a
    ``sweep.checkpoint_write`` count per persisted row, and — at
    ``workers=1``, where ``compute`` runs in the parent — wraps each
    evaluation in a ``sweep.point`` span.
    """
    ob = obs.current()
    if ob.enabled:
        ob.incr("sweep.points", len(points))
    canonicalise = canonical or checkpoint is not None
    if checkpoint is None:
        fingerprint = None
        completed: Dict[int, Any] = {}
    else:
        fingerprint = sweep_fingerprint(points, spec)
        completed = {
            index: canonical_row(row)
            for index, row in _load_checkpoint(checkpoint, fingerprint).items()
        }
        if ob.enabled and completed:
            ob.incr("sweep.points_from_checkpoint", len(completed))
            ob.event(
                "sweep.resume",
                checkpoint=checkpoint,
                from_checkpoint=sorted(completed),
            )
    missing = [index for index in range(len(points)) if index not in completed]
    if missing:
        compute_fn = compute
        if ob.enabled and workers == 1:
            # Inline execution never pickles, so a closure wrapper is
            # safe; pool workers reset to null instrumentation instead
            # (the parent-side task events cover them).
            def compute_fn(*args: Any, **kwargs: Any) -> Any:
                with ob.span("sweep.point"):
                    return compute(*args, **kwargs)

        on_result = None
        if checkpoint is not None or ob.enabled:

            def on_result(position: int, row: Any) -> None:
                index = missing[position]
                if checkpoint is not None:
                    completed[index] = canonical_row(row)
                    _write_checkpoint(checkpoint, fingerprint, completed)
                    if ob.enabled:
                        ob.incr("sweep.checkpoint_writes")
                if ob.enabled:
                    ob.incr("sweep.points_completed")
                    ob.event("sweep.point_complete", index=index)

        rows = parallel_map(
            compute_fn,
            [points[index] for index in missing],
            workers=workers,
            kwargs_items=kwargs_items,
            timeout=timeout,
            max_retries=max_retries,
            on_result=on_result,
        )
        for position, index in enumerate(missing):
            row = rows[position]
            completed[index] = canonical_row(row) if canonicalise else row
        if checkpoint is not None:
            _write_checkpoint(checkpoint, fingerprint, completed)
    return [completed[index] for index in range(len(points))]


def sweep(
    values: Iterable[Any],
    compute: Callable[[Any], Dict[str, Any]],
    workers: int = 1,
    checkpoint: Optional[str] = None,
    timeout: Optional[float] = None,
    max_retries: int = 2,
) -> List[Dict[str, Any]]:
    """Apply ``compute`` to each value, returning one row dict per value.

    Args:
        values: the sweep axis.
        compute: maps one value to a row dict.
        workers: process count; ``1`` (default) runs inline.
        checkpoint: optional JSON path; completed rows persist there and a
            rerun resumes from them (see the module docstring).
        timeout: optional per-point wall-clock bound (pool mode).
        max_retries: worker-crash retries per point before falling back.
    """
    return _run_points(
        list(values),
        compute,
        workers=workers,
        kwargs_items=False,
        checkpoint=checkpoint,
        timeout=timeout,
        max_retries=max_retries,
    )


def grid_points(grids: Dict[str, Sequence[Any]]) -> List[Dict[str, Any]]:
    """The cartesian points of ``grids`` in row-major (first key slowest)
    order — the sweep order of every grid sweep."""
    names = list(grids)
    return [
        dict(zip(names, values))
        for values in itertools.product(*(grids[name] for name in names))
    ]


def grid_sweep(
    grids: Dict[str, Sequence[Any]],
    compute: Callable[..., Dict[str, Any]],
    workers: int = 1,
    checkpoint: Optional[str] = None,
    timeout: Optional[float] = None,
    max_retries: int = 2,
) -> List[Dict[str, Any]]:
    """Cartesian-product sweep.

    Args:
        grids: mapping from keyword-argument name to the values it takes.
        compute: called once per grid point with those keyword arguments;
            returns a row dict.
        workers: process count; ``1`` (default) runs inline.
        checkpoint: optional JSON path; completed rows persist there and a
            rerun resumes from them (see the module docstring).
        timeout: optional per-point wall-clock bound (pool mode).
        max_retries: worker-crash retries per point before falling back.

    Returns:
        Rows in row-major (first key slowest) order.
    """
    return _run_points(
        grid_points(grids),
        compute,
        workers=workers,
        kwargs_items=True,
        checkpoint=checkpoint,
        timeout=timeout,
        max_retries=max_retries,
    )


# ----------------------------------------------------------------------
# Scenario sweeps: spec, point function, one-pass grid, planner
# ----------------------------------------------------------------------


def sweep_spec(kind: str, scenario: Scenario, **params: Any) -> Dict[str, Any]:
    """The spec of a scenario sweep: ``{"kind", "scenario", **params}``
    with every parameter of the kind (:data:`_SPEC_FIELDS`) filled in;
    the other kind's parameters are ignored.

    Raises:
        AnalysisError: for an unknown ``kind`` or parameter name.
    """
    if kind not in _SPEC_FIELDS:
        raise AnalysisError(
            f"kind must be 'analytical' or 'simulated', got {kind!r}"
        )
    unknown = sorted(set(params).difference(*_SPEC_FIELDS.values()))
    if unknown:
        raise AnalysisError(f"unknown sweep parameter(s) {unknown}")
    fields = _SPEC_FIELDS[kind]
    return {
        "kind": kind,
        "scenario": scenario.to_dict(),
        **{name: params.get(name, default) for name, default in fields.items()},
    }


def _resolved(spec: Dict[str, Any]) -> Tuple[Scenario, Dict[str, Any]]:
    """The spec's template scenario, and the spec with defaults filled."""
    spec = {**_SPEC_FIELDS[spec["kind"]], **spec}
    return Scenario.from_dict(spec["scenario"]), spec


def _at(scenario: Scenario, point: Dict[str, Any]) -> Scenario:
    """``scenario`` with the point's fields applied — all but
    ``threshold``, which both kinds apply to the finished answer."""
    changes = {name: value for name, value in point.items() if name != "threshold"}
    return scenario.replace(**changes) if changes else scenario


def _engine(scenario: Scenario, spec: Dict[str, Any]) -> Any:
    """The analytical engine an ``"analytical"`` spec evaluates with."""
    from repro.core.markov_spatial import MarkovSpatialAnalysis

    return MarkovSpatialAnalysis(
        scenario,
        body_truncation=spec["body_truncation"],
        head_truncation=spec["head_truncation"],
        substeps=spec["substeps"],
    )


def _mc_fields(detections: int, trials: int) -> Dict[str, Any]:
    """The Monte Carlo columns of a simulated row."""
    return {
        "trials": trials,
        "detections": detections,
        "detection_probability": detections / trials,
    }


def _analytical_point(
    scenario: Scenario, spec: Dict[str, Any], **point: Any
) -> Dict[str, Any]:
    """One analytical sweep row: the engine's singleton form.

    The engine is batch-invariant, so per-point rows are **bitwise**
    equal to the corresponding batched-grid rows and to ``/analyze``
    answers.
    """
    value = _engine(_at(scenario, point), spec).detection_probability(
        threshold=point.get("threshold"), normalize=spec["normalize"]
    )
    return {**point, "detection_probability": value}


def _simulated_point(
    scenario: Scenario, spec: Dict[str, Any], **point: Any
) -> Dict[str, Any]:
    """One simulated sweep row.

    Every point runs with the *same* root seed — a crude
    common-random-numbers scheme that keeps rows deterministic without
    threading per-point seed material through the checkpoint format.
    ``threshold`` never reaches the simulator (report counts do not
    depend on it); it is applied to the finished trial counts.
    """
    from repro.simulation.runner import MonteCarloSimulator

    result = MonteCarloSimulator(
        _at(scenario, point),
        trials=spec["trials"],
        seed=spec["seed"],
        boundary=spec["boundary"],
        batch_size=spec["batch_size"],
    ).run()
    threshold = point.get("threshold", scenario.threshold)
    detections = int(np.count_nonzero(result.report_counts >= threshold))
    return {**point, **_mc_fields(detections, spec["trials"])}


def point_function(spec: Dict[str, Any]) -> Callable[..., Dict[str, Any]]:
    """The per-point function of a scenario-sweep spec: called with a
    point's fields, it returns the point's row (a picklable
    :func:`functools.partial`, run alike by the serial, pool and
    distributed paths)."""
    scenario, spec = _resolved(spec)
    point = _analytical_point if spec["kind"] == "analytical" else _simulated_point
    return functools.partial(point, scenario, spec)


def grid_function(
    spec: Dict[str, Any],
    grids: Dict[str, Sequence[Any]],
    timeout: Optional[float] = None,
    max_retries: int = 2,
) -> Callable[..., Dict[str, Any]]:
    """Answer a :data:`BATCHED_FIELDS` grid in one engine pass (a batched
    analytical grid, or a fused Monte Carlo pass over ``spec["shards"]``
    processes); returns a lookup shaped like :func:`point_function`."""
    scenario, spec = _resolved(spec)
    num_sensors = list(grids.get("num_sensors", [scenario.num_sensors]))
    thresholds = list(grids.get("threshold", [scenario.threshold]))
    if spec["kind"] == "analytical":
        values = _engine(scenario, spec).detection_probability_grid(
            num_sensors=num_sensors,
            thresholds=thresholds,
            normalize=spec["normalize"],
        )

        def cell(value: Any) -> Dict[str, Any]:
            return {"detection_probability": float(value)}

    else:
        from repro.simulation.fused import FusedMonteCarloEngine

        values = FusedMonteCarloEngine(
            scenario,
            num_sensors=num_sensors,
            thresholds=thresholds,
            trials=spec["trials"],
            seed=spec["seed"],
            boundary=spec["boundary"],
            batch_size=spec["batch_size"],
        ).run(
            workers=spec.get("shards", 1),
            timeout=timeout,
            max_retries=max_retries,
        ).detections_grid()

        def cell(value: Any) -> Dict[str, Any]:
            return _mc_fields(int(value), spec["trials"])

    table = {
        (n, k): cell(values[i, j])
        for i, n in enumerate(num_sensors)
        for j, k in enumerate(thresholds)
    }

    def compute(**point: Any) -> Dict[str, Any]:
        key = (
            point.get("num_sensors", scenario.num_sensors),
            point.get("threshold", scenario.threshold),
        )
        return {**point, **table[key]}

    return compute


def scenario_sweep(
    kind: str,
    scenario: Scenario,
    grids: Dict[str, Sequence[Any]],
    batch: Any = "auto",
    workers: int = 1,
    checkpoint: Optional[str] = None,
    timeout: Optional[float] = None,
    max_retries: int = 2,
    fleet: Optional[Tuple[str, int]] = None,
    **params: Any,
) -> List[Dict[str, Any]]:
    """Plan and run a scenario sweep: one engine pass, per point, or a fleet.

    The planner behind :func:`analytical_grid_sweep`,
    :func:`simulated_grid_sweep` (whose ``fused`` is ``batch`` here),
    :func:`distributed_grid_sweep`, ``repro sweep`` and the service's
    sweeps; the arguments mean what they mean there.  ``kind`` and
    ``params`` make the spec (:func:`sweep_spec`); ``fleet=(host,
    port)`` runs the points on a local work-stealing worker fleet bound
    there, with ``workers`` worker processes.
    """
    if not grids:
        raise AnalysisError("grids must name at least one scenario field")
    unknown = [name for name in grids if name not in SWEEPABLE_FIELDS]
    if unknown:
        raise AnalysisError(
            f"unknown scenario field(s) {unknown}; sweepable fields are "
            f"{list(SWEEPABLE_FIELDS)}"
        )
    spec = sweep_spec(kind, scenario, **params)
    batchable = all(name in BATCHED_FIELDS for name in grids)
    if batch is True and not batchable:
        blocking = sorted(set(grids) - set(BATCHED_FIELDS))
        error, option, able = (
            (AnalysisError, "batch", "batchable")
            if kind == "analytical"
            else (SimulationError, "fused", "fusable")
        )
        raise error(
            f"{option}=True but axis(es) {blocking} are not {able}; only "
            f"{list(BATCHED_FIELDS)} are answered in one engine pass"
        )
    batched = batchable and batch is not False and fleet is None
    if kind == "simulated":
        # Fused rows differ from per-point rows, and with the shard
        # count: the checkpoint identity must know which ran.
        spec["fused"] = batched
        if batched:
            spec["shards"] = workers
    points = grid_points(grids)
    if fleet is not None:
        # Imported lazily: repro.distributed imports this module.
        from repro.distributed import distributed_sweep

        host, port = fleet
        return distributed_sweep(
            points,
            spec,
            workers=workers,
            checkpoint=checkpoint,
            timeout=timeout,
            host=host,
            port=port,
        )
    if batched:
        lookup: List[Callable[..., Dict[str, Any]]] = []

        def compute(**point: Any) -> Dict[str, Any]:
            # The pass runs at the first missing point, so a sweep
            # resumed whole from its checkpoint costs no engine pass.
            if not lookup:
                lookup.append(grid_function(spec, grids, timeout, max_retries))
            return lookup[0](**point)

        workers = 1  # one pass; a pool would only add pickling
    else:
        ob = obs.current()
        if ob.enabled:
            counter = "batch.fallbacks" if kind == "analytical" else "mc.fallbacks"
            ob.incr(counter, len(points))
        compute = point_function(spec)
    return _run_points(
        points,
        compute,
        workers=workers,
        kwargs_items=True,
        checkpoint=checkpoint,
        timeout=timeout,
        max_retries=max_retries,
        canonical=True,
        spec=spec,
    )


def analytical_grid_sweep(
    scenario: Any,
    grids: Dict[str, Sequence[Any]],
    body_truncation: int = 3,
    head_truncation: Optional[int] = None,
    substeps: int = 1,
    normalize: bool = True,
    workers: int = 1,
    checkpoint: Optional[str] = None,
    timeout: Optional[float] = None,
    max_retries: int = 2,
    batch: Any = "auto",
) -> List[Dict[str, Any]]:
    """Sweep the M-S-approach ``P_M[X >= k]`` over a grid of scenario fields.

    Args:
        scenario: the template :class:`~repro.core.scenario.Scenario`;
            fields not swept keep its values.
        grids: mapping from scenario field name to the values it takes;
            rows come back in row-major (first key slowest) order, one
            per point, as ``{**point, "detection_probability": p}``.
        body_truncation / head_truncation / substeps: analysis parameters,
            as on :class:`~repro.core.markov_spatial.MarkovSpatialAnalysis`.
        normalize: Eq. 13 normalisation (as on ``detection_probability``).
        workers: process count for the *per-point* path; the batched path
            is a single vectorised evaluation and ignores it.
        checkpoint: optional JSON path, same format and resume semantics
            as :func:`grid_sweep` — and byte-identical between the two
            dispatch paths.
        timeout / max_retries: per-point pool options (per-point path).
        batch: ``"auto"`` (default) dispatches to the batched kernel when
            every swept field is in :data:`BATCHED_FIELDS`; ``False``
            forces per-point evaluation; ``True`` requires the batched
            path and raises :class:`~repro.errors.AnalysisError` if an
            axis prevents it.

    Raises:
        AnalysisError: for a field the scenario does not have, or
            ``batch=True`` with a non-batchable axis.
    """
    return scenario_sweep(
        "analytical",
        scenario,
        grids,
        batch=batch,
        workers=workers,
        checkpoint=checkpoint,
        timeout=timeout,
        max_retries=max_retries,
        body_truncation=body_truncation,
        head_truncation=head_truncation,
        substeps=substeps,
        normalize=normalize,
    )


def simulated_grid_sweep(
    scenario: Any,
    grids: Dict[str, Sequence[Any]],
    trials: int = 10_000,
    seed: Optional[int] = None,
    boundary: str = "torus",
    batch_size: int = 512,
    workers: int = 1,
    checkpoint: Optional[str] = None,
    timeout: Optional[float] = None,
    max_retries: int = 2,
    fused: Any = "auto",
) -> List[Dict[str, Any]]:
    """Monte Carlo detection probability over a grid of scenario fields.

    Args:
        scenario: the template :class:`~repro.core.scenario.Scenario`.
        grids: mapping from scenario field name to the values it takes;
            rows come back in row-major order as ``{**point, "trials":
            t, "detections": d, "detection_probability": d / t}``.
        trials: trials per grid point (shared by *all* points on the
            fused path — that is the common-random-numbers design).
        seed: root seed; each dispatch path is deterministic for a given
            seed, and the two paths agree bitwise at
            ``N = max(num_sensors)``.
        boundary / batch_size: as on :class:`MonteCarloSimulator`.
        workers: on the fused path, trial shards
            (:func:`repro.parallel.run_fused_parallel`); on the
            per-point path, pool processes per point.
        checkpoint: optional JSON path, same resume semantics as
            :func:`grid_sweep`; a checkpoint written by the other
            dispatch path (or another shard count) is refused.
        timeout / max_retries: pool options (both paths).
        fused: ``"auto"`` (default) dispatches to the fused engine when
            every swept field is in :data:`BATCHED_FIELDS`; ``False``
            forces per-point simulators; ``True`` requires the fused
            path and raises :class:`~repro.errors.SimulationError` if an
            axis prevents it.

    Raises:
        AnalysisError: for a field the scenario does not have.
        SimulationError: ``fused=True`` with a non-fusable axis, or
            invalid simulation parameters.
    """
    return scenario_sweep(
        "simulated",
        scenario,
        grids,
        batch=fused,
        workers=workers,
        checkpoint=checkpoint,
        timeout=timeout,
        max_retries=max_retries,
        trials=trials,
        seed=seed,
        boundary=boundary,
        batch_size=batch_size,
    )


def distributed_grid_sweep(
    scenario: Any,
    grids: Dict[str, Sequence[Any]],
    kind: str = "analytical",
    workers: int = 2,
    checkpoint: Optional[str] = None,
    timeout: Optional[float] = None,
    host: str = "127.0.0.1",
    port: int = 0,
    body_truncation: int = 3,
    head_truncation: Optional[int] = None,
    substeps: int = 1,
    normalize: bool = True,
    trials: int = 10_000,
    seed: Optional[int] = None,
    boundary: str = "torus",
    batch_size: int = 512,
) -> List[Dict[str, Any]]:
    """Run a grid sweep on a local work-stealing worker fleet.

    The same grid, scenario semantics, and checkpoint format as
    :func:`analytical_grid_sweep` / :func:`simulated_grid_sweep`, but
    the points are computed by ``workers`` separate worker *processes*
    coordinated over a socket (see :mod:`repro.distributed`).  The
    returned rows — and any checkpoint file written — are
    **byte-identical** to the serial per-point path: analytical rows
    match every serial dispatch mode; simulated rows match the
    per-point (``fused=False``) path, whose common-random-numbers
    design reuses the same root ``seed`` at every point.

    A checkpoint written by a serial sweep resumes a distributed one
    and vice versa (same fingerprint, same file format), so long as the
    grid values are plain JSON types — the point list crosses the wire
    as JSON, and non-JSON grid values (numpy scalars) would change the
    fingerprint en route.

    Args:
        scenario: the template :class:`~repro.core.scenario.Scenario`.
        grids: mapping from scenario field name to the values it takes;
            rows come back in row-major order.
        kind: ``"analytical"`` (M-S-approach per point) or
            ``"simulated"`` (one Monte Carlo simulator per point).
        workers: worker processes to spawn.
        checkpoint: optional JSON path with the usual resume semantics;
            also what lets a killed worker's shard be recomputed by any
            surviving worker without repeating finished points.
        timeout: overall wall-clock bound for the sweep.
        host / port: coordinator bind address (``port=0`` picks a free
            port; remote workers can join with ``repro sweep --connect``).
        body_truncation / head_truncation / substeps / normalize:
            analytical parameters (``kind="analytical"``).
        trials / seed / boundary / batch_size: Monte Carlo parameters
            (``kind="simulated"``).

    Raises:
        AnalysisError: unknown grid fields or an unknown ``kind``.
        SimulationError: the fleet failed to complete the sweep.
    """
    return scenario_sweep(
        kind,
        scenario,
        grids,
        batch=False,
        workers=workers,
        checkpoint=checkpoint,
        timeout=timeout,
        fleet=(host, port),
        body_truncation=body_truncation,
        head_truncation=head_truncation,
        substeps=substeps,
        normalize=normalize,
        trials=trials,
        seed=seed,
        boundary=boundary,
        batch_size=batch_size,
    )
