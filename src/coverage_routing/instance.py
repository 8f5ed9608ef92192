"""Problem data model, file ingestion, generation, and solution validation.

An :class:`Instance` is a route network (entry depot ``0``, interior
waypoints ``1..n``, exit depot ``n+1``), a set of targets to surveil, one
homogeneous vehicle, and an operational deadline.  Arcs form the complete
directed graph over the waypoints minus self-loops and the direct
depot-to-depot hop.

The :class:`ArcIndexTable` caches every per-arc and per-waypoint coverage
index so the optimization layers never touch raw geometry.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, field, fields, replace
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Sequence, Tuple, Union

import numpy as np

from . import geometry
from .errors import SchemaError, TargetTooCloseError
from .geometry import Point2

#: fixed parameters of generated instances: the side of the square field,
#: the range target priorities are drawn from, every target's risk factor and
#: radius, and the vehicle (speeds, energy, coverage factor)
FIELD_SIZE = 100.0
PRIORITY_RANGE = (1, 5)
RISK_FACTOR = 1.0
RISK_RADIUS = 5.0
SPEED_MIN = 1.0
SPEED_MAX = 10.0
ENERGY_MAX = 67500.0
COVERAGE_FACTOR = 1.0

#: preset -> (interior waypoints, targets drawn, coverage radius)
PRESETS = {
    "small": (9, 10, 10.0),
    "medium": (12, 11, 20.0),
    "large": (15, 12, 20.0),
}

DEADLINE_SCALE = {"I": 1.0, "II": 0.1}

#: the route searches keep visited sets as ``np.int64`` masks, one bit per
#: interior waypoint
MAX_WAYPOINTS = 63


@dataclass(frozen=True)
class Waypoint:
    id: int
    point: Point2
    window_open: float = 0.0
    window_close: float = math.inf


@dataclass(frozen=True)
class Target:
    id: int
    point: Point2
    risk_factor: float
    priority: float
    risk_radius: float
    min_coverage: float


@dataclass(frozen=True)
class Vehicle:
    coverage_factor: float
    coverage_radius: float
    speed_min: float
    speed_max: float
    energy_max: float
    priority: float = 1.0


@dataclass(frozen=True)
class Physics:
    beta: float = 1.0
    gamma: float = 1.0


@dataclass(frozen=True, eq=True)
class Instance:
    """Immutable problem data.  ``waypoints`` holds ids ``0..n+1`` in order;
    ``0`` is the entry depot and ``n+1`` the exit depot."""

    waypoints: Tuple[Waypoint, ...]
    targets: Tuple[Target, ...]
    vehicle: Vehicle
    physics: Physics
    deadline: float
    meta: Tuple[Tuple[str, object], ...] = ()
    removed_targets: Tuple[Tuple[int, str], ...] = field(default=(), compare=False)

    @property
    def n(self) -> int:
        return len(self.waypoints) - 2

    @property
    def exit_id(self) -> int:
        return self.n + 1

    @property
    def interior_ids(self) -> range:
        return range(1, self.n + 1)

    def point(self, node: int) -> Point2:
        return self.waypoints[node].point

    def arcs(self) -> Iterator[Tuple[int, int]]:
        """All arcs: (V minus exit) x V, minus self-loops and (0, exit)."""
        out = self.exit_id
        for i in range(out):
            for j in range(out + 1):
                if i == j or (i == 0 and j == out):
                    continue
                yield (i, j)

    @property
    def arc_count(self) -> int:
        return _arc_count(self.n)

    @property
    def eps_geo(self) -> float:
        """Clearance below which a target counts as sitting on an arc:
        1e-9 of the waypoint bounding-box diagonal."""
        xs = [w.point.x for w in self.waypoints]
        ys = [w.point.y for w in self.waypoints]
        diag = math.hypot(max(xs) - min(xs), max(ys) - min(ys))
        return 1e-9 * diag if diag > 0 else 1e-9

    def meta_dict(self) -> Dict[str, object]:
        return dict(self.meta)


def _arc_count(n: int) -> int:
    """Arcs of a network with ``n`` interior waypoints."""
    n1 = n + 1
    return n1 * (n1 + 1) - n1 - 1


def _segment_pairs(n: int) -> Iterator[Tuple[int, int]]:
    """Unordered node pairs whose segment is traversed by some arc of a
    network with ``n`` interior waypoints (every pair except the depot
    pair)."""
    out = n + 1
    for i in range(out + 1):
        for j in range(i + 1, out + 1):
            if i == 0 and j == out:
                continue
            yield (i, j)


def _check_finite(where: str, obj, may_be_inf: Tuple[str, ...] = ()) -> None:
    """Every float field of the dataclass ``obj`` must be finite; the fields
    named in ``may_be_inf`` may also be +inf (the file format's rule)."""
    for f in fields(obj):
        v = getattr(obj, f.name)
        if isinstance(v, float) and not (
                math.isfinite(v) or (f.name in may_be_inf and v == math.inf)):
            raise SchemaError(f"field '{f.name}' in {where} must be finite, got {v}")


def validate_instance(instance: Instance) -> None:
    """Raise :class:`SchemaError` on any structural defect, or on a number
    that :func:`load_instance` would refuse (NaN, or an infinity outside
    ``energy_max`` and ``window_close``)."""
    n = instance.n
    if n < 1:
        raise SchemaError("need at least one interior waypoint")
    if n > MAX_WAYPOINTS:
        raise SchemaError(f"at most {MAX_WAYPOINTS} interior waypoints are "
                          f"supported, got {n}")
    _check_finite("document", instance)  # the deadline
    _check_finite("physics", instance.physics)
    _check_finite("vehicle", instance.vehicle, ("energy_max",))
    for pos, wp in enumerate(instance.waypoints):
        _check_finite(f"waypoints[{pos}]", wp, ("window_close",))
        if wp.id != pos:
            raise SchemaError(f"waypoint ids must be 0..{n + 1} in order, "
                              f"found id {wp.id} at position {pos}")
        if wp.window_close < wp.window_open:
            raise SchemaError(f"waypoint {wp.id} has an empty time window")
    veh = instance.vehicle
    if not (0 < veh.speed_min <= veh.speed_max):
        raise SchemaError(f"need 0 < speed_min <= speed_max, "
                          f"got [{veh.speed_min}, {veh.speed_max}]")
    if veh.coverage_radius <= 0 or veh.coverage_factor < 0:
        raise SchemaError("coverage radius must be positive and the factor nonnegative")
    if instance.deadline <= 0:
        raise SchemaError(f"deadline must be positive, got {instance.deadline}")
    seen = set()
    for t in instance.targets:
        if t.id in seen or t.id < 0:
            raise SchemaError(f"duplicate or negative target id {t.id}")
        seen.add(t.id)
        _check_finite(f"target {t.id}", t)
        if t.min_coverage < 0:
            raise SchemaError(f"target {t.id} has negative coverage requirement")
        if t.risk_radius <= 0 or t.risk_factor < 0:
            raise SchemaError(f"target {t.id} has bad risk parameters")
        if t.priority < 0:
            raise SchemaError(f"target {t.id} has negative priority")
    for (i, j) in _segment_pairs(n):
        if geometry.dist(instance.point(i), instance.point(j)) == 0.0:
            raise SchemaError(f"waypoints {i} and {j} coincide")


def _clean_targets(instance: Instance) -> Instance:
    """Drop targets that sit on an arc or that no arc/waypoint can cover."""
    eps = instance.eps_geo
    pairs = list(_segment_pairs(instance.n))
    kept: List[Target] = []
    removed: List[Tuple[int, str]] = []
    for t in instance.targets:
        on_arc = any(
            geometry.point_segment_distance(t.point, instance.point(i),
                                            instance.point(j)) <= eps
            for (i, j) in pairs)
        if on_arc:
            removed.append((t.id, "on-arc"))
            continue
        coverable = any(
            geometry.dist(instance.point(i), t.point) <= instance.vehicle.coverage_radius
            for i in instance.interior_ids)
        if not coverable:
            for (i, j) in pairs:
                chord = geometry.chord_disk_intersect(
                    instance.point(i), instance.point(j), t.point,
                    instance.vehicle.coverage_radius)
                if not chord.is_empty:
                    coverable = True
                    break
        if coverable:
            kept.append(t)
        else:
            removed.append((t.id, "uncoverable"))
    if not removed:
        return instance
    return replace(instance, targets=tuple(kept),
                   removed_targets=instance.removed_targets + tuple(removed))


def finalize_instance(instance: Instance) -> Instance:
    """Validate and clean the target set."""
    validate_instance(instance)
    return _clean_targets(instance)


# ---------------------------------------------------------------------------
# serialization


def serialize_instance(instance: Instance) -> dict:
    return {
        "meta": instance.meta_dict(),
        "deadline": instance.deadline,
        "physics": {"beta": instance.physics.beta, "gamma": instance.physics.gamma},
        "vehicle": {
            "coverage_factor": instance.vehicle.coverage_factor,
            "coverage_radius": instance.vehicle.coverage_radius,
            "speed_min": instance.vehicle.speed_min,
            "speed_max": instance.vehicle.speed_max,
            "energy_max": instance.vehicle.energy_max,
            "priority": instance.vehicle.priority,
        },
        "waypoints": [
            {"id": w.id, "x": w.point.x, "y": w.point.y,
             "window_open": w.window_open, "window_close": w.window_close}
            for w in instance.waypoints
        ],
        "targets": [
            {"id": t.id, "x": t.point.x, "y": t.point.y,
             "risk_factor": t.risk_factor, "priority": t.priority,
             "risk_radius": t.risk_radius, "min_coverage": t.min_coverage}
            for t in instance.targets
        ],
    }


def instance_to_json(instance: Instance) -> str:
    return json.dumps(serialize_instance(instance), indent=2, sort_keys=True) + "\n"


def save_instance(instance: Instance, path: Union[str, Path]) -> None:
    Path(path).write_text(instance_to_json(instance))


def _read_json(source: Union[str, Path, dict]) -> dict:
    """The JSON object in the file at ``source``, or ``source`` itself when
    it is already a parsed document."""
    doc = source
    if isinstance(source, (str, Path)):
        try:
            doc = json.loads(Path(source).read_text())
        except ValueError as exc:  # a JSON or a UTF-8 decoding error
            raise SchemaError(f"not valid JSON: {source}: {exc}") from exc
    return _object(doc, "the document")


def _object(v, what: str) -> dict:
    if not isinstance(v, dict):
        raise SchemaError(f"{what} must be a JSON object, got {type(v).__name__}")
    return v


def _field(doc: Union[dict, list], key: Union[str, int], where: str):
    """``doc[key]`` of an object, or of an array at a valid index."""
    if isinstance(doc, dict) and key not in doc:
        raise SchemaError(f"missing field '{key}' in {where}")
    return doc[key]


def _array(doc: dict, key: str, where: str) -> list:
    v = _field(doc, key, where)
    if not isinstance(v, list):
        raise SchemaError(f"field '{key}' in {where} must be an array")
    return v


def _num(doc: Union[dict, list], key: Union[str, int], where: str,
         allow_inf: bool = False) -> float:
    v = _field(doc, key, where)
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise SchemaError(f"field '{key}' in {where} must be a number, got {v!r}")
    v = float(v)
    if not allow_inf and not math.isfinite(v):
        raise SchemaError(f"field '{key}' in {where} must be finite, got {v}")
    return v


def _ident(doc: Union[dict, list], key: Union[str, int], where: str) -> int:
    v = _field(doc, key, where)
    if isinstance(v, bool) or not isinstance(v, int) or v < 0:
        raise SchemaError(f"field '{key}' in {where} must be a nonnegative integer")
    return v


def load_instance(source: Union[str, Path, dict]) -> Instance:
    """Build a validated :class:`Instance` from a JSON file path or a parsed
    document.  Targets dropped during cleaning are reported on
    ``instance.removed_targets``."""
    doc = _read_json(source)
    for key in ("waypoints", "targets", "vehicle", "physics", "deadline"):
        if key not in doc:
            raise SchemaError(f"missing top-level key '{key}'")

    phys = _object(doc["physics"], "'physics'")
    physics = Physics(beta=_num(phys, "beta", "physics"),
                      gamma=_num(phys, "gamma", "physics"))
    veh = _object(doc["vehicle"], "'vehicle'")
    vehicle = Vehicle(
        coverage_factor=_num(veh, "coverage_factor", "vehicle"),
        coverage_radius=_num(veh, "coverage_radius", "vehicle"),
        speed_min=_num(veh, "speed_min", "vehicle"),
        speed_max=_num(veh, "speed_max", "vehicle"),
        energy_max=_num(veh, "energy_max", "vehicle", allow_inf=True),
        priority=_num(veh, "priority", "vehicle") if "priority" in veh else 1.0,
    )
    waypoints = []
    for k, w in enumerate(_array(doc, "waypoints", "document")):
        where = f"waypoints[{k}]"
        _object(w, where)
        waypoints.append(Waypoint(
            id=_ident(w, "id", where),
            point=Point2(_num(w, "x", where), _num(w, "y", where)),
            window_open=_num(w, "window_open", where) if "window_open" in w else 0.0,
            window_close=(_num(w, "window_close", where, allow_inf=True)
                          if "window_close" in w else math.inf),
        ))
    targets = []
    for k, t in enumerate(_array(doc, "targets", "document")):
        where = f"targets[{k}]"
        _object(t, where)
        targets.append(Target(
            id=_ident(t, "id", where),
            point=Point2(_num(t, "x", where), _num(t, "y", where)),
            risk_factor=_num(t, "risk_factor", where),
            priority=_num(t, "priority", where),
            risk_radius=_num(t, "risk_radius", where),
            min_coverage=_num(t, "min_coverage", where),
        ))
    meta = _object(doc.get("meta", {}), "'meta'")
    instance = Instance(
        waypoints=tuple(waypoints),
        targets=tuple(targets),
        vehicle=vehicle,
        physics=physics,
        deadline=_num(doc, "deadline", "document"),
        meta=tuple(sorted(meta.items())),
    )
    return finalize_instance(instance)


# ---------------------------------------------------------------------------
# generation


def generate_instance(seed: int,
                      n_waypoints: Optional[int] = None,
                      n_targets: Optional[int] = None,
                      *,
                      preset: Optional[str] = None,
                      case: str = "I",
                      deadline_scale: Optional[float] = None,
                      coverage_radius: Optional[float] = None,
                      min_coverage: float = 1.0) -> Instance:
    """Draw a random instance on a ``FIELD_SIZE`` square, deterministically in
    ``seed``.

    A preset fixes the waypoint/target counts and the coverage radius; counts
    given explicitly override it.  The deadline is ``arc_count * max arc
    length * scale`` with scale 1.0 for case I (never binding) and 0.1 for
    case II unless overridden.  Target priorities are integers drawn
    uniformly from ``PRIORITY_RANGE``.
    """
    if preset is not None:
        if preset not in PRESETS:
            raise SchemaError(f"unknown preset {preset!r}")
        p_way, p_tar, p_cov = PRESETS[preset]
        n_waypoints = n_waypoints if n_waypoints is not None else p_way
        n_targets = n_targets if n_targets is not None else p_tar
        coverage_radius = coverage_radius if coverage_radius is not None else p_cov
    if n_waypoints is None or n_targets is None:
        raise SchemaError("give a preset or explicit waypoint/target counts")
    if n_waypoints < 1 or n_targets < 1:
        raise SchemaError("sizes must be at least 1")
    if case not in DEADLINE_SCALE:
        raise SchemaError(f"case must be 'I' or 'II', got {case!r}")
    coverage_radius = coverage_radius if coverage_radius is not None else 10.0
    scale = deadline_scale if deadline_scale is not None else DEADLINE_SCALE[case]

    rng = random.Random(seed)
    depot = Point2(rng.uniform(0, FIELD_SIZE), rng.uniform(0, FIELD_SIZE))
    pts = [Point2(rng.uniform(0, FIELD_SIZE), rng.uniform(0, FIELD_SIZE))
           for _ in range(n_waypoints)]
    raw_targets = []
    for tid in range(n_targets):
        p = Point2(rng.uniform(0, FIELD_SIZE), rng.uniform(0, FIELD_SIZE))
        prio = rng.randint(*PRIORITY_RANGE)
        raw_targets.append(Target(tid, p, RISK_FACTOR, float(prio),
                                  RISK_RADIUS, min_coverage))

    all_pts = [depot] + pts + [depot]
    max_d = max(geometry.dist(all_pts[i], all_pts[j])
                for (i, j) in _segment_pairs(n_waypoints))
    deadline = _arc_count(n_waypoints) * max_d * scale

    waypoints = tuple(
        Waypoint(idx, p, 0.0, deadline) for idx, p in enumerate(all_pts))
    instance = Instance(
        waypoints=waypoints,
        targets=tuple(raw_targets),
        vehicle=Vehicle(COVERAGE_FACTOR, coverage_radius, SPEED_MIN, SPEED_MAX,
                        ENERGY_MAX),
        physics=Physics(),
        deadline=deadline,
        meta=tuple(sorted({
            "seed": seed, "preset": preset, "case": case,
            "deadline_scale": scale,
        }.items())),
    )
    return finalize_instance(instance)


# ---------------------------------------------------------------------------
# index table


class ArcIndexTable:
    """Precomputed coverage indices for every (arc, target) and (interior
    waypoint, target) pair, plus node distances and arc time bounds."""

    def __init__(self, instance: Instance):
        self.instance = instance
        n = instance.n
        self.n = n
        self.exit_id = instance.exit_id
        self.arcs: Tuple[Tuple[int, int], ...] = tuple(instance.arcs())
        self.arc_id: Dict[Tuple[int, int], int] = {
            a: k for k, a in enumerate(self.arcs)}
        self._arc_rows, self._arc_cols = np.array(self.arcs, dtype=np.intp).T
        self.target_ids: Tuple[int, ...] = tuple(t.id for t in instance.targets)

        pts = [w.point for w in instance.waypoints]
        self.node_dist = np.zeros((n + 2, n + 2))
        for i in range(n + 2):
            for j in range(i + 1, n + 2):
                d = geometry.dist(pts[i], pts[j])
                self.node_dist[i, j] = self.node_dist[j, i] = d
        self.arc_dist = np.array([self.node_dist[i, j] for (i, j) in self.arcs])
        self.min_time = self.arc_dist / instance.vehicle.speed_max
        self.max_time = self.arc_dist / instance.vehicle.speed_min

        m = len(instance.targets)
        eps = instance.eps_geo
        self.cov_index = np.zeros((len(self.arcs), m))
        self.cov_frac = np.zeros((len(self.arcs), m))
        veh = instance.vehicle
        for k, (i, j) in enumerate(self.arcs):
            for col, t in enumerate(instance.targets):
                try:
                    ci = geometry.arc_coverage_index(pts[i], pts[j], t.point,
                                                     veh.coverage_factor,
                                                     veh.coverage_radius, eps)
                except TargetTooCloseError as exc:
                    raise TargetTooCloseError(
                        f"target {t.id} against arc ({i},{j}): {exc}") from exc
                self.cov_index[k, col] = ci.per_time_index
                self.cov_frac[k, col] = ci.frac

        self.wp_cov = np.zeros((n, m))
        for i in instance.interior_ids:
            for col, t in enumerate(instance.targets):
                try:
                    self.wp_cov[i - 1, col] = geometry.point_index(
                        pts[i], t.point, veh.coverage_factor,
                        veh.coverage_radius, eps)
                except TargetTooCloseError as exc:
                    raise TargetTooCloseError(
                        f"target {t.id} against waypoint {i}: {exc}") from exc

        # coverage per unit travel time on the arc as a whole
        self.coverage_rate = self.cov_index * self.cov_frac
        self.priorities = np.array([t.priority for t in instance.targets])
        self.required = np.array([t.min_coverage for t in instance.targets])

    def matrix(self, per_arc: np.ndarray, fill: float = 0.0) -> np.ndarray:
        """Scatter a per-arc vector into a dense (n+2)x(n+2) node matrix."""
        out = np.full((self.n + 2, self.n + 2), fill)
        out[self._arc_rows, self._arc_cols] = per_arc
        return out

    def arc_ids(self, nodes: Sequence[int]) -> List[int]:
        """Arc ids of the consecutive node pairs of a route."""
        return [self.arc_id[a] for a in zip(nodes[:-1], nodes[1:])]

    def route_coverage(self, nodes: Sequence[int], times: Sequence[float],
                       idle_node: Optional[int], idle_time: float) -> np.ndarray:
        """Per-target coverage of a route: each arc's coverage rate times its
        travel time, plus the idle stop's rate times the idle time (no idle
        stop when ``idle_node`` is None or 0)."""
        cov = np.zeros(len(self.target_ids))
        for k, t in zip(self.arc_ids(nodes), times):
            cov += self.coverage_rate[k] * t
        if idle_node and idle_time > 0:
            cov += self.wp_cov[idle_node - 1] * idle_time
        return cov

    def waypoint_coverage_vector(self, node: int) -> np.ndarray:
        """Per-target idle coverage rates at an interior waypoint (zeros for
        the no-idle pseudo-node 0)."""
        if node == 0:
            return np.zeros(len(self.target_ids))
        return self.wp_cov[node - 1]


def build_index_table(instance: Instance) -> ArcIndexTable:
    """Compute the full index table for a validated instance."""
    return ArcIndexTable(instance)


def arc_energy(d: float, v: float, beta: float, gamma: float) -> float:
    """Propulsion energy over one arc: rolling resistance plus quadratic
    drag, ``d*beta + gamma*d*v**2``."""
    if d < 0:
        raise ValueError(f"distance must be nonnegative, got {d}")
    if v <= 0:
        raise ValueError(f"speed must be positive, got {v}")
    return d * beta + gamma * d * v * v


# ---------------------------------------------------------------------------
# solutions and validation


@dataclass(frozen=True)
class PathSolution:
    """One vehicle route with chosen per-arc travel times and at most one
    idle stop."""

    nodes: Tuple[int, ...]
    times: Tuple[float, ...]
    idle_node: Optional[int] = None
    idle_time: float = 0.0
    objective: Optional[float] = None
    per_target_coverage: Optional[Tuple[Tuple[int, float], ...]] = None

    def arcs(self) -> List[Tuple[int, int]]:
        return list(zip(self.nodes[:-1], self.nodes[1:]))

    @property
    def total_time(self) -> float:
        return float(sum(self.times)) + self.idle_time

    def to_dict(self) -> dict:
        doc = {
            "nodes": list(self.nodes),
            "times": list(self.times),
            "idle_node": self.idle_node,
            "idle_time": self.idle_time,
        }
        if self.objective is not None:
            doc["objective"] = self.objective
        if self.per_target_coverage is not None:
            doc["per_target_coverage"] = {
                str(k): v for k, v in self.per_target_coverage}
        return doc


def solution_to_json(sol: PathSolution) -> str:
    return json.dumps(sol.to_dict(), indent=2, sort_keys=True) + "\n"


def save_solution(sol: PathSolution, path: Union[str, Path]) -> None:
    Path(path).write_text(solution_to_json(sol))


def load_solution(source: Union[str, Path, dict]) -> PathSolution:
    """Read a route from a JSON file path or a parsed document, with the
    number rules of :func:`load_instance`."""
    doc = _read_json(source)
    nodes = _array(doc, "nodes", "solution")
    times = _array(doc, "times", "solution")
    cov = doc.get("per_target_coverage")
    if cov is not None:
        _object(cov, "'per_target_coverage'")
        if not all(k.isascii() and k.isdigit() for k in cov):
            raise SchemaError("'per_target_coverage' keys must be target ids")
        cov = tuple(sorted((int(k), _num(cov, k, "per_target_coverage"))
                           for k in cov))
    return PathSolution(
        nodes=tuple(_ident(nodes, k, "nodes") for k in range(len(nodes))),
        times=tuple(_num(times, k, "times") for k in range(len(times))),
        idle_node=(None if doc.get("idle_node") is None
                   else _ident(doc, "idle_node", "solution")),
        idle_time=_num(doc, "idle_time", "solution") if "idle_time" in doc else 0.0,
        objective=(None if doc.get("objective") is None
                   else _num(doc, "objective", "solution")),
        per_target_coverage=cov,
    )


#: constraint slack a route may fall short by, and the largest difference
#: between a solution's claimed objective and the recomputed one
VALIDATE_TOL = 1e-9
OBJECTIVE_TOL = 1e-8


@dataclass(frozen=True)
class ValidateOptions:
    enforce_coverage: bool = False
    check_time_windows: bool = False
    check_energy: bool = False


@dataclass(frozen=True)
class ConstraintCheck:
    name: str
    passed: bool
    slack: float

    def __post_init__(self):
        object.__setattr__(self, "passed", bool(self.passed))
        object.__setattr__(self, "slack", float(self.slack))


@dataclass(frozen=True)
class PerTargetCoverage:
    id: int
    coverage: float
    required: float

    def __post_init__(self):
        object.__setattr__(self, "coverage", float(self.coverage))
        object.__setattr__(self, "required", float(self.required))


@dataclass(frozen=True)
class ValidationReport:
    constraints: Tuple[ConstraintCheck, ...]
    objective: Optional[float]
    per_target: Tuple[PerTargetCoverage, ...]

    @property
    def ok(self) -> bool:
        return all(c.passed for c in self.constraints)

    def to_dict(self) -> dict:
        return {
            "constraints": [
                {"name": c.name, "pass": c.passed, "slack": c.slack}
                for c in self.constraints],
            "objective": self.objective,
            "per_target": [
                {"id": p.id, "coverage": p.coverage, "required": p.required}
                for p in self.per_target],
        }


def validate_solution(instance: Instance, sol: PathSolution,
                      opts: Optional[ValidateOptions] = None,
                      table: Optional[ArcIndexTable] = None) -> ValidationReport:
    """Check a candidate route against the model constraints.

    Structural problems are reported as failed checks, never raised.  The
    objective is recomputed from the index table and compared against the
    solution's claimed value when one is present.
    """
    opts = opts or ValidateOptions()
    checks: List[ConstraintCheck] = []
    arcs = sol.arcs()
    valid_arcs = set()
    structural = 0

    if len(sol.nodes) < 2 or sol.nodes[0] != 0 or sol.nodes[-1] != instance.exit_id:
        structural += 1
    if len(set(sol.nodes)) != len(sol.nodes):
        structural += 1
    if len(sol.times) != len(arcs):
        structural += 1
    if any(t <= 0 for t in sol.times):
        structural += 1
    if structural == 0:
        valid_arcs = set(instance.arcs())
        if any(a not in valid_arcs for a in arcs):
            structural += 1
    if sol.idle_node is not None:
        if sol.idle_node not in instance.interior_ids or sol.idle_node not in sol.nodes:
            structural += 1
        if sol.idle_time < 0:
            structural += 1
    elif sol.idle_time != 0.0:
        structural += 1
    checks.append(ConstraintCheck("path-structure", structural == 0,
                                  0.0 if structural == 0 else -float(structural)))
    if structural:
        return ValidationReport(tuple(checks), None, ())

    table = table or build_index_table(instance)
    veh = instance.vehicle
    dists = [table.node_dist[i, j] for (i, j) in arcs]
    speeds = [d / t for d, t in zip(dists, sol.times)]

    speed_slack = min(
        min(v - veh.speed_min for v in speeds),
        min(veh.speed_max - v for v in speeds))
    checks.append(ConstraintCheck("speed-bounds", speed_slack >= -VALIDATE_TOL,
                                  speed_slack))

    deadline_slack = instance.deadline - sol.total_time
    checks.append(ConstraintCheck("deadline", deadline_slack >= -VALIDATE_TOL,
                                  deadline_slack))

    cov = table.route_coverage(sol.nodes, sol.times, sol.idle_node,
                               sol.idle_time)
    objective = float(table.priorities @ cov)

    if sol.objective is not None:
        diff = abs(objective - sol.objective)
        checks.append(ConstraintCheck("objective-consistency",
                                      diff <= OBJECTIVE_TOL,
                                      OBJECTIVE_TOL - diff))

    per_target = tuple(
        PerTargetCoverage(t.id, float(cov[col]), t.min_coverage)
        for col, t in enumerate(instance.targets))
    if opts.enforce_coverage:
        failing = [p for p in per_target
                   if p.coverage < p.required - VALIDATE_TOL]
        if failing:
            for p in failing:
                checks.append(ConstraintCheck(f"coverage[{p.id}]", False,
                                              p.coverage - p.required))
        else:
            worst = min((p.coverage - p.required for p in per_target),
                        default=0.0)
            checks.append(ConstraintCheck("coverage-requirement", True, worst))

    if opts.check_time_windows:
        slack = math.inf
        clock = instance.waypoints[0].window_open
        ok = True
        for (i, j), t in zip(arcs, sol.times):
            clock += t
            wp = instance.waypoints[j]
            if j == instance.exit_id:
                slack = min(slack, wp.window_close - clock)
                break
            service = max(clock, wp.window_open)
            idle = sol.idle_time if j == sol.idle_node else 0.0
            slack = min(slack, wp.window_close - (service + idle))
            clock = service + idle
        ok = slack >= -VALIDATE_TOL
        checks.append(ConstraintCheck("time-windows", ok,
                                      slack if math.isfinite(slack) else 0.0))

    if opts.check_energy:
        used = sum(arc_energy(d, v, instance.physics.beta, instance.physics.gamma)
                   for d, v in zip(dists, speeds))
        e_slack = veh.energy_max - used
        checks.append(ConstraintCheck("energy", e_slack >= -VALIDATE_TOL, e_slack))

    return ValidationReport(tuple(checks), objective, per_target)
