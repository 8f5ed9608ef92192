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

import functools
import json
import math
import random
from dataclasses import asdict, dataclass, field, fields, replace
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from . import geometry
from .errors import SchemaError, TargetTooCloseError
from .geometry import Point2, unchecked_point

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

    def arcs(self) -> Tuple[Tuple[int, int], ...]:
        return _arcs(self.n)

    @property
    def arc_count(self) -> int:
        return len(self.arcs())

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


@functools.lru_cache(maxsize=8)
def _arcs(n: int) -> Tuple[Tuple[int, int], ...]:
    """The arcs of a network with ``n`` interior waypoints: (V minus exit)
    x V, minus self-loops and (0, exit)."""
    out = n + 1
    return tuple((i, j) for i in range(out) for j in range(out + 1)
                 if i != j and (i or j != out))


@functools.lru_cache(maxsize=8)
def _arc_grid(n: int) -> Tuple[Tuple[int, ...], ...]:
    """The arc ids of a network with ``n`` interior waypoints as a grid:
    ``grid[i][j]`` is the id of arc ``(i, j)``, -1 where there is none."""
    grid = [[-1] * (n + 2) for _ in range(n + 2)]
    for k, (i, j) in enumerate(_arcs(n)):
        grid[i][j] = k
    return tuple(map(tuple, grid))


@functools.lru_cache(maxsize=8)
def _arc_nodes(n: int) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The arcs' tail and head nodes as index arrays, and the indices of
    the arcs ``(i, j)`` with ``i < j``: one arc per segment, in arc order.
    Read-only, since every caller shares them."""
    rows, cols = np.array(_arcs(n), dtype=np.intp).T
    segments = np.flatnonzero(rows < cols)
    for a in (rows, cols, segments):
        a.setflags(write=False)
    return rows, cols, segments


def _check_finite(where: str, obj, may_be_inf: Tuple[str, ...] = ()) -> None:
    """Every float field of the dataclass ``obj`` must be finite; the fields
    named in ``may_be_inf`` may also be +inf (the file format's rule)."""
    for f in fields(obj):
        v = getattr(obj, f.name)
        if isinstance(v, float) and not (
                math.isfinite(v) or (f.name in may_be_inf and v == math.inf)):
            raise SchemaError(f"field '{f.name}' in {where} must be finite, got {v}")


def _check_numbers(instance: Instance) -> None:
    """Refuse a number that :func:`load_instance` would refuse: NaN, or an
    infinity outside ``energy_max`` and ``window_close``."""
    _check_finite("document", instance)  # the deadline
    _check_finite("physics", instance.physics)
    _check_finite("vehicle", instance.vehicle, ("energy_max",))
    for pos, wp in enumerate(instance.waypoints):
        _check_finite(f"waypoints[{pos}]", wp, ("window_close",))
    for t in instance.targets:
        _check_finite(f"target {t.id}", t)


def _check_structure(instance: Instance) -> None:
    """Refuse every defect but a bad number: sizes, ids, windows, ranges and
    coincident waypoints."""
    n = instance.n
    if n < 1:
        raise SchemaError("need at least one interior waypoint")
    if n > MAX_WAYPOINTS:
        raise SchemaError(f"at most {MAX_WAYPOINTS} interior waypoints are "
                          f"supported, got {n}")
    for pos, wp in enumerate(instance.waypoints):
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
        if t.min_coverage < 0:
            raise SchemaError(f"target {t.id} has negative coverage requirement")
        if t.risk_radius <= 0 or t.risk_factor < 0:
            raise SchemaError(f"target {t.id} has bad risk parameters")
        if t.priority < 0:
            raise SchemaError(f"target {t.id} has negative priority")
    rows, cols, segments = _arc_nodes(n)
    for i, j in zip(rows[segments].tolist(), cols[segments].tolist()):
        # the squared length, not the distance: a segment whose square
        # underflows to 0 has no direction for the chord geometry
        a, b = instance.point(i), instance.point(j)
        dx, dy = b.x - a.x, b.y - a.y
        if dx * dx + dy * dy == 0.0:
            raise SchemaError(f"waypoints {i} and {j} coincide")


def validate_instance(instance: Instance) -> None:
    """Raise :class:`SchemaError` on any structural defect, or on a number
    that :func:`load_instance` would refuse (NaN, or an infinity outside
    ``energy_max`` and ``window_close``).  The numbers are checked first."""
    _check_numbers(instance)
    _check_structure(instance)


def _xy(points: Sequence[Point2]) -> Tuple[np.ndarray, np.ndarray]:
    """The points' x and y coordinates as two arrays."""
    return (np.array([p.x for p in points], dtype=float),
            np.array([p.y for p in points], dtype=float))


def _target_geometry(instance: Instance):
    """The chord batch of every arc (rows, in arc order) against every
    target (columns), with the vehicle's coverage factor and radius and the
    clearance ``eps_geo``, and every interior waypoint's distance to every
    target.  A target far beyond a tiny network overflows the kernel's
    quotients, and one too close to a node its inverse-square rates; numpy
    stays silent about both, and the callers read what they need."""
    xs, ys = _xy([w.point for w in instance.waypoints])
    tx, ty = _xy([t.point for t in instance.targets])
    rows, cols, _ = _arc_nodes(instance.n)
    veh = instance.vehicle
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        chords = geometry.segment_disk_batch(
            xs[rows], ys[rows], xs[cols], ys[cols], tx, ty,
            veh.coverage_factor, veh.coverage_radius, instance.eps_geo)
        wp_dist = geometry.distances(xs[1:instance.n + 1],
                                     ys[1:instance.n + 1], tx, ty)
    return chords, wp_dist


def _clean_targets(instance: Instance) -> Instance:
    """Drop targets that sit on an arc or that no arc/waypoint can cover.

    The geometry pass runs here over every arc, with the vehicle's factor;
    the on-arc and coverable tests read its ``i < j`` rows, one per
    segment.  When no target is dropped, the pass stays on the instance
    returned, and the first index table built for it takes it off; a
    cleaned copy builds its table from scratch."""
    chords, wp_dist = _target_geometry(instance)
    segments = _arc_nodes(instance.n)[2]
    on_arc = ~chords.clear[segments].all(axis=0)
    coverable = ((wp_dist <= instance.vehicle.coverage_radius).any(axis=0)
                 | chords.hit[segments].any(axis=0))
    kept: List[Target] = []
    removed: List[Tuple[int, str]] = []
    for t, arc, cov in zip(instance.targets, on_arc, coverable):
        if arc:
            removed.append((t.id, "on-arc"))
        elif cov:
            kept.append(t)
        else:
            removed.append((t.id, "uncoverable"))
    if removed:
        return replace(instance, targets=tuple(kept),
                       removed_targets=instance.removed_targets + tuple(removed))
    # as the frozen dataclass's own __init__ sets its fields; not a field,
    # so the instance compares, hashes and prints as before
    object.__setattr__(instance, "_geometry", (chords, wp_dist))
    return instance


def finalize_instance(instance: Instance) -> Instance:
    """Validate and clean the target set."""
    validate_instance(instance)
    return _clean_targets(instance)


# ---------------------------------------------------------------------------
# serialization


def json_text(doc: dict) -> str:
    """The text of the package's JSON files (instances, solutions, records,
    reports): indented, keys sorted, one trailing newline."""
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def serialize_instance(instance: Instance) -> dict:
    """The instance's dataclass fields, each point flattened into ``x`` and
    ``y``; the removed targets are not written."""
    doc = asdict(instance)
    del doc["removed_targets"]
    doc["meta"] = instance.meta_dict()
    for key in ("waypoints", "targets"):
        doc[key] = list(doc[key])
        for record in doc[key]:
            record.update(record.pop("point"))
    return doc


def instance_to_json(instance: Instance) -> str:
    return json_text(serialize_instance(instance))


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
    try:
        return doc[key]
    except KeyError:
        raise SchemaError(f"missing field '{key}' in {where}") from None


def _array(doc: dict, key: str, where: str) -> list:
    v = _field(doc, key, where)
    if not isinstance(v, list):
        raise SchemaError(f"field '{key}' in {where} must be an array")
    return v


def _num(doc: Union[dict, list], key: Union[str, int], where: str,
         allow_inf: bool = False) -> float:
    """``doc[key]`` as a finite float; with ``allow_inf``, +inf too (the
    only infinity the file format has)."""
    v = _field(doc, key, where)
    if type(v) is not float:
        if (type(v) is not int
                and (isinstance(v, bool) or not isinstance(v, (int, float)))):
            raise SchemaError(
                f"field '{key}' in {where} must be a number, got {v!r}")
        try:
            v = float(v)
        except OverflowError:  # an integer past the float range
            raise SchemaError(f"field '{key}' in {where} is too large for a "
                              f"float") from None
    if not math.isfinite(v) and not (allow_inf and v == math.inf):
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
    ``instance.removed_targets``.

    Each number is checked once, as it is read (:func:`_num`): points are
    built from checked coordinates without ``Point2``'s own check, and the
    instance then gets the structural checks of :func:`validate_instance`
    alone.  When cleaning drops no target, the first index table built for
    the returned instance reads cleaning's geometry pass."""
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
            point=unchecked_point(_num(w, "x", where), _num(w, "y", where)),
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
            point=unchecked_point(_num(t, "x", where), _num(t, "y", where)),
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
    _check_structure(instance)
    return _clean_targets(instance)


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
    arcs = _arcs(n_waypoints)
    max_d = max(geometry.dist(all_pts[i], all_pts[j]) for (i, j) in arcs)
    deadline = len(arcs) * max_d * scale

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
    waypoint, target) pair, plus node distances and arc time bounds.

    The first table of an instance that target cleaning returned with
    every target kept takes cleaning's geometry pass off the instance; any
    other table (a second one, or one of an instance built by ``replace``
    or whose cleaning dropped targets) runs the same pass itself.  Both
    give the same bytes."""

    def __init__(self, instance: Instance):
        self.instance = instance
        n = instance.n
        self.n = n
        self.exit_id = instance.exit_id
        self.arcs: Tuple[Tuple[int, int], ...] = instance.arcs()
        self.arc_id: Dict[Tuple[int, int], int] = {
            a: k for k, a in enumerate(self.arcs)}
        self._arc_rows, self._arc_cols, _ = _arc_nodes(n)
        self.target_ids: Tuple[int, ...] = tuple(t.id for t in instance.targets)

        xs, ys = _xy([w.point for w in instance.waypoints])
        self.node_dist = geometry.distances(xs, ys, xs, ys)
        self.arc_dist = self.node_dist[self._arc_rows, self._arc_cols]
        with np.errstate(over="ignore"):
            self.min_time = self.arc_dist / instance.vehicle.speed_max
            self.max_time = self.arc_dist / instance.vehicle.speed_min
        # a route's time adds up at most n + 1 slowest arc times
        k = int(self.max_time.argmax())
        if not math.isfinite((n + 1) * float(self.max_time[k])):
            raise SchemaError(
                "arc ({},{}) of length {} at speed_min {} takes too long: a "
                "route of {} such arcs leaves the float range".format(
                    *self.arcs[k], self.arc_dist[k],
                    instance.vehicle.speed_min, n + 1))
        #: the slowest-route certificate: the largest path-order sum of
        #: ``max_time`` over the routes a ``labeling_case1`` fill scores,
        #: set by the table's first case-II fill (None before it)
        self.slowest_route: Optional[float] = None

        self.priorities = np.array([t.priority for t in instance.targets])
        self.required = np.array([t.min_coverage for t in instance.targets])
        # A target clear of every arc can still sit so close to a node that
        # an inverse-square rate leaves the float range: a quotient overflows,
        # or a squared distance underflows to 0 (0/0 at a zero factor).
        # Finite rates can still give a route more coverage than the float
        # range holds.  A route has at most n + 1 arcs, each covering at most
        # its rate at its slowest time, and idles for at most the deadline;
        # the cuts square that coverage and weight it by priority.  numpy
        # stays silent about all this; the guards below refuse the target by
        # name before any rate is used.
        chords, wp_dist = (instance.__dict__.pop("_geometry", None)
                           or _target_geometry(instance))
        veh = instance.vehicle
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            # coverage per unit travel time on the arc as a whole
            self.coverage_rate = chords.rate
            self.wp_cov = geometry.point_rates(
                wp_dist, veh.coverage_factor, veh.coverage_radius)
            arc_cov = self.coverage_rate * self.max_time[:, None]
            idle_cov = self.wp_cov * instance.deadline
            most = ((n + 1) * arc_cov.max(axis=0) + idle_cov.max(axis=0)) \
                * np.maximum(self.priorities, 1.0)
        if not chords.clear.all():
            k, col = np.unravel_index(np.argmin(chords.clear), chords.clear.shape)
            (i, j), t = self.arcs[k], instance.targets[col]
            exc = geometry.on_arc_error(t.point, instance.eps_geo)
            raise TargetTooCloseError(
                f"target {t.id} against arc ({i},{j}): {exc}") from exc
        held = most <= 1e150  # False for inf and NaN too
        if held.all():
            return
        for rates, where in (
                (self.coverage_rate, lambda k: "arc ({},{})".format(*self.arcs[k])),
                (self.wp_cov, lambda k: f"waypoint {k + 1}")):
            finite = np.isfinite(rates)
            if not finite.all():
                k, col = np.unravel_index(np.argmin(finite), finite.shape)
                t = instance.targets[col]
                raise TargetTooCloseError(
                    f"target {t.id} against {where(k)}: target at ({t.point.x}, "
                    f"{t.point.y}) is too close for a finite coverage rate")
        # every rate is finite: name the largest term of the bound
        col = np.argmin(held)
        k, v = arc_cov[:, col].argmax(), idle_cov[:, col].argmax()
        where = (f"waypoint {v + 1}"
                 if idle_cov[v, col] >= (n + 1) * arc_cov[k, col]
                 else "arc ({},{})".format(*self.arcs[k]))
        t = instance.targets[col]
        raise TargetTooCloseError(
            f"target {t.id} against {where}: target at ({t.point.x}, "
            f"{t.point.y}) is too close for its route coverage to stay "
            f"within the float range")

    def matrix(self, per_arc: np.ndarray, fill: float = 0.0) -> np.ndarray:
        """Scatter a per-arc vector into a dense (n+2)x(n+2) node matrix;
        leading axes of ``per_arc`` stay leading axes of the result."""
        out = np.full(per_arc.shape[:-1] + (self.n + 2, self.n + 2), fill)
        out[..., self._arc_rows, self._arc_cols] = per_arc
        return out

    def arc_ids(self, nodes: Sequence[int]) -> List[int]:
        """Arc ids of the consecutive node pairs of a route."""
        return [self.arc_id[a] for a in zip(nodes[:-1], nodes[1:])]

    def route_coverage(self, routes: Sequence[tuple]) -> np.ndarray:
        """Per-target coverage of a batch of timed routes ``(arcs, times,
        idle_node, idle_time)``, one row per route, where ``arcs`` are the
        route's arc ids in path order (:meth:`arc_ids` of its nodes): each
        arc's coverage rate times its travel time, added in path order,
        then the idle stop's rate times the idle time, added only when
        ``idle_node`` is set (neither None nor 0) and the idle time is
        positive.

        The routes' arc rates are gathered at once, padded to the longest
        route with zero-time arcs and closed by an idle term (at time 0
        without an idle stop), and one running sum along the path axis adds
        each route's terms in that order.  A zero-time term adds nothing,
        so each row equals the call with its route alone, bit for bit."""
        width = max(len(arcs) for arcs, _, _, _ in routes)
        times = np.array([
            [*t] + [0.0] * (width - len(t)) + [w if v and w > 0 else 0.0]
            for (_, t, v, w) in routes])
        # a route without an idle stop takes some waypoint's rate at time 0
        rates = np.concatenate(
            [self.coverage_rate[[[*arcs] + [0] * (width - len(arcs))
                                 for arcs, _, _, _ in routes]],
             self.wp_cov[[(v or 0) - 1 for _, _, v, _ in routes], None]],
            axis=1)
        return np.add.accumulate(times[..., None] * rates, axis=1)[:, -1]


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
    return json_text(sol.to_dict())


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
#: between a solution's claimed objective, or claimed coverage of a target,
#: and the recomputed one
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
    objective and the per-target coverage are recomputed from the index
    table and compared against the solution's claimed values when present.
    """
    opts = opts or ValidateOptions()
    checks: List[ConstraintCheck] = []
    arcs = sol.arcs()
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

    (cov,) = table.route_coverage(
        [(table.arc_ids(sol.nodes), sol.times, sol.idle_node, sol.idle_time)])
    objective = float(table.priorities @ cov)

    if sol.objective is not None:
        diff = abs(objective - sol.objective)
        checks.append(ConstraintCheck("objective-consistency",
                                      diff <= OBJECTIVE_TOL,
                                      OBJECTIVE_TOL - diff))
    if sol.per_target_coverage is not None:
        claimed = dict(sol.per_target_coverage)
        ids = [t.id for t in instance.targets]
        if set(claimed) != set(ids):
            mismatch = len(set(claimed) ^ set(ids))
            checks.append(ConstraintCheck("coverage-consistency", False,
                                          -float(mismatch)))
        else:
            diff = max((abs(claimed[i] - c) for i, c in zip(ids, cov)),
                       default=0.0)
            checks.append(ConstraintCheck("coverage-consistency",
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
