"""Numeric instantiation of constructions and randomized conjecture checking.

A construction is executed as a straight-line program over concrete
coordinates; conjecture predicates are then decided by residuals against a
scale-aware threshold.  The checker samples free points with a fixed,
documented PRNG (splitmix64, see docs/prng.md) so reports are bit-identical
across runs and platforms.

A consistent report is evidence, not a proof: the checker only ever looks at
finitely many concrete positions.
"""

from __future__ import annotations

import enum
import math
import sys
from array import array
from dataclasses import dataclass
from typing import NamedTuple

from .errors import (
    CodecError,
    DegeneratePredicateError,
    DegenerateStep,
    KindMismatchError,
    NoConjectureError,
    OpaqueConstraintError,
    UnresolvedIdError,
)
from .model import (
    CONSTRAINT_SIGNATURES,
    Collinear,
    Const,
    ConstraintKind,
    Construction,
    ElementInstance,
    Equal,
    GeoKind,
    Harmonic,
    Midpoint,
    NotEqual,
    NotParallel,
    Parallel,
    Perpendicular,
    Plus,
    Predicate,
    Problem,
    SameLength,
    SegmentLength,
    SegmentRatio,
    Term,
    _constraint_path,
    predicate_point_ids,
    term_point_ids,
    validate_construction,
)

__all__ = [
    "CheckReport",
    "NumericScene",
    "SceneCircle",
    "SceneLine",
    "ScenePoint",
    "Tolerance",
    "Verdict",
    "Witness",
    "check_conjecture",
    "eval_predicate",
    "eval_term",
    "instantiate",
    "sample_free_points",
    "scene_scale",
]

DEFAULT_SAMPLE_RANGE = 10.0
# Free coordinates up to 2**500 keep every squared difference of them below
# 2**1003, so no residual of free points overflows (docs/checker.md).
MAX_SAMPLE_RANGE = 2.0**500


class ScenePoint(NamedTuple):
    x: float
    y: float


class SceneLine(NamedTuple):
    """Homogeneous line ax + by + c = 0, normalized so a^2 + b^2 = 1 and
    (a, b) lexicographically positive."""

    a: float
    b: float
    c: float


class SceneCircle(NamedTuple):
    cx: float
    cy: float
    r: float


SceneObject = ScenePoint | SceneLine | SceneCircle
NumericScene = dict[str, SceneObject]
_SCENE_CLASSES = {GeoKind.POINT: ScenePoint, GeoKind.LINE: SceneLine, GeoKind.CIRCLE: SceneCircle}


@dataclass(frozen=True)
class Tolerance:
    """Relative tolerance for residual tests.

    Thresholds grow with the scene magnitude and the residual's coordinate
    degree: eps = eps_rel * scale**degree (scale floored at 1).
    """

    eps_rel: float = 1e-9

    def __post_init__(self) -> None:
        if not (0.0 < self.eps_rel <= 1e-2):
            raise ValueError(f"eps_rel must be in (0, 1e-2], got {self.eps_rel}")


class _Scene(dict):
    """The scene one trial of :func:`check_conjecture` decides on: the plain
    coordinate tuples of its run, whose point ids the check resolved before
    its first trial, carrying the scale of the run (the value a scan by
    :func:`scene_scale` computes for the typed scene)."""

    __slots__ = ("scale",)


def scene_scale(scene: NumericScene) -> float:
    """Max absolute coordinate magnitude across the scene, floored at 1.

    A trial scene of :func:`check_conjecture` carries it; any other mapping
    is scanned, and raises TypeError naming the id of a value that is not a
    ScenePoint, SceneLine or SceneCircle."""

    if isinstance(scene, _Scene):
        return scene.scale
    scale = 1.0
    for ref, obj in scene.items():
        if isinstance(obj, ScenePoint):
            scale = max(scale, abs(obj.x), abs(obj.y))
        elif isinstance(obj, SceneLine):
            scale = max(scale, abs(obj.c))
        elif isinstance(obj, SceneCircle):
            scale = max(scale, abs(obj.cx), abs(obj.cy), obj.r)
        else:
            raise TypeError(f"scene value of {ref!r} is not a scene object: {obj!r}")
    return scale


def _dist(p: tuple, q: tuple) -> float:
    dx = p[0] - q[0]
    dy = p[1] - q[1]
    return math.sqrt(dx * dx + dy * dy)


def _check_points(scene: NumericScene, refs: tuple[str, ...]) -> None:
    """Raise for the first of ``refs`` that names no point of ``scene``."""

    for ref in refs:
        try:
            obj = scene[ref]
        except KeyError:
            raise UnresolvedIdError(ref) from None
        if not isinstance(obj, ScenePoint):
            raise KindMismatchError(ref, "point", type(obj).__name__.removeprefix("Scene").lower())


# ---------------------------------------------------------------------------
# Construction execution
#
# A construction is compiled once into a plan, which then runs once per set
# of free coordinates.  A run keeps its objects in a list of slots: slot i
# holds the object of the plan's i-th output id, and the slots after those
# hold the free coordinate pairs of the run.  Every slot is a plain tuple,
# (x, y), (a, b, c) or (cx, cy, r): a named tuple costs a Python call to
# build, so only instantiate types the objects, by the plan's kinds.  Each
# step carries the opcode of its kind from the table below, and one loop in
# _run computes the new object of each opcode from the contents of the
# step's two input slots (a one-input step reads its input twice, a free
# point its coordinate pair).  The first slots of a run are then its scene.

_NOT_FINITE = "coordinates are not finite"


def _grow(out: str, a: float) -> float:
    """The new running scale for an absolute coordinate ``a`` that is not
    within the old one; DegenerateStep if ``a`` is inf or NaN."""

    if a < math.inf:
        return a
    raise DegenerateStep(out, _NOT_FINITE)


# Opcodes: the point steps first, then the line steps, then the circle, so
# that one comparison picks the shared tail; within each group the kinds
# come in the order of their share of generated plans.
_FREE_POINT, _MIDPOINT, _INTERSECTION, _ON_LINE, _ON_CIRCLE, _LINE, _PERPENDICULAR, _PARALLEL, _CIRCLE = range(9)

_STEPS = {
    ConstraintKind.FREE_POINT: _FREE_POINT,
    ConstraintKind.LINE_THROUGH_TWO_POINTS: _LINE,
    ConstraintKind.INTERSECTION_OF_TWO_LINES: _INTERSECTION,
    ConstraintKind.MIDPOINT_OF_TWO_POINTS: _MIDPOINT,
    ConstraintKind.CIRCLE_BY_CENTER_AND_POINT: _CIRCLE,
    ConstraintKind.PERPENDICULAR_LINE_THROUGH_POINT: _PERPENDICULAR,
    ConstraintKind.PARALLEL_LINE_THROUGH_POINT: _PARALLEL,
    ConstraintKind.POINT_ON_LINE: _ON_LINE,
    ConstraintKind.POINT_ON_CIRCLE: _ON_CIRCLE,
}
# kind -> (opcode, input kinds, output kind), so that compiling looks each
# step up once; OPAQUE is not in it
_SIGNED_STEPS = {kind: (_STEPS[kind], ins, out) for kind, (ins, out, _attr) in CONSTRAINT_SIGNATURES.items()}


@dataclass(frozen=True)
class _Plan:
    """A construction compiled for repeated runs: its free ids in draw
    order, per constraint (opcode, constraint, input slot, input slot,
    output slot), its output ids in slot order, and the kind of each."""

    free_ids: tuple[str, ...]
    steps: tuple[tuple, ...]
    ids: tuple[str, ...]
    kinds: dict[str, GeoKind]


# The codes of validate_construction that stop every run of a step
_RUN_STOPPING = {"DuplicateOutput", "ArityError", "DanglingReference", "ForwardReference", "KindMismatch"}


def _refusal(construction: Construction, i: int) -> CodecError:
    """The first run-stopping violation validate_construction reports at
    step ``i``, over elements typed by each id's first step, since a run
    reads no element (a plan stops at an opaque step, which types a point)."""

    constraints = construction.constraints
    kinds = {c.output: CONSTRAINT_SIGNATURES.get(c.kind, ((), GeoKind.POINT))[1] for c in reversed(constraints)}
    elements = tuple(ElementInstance(eid, kind, ()) for eid, kind in kinds.items())
    path = _constraint_path(i, constraints[i])
    violations = validate_construction(Construction(elements, constraints))
    return CodecError([next(v for v in violations if v.path == path and v.code in _RUN_STOPPING)])


def _compile(construction: Construction) -> _Plan:
    """Resolve every reference once.  For the first step in program order
    that no run could execute, raise OpaqueConstraintError if it is opaque,
    else _refusal's CodecError.  Each step's test (its output, its arity,
    then each input) fails where the model reports a _RUN_STOPPING code."""

    constraints = construction.constraints
    ids = tuple(c.output for c in constraints)
    slot = {eid: i for i, eid in enumerate(ids)}
    free_ids = construction.free_point_ids()
    pair_slot = {fid: len(ids) + i for i, fid in enumerate(free_ids)}
    kinds: dict[str, GeoKind] = {}
    steps = []
    for i, c in enumerate(constraints):
        try:
            op, in_kinds, out_kind = _SIGNED_STEPS[c.kind]
        except KeyError:
            raise OpaqueConstraintError(c.output) from None
        inputs = c.inputs
        if c.output in kinds or len(inputs) != len(in_kinds):
            raise _refusal(construction, i)
        for ref, want in zip(inputs, in_kinds):
            if kinds.get(ref) is not want:
                raise _refusal(construction, i)
        if inputs:
            first, second = slot[inputs[0]], slot[inputs[-1]]
        else:
            first = second = pair_slot[c.output]
        steps.append((op, c, first, second, slot[c.output]))
        kinds[c.output] = out_kind
    return _Plan(free_ids, tuple(steps), ids, kinds)


def _run(plan: _Plan, pairs: list[tuple[float, float]], eps_rel: float) -> tuple[list, float]:
    """One run of ``plan`` over free coordinate pairs in ``plan.free_ids``
    order: its slots, which start with the plain coordinate tuples of the
    objects of ``plan.ids``, and the scale of that scene.  A step whose
    inputs are degenerate, or whose result is not finite, raises
    DegenerateStep."""

    slots = [None] * len(plan.ids) + pairs
    scale = 1.0
    sqrt, inf = math.sqrt, math.inf
    for op, c, first, second, out in plan.steps:
        if op <= _ON_CIRCLE:
            if op == _FREE_POINT:
                x, y = slots[first]
            elif op == _MIDPOINT:
                px, py = slots[first]
                qx, qy = slots[second]
                x = (px + qx) / 2.0
                y = (py + qy) / 2.0
            elif op == _INTERSECTION:
                la, lb, lc = slots[first]
                ma, mb, mc = slots[second]
                h3 = la * mb - lb * ma
                if abs(h3) < eps_rel * scale:
                    raise DegenerateStep(c.output, f"lines {c.inputs[0]} and {c.inputs[1]} are parallel")
                x = (lb * mc - lc * mb) / h3
                y = (lc * ma - la * mc) / h3
            elif op == _ON_LINE:
                la, lb, lc = slots[first]
                t = c.parameter or 0.0
                # base point: foot of the perpendicular from the origin
                x = -la * lc - lb * t
                y = -lb * lc + la * t
            else:
                cx, cy, r = slots[first]
                ang = c.parameter or 0.0
                x = cx + r * math.cos(ang)
                y = cy + r * math.sin(ang)
            ax = abs(x)
            if not ax <= scale:
                scale = _grow(c.output, ax)
            ay = abs(y)
            if not ay <= scale:
                scale = _grow(c.output, ay)
            slots[out] = (x, y)
        elif op != _CIRCLE:
            if op == _LINE:
                px, py = slots[first]
                qx, qy = slots[second]
                a = py - qy
                b = qx - px
                if sqrt(a * a + b * b) < eps_rel * scale:
                    raise DegenerateStep(c.output, f"points {c.inputs[0]} and {c.inputs[1]} coincide")
                k = px * qy - qx * py
            else:
                la, lb, _lc = slots[first]
                px, py = slots[second]
                if op == _PERPENDICULAR:
                    a, b, k = lb, -la, la * py - lb * px
                else:
                    a, b, k = la, lb, -(la * px + lb * py)
            n = sqrt(a * a + b * b)
            if not 0.0 < n < inf:
                raise DegenerateStep(c.output, _NOT_FINITE)
            a, b, k = a / n, b / n, k / n
            if a < 0.0 or (a == 0.0 and b < 0.0):
                a, b, k = -a, -b, -k
            # |a| and |b| are at most 1, so only the offset can grow the scale
            ak = abs(k)
            if not ak <= scale:
                scale = _grow(c.output, ak)
            slots[out] = (a, b, k)
        else:
            # the centre's coordinates grew the scale when the centre was made
            ox, oy = slots[first]
            px, py = slots[second]
            dx = ox - px
            dy = oy - py
            r = sqrt(dx * dx + dy * dy)
            if not r <= scale:
                scale = _grow(c.output, r)
            slots[out] = (ox, oy, r)
    return slots, scale


def _scene_of(plan: _Plan, slots: list, scale: float) -> _Scene:
    """The trial scene of a run of ``plan``, carrying the run's scale."""

    scene = _Scene(zip(plan.ids, slots))
    scene.scale = scale
    return scene


def _typed_scene(plan: _Plan, slots: list) -> NumericScene:
    """The scene of a run of ``plan``, each object typed by its kind."""

    kinds = plan.kinds
    # the generated __new__ of a named tuple costs a Python call per object
    new = tuple.__new__
    return {eid: new(_SCENE_CLASSES[kinds[eid]], obj) for eid, obj in zip(plan.ids, slots)}


def instantiate(
    construction: Construction,
    free_assign: dict[str, tuple[float, float]],
    tol: Tolerance | None = None,
) -> NumericScene:
    """Execute the straight-line program over concrete free coordinates.

    ``free_assign`` must cover exactly the free-point outputs.  Degeneracy
    checks (coincident points given to a line, parallel lines given to an
    intersection) compare against eps_rel times the running coordinate
    magnitude of the partial scene; a step whose result is not finite is
    degenerate too.  A step that no run can execute raises before any step
    runs: OpaqueConstraintError, or CodecError with the model's violation
    (a repeated output, a wrong arity, an input that no earlier step
    defines as the kind the step takes).  The scene is a plain dict.
    """

    tol = tol or Tolerance()
    free_ids = construction.free_point_ids()
    wanted = set(free_ids)
    if set(free_assign) != wanted:
        missing = sorted(wanted - set(free_assign))
        extra = sorted(set(free_assign) - wanted)
        raise ValueError(f"free assignment mismatch: missing {missing}, extra {extra}")
    plan = _compile(construction)
    pairs = [(float(x), float(y)) for x, y in map(free_assign.__getitem__, free_ids)]
    return _typed_scene(plan, _run(plan, pairs, tol.eps_rel)[0])


# ---------------------------------------------------------------------------
# Term and predicate evaluation


def eval_term(scene: NumericScene, term: Term) -> float:
    """Evaluate an arithmetic term over the scene.  Raises
    UnresolvedIdError or KindMismatchError for the first point id, in
    syntactic order, that names no point of the scene."""

    _check_points(scene, term_point_ids(term))
    return _term_value(scene, term)


def _term_value(scene: NumericScene, term: Term) -> float:
    if isinstance(term, Const):
        return term.value
    if isinstance(term, SegmentLength):
        return _dist(scene[term.a], scene[term.b])
    if isinstance(term, Plus):
        return _term_value(scene, term.left) + _term_value(scene, term.right)
    # a Mult: term_point_ids has refused anything else
    return _term_value(scene, term.left) * _term_value(scene, term.right)


# Residual functions: (scene, predicate, eps_rel, scale) -> (residual, eps).
# They read each point's coordinates straight from the scene, whose ids
# eval_predicate or check_conjecture has resolved.


def _collinear(scene, pred, eps_rel, scale):
    px, py = scene[pred.p]
    qx, qy = scene[pred.q]
    rx, ry = scene[pred.r]
    return abs((qx - px) * (ry - py) - (qy - py) * (rx - px)), eps_rel * scale * scale


def _cross(scene, pred, eps_rel, scale):
    ax, ay = scene[pred.a]
    bx, by = scene[pred.b]
    cx, cy = scene[pred.c]
    dx, dy = scene[pred.d]
    return abs((bx - ax) * (dy - cy) - (by - ay) * (dx - cx)), eps_rel * scale * scale


def _dot(scene, pred, eps_rel, scale):
    ax, ay = scene[pred.a]
    bx, by = scene[pred.b]
    cx, cy = scene[pred.c]
    dx, dy = scene[pred.d]
    return abs((bx - ax) * (dx - cx) + (by - ay) * (dy - cy)), eps_rel * scale * scale


def _midpoint(scene, pred, eps_rel, scale):
    mx, my = scene[pred.m]
    ax, ay = scene[pred.a]
    bx, by = scene[pred.b]
    return math.sqrt((mx - (ax + bx) / 2.0) ** 2 + (my - (ay + by) / 2.0) ** 2), eps_rel * scale


def _same_length(scene, pred, eps_rel, scale):
    return abs(_dist(scene[pred.a], scene[pred.b]) - _dist(scene[pred.c], scene[pred.d])), eps_rel * scale


def _segment_ratio(scene, pred, eps_rel, scale):
    ab, cd = _dist(scene[pred.a], scene[pred.b]), _dist(scene[pred.c], scene[pred.d])
    return abs(ab - pred.ratio * cd), eps_rel * scale


def _equal(scene, pred, eps_rel, scale):
    lhs = _term_value(scene, pred.left)
    rhs = _term_value(scene, pred.right)
    return abs(lhs - rhs), eps_rel * max(1.0, abs(lhs), abs(rhs))


def _distinct(scene, pred, eps_rel, scale):
    return _dist(scene[pred.p], scene[pred.q]), eps_rel * scale


def _harmonic(scene, pred, eps_rel, scale):
    a, b = scene[pred.a], scene[pred.b]
    ax, ay = a
    bx, by = b
    cx, cy = scene[pred.c]
    dx, dy = scene[pred.d]
    eps1 = eps_rel * scale
    ab = _dist(a, b)
    if ab < eps1:
        raise DegeneratePredicateError(f"base points {pred.a} and {pred.b} coincide")
    ux = (bx - ax) / ab
    uy = (by - ay) / ab
    # signed coordinates along the ab direction
    tb = ab
    tc = (cx - ax) * ux + (cy - ay) * uy
    td = (dx - ax) * ux + (dy - ay) * uy
    cb = tb - tc
    ad = td
    if abs(cb) < eps1:
        raise DegeneratePredicateError(f"points {pred.c} and {pred.b} coincide")
    if abs(ad) < eps1:
        raise DegeneratePredicateError(f"points {pred.a} and {pred.d} coincide")
    cross_ratio = (tc * (tb - td)) / (cb * ad)
    return abs(cross_ratio + 1.0), eps_rel


# predicate class -> (residual function, whether the predicate holds when the
# residual exceeds eps rather than when it is within it)
_RESIDUALS = {
    Collinear: (_collinear, False),
    Parallel: (_cross, False),
    NotParallel: (_cross, True),
    Perpendicular: (_dot, False),
    Midpoint: (_midpoint, False),
    SameLength: (_same_length, False),
    SegmentRatio: (_segment_ratio, False),
    Equal: (_equal, False),
    NotEqual: (_distinct, True),
    Harmonic: (_harmonic, False),
}


def eval_predicate(scene: NumericScene, pred: Predicate, tol: Tolerance | None = None) -> tuple[bool, float]:
    """Residual-based truth of one predicate.

    Returns (truth, margin) with margin = residual - eps; eps scales as
    eps_rel * scale**degree where degree is the residual's coordinate degree
    (harmonic is dimensionless, equal scales with the term magnitudes).
    Affirmative predicates are true when the residual is within eps, the two
    negative ones (not_equal, not_parallel) when it exceeds eps.

    Raises UnresolvedIdError or KindMismatchError for the first point id, in
    syntactic order, that names no point of the scene; then TypeError, from
    :func:`scene_scale`, for a scene value that is not a scene object.  Raises
    DegeneratePredicateError when the predicate's own denominators vanish,
    or when the residual or eps is not finite (an overflow, say of a squared
    length near 1e154); that outcome is distinct from false.
    """

    tol = tol or Tolerance()
    try:
        residual_of, negative = _RESIDUALS[type(pred)]
    except KeyError:
        raise TypeError(f"not a Predicate: {pred!r}") from None
    # a trial scene's ids were resolved before the check's first trial
    if type(scene) is not _Scene:
        _check_points(scene, predicate_point_ids(pred))
    residual, eps = residual_of(scene, pred, tol.eps_rel, scene_scale(scene))
    margin = residual - eps
    # both are >= 0, so the margin is finite exactly when both are; on finite
    # coordinates anything else is an overflow
    if not math.isfinite(margin):
        raise DegeneratePredicateError("residual is not finite")
    if negative:
        return residual > eps, margin
    return residual <= eps, margin


# ---------------------------------------------------------------------------
# Deterministic sampling (splitmix64, specified bit-exactly in docs/prng.md)

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_UNIT = 2.0 ** -53
# check_conjecture draws this many coordinates at a time, or one trial's
# when a trial needs more: a packed draw costs about a third of one from a
# loop from a few hundred draws on
_BLOCK_DRAWS = 256


def _packing(draws: int) -> tuple[int, int, int]:
    """Constants that lay ``draws`` 64-bit words side by side in one integer,
    in 128-bit fields: a 1 in every field, GAMMA * (i + 1) mod 2^64 in field
    i, and the 64-bit mask of every field."""

    field = array("Q", bytes(16 * draws))
    field[::2] = array("Q", [1]) * draws
    ones = int.from_bytes(field, "little")
    field[::2] = array("Q", range(1, draws + 1))
    mask = ones * _MASK64
    return ones, _GAMMA * int.from_bytes(field, "little") & mask, mask


class _SplitMix64:
    """splitmix64 stream over 64-bit state; doubles take the top 53 bits."""

    def __init__(self, seed: int):
        self.state = seed & _MASK64
        # the packing constants of the last draw count, for a caller that
        # draws the same count again
        self._draws = 0
        self._packing = (0, 0, 0)

    def next_u64(self) -> int:
        self.state = (self.state + _GAMMA) & _MASK64
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        return z ^ (z >> 31)

    def next_points(self, count: int, coord_range: float) -> list[tuple[float, float]]:
        """``count`` points uniform in [-coord_range, coord_range]^2, x drawn
        before y; a unit double is (output >> 11) * 2^-53.

        The draws are evaluated together, as :meth:`next_u64` would return
        them one by one: the state of draw i goes in the i-th 128-bit field
        of one integer, and every step of the output function runs on that
        integer.  The mask before each multiplication clears the bits a
        right shift moved in from the field above, and the one after it
        reduces each product, which fits in its field, modulo 2^64.
        """

        draws = 2 * count
        if draws != self._draws:
            self._draws, self._packing = draws, _packing(draws)
        ones, increments, mask = self._packing
        s = self.state
        z = (s * ones + increments) & mask
        z = ((z ^ (z >> 30)) & mask) * 0xBF58476D1CE4E5B9 & mask
        z = ((z ^ (z >> 27)) & mask) * 0x94D049BB133111EB & mask
        # the low word of field i is then draw i's output >> 11
        words = array("Q", ((z ^ (z >> 31)) >> 11).to_bytes(16 * draws, "little"))[::2]
        if sys.byteorder == "big":
            words.byteswap()
        self.state = (s + draws * _GAMMA) & _MASK64
        lo = -coord_range
        span = 2.0 * coord_range
        xs = iter([lo + span * (w * _UNIT) for w in words])
        return list(zip(xs, xs))


def sample_free_points(
    construction: Construction, seed: int, coord_range: float
) -> dict[str, tuple[float, float]]:
    """Deterministic assignment for the free points, uniform in
    [-coord_range, coord_range]^2.

    Draw order is the free-point declaration order, x before y, from a
    single splitmix64 stream started at ``seed``; identical (seed,
    construction) pairs reproduce identical maps on any platform.
    """

    _check_sample_range(coord_range)
    free_ids = construction.free_point_ids()
    return dict(zip(free_ids, _SplitMix64(seed).next_points(len(free_ids), coord_range)))


def _check_sample_range(coord_range: float) -> None:
    if not 0.0 < coord_range <= MAX_SAMPLE_RANGE:
        raise ValueError(f"coord_range must be > 0 and <= 2**500, got {coord_range}")


# ---------------------------------------------------------------------------
# Randomized conjecture checking


def _trial_pairs(gen: _SplitMix64, n: int, trials: int, coord_range: float):
    """The n free coordinate pairs of each of ``trials`` trials: trial i
    gets outputs [2ni, 2n(i+1)) of ``gen``'s stream.  They are drawn a block
    of trials at a time, so the last block may draw past the last trial;
    nothing reads those draws."""

    block = min(trials, max(1, _BLOCK_DRAWS // max(1, 2 * n)))
    for start in range(0, trials, block):
        drawn = gen.next_points(n * block, coord_range)
        for i in range(min(block, trials - start)):
            yield drawn[n * i : n * (i + 1)]


class Verdict(enum.Enum):
    FALSIFIED = "falsified"
    CONSISTENT_OVER_SAMPLES = "consistent_over_samples"
    VACUOUS = "vacuous"


@dataclass(frozen=True)
class Witness:
    """Free-point assignment under which a conclusion predicate failed."""

    assignment: tuple[tuple[str, tuple[float, float]], ...]
    predicate: Predicate


@dataclass(frozen=True)
class CheckReport:
    """Outcome of a randomized check.

    The three counters classify fully examined samples and sum to
    ``samples_total``; a falsifying sample is carried in ``witness`` instead
    of being counted.  ``CONSISTENT_OVER_SAMPLES`` is evidence over finitely
    many positions, never a proof.
    """

    verdict: Verdict
    samples_total: int
    samples_degenerate: int
    samples_hypothesis_failed: int
    samples_checked: int
    witness: Witness | None = None


def check_conjecture(
    problem: Problem,
    trials: int,
    seed: int = 0,
    tol: Tolerance | None = None,
    coord_range: float = DEFAULT_SAMPLE_RANGE,
) -> CheckReport:
    """Sample free points ``trials`` times and test the conjecture.

    The construction is compiled once, raising as :func:`instantiate` does,
    and every point id of the conjecture resolved against it, raising as
    :func:`eval_predicate` does, all before the first sample.  Per sample:
    run the compiled construction into the scene :func:`instantiate` would
    return (degenerate steps count as degenerate samples); evaluate ndg
    predicates first (any false or degenerate: degenerate sample); then
    hypotheses (any false: hypothesis-failed sample); then the conclusion
    conjunction.  The first false conclusion stops the run with a witness.
    All trials draw from one splitmix64 stream started at ``seed`` (trial 0
    matches :func:`sample_free_points`), so reports are bit-stable.
    """

    if problem.conjecture is None:
        raise NoConjectureError()
    plan = _compile(problem.construction)
    conjecture = problem.conjecture
    kinds = plan.kinds
    for pred in conjecture.ndg + conjecture.hypothesis + conjecture.conclusion:
        for ref in predicate_point_ids(pred):
            kind = kinds.get(ref)
            if kind is not GeoKind.POINT:
                if kind is None:
                    raise UnresolvedIdError(ref)
                raise KindMismatchError(ref, "point", kind.value)
    if trials <= 0:
        raise ValueError(f"trials must be > 0, got {trials}")
    _check_sample_range(coord_range)
    tol = tol or Tolerance()
    free_ids = plan.free_ids

    degenerate = 0
    hypothesis_failed = 0
    checked = 0
    witness: Witness | None = None

    for pairs in _trial_pairs(_SplitMix64(seed), len(free_ids), trials, coord_range):
        try:
            scene = _scene_of(plan, *_run(plan, pairs, tol.eps_rel))
        except DegenerateStep:
            degenerate += 1
            continue
        try:
            if not all(eval_predicate(scene, p, tol)[0] for p in conjecture.ndg):
                degenerate += 1
                continue
            if not all(eval_predicate(scene, p, tol)[0] for p in conjecture.hypothesis):
                hypothesis_failed += 1
                continue
            failing = None
            for p in conjecture.conclusion:
                if not eval_predicate(scene, p, tol)[0]:
                    failing = p
                    break
        except DegeneratePredicateError:
            degenerate += 1
            continue
        if failing is not None:
            assignment = dict(zip(free_ids, pairs))
            witness = Witness(
                assignment=tuple((fid, assignment[fid]) for fid in free_ids),
                predicate=failing,
            )
            break
        checked += 1

    if witness is not None:
        verdict = Verdict.FALSIFIED
    elif checked > 0:
        verdict = Verdict.CONSISTENT_OVER_SAMPLES
    else:
        verdict = Verdict.VACUOUS
    return CheckReport(
        verdict=verdict,
        samples_total=degenerate + hypothesis_failed + checked,
        samples_degenerate=degenerate,
        samples_hypothesis_failed=hypothesis_failed,
        samples_checked=checked,
        witness=witness,
    )
