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
    Equal,
    GeoKind,
    Harmonic,
    Midpoint,
    Mult,
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
    """The scene one trial of :func:`check_conjecture` decides on, carrying
    the scale of its run: the value a scan by :func:`scene_scale` computes
    for it."""

    __slots__ = ("scale",)


def scene_scale(scene: NumericScene) -> float:
    """Max absolute coordinate magnitude across the scene, floored at 1.

    A trial scene of :func:`check_conjecture` carries it; any other mapping
    is scanned."""

    if isinstance(scene, _Scene):
        return scene.scale
    scale = 1.0
    for obj in scene.values():
        if isinstance(obj, ScenePoint):
            scale = max(scale, abs(obj.x), abs(obj.y))
        elif isinstance(obj, SceneLine):
            scale = max(scale, abs(obj.c))
        else:
            scale = max(scale, abs(obj.cx), abs(obj.cy), obj.r)
    return scale


def _dist(p: ScenePoint, q: ScenePoint) -> float:
    dx = p.x - q.x
    dy = p.y - q.y
    return math.sqrt(dx * dx + dy * dy)


def _point(scene: NumericScene, ref: str) -> ScenePoint:
    try:
        obj = scene[ref]
    except KeyError:
        raise UnresolvedIdError(ref) from None
    if not isinstance(obj, ScenePoint):
        raise KindMismatchError(ref, "point", type(obj).__name__.removeprefix("Scene").lower())
    return obj


# ---------------------------------------------------------------------------
# Construction execution
#
# A construction is compiled once into a plan, which then runs once per set
# of free coordinates.  A run keeps its objects in a list of slots: slot i
# holds the scene object of the plan's i-th output id, and the slots after
# those hold the free coordinate pairs of the run.  Each step is a
# module-level function from the table below, called with its constraint,
# the contents of its two input slots (a one-input step gets its input twice,
# a free point its coordinate pair), eps_rel and the running scale; it
# returns the new scene object and the scale grown by it.  The first slots
# of a run are then its scene.

_NOT_FINITE = "coordinates are not finite"
# the generated __new__ of a named tuple costs a Python call per step
_new = tuple.__new__


def _grow(out: str, a: float) -> float:
    """The new running scale for an absolute coordinate ``a`` that is not
    within the old one; DegenerateStep if ``a`` is inf or NaN."""

    if a < math.inf:
        return a
    raise DegenerateStep(out, _NOT_FINITE)


def _new_point(out: str, x: float, y: float, scale: float) -> tuple[ScenePoint, float]:
    ax = abs(x)
    if not ax <= scale:
        scale = _grow(out, ax)
    ay = abs(y)
    if not ay <= scale:
        scale = _grow(out, ay)
    return _new(ScenePoint, (x, y)), scale


def _new_line(out: str, a: float, b: float, c: float, scale: float) -> tuple[SceneLine, float]:
    n = math.sqrt(a * a + b * b)
    if not 0.0 < n < math.inf:
        raise DegenerateStep(out, _NOT_FINITE)
    a, b, c = a / n, b / n, c / n
    if a < 0.0 or (a == 0.0 and b < 0.0):
        a, b, c = -a, -b, -c
    # |a| and |b| are at most 1, so only c can grow the scale
    ac = abs(c)
    if not ac <= scale:
        scale = _grow(out, ac)
    return _new(SceneLine, (a, b, c)), scale


def _free_point(c, xy, _xy, eps_rel, scale):
    return _new_point(c.output, xy[0], xy[1], scale)


def _line_through_two_points(c, p, q, eps_rel, scale):
    px, py = p
    qx, qy = q
    a = py - qy
    b = qx - px
    if math.sqrt(a * a + b * b) < eps_rel * scale:
        raise DegenerateStep(c.output, f"points {c.inputs[0]} and {c.inputs[1]} coincide")
    return _new_line(c.output, a, b, px * qy - qx * py, scale)


def _intersection_of_two_lines(c, l, m, eps_rel, scale):
    la, lb, lc = l
    ma, mb, mc = m
    h3 = la * mb - lb * ma
    if abs(h3) < eps_rel * scale:
        raise DegenerateStep(c.output, f"lines {c.inputs[0]} and {c.inputs[1]} are parallel")
    return _new_point(c.output, (lb * mc - lc * mb) / h3, (lc * ma - la * mc) / h3, scale)


def _midpoint_of_two_points(c, p, q, eps_rel, scale):
    return _new_point(c.output, (p[0] + q[0]) / 2.0, (p[1] + q[1]) / 2.0, scale)


def _circle_by_center_and_point(c, o, p, eps_rel, scale):
    # the centre's coordinates grew the scale when the centre was made
    ox, oy = o
    dx = ox - p[0]
    dy = oy - p[1]
    r = math.sqrt(dx * dx + dy * dy)
    if not r <= scale:
        scale = _grow(c.output, r)
    return _new(SceneCircle, (ox, oy, r)), scale


def _perpendicular_line_through_point(c, l, p, eps_rel, scale):
    la, lb, _lc = l
    return _new_line(c.output, lb, -la, la * p[1] - lb * p[0], scale)


def _parallel_line_through_point(c, l, p, eps_rel, scale):
    la, lb, _lc = l
    return _new_line(c.output, la, lb, -(la * p[0] + lb * p[1]), scale)


def _point_on_line(c, l, _l, eps_rel, scale):
    la, lb, lc = l
    t = c.parameter or 0.0
    # base point: foot of the perpendicular from the origin
    return _new_point(c.output, -la * lc - lb * t, -lb * lc + la * t, scale)


def _point_on_circle(c, k, _k, eps_rel, scale):
    cx, cy, r = k
    ang = c.parameter or 0.0
    return _new_point(c.output, cx + r * math.cos(ang), cy + r * math.sin(ang), scale)


_STEPS = {
    ConstraintKind.FREE_POINT: _free_point,
    ConstraintKind.LINE_THROUGH_TWO_POINTS: _line_through_two_points,
    ConstraintKind.INTERSECTION_OF_TWO_LINES: _intersection_of_two_lines,
    ConstraintKind.MIDPOINT_OF_TWO_POINTS: _midpoint_of_two_points,
    ConstraintKind.CIRCLE_BY_CENTER_AND_POINT: _circle_by_center_and_point,
    ConstraintKind.PERPENDICULAR_LINE_THROUGH_POINT: _perpendicular_line_through_point,
    ConstraintKind.PARALLEL_LINE_THROUGH_POINT: _parallel_line_through_point,
    ConstraintKind.POINT_ON_LINE: _point_on_line,
    ConstraintKind.POINT_ON_CIRCLE: _point_on_circle,
}
# kind -> (step function, input kinds, output kind), so that compiling looks
# each step up once; OPAQUE is not in it
_SIGNED_STEPS = {kind: (_STEPS[kind], ins, out) for kind, (ins, out, _attr) in CONSTRAINT_SIGNATURES.items()}


@dataclass(frozen=True)
class _Plan:
    """A construction compiled for repeated runs: its free ids in draw
    order, per constraint (step function, constraint, input slot, input
    slot, output slot), and its output ids in slot order."""

    free_ids: tuple[str, ...]
    steps: tuple[tuple, ...]
    ids: tuple[str, ...]


def _compile(construction: Construction) -> _Plan:
    """Resolve every reference once.  Raises, for the first step in program
    order that no run could execute, OpaqueConstraintError,
    UnresolvedIdError, KindMismatchError, or ValueError when its number of
    inputs is not its signature's or an earlier step defines its output."""

    constraints = construction.constraints
    ids = tuple(c.output for c in constraints)
    slot = {eid: i for i, eid in enumerate(ids)}
    free_ids = construction.free_point_ids()
    pair_slot = {fid: len(ids) + i for i, fid in enumerate(free_ids)}
    kinds: dict[str, GeoKind] = {}
    steps = []
    for c in constraints:
        try:
            step, in_kinds, out_kind = _SIGNED_STEPS[c.kind]
        except KeyError:
            raise OpaqueConstraintError(c.output) from None
        inputs = c.inputs
        if len(inputs) != len(in_kinds):
            raise ValueError(f"{c.kind.value} {c.output!r} takes {len(in_kinds)} inputs, got {len(inputs)}")
        if c.output in kinds:
            raise ValueError(f"{c.kind.value} {c.output!r}: id already defined by an earlier step")
        for ref, want in zip(inputs, in_kinds):
            got = kinds.get(ref)
            if got is not want:
                if got is None:
                    raise UnresolvedIdError(ref)
                raise KindMismatchError(ref, want.value, got.value)
        if inputs:
            first, second = slot[inputs[0]], slot[inputs[-1]]
        else:
            first = second = pair_slot[c.output]
        steps.append((step, c, first, second, slot[c.output]))
        kinds[c.output] = out_kind
    return _Plan(free_ids, tuple(steps), ids)


def _run(plan: _Plan, pairs: list[tuple[float, float]], eps_rel: float) -> tuple[list, float]:
    """One run of ``plan`` over free coordinate pairs in ``plan.free_ids``
    order: its slots, which start with the scene objects of ``plan.ids``,
    and the scale of that scene."""

    slots = [None] * len(plan.ids) + pairs
    scale = 1.0
    for step, c, first, second, out in plan.steps:
        slots[out], scale = step(c, slots[first], slots[second], eps_rel, scale)
    return slots, scale


def _scene_of(plan: _Plan, slots: list, scale: float) -> _Scene:
    """The scene of a run of ``plan``, carrying the run's scale."""

    scene = _Scene(zip(plan.ids, slots))
    scene.scale = scale
    return scene


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
    degenerate too.  Opaque steps, ids that do not resolve to an object of
    the kind a step takes and ids that more than one step defines are
    rejected before any step runs.  The scene is a plain dict.
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
    return dict(zip(plan.ids, _run(plan, pairs, tol.eps_rel)[0]))


# ---------------------------------------------------------------------------
# Term and predicate evaluation


def eval_term(scene: NumericScene, term: Term) -> float:
    """Evaluate an arithmetic term over the scene."""

    if isinstance(term, Const):
        return term.value
    if isinstance(term, SegmentLength):
        return _dist(_point(scene, term.a), _point(scene, term.b))
    if isinstance(term, Plus):
        return eval_term(scene, term.left) + eval_term(scene, term.right)
    if isinstance(term, Mult):
        return eval_term(scene, term.left) * eval_term(scene, term.right)
    raise TypeError(f"not a Term: {term!r}")


# Residual functions: (scene, predicate, eps_rel, scale) -> (residual, eps).


def _collinear(scene, pred, eps_rel, scale):
    p, q, r = _point(scene, pred.p), _point(scene, pred.q), _point(scene, pred.r)
    return abs((q.x - p.x) * (r.y - p.y) - (q.y - p.y) * (r.x - p.x)), eps_rel * scale * scale


def _cross(scene, pred, eps_rel, scale):
    a, b, c, d = _point(scene, pred.a), _point(scene, pred.b), _point(scene, pred.c), _point(scene, pred.d)
    return abs((b.x - a.x) * (d.y - c.y) - (b.y - a.y) * (d.x - c.x)), eps_rel * scale * scale


def _dot(scene, pred, eps_rel, scale):
    a, b, c, d = _point(scene, pred.a), _point(scene, pred.b), _point(scene, pred.c), _point(scene, pred.d)
    return abs((b.x - a.x) * (d.x - c.x) + (b.y - a.y) * (d.y - c.y)), eps_rel * scale * scale


def _midpoint(scene, pred, eps_rel, scale):
    m, a, b = _point(scene, pred.m), _point(scene, pred.a), _point(scene, pred.b)
    return math.sqrt((m.x - (a.x + b.x) / 2.0) ** 2 + (m.y - (a.y + b.y) / 2.0) ** 2), eps_rel * scale


def _same_length(scene, pred, eps_rel, scale):
    a, b, c, d = _point(scene, pred.a), _point(scene, pred.b), _point(scene, pred.c), _point(scene, pred.d)
    return abs(_dist(a, b) - _dist(c, d)), eps_rel * scale


def _segment_ratio(scene, pred, eps_rel, scale):
    a, b, c, d = _point(scene, pred.a), _point(scene, pred.b), _point(scene, pred.c), _point(scene, pred.d)
    return abs(_dist(a, b) - pred.ratio * _dist(c, d)), eps_rel * scale


def _equal(scene, pred, eps_rel, scale):
    lhs = eval_term(scene, pred.left)
    rhs = eval_term(scene, pred.right)
    return abs(lhs - rhs), eps_rel * max(1.0, abs(lhs), abs(rhs))


def _distinct(scene, pred, eps_rel, scale):
    return _dist(_point(scene, pred.p), _point(scene, pred.q)), eps_rel * scale


def _harmonic(scene, pred, eps_rel, scale):
    a, b, c, d = _point(scene, pred.a), _point(scene, pred.b), _point(scene, pred.c), _point(scene, pred.d)
    eps1 = eps_rel * scale
    ab = _dist(a, b)
    if ab < eps1:
        raise DegeneratePredicateError(f"base points {pred.a} and {pred.b} coincide")
    ux = (b.x - a.x) / ab
    uy = (b.y - a.y) / ab
    # signed coordinates along the ab direction
    tb = ab
    tc = (c.x - a.x) * ux + (c.y - a.y) * uy
    td = (d.x - a.x) * ux + (d.y - a.y) * uy
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

    Raises DegeneratePredicateError when the predicate's own denominators
    vanish, or when the residual or eps is not finite (an overflow, say of
    a squared length near 1e154); that outcome is distinct from false.
    """

    tol = tol or Tolerance()
    scale = scene_scale(scene)
    try:
        residual_of, negative = _RESIDUALS[type(pred)]
    except KeyError:
        raise TypeError(f"not a Predicate: {pred!r}") from None
    residual, eps = residual_of(scene, pred, tol.eps_rel, scale)
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

    The construction is compiled once, so opaque steps and unresolved,
    mis-kinded or redefined ids raise before the first sample.  Per sample:
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
    if trials <= 0:
        raise ValueError(f"trials must be > 0, got {trials}")
    _check_sample_range(coord_range)
    tol = tol or Tolerance()
    conjecture = problem.conjecture
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
