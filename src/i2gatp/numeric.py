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
from dataclasses import dataclass

from .errors import (
    DegeneratePredicateError,
    DegenerateStep,
    KindMismatchError,
    NoConjectureError,
    OpaqueConstraintError,
    UnresolvedIdError,
)
from .model import (
    Collinear,
    Const,
    ConstraintKind,
    Construction,
    Equal,
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


@dataclass(frozen=True)
class ScenePoint:
    x: float
    y: float


@dataclass(frozen=True)
class SceneLine:
    """Homogeneous line ax + by + c = 0, normalized so a^2 + b^2 = 1 and
    (a, b) lexicographically positive."""

    a: float
    b: float
    c: float


@dataclass(frozen=True)
class SceneCircle:
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


def scene_scale(scene: NumericScene) -> float:
    """Max absolute coordinate magnitude across the scene, floored at 1."""

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


def _normalized_line(a: float, b: float, c: float) -> SceneLine:
    n = math.sqrt(a * a + b * b)
    a, b, c = a / n, b / n, c / n
    if a < 0.0 or (a == 0.0 and b < 0.0):
        a, b, c = -a, -b, -c
    return SceneLine(a, b, c)


def _object(scene: NumericScene, ref: str, want: type) -> SceneObject:
    try:
        obj = scene[ref]
    except KeyError:
        raise UnresolvedIdError(ref) from None
    if not isinstance(obj, want):
        raise KindMismatchError(ref, want.__name__.removeprefix("Scene").lower(), type(obj).__name__.removeprefix("Scene").lower())
    return obj


# ---------------------------------------------------------------------------
# Construction execution


def instantiate(
    construction: Construction,
    free_assign: dict[str, tuple[float, float]],
    tol: Tolerance | None = None,
) -> NumericScene:
    """Execute the straight-line program over concrete free coordinates.

    ``free_assign`` must cover exactly the free-point outputs.  Degeneracy
    checks (coincident points given to a line, parallel lines given to an
    intersection) compare against eps_rel times the running coordinate
    magnitude of the partial scene.
    """

    tol = tol or Tolerance()
    free_ids = set(construction.free_point_ids())
    if set(free_assign) != free_ids:
        missing = sorted(free_ids - set(free_assign))
        extra = sorted(set(free_assign) - free_ids)
        raise ValueError(f"free assignment mismatch: missing {missing}, extra {extra}")

    scene: NumericScene = {}
    scale = 1.0

    def grow(*values: float) -> None:
        nonlocal scale
        for v in values:
            a = abs(v)
            if a > scale:
                scale = a

    for c in construction.constraints:
        kind = c.kind
        if kind is ConstraintKind.OPAQUE:
            raise OpaqueConstraintError(c.output)
        if kind is ConstraintKind.FREE_POINT:
            x, y = free_assign[c.output]
            obj: SceneObject = ScenePoint(float(x), float(y))
            grow(obj.x, obj.y)
        elif kind is ConstraintKind.LINE_THROUGH_TWO_POINTS:
            p = _object(scene, c.inputs[0], ScenePoint)
            q = _object(scene, c.inputs[1], ScenePoint)
            a = p.y - q.y
            b = q.x - p.x
            cc = p.x * q.y - q.x * p.y
            if math.sqrt(a * a + b * b) < tol.eps_rel * scale:
                raise DegenerateStep(c.output, f"points {c.inputs[0]} and {c.inputs[1]} coincide")
            obj = _normalized_line(a, b, cc)
            grow(obj.c)
        elif kind is ConstraintKind.INTERSECTION_OF_TWO_LINES:
            l = _object(scene, c.inputs[0], SceneLine)
            m = _object(scene, c.inputs[1], SceneLine)
            h1 = l.b * m.c - l.c * m.b
            h2 = l.c * m.a - l.a * m.c
            h3 = l.a * m.b - l.b * m.a
            if abs(h3) < tol.eps_rel * scale:
                raise DegenerateStep(c.output, f"lines {c.inputs[0]} and {c.inputs[1]} are parallel")
            obj = ScenePoint(h1 / h3, h2 / h3)
            grow(obj.x, obj.y)
        elif kind is ConstraintKind.MIDPOINT_OF_TWO_POINTS:
            p = _object(scene, c.inputs[0], ScenePoint)
            q = _object(scene, c.inputs[1], ScenePoint)
            obj = ScenePoint((p.x + q.x) / 2.0, (p.y + q.y) / 2.0)
            grow(obj.x, obj.y)
        elif kind is ConstraintKind.CIRCLE_BY_CENTER_AND_POINT:
            o = _object(scene, c.inputs[0], ScenePoint)
            p = _object(scene, c.inputs[1], ScenePoint)
            obj = SceneCircle(o.x, o.y, _dist(o, p))
            grow(obj.cx, obj.cy, obj.r)
        elif kind is ConstraintKind.PERPENDICULAR_LINE_THROUGH_POINT:
            l = _object(scene, c.inputs[0], SceneLine)
            p = _object(scene, c.inputs[1], ScenePoint)
            obj = _normalized_line(l.b, -l.a, l.a * p.y - l.b * p.x)
            grow(obj.c)
        elif kind is ConstraintKind.PARALLEL_LINE_THROUGH_POINT:
            l = _object(scene, c.inputs[0], SceneLine)
            p = _object(scene, c.inputs[1], ScenePoint)
            obj = _normalized_line(l.a, l.b, -(l.a * p.x + l.b * p.y))
            grow(obj.c)
        elif kind is ConstraintKind.POINT_ON_LINE:
            l = _object(scene, c.inputs[0], SceneLine)
            t = c.parameter or 0.0
            # base point: foot of the perpendicular from the origin
            obj = ScenePoint(-l.a * l.c - l.b * t, -l.b * l.c + l.a * t)
            grow(obj.x, obj.y)
        elif kind is ConstraintKind.POINT_ON_CIRCLE:
            k = _object(scene, c.inputs[0], SceneCircle)
            ang = c.parameter or 0.0
            obj = ScenePoint(k.cx + k.r * math.cos(ang), k.cy + k.r * math.sin(ang))
            grow(obj.x, obj.y)
        else:  # pragma: no cover - closed enumeration
            raise AssertionError(kind)
        scene[c.output] = obj
    return scene


# ---------------------------------------------------------------------------
# Term and predicate evaluation


def eval_term(scene: NumericScene, term: Term) -> float:
    """Evaluate an arithmetic term over the scene."""

    if isinstance(term, Const):
        return term.value
    if isinstance(term, SegmentLength):
        return _dist(_object(scene, term.a, ScenePoint), _object(scene, term.b, ScenePoint))
    if isinstance(term, Plus):
        return eval_term(scene, term.left) + eval_term(scene, term.right)
    if isinstance(term, Mult):
        return eval_term(scene, term.left) * eval_term(scene, term.right)
    raise TypeError(f"not a Term: {term!r}")


def eval_predicate(scene: NumericScene, pred: Predicate, tol: Tolerance | None = None) -> tuple[bool, float]:
    """Residual-based truth of one predicate.

    Returns (truth, margin) with margin = residual - eps; eps scales as
    eps_rel * scale**degree where degree is the residual's coordinate degree
    (harmonic is dimensionless, equal scales with the term magnitudes).
    Affirmative predicates are true when the residual is within eps, the two
    negative ones (not_equal, not_parallel) when it exceeds eps.

    Raises DegeneratePredicateError when the predicate's own denominators
    vanish; that outcome is distinct from false.
    """

    tol = tol or Tolerance()
    scale = scene_scale(scene)
    eps1 = tol.eps_rel * scale
    eps2 = tol.eps_rel * scale * scale

    if isinstance(pred, Collinear):
        p, q, r = (_object(scene, i, ScenePoint) for i in (pred.p, pred.q, pred.r))
        residual = abs((q.x - p.x) * (r.y - p.y) - (q.y - p.y) * (r.x - p.x))
        return residual <= eps2, residual - eps2
    if isinstance(pred, (Parallel, NotParallel)):
        a, b, c, d = (_object(scene, i, ScenePoint) for i in (pred.a, pred.b, pred.c, pred.d))
        residual = abs((b.x - a.x) * (d.y - c.y) - (b.y - a.y) * (d.x - c.x))
        if isinstance(pred, Parallel):
            return residual <= eps2, residual - eps2
        return residual > eps2, residual - eps2
    if isinstance(pred, Perpendicular):
        a, b, c, d = (_object(scene, i, ScenePoint) for i in (pred.a, pred.b, pred.c, pred.d))
        residual = abs((b.x - a.x) * (d.x - c.x) + (b.y - a.y) * (d.y - c.y))
        return residual <= eps2, residual - eps2
    if isinstance(pred, Midpoint):
        m, a, b = (_object(scene, i, ScenePoint) for i in (pred.m, pred.a, pred.b))
        residual = math.sqrt((m.x - (a.x + b.x) / 2.0) ** 2 + (m.y - (a.y + b.y) / 2.0) ** 2)
        return residual <= eps1, residual - eps1
    if isinstance(pred, SameLength):
        a, b, c, d = (_object(scene, i, ScenePoint) for i in (pred.a, pred.b, pred.c, pred.d))
        residual = abs(_dist(a, b) - _dist(c, d))
        return residual <= eps1, residual - eps1
    if isinstance(pred, SegmentRatio):
        a, b, c, d = (_object(scene, i, ScenePoint) for i in (pred.a, pred.b, pred.c, pred.d))
        residual = abs(_dist(a, b) - pred.ratio * _dist(c, d))
        return residual <= eps1, residual - eps1
    if isinstance(pred, Equal):
        lhs = eval_term(scene, pred.left)
        rhs = eval_term(scene, pred.right)
        residual = abs(lhs - rhs)
        eps = tol.eps_rel * max(1.0, abs(lhs), abs(rhs))
        return residual <= eps, residual - eps
    if isinstance(pred, NotEqual):
        p, q = _object(scene, pred.p, ScenePoint), _object(scene, pred.q, ScenePoint)
        residual = _dist(p, q)
        return residual > eps1, residual - eps1
    if isinstance(pred, Harmonic):
        a, b, c, d = (_object(scene, i, ScenePoint) for i in (pred.a, pred.b, pred.c, pred.d))
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
        residual = abs(cross_ratio + 1.0)
        return residual <= tol.eps_rel, residual - tol.eps_rel
    raise TypeError(f"not a Predicate: {pred!r}")


# ---------------------------------------------------------------------------
# Deterministic sampling (splitmix64, specified bit-exactly in docs/prng.md)

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15


class _SplitMix64:
    """splitmix64 stream over 64-bit state; doubles take the top 53 bits."""

    def __init__(self, seed: int):
        self.state = seed & _MASK64

    def next_u64(self) -> int:
        self.state = (self.state + _GAMMA) & _MASK64
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        return z ^ (z >> 31)

    def next_unit(self) -> float:
        # uniform in [0, 1) with 53-bit resolution
        return (self.next_u64() >> 11) * (2.0 ** -53)

    def next_coord(self, coord_range: float) -> float:
        return -coord_range + 2.0 * coord_range * self.next_unit()


def sample_free_points(
    construction: Construction, seed: int, coord_range: float
) -> dict[str, tuple[float, float]]:
    """Deterministic assignment for the free points, uniform in
    [-coord_range, coord_range]^2.

    Draw order is the free-point declaration order, x before y, from a
    single splitmix64 stream started at ``seed``; identical (seed,
    construction) pairs reproduce identical maps on any platform.
    """

    if coord_range <= 0.0:
        raise ValueError(f"coord_range must be > 0, got {coord_range}")
    gen = _SplitMix64(seed)
    return _draw_assignment(gen, construction.free_point_ids(), coord_range)


def _draw_assignment(
    gen: _SplitMix64, free_ids: tuple[str, ...], coord_range: float
) -> dict[str, tuple[float, float]]:
    return {fid: (gen.next_coord(coord_range), gen.next_coord(coord_range)) for fid in free_ids}


# ---------------------------------------------------------------------------
# Randomized conjecture checking


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

    Per sample: instantiate (degenerate steps count as degenerate samples);
    evaluate ndg predicates first (any false or degenerate: degenerate
    sample); then hypotheses (any false: hypothesis-failed sample); then the
    conclusion conjunction.  The first false conclusion stops the run with a
    witness.  All trials draw from one splitmix64 stream started at ``seed``
    (trial 0 matches :func:`sample_free_points`), so reports are bit-stable.
    """

    if problem.conjecture is None:
        raise NoConjectureError()
    for c in problem.construction.constraints:
        if c.kind is ConstraintKind.OPAQUE:
            raise OpaqueConstraintError(c.output)
    if trials <= 0:
        raise ValueError(f"trials must be > 0, got {trials}")
    tol = tol or Tolerance()
    conjecture = problem.conjecture
    free_ids = problem.construction.free_point_ids()
    gen = _SplitMix64(seed)

    degenerate = 0
    hypothesis_failed = 0
    checked = 0
    witness: Witness | None = None

    for _ in range(trials):
        assignment = _draw_assignment(gen, free_ids, coord_range)
        try:
            scene = instantiate(problem.construction, assignment, tol)
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
