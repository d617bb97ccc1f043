"""Numeric instantiation, predicate evaluation and the randomized checker."""

from __future__ import annotations

import copy
import dataclasses
import math
import pickle
import random
from fractions import Fraction

import pytest

from i2gatp import numeric
from i2gatp.container import pack, unpack
from i2gatp.dsl import parse_dsl, predicate_text
from i2gatp.errors import (
    DegenerateInitialInstance,
    DegeneratePredicateError,
    DegenerateStep,
    KindMismatchError,
    NoConjectureError,
    OpaqueConstraintError,
    UnresolvedIdError,
)
from i2gatp.model import (
    MAX_TERM_DEPTH,
    Collinear,
    Conjecture,
    Const,
    Constraint,
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
    Problem,
    SameLength,
    SegmentLength,
    SegmentRatio,
    validate_problem,
)
from i2gatp.numeric import (
    SceneLine,
    ScenePoint,
    Tolerance,
    Verdict,
    _compile,
    _run,
    _scene_of,
    _SplitMix64,
    _typed_scene,
    check_conjecture,
    eval_predicate,
    eval_term,
    instantiate,
    sample_free_points,
    scene_scale,
)

from conftest import bench_workloads
from oracles import (
    collinear_exact,
    cross_ratio_exact,
    instantiate_exact,
    normalize_line_float,
    run_reference,
)


def _generated(n: int, seed: int):
    return parse_dsl(bench_workloads().generate_dsl(random.Random(seed), n, f"generated_{n}"))


def _free(eid: str) -> Constraint:
    return Constraint(output=eid, kind=ConstraintKind.FREE_POINT)


def _midpoint(eid: str, a: str, b: str) -> Constraint:
    return Constraint(output=eid, kind=ConstraintKind.MIDPOINT_OF_TWO_POINTS, inputs=(a, b))


def _scene(**points) -> dict:
    return {name: ScenePoint(float(x), float(y)) for name, (x, y) in points.items()}


# ---------------------------------------------------------------------------
# instantiate


def test_midpoint_instantiation():
    k = Construction(
        elements=(),
        constraints=(_free("A"), _free("B"), Constraint(output="M", kind=ConstraintKind.MIDPOINT_OF_TWO_POINTS, inputs=("A", "B"))),
    )
    scene = instantiate(k, {"A": (0.0, 0.0), "B": (2.0, 2.0)})
    assert scene["M"] == ScenePoint(1.0, 1.0)


def test_parallel_lines_do_not_intersect():
    k = Construction(
        elements=(),
        constraints=(
            _free("A"),
            _free("B"),
            _free("C"),
            _free("D"),
            Constraint(output="l", kind=ConstraintKind.LINE_THROUGH_TWO_POINTS, inputs=("A", "B")),
            Constraint(output="m", kind=ConstraintKind.LINE_THROUGH_TWO_POINTS, inputs=("C", "D")),
            Constraint(output="P", kind=ConstraintKind.INTERSECTION_OF_TWO_LINES, inputs=("l", "m")),
        ),
    )
    free = {"A": (0.0, 0.0), "B": (1.0, 0.0), "C": (0.0, 1.0), "D": (1.0, 1.0)}
    with pytest.raises(DegenerateStep) as exc:
        instantiate(k, free)
    assert exc.value.step_id == "P"


def test_coincident_points_make_no_line():
    k = Construction(
        elements=(),
        constraints=(_free("A"), Constraint(output="l", kind=ConstraintKind.LINE_THROUGH_TWO_POINTS, inputs=("A", "A"))),
    )
    with pytest.raises(DegenerateStep):
        instantiate(k, {"A": (1.0, 2.0)})


def test_perpendicular_foot_scene():
    # free A=(0,0), B=(4,0), C=(0,3); the perpendicular to AB through C is
    # the vertical line x = 0 after normalization
    k = Construction(
        elements=(),
        constraints=(
            _free("A"),
            _free("B"),
            _free("C"),
            Constraint(output="l", kind=ConstraintKind.LINE_THROUGH_TWO_POINTS, inputs=("A", "B")),
            Constraint(output="m", kind=ConstraintKind.PERPENDICULAR_LINE_THROUGH_POINT, inputs=("l", "C")),
            Constraint(output="F", kind=ConstraintKind.INTERSECTION_OF_TWO_LINES, inputs=("l", "m")),
        ),
    )
    scene = instantiate(k, {"A": (0.0, 0.0), "B": (4.0, 0.0), "C": (0.0, 3.0)})
    assert scene["l"].a == 0.0 and scene["l"].b == 1.0 and scene["l"].c == 0.0
    assert scene["m"].a == 1.0 and scene["m"].b == 0.0 and scene["m"].c == 0.0
    assert scene["F"] == ScenePoint(-0.0, -0.0)


def test_varignon_scene_matches_exact_oracle(varignon):
    free = {fid: (Fraction(int(x)), Fraction(int(y))) for fid, (x, y) in
            (("A", (0, 0)), ("B", (4, 0)), ("C", (6, 4)), ("D", (0, 6)))}
    exact = instantiate_exact(varignon.construction, free)
    scene = instantiate(varignon.construction, {fid: (float(x), float(y)) for fid, (x, y) in free.items()})
    for eid, value in exact.items():
        got = scene[eid]
        if len(value) == 2:
            assert math.isclose(got.x, float(value[0]), abs_tol=1e-12)
            assert math.isclose(got.y, float(value[1]), abs_tol=1e-12)
        else:
            a, b, c = normalize_line_float(*value)
            assert math.isclose(got.a, a, abs_tol=1e-12)
            assert math.isclose(got.b, b, abs_tol=1e-12)
            assert math.isclose(got.c, c, abs_tol=1e-12)


def test_opaque_constraint_blocks_instantiation(corpus):
    p = corpus["opaque_circumcircle"]
    with pytest.raises(OpaqueConstraintError):
        instantiate(p.construction, {fid: (0.0, 0.0) for fid in p.construction.free_point_ids()})


def _line(out: str, a: str, b: str) -> Constraint:
    return Constraint(output=out, kind=ConstraintKind.LINE_THROUGH_TWO_POINTS, inputs=(a, b))


# steps that no run can execute, placed after a step ("l") that is degenerate
# at every sample
_UNRUNNABLE = {
    "unresolved": (Constraint(output="M", kind=ConstraintKind.MIDPOINT_OF_TWO_POINTS, inputs=("A", "Z")), UnresolvedIdError),
    "defined later": (Constraint(output="M", kind=ConstraintKind.MIDPOINT_OF_TWO_POINTS, inputs=("A", "N")), UnresolvedIdError),
    "kind mismatch": (Constraint(output="M", kind=ConstraintKind.MIDPOINT_OF_TWO_POINTS, inputs=("A", "l")), KindMismatchError),
    "opaque": (Constraint(output="M", kind=ConstraintKind.OPAQUE, opaque_tag="circumcircle", opaque_payload=b"<circumcircle/>"), OpaqueConstraintError),
    "arity": (Constraint(output="M", kind=ConstraintKind.MIDPOINT_OF_TWO_POINTS, inputs=("A",)), ValueError),
}


@pytest.mark.parametrize("case", list(_UNRUNNABLE))
def test_unrunnable_step_raises_before_any_sample(case):
    step, error = _UNRUNNABLE[case]
    conjecture = Conjecture(hypothesis=(), ndg=(), conclusion=(NotEqual("A", "N"),))
    runnable = (_free("A"), _line("l", "A", "A"), _free("N"))
    report = check_conjecture(Problem(construction=Construction((), runnable), conjecture=conjecture), 10)
    assert (report.verdict, report.samples_degenerate) == (Verdict.VACUOUS, 10)
    k = Construction(elements=(), constraints=runnable[:2] + (step,) + runnable[2:])
    with pytest.raises(error) as exc:
        instantiate(k, {"A": (0.0, 0.0), "N": (1.0, 1.0)})
    if error is KindMismatchError:
        assert (exc.value.element_id, exc.value.expected, exc.value.got) == ("l", "point", "line")
    with pytest.raises(error):
        check_conjecture(Problem(construction=k, conjecture=conjecture), 10)


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
def test_free_point_that_is_not_finite_is_degenerate(bad):
    k = Construction(elements=(), constraints=(_free("A"), _free("B")))
    with pytest.raises(DegenerateStep, match="coordinates are not finite") as exc:
        instantiate(k, {"A": (0.0, 0.0), "B": (1.0, bad)})
    assert exc.value.step_id == "B"


# the DSL text of a construction whose last step is degenerate at the
# literal coordinates, the same construction with its free assignment, and
# the line, step id and reason a user reads
_DEGENERATE = {
    "coincident_points": (
        "point A 1 2\npoint B 1 2\nline l A B\n",
        (_free("A"), _free("B"), _line("l", "A", "B")),
        {"A": (1.0, 2.0), "B": (1.0, 2.0)},
        (3, "l", "points A and B coincide"),
    ),
    "parallel_lines": (
        "point A 0 0\npoint B 1 0\npoint C 0 1\npoint D 1 1\nline l A B\nline m C D\nintersec P l m\n",
        (
            *map(_free, "ABCD"),
            _line("l", "A", "B"),
            _line("m", "C", "D"),
            Constraint(output="P", kind=ConstraintKind.INTERSECTION_OF_TWO_LINES, inputs=("l", "m")),
        ),
        {"A": (0.0, 0.0), "B": (1.0, 0.0), "C": (0.0, 1.0), "D": (1.0, 1.0)},
        (7, "P", "lines l and m are parallel"),
    ),
    "overflowing_midpoint": (
        "point A 1e308 0\npoint B 1e308 0\nmidpoint M A B\n",
        (_free("A"), _free("B"), _midpoint("M", "A", "B")),
        {"A": (1e308, 0.0), "B": (1e308, 0.0)},
        (3, "M", "coordinates are not finite"),
    ),
}


@pytest.mark.parametrize("case", list(_DEGENERATE))
def test_degenerate_step_names_its_cause(case):
    text, constraints, free, (line, step_id, reason) = _DEGENERATE[case]
    with pytest.raises(DegenerateStep) as step:
        instantiate(Construction(elements=(), constraints=constraints), free)
    assert (step.value.step_id, step.value.reason) == (step_id, reason)
    with pytest.raises(DegenerateInitialInstance) as initial:
        parse_dsl(text)
    assert initial.value.line == line
    assert str(initial.value) == f"line {line}: step {step_id!r} is degenerate: {reason}"


def test_free_assignment_must_cover_exactly_the_free_points():
    k = Construction(elements=(), constraints=(_free("A"), _free("B"), _midpoint("M", "A", "B")))
    with pytest.raises(ValueError, match=r"free assignment mismatch: missing \['B'\], extra \['M', 'Z'\]"):
        instantiate(k, {"A": (0.0, 0.0), "M": (1.0, 1.0), "Z": (2.0, 2.0)})


def _trial_draws(problem, trials, coord_range):
    """The free assignments of the first ``trials`` trials of a check at
    seed 0, at any range."""

    free_ids = problem.construction.free_point_ids()
    gen = _SplitMix64(0)
    for _ in range(trials):
        yield dict(zip(free_ids, gen.next_points(len(free_ids), coord_range)))


@pytest.mark.parametrize(
    "name,coord_range",
    [("varignon", 1e160), ("perpendicular_foot", 1e155), ("parallel_transport", 1e155)],
)
def test_step_that_overflows_is_degenerate(corpus, name, coord_range):
    # these theorems were FALSIFIED on lines with a NaN offset, or raised
    # ZeroDivisionError on a line of zero norm; the checker now refuses the
    # range, and each of the 50 trials it used to run is a degenerate step
    problem = corpus[name]
    with pytest.raises(ValueError, match=r"<= 2\*\*500"):
        check_conjecture(problem, 50, 0, coord_range=coord_range)
    for assignment in _trial_draws(problem, 50, coord_range):
        with pytest.raises(DegenerateStep, match="coordinates are not finite"):
            instantiate(problem.construction, assignment)


@pytest.mark.parametrize(
    "name,coord_range,predicate",
    [("midpoint_thm", 1e154, "segment_ratio A B A M 2.0"), ("triangle_sides", 1e155, "not_parallel A B A C")],
)
def test_residual_that_overflows_is_not_a_falsification(corpus, name, coord_range, predicate):
    # the scene of trial 0 at seed 0 is finite, but the predicate's residual
    # overflows there to a NaN margin, which must not read as false; the
    # checker now refuses the range, so no check reaches this scene
    problem = corpus[name]
    with pytest.raises(ValueError, match=r"<= 2\*\*500"):
        check_conjecture(problem, 50, 0, coord_range=coord_range)
    scene = instantiate(problem.construction, next(_trial_draws(problem, 1, coord_range)))
    failing = next(p for p in problem.conjecture.conclusion if predicate_text(p) == predicate)
    with pytest.raises(DegeneratePredicateError, match="residual is not finite"):
        eval_predicate(scene, failing)


@pytest.mark.parametrize(
    "pred",
    [
        SameLength("A", "B", "A", "C"),
        NotEqual("A", "B"),
        Collinear("A", "B", "C"),
        Equal(SegmentLength("A", "B"), Const(1.0)),
    ],
    ids=["same_length", "not_equal", "collinear", "equal"],
)
def test_eval_predicate_on_overflowing_coordinates_is_degenerate(pred):
    # squares of lengths near 1e155 overflow; an inf or NaN margin would read
    # true for not_equal and false for the others
    scene = _scene(A=(1e155, -1e155), B=(-1e155, 1e155), C=(-1e155, -1e155))
    with pytest.raises(DegeneratePredicateError, match="residual is not finite"):
        eval_predicate(scene, pred)


# ---------------------------------------------------------------------------
# eval_term


def test_term_arithmetic():
    scene = _scene(A=(0, 0), B=(3, 4))
    assert eval_term(scene, Plus(Const(2.0), Mult(Const(3.0), Const(4.0)))) == 14.0
    assert eval_term(scene, SegmentLength("A", "B")) == 5.0


def test_term_at_the_depth_limit_validates_packs_evaluates_and_prints(varignon):
    # MAX_TERM_DEPTH levels, nested on the left and the right in turn
    term, text = SegmentLength("A", "B"), "segment_length A B"
    for i in range(MAX_TERM_DEPTH - 1):
        if i % 2:
            term, text = Plus(term, Const(1.0)), f"plus {text} const 1.0"
        else:
            term, text = Plus(Const(1.0), term), f"plus const 1.0 {text}"
    assert term.depth == MAX_TERM_DEPTH
    conclusion = Equal(term, Const(0.0))
    problem = dataclasses.replace(varignon, conjecture=Conjecture(hypothesis=(), ndg=(), conclusion=(conclusion,)))
    assert validate_problem(problem) == []
    assert unpack(pack(problem)).conjecture == problem.conjecture
    assert eval_term(_scene(A=(0, 0), B=(3, 4)), term) == 5.0 + (MAX_TERM_DEPTH - 1)
    assert predicate_text(conclusion) == f"equal {text} const 0.0"


def test_eval_term_refuses_what_is_not_a_term():
    with pytest.raises(TypeError, match="not a Term: 'A'"):
        eval_term(_scene(A=(0, 0)), "A")


def test_eval_predicate_refuses_what_is_not_a_predicate():
    with pytest.raises(TypeError, match="not a Predicate: Const"):
        eval_predicate(_scene(A=(0, 0)), Const(1.0))


def test_a_point_id_naming_a_plain_tuple_is_a_kind_mismatch():
    # the ids are checked before the scale is taken
    with pytest.raises(KindMismatchError) as exc:
        eval_predicate({"A": (0.0, 0.0), "B": (1.0, 1.0)}, NotEqual("A", "B"))
    assert (exc.value.element_id, exc.value.expected, exc.value.got) == ("A", "point", "tuple")


@pytest.mark.parametrize(
    "scene, ref",
    [
        ({"A": (0.0, 0.0), "l": (1.0, 0.0, 0.0)}, "A"),
        ({"A": ScenePoint(0.0, 0.0), "l": (1.0, 0.0, 0.0)}, "l"),
    ],
    ids=["point", "line"],
)
def test_scene_scale_names_a_value_that_is_not_a_scene_object(scene, ref):
    with pytest.raises(TypeError, match=f"scene value of '{ref}' is not a scene object"):
        scene_scale(scene)


# one predicate of each class, whose i-th point position holds the id Pi
_POSITIONED = [
    NotEqual("P0", "P1"),
    Collinear("P0", "P1", "P2"),
    Midpoint("P0", "P1", "P2"),
    Parallel("P0", "P1", "P2", "P3"),
    NotParallel("P0", "P1", "P2", "P3"),
    Perpendicular("P0", "P1", "P2", "P3"),
    SameLength("P0", "P1", "P2", "P3"),
    SegmentRatio("P0", "P1", "P2", "P3", 2.0),
    Harmonic("P0", "P1", "P2", "P3"),
    Equal(Plus(SegmentLength("P0", "P1"), Const(1.0)), Mult(Const(2.0), SegmentLength("P2", "P3"))),
]


@pytest.mark.parametrize("pred", _POSITIONED, ids=lambda p: type(p).__name__)
def test_a_bad_point_id_is_named_in_syntactic_order(pred):
    # a hand-built scene: the ids before position `first` are points, the id
    # there is missing or a line, and every later id is bad the other way
    positions = 2 if isinstance(pred, NotEqual) else 3 if isinstance(pred, (Collinear, Midpoint)) else 4
    for first in range(positions):
        for bad, other in (("missing", "line"), ("line", "missing")):
            scene = {}
            for i in range(positions):
                kind = "point" if i < first else bad if i == first else other
                if kind == "point":
                    scene[f"P{i}"] = ScenePoint(float(i), float(i * i))
                elif kind == "line":
                    scene[f"P{i}"] = SceneLine(1.0, 0.0, float(i))
            calls = [lambda: eval_predicate(scene, pred)]
            if isinstance(pred, Equal):
                calls.append(lambda: eval_term(scene, Plus(pred.left, pred.right)))
            for call in calls:
                with pytest.raises((UnresolvedIdError, KindMismatchError)) as exc:
                    call()
                if bad == "missing":
                    assert type(exc.value) is UnresolvedIdError
                    assert exc.value.element_id == f"P{first}"
                else:
                    assert type(exc.value) is KindMismatchError
                    assert (exc.value.element_id, exc.value.expected, exc.value.got) == (f"P{first}", "point", "line")


def test_mult_by_zero_annihilates():
    rng = random.Random(7)
    for _ in range(50):
        scene = _scene(A=(rng.uniform(-50, 50), rng.uniform(-50, 50)), B=(rng.uniform(-50, 50), rng.uniform(-50, 50)))
        assert eval_term(scene, Mult(SegmentLength("A", "B"), Const(0.0))) == 0.0


# ---------------------------------------------------------------------------
# eval_predicate


def test_collinear_points_on_diagonal():
    scene = _scene(A=(0, 0), B=(1, 1), C=(2, 2))
    truth, margin = eval_predicate(scene, Collinear("A", "B", "C"))
    assert truth and margin <= 0


def test_perpendicular_margin_is_exactly_minus_eps():
    scene = _scene(A=(0, 0), B=(1, 0), C=(0, 0), D=(0, 1))
    tol = Tolerance()
    truth, margin = eval_predicate(scene, Perpendicular("A", "B", "C", "D"), tol)
    assert truth
    assert margin == -tol.eps_rel * scene_scale(scene) ** 2


def test_harmonic_range_is_exact():
    scene = _scene(A=(0, 0), B=(3, 0), C=(1, 0), D=(-3, 0))
    truth, margin = eval_predicate(scene, Harmonic("A", "B", "C", "D"))
    assert truth
    residual = margin + Tolerance().eps_rel
    assert residual < 1e-12
    exact = cross_ratio_exact(
        (Fraction(0), Fraction(0)), (Fraction(3), Fraction(0)), (Fraction(1), Fraction(0)), (Fraction(-3), Fraction(0))
    )
    assert exact == -1


def test_harmonic_degenerate_base_raises():
    scene = _scene(A=(0, 0), B=(3, 0), C=(3, 0), D=(1, 0))
    with pytest.raises(DegeneratePredicateError):
        eval_predicate(scene, Harmonic("A", "B", "C", "D"))  # C == B: cb vanishes


def test_harmonic_with_d_on_a_raises():
    scene = _scene(A=(0, 0), B=(2, 0), C=(1, 0), D=(0, 0))
    with pytest.raises(DegeneratePredicateError, match="points A and D coincide$"):
        eval_predicate(scene, Harmonic("A", "B", "C", "D"))


def test_equal_uses_term_magnitude_scale():
    scene = _scene(A=(0, 0), B=(3, 4))
    truth, _ = eval_predicate(scene, Equal(SegmentLength("A", "B"), Const(5.0)))
    assert truth
    truth, _ = eval_predicate(scene, Equal(SegmentLength("A", "B"), Const(5.1)))
    assert not truth


def test_not_equal_thresholds():
    scene = _scene(A=(0, 0), B=(0, 0), C=(1, 0))
    assert not eval_predicate(scene, NotEqual("A", "B"))[0]
    assert eval_predicate(scene, NotEqual("A", "C"))[0]


def test_segment_ratio():
    scene = _scene(A=(0, 0), B=(6, 2), M=(3, 1))
    assert eval_predicate(scene, SegmentRatio("A", "B", "A", "M", 2.0))[0]
    assert not eval_predicate(scene, SegmentRatio("A", "B", "A", "M", 3.0))[0]


def test_negation_coherence_on_random_scenes():
    rng = random.Random(99)
    for _ in range(300):
        pts = {n: (rng.uniform(-100, 100), rng.uniform(-100, 100)) for n in "ABCD"}
        scene = _scene(**pts)
        par, _ = eval_predicate(scene, Parallel("A", "B", "C", "D"))
        npar, _ = eval_predicate(scene, NotParallel("A", "B", "C", "D"))
        assert npar == (not par)


def test_float_agrees_with_exact_oracle_quick():
    rng = random.Random(4)
    tol = Tolerance()
    for _ in range(500):
        pts = [(rng.randint(-100, 100), rng.randint(-100, 100)) for _ in range(4)]
        scene = _scene(A=pts[0], B=pts[1], C=pts[2], D=pts[3])
        fr = [(Fraction(x), Fraction(y)) for x, y in pts]
        assert eval_predicate(scene, Collinear("A", "B", "C"), tol)[0] == collinear_exact(fr[0], fr[1], fr[2])


# ---------------------------------------------------------------------------
# sampling


def test_splitmix64_known_answer():
    # reference sequence of splitmix64 (Vigna), states 0 and 1234567
    g = _SplitMix64(0)
    assert [g.next_u64() for _ in range(3)] == [
        16294208416658607535,
        7960286522194355700,
        487617019471545679,
    ]
    g = _SplitMix64(1234567)
    assert [g.next_u64() for _ in range(3)] == [
        6457827717110365317,
        3203168211198807973,
        9817491932198370423,
    ]


@pytest.mark.parametrize("seed", [0, 1, 1234567, 2**64 - 1, 2**64 - 2**20, 2**70 + 3])
def test_next_points_draws_as_next_u64(seed):
    # next_points evaluates next_u64's draws together; both continue one stream
    gen, ref = _SplitMix64(seed), _SplitMix64(seed)

    def coord(r):
        return -r + 2.0 * r * ((ref.next_u64() >> 11) * 2.0**-53)

    counts = [(0, 10.0), (1, 10.0), (4, 1e6), (41, 1e-3), (7, 0.5), (400, 10.0), (3, 1e155)]
    counts += [(128, 10.0), (128, 10.0), (256, 1e308), (257, 5e-324)]
    for count, r in counts:
        assert gen.next_points(count, r) == [(coord(r), coord(r)) for _ in range(count)]
        assert gen.state == ref.state


def test_sampling_is_deterministic(varignon):
    a = sample_free_points(varignon.construction, 42, 10.0)
    b = sample_free_points(varignon.construction, 42, 10.0)
    assert a == b
    assert list(a) == ["A", "B", "C", "D"]
    assert all(-10.0 <= v <= 10.0 for xy in a.values() for v in xy)


def test_distinct_seeds_differ(varignon):
    seen = set()
    for seed in range(25):
        assignment = sample_free_points(varignon.construction, seed, 10.0)
        seen.add(tuple(assignment.items()))
    assert len(seen) == 25


def test_no_free_points_empty_map():
    k = Construction(elements=(), constraints=())
    assert sample_free_points(k, 7, 5.0) == {}


@pytest.mark.parametrize("coord_range", [0.0, -1.0, math.nan, math.inf, math.nextafter(2.0**500, math.inf), 1e155])
@pytest.mark.parametrize(
    "draw",
    [
        lambda p, r: sample_free_points(p.construction, 1, r),
        lambda p, r: check_conjecture(p, 10, seed=1, coord_range=r),
    ],
    ids=["sample_free_points", "check_conjecture"],
)
def test_bad_range_rejected(varignon, draw, coord_range):
    with pytest.raises(ValueError, match="coord_range must be > 0"):
        draw(varignon, coord_range)


def test_three_free_points_are_falsified_up_to_the_domain_edge(corpus):
    # at 1e155, before the domain, the collinear residual overflowed at every
    # sample and the false conjecture was VACUOUS with 50 degenerate samples
    report = check_conjecture(corpus["collinear_free"], 50, 0, coord_range=2.0**500)
    assert report.verdict is Verdict.FALSIFIED


# ---------------------------------------------------------------------------
# check_conjecture


@pytest.mark.parametrize("seed,coord_range", [(3, 10.0), (0, 1e6), (123456789, 0.5)])
def test_trial_0_witness_is_sample_free_points(corpus, seed, coord_range):
    p = corpus["collinear_free"]
    report = check_conjecture(p, 100, seed=seed, coord_range=coord_range)
    assert report.samples_total == 0  # falsified on trial 0
    assert dict(report.witness.assignment) == sample_free_points(p.construction, seed, coord_range)


def test_reports_do_not_depend_on_the_draw_block(corpus, monkeypatch):
    # trial i reads outputs [2ni, 2n(i+1)) however many trials a block draws
    problems = [p for p in corpus.values() if p.conjecture is not None and not p.construction.has_opaque()]
    problems += [_generated(100, 0), _generated(100, 1)]
    cases = [(p, trials, seed, r) for p in problems for trials in (1, 7, 100) for seed in (0, 5) for r in (10.0, 2.0**500)]
    blocked = [repr(check_conjecture(p, trials, seed, coord_range=r)) for p, trials, seed, r in cases]
    monkeypatch.setattr(numeric, "_BLOCK_DRAWS", 1)
    assert [repr(check_conjecture(p, trials, seed, coord_range=r)) for p, trials, seed, r in cases] == blocked


def test_conjecture_without_free_points_draws_nothing(monkeypatch):
    drawn = []
    next_points = _SplitMix64.next_points
    monkeypatch.setattr(_SplitMix64, "next_points", lambda gen, n, r: drawn.append(n) or next_points(gen, n, r))
    empty = Construction(elements=(), constraints=())
    for right, verdict in ((1.0, Verdict.CONSISTENT_OVER_SAMPLES), (2.0, Verdict.FALSIFIED)):
        conjecture = Conjecture(hypothesis=(), ndg=(), conclusion=(Equal(Const(1.0), Const(right)),))
        report = check_conjecture(Problem(construction=empty, conjecture=conjecture), 1000, seed=3)
        assert report.verdict is verdict
        assert report.samples_checked == (1000 if verdict is Verdict.CONSISTENT_OVER_SAMPLES else 0)
        assert report.witness is None or report.witness.assignment == ()
    assert drawn and set(drawn) == {0}


def test_collinear_conjecture_falsified(corpus):
    report = check_conjecture(corpus["collinear_free"], 100, seed=3)
    assert report.verdict is Verdict.FALSIFIED
    assert report.witness is not None
    assert isinstance(report.witness.predicate, Collinear)
    # witness coordinates are dyadic rationals: verify with exact arithmetic
    pts = {fid: (Fraction(x), Fraction(y)) for fid, (x, y) in report.witness.assignment}
    assert not collinear_exact(pts["A"], pts["B"], pts["C"])


def test_varignon_consistent(varignon):
    report = check_conjecture(varignon, 1000, seed=42)
    assert report.verdict is Verdict.CONSISTENT_OVER_SAMPLES
    assert report.samples_checked >= 990
    assert report.witness is None
    assert report == check_conjecture(varignon, 1000, seed=42)


def test_contradictory_ndg_is_vacuous(varignon):
    import dataclasses

    conj = Conjecture(hypothesis=(), ndg=(NotEqual("A", "A"),), conclusion=(Collinear("A", "B", "C"),))
    p = dataclasses.replace(varignon, conjecture=conj)
    report = check_conjecture(p, 50, seed=1)
    assert report.verdict is Verdict.VACUOUS
    assert report.samples_degenerate == 50
    assert report.samples_checked == 0


@pytest.mark.parametrize("ref, error", [("ZZ", UnresolvedIdError), ("a", KindMismatchError)], ids=["undefined id", "line id"])
def test_predicate_ids_resolve_before_the_first_trial(varignon, ref, error):
    # no trial reaches the conclusion, whose id names no point, yet the
    # check refuses it rather than report a vacuous conjecture
    conj = Conjecture(hypothesis=(), ndg=(NotEqual("A", "A"),), conclusion=(NotEqual("A", ref),))
    with pytest.raises(error) as exc:
        check_conjecture(dataclasses.replace(varignon, conjecture=conj), 50, seed=1)
    assert exc.value.element_id == ref
    if error is KindMismatchError:
        assert (exc.value.expected, exc.value.got) == ("point", "line")


@pytest.mark.parametrize(
    "conjecture, degenerate, hypothesis_failed",
    [
        (Conjecture(hypothesis=(Collinear("A", "B", "C"),), ndg=(), conclusion=(NotEqual("A", "B"),)), 0, 50),
        (Conjecture(hypothesis=(), ndg=(), conclusion=(Harmonic("A", "A", "C", "D"),)), 50, 0),
    ],
    ids=["hypothesis_never_holds", "conclusion_always_degenerate"],
)
def test_conjecture_that_never_reaches_its_conclusion_is_vacuous(varignon, conjecture, degenerate, hypothesis_failed):
    # the free points A, B and C are collinear at no sample; harmonic A A C D
    # has coinciding base points at every sample
    report = check_conjecture(dataclasses.replace(varignon, conjecture=conjecture), 50, seed=1)
    counts = (report.samples_degenerate, report.samples_hypothesis_failed, report.samples_checked)
    assert (report.verdict, counts) == (Verdict.VACUOUS, (degenerate, hypothesis_failed, 0))


def test_counter_partition(varignon):
    report = check_conjecture(varignon, 250, seed=9)
    assert report.samples_total == (
        report.samples_degenerate + report.samples_hypothesis_failed + report.samples_checked
    )


@pytest.mark.parametrize(
    "conclusion,error",
    [
        (NotEqual("A", "l"), KindMismatchError),
        (Equal(SegmentLength("l", "B"), Const(1.0)), KindMismatchError),
        (NotEqual("A", "Z"), UnresolvedIdError),
        (Equal(SegmentLength("A", "B"), SegmentLength("A", "Z")), UnresolvedIdError),
    ],
    ids=["line id", "line id in a term", "undefined id", "undefined id in a term"],
)
def test_predicate_ids_resolve_as_in_the_full_scene(conclusion, error):
    # a trial decides on the full scene, so a line id named as a point is a
    # kind mismatch and an undefined id is unresolved
    k = Construction(elements=(), constraints=(_free("A"), _free("B"), _line("l", "A", "B")))
    problem = Problem(construction=k, conjecture=Conjecture(hypothesis=(), ndg=(), conclusion=(conclusion,)))
    with pytest.raises(error) as exc:
        check_conjecture(problem, 10)
    if error is KindMismatchError:
        assert (exc.value.element_id, exc.value.expected, exc.value.got) == ("l", "point", "line")
    else:
        assert exc.value.element_id == "Z"


def test_check_requires_conjecture(corpus):
    with pytest.raises(NoConjectureError):
        check_conjecture(corpus["minimal"], 10)


def test_check_rejects_opaque(corpus):
    import dataclasses

    p = corpus["opaque_circumcircle"]
    p = dataclasses.replace(p, conjecture=Conjecture((), (), (NotEqual("A", "B"),)))
    with pytest.raises(OpaqueConstraintError):
        check_conjecture(p, 10)


def test_similarity_invariance_sample():
    rng = random.Random(12)
    tol = Tolerance()
    cases = 0
    for _ in range(200):
        ax, ay = rng.uniform(-50, 50), rng.uniform(-50, 50)
        bx, by = rng.uniform(-50, 50), rng.uniform(-50, 50)
        mx, my = (ax + bx) / 2, (ay + by) / 2  # exact midpoint: truth is True
        theta = rng.uniform(0, 2 * math.pi)
        tx, ty = rng.uniform(-40, 40), rng.uniform(-40, 40)
        cos_t, sin_t = math.cos(theta), math.sin(theta)

        def move(x, y):
            return (x * cos_t - y * sin_t + tx, x * sin_t + y * cos_t + ty)

        before = _scene(M=(mx, my), A=(ax, ay), B=(bx, by))
        after = _scene(M=move(mx, my), A=move(ax, ay), B=move(bx, by))
        assert eval_predicate(before, Midpoint("M", "A", "B"), tol)[0]
        assert eval_predicate(after, Midpoint("M", "A", "B"), tol)[0]
        cases += 1
    assert cases == 200


def test_scale_covariance_same_length():
    rng = random.Random(21)
    tol = Tolerance()
    for _ in range(100):
        pts = [(rng.uniform(-20, 20), rng.uniform(-20, 20)) for _ in range(3)]
        a, b, c = pts
        d = (c[0] + (b[0] - a[0]), c[1] + (b[1] - a[1]))  # CD is a translate of AB
        lam = rng.uniform(0.1, 50.0)
        base = _scene(A=a, B=b, C=c, D=d)
        scaled = _scene(**{n: (p.x * lam, p.y * lam) for n, p in base.items()})
        assert eval_predicate(base, SameLength("A", "B", "C", "D"), tol)[0]
        assert eval_predicate(scaled, SameLength("A", "B", "C", "D"), tol)[0]


# ---------------------------------------------------------------------------
# determinism contract: reports and scales pinned to their recorded values

# (verdict, total, degenerate, hypothesis-failed, checked, witness as
# (predicate text, assignment)), recorded with a checker that rescanned the
# scene for every predicate; reports are part of the format contract, so any
# faster checker reproduces them bit for bit
GOLDEN = {
    ("varignon", 0): ("consistent_over_samples", 200, 0, 0, 200, None),
    ("varignon", 1): ("consistent_over_samples", 200, 0, 0, 200, None),
    ("varignon", 2): ("consistent_over_samples", 200, 0, 0, 200, None),
    ("midpoint_thm", 0): ("consistent_over_samples", 200, 0, 0, 200, None),
    ("midpoint_thm", 1): ("consistent_over_samples", 200, 0, 0, 200, None),
    ("midpoint_thm", 2): ("consistent_over_samples", 200, 0, 0, 200, None),
    ("collinear_free", 0): ("falsified", 0, 0, 0, 0, ("collinear A B C", (("A", (7.6662161642728535, -1.3694400590298006)), ("B", (-9.471324568148045, 9.41763956307657)), ("C", (-7.873066168655751, -3.453484715637485))))),
    ("collinear_free", 1): ("falsified", 0, 0, 0, 0, ("collinear A B C", (("A", (1.3312315034456184, 4.915635145254022)), ("B", (9.420055071735923, -1.1128156588845588)), ("C", (-1.1147059834728381, 5.25788783823522))))),
    ("collinear_free", 2): ("falsified", 0, 0, 0, 0, ("collinear A B C", (("A", (1.8237946839615873, 4.982993677476493)), ("B", (1.912761628000105, 5.3083830839005905)), ("C", (-3.7682262563777176, -3.0675545917660196))))),
    ("harmonic_range", 0): ("falsified", 0, 0, 0, 0, ("harmonic A B C D", (("A", (7.6662161642728535, -1.3694400590298006)), ("B", (-9.471324568148045, 9.41763956307657))))),
    ("harmonic_range", 1): ("falsified", 0, 0, 0, 0, ("harmonic A B C D", (("A", (1.3312315034456184, 4.915635145254022)), ("B", (9.420055071735923, -1.1128156588845588))))),
    ("harmonic_range", 2): ("falsified", 0, 0, 0, 0, ("harmonic A B C D", (("A", (1.8237946839615873, 4.982993677476493)), ("B", (1.912761628000105, 5.3083830839005905))))),
    ("circle_radii", 0): ("consistent_over_samples", 200, 0, 0, 200, None),
    ("circle_radii", 1): ("consistent_over_samples", 200, 0, 0, 200, None),
    ("circle_radii", 2): ("consistent_over_samples", 200, 0, 0, 200, None),
    ("perpendicular_foot", 0): ("consistent_over_samples", 200, 0, 0, 200, None),
    ("perpendicular_foot", 1): ("consistent_over_samples", 200, 0, 0, 200, None),
    ("perpendicular_foot", 2): ("consistent_over_samples", 200, 0, 0, 200, None),
    ("half_segment", 0): ("consistent_over_samples", 200, 0, 0, 200, None),
    ("half_segment", 1): ("consistent_over_samples", 200, 0, 0, 200, None),
    ("half_segment", 2): ("consistent_over_samples", 200, 0, 0, 200, None),
    ("parallel_transport", 0): ("consistent_over_samples", 200, 0, 0, 200, None),
    ("parallel_transport", 1): ("consistent_over_samples", 200, 0, 0, 200, None),
    ("parallel_transport", 2): ("consistent_over_samples", 200, 0, 0, 200, None),
    ("triangle_sides", 0): ("consistent_over_samples", 200, 0, 0, 200, None),
    ("triangle_sides", 1): ("consistent_over_samples", 200, 0, 0, 200, None),
    ("triangle_sides", 2): ("consistent_over_samples", 200, 0, 0, 200, None),
    ("varignon_attempts", 0): ("consistent_over_samples", 200, 0, 0, 200, None),
    ("varignon_attempts", 1): ("consistent_over_samples", 200, 0, 0, 200, None),
    ("varignon_attempts", 2): ("consistent_over_samples", 200, 0, 0, 200, None),
    ("varignon_files", 0): ("consistent_over_samples", 200, 0, 0, 200, None),
    ("varignon_files", 1): ("consistent_over_samples", 200, 0, 0, 200, None),
    ("varignon_files", 2): ("consistent_over_samples", 200, 0, 0, 200, None),
    ("generated_100", 0): ("consistent_over_samples", 100, 0, 0, 100, None),
}


def test_reports_match_recorded_values(corpus):
    cases = {(name, seed): (p, 200) for name, p in corpus.items() if p.conjecture is not None for seed in range(3)}
    cases["generated_100", 0] = (_generated(100, 0), 100)
    assert cases.keys() == GOLDEN.keys()
    for (name, seed), (problem, trials) in cases.items():
        r = check_conjecture(problem, trials, seed=seed)
        witness = None if r.witness is None else (predicate_text(r.witness.predicate), r.witness.assignment)
        got = (r.verdict.value, r.samples_total, r.samples_degenerate, r.samples_hypothesis_failed, r.samples_checked, witness)
        assert got == GOLDEN[name, seed], (name, seed)


def _scenes(problem, seeds):
    for seed in seeds:
        try:
            yield instantiate(problem.construction, sample_free_points(problem.construction, seed, 10.0))
        except DegenerateStep:
            pass


def test_instantiated_scene_carries_the_scanned_scale(corpus):
    # the scale a trial scene carries is the one a scan of its objects finds
    problems = [p for p in corpus.values() if not p.construction.has_opaque()]
    problems += [_generated(10, 1), _generated(100, 1), _generated(1000, 1)]
    seen = 0
    for problem in problems:
        c = problem.conjecture
        predicates = c.ndg + c.hypothesis + c.conclusion if c is not None else ()
        plan = _compile(problem.construction)
        for seed in range(5):
            pairs = _SplitMix64(seed).next_points(len(plan.free_ids), 10.0)
            try:
                scene = _scene_of(plan, *_run(plan, pairs, Tolerance().eps_rel))
            except DegenerateStep:
                continue
            # the trial scene holds plain tuples; scan a copy typed as
            # instantiate types it
            plain = _typed_scene(plan, list(scene.values()))
            assert scene_scale(scene).hex() == scene_scale(plain).hex()
            for pred in predicates:
                try:
                    assert eval_predicate(scene, pred) == eval_predicate(plain, pred)
                except DegeneratePredicateError:
                    pass
            seen += 1
    assert seen == 5 * len(problems)


@pytest.mark.parametrize(
    "constraints",
    [
        (_free("A"), _free("B"), _free("A")),
        (_free("A"), _free("B"), _free("C"), _midpoint("M", "A", "B"), _midpoint("M", "B", "C")),
        (_free("A"), _free("B"), _free("C"), _midpoint("A", "B", "C")),
    ],
    ids=["free", "constructed", "free_then_constructed"],
)
def test_repeated_output_id_is_refused(constraints):
    k = Construction(elements=(), constraints=constraints)
    free = {fid: (float(i), 1.0) for i, fid in enumerate(k.free_point_ids())}
    with pytest.raises(ValueError, match="already defined"):
        instantiate(k, free)
    problem = Problem(construction=k, conjecture=Conjecture(hypothesis=(), ndg=(), conclusion=(NotEqual("A", "B"),)))
    with pytest.raises(ValueError, match="already defined"):
        check_conjecture(problem, 10)


def test_copies_of_a_scene_are_plain_dicts(varignon):
    scene = next(_scenes(varignon, [0]))
    assert type(scene) is dict
    for copied in (copy.copy(scene), copy.deepcopy(scene), pickle.loads(pickle.dumps(scene)), dict(scene)):
        assert type(copied) is dict and copied == scene
        copied["Z"] = ScenePoint(1e6, 0.0)
        assert scene_scale(copied) == 1e6


def test_trial_scene_agrees_with_the_full_scene(corpus):
    # a trial decides on the scene instantiate returns, scale included
    problems = [p for p in corpus.values() if p.conjecture is not None and not p.construction.has_opaque()]
    problems += [_generated(10, 2), _generated(100, 2), _generated(1000, 2)]
    compared = 0
    for problem in problems:
        plan = _compile(problem.construction)
        for seed in range(5):
            for coord_range in (10.0, 1e6, 1e-3):
                assignment = sample_free_points(problem.construction, seed, coord_range)
                try:
                    full = instantiate(problem.construction, assignment)
                except DegenerateStep:
                    continue
                pairs = _SplitMix64(seed).next_points(len(plan.free_ids), coord_range)
                trial = _scene_of(plan, *_run(plan, pairs, Tolerance().eps_rel))
                typed = _typed_scene(plan, list(trial.values()))
                assert list(typed.items()) == list(full.items()) and repr(typed) == repr(full)
                assert scene_scale(trial).hex() == scene_scale(full).hex()
                compared += 1
    assert compared > 200


# ---------------------------------------------------------------------------
# The interpreter against the reference runner


def _run_outcome(run, plan, pairs, typed):
    """What ``run`` gives for ``plan`` over ``pairs``: the float.hex() of
    every coordinate of every slot, with its type, and of the scale; or the
    step id and reason of the DegenerateStep it raises.  When ``typed``, the
    scene objects are typed first, as instantiate types them."""

    try:
        slots, scale = run(plan, list(pairs), Tolerance().eps_rel)
    except DegenerateStep as exc:
        return ("degenerate", exc.step_id, exc.reason)
    if typed:
        slots = list(_typed_scene(plan, slots).values()) + slots[len(plan.ids):]
    return [(type(obj), tuple(v.hex() for v in obj)) for obj in slots], scale.hex()


def test_run_matches_the_reference_bit_for_bit(corpus):
    text = (
        "point A 0 0\npoint B 4 0\npoint C 1 3\nline l A B\nline m A C\nintersec P l m\n"
        "midpoint M B C\ncircle k A B\nperp p l C\nparallel q l C\nonline X l 0.5\noncircle Y k 1\n"
    )
    problems = [p for p in corpus.values() if not p.construction.has_opaque()]
    problems += [parse_dsl(text), _generated(10, 0), _generated(100, 0), _generated(1000, 0)]
    runs = []
    for problem in problems:
        plan = _compile(problem.construction)
        for seed in range(5):
            for coord_range in (1e-3, 10.0, 1e6, 2.0**500):
                runs.append((plan, _SplitMix64(seed).next_points(len(plan.free_ids), coord_range)))
    for _text, constraints, free, _cause in _DEGENERATE.values():
        plan = _compile(Construction(elements=(), constraints=constraints))
        runs.append((plan, [free[fid] for fid in plan.free_ids]))
    reasons = []
    for plan, pairs in runs:
        outcome = _run_outcome(_run, plan, pairs, typed=True)
        assert outcome == _run_outcome(run_reference, plan, pairs, typed=False)
        if outcome[0] == "degenerate":
            reasons.append(outcome[2])
    assert 0 < len(reasons) < len(runs)
    assert {cause[2] for *_case, cause in _DEGENERATE.values()} <= set(reasons)
