"""Model invariants: validate_problem, canonical ordering."""

from __future__ import annotations

import dataclasses
import pickle

import pytest

from i2gatp.dsl import emit_dsl, emit_prover_input
from i2gatp.errors import CodecError
from i2gatp.model import (
    MAX_TERM_DEPTH,
    Collinear,
    Conjecture,
    Const,
    Constraint,
    ConstraintKind,
    Construction,
    ElementInstance,
    Equal,
    GeoKind,
    Mult,
    Parallel,
    Perpendicular,
    Plus,
    Problem,
    ProblemInfo,
    ProofAttempt,
    ProofStatus,
    SegmentLength,
    SegmentRatio,
    canonicalize_problem,
    predicate_point_ids,
    term_point_ids,
    validate_problem,
)
from i2gatp.numeric import Verdict, check_conjecture


def _point(eid: str, x: float, y: float) -> ElementInstance:
    return ElementInstance(eid, GeoKind.POINT, (x, y))


def _free(eid: str) -> Constraint:
    return Constraint(output=eid, kind=ConstraintKind.FREE_POINT)


def _two_point_construction() -> Construction:
    return Construction(
        elements=(_point("A", 0.0, 0.0), _point("B", 2.0, 2.0), _point("M", 1.0, 1.0)),
        constraints=(
            _free("A"),
            _free("B"),
            Constraint(output="M", kind=ConstraintKind.MIDPOINT_OF_TWO_POINTS, inputs=("A", "B")),
        ),
    )


def test_valid_construction_has_no_violations():
    assert validate_problem(Problem(construction=_two_point_construction())) == []


def test_forward_reference_detected():
    k = Construction(
        elements=(_point("A", 0.0, 0.0), _point("B", 2.0, 2.0), _point("M", 1.0, 1.0)),
        constraints=(
            _free("A"),
            Constraint(output="M", kind=ConstraintKind.MIDPOINT_OF_TWO_POINTS, inputs=("A", "B")),
            _free("B"),
        ),
    )
    codes = [v.code for v in validate_problem(Problem(construction=k))]
    assert "ForwardReference" in codes


def test_conjecture_with_unknown_point_is_unresolved():
    p = Problem(
        construction=_two_point_construction(),
        conjecture=Conjecture(hypothesis=(), ndg=(), conclusion=(Collinear("A", "B", "X"),)),
    )
    codes = [v.code for v in validate_problem(p)]
    assert "UnresolvedId" in codes


def test_conjecture_naming_a_line_is_kind_mismatch():
    k = Construction(
        elements=(_point("A", 0.0, 0.0), _point("B", 1.0, 0.0), ElementInstance("L", GeoKind.LINE, (0.0, 1.0, 0.0))),
        constraints=(
            _free("A"),
            _free("B"),
            Constraint(output="L", kind=ConstraintKind.LINE_THROUGH_TWO_POINTS, inputs=("A", "B")),
        ),
    )
    p = Problem(construction=k, conjecture=Conjecture((), (), (Collinear("A", "B", "L"),)))
    assert [v.code for v in validate_problem(p)] == ["KindMismatch"]


def test_varignon_fixture_is_valid(varignon):
    assert validate_problem(varignon) == []


def test_validate_is_pure(varignon):
    p = dataclasses.replace(varignon, conjecture=Conjecture((), (), (Collinear("A", "B", "X"),)))
    assert validate_problem(p) == validate_problem(p)


def test_duplicate_attempt_triple_reported(varignon):
    attempt = ProofAttempt(prover="GCLCprover", version="2.0", method="wu", status=ProofStatus.PROVED)
    p = dataclasses.replace(varignon, proofs=(attempt, attempt))
    codes = [v.code for v in validate_problem(p)]
    assert codes.count("DuplicateAttempt") == 1


def test_kind_mismatch_when_constraint_inputs_swap():
    k = Construction(
        elements=(
            _point("A", 0.0, 0.0),
            _point("B", 1.0, 0.0),
            ElementInstance("l", GeoKind.LINE, (0.0, 1.0, 0.0)),
            _point("P", 2.0, 0.0),
        ),
        constraints=(
            _free("A"),
            _free("B"),
            Constraint(output="l", kind=ConstraintKind.LINE_THROUGH_TWO_POINTS, inputs=("A", "B")),
            # inputs reversed: point where a line is expected and vice versa
            Constraint(output="P", kind=ConstraintKind.PERPENDICULAR_LINE_THROUGH_POINT, inputs=("A", "l")),
        ),
    )
    codes = [v.code for v in validate_problem(Problem(construction=k))]
    assert "KindMismatch" in codes


def test_parameter_on_a_step_that_takes_none_is_arity_error():
    k = Construction(
        elements=(
            _point("A", 0.0, 0.0),
            _point("B", 1.0, 0.0),
            ElementInstance("l", GeoKind.LINE, (0.0, 1.0, 0.0)),
        ),
        constraints=(
            _free("A"),
            _free("B"),
            Constraint(output="l", kind=ConstraintKind.LINE_THROUGH_TWO_POINTS, inputs=("A", "B"), parameter=2.5),
        ),
    )
    # pack would drop the parameter, so unpack(pack(p)) could not equal p
    violations = validate_problem(Problem(construction=k))
    assert [(v.code, v.path) for v in violations] == [
        ("ArityError", "/construction/constraints/line_through_two_points[2]")
    ]


def test_bad_element_data_flagged():
    k = Construction(
        elements=(
            ElementInstance("l", GeoKind.LINE, (0.0, 0.0, 0.0)),
            ElementInstance("k", GeoKind.CIRCLE, (0.0, 0.0, -1.0)),
        ),
        constraints=(
            Constraint(output="l", kind=ConstraintKind.OPAQUE, opaque_tag="x", opaque_payload=b'<x out="l"/>'),
            Constraint(output="k", kind=ConstraintKind.OPAQUE, opaque_tag="y", opaque_payload=b'<y out="k"/>'),
        ),
    )
    # an XML declaration naming an unknown encoding is malformed, not a crash
    info = ProblemInfo(name="x", statement=b'<?xml version="1.0" encoding="inf"?><math/>')
    codes = [v.code for v in validate_problem(Problem(construction=k, info=info))]
    assert "ZeroLine" in codes and "NegativeRadius" in codes and "MalformedXml" in codes


def test_canonicalize_sorts_proofs_and_files(varignon):
    a1 = ProofAttempt(prover="Zprover", version="1", method="m", status=ProofStatus.PROVED)
    a2 = ProofAttempt(prover="Aprover", version="1", method="m", status=ProofStatus.TIMEOUT)
    p = dataclasses.replace(
        varignon,
        proofs=(a1, a2),
        resources=(("resources/z.txt", b"z"), ("resources/a.txt", b"a")),
    )
    q = canonicalize_problem(p)
    assert [a.prover for a in q.proofs] == ["Aprover", "Zprover"]
    assert [path for path, _ in q.resources] == ["resources/a.txt", "resources/z.txt"]


def test_corpus_problems_all_validate(corpus):
    for name, problem in corpus.items():
        assert validate_problem(problem) == [], name


def _nested_equal(problem: Problem, levels: int) -> Problem:
    """``problem`` concluding Equal(t, Const(1)), t ``levels`` plus levels
    deep over constants, as the XML reader's depth tests nest it."""

    t = Const(1.0)
    for _ in range(levels):
        t = Plus(t, Const(1.0))
    conjecture = dataclasses.replace(problem.conjecture, conclusion=(Equal(t, Const(1.0)),))
    return dataclasses.replace(problem, conjecture=conjecture)


def test_term_at_the_depth_limit_is_valid(varignon):
    p = _nested_equal(varignon, MAX_TERM_DEPTH - 1)
    assert validate_problem(p) == []
    assert check_conjecture(p, 5).verdict is Verdict.FALSIFIED
    assert "plus" in emit_dsl(p) and "plus" in emit_prover_input(p)


@pytest.mark.parametrize("cls", [Plus, Mult])
def test_term_beyond_the_depth_limit_cannot_be_built(varignon, cls):
    # the deepest term's plus or mult one level up, on either side
    deepest = _nested_equal(varignon, MAX_TERM_DEPTH - 1).conjecture.conclusion[0].left
    assert deepest.depth == MAX_TERM_DEPTH
    refused = ("ArityError", f"/{cls.__name__.lower()}", f"term nested deeper than {MAX_TERM_DEPTH} levels")
    for operands in ((deepest, Const(1.0)), (Const(1.0), deepest)):
        with pytest.raises(CodecError) as exc:
            cls(*operands)
        assert exc.value.code == "ArityError"
        assert [(v.code, v.path, v.message) for v in exc.value.violations] == [refused]


def test_point_ids_refuse_what_is_not_a_term_or_a_predicate():
    # a term where a predicate belongs, and the reverse
    with pytest.raises(TypeError, match="not a Term: Collinear"):
        term_point_ids(Collinear("A", "B", "C"))
    with pytest.raises(TypeError, match="not a Predicate: SegmentLength"):
        predicate_point_ids(SegmentLength("A", "B"))
    with pytest.raises(TypeError, match="not a Term: 'A'"):
        predicate_point_ids(Equal("A", Const(1.0)))


def _field_by_field(cls, **values):
    """An instance of ``cls`` built as a generated frozen __init__ builds
    one: each field set through object.__setattr__."""

    obj = object.__new__(cls)
    for name, value in values.items():
        object.__setattr__(obj, name, value)
    return obj


_CONSTRAINT_FIELDS = {"output": "M", "kind": ConstraintKind.POINT_ON_LINE, "inputs": ("l",), "parameter": 0.5, "opaque_tag": None, "opaque_payload": None}


@pytest.mark.parametrize(
    "cls, values, defaults, text",
    [
        (
            ElementInstance,
            {"id": "A", "kind": GeoKind.POINT, "coords": (1.0, 2.0)},
            {},
            "ElementInstance(id='A', kind=<GeoKind.POINT: 'point'>, coords=(1.0, 2.0))",
        ),
        (
            Constraint,
            _CONSTRAINT_FIELDS,
            {"inputs": (), "parameter": None, "opaque_tag": None, "opaque_payload": None},
            "Constraint(output='M', kind=<ConstraintKind.POINT_ON_LINE: 'point_on_line'>, inputs=('l',), parameter=0.5, "
            "opaque_tag=None, opaque_payload=None)",
        ),
        (Parallel, {"a": "A", "b": "B", "c": "C", "d": "D"}, {}, "Parallel(a='A', b='B', c='C', d='D')"),
        (
            SegmentRatio,
            {"a": "A", "b": "B", "c": "C", "d": "D", "ratio": 2.5},
            {},
            "SegmentRatio(a='A', b='B', c='C', d='D', ratio=2.5)",
        ),
    ],
)
def test_value_classes_keep_the_frozen_dataclass_contract(cls, values, defaults, text):
    # a document holds one of each per step; whatever __init__ builds them,
    # generated or written by hand, they behave as frozen dataclasses
    fields = dataclasses.fields(cls)
    assert [f.name for f in fields] == list(values)
    assert {f.name: f.default for f in fields if f.default is not dataclasses.MISSING} == defaults
    built = _field_by_field(cls, **values)
    for value in (cls(**values), cls(*values.values())):
        assert value == built and hash(value) == hash(built)
        assert vars(value) == values
        assert repr(value) == text
    required = {name: v for name, v in values.items() if name not in defaults}
    assert cls(**required) == _field_by_field(cls, **required, **defaults)
    assert cls(*required.values()) == cls(**required)
    value = cls(**values)
    first = next(iter(values))
    changed = dataclasses.replace(value, **{first: "Z"})
    assert changed == _field_by_field(cls, **{**values, first: "Z"})
    assert value != changed and getattr(value, first) == values[first]
    for name in values:
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(value, name, None)
        with pytest.raises(dataclasses.FrozenInstanceError):
            delattr(value, name)
    with pytest.raises(dataclasses.FrozenInstanceError):
        value.extra = 1
    assert vars(value) == values
    assert pickle.loads(pickle.dumps(value)) == value


def test_predicates_on_the_same_points_differ_by_class():
    # the four-point predicates share their fields, not their identity
    ids = ("A", "B", "C", "D")
    parallel, perpendicular = Parallel(*ids), Perpendicular(*ids)
    assert parallel != perpendicular and hash(parallel) == hash(perpendicular)
    for p in (parallel, perpendicular):
        copy = pickle.loads(pickle.dumps(p))
        assert type(copy) is type(p) and copy == p
