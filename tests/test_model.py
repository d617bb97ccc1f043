"""Model invariants: validate_problem, canonical ordering."""

from __future__ import annotations

import dataclasses

from i2gatp.model import (
    Collinear,
    Conjecture,
    Constraint,
    ConstraintKind,
    Construction,
    ElementInstance,
    GeoKind,
    Problem,
    ProblemInfo,
    ProofAttempt,
    ProofStatus,
    canonicalize_problem,
    validate_problem,
)


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
