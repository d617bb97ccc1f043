"""DSL parsing/emission and the prover-input emitter."""

from __future__ import annotations

import dataclasses

import pytest

from conftest import VARIGNON_DSL
from i2gatp.container import pack, unpack
from i2gatp.dsl import emit_dsl, emit_prover_input, parse_dsl
from i2gatp.errors import (
    CodecError,
    DegenerateInitialInstance,
    DslSyntaxError,
    DslUnresolvedId,
    NoConjectureError,
    OpaqueConstraintError,
)
from i2gatp.model import (
    Conjecture,
    ConstraintKind,
    ElementInstance,
    Equal,
    GeoKind,
    MAX_TERM_DEPTH,
    Midpoint,
    SegmentRatio,
    canonicalize_problem,
    validate_problem,
)
from i2gatp.numeric import Verdict, check_conjecture


def test_minimal_program():
    p = parse_dsl("point A 0 0\npoint B 2 2\nmidpoint M A B\nprove { conclude midpoint M A B }\n")
    assert len(p.construction.elements) == 3
    assert p.conjecture == Conjecture(hypothesis=(), ndg=(), conclusion=(Midpoint("M", "A", "B"),))
    assert validate_problem(p) == []


def test_degenerate_initial_instance_carries_line():
    with pytest.raises(DegenerateInitialInstance) as exc:
        parse_dsl("point A 0 0\nline l A A\n")
    assert exc.value.line == 2


def test_unresolved_and_syntax_diagnostics():
    with pytest.raises(DslUnresolvedId) as exc:
        parse_dsl("point A 0 0\nmidpoint M A Z\n")
    assert exc.value.line == 2
    with pytest.raises(DslSyntaxError) as exc2:
        parse_dsl("point A 0 0\nwobble W A\n")
    assert exc2.value.line == 2
    with pytest.raises(DslSyntaxError):
        parse_dsl("point A 0 0\npoint A 1 1\n")  # duplicate id


@pytest.mark.parametrize(
    "text,line",
    [
        ("point A 0 0\npoint B 1 0\ncircle k A B\noncircle X k 1e999\n", 4),
        ("point A 1e999 0\n", 1),
        ("point A 0 -1e999\n", 1),
        ("point A 0 0\npoint B 1 0\nprove { conclude segment_ratio A B A B 1e400 }\n", 3),
    ],
    ids=["oncircle angle", "point x", "point y", "segment ratio"],
)
def test_number_that_overflows_is_a_syntax_error(text, line):
    with pytest.raises(DslSyntaxError, match="is not finite") as exc:
        parse_dsl(text)
    assert exc.value.line == line


def _nested_equal(depth: int) -> str:
    """A program whose conclusion's left term nests ``depth`` levels: its
    ``plus`` terms are on line 3 and the rest on line 4."""

    opening = "plus " * (depth - 1) + "\n"
    return f"point A 0 0\npoint B 1 0\nprove {{ conclude equal {opening}const 1{' const 1' * (depth - 1)} const {depth} }}\n"


def test_term_at_the_depth_limit_parses():
    problem = parse_dsl(_nested_equal(MAX_TERM_DEPTH))
    assert check_conjecture(problem, 3).verdict is Verdict.CONSISTENT_OVER_SAMPLES
    assert parse_dsl(emit_dsl(problem)) == problem


@pytest.mark.parametrize("depth,line", [(MAX_TERM_DEPTH + 1, 4), (5000, 3)])
def test_term_beyond_the_depth_limit_is_a_syntax_error(depth, line):
    # the error names the line of the first term beyond the limit
    with pytest.raises(DslSyntaxError, match=f"term nested deeper than {MAX_TERM_DEPTH} levels") as exc:
        parse_dsl(_nested_equal(depth))
    assert exc.value.line == line


def test_overflowing_initial_instance_is_degenerate():
    with pytest.raises(DegenerateInitialInstance, match="step 'l' is degenerate: coordinates are not finite") as exc:
        parse_dsl("point A 1e300 0\npoint B -1e300 1e300\nline l A B\n")
    assert exc.value.line == 3


def test_comments_and_blank_lines_ignored():
    p = parse_dsl("\n% a comment\npoint A 0 0  % trailing comment\n\npoint B 1 1\n")
    assert len(p.construction.elements) == 2


def test_round_trip_on_canonical_text(corpus):
    for name in ("varignon", "harmonic_range", "circle_radii", "perpendicular_foot", "parallel_transport"):
        p = corpus[name]
        text = emit_dsl(p)
        assert parse_dsl(text) == p, name
        assert emit_dsl(parse_dsl(text)) == text, name


def test_equal_and_ratio_predicates_round_trip(corpus):
    p = corpus["harmonic_range"]
    assert any(isinstance(q, Equal) for q in p.conjecture.conclusion)
    assert parse_dsl(emit_dsl(p)) == p
    q = corpus["half_segment"]
    assert isinstance(q.conjecture.conclusion[0], SegmentRatio)
    assert parse_dsl(emit_dsl(q)) == q


def test_keyword_with_a_newline_stays_one_header_line(varignon):
    info = dataclasses.replace(varignon.info, keywords=("geo\npoint Z 5 5", "quad\t rilateral"))
    p = unpack(pack(dataclasses.replace(varignon, info=info)))
    assert p.info.keywords == info.keywords
    q = parse_dsl(emit_dsl(p))
    assert q.construction == p.construction and q.conjecture == p.conjecture
    assert q.info.keywords == ("geo point Z 5 5", "quad rilateral")


def test_cross_format_equality(corpus):
    for name, p in corpus.items():
        if p.construction.has_opaque():
            continue
        xml_route = unpack(pack(p))
        # carried files are outside DSL coverage; compare the DSL-visible part
        trimmed = dataclasses.replace(xml_route, resources=(), metadata=(), private=(), proofs=())
        base = dataclasses.replace(canonicalize_problem(p), resources=(), metadata=(), private=(), proofs=())
        if base.info is not None and (base.info.statement or base.info.bibrefs):
            base = dataclasses.replace(base, info=dataclasses.replace(base.info, statement=b"", bibrefs=()))
            trimmed = dataclasses.replace(trimmed, info=dataclasses.replace(trimmed.info, statement=b"", bibrefs=()))
        assert emit_dsl(trimmed) == emit_dsl(base), name
        assert parse_dsl(emit_dsl(trimmed)) == base, name


def test_check_reports_identical_across_routes(varignon):
    via_container = unpack(pack(varignon))
    assert check_conjecture(varignon, 200, seed=42) == check_conjecture(via_container, 200, seed=42)


def test_emit_requires_no_opaque(corpus):
    with pytest.raises(OpaqueConstraintError):
        emit_dsl(corpus["opaque_circumcircle"])


def test_emit_without_conjecture_has_no_prove_block(corpus):
    text = emit_dsl(corpus["minimal"])
    assert "prove" not in text
    assert parse_dsl(text) == corpus["minimal"]


def test_prover_input_layout(varignon):
    text = emit_prover_input(varignon)
    lines = text.splitlines()
    assert lines[0] == "gpi 1"
    assert lines[1] == "problem varignon"
    c = lines.index("construction:")
    h = lines.index("hypothesis:")
    k = lines.index("conclude:")
    assert "ndg:" not in lines  # empty section omitted
    assert h - c - 1 == 12
    assert k - h - 1 == 4
    assert len(lines) - k - 1 == 2
    assert lines[k + 1] == "parallel P Q S R"


def test_prover_input_requires_conjecture(corpus):
    with pytest.raises(NoConjectureError):
        emit_prover_input(corpus["minimal"])


def test_parametric_statements_round_trip(corpus):
    p = corpus["harmonic_range"]
    kinds = [c.kind for c in p.construction.constraints]
    assert ConstraintKind.POINT_ON_LINE in kinds
    text = emit_dsl(p)
    assert "online C l -1.0" in text
    assert parse_dsl(text) == p


def test_varignon_dsl_source_is_stable():
    p = parse_dsl(VARIGNON_DSL)
    assert emit_dsl(parse_dsl(emit_dsl(p))) == emit_dsl(p)


@pytest.mark.parametrize("instance, code", [(None, "MissingElement"), (GeoKind.LINE, "KindMismatch")])
def test_emit_refuses_a_free_point_without_a_point_instance(varignon, instance, code):
    # a KeyError escaped with no instance; a line's first two coefficients
    # were written as the point's coordinates
    construction = varignon.construction
    elements = tuple(e for e in construction.elements if e.id != "A")
    if instance is not None:
        elements += (ElementInstance("A", instance, (1.0, 2.0, 3.0)),)
    problem = dataclasses.replace(varignon, construction=dataclasses.replace(construction, elements=elements))
    with pytest.raises(CodecError) as exc:
        emit_dsl(problem)
    assert [(v.code, v.path) for v in exc.value.violations] == [(code, "/construction/constraints/free_point[0]")]
    assert exc.value.violations[0] in validate_problem(problem)


# One row per diagnostic of the parser: source text, error class, line and
# a fragment of the message
_PA = "point A 0 0\npoint B 1 0\n"
_DIAGNOSTICS = [
    ("point 1A 0 0", DslSyntaxError, 1, "invalid id '1A'"),
    ("point A x 0", DslSyntaxError, 1, "malformed number 'x'"),
    (_PA + "prove { conclude equal minus A }", DslSyntaxError, 3, "unknown term 'minus'"),
    (_PA + "prove { conclude tangent A B }", DslSyntaxError, 3, "unknown predicate 'tangent'"),
    (_PA + "prove conclude not_equal A B }", DslSyntaxError, 3, "expected '{' after prove, found 'conclude'"),
    (_PA + "prove { collinear A B A }", DslSyntaxError, 3, "expected hyp, ndg or conclude, found 'collinear'"),
    (_PA + "prove { conclude not_equal A B } extra", DslSyntaxError, 3, "unexpected 'extra' after prove block"),
    (_PA + "prove { ; }", DslSyntaxError, 3, "prove block needs at least one conclude predicate"),
    (_PA + "line l A B\nmidpoint M l B", DslSyntaxError, 4, "'l' is a line, expected a point"),
    ("% name: a\n% name: b\npoint A 0 0", DslSyntaxError, 2, "repeated header 'name'"),
    (_PA + "prove { conclude not_equal A B }\nprove { conclude not_equal A B }", DslSyntaxError, 4, "only one prove block"),
    ("point A 0", DslSyntaxError, 1, "usage: point <id> <x> <y>"),
    (_PA + "line l A", DslSyntaxError, 3, "line takes 2 arguments"),
    (_PA + "prove {\n  conclude not_equal A B", DslSyntaxError, 3, "unterminated prove block"),
    (_PA + "prove {\n  conclude not_equal A Z\n}", DslUnresolvedId, 4, "undefined id 'Z'"),
    (_PA + "line l A B\nprove { conclude not_equal A l }", DslSyntaxError, 4, "'l' is a line, predicates take points"),
    ("% description: no name\npoint A 0 0", DslSyntaxError, 1, "header needs a '% name:' line"),
]


@pytest.mark.parametrize("source, error, line, fragment", _DIAGNOSTICS, ids=[row[3] for row in _DIAGNOSTICS])
def test_diagnostics_name_their_line(source, error, line, fragment):
    with pytest.raises(error) as exc:
        parse_dsl(source)
    assert type(exc.value) is error and exc.value.line == line
    assert str(exc.value).startswith(f"line {line}: ") and fragment in str(exc.value)


def test_prover_input_refuses_an_opaque_step(corpus):
    p = corpus["opaque_circumcircle"]
    p = dataclasses.replace(p, conjecture=Conjecture(hypothesis=(), ndg=(), conclusion=(Midpoint("A", "B", "C"),)))
    with pytest.raises(OpaqueConstraintError, match="constraint k is opaque"):
        emit_prover_input(p)
