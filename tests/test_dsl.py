"""DSL parsing/emission and the prover-input emitter."""

from __future__ import annotations

import dataclasses
import random
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import conftest
from conftest import VARIGNON_DSL
from i2gatp.container import pack, unpack
from i2gatp.dsl import emit_dsl, emit_prover_input, parse_dsl
from i2gatp.errors import (
    CodecError,
    DegenerateInitialInstance,
    DslError,
    DslSyntaxError,
    DslUnresolvedId,
    NoConjectureError,
    OpaqueConstraintError,
)
from i2gatp.model import (
    Conjecture,
    Const,
    ConstraintKind,
    ElementInstance,
    Equal,
    GeoKind,
    MAX_TERM_DEPTH,
    MAX_XML_ELEMENTS,
    Midpoint,
    Plus,
    SegmentLength,
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


# A term of 65,535 nodes, the most one doubling term can have
_HALF_CAP_TERM = "const 1"
for _ in range(15):
    _HALF_CAP_TERM = f"plus {_HALF_CAP_TERM} {_HALF_CAP_TERM}"


def test_term_past_the_element_cap_is_a_syntax_error():
    # two operands of 65,535 nodes each: the outer plus, on line 3, would
    # be written with 131,071 elements
    text = f"point A 0 0\npoint B 1 0\nprove {{ conclude equal plus\n{_HALF_CAP_TERM} {_HALF_CAP_TERM} const 1 }}\n"
    with pytest.raises(DslSyntaxError, match=f"term written with more than {MAX_XML_ELEMENTS} elements") as exc:
        parse_dsl(text)
    assert exc.value.line == 3


def test_largest_shared_term_is_emitted_and_checked_in_linear_time(varignon):
    # t = Plus(t, t) fifteen times is 65,535 nodes when written, the most a
    # term that doubles can have (the next doubling cannot be built); the
    # emitters and the checker walk it node by node
    term = SegmentLength("A", "B")
    for _ in range(15):
        term = Plus(term, term)
    assert term.nodes == 2**16 - 1
    conjecture = dataclasses.replace(varignon.conjecture, conclusion=(Equal(term, Const(1.0)),))
    problem = dataclasses.replace(varignon, conjecture=conjecture)
    start = time.perf_counter()
    dsl_text = emit_dsl(problem)
    prover_input = emit_prover_input(problem)
    report = check_conjecture(problem, 1)
    assert time.perf_counter() - start < 1.0
    assert dsl_text.count("segment_length A B") == prover_input.count("segment_length A B") == 2**15
    assert report.verdict is Verdict.FALSIFIED


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


def test_name_with_a_newline_stays_one_line(varignon):
    # the name was written as it stood, so its second line was a statement;
    # then collapsed to `v point Z 9 9`, a header parse_dsl refuses.  Both
    # emitters refuse it, as pack does, before writing a line
    named = dataclasses.replace(varignon, info=dataclasses.replace(varignon.info, name="v\npoint Z 9 9"))
    for emit in (emit_dsl, emit_prover_input):
        with pytest.raises(CodecError) as exc:
            emit(named)
        assert [(v.code, v.path) for v in exc.value.violations] == [("BadName", "/information/name")]
        assert exc.value.violations == validate_problem(named)
    # a description or keyword with a newline is valid, and is written on one line
    info = dataclasses.replace(varignon.info, description="two\nlines", keywords=("a\nb",))
    text = emit_dsl(dataclasses.replace(varignon, info=info))
    assert text.splitlines()[1:3] == ["% description: two lines", "% keyword: a b"]
    assert parse_dsl(text).construction == varignon.construction


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
    (_PA + "prove {\n  conclude not_equal A Z\n}", DslUnresolvedId, 4, "id 'Z' does not resolve in the construction"),
    (_PA + "line l A B\nprove { conclude not_equal A l }", DslSyntaxError, 4, "'l' is a line, predicates take points"),
    # the conjecture's first fault in the model's order, an id fault or not
    (_PA + "prove {\n  conclude segment_ratio A B A B -3\n  conclude not_equal A Z\n}", DslSyntaxError, 4, "segment ratio -3.0 must be finite and >= 0"),
    ("% description: no name\npoint A 0 0", DslSyntaxError, 1, "header needs a '% name:' line"),
    # what the model refuses in a parsed problem, at the line it comes from
    ("% name: bad name!\npoint A 0 0", DslSyntaxError, 1, "invalid problem name 'bad name!'"),
    ("\n% name:\npoint A 0 0", DslSyntaxError, 2, "problem name is required"),
    ("% name: a\n% keyword: k\n% keyword:\npoint A 0 0", DslSyntaxError, 3, "keyword is empty"),
    ("% name: a\n% keyword: k\n% keyword: j\n% keyword:  k\npoint A 0 0", DslSyntaxError, 4, "duplicate keyword 'k'"),
    (_PA + "prove {\n  conclude not_equal A B\n  conclude segment_ratio A B A B -2\n}", DslSyntaxError, 5, "segment ratio -2.0 must be finite and >= 0"),
    (_PA + f"prove {{ conclude equal\n{_HALF_CAP_TERM}\n{_HALF_CAP_TERM} }}", DslSyntaxError, 3, f"<conjecture> would be written with 131073 elements, more than {MAX_XML_ELEMENTS}"),
    ("".join(f"point P{i} {i} 0\n" for i in range(50_000)), DslSyntaxError, 49_999, f"construction written with more than {MAX_XML_ELEMENTS} elements"),
]


@pytest.mark.parametrize("source, error, line, fragment", _DIAGNOSTICS, ids=[row[3] for row in _DIAGNOSTICS])
def test_diagnostics_name_their_line(source, error, line, fragment):
    with pytest.raises(error) as exc:
        parse_dsl(source)
    assert type(exc.value) is error and exc.value.line == line
    assert str(exc.value).startswith(f"line {line}: ") and fragment in str(exc.value)


def test_most_statements_the_model_accepts_parse():
    # 49,998 statements are written with 99,999 elements; the next one is refused above
    problem = parse_dsl("".join(f"point P{i} {i} 0\n" for i in range(49_998)))
    assert validate_problem(problem) == []


def _dsl_sources(corpus) -> dict[str, str]:
    """The fixture programs, the canonical text of each corpus problem the
    DSL covers, the demos' programs, and generated ones at N=10 and N=100."""

    sources = {name: source for name, source in vars(conftest).items() if name.endswith("_DSL")}
    sources |= {f"emitted_{name}": emit_dsl(p) for name, p in corpus.items() if not p.construction.has_opaque()}
    sources |= {path.name: path.read_text() for path in (Path(__file__).parents[1] / "demos").glob("*.gcl")}
    generate_dsl = conftest.bench_workloads().generate_dsl
    for n in (10, 100):
        sources |= {f"generated_{n}_{seed}": generate_dsl(random.Random(seed), n, f"g{seed}") for seed in range(3)}
    return sources


def test_every_source_parses_to_a_valid_problem(corpus):
    # each source is a valid program, so no refusal of the parser may catch
    # it, and what it builds pack accepts
    sources = _dsl_sources(corpus)
    assert "varignon.gcl" in sources and len(sources) > 20
    for name, source in sources.items():
        assert validate_problem(parse_dsl(source)) == [], name


def test_prover_input_refuses_an_opaque_step(corpus):
    p = corpus["opaque_circumcircle"]
    p = dataclasses.replace(p, conjecture=Conjecture(hypothesis=(), ndg=(), conclusion=(Midpoint("A", "B", "C"),)))
    with pytest.raises(OpaqueConstraintError, match="constraint k is opaque"):
        emit_prover_input(p)


# The fixture programs, and byte strings that the lexer and the statements
# give a meaning to, beside random bytes
_SOURCES = [source for name, source in vars(conftest).items() if name.endswith("_DSL")]
_INSERTS = st.binary(max_size=3) | st.sampled_from([b"{", b"}", b";", b"%", b"\n", b"prove ", b"conclude ", b"plus ", b"1e999", b" A", b" -1", b"% keyword: "])


@settings(max_examples=300, deadline=None, derandomize=True)
@given(source=st.sampled_from(_SOURCES), edits=st.lists(st.tuples(st.integers(0, 1000), st.integers(0, 2), _INSERTS), min_size=1, max_size=4))
def test_mutated_programs_raise_only_library_errors(source, edits):
    # each edit replaces 0 to 2 bytes at a position with an insert; what
    # parses is a problem the model accepts
    data = bytearray(source.encode())
    for position, cut, insert in edits:
        start = position % (len(data) + 1)
        data[start : start + cut] = insert
    try:
        problem = parse_dsl(data.decode("utf-8", "replace"))
    except DslError:
        return
    assert validate_problem(problem) == []
