"""The conjecture vocabulary is declared once, in ``model.PREDICATES``; every
notation (conjecture.xml, the DSL, the prover input, the documented
grammars) must read and write exactly that table.  The proofInfo.xml layout
is declared once too, in ``model.PROOF_INFO_SECTIONS``, and its schema must
list the same children.  So is the construction vocabulary, in
``model.ELEMENT_COORDS`` and ``model.CONSTRAINT_SIGNATURES``: the intergeo.xml
schema, the DSL grammar, the numeric step table and the numeric scene objects
must agree with them, and the violation catalogue must list exactly
``model.VIOLATION_CODES``.  The container layout table lists exactly the
directories that ``container`` knows."""

from __future__ import annotations

import re
import typing
from pathlib import Path

import pytest

from i2gatp.container import _KNOWN_TOP_DIRS, MANDATORY_DIRS
from i2gatp.dsl import _STATEMENT_KEYWORDS, emit_prover_input, parse_dsl, predicate_text
from i2gatp.model import (
    CONSTRAINT_SIGNATURES,
    ELEMENT_COORDS,
    PREDICATES,
    PROOF_INFO_SECTIONS,
    VIOLATION_CODES,
    Conjecture,
    Const,
    ConstraintKind,
    Equal,
    GeoKind,
    Mult,
    Plus,
    Predicate,
    SegmentLength,
    SegmentRatio,
)
from i2gatp.numeric import (
    _STEPS,
    SceneCircle,
    SceneLine,
    SceneObject,
    ScenePoint,
    instantiate,
    sample_free_points,
)
from i2gatp.xml_codec import parse_conjecture, serialize_conjecture

DOCS = Path(__file__).resolve().parent.parent / "docs"

# five points in general position: no three collinear, no two segments
# parallel, perpendicular or of equal length
_POINTS = "point A 0 0\npoint B 5 1\npoint C 2 7\npoint D -3 4\npoint E 9 -2\n"


def _sample(cls: type, count: int | None) -> Predicate:
    if cls is Equal:
        return Equal(
            Plus(SegmentLength("A", "B"), Const(1.5)),
            Mult(Const(-0.25), SegmentLength("C", "D")),
        )
    ids = ("A", "B", "C", "D", "E")[:count]
    return SegmentRatio(*ids, ratio=2.5) if cls is SegmentRatio else cls(*ids)


@pytest.mark.parametrize("name", list(PREDICATES))
def test_each_predicate_round_trips_through_every_notation(name):
    pred = _sample(*PREDICATES[name])
    conjecture = Conjecture(hypothesis=(), ndg=(), conclusion=(pred,))
    assert parse_conjecture(serialize_conjecture(conjecture)) == conjecture
    text = predicate_text(pred)
    assert text.split()[0] == name
    problem = parse_dsl(f"{_POINTS}prove {{ conclude {text} }}\n")
    assert problem.conjecture == conjecture
    assert emit_prover_input(problem).splitlines()[-2:] == ["conclude:", text]


def test_every_predicate_class_is_in_the_table():
    assert set(Predicate.__subclasses__()) == {cls for cls, _count in PREDICATES.values()}


def _expected_shapes() -> dict[str, str]:
    """name -> 'terms', or the number of point ids with '+ratio' for a ratio."""

    shapes = {}
    for name, (cls, count) in PREDICATES.items():
        shapes[name] = "terms" if count is None else f"{count}{'+ratio' if cls is SegmentRatio else ''}"
    return shapes


def test_schema_lists_the_table():
    rnc = (DOCS / "schema" / "conjecture.rnc").read_text()
    block = rnc.split("\npredicate =", 1)[1].split("\nterm =", 1)[0]
    shapes = {}
    for alternative in block.split("\n  |"):
        name = re.search(r"element (\w+)", alternative).group(1)
        if "term, term" in alternative:
            shapes[name] = "terms"
        else:
            count = re.search(r"points-(\d)", alternative).group(1)
            shapes[name] = count + ("+ratio" if "attribute ratio" in alternative else "")
    assert shapes == _expected_shapes()


def test_dsl_grammar_lists_the_table():
    grammar = (DOCS / "dsl.md").read_text()
    block = re.search(r"\npredicate\s+=(.*?);", grammar, re.S).group(1)
    shapes = {}
    for alternative in block.split("|"):
        name, *args = alternative.split()
        name = name.strip('"')
        if args == ["term", "term"]:
            shapes[name] = "terms"
        else:
            ratio = args[-1] == "number"
            count = len(args) - ratio
            assert args[:count] == ["id"] * count
            shapes[name] = f"{count}{'+ratio' if ratio else ''}"
    assert shapes == _expected_shapes()


def test_proof_info_schema_lists_the_table():
    rnc = (DOCS / "schema" / "proof_info.rnc").read_text()
    # rnc type -> (table type, whether 0 is allowed); None where it does not apply
    types = {
        "non-negative-double": (float, True),
        "positive-double": (float, False),
        "xsd:nonNegativeInteger": (int, True),
        "xsd:positiveInteger": (int, False),
        "text": (str, None),
    }
    for section, (_record, _code, zero_ok, children) in PROOF_INFO_SECTIONS.items():
        block = re.search(rf"element {section} {{\n(.*?)\n  }}\?", rnc, re.S).group(1)
        listed = [(tag, *types[kind]) for tag, kind in re.findall(r"element (\w+) {\s*(\S+)\s*}\?", block)]
        expected = [(tag, as_type, None if as_type is str else zero_ok) for tag, _fld, as_type in children]
        assert listed == expected, section


def test_intergeo_schema_lists_the_element_coordinates():
    rnc = (DOCS / "schema" / "intergeo.rnc").read_text()
    kinds = re.search(r"element elements { \((.*?)\)\* }", rnc).group(1).split(" | ")
    attrs = {}
    for kind in kinds:
        body = re.search(rf"\n{kind} = element {kind} {{\n(.*?)\n}}", rnc, re.S).group(1)
        attrs[kind] = tuple(re.findall(r"attribute (\w+) { xsd:double }", body))
    assert attrs == {kind.value: coords for kind, coords in ELEMENT_COORDS.items()}


def test_intergeo_schema_lists_the_signatures():
    rnc = (DOCS / "schema" / "intergeo.rnc").read_text()
    block = rnc.split("\nconstraint =", 1)[1].split("\n\n", 1)[0]
    listed = {}
    for alternative in block.split("\n  |"):
        match = re.search(r"element (\w+) { out(.*) }", alternative)
        if match is None:
            assert alternative.strip() == "opaque-constraint"
            continue
        ids = re.search(r"ids-(\d)", match.group(2))
        param = re.search(r"attribute (\w+) { xsd:double }", match.group(2))
        listed[match.group(1)] = (int(ids.group(1)) if ids else 0, param and param.group(1))
    assert listed == {
        kind.value: (len(ins), param) for kind, (ins, _out, param) in CONSTRAINT_SIGNATURES.items()
    }
    defined = {int(n): members.split(", ") for n, members in re.findall(r"\nids-(\d) = list { (.*?) }", rnc)}
    assert defined == {n: ["identifier"] * n for n, _param in listed.values() if n}


def test_intergeo_signature_comment_lists_the_signatures():
    rnc = (DOCS / "schema" / "intergeo.rnc").read_text()
    block = rnc.split("# Constraint signatures (inputs -> output):\n", 1)[1].split("\n#\n", 1)[0]
    listed = {}
    for line in block.splitlines():
        name, param, ins, out = re.fullmatch(r"#   (\w+)(?: \[(\w+)\])?\s+\(([\w ]*)\)\s+-> (\w+)", line).groups()
        listed[name] = (tuple(ins.split()), out, param)
    assert listed == {
        kind.value: (tuple(k.value for k in ins), out.value, param)
        for kind, (ins, out, param) in CONSTRAINT_SIGNATURES.items()
    }


def test_dsl_grammar_lists_the_statements():
    grammar = (DOCS / "dsl.md").read_text()
    productions = re.search(r"\nstatement\s+=(.*?);", grammar, re.S).group(1).split("|")
    listed = {}
    for production in (p.strip() for p in productions):
        if production == "prove-block":
            continue
        keyword, args = re.search(rf"\n{production}\s+=\s+\"(\w+)\"\s+([^;]*);", grammar).groups()
        listed[keyword] = args.split()
    expected = {}
    for kind, keyword in _STATEMENT_KEYWORDS.items():
        ins, out, param = CONSTRAINT_SIGNATURES[kind]
        # a free point's numbers are its coordinates; another step's number
        # is its stored parameter
        numbers = len(ELEMENT_COORDS[out]) if kind is ConstraintKind.FREE_POINT else int(param is not None)
        expected[keyword] = ["id"] * (1 + len(ins)) + ["number"] * numbers
    assert listed == expected
    assert set(_STATEMENT_KEYWORDS) == set(CONSTRAINT_SIGNATURES)


_SCENE_CLASSES = {GeoKind.POINT: ScenePoint, GeoKind.LINE: SceneLine, GeoKind.CIRCLE: SceneCircle}


def test_scene_objects_carry_the_element_coordinates():
    assert set(typing.get_args(SceneObject)) == set(_SCENE_CLASSES.values())
    for kind, coords in ELEMENT_COORDS.items():
        assert _SCENE_CLASSES[kind]._fields == coords


def test_numeric_steps_follow_the_signatures():
    assert set(_STEPS) == set(CONSTRAINT_SIGNATURES) - {ConstraintKind.OPAQUE}
    # one statement of each kind; each output is the scene class of its kind
    problem = parse_dsl(
        "point A 0 0\npoint B 4 0\npoint C 1 3\nline l A B\nline m A C\nintersec P l m\n"
        "midpoint M B C\ncircle k A B\nperp p l C\nparallel q l C\nonline X l 0.5\noncircle Y k 1\n"
    )
    constraints = problem.construction.constraints
    assert {c.kind for c in constraints} == set(_STEPS)
    scene = instantiate(problem.construction, sample_free_points(problem.construction, 1, 10.0))
    for c in constraints:
        assert type(scene[c.output]) is _SCENE_CLASSES[CONSTRAINT_SIGNATURES[c.kind][1]], c.kind


def test_violation_catalogue_lists_the_codes():
    doc = (DOCS / "violations.md").read_text()
    listed = [code for code in re.findall(r"^\| (\w+)\s+\|", doc, re.M) if code != "code"]
    assert sorted(listed) == sorted(VIOLATION_CODES)


def test_container_layout_table_lists_the_directories():
    layout = (DOCS / "container.md").read_text().split("\n## Layout\n", 1)[1].split("\n\n", 1)[0]
    rows = re.findall(r"^\| `([^`]*)`[^|]*\| (\w+)\s*\|$", layout, re.M)
    top_dirs = {entry.split("/", 1)[0] + "/" for entry, _presence in rows}
    assert top_dirs == set(_KNOWN_TOP_DIRS)
    assert {entry for entry, presence in rows if entry in top_dirs and presence == "mandatory"} == set(MANDATORY_DIRS)
