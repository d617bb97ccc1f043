"""The conjecture vocabulary is declared once, in ``model.PREDICATES``; every
notation (conjecture.xml, the DSL, the prover input, the documented
grammars) must read and write exactly that table.  The proofInfo.xml layout
is declared once too, in ``model.PROOF_INFO_SECTIONS``, and its schema must
list the same children."""

from __future__ import annotations

import re
from pathlib import Path

import pytest

from i2gatp.dsl import emit_prover_input, parse_dsl, predicate_text
from i2gatp.model import (
    PREDICATES,
    PROOF_INFO_SECTIONS,
    Conjecture,
    Const,
    Equal,
    Mult,
    Plus,
    Predicate,
    SegmentLength,
    SegmentRatio,
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
