"""The conjecture vocabulary is declared once, in ``model.PREDICATES``; every
notation (conjecture.xml, the DSL, the prover input, the documented
grammars) must read and write exactly that table.  The proofInfo.xml layout
is declared once too, in ``model.PROOF_INFO_SECTIONS``, and its schema must
list the same children.  So is the construction vocabulary, in
``model.ELEMENT_COORDS`` and ``model.CONSTRAINT_SIGNATURES``: the intergeo.xml
schema, the DSL grammar, the numeric step table and the numeric scene objects
must agree with them, and the violation catalogue must list exactly
``model.VIOLATION_CODES``, each of which some minimal case produces.  The
container layout table lists exactly the directories that ``container``
knows."""

from __future__ import annotations

import dataclasses
import io
import math
import re
import struct
import typing
import zipfile
import zlib
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from i2gatp import container
from i2gatp.container import _KNOWN_TOP_DIRS, MANDATORY_DIRS, strip_to_i2g, validate_container, validate_entries
from i2gatp.dsl import _STATEMENT_KEYWORDS, emit_dsl, emit_prover_input, parse_dsl, predicate_text
from i2gatp.errors import ContainerError
from i2gatp.model import (
    CONSTRAINT_SIGNATURES,
    ELEMENT_COORDS,
    MAX_TERM_DEPTH,
    MAX_XML_DEPTH,
    MAX_XML_ELEMENTS,
    PREDICATES,
    PROOF_INFO_SECTIONS,
    VIOLATION_CODES,
    BibEntry,
    Conjecture,
    Const,
    Constraint,
    ConstraintKind,
    Construction,
    ElementInstance,
    Equal,
    GeoKind,
    Mult,
    Platform,
    Plus,
    Predicate,
    ProblemInfo,
    ProofAttempt,
    ProofLimits,
    ProofMeasures,
    ProofStatus,
    SegmentLength,
    SegmentRatio,
    Term,
    Violation,
    validate_attempt,
    validate_conjecture,
    validate_construction,
    validate_info,
    validate_problem,
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
from i2gatp.xml_codec import (
    DocumentKind,
    parse_conjecture,
    serialize_conjecture,
    serialize_proof_info,
    validate_document,
)

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


_leaves = st.one_of(
    st.builds(Const, st.floats(allow_nan=False, allow_infinity=False)),
    st.builds(SegmentLength, st.sampled_from("ABCDE"), st.sampled_from("ABCDE")),
)


@st.composite
def _terms(draw) -> Term:
    """A term of at most MAX_TERM_DEPTH levels: a spine of plus and mult,
    nested left or right, over a few drawn leaves.  One byte per level
    keeps a term of the full depth cheap to draw."""

    leaves = draw(st.lists(_leaves, min_size=1, max_size=4))
    term = leaves[0]
    spine = draw(st.integers(0, MAX_TERM_DEPTH - 1))
    for b in draw(st.binary(min_size=spine, max_size=spine)):
        cls, side = (Plus, Mult)[b & 1], leaves[(b >> 2) % len(leaves)]
        term = cls(side, term) if b & 2 else cls(term, side)
    return term


def _levels(t: Term) -> int:
    return 1 + max(_levels(t.left), _levels(t.right)) if isinstance(t, (Plus, Mult)) else 1


@settings(derandomize=True, database=None, max_examples=100, deadline=None)
@given(_terms(), _terms())
def test_terms_keep_their_depth_bound_and_round_trip(left, right):
    assert left.depth == _levels(left) <= MAX_TERM_DEPTH
    assert right.depth == _levels(right) <= MAX_TERM_DEPTH
    conjecture = Conjecture(hypothesis=(), ndg=(), conclusion=(Equal(left, right),))
    assert parse_conjecture(serialize_conjecture(conjecture)) == conjecture
    problem = dataclasses.replace(parse_dsl(_POINTS), conjecture=conjecture)
    assert parse_dsl(emit_dsl(problem)).conjecture == conjecture


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


_MIB = 1 << 20
# (document, the phrase that quotes a limit, its unit, the constant)
_QUOTED_LIMITS = {
    "dsl-MAX_TERM_DEPTH": ("dsl.md", r"nests at most ([\d,]+) levels", 1, MAX_TERM_DEPTH),
    "dsl-MAX_XML_ELEMENTS": ("dsl.md", r"([\d,]+)\s+(?:nodes|elements)\b", 1, MAX_XML_ELEMENTS),
    "violations-MAX_TERM_DEPTH": ("violations.md", r"nested deeper than ([\d,]+) levels", 1, MAX_TERM_DEPTH),
    "container-_MAX_NAME_BYTES": ("container.md", r"a path is at most ([\d,]+) bytes", 1, container._MAX_NAME_BYTES),
    "container-_MAX_ENTRIES": ("container.md", r"at most ([\d,]+) entries", 1, container._MAX_ENTRIES),
    "container-_MAX_ENTRY_SIZE": ("container.md", r"a file holds at most ([\d,]+) MiB", _MIB, container._MAX_ENTRY_SIZE),
    "container-_MAX_TOTAL_SIZE": ("container.md", r"all files together at most ([\d,]+) MiB", _MIB, container._MAX_TOTAL_SIZE),
    "violations-_MAX_NAME_BYTES": ("violations.md", r"longer than ([\d,]+) bytes", 1, container._MAX_NAME_BYTES),
    "violations-_MAX_ENTRIES": ("violations.md", r"more than ([\d,]+) entries", 1, container._MAX_ENTRIES),
    "violations-_MAX_ENTRY_SIZE": ("violations.md", r"a file declaring more than ([\d,]+) MiB", _MIB, container._MAX_ENTRY_SIZE),
    "violations-_MAX_TOTAL_SIZE": ("violations.md", r"files declaring more than ([\d,]+) MiB in all", _MIB, container._MAX_TOTAL_SIZE),
    "violations-MAX_XML_DEPTH": ("violations.md", r"elements more than ([\d,]+) levels deep", 1, MAX_XML_DEPTH),
    "violations-MAX_XML_ELEMENTS": ("violations.md", r"more than ([\d,]+) elements\b", 1, MAX_XML_ELEMENTS),
}


@pytest.mark.parametrize("doc, phrase, unit, limit", _QUOTED_LIMITS.values(), ids=_QUOTED_LIMITS.keys())
def test_docs_quote_each_limit_as_its_constant(doc, phrase, unit, limit):
    quoted = re.findall(phrase, (DOCS / doc).read_text())
    assert quoted and {int(q.replace(",", "")) * unit for q in quoted} == {limit}


# ---------------------------------------------------------------------------
# Every violation code is produced: a minimal document, value or archive per
# code, and one per site that reports a code in more than one way

_K = "<construction><elements>{}</elements><constraints>{}</constraints></construction>"
_A = '<point id="A" x="0" y="0"/>'
_FA = '<free_point out="A"/>'
_AB = _A + '<point id="B" x="1" y="0"/>'
_FAB = _FA + '<free_point out="B"/>'
_ABL = _AB + '<line a="0" b="1" c="0" id="l"/>'
_FABL = _FAB + '<line_through_two_points out="l">A B</line_through_two_points>'
_CONSTRUCTION = _K.format(_ABL, _FABL).encode()


def _doc(kind: DocumentKind, text: str):
    return lambda: validate_document(kind, text.encode())


def _info(body: str):
    return _doc(DocumentKind.INFORMATION, f"<information>{body}</information>")


def _construction(elements: str, constraints: str):
    return _doc(DocumentKind.CONSTRUCTION, _K.format(elements, constraints))


def _conclusion(body: str):
    # read in a container, so that its ids resolve against the construction
    return _zip(*_LAYOUT, ("conjecture/conjecture.xml", f"<conjecture><conclusion>{body}</conclusion></conjecture>".encode()))


def _proof_info(body: str):
    return _doc(DocumentKind.PROOF_INFO, f"<proof_info><prover>P</prover><version>1</version><method>m</method>{body}</proof_info>")


def _steps(*constraints: Constraint, elements=(ElementInstance("A", GeoKind.POINT, (0.0, 0.0)),), display=b""):
    return lambda: validate_construction(Construction(elements, (Constraint("A", ConstraintKind.FREE_POINT), *constraints), display))


def _attempt(**fields):
    return lambda: validate_attempt(ProofAttempt("P", "1", "m", ProofStatus.PROVED, **fields))


def _problem(**fields):
    return lambda: validate_problem(dataclasses.replace(parse_dsl("point A 0 0\n"), **fields))


def _zip_bytes(*entries: tuple[str, bytes | None]) -> bytes:
    buf = io.BytesIO()
    with zipfile.ZipFile(buf, "w") as zf:
        for name, data in entries:
            zf.writestr(name, data or b"")
    return buf.getvalue()


def _zip(*entries: tuple[str, bytes | None], i2g: bool = False):
    return lambda: validate_container(_zip_bytes(*entries), i2g)


_LAYOUT = (("information/", None), ("construction/intergeo.xml", _CONSTRUCTION), ("conjecture/", None), ("proofs/", None))


def _raised(call):
    def produce():
        try:
            call()
        except ContainerError as exc:
            return [Violation(exc.code, "/", str(exc))]
        return []

    return produce


def _garbled_local_name() -> bytes:
    """An archive whose local header flags its name as UTF-8 but holds bytes
    that do not decode; the central directory names a.txt."""

    fields = (0x800, 0, 0, 0x21, zlib.crc32(b"x"), 1, 1, 5)
    local = struct.pack("<4s2B4HL2L2H", b"PK\x03\x04", 20, 0, *fields, 0) + b"\xff\xfe.tx" + b"x"
    central = struct.pack("<4s4B4HL2L5H2L", b"PK\x01\x02", 20, 3, 20, 0, *fields, 0, 0, 0, 0, 0o644 << 16, 0) + b"a.txt"
    return local + central + struct.pack("<4s4H2LH", b"PK\x05\x06", 0, 0, 1, 1, len(central), len(local), 0)


_PRODUCERS = [
    ("MalformedXml", "document", _doc(DocumentKind.INFORMATION, "<information><name>x</name>")),
    ("MalformedXml", "bibentry_payload", lambda: validate_info(ProblemInfo("x", bibrefs=(BibEntry("r", b"<a>"),)))),
    ("MalformedXml", "display_payload", _steps(display=b"<display>")),
    ("MalformedXml", "opaque_payload", _steps(Constraint("B", ConstraintKind.OPAQUE, opaque_tag="t", opaque_payload=b"<t"))),
    ("MalformedXml", "opaque_payload_absent", _steps(Constraint("B", ConstraintKind.OPAQUE, opaque_tag="t", opaque_payload=b""))),
    ("MalformedXml", "depth_cap", _doc(DocumentKind.INFORMATION, "<a>" * (MAX_XML_DEPTH + 1) + "</a>" * (MAX_XML_DEPTH + 1))),
    ("MalformedXml", "element_cap", _doc(DocumentKind.INFORMATION, "<a>" + "<b/>" * MAX_XML_ELEMENTS + "</a>")),
    ("MalformedXml", "written_element_cap", lambda: validate_info(ProblemInfo("x", keywords=tuple(map(str, range(MAX_XML_ELEMENTS)))))),
    ("MalformedXml", "bytes_outside_payload_root", lambda: validate_info(ProblemInfo("x", statement=b"<math/><!-- c -->"))),
    ("MalformedXml", "unreadable_proof_info", _zip(*_LAYOUT, ("proofs/proofP1m/proofInfo.xml", b"<proof_info>"))),
    ("MissingName", "information", _info("<description>d</description>")),
    ("UnknownTag", "information_child", _info("<name>x</name><colour/>")),
    ("UnknownTag", "bibrefs_child", _info('<name>x</name><bibrefs><book id="r"/></bibrefs>')),
    ("UnknownTag", "keywords_child", _info("<name>x</name><keywords><tag>a</tag></keywords>")),
    ("UnknownTag", "display_root", _steps(display=b"<foo/>")),
    ("UnknownTag", "opaque_root", _steps(Constraint("B", ConstraintKind.OPAQUE, opaque_tag="t", opaque_payload=b'<u out="B"/>'))),
    ("UnknownTag", "opaque_supported_step", _steps(Constraint("B", ConstraintKind.OPAQUE, opaque_tag="free_point", opaque_payload=b'<free_point out="B"/>'))),
    ("UnknownPredicate", "predicate", _conclusion("<tangent>A B</tangent>")),
    ("UnknownPredicate", "term", _conclusion('<equal><minus/><const value="1"/></equal>')),
    ("ArityError", "missing_coordinate", _construction('<point id="A" x="0"/>', _FA)),
    ("ArityError", "element_coordinates", _steps(elements=(ElementInstance("A", GeoKind.POINT, (0.0,)),))),
    ("ArityError", "term_operands", _conclusion('<equal><plus><const value="1"/></plus><const value="1"/></equal>')),
    ("MissingConclusion", "conjecture", _conclusion("")),
    ("MissingElementsPart", "construction", _doc(DocumentKind.CONSTRUCTION, "<construction><constraints/></construction>")),
    ("DanglingReference", "input", _construction(_ABL, _FAB + '<line_through_two_points out="l">A Z</line_through_two_points>')),
    ("ForwardReference", "input", _construction(_ABL, _FA + '<line_through_two_points out="l">A B</line_through_two_points>' + '<free_point out="B"/>')),
    ("DuplicateId", "element", _construction(_A + _A, _FA)),
    ("DuplicateOutput", "constraint", _construction(_A, _FA + _FA)),
    ("MissingElement", "constraint", _construction(_A, _FAB)),
    ("UnconstrainedElement", "element", _construction(_AB, _FA)),
    ("UnresolvedId", "conjecture", _conclusion("<not_equal>A Z</not_equal>")),
    ("KindMismatch", "conjecture", _conclusion("<not_equal>A l</not_equal>")),
    ("MissingParameter", "point_on_line", _construction(_ABL + '<point id="P" x="0" y="0"/>', _FABL + '<point_on_line out="P">l</point_on_line>')),
    ("BadNumber", "attribute", _construction('<point id="A" x="zero" y="0"/>', _FA)),
    ("NonFinite", "coordinate", _steps(elements=(ElementInstance("A", GeoKind.POINT, (math.inf, 0.0)),))),
    ("NonFinite", "parameter", _steps(
        Constraint("l", ConstraintKind.LINE_THROUGH_TWO_POINTS, ("A", "A")),
        Constraint("P", ConstraintKind.POINT_ON_LINE, ("l",), parameter=math.nan),
        elements=(ElementInstance("A", GeoKind.POINT, (0.0, 0.0)), ElementInstance("l", GeoKind.LINE, (0.0, 1.0, 0.0)),
                  ElementInstance("P", GeoKind.POINT, (0.0, 0.0))),
    )),
    ("NonFinite", "constant", lambda: validate_conjecture(Conjecture((), (), (Equal(Const(math.inf), Const(1.0)),)))),
    ("ZeroLine", "line", _construction(_AB + '<line a="0" b="0" c="0" id="l"/>', _FABL)),
    ("NegativeRadius", "circle", _construction(_AB + '<circle cx="0" cy="0" id="k" r="-1"/>', _FAB + '<circle_by_center_and_point out="k">A B</circle_by_center_and_point>')),
    ("BadRatio", "negative", _conclusion('<segment_ratio ratio="-1">A B A B</segment_ratio>')),
    ("BadRatio", "missing", _conclusion("<segment_ratio>A B A B</segment_ratio>")),
    ("BadId", "element", _construction('<point id="1A" x="0" y="0"/>', '<free_point out="1A"/>')),
    ("BadId", "bibentry", lambda: validate_info(ProblemInfo("x", bibrefs=(BibEntry("1 r", b""),)))),
    ("BadId", "input", _steps(Constraint("B", ConstraintKind.MIDPOINT_OF_TWO_POINTS, ("A", "1 A")))),
    ("BadId", "opaque_out", _steps(Constraint("B", ConstraintKind.OPAQUE, opaque_tag="t", opaque_payload=b'<t out="C"/>'))),
    ("BadName", "problem", _info("<name>a b</name>")),
    ("EmptyKeyword", "keyword", _info("<name>x</name><keywords><keyword> </keyword></keywords>")),
    ("DuplicateKeyword", "keyword", _info("<name>x</name><keywords><keyword>a</keyword><keyword>a</keyword></keywords>")),
    ("UnknownStatus", "status", _proof_info("<status>maybe</status>")),
    ("NegativeMeasure", "measure", _attempt(measures=ProofMeasures(proof_steps=-1))),
    ("NegativeLimit", "limit", _attempt(limits=ProofLimits(time_limit_seconds=-1.0))),
    ("NonPositivePlatform", "platform", _attempt(platform=Platform(ram_mb=0))),
    ("DuplicateAttempt", "problem", _problem(proofs=(ProofAttempt("P", "1", "m", ProofStatus.PROVED),) * 2)),
    ("BadPath", "output", _attempt(outputs=(("../x", b""),))),
    ("BadPath", "carried_file", _problem(resources=(("/x", b""),))),
    ("BadPath", "entry", _zip(*_LAYOUT, ("../x", b""))),
    ("BadPath", "no_utf8_form", _problem(resources=(("resources/\udc80", b""),))),
    ("DuplicateEntry", "output", _attempt(outputs=(("x", b""), ("x", b"")))),
    ("DuplicateEntry", "carried_file", _problem(resources=(("resources/x", b""), ("resources/x", b"")))),
    ("DuplicateEntry", "entry_list", lambda: validate_entries([*_LAYOUT, ("a", b""), ("a/b", b"")])),
    ("UnknownEntry", "loose_file", _zip(*_LAYOUT, ("x.txt", b""))),
    ("UnexpectedEntry", "carried_file", _problem(metadata=(("resources/x", b""),))),
    ("UnexpectedEntry", "i2g", _zip(("intergeo.xml", _CONSTRUCTION), ("proofs/", None), i2g=True)),
    ("MissingIntergeo", "container", _zip(*_LAYOUT[:1])),
    ("MissingIntergeo", "strip", _raised(lambda: strip_to_i2g(_zip_bytes(("resources/x", b""))))),
    ("MissingMandatoryDir", "container", _zip(*_LAYOUT[1:])),
    ("BadProofDirName", "directory", _zip(*_LAYOUT, ("proofs/attempt/x", b""))),
    ("DirNameMismatch", "directory", _zip(*_LAYOUT, ("proofs/proofQ1m/proofInfo.xml", serialize_proof_info(ProofAttempt("P", "1", "m", ProofStatus.PROVED))))),
    ("MalformedZip", "archive", lambda: validate_container(b"not a zip")),
    ("MalformedZip", "local_name_not_utf8", lambda: validate_container(_garbled_local_name())),
]  # fmt: skip


def test_every_violation_code_has_a_producer():
    assert {code for code, _site, _produce in _PRODUCERS} == VIOLATION_CODES


@pytest.mark.parametrize("code, produce", [(code, produce) for code, _site, produce in _PRODUCERS],
                         ids=[f"{code}-{site}" for code, site, _produce in _PRODUCERS])  # fmt: skip
def test_producer_yields_its_code(code, produce):
    assert code in [v.code for v in produce()]
