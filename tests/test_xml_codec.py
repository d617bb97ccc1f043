"""XML codecs: parsing, canonical serialization, violation reporting."""

from __future__ import annotations

import dataclasses
import random
import time
import tracemalloc
import xml.parsers.expat
from itertools import cycle
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from i2gatp import xml_codec
from i2gatp.container import (
    CONJECTURE_PATH,
    INFORMATION_PATH,
    INTERGEO_PATH,
    add_proof_attempt,
    entries_from_problem,
    pack,
    read_container_entries,
    strip_to_i2g,
    unpack,
    validate_container,
)
from i2gatp.dsl import parse_dsl
from i2gatp.errors import CodecError, ContainerError, DslSyntaxError, I2gatpError
from i2gatp.model import (
    CONSTRAINT_SIGNATURES,
    ELEMENT_COORDS,
    PREDICATES,
    PROOF_INFO_SECTIONS,
    BibEntry,
    Collinear,
    Conjecture,
    Const,
    Constraint,
    ConstraintKind,
    Construction,
    ElementInstance,
    Equal,
    MAX_TERM_DEPTH,
    MAX_XML_DEPTH,
    MAX_XML_ELEMENTS,
    Midpoint,
    Mult,
    Parallel,
    Platform,
    Plus,
    Problem,
    ProblemInfo,
    ProofAttempt,
    ProofLimits,
    ProofMeasures,
    ProofStatus,
    SegmentLength,
    SegmentRatio,
    Violation,
    XML_READ_ERRORS,
    canonicalize_problem,
    validate_problem,
)
from i2gatp.xml_codec import (
    DocumentKind,
    _has_identity,
    _parse_raw,
    _raw,
    _read,
    _write_conjecture,
    _write_construction,
    _write_information,
    _write_proof_info,
    canonicalize,
    parse_conjecture,
    parse_construction,
    parse_information,
    parse_proof_info,
    serialize_conjecture,
    serialize_construction,
    serialize_information,
    validate_document,
)

from conftest import MULTI_BYTE_ENCODINGS, bench_workloads, build_corpus, declaring, with_entry
from oracles import (
    parse_raw_reference,
    read_construction_reference,
    write_conjecture_reference,
    write_construction_reference,
    write_information_reference,
    write_proof_info_reference,
)

KINDS_BY_PATH = {
    "information/information.xml": DocumentKind.INFORMATION,
    "construction/intergeo.xml": DocumentKind.CONSTRUCTION,
    "conjecture/conjecture.xml": DocumentKind.CONJECTURE,
}


def corpus_documents(corpus) -> list[tuple[str, DocumentKind, bytes]]:
    docs = []
    for name, problem in corpus.items():
        for path, data in entries_from_problem(problem):
            if data is None:
                continue
            if path in KINDS_BY_PATH:
                docs.append((f"{name}:{path}", KINDS_BY_PATH[path], data))
            elif path.endswith("/proofInfo.xml"):
                docs.append((f"{name}:{path}", DocumentKind.PROOF_INFO, data))
    return docs


# ---------------------------------------------------------------------------
# information.xml


def test_minimal_information_document():
    info = parse_information(b"<information><name>midpoint_thm</name></information>")
    assert info == ProblemInfo(name="midpoint_thm")


def test_name_is_the_only_required_field():
    with pytest.raises(CodecError) as exc:
        parse_information(b"<information><description>x</description></information>")
    assert exc.value.code == "MissingName"


def test_information_round_trip_preserves_payloads():
    doc = (
        b"<information>\n"
        b"  <name>full</name>\n"
        b"  <description>a &amp; b</description>\n"
        b"  <statement><math><mi>x</mi></math></statement>\n"
        b"  <bibrefs>\n"
        b'    <bibentry id="r1"><entry><author>anon</author></entry></bibentry>\n'
        b"  </bibrefs>\n"
        b"  <keywords>\n"
        b"    <keyword>alpha</keyword>\n"
        b"    <keyword>beta</keyword>\n"
        b"  </keywords>\n"
        b"</information>"
    )
    info = parse_information(doc)
    assert info.statement == b"<math><mi>x</mi></math>"
    assert info.bibrefs == (BibEntry("r1", b"<entry><author>anon</author></entry>"),)
    canonical = canonicalize(DocumentKind.INFORMATION, doc)
    assert parse_information(canonical) == info
    assert info.statement in canonical and info.bibrefs[0].payload in canonical


@pytest.mark.parametrize(
    "kind, parse, doc",
    [
        (DocumentKind.INFORMATION, parse_information, b"<information><name>x</name><mood>sunny</mood></information>"),
        (DocumentKind.PROOF_INFO, parse_proof_info,
         b"<proof_info><prover>P</prover><version>1</version><method>m</method><status>proved</status>"
         b"<limits><mood>sunny</mood></limits></proof_info>"),
    ],
    ids=["information", "proof_info"],
)
def test_unknown_child_tag_skipped_by_reader_reported_by_validate(kind, parse, doc):
    assert parse(doc) == parse(doc.replace(b"<mood>sunny</mood>", b""))
    assert [v.code for v in validate_document(kind, doc)] == ["UnknownTag"]


def test_skipping_unknown_children_compares_no_violations(monkeypatch):
    # the strangers were dropped from the refused list by a scan with ==,
    # 44,850 comparisons for 300 distinct ones
    strangers = b"".join(b"<x%d/>" % i for i in range(300))
    info = b"<information><name>x</name>" + strangers + b"</information>"
    proof = b"<proof_info><prover>P</prover><version>1</version><method>m</method><status>proved</status><limits>%s</limits></proof_info>"
    compared = []
    equal = Violation.__eq__
    monkeypatch.setattr(Violation, "__eq__", lambda v, other: compared.append(v) or equal(v, other))
    assert len(validate_document(DocumentKind.INFORMATION, info)) == 300
    assert parse_information(info) == ProblemInfo(name="x")
    assert parse_proof_info(proof % strangers) == parse_proof_info(proof % b"")
    assert len(compared) == 0


def test_unknown_child_tag_fails_conjecture_reader():
    doc = b"<conjecture><conclusion><collinear>A B C</collinear></conclusion><mood>sunny</mood></conjecture>"
    with pytest.raises(CodecError) as exc:
        parse_conjecture(doc)
    assert exc.value.code == "UnknownTag"


# ---------------------------------------------------------------------------
# conjecture.xml


def test_parse_simple_conclusion():
    conj = parse_conjecture(b"<conjecture><conclusion><collinear>A B C</collinear></conclusion></conjecture>")
    assert conj == Conjecture(hypothesis=(), ndg=(), conclusion=(Collinear("A", "B", "C"),))


def test_collinear_arity_error():
    with pytest.raises(CodecError) as exc:
        parse_conjecture(b"<conjecture><conclusion><collinear>A B</collinear></conclusion></conjecture>")
    assert exc.value.code == "ArityError"
    assert "got 2" in str(exc.value) and "3" in str(exc.value)


def test_varignon_conjecture_ast(corpus):
    data = dict(entries_from_problem(corpus["varignon"]))[
        "conjecture/conjecture.xml"
    ]
    conj = parse_conjecture(data)
    assert conj.hypothesis == (
        Midpoint("P", "A", "B"),
        Midpoint("Q", "B", "C"),
        Midpoint("R", "C", "D"),
        Midpoint("S", "D", "A"),
    )
    assert conj.conclusion == (Parallel("P", "Q", "S", "R"), Parallel("P", "S", "Q", "R"))


def test_empty_hypothesis_section_omitted():
    conj = Conjecture(hypothesis=(), ndg=(), conclusion=(Collinear("A", "B", "C"),))
    data = serialize_conjecture(conj)
    assert b"<hypothesis>" not in data and b"<ndg>" not in data


def test_unknown_predicate_rejected():
    with pytest.raises(CodecError) as exc:
        parse_conjecture(b"<conjecture><conclusion><cocyclic>A B C D</cocyclic></conclusion></conjecture>")
    assert exc.value.code == "UnknownPredicate"


def _nested_equal(depth: int) -> bytes:
    """A conjecture whose first conclusion's left term nests ``depth``
    levels, followed by a second conclusion."""

    term = "<plus>" * (depth - 1) + '<const value="1"/>' + '<const value="1"/></plus>' * (depth - 1)
    return (
        f'<conjecture><conclusion><equal>{term}<const value="{depth}"/></equal>'
        "<collinear>A B C</collinear></conclusion></conjecture>"
    ).encode()


def test_term_at_the_depth_limit_reads():
    doc = _nested_equal(MAX_TERM_DEPTH)
    assert validate_document(DocumentKind.CONJECTURE, doc) == []
    first, second = parse_conjecture(doc).conclusion
    assert isinstance(first, Equal) and first.right == Const(float(MAX_TERM_DEPTH))
    assert second == Collinear("A", "B", "C")


@pytest.mark.parametrize("depth,tag", [(MAX_TERM_DEPTH + 1, "const"), (5000, "plus")])
def test_term_beyond_the_depth_limit_is_one_arity_error(depth, tag):
    # reported at the first term past the limit, the left operand of the plus
    # at depth MAX_TERM_DEPTH; its predicate is dropped, the next one kept
    doc = _nested_equal(depth)
    path = "/conjecture/conclusion/equal[0]" + "/plus" * MAX_TERM_DEPTH + f"/{tag}"
    violations = validate_document(DocumentKind.CONJECTURE, doc)
    assert [(v.code, v.path, v.message) for v in violations] == [
        ("ArityError", path, f"term nested deeper than {MAX_TERM_DEPTH} levels")
    ]
    with pytest.raises(CodecError) as exc:
        parse_conjecture(doc)
    assert exc.value.code == "ArityError"


# ---------------------------------------------------------------------------
# intergeo.xml


def test_minimal_construction():
    doc = (
        b"<construction>"
        b'<elements><point id="A" x="1" y="2"/></elements>'
        b'<constraints><free_point out="A"/></constraints>'
        b"</construction>"
    )
    k = parse_construction(doc)
    assert len(k.elements) == 1 and len(k.constraints) == 1
    assert k.constraints[0].kind.value == "free_point"


def test_unknown_constraint_is_opaque_and_byte_stable():
    doc = (
        b"<construction>"
        b'<elements><point id="A" x="0" y="0"/><circle cx="1" cy="1" id="k" r="1"/></elements>'
        b'<constraints><free_point out="A"/>'
        b'<conic_through_five_points out="k">A   A\nA A A</conic_through_five_points>'
        b"</constraints></construction>"
    )
    k = parse_construction(doc)
    opaque = k.constraints[1]
    assert opaque.opaque_tag == "conic_through_five_points"
    assert opaque.opaque_payload == b'<conic_through_five_points out="k">A   A\nA A A</conic_through_five_points>'
    canonical = canonicalize(DocumentKind.CONSTRUCTION, doc)
    assert opaque.opaque_payload in canonical
    assert canonicalize(DocumentKind.CONSTRUCTION, canonical) == canonical


def test_opaque_payloads_of_empty_tags_and_quoted_brackets():
    doc = (
        b"<construction>"
        b'<elements><point id="A" x="0" y="0"/><point id="B" x="1" y="0"/></elements>'
        b'<constraints><free_point out="A"/><tangent_hint note="a > b" out="B"/></constraints>'
        b"<display><style color='x>y'/></display >"
        b"</construction>"
    )
    k = parse_construction(doc)
    assert k.constraints[1].opaque_payload == b'<tangent_hint note="a > b" out="B"/>'
    assert k.display == b"<display><style color='x>y'/></display >"
    info = parse_information(b'<information><name>x</name><statement/><bibrefs><bibentry id="r"/></bibrefs></information>')
    assert info.statement == b"" and info.bibrefs == (BibEntry("r", b""),)


def test_missing_elements_part():
    with pytest.raises(CodecError) as exc:
        parse_construction(b"<construction><constraints/></construction>")
    assert exc.value.code == "MissingElementsPart"


def test_duplicate_element_id():
    doc = (
        b"<construction><elements>"
        b'<point id="A" x="0" y="0"/><point id="A" x="1" y="1"/>'
        b'</elements><constraints><free_point out="A"/></constraints></construction>'
    )
    with pytest.raises(CodecError) as exc:
        parse_construction(doc)
    assert any(v.code == "DuplicateId" for v in exc.value.violations)


def test_dangling_reference():
    doc = (
        b"<construction>"
        b'<elements><point id="A" x="0" y="0"/><line a="1" b="0" c="0" id="l"/></elements>'
        b'<constraints><free_point out="A"/>'
        b'<line_through_two_points out="l">A Z</line_through_two_points></constraints>'
        b"</construction>"
    )
    with pytest.raises(CodecError) as exc:
        parse_construction(doc)
    assert any(v.code == "DanglingReference" for v in exc.value.violations)


# ---------------------------------------------------------------------------
# proofInfo.xml


def test_proof_info_parses_status_and_measures():
    doc = (
        b"<proof_info><prover>p</prover><version>1</version><method>m</method>"
        b"<status>proved</status><measures><CPU_time>0.12</CPU_time></measures></proof_info>"
    )
    a = parse_proof_info(doc)
    assert a.status is ProofStatus.PROVED
    assert a.measures.cpu_time_seconds == 0.12


def test_status_is_case_insensitive_and_szs_flavored():
    for text, status in ((b"Timeout", ProofStatus.TIMEOUT), (b"GaveUp", ProofStatus.GAVE_UP), (b"ResourceOut", ProofStatus.RESOURCE_OUT)):
        doc = (
            b"<proof_info><prover>p</prover><version>1</version><method>m</method>"
            b"<status>" + text + b"</status></proof_info>"
        )
        assert parse_proof_info(doc).status is status


def test_unknown_status_rejected():
    doc = (
        b"<proof_info><prover>p</prover><version>1</version><method>m</method>"
        b"<status>maybe</status></proof_info>"
    )
    with pytest.raises(CodecError) as exc:
        parse_proof_info(doc)
    assert exc.value.code == "UnknownStatus"


# tag -> (section, a value out of range, its code)
_OUT_OF_RANGE = {
    "elimination_steps": ("measures", "-3", "NegativeMeasure"),
    "CPU_time": ("measures", "-0.5", "NegativeMeasure"),
    "RAM": ("platform", "0", "NonPositivePlatform"),
    "clock_speed": ("platform", "0.0", "NonPositivePlatform"),
}


@pytest.mark.parametrize("tag", list(_OUT_OF_RANGE))
def test_negative_measure_rejected(tag):
    section, out_of_range, code = _OUT_OF_RANGE[tag]

    def doc(value: str) -> bytes:
        return (
            b"<proof_info><prover>p</prover><version>1</version><method>m</method><status>proved</status>"
            + f"<{section}><{tag}>{value}</{tag}></{section}></proof_info>".encode()
        )

    # a value out of range and a malformed one are located at the same tag
    path = f"/proof_info/{section}/{tag}"
    assert [(v.code, v.path) for v in validate_document(DocumentKind.PROOF_INFO, doc(out_of_range))] == [(code, path)]
    assert [(v.code, v.path) for v in validate_document(DocumentKind.PROOF_INFO, doc("1x"))] == [("BadNumber", path)]


_ATTEMPT_HEAD = "<proof_info><prover>p</prover><version>1</version><method>m</method><status>proved</status>"
# each place a reader takes a number: (kind, a document with the number as {n}, its locator)
_NUMBER_PLACES = [
    (DocumentKind.CONSTRUCTION, '<construction><elements><point id="A" x="{n}" y="0"/></elements></construction>',
     "/construction/elements/point[0]/@x"),
    (DocumentKind.CONJECTURE, '<conjecture><hypothesis><equal><const value="{n}"/><const value="1"/></equal></hypothesis>'
     "<conclusion><not_equal>A B</not_equal></conclusion></conjecture>", "/conjecture/hypothesis/equal[0]/const/@value"),
    (DocumentKind.CONJECTURE, '<conjecture><hypothesis><segment_ratio ratio="{n}">A B C D</segment_ratio></hypothesis>'
     "<conclusion><not_equal>A B</not_equal></conclusion></conjecture>", "/conjecture/hypothesis/segment_ratio[0]/@ratio"),
    (DocumentKind.PROOF_INFO, _ATTEMPT_HEAD + "<platform><RAM>{n}</RAM></platform></proof_info>", "/proof_info/platform/RAM"),
    (DocumentKind.PROOF_INFO, _ATTEMPT_HEAD + "<measures><CPU_time>{n}</CPU_time></measures></proof_info>",
     "/proof_info/measures/CPU_time"),
]


@pytest.mark.parametrize("digit", ["\u0663", "\uff13"])  # ARABIC-INDIC DIGIT THREE, FULLWIDTH DIGIT THREE
def test_a_number_of_digits_other_than_ascii_is_bad(digit):
    # xsd:double and the DSL's number take ASCII digits only, though \d matches any decimal digit
    for kind, template, path in _NUMBER_PLACES:
        doc = template.format(n=digit).encode()
        assert [(v.code, v.path) for v in validate_document(kind, doc)] == [("BadNumber", path)], path
        with pytest.raises(CodecError) as exc:
            _PARSERS[kind](doc)
        assert exc.value.code == "BadNumber"
    with pytest.raises(DslSyntaxError) as exc2:
        parse_dsl(f"point A 0 0\npoint B 1{digit} 4\n")
    assert (exc2.value.line, str(exc2.value)) == (2, f"line 2: malformed number '1{digit}'")


# ---------------------------------------------------------------------------
# canonical form properties


def test_corpus_documents_are_canonical_fixed_points(corpus):
    docs = corpus_documents(corpus)
    assert len(docs) >= 20
    for name, kind, data in docs:
        assert canonicalize(kind, data) == data, name
        assert validate_document(kind, data) == [], name


def test_validate_document_reports_all_not_first():
    doc = (
        b"<conjecture><conclusion>"
        b"<collinear>A B</collinear><maybe_tangent>A B</maybe_tangent>"
        b"</conclusion></conjecture>"
    )
    codes = {v.code for v in validate_document(DocumentKind.CONJECTURE, doc)}
    assert {"ArityError", "UnknownPredicate"} <= codes
    # a child after a dropped one is located at its source index
    doc = (
        b"<conjecture><conclusion><foo>A B</foo>"
        b'<equal><segment_length>A 1x</segment_length><const value="1"/></equal>'
        b"</conclusion></conjecture>"
    )
    assert [(v.code, v.path) for v in validate_document(DocumentKind.CONJECTURE, doc)] == [
        ("UnknownPredicate", "/conjecture/conclusion/foo[0]"),
        ("BadId", "/conjecture/conclusion/equal[1]"),
    ]
    doc = (
        b'<construction><elements><segment id="s"/><point id="1A" x="0" y="0"/></elements>'
        b'<constraints><free_point out="1A"/></constraints></construction>'
    )
    assert [(v.code, v.path) for v in validate_document(DocumentKind.CONSTRUCTION, doc)] == [
        ("UnknownTag", "/construction/elements/segment[0]"),
        ("BadId", "/construction/elements/point[1]"),
        ("BadId", "/construction/constraints/free_point[0]"),
    ]


def test_malformed_xml_is_a_violation_not_a_crash():
    violations = validate_document(DocumentKind.INFORMATION, b"<information><name>x</name>")
    assert violations[0].code == "MalformedXml"


@pytest.mark.parametrize("encoding", MULTI_BYTE_ENCODINGS)
def test_multi_byte_encoding_declaration_is_malformed_xml(varignon, encoding):
    doc = declaring(encoding, serialize_information(varignon.info))
    assert [(v.code, v.path) for v in validate_document(DocumentKind.INFORMATION, doc)] == [("MalformedXml", "/")]
    with pytest.raises(CodecError):
        parse_information(doc)
    statement = declaring(encoding, b'<?xml version="1.0" encoding="UTF-8"?><math/>')
    problem = dataclasses.replace(varignon, info=dataclasses.replace(varignon.info, statement=statement))
    assert [(v.code, v.path) for v in validate_problem(problem)] == [("MalformedXml", "/information/statement")]
    container = with_entry(pack(varignon), "information/information.xml", doc)
    assert [(v.code, v.path) for v in validate_container(container)] == [("MalformedXml", "information/information.xml/")]


def _declared_in(encoding: str, doc: bytes) -> bytes:
    """``doc``, a canonical UTF-8 document, declared and encoded in
    ``encoding``."""

    return doc.decode("utf-8").replace('encoding="UTF-8"', f'encoding="{encoding}"', 1).encode(encoding)


def _with_display(varignon, display: bytes):
    return dataclasses.replace(varignon.construction, display=display)


def _with_opaque_step(varignon, tag: str, payload: bytes):
    """The construction of ``varignon`` with its last step made opaque."""

    k = varignon.construction
    opaque = dataclasses.replace(k.constraints[-1], kind=ConstraintKind.OPAQUE, inputs=(), opaque_tag=tag, opaque_payload=payload)
    return dataclasses.replace(k, constraints=(*k.constraints[:-1], opaque))


def _with_opaque(varignon, text: str):
    out = varignon.construction.constraints[-1].output
    return _with_opaque_step(varignon, "hint", f'<hint out="{out}">{text}</hint>'.encode())


@pytest.mark.parametrize(
    "kind, build, encoding",
    [
        (DocumentKind.CONSTRUCTION, lambda p: _with_display(p, b"<display><label/></display>"), "UTF-16"),
        (DocumentKind.CONSTRUCTION, lambda p: _with_display(p, "<display><label t='\u00e9'/>\u00e9</display>".encode()), "ISO-8859-1"),
        (DocumentKind.CONSTRUCTION, lambda p: _with_opaque(p, "\u00e9 A"), "ISO-8859-1"),
        (DocumentKind.INFORMATION, lambda p: dataclasses.replace(p.info, statement=b"<math/>"), "UTF-16"),
        (DocumentKind.INFORMATION, lambda p: dataclasses.replace(p.info, bibrefs=(BibEntry("r", b"<t>\xc3\xa9</t>"),)), "UTF-16"),
    ],
    ids=["utf16_display", "latin1_display", "latin1_opaque_constraint", "utf16_statement", "utf16_bibentry"],
)
def test_payloads_of_a_document_in_another_encoding_read_as_utf8(varignon, kind, build, encoding):
    # payloads were byte slices of the source in its own encoding, so a
    # well-formed document was refused as MalformedXml
    value = build(varignon)
    canonical = (serialize_construction if kind is DocumentKind.CONSTRUCTION else serialize_information)(value)
    doc = _declared_in(encoding, canonical)
    assert doc != canonical
    assert validate_document(kind, doc) == []
    assert (parse_construction if kind is DocumentKind.CONSTRUCTION else parse_information)(doc) == value
    assert canonicalize(kind, doc) == canonical


@pytest.mark.parametrize("codec", ["utf-16-le", "utf-16-be"])
def test_utf16_without_a_byte_order_mark_reads_as_its_utf8_twin(varignon, codec):
    # the reader tells the byte order from the first '<'
    info = dataclasses.replace(varignon.info, statement="<m a='1>2'>\u00e9</m>".encode())
    canonical = serialize_information(info)
    doc = _declared_in("UTF-16", canonical).decode("utf-16").encode(codec)
    assert doc[:2] in (b"<\x00", b"\x00<")
    assert parse_information(doc) == parse_information(canonical) == info
    assert canonicalize(DocumentKind.INFORMATION, doc) == canonical


def test_byte_order_mark_before_another_declared_encoding_is_skipped(varignon):
    # expat skips a UTF-8 byte order mark and reads the declared encoding
    k = _with_display(varignon, "<display>\u00e9</display>".encode())
    canonical = serialize_construction(k)
    doc = b"\xef\xbb\xbf" + _declared_in("ISO-8859-1", canonical)
    assert parse_construction(doc) == k
    assert canonicalize(DocumentKind.CONSTRUCTION, doc) == canonical


@pytest.mark.parametrize(
    "encode",
    [
        lambda doc: _declared_in("UTF-16", doc),
        lambda doc: doc.split(b"\n", 1)[1].decode().encode("utf-16"),
        lambda doc: doc.split(b"\n", 1)[1].decode().encode("utf-16-le"),
        lambda doc: _declared_in("windows-1252", doc),
    ],
    ids=["utf16_declared", "utf16_undeclared", "utf16le_undeclared", "windows1252"],
)
def test_a_document_in_another_encoding_reads_each_child_once(varignon, monkeypatch, encode):
    # the pass that learns the encoding only checks the document: each value
    # is read from the UTF-8 transcoding alone
    read_tags = []
    leaves = xml_codec._KINDS[DocumentKind.CONSTRUCTION].leaves
    for part, (read, text_tags) in list(leaves.items()):
        monkeypatch.setitem(leaves, part, (lambda *args, read=read: read_tags.append(args[2]) or read(*args), text_tags))
    k = varignon.construction
    assert parse_construction(encode(serialize_construction(k))) == k
    assert len(read_tags) == len(k.elements) + len(k.constraints)


# A display with nested elements, a quoted '>' and a comment
_DISPLAY = b"<display><layer n='1'><style color=\"a>b\"/><!-- keep > this --></layer><label/></display>"


def test_display_is_carried_byte_for_byte(varignon, tmp_path):
    p = dataclasses.replace(varignon, construction=_with_display(varignon, _DISPLAY))
    doc = serialize_construction(p.construction)
    assert b"\n  " + _DISPLAY + b"\n</construction>" in doc
    assert canonicalize(DocumentKind.CONSTRUCTION, doc) == doc
    data = pack(p)
    assert unpack(data).construction.display == _DISPLAY
    assert dict(read_container_entries(strip_to_i2g(data)))["intergeo.xml"] == doc


# Payloads that validate_problem passed and pack wrote, though the written
# intergeo.xml read back as another construction or not at all (the reader's
# outcome at the right): (construction, code, step or part refused)
_MISREAD_PAYLOADS = {
    "display_root_foo": (lambda p: _with_display(p, b"<foo/>"), "UnknownTag", "display"),  # UnknownTag
    "display_root_elements": (lambda p: _with_display(p, b"<elements/>"), "UnknownTag", "display"),  # DuplicateEntry
    "root_is_not_the_tag": (lambda p: _with_opaque_step(p, "foo", b'<free_point out="d"/>'), "UnknownTag", "foo"),  # a free point
    "supported_tag": (lambda p: _with_opaque_step(p, "free_point", b'<free_point out="d"/>'), "UnknownTag", "free_point"),  # a free point
    "other_out": (lambda p: _with_opaque_step(p, "foo", b'<foo out="W"/>'), "BadId", "foo"),  # MissingElement
    "empty": (lambda p: _with_opaque_step(p, "foo", b""), "MalformedXml", "foo"),  # UnconstrainedElement
    "display_declaration": (lambda p: _with_display(p, b"<?xml version='1.0'?><display/>"), "MalformedXml", "display"),  # MalformedXml
    "doctype": (lambda p: _with_opaque_step(p, "foo", b'<!DOCTYPE foo><foo out="d"/>'), "MalformedXml", "foo"),  # MalformedXml
    "display_comment_before": (lambda p: _with_display(p, b"<!-- c --><display/>"), "MalformedXml", "display"),  # <display/>
    "display_space_after": (lambda p: _with_display(p, b"<display/> "), "MalformedXml", "display"),  # <display/>
    "display_pi_after": (lambda p: _with_display(p, b"<display/><?pi x?>"), "MalformedXml", "display"),  # <display/>
    "display_comment_after_end_tag": (lambda p: _with_display(p, b"<display></display><!--/>-->"), "MalformedXml", "display"),  # <display></display>
    "opaque_comment_after": (lambda p: _with_opaque_step(p, "foo", b'<foo out="d"/><!-- c -->'), "MalformedXml", "foo"),  # <foo out="d"/>
    "opaque_space_before": (lambda p: _with_opaque_step(p, "foo", b' <foo out="d">x</foo>'), "MalformedXml", "foo"),  # <foo out="d">x</foo>
}


@pytest.mark.parametrize("build, code, part", _MISREAD_PAYLOADS.values(), ids=_MISREAD_PAYLOADS.keys())
def test_payload_that_would_not_read_back_is_refused(varignon, build, code, part):
    assert varignon.construction.constraints[-1].output == "d"  # the step the payloads stand for
    k = build(varignon)
    path = "/construction/display" if part == "display" else f"/construction/constraints/{part}[{len(k.constraints) - 1}]"
    problem = dataclasses.replace(varignon, construction=k)
    assert [(v.code, v.path) for v in validate_problem(problem)] == [(code, path)]
    with pytest.raises(ContainerError) as exc:
        pack(problem)
    assert exc.value.violations == validate_problem(problem)


def _deep_display(levels: int) -> bytes:
    return b"<display>" + b"<a>" * levels + b"</a>" * levels + b"</display>"


@pytest.mark.parametrize("past", [0, 1], ids=["at_cap", "past_cap"])
def test_depth_cap_holds_for_the_reader_and_the_writer(varignon, past):
    display = _deep_display(MAX_XML_DEPTH - 2 + past)  # under <construction> and <display>
    doc = serialize_construction(varignon.construction).replace(b"</construction>", display + b"</construction>")
    problem = dataclasses.replace(varignon, construction=_with_display(varignon, display))
    if not past:
        assert validate_document(DocumentKind.CONSTRUCTION, doc) == []
        assert parse_construction(doc) == problem.construction
        assert unpack(pack(problem)) == problem
        return
    refused = ("MalformedXml", "/", f"XML parse error: more than {MAX_XML_DEPTH} levels of elements")
    assert [(v.code, v.path, v.message) for v in validate_document(DocumentKind.CONSTRUCTION, doc)] == [refused]
    assert [(v.code, v.path) for v in validate_problem(problem)] == [("MalformedXml", "/construction/display")]


@pytest.mark.parametrize("part", ["statement", "bibentry"])
@pytest.mark.parametrize("payload", [b"<!-- c --><math/>", b"<math/> ", b"<math/><?pi x?>", b"\n<math>x</math>"])
def test_information_payload_with_bytes_outside_its_root_is_refused(varignon, part, payload):
    # the reader cuts a payload at its root's start and end tags, so such a
    # payload read back without those bytes
    def with_payload(payload: bytes):
        bibrefs = (BibEntry("r", payload),) if part == "bibentry" else ()
        info = dataclasses.replace(varignon.info, **({"bibrefs": bibrefs} if bibrefs else {"statement": payload}))
        return dataclasses.replace(varignon, info=info)

    problem = with_payload(payload)
    path = "/information/statement" if part == "statement" else "/information/bibrefs/bibentry[0]"
    assert [(v.code, v.path) for v in validate_problem(problem)] == [("MalformedXml", path)]
    with pytest.raises(ContainerError) as exc:
        pack(problem)
    assert exc.value.violations == validate_problem(problem)
    root = with_payload(payload.strip().removeprefix(b"<!-- c -->").removesuffix(b"<?pi x?>"))
    assert unpack(pack(root)) == canonicalize_problem(root)


def test_whitespace_around_an_information_payload_is_not_part_of_it(varignon):
    doc = serialize_information(dataclasses.replace(varignon.info, statement=b"<math/>"))
    spaced = doc.replace(b"<statement><math/></statement>", b"<statement>\n  <math/>\n</statement>")
    assert spaced != doc and validate_document(DocumentKind.INFORMATION, spaced) == []
    assert canonicalize(DocumentKind.INFORMATION, spaced) == doc


def _element_count(doc: bytes) -> int:
    parser = xml.parsers.expat.ParserCreate()
    starts: list[str] = []
    parser.StartElementHandler = lambda tag, _attrs: starts.append(tag)
    parser.Parse(doc, True)
    return len(starts)


def _balanced_sum(leaves: int):
    """A term of ``leaves`` constants summed pairwise, 2 * leaves - 1 nodes."""

    terms = [Const(1.0)] * leaves
    while len(terms) > 1:
        terms = [Plus(a, b) for a, b in zip(terms[::2], terms[1::2])] + terms[len(terms) & ~1 :]
    return terms[0]


def _with_elements(varignon, document: str, count: int):
    """``varignon`` with ``document`` written with ``count`` elements."""

    if document == "information":
        base = _element_count(serialize_information(dataclasses.replace(varignon.info, keywords=("k",))))
        keywords = tuple(f"k{i}" for i in range(count - base + 1))
        return dataclasses.replace(varignon, info=dataclasses.replace(varignon.info, keywords=keywords))
    if document == "construction":
        base = _element_count(serialize_construction(_with_display(varignon, b"<display/>")))
        return dataclasses.replace(varignon, construction=_with_display(varignon, b"<display>" + b"<a/>" * (count - base) + b"</display>"))
    # an equal adds itself and its operands' nodes, an odd number; one more
    # copy of a conclusion predicate makes up an even one
    conjecture = varignon.conjecture
    extra = count - _element_count(serialize_conjecture(conjecture))
    copies = 1 - extra % 2
    equal = Equal(_balanced_sum((extra - copies - 1) // 2), Const(1.0))
    conclusion = (*conjecture.conclusion, equal, *conjecture.conclusion[:copies])
    return dataclasses.replace(varignon, conjecture=dataclasses.replace(conjecture, conclusion=conclusion))


@pytest.mark.parametrize("past", [0, 1], ids=["at_cap", "past_cap"])
@pytest.mark.parametrize("document", ["information", "construction", "conjecture"])
def test_writers_count_elements_as_the_readers_do(varignon, document, past):
    # pack wrote a document of more than MAX_XML_ELEMENTS elements (varignon
    # with 100,000 keywords), which unpack refused
    problem = _with_elements(varignon, document, MAX_XML_ELEMENTS + past)
    path = {"information": INFORMATION_PATH, "construction": INTERGEO_PATH, "conjecture": CONJECTURE_PATH}[document]
    if not past:
        assert validate_problem(problem) == []
        data = pack(problem)
        assert _element_count(dict(read_container_entries(data))[path]) == MAX_XML_ELEMENTS
        assert unpack(data) == canonicalize_problem(problem)
        return
    message = f"<{document}> would be written with {MAX_XML_ELEMENTS + 1} elements, more than {MAX_XML_ELEMENTS}"
    assert [(v.code, v.path, v.message) for v in validate_problem(problem)] == [("MalformedXml", f"/{document}", message)]
    with pytest.raises(ContainerError) as exc:
        pack(problem)
    assert exc.value.code == "InvalidProblem" and exc.value.violations == validate_problem(problem)


def test_shared_subterms_past_the_cap_are_refused_without_a_walk(varignon):
    # t = Plus(t, t) is one more node in memory per level but doubles the
    # written size; the 16th doubling (131,071 nodes) passes the element
    # cap, so it cannot be built, and no walker meets more written nodes
    term = SegmentLength("A", "Zz9")  # an unresolved id, reported only by a walk
    for _ in range(15):
        term = Plus(term, term)
    refused = ("MalformedXml", "/plus", f"term would be written with {2**17 - 1} elements, more than {MAX_XML_ELEMENTS}")
    with pytest.raises(CodecError) as exc:
        Plus(term, term)
    assert [(v.code, v.path, v.message) for v in exc.value.violations] == [refused]
    # two such terms in one predicate put the conjecture past the cap, which
    # validate_problem reports from the sizes, without a walk
    conjecture = dataclasses.replace(varignon.conjecture, conclusion=(Equal(term, term),))
    problem = dataclasses.replace(varignon, conjecture=conjecture)
    start = time.perf_counter()
    violations = validate_problem(problem)
    assert time.perf_counter() - start < 1.0
    assert [(v.code, v.path) for v in violations] == [("MalformedXml", "/conjecture")]
    with pytest.raises(ContainerError) as exc:
        pack(problem)
    assert exc.value.code == "InvalidProblem" and exc.value.violations == violations


def test_payload_past_the_element_cap_is_refused_as_the_payload(varignon):
    statement = b"<math>" + b"<a/>" * MAX_XML_ELEMENTS + b"</math>"
    problem = dataclasses.replace(varignon, info=dataclasses.replace(varignon.info, statement=statement))
    assert [(v.code, v.path) for v in validate_problem(problem)] == [("MalformedXml", "/information/statement")]


@pytest.mark.parametrize("past", [0, 1], ids=["at_cap", "past_cap"])
def test_element_count_cap(past):
    # <construction>, <elements> and <display> are three of the elements
    doc = b"<construction><elements/><display>" + b"<a/>" * (MAX_XML_ELEMENTS - 3 + past) + b"</display></construction>"
    refused = [("MalformedXml", "/", f"XML parse error: more than {MAX_XML_ELEMENTS} elements")]
    assert [(v.code, v.path, v.message) for v in validate_document(DocumentKind.CONSTRUCTION, doc)] == (refused if past else [])


def test_deep_display_is_refused_before_its_tree_is_built(varignon):
    # a 2,420-byte archive that validate_container passed, building 10**5
    # nodes in over a second with a tracemalloc peak of about 54 MB
    display = _deep_display(10**5)
    doc = serialize_construction(varignon.construction).replace(b"</construction>", display + b"</construction>")
    data = with_entry(pack(varignon), "construction/intergeo.xml", doc)
    tracemalloc.start()
    try:
        violations = validate_container(data)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert [(v.code, v.path) for v in violations] == [("MalformedXml", "construction/intergeo.xml/")]
    assert peak < 10 * 2**20
    problem = dataclasses.replace(varignon, construction=_with_display(varignon, display))
    assert [(v.code, v.path) for v in validate_problem(problem)] == [("MalformedXml", "/construction/display")]


def test_wide_display_is_read_as_its_byte_span(varignon):
    # a 1,935-byte archive whose display holds 90,000 elements: with a node
    # built for each, validate_container and unpack peaked at 25.2 MiB of
    # tracemalloc; with the display kept as its byte span, at 1.8 MiB
    problem = dataclasses.replace(varignon, construction=_with_display(varignon, b"<display>" + b"<a/>" * 90_000 + b"</display>"))
    data = pack(problem)
    assert len(data) < 2_000
    for call in (validate_container, unpack):
        tracemalloc.start()
        try:
            result = call(data)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert result == ([] if call is validate_container else problem)
        assert peak < 2 * 2**20, (call.__name__, peak)


@pytest.mark.parametrize(
    "kind", [DocumentKind.INFORMATION, DocumentKind.CONJECTURE, DocumentKind.CONSTRUCTION, DocumentKind.PROOF_INFO]
)
def test_document_with_another_root_is_one_unknown_tag(kind):
    other = "information" if kind is DocumentKind.PROOF_INFO else "proof_info"
    refused = ("UnknownTag", "/", f"expected root <{kind.value}>, found <{other}>")
    assert [(v.code, v.path, v.message) for v in validate_document(kind, f"<{other}/>".encode())] == [refused]
    with pytest.raises(CodecError) as exc:
        _PARSERS[kind](f"<{other}/>".encode())
    assert exc.value.violations == [Violation(*refused)]


def test_empty_payloads_are_empty_tags(varignon):
    info = dataclasses.replace(varignon.info, bibrefs=(BibEntry("r", b""),))
    doc = serialize_information(info)
    assert b'<bibentry id="r"/>' in doc
    assert canonicalize(DocumentKind.INFORMATION, doc) == doc
    p = dataclasses.replace(varignon, info=info)
    assert unpack(pack(p)).info == info
    assert dict(read_container_entries(pack(p)))["information/information.xml"] == doc
    empty = Construction(elements=(), constraints=())
    doc = serialize_construction(empty)
    assert doc == b'<?xml version="1.0" encoding="UTF-8"?>\n<construction>\n  <elements/>\n</construction>\n'
    assert parse_construction(doc) == empty


def test_serializers_reject_invalid_values():
    with pytest.raises(CodecError) as exc:
        serialize_information(ProblemInfo(name="no spaces allowed"))
    assert exc.value.code == "BadName"
    with pytest.raises(CodecError) as exc2:
        serialize_conjecture(Conjecture(hypothesis=(), ndg=(), conclusion=()))
    assert exc2.value.code == "MissingConclusion"
    # an id with a space would serialize to text that reads back as two ids
    with pytest.raises(CodecError) as exc3:
        serialize_conjecture(Conjecture(hypothesis=(), ndg=(), conclusion=(Collinear("A B", "C", "D"),)))
    assert exc3.value.code == "BadId"


_PARSERS = {
    DocumentKind.INFORMATION: parse_information,
    DocumentKind.CONSTRUCTION: parse_construction,
    DocumentKind.CONJECTURE: parse_conjecture,
    DocumentKind.PROOF_INFO: parse_proof_info,
}


def _mutated_documents(corpus) -> dict[DocumentKind, list[bytes]]:
    """For each kind, its first corpus document declared in each multi-byte
    encoding, then 300 seeded edits of 1 to 4 bytes of its documents."""

    by_kind: dict[DocumentKind, list[bytes]] = {}
    for _name, kind, data in corpus_documents(corpus):
        by_kind.setdefault(kind, []).append(data)
    assert by_kind.keys() == _PARSERS.keys()
    rng = random.Random(0)
    mutated: dict[DocumentKind, list[bytes]] = {}
    for kind, docs in by_kind.items():
        mutated[kind] = [declaring(encoding, docs[0]) for encoding in MULTI_BYTE_ENCODINGS]
        for _ in range(300):
            doc = bytearray(rng.choice(docs))
            for _ in range(rng.randint(1, 4)):
                doc[rng.randrange(len(doc))] = rng.randrange(256)
            mutated[kind].append(bytes(doc))
    return mutated


def test_mutated_documents_raise_only_library_errors(corpus):
    for kind, mutated in _mutated_documents(corpus).items():
        for doc in mutated:
            assert isinstance(validate_document(kind, doc), list)
            for call in (_PARSERS[kind], lambda d: canonicalize(kind, d)):
                try:
                    call(doc)
                except I2gatpError:
                    pass


# proofInfo.xml documents whose identity is easy to misread, with the
# identity the reader reads (None: no attempt)
_MATCHING = b"<proof_info><prover>A</prover><version>1</version><method>m</method>"
_IDENTITY_CASES = [
    (b"<proof_info><prover>A</prover><prover>B</prover><version>1</version><method>m</method></proof_info>", ("A", "1", "m")),
    (b"<proof_info><notes><prover>N</prover></notes><version> 1 </version><method>m</method></proof_info>", ("", "1", "m")),
    (b"<proof_info><method>m</method><status>proved</status><version>1</version><prover>A</prover></proof_info>", ("A", "1", "m")),
    (b"<proof_info><prover>A<prover>B</prover>C</prover><version>1</version><method>m</method></proof_info>", ("AC", "1", "m")),
    (b"<proof_info><prover><prover>A</prover></prover><prover>B</prover></proof_info>", ("", "", "")),
    (b"<proof_info><prover>GC<b>x<c>y</c></b>LC<b/></prover><method>\n m\t</method></proof_info>", ("GCLC", "", "m")),
    (b"<proof_info><prover>GC<!-- c -->LC</prover></proof_info>", ("GCLC", "", "")),
    (b"<proof_info><prover><![CDATA[GC]]>LC</prover></proof_info>", ("GCLC", "", "")),
    (b"<proof_info><prover>&#65;B</prover></proof_info>", ("AB", "", "")),
    (_MATCHING + b"</proof_info>", ("A", "1", "m")),
    (_MATCHING + b"<status>proved</proof_info>", None),
    (_MATCHING + b"</proof_info><proof_info/>", None),
    (b'<?xml version="1.0" encoding="UTF-16"?><proof_info><prover>A</prover></proof_info>', None),
    ('<?xml version="1.0" encoding="UTF-16"?><proof_info><prover>\u00c4</prover></proof_info>'.encode("utf-16"), ("\u00c4", "", "")),
    ('<?xml version="1.0" encoding="ISO-8859-1"?><proof_info><prover>\u00c4</prover></proof_info>'.encode("latin-1"), ("\u00c4", "", "")),
    (b"<information><prover>A</prover></information>", None),
    (b"<information><prover>A</prover><version>1</version><method>m</method></information>", None),
    ('<?xml version="1.0" encoding="windows-1252"?><proof_info><prover>\u20ac</prover></proof_info>'.encode("cp1252"), ("\u20ac", "", "")),
    (b'<?xml version="1.0" encoding="windows-1252"?><proof_info><prover>\x81</prover></proof_info>', None),
    ("<proof_info><prover>\u00c4</prover><method>m</method></proof_info>".encode("utf-16-le"), ("\u00c4", "", "m")),
    (b'\xef\xbb\xbf<?xml version="1.0" encoding="UTF-8"?><proof_info><prover>\xc3\x84</prover></proof_info>', ("\u00c4", "", "")),
]


def _tree(node) -> tuple:
    return (node.tag, node.attrs, node.text, node.start, node.end_event, [_tree(ch) for ch in node.children])


def _assert_identity_reads_as_the_reader(doc: bytes) -> None:
    """_has_identity answers as the full reader for the identity it reads
    and for that identity with each field changed, and builds no tree."""

    value = _read(DocumentKind.PROOF_INFO, doc)[0]
    read = None if value is None else value.identity
    probes = [("A", "1", "m"), ("", "", "")]
    if read is not None:
        probes.append(read)
        for i, text in enumerate(read):
            probes += [read[:i] + (text + "x",) + read[i + 1 :], read[:i] + ("",) + read[i + 1 :]]
    for identity in probes:
        with mock.patch.object(xml_codec, "_build_raw", wraps=xml_codec._build_raw) as build:
            assert _has_identity(doc, identity) == (read == identity), (identity, read)
        assert not build.called, (identity, read)


def _assert_reads_as_the_reference(doc: bytes) -> None:
    try:
        parse_raw_reference(doc)
    except XML_READ_ERRORS as exc:
        with pytest.raises(type(exc)):
            _parse_raw(doc)
    else:
        root, source = _parse_raw(doc)
        # a document in another encoding is read from its UTF-8 transcoding
        assert _tree(root) == _tree(parse_raw_reference(doc if source is doc else source.decode("utf-8")))
    _assert_identity_reads_as_the_reader(doc)


@pytest.mark.parametrize("doc, identity", _IDENTITY_CASES)
def test_proof_identity_is_the_identity_the_reader_reads(doc, identity):
    value = _read(DocumentKind.PROOF_INFO, doc)[0]
    assert (None if value is None else value.identity) == identity
    _assert_reads_as_the_reference(doc)


@pytest.mark.parametrize(
    "doc",
    [
        _MATCHING + b"<x/>" * MAX_XML_ELEMENTS + b"</proof_info>",
        _MATCHING + b"<x>" * MAX_XML_DEPTH + b"</x>" * MAX_XML_DEPTH + b"</proof_info>",
    ],
    ids=["elements", "depth"],
)
def test_a_matching_identity_before_a_cap_is_no_match(doc):
    with pytest.raises(ValueError):
        _parse_raw(doc)
    _assert_identity_reads_as_the_reader(doc)


_WRITTEN_ATTEMPTS = [
    _write_proof_info(ProofAttempt("GCLCprover", "2.0", "wu", ProofStatus.PROVED)),
    _write_proof_info(
        ProofAttempt(
            "CoqAM",
            "8.16",
            "areamethod",
            ProofStatus.TIMEOUT,
            limits=ProofLimits(time_limit_seconds=600.0),
            measures=ProofMeasures(cpu_time_seconds=1.5, proof_steps=100),
        )
    ),
]


@settings(derandomize=True, database=None, max_examples=400, deadline=None)
@given(
    st.sampled_from(_WRITTEN_ATTEMPTS + [doc for doc, _identity in _IDENTITY_CASES]),
    st.lists(st.tuples(st.integers(min_value=0), st.integers(0, 255)), min_size=1, max_size=4),
)
def test_has_identity_answers_as_the_reader_on_mutated_bytes(doc, edits):
    mutated = bytearray(doc)
    for at, byte in edits:
        mutated[at % len(mutated)] = byte
    _assert_identity_reads_as_the_reader(bytes(mutated))


def test_raw_tree_matches_the_reference_builder(corpus):
    # the codec's tree buffers text and has no per-node defaults; every node
    # must keep the tag, attributes, text and offsets of the plain builder
    docs = [data for _name, _kind, data in corpus_documents(corpus)]
    for mutated in _mutated_documents(corpus).values():
        docs += mutated
    for doc in docs:
        _assert_reads_as_the_reference(doc)


# the bodies of intergeo.xml documents that reach each branch of the leaf readers
_CONSTRUCTION_BODIES = [
    # parts out of order, a stranger, repeated parts skipped with their children
    '<constraints><free_point out="A"/></constraints><x><y/></x><elements><point id="A" x="1" y="2"/></elements>'
    '<elements><bogus/></elements><constraints><hint/></constraints>',
    # an unknown kind, missing and malformed coordinates, then kept elements
    # moved, one with a nested child and text
    '<elements><bogus id="Z"/><point id="A" y="1"/><point id="B" x="1e" y=" 2 "/><point id="C" x="0" y="0">t<n>u</n></point>'
    '<line id="l" a="1" b="0" c="0"/><circle id="k" cx="0" cy="0" r="-1"/></elements>',
    # no out, a stray and a malformed parameter, opaque steps, and ids split
    # by a nested element, a comment and a CDATA section
    '<elements><point id="A" x="0" y="0"/><point id="B" x="1" y="0"/><line id="l" a="0" b="1" c="0"/><point id="P" x="0" y="0"/>'
    '<point id="M" x="0" y="0"/></elements><constraints><free_point/><free_point out="A" angle="1"/><hint out="h"/>'
    '<free_point out="B"/><hint out="k" a=">">x<y z="/>"/>w</hint><line_through_two_points out="l">A <n>C</n>B</line_through_two_points>'
    '<point_on_line out="P" parameter=" x ">l</point_on_line><midpoint_of_two_points out="M">A<!-- c --> <![CDATA[B]]>'
    '</midpoint_of_two_points></constraints><display><a><b/>t</a></display>',
    # ids and numbers padded with spaces that XML does not count as whitespace
    '<elements><point id="A" x="\u2003 0.5" y="\t1\n"/><point id="M" x="0" y="0"/></elements><constraints><free_point out="A"/>'
    '<midpoint_of_two_points out="M">A\u00a0B</midpoint_of_two_points><point_on_line out="Q" parameter="0.5\u3000">l</point_on_line></constraints>',
    "<constraints/><display/>",
    "<elements>text</elements>",
    "<elements/><constraints>\n  <free_point out='A'/>\n</constraints><display>\u00e9</display>",
]
_CONSTRUCTION_CASES = [f"<construction>{body}</construction>".encode() for body in _CONSTRUCTION_BODIES]


def _assert_reads_as_the_construction_reference(doc: bytes) -> None:
    value, violations, refused = _read(DocumentKind.CONSTRUCTION, doc)
    assert (value, list(violations), list(refused)) == read_construction_reference(doc)


def _encoded_constructions(varignon) -> list[bytes]:
    """The constructions of the encoding tests above: declared in UTF-16
    and ISO-8859-1, in UTF-16 with no byte order mark, and in ISO-8859-1
    after a UTF-8 byte order mark."""

    label, latin = (_with_display(varignon, d) for d in (b"<display><label/></display>", "<display><label t='\u00e9'/>\u00e9</display>".encode()))
    docs = [_declared_in(e, serialize_construction(k)) for k in (label, latin, _with_opaque(varignon, "\u00e9 A")) for e in ("UTF-16", "ISO-8859-1")]
    docs += [_declared_in("UTF-16", serialize_construction(latin)).decode("utf-16").encode(codec) for codec in ("utf-16-le", "utf-16-be")]
    return docs + [b"\xef\xbb\xbf" + _declared_in("ISO-8859-1", serialize_construction(latin))]


def test_construction_reads_as_the_tree_reference(corpus, varignon):
    # the one-pass reader gives the value, violations and refusals of the
    # reader that analysed the whole tree, in order and at the same locators
    docs = [data for _name, _kind, data in corpus_documents(corpus)] + _CONSTRUCTION_CASES + _encoded_constructions(varignon)
    for n in (10, 100, 1000):
        docs.append(serialize_construction(parse_dsl(bench_workloads().generate_dsl(random.Random(n), n, "g")).construction))
    for mutated in _mutated_documents(corpus).values():
        docs += mutated
    for doc in docs:
        _assert_reads_as_the_construction_reference(doc)


_INTERGEO_DOCS = _CONSTRUCTION_CASES + [
    serialize_construction(build_corpus()[name].construction) for name in ("varignon", "opaque_circumcircle", "circle_radii")
]


@settings(derandomize=True, database=None, max_examples=400, deadline=None)
@given(
    st.sampled_from(_INTERGEO_DOCS),
    st.lists(st.tuples(st.integers(min_value=0), st.integers(0, 255)), min_size=1, max_size=4),
)
def test_construction_reads_as_the_tree_reference_on_mutated_bytes(doc, edits):
    mutated = bytearray(doc)
    for at, byte in edits:
        mutated[at % len(mutated)] = byte
    _assert_reads_as_the_construction_reference(bytes(mutated))


def test_ids_and_numbers_split_on_xml_whitespace_only(varignon):
    # str.split() and float() also take the no-break, ideographic and em
    # spaces, so these read as the ids A and B, three ids, and 0.5
    doc = (
        '<construction><elements><point id="A" x="0" y="0"/><point id="B" x="1" y="0"/><point id="M" x="\u2003 0.5" y="0"/>'
        '</elements><constraints><free_point out="A"/><free_point out="B"/>'
        '<midpoint_of_two_points out="M">A\u00a0B</midpoint_of_two_points></constraints></construction>'
    ).encode()
    step = "/construction/constraints/midpoint_of_two_points[2]"
    assert [(v.code, v.path, v.message) for v in validate_document(DocumentKind.CONSTRUCTION, doc)] == [
        ("BadNumber", "/construction/elements/point[2]/@x", "malformed number " + repr("\u2003 0.5")),
        ("BadId", step, "invalid input id " + repr("A\u00a0B")),
        ("MissingElement", step, "output 'M' has no element instance"),
        ("ArityError", step, "midpoint_of_two_points takes 2 inputs, got 1"),
    ]
    conjecture = "<conjecture><conclusion><collinear>A\u3000B M</collinear></conclusion></conjecture>".encode()
    assert [(v.code, v.message) for v in validate_document(DocumentKind.CONJECTURE, conjecture)] == [
        ("ArityError", "collinear takes 3 point ids, got 2"),
        ("MissingConclusion", "conclusion must contain at least one predicate"),
    ]
    attempt = "<proof_info><status>proved</status><measures><proof_steps>\u20035</proof_steps></measures></proof_info>".encode()
    assert [(v.code, v.message) for v in validate_document(DocumentKind.PROOF_INFO, attempt) if v.code == "BadNumber"] == [
        ("BadNumber", "malformed integer " + repr("\u20035"))
    ]
    # XML whitespace around a number or between ids is still skipped
    assert parse_construction(serialize_construction(varignon.construction).replace(b'x="0"', b'x=" 0\t"', 1)) == varignon.construction


def test_text_longer_than_the_parser_buffer_reads_whole():
    # buffered text comes in chunks of at most 8 KiB
    description = " ".join(f"w{i}" for i in range(4000))
    assert len(description) > 20 * 1024
    doc = serialize_information(ProblemInfo(name="long", description=description, keywords=("ab",)))
    assert parse_information(doc).description == description
    split = doc.replace(b"<keyword>ab</keyword>", b"<keyword>a<!-- split -->b</keyword>")
    assert split != doc
    assert parse_information(split).keywords == ("ab",)
    for data in (doc, split):
        assert _tree(_parse_raw(data)[0]) == _tree(parse_raw_reference(data))


def test_text_of_many_runs_reads_as_the_reference():
    # the runs of a node are joined once, whether the node holds one, two
    # or thousands, each split from the next by a child, a comment or a
    # CDATA section
    doc = b"<display>" + b"".join(b"run %d <a>in %d</a>" % (i, i) for i in range(3000)) + b"tail</display>"
    root = _parse_raw(doc)[0]
    assert root.text == "".join(f"run {i} " for i in range(3000)) + "tail"
    assert _tree(root) == _tree(parse_raw_reference(doc))
    for doc in (b"<a>one</a>", b"<a>one<b/>two</a>", b"<a>o<!-- c -->n<![CDATA[e]]><b>x<c/>y</b>t<b/>wo</a>"):
        assert _tree(_parse_raw(doc)[0]) == _tree(parse_raw_reference(doc))


@st.composite
def _element(draw, depth: int = 0) -> tuple[bytes, tuple]:
    """An element built from parts that a tag scan could misread, with what
    ``raw`` and ``inner`` of its node must give: (raw, inner, children)."""

    tag = draw(st.sampled_from("ab"))  # a child often has its parent's tag
    start = f"<{tag}"
    for name in draw(st.lists(st.sampled_from("xy"), unique=True, max_size=2)):
        quote = draw(st.sampled_from("\"'"))
        value = draw(st.text(alphabet="v>/'\" ", max_size=6)).replace(quote, "")  # '>', '/>', the other quote
        start += f" {name}={quote}{value}{quote}"
    start += draw(st.sampled_from(["", " ", "\n"]))
    if depth == 3 or draw(st.booleans()):
        raw = f"{start}/>".encode()
        return raw, (raw, b"", [])
    content, children = b"", []
    for _ in range(draw(st.integers(0, 3))):
        if draw(st.booleans()):
            content += draw(st.text(alphabet="t> \n", max_size=4)).encode()  # text holds '>'
        else:
            raw, node = draw(_element(depth + 1))
            content += raw
            children.append(node)
    closing = draw(st.sampled_from(["", " ", "\n"]))  # an end tag may end in whitespace
    raw = f"{start}>".encode() + content + f"</{tag}{closing}>".encode()
    return raw, (raw, content.strip(), children)


def _assert_slices(node, data: bytes, expected: tuple) -> None:
    raw, inner, children = expected
    assert (_raw(data, node.start, node.end_event), node.inner(data)) == (raw, inner)
    assert len(node.children) == len(children)
    for child, want in zip(node.children, children):
        _assert_slices(child, data, want)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(element=_element())
@example(element=(b'<a><a x="/>"/></a>', (b'<a><a x="/>"/></a>', b'<a x="/>"/>', [(b'<a x="/>"/>', b"", [])])))
def test_raw_and_inner_give_back_the_bytes_of_each_element(element):
    # a tag ends at the first '>' outside a quoted value; an end tag holds
    # no quotes
    data, expected = element
    root, source = _parse_raw(data)
    assert source is data
    _assert_slices(root, data, expected)


_name_st = st.from_regex(r"[A-Za-z0-9_][A-Za-z0-9_-]{0,20}", fullmatch=True)
_text_st = st.text(
    alphabet=st.characters(codec="utf-8", exclude_characters="\r\x0b\x0c\x85  ", categories=("L", "N", "P", "S", "Zs")),
    max_size=40,
)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(name=_name_st, description=_text_st, keywords=st.lists(_name_st, max_size=4, unique=True))
def test_information_serialize_parse_is_identity(name, description, keywords):
    info = ProblemInfo(name=name, description=" ".join(description.split()), keywords=tuple(keywords))
    parsed = parse_information(serialize_information(info))
    assert parsed == info


@settings(max_examples=40, deadline=None, derandomize=True)
@given(data=st.binary(max_size=64))
def test_canonicalize_never_crashes_on_noise(data):
    # arbitrary bytes either canonicalize or raise a codec/container error
    try:
        canonicalize(DocumentKind.INFORMATION, data)
    except CodecError:
        pass


# ---------------------------------------------------------------------------
# canonical writers against the reference writers


def _assert_writes_as_the_reference(problem: Problem) -> None:
    if problem.info is not None:
        assert _write_information(problem.info) == write_information_reference(problem.info)
    assert _write_construction(problem.construction) == write_construction_reference(problem.construction)
    if problem.conjecture is not None:
        assert _write_conjecture(problem.conjecture) == write_conjecture_reference(problem.conjecture)
    for attempt in problem.proofs:
        assert _write_proof_info(attempt) == write_proof_info_reference(attempt)


def test_writers_write_the_corpus_as_the_reference_writers(corpus):
    for problem in corpus.values():
        _assert_writes_as_the_reference(problem)


@pytest.mark.parametrize("n", [10, 100, 1000])
@pytest.mark.parametrize("seed", [3, 5, 7])
def test_writers_write_generated_problems_as_the_reference_writers(seed, n):
    _assert_writes_as_the_reference(parse_dsl(bench_workloads().generate_dsl(random.Random(seed), n, f"generated_{n}")))


def _escaping_problem(text, real, integer) -> Problem:
    """A problem with every element kind, step kind, predicate and term,
    not validated: each free text, id and payload is ``text()`` (a payload
    encoded), each real ``real()`` and each integer ``integer()``, and each
    step has the shape its signature gives it."""

    def payload() -> bytes:
        return text().encode()

    info = ProblemInfo(text(), text(), payload(), (BibEntry(text(), payload()), BibEntry(text(), b"")), (text(), text()))
    elements = tuple(ElementInstance(text(), kind, tuple(real() for _ in coords)) for kind, coords in ELEMENT_COORDS.items())
    steps = tuple(
        Constraint(text(), kind, tuple(text() for _ in ins), None if param is None else real())
        for kind, (ins, _out, param) in CONSTRAINT_SIGNATURES.items()
    )
    opaque = Constraint(text(), ConstraintKind.OPAQUE, opaque_tag="opaque", opaque_payload=payload())
    predicates = []
    for cls, count in PREDICATES.values():
        if cls is Equal:
            predicates.append(Equal(Plus(SegmentLength(text(), text()), Const(real())), Mult(Const(real()), SegmentLength(text(), text()))))
        elif cls is SegmentRatio:
            predicates.append(SegmentRatio(*(text() for _ in range(count)), ratio=real()))
        else:
            predicates.append(cls(*(text() for _ in range(count))))
    records = {
        section: record(**{fld: {str: text, float: real, int: integer}[as_type]() for _tag, fld, as_type in children})
        for section, (record, _code, _zero_ok, children) in PROOF_INFO_SECTIONS.items()
    }
    return Problem(
        info=info,
        construction=Construction(elements, (*steps, opaque), payload()),
        conjecture=Conjecture(hypothesis=tuple(predicates[:4]), ndg=(), conclusion=tuple(predicates[4:])),
        proofs=(ProofAttempt(text(), text(), text(), ProofStatus.PROVED, **records),),
    )


def test_writers_write_every_kind_and_escaped_character_as_the_reference_writers():
    _assert_writes_as_the_reference(_escaping_problem(lambda: '&<>"\t\n\r', lambda: -0.5, lambda: 7))


# Text with each character that either escape table rewrites, among others
_escaped_text = st.text(st.sampled_from('&<>"\t\n\r') | st.characters(codec="utf-8"), max_size=8)


@settings(derandomize=True, database=None, max_examples=100, deadline=None)
@given(
    st.lists(_escaped_text, min_size=1, max_size=12),
    st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=4),
    st.lists(st.integers(0), min_size=1, max_size=4),
)
def test_writers_escape_text_attributes_and_payloads_as_the_reference_writers(texts, reals, integers):
    # each value is drawn in turn from the lists, round and round
    _assert_writes_as_the_reference(_escaping_problem(*(cycle(values).__next__ for values in (texts, reals, integers))))


# ---------------------------------------------------------------------------
# free text


@pytest.mark.parametrize("char", ["\x01", "\x1f", "\udc80", "\ufffe", "\uffff"], ids=ascii)
def test_free_text_that_xml_cannot_carry_is_malformed_xml_at_its_field(varignon, char):
    # pack wrote a description "a\x01b" that unpack refused, and a lone
    # surrogate escaped pack and add_proof_attempt as UnicodeEncodeError
    text = f"a{char}b"
    for info, path in (
        (dataclasses.replace(varignon.info, description=text), "/information/description"),
        (dataclasses.replace(varignon.info, keywords=("k", text)), "/information/keywords/keyword[1]"),
    ):
        with pytest.raises(CodecError) as exc:
            serialize_information(info)
        assert [(v.code, v.path) for v in exc.value.violations] == [("MalformedXml", path)]
        with pytest.raises(ContainerError) as exc2:
            pack(dataclasses.replace(varignon, info=info))
        assert exc2.value.violations == exc.value.violations
    data = pack(varignon)
    for field in ("computer_name", "operating_system"):
        attempt = ProofAttempt("P", "1", "m", ProofStatus.PROVED, platform=Platform(**{field: text}))
        with pytest.raises(ContainerError) as exc3:
            add_proof_attempt(data, attempt)
        assert [(v.code, v.path) for v in exc3.value.violations] == [("MalformedXml", f"/proof_info/platform/{field}")]
    for header, line in ((f"% description: {text}", 2), (f"% keyword: k\n% keyword: {text}", 3)):
        with pytest.raises(DslSyntaxError) as exc4:
            parse_dsl(f"% name: v\n{header}\npoint A 0 0\n")
        assert exc4.value.line == line


@pytest.mark.parametrize("char", ["\x7f", "\x85", "\ud7ff", "\ue000", "\ufffd", "\U0010ffff"], ids=ascii)
def test_free_text_of_any_xml_character_round_trips(varignon, char):
    text = f"a{char}b"
    info = dataclasses.replace(varignon.info, description=text, keywords=(text,))
    attempt = ProofAttempt("P", "1", "m", ProofStatus.PROVED, platform=Platform(computer_name=text, operating_system=text))
    problem = dataclasses.replace(varignon, info=info, proofs=(attempt,))
    assert unpack(pack(problem)) == problem
