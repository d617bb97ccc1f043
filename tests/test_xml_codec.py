"""XML codecs: parsing, canonical serialization, violation reporting."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from i2gatp.container import entries_from_problem
from i2gatp.errors import CodecError
from i2gatp.model import (
    BibEntry,
    Collinear,
    Conjecture,
    Midpoint,
    Parallel,
    ProblemInfo,
    ProofStatus,
)
from i2gatp.xml_codec import (
    DocumentKind,
    canonicalize,
    parse_conjecture,
    parse_construction,
    parse_information,
    parse_proof_info,
    serialize_conjecture,
    serialize_information,
    validate_document,
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
