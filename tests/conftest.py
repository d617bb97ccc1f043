"""Shared fixture corpus: problems built from DSL sources plus programmatic
extras (proof attempts, opaque constraints, carried files).

The benchmark loads this module by path for its corpus (bench/workloads.py),
so importing it must not import pytest or hypothesis: the pytest fixtures
are defined only when pytest is the importer."""

from __future__ import annotations

import dataclasses
import importlib.util
import io
import random
import struct
import sys
import warnings
import zipfile
from pathlib import Path

from i2gatp.container import pack
from i2gatp.dsl import parse_dsl
from i2gatp.model import (
    BibEntry,
    Constraint,
    ConstraintKind,
    Construction,
    ElementInstance,
    GeoKind,
    Platform,
    Problem,
    ProblemInfo,
    ProofAttempt,
    ProofLimits,
    ProofMeasures,
    ProofStatus,
)


def pytest_configure(config):
    """When a property test fails, hypothesis's pytest plugin imports its
    patch writer, whose libcst import warns; under filterwarnings = error
    that turns the failure into an INTERNALERROR which ends the session.
    Imported here once, with the warning ignored, a failing property is
    reported as a failure.  A hook, not module code: the benchmark loads
    this module for its fixtures and needs neither import."""

    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DeprecationWarning)
        try:
            import hypothesis.extra._patching  # noqa: F401
        except ImportError:
            pass


VARIGNON_DSL = """\
% name: varignon
% description: Midpoints of a quadrilateral form a parallelogram
% keyword: quadrilateral
% keyword: midpoint
point A 0 0
point B 4 0
point C 6 4
point D 0 6
midpoint P A B
midpoint Q B C
midpoint R C D
midpoint S D A
line a P Q
line b Q R
line c R S
line d S P
prove {
  hyp midpoint P A B
  hyp midpoint Q B C
  hyp midpoint R C D
  hyp midpoint S D A
  conclude parallel P Q S R
  conclude parallel P S Q R
}
"""

MIDPOINT_DSL = """\
% name: midpoint_thm
% description: The midpoint halves the segment
% keyword: midpoint
point A 0 0
point B 4 2
midpoint M A B
prove {
  ndg not_equal A B
  conclude midpoint M A B
  conclude segment_ratio A B A M 2
}
"""

COLLINEAR_DSL = """\
% name: collinear_free
point A 0 0
point B 1 0
point C 0 1
prove {
  conclude collinear A B C
}
"""

HARMONIC_DSL = """\
% name: harmonic_range
point A 0 0
point B 3 0
line l A B
online C l -1
online D l 3
prove {
  ndg not_equal A B
  conclude harmonic A B C D
  conclude equal segment_length A C const 1
}
"""

CIRCLE_DSL = """\
% name: circle_radii
point O 0 0
point X 2 0
circle k O X
oncircle P k 0.7853981633974483
oncircle Q k 2.356194490192345
prove {
  ndg not_equal O X
  conclude same_length O P O Q
}
"""

FOOT_DSL = """\
% name: perpendicular_foot
point A 0 0
point B 4 0
point C 1 3
line l A B
perp m l C
intersec F l m
prove {
  ndg not_equal A B
  conclude collinear A F B
  conclude perpendicular C F A B
}
"""

RATIO_DSL = """\
% name: half_segment
point A 0 0
point B 6 2
midpoint M A B
prove {
  conclude segment_ratio A B A M 2
}
"""

PARALLEL_DSL = """\
% name: parallel_transport
point A 0 0
point B 5 1
point C 1 4
line l A B
parallel m l C
online P m 2.5
prove {
  ndg not_equal A B
  ndg not_equal C P
  conclude parallel A B C P
}
"""

NOT_PARALLEL_DSL = """\
% name: triangle_sides
point A 0 0
point B 4 0
point C 1 3
prove {
  ndg not_equal A B
  conclude not_parallel A B A C
}
"""

MINIMAL_DSL = "point A 1 2\n"


def _varignon() -> Problem:
    return parse_dsl(VARIGNON_DSL)


def _midpoint_thm() -> Problem:
    p = parse_dsl(MIDPOINT_DSL)
    statement = (
        b'<math xmlns="http://www.w3.org/1998/Math/MathML">'
        b"<mi>M</mi><mo>=</mo><mfrac><mrow><mi>A</mi><mo>+</mo><mi>B</mi></mrow>"
        b"<mn>2</mn></mfrac></math>"
    )
    bib = BibEntry(id="euclid_elements", payload=b"<entry><title>Elements, Book I</title></entry>")
    info = dataclasses.replace(p.info, statement=statement, bibrefs=(bib,))
    return dataclasses.replace(p, info=info)


def _three_attempts() -> Problem:
    p = parse_dsl(VARIGNON_DSL)
    attempts = (
        ProofAttempt(
            prover="GCLCprover",
            version="2.0",
            method="areamethod",
            status=ProofStatus.PROVED,
            limits=ProofLimits(time_limit_seconds=600.0, iterations_limit=10000),
            measures=ProofMeasures(cpu_time_seconds=0.12, proof_steps=42),
            platform=Platform(computer_name="node1", clock_speed_mhz=3200.0, ram_mb=16384, operating_system="Linux"),
            outputs=(("proofOutput.txt", b"area method proof, 42 steps\n"),),
        ),
        ProofAttempt(
            prover="GCLCprover",
            version="2.0",
            method="wu",
            status=ProofStatus.TIMEOUT,
            limits=ProofLimits(time_limit_seconds=600.0),
        ),
        ProofAttempt(
            prover="CoqAM",
            version="8.16",
            method="areamethod",
            status=ProofStatus.GAVE_UP,
            measures=ProofMeasures(cpu_time_seconds=17.5),
        ),
    )
    info = dataclasses.replace(p.info, name="varignon_attempts")
    return dataclasses.replace(p, info=info, proofs=attempts)


def _opaque() -> Problem:
    payload = b'<circle_through_three_points out="k">A B C</circle_through_three_points>'
    constraints = (
        Constraint(output="A", kind=ConstraintKind.FREE_POINT),
        Constraint(output="B", kind=ConstraintKind.FREE_POINT),
        Constraint(output="C", kind=ConstraintKind.FREE_POINT),
        Constraint(output="k", kind=ConstraintKind.OPAQUE, opaque_tag="circle_through_three_points", opaque_payload=payload),
    )
    elements = (
        ElementInstance("A", GeoKind.POINT, (0.0, 0.0)),
        ElementInstance("B", GeoKind.POINT, (4.0, 0.0)),
        ElementInstance("C", GeoKind.POINT, (0.0, 3.0)),
        ElementInstance("k", GeoKind.CIRCLE, (2.0, 1.5, 2.5)),
    )
    return Problem(
        construction=Construction(elements=elements, constraints=constraints),
        info=ProblemInfo(name="opaque_circumcircle", keywords=("circumcircle",)),
    )


def _carried_files() -> Problem:
    p = parse_dsl(VARIGNON_DSL)
    info = dataclasses.replace(p.info, name="varignon_files")
    return dataclasses.replace(
        p,
        info=info,
        resources=(
            ("construction/preview.svg", b"<svg><!-- quadrilateral sketch --></svg>"),
            ("resources/diagram.png", b"\x89PNG\r\n\x1a\n fake"),
        ),
        metadata=(("metadata/i2g-lom.xml", b"<lom><title>varignon</title></lom>"),),
        private=(("private/example.org/notes.txt", b"internal notes\n"),),
    )


def bench_workloads():
    """bench/workloads.py, the generator of the benchmark's problems."""

    spec = importlib.util.spec_from_file_location("bench_workloads", Path(__file__).parents[1] / "bench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


def generated_container() -> bytes:
    """The container of a generated N=100 problem of the benchmark."""

    return bench_workloads()._generated_container(random.Random(3), 100, "g", 3)


def corrupt_intergeo(data: bytes) -> bytes:
    """``data`` with the middle byte of intergeo.xml's compressed data
    inverted, so that inflating the entry fails its CRC."""

    with zipfile.ZipFile(io.BytesIO(data)) as zf:
        info = zf.getinfo("construction/intergeo.xml")
    assert info.compress_type == zipfile.ZIP_DEFLATED
    name_len, extra_len = struct.unpack("<HH", data[info.header_offset + 26 : info.header_offset + 30])
    middle = info.header_offset + 30 + name_len + extra_len + info.compress_size // 2
    return data[:middle] + bytes([data[middle] ^ 0xFF]) + data[middle + 1 :]


# Encodings expat refuses as multi-byte when an XML declaration names them
MULTI_BYTE_ENCODINGS = ("shift_jis", "euc-jp", "gb2312", "big5", "utf-32", "cp932")


def declaring(encoding: str, data: bytes) -> bytes:
    """``data``, a document declared UTF-8, declared in ``encoding``."""

    assert b'encoding="UTF-8"' in data
    return data.replace(b'encoding="UTF-8"', f'encoding="{encoding}"'.encode(), 1)


def with_entry(data: bytes, name: str, payload: bytes) -> bytes:
    """The container ``data`` with entry ``name`` holding ``payload``."""

    buf = io.BytesIO()
    with zipfile.ZipFile(io.BytesIO(data)) as src, zipfile.ZipFile(buf, "w") as zf:
        for info in src.infolist():
            zf.writestr(info, payload if info.filename == name else src.read(info))
    return buf.getvalue()


def build_corpus() -> dict[str, Problem]:
    return {
        "varignon": _varignon(),
        "midpoint_thm": _midpoint_thm(),
        "collinear_free": parse_dsl(COLLINEAR_DSL),
        "harmonic_range": parse_dsl(HARMONIC_DSL),
        "circle_radii": parse_dsl(CIRCLE_DSL),
        "perpendicular_foot": parse_dsl(FOOT_DSL),
        "half_segment": parse_dsl(RATIO_DSL),
        "parallel_transport": parse_dsl(PARALLEL_DSL),
        "triangle_sides": parse_dsl(NOT_PARALLEL_DSL),
        "minimal": parse_dsl(MINIMAL_DSL),
        "varignon_attempts": _three_attempts(),
        "opaque_circumcircle": _opaque(),
        "varignon_files": _carried_files(),
    }


if "pytest" in sys.modules:
    import pytest

    @pytest.fixture(scope="session")
    def corpus() -> dict[str, Problem]:
        return build_corpus()

    @pytest.fixture(scope="session")
    def corpus_containers(corpus) -> dict[str, bytes]:
        return {name: pack(problem) for name, problem in corpus.items()}

    @pytest.fixture()
    def varignon(corpus) -> Problem:
        return corpus["varignon"]
