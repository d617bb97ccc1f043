"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

from __future__ import annotations

import io
import math
import random
import re
import time
import zipfile
from fractions import Fraction

from i2gatp.container import (
    canonicalize_container,
    entries_from_problem,
    pack,
    strip_to_i2g,
    unpack,
    validate_container,
)
from i2gatp.dsl import emit_dsl, parse_dsl
from i2gatp.model import (
    Collinear,
    Harmonic,
    Midpoint,
    NotParallel,
    Parallel,
    Perpendicular,
    SameLength,
    SegmentRatio,
)
from i2gatp.numeric import (
    ScenePoint,
    Tolerance,
    Verdict,
    check_conjecture,
    eval_predicate,
)
from i2gatp.xml_codec import DocumentKind, canonicalize, validate_document

from conftest import VARIGNON_DSL
from oracles import (
    collinear_exact,
    midpoint_exact,
    parallel_exact,
    perpendicular_exact,
    same_length_exact,
)


def _report(number: int, name: str, ok: bool) -> None:
    print(f"acceptance criterion {number} ({name}): {'PASS' if ok else 'FAIL'}")


# ---------------------------------------------------------------------------
# 1. Container round-trip over the corpus


def test_criterion_1_container_round_trip(corpus, corpus_containers):
    required = {"varignon", "midpoint_thm", "varignon_attempts", "opaque_circumcircle"}
    ok = required <= set(corpus_containers) and len(corpus_containers) >= 10
    started = time.perf_counter()
    for name, data in corpus_containers.items():
        ok = ok and canonicalize_container(data) == data
    elapsed = time.perf_counter() - started
    ok = ok and elapsed < 2.0
    _report(1, "container round-trip", ok)
    assert ok, f"corpus={len(corpus_containers)} elapsed={elapsed:.3f}s"


# ---------------------------------------------------------------------------
# 2. i2g backwards compatibility


def test_criterion_2_i2g_extraction(corpus_containers):
    ok = True
    for name, data in corpus_containers.items():
        with zipfile.ZipFile(io.BytesIO(data)) as zf:
            before = {i.filename: zf.read(i) for i in zf.infolist() if not i.is_dir()}
        stripped = strip_to_i2g(data)
        with zipfile.ZipFile(io.BytesIO(stripped)) as zf:
            after = {i.filename: zf.read(i) for i in zf.infolist() if not i.is_dir()}
        ok = ok and not any(n.startswith(("information/", "conjecture/", "proofs/")) for n in after)
        ok = ok and after["intergeo.xml"] == before["construction/intergeo.xml"]
        # removal is exact: everything else survives at its (relocated) path
        expected = {
            (n[len("construction/") :] if n.startswith("construction/") else n): d
            for n, d in before.items()
            if not n.startswith(("information/", "conjecture/", "proofs/"))
        }
        ok = ok and after == expected
        ok = ok and strip_to_i2g(stripped) == stripped
    _report(2, "i2g extraction", ok)
    assert ok


# ---------------------------------------------------------------------------
# 3. XML round-trip plus mutation corpus

_KIND_BY_PATH = {
    "information/information.xml": DocumentKind.INFORMATION,
    "construction/intergeo.xml": DocumentKind.CONSTRUCTION,
    "conjecture/conjecture.xml": DocumentKind.CONJECTURE,
}


def _corpus_documents(corpus):
    docs = {}
    for name, problem in corpus.items():
        for path, data in entries_from_problem(problem):
            if data is None:
                continue
            if path in _KIND_BY_PATH:
                docs[(name, path)] = (_KIND_BY_PATH[path], data)
            elif path.endswith("/proofInfo.xml"):
                docs[(name, path)] = (DocumentKind.PROOF_INFO, data)
    return docs


def _doc(docs, name, path):
    return docs[(name, path)][1]


def _mutations(docs):
    """(label, kind, mutated bytes, expected violation code)."""

    info_v = _doc(docs, "varignon", "information/information.xml")
    info_m = _doc(docs, "midpoint_thm", "information/information.xml")
    conj_v = _doc(docs, "varignon", "conjecture/conjecture.xml")
    conj_h = _doc(docs, "harmonic_range", "conjecture/conjecture.xml")
    conj_m = _doc(docs, "midpoint_thm", "conjecture/conjecture.xml")
    cons_v = _doc(docs, "varignon", "construction/intergeo.xml")
    cons_h = _doc(docs, "harmonic_range", "construction/intergeo.xml")
    cons_c = _doc(docs, "circle_radii", "construction/intergeo.xml")
    cons_f = _doc(docs, "perpendicular_foot", "construction/intergeo.xml")
    proof = _doc(docs, "varignon_attempts", "proofs/proofGCLCprover2.0areamethod/proofInfo.xml")

    def sub(doc: bytes, old: bytes, new: bytes) -> bytes:
        assert old in doc
        return doc.replace(old, new)

    bib = b'<bibentry id="euclid_elements"><entry><title>Elements, Book I</title></entry></bibentry>'
    return [
        ("drop required name tag", DocumentKind.INFORMATION,
         sub(info_v, b"  <name>varignon</name>\n", b""), "MissingName"),
        ("truncate document", DocumentKind.INFORMATION,
         info_v[: len(info_v) - 10], "MalformedXml"),
        ("duplicate keyword", DocumentKind.INFORMATION,
         sub(info_v, b"<keyword>midpoint</keyword>", b"<keyword>quadrilateral</keyword>"), "DuplicateKeyword"),
        ("duplicate bibentry id", DocumentKind.INFORMATION,
         sub(info_m, bib, bib + bib), "DuplicateId"),
        ("drop conclusion", DocumentKind.CONJECTURE,
         re.sub(rb"  <conclusion>.*</conclusion>\n", b"", conj_v, flags=re.S), "MissingConclusion"),
        ("unknown predicate tag", DocumentKind.CONJECTURE,
         sub(conj_v, b"<parallel>P Q S R</parallel>", b"<cocircular>P Q S R</cocircular>"), "UnknownPredicate"),
        ("wrong predicate arity", DocumentKind.CONJECTURE,
         sub(conj_v, b"<midpoint>P A B</midpoint>", b"<midpoint>P A</midpoint>"), "ArityError"),
        ("negative segment ratio", DocumentKind.CONJECTURE,
         sub(conj_m, b'ratio="2.0"', b'ratio="-2.0"'), "BadRatio"),
        ("malformed constant", DocumentKind.CONJECTURE,
         sub(conj_h, b'value="1.0"', b'value="abc"'), "BadNumber"),
        ("drop elements part", DocumentKind.CONSTRUCTION,
         re.sub(rb"  <elements>.*</elements>\n", b"", cons_v, flags=re.S), "MissingElementsPart"),
        ("duplicate element id", DocumentKind.CONSTRUCTION,
         sub(cons_v, b'<point id="B" x="4.0" y="0.0"/>', b'<point id="A" x="4.0" y="0.0"/>'), "DuplicateId"),
        ("forward reference", DocumentKind.CONSTRUCTION,
         sub(sub(cons_v, b'    <free_point out="A"/>\n', b""), b"  </constraints>",
             b'    <free_point out="A"/>\n  </constraints>'), "ForwardReference"),
        ("dangling reference", DocumentKind.CONSTRUCTION,
         sub(cons_v, b'<midpoint_of_two_points out="P">A B<', b'<midpoint_of_two_points out="P">A Z<'), "DanglingReference"),
        ("zero line coefficients", DocumentKind.CONSTRUCTION,
         sub(cons_v, b'<line a="0.5547001962252291" b="-0.8320502943378437" c="-1.1094003924504583" id="a"/>',
             b'<line a="0.0" b="0.0" c="0.0" id="a"/>'), "ZeroLine"),
        ("negative circle radius", DocumentKind.CONSTRUCTION,
         sub(cons_c, b'r="2.0"', b'r="-2.0"'), "NegativeRadius"),
        ("input of wrong kind", DocumentKind.CONSTRUCTION,
         sub(cons_f, b'<intersection_of_two_lines out="F">l m<', b'<intersection_of_two_lines out="F">A m<'), "KindMismatch"),
        ("missing stored parameter", DocumentKind.CONSTRUCTION,
         sub(cons_h, b'<point_on_line out="C" parameter="-1.0">l</point_on_line>',
             b'<point_on_line out="C">l</point_on_line>'), "MissingParameter"),
        ("unknown encoding declaration", DocumentKind.CONSTRUCTION,
         sub(cons_v, b'encoding="UTF-8"', b'encoding="inf"'), "MalformedXml"),
        ("unknown status text", DocumentKind.PROOF_INFO,
         sub(proof, b"<status>proved</status>", b"<status>maybe</status>"), "UnknownStatus"),
        ("negative measure", DocumentKind.PROOF_INFO,
         sub(proof, b"<proof_steps>42</proof_steps>", b"<proof_steps>-42</proof_steps>"), "NegativeMeasure"),
        ("negative limit", DocumentKind.PROOF_INFO,
         sub(proof, b"<iterations_limit>10000</iterations_limit>", b"<iterations_limit>-1</iterations_limit>"), "NegativeLimit"),
        ("identifier unfit for a directory name", DocumentKind.PROOF_INFO,
         sub(proof, b"<prover>GCLCprover</prover>", b"<prover>GCLC prover</prover>"), "BadName"),
        ("malformed measure number", DocumentKind.PROOF_INFO,
         sub(proof, b"<CPU_time>0.12</CPU_time>", b"<CPU_time>fast</CPU_time>"), "BadNumber"),
    ]


def _container_mutations(corpus_containers):
    def entries(data):
        with zipfile.ZipFile(io.BytesIO(data)) as zf:
            return [(i.filename, None if i.is_dir() else zf.read(i)) for i in zf.infolist()]

    def rezip(items):
        buf = io.BytesIO()
        with zipfile.ZipFile(buf, "w") as zf:
            for name, data in items:
                zf.writestr(name, data if data is not None else b"")
        return buf.getvalue()

    attempts = entries(corpus_containers["varignon_attempts"])
    wu = next(d for n, d in attempts if n == "proofs/proofGCLCprover2.0wu/proofInfo.xml")
    varignon = entries(corpus_containers["varignon"])
    undefined = [
        (n, d.replace(b"<midpoint>P A B</midpoint>", b"<midpoint>P A Zq</midpoint>") if n == "conjecture/conjecture.xml" else d)
        for n, d in varignon
    ]
    assert undefined != varignon
    return [
        ("duplicate attempt triple",
         rezip(attempts + [("proofs/proofSomethingelse1/proofInfo.xml", wu)]), "DuplicateAttempt"),
        ("bad proof directory name",
         rezip(attempts + [("proofs/myattempt/notes.txt", b"x")]), "BadProofDirName"),
        ("missing intergeo",
         rezip([(n, d) for n, d in attempts if n != "construction/intergeo.xml"]), "MissingIntergeo"),
        ("conjecture names an undefined point", rezip(undefined), "UnresolvedId"),
    ]


def test_criterion_3_xml_round_trip_and_mutations(corpus, corpus_containers):
    docs = _corpus_documents(corpus)
    ok = len(docs) >= 20
    for (name, path), (kind, data) in docs.items():
        ok = ok and canonicalize(kind, data) == data
        ok = ok and validate_document(kind, data) == []
    mutations = _mutations(docs)
    container_mutations = _container_mutations(corpus_containers)
    ok = ok and (len(mutations) + len(container_mutations)) >= 15
    failures = []
    reports = [(label, validate_document(kind, mutated), expected) for label, kind, mutated, expected in mutations]
    reports += [(label, validate_container(mutated), expected) for label, mutated, expected in container_mutations]
    for label, violations, expected in reports:
        codes = {v.code for v in violations}
        if expected not in codes:
            failures.append((label, expected, codes))
        # one owner per invariant: no finding is reported twice
        pairs = [(v.code, v.path) for v in violations]
        if len(pairs) != len(set(pairs)):
            failures.append((label, "repeated (code, path)", pairs))
    ok = ok and not failures
    _report(3, "xml round-trip and mutation corpus", ok)
    assert ok, failures


# ---------------------------------------------------------------------------
# 4. Predicate/oracle equivalence


def _exact_points(pts):
    return [(Fraction(x), Fraction(y)) for x, y in pts]


def test_criterion_4_predicate_oracle_equivalence():
    rng = random.Random(20240)
    tol = Tolerance(eps_rel=1e-9)
    started = time.perf_counter()
    checked = 0
    disagreements = 0

    def scene_of(pts):
        return {n: ScenePoint(float(x), float(y)) for n, (x, y) in zip("ABCD", pts)}

    def rnd_point(lo=-100, hi=100):
        return (rng.randint(lo, hi), rng.randint(lo, hi))

    for case in range(2000):
        engineered = case % 2 == 0
        # collinear
        if engineered:
            a = rnd_point(-50, 50)
            dx, dy = rng.randint(-5, 5), rng.randint(-5, 5)
            k1, k2 = rng.randint(-9, 9), rng.randint(-9, 9)
            pts = [a, (a[0] + k1 * dx, a[1] + k1 * dy), (a[0] + k2 * dx, a[1] + k2 * dy)]
        else:
            pts = [rnd_point() for _ in range(3)]
        f = _exact_points(pts)
        got = eval_predicate(scene_of(pts), Collinear("A", "B", "C"), tol)[0]
        disagreements += got != collinear_exact(f[0], f[1], f[2])
        checked += 1

        # parallel
        if engineered:
            a, c = rnd_point(-50, 50), rnd_point(-50, 50)
            dx, dy = rng.randint(-5, 5), rng.randint(-5, 5)
            k1, k2 = rng.randint(-9, 9), rng.randint(-9, 9)
            pts = [a, (a[0] + k1 * dx, a[1] + k1 * dy), c, (c[0] + k2 * dx, c[1] + k2 * dy)]
        else:
            pts = [rnd_point() for _ in range(4)]
        f = _exact_points(pts)
        got = eval_predicate(scene_of(pts), Parallel("A", "B", "C", "D"), tol)[0]
        disagreements += got != parallel_exact(*f)
        checked += 1

        # perpendicular
        if engineered:
            a, c = rnd_point(-50, 50), rnd_point(-50, 50)
            dx, dy = rng.randint(-5, 5), rng.randint(-5, 5)
            k1, k2 = rng.randint(-9, 9), rng.randint(-9, 9)
            pts = [a, (a[0] + k1 * dx, a[1] + k1 * dy), c, (c[0] - k2 * dy, c[1] + k2 * dx)]
        else:
            pts = [rnd_point() for _ in range(4)]
        f = _exact_points(pts)
        got = eval_predicate(scene_of(pts), Perpendicular("A", "B", "C", "D"), tol)[0]
        disagreements += got != perpendicular_exact(*f)
        checked += 1

        # midpoint (scene ids M, A, B)
        if engineered:
            a = (2 * rng.randint(-50, 50), 2 * rng.randint(-50, 50))
            b = (2 * rng.randint(-50, 50), 2 * rng.randint(-50, 50))
            pts = [((a[0] + b[0]) // 2, (a[1] + b[1]) // 2), a, b]
        else:
            pts = [rnd_point() for _ in range(3)]
        f = _exact_points(pts)
        scene = {n: ScenePoint(float(x), float(y)) for n, (x, y) in zip("MAB", pts)}
        got = eval_predicate(scene, Midpoint("M", "A", "B"), tol)[0]
        disagreements += got != midpoint_exact(f[0], f[1], f[2])
        checked += 1

        # same_length
        if engineered:
            a, c = rnd_point(-50, 50), rnd_point(-50, 50)
            dx, dy = rng.randint(-9, 9), rng.randint(-9, 9)
            if rng.random() < 0.5:
                ex, ey = dx, dy  # translate
            else:
                ex, ey = -dy, dx  # rotate a quarter turn
            pts = [a, (a[0] + dx, a[1] + dy), c, (c[0] + ex, c[1] + ey)]
        else:
            pts = [rnd_point() for _ in range(4)]
        f = _exact_points(pts)
        got = eval_predicate(scene_of(pts), SameLength("A", "B", "C", "D"), tol)[0]
        disagreements += got != same_length_exact(*f)
        checked += 1

    elapsed = time.perf_counter() - started
    ok = checked >= 10_000 and disagreements == 0 and elapsed < 5.0
    _report(4, "predicate/oracle equivalence", ok)
    assert ok, f"checked={checked} disagreements={disagreements} elapsed={elapsed:.2f}s"


# ---------------------------------------------------------------------------
# 5. True-theorem consistency


def test_criterion_5_varignon_consistency(varignon):
    started = time.perf_counter()
    report = check_conjecture(varignon, 1000, seed=42)
    elapsed = time.perf_counter() - started
    again = check_conjecture(varignon, 1000, seed=42)
    ok = (
        report.verdict is Verdict.CONSISTENT_OVER_SAMPLES
        and report.samples_checked >= 990
        and report.witness is None
        and report == again
        and elapsed < 1.0
    )
    _report(5, "true-theorem consistency", ok)
    assert ok, f"verdict={report.verdict} checked={report.samples_checked} elapsed={elapsed:.3f}s"


# ---------------------------------------------------------------------------
# 6. False-conjecture falsification


def test_criterion_6_falsification(corpus):
    problem = corpus["collinear_free"]
    ok = True
    for seed in range(1, 21):
        report = check_conjecture(problem, 100, seed=seed)
        ok = ok and report.verdict is Verdict.FALSIFIED
        ok = ok and report.samples_total <= 4  # witness found within the first 5 samples
        pts = {fid: (Fraction(x), Fraction(y)) for fid, (x, y) in report.witness.assignment}
        ok = ok and not collinear_exact(pts["A"], pts["B"], pts["C"])
    _report(6, "false-conjecture falsification", ok)
    assert ok


# ---------------------------------------------------------------------------
# 7. Harmonic exactness


def test_criterion_7_harmonic_exactness():
    scene = {
        "A": ScenePoint(0.0, 0.0),
        "B": ScenePoint(3.0, 0.0),
        "C": ScenePoint(1.0, 0.0),
        "D": ScenePoint(-3.0, 0.0),
    }
    tol = Tolerance()
    truth, margin = eval_predicate(scene, Harmonic("A", "B", "C", "D"), tol)
    residual = margin + tol.eps_rel
    ok = truth and residual < 1e-12
    _report(7, "harmonic exactness", ok)
    assert ok, f"truth={truth} residual={residual}"


# ---------------------------------------------------------------------------
# 8. Cross-format equivalence (hub property)


def test_criterion_8_cross_format_equivalence():
    direct = parse_dsl(VARIGNON_DSL)
    canonical_text = emit_dsl(direct)
    via_container = unpack(pack(direct))
    chained_text = emit_dsl(via_container)
    report_direct = check_conjecture(direct, 500, seed=42)
    report_chained = check_conjecture(via_container, 500, seed=42)
    ok = (
        chained_text == canonical_text
        and parse_dsl(chained_text) == direct
        and report_direct == report_chained
    )
    _report(8, "cross-format equivalence", ok)
    assert ok


# ---------------------------------------------------------------------------
# 9. Invariance suite


def test_criterion_9_invariance_suite():
    rng = random.Random(777)
    tol = Tolerance()
    violations = 0
    scenes = 0

    def transformed(pts, cos_t, sin_t, tx, ty):
        return {
            n: ScenePoint(p.x * cos_t - p.y * sin_t + tx, p.x * sin_t + p.y * cos_t + ty)
            for n, p in pts.items()
        }

    for _ in range(1000):
        theta = rng.uniform(0.0, 2.0 * math.pi)
        cos_t, sin_t = math.cos(theta), math.sin(theta)
        tx, ty = rng.uniform(-100.0, 100.0), rng.uniform(-100.0, 100.0)

        # generic quadruple (negation coherence + false-side preservation)
        quad = {n: ScenePoint(rng.uniform(-50.0, 50.0), rng.uniform(-50.0, 50.0)) for n in "ABCD"}
        moved = transformed(quad, cos_t, sin_t, tx, ty)
        for pred in (
            Collinear("A", "B", "C"),
            Parallel("A", "B", "C", "D"),
            Perpendicular("A", "B", "C", "D"),
            Midpoint("A", "B", "C"),
            SameLength("A", "B", "C", "D"),
            SegmentRatio("A", "B", "C", "D", 2.0),
        ):
            if eval_predicate(quad, pred, tol)[0] != eval_predicate(moved, pred, tol)[0]:
                violations += 1
        par = eval_predicate(quad, Parallel("A", "B", "C", "D"), tol)[0]
        npar = eval_predicate(quad, NotParallel("A", "B", "C", "D"), tol)[0]
        if npar != (not par):
            violations += 1

        # true-by-construction configurations
        ax, ay = rng.uniform(-40.0, 40.0), rng.uniform(-40.0, 40.0)
        bx, by = rng.uniform(-40.0, 40.0), rng.uniform(-40.0, 40.0)
        true_pts = {
            "A": ScenePoint(ax, ay),
            "B": ScenePoint(bx, by),
            "M": ScenePoint((ax + bx) / 2.0, (ay + by) / 2.0),
            "C": ScenePoint(ax + (bx - ax) * 2.0, ay + (by - ay) * 2.0),  # collinear with A, B
        }
        moved_true = transformed(true_pts, cos_t, sin_t, tx, ty)
        for pred in (Midpoint("M", "A", "B"), Collinear("A", "B", "C"), SegmentRatio("A", "C", "A", "B", 2.0)):
            if not eval_predicate(true_pts, pred, tol)[0] or not eval_predicate(moved_true, pred, tol)[0]:
                violations += 1

        # harmonic range along a random direction: A, B at 0 and tb, C inside, D outside
        dx, dy = math.cos(theta / 2.0), math.sin(theta / 2.0)
        tb = rng.uniform(2.0, 10.0)
        tc = rng.uniform(0.5, tb - 0.5)
        td = (tc * tb) / (2.0 * tc - tb) if abs(2.0 * tc - tb) > 0.3 else None
        if td is not None and abs(td) < 1e4:
            h = {
                "A": ScenePoint(ax, ay),
                "B": ScenePoint(ax + tb * dx, ay + tb * dy),
                "C": ScenePoint(ax + tc * dx, ay + tc * dy),
                "D": ScenePoint(ax + td * dx, ay + td * dy),
            }
            moved_h = transformed(h, cos_t, sin_t, tx, ty)
            if eval_predicate(h, Harmonic("A", "B", "C", "D"), tol)[0] != eval_predicate(
                moved_h, Harmonic("A", "B", "C", "D"), tol
            )[0]:
                violations += 1
        scenes += 1

    ok = scenes == 1000 and violations == 0
    _report(9, "invariance suite", ok)
    assert ok, f"scenes={scenes} violations={violations}"
