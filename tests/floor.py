"""The declared Python floor, checked: every interpreter gives one digest.

Run from anywhere, with the paths of the interpreters to compare:

    python tests/floor.py python3.10 python3.12 python3.13

Under each interpreter, the running one included, it takes one SHA-256
over these outputs:

- the pack bytes of the fixture corpus and of generated N=10/100/1000
  problems;
- whether ``unpack(pack(p)) == canonicalize_problem(p)`` for each of them;
- the violation digest of ``tests/test_violation_digest.py``;
- the output of both emitters on each of them;
- for each problem but N=1000, the archives of a chain of five
  ``add_proof_attempt`` calls, one at a time, and the message with which
  it refuses an attempt already present under another directory name;
- the check reports of ``GOLDEN``'s problems and seeds.

It also checks the pins those outputs must match: ``PACK_SHA256`` and
``PACK_CONTENT_SHA256`` of ``tests/test_container.py`` and ``GOLDEN`` of
``tests/test_numeric.py``, read with ``ast``, and ``REPORTS_SHA256`` of
``tests/test_violation_digest.py``.  It exits 0
when every pin holds under every interpreter and each gives the running
interpreter's digest, else 1.

Only the standard library is used: no pytest and no hypothesis, which an
interpreter kept for the floor need not have.  ``pyproject.toml`` declares
``requires-python``; the dataclasses generate the value classes' methods,
and zlib and expat come with the interpreter, so each may differ between
versions.  ``tests/test_floor.py`` runs the same check in-process.
"""

from __future__ import annotations

import ast
import hashlib
import io
import json
import os
import platform
import random
import subprocess
import sys
import zipfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TESTS = ROOT / "tests"


def pinned(test_file: str, name: str):
    """The literal that the test module ``test_file`` assigns to ``name``,
    read without importing the module."""

    tree = ast.parse((TESTS / test_file).read_text(encoding="utf-8"))
    value = next(
        node.value
        for node in tree.body
        if isinstance(node, ast.Assign) and [getattr(t, "id", None) for t in node.targets] == [name]
    )
    return ast.literal_eval(value)


def check() -> tuple[str, list[str]]:
    """The digest of the outputs under the running interpreter, and a line
    for each pin or round trip that does not hold."""

    # imported here, not at the top: run as a script, the package is found
    # only once the __main__ block below has put src/ on sys.path
    from conftest import bench_workloads, build_corpus
    from i2gatp.container import pack, unpack
    from i2gatp.dsl import emit_dsl, emit_prover_input, parse_dsl, predicate_text
    from i2gatp.errors import I2gatpError
    from i2gatp.model import canonicalize_problem
    from i2gatp.numeric import check_conjecture
    from oracles import content_digest_reference
    from test_violation_digest import REPORTS_SHA256, _reports, reports_sha256

    digest = hashlib.sha256()
    failures: list[str] = []

    def record(label: str, data: bytes) -> None:
        digest.update(f"{label}\0{len(data)}\0".encode() + data)

    corpus = build_corpus()
    workloads = bench_workloads()
    problems = dict(corpus)
    for n in (10, 100, 1000):
        problems[f"generated_{n}"] = parse_dsl(workloads.generate_dsl(random.Random(0), n, f"generated_{n}"))
    pack_sha256 = pinned("test_container.py", "PACK_SHA256")
    content_sha256 = pinned("test_container.py", "PACK_CONTENT_SHA256")
    for name, problem in problems.items():
        data = pack(problem)
        record(f"pack {name}", data)
        if name in corpus and hashlib.sha256(data).hexdigest() != pack_sha256[name]:
            failures.append(f"PACK_SHA256 of {name}")
        if name in corpus and content_digest_reference(data) != content_sha256[name]:
            failures.append(f"PACK_CONTENT_SHA256 of {name}")
        round_trip = unpack(data) == canonicalize_problem(problem)
        record(f"round trip {name}", b"%d" % round_trip)
        if not round_trip:
            failures.append(f"unpack(pack(p)) != canonicalize_problem(p) for {name}")
        for emit in (emit_dsl, emit_prover_input):
            try:
                text = emit(problem)
            except I2gatpError as exc:
                text = f"{type(exc).__name__}: {exc}"
            record(f"{emit.__name__} {name}", text.encode())
        if name != "generated_1000":
            refusal = _add_chain(data, record, name)
            record(f"add refusal {name}", refusal.encode())
            if refusal != "DuplicateAttempt: attempt Floor/1/m already present":
                failures.append(f"add_proof_attempt refused {name} with {refusal!r}")

    reports = reports_sha256(_reports(corpus))
    record("violation digest", reports.encode())
    if reports != REPORTS_SHA256:
        failures.append("REPORTS_SHA256")

    golden = pinned("test_numeric.py", "GOLDEN")
    for name, seed in golden:
        r = check_conjecture(problems[name], 100 if name == "generated_100" else 200, seed=seed)
        witness = None if r.witness is None else (predicate_text(r.witness.predicate), r.witness.assignment)
        got = (r.verdict.value, r.samples_total, r.samples_degenerate, r.samples_hypothesis_failed, r.samples_checked, witness)
        record(f"check {name} {seed}", repr(got).encode())
        if got != golden[name, seed]:
            failures.append(f"GOLDEN of {name} seed {seed}")
    return digest.hexdigest(), failures


def _add_chain(data: bytes, record, name: str) -> str:
    """Record the archive of each add of a chain of five to ``data``, and
    return the message of the refusal of the first attempt again once its
    directory is renamed, so that only its identity is left to match."""

    from i2gatp.container import add_proof_attempt, read_container_entries
    from i2gatp.errors import ContainerError
    from i2gatp.model import ProofAttempt, ProofMeasures, ProofStatus

    # each identity differs from the one before it in one field
    identities = [("Floor", "1", "m"), ("Floor", "2", "m"), ("Floor", "2", "wu"), ("Other", "2", "wu"), ("Other", "2", "m")]
    attempts = [
        ProofAttempt(*identity, ProofStatus.PROVED, measures=ProofMeasures(proof_steps=i), outputs=(("log.txt", b"run %d\n" % i * 50),))
        for i, identity in enumerate(identities)
    ]
    for i, attempt in enumerate(attempts):
        data = add_proof_attempt(data, attempt)
        record(f"add {i} {name}", data)
    buf = io.BytesIO()
    with zipfile.ZipFile(buf, "w") as zf:
        for path, content in read_container_entries(data):
            zf.writestr(path.replace("/proofFloor1m/", "/proofMoved/"), content or b"")
    try:
        add_proof_attempt(buf.getvalue(), attempts[0])
    except ContainerError as exc:
        return str(exc)
    return "not refused"


def main(args: list[str]) -> int:
    if args == ["--one"]:  # this interpreter's part, for the run that compares
        print(json.dumps([platform.python_version(), *check()]))
        return 0
    results = {sys.executable: [platform.python_version(), *check()]}
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    for python in args:
        run = subprocess.run(
            [python, str(Path(__file__).resolve()), "--one"], env=env, capture_output=True, text=True, timeout=600
        )
        if run.returncode:
            last = (run.stderr.strip().splitlines() or ["no output"])[-1]
            results[python] = ["?", f"exited {run.returncode}: {last}", []]
        else:
            results[python] = json.loads(run.stdout)
    expected = results[sys.executable][1]
    held = True
    for python, (version, digest, failures) in results.items():
        print(f"floor: {version} {digest} {python}")
        for failure in failures:
            print(f"floor: {version}: does not hold: {failure}")
        held = held and digest == expected and not failures
    if not held:
        print("floor: the interpreters disagree or a pin does not hold")
    return 0 if held else 1


if __name__ == "__main__":
    sys.path.insert(0, str(ROOT / "src"))
    sys.exit(main(sys.argv[1:]))
