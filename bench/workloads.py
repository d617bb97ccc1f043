"""Seeded inputs of the benchmark workloads, each with its known answer.

A workload is a list of jobs.  A job is what one caller does with one input:
a short pipeline of operations, most of them ``i2gatp`` CLI commands fed
through ``-``.  Every operation carries the answer it must produce, and
that answer comes from how the input was built (a true construction step,
a false conjecture, a planted mutation), never from running the program.
The one exception is ``convert`` and ``add_proof_attempt`` output, which
must equal the bytes the same input produced during set-up.

The same workload name and seed give the same inputs, byte for byte.
"""

from __future__ import annotations

import dataclasses
import importlib.util
import io
import json
import random
import re
import zipfile
from dataclasses import dataclass
from pathlib import Path

from i2gatp.container import pack
from i2gatp.dsl import parse_dsl
from i2gatp.model import Problem, ProofAttempt, ProofLimits, ProofMeasures, ProofStatus

ROOT = Path(__file__).resolve().parent.parent

# Why each input class is in each workload.
INPUT_CLASSES = {
    "ingest": {
        "generated_10": "distinct uploads of 10 steps: zip reads, XML parsing and model validation",
        "generated_100": "distinct uploads of 100 steps",
        "generated_1000": "distinct uploads of 1000 steps: XML parsing and validation of a large scene, in the tail",
        "fixture": "the 13 hand-written fixture problems: every document kind, opaque steps, carried files",
        "mutated": "about one upload in ten breaks one invariant and must be reported with its code",
    },
    "author": {
        "generated_10": "DSL sources of 10 steps: DSL parsing, pack, serialization and zip writes",
        "generated_100": "DSL sources of 100 steps",
        "generated_1000": "DSL sources of 1000 steps: a large scene, in the tail",
        "fixture": "the fixture DSL sources, including one without a conjecture that has no prover input",
    },
    "check": {
        "theorem": "fixture theorems at 1000 trials: the trial loop on small scenes",
        "false": "false conjectures, falsified on an early trial",
        "vacuous": "a contradictory ndg condition rejects every trial",
        "no_conjecture": "problems without a conjecture exit with a format error",
        "generated_100": "generated theorems of 100 steps and 27 conclusions at the CLI's default 100 trials",
        "generated_1000": "generated theorems of 1000 steps at 3 trials: the per-predicate scan over a large scene, in the tail",
    },
}

# The percentile that each workload reports as latency_p99_ms.  It is fixed
# per workload, so its meaning does not move with machine speed: a run goes
# on until at least ten latencies lie beyond it (see MIN_OPS).  ``check``
# has too few operations per pass for p99 within a run's time.
TAIL_PERCENTILE = {"ingest": 99, "author": 99, "check": 95}
MIN_OPS = {name: round(10 * 100 / (100 - p)) for name, p in TAIL_PERCENTILE.items()}

# Exit codes of the CLI (see i2gatp.cli).
EXIT_OK, EXIT_INVALID, EXIT_FORMAT, EXIT_FALSIFIED = 0, 1, 2, 4


@dataclass(frozen=True)
class Step:
    """One operation and its known answer.

    ``data`` is the operation's input bytes, or the index of an earlier
    step of the same job whose output it reads.  ``expect`` names the
    output check (see :func:`output_ok`) and ``answer`` is what that check
    compares with.
    """

    command: str
    argv: tuple[str, ...] = ()
    data: bytes | int = b""
    attempt: ProofAttempt | None = None
    exit_code: int = EXIT_OK
    expect: str = "exit"
    answer: object = None


@dataclass(frozen=True)
class Job:
    input_class: str
    steps: tuple[Step, ...]


# ---------------------------------------------------------------------------
# Generated constructions


def _quotas(n: int) -> dict[str, int]:
    """Step kinds of an n-step construction; a foot takes two steps."""

    feet, midpoints, lines = n // 8, n * 3 // 20, n // 5
    return {"foot": feet, "midpoint": midpoints, "line": lines, "point": n - 2 * feet - midpoints - lines}


def generate_dsl(rng: random.Random, n: int, name: str) -> str:
    """Canonical DSL text of an n-step construction whose conclusions hold.

    Steps are free points, midpoints, lines through two free points and
    perpendicular feet (``perp`` then ``intersec``).  Each midpoint adds
    ``midpoint M A B`` and each foot ``perpendicular C F A B``.  Lines join
    only free points with distinct coordinates, so no step is degenerate.
    """

    remaining = _quotas(n)
    lines_out = [f"% name: {name}", f"% description: generated construction of {n} steps", "% keyword: generated"]
    free: list[str] = []
    points: list[str] = []
    lines: list[tuple[str, str, str]] = []
    coords: set[tuple[float, float]] = set()
    conclusions: list[str] = []
    while any(remaining.values()):
        ready = [k for k, left in remaining.items() if left and _prerequisites_met(k, free, points, lines)]
        kind = rng.choices(ready, weights=[remaining[k] for k in ready])[0]
        remaining[kind] -= 1
        i = len(lines_out) - 3  # index of this step
        if kind == "point":
            xy = (round(rng.uniform(-10.0, 10.0), 2), round(rng.uniform(-10.0, 10.0), 2))
            while xy in coords:
                xy = (round(rng.uniform(-10.0, 10.0), 2), round(rng.uniform(-10.0, 10.0), 2))
            coords.add(xy)
            pid = f"A{i}"
            lines_out.append(f"point {pid} {xy[0]!r} {xy[1]!r}")
            free.append(pid)
            points.append(pid)
        elif kind == "midpoint":
            a, b = rng.sample(points, 2)
            mid = f"M{i}"
            lines_out.append(f"midpoint {mid} {a} {b}")
            conclusions.append(f"midpoint {mid} {a} {b}")
            points.append(mid)
        elif kind == "line":
            a, b = rng.sample(free, 2)
            lid = f"L{i}"
            lines_out.append(f"line {lid} {a} {b}")
            lines.append((lid, a, b))
        else:
            lid, a, b = rng.choice(lines)
            c = rng.choice(points)
            lines_out.append(f"perp K{i} {lid} {c}")
            lines_out.append(f"intersec F{i} {lid} K{i}")
            conclusions.append(f"perpendicular {c} F{i} {a} {b}")
            points.append(f"F{i}")
    lines_out.append("prove {")
    lines_out.extend(f"  conclude {c}" for c in conclusions)
    lines_out.append("}")
    return "\n".join(lines_out) + "\n"


def _prerequisites_met(kind: str, free: list[str], points: list[str], lines: list) -> bool:
    if kind == "midpoint":
        return len(points) >= 2
    if kind == "line":
        return len(free) >= 2
    if kind == "foot":
        return bool(lines)
    return True


_PROVERS = ("GCLCprover", "CoqAM", "OpenGeoProver", "JGEX")


def generate_attempts(rng: random.Random, count: int) -> tuple[ProofAttempt, ...]:
    """``count`` proof attempts with distinct directory names."""

    attempts = []
    for i in range(count):
        outputs = ()
        if rng.random() < 0.5:
            outputs = (("proofOutput.txt", f"proof log {rng.getrandbits(64):016x}\n".encode() * rng.randint(1, 40)),)
        attempts.append(
            ProofAttempt(
                prover=rng.choice(_PROVERS),
                version=f"{rng.randint(1, 9)}.{rng.randint(0, 9)}",
                method=f"m{i:02d}",
                status=rng.choice(list(ProofStatus)),
                limits=ProofLimits(time_limit_seconds=float(rng.choice((60, 600, 3600)))),
                measures=ProofMeasures(cpu_time_seconds=round(rng.uniform(0.0, 60.0), 3), proof_steps=rng.randint(1, 5000)),
                outputs=outputs,
            )
        )
    return tuple(attempts)


# ---------------------------------------------------------------------------
# Fixture problems


def load_fixture_module():
    """The test suite's fixture module (tests/conftest.py), loaded by path."""

    spec = importlib.util.spec_from_file_location("i2gatp_fixture_corpus", ROOT / "tests" / "conftest.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# Known answers of the fixtures under random sampling; the rest are
# theorems.  Three random points are almost never collinear, and the
# harmonic_range points sit at fixed parameters along a random line, which
# is harmonic only for the drawn instance.  minimal and opaque_circumcircle
# carry no conjecture.
_FIXTURE_VERDICTS = {
    "collinear_free": "falsified",
    "harmonic_range": "falsified",
    "minimal": None,
    "opaque_circumcircle": None,
}

# The demo's false and vacuous conjectures (demos/check_conjectures.py).
_BOGUS_DSL = "point A 0 0\npoint B 1 0\npoint C 0 1\nprove { conclude collinear A B C }\n"
_VACUOUS_DSL = "point A 0 0\npoint B 1 1\nprove { ndg not_equal A A ; conclude not_equal A B }\n"


# ---------------------------------------------------------------------------
# Container mutations, after the acceptance suite's mutation list


def _entries(data: bytes) -> list[tuple[str, bytes | None]]:
    with zipfile.ZipFile(io.BytesIO(data)) as zf:
        return [(i.filename, None if i.is_dir() else zf.read(i)) for i in zf.infolist()]


def _rezip(entries: list[tuple[str, bytes | None]]) -> bytes:
    buf = io.BytesIO()
    with zipfile.ZipFile(buf, "w") as zf:
        for name, data in entries:
            zf.writestr(zipfile.ZipInfo(name, date_time=(1980, 1, 1, 0, 0, 0)), data if data is not None else b"")
    return buf.getvalue()


def _edit(entries, path_re: str, old: str, new: str):
    """Apply one regex substitution to the first entry whose path matches."""

    out, done = [], False
    for name, data in entries:
        if not done and data is not None and re.fullmatch(path_re, name):
            edited = re.sub(old.encode(), new.encode(), data, count=1, flags=re.S)
            if edited == data:
                raise ValueError(f"mutation {old!r} does not apply to {name}")
            data, done = edited, True
        out.append((name, data))
    if not done:
        raise ValueError(f"no entry matches {path_re}")
    return out


_INFO = r"information/information\.xml"
_CONJ = r"conjecture/conjecture\.xml"
_CONS = r"construction/intergeo\.xml"
_PROOF = r"proofs/[^/]+/proofInfo\.xml"

# (label, expected violation code, entries -> mutated entries).  Generated
# problems always have a midpoint, a foot, a line and proof attempts.
MUTATIONS = (
    ("drop required name tag", "MissingName", lambda e: _edit(e, _INFO, r"  <name>[^<]*</name>\n", "")),
    ("truncate document", "MalformedXml", lambda e: _edit(e, _INFO, r".{10}\Z", "")),
    ("drop conclusion", "MissingConclusion", lambda e: _edit(e, _CONJ, r"  <conclusion>.*</conclusion>\n", "")),
    ("unknown predicate tag", "UnknownPredicate", lambda e: _edit(e, _CONJ, r"<midpoint>([^<]*)</midpoint>", r"<cocircular>\1</cocircular>")),
    ("wrong predicate arity", "ArityError", lambda e: _edit(e, _CONJ, r"<midpoint>(\S+ \S+) \S+</midpoint>", r"<midpoint>\1</midpoint>")),
    ("duplicate element id", "DuplicateId", lambda e: _edit(e, _CONS, r'(<point id="A\d+"[^>]*>\s*<point id=")A\d+"', r'\1A0"')),
    ("dangling reference", "DanglingReference", lambda e: _edit(e, _CONS, r'(<midpoint_of_two_points out="\w+">)\w+', r"\1Zz9")),
    ("input of wrong kind", "KindMismatch", lambda e: _edit(e, _CONS, r'(<intersection_of_two_lines out="\w+">)\w+', r"\1A0")),
    ("unknown status text", "UnknownStatus", lambda e: _edit(e, _PROOF, r"<status>[a-z]+</status>", "<status>maybe</status>")),
    ("negative measure", "NegativeMeasure", lambda e: _edit(e, _PROOF, r"<proof_steps>(\d+)</proof_steps>", r"<proof_steps>-\1</proof_steps>")),
    ("bad proof directory name", "BadProofDirName", lambda e: e + [("proofs/myattempt/notes.txt", b"x")]),
    ("missing intergeo", "MissingIntergeo", lambda e: [(n, d) for n, d in e if n != "construction/intergeo.xml"]),
    ("duplicate attempt triple", "DuplicateAttempt",
     lambda e: e + [("proofs/proofSomethingelse1/proofInfo.xml", next(d for n, d in e if re.fullmatch(_PROOF, n)))]),
)


# ---------------------------------------------------------------------------
# Workloads


def attempt_counts(rng: random.Random, jobs: int) -> list[int]:
    """Attempts per input: 0 to 20, spread evenly and shuffled, so that every
    seed adds the same total."""

    counts = [round(20 * i / (jobs - 1)) if jobs > 1 else 10 for i in range(jobs)]
    rng.shuffle(counts)
    return counts


def _generated_container(rng: random.Random, n: int, name: str, attempts: int) -> bytes:
    problem = parse_dsl(generate_dsl(rng, n, name))
    return pack(dataclasses.replace(problem, proofs=generate_attempts(rng, attempts)))


def _upload_job(input_class: str, name: str, container: bytes) -> Job:
    """The read path of a repository receiving one valid upload."""

    return Job(
        input_class,
        (
            Step("validate", ("validate", "-"), container, expect="silent"),
            Step("info", ("info", "-"), container, expect="name", answer=name),
            Step("strip", ("strip", "-", "--out", "-"), container, expect="intergeo",
                 answer=dict(_entries(container))["construction/intergeo.xml"]),
            Step("validate", ("validate", "--i2g", "-"), 2, expect="silent"),
        ),
    )


# (size, count) of generated inputs per pass.  There is no record of how
# i2gatp is used, so one stated rule sets the counts: five times fewer
# inputs for each tenfold step in size, many small problems and few large
# ones.  run.py prints the share of operation time each class takes.
INGEST_SIZES = ((10, 60), (100, 12), (1000, 2))
# One departure: author has three N=1000 sources, not one, so that their
# conversions are more than 1% of its operations and p99 falls among them.
# With one, p99 fell where N=100 conversions and proof attempts on large
# archives mix, and it spread by 15% over ten seeds.
AUTHOR_SIZES = ((10, 25), (100, 5), (1000, 3))
# (size, count, trials): N=100 at the CLI's default trials; N=1000 at three,
# since a trial of it costs about 100 ms.  Twice the smallest counts the
# rule allows, so that the median falls among the N=100 checks and not
# where they meet the fixtures, and p95 among the N=1000 checks.
CHECK_SIZES = ((100, 20, 100), (1000, 4, 3))


def ingest_jobs(seed: int, sizes=INGEST_SIZES) -> list[Job]:
    rng = random.Random(f"ingest/{seed}")
    jobs = []
    mutation = rng.randrange(len(MUTATIONS))
    k = 0
    for n, count in sizes:
        for attempts in attempt_counts(rng, count):
            name = f"gen_{seed}_{k}"
            k += 1
            if n < 1000 and k % 10 == 0:
                _, code, mutate = MUTATIONS[mutation % len(MUTATIONS)]
                mutation += 1
                data = _rezip(mutate(_entries(_generated_container(rng, n, name, max(attempts, 1)))))
                step = Step("validate", ("validate", "-"), data, exit_code=EXIT_INVALID, expect="code", answer=code)
                jobs.append(Job("mutated", (step,)))
            else:
                jobs.append(_upload_job(f"generated_{n}", name, _generated_container(rng, n, name, attempts)))
    for problem in load_fixture_module().build_corpus().values():
        name = problem.info.name if problem.info is not None else "(unnamed)"
        jobs.append(_upload_job("fixture", name, pack(problem)))
    rng.shuffle(jobs)
    return jobs


def _author_job(input_class: str, rng: random.Random, text: str, dsl_answer: bytes | None, attempts: int) -> Job:
    """A tool writing one DSL source as a container, converters reading it
    back, and a prover farm adding its attempts one at a time."""

    steps = [
        Step("convert", ("convert", "-", "--from", "dsl", "--to", "i2gatp", "--out", "-"), text.encode(), expect="same"),
        Step("convert", ("convert", "-", "--from", "i2gatp", "--to", "proverinput", "--out", "-"), 0,
             exit_code=EXIT_OK if "prove" in text else EXIT_FORMAT, expect="same"),
        Step("convert", ("convert", "-", "--from", "i2gatp", "--to", "dsl", "--out", "-"), 0,
             expect="same" if dsl_answer is None else "equal", answer=dsl_answer),
    ]
    source = 0
    for attempt in generate_attempts(rng, attempts):
        steps.append(Step("add_proof_attempt", data=source, attempt=attempt, expect="same"))
        source = len(steps) - 1
    return Job(input_class, tuple(steps))


def author_jobs(seed: int, sizes=AUTHOR_SIZES) -> list[Job]:
    rng = random.Random(f"author/{seed}")
    jobs = []
    k = 0
    for n, count in sizes:
        for attempts in attempt_counts(rng, count):
            text = generate_dsl(rng, n, f"gen_{seed}_{k}")
            k += 1
            # generated sources are canonical, so the DSL round trip is exact
            jobs.append(_author_job(f"generated_{n}", rng, text, text.encode(), attempts))
    fixtures = load_fixture_module()
    names = sorted(name for name in vars(fixtures) if name.endswith("_DSL"))
    for name, attempts in zip(names, attempt_counts(rng, len(names))):
        jobs.append(_author_job("fixture", rng, getattr(fixtures, name), None, attempts))
    rng.shuffle(jobs)
    return jobs


def _check_job(input_class: str, problem: Problem, trials: int, seed: int, verdict: str | None) -> Job:
    argv = ("check", "-", "--trials", str(trials), "--seed", str(seed), "--json")
    if verdict is None:
        return Job(input_class, (Step("check", argv, pack(problem), exit_code=EXIT_FORMAT),))
    code = EXIT_FALSIFIED if verdict == "falsified" else EXIT_OK
    return Job(input_class, (Step("check", argv, pack(problem), exit_code=code, expect="verdict", answer=verdict),))


def check_jobs(seed: int, sizes=CHECK_SIZES) -> list[Job]:
    rng = random.Random(f"check/{seed}")
    jobs = []
    for name, problem in load_fixture_module().build_corpus().items():
        verdict = _FIXTURE_VERDICTS.get(name, "consistent_over_samples")
        input_class = {None: "no_conjecture", "falsified": "false"}.get(verdict, "theorem")
        jobs.append(_check_job(input_class, problem, 1000, rng.getrandbits(32), verdict))
    jobs.append(_check_job("false", parse_dsl(_BOGUS_DSL), 1000, rng.getrandbits(32), "falsified"))
    jobs.append(_check_job("vacuous", parse_dsl(_VACUOUS_DSL), 1000, rng.getrandbits(32), "vacuous"))
    k = 0
    for n, count, trials in sizes:
        for _ in range(count):
            problem = parse_dsl(generate_dsl(rng, n, f"gen_{seed}_{k}"))
            k += 1
            jobs.append(_check_job(f"generated_{n}", problem, trials, rng.getrandbits(32), "consistent_over_samples"))
    rng.shuffle(jobs)
    return jobs


BUILDERS = {"ingest": ingest_jobs, "author": author_jobs, "check": check_jobs}


# ---------------------------------------------------------------------------
# Output checks


def _violation_codes(out: bytes) -> set[str]:
    return {line.split(" ", 1)[0] for line in out.decode().splitlines()}


_CHECKS = {
    "exit": lambda step, out, reference: True,
    "silent": lambda step, out, reference: out == b"",
    "code": lambda step, out, reference: step.answer in _violation_codes(out),
    "name": lambda step, out, reference: f"name: {step.answer}" in out.decode().splitlines(),
    "intergeo": lambda step, out, reference: dict(_entries(out))["intergeo.xml"] == step.answer,
    "equal": lambda step, out, reference: out == step.answer,
    "same": lambda step, out, reference: out == reference,
    "verdict": lambda step, out, reference: json.loads(out)["verdict"] == step.answer,
}


def output_ok(step: Step, exit_code: int, out: bytes, reference: bytes) -> bool:
    """Whether an operation gave its known answer.  ``reference`` is the
    output the same step gave during set-up."""

    if exit_code != step.exit_code:
        return False
    try:
        return _CHECKS[step.expect](step, out, reference)
    except (ValueError, KeyError, zipfile.BadZipFile):
        return False
