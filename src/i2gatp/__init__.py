"""i2gatp: geometric constructions, conjectures and proof-attempt containers.

The package covers the full lifecycle of one geometric problem:

- a value model (:mod:`i2gatp.model`) with programmatic validation,
- XML codecs with canonical serialization (:mod:`i2gatp.xml_codec`),
- deterministic zip containers with i2g extraction (:mod:`i2gatp.container`),
- a textual DSL and a prover-input emitter (:mod:`i2gatp.dsl`),
- a randomized numeric conjecture checker (:mod:`i2gatp.numeric`),
- a command line (:mod:`i2gatp.cli`, installed as ``i2gatp``).
"""

from .errors import (
    CodecError,
    ContainerError,
    DegenerateInitialInstance,
    DegeneratePredicateError,
    DegenerateStep,
    DslError,
    DslSyntaxError,
    DslUnresolvedId,
    EvalError,
    I2gatpError,
    KindMismatchError,
    NoConjectureError,
    OpaqueConstraintError,
    UnresolvedIdError,
)
from .model import (
    BibEntry,
    Collinear,
    Conjecture,
    Const,
    Constraint,
    ConstraintKind,
    Construction,
    ElementInstance,
    Equal,
    GeoKind,
    Harmonic,
    Midpoint,
    Mult,
    NotEqual,
    NotParallel,
    Parallel,
    Perpendicular,
    Platform,
    Plus,
    Predicate,
    Problem,
    ProblemInfo,
    ProofAttempt,
    ProofLimits,
    ProofMeasures,
    ProofStatus,
    SameLength,
    SegmentLength,
    SegmentRatio,
    Term,
    Violation,
    canonicalize_problem,
    validate_problem,
)
from .numeric import (
    CheckReport,
    NumericScene,
    SceneCircle,
    SceneLine,
    ScenePoint,
    Tolerance,
    Verdict,
    Witness,
    check_conjecture,
    eval_predicate,
    eval_term,
    instantiate,
    sample_free_points,
)
from .xml_codec import (
    DocumentKind,
    canonicalize,
    parse_conjecture,
    parse_construction,
    parse_information,
    parse_proof_info,
    serialize_conjecture,
    serialize_construction,
    serialize_information,
    serialize_proof_info,
    validate_document,
)
from .container import (
    add_proof_attempt,
    canonicalize_container,
    pack,
    read_container_entries,
    strip_to_i2g,
    suggested_filename,
    unpack,
    validate_container,
)
from .dsl import emit_dsl, emit_prover_input, parse_dsl

__version__ = "0.1.0"
