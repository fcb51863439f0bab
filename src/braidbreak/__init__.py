"""braidbreak: double-shielded key exchange over braid matrix images, and
the linear decomposition attack that recovers the shared key from public
transcripts alone."""

from .attack import (
    AttackReport,
    StageReport,
    attack_transcript,
    verify_against_oracle,
)
from .bench import run_bench, slopes_by_protocol
from .braid import (
    BraidWord,
    CommutingPair,
    LabeledGenerator,
    Representation,
    burau_representation,
    commuting_subgroups,
    default_split,
    evaluate,
    lk_representation,
    sample_word,
)
from .errors import (
    BraidbreakError,
    FieldMismatchError,
    MalformedTranscriptError,
    NotInSpanError,
    ProtocolInternalError,
    RelationValidationError,
    SingularMatrixError,
    TranscriptFormatError,
)
from .field import DEFAULT_PRIME, OpCounter, PrimeField
from .matrix import EchelonState, SquareMatrix, gemm_mod
from .protocol import (
    FixtureData,
    HonestRun,
    PrivateState,
    ProtocolParams,
    Transcript,
    derive_trial_seed,
    read_transcript,
    run_protocol,
    write_transcript,
)
from .span import (
    BasisEntry,
    DecoratedBasis,
    SideSpec,
    build_decorated_basis,
    express,
    substitute,
)

__version__ = "0.1.0"

__all__ = [
    "AttackReport", "StageReport", "attack_transcript", "verify_against_oracle",
    "run_bench", "slopes_by_protocol",
    "BraidWord", "CommutingPair", "LabeledGenerator", "Representation",
    "burau_representation", "commuting_subgroups", "default_split",
    "evaluate", "lk_representation", "sample_word",
    "BraidbreakError", "FieldMismatchError", "MalformedTranscriptError",
    "NotInSpanError", "ProtocolInternalError", "RelationValidationError",
    "SingularMatrixError", "TranscriptFormatError",
    "DEFAULT_PRIME", "OpCounter", "PrimeField",
    "EchelonState", "SquareMatrix", "gemm_mod",
    "FixtureData", "HonestRun", "PrivateState", "ProtocolParams",
    "Transcript", "derive_trial_seed", "read_transcript", "run_protocol",
    "write_transcript",
    "BasisEntry", "DecoratedBasis", "SideSpec", "build_decorated_basis",
    "express", "substitute",
    "__version__",
]
