"""Exception types shared across the package."""


class BraidbreakError(Exception):
    """Base class for all package-specific errors."""


class FieldMismatchError(BraidbreakError):
    """Operands belong to different field contexts."""


class SingularMatrixError(BraidbreakError):
    """Matrix inversion hit a zero pivot. Protocol elements are group
    elements, so this always signals a bug upstream."""


class NotInSpanError(BraidbreakError):
    """A target vector is not in the span of the given basis."""


class RelationValidationError(BraidbreakError):
    """A representation's generator images violate the braid relations
    or are not invertible, or a transcript's listed generator matrix or
    inverse differs from the platform rebuilt from its parameters."""


class ProtocolInternalError(BraidbreakError):
    """The honest simulator produced inconsistent state (k_alice != k_bob)."""


class MalformedTranscriptError(BraidbreakError):
    """A transcript is inconsistent with the protocol it claims: a message
    an attack stage reads is zero, u is singular, a stage's basis dim
    differs from stage 1's, or a stage failed to express a public message in
    its subspace basis. core names the stage's core, "w", "h" or "z"; rank
    is the dimension of that basis, None where none was built. The message
    is "stage {stage}, core {core}: " followed by detail."""

    def __init__(self, stage: int, core: str, detail: str, rank: int | None = None):
        super().__init__(f"stage {stage}, core {core}: {detail}")
        self.stage = stage
        self.core = core
        self.rank = rank


class TranscriptFormatError(BraidbreakError):
    """A transcript or report document failed schema validation."""
