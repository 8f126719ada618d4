"""Exception taxonomy shared across the package.

``UsageError`` subclasses map to CLI exit code 2 (bad input, bad files,
bad options); everything else under ``ScgptError`` maps to exit code 1.
"""


class ScgptError(Exception):
    """Base class for all package errors."""

    exit_code = 1


class UsageError(ScgptError):
    """User-correctable problem: malformed input, missing file, bad option."""

    exit_code = 2


class MalformedInputError(UsageError):
    """Unparseable linearized dialog act string; the message names the
    0-based position of the first offending token ("at token i")."""


class UnknownSlotError(ScgptError):
    """Edit referenced a slot absent from every act."""


class AmbiguousSlotError(ScgptError):
    """Edit referenced a slot that occurs in more than one act."""


class CorpusEmptyError(UsageError):
    """An operation that needs data was given an empty corpus."""


class ShapeMismatchError(ScgptError):
    """A gradient's shape differs from its parameter's."""


class NumericFaultError(ScgptError):
    """A forward computation produced NaN or Inf, or a loaded tensor holds one."""


class ContextOverflowError(UsageError):
    """A token sequence does not fit in the model context window."""


class RangeError(ScgptError):
    """Argument outside its documented range."""


class LengthMismatchError(UsageError):
    """Parallel lists (candidates vs references) differ in length."""


class ParseError(UsageError):
    """A data or config file failed to parse; message names the line."""


class UnknownFormatError(UsageError):
    """Unrecognized corpus file format tag."""


class InsufficientGroupsError(UsageError):
    """A domain has fewer dialog-act groups than requested samples."""


class ConfigMismatchError(UsageError):
    """Checkpoint and configuration disagree (shapes, vocab size, ...)."""


class GrammarValidationError(UsageError):
    """A synthetic-corpus grammar violates its well-formedness rules."""
