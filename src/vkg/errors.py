"""Exception hierarchy shared by all vkg modules.

Everything user-triggerable derives from :class:`VkgError` so the CLI can
map it to exit code 1; anything else escaping is an internal error (exit 2).
"""

from __future__ import annotations


class VkgError(Exception):
    """Base class for all errors raised by this package."""


# --- triple store -----------------------------------------------------------

class SchemaError(VkgError):
    """Invalid schema declaration (subclass cycle, alias to unknown relation, ...)."""


class UnknownRelationError(VkgError):
    """Predicate not declared in the schema and not a reserved relation."""


class UnknownClassError(VkgError):
    """Class name not declared in the schema."""


class GraphFormatError(VkgError):
    """Malformed graph or schema file."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


# --- embedding model --------------------------------------------------------

class EmptyVocabularyError(VkgError):
    """No token survived the min_count threshold."""


class MalformedHeaderError(VkgError):
    """Embedding text file header is not '<vocab_size> <dimension>'."""


class DimensionMismatchError(VkgError):
    """Embedding row length differs from the declared dimension."""


class DuplicateTokenError(VkgError):
    """Token appears twice in an embedding file."""


class InvalidTokenError(VkgError, ValueError):
    """Token is empty, holds whitespace (unwritable as .vec) or a reserved graph character."""


class NonFiniteVectorError(VkgError, ValueError):
    """A vector holds a nan or infinite component; ``index`` is its row in the matrix."""

    def __init__(self, message: str, index: int):
        self.index = index
        super().__init__(message)


class OutOfVocabularyError(VkgError):
    """Token not present in the embedding vocabulary."""


class ZeroVectorError(VkgError):
    """Cosine similarity is undefined for an all-zero vector."""


# --- entity/vector linking --------------------------------------------------

class UnlinkedEntityError(VkgError):
    """Entity has no hasVector link."""


# --- query DSL --------------------------------------------------------------

class QuerySyntaxError(VkgError):
    """DSL parse failure, with source position."""

    def __init__(self, message: str, line: int, column: int):
        self.line = line
        self.column = column
        super().__init__(f"line {line}, column {column}: {message}")


class DuplicateVariableError(VkgError):
    """The same output variable is bound by two statements."""


class UndefinedVariableError(VkgError):
    """A statement references a variable no earlier statement bound."""


class ExecutionError(VkgError):
    """A subquery failed; carries the index of the failing statement."""

    def __init__(self, statement_index: int, cause: Exception):
        self.statement_index = statement_index
        super().__init__(f"statement {statement_index}: {cause}")


# --- rule engine ------------------------------------------------------------

class RuleSyntaxError(VkgError):
    """Rule file parse failure."""


class DuplicateRuleNameError(VkgError):
    """Two rules share a name."""


class UnknownRuleError(VkgError):
    """Rule name not present in the rule set."""


class UnboundParamError(VkgError):
    """Rule invoked with missing or surplus set parameters."""


# --- ingest -----------------------------------------------------------------

class CorpusFormatError(VkgError):
    """Malformed corpus, gazetteer, or template file."""


# --- evaluation -------------------------------------------------------------

class EmptyRelevantSetError(VkgError):
    """Average precision needs a non-empty relevant set."""


# --- cli --------------------------------------------------------------------

class MissingArtifactError(VkgError):
    """A pipeline stage ran before its predecessors produced their artifacts."""
