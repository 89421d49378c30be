"""Exception hierarchy for the PixelsDB reproduction.

Every error raised by the library derives from :class:`PixelsError`, so
callers can catch one base class at API boundaries.  Sub-hierarchies mirror
the subsystems: storage, SQL front end, planning/execution, the serverless
runtime (Turbo), the query server, and the NL2SQL service.
"""

from __future__ import annotations


class PixelsError(Exception):
    """Base class for all errors raised by this library."""


# --------------------------------------------------------------------------
# Storage
# --------------------------------------------------------------------------


class StorageError(PixelsError):
    """Base class for object-store and columnar-format errors."""


class NoSuchObjectError(StorageError):
    """A GET/HEAD referenced a key that does not exist in the bucket."""


class NoSuchBucketError(StorageError):
    """An operation referenced a bucket that was never created."""


class CorruptFileError(StorageError):
    """A columnar file failed validation (bad magic, checksum, or layout)."""


class CatalogError(StorageError):
    """Base class for metadata-catalog errors."""


class NoSuchSchemaError(CatalogError):
    """A database schema name did not resolve in the catalog."""


class NoSuchTableError(CatalogError):
    """A table name did not resolve in the catalog."""


class NoSuchColumnError(CatalogError):
    """A column name did not resolve against a table."""


class DuplicateObjectError(CatalogError):
    """An attempt to create a schema/table/column that already exists."""


# --------------------------------------------------------------------------
# SQL front end
# --------------------------------------------------------------------------


class SqlError(PixelsError):
    """Base class for SQL lexing/parsing/binding errors."""

    def __init__(self, message: str, position: int | None = None) -> None:
        super().__init__(message)
        self.position = position


class LexError(SqlError):
    """The SQL text contained a character sequence that is not a token."""


class ParseError(SqlError):
    """The token stream did not match the SQL grammar."""


class BindError(SqlError):
    """A parsed query referenced unknown tables/columns or mis-typed
    expressions."""


# --------------------------------------------------------------------------
# Planning / execution
# --------------------------------------------------------------------------


class PlanError(PixelsError):
    """The planner could not produce a physical plan for a bound query."""


class ExecutionError(PixelsError):
    """A physical operator failed while producing results."""


# --------------------------------------------------------------------------
# Turbo runtime
# --------------------------------------------------------------------------


class TurboError(PixelsError):
    """Base class for serverless-runtime errors."""


class ScalingError(TurboError):
    """The autoscaler was asked to do something impossible (e.g. scale
    below the minimum cluster size)."""


class NoSuchQueryError(TurboError):
    """A status/result lookup referenced an unknown query id."""


# --------------------------------------------------------------------------
# Query server / service levels
# --------------------------------------------------------------------------


class QueryServerError(PixelsError):
    """Base class for query-server errors."""


class InvalidServiceLevelError(QueryServerError):
    """The submission named a service level the server does not offer."""


class QueryRejectedError(QueryServerError):
    """The server refused the submission (e.g. queue capacity exceeded)."""


# --------------------------------------------------------------------------
# NL2SQL
# --------------------------------------------------------------------------


class Nl2SqlError(PixelsError):
    """Base class for text-to-SQL service errors."""


class TranslationError(Nl2SqlError):
    """The translator could not produce an SQL query for the question."""


class ProtocolError(Nl2SqlError):
    """A malformed JSON message was sent to the text-to-SQL service."""


# --------------------------------------------------------------------------
# Rover
# --------------------------------------------------------------------------


class RoverError(PixelsError):
    """Base class for Pixels-Rover backend errors."""


class AuthenticationError(RoverError):
    """Login failed or a session token is invalid/expired."""


class AuthorizationError(RoverError):
    """The session is not authorized to access the requested database."""
