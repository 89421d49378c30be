"""The metadata catalog managed by the Coordinator.

The catalog maps database schemas → tables → columns and records, per
table, where its files live (bucket + prefix) and its statistics (row
count, size).  Pixels-Rover reads the catalog to render the schema browser;
the binder resolves SQL names against it; the planner uses its statistics
for cost decisions; and the NL2SQL service serializes its elements into the
schema-pruning stage.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import (
    DuplicateObjectError,
    NoSuchColumnError,
    NoSuchSchemaError,
    NoSuchTableError,
)
from repro.storage.types import DataType


@dataclass
class ColumnMeta:
    """One column: name, logical type, and an optional human comment.

    ``comment`` doubles as NL2SQL vocabulary — the schema-pruning stage
    matches question tokens against names *and* comments, which is how
    natural phrasings like "total price" can reach ``o_totalprice``.
    """

    name: str
    dtype: DataType
    comment: str = ""

    def to_json(self) -> dict:
        """The column as the persisted catalog, the NL2SQL payload and the
        Rover schema tree all spell it."""
        return {"name": self.name, "type": self.dtype.value, "comment": self.comment}


@dataclass
class ForeignKey:
    """A foreign-key edge used for NL2SQL join-path inference."""

    column: str
    ref_table: str
    ref_column: str

    def to_json(self) -> dict:
        return {
            "column": self.column,
            "ref_table": self.ref_table,
            "ref_column": self.ref_column,
        }


@dataclass
class TableMeta:
    """One table: columns, storage location, statistics, FK edges."""

    name: str
    columns: list[ColumnMeta] = field(default_factory=list)
    bucket: str = ""
    prefix: str = ""
    row_count: int = 0
    size_bytes: int = 0
    foreign_keys: list[ForeignKey] = field(default_factory=list)
    comment: str = ""

    def column(self, name: str) -> ColumnMeta:
        for column in self.columns:
            if column.name == name:
                return column
        raise NoSuchColumnError(f"no column {name!r} in table {self.name!r}")

    def has_column(self, name: str) -> bool:
        return any(column.name == name for column in self.columns)

    @property
    def column_names(self) -> list[str]:
        return [column.name for column in self.columns]


@dataclass
class SchemaMeta:
    """One database schema: a named collection of tables."""

    name: str
    tables: dict[str, TableMeta] = field(default_factory=dict)
    comment: str = ""

    def table(self, name: str) -> TableMeta:
        try:
            return self.tables[name]
        except KeyError:
            raise NoSuchTableError(
                f"no table {name!r} in schema {self.name!r}"
            ) from None

    @property
    def table_names(self) -> list[str]:
        return list(self.tables)


class Catalog:
    """Root of the metadata hierarchy.

    All mutation goes through ``create_*`` methods that enforce uniqueness;
    lookups raise the dedicated ``NoSuch*`` errors so API layers can map
    them to user-facing messages.  Every mutator bumps :attr:`version`, so
    a plan prepared under an older version is known to be stale.
    """

    def __init__(self) -> None:
        self._schemas: dict[str, SchemaMeta] = {}
        #: Incremented by every mutation: schemas, tables, foreign keys and
        #: statistics (the optimizer picks build sides by row count).
        self.version = 0

    # -- schemas -------------------------------------------------------------

    def create_schema(self, name: str, comment: str = "") -> SchemaMeta:
        if name in self._schemas:
            raise DuplicateObjectError(f"schema {name!r} already exists")
        schema = SchemaMeta(name=name, comment=comment)
        self._schemas[name] = schema
        self.version += 1
        return schema

    def drop_schema(self, name: str) -> None:
        if name not in self._schemas:
            raise NoSuchSchemaError(f"no schema {name!r}")
        del self._schemas[name]
        self.version += 1

    def schema(self, name: str) -> SchemaMeta:
        try:
            return self._schemas[name]
        except KeyError:
            raise NoSuchSchemaError(f"no schema {name!r}") from None

    def has_schema(self, name: str) -> bool:
        return name in self._schemas

    @property
    def schema_names(self) -> list[str]:
        return list(self._schemas)

    # -- tables --------------------------------------------------------------

    def create_table(
        self,
        schema_name: str,
        table_name: str,
        columns: list[ColumnMeta],
        bucket: str = "",
        prefix: str = "",
        comment: str = "",
    ) -> TableMeta:
        schema = self.schema(schema_name)
        if table_name in schema.tables:
            raise DuplicateObjectError(
                f"table {table_name!r} already exists in schema {schema_name!r}"
            )
        if not columns:
            raise ValueError("a table needs at least one column")
        names = [column.name for column in columns]
        if len(set(names)) != len(names):
            raise DuplicateObjectError(f"duplicate column names in {table_name!r}")
        table = TableMeta(
            name=table_name,
            columns=list(columns),
            bucket=bucket,
            prefix=prefix,
            comment=comment,
        )
        schema.tables[table_name] = table
        self.version += 1
        return table

    def drop_table(self, schema_name: str, table_name: str) -> None:
        schema = self.schema(schema_name)
        if table_name not in schema.tables:
            raise NoSuchTableError(f"no table {table_name!r} in {schema_name!r}")
        del schema.tables[table_name]
        self.version += 1

    def table(self, schema_name: str, table_name: str) -> TableMeta:
        return self.schema(schema_name).table(table_name)

    def add_foreign_key(
        self,
        schema_name: str,
        table_name: str,
        column: str,
        ref_table: str,
        ref_column: str,
    ) -> None:
        """Register an FK edge (validated against the catalog)."""
        table = self.table(schema_name, table_name)
        table.column(column)  # raises if missing
        referenced = self.table(schema_name, ref_table)
        referenced.column(ref_column)
        table.foreign_keys.append(ForeignKey(column, ref_table, ref_column))
        self.version += 1

    def update_statistics(
        self, schema_name: str, table_name: str, row_count: int, size_bytes: int
    ) -> None:
        """Record post-load statistics (the Coordinator does this on ingest)."""
        table = self.table(schema_name, table_name)
        table.row_count = row_count
        table.size_bytes = size_bytes
        self.version += 1

    # -- persistence ----------------------------------------------------------

    def to_json(self) -> dict:
        """Serialize the whole catalog (the Coordinator's durable state)."""
        return {
            "schemas": [
                {
                    "name": schema.name,
                    "comment": schema.comment,
                    "tables": [
                        {
                            "name": table.name,
                            "comment": table.comment,
                            "bucket": table.bucket,
                            "prefix": table.prefix,
                            "row_count": table.row_count,
                            "size_bytes": table.size_bytes,
                            "columns": [c.to_json() for c in table.columns],
                            "foreign_keys": [fk.to_json() for fk in table.foreign_keys],
                        }
                        for table in schema.tables.values()
                    ],
                }
                for schema in self._schemas.values()
            ]
        }

    @staticmethod
    def from_json(payload: dict) -> "Catalog":
        """Inverse of :meth:`to_json`."""
        catalog = Catalog()
        for schema_payload in payload["schemas"]:
            catalog.create_schema(
                schema_payload["name"], comment=schema_payload.get("comment", "")
            )
            for table_payload in schema_payload["tables"]:
                catalog.create_table(
                    schema_payload["name"],
                    table_payload["name"],
                    [
                        ColumnMeta(
                            column["name"],
                            DataType(column["type"]),
                            column.get("comment", ""),
                        )
                        for column in table_payload["columns"]
                    ],
                    bucket=table_payload.get("bucket", ""),
                    prefix=table_payload.get("prefix", ""),
                    comment=table_payload.get("comment", ""),
                )
                catalog.update_statistics(
                    schema_payload["name"],
                    table_payload["name"],
                    row_count=table_payload.get("row_count", 0),
                    size_bytes=table_payload.get("size_bytes", 0),
                )
        # FK edges after all tables exist, so forward references resolve.
        for schema_payload in payload["schemas"]:
            for table_payload in schema_payload["tables"]:
                for fk in table_payload.get("foreign_keys", []):
                    catalog.add_foreign_key(
                        schema_payload["name"],
                        table_payload["name"],
                        fk["column"],
                        fk["ref_table"],
                        fk["ref_column"],
                    )
        return catalog

    def save(self, store, bucket: str, key: str = "_catalog.json") -> None:
        """Persist the catalog into the object store itself — the same
        durability story the real coordinator uses for metadata."""
        import json

        store.create_bucket(bucket)
        store.put(bucket, key, json.dumps(self.to_json()).encode("utf-8"))

    @staticmethod
    def load(store, bucket: str, key: str = "_catalog.json") -> "Catalog":
        import json

        blob = store.get(bucket, key).data
        return Catalog.from_json(json.loads(blob.decode("utf-8")))

    # -- serialization for the NL2SQL protocol --------------------------------

    def describe_schema(self, schema_name: str) -> dict:
        """The JSON shape Pixels-Rover sends to the text-to-SQL service.

        Mirrors §2(3): table and column names (plus types/comments) of the
        user's selected database.
        """
        schema = self.schema(schema_name)
        return {
            "schema": schema.name,
            "tables": [
                {
                    "name": table.name,
                    "comment": table.comment,
                    "columns": [c.to_json() for c in table.columns],
                    "foreign_keys": [fk.to_json() for fk in table.foreign_keys],
                }
                for table in schema.tables.values()
            ],
        }
