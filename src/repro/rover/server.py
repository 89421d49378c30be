"""The Pixels-Rover backend façade.

Every §4 interaction is a method here:

* §4 login → :meth:`RoverServer.login` (session tokens).
* §4.1 schema browser → :meth:`list_databases` / :meth:`schema_tree`.
* §4.2 form a query → :meth:`select_database`, :meth:`ask` (text-to-SQL
  via the JSON protocol), the block edit methods, :meth:`submission_form`
  and :meth:`submit_query` (service level + result-size limit).
* §4.3 check status/result → :meth:`result_blocks` (ascending submission
  time, level colours), :meth:`expand_result`, and the block↔result
  linkage for highlighting.
"""

from __future__ import annotations

import json
import secrets
from dataclasses import dataclass, field

from repro.errors import (
    AuthenticationError,
    NoSuchQueryError,
    RoverError,
    TranslationError,
)
from repro.core.query_server import QueryServer
from repro.core.service_levels import ServiceLevel
from repro.nl2sql.protocol import CodesService
from repro.rover.auth import UserStore
from repro.rover.models import ResultBlock, TranslatorBlock
from repro.storage.catalog import Catalog


@dataclass
class Session:
    """One logged-in browser session."""

    token: str
    username: str
    selected_database: str | None = None
    translator_blocks: dict[str, TranslatorBlock] = field(default_factory=dict)
    block_order: list[str] = field(default_factory=list)
    result_blocks: dict[str, ResultBlock] = field(default_factory=dict)
    result_order: list[str] = field(default_factory=list)


class RoverServer:
    """Backend for the Pixels-Rover UI."""

    def __init__(
        self,
        users: UserStore,
        catalog: Catalog,
        codes_service: CodesService,
        query_server: QueryServer,
    ) -> None:
        self._users = users
        self._catalog = catalog
        self._codes = codes_service
        self._query_server = query_server
        self._sessions: dict[str, Session] = {}
        self._block_counter = 0

    # -- authentication (§4) --------------------------------------------------------

    def login(self, username: str, password: str) -> str:
        """Authenticate and open a session; returns the session token."""
        self._users.authenticate(username, password)
        token = secrets.token_hex(16)
        self._sessions[token] = Session(token=token, username=username)
        return token

    def logout(self, token: str) -> None:
        self._sessions.pop(token, None)

    def _session(self, token: str) -> Session:
        session = self._sessions.get(token)
        if session is None:
            raise AuthenticationError("invalid or expired session token")
        return session

    # -- schema browser (§4.1) ---------------------------------------------------------

    def list_databases(self, token: str) -> list[str]:
        """The authorized databases shown in the left sidebar."""
        session = self._session(token)
        user_databases = {
            name
            for name in self._catalog.schema_names
        }
        authorized = []
        for name in sorted(user_databases):
            try:
                self._users.check_authorized(session.username, name)
            except RoverError:
                continue
            authorized.append(name)
        return authorized

    def schema_tree(self, token: str, database: str) -> dict:
        """Hierarchical database → table → column view with data types
        (hover shows the type in the UI, so types ride along)."""
        session = self._session(token)
        self._users.check_authorized(session.username, database)
        schema = self._catalog.schema(database)
        return {
            "database": schema.name,
            "tables": [
                {
                    "name": table.name,
                    "comment": table.comment,
                    "columns": [c.to_json() for c in table.columns],
                }
                for table in schema.tables.values()
            ],
        }

    def select_database(self, token: str, database: str) -> None:
        """The drop-down at the lower left of the Translator (§4.2)."""
        session = self._session(token)
        self._users.check_authorized(session.username, database)
        self._catalog.schema(database)  # raises if unknown
        session.selected_database = database

    # -- translator (§4.2) ----------------------------------------------------------------

    def ask(self, token: str, question: str) -> TranslatorBlock:
        """Send a natural-language question to the text-to-SQL service.

        Compiles the §2(3) JSON message (question + schema elements of the
        selected database), calls the service, and renders the translated
        query as a code block below the question.
        """
        session = self._session(token)
        if session.selected_database is None:
            raise RoverError("select a database before asking questions")
        payload = {
            "question": question,
            "schema": self._catalog.describe_schema(session.selected_database),
        }
        response = self._codes.handle(payload)
        if response.get("error"):
            raise TranslationError(response["error"])
        self._block_counter += 1
        block = TranslatorBlock(
            block_id=f"block-{self._block_counter}",
            question=question,
            sql=response["sql"],
            translated_sql=response["sql"],
            confidence=response["confidence"],
        )
        session.translator_blocks[block.block_id] = block
        session.block_order.append(block.block_id)
        return block

    def block(self, token: str, block_id: str) -> TranslatorBlock:
        session = self._session(token)
        try:
            return session.translator_blocks[block_id]
        except KeyError:
            raise NoSuchQueryError(f"no translator block {block_id!r}") from None

    def begin_edit(self, token: str, block_id: str) -> None:
        self.block(token, block_id).begin_edit()

    def update_draft(self, token: str, block_id: str, sql: str) -> None:
        self.block(token, block_id).update_draft(sql)

    def confirm_edit(self, token: str, block_id: str) -> None:
        self.block(token, block_id).confirm_edit()

    def cancel_edit(self, token: str, block_id: str) -> None:
        self.block(token, block_id).cancel_edit()

    # -- submission form (§4.2, Figure 3) ------------------------------------------------

    def submission_form(self, token: str, block_id: str) -> dict:
        """The translucent submission form: the query, the three service
        levels with their prices, and the result-size limit field."""
        block = self.block(token, block_id)
        return {
            "block_id": block.block_id,
            "sql": block.sql,
            "service_levels": [
                {
                    "level": level.value,
                    "price_per_tb": self._query_server.price_quote(level),
                    "cf_acceleration": level.cf_enabled,
                }
                for level in ServiceLevel
            ],
            "default_result_limit": 1000,
        }

    def submit_query(
        self,
        token: str,
        block_id: str,
        level: ServiceLevel | str,
        result_limit: int | None = 1000,
    ) -> ResultBlock:
        """Submit the block's query at the chosen service level."""
        session = self._session(token)
        block = self.block(token, block_id)
        if isinstance(level, str):
            level = ServiceLevel.from_string(level)
        server_query = self._query_server.submit(
            block.sql,
            level,
            result_limit=result_limit,
            tenant=self._users.tenant_of(session.username),
        )
        result = ResultBlock(
            result_id=f"result-{server_query.query_id}",
            origin_block_id=block.block_id,
            submitted_at=server_query.submitted_at,
            server_query=server_query,
        )
        session.result_blocks[result.result_id] = result
        session.result_order.append(result.result_id)
        block.result_ids.append(result.result_id)
        return result

    # -- query result area (§4.3) -----------------------------------------------------------

    def result_blocks(self, token: str) -> list[ResultBlock]:
        """All blocks, ascending by submission time (§4.3)."""
        session = self._session(token)
        return sorted(
            session.result_blocks.values(), key=lambda block: block.submitted_at
        )

    def expand_result(self, token: str, result_id: str) -> dict:
        session = self._session(token)
        try:
            return session.result_blocks[result_id].expand()
        except KeyError:
            raise NoSuchQueryError(f"no result block {result_id!r}") from None

    def cancel_query(self, token: str, result_id: str) -> bool:
        """Cancel the query behind a result block (any pre-terminal
        status); the block moves to *failed* with a cancellation message."""
        session = self._session(token)
        try:
            result = session.result_blocks[result_id]
        except KeyError:
            raise NoSuchQueryError(f"no result block {result_id!r}") from None
        return self._query_server.cancel(result.server_query.query_id)

    # -- observability ------------------------------------------------------------------

    def export(self, token: str, kind: str) -> str:
        """One observability artifact of the server's bundle — any kind
        of :data:`repro.obs.EXPORTS` (``"metrics"``, ``"ledger"``,
        ``"activity"``, …) — as its exact bytes; empty unless the system
        was built with observability on.  Any authenticated session may
        read it."""
        self._session(token)
        return self._query_server.obs.export(kind)

    def trace(self, token: str, query_id: str) -> str:
        """The JSON span timeline of one submitted query (read from that
        query's entries alone)."""
        self._session(token)
        tracer = self._query_server.obs.tracer
        if not tracer.spans(query_id):
            raise NoSuchQueryError(f"no trace for query {query_id!r}")
        return tracer.export_json(query_id)

    def statements(self, token: str, k: int = 10, by: str = "dollars") -> str:
        """The top-K statement-statistics table (``by`` is one of
        ``time``/``dollars``/``calls``; empty without observability)."""
        self._session(token)  # any authenticated session may inspect
        obs = self._query_server.obs
        return obs.observed(obs.statements.render_top, k, by)

    def scheduler(self, token: str) -> str:
        """The scheduler state — per-tenant/per-level queue depths, WFQ
        shares, Jain fairness, and admission verdict counts — as
        byte-stable JSON, consistent with the ledger/spend exports."""
        self._session(token)  # any authenticated session may inspect
        snapshot = self._query_server.scheduler_snapshot()
        return json.dumps(snapshot, sort_keys=True, indent=2) + "\n"

    def origin_of(self, token: str, result_id: str) -> TranslatorBlock:
        """Result block → its question block (highlight linkage)."""
        session = self._session(token)
        try:
            result = session.result_blocks[result_id]
        except KeyError:
            raise NoSuchQueryError(f"no result block {result_id!r}") from None
        return session.translator_blocks[result.origin_block_id]

    def results_of(self, token: str, block_id: str) -> list[ResultBlock]:
        """Question block → its result blocks (reverse linkage)."""
        session = self._session(token)
        block = self.block(token, block_id)
        return [session.result_blocks[rid] for rid in block.result_ids]
