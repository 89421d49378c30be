"""The compiled-scanner lexer equals the hand-written lexer it replaced.

``tests/eager_lexer.py`` keeps the replaced lexer verbatim.  Every token's
``(type, text, position)`` and every :class:`~repro.errors.LexError`'s
message and position must agree, on every text the wall-clock benchmark's
decks can send and on Hypothesis-generated texts.  Those are spliced from
fragments chosen where a regular expression and ``str`` predicates can
part ways: digits, letters and spaces outside ASCII (``\u00b2`` is a digit to
``isdigit`` but not to ``\\d``), exponents cut short (``1e``, ``1e+``),
points in odd places (``1.e5``, ``.5e3``, ``1.2.3``), ``''`` escapes,
unterminated strings, quoted identifiers and comments — and from
arbitrary characters, and deck texts cut and re-joined.

Tier-1 runs a small derandomized budget.  The long profile::

    PYTHONPATH=src python -m tests.test_lexer_oracle --examples 10000
"""

from __future__ import annotations

import argparse

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import LexError
from tests import eager_lexer
from tests.test_fingerprint import _deck_texts

FRAGMENTS = [
    # words and keywords
    "SELECT", "select", "FROM", "x", "_y1", "date", "LIMIT", "interval",
    # numbers, whole and cut short
    "0", "42", "1e", "1e+", "1e-", "1E5", "1.e5", ".5e3", "1.2.3", ".", "..5",
    "2.5E-2", "1e+5", "1ee5", "7.", "e5", "1e5e3",
    # digits, letters and spaces outside ASCII
    "\u00b2", "\u0663", "\u2460", "\uff11", "1\u00b2", "1e\u00b2", "\u00e9",
    "\u01c5", "\u00aa", "\u2167", "\u0130", "\u4e00", "\U0001d7d8", "\U0001f600",
    "\u00a0", "\u2003", "\u3000", "\x1c", "\x85",
    # strings, quoted identifiers and comments, closed and not
    "'", "''", "'a''b'", "'it''s", "'\n'", '"', '"q d"', '"a\'b"',
    "--", "-- c\n", "/*", "*/", "/* c */", "/*/",
    # operators, punctuation, whitespace
    "<=", ">=", "<>", "!=", "=", "<", ">", "+", "-", "*", "/", "%", "||", "|",
    "!", ",", "(", ")", ";", " ", "\t", "\n", "@", "?", "#", "\\",
]


def lex(module, sql: str):
    """Every token as ``(type, text, position)``, or the error."""
    try:
        return [
            (token.type.value, token.text, token.position)
            for token in module.Lexer(sql).tokenize()
        ]
    except LexError as error:
        return ("LexError", str(error), error.position)


def assert_agrees(sql: str) -> None:
    import repro.engine.sql.lexer as compiled

    assert lex(compiled, sql) == lex(eager_lexer, sql), repr(sql)


fragment_texts = st.lists(
    st.one_of(st.sampled_from(FRAGMENTS), st.characters()), max_size=24
).map("".join)

DECK = _deck_texts()


@st.composite
def spliced_deck_texts(draw):
    """A deck text with a fragment (or arbitrary text) put in at a point."""
    sql = draw(st.sampled_from(DECK))
    at = draw(st.integers(0, len(sql)))
    cut = draw(st.integers(0, 8))
    return sql[:at] + draw(fragment_texts) + sql[at + cut :]


def test_every_deck_text():
    for sql in DECK:
        assert_agrees(sql)


def test_errors_agree_on_messages_and_positions():
    for sql in ("'abc", "x /* no end", '"open', "SELECT @", "'a''", "a ! b"):
        assert_agrees(sql)
        assert lex(eager_lexer, sql)[0] == "LexError"


TIER1 = settings(max_examples=400, derandomize=True, database=None, deadline=None)
test_fragments = TIER1(given(fragment_texts)(assert_agrees))
test_spliced_deck_texts = TIER1(given(spliced_deck_texts())(assert_agrees))


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--examples", type=int, default=10000)
    args = parser.parse_args()
    test_every_deck_text()
    long = settings(max_examples=args.examples, database=None, deadline=None)
    long(given(fragment_texts)(assert_agrees))()
    long(given(spliced_deck_texts())(assert_agrees))()
    print(
        f"{len(DECK)} deck texts and 2 x {args.examples} generated texts: "
        "the compiled scanner equals the eager lexer"
    )
