"""Generated GROUP BY statements agree with sqlite3 and with themselves.

``tests/group_by_statements.py`` holds the generator and the checks; this
file runs its tier-1 slice.
"""

from tests.group_by_statements import run

TIER1_SEED = 27
TIER1_STATEMENTS = 200


def test_generated_group_by_statements_agree_everywhere(capsys):
    counts = run(TIER1_SEED, TIER1_STATEMENTS)
    with capsys.disabled():
        print(f"\n{counts.summary()}")
    assert counts.explored == TIER1_STATEMENTS
    # Not vacuous: the independent oracle saw most statements, and every
    # key count from none to three was drawn.
    assert counts.sqlite_compared >= TIER1_STATEMENTS // 2
    assert counts.sqlite_compared + counts.sqlite_skipped_statements == counts.explored
    assert min(counts.keys[n] for n in range(4)) >= 20
