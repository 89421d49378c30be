"""What a scan cost is read off the store in one place.

A static fence: no module of the engine or of Turbo, nor the table
reader, reads a :class:`~repro.storage.object_store.StorageMetrics`
counter that names a request class, a pool event or the logical byte
count.  Those become scan counters only in ``ScanCounters.of``; a second
mapping written out elsewhere would be free to drift from it.
"""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "repro"
FENCED_MODULES = [
    *sorted((SRC / "engine").rglob("*.py")),
    *sorted((SRC / "turbo").rglob("*.py")),
    SRC / "storage" / "table.py",
]
#: ``StorageMetrics`` counters with no ``ScanCounters`` field of the same
#: name (``get_requests`` has one, and is read as a scan counter too).
MAPPED_COUNTERS = (
    "footer_get_requests",
    "chunk_get_requests",
    "footer_cache_hits",
    "footer_cache_misses",
    "chunk_cache_hits",
    "chunk_cache_misses",
    "chunk_cache_evictions",
    "logical_bytes_scanned",
)


def test_store_counters_are_mapped_in_one_place():
    offenders = [
        f"{path.relative_to(SRC).as_posix()}:{node.lineno} .{node.attr}"
        for path in FENCED_MODULES
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Attribute) and node.attr in MAPPED_COUNTERS
    ]
    assert offenders == []


def test_the_fence_sees_the_modules_it_guards():
    names = {path.relative_to(SRC).as_posix() for path in FENCED_MODULES}
    assert {"engine/source.py", "turbo/batching.py", "storage/table.py"} <= names
