"""Process-level shared decode tables, content-addressed per image.

Every Shadow Branch Decoder result is a pure function of the program
bytes: the per-line decode vector depends on ``(image, base_address,
line_size)``; a tail sweep additionally on the exit boundary; a head
region additionally on the boundary *and* the decode policy
(``max_valid_paths``, ``index_policy``).  A grid run builds one
:class:`~repro.core.sbd.ShadowBranchDecoder` per (workload, config)
cell, and before this module each of those decoders re-derived the same
vectors from the same bytes -- ``sbd.line_decode`` alone was ~20-27% of
cold cell time.

:func:`shared_tables` hands every decoder over the same image a single
:class:`SharedDecodeTables` instance, keyed by the SHA-256 of the image
bytes (content-addressed: a different program can never alias, and the
key doubles as the invalidation rule -- new bytes, new tables).  The
tables are a *backing store behind* each decoder's own LRU caches, not a
replacement for them: a decoder still performs exactly the same
get/put sequence on its ``line_cache`` / ``head_memo`` / ``tail_memo``
(those counters are part of the metric snapshot the bit-exactness tests
compare), but a miss that some earlier decoder already paid for becomes
a dictionary read instead of a byte-by-byte decode.

Results stored here are treated as immutable by every consumer (the
decoder and the batched kernel only read ``branches`` /
``decoded_pcs``), so sharing one result object across decoders is safe.

The registry is process-local and bounded (:data:`MAX_IMAGES` images,
LRU): long multi-program sweeps evict the coldest image's tables
wholesale.  Worker processes build their own registry, which is exactly
the sharing scope we want -- each worker decodes a hot image once.
"""

from __future__ import annotations

import hashlib

from repro.caching import LRUCache

#: Images whose tables are retained; evicting wholesale keeps the bound
#: simple and an 8-image working set covers every stock grid.
MAX_IMAGES = 8


class SharedDecodeTables:
    """All shared decode state of one ``(image, base, line_size)``."""

    __slots__ = ("key", "lines", "tails", "_heads")

    def __init__(self, key: tuple):
        self.key = key
        #: {line_addr: decode vector} -- the full-line decode list.
        self.lines: dict[int, list] = {}
        #: {(last_line, exit_offset): TailDecodeResult}.
        self.tails: dict[tuple[int, int], object] = {}
        # Head results depend on the decode policy; one table per
        # (max_valid_paths, index_policy) pair.
        self._heads: dict[tuple, dict] = {}

    def heads_for(self, max_valid_paths: int, index_policy) -> dict:
        """The ``{(line, entry_offset): HeadDecodeResult}`` table for one
        decode policy."""
        key = (max_valid_paths, index_policy)
        table = self._heads.get(key)
        if table is None:
            table = self._heads[key] = {}
        return table


_REGISTRY = LRUCache(maxsize=MAX_IMAGES)


def shared_tables(image: bytes, base_address: int,
                  line_size: int) -> SharedDecodeTables:
    """The process-wide tables for ``(image, base_address, line_size)``.

    The SHA-256 digest makes the key content-addressed; hashing happens
    once per decoder construction (microseconds against a cell's
    seconds), never on the decode path.
    """
    key = (hashlib.sha256(image).hexdigest(), base_address, line_size)
    tables = _REGISTRY.get(key)
    if tables is None:
        tables = SharedDecodeTables(key)
        _REGISTRY[key] = tables
    return tables


def reset() -> None:
    """Drop every shared table (benchmark isolation hook).

    Live decoders keep references to the tables they resolved at
    construction; only *future* decoders start cold.
    """
    _REGISTRY.clear()
