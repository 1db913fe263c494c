"""Address-mention detection in free conversational text.

The reference interprets whole-line addresses (``deepMostQuery`` anchored at
position 0, ``AddressInterpreter.java:295-307``); its only mid-text scanning is
``removeRedundancy``'s sliding restart (``:342-389``). For transcripts we apply
the same trie scan at every candidate start position: a mention begins where
the visitor resolves a full province+city+district prefix, and extends through
the following non-delimiter text (the residual the similarity kernel scores).
"""

from __future__ import annotations

from .interpreter import Address, Interpreter
from .visitor import RegionVisitor

# sentence delimiters that terminate a mention's residual tail
_STOP_CHARS = frozenset("，。！？；：、,.!?;: \t\r\n\"'（）()【】[]{}<>《》")

MAX_TAIL = 40  # max residual chars after the region prefix


class Mention:
    __slots__ = ("start", "end", "text", "addr")

    def __init__(self, start: int, end: int, text: str, addr: Address):
        self.start = start
        self.end = end
        self.text = text
        self.addr = addr


def find_mentions(text: str, interpreter: Interpreter, visitor: RegionVisitor | None = None,
                  use_hint: bool = True) -> list[Mention]:
    """Scan ``text`` for address mentions; returns interpreted mentions.

    The deep-most scan that gates each candidate start is handed to
    ``interpret`` as a region hint (division + end position + the exact
    window of characters the scan read), so the common case pays ONE trie
    walk per mention instead of two; ``interpret`` falls back to a full
    re-scan whenever its preprocessing touched the scanned window
    (``use_hint=False`` forces the fallback everywhere — test hook)."""
    if not text:
        return []
    if visitor is None:
        visitor = interpreter.visitor
    trie = interpreter.trie
    scan_if_hits = trie.scan_if_hits
    mentions: list[Mention] = []
    n = len(text)
    i = 0
    while i < n - 2:
        # fused gate + scan (min_depth=2 == the old has_prefix2 precondition)
        if not scan_if_hits(text, i, visitor, 2):
            i += 1
            continue
        div = visitor.result_division()
        if not (
            visitor.has_result()
            and div.province is not None
            and div.city is not None
        ):
            i += 1
            continue
        region_end = visitor.result_end_position()  # inclusive, absolute
        hint = None
        if use_hint:
            hint = (div.province, div.city, div.district, div.street,
                    div.town, div.village, region_end - i,
                    text[i:visitor.scan_max_read + 1])
        # extend through the residual until a delimiter
        j = region_end + 1
        tail_limit = min(n, j + MAX_TAIL)
        while j < tail_limit and text[j] not in _STOP_CHARS:
            j += 1
        mention_text = text[i:j]
        addr = interpreter.interpret(mention_text, region_hint=hint)
        if addr is not None and addr.city is not None and addr.district is not None:
            mentions.append(Mention(i, j, mention_text, addr))
            i = j
        else:
            i += 1
    return mentions


def district_key(addr: Address) -> str:
    """Partition key, per the reference cache key ``"{pid}-{cid}[-{did}]"``
    (SimilarityComputer.buildCacheKey, java:619-626)."""
    if addr.province is None or addr.city is None:
        return ""
    if addr.city.children:
        return f"{addr.province.id}-{addr.city.id}-{addr.district.id}"
    return f"{addr.province.id}-{addr.city.id}"


# the fields of a link query, in ``find_similar``'s argument order: the
# column names the corpus and mention stages write, and ``query_key``'s tuple
QUERY_COLUMNS = ("district_key", "town", "village", "road", "road_num", "residual")


def query_key(addr: Address) -> tuple:
    """An interpreted address's link query (``QUERY_COLUMNS``): the
    argument tuple of ``find_similar`` and the key of every link memo."""
    return (district_key(addr),
            addr.town.name if addr.town is not None else "",
            addr.village.name if addr.village is not None else "",
            addr.road, addr.road_num, addr.text)
