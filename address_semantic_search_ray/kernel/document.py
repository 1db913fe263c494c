"""Document model + analysis (bag-of-terms for one address).

Ported semantics:
- ``Term`` (type, text, idf, ref) with per-type idf overrides at read time
  (Province/City/District -> 0, Street -> 1): ``similarity/Term.java:9-98``;
- ``Document`` slots + lazy text->term map (last write wins):
  ``similarity/Document.java:11-130``;
- ``analyse`` doc builder (terms = [Town?, Village?, Road?, RoadNum?] +
  segmented residual tokens, deduped first-occurrence-kept; RoadNum ref=Road):
  ``SimilarityComputer.java:94-159``;
- IDF term key (RoadNum -> "{road}-{num}"): ``SimilarityComputer.java:180-187``;
- ``.vt`` line codec (debug only; Parquet is the real serialization):
  ``SimilarityComputer.java:331-380``.
"""

from __future__ import annotations

from .interpreter import Address
from .roadnum import translate_road_num
from .segment import simple_segment
from .types import TermType

MISSING_IDF = 4.0  # SimilarityComputer.java:77

_IDF_ZERO_TYPES = (TermType.PROVINCE, TermType.CITY, TermType.DISTRICT)


class Term:
    __slots__ = ("type", "text", "idf", "ref")

    def __init__(self, type_: str, text: str, idf: float = 0.0, ref: "Term | None" = None):
        self.type = type_
        self.text = text
        self.idf = idf
        self.ref = ref

    def get_idf(self) -> float:
        # Term.java:51-67
        if self.type in _IDF_ZERO_TYPES:
            return 0.0
        if self.type == TermType.STREET:
            return 1.0
        return self.idf

    def __eq__(self, other):
        return isinstance(other, Term) and self.text == other.text

    def __hash__(self):
        return hash(self.text)

    def __repr__(self):
        return f"{self.type}{self.text}"


class Doc:
    __slots__ = ("id", "terms", "town", "village", "road", "road_num", "road_num_value",
                 "_map", "_text_index")

    def __init__(self, id_=0):
        self.id = id_
        self.terms: list[Term] = []
        self.town = None
        self.village = None
        self.road = None
        self.road_num = None
        self.road_num_value = 0
        self._map = None
        self._text_index = None

    def get_term(self, text: str) -> Term | None:
        if self._map is None:
            self._map = {t.text: t for t in self.terms}
        return self._map.get(text)

    def text_term_index(self) -> dict:
        """text -> index of the FIRST Text-type term in the full terms list
        (the linear scan the reference does per query term,
        SimilarityComputer.java:466-479, precomputed once per doc)."""
        if self._text_index is None:
            idx = {}
            for i, t in enumerate(self.terms):
                if t.type == TermType.TEXT and t.text not in idx:
                    idx[t.text] = i
            self._text_index = idx
        return self._text_index


def term_idf_key(term: Term) -> str:
    # SimilarityComputer.generateIDFCacheEntryKey (java:180-187)
    if term.type == TermType.ROAD_NUM:
        num = translate_road_num(term.text)
        road = term.ref.text if term.ref is not None else ""
        return f"{road}-{num}"
    return term.text


def doc_from_fields(doc_id, town: str, village: str, road: str, road_num: str,
                    residual: str, idf_lookup=None, segment=simple_segment) -> Doc:
    """Build a Doc from plain string fields (the Arrow-columnar form used by
    the Ray stages). Mirrors ``analyse`` (SimilarityComputer.java:110-159):
    term order [Town?, Village?, Road?, RoadNum?, text tokens...], text tokens
    deduped against all prior terms, first occurrence kept."""
    doc = Doc(doc_id)
    tokens = segment(residual) if residual else []

    terms: list[Term] = []
    if town:
        doc.town = Term(TermType.TOWN, town)
        terms.append(doc.town)
    if village:
        doc.village = Term(TermType.VILLAGE, village)
        terms.append(doc.village)
    if road:
        doc.road = Term(TermType.ROAD, road)
        terms.append(doc.road)
    if road_num:
        rn = Term(TermType.ROAD_NUM, road_num, ref=doc.road)
        doc.road_num = rn
        doc.road_num_value = translate_road_num(road_num)
        terms.append(rn)

    # text tokens, deduped against ALL existing terms, first occurrence kept
    # (SimilarityComputer.addTerm, java:692-701)
    seen = {t.text for t in terms}
    for token in tokens:
        if token in seen:
            continue
        seen.add(token)
        terms.append(Term(TermType.TEXT, token))

    if idf_lookup is not None:
        for t in terms:
            t.idf = idf_lookup.get(term_idf_key(t), MISSING_IDF)

    doc.terms = terms
    return doc


def analyse(addr: Address, idf_lookup=None, segment=simple_segment, doc_id: int | None = None) -> Doc:
    """Build a Doc from an interpreted address (SimilarityComputer.java:110-159).

    ``idf_lookup``: mapping term_key -> idf; if given (query side), idf is
    stamped with the MISSING_IDF=4 fallback for absent keys.
    """
    return doc_from_fields(
        addr.id if doc_id is None else doc_id,
        addr.town.name if addr.town is not None else "",
        addr.village.name if addr.village is not None else "",
        addr.road,
        addr.road_num,
        addr.text,
        idf_lookup=idf_lookup,
        segment=segment,
    )


# -- debug .vt codec (SimilarityComputer.java:331-380) ----------------------

def serialize(doc: Doc) -> str:
    return f"{doc.id}$" + "|".join(f"{t.type}{t.text}" for t in doc.terms)


def deserialize(line: str) -> Doc | None:
    line = line.strip()
    if not line:
        return None
    head, _, rest = line.partition("$")
    if not rest:
        return None
    doc = Doc(int(head))
    terms = []
    for part in rest.split("|"):
        if not part:
            continue
        t = Term(part[0], part[1:])
        terms.append(t)
        if t.type == TermType.TOWN:
            doc.town = t
        elif t.type == TermType.VILLAGE:
            doc.village = t
        elif t.type == TermType.ROAD:
            doc.road = t
        elif t.type == TermType.ROAD_NUM:
            doc.road_num = t
            doc.road_num_value = translate_road_num(t.text)
            t.ref = doc.road
    doc.terms = terms
    return doc
