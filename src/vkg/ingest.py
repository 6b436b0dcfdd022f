"""Deterministic corpus pipeline: documents in, triples and token stream out.

Entity extraction is gazetteer-driven (longest leftmost match, spans
replaced by the entry's entity id) and relation extraction is template
driven: a relation triple is emitted for every ordered pair of co-occurring
entities whose classes match a template, gated on an optional trigger
keyword.  Both are deterministic, so re-running the pipeline on unchanged
inputs reproduces byte-identical artifacts.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from typing import Iterable, Sequence

from .errors import CorpusFormatError, InvalidTokenError
from .kg import Graph, Schema, Triple, normalize

SOURCES = frozenset({"nvd", "social", "blog", "market", "fixture"})

_TOKEN_SPLIT = re.compile(r"[^a-z0-9_]+")


@dataclass(frozen=True)
class Document:
    id: str
    source: str
    text: str

    def __post_init__(self) -> None:
        if self.source not in SOURCES:
            raise CorpusFormatError(
                f"document '{self.id}': unknown source '{self.source}'")


@dataclass(frozen=True)
class RelationTemplate:
    subject_class: str
    relation: str
    object_class: str
    triggers: frozenset[str] = frozenset()


class Gazetteer:
    """Surface form -> (entity id, class) dictionary for entity extraction."""

    def __init__(self, entries: dict[tuple[str, ...], tuple[str, str]],
                 schema: Schema | None = None,
                 origins: dict[tuple[str, ...], str] | None = None):
        """``origins`` maps a surface form to the ``<path>:<line>`` of its
        row; an error about that entry then starts with it."""
        self.entries = dict(entries)
        self.entity_class: dict[str, str] = {}
        self.max_len = max((len(k) for k in self.entries), default=0)
        origins = origins or {}
        for surface, (entity, class_name) in self.entries.items():
            where = f"{origins[surface]}: " if origins.get(surface) else ""
            if not surface:
                raise CorpusFormatError(f"{where}empty gazetteer surface form")
            if schema is not None and not schema.has_class(class_name):
                raise CorpusFormatError(
                    f"{where}gazetteer entry '{' '.join(surface)}' maps to "
                    f"undeclared class '{class_name}'")
            previous = self.entity_class.get(entity)
            if previous is not None and previous != class_name:
                raise CorpusFormatError(
                    f"{where}entity '{entity}' mapped to two classes "
                    f"('{previous}' and '{class_name}')")
            self.entity_class[entity] = class_name

    @classmethod
    def from_pairs(cls, pairs: Iterable[tuple[str, str, str]],
                   schema: Schema | None = None) -> "Gazetteer":
        """Build from (surface form, entity id, class) rows.

        A row repeating an earlier surface form must repeat its entity and
        class too; a conflicting one is a CorpusFormatError.
        """
        return cls._from_rows(((*pair, "") for pair in pairs), schema)

    @classmethod
    def _from_rows(cls, rows: Iterable[tuple[str, str, str, str]],
                   schema: Schema | None) -> "Gazetteer":
        """from_pairs over rows that end in their origin (``<path>:<line>``
        or ""), which then locates every error about the row."""
        entries: dict[tuple[str, ...], tuple[str, str]] = {}
        origins: dict[tuple[str, ...], str] = {}
        for surface, entity, class_name, origin in rows:
            key = tuple(tokenize_text(surface))
            value = (normalize(entity), normalize(class_name))
            first = entries.setdefault(key, value)
            if first != value:
                where = f"{origin}: " if origin else ""
                earlier = f" at {origins[key]}" if origins[key] else ""
                raise CorpusFormatError(
                    f"{where}surface form '{' '.join(key)}' maps to "
                    f"'{value[0]}' ({value[1]}), but the row{earlier} maps it "
                    f"to '{first[0]}' ({first[1]})")
            origins.setdefault(key, origin)
        return cls(entries, schema, origins)

    @classmethod
    def load_tsv(cls, path, schema: Schema | None = None) -> "Gazetteer":
        """TSV rows: surface_form <TAB> entity_id <TAB> class."""
        rows = []
        with open(path, encoding="utf-8") as fh:
            for lineno, raw in enumerate(fh, start=1):
                line = raw.rstrip("\n")
                if not line.strip() or line.lstrip().startswith("#"):
                    continue
                fields = line.split("\t")
                if len(fields) != 3:
                    raise CorpusFormatError(
                        f"{path}:{lineno}: expected 3 tab-separated fields")
                rows.append((fields[0], _field_token(fields[1], path, lineno),
                             _field_token(fields[2], path, lineno), f"{path}:{lineno}"))
        return cls._from_rows(rows, schema)

    def match(self, tokens: Sequence[str]) -> list[tuple[int, int, str]]:
        """Longest-leftmost non-overlapping spans as (start, end, entity)."""
        spans = []
        i = 0
        n = len(tokens)
        while i < n:
            hit = None
            for length in range(min(self.max_len, n - i), 0, -1):
                key = tuple(tokens[i:i + length])
                if key in self.entries:
                    hit = (i, i + length, self.entries[key][0])
                    break
            if hit is not None:
                spans.append(hit)
                i = hit[1]
            else:
                i += 1
        return spans


def tokenize_text(text: str) -> list[str]:
    """Lowercase and split on anything but [a-z0-9_]."""
    return [tok for tok in _TOKEN_SPLIT.split(text.lower()) if tok]


def preprocess(doc: Document, stopwords: frozenset[str] | set[str],
               gazetteer: Gazetteer) -> list[str]:
    """Token sequence for one document.

    Gazetteer spans are replaced by their entity ids before stopword
    removal, so stopwords inside multi-token surface forms ("denial OF
    service") do not break matching.  Emitted entity ids are never treated
    as stopwords.
    """
    tokens = tokenize_text(doc.text)
    spans = gazetteer.match(tokens)
    out: list[str] = []
    pos = 0
    for start, end, entity in spans:
        for tok in tokens[pos:start]:
            if tok not in stopwords:
                out.append(tok)
        out.append(entity)
        pos = end
    for tok in tokens[pos:]:
        if tok not in stopwords:
            out.append(tok)
    return out


def extract_triples(tokens: Sequence[str], gazetteer: Gazetteer,
                    templates: Sequence[RelationTemplate],
                    schema: Schema) -> list[Triple]:
    """Type triples for every matched entity plus template relation triples.

    A template fires for every ordered pair of distinct co-occurring
    entities whose classes match, provided one of its trigger keywords
    appears in the document (templates without triggers always fire).
    Order is stable: entities in first-mention order, templates in input
    order.
    """
    entities: list[str] = []
    seen: set[str] = set()
    for tok in tokens:
        if tok in gazetteer.entity_class and tok not in seen:
            entities.append(tok)
            seen.add(tok)
    graph = Graph(schema)
    triples: list[Triple] = []
    emitted: set[Triple] = set()

    def emit(subject: str, predicate: str, obj: str) -> None:
        t = graph.make_triple(subject, predicate, obj)
        if t not in emitted:
            emitted.add(t)
            triples.append(t)

    for entity in entities:
        emit(entity, "type", gazetteer.entity_class[entity])
    token_set = set(tokens)
    for template in templates:
        if template.triggers and not (template.triggers & token_set):
            continue
        subjects = [e for e in entities
                    if gazetteer.entity_class[e] == template.subject_class]
        objects = [e for e in entities
                   if gazetteer.entity_class[e] == template.object_class]
        for subject in subjects:
            for obj in objects:
                if subject != obj:
                    emit(subject, template.relation, obj)
    return triples


def build_corpus(docs: Sequence[Document], gazetteer: Gazetteer,
                 templates: Sequence[RelationTemplate], schema: Schema,
                 stopwords: frozenset[str] | set[str] = frozenset(),
                 ) -> tuple[Graph, list[list[str]]]:
    """Graph plus training sentences for a whole document collection.

    Each document becomes one sentence in the token stream; the sentence
    boundary is the document boundary, so no context window ever crosses
    documents.  Triples union idempotently across documents.
    """
    ids = [doc.id for doc in docs]
    if len(set(ids)) != len(ids):
        raise CorpusFormatError("duplicate document id in corpus")
    graph = Graph(schema)
    sentences: list[list[str]] = []
    for doc in docs:
        tokens = preprocess(doc, stopwords, gazetteer)
        sentences.append(tokens)
        for t in extract_triples(tokens, gazetteer, templates, schema):
            graph.assert_triple(t.subject, t.predicate, t.object)
    return graph, sentences


# --- file formats -------------------------------------------------------------

def read_documents_jsonl(path) -> list[Document]:
    """JSON-lines corpus: one {"id", "source", "text"} object per line."""
    docs = []
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line:
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as exc:
                raise CorpusFormatError(f"{path}:{lineno}: invalid JSON: {exc}") from None
            if not isinstance(obj, dict) or not {"id", "source", "text"} <= set(obj):
                raise CorpusFormatError(
                    f"{path}:{lineno}: expected id/source/text fields")
            docs.append(Document(str(obj["id"]), str(obj["source"]), str(obj["text"])))
    return docs


def load_templates(path, schema: Schema) -> list[RelationTemplate]:
    """TSV rows: subject_class <TAB> relation <TAB> object_class [<TAB> triggers].

    Triggers are comma-separated keywords; the relation must be declared.
    """
    templates = []
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.rstrip("\n")
            if not line.strip() or line.lstrip().startswith("#"):
                continue
            fields = line.split("\t")
            if len(fields) not in (3, 4):
                raise CorpusFormatError(
                    f"{path}:{lineno}: expected 3 or 4 tab-separated fields")
            subject_class, relation, object_class = (
                _field_token(fields[0], path, lineno), fields[1],
                _field_token(fields[2], path, lineno))
            for cls in (subject_class, object_class):
                if not schema.has_class(cls):
                    raise CorpusFormatError(
                        f"{path}:{lineno}: undeclared class '{cls}'")
            if relation not in schema.relations:
                raise CorpusFormatError(
                    f"{path}:{lineno}: undeclared relation '{relation}'")
            triggers = frozenset(
                normalize(t) for t in fields[3].split(",") if t.strip()
            ) if len(fields) == 4 else frozenset()
            templates.append(RelationTemplate(
                subject_class, relation, object_class, triggers))
    return templates


def _field_token(field: str, path, lineno: int) -> str:
    """The normalized token of a TSV field; an empty one is a located format error."""
    try:
        return normalize(field)
    except InvalidTokenError as exc:
        raise CorpusFormatError(f"{path}:{lineno}: {exc}") from None


def load_stopwords(path) -> frozenset[str]:
    """One token per line; blank lines and '#' comments ignored."""
    words = set()
    with open(path, encoding="utf-8") as fh:
        for raw in fh:
            word = raw.strip()
            if word and not word.startswith("#"):
                words.add(word.lower())
    return frozenset(words)
