"""hasVector links between graph entities and embedding vocabulary tokens.

One rule defines a link: entity ``e`` is linked iff the graph holds the
reserved-predicate triple ``<e> <hasVector> "e"`` and ``e`` is a vocabulary
token.  Links are identities, so a saved graph file carries the whole hybrid
structure, and any other stored hasVector triple is stale.  :func:`link_all`
brings the stored links in line with the rule; :func:`table_from_graph` reads
them back.  The table is immutable; retraining rebuilds it via :func:`relink`.
Both carry the mask of the model rows linked to an entity, collected in the
pass that reads the links, so searches do not rebuild it.

Once :func:`link_all` has run on a graph, the graph records the nodes its
writes touch, and the next run against the same model re-applies the rule to
those nodes only, updating copies of the last table it returned.  It reads
every link again (the full pass) when the graph has no earlier table (a new
graph or a snapshot), when the model is another object, when the schema's
class count changed, or when a non-identity hasVector triple is left over.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Mapping

import numpy as np

from .embedding import EmbeddingModel
from .errors import UnlinkedEntityError
from .kg import Graph, Literal, Triple

HAS_VECTOR = "hasVector"

# graph -> (model, class count, table) of the last link_all on it; kept off
# the graph, whose attributes stay plain, deep-copyable data
_LAST: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


@dataclass(frozen=True)
class LinkTable:
    """Partition of the graph's entities into linked and unlinked."""

    links: Mapping[str, str]
    unlinked: frozenset[str]
    model_version: int = 1
    # (model, read-only mask of its rows linked to an entity): a view of
    # ``links`` that only the builders below set, never a caller
    linked_rows: tuple[EmbeddingModel, np.ndarray] | None = field(
        default=None, init=False, compare=False, repr=False)

    def row_mask(self, model: EmbeddingModel) -> np.ndarray:
        """Mask of the model's rows linked to an entity; do not write to it.

        The carried mask when the table was built against this model, else
        ``model.row_mask(links)``.
        """
        if self.linked_rows is not None and self.linked_rows[0] is model:
            return self.linked_rows[1]
        return model.row_mask(self.links)

    @property
    def coverage(self) -> float:
        """Linked fraction; vacuously 1.0 for a graph with no entities."""
        total = len(self.links) + len(self.unlinked)
        return len(self.links) / total if total else 1.0


@dataclass(frozen=True)
class RelinkDiff:
    gained: tuple[str, ...]
    lost: tuple[str, ...]


def link_all(graph: Graph, model: EmbeddingModel, model_version: int = 1) -> LinkTable:
    """Sync the graph's hasVector triples with the model.

    Mutates the graph: only stale link triples are retracted and only
    missing ones asserted.  Returns the table :func:`table_from_graph` then
    reads.  Idempotent for a fixed (graph, model) pair.  After a first run
    against this model, only the nodes written since the last run are
    revisited (see :func:`_update`).
    """
    last = _LAST.get(graph)
    classes = len(graph.schema.classes)
    table = None
    if last is not None and last[0] is model and last[1] == classes:
        table = _update(graph, model, last[2], model_version)
    if table is None:
        entities, links, mask, stale = _read_links(graph, model)
        for t in stale:
            graph.retract_triple(t.subject, t.predicate, t.object)
        for entity in entities - links.keys():
            row = model.row_of(entity)
            if row is not None:
                graph.assert_triple(entity, HAS_VECTOR, Literal(entity))
                links[entity] = entity
                mask[row] = True
        table = _table(model, links, entities - links.keys(), mask, model_version)
    graph._touched = set()
    _LAST[graph] = (model, classes, table)
    return table


def _update(graph: Graph, model: EmbeddingModel, last: LinkTable,
            model_version: int) -> LinkTable | None:
    """``last`` with the link rule re-applied to the nodes written since.

    A node no write touched keeps its entity status and its hasVector
    triples, so its link stands.  None when a non-identity hasVector triple
    is left, which only the full pass retracts.
    """
    touched = graph._touched
    links = last.links.copy()
    unlinked = set(last.unlinked - touched)
    mask = last.linked_rows[1].copy()
    # the rule of Graph.entities(), for one node: no copy of every node
    refs, classes = graph._refs, graph.schema.classes
    for node in touched:
        link = Triple(node, HAS_VECTOR, Literal(node))
        entity = node in refs and node not in classes
        row = model.row_of(node) if entity else None
        if row is not None:
            links[node] = node
            mask[row] = True
            if link not in graph:
                graph.assert_triple(*link)
            continue
        if links.pop(node, None) is not None:
            mask[model.row_of(node)] = False
        if entity:
            unlinked.add(node)
        if link in graph:
            graph.retract_triple(*link)
    if len(graph._by_p.get(HAS_VECTOR, ())) != len(links):   # a stray triple
        return None
    return _table(model, links, unlinked, mask, model_version)


def relink(graph: Graph, new_model: EmbeddingModel,
           old: LinkTable) -> tuple[LinkTable, RelinkDiff]:
    """link_all against the new model, plus a version bump and change report."""
    table = link_all(graph, new_model, model_version=old.model_version + 1)
    gained = tuple(sorted(set(table.links) - set(old.links)))
    lost = tuple(sorted(set(old.links) - set(table.links)))
    return table, RelinkDiff(gained=gained, lost=lost)


def resolve_vector(table: LinkTable, model: EmbeddingModel, entity: str) -> np.ndarray:
    """The embedding of the entity's linked token."""
    token = table.links.get(entity)
    if token is None:
        raise UnlinkedEntityError(f"entity '{entity}' has no hasVector link")
    return model.vector(token)


def reverse_links(table: LinkTable) -> dict[str, list[str]]:
    """token -> sorted entities linked to it."""
    out: dict[str, list[str]] = {}
    for entity, token in table.links.items():
        out.setdefault(token, []).append(entity)
    for entities in out.values():
        entities.sort()
    return out


def audit_report(table: LinkTable) -> str:
    """Line-oriented audit: LINKED/UNLINKED per entity plus a COVERAGE total."""
    lines = []
    for entity in sorted(set(table.links) | set(table.unlinked)):
        if entity in table.links:
            lines.append(f"LINKED {entity} {table.links[entity]}")
        else:
            lines.append(f"UNLINKED {entity}")
    lines.append(f"COVERAGE {table.coverage:.6f}")
    return "\n".join(lines) + "\n"


def table_from_graph(graph: Graph, model: EmbeddingModel,
                     model_version: int = 1) -> LinkTable:
    """Reconstruct a LinkTable from the hasVector triples stored in a graph.

    Used when a pipeline stage reloads saved artifacts.  A stored link whose
    token has dropped out of the model vocabulary, or that is not an identity,
    leaves its entity unlinked (the caller should relink).
    """
    entities, links, mask, _ = _read_links(graph, model)
    return _table(model, links, entities - links.keys(), mask, model_version)


def _read_links(graph: Graph, model: EmbeddingModel,
                ) -> tuple[set[str], dict[str, str], np.ndarray, list[Triple]]:
    """The graph's entities, its stored links, the mask of their model rows,
    and the stale hasVector triples.

    A hasVector triple is a link iff its subject is an entity and a
    vocabulary token and its object is ``Literal(subject)``.
    """
    entities = graph.entities()
    links: dict[str, str] = {}
    rows: list[int] = []
    stale: list[Triple] = []
    for t in graph.triples_with(HAS_VECTOR):
        subject = t.subject
        # a Literal equals the 1-tuple of its value: no Literal built per triple
        row = (model.row_of(subject)
               if subject in entities and t.object == (subject,) else None)
        if row is not None:
            links[subject] = subject
            rows.append(row)
        else:
            stale.append(t)
    mask = np.zeros(len(model), dtype=bool)
    mask[rows] = True
    return entities, links, mask, stale


def _table(model: EmbeddingModel, links: dict[str, str], unlinked: set[str],
           mask: np.ndarray, model_version: int) -> LinkTable:
    mask.flags.writeable = False
    table = LinkTable(MappingProxyType(links), frozenset(unlinked), model_version)
    object.__setattr__(table, "linked_rows", (model, mask))
    return table
