"""hasVector links between graph entities and embedding vocabulary tokens.

One rule defines a link: entity ``e`` is linked iff the graph holds the
reserved-predicate triple ``<e> <hasVector> "e"`` and ``e`` is a vocabulary
token.  Links are identities, so a saved graph file carries the whole hybrid
structure, and any other stored hasVector triple is stale.  :func:`link_all`
brings the stored links in line with the rule; :func:`table_from_graph` reads
them back.  The table is immutable; retraining rebuilds it via :func:`relink`.
"""

from __future__ import annotations

from dataclasses import dataclass
from types import MappingProxyType
from typing import Mapping

import numpy as np

from .embedding import EmbeddingModel
from .errors import UnlinkedEntityError
from .kg import Graph, Literal, Triple

HAS_VECTOR = "hasVector"


@dataclass(frozen=True)
class LinkTable:
    """Partition of the graph's entities into linked and unlinked."""

    links: Mapping[str, str]
    unlinked: frozenset[str]
    model_version: int = 1

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
    reads.  Idempotent for a fixed (graph, model) pair.
    """
    entities = graph.entities()
    links: dict[str, str] = {}
    for t in graph.triples_with(HAS_VECTOR):
        if _is_link(t, entities, model):
            links[t.subject] = t.subject
        else:
            graph.retract_triple(t.subject, t.predicate, t.object)
    for entity in entities - links.keys():
        if entity in model:
            graph.assert_triple(entity, HAS_VECTOR, Literal(entity))
            links[entity] = entity
    return LinkTable(MappingProxyType(links), frozenset(entities - links.keys()), model_version)


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
    entities = graph.entities()
    links = {t.subject: t.subject for t in graph.triples_with(HAS_VECTOR)
             if _is_link(t, entities, model)}
    return LinkTable(MappingProxyType(links), frozenset(entities - links.keys()), model_version)


def _is_link(t: Triple, entities: set[str], model: EmbeddingModel) -> bool:
    return t.subject in entities and t.object == Literal(t.subject) and t.subject in model
