"""hasVector links between graph entities and embedding vocabulary tokens.

Linking is exact: an entity is linked iff its normalized id is a vocabulary
token.  The table is immutable; retraining rebuilds it wholesale via
:func:`relink`.  Links are also materialized as reserved-predicate triples
(``<entity> <hasVector> "token"``) so a saved graph file carries the whole
hybrid structure.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from types import MappingProxyType
from typing import Mapping

import numpy as np

from .embedding import EmbeddingModel
from .errors import UnlinkedEntityError
from .kg import Graph, Literal

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

    @cached_property
    def by_token(self) -> Mapping[str, tuple[str, ...]]:
        """token -> sorted entities linked to it; built once per table."""
        return MappingProxyType(
            {token: tuple(entities) for token, entities in reverse_links(self).items()})


@dataclass(frozen=True)
class RelinkDiff:
    gained: tuple[str, ...]
    lost: tuple[str, ...]


def link_all(graph: Graph, model: EmbeddingModel, model_version: int = 1) -> LinkTable:
    """Rebuild every hasVector link for the graph against the model.

    Mutates the graph: stale hasVector triples are retracted and current
    ones asserted.  Idempotent for a fixed (graph, model) pair.
    """
    for t in [t for t in graph if t.predicate == HAS_VECTOR]:
        graph.retract_triple(t.subject, t.predicate, t.object)
    links: dict[str, str] = {}
    unlinked: set[str] = set()
    for entity in sorted(graph.entities()):
        if entity in model:
            links[entity] = entity
            graph.assert_triple(entity, HAS_VECTOR, Literal(entity))
        else:
            unlinked.add(entity)
    return LinkTable(MappingProxyType(links), frozenset(unlinked), model_version)


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
    token has dropped out of the model vocabulary counts as unlinked (the
    caller should relink).
    """
    links: dict[str, str] = {}
    for t in graph:
        if t.predicate == HAS_VECTOR and isinstance(t.object, Literal) \
                and t.object.value in model:
            links[t.subject] = t.object.value
    unlinked = frozenset(graph.entities() - set(links))
    return LinkTable(MappingProxyType(links), unlinked, model_version)
