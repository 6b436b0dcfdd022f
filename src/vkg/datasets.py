"""Synthetic corpora and toy fixtures used by tests, demos, and the docs.

Two fixtures matter most:

* :func:`advisory_example` is the classic browser-advisory sentence whose
  extraction yields one product linked to two vulnerabilities, a means,
  and an attacker.
* :func:`mixed_class_corpus` is an engineered multi-class corpus whose
  advisory documents deliberately embed products inside vulnerability
  contexts (and products inside attack contexts), creating cross-class
  near neighbors.  Class-filtered search beats plain cosine search on it,
  and both beat the graph-overlap baseline, which only sees the noisy
  co-mention edges.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from ._atomic import atomic_write
from .embedding import TrainingConfig
from .evaluation import SimilarityGroup
from .ingest import Document, Gazetteer, RelationTemplate, build_corpus
from .kg import Graph, Schema


def security_schema() -> Schema:
    """Threat-intel flavored schema: products, vulnerabilities, attacks, ..."""
    schema = Schema()
    for name in ("product", "software", "vulnerability", "attack", "means",
                 "attacker"):
        schema.declare_class(name)
    schema.declare_subclass("software", "product")
    schema.declare_relation("hasVulnerability", "product", "vulnerability")
    schema.declare_relation("hasAttack", "product", "attack")
    schema.declare_relation("hasMeans", "product", "means")
    schema.declare_relation("hasAttacker", "product", "attacker")
    schema.declare_alias("vulnerability", "hasVulnerability")
    schema.declare_alias("attack", "hasAttack")
    schema.declare_alias("means", "hasMeans")
    schema.declare_alias("attacker", "hasAttacker")
    return schema


ADVISORY_TEXT = (
    "Microsoft Internet Explorer allows remote attackers to execute "
    "arbitrary code or cause a denial of service (memory corruption) via a "
    "crafted web site."
)


def advisory_example() -> tuple[Schema, Gazetteer, list[RelationTemplate], Document]:
    """One-sentence advisory fixture: 5 entities, 4 relation triples."""
    schema = security_schema()
    gazetteer = Gazetteer.from_pairs([
        ("microsoft internet explorer", "microsoft_internet_explorer", "product"),
        ("remote attackers", "remote_attackers", "attacker"),
        ("execute arbitrary code", "execute_arbitrary_code", "vulnerability"),
        ("denial of service", "denial_of_service", "vulnerability"),
        ("crafted web site", "crafted_web_site", "means"),
    ], schema)
    templates = [
        RelationTemplate("product", "hasVulnerability", "vulnerability"),
        RelationTemplate("product", "hasMeans", "means"),
        RelationTemplate("product", "hasAttacker", "attacker"),
    ]
    doc = Document(id="advisory-1", source="fixture", text=ADVISORY_TEXT)
    return schema, gazetteer, templates, doc


def advisory_graph() -> Graph:
    """The advisory example, ingested."""
    schema, gazetteer, templates, doc = advisory_example()
    graph, _ = build_corpus([doc], gazetteer, templates, schema)
    return graph


@dataclass
class CorpusFixture:
    """Everything needed to run the pipeline end to end in memory."""

    docs: list[Document]
    gazetteer: Gazetteer
    templates: list[RelationTemplate]
    schema: Schema
    groups: list[SimilarityGroup]
    stopwords: frozenset[str]

    def build(self) -> tuple[Graph, list[list[str]]]:
        return build_corpus(self.docs, self.gazetteer, self.templates,
                            self.schema, self.stopwords)


def mixed_class_corpus(seed: int = 11, members_per_group: int = 3,
                       vuln_groups: int = 5, attack_groups: int = 4,
                       product_groups: int = 5, pool_size: int = 8,
                       member_docs: int = 15, advisory_docs: int = 12,
                       incident_docs: int = 8) -> CorpusFixture:
    """Engineered corpus with cross-class near neighbors by construction.

    Every similarity group gets a private pool of context words; group
    members occur in documents drawn from that pool, so in-group cosine
    similarity is high.  Each product is additionally co-mentioned with
    two vulnerabilities inside the *vulnerability group's* context pool
    (and with one attack inside the attack pool), which drags the product
    embedding into the other class's neighborhood.  Group member names are
    interleaved so lexicographic tie-breaks never favor siblings.
    """
    rng = np.random.default_rng(seed)
    schema = security_schema()

    def interleaved(prefix: str, n_groups: int) -> list[list[str]]:
        total = n_groups * members_per_group
        names = [f"{prefix}{i:02d}" for i in range(total)]
        return [[names[g + n_groups * j] for j in range(members_per_group)]
                for g in range(n_groups)]

    vulns = interleaved("vuln", vuln_groups)
    attacks = interleaved("attack", attack_groups)
    products = interleaved("prod", product_groups)

    groups: list[SimilarityGroup] = []
    pools: dict[str, list[str]] = {}
    member_pool: dict[str, list[str]] = {}
    for kind, clusters in (("vulnerability", vulns), ("attack", attacks),
                           ("product", products)):
        for gi, members in enumerate(clusters):
            name = f"{kind}_group_{gi}"
            groups.append(SimilarityGroup(name, kind, tuple(members)))
            pool = [f"w{kind[0]}{gi}x{w}" for w in range(pool_size)]
            pools[name] = pool
            for member in members:
                member_pool[member] = pool

    entries = []
    for kind, clusters in (("vulnerability", vulns), ("attack", attacks),
                           ("product", products)):
        for members in clusters:
            for member in members:
                entries.append((member, member, kind))
    gazetteer = Gazetteer.from_pairs(entries, schema)

    docs: list[Document] = []

    def pool_words(pool: list[str], count: int) -> list[str]:
        return [pool[i] for i in rng.integers(0, len(pool), size=count)]

    for member, pool in sorted(member_pool.items()):
        for d in range(member_docs):
            left, right = pool_words(pool, 3), pool_words(pool, 3)
            text = " ".join(left + [member] + right)
            docs.append(Document(f"m-{member}-{d:03d}", "fixture", text))

    all_vulns = [v for cluster in vulns for v in cluster]
    all_attacks = [a for cluster in attacks for a in cluster]
    for product in sorted(p for cluster in products for p in cluster):
        chosen = rng.choice(len(all_vulns), size=2, replace=False)
        for vi in chosen:
            vuln = all_vulns[vi]
            pool = member_pool[vuln]
            for d in range(advisory_docs):
                words = pool_words(pool, 3)
                text = " ".join([words[0], product, words[1], vuln, words[2]])
                docs.append(Document(f"adv-{product}-{vuln}-{d:02d}",
                                     "fixture", text))
        attack = all_attacks[int(rng.integers(0, len(all_attacks)))]
        pool = member_pool[attack]
        for d in range(incident_docs):
            words = pool_words(pool, 3)
            text = " ".join([words[0], product, words[1], attack, words[2]])
            docs.append(Document(f"inc-{product}-{attack}-{d:02d}",
                                 "fixture", text))

    templates = [
        RelationTemplate("product", "hasVulnerability", "vulnerability"),
        RelationTemplate("product", "hasAttack", "attack"),
    ]
    return CorpusFixture(docs, gazetteer, templates, schema, groups, frozenset())


MIXED_TRAINING = TrainingConfig(dimension=32, window=4, min_count=1,
                                negatives=5, epochs=12, learning_rate=0.05,
                                seed=3)


def twin_sentences(seed: int, twins: tuple[str, str] = ("alpha_node", "beta_node"),
                   pool_size: int = 10, docs: int = 60,
                   unrelated: int = 6) -> tuple[list[list[str]], str, str]:
    """Sentences where the two twin tokens see identical contexts.

    Each draw produces one sentence per twin with the *same* surrounding
    words, so the twins are distributionally indistinguishable; unrelated
    filler tokens get their own context pool.
    """
    rng = np.random.default_rng(seed)
    a, b = twins
    pool = [f"ctx{i}" for i in range(pool_size)]
    other_pool = [f"flr{i}" for i in range(pool_size)]
    sentences: list[list[str]] = []
    for _ in range(docs):
        idx = rng.integers(0, pool_size, size=4)
        left, right = [pool[idx[0]], pool[idx[1]]], [pool[idx[2]], pool[idx[3]]]
        sentences.append(left + [a] + right)
        sentences.append(left + [b] + right)
    for u in range(unrelated):
        token = f"noise{u}"
        for _ in range(docs // 2):
            idx = rng.integers(0, pool_size, size=4)
            sentences.append([other_pool[idx[0]], other_pool[idx[1]], token,
                              other_pool[idx[2]], other_pool[idx[3]]])
    return sentences, a, b


def write_workspace(fixture: CorpusFixture, directory,
                    training: TrainingConfig = MIXED_TRAINING) -> Path:
    """Materialize a fixture as CLI workspace files; returns the manifest path.

    Every file's text is built first, then each file is replaced atomically
    (see :mod:`vkg._atomic`), ``manifest.json`` last: a failure part-way
    leaves each file whole, and a new workspace without its manifest.
    """
    directory = Path(directory)
    (directory / "out").mkdir(parents=True, exist_ok=True)
    groups = [{"name": g.name, "kind": g.kind, "members": list(g.members)}
              for g in fixture.groups]
    files = {
        "corpus": ("corpus.jsonl", "".join(
            json.dumps({"id": d.id, "source": d.source, "text": d.text}) + "\n"
            for d in fixture.docs)),
        "schema": ("schema.txt", fixture.schema.to_text()),
        "gazetteer": ("gazetteer.tsv", "".join(
            f"{' '.join(surface)}\t{entity}\t{class_name}\n"
            for surface, (entity, class_name)
            in sorted(fixture.gazetteer.entries.items()))),
        "templates": ("templates.tsv", "".join(
            f"{t.subject_class}\t{t.relation}\t{t.object_class}"
            + ("\t" + ",".join(sorted(t.triggers)) if t.triggers else "") + "\n"
            for t in fixture.templates)),
        "stopwords": ("stopwords.txt", "".join(w + "\n" for w in sorted(fixture.stopwords))),
        "rules": ("rules.txt", "RULE alert(left, right) ON ctx "
                  "WHEN nonempty(intersect(left, right)) THEN ALERT\n"),
        "groups": ("groups.json", json.dumps(groups, indent=2) + "\n"),
    }
    manifest = {key: name for key, (name, _) in files.items()}
    manifest.update({
        "graph_file": "out/graph.nt",
        "tokens_file": "out/tokens.txt",
        "model_file": "out/model.vec",
        "link_audit": "out/links.txt",
        "eval_report": "out/eval.json",
        "training": asdict(training),
    })
    files["manifest"] = ("manifest.json", json.dumps(manifest, indent=2) + "\n")
    for name, text in files.values():
        with atomic_write(directory / name) as fh:
            fh.write(text)
    return directory / "manifest.json"
