"""Command-line pipeline: ingest -> train -> link -> query/eval/sweep.

All paths and the training configuration live in a single JSON manifest;
flags override manifest values and the VKG_SEED environment variable
overrides the seed.  Each stage requires its predecessors' artifacts and
fails with a MissingArtifact error otherwise.  Exit codes: 0 success,
1 user error, 2 internal error.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
from dataclasses import dataclass, field
from pathlib import Path

from . import datasets, embedding, evaluation, ingest, linking, query as query_mod
from ._atomic import atomic_write
from .embedding import EmbeddingModel, TrainingConfig
from .errors import MissingArtifactError, VkgError
from .kg import Graph, Schema
from .rules import RuleSet, builtin_rules, load_rules

logger = logging.getLogger(__name__)

_TRAINING_FIELDS = ("dimension", "window", "min_count", "negatives", "epochs",
                    "learning_rate", "seed")
_PATH_FIELDS = ("corpus", "schema", "gazetteer", "templates", "stopwords",
                "rules", "groups", "graph_file", "tokens_file", "model_file",
                "link_audit", "eval_report")


@dataclass
class Manifest:
    """Workspace paths plus the training configuration.

    ``entries`` holds each path as the manifest writes it; :meth:`path`
    resolves one against the manifest's directory when a stage first asks
    for it.
    """

    base: Path
    entries: dict[str, str]
    training: TrainingConfig
    _resolved: dict[str, Path] = field(default_factory=dict, repr=False)

    def path(self, key: str) -> Path:
        if key not in self._resolved:
            if key not in self.entries:
                raise MissingArtifactError(f"manifest does not define '{key}'")
            self._resolved[key] = (self.base / self.entries[key]).resolve()
        return self._resolved[key]

    def input_path(self, key: str, stage: str) -> Path:
        """Path that must already exist for the stage to run."""
        p = self.path(key)
        if not p.exists():
            raise MissingArtifactError(
                f"stage '{stage}' needs {key} at {p}; "
                "run the earlier pipeline stages first")
        return p


def load_manifest(path, overrides: dict | None = None) -> Manifest:
    path = Path(path)
    if not path.exists():
        raise MissingArtifactError(f"manifest not found: {path}")
    with open(path, encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise VkgError(f"manifest {path}: invalid JSON: {exc}") from None
    if not isinstance(data, dict):
        raise VkgError(f"manifest {path}: expected a JSON object, got {type(data).__name__}")
    for key in _PATH_FIELDS:
        if not isinstance(data.get(key, ""), str):
            raise VkgError(f"manifest {path}: '{key}' must be a path string, got {data[key]!r}")
    if not isinstance(data.get("training", {}), dict):
        raise VkgError(f"manifest {path}: 'training' must be a JSON object, "
                       f"got {data['training']!r}")
    entries = {key: data[key] for key in _PATH_FIELDS if key in data}
    training_data = dict(data.get("training", {}))
    for key, value in (overrides or {}).items():
        if value is not None and key in _TRAINING_FIELDS:
            training_data[key] = value
    env_seed = os.environ.get("VKG_SEED")
    if env_seed is not None:
        try:
            training_data["seed"] = int(env_seed)
        except ValueError:
            raise VkgError(f"VKG_SEED must be an integer, got {env_seed!r}") from None
    try:
        training = TrainingConfig(**training_data)
    except (TypeError, ValueError) as exc:
        raise VkgError(f"invalid training config: {exc}") from None
    return Manifest(base=path.parent, entries=entries, training=training)


def _ensure_parent(path: Path) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)


# --- stage loaders -----------------------------------------------------------

def _load_schema(manifest: Manifest, stage: str) -> Schema:
    return Schema.load(manifest.input_path("schema", stage))


def _load_graph(manifest: Manifest, stage: str) -> Graph:
    schema = _load_schema(manifest, stage)
    return Graph.load(manifest.input_path("graph_file", stage), schema)


def _load_model(manifest: Manifest, stage: str) -> EmbeddingModel:
    return EmbeddingModel.load_text(manifest.input_path("model_file", stage))


def _load_rules(manifest: Manifest) -> RuleSet:
    if "rules" in manifest.entries:
        rules_path = manifest.path("rules")
        if rules_path.exists():
            return load_rules(rules_path).with_defaults(builtin_rules())
    return builtin_rules()


# --- subcommands --------------------------------------------------------------

def cmd_ingest(manifest: Manifest, args: argparse.Namespace) -> int:
    schema = _load_schema(manifest, "ingest")
    gazetteer = ingest.Gazetteer.load_tsv(manifest.input_path("gazetteer", "ingest"),
                                          schema)
    templates = ingest.load_templates(manifest.input_path("templates", "ingest"),
                                      schema)
    stopwords = ingest.load_stopwords(manifest.input_path("stopwords", "ingest"))
    docs = ingest.read_documents_jsonl(manifest.input_path("corpus", "ingest"))
    graph, sentences = ingest.build_corpus(docs, gazetteer, templates, schema,
                                           stopwords)
    graph_path = manifest.path("graph_file")
    _ensure_parent(graph_path)
    graph.save(graph_path)
    tokens_path = manifest.path("tokens_file")
    _ensure_parent(tokens_path)
    with atomic_write(tokens_path) as fh:
        for sentence in sentences:
            fh.write(" ".join(sentence) + "\n")
    print(f"documents {len(docs)}")
    print(f"triples {len(graph)}")
    print(f"graph_file {graph_path}")
    print(f"tokens_file {tokens_path}")
    return 0


def _read_sentences(path: Path) -> list[list[str]]:
    with open(path, encoding="utf-8") as fh:
        return [line.split() for line in fh if line.strip()]


def cmd_train(manifest: Manifest, args: argparse.Namespace) -> int:
    sentences = _read_sentences(manifest.input_path("tokens_file", "train"))
    model = embedding.train(sentences, manifest.training)
    model_path = manifest.path("model_file")
    _ensure_parent(model_path)
    model.save_text(model_path)
    print(f"vocabulary {len(model)}")
    print(f"dimension {model.dimension}")
    print(f"model_file {model_path}")
    return 0


def cmd_link(manifest: Manifest, args: argparse.Namespace) -> int:
    graph = _load_graph(manifest, "link")
    model = _load_model(manifest, "link")
    table = linking.link_all(graph, model)
    graph.save(manifest.path("graph_file"))
    audit_path = manifest.path("link_audit")
    _ensure_parent(audit_path)
    with atomic_write(audit_path) as fh:
        fh.write(linking.audit_report(table))
    print(f"linked {len(table.links)}")
    print(f"unlinked {len(table.unlinked)}")
    print(f"coverage {table.coverage:.6f}")
    print(f"link_audit {audit_path}")
    return 0


def _query_context(manifest: Manifest, stage: str):
    graph = _load_graph(manifest, stage)
    model = _load_model(manifest, stage)
    table = linking.table_from_graph(graph, model)
    rules = _load_rules(manifest)
    return graph, model, table, rules


def cmd_query(manifest: Manifest, args: argparse.Namespace) -> int:
    graph, model, table, rules = _query_context(manifest, "query")

    def run(text: str) -> None:
        ast = query_mod.parse(text, schema=graph.schema, rules=rules)
        plan = query_mod.decompose(ast)
        bindings = query_mod.execute(plan, graph, model, table, rules,
                                     parallel=args.parallel)
        sys.stdout.write(query_mod.format_bindings(bindings))

    if args.stmt is not None:
        run(args.stmt)
        return 0
    # REPL: one composite query per line, 'exit' or EOF to quit
    print("vkg query repl; enter a query, or 'exit'", file=sys.stderr)
    for line in sys.stdin:
        line = line.strip()
        if not line:
            continue
        if line.lower() in ("exit", "quit"):
            break
        try:
            run(line)
        except VkgError as exc:
            print(f"error: {exc}", file=sys.stderr)
    return 0


def cmd_eval(manifest: Manifest, args: argparse.Namespace) -> int:
    graph, model, table, _ = _query_context(manifest, "eval")
    groups = evaluation.load_groups(manifest.input_path("groups", "eval"))
    report = evaluation.evaluate_all(groups, graph, model, table, k=args.k)
    timing = evaluation.timing_comparison(groups, graph, model, table, k=args.k)
    payload = evaluation.report_to_json(report)
    payload["timing"] = {
        "vector_median_seconds": timing.vector_median,
        "graph_median_seconds": timing.graph_median,
        "graph_over_vector_ratio": timing.ratio,
        "below_floor": timing.below_floor,
    }
    report_path = manifest.path("eval_report")
    _ensure_parent(report_path)
    with atomic_write(report_path) as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")
    sys.stdout.write(evaluation.render_report(report))
    print(f"timing_ratio {timing.ratio:.2f}")
    print(f"eval_report {report_path}")
    return 0


def cmd_sweep(manifest: Manifest, args: argparse.Namespace) -> int:
    sentences = _read_sentences(manifest.input_path("tokens_file", "sweep"))
    groups = evaluation.load_groups(manifest.input_path("groups", "sweep"))
    rows = evaluation.sweep(sentences, groups, manifest.training,
                            dimensions=args.dimensions, min_counts=args.min_counts)
    print("dimension min_count map_vector")
    for row in rows:
        rendered = "-" if row.map_vector is None else f"{row.map_vector:.4f}"
        print(f"{row.dimension} {row.min_count} {rendered}")
    return 0


def cmd_init(manifest_path: Path, args: argparse.Namespace) -> int:
    """Materialize the engineered mixed-class fixture as a workspace."""
    fixture = datasets.mixed_class_corpus(seed=args.seed or 11)
    out = datasets.write_workspace(fixture, manifest_path)
    print(f"manifest {out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vkg",
        description="Hybrid triple-graph + word-embedding knowledge store",
    )
    parser.add_argument("--manifest", "-m", default="manifest.json",
                        help="workspace manifest (JSON)")
    parser.add_argument("--seed", type=int, default=None,
                        help="override the training seed")
    parser.add_argument("-v", "--verbose", action="store_true")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("ingest", help="extract triples and the training token stream")

    train = sub.add_parser("train", help="train embeddings on the token stream")
    train.add_argument("--dimension", type=int, default=None)
    train.add_argument("--window", type=int, default=None)
    train.add_argument("--min-count", type=int, default=None, dest="min_count")
    train.add_argument("--epochs", type=int, default=None)

    sub.add_parser("link", help="link graph entities to vocabulary tokens")

    q = sub.add_parser("query", help="run the search/list/infer DSL")
    group = q.add_mutually_exclusive_group(required=True)
    group.add_argument("--stmt", help="composite query string")
    group.add_argument("--repl", action="store_true", help="read queries from stdin")
    q.add_argument("--parallel", action="store_true",
                   help="run independent subqueries concurrently")

    ev = sub.add_parser("eval", help="MAP comparison of graph/vector/vkg backends")
    ev.add_argument("--k", type=int, default=10)

    sw = sub.add_parser("sweep", help="reduced hyperparameter sweep")
    sw.add_argument("--dimensions", type=int, nargs="+", default=[16, 32, 64])
    sw.add_argument("--min-counts", type=int, nargs="+", default=[1, 2, 5],
                    dest="min_counts")

    init = sub.add_parser("init", help="write the bundled synthetic workspace")
    init.add_argument("directory", help="target directory for the workspace")

    return parser


_COMMANDS = {
    "ingest": cmd_ingest,
    "train": cmd_train,
    "link": cmd_link,
    "query": cmd_query,
    "eval": cmd_eval,
    "sweep": cmd_sweep,
}


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(
        level=logging.DEBUG if args.verbose else logging.WARNING,
        stream=sys.stderr,
        format="%(levelname)s %(name)s: %(message)s",
    )
    try:
        if args.command == "init":
            return cmd_init(Path(args.directory), args)
        overrides = {
            key: getattr(args, key, None)
            for key in _TRAINING_FIELDS
        }
        manifest = load_manifest(args.manifest, overrides)
        return _COMMANDS[args.command](manifest, args)
    except VkgError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # noqa: BLE001 - internal failure boundary
        logger.exception("internal error")
        print(f"internal error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
