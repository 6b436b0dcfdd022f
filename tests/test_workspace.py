"""``datasets.write_workspace``: every file reads back, and a failed write is atomic.

Each file ``vkg init`` writes must come back through the reader the
pipeline uses for it.  A write that fails part-way leaves every file with
either its old or its new bytes, no temporary file, and a new workspace
without its manifest.
"""

from __future__ import annotations

import dataclasses
from contextlib import contextmanager

import pytest

from vkg import _atomic, datasets
from vkg.cli import load_manifest
from vkg.datasets import MIXED_TRAINING, write_workspace
from vkg.evaluation import load_groups
from vkg.ingest import (
    Gazetteer,
    RelationTemplate,
    load_stopwords,
    load_templates,
    read_documents_jsonl,
)
from vkg.kg import Schema
from vkg.rules import load_rules

FILES = ["corpus.jsonl", "gazetteer.tsv", "groups.json", "manifest.json", "rules.txt",
         "schema.txt", "stopwords.txt", "templates.tsv"]


def schema_parts(schema: Schema) -> tuple:
    return schema.classes, schema.subclass_edges, schema.relations, schema.aliases


def contents(directory) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in directory.iterdir() if p.is_file()}


@pytest.fixture()
def fixture(mixed_fixture):
    """The mixed corpus plus stopwords and a template with triggers."""
    return dataclasses.replace(
        mixed_fixture, stopwords=frozenset({"the", "via"}),
        templates=[*mixed_fixture.templates,
                   RelationTemplate("product", "hasMeans", "means",
                                    frozenset({"via", "using"}))])


def test_every_file_reads_back(fixture, tmp_path):
    manifest = load_manifest(write_workspace(fixture, tmp_path))
    assert manifest.training == MIXED_TRAINING
    assert sorted(contents(tmp_path)) == FILES
    assert (tmp_path / "out").is_dir()
    schema = Schema.load(manifest.path("schema"))
    assert schema_parts(schema) == schema_parts(fixture.schema)
    gazetteer = Gazetteer.load_tsv(manifest.path("gazetteer"), schema)
    assert gazetteer.entries == fixture.gazetteer.entries
    assert load_templates(manifest.path("templates"), schema) == fixture.templates
    assert read_documents_jsonl(manifest.path("corpus")) == fixture.docs
    assert load_stopwords(manifest.path("stopwords")) == fixture.stopwords
    assert load_groups(manifest.path("groups")) == fixture.groups
    assert load_rules(manifest.path("rules")).names() == ["alert"]


def test_training_config_is_written_whole(mixed_fixture, tmp_path):
    training = dataclasses.replace(MIXED_TRAINING, learning_rate=0.5, seed=99)
    manifest = load_manifest(write_workspace(mixed_fixture, tmp_path, training))
    assert manifest.training == training


def empty_sections() -> Schema:
    schema = Schema()
    schema.declare_class("thing")
    schema.declare_relation("relatedTo")
    return schema


@pytest.mark.parametrize("schema", [datasets.security_schema(), Schema(), empty_sections()],
                         ids=["security", "empty", "empty-sections"])
def test_schema_text_round_trips(schema):
    text = schema.to_text()
    assert schema_parts(Schema.parse(text)) == schema_parts(schema)
    assert Schema.parse(text).to_text() == text


@contextmanager
def failing_write(monkeypatch, n: int):
    """``write_workspace`` whose nth ``atomic_write`` raises after writing part of its file."""
    calls = []

    @contextmanager
    def write(path):
        calls.append(path)
        with _atomic.atomic_write(path) as fh:
            if len(calls) == n:
                fh.write("partial")
                raise OSError("disk full")
            yield fh

    monkeypatch.setattr(datasets, "atomic_write", write)
    with pytest.raises(OSError, match="disk full"):
        yield
    monkeypatch.undo()


@pytest.mark.parametrize("n", range(1, len(FILES) + 1))
def test_failed_write_leaves_old_or_new_bytes(fixture, tmp_path, monkeypatch, n):
    new_fixture = datasets.mixed_class_corpus(seed=5)
    new = contents(write_workspace(new_fixture, tmp_path / "new").parent)

    fresh = tmp_path / "fresh"
    with failing_write(monkeypatch, n):
        write_workspace(new_fixture, fresh)
    written = contents(fresh)
    assert len(written) == n - 1
    assert set(written) <= set(FILES) - {"manifest.json"}
    assert all(blob == new[name] for name, blob in written.items())

    existing = tmp_path / "existing"
    old_training = dataclasses.replace(MIXED_TRAINING, seed=99)
    old = contents(write_workspace(fixture, existing, old_training).parent)
    with failing_write(monkeypatch, n):
        write_workspace(new_fixture, existing)
    after = contents(existing)
    assert sorted(after) == FILES
    assert all(after[name] in (old[name], new[name]) for name in FILES)
    assert after["manifest.json"] == old["manifest.json"] != new["manifest.json"]
