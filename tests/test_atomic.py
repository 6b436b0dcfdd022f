"""Artifact writers replace their file atomically.

A writer that raises part-way leaves the previous artifact byte-identical
and leaves no temporary file beside it.
"""

from __future__ import annotations

import numpy as np
import pytest

from vkg._atomic import atomic_write
from vkg.embedding import EmbeddingModel
from vkg.kg import Graph


def names(directory) -> list[str]:
    return sorted(p.name for p in directory.iterdir())


def test_atomic_write_creates_then_replaces(tmp_path):
    path = tmp_path / "artifact.txt"
    for text in ("first\n", "second\n"):
        with atomic_write(path) as fh:
            fh.write(text)
        assert path.read_text(encoding="utf-8") == text
    assert names(tmp_path) == ["artifact.txt"]


def test_writer_raising_mid_write_keeps_the_previous_file(tmp_path):
    path = tmp_path / "artifact.txt"
    path.write_text("previous\n", encoding="utf-8")
    with pytest.raises(RuntimeError):
        with atomic_write(path) as fh:
            fh.write("partial")
            fh.flush()
            raise RuntimeError("writer failed")
    assert path.read_bytes() == b"previous\n"
    assert names(tmp_path) == ["artifact.txt"]


def test_save_text_failing_on_a_row_keeps_the_previous_model(tmp_path):
    path = tmp_path / "model.vec"
    model = EmbeddingModel(["a", "b"], np.ones((2, 3)))
    model.save_text(path)
    before = path.read_bytes()
    # the header and the first row are written before the second row fails to format
    model.vectors = np.array([[0.5] * 3, [None] * 3], dtype=object)
    with pytest.raises(TypeError):
        model.save_text(path)
    assert path.read_bytes() == before
    assert names(tmp_path) == ["model.vec"]


def test_graph_save_failing_keeps_the_previous_graph(schema, tmp_path, monkeypatch):
    path = tmp_path / "graph.nt"
    graph = Graph(schema)
    graph.assert_triple("mysql", "hasVulnerability", "dos")
    graph.save(path)
    before = path.read_bytes()
    graph.assert_triple("mysql", "hasVulnerability", "xss")

    def fail(self):
        raise RuntimeError("to_text failed")

    monkeypatch.setattr(Graph, "to_text", fail)
    with pytest.raises(RuntimeError):
        graph.save(path)
    assert path.read_bytes() == before
    assert names(tmp_path) == ["graph.nt"]
