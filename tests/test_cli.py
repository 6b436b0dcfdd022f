"""CLI pipeline: staging, artifacts, query surface, exit codes."""

from __future__ import annotations

import io
import json
import logging
import shutil
from pathlib import Path

import pytest

from vkg import datasets
from vkg.cli import main
from vkg.ingest import read_documents_jsonl

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


@pytest.fixture()
def workspace(tmp_path):
    """Fresh copy of the bundled workspace (inputs only, no artifacts)."""
    target = tmp_path / "ws"
    shutil.copytree(FIXTURES, target, ignore=shutil.ignore_patterns("out"))
    return target


def run(workspace: Path, *argv: str) -> int:
    return main(["--manifest", str(workspace / "manifest.json"), *argv])


def append_row(path: Path, row: str) -> int:
    """Append one line to a TSV file; returns its line number."""
    text = path.read_text(encoding="utf-8")
    if text and not text.endswith("\n"):
        text += "\n"
    path.write_text(text + row + "\n", encoding="utf-8")
    return len(text.splitlines()) + 1


class TestStaging:
    def test_query_before_train_fails(self, workspace, capsys):
        assert run(workspace, "ingest") == 0
        code = run(workspace, "query", "--stmt", "LIST vulnerability OF 'mysql' AS K")
        assert code == 1
        assert "model_file" in capsys.readouterr().err

    def test_train_before_ingest_fails(self, workspace, capsys):
        code = run(workspace, "train")
        assert code == 1
        assert "tokens_file" in capsys.readouterr().err

    def test_missing_manifest(self, tmp_path, capsys):
        assert main(["--manifest", str(tmp_path / "nope.json"), "ingest"]) == 1

    def test_internal_error_exits_2(self, workspace, capsys):
        # point the corpus at a directory: an OS-level failure, not a user error
        manifest = json.loads((workspace / "manifest.json").read_text())
        manifest["corpus"] = "out"
        (workspace / "out").mkdir()
        (workspace / "manifest.json").write_text(json.dumps(manifest))
        assert run(workspace, "ingest") == 2
        assert "internal error" in capsys.readouterr().err

    @pytest.mark.parametrize("edit, message", [
        (lambda m: [], "expected a JSON object, got list"),
        (lambda m: {**m, "training": 5}, "'training' must be a JSON object, got 5"),
        (lambda m: {**m, "corpus": 5}, "'corpus' must be a path string, got 5"),
    ], ids=["top-level-list", "training-int", "corpus-int"])
    def test_malformed_manifest_exits_1(self, workspace, capsys, edit, message):
        path = workspace / "manifest.json"
        path.write_text(json.dumps(edit(json.loads(path.read_text()))))
        assert run(workspace, "ingest") == 1
        assert f"manifest {path}: {message}" in capsys.readouterr().err

    def test_malformed_groups_file_exits_1(self, workspace, capsys):
        for stage in ("ingest", "train", "link"):
            assert run(workspace, stage) == 0
        for text in ("{not json", '[{"name": "g", "kind": "attack", "members": [5, "x"]}]'):
            (workspace / "groups.json").write_text(text)
            capsys.readouterr()
            assert run(workspace, "eval") == 1
            assert f"groups file {workspace / 'groups.json'}: " in capsys.readouterr().err

    def test_rejected_group_names_the_groups_file(self, workspace, capsys):
        for stage in ("ingest", "train", "link"):
            assert run(workspace, stage) == 0
        path = workspace / "groups.json"
        for kind, members, message in (
            ("attack", ["x"], "group 'g': needs >= 2 members"),
            ("animal", ["x", "y"], "group 'g': unknown kind 'animal'"),
            ("attack", ["x", "X"], "group 'g': duplicate members"),
        ):
            path.write_text(json.dumps([{"name": "g", "kind": kind, "members": members}]))
            capsys.readouterr()
            assert run(workspace, "eval") == 1
            assert capsys.readouterr().err == f"error: groups file {path}: {message}\n"

    def test_link_replaces_the_graph_file(self, workspace):
        for stage in ("ingest", "train"):
            assert run(workspace, stage) == 0
        out = workspace / "out"
        graph_file = out / "graph.nt"
        before = graph_file.stat().st_ino
        assert run(workspace, "link") == 0
        assert graph_file.stat().st_ino != before
        assert sorted(p.name for p in out.iterdir()) == [
            "graph.nt", "links.txt", "model.vec", "tokens.txt"]

    def test_non_finite_model_component_exits_1(self, workspace, capsys):
        for stage in ("ingest", "train", "link"):
            assert run(workspace, stage) == 0
        path = workspace / "out" / "model.vec"
        header, first, second, *rest = path.read_text(encoding="utf-8").splitlines(True)
        fields = second.split(" ")
        fields[1] = "nan"
        path.write_text("".join([header, first, " ".join(fields), *rest]), encoding="utf-8")
        capsys.readouterr()
        assert run(workspace, "query", "--stmt", "LIST vulnerability OF 'mysql' AS K") == 1
        assert capsys.readouterr().err == (
            f"error: {path.resolve()}: row 3: non-finite component\n")

    def test_eval_does_not_read_the_rules_file(self, workspace, capsys):
        for stage in ("ingest", "train", "link"):
            assert run(workspace, stage) == 0
        rules = workspace / "rules.txt"
        rules.write_text(rules.read_text(encoding="utf-8") + "RULE broken(\n",
                         encoding="utf-8")
        assert run(workspace, "eval") == 0
        capsys.readouterr()
        assert run(workspace, "query", "--stmt", "LIST vulnerability OF 'mysql' AS K") == 1
        assert "expected identifier" in capsys.readouterr().err

    def test_empty_gazetteer_entity_exits_1(self, workspace, capsys):
        lineno = append_row(workspace / "gazetteer.tsv", "foo bar\t\tproduct")
        assert run(workspace, "ingest") == 1
        assert f"gazetteer.tsv:{lineno}: empty token" in capsys.readouterr().err

    @pytest.mark.parametrize("name, row", [
        ("gazetteer.tsv", "foo bar\tfoo_bar\t"),
        ("templates.tsv", "\thasVulnerability\tvulnerability"),
        ("templates.tsv", "product\thasVulnerability\t "),
    ])
    def test_empty_class_field_is_located(self, workspace, capsys, name, row):
        lineno = append_row(workspace / name, row)
        assert run(workspace, "ingest") == 1
        assert f"{name}:{lineno}: empty token" in capsys.readouterr().err

    @pytest.mark.parametrize("row, message", [
        ("!!!\tfoo\tproduct", "empty gazetteer surface form"),
        ("foo\tfoo\treptile", "gazetteer entry 'foo' maps to undeclared class 'reptile'"),
        ("dosx\tdenial_of_service\tproduct", "entity 'denial_of_service' mapped to two classes"),
    ])
    def test_gazetteer_entry_errors_are_located(self, workspace, capsys, row, message):
        lineno = append_row(workspace / "gazetteer.tsv", row)
        assert run(workspace, "ingest") == 1
        assert f"gazetteer.tsv:{lineno}: {message}" in capsys.readouterr().err

    def test_conflicting_duplicate_surface_names_both_lines(self, workspace, capsys):
        path = workspace / "gazetteer.tsv"
        first = append_row(path, "foo\tfoo\tproduct")
        append_row(path, "Foo\tfoo\tproduct")   # an identical entry is accepted
        second = append_row(path, "foo\tbar\tproduct")
        assert run(workspace, "ingest") == 1
        err = capsys.readouterr().err
        assert f"gazetteer.tsv:{second}: surface form 'foo'" in err
        assert f"gazetteer.tsv:{first} maps it to 'foo'" in err


class TestPipeline:
    def test_full_pipeline_and_search(self, workspace, capsys):
        for stage in ("ingest", "train", "link"):
            assert run(workspace, stage) == 0
        capsys.readouterr()
        code = run(workspace, "query", "--stmt",
                   "SEARCH 'denial_of_service' CLASS Vulnerability TOPK 5 AS V")
        assert code == 0
        out = capsys.readouterr().out
        assert out.startswith("V = [")
        members = [chunk.split(":")[0] for chunk in
                   out.strip()[len("V = ["):-1].split(", ")]
        assert members, "search returned nothing"
        # every member really is a vulnerability in the stored graph
        graph_text = (workspace / "out" / "graph.nt").read_text()
        for member in members:
            assert f"<{member}> <type> <vulnerability>" in graph_text

    def test_query_1_end_to_end(self, workspace, capsys):
        for stage in ("ingest", "train", "link"):
            assert run(workspace, stage) == 0
        capsys.readouterr()
        code = run(workspace, "query", "--stmt",
                   "SEARCH 'denial_of_service' CLASS vulnerability AS V; "
                   "LIST vulnerability OF 'mysql' AS K; "
                   "INFER alert FROM V, K ON 'mysql' AS A")
        assert code == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[-1] == "A = [alert_yes]"

    def test_rerun_byte_identical(self, workspace):
        for stage in ("ingest", "train", "link"):
            assert run(workspace, stage) == 0
        first = {
            name: (workspace / "out" / name).read_bytes()
            for name in ("graph.nt", "tokens.txt", "model.vec", "links.txt")
        }
        for stage in ("ingest", "train", "link"):
            assert run(workspace, stage) == 0
        for name, blob in first.items():
            assert (workspace / "out" / name).read_bytes() == blob

    def test_committed_artifacts_match_a_fresh_run(self, workspace):
        for stage in ("ingest", "train", "link"):
            assert run(workspace, stage) == 0
        committed, fresh = FIXTURES / "out", workspace / "out"
        for name in ("graph.nt", "tokens.txt", "links.txt"):
            assert (fresh / name).read_bytes() == (committed / name).read_bytes(), name
        # the float columns depend on the numpy build, header and tokens do not
        committed_rows = (committed / "model.vec").read_text().splitlines()
        fresh_rows = (fresh / "model.vec").read_text().splitlines()
        assert fresh_rows[0] == committed_rows[0]
        assert [row.split()[0] for row in fresh_rows[1:]] == [
            row.split()[0] for row in committed_rows[1:]]

    def test_verbose_train_logs_each_epoch_and_keeps_stdout(self, workspace, capsys,
                                                            caplog):
        assert run(workspace, "ingest") == 0
        capsys.readouterr()
        assert run(workspace, "train") == 0
        quiet = capsys.readouterr().out
        model = (workspace / "out" / "model.vec").read_bytes()
        caplog.set_level(logging.DEBUG, logger="vkg.embedding")
        assert main(["-v", "--manifest", str(workspace / "manifest.json"), "train"]) == 0
        assert capsys.readouterr().out == quiet
        assert (workspace / "out" / "model.vec").read_bytes() == model
        epochs = json.loads((workspace / "manifest.json").read_text())["training"]["epochs"]
        messages = [r.getMessage() for r in caplog.records
                    if r.name == "vkg.embedding" and r.levelno == logging.DEBUG]
        assert len(messages) == epochs
        total = int(messages[0].split(" of ")[1].split()[0])
        for epoch, message in enumerate(messages, start=1):
            assert message.startswith(
                f"epoch {epoch}/{epochs}: {total * epoch // epochs} of {total} pairs done, ")
            assert float(message.split(", ")[1].split()[0]) > 0
            assert message.endswith(" pairs/s")

    def test_seed_env_override_changes_model(self, workspace, monkeypatch):
        assert run(workspace, "ingest") == 0
        assert run(workspace, "train") == 0
        baseline = (workspace / "out" / "model.vec").read_bytes()
        monkeypatch.setenv("VKG_SEED", "12345")
        assert run(workspace, "train") == 0
        assert (workspace / "out" / "model.vec").read_bytes() != baseline

    def test_link_audit_format(self, workspace):
        for stage in ("ingest", "train", "link"):
            assert run(workspace, stage) == 0
        lines = (workspace / "out" / "links.txt").read_text().splitlines()
        assert lines[-1].startswith("COVERAGE ")
        for line in lines[:-1]:
            assert line.split()[0] in ("LINKED", "UNLINKED")


class TestEvalAndSweep:
    def test_eval_writes_report(self, workspace, capsys):
        for stage in ("ingest", "train", "link"):
            assert run(workspace, stage) == 0
        capsys.readouterr()
        assert run(workspace, "eval", "--k", "5") == 0
        out = capsys.readouterr().out
        assert "MAP" in out
        payload = json.loads((workspace / "out" / "eval.json").read_text())
        assert set(payload["backends"]) == {"graph", "vector", "vkg"}
        assert "timing" in payload

    def test_sweep_prints_grid(self, workspace, capsys):
        assert run(workspace, "ingest") == 0
        capsys.readouterr()
        assert run(workspace, "sweep", "--dimensions", "8",
                   "--min-counts", "1") == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "dimension min_count map_vector"
        assert lines[1].startswith("8 1 ")


class TestRepl:
    def test_repl_runs_queries_and_recovers_from_errors(
            self, workspace, capsys, monkeypatch):
        for stage in ("ingest", "train", "link"):
            assert run(workspace, stage) == 0
        capsys.readouterr()
        monkeypatch.setattr("sys.stdin", io.StringIO(
            "LIST vulnerability OF 'mysql' AS K\n"
            "THIS IS NOT A QUERY\n"
            "LIST attack OF 'mysql' AS T\n"
            "exit\n"))
        assert run(workspace, "query", "--repl") == 0
        captured = capsys.readouterr()
        assert "K = [buffer_overflow, sql_injection]" in captured.out
        assert "T = [brute_force_attack]" in captured.out
        assert "error:" in captured.err


class TestInit:
    def test_init_writes_runnable_workspace(self, tmp_path, capsys):
        target = tmp_path / "generated"
        assert main(["init", str(target)]) == 0
        assert (target / "manifest.json").exists()
        assert main(["--manifest", str(target / "manifest.json"), "ingest"]) == 0

    @pytest.mark.parametrize("seed", [0, 5])
    def test_seed_picks_the_corpus(self, tmp_path, seed):
        target = tmp_path / "generated"
        assert main(["--seed", str(seed), "init", str(target)]) == 0
        docs = read_documents_jsonl(target / "corpus.jsonl")
        assert docs == datasets.mixed_class_corpus(seed=seed).docs
        assert docs != datasets.mixed_class_corpus().docs
