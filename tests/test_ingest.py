"""Ingest pipeline: preprocessing, gazetteer matching, template extraction."""

from __future__ import annotations

import numpy as np
import pytest

from vkg import datasets
from vkg.errors import CorpusFormatError
from vkg.ingest import (
    Document,
    Gazetteer,
    RelationTemplate,
    build_corpus,
    extract_triples,
    load_stopwords,
    load_templates,
    preprocess,
    read_documents_jsonl,
    tokenize_text,
)


class TestPreprocess:
    def test_advisory_sentence(self):
        schema, gazetteer, _, doc = datasets.advisory_example()
        stopwords = frozenset({"a", "or", "to", "via"})
        tokens = preprocess(doc, stopwords, gazetteer)
        for expected in ("microsoft_internet_explorer", "remote_attackers",
                         "denial_of_service", "crafted_web_site",
                         "execute_arbitrary_code"):
            assert expected in tokens
        assert "a" not in tokens and "via" not in tokens

    def test_empty_text(self):
        schema, gazetteer, _, _ = datasets.advisory_example()
        doc = Document("d0", "fixture", "")
        assert preprocess(doc, frozenset(), gazetteer) == []

    def test_longest_leftmost_overlap(self, schema):
        gazetteer = Gazetteer.from_pairs(
            [("a b", "a_b", "product"), ("b c", "b_c", "product")], schema)
        doc = Document("d0", "fixture", "a b c")
        assert preprocess(doc, frozenset(), gazetteer) == ["a_b", "c"]

    def test_stopword_inside_surface_form_survives(self, schema):
        gazetteer = Gazetteer.from_pairs(
            [("denial of service", "denial_of_service", "vulnerability")], schema)
        doc = Document("d0", "fixture", "the denial of service of today")
        tokens = preprocess(doc, frozenset({"the", "of"}), gazetteer)
        assert tokens == ["denial_of_service", "today"]

    def test_punctuation_stripped(self):
        assert tokenize_text("Hello, (world)! it's 2-fold") == [
            "hello", "world", "it", "s", "2", "fold"]

    def test_matching_equals_enumeration_oracle(self, schema):
        rng = np.random.default_rng(31)
        alphabet = ["a", "b", "c", "d"]
        surfaces = ["a", "a b", "b c d", "c", "d a", "b b"]
        gazetteer = Gazetteer.from_pairs(
            [(s, s.replace(" ", "_"), "product") for s in surfaces], schema)

        def oracle(tokens):
            spans = [
                (i, j) for i in range(len(tokens))
                for j in range(i + 1, len(tokens) + 1)
                if tuple(tokens[i:j]) in gazetteer.entries
            ]
            chosen = []
            pos = 0
            while True:
                ahead = [s for s in spans if s[0] >= pos]
                if not ahead:
                    break
                start = min(s[0] for s in ahead)
                end = max(s[1] for s in ahead if s[0] == start)
                chosen.append((start, end, gazetteer.entries[
                    tuple(tokens[start:end])][0]))
                pos = end
            return chosen

        for _ in range(200):
            tokens = [alphabet[k] for k in rng.integers(0, 4, size=rng.integers(0, 12))]
            assert gazetteer.match(tokens) == oracle(tokens)


class TestExtractTriples:
    def test_advisory_triples_exact(self):
        schema, gazetteer, templates, doc = datasets.advisory_example()
        tokens = preprocess(doc, frozenset(), gazetteer)
        triples = extract_triples(tokens, gazetteer, templates, schema)
        got = {(t.subject, t.predicate, t.object) for t in triples}
        ie = "microsoft_internet_explorer"
        assert got == {
            (ie, "type", "product"),
            ("remote_attackers", "type", "attacker"),
            ("execute_arbitrary_code", "type", "vulnerability"),
            ("denial_of_service", "type", "vulnerability"),
            ("crafted_web_site", "type", "means"),
            (ie, "hasVulnerability", "denial_of_service"),
            (ie, "hasVulnerability", "execute_arbitrary_code"),
            (ie, "hasMeans", "crafted_web_site"),
            (ie, "hasAttacker", "remote_attackers"),
        }

    def test_single_class_document_yields_type_triples_only(self, schema):
        gazetteer = Gazetteer.from_pairs(
            [("dos", "dos", "vulnerability"), ("xss", "xss", "vulnerability")],
            schema)
        templates = [RelationTemplate("product", "hasVulnerability",
                                      "vulnerability")]
        triples = extract_triples(["dos", "xss"], gazetteer, templates, schema)
        assert all(t.predicate == "type" for t in triples)

    def test_trigger_gates_template(self, schema):
        gazetteer = Gazetteer.from_pairs(
            [("mysql", "mysql", "product"), ("dos", "dos", "vulnerability")],
            schema)
        gated = [RelationTemplate("product", "hasVulnerability", "vulnerability",
                                  frozenset({"suffers"}))]
        without = extract_triples(["mysql", "dos"], gazetteer, gated, schema)
        assert all(t.predicate == "type" for t in without)
        with_trigger = extract_triples(["mysql", "suffers", "dos"],
                                       gazetteer, gated, schema)
        assert any(t.predicate == "hasVulnerability" for t in with_trigger)

    def test_synthetic_corpus_matches_template_oracle(self, schema):
        rng = np.random.default_rng(41)
        entities = ([(f"p{i}", "product") for i in range(4)]
                    + [(f"v{i}", "vulnerability") for i in range(4)]
                    + [(f"a{i}", "attack") for i in range(3)])
        gazetteer = Gazetteer.from_pairs(
            [(name, name, cls) for name, cls in entities], schema)
        templates = [
            RelationTemplate("product", "hasVulnerability", "vulnerability"),
            RelationTemplate("product", "hasAttack", "attack",
                             frozenset({"hit"})),
        ]
        names = [name for name, _ in entities]
        fillers = ["hit", "by", "the", "storm"]
        for _ in range(50):
            pool = names + fillers
            tokens = [pool[k] for k in rng.integers(0, len(pool),
                                                    size=rng.integers(1, 10))]
            triples = extract_triples(tokens, gazetteer, templates, schema)
            got = {(t.subject, t.predicate, t.object) for t in triples}

            mentioned = {t for t in tokens if t in gazetteer.entity_class}
            expected = {(e, "type", gazetteer.entity_class[e]) for e in mentioned}
            for template in templates:
                if template.triggers and not (template.triggers & set(tokens)):
                    continue
                for s in mentioned:
                    for o in mentioned:
                        if (s != o
                                and gazetteer.entity_class[s] == template.subject_class
                                and gazetteer.entity_class[o] == template.object_class):
                            expected.add((s, template.relation, o))
            assert got == expected
            assert len(triples) == len(got)  # no duplicates emitted


class TestBuildCorpus:
    def test_single_doc_equals_extract(self):
        schema, gazetteer, templates, doc = datasets.advisory_example()
        graph, sentences = build_corpus([doc], gazetteer, templates, schema)
        tokens = preprocess(doc, frozenset(), gazetteer)
        direct = extract_triples(tokens, gazetteer, templates, schema)
        assert {(t.subject, t.predicate, t.object) for t in graph} == {
            (t.subject, t.predicate, t.object) for t in direct}
        assert sentences == [tokens]

    def test_duplicate_text_distinct_ids(self):
        schema, gazetteer, templates, doc = datasets.advisory_example()
        twin = Document("advisory-2", doc.source, doc.text)
        one, stream_one = build_corpus([doc], gazetteer, templates, schema)
        two, stream_two = build_corpus([doc, twin], gazetteer, templates, schema)
        assert len(one) == len(two)  # triple union is idempotent
        assert stream_two == stream_one * 2

    def test_duplicate_ids_rejected(self):
        schema, gazetteer, templates, doc = datasets.advisory_example()
        with pytest.raises(CorpusFormatError):
            build_corpus([doc, doc], gazetteer, templates, schema)

    def test_pipeline_deterministic(self, bundled_workspace):
        graph_a, sentences_a = build_corpus(
            bundled_workspace["docs"], bundled_workspace["gazetteer"],
            bundled_workspace["templates"], bundled_workspace["schema"],
            bundled_workspace["stopwords"])
        graph_b, sentences_b = build_corpus(
            bundled_workspace["docs"], bundled_workspace["gazetteer"],
            bundled_workspace["templates"], bundled_workspace["schema"],
            bundled_workspace["stopwords"])
        assert graph_a.to_text() == graph_b.to_text()
        assert sentences_a == sentences_b

    def test_relation_entities_also_have_type_triples(self, bundled_workspace):
        graph = bundled_workspace["graph"]
        typed = {t.subject for t in graph if t.predicate == "type"}
        for t in graph:
            if t.predicate in ("type", "subClassOf", "sameAs", "hasVector"):
                continue
            assert t.subject in typed
            assert t.object in typed


class TestFileFormats:
    def test_document_source_validated(self):
        with pytest.raises(CorpusFormatError):
            Document("d0", "carrier_pigeon", "hello")

    def test_jsonl_errors(self, tmp_path):
        bad = tmp_path / "corpus.jsonl"
        bad.write_text('{"id": "a"}\n')
        with pytest.raises(CorpusFormatError):
            read_documents_jsonl(bad)
        bad.write_text("not json\n")
        with pytest.raises(CorpusFormatError):
            read_documents_jsonl(bad)

    def test_jsonl_round_trip(self, tmp_path, bundled_workspace):
        docs = read_documents_jsonl(bundled_workspace["root"] / "corpus.jsonl")
        assert docs == bundled_workspace["docs"]

    def test_gazetteer_rejects_undeclared_class(self, schema):
        with pytest.raises(CorpusFormatError):
            Gazetteer.from_pairs([("x", "x", "reptile")], schema)

    def test_gazetteer_rejects_conflicting_classes(self, schema):
        with pytest.raises(CorpusFormatError):
            Gazetteer.from_pairs(
                [("x", "shared", "product"), ("y", "shared", "attack")], schema)

    def test_gazetteer_repeated_surface_form(self, schema):
        rows = [("web app", "web_app", "product"), ("Web-App", "web_app", "product")]
        assert Gazetteer.from_pairs(rows, schema).entries == {
            ("web", "app"): ("web_app", "product")}
        with pytest.raises(CorpusFormatError, match="maps to 'other'"):
            Gazetteer.from_pairs(rows + [("web app", "other", "product")], schema)

    def test_templates_validate_against_schema(self, tmp_path, schema):
        path = tmp_path / "templates.tsv"
        path.write_text("product\tnoSuchRelation\tvulnerability\n")
        with pytest.raises(CorpusFormatError):
            load_templates(path, schema)

    def test_stopwords_loader(self, tmp_path):
        path = tmp_path / "stopwords.txt"
        path.write_text("# comment\nThe\nand\n\n")
        assert load_stopwords(path) == frozenset({"the", "and"})
