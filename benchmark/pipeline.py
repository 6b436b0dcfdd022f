"""Workload ``pipeline``: the ``vkg`` CLI over a batch workspace.

A seeded ``mixed_class_corpus`` workspace (written by
``datasets.write_workspace``, scaled through its group counts) goes through
``vkg ingest``, ``vkg train`` and ``vkg link`` as processes; that is the
set-up, done SETUP_REPS times.  The timed rounds then call the CLI entry
point ``vkg.cli.main`` in this process: one-shot ``query --stmt`` calls with
SEARCH+LIST+INFER composites (each loads the artifacts again, as a one-shot
query does), ``link`` calls (the write: it rewrites the graph file in
place) and an ``eval`` call.  Calling ``main`` in-process leaves out the
interpreter start-up, whose run-to-run drift on a small shared machine is
larger than any bound allows; the traced run times it instead.

The traced run times ``import vkg.cli`` and each stage as a process, and
runs every subcommand once more through ``vkg.cli.main``, untraced and
then traced, for the per-layer metrics.
"""

from __future__ import annotations

import contextlib
import io
import json
import subprocess
import sys
import time

import numpy as np

import common
import layers
from common import Ledger, check, key_values, run_cli
from oracles import (FactMirror, Infer, List, QueryOracle, Search, Var, VectorOracle,
                     corpus_expectations, mean_ap, nt_text,
                     printed_mismatch, read_vec, render, values_mismatch)

SCALE = 1            # multiplies the corpus's vulnerability/attack/product groups
SETUP_REPS = 3
QUERY_GROUPS = 6     # a round: 6 x (the 3 query shapes and a relink)
IMPORT_REPS = 5
RELATIONS = {"vulnerability": "hasVulnerability", "attack": "hasAttack"}
SUBCLASSES = {"product": {"product", "software"}}
CATEGORIES = {None: "unfiltered", "vulnerability": "common", "attack": "rare",
              "product": "subclass"}


def window_pairs(n: int, window: int) -> int:
    """(center, context) pairs of an n-token sentence with a fixed window."""
    return sum(min(n - 1, i + window) - max(0, i - window) for i in range(n))


def run(seed: int, seconds: float, tracer=None):
    common.import_vkg()
    from vkg import datasets

    fixture = datasets.mixed_class_corpus(
        seed=seed, vuln_groups=5 * SCALE, attack_groups=4 * SCALE,
        product_groups=5 * SCALE)
    ws = common.WORK
    manifest = str(datasets.write_workspace(fixture, ws))
    out = ws / "out"
    kind = {m: g.kind for g in fixture.groups for m in g.members}
    corpus = corpus_expectations(
        [d.text for d in fixture.docs], kind,
        [(t.subject_class, t.relation, t.object_class, t.triggers)
         for t in fixture.templates], fixture.stopwords)
    linked_nt = nt_text(corpus.linked_triples())
    training = datasets.MIXED_TRAINING
    ledger = Ledger()
    stage_times: list[tuple[float, float, float]] = []
    artifacts: dict[str, bytes] = {}

    def cli(*args):
        return run_cli(["-m", manifest, *args])

    def setup():
        t_ingest, o_ingest = cli("ingest")
        t_train, o_train = cli("train")
        t_link, o_link = cli("link")
        stage_times.append((t_ingest, t_train, t_link))
        return o_ingest, o_train, o_link

    def verify_setup(outputs):
        o_ingest, o_train, o_link = (key_values(o) for o in outputs)
        expected = [
            (o_ingest, {"documents": str(corpus.documents),
                        "triples": str(len(corpus.triples))}),
            (o_train, {"vocabulary": str(len(corpus.vocabulary)),
                       "dimension": str(training.dimension)}),
            (o_link, {"linked": str(len(corpus.entities)), "unlinked": "0",
                      "coverage": "1.000000"})]
        for got, want in expected:
            why = values_mismatch(got, want)
            check(why is None, f"CLI printed {why}")
        verify_graph_file()
        files = {name: (out / name).read_bytes() for name in ("model.vec", "links.txt")}
        for name, data in files.items():
            check(artifacts.setdefault(name, data) == data,
                  f"re-running the pipeline changed {name}")

    def verify_graph_file():
        check((out / "graph.nt").read_text(encoding="utf-8") == linked_nt,
              "graph.nt differs from the triples derived from the documents")

    for _ in range(SETUP_REPS if tracer is None else 1):
        ledger.run("setup", setup, verify_setup)
    check(bool(stage_times), "the pipeline never set up")

    vec_text = (out / "model.vec").read_text(encoding="utf-8")
    tokens, rows = read_vec(vec_text)
    check(set(tokens) == corpus.vocabulary, "model.vec vocabulary differs from the corpus")
    vectors = VectorOracle(tokens, rows)
    mirror = FactMirror(classes=set(kind.values()))
    for fact in corpus.linked_triples():
        mirror.add(*fact)

    def allowed(cls):
        classes = SUBCLASSES.get(cls, {cls}) if cls else set(kind.values())
        return {e for e in corpus.entities if kind[e] in classes}

    oracle = QueryOracle(mirror, RELATIONS, vectors, allowed)

    def read_back():
        from vkg import embedding, kg
        schema = kg.Schema.load(ws / "schema.txt")
        return (kg.Graph.load(out / "graph.nt", schema),
                embedding.EmbeddingModel.load_text(out / "model.vec"))

    def verify_read_back(loaded):
        graph, model = loaded
        check(len(graph) == len(corpus.linked_triples()), f"graph.nt reads {len(graph)}")
        check(model.tokens == tokens and model.dimension == training.dimension,
              "model.vec does not read back")

    ledger.run(None, read_back, verify_read_back)

    groups = [g.members for g in fixture.groups]
    universe, pairs = sorted(mirror.entities()), {}
    expected_maps = {
        "graph": mean_ap(groups, lambda m: mirror.rank_graph(m, 10, universe, pairs)),
        "vector": mean_ap(groups, lambda m: [t for t, _ in vectors.top(m, 10)[0]]),
        "vkg": mean_ap(groups, lambda m: [t for t, _ in vectors.top(
            m, 10, vectors.indices(sorted(allowed(kind[m]))))[0]]),
    }
    members = sorted(kind)
    by_kind = {k: sorted(e for e in members if kind[e] == k) for k in set(kind.values())}
    rng = np.random.default_rng([seed, 1])

    def pick(k=None):
        pool = by_kind[k] if k else members
        return pool[int(rng.integers(0, len(pool)))]

    def round_queries():
        p1, p2 = pick("product"), pick("product")
        return [
            [Search(pick("vulnerability"), "vulnerability", 5, "V"),
             List("vulnerability", p1, "K"), Infer("alert", ("V", "K"), p1, "A")],
            [Search(pick("attack"), "attack", 5, "T"),
             List("attack", p2, "K"), Infer("alert", ("T", "K"), p2, "A")],
            [Search(pick("product"), "product", 5, "P"),
             List("vulnerability", Var("P"), "K")],
        ]

    from vkg import cli as vkg_cli

    def in_process(*args) -> str:
        """``vkg <args>`` through ``vkg.cli.main`` in this process; its stdout."""
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = vkg_cli.main(["-m", manifest, *args])
        check(code == 0, f"vkg {args[0]} returned {code}")
        return buf.getvalue()

    def query_op(kind, stmts, *flags):
        def verify(stdout):
            why = printed_mismatch(stdout, stmts, oracle.expect(stmts))
            check(why is None, f"{render(stmts)}: {why}")

        ledger.run(kind, lambda: in_process("query", "--stmt", render(stmts), *flags),
                   verify)

    def link_op():
        def verify(stdout):
            got = key_values(stdout)
            check(got.get("linked") == str(len(corpus.entities))
                  and got.get("coverage") == "1.000000", f"link printed {got}")
            verify_graph_file()

        ledger.run("write", lambda: in_process("link"), verify)

    def verify_eval(stdout):
        maps = next(line.split()[1:] for line in stdout.splitlines()
                    if line.startswith("MAP "))
        report = json.loads((out / "eval.json").read_text(encoding="utf-8"))
        for backend, shown in zip(("graph", "vector", "vkg"), maps):
            value = report["backends"][backend]["map"]
            check(abs(value - expected_maps[backend]) <= 1e-9,
                  f"{backend} MAP {value}, expected {expected_maps[backend]}")
            check(abs(float(shown) - value) <= 5e-5, f"{backend} MAP printed {shown}")
        check(expected_maps["vkg"] > max(expected_maps["graph"], expected_maps["vector"]),
              f"vkg is not the best backend: {expected_maps}")

    def one_round(r):
        for _ in range(QUERY_GROUPS):
            for stmts in round_queries():
                query_op("query", stmts)
            link_op()
        ledger.run("eval", lambda: in_process("eval"), verify_eval)

    # untimed warm-up: one round, checked but not timed
    common.run_rounds(0, one_round)
    ledger.samples = {"setup": ledger.samples["setup"]}

    info = {"docs": corpus.documents, "vocabulary": len(tokens),
            "triples": len(corpus.linked_triples())}
    if tracer is not None:
        queries = [stmts for _ in range(4) for stmts in round_queries()]
        plans = [[Search(a[0].term, a[0].cls, 5, "A"), Search(b[0].term, None, 5, "B")]
                 for a, b in zip(queries[::3], queries[1::3])]

        def stages():
            """Every subcommand once through ``vkg.cli.main``, each output checked."""
            outputs = []
            for stage in ("ingest", "train", "link"):
                tracer.op = stage
                outputs.append(ledger.run(None, lambda s=stage: in_process(s)))
            if None not in outputs:
                ledger.run(None, lambda: outputs, verify_setup)
            tracer.op = "query"
            for stmts in queries:
                query_op(None, stmts)
            tracer.op = "plans"
            for stmts in plans:
                query_op(None, stmts)
                query_op(None, stmts, "--parallel")
            tracer.op = "eval"
            ledger.run(None, lambda: in_process("eval"), verify_eval)

        layer = traced(tracer, stages, manifest, corpus, training, stage_times,
                       expected_maps)
        return ledger, {}, layer, info

    info["rounds"] = common.run_rounds(seconds, one_round)
    # the largest resident set of any vkg process this run started
    e2e = common.store_metrics(ledger.samples, common.peak_rss_mb(children=True))
    return ledger, e2e, {}, info


def import_ms() -> float:
    """Median wall time of ``import vkg.cli`` in a fresh interpreter."""
    code = ("import time; t = time.perf_counter(); import vkg.cli; "
            "print(time.perf_counter() - t)")
    times = []
    for _ in range(IMPORT_REPS):
        proc = subprocess.run([sys.executable, "-c", code], env=common.child_env(),
                              capture_output=True, text=True, check=True, timeout=60)
        times.append(float(proc.stdout) * 1e3)
    return common.median(times)


def traced(tracer, stages, manifest, corpus, training, stage_times, expected_maps):
    """``stages()`` untraced, then traced; the per-layer metrics."""
    from spans import instrument
    from vkg import cli

    started = time.perf_counter()
    stages()
    untraced_s = time.perf_counter() - started
    restore = instrument(tracer)
    try:
        started = time.perf_counter()
        stages()
        traced_s = time.perf_counter() - started
    finally:
        restore()

    build = [s for s in tracer.spans if s[2] == "ingest.build_corpus"]
    train = [s for s in tracer.spans if s[2] == "embedding.train"]
    tokens_file = cli.load_manifest(manifest).path("tokens_file")
    pairs = training.epochs * sum(
        window_pairs(len(line.split()), training.window)
        for line in tokens_file.read_text(encoding="utf-8").splitlines()
        if line.split())
    extra = {
        "cli.import_ms": import_ms(),
        "cli.ingest_s": common.median([t[0] for t in stage_times]),
        "cli.train_s": common.median([t[1] for t in stage_times]),
        "cli.link_s": common.median([t[2] for t in stage_times]),
        "ingest.docs_per_s": corpus.documents / ((build[0][4] - build[0][3]) / 1e9),
        "embedding.train_pairs_per_s": pairs / ((train[0][4] - train[0][3]) / 1e9),
    }
    extra.update({f"evaluation.map_{b}": v for b, v in expected_maps.items()})
    layer = layers.compute(tracer, CATEGORIES, extra)
    layer["_overhead"] = {"in_process_stages": traced_s / untraced_s - 1}
    return layer
