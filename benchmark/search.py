"""Workload ``search``: a long-lived store answering composite queries.

The benchmark writes a store of seeded clustered vectors and a typed
graph (``software`` is a subclass of ``product``) as ``.vec``, ``.nt``,
schema and rules files, loads it through the library as ``vkg query``
does, and runs one composite query per operation from one client in a
closed loop.  SEARCH statements vary in class filter: none, a common
class, a rare class, or a subclass-closed class; LIST and INFER are mixed
in.  Four operations in every round are writes: two tag a vocabulary word
with a class (a ``type`` triple plus ``link_all``), two remove the tag
again (retraction plus ``link_all``), so the store keeps its size.  Each
round ends with one ``evaluate_all``.
"""

from __future__ import annotations

import numpy as np

import common
import layers
from common import Ledger, check
from oracles import (FactMirror, Infer, List, QueryOracle, Search, Var,
                     VectorOracle, bindings_mismatch, mean_ap, nt_text, read_vec,
                     render)

DIM = 32
CLUSTERS = 80
# 3992 tokens in 80 clusters; every class is spread evenly over the
# clusters, so stores made from different seeds cost the same to search.
# ``attacker`` has fewer members than TOPK: its searches always double the
# window up to the whole vocabulary.
CLASS_SIZES = {"product": 480, "software": 320, "vulnerability": 480,
               "attack": 240, "means": 72, "attacker": 8}
PREFIX = {"product": "prod", "software": "sw", "vulnerability": "vuln",
          "attack": "atk", "means": "means", "attacker": "actor"}
WORDS = 2392
SUBCLASSES = {"product": {"product", "software"}}
RELATIONS = {"vulnerability": "hasVulnerability", "attack": "hasAttack",
             "means": "hasMeans", "attacker": "hasAttacker"}
CATEGORIES = {None: "unfiltered", "vulnerability": "common", "attacker": "rare",
              "product": "subclass"}
SETUP_REPS = 9
EVAL_GROUPS = (("vulnerability", 3), ("product", 3))

SCHEMA = """[classes]
product
software
vulnerability
attack
means
attacker

[subclass]
software product

[relations]
hasVulnerability product vulnerability
hasAttack product attack
hasMeans product means
hasAttacker product attacker

[aliases]
vulnerability hasVulnerability
attack hasAttack
means hasMeans
attacker hasAttacker
"""


class Inputs:
    """Seeded store contents plus the benchmark's own class map."""

    def __init__(self, seed: int, workdir):
        rng = np.random.default_rng(seed)
        self.rng = rng
        self.classes: dict[str, set[str]] = {}
        entities = []
        for cls, size in CLASS_SIZES.items():
            names = [f"{PREFIX[cls]}{i:04d}" for i in range(size)]
            self.classes[cls] = set(names)
            entities += names
        self.words = [f"w{i:04d}" for i in range(WORDS)]
        tokens, cluster = [], []
        for group in [self.classes[c] for c in CLASS_SIZES] + [self.words]:
            names = sorted(group)
            order = rng.permutation(len(names))
            offset = int(rng.integers(0, CLUSTERS))
            tokens += [names[i] for i in order]
            cluster += [(j + offset) % CLUSTERS for j in range(len(names))]
        order = rng.permutation(len(tokens))
        tokens = [tokens[i] for i in order]
        cluster = np.array(cluster)[order]
        self.cluster = dict(zip(tokens, cluster.tolist()))
        centers = rng.normal(size=(CLUSTERS, DIM))
        rows = centers[cluster] + 0.6 * rng.normal(size=(len(tokens), DIM))
        lines = [f"{len(tokens)} {DIM}\n"]
        lines += [tok + " " + " ".join(f"{x:.6f}" for x in row) + "\n"
                  for tok, row in zip(tokens, rows)]
        vec_text = "".join(lines)
        # the oracle scores the values exactly as written to the file
        self.vectors = VectorOracle(*read_vec(vec_text))

        self.mirror = FactMirror(classes=CLASS_SIZES)
        for cls, names in self.classes.items():
            for e in names:
                self.mirror.add(e, "type", cls)
                self.mirror.add(e, "hasVector", e, True)
        self.products = sorted(self.classes["product"] | self.classes["software"])
        vulns = sorted(self.classes["vulnerability"])
        for p in self.products:
            for v in rng.choice(len(vulns), size=3, replace=False):
                self.mirror.add(p, "hasVulnerability", vulns[v])
            self.mirror.add(p, "hasAttack", sorted(self.classes["attack"])[
                rng.integers(0, CLASS_SIZES["attack"])])
            if rng.random() < 0.3:
                self.mirror.add(p, "hasMeans", sorted(self.classes["means"])[
                    rng.integers(0, CLASS_SIZES["means"])])
            if rng.random() < 0.2:
                self.mirror.add(p, "hasAttacker", sorted(self.classes["attacker"])[
                    rng.integers(0, CLASS_SIZES["attacker"])])
        self.linked = set(entities)

        workdir.mkdir(parents=True, exist_ok=True)
        self.vec_path = workdir / "store.vec"
        self.nt_path = workdir / "store.nt"
        self.schema_path = workdir / "schema.txt"
        self.vec_path.write_text(vec_text, encoding="utf-8")
        self.nt_path.write_text(nt_text(self.mirror.facts), encoding="utf-8")
        self.schema_path.write_text(SCHEMA, encoding="utf-8")
        self.rules_path = common.ROOT / "fixtures" / "rules.txt"
        self.oracle = QueryOracle(self.mirror, RELATIONS, self.vectors, self.allowed)

    def allowed(self, cls: str | None) -> set[str]:
        if cls is None:
            return self.linked
        out = set()
        for c in SUBCLASSES.get(cls, {cls}):
            out |= self.classes[c]
        return out & self.linked

    def tokens(self, n: int) -> list[str]:
        return [self.vectors.tokens[i]
                for i in self.rng.integers(0, len(self.vectors.tokens), size=n)]

    def product(self) -> str:
        return self.products[self.rng.integers(0, len(self.products))]

    def round_queries(self) -> list[list]:
        """The 20 composite queries of one round, shuffled (see README).

        A quarter are graph-only, and the unfiltered SEARCH composites fill
        the middle of the latency distribution, so its median is theirs;
        the rare-class searches are the slowest tenth, so p95 is theirs.
        """
        t = self.tokens(15)
        qs = []
        for _ in range(3):
            qs.append([List("vulnerability", self.product(), "K"),
                       Infer("swarm", ("K",), None, "S")])
        for _ in range(2):
            p = self.product()
            qs.append([List("vulnerability", p, "V"), Infer("flag", ("V",), p, "F")])
        for i in range(4):
            qs.append([Search(t[i], None, 10, "V"), List("vulnerability", Var("V"), "K")])
        for i in range(4, 8):
            p = self.product()
            qs.append([Search(t[i], None, 10, "V"), List("vulnerability", p, "K"),
                       Infer("alert", ("V", "K"), p, "A")])
        for i in range(8, 11):
            p = self.product()
            qs.append([Search(t[i], "vulnerability", 10, "V"),
                       List("vulnerability", p, "K"), Infer("alert", ("V", "K"), p, "A")])
        qs += [[Search(t[i], "product", 10, "P"), List("vulnerability", Var("P"), "K")]
               for i in range(11, 13)]
        qs += [[Search(t[i], "attacker", 10, "V")] for i in range(13, 15)]
        order = self.rng.permutation(len(qs))
        return [qs[i] for i in order]


def run(seed: int, seconds: float, tracer=None):
    common.import_vkg()
    from vkg import embedding, evaluation, kg, linking, query, rules

    inp = Inputs(seed, common.WORK)
    ledger = Ledger()

    def load():
        schema = kg.Schema.load(inp.schema_path)
        model = embedding.EmbeddingModel.load_text(inp.vec_path)
        graph = kg.Graph.load(inp.nt_path, schema)
        table = linking.table_from_graph(graph, model)
        ruleset = rules.load_rules(inp.rules_path).with_defaults(rules.builtin_rules())
        return graph, model, table, ruleset

    def verify_load(store):
        graph, model, table, ruleset = store
        check(len(graph) == len(inp.mirror.facts),
              f"{len(graph)} triples loaded, wrote {len(inp.mirror.facts)}")
        check(model.tokens == inp.vectors.tokens, "vocabulary differs from the .vec rows")
        check(set(table.links) == inp.linked and not table.unlinked,
              f"{len(table.links)} links, expected {len(inp.linked)}")
        check(ruleset.names() == ["alert", "flag", "swarm"], f"rules {ruleset.names()}")

    store = None
    for _ in range(SETUP_REPS):
        store = ledger.run("setup", load, verify_load) or store
    check(store is not None, "the store never loaded")
    state = {"graph": store[0], "model": store[1], "table": store[2], "rules": store[3]}

    def query_op(stmts):
        text = render(stmts)
        graph = state["graph"]

        def op():
            ast = query.parse(text, schema=graph.schema, rules=state["rules"])
            plan = query.decompose(ast)
            bindings = query.execute(plan, graph, state["model"], state["table"],
                                     state["rules"], parallel=False)
            query.format_bindings(bindings)
            return bindings

        def verify(bindings):
            why = bindings_mismatch(stmts, bindings, inp.oracle.expect(stmts))
            check(why is None, f"{text}: {why}")

        ledger.run("query", op, verify)

    def tag_op(word, cls):
        def op():
            state["graph"].assert_triple(word, "type", cls)
            state["table"] = linking.link_all(state["graph"], state["model"])
            return state["table"]

        inp.classes[cls].add(word)
        inp.linked.add(word)
        inp.mirror.add(word, "type", cls)
        inp.mirror.add(word, "hasVector", word, True)
        ledger.run("write", op, verify_links)

    def untag_op(word, cls):
        def op():
            state["graph"].retract_triple(word, "type", cls)
            state["table"] = linking.link_all(state["graph"], state["model"])
            return state["table"]

        inp.classes[cls].discard(word)
        inp.linked.discard(word)
        inp.mirror.remove(word, "type", cls)
        inp.mirror.remove(word, "hasVector", word, True)
        ledger.run("write", op, verify_links)

    def verify_links(table):
        check(set(table.links) == inp.linked and not table.unlinked,
              f"{len(table.links)} links after the write, expected {len(inp.linked)}")
        check(len(state["graph"]) == len(inp.mirror.facts),
              f"{len(state['graph'])} triples, expected {len(inp.mirror.facts)}")

    def one_round(r):
        queries = inp.round_queries()
        for part in range(4):
            for stmts in queries[5 * part:5 * part + 5]:
                query_op(stmts)
            if part % 2 == 0:
                word = inp.words[int(inp.rng.integers(0, WORDS))]
                cls = list(CLASS_SIZES)[int(inp.rng.integers(0, len(CLASS_SIZES)))]
                tag_op(word, cls)
            else:
                untag_op(word, cls)
        ledger.run("eval", eval_op, verify_eval)

    groups = []
    for kind, size in EVAL_GROUPS:
        # members of one cluster, so each is the others' near neighbour
        home = int(inp.rng.integers(0, CLUSTERS))
        pool = sorted(t for t in inp.allowed(kind) if inp.cluster[t] == home)
        picks = inp.rng.choice(len(pool), size=size, replace=False)
        groups.append(evaluation.SimilarityGroup(f"{kind}_{len(groups)}", kind,
                                                 tuple(pool[i] for i in picks)))

    def eval_op():
        return evaluation.evaluate_all(groups, state["graph"], state["model"],
                                       state["table"], k=10)

    expected_maps = {}

    def verify_eval(report):
        if not expected_maps:
            members = [g.members for g in groups]
            universe = sorted(inp.mirror.entities())
            kind_of = {m: g.kind for g in groups for m in g.members}
            expected_maps["vector"] = mean_ap(members, lambda m: [
                t for t, _ in inp.vectors.top(m, 10)[0]])
            expected_maps["vkg"] = mean_ap(members, lambda m: [
                t for t, _ in inp.vectors.top(m, 10, inp.vectors.indices(
                    sorted(inp.allowed(kind_of[m]))))[0]])
            pairs = {}
            expected_maps["graph"] = mean_ap(
                members, lambda m: inp.mirror.rank_graph(m, 10, universe, pairs))
        for backend, value in expected_maps.items():
            got = report.backends[backend].map_score
            check(abs(got - value) <= 1e-9, f"eval {backend} MAP {got}, expected {value}")

    # untimed warm-up: one round and one evaluation, checked but not timed
    common.run_rounds(0, one_round)
    ledger.run(None, eval_op, verify_eval)
    ledger.samples = {"setup": ledger.samples["setup"]}

    rounds, overhead = common.measure_store(
        ledger, tracer, seconds, one_round,
        setup=lambda: ledger.run("setup", load, verify_load),
        traced_extra=lambda: plans_op(ledger, inp, state, query))
    layer = {}
    if tracer is not None:
        layer = layers.compute(tracer, CATEGORIES, {
            f"evaluation.map_{b}": v for b, v in expected_maps.items()})
        layer["_overhead"] = overhead
    # a traced run's samples are half traced: its metrics are the per-layer ones
    e2e = {} if tracer else common.store_metrics(ledger.samples,
                                                 common.peak_rss_mb())
    info = {"rounds": rounds, "queries": len(ledger.samples["query"]),
            "writes": len(ledger.samples["write"])}
    return ledger, e2e, layer, info


def plans_op(ledger, inp, state, query):
    """Two-SEARCH plans, each run sequentially and in parallel (traced only)."""
    for _ in range(20):
        a, b = inp.tokens(2)
        stmts = [Search(a, "vulnerability", 10, "A"), Search(b, None, 10, "B")]
        plan = query.decompose(query.parse(render(stmts)))
        exp = inp.oracle.expect(stmts)
        for parallel in (False, True):
            ledger.run(
                "plans",
                lambda: query.execute(plan, state["graph"], state["model"],
                                      state["table"], state["rules"], parallel=parallel),
                lambda b: check(bindings_mismatch(stmts, b, exp) is None,
                                f"plan {render(stmts)}: {bindings_mismatch(stmts, b, exp)}"))
