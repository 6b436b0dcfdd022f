"""Workload ``graph_rw``: a model-free graph under graph-only reads and writes.

The benchmark writes a typed graph of about 22.7k triples (vendors, products,
vulnerabilities, attacks, means, attackers) as a ``.nt`` file, loads it
through the library and runs graph-only composite queries with
``model=None`` from one client in a closed loop: LIST on a quoted entity
and on a variable (fan-out), and INFER with the builtin ``alert`` rule and
the ``swarm`` and ``flag`` rules of ``fixtures/rules.txt`` (``exists`` and
an ASSERT overlay).  Ten writes per sub-round: eight advisories, each
ingested through ``preprocess`` -> ``extract_triples`` -> ``assert_triple``
as one write (the first names a new product alias, the others existing
products), a sameAs merge of the alias into an existing product, and one
write that retracts the advisories' new triples and the sameAs triple.
Ingests are eight writes in ten, so the median write is an ingest whatever
the other two cost, and the p95 write is the median merge.  The graph
returns to its size after every sub-round; the merges stay, since
retracting a sameAs triple does not undo a merge, until the next round
loads the file again.
"""

from __future__ import annotations

import gc

import numpy as np

import common
import layers
from common import Ledger, check
from oracles import FactMirror, Infer, List, QueryOracle, Var, bindings_mismatch, \
    mean_ap, nt_text, render

SIZES = {"vendor": 400, "product": 2100, "software": 900, "vulnerability": 1500,
         "attack": 300, "means": 50, "attacker": 30}
PREFIX = {"vendor": "ven", "product": "prod", "software": "sw",
          "vulnerability": "vuln", "attack": "atk", "means": "means",
          "attacker": "actor"}
RELATIONS = {"vulnerability": "hasVulnerability", "attack": "hasAttack",
             "means": "hasMeans", "attacker": "hasAttacker", "product": "hasProduct"}
STOPWORDS = frozenset({"which", "is", "by", "and", "via", "the"})
TEMPLATES = (("product", "hasVulnerability", "vulnerability", frozenset()),
             ("product", "hasAttack", "attack", frozenset({"exploited"})),
             ("vendor", "hasProduct", "product", frozenset({"ships"})))
SETUP_REPS = 9
SUB_ROUNDS = 100     # advisory rounds per evaluation
ADVISORIES = 8       # advisories ingested per sub-round; the first is merged
EVAL_GROUPS = 1

SCHEMA = """[classes]
vendor
product
software
vulnerability
attack
means
attacker

[subclass]
software product

[relations]
hasProduct vendor product
hasVulnerability product vulnerability
hasAttack product attack
hasMeans product means
hasAttacker product attacker

[aliases]
product hasProduct
vulnerability hasVulnerability
attack hasAttack
means hasMeans
attacker hasAttacker
"""


def entity(cls: str, i: int) -> str:
    return f"{PREFIX[cls]}_{i:05d}"


def surface(entity_id: str) -> str:
    """Multi-word surface form the gazetteer maps back to the id."""
    return entity_id.replace("_", " ")


class Inputs:
    def __init__(self, seed: int, workdir):
        self.rng = rng = np.random.default_rng(seed)
        self.names = {cls: [entity(cls, i) for i in range(n)] for cls, n in SIZES.items()}
        self.mirror = FactMirror(classes=SIZES)
        for cls, names in self.names.items():
            for e in names:
                self.mirror.add(e, "type", cls)
        self.products = self.names["product"] + self.names["software"]
        self.vendor_of = {}
        self.by_vendor: dict[str, list[str]] = {}
        for p in self.products:
            vendor = self.pick("vendor")
            self.vendor_of[p] = vendor
            self.by_vendor.setdefault(vendor, []).append(p)
            self.mirror.add(vendor, "hasProduct", p)
            for v in rng.choice(SIZES["vulnerability"], size=3, replace=False):
                self.mirror.add(p, "hasVulnerability", entity("vulnerability", int(v)))
            self.mirror.add(p, "hasAttack", self.pick("attack"))
            if rng.random() < 0.5:
                self.mirror.add(p, "hasMeans", self.pick("means"))
            if rng.random() < 0.3:
                self.mirror.add(p, "hasAttacker", self.pick("attacker"))
        self.vendors = sorted(self.by_vendor)
        workdir.mkdir(parents=True, exist_ok=True)
        self.nt_path = workdir / "graph.nt"
        self.schema_path = workdir / "schema.txt"
        self.file_facts = frozenset(self.mirror.facts)
        self.nt_path.write_text(nt_text(self.file_facts), encoding="utf-8")
        self.schema_path.write_text(SCHEMA, encoding="utf-8")
        self.rules_path = common.ROOT / "fixtures" / "rules.txt"
        self.oracle = QueryOracle(self.mirror, RELATIONS)

    def reset_mirror(self):
        """A mirror of the graph file as written: its facts and no merges."""
        self.mirror = FactMirror(classes=SIZES)
        for fact in self.file_facts:
            self.mirror.add(*fact)
        self.oracle = QueryOracle(self.mirror, RELATIONS)

    def pick(self, cls: str) -> str:
        return self.names[cls][int(self.rng.integers(0, len(self.names[cls])))]

    def product(self) -> str:
        return self.products[int(self.rng.integers(0, len(self.products)))]

    def vendor(self) -> str:
        return self.vendors[int(self.rng.integers(0, len(self.vendors)))]

    def advisory(self, r: int, product: str | None = None):
        """Text, per-document gazetteer rows, expected tokens and triples.

        Without ``product`` the advisory names a new product alias; with it,
        an existing product and its own vendor.
        """
        if product is None:
            alias = f"{'a' if self.rng.random() < 0.5 else 'z'}lias_{r:06d}"
            vendor = self.vendor()
        else:
            alias, vendor = product, self.vendor_of[product]
        v1, v2 = (entity("vulnerability", int(i))
                  for i in self.rng.choice(SIZES["vulnerability"], 2, replace=False))
        attack = self.pick("attack")
        verb = "exploited" if self.rng.random() < 0.5 else "reported"
        text = (f"The {surface(vendor)} ships {surface(alias)} which is affected by "
                f"{surface(v1)} and {surface(v2)}, {verb} via {surface(attack)}.")
        rows = [(surface(e), e, c) for e, c in ((alias, "product"), (vendor, "vendor"),
                                                (v1, "vulnerability"), (v2, "vulnerability"),
                                                (attack, "attack"))]
        tokens = [vendor, "ships", alias, "affected", v1, v2, verb, attack]
        triples = {(alias, "type", "product"), (vendor, "type", "vendor"),
                   (v1, "type", "vulnerability"), (v2, "type", "vulnerability"),
                   (attack, "type", "attack"), (vendor, "hasProduct", alias),
                   (alias, "hasVulnerability", v1), (alias, "hasVulnerability", v2)}
        if verb == "exploited":
            triples.add((alias, "hasAttack", attack))
        return alias, text, rows, tokens, triples

    def round_queries(self, alias: str) -> tuple[list, list]:
        """The 12 queries before and after the sub-round's merge (2 + 10).

        Five of the twelve are the ``alert`` pairs, the middle of the cost
        range, so the median query is one of them whatever the seed.
        """
        before = [[List("vulnerability", self.product(), "V")] for _ in range(2)]
        after = [[List("vulnerability", alias, "V")]]
        p = self.product()
        after.append([List("vulnerability", p, "V"), Infer("flag", ("V",), p, "F")])
        for _ in range(5):
            p1 = self.product()
            siblings = self.by_vendor[self.vendor_of[p1]]
            p2 = siblings[int(self.rng.integers(0, len(siblings)))]
            after.append([List("vulnerability", p1, "A"), List("vulnerability", p2, "B"),
                          Infer("alert", ("A", "B"), p1, "X")])
        after.append([List("product", self.vendor(), "P"),
                      List("vulnerability", Var("P"), "V")])
        for _ in range(2):
            after.append([List("product", self.vendor(), "P"),
                          List("attack", Var("P"), "T"), Infer("swarm", ("T",), None, "S")])
        return before, after


def run(seed: int, seconds: float, tracer=None):
    common.import_vkg()
    from vkg import evaluation, ingest, kg, query, rules

    inp = Inputs(seed, common.WORK)
    ledger = Ledger()

    def load():
        schema = kg.Schema.load(inp.schema_path)
        graph = kg.Graph.load(inp.nt_path, schema)
        ruleset = rules.load_rules(inp.rules_path).with_defaults(rules.builtin_rules())
        return graph, ruleset

    def verify_load(store):
        graph, ruleset = store
        check(len(graph) == len(inp.mirror.facts),
              f"{len(graph)} triples loaded, wrote {len(inp.mirror.facts)}")
        check(ruleset.names() == ["alert", "flag", "swarm"], f"rules {ruleset.names()}")

    store = None
    for _ in range(SETUP_REPS):
        store = ledger.run("setup", load, verify_load) or store
    check(store is not None, "the graph never loaded")
    graph, ruleset = store
    schema, store = graph.schema, None
    templates = [ingest.RelationTemplate(*t) for t in TEMPLATES]

    def verify_size(_):
        check(len(graph) == len(inp.mirror.facts),
              f"{len(graph)} triples, expected {len(inp.mirror.facts)}")

    def query_op(stmts):
        text = render(stmts)

        def op():
            ast = query.parse(text, schema=schema, rules=ruleset)
            bindings = query.execute(query.decompose(ast), graph, None, None, ruleset)
            query.format_bindings(bindings)
            return bindings

        def verify(bindings):
            why = bindings_mismatch(stmts, bindings, inp.oracle.expect(stmts))
            check(why is None, f"{text}: {why}")

        ledger.run("query", op, verify)

    def ingest_advisory(r, product=None):
        """Ingest advisory ``r`` as one write; (its product, its new triples)."""
        alias, text, rows, tokens, triples = inp.advisory(r, product)
        doc = ingest.Document(f"adv-{r}", "nvd", text)
        gazetteer = ingest.Gazetteer.from_pairs(rows, schema)
        new = sorted(t for t in triples if (*t, False) not in inp.mirror.facts)

        def ingest_op():
            toks = ingest.preprocess(doc, STOPWORDS, gazetteer)
            found = ingest.extract_triples(toks, gazetteer, templates, schema)
            for t in found:
                graph.assert_triple(t.subject, t.predicate, t.object)
            return toks, found

        def verify_ingest(result):
            toks, found = result
            check(toks == tokens, f"advisory {r} tokens {toks}")
            got = [(t.subject, t.predicate, t.object) for t in found]
            check(len(got) == len(set(got)) and set(got) == triples,
                  f"advisory {r} triples {sorted(got)}")
            verify_size(None)

        for t in triples:
            inp.mirror.add(*t)
        ledger.run("write", ingest_op, verify_ingest)
        return alias, new

    def advisory_round():
        # only the first advisory names a new product: each new entity adds
        # keys to the graph's indexes that its retraction deletes again
        ingested = [ingest_advisory(next(advisories))] + [
            ingest_advisory(next(advisories), inp.pick("product"))
            for _ in range(ADVISORIES - 1)]
        alias, _ = ingested[0]
        before, after = inp.round_queries(alias)
        for stmts in before:
            query_op(stmts)

        target = inp.product()
        inp.mirror.add(alias, "sameAs", target)

        def verify_merge(_):
            root = inp.mirror.find(target)
            check(graph.canonical(alias) == root and graph.canonical(target) == root,
                  f"merge {alias} {target}: canonical {graph.canonical(alias)}, "
                  f"expected {root}")
            verify_size(None)

        ledger.run("write", lambda: graph.merge_same_as(alias, target), verify_merge)
        for stmts in after:
            query_op(stmts)

        # one write retracts every new triple of the sub-round; the merge
        # outlives its sameAs triple, so the graph keeps its size
        retracted = [t for _, new in ingested for t in new] + [(alias, "sameAs", target)]
        for t in retracted:
            inp.mirror.remove(*t)
        ledger.run("write", lambda: [graph.retract_triple(*t) for t in retracted],
                   lambda done: (check(all(done), f"retract {retracted}"),
                                 verify_size(None)))

    def audit():
        """Final count and the to_text -> parse round trip."""
        text = graph.to_text()
        again = kg.Graph.parse(text, schema)
        return text, again

    def verify_audit(result):
        text, again = result
        check(len(graph) == len(inp.mirror.facts),
              f"{len(graph)} triples at the end, mirror holds {len(inp.mirror.facts)}")
        check(text == nt_text(inp.mirror.facts), "to_text differs from the mirror's facts")
        check(again.to_text() == text, "Graph.parse(to_text()) does not round-trip")
        check(graph.entities() == inp.mirror.entities(), "entity sets differ")

    groups, expected = [], {}
    for _ in range(EVAL_GROUPS):
        members = []
        while len(members) < 3:
            members = inp.by_vendor[inp.vendor()]
        picks = inp.rng.choice(len(members), size=3, replace=False)
        groups.append(tuple(members[i] for i in sorted(picks)))

    sim_groups = [evaluation.SimilarityGroup(f"vendor_group_{i}", "product", m)
                  for i, m in enumerate(groups)]

    def eval_op():
        return evaluation.evaluate_backend("graph", sim_groups, graph, None, None, k=10)

    def verify_eval(report):
        # recomputed whenever a fact or a merge changed since the last one,
        # and after every reload
        state = (len(inp.mirror.facts), len(inp.mirror.canon))
        if expected.get("state") != state:
            universe, pairs = sorted(inp.mirror.entities()), {}
            expected["graph"] = mean_ap(
                groups, lambda m: inp.mirror.rank_graph(m, 10, universe, pairs))
            expected["state"] = state
        check(abs(report.map_score - expected["graph"]) <= 1e-9,
              f"graph MAP {report.map_score}, expected {expected['graph']}")

    advisories = iter(range(10**9))    # alias names stay unique across phases

    def fresh_store():
        """Load the graph file again and reset the mirror to it (untimed).

        The index scan behind a sameAs merge slows as a store takes merges,
        so on a store that lived all run the write tail would depend on how
        many rounds the run managed; every round starts from the file.
        """
        nonlocal graph, ruleset, schema
        graph = None
        inp.reset_mirror()
        expected.clear()
        loaded = ledger.run(None, load, verify_load)
        check(loaded is not None, "the graph did not load again")
        graph, ruleset = loaded
        schema = graph.schema
        gc.collect()
        gc.freeze()

    def one_round(r):
        fresh_store()
        for _ in range(SUB_ROUNDS):
            advisory_round()
        ledger.run("eval", eval_op, verify_eval)

    # untimed warm-up: one round, checked but not timed
    common.run_rounds(0, one_round)
    ledger.samples = {"setup": ledger.samples["setup"]}

    rounds, overhead = common.measure_store(
        ledger, tracer, seconds, one_round,
        setup=lambda: ledger.run("setup", load, verify_load))
    ledger.run(None, audit, verify_audit)
    layer = {}
    if tracer is not None:
        layer = layers.compute(tracer, {}, {"evaluation.map_graph": expected["graph"]})
        layer["_overhead"] = overhead
    # a traced run's samples are half traced: its metrics are the per-layer ones
    e2e = {} if tracer else common.store_metrics(ledger.samples,
                                                 common.peak_rss_mb())
    info = {"rounds": rounds, "triples": len(graph),
            "queries": len(ledger.samples["query"]),
            "writes": len(ledger.samples["write"])}
    return ledger, e2e, layer, info
