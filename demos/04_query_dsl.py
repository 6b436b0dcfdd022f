"""The query DSL: parse, decompose into a plan, execute, read the alert.

Reproduces the composite query "raise an alert if a vulnerability similar
to denial of service is listed in MySQL" and a fan-out query "list the
vulnerabilities of products similar to chrome".
"""

from pathlib import Path

from vkg import train
from vkg.embedding import TrainingConfig
from vkg.ingest import (
    Gazetteer,
    build_corpus,
    load_stopwords,
    load_templates,
    read_documents_jsonl,
)
from vkg.kg import Schema
from vkg.linking import link_all
from vkg.query import decompose, execute, format_bindings, parse
from vkg.rules import builtin_rules

root = Path(__file__).resolve().parent.parent / "fixtures"
schema = Schema.load(root / "schema.txt")
gazetteer = Gazetteer.load_tsv(root / "gazetteer.tsv", schema)
graph, sentences = build_corpus(
    read_documents_jsonl(root / "corpus.jsonl"), gazetteer,
    load_templates(root / "templates.tsv", schema), schema,
    load_stopwords(root / "stopwords.txt"))
model = train(sentences, TrainingConfig(dimension=24, window=4, min_count=1,
                                        epochs=30, learning_rate=0.05, seed=7))
table = link_all(graph, model)
rules = builtin_rules()

text = ("SEARCH 'denial_of_service' CLASS vulnerability AS V; "
        "LIST vulnerability OF 'mysql' AS K; "
        "INFER alert FROM V, K ON 'mysql' AS A")
print("query:", text)

ast = parse(text, schema=schema, rules=rules)
plan = decompose(ast)
print("\nplan:")
for node in plan.nodes:
    print(f"    node {node.index}: {node.side}-side "
          f"{type(node.statement).__name__}")
print("    edges:", sorted(plan.edges))
print("    parallel-eligible pairs:",
      [tuple(sorted(p)) for p in plan.parallel_pairs()])

# The two independent subqueries share the first wave; running the plan
# wave by wave binds the same results as running it in statement order.
bindings = execute(plan, graph, model, table, rules, parallel=True)
print("\nbindings:")
print(format_bindings(bindings), end="")
alert = bindings.alerts["A"]
print("alert verdict:", alert.token, "| evidence:", sorted(alert.evidence))

# Fan-out: LIST applied to a search variable unions the listings of every
# entity the search returned.
fan_out = ("SEARCH 'chrome_browser' CLASS product TOPK 3 AS P; "
           "LIST vulnerability OF P AS K")
print("\nquery:", fan_out)
bindings = execute(decompose(parse(fan_out, schema=schema)), graph, model,
                   table, rules)
print(format_bindings(bindings), end="")
