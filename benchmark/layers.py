"""Per-layer metrics of a traced run, computed from its spans.

A span-based metric is the median duration of the spans of one name.
Load and build steps count wherever they occur; the per-operation metrics
count only spans outside the set-up phase, so a store's initial load does
not drown the asserts of its write path.  A metric whose layer does no
work on a workload reads 0.
"""

from __future__ import annotations

import statistics

from spans import Tracer

# name -> (span name, unit, scale from ns, set-up spans count too, attr, op prefix)
SPAN_METRICS = {
    "ingest.build_corpus_ms": ("ingest.build_corpus", "ms", 1e6, True, None, None),
    "ingest.preprocess_us": ("ingest.preprocess", "us", 1e3, False, None, None),
    "ingest.extract_triples_us": ("ingest.extract_triples", "us", 1e3, False, None, None),
    "embedding.train_s": ("embedding.train", "s", 1e9, True, None, None),
    "embedding.save_text_ms": ("embedding.save_text", "ms", 1e6, True, None, None),
    "embedding.load_text_ms": ("embedding.load_text", "ms", 1e6, True, None, None),
    "embedding.top_k_us": ("embedding.top_k", "us", 1e3, False, None, None),
    "kg.parse_ms": ("kg.parse", "ms", 1e6, True, None, None),
    "kg.save_ms": ("kg.save", "ms", 1e6, True, None, None),
    "kg.assert_us": ("kg.assert", "us", 1e3, False, None, None),
    "kg.retract_us": ("kg.retract", "us", 1e3, False, None, None),
    "kg.merge_same_as_us": ("kg.merge_same_as", "us", 1e3, False, None, None),
    "kg.match_pattern_us": ("kg.match_pattern", "us", 1e3, False, None, None),
    "kg.instances_of_us": ("kg.instances_of", "us", 1e3, False, None, None),
    "kg.entities_ms": ("kg.entities", "ms", 1e6, False, None, None),
    "linking.link_all_ms": ("linking.link_all", "ms", 1e6, False, None, None),
    "linking.table_from_graph_ms": ("linking.table_from_graph", "ms", 1e6, True,
                                    None, None),
    "linking.reverse_links_us": ("linking.reverse_links", "us", 1e3, False, None, None),
    "query.parse_us": ("query.parse", "us", 1e3, False, None, None),
    "query.decompose_us": ("query.decompose", "us", 1e3, False, None, None),
    "query.format_bindings_us": ("query.format_bindings", "us", 1e3, False, None, None),
    "query.vkg_search_unfiltered_us": ("query.vkg_search", "us", 1e3, False,
                                       "unfiltered", None),
    "query.vkg_search_common_us": ("query.vkg_search", "us", 1e3, False, "common", None),
    "query.vkg_search_rare_us": ("query.vkg_search", "us", 1e3, False, "rare", None),
    "query.vkg_search_subclass_us": ("query.vkg_search", "us", 1e3, False, "subclass",
                                     None),
    "query.execute_seq_us": ("query.execute", "us", 1e3, False, "seq", "plans"),
    "query.execute_parallel_us": ("query.execute", "us", 1e3, False, "parallel",
                                  "plans"),
    "rules.evaluate_us": ("rules.evaluate", "us", 1e3, False, None, None),
    "rules.load_rules_ms": ("rules.load_rules", "ms", 1e6, True, None, None),
    "evaluation.evaluate_all_ms": ("evaluation.evaluate_all", "ms", 1e6, True, None, None),
    "evaluation.rank_graph_ms": ("evaluation.rank_graph", "ms", 1e6, True, None, None),
    "evaluation.timing_comparison_ms": ("evaluation.timing_comparison", "ms", 1e6, True,
                                        None, None),
}

# metrics a workload supplies itself (process times, counts it computed)
EXTRA_METRICS = {
    "cli.import_ms": "ms",
    "cli.ingest_s": "s",
    "cli.train_s": "s",
    "cli.link_s": "s",
    "ingest.docs_per_s": "1/s",
    "embedding.train_pairs_per_s": "1/s",
    "evaluation.map_graph": "MAP",
    "evaluation.map_vector": "MAP",
    "evaluation.map_vkg": "MAP",
}


def compute(tracer: Tracer, categories: dict, extra: dict[str, float]) -> dict:
    """Every per-layer metric; ``categories`` maps a SEARCH class filter to
    unfiltered/common/rare/subclass."""
    spans = tracer.spans
    out = {}
    for name, (span_name, unit, scale, with_setup, attr, op_prefix) in SPAN_METRICS.items():
        durations = [
            (s[4] - s[3]) / scale for s in spans
            if s[2] == span_name
            and (with_setup or not s[5].startswith("setup"))
            and (op_prefix is None or s[5].startswith(op_prefix))
            and (attr is None or (categories.get(s[6]) if span_name == "query.vkg_search"
                                  else s[6]) == attr)]
        out[name] = {"value": statistics.median(durations) if durations else 0.0,
                     "unit": unit}
    searches = [s for s in spans if s[2] == "query.vkg_search"
                and not s[5].startswith("setup")]
    search_ids = {s[0] for s in searches}
    top_k = [s for s in spans if s[2] == "embedding.top_k" and s[1] in search_ids]
    results = sum(s[7] or 0 for s in searches)
    out["embedding.top_k_calls_per_search"] = {
        "value": len(top_k) / len(searches) if searches else 0.0, "unit": "count"}
    out["embedding.rows_scored_per_result"] = {
        "value": sum(s[7] for s in top_k) / results if results else 0.0,
        "unit": "ratio"}
    for name, unit in EXTRA_METRICS.items():
        out[name] = {"value": float(extra.get(name, 0.0)), "unit": unit}
    return out
