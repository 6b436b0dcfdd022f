"""Independent computations the benchmark checks the program against.

Nothing here imports ``vkg``.  Each oracle works from the inputs the
benchmark generated (the rows it wrote to a ``.vec`` file, the facts it
wrote to a ``.nt`` file or put into a document, its own class map):

* :class:`VectorOracle` -- exact cosine top-k in numpy, descending score
  with lexicographic tie-break, restricted to an allowed candidate set
  (the class filter with subclass closure, or the linked entities).
* :class:`FactMirror` -- the graph's facts as plain Python sets, with a
  union-find whose canonical member is the lexicographically smallest one,
  the rewrite ``sameAs`` merges promise.  It answers LIST, the INFER rules
  the workloads use and the graph backend's Jaccard ranking.
* :func:`corpus_expectations` -- triples, vocabulary and link count that
  ingesting, training and linking a generated corpus must produce.

:func:`self_check` shows that every comparison here rejects a perturbed
result; each run calls it before it measures anything.
"""

from __future__ import annotations

from dataclasses import dataclass
from types import SimpleNamespace
from typing import Union

import numpy as np

TIE_TOL = 1e-9
SCORE_TOL = 1e-9
PRINT_TOL = 5e-5 + 1e-9   # scores printed to 4 decimals

ALERT_YES, ALERT_NO = "alert_yes", "alert_no"


# --- vector side ------------------------------------------------------------------

def read_vec(text: str) -> tuple[list[str], np.ndarray]:
    """Tokens and rows of a word2vec text file, parsed with ``float``."""
    lines = text.splitlines()
    vocab, dim = (int(x) for x in lines[0].split())
    tokens, rows = [], []
    for line in lines[1:]:
        fields = line.split(" ")
        tokens.append(fields[0])
        rows.append([float(x) for x in fields[1:]])
    if len(tokens) != vocab or any(len(r) != dim for r in rows):
        raise ValueError("vec file does not match its header")
    return tokens, np.array(rows, dtype=np.float64)


class VectorOracle:
    """Exact cosine ranking over the rows the benchmark wrote."""

    def __init__(self, tokens: list[str], rows: np.ndarray):
        self.tokens = list(tokens)
        self.index = {t: i for i, t in enumerate(self.tokens)}
        norms = np.sqrt(np.einsum("ij,ij->i", rows, rows))
        if not np.all(norms > 0):
            raise ValueError("oracle rows must be non-zero")
        self.unit = rows / norms[:, None]
        order = sorted(range(len(self.tokens)), key=self.tokens.__getitem__)
        self.lex = np.empty(len(order), dtype=np.int64)
        self.lex[order] = np.arange(len(order))

    def indices(self, tokens) -> np.ndarray:
        return np.fromiter((self.index[t] for t in tokens), dtype=np.int64)

    def scores(self, term: str) -> np.ndarray:
        return np.clip(self.unit @ self.unit[self.index[term]], -1.0, 1.0)

    def top(self, term: str, k: int, allowed: np.ndarray | None = None
            ) -> tuple[list[tuple[str, float]], np.ndarray]:
        """The k best (token, cosine) among ``allowed`` (all rows when None),
        the term itself excluded; also the full score vector for tie checks."""
        s = self.scores(term)
        q = self.index[term]
        cand = np.arange(len(self.tokens)) if allowed is None else allowed
        cand = cand[cand != q]
        if len(cand) > k:
            # every candidate scoring at least the k-th best, ties included
            kth = np.partition(-s[cand], k - 1)[k - 1]
            cand = cand[-s[cand] <= kth]
        order = np.lexsort((self.lex[cand], -s[cand]))[:k]
        return [(self.tokens[i], float(s[i])) for i in cand[order]], s


def ranking_mismatch(actual, expected, scores: np.ndarray, index: dict[str, int],
                     allowed: set[str] | None, score_tol: float = SCORE_TOL
                     ) -> str | None:
    """None when ``actual`` is the expected ranking.

    Scores must agree within ``score_tol``.  Entities may differ only where
    the oracle scores them within TIE_TOL of each other (a tie the program
    may break on a last-digit difference); they must be distinct and
    allowed.
    """
    if len(actual) != len(expected):
        return f"{len(actual)} results, expected {len(expected)}"
    seen = set()
    for pos, ((tok, score), (etok, escore)) in enumerate(zip(actual, expected)):
        if score is None or abs(score - escore) > score_tol:
            return f"rank {pos}: score {score} for {tok}, expected {escore} for {etok}"
        if allowed is not None and tok not in allowed:
            return f"rank {pos}: {tok} is outside the filter"
        if tok != etok and (tok not in index
                            or abs(float(scores[index[tok]]) - escore) > TIE_TOL):
            return f"rank {pos}: {tok}, expected {etok}"
        if tok in seen:
            return f"rank {pos}: {tok} repeated"
        seen.add(tok)
    return None


# --- graph side ---------------------------------------------------------------------

class FactMirror:
    """The asserted facts, indexed by raw subject and raw entity object, and
    the sameAs union-find (canonical = lexicographically smallest member).
    Retracting a fact never undoes a merge."""

    def __init__(self, classes=()):
        self.classes = frozenset(classes)
        self.facts: set[tuple[str, str, str, bool]] = set()
        self.out: dict[str, set[tuple[str, str, bool]]] = {}
        self.inc: dict[str, set[tuple[str, str]]] = {}
        self.canon: dict[str, str] = {}
        self.members: dict[str, set[str]] = {}

    def find(self, x: str) -> str:
        return self.canon.get(x, x)

    def group(self, x: str) -> set[str]:
        root = self.find(x)
        return self.members.get(root, {root})

    def union(self, a: str, b: str) -> None:
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return
        winner, loser = min(ra, rb), max(ra, rb)
        merged = self.members.setdefault(winner, {winner})
        for m in self.members.pop(loser, {loser}):
            self.canon[m] = winner
            merged.add(m)

    def add(self, s: str, p: str, o: str, literal: bool = False) -> None:
        fact = (s, p, o, literal)
        if fact in self.facts:
            return
        self.facts.add(fact)
        self.out.setdefault(s, set()).add((p, o, literal))
        if not literal:
            self.inc.setdefault(o, set()).add((p, s))
            if p == "sameAs":
                self.union(s, o)

    def remove(self, s: str, p: str, o: str, literal: bool = False) -> None:
        if (s, p, o, literal) not in self.facts:
            return
        self.facts.discard((s, p, o, literal))
        self.out[s].discard((p, o, literal))
        if not literal:
            self.inc[o].discard((p, s))

    def objects(self, subject: str, relation: str) -> set[str]:
        """Canonical entity objects of ``relation`` from the subject's group."""
        return {self.find(o) for m in self.group(subject)
                for p, o, lit in self.out.get(m, ()) if p == relation and not lit}

    def entities(self) -> set[str]:
        out = set()
        for s, p, o, lit in self.facts:
            if p == "subClassOf":
                continue
            out.add(s)
            if not lit and p != "type":
                out.add(o)
        return out - self.classes

    def neighbor_pairs(self, entity: str) -> set[tuple[str, str]]:
        pairs = set()
        for m in self.group(entity):
            for p, o, lit in self.out.get(m, ()):
                if p not in ("sameAs", "hasVector") and not lit:
                    pairs.add((p, self.find(o)))
            for p, s in self.inc.get(m, ()):
                if p != "sameAs":
                    pairs.add((p, self.find(s)))
        return pairs

    def rank_graph(self, query: str, k: int, universe: list[str],
                   pairs: dict | None = None) -> list[str]:
        """Top k of ``universe`` by Jaccard overlap of (predicate, neighbor)
        pairs, 1.0 for a sameAs-merged entity; ``pairs`` caches per entity."""
        pairs = {} if pairs is None else pairs

        def of(entity):
            if entity not in pairs:
                pairs[entity] = self.neighbor_pairs(entity)
            return pairs[entity]

        cq, pq = self.find(query), of(query)
        scored = []
        for other in universe:
            if other == query:
                continue
            if self.find(other) == cq:
                sim = 1.0
            else:
                po = of(other)
                sim = len(pq & po) / len(pq | po) if pq and po else 0.0
            scored.append((-sim, other))
        scored.sort()
        return [other for _, other in scored[:k]]


def average_precision(ranking: list[str], relevant: set[str]) -> float:
    hits, total = 0, 0.0
    for rank, item in enumerate(ranking, start=1):
        if item in relevant:
            hits += 1
            total += hits / rank
    return total / len(relevant)


def mean_ap(groups: list[tuple[str, ...]], rank) -> float:
    """MAP over groups; ``rank(member)`` gives a ranking or None to skip."""
    per_group = []
    for members in groups:
        aps = []
        for member in members:
            ranking = rank(member)
            if ranking is not None:
                aps.append(average_precision(ranking, set(members) - {member}))
        if aps:
            per_group.append(sum(aps) / len(aps))
    return sum(per_group) / len(per_group) if per_group else 0.0


# --- composite queries ---------------------------------------------------------------

@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class Search:
    term: str
    cls: str | None
    k: int
    var: str


@dataclass(frozen=True)
class List:
    alias: str
    source: Union[str, Var]
    var: str


@dataclass(frozen=True)
class Infer:
    rule: str
    inputs: tuple[str, ...]
    ctx: str | None
    var: str


def render(stmts) -> str:
    parts = []
    for st in stmts:
        if isinstance(st, Search):
            cls = f" CLASS {st.cls}" if st.cls else ""
            parts.append(f"SEARCH '{st.term}'{cls} TOPK {st.k} AS {st.var}")
        elif isinstance(st, List):
            src = st.source.name if isinstance(st.source, Var) else f"'{st.source}'"
            parts.append(f"LIST {st.alias} OF {src} AS {st.var}")
        else:
            ctx = f" ON '{st.ctx}'" if st.ctx else ""
            parts.append(f"INFER {st.rule} FROM {', '.join(st.inputs)}{ctx} AS {st.var}")
    return "; ".join(parts)


@dataclass
class Expected:
    """What a composite query must bind: per variable the result list, and
    for INFER outputs the evidence set and the derived overlay."""

    values: dict
    evidence: dict
    derived: dict
    search: dict      # var -> (scores, token index, allowed) for tie checks


class QueryOracle:
    """Expected bindings of a composite query.

    ``relations`` maps LIST keywords to relations; ``allowed(cls)`` gives
    the tokens a SEARCH may return (linked entities of the class with
    subclass closure, or all linked entities for ``None``).  The INFER
    rules are the builtin ``alert`` and the ``swarm`` and ``flag`` rules of
    ``fixtures/rules.txt``.
    """

    def __init__(self, mirror: FactMirror, relations: dict[str, str],
                 vectors: VectorOracle | None = None, allowed=None):
        self.mirror = mirror
        self.relations = relations
        self.vectors = vectors
        self.allowed = allowed

    def expect(self, stmts) -> Expected:
        exp = Expected({}, {}, {}, {})
        sets: dict[str, set[str]] = {}
        for st in stmts:
            if isinstance(st, Search):
                allowed = self.allowed(st.cls)
                ranked, scores = self.vectors.top(
                    st.term, st.k, self.vectors.indices(sorted(allowed)))
                exp.values[st.var] = ranked
                exp.search[st.var] = (scores, self.vectors.index, allowed)
                sets[st.var] = {tok for tok, _ in ranked}
            elif isinstance(st, List):
                relation = self.relations[st.alias]
                subjects = sets[st.source.name] if isinstance(st.source, Var) \
                    else {st.source}
                found = set()
                for subject in subjects:
                    found |= self.mirror.objects(subject, relation)
                exp.values[st.var] = [(e, None) for e in sorted(found)]
                sets[st.var] = found
            else:
                verdict, evidence, derived = self._infer(
                    st.rule, [sets[v] for v in st.inputs], st.ctx)
                exp.values[st.var] = [(ALERT_YES if verdict else ALERT_NO, None)]
                exp.evidence[st.var] = evidence
                exp.derived[st.var] = derived
                sets[st.var] = {exp.values[st.var][0][0]}
        return exp

    def _infer(self, rule: str, args: list[set[str]], ctx: str | None):
        if rule == "alert":
            overlap = args[0] & args[1]
            return bool(overlap), overlap, ()
        if rule == "swarm":
            ok = len(args[0]) >= 3
            return ok, set(args[0]) if ok else set(), ()
        if rule == "flag":
            objects = self.mirror.objects(ctx, "hasVulnerability")
            ok = bool(args[0]) and bool(objects)
            if not ok:
                return False, set(), ()
            evidence = set(args[0]) | objects | {self.mirror.find(ctx)}
            return True, evidence, ((ctx, "hasAttacker", "remote_attackers"),)
        raise KeyError(rule)


def bindings_mismatch(stmts, bindings, exp: Expected,
                      score_tol: float = SCORE_TOL) -> str | None:
    """None when the program's Bindings equal the expected ones."""
    if list(bindings.values) != [st.var for st in stmts]:
        return f"bound {list(bindings.values)}"
    for st in stmts:
        got = list(bindings.values[st.var])
        if isinstance(st, Search):
            why = ranking_mismatch(got, exp.values[st.var], *exp.search[st.var],
                                   score_tol=score_tol)
            if why:
                return f"{st.var}: {why}"
        elif got != exp.values[st.var]:
            return f"{st.var} = {got[:6]}..., expected {exp.values[st.var][:6]}..."
        if isinstance(st, Infer):
            alert = bindings.alerts[st.var]
            if set(alert.evidence) != exp.evidence[st.var]:
                return f"{st.var}: evidence {sorted(alert.evidence)[:6]}"
            derived = tuple((t.subject, t.predicate, t.object)
                            for t in bindings.derived.get(st.var, ()))
            if derived != exp.derived[st.var]:
                return f"{st.var}: derived {derived}"
    return None


def printed_mismatch(stdout: str, stmts, exp: Expected) -> str | None:
    """Compare ``vkg query`` output lines (scores printed to 4 decimals)."""
    lines = stdout.splitlines()
    if len(lines) != len(stmts):
        return f"{len(lines)} lines for {len(stmts)} statements"
    for line, st in zip(lines, stmts):
        var, _, rest = line.partition(" = ")
        if var != st.var or not (rest.startswith("[") and rest.endswith("]")):
            return f"malformed line {line!r}"
        items = [x for x in rest[1:-1].split(", ") if x]
        if isinstance(st, Search):
            got = []
            for item in items:
                tok, _, score = item.rpartition(":")
                got.append((tok, float(score)))
            why = ranking_mismatch(got, exp.values[st.var], *exp.search[st.var],
                                   score_tol=PRINT_TOL)
            if why:
                return f"{st.var}: {why}"
        elif [(x, None) for x in items] != exp.values[st.var]:
            return f"{st.var}: {items[:6]}, expected {exp.values[st.var][:6]}"
    return None


# --- corpus -----------------------------------------------------------------------

@dataclass
class CorpusExpectation:
    documents: int
    triples: set                 # (s, p, o, literal) after ingest
    vocabulary: set[str]
    entities: set[str]

    def linked_triples(self) -> set:
        return self.triples | {(e, "hasVector", e, True) for e in self.entities}


def corpus_expectations(texts: list[str], entity_class: dict[str, str],
                        templates: list[tuple[str, str, str, frozenset]],
                        stopwords=frozenset()) -> CorpusExpectation:
    """Counts that ingest -> train (min_count 1) -> link must produce.

    The generated texts are lowercase ``[a-z0-9_]`` words separated by
    single spaces, and every entity's surface form is its own id, so a
    word split is the whole tokenizer.  A template fires for every ordered
    pair of distinct co-mentioned entities of its classes when it has no
    triggers or one of them occurs in the document.
    """
    triples, vocab, entities = set(), set(), set()
    for text in texts:
        words = text.split(" ")
        if not all(w and w.replace("_", "a").isalnum() and w == w.lower()
                   for w in words):
            raise ValueError(f"text outside the oracle's tokenizer: {text!r}")
        kept = [w for w in words if w in entity_class or w not in stopwords]
        vocab.update(kept)
        mentioned = [w for w in kept if w in entity_class]
        entities.update(mentioned)
        for e in mentioned:
            triples.add((e, "type", entity_class[e], False))
        present = set(kept)
        for s_cls, relation, o_cls, triggers in templates:
            if triggers and not triggers & present:
                continue
            for s in mentioned:
                for o in mentioned:
                    if s != o and entity_class[s] == s_cls and entity_class[o] == o_cls:
                        triples.add((s, relation, o, False))
    return CorpusExpectation(len(texts), triples, vocab, entities)


def nt_text(facts) -> str:
    """The sorted ``.nt`` text of a fact set, formatted independently."""
    def key(f):
        s, p, o, lit = f
        return (s, p, 1 if lit else 0, o)

    lines = []
    for s, p, o, lit in sorted(facts, key=key):
        obj = '"' + o.replace("\\", "\\\\").replace('"', '\\"') + '"' if lit else f"<{o}>"
        lines.append(f"<{s}> <{p}> {obj} .\n")
    return "".join(lines)


def values_mismatch(actual: dict[str, str], expected: dict[str, str]) -> str | None:
    for key, value in expected.items():
        if actual.get(key) != value:
            return f"{key} = {actual.get(key)!r}, expected {value!r}"
    return None


# --- self-check ---------------------------------------------------------------------

def self_check() -> None:
    """Each comparison accepts the truth and rejects a perturbed result."""
    def rejects(why, what):
        if why is None:
            raise AssertionError(f"oracle self-check: {what} was accepted")

    def accepts(why, what):
        if why is not None:
            raise AssertionError(f"oracle self-check: {what} rejected: {why}")

    rows = np.array([[1.0, 0.0], [0.9, 0.1], [0.9, 0.1], [0.0, 1.0], [-1.0, 0.2]])
    vec = VectorOracle(["q", "b", "a", "c", "d"], rows)
    exp, scores = vec.top("q", 2)
    accepts(None if [t for t, _ in exp] == ["a", "b"] else "order", "tie order")
    accepts(ranking_mismatch(exp, exp, scores, vec.index, None), "exact ranking")
    accepts(ranking_mismatch([exp[1], exp[0]], exp, scores, vec.index, None),
            "tie permutation")
    rejects(ranking_mismatch([exp[0], (exp[1][0], exp[1][1] + 1e-6)], exp, scores,
                             vec.index, None), "perturbed score")
    rejects(ranking_mismatch([exp[0], ("c", exp[1][1])], exp, scores, vec.index,
                             None), "swapped entity")
    rejects(ranking_mismatch(exp[:1], exp, scores, vec.index, None), "short ranking")
    rejects(ranking_mismatch(exp, exp, scores, vec.index, {"b"}), "disallowed entity")

    mirror = FactMirror(classes={"product"})
    for s, p, o in (("pb", "hasVulnerability", "v1"), ("pa", "hasVulnerability", "v2"),
                    ("pb", "type", "product")):
        mirror.add(s, p, o)
    mirror.add("pb", "sameAs", "pa")
    accepts(None if mirror.find("pb") == "pa" else "canonical", "union-find")
    accepts(None if mirror.entities() == {"pa", "pb", "v1", "v2"} else "entities",
            "entities")
    oracle = QueryOracle(mirror, {"vulnerability": "hasVulnerability"}, vec,
                         lambda cls: {"a", "b", "c"})
    stmts = [Search("q", None, 2, "V"), List("vulnerability", "pb", "K"),
             Infer("swarm", ("K",), None, "S")]
    exp = oracle.expect(stmts)

    def bindings(v, k, s):
        return SimpleNamespace(values={"V": v, "K": k, "S": s}, derived={},
                               alerts={"S": SimpleNamespace(evidence=frozenset())})

    v = tuple(exp.values["V"])
    k = (("v1", None), ("v2", None))
    s = ((ALERT_NO, None),)
    accepts(bindings_mismatch(stmts, bindings(v, k, s), exp), "merged LIST")
    rejects(bindings_mismatch(stmts, bindings(v, k[:1], s), exp), "dropped LIST element")
    rejects(bindings_mismatch(stmts, bindings(v, k, ((ALERT_YES, None),)), exp),
            "flipped verdict")
    rejects(bindings_mismatch(stmts, bindings(v[::-1][:1] + v[1:], k, s), exp),
            "wrong SEARCH entity")
    printed = "V = [a:%.4f, b:%.4f]\nK = [v1, v2]\nS = [alert_no]\n" % (v[0][1], v[1][1])
    accepts(printed_mismatch(printed, stmts, exp), "printed bindings")
    rejects(printed_mismatch(printed.replace("v2", "v3"), stmts, exp), "printed LIST")

    corpus = corpus_expectations(["pa vx v1", "v1 pa"], {"pa": "product", "v1": "vuln"},
                                 [("product", "hasVulnerability", "vuln", frozenset())])
    truth = {"documents": "2", "triples": "3", "vocabulary": "3", "linked": "2"}
    got = {"documents": str(corpus.documents), "triples": str(len(corpus.triples)),
           "vocabulary": str(len(corpus.vocabulary)), "linked": str(len(corpus.entities))}
    accepts(values_mismatch(got, truth), "corpus counts")
    rejects(values_mismatch(dict(got, triples="4"), truth), "perturbed triple count")
    rejects("differs" if nt_text(corpus.triples) != nt_text(corpus.linked_triples())
            else None, "missing hasVector lines")
