"""Embedding model: training semantics, cosine/top_k contracts, file format."""

from __future__ import annotations

import math
from collections import Counter

import numpy as np
import pytest

from vkg import datasets
from vkg.embedding import (
    EmbeddingModel,
    TrainingConfig,
    _sentence_step,
    _sigmoid,
    _window_pairs,
    pair_gradients,
    pair_loss,
    train,
)
from vkg.errors import (
    DimensionMismatchError,
    DuplicateTokenError,
    EmptyVocabularyError,
    InvalidTokenError,
    MalformedHeaderError,
    NonFiniteVectorError,
    OutOfVocabularyError,
    VkgError,
    ZeroVectorError,
)


class TestTrainingConfig:
    @pytest.mark.parametrize("field,value", [
        ("dimension", 0), ("window", 0), ("min_count", 0),
        ("negatives", 0), ("epochs", 0), ("learning_rate", 0.0),
    ])
    def test_rejects_nonpositive(self, field, value):
        with pytest.raises(ValueError):
            TrainingConfig(**{field: value})


class TestTrain:
    def test_shapes_and_vocabulary(self):
        sentence = "the quick brown fox jumps".split()
        cfg = TrainingConfig(dimension=8, window=2, min_count=1, epochs=2, seed=0)
        model = train([sentence] * 10, cfg)
        assert sorted(model.tokens) == sorted(set(sentence))
        assert model.vectors.shape == (5, 8)
        assert all(model.frequencies[tok] == 10 for tok in model.tokens)

    def test_min_count_threshold(self):
        sentences = [["common", "common", "rare"]] * 3  # rare appears 3 times
        cfg = TrainingConfig(dimension=4, window=1, min_count=5, epochs=1, seed=0)
        model = train(sentences, cfg)
        assert "rare" not in model
        assert "common" in model  # 6 occurrences

    def test_empty_vocabulary(self):
        with pytest.raises(EmptyVocabularyError):
            train([["once"]], TrainingConfig(dimension=4, min_count=2, seed=0))

    def test_deterministic_under_seed(self):
        sentences, _, _ = datasets.twin_sentences(seed=0, docs=20)
        cfg = TrainingConfig(dimension=12, window=2, min_count=1, epochs=3, seed=5)
        first = train(sentences, cfg)
        second = train(sentences, cfg)
        assert first.tokens == second.tokens
        assert np.array_equal(first.vectors, second.vectors)

    def test_interchangeable_tokens_rank_above_unrelated(self):
        sentences, a, b = datasets.twin_sentences(seed=1)
        cfg = TrainingConfig(dimension=16, window=2, min_count=1, epochs=10,
                             learning_rate=0.05, seed=1)
        model = train(sentences, cfg)
        twin_score = model.cosine(a, b)
        for token in model.tokens:
            if token.startswith("noise"):
                assert twin_score > model.cosine(a, token)


class TestCosine:
    def make_model(self):
        return EmbeddingModel(
            ["ax", "ay", "diag", "zero"],
            np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0], [0.0, 0.0]]),
        )

    def test_self_cosine_is_one(self):
        model = self.make_model()
        assert model.cosine("ax", "ax") == pytest.approx(1.0, abs=1e-6)

    def test_orthogonal(self):
        assert self.make_model().cosine("ax", "ay") == pytest.approx(0.0)

    def test_hand_computed(self):
        assert self.make_model().cosine("diag", "ax") == pytest.approx(
            0.7071, abs=1e-4)

    def test_symmetric(self):
        model = self.make_model()
        assert model.cosine("diag", "ay") == model.cosine("ay", "diag")

    def test_out_of_vocabulary(self):
        with pytest.raises(OutOfVocabularyError):
            self.make_model().cosine("ax", "missing")

    def test_zero_vector(self):
        with pytest.raises(ZeroVectorError):
            self.make_model().cosine("ax", "zero")


def brute_force_top_k(model: EmbeddingModel, query: str, k: int):
    """Independent oracle: per-token python-float cosine, then sort."""
    qvec = [float(x) for x in model.vector(query)]
    qnorm = math.sqrt(sum(x * x for x in qvec))
    scored = []
    for token in model.tokens:
        if token == query:
            continue
        vec = [float(x) for x in model.vector(token)]
        norm = math.sqrt(sum(x * x for x in vec))
        if norm == 0.0:
            continue
        dot = sum(x * y for x, y in zip(qvec, vec))
        scored.append((token, max(-1.0, min(1.0, dot / (norm * qnorm)))))
    scored.sort(key=lambda pair: (-pair[1], pair[0]))
    return scored[:k]


class TestTopK:
    def random_model(self, rng, size=500, dim=16):
        tokens = [f"t{i:04d}" for i in range(size)]
        return EmbeddingModel(tokens, rng.normal(size=(size, dim)))

    def test_k_zero(self):
        rng = np.random.default_rng(0)
        assert self.random_model(rng, size=10).top_k("t0001", 0) == []

    def test_k_covers_whole_vocabulary(self):
        rng = np.random.default_rng(1)
        model = self.random_model(rng, size=12)
        result = model.top_k("t0003", 50)
        assert len(result) == 11
        assert "t0003" not in [tok for tok, _ in result]
        scores = [s for _, s in result]
        assert scores == sorted(scores, reverse=True)

    def test_matches_brute_force_oracle(self):
        rng = np.random.default_rng(2)
        model = self.random_model(rng, size=500)
        for query in ("t0000", "t0250", "t0499"):
            mine = model.top_k(query, 10)
            oracle = brute_force_top_k(model, query, 10)
            assert [tok for tok, _ in mine] == [tok for tok, _ in oracle]
            for (_, s1), (_, s2) in zip(mine, oracle):
                assert abs(s1 - s2) < 1e-9

    def test_prefix_property(self):
        rng = np.random.default_rng(3)
        model = self.random_model(rng, size=60)
        for k in range(0, 12):
            assert model.top_k("t0010", k + 1)[:k] == model.top_k("t0010", k)

    def test_out_of_vocabulary(self):
        rng = np.random.default_rng(4)
        with pytest.raises(OutOfVocabularyError):
            self.random_model(rng, size=5).top_k("missing", 3)

    def tied_model(self, rng, size=60, distinct=6, dim=4):
        """Each of a few small-integer vectors repeated, so duplicated rows
        score bit-identically; token names are shuffled against row order."""
        base = rng.integers(-3, 4, size=(distinct, dim))
        base[np.all(base == 0, axis=1), 0] = 1
        rows = base[np.arange(size) % distinct].astype(np.float64)
        tokens = [f"t{i:04d}" for i in rng.permutation(size)]
        return EmbeddingModel(tokens, rows)

    def test_ties_across_kth_score_match_oracle(self):
        rng = np.random.default_rng(6)
        for _ in range(5):
            model = self.tied_model(rng)
            for query in model.tokens[:6]:
                full = brute_force_top_k(model, query, len(model))
                mask = rng.random(len(model)) < 0.5
                allowed = {t for t, keep in zip(model.tokens, mask) if keep}
                filtered = [pair for pair in full if pair[0] in allowed]
                for k in range(1, 25):
                    assert model.top_k(query, k) == full[:k]
                    assert model.top_k(query, k, among=mask) == filtered[:k]

    def test_mask_leaves_scores_unchanged(self):
        rng = np.random.default_rng(7)
        model = self.random_model(rng, size=300)
        full = dict(model.top_k("t0042", len(model)))
        mask = model.row_mask(f"t{i:04d}" for i in range(0, 300, 7))
        masked = model.top_k("t0042", 20, among=mask)
        assert len(masked) == 20
        assert all(mask[int(tok[1:])] for tok, _ in masked)
        assert all(full[tok] == score for tok, score in masked)

    def test_row_mask_ignores_unknown_tokens(self):
        rng = np.random.default_rng(8)
        model = self.random_model(rng, size=5)
        mask = model.row_mask(["t0001", "missing", "t0003"])
        assert mask.tolist() == [False, True, False, True, False]
        assert model.top_k("t0001", 3, among=mask) == [
            pair for pair in model.top_k("t0001", 4) if pair[0] == "t0003"]
        assert model.top_k("t0001", 3, among=model.row_mask([])) == []


def masked_copy_top_k(model: EmbeddingModel, query: str, k: int, among=None):
    """``top_k`` as it scored before the copy-free scan: one boolean-index
    copy of the scorable rows, zero-norm rows scored 0 and skipped.  Rows
    whose squares leave the float range score nan or 0 here, silently."""
    qi = model.tokens.index(query)
    with np.errstate(over="ignore", invalid="ignore"):
        norms = np.linalg.norm(model.vectors, axis=1)
        scorable = norms > 0.0
        scores = np.zeros(len(model))
        scores[scorable] = (model.vectors[scorable] @ model.vectors[qi]) / (
            norms[scorable] * norms[qi])
        np.clip(scores, -1.0, 1.0, out=scores)
    if among is not None:
        scorable &= among
    scorable[qi] = False
    ranked = sorted(((model.tokens[i], float(scores[i])) for i in np.flatnonzero(scorable)),
                    key=lambda pair: (-pair[1], pair[0]))
    return ranked[:k]


@pytest.mark.filterwarnings("error::RuntimeWarning")
class TestScoringPaths:
    """Differential tests of the scan: a model without zero or rescaled rows
    scores the stored matrix in place, any other model the scorable rows;
    both must give the scores of the masked-copy expression bit for bit."""

    def check_bit_identical(self, model, rng, queries):
        for query in queries:
            mask = rng.random(len(model)) < 0.4
            for k in (1, 7, len(model)):
                assert model.top_k(query, k) == masked_copy_top_k(model, query, k)
                assert (model.top_k(query, k, among=mask)
                        == masked_copy_top_k(model, query, k, among=mask))

    def test_gaussian_models(self):
        rng = np.random.default_rng(21)
        for size, dim in ((2, 1), (40, 3), (300, 16), (1000, 32)):
            rows = rng.normal(size=(size, dim)) * rng.choice([1e-3, 1.0, 1e3])
            model = EmbeddingModel([f"t{i:04d}" for i in range(size)], rows)
            self.check_bit_identical(model, rng, model.tokens[:: max(1, size // 8)])

    def test_tied_integer_vectors(self):
        rng = np.random.default_rng(22)
        for _ in range(5):
            model = TestTopK().tied_model(rng, size=90, distinct=5)
            self.check_bit_identical(model, rng, model.tokens[:10])

    def test_models_with_zero_rows(self):
        rng = np.random.default_rng(23)
        models = []
        for _ in range(5):
            rows = rng.integers(-3, 4, size=(80, 4)).astype(np.float64)
            rows[rng.random(80) < 0.2] = 0.0
            models.append(rows)
        # at this size the product over every row and the product over the
        # nonzero rows' copy differ in the last bit of some scores
        large = np.random.default_rng(1)
        rows = large.normal(size=(3000, 100))
        rows[large.random(3000) < 0.3] = 0.0
        models.append(rows)
        for rows in models:
            model = EmbeddingModel([f"t{i:04d}" for i in range(len(rows))], rows)
            queries = [t for t, row in zip(model.tokens, rows) if row.any()][:20]
            self.check_bit_identical(model, rng, queries)

    def test_models_with_rescaled_rows(self):
        """Rows scaled by exact powers of two past the float range of their
        squares score as the unscaled rows do, within rounding; a pair of
        unscaled rows keeps the masked-copy score bit for bit."""
        rng = np.random.default_rng(24)
        for _ in range(5):
            base = rng.normal(size=(60, 6))
            base[rng.random(60) < 0.1] = 0.0
            scale = rng.choice([1.0, 2.0 ** 600, 2.0 ** -560, 2.0 ** 1000], size=60)
            tokens = [f"t{i:04d}" for i in range(60)]
            model = EmbeddingModel(tokens, base * scale[:, None])
            reference = EmbeddingModel(tokens, base)
            plain = scale == 1.0
            for query in [t for t, row in zip(tokens, base) if row.any()][:12]:
                got = dict(model.top_k(query, len(model)))
                want = dict(reference.top_k(query, len(model)))
                assert got.keys() == want.keys()
                assert all(math.isclose(got[t], want[t], rel_tol=0, abs_tol=1e-12)
                           for t in got)
                ranked = model.top_k(query, len(model))
                assert ranked == sorted(ranked, key=lambda pair: (-pair[1], pair[0]))
                if plain[tokens.index(query)]:
                    old = dict(masked_copy_top_k(model, query, len(model),
                                                 among=plain))
                    assert all(got[t] == score for t, score in old.items())
                for other in got:
                    assert model.cosine(query, other) == pytest.approx(got[other], abs=1e-12)

    def test_huge_components_score_finite(self):
        model = EmbeddingModel(["a", "b"], [[1e200, 0.0], [1e200, 1.0]])
        assert model.cosine("a", "b") == 1.0
        assert model.top_k("a", 1) == [("b", 1.0)]
        model = EmbeddingModel(["a", "b", "c"],
                               [[1.7e308, -1.7e308], [-1e300, 1e300], [1.0, 1.0]])
        assert model.top_k("c", 2) == [("a", 0.0), ("b", 0.0)]
        assert model.cosine("a", "b") == pytest.approx(-1.0, abs=1e-15)

    def test_tiny_components_are_not_zero_vectors(self):
        model = EmbeddingModel(["a", "b", "c"],
                               [[1e-200, 0.0], [1e-200, 1e-200], [1.0, 0.0]])
        assert [t for t, _ in model.top_k("c", 2)] == ["a", "b"]
        assert model.cosine("a", "c") == 1.0
        assert model.cosine("b", "c") == pytest.approx(math.sqrt(0.5), abs=1e-15)
        assert model.top_k("a", 2) == [("c", 1.0), ("b", model.cosine("a", "b"))]
        with pytest.raises(ZeroVectorError):
            EmbeddingModel(["z", "a"], [[0.0, 0.0], [5e-324, 0.0]]).cosine("z", "a")
        # a subnormal squared norm carries a few significant bits: 1.6e-162
        # squared rounds from 2.56e-324 to 4.94e-324
        model = EmbeddingModel(["a", "c"], [[1.6e-162, 0.0], [1.0, 0.0]])
        assert model.cosine("a", "c") == 1.0
        assert model.top_k("c", 1) == [("a", 1.0)]
        model = EmbeddingModel(["a", "c"], [[1e-161, 0.0], [1.0, 1.0]])
        assert model.cosine("a", "c") == pytest.approx(math.sqrt(0.5), abs=1e-15)
        assert model.top_k("a", 1)[0][1] == pytest.approx(math.sqrt(0.5), abs=1e-15)


class TestTextFormat:
    def test_small_file_loads(self, tmp_path):
        path = tmp_path / "model.vec"
        path.write_text("2 3\nfirst 0.100000 0.200000 0.300000\n"
                        "second -1.000000 0.000000 2.500000\n")
        model = EmbeddingModel.load_text(path)
        assert len(model) == 2
        assert model.dimension == 3
        assert model.vector("second")[0] == pytest.approx(-1.0)

    def test_dimension_mismatch(self, tmp_path):
        path = tmp_path / "model.vec"
        path.write_text("1 3\nalpha 0.5 0.5\n")
        with pytest.raises(DimensionMismatchError):
            EmbeddingModel.load_text(path)

    def test_duplicate_token(self, tmp_path):
        path = tmp_path / "model.vec"
        path.write_text("2 1\nalpha 0.5\nalpha 0.7\n")
        with pytest.raises(DuplicateTokenError):
            EmbeddingModel.load_text(path)

    @pytest.mark.parametrize("header", ["", "3", "a b", "2 3 4", "-1 3"])
    def test_malformed_header(self, tmp_path, header):
        path = tmp_path / "model.vec"
        path.write_text(f"{header}\n")
        with pytest.raises(MalformedHeaderError):
            EmbeddingModel.load_text(path)

    @pytest.mark.parametrize("token", ["a b", "tab\tbed", "line\nbreak", "", " "])
    def test_unwritable_token_rejected(self, token):
        with pytest.raises(InvalidTokenError) as info:
            EmbeddingModel([token, "c"], np.ones((2, 3)))
        assert isinstance(info.value, VkgError)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_vector_rejected(self, value):
        with pytest.raises(NonFiniteVectorError,
                           match=r"^vector 1 \('c'\) has a non-finite component$") as info:
            EmbeddingModel(["a", "c", "d"], [[1.0, 2.0], [3.0, value], [value, 0.0]])
        assert isinstance(info.value, VkgError) and isinstance(info.value, ValueError)
        assert info.value.index == 1

    def test_row_count_mismatch(self, tmp_path):
        path = tmp_path / "model.vec"
        path.write_text("2 1\nalpha 0.5\n")
        with pytest.raises(MalformedHeaderError):
            EmbeddingModel.load_text(path)

    def test_train_save_load_round_trip(self, tmp_path):
        sentences, _, _ = datasets.twin_sentences(seed=2, docs=15)
        model = train(sentences, TrainingConfig(dimension=6, window=2,
                                                min_count=1, epochs=2, seed=9))
        path = tmp_path / "model.vec"
        model.save_text(path)
        loaded = EmbeddingModel.load_text(path)
        assert loaded.tokens == model.tokens
        np.testing.assert_allclose(loaded.vectors, model.vectors, atol=5e-7)

    def test_save_load_save_byte_identical(self, tmp_path):
        sentences, _, _ = datasets.twin_sentences(seed=3, docs=15)
        model = train(sentences, TrainingConfig(dimension=5, window=2,
                                                min_count=1, epochs=2, seed=4))
        first, second = tmp_path / "one.vec", tmp_path / "two.vec"
        model.save_text(first)
        EmbeddingModel.load_text(first).save_text(second)
        assert first.read_bytes() == second.read_bytes()


class TestGradients:
    def finite_difference(self, f, x, eps=1e-6):
        grad = np.zeros_like(x)
        for i in range(x.size):
            bump = np.zeros_like(x)
            bump.flat[i] = eps
            grad.flat[i] = (f(x + bump) - f(x - bump)) / (2 * eps)
        return grad

    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(6)
        for dim in (2, 5, 8):
            center = rng.normal(size=dim)
            context = rng.normal(size=dim)
            negatives = rng.normal(size=(4, dim))
            g_center, g_context, g_negs = pair_gradients(center, context, negatives)

            fd_center = self.finite_difference(
                lambda v: pair_loss(v, context, negatives), center)
            fd_context = self.finite_difference(
                lambda v: pair_loss(center, v, negatives), context)
            np.testing.assert_allclose(g_center, fd_center, atol=1e-4)
            np.testing.assert_allclose(g_context, fd_context, atol=1e-4)
            for n in range(negatives.shape[0]):
                def loss_wrt_negative(v, n=n):
                    bumped = negatives.copy()
                    bumped[n] = v
                    return pair_loss(center, context, bumped)
                fd_neg = self.finite_difference(loss_wrt_negative, negatives[n])
                np.testing.assert_allclose(g_negs[n], fd_neg, atol=1e-4)

    def test_gradient_step_decreases_pair_loss(self):
        rng = np.random.default_rng(7)
        center = rng.normal(size=8)
        context = rng.normal(size=8)
        negatives = rng.normal(size=(5, 8))
        before = pair_loss(center, context, negatives)
        g_center, g_context, g_negs = pair_gradients(center, context, negatives)
        lr = 0.05
        after = pair_loss(center - lr * g_center, context - lr * g_context,
                          negatives - lr * g_negs)
        assert after < before


def window_pairs_oracle(sent, window):
    """The trainer's former per-sentence double loop."""
    centers, contexts = [], []
    n = len(sent)
    for i in range(n):
        lo, hi = max(0, i - window), min(n, i + window + 1)
        for j in range(lo, hi):
            if j != i:
                centers.append(sent[i])
                contexts.append(sent[j])
    return np.array(centers, dtype=np.int64), np.array(contexts, dtype=np.int64)


class TestTrainerOracles:
    @pytest.mark.parametrize("window", range(1, 9))
    def test_window_pairs_match_double_loop(self, window):
        rng = np.random.default_rng(window)
        for n in range(21):
            for sent in (np.arange(100, 100 + n, dtype=np.int64),
                         rng.integers(0, 4, size=n, dtype=np.int64)):
                centers, contexts = _window_pairs(sent, window)
                want_centers, want_contexts = window_pairs_oracle(sent, window)
                assert centers.dtype == contexts.dtype == np.int64
                assert centers.tolist() == want_centers.tolist()
                assert contexts.tolist() == want_contexts.tolist()

    def test_sentence_step_is_the_sum_of_pair_gradients(self):
        rng = np.random.default_rng(9)
        vocab, dim, alpha = 6, 5, 0.1
        w_in = rng.normal(size=(vocab, dim))
        w_out = rng.normal(size=(vocab, dim))
        # ids repeat within and across centers, contexts and negatives
        centers = np.array([0, 1, 1, 2, 0, 3], dtype=np.int64)
        contexts = np.array([1, 0, 2, 1, 3, 0], dtype=np.int64)
        negs = rng.integers(0, 4, size=(len(centers), 3))
        negs[0] = [1, 1, 0]

        want_in, want_out = w_in.copy(), w_out.copy()
        for c, o, ns in zip(centers, contexts, negs):
            g_center, g_context, g_negs = pair_gradients(w_in[c], w_out[o], w_out[ns])
            want_in[c] -= alpha * g_center
            want_out[o] -= alpha * g_context
            for n, g in zip(ns, g_negs):
                want_out[n] -= alpha * g

        _sentence_step(w_in, w_out, centers, contexts, negs, alpha)
        np.testing.assert_allclose(w_in, want_in, rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(w_out, want_out, rtol=1e-12, atol=1e-12)


def masked_sigmoid(x: np.ndarray) -> np.ndarray:
    """The sigmoid as the trainer first wrote it: one boolean gather and scatter per sign."""
    out = np.empty_like(x, dtype=np.float64)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def reference_train(sentences, cfg: TrainingConfig) -> tuple[list[str], np.ndarray]:
    """The trainer before its per-step rewrite: ``rng.choice`` negatives,
    2-D ``np.add.at`` and the masked sigmoid."""
    counts = Counter(tok for sent in sentences for tok in sent)
    vocab = sorted((tok for tok, c in counts.items() if c >= cfg.min_count),
                   key=lambda tok: (-counts[tok], tok))
    index = {tok: i for i, tok in enumerate(vocab)}
    encoded = [np.array([index[t] for t in sent if t in index], dtype=np.int64)
               for sent in sentences]
    pairs = [p for p in (_window_pairs(s, cfg.window) for s in encoded) if len(p[0])]
    rng = np.random.default_rng(cfg.seed)
    w_in = (rng.random((len(vocab), cfg.dimension)) - 0.5) / cfg.dimension
    w_out = np.zeros((len(vocab), cfg.dimension))
    freq = np.array([counts[tok] for tok in vocab], dtype=np.float64) ** 0.75
    noise = freq / freq.sum()
    total_pairs = cfg.epochs * sum(len(centers) for centers, _ in pairs)
    done = 0
    for _ in range(cfg.epochs):
        for centers, contexts in pairs:
            alpha = max(cfg.learning_rate * 1e-4,
                        cfg.learning_rate * (1.0 - done / total_pairs))
            negs = rng.choice(len(vocab), size=(len(centers), cfg.negatives), p=noise)
            v_c, u_o, u_n = w_in[centers], w_out[contexts], w_out[negs]
            g_pos = masked_sigmoid(np.einsum("pd,pd->p", u_o, v_c)) - 1.0
            g_neg = masked_sigmoid(np.einsum("pnd,pd->pn", u_n, v_c))
            grad_center = g_pos[:, None] * u_o + np.einsum("pn,pnd->pd", g_neg, u_n)
            grad_negs = g_neg[:, :, None] * v_c[:, None, :]
            np.add.at(w_in, centers, -alpha * grad_center)
            np.add.at(w_out, contexts, -alpha * (g_pos[:, None] * v_c))
            np.add.at(w_out, negs.ravel(), -alpha * grad_negs.reshape(-1, cfg.dimension))
            done += len(centers)
    return vocab, w_in


def random_training_case(seed: int) -> tuple[list[list[str]], TrainingConfig]:
    """A seeded corpus and config; seeds 0-3 force the edge cases."""
    rng = np.random.default_rng(seed)
    vocab_size = 3 if seed == 2 else int(rng.integers(2, 40))
    # Zipf-like frequencies, so a min_count above 1 drops the rare tail
    weights = 1.0 / np.arange(1, vocab_size + 1)
    sentences = [
        [f"w{j}" for j in rng.choice(vocab_size, size=int(rng.integers(1, 16)),
                                     p=weights / weights.sum())]
        for _ in range(int(rng.integers(3, 30)))
    ]
    sentences += [["w0"]] * int(rng.integers(1, 4))      # one-token sentences
    if seed == 1:
        sentences = [[tok] for sent in sentences for tok in sent]
    cfg = TrainingConfig(
        dimension=1 if seed == 0 else int(rng.integers(1, 70)),
        window=int(rng.integers(1, 8)),
        min_count=3 if seed == 3 else int(rng.integers(1, 3)),
        negatives=11 if seed == 2 else int(rng.integers(1, 12)),
        epochs=int(rng.integers(1, 4)),
        learning_rate=float(rng.uniform(0.01, 0.1)),
        seed=int(rng.integers(0, 2**31)),
    )
    return sentences, cfg


class TestTrainerMatchesReference:
    """``train`` against a copy of its earlier form, bit for bit: the flat
    scatter-add keeps each element's additions in order, the CDF search is
    the draw ``Generator.choice(p=...)`` makes, and the branch-free sigmoid
    rounds as the masked one does."""

    @pytest.mark.parametrize("seed", range(20))
    def test_vectors_are_bit_identical(self, seed):
        sentences, cfg = random_training_case(seed)
        want_tokens, want_vectors = reference_train(sentences, cfg)
        model = train(sentences, cfg)
        assert model.tokens == want_tokens
        assert np.array_equal(model.vectors, want_vectors)

    def test_cases_cover_the_edges(self):
        cases = [random_training_case(seed) for seed in range(20)]
        assert any(cfg.dimension == 1 for _, cfg in cases)
        assert all(any(len(s) == 1 for s in sents) for sents, _ in cases)
        assert any(all(len(s) == 1 for s in sents) for sents, _ in cases)
        assert any(cfg.negatives > len({t for s in sents for t in s})
                   for sents, cfg in cases)
        dropped = [
            sents for sents, cfg in cases
            if min(Counter(t for s in sents for t in s).values()) < cfg.min_count
        ]
        assert dropped

    def test_sigmoid_is_bit_identical_to_the_masked_form(self):
        edges = [0.0, 1e-300, 40.0, 745.0, 1e308]
        x = np.array(edges + [-v for v in edges]
                     + list(np.random.default_rng(3).normal(scale=20.0, size=200)))
        for shape in [(len(x),), (len(x) // 5, 5)]:
            got, want = _sigmoid(x.reshape(shape)), masked_sigmoid(x.reshape(shape))
            assert got.shape == want.shape == shape
            assert got.tobytes() == want.tobytes()
