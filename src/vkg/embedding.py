"""Word embeddings: toy-scale skip-gram training and exact neighborhood search.

The trainer is a deterministic skip-gram with negative sampling.  Gradients
are applied per-sentence (minibatch SGD) with a linear learning-rate decay;
there is no frequent-word subsampling and the context window does not
shrink.  Multi-word entities are expected to arrive pre-joined with
underscores, so every entity is a single vocabulary token.

Nearest-neighbor search is exact: ``top_k`` is a brute-force cosine scan
over the whole vocabulary, optionally restricted to a row mask, scores
descending, ties broken lexicographically.
A trained model is immutable and safe to share across reader threads.
"""

from __future__ import annotations

import logging
import time
from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from ._atomic import atomic_write
from .errors import (
    DimensionMismatchError,
    DuplicateTokenError,
    EmptyVocabularyError,
    InvalidTokenError,
    MalformedHeaderError,
    NonFiniteVectorError,
    OutOfVocabularyError,
    ZeroVectorError,
)

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class TrainingConfig:
    """Skip-gram hyperparameters.

    ``window`` counts tokens on each side of the center word;
    ``min_count`` drops tokens whose corpus frequency is below it.
    """

    dimension: int = 100
    window: int = 7
    min_count: int = 1
    negatives: int = 5
    epochs: int = 5
    learning_rate: float = 0.025
    seed: int = 1

    def __post_init__(self) -> None:
        if self.dimension < 1:
            raise ValueError("dimension must be >= 1")
        if self.window < 1:
            raise ValueError("window must be >= 1")
        if self.min_count < 1:
            raise ValueError("min_count must be >= 1")
        if self.negatives < 1:
            raise ValueError("negatives must be >= 1")
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be positive")


# rows with a smaller norm have a subnormal squared norm
_SQRT_TINY = float(np.sqrt(np.finfo(np.float64).tiny))


class EmbeddingModel:
    """Ordered vocabulary plus one dense vector per token."""

    def __init__(self, tokens: Sequence[str], vectors: np.ndarray,
                 frequencies: dict[str, int] | None = None):
        vectors = np.asarray(vectors, dtype=np.float64)
        if vectors.ndim != 2 or vectors.shape[0] != len(tokens):
            raise ValueError("vectors must be a (vocab, dimension) matrix")
        bad = np.flatnonzero(~np.isfinite(vectors).all(axis=1))
        if len(bad):
            raise NonFiniteVectorError(
                f"vector {bad[0]} ('{tokens[bad[0]]}') has a non-finite component",
                int(bad[0]))
        if len(set(tokens)) != len(tokens):
            raise DuplicateTokenError("vocabulary tokens must be unique")
        for token in tokens:
            if token.split() != [token]:
                raise InvalidTokenError(
                    f"token {token!r} is empty or contains whitespace")
        self.tokens: list[str] = list(tokens)
        self.vectors: np.ndarray = vectors
        self.frequencies: dict[str, int] = dict(frequencies or {})
        self._index = {tok: i for i, tok in enumerate(self.tokens)}
        self._scaled: np.ndarray | None = None
        self._scaled_norms: np.ndarray | None = None
        with np.errstate(over="ignore", under="ignore"):
            norms = np.linalg.norm(vectors, axis=1)
            # a rescaled row's squared norm leaves the normal float range
            # (it overflows, or is subnormal and has lost its precision): it
            # is scored from max-abs-scaled copies, never from its components
            rescaled = np.isinf(norms) | ((norms < _SQRT_TINY) & vectors.any(axis=1))
            if rescaled.any():
                peak = np.abs(vectors).max(axis=1)
                self._scaled = vectors / np.where(peak > 0.0, peak, 1.0)[:, None]
                self._scaled_norms = np.linalg.norm(self._scaled, axis=1)
                norms[rescaled] = peak[rescaled] * self._scaled_norms[rescaled]
        self._norms = norms
        self._scorable = norms > 0.0
        self._plain = self._scorable & ~rescaled
        # no zero or rescaled row: top_k scores the stored matrix as it is
        self._all_plain = bool(self._plain.all())

    def __len__(self) -> int:
        return len(self.tokens)

    def __contains__(self, token: str) -> bool:
        return token in self._index

    @property
    def dimension(self) -> int:
        return self.vectors.shape[1]

    def vector(self, token: str) -> np.ndarray:
        return self.vectors[self._row(token)]

    def row_of(self, token: str) -> int | None:
        """The token's row number; None for an out-of-vocabulary token."""
        return self._index.get(token)

    def _row(self, token: str) -> int:
        try:
            return self._index[token]
        except KeyError:
            raise OutOfVocabularyError(f"token '{token}' not in vocabulary") from None

    def cosine(self, a: str, b: str) -> float:
        """Cosine of the angle between two token vectors, in [-1, 1]."""
        i, j = self._row(a), self._row(b)
        if not (self._scorable[i] and self._scorable[j]):
            raise ZeroVectorError(f"cosine undefined for zero vector ('{a}' or '{b}')")
        if self._plain[i] and self._plain[j]:
            vectors, norms = self.vectors, self._norms
        else:
            vectors, norms = self._scaled, self._scaled_norms
        return float(np.clip(np.dot(vectors[i], vectors[j]) / (norms[i] * norms[j]),
                             -1.0, 1.0))

    def row_mask(self, tokens: Iterable[str]) -> np.ndarray:
        """Boolean mask over the vocabulary rows; out-of-vocabulary tokens are ignored."""
        mask = np.zeros(len(self.tokens), dtype=bool)
        mask[[i for i in map(self._index.get, tokens) if i is not None]] = True
        return mask

    def top_k(self, query: str, k: int,
              among: np.ndarray | None = None) -> list[tuple[str, float]]:
        """The k most cosine-similar tokens to the query, excluding itself.

        Exact brute-force scan over the vocabulary; descending score with
        lexicographic tie-break.  ``among`` (a boolean row mask, see
        :meth:`row_mask`) restricts the candidates; every row is scored
        either way, so a token's score does not depend on the mask.
        Zero-norm tokens cannot be scored and are skipped.  A zero-norm
        query raises ZeroVectorError.  A pair with a row whose squared norm
        leaves the normal float range is scored from max-abs-scaled copies.
        """
        qi = self._row(query)
        if k <= 0:
            return []
        if not self._scorable[qi]:
            raise ZeroVectorError(f"token '{query}' has a zero vector")
        scores = self._scores(qi)
        np.clip(scores, -1.0, 1.0, out=scores)
        scorable = self._scorable.copy() if among is None else self._scorable & among
        scorable[qi] = False
        rows = np.flatnonzero(scorable)
        if len(rows) > k:
            # every row scoring at least the k-th best, so the lexicographic
            # tie-break below sees all of a tie that straddles the cut
            kth = np.partition(scores[rows], len(rows) - k)[len(rows) - k]
            rows = rows[scores[rows] >= kth]
        ranked = sorted(
            ((self.tokens[i], float(scores[i])) for i in rows),
            key=lambda pair: (-pair[1], pair[0]),
        )
        return ranked[:k]

    def _scores(self, qi: int) -> np.ndarray:
        """Unclipped cosine of row ``qi`` with every row; 0 where a row is zero."""
        qnorm = self._norms[qi]
        if self._all_plain:
            # every row scorable: no masked copy of the matrix
            return (self.vectors @ self.vectors[qi]) / (self._norms * qnorm)
        # the product over every row differs from the product over the
        # scorable rows' copy in the last bit of some scores (the BLAS kernel
        # blocks the rows by their count), so these rows keep the copy
        scores = np.zeros(len(self.tokens))
        plain = self._plain & self._plain[qi]
        scores[plain] = (self.vectors[plain] @ self.vectors[qi]) / (
            self._norms[plain] * qnorm
        )
        if self._scaled is not None:   # a rescaled query or candidate
            rest = self._scorable & ~plain
            scaled, norms = self._scaled, self._scaled_norms
            scores[rest] = (scaled[rest] @ scaled[qi]) / (norms[rest] * norms[qi])
        return scores

    # --- persistence ----------------------------------------------------

    def save_text(self, path) -> None:
        """word2vec text format: header ``<vocab> <dim>``, then one row per token.

        The previous file is replaced atomically (see :mod:`vkg._atomic`).
        """
        with atomic_write(path) as fh:
            fh.write(f"{len(self.tokens)} {self.dimension}\n")
            for i, token in enumerate(self.tokens):
                row = " ".join(f"{x:.6f}" for x in self.vectors[i])
                fh.write(f"{token} {row}\n")

    @classmethod
    def load_text(cls, path) -> "EmbeddingModel":
        """Read the :meth:`save_text` format.

        All rows are parsed by one ``np.loadtxt`` call.  A file it does not
        take whole (a row count other than the header's, a duplicate token,
        a wrong shape, a numeral numpy rejects) goes through the row-by-row
        parse, which raises the first error in the file or accepts every
        numeral ``float()`` takes.  Finiteness is checked after the parse;
        the error names the file and its first non-finite row.
        """
        with open(path, encoding="utf-8") as fh:
            header = fh.readline().split()
            if len(header) != 2:
                raise MalformedHeaderError("expected header '<vocab_size> <dimension>'")
            try:
                vocab_size, dimension = int(header[0]), int(header[1])
            except ValueError:
                raise MalformedHeaderError(
                    f"non-integer header fields {header!r}") from None
            if vocab_size < 0 or dimension < 1:
                raise MalformedHeaderError(f"invalid header values {header!r}")
            # rows split as the file object splits them: str.splitlines would
            # also break on \x0b, \x0c and \x1c-\x1e
            lines = list(fh)
        parsed = _bulk_rows(lines, vocab_size, dimension)
        if parsed is None:
            parsed = _row_by_row(lines, vocab_size, dimension)
        try:
            return cls(*parsed)
        except NonFiniteVectorError as exc:
            raise NonFiniteVectorError(
                f"{path}: row {exc.index + 2}: non-finite component",
                exc.index) from None


def _bulk_rows(lines: list[str], vocab_size: int,
               dimension: int) -> tuple[list[str], np.ndarray] | None:
    """Tokens and vectors of a well-formed body in one numpy parse; None otherwise."""
    if not lines or len(lines) != vocab_size:
        return None
    split = [line.split(None, 1) for line in lines]
    if any(len(fields) != 2 for fields in split):
        return None
    tokens = [fields[0] for fields in split]
    if len(set(tokens)) != len(tokens):
        return None
    try:
        vectors = np.loadtxt([fields[1] for fields in split], dtype=np.float64,
                             comments=None, ndmin=2)
    except ValueError:
        return None
    if vectors.shape != (vocab_size, dimension):
        return None
    return tokens, vectors


def _row_by_row(lines: list[str], vocab_size: int,
                dimension: int) -> tuple[list[str], np.ndarray]:
    """Tokens and vectors parsed one row and one ``float()`` at a time; raises the first error."""
    tokens: list[str] = []
    seen: set[str] = set()
    vectors = np.empty((vocab_size, dimension))
    for i, line in enumerate(lines):
        if i >= vocab_size:
            raise MalformedHeaderError(
                f"more rows than the declared vocabulary size {vocab_size}")
        fields = line.split()
        if len(fields) != dimension + 1:
            raise DimensionMismatchError(
                f"row {i + 2}: expected {dimension} components, "
                f"got {len(fields) - 1}")
        token = fields[0]
        if token in seen:
            raise DuplicateTokenError(f"duplicate token '{token}'")
        seen.add(token)
        tokens.append(token)
        try:
            vectors[i] = [float(x) for x in fields[1:]]
        except ValueError:
            raise DimensionMismatchError(
                f"row {i + 2}: non-numeric component") from None
    if len(tokens) != vocab_size:
        raise MalformedHeaderError(
            f"header declares {vocab_size} rows, file has {len(tokens)}")
    return tokens, vectors


# --- skip-gram with negative sampling ----------------------------------------


def _sigmoid(x: np.ndarray) -> np.ndarray:
    # exp(-|x|) is exp(-x) where x >= 0 and exp(x) elsewhere, so both branches
    # are computed everywhere and np.where picks the stable one, bit for bit
    e = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


def pair_loss(center: np.ndarray, context: np.ndarray,
              negatives: np.ndarray) -> float:
    """Negative-sampling loss for one (center, context) pair.

    -log sigma(u_ctx . v_c) - sum_n log sigma(-u_n . v_c)
    """
    pos = float(np.dot(context, center))
    neg = np.asarray(negatives, dtype=np.float64) @ center
    return float(
        -np.log(_sigmoid(np.array([pos])))[0]
        - np.sum(np.log(_sigmoid(-neg)))
    )


def pair_gradients(center: np.ndarray, context: np.ndarray,
                   negatives: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Gradients of :func:`pair_loss` wrt center, context, negatives (the training kernel)."""
    g_center, g_context, g_negs = _gradients(
        np.asarray(center, dtype=np.float64)[None],
        np.asarray(context, dtype=np.float64)[None],
        np.asarray(negatives, dtype=np.float64)[None])
    return g_center[0], g_context[0], g_negs[0]


def train(corpus: Iterable[Sequence[str]], cfg: TrainingConfig) -> EmbeddingModel:
    """Train skip-gram embeddings over sentences of pre-joined tokens.

    Deterministic for a fixed config: identical inputs produce identical
    models.  Sentences bound the context window (no pairs cross sentence
    boundaries).  Raises EmptyVocabularyError when nothing survives
    min_count.
    """
    sentences = [list(s) for s in corpus]
    counts = Counter(tok for sent in sentences for tok in sent)
    vocab = sorted(
        (tok for tok, c in counts.items() if c >= cfg.min_count),
        key=lambda tok: (-counts[tok], tok),
    )
    if not vocab:
        raise EmptyVocabularyError(
            f"no token reaches min_count={cfg.min_count}")
    index = {tok: i for i, tok in enumerate(vocab)}
    vocab_size = len(vocab)

    encoded = [
        np.array([index[t] for t in sent if t in index], dtype=np.int64)
        for sent in sentences
    ]
    # window pairs built once for all epochs; a sentence without pairs takes no step
    pairs = [p for p in (_window_pairs(s, cfg.window) for s in encoded) if len(p[0])]

    rng = np.random.default_rng(cfg.seed)
    w_in = (rng.random((vocab_size, cfg.dimension)) - 0.5) / cfg.dimension
    w_out = np.zeros((vocab_size, cfg.dimension))

    # unigram^0.75 negative-sampling distribution, as the CDF that
    # Generator.choice(p=noise) builds on every call: searching it with the
    # same uniforms is the same draw, without choice's per-call check of p
    freq = np.array([counts[tok] for tok in vocab], dtype=np.float64) ** 0.75
    noise = freq / freq.sum()
    cdf = noise.cumsum()
    cdf /= cdf[-1]

    total_pairs = cfg.epochs * sum(len(centers) for centers, _ in pairs)
    min_alpha = cfg.learning_rate * 1e-4
    done = 0
    for epoch in range(1, cfg.epochs + 1):
        start = time.perf_counter()
        for centers, contexts in pairs:
            alpha = max(min_alpha, cfg.learning_rate * (1.0 - done / total_pairs))
            negs = cdf.searchsorted(rng.random((len(centers), cfg.negatives)),
                                    side="right")
            _sentence_step(w_in, w_out, centers, contexts, negs, alpha)
            done += len(centers)
        logger.debug("epoch %d/%d: %d of %d pairs done, %.0f pairs/s",
                     epoch, cfg.epochs, done, total_pairs,
                     total_pairs / cfg.epochs / max(time.perf_counter() - start, 1e-9))

    return EmbeddingModel(vocab, w_in, {tok: counts[tok] for tok in vocab})


def _window_pairs(sent: np.ndarray, window: int) -> tuple[np.ndarray, np.ndarray]:
    """(center, context) ids of every pair within ``window``, by center then context position."""
    offsets = np.concatenate([np.arange(-window, 0), np.arange(1, window + 1)])
    i = np.repeat(np.arange(len(sent)), len(offsets))
    j = i + np.tile(offsets, len(sent))
    keep = (j >= 0) & (j < len(sent))
    return sent[i[keep]], sent[j[keep]]


def _gradients(v_c: np.ndarray, u_o: np.ndarray,
               u_n: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """:func:`pair_loss` gradients wrt centers (P, D), contexts (P, D), negatives (P, N, D)."""
    g_pos = _sigmoid(np.einsum("pd,pd->p", u_o, v_c)) - 1.0        # (P,)
    g_neg = _sigmoid(np.einsum("pnd,pd->pn", u_n, v_c))            # (P, N)

    grad_center = g_pos[:, None] * u_o + np.einsum("pn,pnd->pd", g_neg, u_n)
    grad_context = g_pos[:, None] * v_c
    grad_negs = g_neg[:, :, None] * v_c[:, None, :]
    return grad_center, grad_context, grad_negs


def _sentence_step(w_in: np.ndarray, w_out: np.ndarray, centers: np.ndarray,
                   contexts: np.ndarray, negs: np.ndarray, alpha: float) -> None:
    """One minibatch SGD step over all window pairs of a sentence."""
    grad_center, grad_context, grad_negs = _gradients(
        w_in[centers], w_out[contexts], w_out[negs])
    _scatter_add(w_in, centers, -alpha * grad_center)
    _scatter_add(w_out, contexts, -alpha * grad_context)
    _scatter_add(w_out, negs, -alpha * grad_negs)


def _scatter_add(w: np.ndarray, rows: np.ndarray, grads: np.ndarray) -> None:
    """``np.add.at(w, rows, grads)`` on the flat matrix, where numpy's 1-D fast path runs.

    Each element of ``w`` receives the same additions in the same order, so
    the sums are identical.  ``w`` must be C-contiguous: ``reshape(-1)`` is
    then a view, and the update lands in ``w``.
    """
    d = w.shape[1]
    flat = (rows.reshape(-1, 1) * d + np.arange(d)).ravel()
    np.add.at(w.reshape(-1), flat, grads.ravel())
