"""Text analysis stages: stats, quality gates (token band, C4,
Gopher) and chunking.

Training-data operators over the ``documents`` table (north-rule
additions beyond the reference's operator set). All stats are
vectorized Arrow kernels.

Token contract (shared with the DuckDB oracles): tokens = pieces of
``regexp_split(trim(text), '\\s+')`` — an empty/whitespace text counts
1 empty token, matching DuckDB's regexp_split_to_array semantics.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc


def round6(x: np.ndarray) -> np.ndarray:
    """Round to 6 dp half-AWAY-from-zero — DuckDB round() semantics.
    np.round is half-to-even, which disagrees on exactly-representable
    6-dp halves (e.g. 105/128 = 0.8203125 → DuckDB 0.820313, np.round
    0.820312) and would flake the correctness gate on dyadic ratios."""
    x = np.asarray(x, dtype=np.float64)
    return np.copysign(np.floor(np.abs(x) * 1e6 + 0.5), x) / 1e6


def _tokens_arr(text: pa.Array) -> pa.Array:
    """list<string> of whitespace-split tokens (trimmed first)."""
    return pc.split_pattern_regex(pc.utf8_trim_whitespace(text), pattern=r"\s+")


def text_stats_batch(batch: pa.Table, doc_id_col: str = "doc_id", text_col: str = "text") -> pa.Table:
    text = batch[text_col]
    if isinstance(text, pa.ChunkedArray):
        text = text.combine_chunks()
    n_chars = pc.utf8_length(text)
    n_tokens = pc.list_value_length(_tokens_arr(text))
    n_digits = pc.count_substring_regex(text, pattern="[0-9]")
    return pa.table(
        {
            "doc_id": batch[doc_id_col],
            "n_chars": pc.cast(n_chars, pa.int64()),
            "n_tokens": pc.cast(n_tokens, pa.int64()),
            "n_digits": pc.cast(n_digits, pa.int64()),
        }
    )


def quality_batch(batch: pa.Table, doc_id_col: str = "doc_id", text_col: str = "text") -> pa.Table:
    """Quality gates: token-count band + digit-ratio cap (SQL-mirrored)."""
    stats = text_stats_batch(batch, doc_id_col, text_col)
    n_chars = stats["n_chars"].to_numpy(zero_copy_only=False).astype(np.float64)
    n_tokens = stats["n_tokens"].to_numpy(zero_copy_only=False).astype(np.float64)
    n_digits = stats["n_digits"].to_numpy(zero_copy_only=False).astype(np.float64)
    digit_ratio = round6(n_digits / np.maximum(n_chars, 1.0))
    keep = (n_tokens >= 5) & (n_tokens <= 10000) & (digit_ratio < 0.3)
    return pa.table(
        {
            "doc_id": stats["doc_id"],
            "n_tokens": stats["n_tokens"],
            "digit_ratio": pa.array(digit_ratio),
            "keep": pa.array(keep),
        }
    )


def chunk_documents(
    ds: "rd.Dataset",
    max_tokens: int = 32,
    overlap: int = 8,
    id_col: str = "doc_id",
    text_col: str = "text",
    carry_cols: tuple[str, ...] = (),
) -> "rd.Dataset":
    """Sliding-window document chunking (context-window preparation for
    LLM training): token windows of ``max_tokens`` advancing by
    ``max_tokens - overlap``; the last chunk is clipped to the doc end;
    docs shorter than one window yield a single chunk. Embarrassingly
    parallel — one map_batches, no shuffle. start_tok is 1-based.
    ``carry_cols`` are replicated onto each chunk row."""
    if overlap >= max_tokens:
        raise ValueError("overlap must be < max_tokens")
    stride = max_tokens - overlap

    def chunks(t: pa.Table) -> pa.Table:
        ids_out, chunk_ids, starts, n_toks, texts = [], [], [], [], []
        row_idx: list[int] = []
        for r, (did, text) in enumerate(zip(t[id_col].to_pylist(), t[text_col].to_pylist())):
            toks = (text or "").split(" ")
            n = len(toks)
            n_chunks = max(1, -(-(n - overlap) // stride))  # ceil
            for j in range(n_chunks):
                s = j * stride
                e = min(s + max_tokens, n)
                ids_out.append(did)
                chunk_ids.append(j)
                starts.append(s + 1)
                n_toks.append(e - s)
                texts.append(" ".join(toks[s:e]))
                row_idx.append(r)
        out = pa.table(
            {
                id_col: pa.array(ids_out, type=pa.int64()),
                "chunk_id": pa.array(chunk_ids, type=pa.int64()),
                "start_tok": pa.array(starts, type=pa.int64()),
                "n_toks": pa.array(n_toks, type=pa.int64()),
                "chunk": pa.array(texts, type=pa.string()),
            }
        )
        idx = pa.array(np.asarray(row_idx, dtype=np.int64))
        for c in carry_cols:
            out = out.append_column(c, t[c].take(idx))
        return out

    return ds.map_batches(chunks, batch_format="pyarrow")


# terminal punctuation accepted by the C4 line rule (Raffel et al.
# 2020 §2.2: period, exclamation mark, question mark, end quote)
C4_TERMINAL = (".", "!", "?", '"')


def c4_filter_batch(
    batch: pa.Table, doc_id_col: str = "doc_id", text_col: str = "text"
) -> pa.Table:
    """C4 cleaning rules (Raffel et al. 2020, §2.2) over newline-
    structured documents — the standard web-corpus line/page filter:

      line rules:  keep a line only if it (a) ends in terminal
        punctuation, (b) has ≥3 words, (c) does not contain the word
        'javascript';
      page rules:  drop the whole page if any line contains
        'lorem ipsum' or a curly brace '{', or if fewer than 5 lines
        survive the line rules (C4 counts sentences; kept lines are the
        line-structured equivalent — documented approximation).

    The reference's quality gates are row-level (M5/M9); this is the
    corpus-curation analogue for training-data prep. Output per doc:
    n_lines, n_kept, keep (page verdict) and the cleaned text (kept
    lines joined by \\n; '' for dropped pages). Fully vectorized:
    one split + flat per-line Arrow kernels + bincount fold back to
    docs + pc.binary_join for the cleaned text. Shuffle-free.

    Line rstrip contract: space/tab/CR/FF/VT only (the charset the SQL
    oracle's rtrim uses — NOT all of Unicode whitespace).

    Word-count contract matches the DuckDB oracle:
    len(regexp_split(trim(line), '\\s+')) — a whitespace-only line
    counts 1 empty token (it can never pass the punctuation rule, so
    the difference vs Python str.split() is unobservable).
    """
    text = batch[text_col]
    if isinstance(text, pa.ChunkedArray):
        text = text.combine_chunks()
    text = pc.fill_null(text, "")
    n_docs = len(text)
    lines_list = pc.split_pattern(text, pattern="\n")
    n_lines = pc.cast(pc.list_value_length(lines_list), pa.int64())
    flat = pc.list_flatten(lines_list)
    parent = pc.list_parent_indices(lines_list).to_numpy(zero_copy_only=False)

    low = pc.utf8_lower(flat)
    # explicit charset (space/tab/CR/FF/VT) — utf8_rtrim_whitespace would
    # also strip NBSP/U+2028 etc., diverging from the SQL oracle's rtrim
    stripped = pc.utf8_rtrim(flat, characters=" \t\r\f\x0b")
    ends_ok = pc.ends_with(stripped, pattern=C4_TERMINAL[0])
    for p in C4_TERMINAL[1:]:
        ends_ok = pc.or_(ends_ok, pc.ends_with(stripped, pattern=p))
    n_words = pc.list_value_length(_tokens_arr(flat))
    has_js = pc.match_substring(low, pattern="javascript")
    kept = pc.and_(
        pc.and_(ends_ok, pc.greater_equal(n_words, 3)), pc.invert(has_js)
    )
    poison = pc.or_(
        pc.match_substring(low, pattern="lorem ipsum"),
        pc.match_substring(flat, pattern="{"),
    )

    kept_np = kept.to_numpy(zero_copy_only=False)
    n_kept = np.bincount(parent[kept_np], minlength=n_docs).astype(np.int64)
    poisoned = np.bincount(
        parent[poison.to_numpy(zero_copy_only=False)], minlength=n_docs
    ) > 0
    keep = (~poisoned) & (n_kept >= 5)

    # rebuild list<string> of kept lines per doc (parent is sorted
    # ascending, so offsets come from a searchsorted) and join with \n
    kept_parent = parent[kept_np]
    offsets = np.searchsorted(kept_parent, np.arange(n_docs + 1)).astype(np.int32)
    kept_lines = pa.ListArray.from_arrays(pa.array(offsets), flat.filter(kept))
    joined = pc.binary_join(kept_lines, "\n")
    cleaned = pc.if_else(pa.array(keep), joined, "")
    return pa.table(
        {
            "doc_id": batch[doc_id_col],
            "n_lines": n_lines,
            "n_kept": pa.array(n_kept),
            "keep": pa.array(keep),
            "cleaned": cleaned,
        }
    )


GOPHER_STOPWORDS = ("the", "a", "of", "and", "to", "in", "is", "with")


def gopher_quality_batch(
    batch: pa.Table,
    doc_id_col: str = "doc_id",
    text_col: str = "text",
    min_words: int = 50,
    max_words: int = 100_000,
    min_mean_word_len: float = 3.0,
    max_mean_word_len: float = 10.0,
    max_symbol_ratio: float = 0.1,
    min_alpha_frac: float = 0.8,
    min_stopwords: int = 2,
) -> pa.Table:
    """The full Gopher / MassiveText document-quality rule set (Rae et
    al. 2021, §A1.1; the line-level bullet/ellipsis rules live with the
    newline-structured rules in `c4_filter_batch`):

      1. word count in [min_words, max_words]
      2. mean word length in [min_mean_word_len, max_mean_word_len]
      3. symbol-to-word ratio ('#' + '...' occurrences / words) ≤ max
      4. fraction of words with ≥1 alphabetic char ≥ min_alpha_frac
      5. ≥ min_stopwords distinct-occurrence stopword hits

    All columns are emitted (one per rule + keep) so downstream mixes
    can re-threshold without a recompute. Fully vectorized: one token
    split, flat per-token kernels folded back per doc with bincount;
    ratios rounded to 6 dp to match the SQL oracle. mean word length
    uses Σ token chars = utf8_length(text with all whitespace removed)
    — identical formula in SQL, no per-token loop.
    """
    text = batch[text_col]
    if isinstance(text, pa.ChunkedArray):
        text = text.combine_chunks()
    text = pc.fill_null(text, "")
    toks = _tokens_arr(text)
    n_words = pc.list_value_length(toks).to_numpy(zero_copy_only=False).astype(np.int64)
    nw = np.maximum(n_words, 1).astype(np.float64)

    squeezed = pc.replace_substring_regex(text, pattern=r"\s+", replacement="")
    tok_chars = pc.utf8_length(squeezed).to_numpy(zero_copy_only=False).astype(np.float64)
    mean_word_len = round6(tok_chars / nw)

    n_hash = pc.count_substring(text, pattern="#").to_numpy(zero_copy_only=False)
    n_ell = pc.count_substring(text, pattern="...").to_numpy(zero_copy_only=False)
    symbol_ratio = round6((n_hash + n_ell) / nw)

    flat = pc.list_flatten(toks)
    parent = pc.list_parent_indices(toks).to_numpy(zero_copy_only=False)
    n_docs = len(text)
    alpha = pc.match_substring_regex(flat, pattern="[a-zA-Z]").to_numpy(zero_copy_only=False)
    n_alpha = np.bincount(parent[alpha], minlength=n_docs).astype(np.float64)
    frac_alpha = round6(n_alpha / nw)

    stop = pc.is_in(flat, value_set=pa.array(GOPHER_STOPWORDS)).to_numpy(zero_copy_only=False)
    n_stop = np.bincount(parent[stop], minlength=n_docs).astype(np.int64)

    keep = (
        (n_words >= min_words)
        & (n_words <= max_words)
        & (mean_word_len >= min_mean_word_len)
        & (mean_word_len <= max_mean_word_len)
        & (symbol_ratio <= max_symbol_ratio)
        & (frac_alpha >= min_alpha_frac)
        & (n_stop >= min_stopwords)
    )
    return pa.table(
        {
            "doc_id": batch[doc_id_col],
            "n_words": pa.array(n_words),
            "mean_word_len": pa.array(mean_word_len),
            "symbol_ratio": pa.array(symbol_ratio),
            "frac_alpha": pa.array(frac_alpha),
            "n_stop": pa.array(n_stop),
            "keep": pa.array(keep),
        }
    )


