"""Seeded benchmark inputs: seed catalogs, the curation corpus and the
API request sequence. The same seed always gives the same inputs; the
program under test only ever sees the generated tables and calls."""

from __future__ import annotations

import numpy as np
import pyarrow as pa

# the 31-word vocabulary of the repository's synthetic documents table
VOCAB = (
    "a agg batch big column customer data dup fast filter group hash join key "
    "line merge order part query row scan slow small sort spark stream table "
    "the value vector window"
).split()
LANGS = ["de", "en", "es", "fr", "zh"]

# doc ids of seed catalogs are drawn below this bound; reload additions
# come from the disjoint range above it
ID_SPACE = 10**9


def catalog_doc_ids(seed: int, n: int) -> np.ndarray:
    """n distinct doc ids. The catalog derivation (hydra_ray.synth) keys
    the hot domain on doc_id % 100 < 55, so uniform ids keep the 55%
    hot-domain skew of the replicated documents table."""
    rng = np.random.default_rng([seed, 1])
    return np.sort(rng.choice(ID_SPACE, size=n, replace=False)).astype(np.int64)


def new_doc_ids(seed: int, day: int, n: int) -> np.ndarray:
    """n doc ids that no seed catalog and no other day contains."""
    rng = np.random.default_rng([seed, 2, day])
    return (ID_SPACE * (1 + day) + rng.choice(ID_SPACE, size=n, replace=False)).astype(np.int64)


def catalog(doc_ids: np.ndarray) -> pa.Table:
    from hydra_ray.synth import catalog_from_documents

    return catalog_from_documents(pa.table({"doc_id": pa.array(doc_ids, type=pa.int64())}))


# the curation corpus comes in this many variants (seed % variants);
# perfbench/expected.json pins the oracle's results for each
CORPUS_VARIANTS = 4


def corpus(variant: int, n: int) -> pa.Table:
    """documents(doc_id, text, lang, source, n_chars) shaped like the
    repository's documents table, plus planted exact duplicates (2%),
    near duplicates (4%, two words swapped) and too-short docs, so every
    curation stage removes something."""
    rng = np.random.default_rng([variant, 3])
    lengths = rng.integers(2, 110, size=n)
    words = rng.integers(0, len(VOCAB), size=int(lengths.sum()))
    vocab = np.array(VOCAB, dtype=object)
    texts: list[str] = []
    pos = 0
    for ln in lengths:
        texts.append(" ".join(vocab[words[pos : pos + ln]]))
        pos += ln
    kind = rng.random(n)
    src = rng.integers(0, n, size=n)
    for i in range(1, n):
        j = int(src[i]) % i
        if kind[i] < 0.02:
            texts[i] = texts[j]
        elif kind[i] < 0.06:
            toks = texts[j].split(" ")
            for k in rng.integers(0, len(toks), size=2):
                toks[k] = VOCAB[int(rng.integers(0, len(VOCAB)))]
            texts[i] = " ".join(toks)
    return pa.table(
        {
            "doc_id": pa.array(np.arange(n, dtype=np.int64)),
            "text": pa.array(texts),
            "lang": pa.array([LANGS[i] for i in rng.integers(0, len(LANGS), size=n)]),
            "source": pa.array([f"src{i % 7}" for i in range(n)]),
            "n_chars": pa.array([len(t) for t in texts], type=pa.int64()),
        }
    )


# one block of the serving workload's requests; every block holds this
# mix in a seeded order, so one write sits beside nine reads
API_BLOCK = ["lookup_rid"] * 3 + ["lookup_url"] * 2 + ["resource"] * 2 + ["status"] * 2 + [
    "check_now"
]


def api_requests(seed: int, n_resources: int, n: int) -> list[tuple[str, int]]:
    """A fixed sequence of (call, resource index) pairs, block by block."""
    rng = np.random.default_rng([seed, 4])
    out: list[tuple[str, int]] = []
    while len(out) < n:
        block = [API_BLOCK[i] for i in rng.permutation(len(API_BLOCK))]
        out.extend((c, int(i)) for c, i in zip(block, rng.integers(0, n_resources, len(block))))
    return out[:n]
