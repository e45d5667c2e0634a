"""Learned-model inference stages — the load-model-once-per-actor →
batched-forward-pass pattern that every production curation pipeline
runs (quality classifiers, embedders) and that rounds 1-4 only had the
plumbing for (multimodal/langid actors), never an actual trained model.

Reference parity: n/a — yaschva has no model stage; this is engine-side
(the round-4 review's top "what's missing" item).

Design:

- TRAINING is offline and in-repo: :func:`train_quality_classifier` is
  deterministic full-batch logistic regression in numpy (standardized
  features, fixed iteration count, zero init — no RNG at all), run once
  against the sf0.001 corpus with C4-gate teacher labels; the resulting
  float weights are folded with the standardization and QUANTIZED to
  integer fixed-point (scale 10^6).  The pinned artifact
  ``QUALITY_MODEL`` is the deployed model — exactly how a production
  pipeline ships a classifier (train offline, version the artifact,
  deploy to the inference fleet) — and makes distributed inference
  BIT-EXACT and SQL-mirrorable (integer features × integer weights; no
  transcendental in the check path, so the DuckDB oracle hashes equal).

- INFERENCE is an actor-pool ``map_batches`` stage
  (:class:`QualityScorerStage`): the artifact is fetched ONCE per actor
  in ``__init__`` (``ray.get`` of a ``ray.put`` ref — never re-shipped
  per batch), the forward pass is one vectorized feature extraction
  (Arrow RE2 count kernels, the quality_documents feature dialect) plus
  one int64 matvec per batch.  At 100 TB this is embarrassingly
  parallel: no shuffle, model broadcast once per node via the object
  store.

- :class:`EmbedderStage` is the same pattern for a representation
  model: a deterministic integer projection matrix (26 letter-count
  features → 8 dims, seeded PCG64 entries in [-9, 9]) applied as one
  integer matmul per batch — the batched-embedding-forward shape; the
  composed :func:`q_embed_similarity_topk` then broadcasts one query
  embedding and takes exact integer-dot-product top-k, i.e. the
  embed → similarity-search chain end-to-end with a generated SQL
  mirror (the 26×8 matmul is spelled out programmatically in the
  oracle, one SUM per output dim).

Integer-overflow envelope: features ≤ 10^6 chars/doc, |weights| ≤ 10^8
after quantization → |logit| ≤ 7·10^14 ≪ 2^63; letter counts ≤ 10^6,
|R| ≤ 9 → |emb| ≤ 2.4·10^8, |dot| ≤ 8·(2.4·10^8)² ≈ 4.6·10^17 < 2^63.
"""

from __future__ import annotations

import math

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from .textops import _STOP_RE, TOKEN_RE, _gather, _read

# --------------------------------------------------------------------------
# Feature extraction (shared by training and inference — same kernels)
# --------------------------------------------------------------------------

# (name, arrow_extractor) in FIXED order; the SQL mirror lists the same
# expressions in the same order (see _QUALITY_FEATURES_SQL).
FEATURE_NAMES = ["n_chars", "n_tokens", "n_digits", "n_punct",
                 "n_stop", "n_upper"]

# NULL text scores as the empty string on BOTH sides (coalesce here,
# fill_null in feature_matrix) — a null doc gets the bias-only logit
_T = "coalesce(text, '')"
_QUALITY_FEATURES_SQL = [
    ("n_chars", f"CAST(length({_T}) AS BIGINT)"),
    ("n_tokens",
     rf"CAST(length(regexp_extract_all({_T}, '\S+')) AS BIGINT)"),
    ("n_digits",
     f"CAST(length(regexp_extract_all({_T}, '[0-9]')) AS BIGINT)"),
    ("n_punct",
     rf"CAST(length(regexp_extract_all({_T}, '[^\w\s]')) AS BIGINT)"),
    ("n_stop", rf"CAST(length(regexp_extract_all({_T}, "
               r"'(?i)\b(?:the|and|of|to|a|in|is|it|that)\b')) AS BIGINT)"),
    ("n_upper",
     f"CAST(length(regexp_extract_all({_T}, '[A-Z]')) AS BIGINT)"),
]


def feature_matrix(txt) -> np.ndarray:
    """(n, 6) int64 feature matrix — Arrow RE2 count kernels only (the
    exact regex dialect DuckDB's regexp_extract_all mirrors).  NULL
    text counts as the empty string (the mirror coalesces)."""
    txt = pc.fill_null(txt, "")
    cols = [
        pc.utf8_length(txt).cast(pa.int64()),
        pc.count_substring_regex(txt, TOKEN_RE).cast(pa.int64()),
        pc.count_substring_regex(txt, r"[0-9]").cast(pa.int64()),
        pc.count_substring_regex(txt, r"[^\w\s]").cast(pa.int64()),
        pc.count_substring_regex(txt, _STOP_RE).cast(pa.int64()),
        pc.count_substring_regex(txt, r"[A-Z]").cast(pa.int64()),
    ]
    return np.stack([np.asarray(c.to_numpy(zero_copy_only=False), np.int64)
                     for c in cols], axis=1)


def c4_teacher_labels(F: np.ndarray) -> np.ndarray:
    """Teacher labels for training: a CCNet-style keep gate — enough
    content (n_tokens >= 30) AND natural-language-looking stopword
    density (n_stop / n_tokens >= 0.04).  NONLINEAR in the features
    (a ratio vs raw counts), so the linear student genuinely
    approximates rather than memorizes a hyperplane.  (The C4
    digit/punct caps are vacuous on this corpus — the synthetic
    documents are lowercase token text with zero digits/punctuation —
    so the gate uses the two axes that actually vary.)"""
    n_tokens = np.maximum(F[:, 1], 1).astype(np.float64)
    return ((F[:, 1] >= 30)
            & (F[:, 4] / n_tokens >= 0.04)).astype(np.float64)


# --------------------------------------------------------------------------
# Offline training (deterministic, RNG-free)
# --------------------------------------------------------------------------

def train_quality_classifier(F: np.ndarray, y: np.ndarray,
                             lr: float = 0.5,
                             iters: int = 400) -> dict:
    """Full-batch logistic regression by gradient descent: standardize,
    zero-init, ``iters`` fixed steps — fully deterministic (no RNG, no
    early stopping).  Returns the FLOAT model (w, b, mu, sigma)."""
    X = F.astype(np.float64)
    mu = X.mean(axis=0)
    sigma = X.std(axis=0)
    sigma[sigma == 0] = 1.0
    Z = (X - mu) / sigma
    n, d = Z.shape
    w = np.zeros(d)
    b = 0.0
    for _ in range(iters):
        p = 1.0 / (1.0 + np.exp(-(Z @ w + b)))
        g = p - y
        w -= lr * (Z.T @ g) / n
        b -= lr * g.mean()
    return {"w": w, "b": b, "mu": mu, "sigma": sigma}


def quantize_model(model: dict, scale: int = 1_000_000) -> dict:
    """Fold the standardization into the weights (w'_i = w_i/sigma_i,
    b' = b - sum w_i mu_i / sigma_i) and round to integer fixed-point at
    ``scale`` — the deployed artifact.  sign(logit) is preserved up to
    quantization error ~d/scale in standardized units."""
    ws = model["w"] / model["sigma"]
    bs = model["b"] - float(np.dot(model["w"], model["mu"]
                                   / model["sigma"]))
    return {"feature_names": list(FEATURE_NAMES),
            "weights": [int(round(v * scale)) for v in ws],
            "bias": int(round(bs * scale)),
            "scale": scale}


def train_quality_model_from_dir(sf_dir: str, **kw) -> dict:
    """Train + quantize against one sf dir's documents table (the
    offline job that produced the pinned ``QUALITY_MODEL``)."""
    t = _gather(_read(sf_dir, "documents", ["doc_id", "text"]))
    F = feature_matrix(t["text"])
    return quantize_model(train_quality_classifier(F, c4_teacher_labels(F)),
                          **kw)


# The deployed artifact: trained ONCE offline (sf0.001 documents, C4
# teacher, lr=0.5 x 400 iters, quantized at 10^6 — regenerate with
# ``python -m yaschva_ray.pipelines.inference``), then pinned so every
# scale/run scores with the SAME model, like any versioned model file.
QUALITY_MODEL: dict = {
    "feature_names": FEATURE_NAMES,
    # 89.4% train / 87.6% sf0.01 agreement with the nonlinear teacher —
    # a genuine linear approximation, not a memorized hyperplane
    "weights": [359, 3251, 0, 0, 1544042, 0],
    "bias": -4115112,
    "scale": 1_000_000,
}


class QualityScorerStage:
    """Actor-pool inference stage: artifact loaded ONCE per actor in
    ``__init__`` (pass ``model_ref=ray.put(artifact)`` — the object
    store broadcasts it once per node; never re-ship per batch), forward
    pass per batch = one vectorized feature extraction + one int64
    matvec.  Output logit is exact fixed-point (scale 10^6)."""

    def __init__(self, model_ref=None):
        from ..engine.sketches import limit_worker_threads

        limit_worker_threads()
        if model_ref is not None:
            import ray

            model = ray.get(model_ref)
        else:
            model = QUALITY_MODEL
        self.W = np.asarray(model["weights"], np.int64)
        self.b = int(model["bias"])

    def __call__(self, batch: pa.Table) -> pa.Table:
        F = feature_matrix(batch["text"])
        logit = F @ self.W + self.b  # int64-exact matvec
        return pa.table({
            "doc_id": batch["doc_id"].cast(pa.int64()),
            "logit_fp": pa.array(logit),
            "pred_keep": pa.array(logit > 0)})


def q_model_quality_scores(sf_dir: str) -> pa.Table:
    """Score every document with the pinned quality classifier via an
    actor pool (``concurrency=(1, 4)`` — a CLASS stage, so Ray Data builds
    actor pool and ``__init__`` runs once per actor, not once per
    batch).  Output: (doc_id, logit_fp, pred_keep), hash-exact vs the
    DuckDB mirror that inlines the same integer weights."""
    import ray

    ds = _read(sf_dir, "documents", ["doc_id", "text"])
    ref = ray.put(QUALITY_MODEL)
    out = _gather(ds.map_batches(
        QualityScorerStage, fn_constructor_kwargs={"model_ref": ref},
        batch_format="pyarrow", concurrency=(1, 4)))
    return out.sort_by([("doc_id", "ascending")])


def quality_scores_oracle_sql() -> str:
    """DuckDB mirror: same integer features, same inlined weights."""
    terms = " + ".join(
        f"({w} * {expr})" for w, (_, expr)
        in zip(QUALITY_MODEL["weights"], _QUALITY_FEATURES_SQL))
    return f"""
        SELECT doc_id,
               CAST({QUALITY_MODEL['bias']} + {terms} AS BIGINT)
                   AS logit_fp,
               ({QUALITY_MODEL['bias']} + {terms}) > 0 AS pred_keep
        FROM documents ORDER BY doc_id
    """


# --------------------------------------------------------------------------
# Embedding model + similarity search (embed → top-k chain)
# --------------------------------------------------------------------------

EMBED_LETTERS = "abcdefghijklmnopqrstuvwxyz"
EMBED_DIM = 8
_EMBED_SEED = 20260820


def embed_projection() -> np.ndarray:
    """The embedding model's weight matrix: (26 letters × 8 dims) int64
    entries in [-9, 9], seeded PCG64 — deterministic across platforms
    (numpy pins the PCG64 stream), regenerated identically by the SQL
    mirror generator."""
    rng = np.random.Generator(np.random.PCG64(_EMBED_SEED))
    return rng.integers(-9, 10, size=(len(EMBED_LETTERS), EMBED_DIM),
                        dtype=np.int64)


def letter_counts(txt) -> np.ndarray:
    """(n, 26) int64 — per-lowercase-letter occurrence counts
    (case-sensitive; ``pc.count_substring`` == DuckDB's
    length(text)-length(replace(text, ch, ''))).  NULL text counts as
    empty (the mirror coalesces)."""
    txt = pc.fill_null(txt, "")
    return np.stack(
        [np.asarray(pc.count_substring(txt, ch).cast(pa.int64())
                    .to_numpy(zero_copy_only=False), np.int64)
         for ch in EMBED_LETTERS], axis=1)


class EmbedderStage:
    """Actor-pool embedding inference: projection matrix fetched once
    per actor, one (n×26)@(26×8) integer matmul per batch."""

    def __init__(self, proj_ref=None):
        from ..engine.sketches import limit_worker_threads

        limit_worker_threads()
        if proj_ref is not None:
            import ray

            self.R = ray.get(proj_ref)
        else:
            self.R = embed_projection()

    def __call__(self, batch: pa.Table) -> pa.Table:
        E = letter_counts(batch["text"]) @ self.R
        cols = {"doc_id": batch["doc_id"].cast(pa.int64())}
        for j in range(EMBED_DIM):
            cols[f"e{j}"] = pa.array(E[:, j])
        return pa.table(cols)


def q_embed_documents(sf_dir: str) -> pa.Table:
    """Embed every document (columns e0..e7, exact int64) — the
    standalone model-embedding stage."""
    import ray

    ds = _read(sf_dir, "documents", ["doc_id", "text"])
    ref = ray.put(embed_projection())
    out = _gather(ds.map_batches(
        EmbedderStage, fn_constructor_kwargs={"proj_ref": ref},
        batch_format="pyarrow", concurrency=(1, 4)))
    return out.sort_by([("doc_id", "ascending")])


def q_embed_similarity_topk(sf_dir: str, query_doc: int = 0,
                            k: int = 10) -> pa.Table:
    """The embed → similarity-search chain: run the embedding model
    over the corpus (actor pool), broadcast ONE query embedding (the
    embedding of ``query_doc``), score each batch with an exact integer
    dot product, keep each batch's local top-k, and reduce to the
    global top-k on the driver (k rows per block → driver state O(k ×
    blocks), collapsed immediately).  Ties break on doc_id ascending.
    At 100 TB: no shuffle at all — the query side is a 64-byte
    broadcast and the result is k rows."""
    import ray

    proj = embed_projection()
    ds = _read(sf_dir, "documents", ["doc_id", "text"])
    qt = _gather(ds.map_batches(
        lambda t: t.filter(pc.equal(t["doc_id"], query_doc)),
        batch_format="pyarrow"))
    if not qt.num_rows:
        return pa.table({"doc_id": pa.array([], pa.int64()),
                         "score": pa.array([], pa.int64())})
    qvec = (letter_counts(qt["text"]) @ proj)[0]
    proj_ref = ray.put(proj)
    qref = ray.put(qvec)

    class ScoreTopK:
        def __init__(self):
            from ..engine.sketches import limit_worker_threads

            limit_worker_threads()
            self.R = ray.get(proj_ref)
            self.q = ray.get(qref)

        def __call__(self, batch: pa.Table) -> pa.Table:
            E = letter_counts(batch["text"]) @ self.R
            score = E @ self.q
            ids = np.asarray(batch["doc_id"].to_numpy(
                zero_copy_only=False), np.int64)
            order = np.lexsort((ids, -score))[:k]
            return pa.table({"doc_id": pa.array(ids[order]),
                             "score": pa.array(score[order])})

    parts = _gather(ds.map_batches(
        ScoreTopK, batch_format="pyarrow", concurrency=(1, 4)))
    ids = np.asarray(parts["doc_id"].to_numpy(zero_copy_only=False),
                     np.int64)
    sc = np.asarray(parts["score"].to_numpy(zero_copy_only=False),
                    np.int64)
    order = np.lexsort((ids, -sc))[:k]
    return pa.table({"doc_id": pa.array(ids[order]),
                     "score": pa.array(sc[order])})


def embed_similarity_oracle_sql(query_doc: int = 0, k: int = 10) -> str:
    """Generated mirror: letter counts via length(replace(...)), the
    26×8 projection spelled out as one SUM expression per dim, exact
    integer dot product, same (score DESC, doc_id ASC) top-k."""
    R = embed_projection()
    cnt = {ch: "(length(coalesce(text, '')) - length(replace("
               f"coalesce(text, ''), '{ch}', '')))"
           for ch in EMBED_LETTERS}
    dims = []
    for j in range(EMBED_DIM):
        terms = " + ".join(f"({int(R[i, j])} * {cnt[ch]})"
                           for i, ch in enumerate(EMBED_LETTERS)
                           if R[i, j] != 0)
        dims.append(f"CAST({terms} AS BIGINT) AS e{j}")
    dot = " + ".join(f"(d.e{j} * q.e{j})" for j in range(EMBED_DIM))
    return f"""
        WITH emb AS (
            SELECT doc_id, {', '.join(dims)} FROM documents
        ), q AS (SELECT * FROM emb WHERE doc_id = {query_doc})
        SELECT d.doc_id AS doc_id, CAST({dot} AS BIGINT) AS score
        FROM emb d CROSS JOIN q
        ORDER BY score DESC, d.doc_id ASC LIMIT {k}
    """


def embed_documents_oracle_sql() -> str:
    R = embed_projection()
    cnt = {ch: "(length(coalesce(text, '')) - length(replace("
               f"coalesce(text, ''), '{ch}', '')))"
           for ch in EMBED_LETTERS}
    dims = []
    for j in range(EMBED_DIM):
        terms = " + ".join(f"({int(R[i, j])} * {cnt[ch]})"
                           for i, ch in enumerate(EMBED_LETTERS)
                           if R[i, j] != 0)
        dims.append(f"CAST({terms} AS BIGINT) AS e{j}")
    return (f"SELECT doc_id, {', '.join(dims)} FROM documents "
            f"ORDER BY doc_id")


# --------------------------------------------------------------------------
# Distributed training (full-batch GD with per-block gradient partials)
# --------------------------------------------------------------------------

_GRAD_REMOTE = None
_MOM_REMOTE = None


def _feat_moment_partial(*blocks: pa.Table):
    """Per-chunk INT64-exact feature moments (n, Σf, Σf²) + label sum —
    integer sums are associative, so standardization is bit-identical
    under any partitioning (the k-means fixed-point argument)."""
    from ..engine.sketches import limit_worker_threads

    limit_worker_threads()
    n = 0
    s = np.zeros(len(FEATURE_NAMES), np.int64)
    ss = np.zeros(len(FEATURE_NAMES), np.int64)
    for b in blocks:
        if not b.num_rows:
            continue
        F = np.stack([np.asarray(b[f].to_numpy(zero_copy_only=False),
                                 np.int64) for f in FEATURE_NAMES],
                     axis=1)
        n += len(F)
        s += F.sum(axis=0)
        ss += (F * F).sum(axis=0)
    return n, s, ss


def _grad_partial(params, *blocks: pa.Table):
    """Per-block logistic gradient partials for one chunk given (w, b,
    mu, sigma) — shipped BY VALUE (O(features) bytes; a ray.put
    broadcast would buy nothing at this size): returns ([Z^T g per
    block], [Σg per block], n) in float64.  Blocks are NOT summed here:
    the driver's exactly rounded merge needs the per-block terms."""
    from ..engine.sketches import limit_worker_threads

    limit_worker_threads()
    w, b, mu, sigma = params
    Gs = []
    sgs = []
    n = 0
    for blk in blocks:
        if not blk.num_rows:
            continue
        F = np.stack([np.asarray(blk[f].to_numpy(zero_copy_only=False),
                                 np.int64) for f in FEATURE_NAMES],
                     axis=1).astype(np.float64)
        Z = (F - mu) / sigma
        y = np.asarray(blk["y"].to_numpy(zero_copy_only=False),
                       np.float64)
        p = 1.0 / (1.0 + np.exp(-(Z @ w + b)))
        g = p - y
        Gs.append(Z.T @ g)
        sgs.append(float(g.sum()))
        n += len(g)
    return Gs, sgs, n


def train_quality_classifier_distributed(ds, lr: float = 0.5,
                                         iters: int = 400,
                                         checkpoint_path: str | None = None,
                                         checkpoint_every: int = 50) -> dict:
    """Distributed full-batch logistic regression — the iterative
    model-TRAINING loop (k-means' optimization sibling): ONE feature
    extraction pass materializes a compact (features, label) table (7
    int64 columns — the raw text never re-scans), then each GD
    iteration ships (w, b, mu, sigma) by value (O(features) bytes) and
    one raw-task round over the cached feature blocks returns per-block
    gradient partials (6 floats + 1 scalar each); the driver merges them
    with exactly rounded sums (``math.fsum``) and steps.  An exact sum
    does not depend on the order of its terms, so the weights are
    bit-identical for a fixed partitioning whatever order Ray Data
    hands the blocks back in (completion order, not read order).
    Standardization moments are INT64-exact (partition-independent);
    the float gradient sums match the driver-local trainer to ~1 ulp
    per merge, so the QUANTIZED artifact agrees (asserted in tests) —
    and the deployed model is pinned anyway (training is offline).

    At 100 TB: the feature table is ~56 bytes/doc (vs KBs of text), the
    per-iteration network cost is 56 bytes per block, and driver state
    is O(features).  Batch-GD wants few, large steps — for epochs over
    corpus-scale data swap in mini-batch rounds over the same chunk
    machinery.

    ``checkpoint_path``: every ``checkpoint_every`` iterations the full
    optimizer state (iter, w, b, mu, sigma) writes atomically (tmp +
    rename — the house manifest contract); a restart with the same path
    resumes from the last checkpoint and, because the loop is
    deterministic, finishes with BIT-IDENTICAL weights to an
    uninterrupted run (kill-resume tested)."""
    import json as _json
    import os as _os

    import ray

    from ..engine.blocks import iter_block_refs

    def to_features(t: pa.Table) -> pa.Table:
        F = feature_matrix(t["text"])
        cols = {f: pa.array(F[:, i]) for i, f in enumerate(FEATURE_NAMES)}
        cols["y"] = pa.array(c4_teacher_labels(F))
        return pa.table(cols)

    feats = ds.map_batches(to_features,
                           batch_format="pyarrow").materialize()
    refs = list(iter_block_refs(feats))
    chunks = [refs[i:i + 8] for i in range(0, len(refs), 8)]
    global _GRAD_REMOTE, _MOM_REMOTE
    if _MOM_REMOTE is None:
        _MOM_REMOTE = ray.remote(_feat_moment_partial)
    if _GRAD_REMOTE is None:
        _GRAD_REMOTE = ray.remote(_grad_partial)

    moments = ray.get([_MOM_REMOTE.remote(*ch) for ch in chunks])
    n_tot = sum(m[0] for m in moments)
    if not n_tot:
        raise ValueError("train_quality_classifier_distributed: empty input")
    s = np.sum([m[1] for m in moments], axis=0)
    ss = np.sum([m[2] for m in moments], axis=0)
    mu = s / n_tot
    var = ss / n_tot - mu * mu
    sigma = np.sqrt(np.maximum(var, 0.0))
    sigma[sigma == 0] = 1.0

    d = len(FEATURE_NAMES)
    w = np.zeros(d)
    b = 0.0
    start = 0
    if checkpoint_path is not None and _os.path.exists(checkpoint_path):
        with open(checkpoint_path) as f:
            ck = _json.load(f)
        # the standardization is recomputed (int64-exact, so identical)
        # — only the optimizer state resumes
        start = int(ck["iter"])
        w = np.asarray(ck["w"], np.float64)
        b = float(ck["b"])

    def _save(i: int) -> None:
        tmp = f"{checkpoint_path}.tmp-{_os.getpid()}"
        with open(tmp, "w") as f:
            _json.dump({"iter": i, "w": w.tolist(), "b": b}, f)
        _os.replace(tmp, checkpoint_path)

    for i in range(start, iters):
        parts = ray.get([_GRAD_REMOTE.remote((w, b, mu, sigma), *ch)
                         for ch in chunks])
        G = np.array([math.fsum(c) for c in
                      zip(*(g for p in parts for g in p[0]))])
        sg = math.fsum(x for p in parts for x in p[1])
        w -= lr * G / n_tot
        b -= lr * sg / n_tot
        if checkpoint_path is not None \
                and (i + 1) % checkpoint_every == 0:
            _save(i + 1)
    if checkpoint_path is not None:
        _save(iters)
    return {"w": w, "b": b, "mu": mu, "sigma": sigma}


def q_model_train_report(sf_dir: str, iters: int = 400) -> pa.Table:
    """Train the quality classifier DISTRIBUTED on this corpus and
    report the quantized artifact plus its teacher-agreement counts —
    rows-only (iterative optimization is not SQL-expressible; parity
    with the driver-local trainer is pinned by pytest)."""
    ds = _read(sf_dir, "documents", ["doc_id", "text"])
    art = quantize_model(
        train_quality_classifier_distributed(ds, iters=iters))
    t = _gather(_read(sf_dir, "documents", ["doc_id", "text"]))
    F = feature_matrix(t["text"])
    y = c4_teacher_labels(F)
    logit = F @ np.asarray(art["weights"], np.int64) + art["bias"]
    agree = int(((logit > 0) == (y > 0.5)).sum())
    rows = ([("bias", art["bias"])]
            + [(f"w_{n}", v) for n, v in zip(FEATURE_NAMES,
                                             art["weights"])]
            + [("n_rows", len(y)), ("n_teacher_agree", agree)])
    return pa.table({
        "param": pa.array([r[0] for r in rows], pa.string()),
        "value": pa.array([r[1] for r in rows], pa.int64())})


# --------------------------------------------------------------------------
# Exact distributed covariance + PCA embedding (trained projection)
# --------------------------------------------------------------------------

_COV_REMOTE = None


def _cov_partial(*blocks: pa.Table):
    """Per-chunk INT64-EXACT second-moment partials over the 26
    letter-count features: (n, Σx, ΣxᵀX) — integer sums are associative,
    so the covariance (and therefore the PCA projection) is
    bit-identical under any partitioning.  Overflow envelope: per-row
    xᵢxⱼ ≤ (10⁶)² = 10¹²; the 2⁶² guard below trips at ~4.6·10⁶ such
    maximal rows per CELL — far beyond the test corpora; at true 100 TB
    scale shard the moment pass and merge per-shard float128-widened
    sums (documented, loud)."""
    from ..engine.sketches import limit_worker_threads

    limit_worker_threads()
    d = len(EMBED_LETTERS)
    n = 0
    s = np.zeros(d, np.int64)
    m2 = np.zeros((d, d), np.int64)
    for b in blocks:
        if not b.num_rows:
            continue
        X = letter_counts(b["text"])
        n += len(X)
        s += X.sum(axis=0)
        m2 += X.T @ X  # int64-exact matmul
    return n, s, m2


def train_pca_projection(ds, dim: int = EMBED_DIM,
                         iters: int = 120) -> np.ndarray:
    """TRAIN an embedding projection on the corpus — the learned
    counterpart of the fixed random projection: exact distributed
    covariance (one streaming pass of int64 (n, Σx, XᵀX) partials —
    the matrix generalization of corr_moments' pair statistics;
    driver state O(d²)) followed by a deterministic driver-side
    eigensolve (orthogonal power iteration from a fixed start, ``iters``
    steps, NO RNG) of the top ``dim`` principal directions.  Signs are
    canonicalized (largest-|component| entry positive) so the projection
    is reproducible bit-for-bit on a given corpus; the int64 partials
    make the covariance itself partition-independent."""
    import ray

    from ..engine.blocks import iter_block_refs

    ds = ds.materialize()
    refs = list(iter_block_refs(ds))
    chunks = [refs[i:i + 8] for i in range(0, len(refs), 8)]
    global _COV_REMOTE
    if _COV_REMOTE is None:
        _COV_REMOTE = ray.remote(_cov_partial)
    parts = ray.get([_COV_REMOTE.remote(*ch) for ch in chunks])
    n = sum(p[0] for p in parts)
    if not n:
        raise ValueError("train_pca_projection: empty input")
    s = np.sum([p[1] for p in parts], axis=0)
    m2 = np.sum([p[2] for p in parts], axis=0)
    if np.abs(m2).max() > (1 << 62):
        raise OverflowError(
            "train_pca_projection: second-moment sums near int64 range "
            "— shard the moment pass (docstring)")
    mu = s / n
    cov = m2 / n - np.outer(mu, mu)  # exact ints → one float division
    d = cov.shape[0]
    # deterministic orthogonal (subspace) power iteration: identity-
    # prefix start (no RNG), QR re-orthogonalization each step
    Q = np.eye(d, dim)
    for _ in range(iters):
        Q, _r = np.linalg.qr(cov @ Q)
    # order by Rayleigh quotient desc, canonicalize signs
    lam = np.einsum("ij,ij->j", Q, cov @ Q)
    order = np.argsort(-lam)
    Q = Q[:, order]
    for j in range(Q.shape[1]):
        k = int(np.argmax(np.abs(Q[:, j])))
        if Q[k, j] < 0:
            Q[:, j] = -Q[:, j]
    return Q


class PCAEmbedderStage:
    """Actor-pool inference with the TRAINED projection (float64
    matmul): projection fetched once per actor via ``ray.put``."""

    def __init__(self, proj_ref):
        from ..engine.sketches import limit_worker_threads

        limit_worker_threads()
        import ray

        self.Q = ray.get(proj_ref)

    def __call__(self, batch: pa.Table) -> pa.Table:
        E = letter_counts(batch["text"]).astype(np.float64) @ self.Q
        cols = {"doc_id": batch["doc_id"].cast(pa.int64())}
        for j in range(E.shape[1]):
            cols[f"e{j}"] = pa.array(E[:, j])
        return pa.table(cols)


def q_pca_embed_documents(sf_dir: str) -> pa.Table:
    """Train the PCA projection on this corpus (exact distributed
    covariance) and embed every document with it — the full
    train-then-infer representation chain.  Rows-only (eigensolve is
    not SQL-expressible); determinism/variance-ordering/partition-
    independence pinned by pytest."""
    import ray

    ds = _read(sf_dir, "documents", ["doc_id", "text"])
    Q = train_pca_projection(ds)
    ref = ray.put(Q)
    out = _gather(ds.map_batches(
        PCAEmbedderStage, fn_constructor_kwargs={"proj_ref": ref},
        batch_format="pyarrow", concurrency=(1, 4)))
    return out.sort_by([("doc_id", "ascending")])


# --------------------------------------------------------------------------
# Model-in-the-loop curation (classifier gate composed into the chain)
# --------------------------------------------------------------------------

def q_curate_with_model(sf_dir: str, train_pct: int = 95,
                        salt: int = 7) -> pa.Table:
    """Classifier-gated curation — the model-in-the-loop composition a
    production pipeline runs once a quality classifier exists: the
    learned gate REPLACES the hand-written C4 rules of curate_corpus.
    Chain: actor-pool score+filter (only pred_keep rows leave the
    stage, carrying their logit) → exact-dedup keep-canonical (min
    doc_id per text, one keyed exchange — the only wide step, moving
    only surviving text) → deterministic train/val split (pure map).
    Output: (doc_id, logit_fp, split), hash-exact vs the single SQL
    statement that inlines the pinned weights."""
    import ray

    from ..engine.exchange import keyed_exchange
    from .textops import split_labels

    ds = _read(sf_dir, "documents", ["doc_id", "text"])
    ref = ray.put(QUALITY_MODEL)

    class GateStage(QualityScorerStage):
        def __call__(self, batch: pa.Table) -> pa.Table:
            scored = super().__call__(batch)
            out = pa.table({
                "doc_id": scored["doc_id"],
                "text": pc.fill_null(batch["text"], ""),
                "logit_fp": scored["logit_fp"]})
            return out.filter(scored["pred_keep"])

    filtered = ds.map_batches(
        GateStage, fn_constructor_kwargs={"model_ref": ref},
        batch_format="pyarrow", concurrency=(1, 4))

    def canonical(t: pa.Table) -> pa.Table:
        keep = t.group_by("text").aggregate([("doc_id", "min")])
        j = t.join(keep, keys=["text"])
        win = j.filter(pc.equal(j["doc_id"], j["doc_id_min"]))
        return win.select(["doc_id", "logit_fp"])

    empty = pa.table({"doc_id": pa.array([], pa.int64()),
                      "logit_fp": pa.array([], pa.int64()),
                      "split": pa.array([], pa.string())})
    tables = keyed_exchange(filtered, "text", canonical,
                            empty_result=empty.select(
                                ["doc_id", "logit_fp"]))
    if not tables:
        return empty
    out = pa.concat_tables(tables).combine_chunks()
    ids = np.asarray(out["doc_id"].to_numpy(zero_copy_only=False))
    return out.append_column(
        "split", split_labels(ids, train_pct=train_pct,
                              salt=salt)).sort_by(
        [("doc_id", "ascending")])


def curate_with_model_oracle_sql(train_pct: int = 95,
                                 salt: int = 7) -> str:
    from .textops import _SPLIT_MULT

    terms = " + ".join(
        f"({w} * {expr})" for w, (_, expr)
        in zip(QUALITY_MODEL["weights"], _QUALITY_FEATURES_SQL))
    return f"""
        WITH scored AS (
            SELECT doc_id, coalesce(text, '') AS text,
                   CAST({QUALITY_MODEL['bias']} + {terms} AS BIGINT)
                       AS logit_fp
            FROM documents
        ), kept AS (
            SELECT * FROM scored WHERE logit_fp > 0
        ), dedup AS (
            SELECT *, row_number() OVER (PARTITION BY text
                                         ORDER BY doc_id) AS rn
            FROM kept
        )
        SELECT doc_id, logit_fp,
               CASE WHEN (doc_id * {_SPLIT_MULT} + {salt})
                         % 4294967296 % 100 < {train_pct}
                    THEN 'train' ELSE 'val' END AS split
        FROM dedup WHERE rn = 1 ORDER BY doc_id
    """


# --------------------------------------------------------------------------
# Model scoring over the north-rule interleaved table
# --------------------------------------------------------------------------

def q_f0_span_quality(sf_dir: str) -> pa.Table:
    """Learned-model quality scoring over the NORTH-RULE interleaved
    table (doc_id, spans: list<struct<kind, text, media_ref, offset>>):
    every TEXT span of the seeded F0 corpus scores through the pinned
    classifier — a vectorized span explode feeding the actor-pool
    forward pass — and spans the model REJECTS (logit ≤ 0) emit as
    quality violations, the model-in-the-loop counterpart of the F0
    schema/contiguity checks.  NULL-text spans (the bad_media_ref
    planted class keeps kind='text' with text NULL) score as empty on
    both sides.  The seeded input is WRITTEN to the shared oracle path
    (identical generator args to the sibling f0 queries) and the DuckDB
    mirror unnests + inlines the same integer weights.  Output:
    (doc_id, span_idx, logit_fp) of rejected spans."""
    import os

    import pyarrow.parquet as pq
    import ray
    import ray.data

    from .datagen import make_docs_batch

    n = 20_000 if "0.01" in sf_dir else 5_000
    table = make_docs_batch(np.arange(n), seed=42)
    os.makedirs("/tmp/yaschva_oracle", exist_ok=True)
    pq.write_table(table, "/tmp/yaschva_oracle/f0_docs.parquet")
    k = 8
    ds = ray.data.from_arrow([table.slice(i * len(table) // k,
                                          (i + 1) * len(table) // k
                                          - i * len(table) // k)
                              for i in range(k)])
    ref = ray.put(QUALITY_MODEL)

    class SpanScorer:
        def __init__(self):
            from ..engine.sketches import limit_worker_threads

            limit_worker_threads()
            model = ray.get(ref)
            self.W = np.asarray(model["weights"], np.int64)
            self.b = int(model["bias"])

        def __call__(self, t: pa.Table) -> pa.Table:
            spans = t["spans"]
            if isinstance(spans, pa.ChunkedArray):
                spans = spans.combine_chunks()
            lengths = pc.list_value_length(spans).fill_null(0) \
                .to_numpy(zero_copy_only=False).astype(np.int64)
            flat = spans.flatten()
            kinds = pc.struct_field(flat, "kind")
            texts = pc.struct_field(flat, "text")
            parents = np.repeat(np.arange(len(t)), lengths)
            starts = np.concatenate([[0], np.cumsum(lengths)])[:-1]
            within = (np.arange(int(lengths.sum()))
                      - np.repeat(starts, lengths))
            doc_ids = t["doc_id"]
            if isinstance(doc_ids, pa.ChunkedArray):
                doc_ids = doc_ids.combine_chunks()
            is_text = np.asarray(pc.equal(kinds, "text")
                                 .to_numpy(zero_copy_only=False))
            sel = np.nonzero(is_text)[0]
            txt = texts.take(pa.array(sel))
            F = feature_matrix(txt)
            logit = F @ self.W + self.b
            rej = logit <= 0
            keep_rows = sel[rej]
            return pa.table({
                "doc_id": doc_ids.take(pa.array(parents[keep_rows])),
                "span_idx": pa.array(within[keep_rows]),
                "logit_fp": pa.array(logit[rej])})

    out = _gather(ds.map_batches(
        SpanScorer, batch_format="pyarrow", concurrency=(1, 4)))
    # logit_fp breaks ties: doc_id is NOT unique (the dup_doc_id
    # planted class), so (doc_id, span_idx) alone is not a total order
    return out.sort_by([("doc_id", "ascending"),
                        ("span_idx", "ascending"),
                        ("logit_fp", "ascending")])


def f0_span_quality_oracle_sql() -> str:
    terms = " + ".join(
        f"({w} * {expr})" for w, (_, expr)
        in zip(QUALITY_MODEL["weights"], _QUALITY_FEATURES_SQL))
    return f"""
        WITH f0 AS (
            SELECT doc_id, spans
            FROM read_parquet('/tmp/yaschva_oracle/f0_docs.parquet')
        ), sp AS (
            SELECT doc_id, unnest(spans) AS s,
                   CAST(generate_subscripts(spans, 1) - 1 AS BIGINT)
                       AS span_idx
            FROM f0
        ), t AS (
            SELECT doc_id, span_idx, s.text AS text
            FROM sp WHERE s.kind = 'text'
        )
        SELECT doc_id, span_idx,
               CAST({QUALITY_MODEL['bias']} + {terms} AS BIGINT)
                   AS logit_fp
        FROM t
        WHERE ({QUALITY_MODEL['bias']} + {terms}) <= 0
        ORDER BY doc_id, span_idx, logit_fp
    """


if __name__ == "__main__":  # pragma: no cover — artifact regeneration
    import json
    import sys

    sf = sys.argv[1] if len(sys.argv) > 1 else "/root/testdata/sf0.001"
    print(json.dumps(train_quality_model_from_dir(sf)))
