"""The full retrieve → fuse → rerank RAG pipeline.

Matches the three-stage shape of the paper's Section IV-B setup: a dense
embedding retriever and BM25 run in parallel, their candidate lists are
fused with reciprocal-rank fusion, and a reranker picks the final context.

:class:`RagAnswerService` closes the loop from retrieval to generation:
it grounds each question with the pipeline and routes the resulting
prompts through a batched :class:`~repro.serve.InProcessServer`, so a
burst of questions decodes concurrently and their shared instruction
block hits the server's prefix cache.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from ..obs import Observability
from .bm25 import BM25Index
from .embedder import DenseRetriever, HashedEmbedder
from .reranker import OverlapReranker


def reciprocal_rank_fusion(rankings: Sequence[Sequence[int]], k: float = 60.0) -> List[int]:
    """Fuse ranked doc-id lists with RRF; returns doc ids best-first."""
    if not rankings:
        raise ValueError("need at least one ranking to fuse")
    scores: Dict[int, float] = {}
    for ranking in rankings:
        for rank, doc_id in enumerate(ranking):
            scores[doc_id] = scores.get(doc_id, 0.0) + 1.0 / (k + rank + 1)
    return sorted(scores, key=lambda d: (-scores[d], d))


@dataclass(frozen=True)
class RetrievalResult:
    """Final retrieval output: chosen context plus diagnostics."""

    context: str
    doc_ids: Tuple[int, ...]
    candidates: Tuple[int, ...]


class RagPipeline:
    """Dense + BM25 retrieval with RRF fusion and overlap reranking.

    Parameters
    ----------
    corpus:
        The documentation paragraphs to retrieve from.
    candidate_k:
        Candidates taken from each first-stage retriever before fusion.
    final_k:
        Number of paragraphs concatenated into the returned context.
    obs:
        Shared :class:`~repro.obs.Observability`; each retrieval records a
        ``rag.retrieve`` span with per-stage children (dense / bm25 / fuse /
        rerank) plus a query counter.  Private when omitted.
    workers:
        >1 builds both indices in parallel: corpus embeddings fan out
        across a :class:`~repro.parallel.WorkerPool` and BM25 term
        statistics are sharded per document and merged.  Both indices are
        bit-identical to a serial build.
    """

    def __init__(self, corpus: Sequence[str], candidate_k: int = 5,
                 final_k: int = 1, embed_dim: int = 256,
                 obs: Optional[Observability] = None,
                 workers: Optional[int] = None) -> None:
        if final_k > candidate_k:
            raise ValueError("final_k cannot exceed candidate_k")
        self.corpus = list(corpus)
        self.candidate_k = candidate_k
        self.final_k = final_k
        self.obs = obs if obs is not None else Observability()
        with self.obs.span("rag.index_build", docs=len(self.corpus)):
            self.dense = DenseRetriever(self.corpus, HashedEmbedder(embed_dim),
                                        workers=workers)
            self.bm25 = BM25Index(self.corpus, workers=workers)
        self.reranker = OverlapReranker(self.corpus)

    def retrieve_many(self, queries: Sequence[str]) -> List[RetrievalResult]:
        """Retrieve contexts for a batch of queries (order-preserving)."""
        return [self.retrieve(query) for query in queries]

    def retrieve(self, query: str) -> RetrievalResult:
        """Retrieve the context for ``query`` through all three stages."""
        with self.obs.span("rag.retrieve"):
            with self.obs.span("rag.dense"):
                dense_ids = [i for i, _ in
                             self.dense.search(query, self.candidate_k)]
            with self.obs.span("rag.bm25"):
                bm25_ids = [i for i, _ in
                            self.bm25.search(query, self.candidate_k)]
            with self.obs.span("rag.fuse"):
                fused = reciprocal_rank_fusion(
                    [dense_ids, bm25_ids])[: self.candidate_k]
            with self.obs.span("rag.rerank"):
                reranked = self.reranker.rerank(
                    query, [(i, self.corpus[i]) for i in fused],
                    top_k=self.final_k)
        chosen = tuple(i for i, _ in reranked)
        context = " ".join(self.corpus[i] for i in chosen)
        self.obs.registry.counter("rag.queries").inc()
        return RetrievalResult(context, chosen, tuple(fused))

    def recall_at_k(self, queries: Sequence[str], golden_ids: Sequence[int],
                    k: int = None) -> float:
        """Fraction of queries whose golden paragraph survives to the context."""
        if len(queries) != len(golden_ids):
            raise ValueError("queries and golden_ids must align")
        if not queries:
            raise ValueError("empty query set")
        hits = 0
        for query, golden in zip(queries, golden_ids):
            result = self.retrieve(query)
            pool = result.doc_ids if k is None else result.candidates[:k]
            if golden in pool:
                hits += 1
        return hits / len(queries)


class RagAnswerService:
    """Grounded question answering through the batched serving subsystem.

    Parameters
    ----------
    pipeline:
        The retrieval pipeline supplying grounding contexts.
    server:
        An :class:`~repro.serve.InProcessServer` with a tokenizer (needed to
        encode the rendered prompts).
    instructions:
        Instruction texts appended to every prompt (the shared block that
        makes a question burst prefix-cache friendly).
    max_new_tokens:
        Decode budget per answer.
    obs:
        Shared :class:`~repro.obs.Observability`; defaults to the
        pipeline's handle so retrieval and answer spans land in one trace.
    """

    def __init__(self, pipeline: RagPipeline, server,
                 instructions: Sequence[str] = (),
                 max_new_tokens: int = 56,
                 obs: Optional[Observability] = None) -> None:
        if server.tokenizer is None:
            raise ValueError("RagAnswerService requires a server with a tokenizer")
        self.pipeline = pipeline
        self.server = server
        self.instructions = tuple(instructions)
        self.max_new_tokens = max_new_tokens
        self.obs = obs if obs is not None else pipeline.obs

    def _prompt(self, question: str, context: str) -> str:
        from ..data.prompting import format_prompt

        return format_prompt(question, context=context,
                             instructions=list(self.instructions))

    def answer(self, question: str) -> str:
        """Retrieve context for one question and generate its answer."""
        from ..serve import SamplingParams

        with self.obs.span("rag.answer"):
            context = self.pipeline.retrieve(question).context
            return self.server.complete_text(
                self._prompt(question, context),
                params=SamplingParams(max_new_tokens=self.max_new_tokens))

    def answer_many(self, questions: Sequence[str]) -> List[str]:
        """Answer a burst of questions through one batched decode run.

        All prompts are submitted before the scheduler runs, so they decode
        concurrently; answers are returned in question order.
        """
        from ..serve import SamplingParams

        with self.obs.span("rag.answer_many", questions=len(questions)):
            results = self.pipeline.retrieve_many(questions)
            params = SamplingParams(max_new_tokens=self.max_new_tokens)
            ids = [self.server.submit_text(self._prompt(q, r.context),
                                           params=params)
                   for q, r in zip(questions, results)]
            done = {c.request_id: c for c in self.server.run_until_idle()}
            return [(done[rid].text or "") for rid in ids]
