"""Evaluation: metrics, verifiable-instruction checking, judging, harnesses."""

from .._lazy import lazy_exports

# Lazy: the data layer reads the IFEval instruction kinds without loading
# the harness (and through it RAG and the worker pool).
__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    ".rouge": ("RougeScore", "lcs_length", "mean_rouge_l", "rouge_l"),
    ".bleu": ("corpus_bleu", "sentence_bleu"),
    ".judge": ("JudgeVerdict", "ReferenceJudge", "content_words",
               "mean_score"),
    ".mcq_eval": ("MCQResult", "choose", "evaluate_mcq"),
    ".harness": ("GROUNDING_TEXT", "INDUSTRIAL_INSTRUCTIONS",
                 "OPENROAD_INSTRUCTIONS", "Answerer", "IndustrialReport",
                 "LMAnswerer", "OpenRoadReport", "golden_reference",
                 "run_industrial", "run_industrial_multiturn",
                 "run_openroad"),
    ".oracles": ("GeneralOracle", "RagEdaOracle", "split_sentences"),
    ".ifeval": ("IFEvalResult", "evaluate_model", "evaluate_responses"),
    ".unieval": ("UniEvalScore", "UniEvaluator"),
    ".perplexity": ("PerplexityResult", "compare_perplexity",
                    "corpus_perplexity"),
})
