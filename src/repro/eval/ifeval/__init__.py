"""IFEval reimplementation: verifiable instructions + accuracy evaluator."""

from ..._lazy import lazy_exports

# Lazy: the instruction checkers load without the model-driving evaluator.
__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    ".instructions": ("ALL_KINDS", "AvoidWord", "EndWith", "IncludeWord",
                      "Instruction", "MaxWords", "MinWords", "QuoteWrap",
                      "RepeatQuestion", "StartWith", "TwoParts",
                      "build_instruction", "check_loose"),
    ".evaluator": ("IFEvalResult", "evaluate_model", "evaluate_responses"),
})
