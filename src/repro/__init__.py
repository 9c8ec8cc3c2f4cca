"""ChipAlign reproduction.

Geodesic weight interpolation for instruction alignment in chip-design LLMs
(Deng, Bai & Ren, DAC 2025), reproduced end-to-end on a from-scratch
transformer substrate.  See DESIGN.md for the system inventory and
EXPERIMENTS.md for paper-vs-measured results.

Quickstart
----------
>>> from repro import ChipAlignMerger
>>> merged = ChipAlignMerger(lam=0.6).merge_models(chip_model, instruct_model)
"""

from ._lazy import lazy_exports

__version__ = "1.0.0"

# Lazy: importing one subsystem (say ``repro.serve``) must not load the
# merge engine and its baselines.
__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    ".core": ("ChipAlignMerger", "geodesic_merge", "merge_state_dicts",
              "slerp"),
    ".core.registry": ("available_methods", "merge"),
})
__all__.append("__version__")
