"""Model-level ChipAlign merging over state dicts.

The paper merges *every* weight tensor of the two input models — embeddings,
normalisation, attention, and feed-forward layers — with the same geodesic
interpolation and a single hyperparameter λ.  This module applies the
geodesic merge across a pair of state dicts (routing through
:class:`~repro.core.merge_engine.GeodesicMergeEngine`, whose single-λ
evaluation is numerically equivalent to per-tensor
:func:`repro.core.geodesic.geodesic_merge`) and offers a convenience
wrapper that produces a merged :class:`~repro.nn.transformer.TransformerLM`.
When several λ points are needed for the *same* model pair, build one
engine and reuse it — the sphere projections and angles are computed once.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, Iterable, Optional, Sequence

import numpy as np

from ..nn.transformer import TransformerLM

StateDict = Dict[str, np.ndarray]


def validate_keys(chip: StateDict, instruct: StateDict) -> None:
    """Raise ``KeyError`` unless both state dicts name the same tensors."""
    missing = sorted(set(chip) ^ set(instruct))
    if missing:
        raise KeyError(f"state dicts have non-matching keys: {missing}")


def validate_conformable(chip: StateDict, instruct: StateDict) -> None:
    """Raise if the two state dicts cannot be merged (paper's conformability assumption)."""
    validate_keys(chip, instruct)
    for key in chip:
        a, b = np.asarray(chip[key]), np.asarray(instruct[key])
        if a.shape != b.shape:
            raise ValueError(
                f"tensor {key!r} has mismatched shapes: {a.shape} vs {b.shape}"
            )


def merge_state_dicts(chip: StateDict, instruct: StateDict, lam: float = 0.6,
                      exclude: Sequence[str] = ()) -> "OrderedDict[str, np.ndarray]":
    """Merge two conformable state dicts with geodesic interpolation.

    Parameters
    ----------
    chip, instruct:
        State dicts of the chip-domain and instruction-aligned models; must
        have identical keys and shapes.
    lam:
        ChipAlign's single hyperparameter; 1 → chip weights, 0 → instruct
        weights; the paper recommends 0.6.
    exclude:
        Optional fnmatch-style patterns; matching tensors are copied from the
        chip model unmerged (useful for ablations — the paper itself merges
        everything).
    """
    from .merge_engine import GeodesicMergeEngine

    return GeodesicMergeEngine(chip, instruct, exclude=exclude).merge(lam)


@dataclass(frozen=True)
class ChipAlignMerger:
    """Configured ChipAlign merge, usable on state dicts or whole models.

    Example
    -------
    >>> merger = ChipAlignMerger(lam=0.6)
    >>> merged_model = merger.merge_models(chip_model, instruct_model)
    """

    lam: float = 0.6
    exclude: Sequence[str] = ()

    def __post_init__(self) -> None:
        if not 0.0 <= self.lam <= 1.0:
            raise ValueError(f"lambda must be in [0, 1], got {self.lam}")

    def merge(self, chip: StateDict, instruct: StateDict) -> "OrderedDict[str, np.ndarray]":
        """Merge two state dicts."""
        return merge_state_dicts(chip, instruct, self.lam, self.exclude)

    def merge_models(self, chip_model: TransformerLM,
                     instruct_model: TransformerLM) -> TransformerLM:
        """Merge two models of identical architecture into a fresh model."""
        if chip_model.config != instruct_model.config:
            raise ValueError(
                "models must share an architecture: "
                f"{chip_model.config} vs {instruct_model.config}"
            )
        merged = TransformerLM(chip_model.config)
        merged.load_state_dict(self.merge(chip_model.parameter_arrays(),
                                          instruct_model.parameter_arrays()))
        merged.eval()
        return merged
