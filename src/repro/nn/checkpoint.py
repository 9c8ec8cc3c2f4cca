"""Checkpoint persistence for models and tokenizers.

State dicts are saved as ``.npz`` archives plus a JSON sidecar holding the
model configuration, so a checkpoint is self-describing and can be reloaded
without knowing the architecture in advance.

Neither direction stages a whole-model copy: :func:`save_model` writes the
parameters' own arrays, and :func:`load_model` streams the open archive
into ``load_state_dict`` one tensor at a time.  :func:`read_sidecar` reads
the sidecar alone, and :func:`open_weights` hands out the archive as a
lazy name → array mapping, so a caller that needs the configuration or
one tensor at a time (merge planning) never builds the model.
"""

from __future__ import annotations

import json
from collections import OrderedDict
from pathlib import Path
from typing import Dict, Optional, Tuple

import numpy as np

from .transformer import TransformerConfig, TransformerLM


def save_state_dict(state: Dict[str, np.ndarray], path) -> None:
    """Save a flat name → array mapping to an ``.npz`` file."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    np.savez(path, **{k: np.asarray(v) for k, v in state.items()})


def load_state_dict(path) -> "OrderedDict[str, np.ndarray]":
    """Load a state dict previously saved by :func:`save_state_dict`."""
    with np.load(Path(path)) as archive:
        return OrderedDict((k, archive[k]) for k in archive.files)


def save_model(model: TransformerLM, path, metadata: Optional[dict] = None) -> None:
    """Save a model's weights (``<path>.npz``) and config (``<path>.json``)."""
    path = Path(path)
    save_state_dict(model.parameter_arrays(), path.with_suffix(".npz"))
    payload = {"config": model.config.to_dict(), "metadata": metadata or {}}
    path.with_suffix(".json").write_text(json.dumps(payload, indent=2))


def read_sidecar(path) -> Tuple[TransformerConfig, dict]:
    """``(config, metadata)`` of a checkpoint saved by :func:`save_model`,
    read from its JSON sidecar without touching the weights."""
    payload = json.loads(Path(path).with_suffix(".json").read_text())
    return (TransformerConfig.from_dict(payload["config"]),
            payload.get("metadata", {}))


def open_weights(path) -> np.lib.npyio.NpzFile:
    """The checkpoint's weight archive as a lazy name → array mapping:
    each lookup reads one tensor.  Close it (or use it as a context
    manager) when done."""
    return np.load(Path(path).with_suffix(".npz"))


def load_model(path) -> Tuple[TransformerLM, dict]:
    """Load a model saved by :func:`save_model`; returns ``(model, metadata)``."""
    config, metadata = read_sidecar(path)
    model = TransformerLM(config)
    with open_weights(path) as archive:
        model.load_state_dict(archive)
    return model, metadata


def checkpoint_exists(path) -> bool:
    """True if both the weight archive and the config sidecar exist."""
    path = Path(path)
    return path.with_suffix(".npz").exists() and path.with_suffix(".json").exists()
