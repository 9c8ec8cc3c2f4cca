"""The ``repro obs-report`` flow: one tiny end-to-end pipeline, fully traced.

Runs a miniature version of the whole ChipAlign pipeline — train-stub →
geodesic merge → batched serving → benchmark eval → RAG retrieval — with a
single shared :class:`~repro.obs.Observability`, then renders the span tree
and metric registry it produced.  Small enough for a CI smoke step (seconds,
no checkpoints), but every stage goes through the real instrumented code
paths, so the report shows exactly the spans and counters a production run
would emit.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from . import Observability


def run_obs_flow(obs: Optional[Observability] = None, epochs: int = 4,
                 items: int = 3, lam: float = 0.6, decode_tokens: int = 8,
                 seed: int = 0) -> Tuple[Observability, Dict[str, object]]:
    """Run the traced end-to-end flow; returns ``(obs, summary)``.

    ``summary`` carries the per-stage results (final loss, merged tensor
    count, completions served, eval score) so callers can sanity-check the
    flow did real work, not just emit spans.
    """
    from ..core.merge_engine import GeodesicMergeEngine
    from ..data.openroad_qa import documentation_corpus, eval_triplets
    from ..eval.harness import run_openroad
    from ..eval.oracles import GeneralOracle
    from ..nn.trainer import TrainConfig, Trainer
    from ..nn.transformer import TransformerConfig, TransformerLM
    from ..rag.pipeline import RagPipeline
    from ..serve import InProcessServer, SamplingParams, ServeConfig

    obs = obs or Observability()
    summary: Dict[str, object] = {}
    config = TransformerConfig(vocab_size=24, dim=16, n_layers=2, n_heads=2,
                               max_seq_len=48, seed=seed)
    with obs.span("obs_report.flow"):
        with obs.span("obs_report.train"):
            chip = TransformerLM(config)
            trainer = Trainer(chip, pad_id=0,
                              config=TrainConfig(epochs=epochs, batch_size=8,
                                                 lr=3e-3, seed=seed),
                              obs=obs)
            result = trainer.fit([[1, 7, 8, 9, 10, 11, 2],
                                  [1, 5, 6, 5, 6, 2]] * 4)
            summary["train_final_loss"] = result.final_loss
            summary["train_steps"] = result.steps

        with obs.span("obs_report.merge"):
            instruct_config = TransformerConfig(
                vocab_size=24, dim=16, n_layers=2, n_heads=2, max_seq_len=48,
                seed=seed + 1)
            instruct = TransformerLM(instruct_config)
            # Not from_models: its config check refuses differing seeds.
            engine = GeodesicMergeEngine(chip.parameter_arrays(),
                                         instruct.parameter_arrays(), obs=obs)
            merged_sd = engine.merge(lam)
            merged = TransformerLM(config)
            merged.load_state_dict(dict(merged_sd))
            summary["merged_tensors"] = len(merged_sd)

        with obs.span("obs_report.serve"):
            server = InProcessServer(
                merged, config=ServeConfig(max_batch_size=4,
                                           prefix_min_tokens=4),
                clock=obs.clock, obs=obs)
            prefix = (1, 7, 8, 9, 10, 11)
            for i in range(4):
                server.submit(prefix + (3 + i,), params=SamplingParams(
                    max_new_tokens=decode_tokens, seed=seed + i))
            summary["served_tokens"] = sum(
                len(c.token_ids) for c in server.run_until_idle())

        with obs.span("obs_report.eval"):
            triplets = eval_triplets()[:items]
            report = run_openroad(GeneralOracle(), triplets, obs=obs)
            summary["eval_rouge_l"] = report.overall

        with obs.span("obs_report.rag"):
            rag = RagPipeline(documentation_corpus()[:24], obs=obs)
            retrieval = rag.retrieve(triplets[0].question)
            summary["rag_context_chars"] = len(retrieval.context)
    return obs, summary
