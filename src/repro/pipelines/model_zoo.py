"""The model zoo: every named model of the paper's experiments, buildable
and cached on disk.

Families mirror the paper's backbones at substrate scale (DESIGN.md §1):

====== ===================== =========================================
family plays the role of      variants
====== ===================== =========================================
nano   Qwen1.5-14B            base, instruct ("-Chat"), eda ("-EDA")
micro  LLaMA3-8B              base, instruct, eda
grande LLaMA2-70B             base, instruct ("-Chat"), chipnemo
====== ===================== =========================================

plus, for every family, merged variants produced by any registered merge
method (``chipalign``, ``modelsoup``, ``ta``, ``ties``, ``della``, ``dare``).

Trained checkpoints are cached under ``$REPRO_CACHE_DIR`` (default
``~/.cache/repro_chipalign``) keyed by a recipe version, so benchmarks and
examples reuse them instead of retraining.
"""

from __future__ import annotations

import os
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from ..core import merge_engine as merge_engine_mod
from ..core.merge_engine import GeodesicMergeEngine
from ..core.registry import merge as registry_merge
from ..data import (eda_domain, industrial_qa, openroad_qa)
from ..data.corpus import pretraining_sentences
from ..data.extraction import extraction_pretraining_samples
from ..data.instruction_data import (counterfactual_grounded_samples,
                                     grounded_general_samples,
                                     grounded_instruction_samples,
                                     instruction_sft_samples,
                                     multi_turn_general_samples)
from ..data.prompting import format_prompt
from ..data.vocab import build_tokenizer
from ..nn.checkpoint import (checkpoint_exists, load_model, open_weights,
                             read_sidecar, save_model)
from ..nn.tokenizer import WordTokenizer
from ..nn.trainer import TrainConfig
from ..nn.transformer import TransformerConfig, TransformerLM, preset_config
from .daft import daft_lora, pretrain, sft, sft_lora, triplet_pairs

#: Bump to invalidate every cached checkpoint when a recipe changes.
RECIPE_VERSION = "v1"

FAMILIES = ("nano", "micro", "grande")

#: Architecture seeds; one per family so families are distinct models.
FAMILY_SEEDS: Dict[str, int] = {"nano": 11, "micro": 22, "grande": 33}

#: The chip-model variant of each family (what ChipAlign merges with chat).
CHIP_VARIANT: Dict[str, str] = {"nano": "eda", "micro": "eda", "grande": "chipnemo"}


def default_cache_dir() -> Path:
    """Checkpoint cache directory, overridable via ``REPRO_CACHE_DIR``."""
    env = os.environ.get("REPRO_CACHE_DIR")
    return Path(env) if env else Path.home() / ".cache" / "repro_chipalign"


class ModelZoo:
    """Build, cache, and serve every model of the reproduction."""

    def __init__(self, cache_dir: Optional[Path] = None, verbose: bool = False) -> None:
        self.cache_dir = Path(cache_dir) if cache_dir else default_cache_dir()
        self.cache_dir.mkdir(parents=True, exist_ok=True)
        self.verbose = verbose
        self._tokenizer: Optional[WordTokenizer] = None
        self._models: Dict[str, TransformerLM] = {}
        self._engines: Dict[str, GeodesicMergeEngine] = {}

    # ------------------------------------------------------------------
    def _log(self, message: str) -> None:
        if self.verbose:
            print(f"[model-zoo] {message}")

    @property
    def tokenizer(self) -> WordTokenizer:
        """The shared word tokenizer (built once, cached on disk)."""
        if self._tokenizer is None:
            path = self.cache_dir / f"tokenizer_{RECIPE_VERSION}.json"
            if path.exists():
                self._tokenizer = WordTokenizer.load(path)
            else:
                self._tokenizer = build_tokenizer()
                self._tokenizer.save(path)
        return self._tokenizer

    def _ckpt_path(self, family: str, variant: str) -> Path:
        return self.cache_dir / f"{family}_{variant}_{RECIPE_VERSION}"

    def _new_model(self, family: str) -> TransformerLM:
        config = preset_config(family, self.tokenizer.vocab_size,
                               seed=FAMILY_SEEDS[family])
        return TransformerLM(config)

    # ------------------------------------------------------------------
    # build recipes
    # ------------------------------------------------------------------
    def _build_base(self, family: str) -> TransformerLM:
        """Foundation pretraining: general text plus a light pass over the
        public chip documentation (the way web-scale corpora contain some
        EDA text)."""
        self._log(f"pretraining {family}/base")
        model = self._new_model(family)
        sentences = list(pretraining_sentences(repeats=4, seed=FAMILY_SEEDS[family]))
        sentences.extend(eda_domain.all_documentation())
        sentences.extend(industrial_qa.documentation_corpus())
        sentences.extend(extraction_pretraining_samples(
            n_samples=400, seed=FAMILY_SEEDS[family] + 7))
        pretrain(model, self.tokenizer, sentences,
                 TrainConfig(lr=3e-3, epochs=20, batch_size=16,
                             seed=FAMILY_SEEDS[family]))
        return model

    def _build_instruct(self, family: str) -> TransformerLM:
        """Instruction alignment on pool A — the public chat model."""
        self._log(f"instruction-tuning {family}/instruct")
        model = self.get(family, "base").clone()
        samples = instruction_sft_samples(pool="a", per_question=6,
                                          seed=FAMILY_SEEDS[family])
        samples += multi_turn_general_samples(n_samples=60,
                                              seed=FAMILY_SEEDS[family], pool="a")
        samples += grounded_general_samples(n_samples=120,
                                            seed=FAMILY_SEEDS[family], pool="a")
        samples += counterfactual_grounded_samples(n_samples=150,
                                                   seed=FAMILY_SEEDS[family], pool="a")
        pairs = [(s.prompt, s.response) for s in samples]
        # Refresh the base-born extraction skill so SFT does not erode it,
        # and teach the content-agnostic refusal behaviour of Figure 6.
        refresh = extraction_pretraining_samples(n_samples=80,
                                                 seed=FAMILY_SEEDS[family] + 8)
        for text in refresh:
            prompt, _, answer = text.rpartition(" assistant : ")
            pairs.append((prompt + " assistant :", answer))
        sft(model, self.tokenizer, pairs,
            TrainConfig(lr=2e-3, epochs=25, batch_size=16,
                        seed=FAMILY_SEEDS[family] + 1))
        return model

    def _build_eda(self, family: str) -> TransformerLM:
        """Figure 4(a)'s recipe: LoRA DAFT of the chat model on OpenROAD QA
        triplets with golden contexts and no instruction blocks."""
        self._log(f"DAFT (LoRA) {family}/eda")
        model = self.get(family, "instruct").clone()
        daft_lora(model, self.tokenizer, openroad_qa.train_triplets(),
                  rank=8, alpha=16.0,
                  config=TrainConfig(lr=5e-3, epochs=30, batch_size=12,
                                     seed=FAMILY_SEEDS[family] + 2),
                  seed=FAMILY_SEEDS[family] + 2)
        return model

    def _build_chipnemo(self, family: str) -> TransformerLM:
        """Figure 4(b)'s recipe at substrate scale: DAPT on chip documents,
        then DAFT on domain QA mixed with pool-B instruction data (the
        OASST / SteerLM analog that gives ChipNeMo its complementary
        alignment knowledge).

        Substitution note (see DESIGN.md): the paper's ChipNeMo branches
        from LLaMA2-70B-*Base*, where fine-tuning moves weights by a tiny
        angle relative to pretraining.  At substrate scale a full fine-tune
        from base drifts far enough from the chat model that *no* merge
        method works; to preserve the paper's mergeability precondition
        (small angular separation between same-ancestor fine-tunes) the
        DAPT+DAFT here branches from the instruction-tuned checkpoint, and
        alignment forgetting is still clearly measurable afterwards.
        """
        self._log(f"DAPT+DAFT {family}/chipnemo")
        model = self.get(family, "instruct").clone()
        pairs = triplet_pairs(industrial_qa.train_items()) * 2
        pairs += triplet_pairs(openroad_qa.train_triplets())
        grounded = grounded_instruction_samples(industrial_qa.train_items(),
                                                pool="b",
                                                seed=FAMILY_SEEDS[family] + 4)
        pairs += [(s.prompt, s.response) for s in grounded]
        chat_mix = instruction_sft_samples(pool="b", per_question=1,
                                           seed=FAMILY_SEEDS[family] + 5,
                                           include_plain=False)
        pairs += [(s.prompt, s.response) for s in chat_mix]
        # DAPT is folded into the same stage as raw-document language
        # modelling (empty-prompt pairs put the loss on the whole sentence):
        # carving domain memory and QA behaviour into one deep basin makes
        # the skill robust to interpolation, where a separate shallow DAPT
        # stage was the first casualty of merging.
        docs = eda_domain.all_documentation() + industrial_qa.documentation_corpus()
        pairs += [("", doc) for doc in docs]
        sft(model, self.tokenizer, pairs,
            TrainConfig(lr=3e-3, epochs=30, batch_size=12,
                        seed=FAMILY_SEEDS[family] + 6))
        return model

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------
    def get(self, family: str, variant: str) -> TransformerLM:
        """Return a trained model, building and caching it if necessary."""
        if family not in FAMILIES:
            raise KeyError(f"unknown family {family!r}; choose from {FAMILIES}")
        builders = {"base": self._build_base, "instruct": self._build_instruct,
                    "eda": self._build_eda, "chipnemo": self._build_chipnemo}
        if variant not in builders:
            raise KeyError(f"unknown variant {variant!r}; choose from {sorted(builders)}")
        if variant == "eda" and family == "grande":
            raise KeyError("the grande family's chip model is 'chipnemo', not 'eda'")
        if variant == "chipnemo" and family != "grande":
            raise KeyError("'chipnemo' exists only in the grande family")
        key = f"{family}/{variant}"
        if key in self._models:
            return self._models[key]
        path = self._ckpt_path(family, variant)
        if checkpoint_exists(path):
            model, _ = load_model(path)
        else:
            model = builders[variant](family)
            save_model(model, path, metadata={"family": family, "variant": variant,
                                              "recipe": RECIPE_VERSION})
        model.eval()
        self._models[key] = model
        return model

    def chip_model(self, family: str) -> TransformerLM:
        """The family's chip-domain model (eda or chipnemo)."""
        return self.get(family, CHIP_VARIANT[family])

    def _checkpoint(self, family: str, variant: str) -> Path:
        """Path of a variant's checkpoint, building the variant first if
        the cache lacks it (:meth:`get` saves every model it builds)."""
        path = self._ckpt_path(family, variant)
        if not checkpoint_exists(path):
            self.get(family, variant)
        return path

    def _config(self, family: str) -> TransformerConfig:
        """The family's architecture, read from the chip checkpoint's JSON
        sidecar — no model is loaded for it."""
        return read_sidecar(self._checkpoint(family, CHIP_VARIANT[family]))[0]

    def merge_engine(self, family: str) -> GeodesicMergeEngine:
        """The family's (chip, instruct) :class:`GeodesicMergeEngine`.

        Built once per family and cached: the plan (sphere projections,
        norms, angles Θ) is λ-independent, so every subsequent geodesic
        merge of the pair — any λ, schedule, or sweep — is only cheap
        coefficient math plus one fused scale-add per tensor.  The plan
        reads the pair straight from the two checkpoint archives, one
        tensor pair at a time, so neither source model is built for it:
        the plan's rows are the one resident copy of the pair.
        """
        if family not in self._engines:
            chip = self._checkpoint(family, CHIP_VARIANT[family])
            instruct = self._checkpoint(family, "instruct")
            if read_sidecar(chip)[0] != read_sidecar(instruct)[0]:
                raise ValueError(f"{family} chip and instruct checkpoints "
                                 "have different architectures")
            with open_weights(chip) as w_chip, \
                    open_weights(instruct) as w_instruct:
                self._engines[family] = GeodesicMergeEngine(w_chip, w_instruct)
        return self._engines[family]

    @staticmethod
    def _merged_key(family: str, method: str, kwargs: dict) -> str:
        """Canonical memo-cache key for a merged model.

        Keys are built from the kwargs the merge *actually uses*: a plain-λ
        chipalign merge normalizes to ``{"lam": float}`` with the engine's
        0.6 default filled in, so ``merged("eda")``,
        ``merged("eda", lam=0.6)`` and ``merged_sweep("eda", [0.6])`` all
        land on one cache entry instead of silently re-merging.
        """
        if method == "chipalign" and set(kwargs) <= {"lam"}:
            kwargs = {"lam": float(kwargs.get("lam", 0.6))}
        return f"{family}/merged:{method}:{sorted(kwargs.items())!r}"

    def merged(self, family: str, method: str = "chipalign", **kwargs) -> TransformerLM:
        """Merge the family's chip and instruct models with a registry method.

        Merging is fast (seconds), so merged models are built on demand and
        memo-cached in memory only.  Plain-λ chipalign merges reuse the
        family's cached :meth:`merge_engine` plan instead of re-projecting,
        and write each merged tensor straight into the new model's
        parameter — no float64 state dict is ever built.  Other methods
        read the chip, instruct and base models' parameter arrays in place
        (every registry method leaves its inputs untouched).
        """
        key = self._merged_key(family, method, kwargs)
        if key in self._models:
            return self._models[key]
        model = TransformerLM(self._config(family))
        if method == "chipalign" and set(kwargs) <= {"lam"}:
            self.merge_engine(family).merge(kwargs.get("lam", 0.6),
                                            out=model.parameter_arrays())
        else:
            merged_sd = registry_merge(
                method, chip=self.chip_model(family).parameter_arrays(),
                instruct=self.get(family, "instruct").parameter_arrays(),
                base=self.get(family, "base").parameter_arrays(), **kwargs)
            model.load_state_dict(dict(merged_sd))
        model.eval()
        self._models[key] = model
        return model

    def merged_sweep(self, family: str, lams,
                     n_workers: Optional[int] = None) -> List[TransformerLM]:
        """ChipAlign-merged models for every λ in ``lams`` in one pass.

        The whole sweep shares one :meth:`merge_engine` plan and evaluates
        tensor-at-a-time (:meth:`GeodesicMergeEngine.sweep`), so figure-8
        style λ studies cost one plan plus L coefficient evaluations
        instead of L full merges.  Each tensor's ``(L, n)`` rows are cast
        into the L models' parameters and dropped before the next tensor
        is evaluated, so the sweep never holds a float64 model.  Results
        land in the same memo cache :meth:`merged` uses, so mixed call
        patterns never re-merge.  ``n_workers`` forwards to the engine's
        pooled sweep (bit-identical to serial).
        """
        lams = [float(lam) for lam in lams]
        missing = [lam for lam in lams
                   if self._merged_key(family, "chipalign", {"lam": lam})
                   not in self._models]
        if missing:
            engine = self.merge_engine(family)
            config = self._config(family)
            models = [TransformerLM(config) for _ in missing]
            engine.sweep(missing, n_workers=n_workers,
                         out=[model.parameter_arrays() for model in models])
            for lam, model in zip(missing, models):
                model.eval()
                key = self._merged_key(family, "chipalign", {"lam": lam})
                self._models[key] = model
        return [self.merged(family, "chipalign", lam=lam) for lam in lams]

    def evaluate_candidates(self, family: str, lams,
                            triplets=None, workers: Optional[int] = None,
                            max_new_tokens: int = 24,
                            ) -> List[Tuple[float, float]]:
        """Score ChipAlign merge candidates at each λ on OpenROAD QA.

        Returns ``[(lam, overall ROUGE-L), ...]`` in λ order.  With
        ``workers > 1`` each candidate is rebuilt from the family engine's
        shared-memory plan and evaluated in a worker process; scores are
        bit-identical to the serial path.
        """
        if triplets is None:
            triplets = openroad_qa.eval_triplets()
        return evaluate_merged_candidates(
            self.merge_engine(family), self._config(family),
            self.tokenizer, triplets, lams, workers=workers,
            max_new_tokens=max_new_tokens)

    def lambda_fleet(self, family: str, variants, **kwargs):
        """A :class:`~repro.serve.lambda_fleet.LambdaFleetServer` over this
        family's cached merge plan.

        All variants share the family engine's one arena-resident plan;
        ``variants`` are :class:`~repro.serve.lambda_fleet.VariantSpec`
        entries and ``kwargs`` forward to the fleet constructor
        (``serve_config``, ``replicas_per_variant``, ``variant_of``, ...).
        Caller owns the fleet's lifecycle (use a ``with`` block).
        """
        from ..serve.lambda_fleet import LambdaFleetServer

        return LambdaFleetServer(
            self.merge_engine(family), self._config(family),
            variants, tokenizer=self.tokenizer, **kwargs)

    def prewarm(self, families=FAMILIES) -> None:
        """Build every trainable variant up front (useful before benchmarks)."""
        for family in families:
            self.get(family, "base")
            self.get(family, "instruct")
            self.chip_model(family)


# ---------------------------------------------------------------------------
# parallel candidate evaluation (zoo-independent so tests can drive it with
# throwaway engines/models instead of trained checkpoints)
# ---------------------------------------------------------------------------


def _candidate_item(lam: float) -> float:
    """Build one merged candidate and score it on OpenROAD QA.

    In a pool worker the state dict comes from the shared-memory plan
    (:func:`repro.core.merge_engine._merge_point`); in the serial fallback
    from the engine itself.  Both evaluate the identical per-λ math, so
    scores match bit-for-bit.
    """
    from ..eval.harness import LMAnswerer, run_openroad
    from ..parallel import get_task_context, worker_obs

    ctx = get_task_context()
    if merge_engine_mod._WORKER_PLAN is not None:
        merged_sd = merge_engine_mod._merge_point(lam)
    else:
        merged_sd = ctx["engine"].merge(lam)
    model = TransformerLM(ctx["config"])
    model.load_state_dict(dict(merged_sd))
    model.eval()
    answerer = LMAnswerer(model, ctx["tokenizer"],
                          max_new_tokens=ctx["max_new_tokens"],
                          name=f"candidate-{lam:g}")
    report = run_openroad(answerer, ctx["triplets"], obs=worker_obs())
    return float(report.overall)


def evaluate_merged_candidates(engine: GeodesicMergeEngine, config,
                               tokenizer, triplets, lams: Sequence[float],
                               workers: Optional[int] = None,
                               max_new_tokens: int = 24,
                               ) -> List[Tuple[float, float]]:
    """Score merge candidates at each λ (overall OpenROAD ROUGE-L).

    With ``workers > 1`` the engine's plan is published to shared memory
    once and each worker rebuilds + evaluates candidates against zero-copy
    views; per-candidate eval metrics ship back into ``engine.obs``.
    """
    from ..parallel import (WorkerPool, effective_workers, task_context,
                            task_obs)

    lams = [float(lam) for lam in lams]
    workers = effective_workers(workers)
    obs = engine.obs
    with obs.span("zoo.evaluate_candidates", candidates=len(lams),
                  workers=workers):
        with task_context(engine=engine, config=config, tokenizer=tokenizer,
                          triplets=tuple(triplets),
                          max_new_tokens=max_new_tokens):
            if workers > 1 and len(lams) > 1:
                handle, metas = engine._shared_plan()
                with WorkerPool(workers,
                                initializer=merge_engine_mod._sweep_worker_init,
                                initargs=(handle, metas), obs=obs) as pool:
                    scores = pool.map_chunked(_candidate_item, lams,
                                              chunk_size=1)
                # serial candidates account per merge() call; pooled merges
                # happen off-engine, so settle the books here.
                engine._account_evaluations(len(lams))
            else:
                with task_obs(obs):
                    scores = [_candidate_item(lam) for lam in lams]
    return list(zip(lams, scores))


_DEFAULT_ZOO: Optional[ModelZoo] = None


def default_zoo(verbose: bool = False) -> ModelZoo:
    """Process-wide shared zoo instance."""
    global _DEFAULT_ZOO
    if _DEFAULT_ZOO is None:
        _DEFAULT_ZOO = ModelZoo(verbose=verbose)
    return _DEFAULT_ZOO
