"""λ-fleet: serve many merged-model variants from one resident plan.

The paper's artifact is a one-parameter *family* of models (geodesic
interpolation over λ, Fig. 8), but classic serving materializes a full
state dict per variant — K variants cost K weight copies and K cold
starts.  This module collapses that: the λ-independent half of the merge
(the :class:`~repro.core.merge_engine.MergePlan` — norms, angles, stacked
raw endpoint tensors) is held **once**, by the parent, and every replica
inherits it across the fork and realizes its variant's weights lazily,
tensor-by-tensor, from the plan's own rows (:class:`LazyMergedModel`).

Residency math: the plan stores the two float32 endpoints' rows as float32
from planning on (float32 → float64 is exact; see
:attr:`~repro.core.merge_engine.TensorPlan.stacked64`), so **K variants
stay resident at ~2x one model's bytes** instead of K×.  Evaluation upcasts
to float64 and runs the exact engine math, so every materialized variant is
bit-identical to its oracle:

========== ====================================================== ========
kind        oracle                                                 parity
========== ====================================================== ========
scalar λ    ``GeodesicMergeEngine.merge(lam)``                     bytes
layerwise   ``GeodesicMergeEngine.merge_layerwise(schedule)``      bytes
karcher     ``karcher_merge_state_dicts([chip, instruct], w)``     bytes
========== ====================================================== ========

(each followed by the same float64→float32 ``load_state_dict`` cast; the
differential suite in ``tests/test_lambda_fleet.py`` pins all three).

:class:`LambdaFleetServer` extends :class:`~repro.serve.fleet.FleetServer`
with variant-aware routing: each variant owns a replica group, requests
resolve to a variant (explicit ``Request.variant`` > a ``variant_of``
policy callable > the fleet default), and consistent hashing *within* the
group preserves session/prefix affinity.  Per-variant quality gauges
(:meth:`LambdaFleetServer.record_quality`, fed from ``repro.eval`` judges
or live feedback) drive :meth:`LambdaFleetServer.promote` — the paper's
offline λ sweep becomes an online canary loop where the default variant
follows measured quality.

Variants can serve cheap: with ``ServeConfig(weight_mode="int8")`` each
replica's engine quantizes its freshly materialized variant through
:func:`~repro.nn.kernels.quantize_state_dict` — identical fp32 input bits
on every replica, hence identical quantized weights fleet-wide.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Callable, Dict, Optional, Sequence, Tuple

import numpy as np

from ..core.karcher import karcher_merge_rows
from ..core.layerwise import LambdaSchedule, LambdaTable
from ..core.merge_engine import (KIND_EXCLUDED, KIND_ZERO,
                                 GeodesicMergeEngine, MergePlan)
from ..nn.tensor import get_default_dtype
from ..nn.transformer import TransformerConfig
from .fleet import FleetServer, HashRing, affinity_key
from .request import Request, RequestStatus


# ---------------------------------------------------------------------------
# variant specifications
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class VariantSpec:
    """One member of the merged-model family, as picklable data.

    Three kinds:

    * ``scalar`` — the paper's setting, one λ everywhere;
    * ``layerwise`` — a per-layer λ table (a frozen
      :class:`~repro.core.layerwise.LambdaSchedule`);
    * ``karcher`` — the weighted spherical (Karcher) mean of the plan's
      endpoints (:mod:`repro.core.karcher`); for two endpoints with weights
      ``(λ, 1-λ)`` this is geometrically the same geodesic point as SLERP
      at λ, computed through the fixed-point iteration.

    Use the :meth:`scalar` / :meth:`layerwise` / :meth:`karcher` builders;
    they validate eagerly so a bad spec fails at definition, not inside a
    forked replica.
    """

    name: str
    kind: str
    lam: float = 0.6
    table: Optional[LambdaTable] = None
    weights: Optional[Tuple[float, ...]] = None

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("a variant needs a non-empty name")
        if self.kind == "scalar":
            if not 0.0 <= self.lam <= 1.0:
                raise ValueError(f"lambda must be in [0, 1], got {self.lam}")
        elif self.kind == "layerwise":
            if self.table is None:
                raise ValueError("layerwise variants need a LambdaTable")
        elif self.kind == "karcher":
            if self.weights is None or len(self.weights) != 2:
                raise ValueError(
                    "karcher variants over a two-endpoint plan need exactly "
                    f"two weights, got {self.weights!r}")
            if any(w < 0.0 for w in self.weights) or sum(self.weights) <= 0.0:
                raise ValueError(
                    f"karcher weights must be non-negative and sum to a "
                    f"positive value, got {self.weights!r}")
        else:
            raise ValueError(f"unknown variant kind {self.kind!r}")

    # ------------------------------------------------------------------
    @classmethod
    def scalar(cls, name: str, lam: float) -> "VariantSpec":
        return cls(name=name, kind="scalar", lam=float(lam))

    @classmethod
    def layerwise(cls, name: str, schedule) -> "VariantSpec":
        """From a :class:`LambdaSchedule` (frozen here — closures don't
        pickle) or an already-frozen :class:`LambdaTable`."""
        if isinstance(schedule, LambdaSchedule):
            schedule = schedule.freeze()
        return cls(name=name, kind="layerwise", table=schedule)

    @classmethod
    def karcher(cls, name: str, weights: Sequence[float]) -> "VariantSpec":
        return cls(name=name, kind="karcher",
                   weights=tuple(float(w) for w in weights))

    def describe(self) -> str:
        if self.kind == "scalar":
            return f"scalar lam={self.lam:g}"
        if self.kind == "layerwise":
            lams = ",".join(f"{lam:g}" for lam in self.table.lams)
            return f"layerwise [{lams}] default={self.table.default:g}"
        return "karcher w=({})".format(",".join(f"{w:g}" for w in self.weights))


# ---------------------------------------------------------------------------
# lazy delta materialization
# ---------------------------------------------------------------------------


def materialize_variant(plan: MergePlan, spec: VariantSpec, dtype=None,
                        ) -> "OrderedDict[str, np.ndarray]":
    """Realize one variant's full state dict from the shared plan.

    Tensors are evaluated one at a time straight into ``dtype`` arrays
    (the model default, float32) through :meth:`TensorPlan.evaluate`'s
    ``out``, so peak transient memory is one largest-tensor float64
    result — not a full float64 model.  The cast is the rounding
    ``load_state_dict`` applies, making the returned dict byte-identical
    to loading the corresponding oracle merge into a ``TransformerLM``
    (see the module table).  This is the same tensor-at-a-time path
    :meth:`~repro.pipelines.model_zoo.ModelZoo.merged` builds its models
    through.

    Karcher variants require both endpoints for every tensor, so plans
    built with exclude patterns are rejected for that kind; errors from the
    spherical iteration (e.g. antipodal log maps) propagate unchanged.
    """
    if dtype is None:
        dtype = get_default_dtype()
    dtype = np.dtype(dtype)
    state: "OrderedDict[str, np.ndarray]" = OrderedDict()
    if spec.kind == "karcher":
        for tensor in plan:
            if tensor.kind == KIND_EXCLUDED:
                raise ValueError(
                    "karcher variants need both endpoints for every tensor; "
                    f"{tensor.key!r} was planned with an exclude pattern")
            if tensor.kind == KIND_ZERO:
                merged = np.zeros(tensor.shape, dtype=np.float64)
            else:
                merged = karcher_merge_rows(
                    tensor.stacked64, spec.weights).reshape(tensor.shape)
            state[tensor.key] = merged.astype(dtype)
        return state
    for tensor in plan:
        lam = (spec.lam if spec.kind == "scalar"
               else spec.table.lam_for(tensor.key))
        state[tensor.key] = tensor.evaluate(
            lam, out=np.empty(tensor.shape, dtype=dtype))
    return state


class LazyMergedModel:
    """Duck-typed model whose weights realize lazily from a shared plan.

    ``parameter_arrays()`` materializes the variant on first call (through
    :func:`materialize_variant`) and memoizes; until then the model costs
    nothing beyond its spec — which is what a λ-fleet replica inherits.
    Engines read those arrays in place, so :meth:`release` after building
    an engine drops only the model's reference — the engine keeps the one
    resident copy alive.
    """

    def __init__(self, config: TransformerConfig, plan: MergePlan,
                 spec: VariantSpec) -> None:
        self.config = config
        self.plan = plan
        self.spec = spec
        self._state: Optional["OrderedDict[str, np.ndarray]"] = None

    @property
    def materialized(self) -> bool:
        return self._state is not None

    def parameter_arrays(self) -> Dict[str, np.ndarray]:
        if self._state is None:
            self._state = materialize_variant(self.plan, self.spec)
        return dict(self._state)

    def release(self) -> None:
        """Drop the memoized weights (the plan can always re-realize them)."""
        self._state = None


# ---------------------------------------------------------------------------
# the variant-aware fleet
# ---------------------------------------------------------------------------


class LambdaFleetServer(FleetServer):
    """K merged-model variants behind one router and one plan.

    Parameters
    ----------
    plan:
        A :class:`~repro.core.merge_engine.MergePlan` (or a
        :class:`GeodesicMergeEngine`, whose plan is taken) for the
        (chip, instruct) pair every variant interpolates.
    config:
        The models' ``TransformerConfig`` (both endpoints share it).
    variants:
        The :class:`VariantSpec` family to serve; unique names required.
    replicas_per_variant:
        Engine replicas per variant (total replicas = K × this).
    default_variant:
        Where unrouted traffic goes; first variant when omitted.
        :meth:`promote` re-points it online.
    variant_of:
        Optional policy ``Request -> Optional[str]`` consulted for requests
        without an explicit ``Request.variant`` (tenant pinning, canary
        percentages, …); ``None`` return falls through to the default.
    draft_model / other kwargs:
        As in :class:`~repro.serve.fleet.FleetServer` (speculative decoding
        works per replica over the inherited draft).

    Routing resolves a request to a variant, then consistent-hashes within
    that variant's replica group — so per-variant session/prefix affinity
    matches a dedicated single-variant fleet, and the byte-parity suite
    holds per variant.
    """

    def __init__(self, plan, config: TransformerConfig,
                 variants: Sequence[VariantSpec], tokenizer=None,
                 replicas_per_variant: int = 1,
                 default_variant: Optional[str] = None,
                 variant_of: Optional[Callable[[Request], Optional[str]]] = None,
                 **kwargs) -> None:
        if isinstance(plan, GeodesicMergeEngine):
            plan = plan.plan
        specs = list(variants)
        if not specs:
            raise ValueError("a lambda fleet needs at least one variant")
        names = [spec.name for spec in specs]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate variant names in {names}")
        if replicas_per_variant < 1:
            raise ValueError(
                f"replicas_per_variant must be >= 1, got {replicas_per_variant}")
        # Everything _model_for / _route need must exist before the base
        # constructor forks the replicas.
        self._plan = plan
        self._model_config = config
        self.variant_specs: "OrderedDict[str, VariantSpec]" = OrderedDict(
            (spec.name, spec) for spec in specs)
        self._names = names
        self.replicas_per_variant = replicas_per_variant
        self.variant_of = variant_of
        if default_variant is None:
            default_variant = names[0]
        if default_variant not in self.variant_specs:
            raise ValueError(f"unknown default variant {default_variant!r}")
        self.default_variant = default_variant
        self._variant_rings = {
            name: HashRing(range(i * replicas_per_variant,
                                 (i + 1) * replicas_per_variant))
            for i, name in enumerate(names)}
        self._variant_of_request: Dict[str, str] = {}
        self._quality_sum: Dict[str, float] = {name: 0.0 for name in names}
        self._quality_count: Dict[str, int] = {name: 0 for name in names}
        super().__init__(model=None, tokenizer=tokenizer,
                         n_replicas=len(specs) * replicas_per_variant,
                         **kwargs)
        registry = self.obs.registry
        self._variant_finished = {
            name: registry.counter(f"serve.fleet.variant.{name}.finished")
            for name in names}
        self._promotions = registry.counter("serve.fleet.promotions")
        registry.gauge("serve.fleet.variants").set(len(names))

    # ------------------------------------------------------------------
    # per-replica models
    # ------------------------------------------------------------------
    def variant_of_replica(self, replica_id: int) -> str:
        """The variant a replica slot serves (fixed group layout)."""
        return self._names[replica_id // self.replicas_per_variant]

    def _model_for(self, replica_id: int) -> LazyMergedModel:
        """A not-yet-materialized variant over the parent's plan: the
        replica inherits it and realizes its own copy (the parent never
        materializes one)."""
        return LazyMergedModel(self._model_config, self._plan,
                               self.variant_specs[
                                   self.variant_of_replica(replica_id)])

    # ------------------------------------------------------------------
    # variant-aware routing
    # ------------------------------------------------------------------
    def resolve_variant(self, request: Request) -> str:
        """Explicit request variant > ``variant_of`` policy > default."""
        name = request.variant
        if name is None and self.variant_of is not None:
            name = self.variant_of(request)
        if name is None:
            name = self.default_variant
        if name not in self.variant_specs:
            raise KeyError(f"unknown variant {name!r}; "
                           f"choose from {self._names}")
        return name

    def _submit_request(self, request: Request) -> None:
        # Resolve at admission (and validate before accepting), so a
        # promotion between submit and dispatch cannot reroute a request
        # mid-flight.
        name = self.resolve_variant(request)
        super()._submit_request(request)
        self._variant_of_request[request.request_id] = name

    def _route(self, request: Request) -> int:
        name = self._variant_of_request.get(request.request_id)
        if name is None:  # e.g. a requeued request after a respawn
            name = self.resolve_variant(request)
            self._variant_of_request[request.request_id] = name
        return self._variant_rings[name].node_for(
            affinity_key(request, self.affinity_prefix_tokens))

    def _finish(self, completion) -> None:
        name = self._variant_of_request.pop(completion.request_id, None)
        if name is not None and completion.status == RequestStatus.FINISHED:
            self._variant_finished[name].inc()
        super()._finish(completion)

    def _expire_pending(self) -> None:
        super()._expire_pending()
        # Requests that left through the pending-queue side doors (expiry,
        # pending-cancel) never reach _finish; sweep their variant records.
        if len(self._variant_of_request) > len(self._requests):
            for request_id in list(self._variant_of_request):
                if request_id not in self._requests:
                    del self._variant_of_request[request_id]

    # ------------------------------------------------------------------
    # online promotion loop
    # ------------------------------------------------------------------
    def record_quality(self, variant: str, score: float) -> None:
        """Fold one judged-quality observation (ROUGE-L, a rating, …) into
        the variant's gauge; :meth:`promote` compares the running means."""
        if variant not in self.variant_specs:
            raise KeyError(f"unknown variant {variant!r}")
        self._quality_sum[variant] += float(score)
        self._quality_count[variant] += 1
        self.obs.registry.gauge(
            f"serve.fleet.variant.{variant}.quality").set(
                self._quality_sum[variant] / self._quality_count[variant])

    def quality_of(self, variant: str) -> Optional[float]:
        """Mean recorded quality, or ``None`` before any observation."""
        count = self._quality_count[variant]
        return self._quality_sum[variant] / count if count else None

    def promote(self, min_samples: int = 1) -> str:
        """Re-point the default variant at the measured winner.

        Considers every variant with at least ``min_samples`` quality
        observations; the highest mean wins, ties keep the incumbent
        default when it is among the leaders and otherwise fall to variant
        declaration order (deterministic across runs).  Returns the new
        default's name.  In-flight requests keep their admitted variant —
        promotion only redirects future unpinned traffic.
        """
        scored = [(name, self.quality_of(name)) for name in self._names
                  if self._quality_count[name] >= min_samples]
        if not scored:
            raise ValueError(
                f"no variant has {min_samples}+ quality samples to promote on")
        best_score = max(score for _, score in scored)
        leaders = [name for name, score in scored if score == best_score]
        winner = (self.default_variant if self.default_variant in leaders
                  else leaders[0])
        if winner != self.default_variant:
            self.default_variant = winner
            self._promotions.inc()
        return winner

    # ------------------------------------------------------------------
    # reporting
    # ------------------------------------------------------------------
    def variant_report(self) -> Dict[str, Dict[str, object]]:
        """Per-variant operational view: spec, replica group, live inflight,
        finished count, and the promotion loop's quality state."""
        report: Dict[str, Dict[str, object]] = {}
        for i, name in enumerate(self._names):
            group = list(range(i * self.replicas_per_variant,
                               (i + 1) * self.replicas_per_variant))
            report[name] = {
                "spec": self.variant_specs[name].describe(),
                "replicas": group,
                "alive": sum(1 for rid in group
                             if self._supervisor.alive(rid)),
                "inflight": sum(len(self._replicas[rid].inflight)
                                for rid in group),
                "finished": int(self._variant_finished[name].value),
                "quality": self.quality_of(name),
                "quality_samples": self._quality_count[name],
                "is_default": name == self.default_variant,
            }
        return report

    def plan_bytes(self) -> int:
        """Resident bytes of the plan, held once by the parent (the
        memory-gate number: all K variants ride this one footprint)."""
        return self._plan.nbytes
