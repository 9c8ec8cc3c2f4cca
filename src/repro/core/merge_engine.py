"""Incremental λ-sweep merge engine.

The naive model-level merge (:func:`repro.core.merge.merge_state_dicts`)
re-does the *whole* geodesic computation for every λ: float64 conversion,
two Frobenius norms, two sphere projections, the inner product, and the
arccos — per tensor, per λ.  But every one of those quantities is
**λ-independent**: only the two scalar coefficients

.. math::

   \\frac{\\sin(\\lambda\\Theta)}{\\sin\\Theta} \\quad\\text{and}\\quad
   \\frac{\\sin((1-\\lambda)\\Theta)}{\\sin\\Theta}

and the geometric-mean rescale :math:`\\mathrm{Norm}_{chip}^{\\lambda}
\\mathrm{Norm}_{instruct}^{1-\\lambda}` change with λ.

:class:`GeodesicMergeEngine` therefore factors the merge into two phases:

1. **plan** (once per model pair): record each tensor pair's norms and
   angle Θ (computed in float64) and stack the two raw tensors into one
   ``(2, n)`` row matrix per tensor (:class:`MergePlan`) — float32 when
   float32 holds both tensors exactly (float32 source models), else
   float64; the unit projections are never materialised, their
   ``1/norm`` factors fold into the scalars;
2. **evaluate** (per λ, per schedule, or per sweep): fold the rescale and
   ``1/norm`` into the two slerp coefficients and apply them with a single
   fused ``(1, 2) @ (2, n)`` BLAS multiply-add per tensor — no
   projections, no norms, no angles.

A whole sweep evaluates all L λ points tensor-at-a-time into one
``(L, n)`` row block per tensor.  With ``n_workers > 1``
:meth:`GeodesicMergeEngine.sweep` fans tensors out (keeping each one-pass
GEMM intact) to a fault-tolerant :class:`~repro.parallel.WorkerPool`
whose forked workers read the plan staged in
:func:`~repro.parallel.task_context` — the parent's own rows, inherited
across the fork, never copied or pickled.

Residency: the plan is the one resident copy of the pair.  Planning reads
any pair of state-dict mappings one tensor pair at a time — two models'
``parameter_arrays()``, or two open ``.npz`` checkpoints, which is how
:meth:`~repro.pipelines.model_zoo.ModelZoo.merge_engine` plans without
building either model.  Float32 rows
upcast to float64 exactly (:attr:`TensorPlan.stacked64`), so every GEMM
sees the same float64 operands whichever width the rows are stored at, and
for float32 models the plan costs 2x one model instead of 4x.  ``merge``
and ``sweep`` accept ``out`` buffers of any float dtype — e.g. a model's
own float32 parameters — and fill them one tensor at a time, so building
merged models never materialises a float64 state dict.

Numerical contract: evaluation performs the same float64 operations as
:func:`repro.core.geodesic.geodesic_merge` up to re-association of the
scalar rescale (``(s·c₁)·W`` instead of ``s·(c₁·W)``), so results agree
with the naive path to a relative tolerance of ~1e-15 — far inside the
1e-10 the tests pin.  All of :func:`~repro.core.merge.merge_state_dicts`,
:func:`~repro.core.layerwise.merge_state_dicts_layerwise`,
:func:`~repro.core.analysis.interpolation_path`, and
:meth:`~repro.pipelines.model_zoo.ModelZoo.merged` route through this
engine.
"""

from __future__ import annotations

import fnmatch
from collections import OrderedDict
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from ..obs import Observability
from .geodesic import ANTIPODAL_MARGIN, SMALL_ANGLE, frobenius_norm

StateDict = Dict[str, np.ndarray]

#: Tensor-pair categories a plan distinguishes (see ``geodesic_merge``).
KIND_SLERP = "slerp"          # regular geodesic interpolation
KIND_PARALLEL = "parallel"    # Θ < SMALL_ANGLE: normalised lerp fallback
KIND_LINEAR = "linear"        # exactly one zero tensor: linear blend
KIND_ZERO = "zero"            # both tensors zero
KIND_EXCLUDED = "excluded"    # exclude-pattern match: copy chip verbatim


class TensorPlan:
    """Precomputed, λ-independent geometry of one tensor pair.

    For mergeable kinds the two *raw* tensors are flattened and stacked
    into one ``(2, n)`` matrix — float32 when float32 represents both
    tensors exactly, float64 otherwise; the unit projections are never
    materialised — the ``1/norm`` factors fold into the per-λ scalar
    coefficients, so any λ evaluates as a single fused multiply-add:
    ``coeffs @ stacked64``.
    """

    __slots__ = ("key", "kind", "shape", "stacked", "norm_chip",
                 "norm_instruct", "theta", "sin_theta", "raw_chip")

    def __init__(self, key: str, kind: str, shape: Tuple[int, ...],
                 stacked: Optional[np.ndarray] = None,
                 norm_chip: float = 0.0, norm_instruct: float = 0.0,
                 theta: float = 0.0, sin_theta: float = 0.0,
                 raw_chip: Optional[np.ndarray] = None) -> None:
        self.key = key
        self.kind = kind
        self.shape = shape
        self.stacked = stacked
        self.norm_chip = norm_chip
        self.norm_instruct = norm_instruct
        self.theta = theta
        self.sin_theta = sin_theta
        self.raw_chip = raw_chip

    @property
    def size(self) -> int:
        return int(np.prod(self.shape)) if self.shape else 1

    @property
    def stacked64(self) -> Optional[np.ndarray]:
        """The stacked rows as float64.

        No-copy when the plan holds float64 rows.  Float32 rows (planned
        from float32 models) upcast exactly, one tensor at a time, so
        every evaluation sees the same float64 operands — and produces the
        same bits — however the rows were stored.
        """
        if self.stacked is None or self.stacked.dtype == np.float64:
            return self.stacked
        return np.asarray(self.stacked, dtype=np.float64)

    # ------------------------------------------------------------------
    def coefficients(self, lam: float) -> Tuple[float, float]:
        """The two λ-dependent scalars, with the geometric-mean rescale
        folded in (``KIND_SLERP`` / ``KIND_LINEAR`` only)."""
        if self.kind == KIND_LINEAR:
            return lam, 1.0 - lam
        scale = self.norm_chip ** lam * self.norm_instruct ** (1.0 - lam)
        coeff_chip = np.sin(lam * self.theta) / self.sin_theta
        coeff_instruct = np.sin((1.0 - lam) * self.theta) / self.sin_theta
        # stacked holds the raw tensors; the sphere projection's 1/norm
        # rides along in the scalars instead of a (2, n)-sized division.
        return (scale * coeff_chip / self.norm_chip,
                scale * coeff_instruct / self.norm_instruct)

    def evaluate(self, lam: float, out: Optional[np.ndarray] = None) -> np.ndarray:
        """Merged tensor at ``lam``; writes into ``out`` when provided.

        A non-float64 ``out`` (a float32 parameter) receives the float64
        result with the rounding of ``np.asarray(result, out.dtype)`` —
        the cast :meth:`~repro.nn.module.Module.load_state_dict` applies.
        """
        if self.kind in (KIND_SLERP, KIND_LINEAR):
            coeffs = np.asarray(self.coefficients(lam), dtype=np.float64)
            if (out is not None and out.dtype == np.float64
                    and out.flags.c_contiguous):
                np.dot(coeffs, self.stacked64, out=out.reshape(-1))
                return out
            result = np.dot(coeffs, self.stacked64).reshape(self.shape)
        elif self.kind == KIND_EXCLUDED:
            result = np.array(self.raw_chip, copy=True)
        elif self.kind == KIND_ZERO:
            result = np.zeros(self.shape, dtype=np.float64)
        else:
            result = self._evaluate_parallel(lam)
        if out is None:
            return result
        out[...] = result
        return out

    def _evaluate_parallel(self, lam: float) -> np.ndarray:
        """Θ ≈ 0 fallback: normalised linear interpolation, then rescale —
        the same math ``slerp`` + ``restore_norm`` use."""
        stacked = self.stacked64
        blended = np.dot((lam / self.norm_chip, (1.0 - lam) / self.norm_instruct),
                         stacked)
        norm = frobenius_norm(blended)
        scale = self.norm_chip ** lam * self.norm_instruct ** (1.0 - lam)
        if norm > 0:
            return (scale / norm * blended).reshape(self.shape)
        return (scale / self.norm_chip * stacked[0]).reshape(self.shape)

    def coefficient_matrix(self, lams: np.ndarray) -> np.ndarray:
        """The ``(L, 2)`` coefficient rows for a whole sweep at once
        (``KIND_SLERP`` / ``KIND_LINEAR`` only).

        Rows are computed λ-at-a-time with the scalar :meth:`coefficients`
        path rather than vectorised ufuncs: numpy's SIMD ``sin``/``pow``
        loops pick different code paths for different array lengths and
        drift by an ULP, which would make a sweep's bits depend on how its
        λ points were blocked across workers.  The scalars are O(L) against
        an O(L·n) GEMM, so the cost is noise.
        """
        lams = np.asarray(lams, dtype=np.float64)
        if self.kind == KIND_LINEAR:
            return np.stack([lams, 1.0 - lams], axis=1)
        return np.asarray([self.coefficients(float(lam)) for lam in lams],
                          dtype=np.float64)

    def evaluate_sweep(self, lams: np.ndarray) -> np.ndarray:
        """All sweep points as an ``(L, n)`` matrix.

        One ``(L, 2) @ (2, n)`` GEMM per tensor — the unit projections are
        streamed through memory *once* for the whole sweep instead of once
        per λ, which is what makes a sweep cheaper than L single merges on
        a bandwidth-bound machine.
        """
        n_points = len(lams)
        if self.kind == KIND_EXCLUDED:
            flat = np.asarray(self.raw_chip, dtype=np.float64).reshape(-1)
            return np.tile(flat, (n_points, 1))
        if self.kind == KIND_ZERO:
            return np.zeros((n_points, self.size), dtype=np.float64)
        if self.kind == KIND_PARALLEL:
            return np.stack([self._evaluate_parallel(float(lam)).reshape(-1)
                             for lam in lams])
        return np.dot(self.coefficient_matrix(lams), self.stacked64)


class MergePlan:
    """The λ-independent half of a ChipAlign merge, reusable for any λ."""

    def __init__(self, tensors: "OrderedDict[str, TensorPlan]") -> None:
        self.tensors = tensors

    def __len__(self) -> int:
        return len(self.tensors)

    def __iter__(self) -> Iterator[TensorPlan]:
        return iter(self.tensors.values())

    @property
    def keys(self) -> List[str]:
        return list(self.tensors)

    @property
    def total_params(self) -> int:
        return sum(plan.size for plan in self)

    def summary(self) -> Dict[str, float]:
        """Plan composition + angle statistics (diagnostics / logging)."""
        angles = [p.theta for p in self if p.kind in (KIND_SLERP, KIND_PARALLEL)]
        kinds: Dict[str, int] = {}
        for plan in self:
            kinds[plan.kind] = kinds.get(plan.kind, 0) + 1
        return {
            "n_tensors": float(len(self)),
            "total_params": float(self.total_params),
            "angle_mean": float(np.mean(angles)) if angles else 0.0,
            "angle_max": float(np.max(angles)) if angles else 0.0,
            **{f"n_{kind}": float(count) for kind, count in sorted(kinds.items())},
        }

    @property
    def nbytes(self) -> int:
        """Resident bytes of the plan's arrays: the stacked rows plus the
        excluded tensors' raw copies."""
        return sum(array.nbytes for plan in self
                   for array in (plan.stacked, plan.raw_chip)
                   if array is not None)


def _plan_tensor(key: str, chip: np.ndarray, instruct: np.ndarray) -> TensorPlan:
    """Classify one same-shape tensor pair and precompute its geometry.

    Copies the pair into its ``(2, n)`` stacked matrix — float32 when
    float32 represents both tensors exactly, since float32 → float64 is
    exact, otherwise float64 — and takes the norms and the angle from BLAS
    dot products on the float64 rows (one transient tensor pair, no
    unit-tensor copies), so planning costs *less* than one naive merge.
    """
    shape = chip.shape
    narrow = (np.can_cast(chip.dtype, np.float32)
              and np.can_cast(instruct.dtype, np.float32))
    stacked = np.empty((2, chip.size),
                       dtype=np.float32 if narrow else np.float64)
    stacked[0] = chip.reshape(-1)
    stacked[1] = instruct.reshape(-1)
    rows = np.asarray(stacked, dtype=np.float64)
    norm_chip = float(np.sqrt(np.dot(rows[0], rows[0])))
    norm_instruct = float(np.sqrt(np.dot(rows[1], rows[1])))
    if norm_chip == 0.0 and norm_instruct == 0.0:
        return TensorPlan(key, KIND_ZERO, shape)
    if norm_chip == 0.0 or norm_instruct == 0.0:
        # One-zero fallback: the pragmatic linear blend (see geodesic_merge's
        # docstring — this is NOT the continuous extension of the formula).
        return TensorPlan(key, KIND_LINEAR, shape, stacked=stacked)
    cosine = float(np.dot(rows[0], rows[1])) / (norm_chip * norm_instruct)
    theta = float(np.arccos(np.clip(cosine, -1.0, 1.0)))
    if np.pi - theta < ANTIPODAL_MARGIN:
        raise ValueError(
            f"tensors {key!r} are (numerically) antipodal on the sphere; "
            "the geodesic between them is not unique")
    if theta < SMALL_ANGLE:
        return TensorPlan(key, KIND_PARALLEL, shape, stacked=stacked,
                          norm_chip=norm_chip, norm_instruct=norm_instruct,
                          theta=theta)
    return TensorPlan(key, KIND_SLERP, shape, stacked=stacked,
                      norm_chip=norm_chip, norm_instruct=norm_instruct,
                      theta=theta, sin_theta=float(np.sin(theta)))


# ---------------------------------------------------------------------------
# multiprocessing fan-out: forked workers read the parent's plan, staged in
# the task context, and evaluate whole tensors.
# ---------------------------------------------------------------------------


def _sweep_tensor_key(key: str) -> np.ndarray:
    """Evaluate one tensor's full λ sweep against the inherited plan.

    The plan and the sweep's λ points ride the fork-inherited task context
    rather than each task's payload.  Parallelising over *tensors* (not λ
    blocks) keeps every ``(L, n)`` GEMM identical to the serial call — BLAS
    picks different kernels for different row counts (a lone λ row goes
    through GEMV and drifts by an ULP), so splitting L would break
    bit-parity.
    """
    from ..parallel import get_task_context

    ctx = get_task_context()
    lams = np.asarray(ctx["sweep_lams"], dtype=np.float64)
    return ctx["sweep_plan"].tensors[key].evaluate_sweep(lams)


class GeodesicMergeEngine:
    """Reusable ChipAlign merger for one (chip, instruct) model pair.

    Parameters
    ----------
    chip, instruct:
        Conformable state-dict mappings (same keys, same shapes).  Each
        tensor pair is read once, in ``chip``'s key order, and copied into
        the plan's rows, so any mapping serves: a model's
        :meth:`~repro.nn.module.Module.parameter_arrays`, or an open
        ``.npz`` archive (:class:`numpy.lib.npyio.NpzFile`), which reads
        one tensor pair at a time off disk.
    exclude:
        fnmatch patterns; matching tensors are copied from ``chip`` unmerged
        (mirrors :func:`~repro.core.merge.merge_state_dicts`).
    n_workers:
        Default process fan-out for :meth:`sweep`.  ``None``/``1`` keeps
        everything in-process; >1 forks a worker pool that evaluates
        tensors against the inherited plan (worth it only for large state
        dicts — results are pickled back).  Ignored where ``fork`` is
        unavailable.
    obs:
        Shared :class:`~repro.obs.Observability`; planning and every
        evaluation record ``merge.*`` spans and counters (tensors and
        bytes processed) into it.  Private when omitted.

    Notes
    -----
    The plan holds one copy of both models' weights at their own width:
    2× one model's bytes for a float32 pair (float64 only where float32
    cannot hold the sources).  That is the space cost of making every
    subsequent λ evaluation a single fused multiply-add per tensor; the
    float64 operands of that multiply-add exist one tensor at a time.
    """

    def __init__(self, chip: StateDict, instruct: StateDict,
                 exclude: Sequence[str] = (),
                 n_workers: Optional[int] = None,
                 obs: Optional[Observability] = None) -> None:
        from .merge import validate_keys

        validate_keys(chip, instruct)
        self.exclude = tuple(exclude)
        self.n_workers = n_workers
        self.obs = obs if obs is not None else Observability()
        tensors: "OrderedDict[str, TensorPlan]" = OrderedDict()
        with self.obs.span("merge.plan", tensors=len(chip)):
            for key in chip:
                w_chip = np.asarray(chip[key])
                w_instruct = np.asarray(instruct[key])
                if w_chip.shape != w_instruct.shape:
                    raise ValueError(f"tensor {key!r} has mismatched shapes: "
                                     f"{w_chip.shape} vs {w_instruct.shape}")
                if any(fnmatch.fnmatch(key, pattern) for pattern in self.exclude):
                    tensors[key] = TensorPlan(key, KIND_EXCLUDED, w_chip.shape,
                                              raw_chip=np.array(w_chip, copy=True))
                else:
                    tensors[key] = _plan_tensor(key, w_chip, w_instruct)
        self.plan = MergePlan(tensors)
        registry = self.obs.registry
        registry.counter("merge.plans").inc()
        registry.counter("merge.tensors_planned").inc(len(tensors))
        registry.counter("merge.params_planned").inc(self.plan.total_params)
        #: Bytes one λ evaluation streams: the (2, n) float64 row blocks.
        self._eval_bytes = self.plan.total_params * 2 * 8

    def _account_evaluations(self, n_points: int) -> None:
        """Counter bookkeeping for ``n_points`` λ evaluations."""
        registry = self.obs.registry
        registry.counter("merge.evaluations").inc(n_points)
        registry.counter("merge.tensors_merged").inc(n_points * len(self.plan))
        registry.counter("merge.bytes_processed").inc(
            n_points * self._eval_bytes)

    # ------------------------------------------------------------------
    @classmethod
    def from_models(cls, chip_model, instruct_model,
                    **kwargs) -> "GeodesicMergeEngine":
        """Build an engine from two same-architecture models.

        Plans straight from the models' parameter arrays — planning copies
        each pair into its own rows, so no ``state_dict()`` copy is taken.
        """
        if chip_model.config != instruct_model.config:
            raise ValueError(
                "models must share an architecture: "
                f"{chip_model.config} vs {instruct_model.config}")
        return cls(chip_model.parameter_arrays(),
                   instruct_model.parameter_arrays(), **kwargs)

    @staticmethod
    def _check_lam(lam: float) -> float:
        lam = float(lam)
        if not 0.0 <= lam <= 1.0:
            raise ValueError(f"lambda must be in [0, 1], got {lam}")
        return lam

    def new_buffers(self) -> "OrderedDict[str, np.ndarray]":
        """Preallocated float64 output buffers, one per merged tensor."""
        return OrderedDict((plan.key, np.empty(plan.shape, dtype=np.float64))
                           for plan in self.plan)

    # ------------------------------------------------------------------
    def merge(self, lam: float,
              out: Optional["OrderedDict[str, np.ndarray]"] = None,
              ) -> "OrderedDict[str, np.ndarray]":
        """Merged state dict at one λ (coefficient math + fused scale-add
        only).  Pass ``out`` (from :meth:`new_buffers`, or a model's own
        parameter arrays) to write in place, one tensor at a time."""
        lam = self._check_lam(lam)
        merged: "OrderedDict[str, np.ndarray]" = OrderedDict()
        with self.obs.span("merge.evaluate", lam=lam):
            for plan in self.plan:
                merged[plan.key] = plan.evaluate(
                    lam, out=None if out is None else out[plan.key])
        self._account_evaluations(1)
        return merged

    def merge_layerwise(self, schedule,
                        out: Optional["OrderedDict[str, np.ndarray]"] = None,
                        ) -> "OrderedDict[str, np.ndarray]":
        """Merged state dict under a per-layer λ schedule
        (:class:`~repro.core.layerwise.LambdaSchedule`)."""
        merged: "OrderedDict[str, np.ndarray]" = OrderedDict()
        with self.obs.span("merge.evaluate_layerwise"):
            for plan in self.plan:
                lam = self._check_lam(schedule.lam_for(plan.key))
                merged[plan.key] = plan.evaluate(
                    lam, out=None if out is None else out[plan.key])
        self._account_evaluations(1)
        return merged

    # ------------------------------------------------------------------
    def sweep(self, lams: Sequence[float],
              n_workers: Optional[int] = None,
              out: Optional[Sequence["OrderedDict[str, np.ndarray]"]] = None,
              ) -> List["OrderedDict[str, np.ndarray]"]:
        """Merged state dicts for every λ in ``lams``.

        Each tensor's whole sweep lands in one ``(L, n)`` row block; the
        returned dicts hold row views into those per-tensor results (no
        per-λ copies).  Pass ``out`` — one buffer dict per λ, e.g. the
        parameter arrays of L models — to have each block written into
        them as soon as it is evaluated and then dropped: the sweep is
        then never resident beyond one tensor's rows, and ``out`` is
        returned.  With ``n_workers > 1`` tensors are evaluated by a
        worker pool against the inherited plan; results are bit-identical
        to the serial path.
        """
        from ..parallel import effective_workers

        lam_arr = np.asarray([self._check_lam(lam) for lam in lams],
                             dtype=np.float64)
        if out is not None and len(out) != len(lam_arr):
            raise ValueError(f"out holds {len(out)} buffer sets for "
                             f"{len(lam_arr)} lambda points")
        workers = effective_workers(
            self.n_workers if n_workers is None else n_workers)
        rows: Dict[str, np.ndarray] = {}
        with self.obs.span("merge.sweep", points=len(lam_arr),
                           workers=workers):
            if workers > 1 and len(self.plan) > 1:
                blocks = self._sweep_parallel(lam_arr, workers)
            else:
                blocks = ((plan.key, plan.evaluate_sweep(lam_arr))
                          for plan in self.plan)
            for key, block in blocks:
                if out is None:
                    rows[key] = block
                    continue
                shape = self.plan.tensors[key].shape
                for buffers, row in zip(out, block):
                    buffers[key][...] = row.reshape(shape)
        self._account_evaluations(len(lam_arr))
        if out is not None:
            return list(out)
        return [OrderedDict((plan.key, rows[plan.key][index].reshape(plan.shape))
                            for plan in self.plan)
                for index in range(len(lam_arr))]

    def _sweep_parallel(self, lam_arr: np.ndarray, workers: int,
                        ) -> Iterator[Tuple[str, np.ndarray]]:
        """Fan tensors out to a pool evaluating against the inherited plan,
        yielding ``(key, rows)`` in plan order as they arrive.

        Each worker computes whole ``(L, n)`` row blocks — the same GEMM
        the serial path runs — so results are bit-identical however the
        tensors land on workers (see :func:`_sweep_tensor_key`).
        """
        from ..parallel import WorkerPool, task_context

        keys = self.plan.keys
        with task_context(sweep_plan=self.plan,
                          sweep_lams=tuple(float(lam) for lam in lam_arr)):
            with WorkerPool(min(workers, len(keys)), obs=self.obs) as pool:
                done = 0
                for _, parts in pool.imap_chunked(_sweep_tensor_key, keys):
                    for block in parts:
                        yield keys[done], block
                        done += 1
