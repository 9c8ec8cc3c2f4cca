"""``fig8_sweep``: the paper's Fig. 8 pipeline, unmodified.

``repro.pipelines.experiment.run_fig8`` runs plan -> lambda sweep ->
generate -> ROUGE-L over the 90 OpenROAD eval items, on a ``ModelZoo``
whose cache directory holds random-init ``grande`` chipnemo/instruct
checkpoints written at set-up (one common base plus independent noise per
model, from the run's seed).  The pass calls it one lambda at a time, in
Fig. 8's order 0.0, 0.1, ..., 1.0, until the next call would overrun the
pass.  Each call gets a fresh zoo, so it loads the checkpoints and builds
the merge plan itself, and memory does not depend on how many lambdas a
pass reached: a shared zoo memo-caches every merged model it built.

``run_fig8`` has no streaming surface, so answer timings come from a
stopwatch around ``repro.nn.infer.generate_text_fast`` (answer start) and
``repro.nn.infer.sample_next`` (each token), installed on every pass; it
appends one timestamp per token.  Its wrapper costs about 0.24 us per
token (timed over a no-op ``sample_next``), against about 400 us per
generated token, so untraced passes carry under 0.1% of added work.
"""

from __future__ import annotations

import itertools
import math
import os
import shutil
import time
from typing import List

from . import inputs
from .common import (OUT_DIR, PassResult, Req, Workload, check_client_limits,
                     log, peak_rss_mb)
from .trace import Patches

LAMS = [round(0.1 * i, 1) for i in range(11)]


def write_checkpoints(directory, seed: int) -> None:
    """Tokenizer plus the chipnemo/instruct pair the zoo will load."""
    from repro.data.vocab import build_tokenizer
    from repro.nn.checkpoint import save_model
    from repro.nn.transformer import TransformerLM, preset_config
    from repro.pipelines.model_zoo import RECIPE_VERSION

    directory.mkdir(parents=True)
    tokenizer = build_tokenizer()
    tokenizer.save(directory / f"tokenizer_{RECIPE_VERSION}.json")
    config = preset_config("grande", tokenizer.vocab_size, seed=seed)
    base = TransformerLM(config).state_dict()
    for variant, state in zip(("chipnemo", "instruct"),
                              inputs.merge_pair(seed, base)):
        model = TransformerLM(config)
        model.load_state_dict(state)
        save_model(model, directory / f"grande_{variant}_{RECIPE_VERSION}",
                   metadata={"family": "grande", "variant": variant})


class _Stopwatch:
    """Answer start and token times of every ``generate_text_fast`` call."""

    def __init__(self) -> None:
        self.reqs: List[Req] = []
        self._patches = Patches()

    def __enter__(self) -> "_Stopwatch":
        clock = time.perf_counter
        reqs = self.reqs

        def answers(original):
            def generate_text_fast(engine, tokenizer, prompt, *args, **kw):
                req = Req(due=clock(), expect_tokens=0)
                reqs.append(req)
                text = original(engine, tokenizer, prompt, *args, **kw)
                if req.tokens and req.tokens[-1] == tokenizer.eos_id:
                    req.tokens.pop()   # eos ends the answer; not an output
                    req.times.pop()
                req.ok = True
                return text
            return generate_text_fast

        def tokens(original):
            def sample_next(*args, **kw):
                token = original(*args, **kw)
                req = reqs[-1]
                req.times.append(clock())
                req.tokens.append(token)
                return token
            return sample_next

        self._patches.install("repro.nn.infer", "generate_text_fast", answers)
        self._patches.install("repro.nn.infer", "sample_next", tokens)
        return self

    def __exit__(self, *exc) -> None:
        self._patches.restore()


class Fig8Sweep(Workload):
    name = "fig8_sweep"
    _instances = itertools.count()

    def setup(self) -> None:
        from repro.pipelines.experiment import run_fig8
        from repro.pipelines.model_zoo import ModelZoo

        self.dir = OUT_DIR / f"fig8-{os.getpid()}-{next(self._instances)}"
        write_checkpoints(self.dir, self.seed)
        self.max_items = 9 if self.scale == "smoke" else None
        self.scores: List[tuple] = []
        run_fig8(("grande",), [0.5], zoo=ModelZoo(cache_dir=self.dir),
                 max_items=9)

    def measure(self, seconds: float, tracer=None) -> PassResult:
        from repro.pipelines.experiment import run_fig8
        from repro.pipelines.model_zoo import ModelZoo

        clock = time.perf_counter
        first = len(self.scores)
        with _Stopwatch() as watch:
            start = clock()
            for lam in itertools.cycle(LAMS):
                began = clock()
                result = run_fig8(("grande",), [lam],
                                  zoo=ModelZoo(cache_dir=self.dir),
                                  max_items=self.max_items)
                self.scores.append((lam, result.scores["grande"][0]))
                now = clock()
                if now + (now - began) > start + seconds:
                    break
            end = clock()
        log("fig8_sweep: ROUGE-L " + ", ".join(
            f"{lam:.1f}:{score:.4f}" for lam, score in self.scores[first:]))
        reqs = watch.reqs
        return PassResult(
            reqs=reqs, elapsed_s=end - start,
            window_tokens=sum(len(r.tokens) for r in reqs),
            window_answers=len(reqs), rss_mb=peak_rss_mb(),
            problems=check_client_limits(1, 0), window=(start, end))

    def verify(self, results) -> List[str]:
        """ROUGE-L values are scores and repeat exactly per lambda; merged
        weights equal per-tensor ``geodesic_merge`` (to 1e-10 of each
        tensor's largest magnitude); and the first lambda's ROUGE-L on a
        9-item prefix is reproduced by the serving stack's exact decoding
        path."""
        import numpy as np
        from repro.core.geodesic import geodesic_merge
        from repro.data.openroad_qa import eval_triplets
        from repro.eval import LMAnswerer, run_openroad
        from repro.pipelines.experiment import run_fig8
        from repro.pipelines.model_zoo import ModelZoo

        problems: List[str] = []
        seen = {}
        for lam, score in self.scores:
            if not (math.isfinite(score) and 0.0 <= score <= 1.0):
                problems.append(f"ROUGE-L {score} at lambda {lam}")
            if seen.setdefault(lam, score) != score:
                problems.append(f"lambda {lam} scored {seen[lam]} then {score}")
        zoo = ModelZoo(cache_dir=self.dir)
        chip = zoo.get("grande", "chipnemo").state_dict()
        instruct = zoo.get("grande", "instruct").state_dict()
        for lam, merged in zip((0.3, 0.6),
                               zoo.merge_engine("grande").sweep([0.3, 0.6])):
            for key, value in merged.items():
                want = geodesic_merge(chip[key], instruct[key], lam)
                # rtol 1e-10 of the tensor's scale: elementwise relative
                # error is unbounded where the blend cancels to near zero.
                scale = float(np.abs(want).max())
                if not np.allclose(value, want, rtol=1e-10,
                                   atol=1e-10 * scale):
                    problems.append(f"merged {key} at lambda {lam} differs "
                                    "from geodesic_merge")
                    break
        lam = self.scores[0][0]
        fig8 = run_fig8(("grande",), [lam], zoo=zoo, max_items=9)
        served = run_openroad(
            LMAnswerer(zoo.merged("grande", "chipalign", lam=lam),
                       zoo.tokenizer, server=True),
            eval_triplets()[:9])
        if fig8.scores["grande"][0] != served.overall:
            problems.append("exact serving path does not reproduce ROUGE-L")
        return problems

    def close(self) -> None:
        if hasattr(self, "dir"):
            shutil.rmtree(self.dir, ignore_errors=True)
