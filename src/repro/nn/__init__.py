"""From-scratch neural substrate: autograd, transformer LM, LoRA, training.

This package replaces the PyTorch/HuggingFace stack the paper's experiments
assume.  See DESIGN.md §1 for the substitution rationale.
"""

from .._lazy import lazy_exports

# Lazy: inference code imports the transformer without the trainer,
# optimizers and LoRA.
__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    ".tensor": ("Tensor", "no_grad", "cat", "stack", "where"),
    ".module": ("Module", "ModuleList", "Parameter"),
    ".layers": ("Dropout", "Embedding", "FeedForward", "LayerNorm", "Linear",
                "RMSNorm"),
    ".attention": ("MultiHeadSelfAttention", "RopeTable", "causal_mask"),
    ".kernels": ("attention_nograd", "fused_attention", "fused_attention_qkv",
                 "fused_attn_block", "fused_cross_entropy", "fused_gateup",
                 "fused_linear", "fused_lm_loss", "fused_mlp_block",
                 "fused_rms_norm", "fused_swiglu", "kernel_observability",
                 "kernel_workspace", "set_kernel_observability"),
    ".transformer": ("TransformerConfig", "TransformerLM", "preset_config"),
    ".tokenizer": ("BPETokenizer", "WordTokenizer"),
    ".optim": ("SGD", "Adam", "AdamW", "CosineSchedule", "clip_grad_norm"),
    ".trainer": ("IGNORE_INDEX", "TrainConfig", "Trainer", "TrainResult",
                 "pad_batch"),
    ".generation": ("continuation_logprob", "generate", "generate_text",
                    "sequence_logprob"),
    ".sampling": ("filter_top_k", "filter_top_p", "sample_next", "softmax"),
    ".lora": ("LoRALinear", "apply_lora", "lora_parameters", "merge_lora"),
    ".checkpoint": ("checkpoint_exists", "load_model", "load_state_dict",
                    "save_model", "save_state_dict"),
    ".infer": ("InferenceEngine", "generate_text_fast"),
})
