"""Training stack: optimizers, schedules, clipping, trainer."""

from repro.train.clip import clip_grad_norm, global_grad_norm
from repro.train.metrics import LatencyStats, MetricsLogger, read_jsonl
from repro.train.optim import SGD, Adam, AdamW, Optimizer
from repro.train.schedules import ConstantLR, LRSchedule, WarmupCosineLR
from repro.train.trainer import StepResult, Trainer

__all__ = [
    "LatencyStats",
    "MetricsLogger",
    "read_jsonl",
    "clip_grad_norm",
    "global_grad_norm",
    "SGD",
    "Adam",
    "AdamW",
    "Optimizer",
    "ConstantLR",
    "LRSchedule",
    "WarmupCosineLR",
    "StepResult",
    "Trainer",
]
