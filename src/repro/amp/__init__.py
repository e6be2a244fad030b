"""Mixed precision: dynamic loss scaling and model dtype casting."""

from repro.amp.autocast import cast_model
from repro.amp.scaler import DynamicLossScaler, grads_have_overflow

__all__ = ["cast_model", "DynamicLossScaler", "grads_have_overflow"]
