"""Implausible-value correction (paper Sections 3.2, 3.5 and 5).

A single bit flip in the exponent of an FP32 weight or IFM can turn a value
like 0.3 into 1e8; that value then propagates through the network and causes
*accuracy collapse*.  EDEN's fix is a bounding check on every load: values
outside per-data-type thresholds learned during baseline training are treated
as corrupted and replaced — by zero in the default mechanism (the paper also
evaluates saturation to the nearest threshold and finds it consistently
worse).  The hardware realization is a one-cycle bounding logic in the memory
controller (Section 5); here the same check is the ``corrector`` hook the
injectors apply after flipping bits.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

import numpy as np

from repro.nn.network import Network
from repro.nn.tensor import TensorSpec


class CorrectionMode(enum.Enum):
    """What to do with a value detected as implausible."""

    ZERO = "zero"          # paper default: zero the value
    SATURATE = "saturate"  # evaluated alternative: clamp to the threshold
    OFF = "off"            # no correction (ablation)


@dataclass
class ThresholdStore:
    """Per-data-type plausible value ranges learned from the baseline DNN.

    The thresholds are computed on reliable DRAM (nominal parameters) as the
    observed min/max of each weight tensor and each IFM, widened by a safety
    margin; most weights of the paper's networks live in a small range such as
    [-5, 5], so an exponent bit flip lands far outside it.
    """

    margin: float = 1.5
    bounds: Dict[str, Tuple[float, float]] = field(default_factory=dict)

    def observe(self, name: str, values: np.ndarray) -> None:
        """Incorporate observed values of one data type into its bounds."""
        values = np.asarray(values)
        finite = values[np.isfinite(values)]
        if finite.size == 0:
            return
        low = float(finite.min())
        high = float(finite.max())
        if name in self.bounds:
            prev_low, prev_high = self.bounds[name]
            low, high = min(low, prev_low), max(high, prev_high)
        self.bounds[name] = (low, high)

    def bounds_for(self, name: str) -> Optional[Tuple[float, float]]:
        raw = self.bounds.get(name)
        if raw is None:
            return None
        low, high = raw
        center = 0.5 * (low + high)
        half_width = 0.5 * (high - low)
        half_width = max(half_width, 1e-6) * self.margin
        return center - half_width, center + half_width

    @classmethod
    def from_network(cls, network: Network, dataset_inputs: Optional[np.ndarray] = None,
                     margin: float = 1.5, batch_size: int = 32) -> "ThresholdStore":
        """Learn thresholds from a trained network (and optionally sample inputs).

        Weight bounds come directly from the parameters; IFM bounds come from
        running a few batches of real inputs through the network on reliable
        memory while recording every load the fault-injection hook would see.
        """
        store = cls(margin=margin)
        for param in network.parameters():
            store.observe(param.name, param.data)

        if dataset_inputs is not None and len(dataset_inputs):
            with network.loading(_BoundsRecorder(store)):
                network.forward(dataset_inputs[:batch_size])
        return store


class _BoundsRecorder:
    """Injector stand-in that records observed value ranges per data type."""

    def __init__(self, store: ThresholdStore):
        self.store = store

    def apply(self, array: np.ndarray, spec: TensorSpec) -> np.ndarray:
        self.store.observe(spec.name, array)
        return array


class ImplausibleValueCorrector:
    """The bounding logic: detect and correct out-of-range loaded values.

    Instances are callable with ``(array, spec)`` so they plug directly into
    the ``corrector`` slot of the DRAM injectors.  Correction statistics are
    kept so experiments can report how many values were caught.
    """

    def __init__(self, thresholds: ThresholdStore,
                 mode: CorrectionMode = CorrectionMode.ZERO,
                 default_bound: float = 64.0):
        self.thresholds = thresholds
        self.mode = mode
        #: fallback symmetric bound for data types with no learned threshold
        self.default_bound = float(default_bound)
        self.stats = {"values_checked": 0, "values_corrected": 0}

    def reset_stats(self) -> None:
        self.stats = {"values_checked": 0, "values_corrected": 0}

    @property
    def correction_rate(self) -> float:
        checked = self.stats["values_checked"]
        return self.stats["values_corrected"] / checked if checked else 0.0

    def __call__(self, array: np.ndarray, spec: TensorSpec) -> np.ndarray:
        if self.mode is CorrectionMode.OFF:
            return array
        values = np.asarray(array, dtype=np.float32)
        bounds = self.thresholds.bounds_for(spec.name)
        if bounds is None:
            low, high = -self.default_bound, self.default_bound
        else:
            low, high = bounds
        implausible = ~np.isfinite(values) | (values < low) | (values > high)
        self.stats["values_checked"] += int(values.size)
        corrected_count = int(implausible.sum())
        if corrected_count == 0:
            return values
        self.stats["values_corrected"] += corrected_count
        corrected = values.copy()
        if self.mode is CorrectionMode.ZERO:
            corrected[implausible] = 0.0
        else:  # SATURATE
            finite = np.nan_to_num(values, nan=0.0, posinf=high, neginf=low)
            corrected = np.clip(finite, low, high).astype(np.float32)
        return corrected
