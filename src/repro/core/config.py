"""Configuration objects shared by the EDEN core steps."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np


@dataclass(frozen=True)
class AccuracyTarget:
    """The user-specified accuracy requirement EDEN must strictly meet.

    The paper's headline results use "within 1% of the original DNN", i.e. a
    maximum relative accuracy drop of 0.01; it also evaluates a zero-drop
    target (Section 7.1).  ``max_relative_drop`` is relative to the baseline
    accuracy measured on reliable DRAM; ``min_absolute`` optionally sets an
    absolute floor as well.
    """

    max_relative_drop: float = 0.01
    min_absolute: Optional[float] = None

    def __post_init__(self) -> None:
        if self.max_relative_drop < 0:
            raise ValueError("max_relative_drop must be non-negative")
        if self.min_absolute is not None and not 0.0 <= self.min_absolute <= 1.0:
            raise ValueError("min_absolute must be in [0, 1]")

    def threshold(self, baseline_accuracy: float) -> float:
        """The lowest acceptable accuracy given the baseline accuracy."""
        relative_floor = baseline_accuracy * (1.0 - self.max_relative_drop)
        if self.min_absolute is None:
            return relative_floor
        return max(relative_floor, self.min_absolute)

    def is_met(self, accuracy: float, baseline_accuracy: float) -> bool:
        return accuracy >= self.threshold(baseline_accuracy) - 1e-12

    @classmethod
    def within_one_percent(cls) -> "AccuracyTarget":
        return cls(max_relative_drop=0.01)

    @classmethod
    def no_degradation(cls) -> "AccuracyTarget":
        return cls(max_relative_drop=0.0)


@dataclass
class EdenConfig:
    """Knobs of the overall EDEN flow.

    The defaults follow the paper: the curricular ramp raises the injected
    error rate every 2 epochs, 10-15 retraining epochs are enough to boost
    tolerable BERs 5-10x, coarse characterization does a logarithmic search
    over BER, and fine-grained characterization subsamples the validation set
    (10%) and sweeps per-tensor BERs in small steps.
    """

    # boosting / curricular retraining
    retrain_epochs: int = 10
    ramp_every_epochs: int = 2
    retrain_learning_rate: Optional[float] = None   # None: model default
    # characterization
    ber_search_low: float = 1e-5
    ber_search_high: float = 0.25
    ber_search_steps: int = 9          # logarithmic grid resolution
    evaluation_repeats: int = 2        # injection is stochastic; average a few runs
    fine_validation_fraction: float = 0.5
    fine_step_factor: float = 1.5      # multiplicative per-tensor BER increase
    fine_max_rounds: int = 6
    # outer loop
    max_outer_iterations: int = 2
    # numeric precision of the DNN stored in approximate DRAM
    bits: int = 32
    seed: int = 0
    # worker processes for the characterization / boosting evaluations
    # (> 1 routes through a repro.parallel.PlanPool; results are
    # bit-identical to the serial run)
    processes: int = 0

    def __post_init__(self) -> None:
        if self.retrain_epochs < 0:
            raise ValueError("retrain_epochs must be non-negative")
        if self.ramp_every_epochs <= 0:
            raise ValueError("ramp_every_epochs must be positive")
        if not 0 < self.ber_search_low < self.ber_search_high <= 0.5:
            raise ValueError("require 0 < ber_search_low < ber_search_high <= 0.5")
        if self.ber_search_steps < 2:
            raise ValueError("ber_search_steps must be at least 2")
        if self.evaluation_repeats <= 0:
            raise ValueError("evaluation_repeats must be positive")
        if not 0 < self.fine_validation_fraction <= 1.0:
            raise ValueError("fine_validation_fraction must be in (0, 1]")
        if self.fine_step_factor <= 1.0:
            raise ValueError("fine_step_factor must exceed 1.0")
        if self.bits not in (4, 8, 16, 32):
            raise ValueError("bits must be one of 4, 8, 16, 32")
        if self.processes < 0:
            raise ValueError("processes must be non-negative")

    def ber_grid(self) -> Sequence[float]:
        """Logarithmically spaced BER candidates for the coarse search."""
        return list(
            np.logspace(
                np.log10(self.ber_search_low),
                np.log10(self.ber_search_high),
                self.ber_search_steps,
            )
        )
