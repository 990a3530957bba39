"""Parameter sweep utilities shared by figures, examples and benchmarks.

The injection sweeps are thin wrappers over
:class:`repro.analysis.runner.ExperimentRunner`, which owns the shared
install/reseed/evaluate/restore loop; only the operating-point constructors
live here.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

from repro.analysis.runner import ExperimentRunner
from repro.dram.device import ApproximateDram, DramOperatingPoint
from repro.dram.error_models import ErrorModel
from repro.engine.session import ReadSemantics
from repro.nn.datasets import Dataset
from repro.nn.network import Network


def voltage_sweep_points(device: ApproximateDram,
                         voltages: Sequence[float]) -> List[DramOperatingPoint]:
    """Operating points at each supply voltage (nominal timing)."""
    return [
        DramOperatingPoint.from_reductions(
            delta_vdd=device.nominal_vdd - vdd,
            nominal_vdd=device.nominal_vdd, nominal_timing=device.nominal_timing,
        )
        for vdd in voltages
    ]


def trcd_sweep(device: ApproximateDram,
               trcd_values_ns: Sequence[float]) -> List[DramOperatingPoint]:
    """Operating points at each tRCD (nominal voltage)."""
    return [
        DramOperatingPoint.from_reductions(
            delta_trcd_ns=device.nominal_timing.trcd_ns - trcd,
            nominal_vdd=device.nominal_vdd, nominal_timing=device.nominal_timing,
        )
        for trcd in trcd_values_ns
    ]


def ber_sweep(network: Network, dataset: Dataset, error_model: ErrorModel,
              bers: Sequence[float], bits: int = 32, corrector=None,
              repeats: int = 1, metric: str = "accuracy",
              seed: int = 0, processes: int = 0,
              semantics: ReadSemantics = ReadSemantics.PER_READ,
              ) -> Dict[float, float]:
    """Accuracy of ``network`` at each bit error rate (the Figure 8/10 x-axis).

    ``processes > 1`` fans the (independent, independently-seeded) sweep
    points out over a process pool; results are identical to the serial run.
    The pool lives only for this call — callers sweeping repeatedly in
    parallel should hold an :class:`ExperimentRunner`, which caches its pool
    across sweeps.  ``semantics`` defaults to per-read (the historical,
    bit-exact results); static-store models the paper's static weight
    storage and is faster.
    """
    with ExperimentRunner(network, dataset, metric=metric, seed=seed,
                          repeats=repeats, processes=processes,
                          semantics=semantics) as runner:
        return runner.ber_sweep(error_model, bers, bits=bits, corrector=corrector)


def accuracy_on_device(network: Network, dataset: Dataset, device: ApproximateDram,
                       op_points: Sequence[DramOperatingPoint], bits: int = 32,
                       corrector=None, metric: str = "accuracy", seed: int = 0,
                       processes: int = 0,
                       semantics: ReadSemantics = ReadSemantics.PER_READ,
                       ) -> Dict[DramOperatingPoint, float]:
    """Accuracy of ``network`` when its tensors are read from ``device``.

    Used for the real-DRAM experiments (Figures 7 and 9): every weight/IFM
    load goes through the behavioural device at the given operating point
    (``semantics`` and ``processes`` as in :func:`ber_sweep` — operating
    points fan out over the shared-memory worker pool with bit-identical
    results).
    """
    with ExperimentRunner(network, dataset, metric=metric, seed=seed,
                          processes=processes, semantics=semantics) as runner:
        return runner.device_sweep(device, op_points, bits=bits,
                                   corrector=corrector)
