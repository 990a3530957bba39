"""Curricular retraining: boosting a DNN's error tolerance (paper Section 3.2).

The key idea: injecting the *full* target error rate from the first retraining
epoch occasionally diverges ("accuracy collapse"), so EDEN ramps the injected
bit error rate from 0 up to the target in steps — the paper increases the rate
every two epochs and observes good convergence.  Errors are injected only in
the forward pass (the backward pass uses reliable DRAM), and implausible
values are corrected on every load.  10-15 epochs of this boost the tolerable
BER of the paper's networks by 5-10x.

Two entry points:

* :func:`curricular_retrain` — the EDEN mechanism;
* :func:`non_curricular_retrain` — the ablation that applies the full error
  rate immediately (used to reproduce Figure 10, right).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from repro.core.config import EdenConfig
from repro.core.correction import CorrectionMode, ImplausibleValueCorrector, ThresholdStore
from repro.dram.error_models import ErrorModel
from repro.dram.injection import BitErrorInjector
from repro.nn.datasets import Dataset
from repro.nn.models import get_spec
from repro.nn.network import Network
from repro.nn.training import Trainer, TrainingConfig


@dataclass
class BoostResult:
    """Outcome of one retraining run."""

    network: Network
    target_ber: float
    ber_schedule: List[float] = field(default_factory=list)
    epoch_scores: List[float] = field(default_factory=list)
    baseline_score: float = float("nan")
    boosted_score: float = float("nan")
    corrections: int = 0

    @property
    def score_recovered(self) -> float:
        """Accuracy improvement of the boosted DNN over the unboosted one,
        both evaluated under injection at the target BER."""
        return self.boosted_score - self.baseline_score


def ber_ramp_schedule(target_ber: float, epochs: int, ramp_every: int) -> List[float]:
    """Per-epoch injected BER: step-wise ramp from 0 to ``target_ber``.

    The first ``ramp_every`` epochs run error-free, then the rate increases
    every ``ramp_every`` epochs on a logarithmic ladder that reaches the
    target in the final step — matching the paper's "slowly increases the
    error rate ... in a step-wise fashion" description.
    """
    if target_ber < 0:
        raise ValueError("target_ber must be non-negative")
    if epochs <= 0:
        return []
    num_steps = max(1, (epochs - 1) // ramp_every)
    if target_ber == 0:
        return [0.0] * epochs
    # Logarithmic ladder over two decades up to the target.
    ladder = list(np.logspace(np.log10(target_ber) - 2.0, np.log10(target_ber), num_steps))
    schedule = []
    for epoch in range(epochs):
        step = epoch // ramp_every
        if step == 0:
            schedule.append(0.0)
        else:
            schedule.append(float(ladder[min(step - 1, len(ladder) - 1)]))
    # Guarantee the final epochs run at the full target rate.
    schedule[-1] = float(target_ber)
    if epochs >= 2:
        schedule[-2] = float(target_ber)
    return schedule


#: retraining uses a fine-tuning learning rate: a fraction of the model's
#: baseline rate.  Retraining under injected errors sees very noisy gradients;
#: the paper's networks are retrained from a converged checkpoint, which is a
#: fine-tuning regime rather than from-scratch training.
RETRAIN_LR_FRACTION = 0.1


def _training_config_for(network: Network, config: EdenConfig, epochs: int) -> TrainingConfig:
    """Reuse the model's default recipe at a fine-tuning learning rate."""
    try:
        spec = get_spec(network.name)
        base = spec.training_config(epochs=epochs)
    except KeyError:
        base = TrainingConfig(epochs=epochs)
    learning_rate = config.retrain_learning_rate
    if learning_rate is None:
        learning_rate = base.learning_rate * RETRAIN_LR_FRACTION
    return TrainingConfig(
        epochs=epochs,
        batch_size=base.batch_size,
        learning_rate=learning_rate,
        momentum=base.momentum,
        weight_decay=base.weight_decay,
        grad_clip=1.0,
        metric=base.metric,
        seed=config.seed,
    )


def _evaluate_under_injection(network: Network, dataset: Dataset, injector,
                              metric: str, repeats: int, seed: int,
                              processes: int = 0) -> float:
    """Mean validation score with the injector installed (stochastic injection).

    Routed through :class:`~repro.analysis.runner.ExperimentRunner` so that
    ``processes`` > 1 fans the independent repeat streams out over the
    shared-memory worker pool — bit-identical to the serial mean, because each
    repeat restarts the stream at ``seed + repeat`` either way.  A fresh
    runner per call keeps the worker snapshots in step with the network,
    which retraining mutates between the two evaluations.
    """
    # Late import: the runner lives in repro.analysis, above this layer.
    from repro.analysis.runner import ExperimentRunner

    with ExperimentRunner(network, dataset, metric=metric,
                          processes=processes) as runner:
        return runner.score(injector, repeats=repeats, seed=seed, stride=1)


def _retrain(network: Network, dataset: Dataset, error_model: ErrorModel,
             target_ber: float, config: EdenConfig, schedule: List[float],
             thresholds: Optional[ThresholdStore]) -> BoostResult:
    """Shared machinery of curricular / non-curricular retraining."""
    metric = get_spec(network.name).metric if network.name in _known_models() else "accuracy"

    thresholds = thresholds or ThresholdStore.from_network(network, dataset.train_x)
    corrector = ImplausibleValueCorrector(thresholds, CorrectionMode.ZERO)

    # Score the *unboosted* network under injection at the target BER first.
    eval_injector = BitErrorInjector(
        error_model.with_ber(target_ber), bits=config.bits,
        corrector=corrector, seed=config.seed + 17,
    )
    boosted = network.clone()
    baseline_score = _evaluate_under_injection(
        boosted, dataset, eval_injector, metric, config.evaluation_repeats,
        config.seed, config.processes,
    )

    train_injector = BitErrorInjector(
        error_model.with_ber(0.0), bits=config.bits,
        corrector=corrector, seed=config.seed + 29,
    )
    boosted.set_fault_injector(train_injector)

    epochs = len(schedule)
    training_config = _training_config_for(boosted, config, epochs)
    trainer = Trainer(boosted, dataset, training_config)

    def ramp_callback(epoch: int) -> None:
        rate = schedule[epoch]
        train_injector.set_global_ber(rate)
        train_injector.enabled = rate > 0.0

    history = trainer.fit(epoch_callback=ramp_callback)
    boosted.set_fault_injector(None)

    boosted_score = _evaluate_under_injection(
        boosted, dataset, eval_injector, metric, config.evaluation_repeats,
        config.seed, config.processes,
    )
    return BoostResult(
        network=boosted,
        target_ber=target_ber,
        ber_schedule=list(schedule),
        epoch_scores=list(history.val_scores),
        baseline_score=baseline_score,
        boosted_score=boosted_score,
        corrections=corrector.stats["values_corrected"],
    )


def _known_models():
    from repro.nn.models import MODEL_SPECS

    return MODEL_SPECS


def curricular_retrain(network: Network, dataset: Dataset, error_model: ErrorModel,
                       target_ber: float, config: Optional[EdenConfig] = None,
                       thresholds: Optional[ThresholdStore] = None) -> BoostResult:
    """EDEN's curricular retraining: step-wise BER ramp, forward-pass injection."""
    config = config or EdenConfig()
    schedule = ber_ramp_schedule(target_ber, config.retrain_epochs, config.ramp_every_epochs)
    return _retrain(network, dataset, error_model, target_ber, config, schedule, thresholds)


def non_curricular_retrain(network: Network, dataset: Dataset, error_model: ErrorModel,
                           target_ber: float, config: Optional[EdenConfig] = None,
                           thresholds: Optional[ThresholdStore] = None) -> BoostResult:
    """Ablation: retrain with the full target error rate from the first epoch."""
    config = config or EdenConfig()
    schedule = [float(target_ber)] * config.retrain_epochs
    return _retrain(network, dataset, error_model, target_ber, config, schedule, thresholds)
