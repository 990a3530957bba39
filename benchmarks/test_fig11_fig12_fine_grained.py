"""Figures 11-12: fine-grained per-tensor characterization and Algorithm-1 mapping.

Paper results reproduced in shape:

* Figure 11 — individual weights/IFMs tolerate up to ~3x the whole-network
  (coarse) BER, weights generally tolerate at least as much as IFMs, and the
  layers nearest the input/output are among the least tolerant;
* Figure 12 — Algorithm 1 spreads the data types over multiple partitions with
  different supply voltages, with the most tolerant data landing on the most
  aggressively reduced partitions.
"""

import functools

import numpy as np
import pytest

from repro.analysis.figures import fig11_fine_characterization, fig12_fine_mapping
from repro.analysis.reporting import format_table
from repro.core.config import EdenConfig

from benchmarks.conftest import BASELINE_EPOCHS, print_header, run_once


@functools.lru_cache(maxsize=None)
def resnet_fine_characterization():
    """Figure 11's per-tensor characterization, computed once per session.

    The run is deterministic (seed 0), so Figure 12 maps the result Figure
    11 already produced instead of repeating the same four-minute search;
    Figure 11 (first in file order) times the real computation.
    """
    config = EdenConfig(evaluation_repeats=1, fine_max_rounds=4,
                        fine_validation_fraction=0.5, seed=0)
    return fig11_fine_characterization("resnet101", epochs=BASELINE_EPOCHS, config=config)


@pytest.fixture(scope="module")
def fine_characterization():
    return resnet_fine_characterization()


@pytest.mark.benchmark(group="fig11")
def test_fig11_per_tensor_tolerable_ber(benchmark):
    fine = run_once(benchmark, resnet_fine_characterization)

    ordered = sorted(fine.specs, key=lambda s: s.layer_index)
    print_header("Figure 11: per-tensor tolerable BER (ResNet analogue)")
    print(format_table(
        ["layer", "data type", "kind", "tolerable BER"],
        [(s.layer_index, s.name, s.kind.value, f"{fine.per_tensor_ber[s.name]:.4f}")
         for s in ordered],
    ))
    print(f"coarse BER: {fine.coarse_ber:.4f}; max headroom: "
          f"{fine.max_gain_over_coarse:.2f}x")

    # Every data type tolerates at least the coarse BER, and some tolerate
    # substantially more (paper: up to ~3x).
    assert all(ber >= fine.coarse_ber * 0.999 for ber in fine.per_tensor_ber.values())
    assert fine.max_gain_over_coarse >= 1.5

    # Weights tolerate at least as much as IFMs on average (paper observation).
    weight_mean = np.mean(list(fine.weights().values()))
    ifm_mean = np.mean(list(fine.ifms().values()))
    assert weight_mean >= ifm_mean * 0.7

    # The first layer is not the most tolerant data type in the network.
    first_layer_ber = min(
        ber for name, ber in fine.per_tensor_ber.items() if name.startswith("stem"))
    assert first_layer_ber <= max(fine.per_tensor_ber.values())


@pytest.mark.benchmark(group="fig12")
def test_fig12_mapping_onto_voltage_partitions(benchmark, fine_characterization):
    fine = fine_characterization
    data = run_once(benchmark, fig12_fine_mapping, fine, num_partitions=16,
                    voltage_levels=(1.05, 1.15, 1.25, 1.325))

    mapping = data["mapping"]
    tensor_voltage = data["tensor_voltage"]

    print_header("Figure 12: mapping of ResNet data types onto voltage partitions")
    print(format_table(
        ["data type", "partition", "VDD (V)"],
        [(tensor, mapping.assignments[tensor], f"{vdd:.3f}")
         for tensor, vdd in sorted(tensor_voltage.items())],
    ))
    print(f"partitions used: {mapping.num_partitions_used}; "
          f"unmapped: {mapping.unmapped}")

    # Everything mappable is mapped, onto at least one reduced-voltage domain.
    assert mapping.assignments
    assert len(mapping.unmapped) <= len(fine.per_tensor_ber) // 4
    assert min(tensor_voltage.values()) < 1.35

    # The most error-tolerant tensor sits on a partition at least as aggressive
    # (no higher voltage) as the least tolerant mapped tensor's partition.
    mapped = {t: ber for t, ber in fine.per_tensor_ber.items() if t in tensor_voltage}
    most_tolerant = max(mapped, key=mapped.get)
    least_tolerant = min(mapped, key=mapped.get)
    assert tensor_voltage[most_tolerant] <= tensor_voltage[least_tolerant] + 1e-9

    # Every assignment respects the tensor's tolerable BER.
    for tensor, partition_id in mapping.assignments.items():
        assert mapping.partition_ber[partition_id] <= fine.per_tensor_ber[tensor] + 1e-12
