"""The two sweep workloads: set-up, one timed operation, and its outputs.

Both sweep the same BER grid on ``resnet101`` with its 256 validation images
under Error Model 4 (the burst mixture), with static-store read semantics:

``ecc_sweep``
    ``ExperimentRunner.ecc_sweep``, as ``repro.cli ecc-sweep`` runs it:
    float32 storage, RS(72,64) decode.  No ``data_kinds`` is set, so IFM
    loads are injected and decoded as well as the weight store.  Correction
    and injection dominate it.
``weight_sweep``
    EDEN's static weight store: int8 weights in approximate DRAM
    (``BitErrorInjector(bits=8, data_kinds={WEIGHT})``), IFMs reliable, one
    ``InferenceSession.evaluate`` per BER point.  Forward passes dominate it;
    it injects once per store and never decodes.  At float32 a single flipped
    exponent bit turns every output into NaN at every rate of the grid; int8
    storage bounds each flip, so the outputs differ from point to point and
    a wrong forward pass shows in them.

One operation is the whole grid at one injection seed.  The seeds come from
a pool of :data:`POOL` so that every operation's outputs can be checked
against ``digests.json`` (written by ``make_digests.py``).  Each grid point's
row holds its scores (and ECC counters, or the weight-store hash) and the
output rows of the first :data:`CHECK_ROWS` validation images under the
point's store, computed after the point's timed interval.  The networks are
untrained: the timed work does not depend on what the weights converged to,
and training ``resnet101`` would dominate set-up.
"""

from __future__ import annotations

import hashlib
import time
from typing import Dict, List, NamedTuple, Tuple

import numpy as np

MODEL = "resnet101"
ERROR_MODEL = 4
GRID = (1e-4, 1e-3, 1e-2)
POOL = 8
WEIGHT_BITS = 8
CHECK_ROWS = 8
#: output rows match the digest within this tolerance, so that a BLAS build
#: which rounds differently does not fail a run; a wrong forward pass moves
#: them by far more.
OUTPUT_RTOL = OUTPUT_ATOL = 1e-3
SWEEPS = ("ecc_sweep", "weight_sweep")
ECC_COUNTERS = ("codewords", "corrected_codewords", "corrected_symbols",
                "uncorrectable_codewords", "miscorrected_codewords")


class Window(NamedTuple):
    """The timed interval of one grid point: monotonic and CPU seconds."""

    start: float
    end: float
    cpu_s: float

    @property
    def seconds(self) -> float:
        return self.end - self.start


class SweepWorkload:
    """One sweep workload, built once per process.

    Building it is the workload's set-up: imports, the model and dataset,
    the runner or session, and one warm-up forward pass so that lazily built
    kernel tables are not billed to the first timed operation.
    """

    def __init__(self, name: str):
        if name not in SWEEPS:
            raise ValueError(f"unknown sweep workload {name!r}")
        from repro.analysis.runner import ExperimentRunner
        from repro.engine.session import InferenceSession, ReadSemantics
        from repro.nn.models import build_model_with_dataset

        self.name = name
        self.network, self.dataset, spec = build_model_with_dataset(MODEL,
                                                                    seed=0)
        if name == "ecc_sweep":
            self.runner = ExperimentRunner(
                self.network, self.dataset, metric=spec.metric, seed=0,
                semantics=ReadSemantics.STATIC_STORE)
            self.session = self.runner.session
        else:
            self.runner = None
            self.session = InferenceSession(
                self.network, self.dataset,
                semantics=ReadSemantics.STATIC_STORE, metric=spec.metric)
        self.network.eval()
        self.network.forward(self.dataset.val_x[:self.session.batch_size])

    @property
    def images_per_op(self) -> int:
        """Validation images scored by one operation."""
        evaluations = 2 if self.name == "ecc_sweep" else 1   # raw + corrected
        return evaluations * len(GRID) * len(self.dataset.val_x)

    def run_op(self, pool_seed: int) -> Tuple[List[dict], List[Window]]:
        """Sweep the grid at injection seed ``pool_seed``.

        Returns one output row per grid point and the timed interval of each
        point.  The output rows of the point's store are computed after its
        interval ends.  ``ecc_sweep`` is called once per point with the
        grid's base error model, which gives the same rows as one call over
        the grid.
        """
        from repro.core.ecc import make_codec
        from repro.dram.error_models import make_error_model
        from repro.dram.injection import BitErrorInjector
        from repro.nn.tensor import DataKind

        base = make_error_model(ERROR_MODEL, GRID[0], seed=pool_seed)
        rows, windows = [], []
        for ber in GRID:
            model = base.with_ber(ber)
            start, cpu = time.monotonic(), time.process_time()
            if self.runner is not None:
                point = self.runner.ecc_sweep(base, [ber], seed=pool_seed)[ber]
            else:
                injector = BitErrorInjector(model, bits=WEIGHT_BITS,
                                            data_kinds={DataKind.WEIGHT},
                                            seed=pool_seed)
                score = self.session.evaluate(injector=injector, seed=pool_seed)
            windows.append(Window(start, time.monotonic(),
                                  time.process_time() - cpu))
            if self.runner is not None:
                # The runner's two injectors, rebuilt: IFM loads are
                # injected (and decoded) as in the sweep.
                row = _ecc_row(point)
                row["raw_outputs"] = self._outputs(
                    BitErrorInjector(model, seed=pool_seed), pool_seed, True)
                row["corrected_outputs"] = self._outputs(
                    BitErrorInjector(model, seed=pool_seed,
                                     ecc=make_codec("rs72_64")),
                    pool_seed, True)
            else:
                row = {"score": float(score).hex(),
                       "store": _store_digest(
                           self.session.materialized_weights()),
                       "outputs": self._outputs(injector, pool_seed, False)}
            rows.append(row)
        return rows, windows

    def _outputs(self, injector, pool_seed: int, ifm_errors: bool
                 ) -> List[List[float]]:
        """Output rows of the first validation images under ``injector``'s
        static store (reliable IFMs unless ``ifm_errors``)."""
        previous = self.session.injector
        self.session.set_injector(injector)
        try:
            outputs = self.session.predict(
                self.dataset.val_x[:CHECK_ROWS], seed=pool_seed,
                ifm_errors=ifm_errors)
        finally:
            self.session.set_injector(previous)
        return outputs.tolist()

    def close(self) -> None:
        """Release the runner's or session's resources."""
        (self.runner or self.session).close()


def _ecc_row(point: Dict[str, float]) -> Dict[str, object]:
    row: Dict[str, object] = {"raw": float(point["raw"]).hex(),
                              "corrected": float(point["corrected"]).hex()}
    row.update({key: int(point[key]) for key in ECC_COUNTERS})
    return row


def _store_digest(store) -> str:
    """SHA-256 prefix over a materialized weight store, in load order."""
    digest = hashlib.sha256()
    for name, array in store.items():
        digest.update(name.encode())
        digest.update(array.tobytes())
    return digest.hexdigest()[:16]


def rows_match(got: Dict[str, object], want: Dict[str, object]) -> bool:
    """Whether a grid point's row matches its digest.

    Scores, counters and hashes must be equal; output rows (keys ending in
    ``outputs``) must agree within :data:`OUTPUT_RTOL`/:data:`OUTPUT_ATOL`,
    NaN matching NaN.
    """
    if got.keys() != want.keys():
        return False
    for key, value in got.items():
        if not key.endswith("outputs"):
            if value != want[key]:
                return False
            continue
        got_rows = np.asarray(value, dtype=np.float64)
        want_rows = np.asarray(want[key], dtype=np.float64)
        if got_rows.shape != want_rows.shape or not np.allclose(
                got_rows, want_rows, rtol=OUTPUT_RTOL, atol=OUTPUT_ATOL,
                equal_nan=True):
            return False
    return True
