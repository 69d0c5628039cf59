"""The benchmark's workloads.  See README.md for why each one exists."""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Workload:
    """Inputs and call shape of one workload.

    The system under test (map, trips, training split, initial weights) is
    fixed by ``SYSTEM_SEED``.  The run's ``--seed`` draws the requests: the
    order the test split is served in and the online request stream.

    A run repeats *cycles*: set up a trained pipeline from scratch, then
    serve the workload's requests with it.  ``--seconds`` chooses the cycle
    count, so the work done for a given seed and ``--seconds`` is fixed.
    """

    name: str
    dataset: str  # network + trips: "PT" or "BJ"
    n_trips: int  # simulated trips; 40% train, 30% validation, 30% test
    call: int  # trajectories per bulk match/recover call (0 = no bulk phase)
    online: int  # closed-loop single-trajectory requests per cycle
    recover_every: int  # every n-th online request is a recover (0 = none)


#: Map, trips and initial weights: the experiments' default seed.
SYSTEM_SEED = 11
#: Sparsity: the sparse sampling interval is epsilon / GAMMA.
GAMMA = 0.1
#: Training trajectories per epoch (one MMA and one TRMMA epoch).
N_TRAIN = 80
#: Training trajectories per timed ``fit_epoch`` call.
TRAIN_SLICE = 4
#: Online requests per throughput slice, for ``match`` and ``recover``.
ONLINE_SLICE = {"match": 20, "recover": 5}
#: Trajectories per dispatched chunk in the traced run's 2-worker engine
#: probe: a 32-trajectory call is one chunk per worker.
CHUNK_SIZE = 16


WORKLOADS = {
    w.name: w
    for w in (
        Workload("bulk-pt", "PT", n_trips=1067,
                 call=32, online=1010, recover_every=0),
        Workload("online-bj", "BJ", n_trips=1000,
                 call=0, online=1360, recover_every=4),
    )
}

#: Nominal seconds of one cycle on the 2-core tuning host.
CYCLE_S = 10.0
#: A slice's figure is its median over cycles: three at the least.
MIN_CYCLES = 3


def cycles_for(seconds: float) -> int:
    return max(MIN_CYCLES, round(seconds / CYCLE_S))
