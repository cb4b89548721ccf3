"""The parallel experiment trial engine.

An experiment trial is a pure function of an integer seed, so seed
sweeps are embarrassingly parallel.  :class:`TrialExecutor` fans them
(variance, chaos, partition, byzantine, figure benches) across worker
processes through a :class:`WorkerPool`, each trial under a fresh
:class:`~repro.obs.metrics.MetricsRegistry` that is merged back into
the caller's registry in trial order.

Everything rng-, fault- or materialisation-dependent stays on the
parent process; workers only ever see pure, picklable tasks.  See
``docs/parallelism.md`` for the determinism contract and for why a
single balancing round is not split across workers.
"""

from repro.parallel.pool import WorkerPool
from repro.parallel.trials import (
    TrialExecutor,
    TrialTask,
    run_trial_worker,
    spawn_trial_seeds,
)

__all__ = [
    "TrialExecutor",
    "TrialTask",
    "WorkerPool",
    "run_trial_worker",
    "spawn_trial_seeds",
]
