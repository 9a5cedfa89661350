"""The unified execution layer: run plans, the parallel executor, the run cache.

Every experiment grid in the repo — the figure sweeps and ablations of
:mod:`repro.experiments`, the ``repro scenario compare`` and ``repro
experiments`` CLI commands, and the benchmark grids — is expressed as a
:class:`RunPlan` (an explicit, serialisable list of content-hashed run
points) and executed by one :class:`Executor`:

>>> from repro.execution import Executor, RunPlan
>>> from repro.simulation import SimulationParameters
>>> plan = RunPlan(name="demo")
>>> for peers in (60, 90):
...     _ = plan.add(SimulationParameters.quick(num_peers=peers, seed=7),
...                  label=str(peers))
>>> results = Executor(jobs=2).run(plan)   # doctest: +SKIP

Guarantees:

* **parity** — ``jobs=N`` reproduces serial execution bit-for-bit (every
  run derives all randomness from its own point);
* **reproducible caching** — with a ``cache_dir``, results are stored under
  the point's content hash and a cached re-run returns identical metrics
  without invoking the harness.
"""

from repro.execution.cache import RunCache
from repro.execution.executor import JOBS_ENV, Executor, resolve_jobs, run_point
from repro.execution.plan import RunPlan, RunPoint, plan_artifact_path

__all__ = [
    "Executor",
    "JOBS_ENV",
    "RunCache",
    "RunPlan",
    "RunPoint",
    "plan_artifact_path",
    "resolve_jobs",
    "run_point",
]
