"""The benchmark's workloads: one fixed front scan each.

Every workload calls the public ``front_scan`` with a ``make_task``
factory and a probe task built beforehand, as the CLI does, on a fixed
weight grid.  The workload seed is the scan's ``RunConfig.seed``, so ray
``i`` draws its start and its neighbourhoods from ``seed + i``.

* ``synthetic-epo`` is acceptance test 1's scan on 16 of its 50 rays;
  with fewer rays the final-point HV falls below that test's 0.30 floor.
* ``ngram-uni`` is acceptance test 4's scan, all 12 rays.
* ``surrogate-m4`` scans the first 4 rays of ``weight_grid(4, 12)``; one
  ray costs about 4 s, so the full grid does not fit a run.

Why each workload is in the benchmark is written in ``BENCHMARK.json``.
This module imports nothing from ``paretoscan``: the checker and the
run command use it too, and they stay independent of the program.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True)
class Workload:
    name: str
    task: str
    m: int
    rays: int
    eta: float
    params: dict = field(default_factory=dict)
    T: int = 50
    K: int = 20
    C: int = 10
    #: Lower bound on the final-point HV, where one is known.
    hv_floor: float | None = None

    def config_kwargs(self, seed: int) -> dict:
        """Keyword arguments of the ``RunConfig`` for one scan."""
        return dict(
            task=self.task,
            task_params=dict(self.params),
            T=self.T,
            K=self.K,
            eta=self.eta,
            C=self.C,
            seed=seed,
        )


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="synthetic-epo",
            task="synthetic",
            m=2,
            rays=16,
            eta=0.05,
            hv_floor=0.30,
        ),
        Workload(
            name="ngram-uni",
            task="ngram-uni",
            m=3,
            rays=12,
            eta=0.2,
        ),
        Workload(
            name="surrogate-m4",
            task="surrogate",
            m=4,
            rays=4,
            eta=0.1,
            params={"m": 4},
        ),
    )
}
