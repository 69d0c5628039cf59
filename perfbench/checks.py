"""Output checks and quality.

Every route must be a connected path, every recovered trajectory must have
its ground truth's length with ratios in [0, 1), and a trajectory served
again (a later cycle, a repeated online request, the traced composition)
must get exactly the output it got the first time.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

import numpy as np

from repro.data.trajectory import MapMatchedPoint, MatchedTrajectory
from repro.eval.metrics import matching_metrics, recovery_metrics
from repro.network.distances import NetworkDistance


def points(recovered) -> np.ndarray:
    """A recovered trajectory as one (n, 3) array of edge id, ratio, t."""
    return np.array([(p.edge_id, p.ratio, p.t) for p in recovered]).reshape(-1, 3)


def same_recovered(a: Sequence, b: Sequence) -> bool:
    return len(a) == len(b) and all(
        np.array_equal(points(x), points(y)) for x, y in zip(a, b)
    )


def matched(rows: np.ndarray) -> MatchedTrajectory:
    return MatchedTrajectory([
        MapMatchedPoint(edge_id=int(e), ratio=float(r), t=float(t))
        for e, r, t in rows
    ])


class Checks:
    """Collects failed checks and the first output seen per trajectory.

    Outputs are kept as one array each, so the checks add few objects to
    the heap the program's garbage collector walks.
    """

    MAX_LISTED = 20

    def __init__(self, network) -> None:
        self.network = network
        self.failures: List[str] = []
        self.routes: Dict[int, np.ndarray] = {}
        self.recoveries: Dict[int, np.ndarray] = {}

    def expect(self, name: str, condition: bool) -> None:
        if not condition:
            self.failures.append(name)

    def check_routes(self, ids: Sequence[int], routes: Sequence) -> None:
        self.expect("one route per trajectory", len(routes) == len(ids))
        for i, route in zip(ids, routes):
            self.expect(f"route {i} is a path",
                        bool(route) and self.network.route_is_path(route))
            route = np.asarray(route, dtype=np.int64)
            first = self.routes.setdefault(i, route)
            self.expect(f"route {i} repeats", np.array_equal(first, route))

    def check_recovered(self, pool, ids: Sequence[int], recovered) -> None:
        self.expect("one recovery per trajectory", len(recovered) == len(ids))
        for i, rec in zip(ids, recovered):
            self.expect(f"recovery {i} has the ground-truth length",
                        len(rec) == len(pool[i].dense))
            self.expect(f"recovery {i} ratios in [0, 1)",
                        all(0.0 <= p.ratio < 1.0 for p in rec))
            rec = points(rec)
            first = self.recoveries.setdefault(i, rec)
            self.expect(f"recovery {i} repeats", np.array_equal(first, rec))

    @property
    def ok(self) -> bool:
        return not self.failures

    def report(self) -> List[str]:
        listed = self.failures[: self.MAX_LISTED]
        extra = len(self.failures) - len(listed)
        return listed + ([f"... and {extra} more"] if extra else [])

    def quality(self, dataset) -> Dict[str, float]:
        """Table V route F1 and Table III F1 and MAE (metres) over the whole
        test split, each trajectory once, so they do not depend on which
        requests the seed drew."""
        pool = dataset.test
        every = set(range(len(pool)))
        self.expect("every test trajectory matched", set(self.routes) == every)
        self.expect("every test trajectory recovered",
                    set(self.recoveries) == every)
        match_f1 = np.mean([
            matching_metrics(route.tolist(), pool[i].route)["f1"]
            for i, route in sorted(self.routes.items())
        ]) if self.routes else float("nan")
        distance = NetworkDistance(dataset.network)
        rows = [
            recovery_metrics(matched(rec), pool[i].dense, distance)
            for i, rec in sorted(self.recoveries.items())
            if len(rec) == len(pool[i].dense)
        ]
        return {
            "match_f1": float(match_f1),
            "recover_f1": float(np.mean([r["f1"] for r in rows])) if rows else float("nan"),
            "recover_mae_m": float(np.mean([r["mae"] for r in rows])) if rows else float("nan"),
        }
