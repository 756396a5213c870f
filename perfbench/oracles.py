"""Reference computations written apart from ``repro.core``.

The benchmark checks the program's answers against these instead of the
program's own reference module, so a fault shared by the detectors and
``repro.core.reference`` cannot pass unseen.  Everything here works on
plain tuples and numpy arrays; nothing imports ``repro``.

* :func:`top_n` -- the top-``n`` outliers of a point set under the NN
  (distance to the nearest neighbour) or KNN (mean distance to the ``k``
  nearest neighbours) ranking, ties broken by the larger
  ``(values, origin, epoch)`` tuple, as in the paper's total order.
* :func:`hop_counts` -- breadth-first hop distances over the unit-disk graph
  of the sensor positions (an edge wherever two sensors are within the
  transmission range).

Run this file to execute both self-checks on hand-computed cases.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, Iterable, List, Mapping, Sequence, Tuple

import numpy as np

#: One point as the oracles see it: ``(values, origin, epoch)``.
Point = Tuple[Tuple[float, ...], int, int]

#: Relative width of the band in which two scores count as tied.  numpy's
#: ``sqrt(sum(d**2))`` and ``math.dist`` may differ in the last bit of a
#: double (relative error about 1e-16); a disagreement at the n-th place is
#: accepted only when both points score within this band of each other.
TIE_BAND = 1e-12


def scores(points: Sequence[Point], ranking: str, k: int) -> np.ndarray:
    """The ranking score of every point against all the others."""
    values = np.array([p[0] for p in points], dtype=float)
    diff = values[:, None, :] - values[None, :, :]
    dist = np.sqrt((diff * diff).sum(axis=2))
    np.fill_diagonal(dist, np.inf)
    ordered = np.sort(dist, axis=1)
    if ranking == "nn":
        return ordered[:, 0]
    if ranking == "knn":
        return ordered[:, :k].sum(axis=1) / k
    raise ValueError(f"unsupported ranking {ranking!r}")


def top_n(points: Iterable[Point], ranking: str, n: int, k: int = 4) -> List[Point]:
    """The ``n`` most outlying points, most outlying first."""
    unique = sorted(set(points))
    if len(unique) <= max(k, 1):
        raise ValueError("the oracle needs more points than neighbours")
    rated = scores(unique, ranking, k)
    order = sorted(range(len(unique)), key=lambda i: (rated[i], unique[i]), reverse=True)
    return [unique[i] for i in order[:n]]


def same_top_n(
    estimate: Iterable[Point], points: Iterable[Point], ranking: str, n: int, k: int = 4
) -> bool:
    """Whether ``estimate`` is the top-``n`` of ``points``, allowing only a
    swap between points whose scores tie within :data:`TIE_BAND`."""
    unique = sorted(set(points))
    rated = dict(zip(unique, scores(unique, ranking, k)))
    expected = set(top_n(unique, ranking, n, k))
    got = set(estimate)
    if got == expected:
        return True
    if len(got) != len(expected) or not got <= rated.keys():
        return False
    cut = min(rated[p] for p in expected)
    band = TIE_BAND * max(abs(cut), 1.0)
    return all(abs(rated[p] - cut) <= band for p in got ^ expected)


def unit_disk_adjacency(
    positions: Mapping[int, Tuple[float, float]], transmission_range: float
) -> Dict[int, List[int]]:
    """Neighbours of every sensor: all others within ``transmission_range``."""
    ids = sorted(positions)
    xy = np.array([positions[i] for i in ids], dtype=float)
    dist = np.hypot(xy[:, None, 0] - xy[None, :, 0], xy[:, None, 1] - xy[None, :, 1])
    within = dist <= transmission_range
    np.fill_diagonal(within, False)
    return {ids[a]: [ids[b] for b in np.flatnonzero(within[a])] for a in range(len(ids))}


def hop_counts(adjacency: Mapping[int, Sequence[int]], source: int) -> Dict[int, int]:
    """Breadth-first hop distance from ``source`` to every reachable sensor."""
    hops = {source: 0}
    queue = deque([source])
    while queue:
        node = queue.popleft()
        for other in adjacency[node]:
            if other not in hops:
                hops[other] = hops[node] + 1
                queue.append(other)
    return hops


def _expect(condition: bool, what: str) -> None:
    if not condition:
        raise AssertionError(f"oracle self-check failed: {what}")


def self_check() -> None:
    """Both oracles on cases small enough to compute by hand."""
    # Five points on a line at 0, 1, 2, 10 and 13.  Nearest-neighbour
    # distances are 1, 1, 1, 3, 3; the tied 3s break on the larger values
    # tuple, so 13 ranks first.  Mean distances to the 2 nearest neighbours
    # are 1.5, 1, 1.5, 5.5 and 7; the tied 1.5s again favour the larger point.
    line = [((float(x),), origin, 0) for origin, x in enumerate((0, 1, 2, 10, 13))]
    _expect(top_n(line, "nn", 2) == [line[4], line[3]], "NN top-2 on a line")
    _expect(np.allclose(scores(line, "knn", 2), [1.5, 1.0, 1.5, 5.5, 7.0]), "KNN scores")
    _expect(top_n(line, "knn", 3, k=2) == [line[4], line[3], line[2]], "KNN top-3")
    _expect(same_top_n([line[3], line[4]], line, "nn", 2), "matching estimate")
    _expect(not same_top_n([line[2], line[4]], line, "nn", 2), "wrong estimate")
    # Sensors 5 m apart on a line with a 6.77 m range form a path, so the hop
    # count is the index difference; a sensor 20 m further on is cut off.
    positions = {0: (0.0, 0.0), 1: (5.0, 0.0), 2: (10.0, 0.0), 3: (15.0, 0.0), 4: (35.0, 0.0)}
    adjacency = unit_disk_adjacency(positions, 6.77)
    _expect(adjacency == {0: [1], 1: [0, 2], 2: [1, 3], 3: [2], 4: []}, "unit-disk graph")
    _expect(hop_counts(adjacency, 0) == {0: 0, 1: 1, 2: 2, 3: 3}, "BFS along the path")
    _expect(hop_counts(adjacency, 4) == {4: 0}, "BFS from an isolated sensor")


if __name__ == "__main__":
    self_check()
    print("oracle self-checks passed")
