"""Golden digests of the forward RESSCHED engine.

Pins :func:`~repro.experiments.stream.stream_digest` of service runs
(every shard count, both tie-breaks, three BL/BD combinations) and a
hash of
:func:`~repro.core.schedule_ressched` placements over the twelve paper
algorithms, with and without ready floors.  The values were recorded
while the streamed engine still ran its own heap-backed ready queue
beside the batch loop; any change to the visiting order, the readiness
fold or the per-task placement moves them.
"""

from __future__ import annotations

import hashlib
from dataclasses import replace

import pytest

from repro.core import RESSCHED_ALGORITHMS, ResSchedAlgorithm, schedule_ressched
from repro.experiments.stream import stream_digest
from repro.rng import make_rng
from repro.service import ReservationService
from test_incremental import _graph, _random_scenario
from test_shard import _requests, _scenario

#: (shards, tie_break, algorithm) -> stream digest.  ``shards=None``
#: is checked against K = 1 (the two reduce bitwise).
STREAM_GOLDEN: dict[tuple[int, str, str], str] = {
    (1, "fewest", "BL_CPAR_BD_CPAR"): "b578fcbcd55c3c6a51c0e4b91f2e648bf5aa8795b0d48fca6342cfa62e8d2e9d",
    (1, "fewest", "BL_1_BD_ALL"): "da27c30adc191d26b60045696729e77db9e1683e6bf6724c4380e6f0380eb451",
    (1, "fewest", "BL_CPA_BD_CPA"): "dac808b58926d268f9b7da30b3175859279fc655f505c6899dd8bdcc7e75e005",
    (1, "most", "BL_CPAR_BD_CPAR"): "b578fcbcd55c3c6a51c0e4b91f2e648bf5aa8795b0d48fca6342cfa62e8d2e9d",
    (1, "most", "BL_1_BD_ALL"): "da27c30adc191d26b60045696729e77db9e1683e6bf6724c4380e6f0380eb451",
    (1, "most", "BL_CPA_BD_CPA"): "dac808b58926d268f9b7da30b3175859279fc655f505c6899dd8bdcc7e75e005",
    (4, "fewest", "BL_CPAR_BD_CPAR"): "f95ec36470cb315f6520509414f4b21ff7a80a54c43db3130efc646d47e40bf7",
    (4, "fewest", "BL_1_BD_ALL"): "304e16e98d6215cc1b02cd6384174ac320ae2beeb9f4b98143098f478f9fec59",
    (4, "fewest", "BL_CPA_BD_CPA"): "99496cbecef297cdc8424f4c09acc332a46fae78800712ec71bbde4708204d9f",
    (4, "most", "BL_CPAR_BD_CPAR"): "f95ec36470cb315f6520509414f4b21ff7a80a54c43db3130efc646d47e40bf7",
    (4, "most", "BL_1_BD_ALL"): "304e16e98d6215cc1b02cd6384174ac320ae2beeb9f4b98143098f478f9fec59",
    (4, "most", "BL_CPA_BD_CPA"): "99496cbecef297cdc8424f4c09acc332a46fae78800712ec71bbde4708204d9f",
}

#: Algorithm -> hash over both tie-breaks, both floor settings and
#: every instance of ``INSTANCES``.
BATCH_GOLDEN: dict[str, str] = {
    "BL_1_BD_ALL": "0adabb7bd2b2acca291367421de5ad122b23c31b4cde01560936eadb8f33b8b6",
    "BL_1_BD_CPA": "29098a58e26f3f7f6877265ebd65575e1b5e92a6686a8cc9fa302a09660cd00d",
    "BL_1_BD_CPAR": "f481e0c343fd63871b2909cc42d5cd511659ddf1664d7ebf2d00cae79d846e0a",
    "BL_ALL_BD_ALL": "b83e61beae2da3adb0b90a632df71e65a913a4da3a1a5618e4f66e86a6d76293",
    "BL_ALL_BD_CPA": "6076f17617d71105bc7da54849279711003b901ca4a55c475d12b6418be06ed1",
    "BL_ALL_BD_CPAR": "f481e0c343fd63871b2909cc42d5cd511659ddf1664d7ebf2d00cae79d846e0a",
    "BL_CPA_BD_ALL": "4d5f0e0537fdd722312171b805e486ad20f4e7f1e65e9b7807f3ca15c54cd331",
    "BL_CPA_BD_CPA": "1f975ce3db0aa0c0aeba050d58969349b291315309b69bcfb931cf9c246599fa",
    "BL_CPA_BD_CPAR": "206466e1daaafd7dfa3ae7eb946273f9fe688357a8554a9ee7441e53ef53f683",
    "BL_CPAR_BD_ALL": "ba49634f5ee0f3e77b092a6517861539a52d28f260f27aa5f2ac9baf3fe04112",
    "BL_CPAR_BD_CPA": "29098a58e26f3f7f6877265ebd65575e1b5e92a6686a8cc9fa302a09660cd00d",
    "BL_CPAR_BD_CPAR": "f481e0c343fd63871b2909cc42d5cd511659ddf1664d7ebf2d00cae79d846e0a",
}

#: (graph seed, n, scenario seed, now) per batch instance.
INSTANCES = (
    (3, 6, 11, 0.0),
    (17, 12, 23, 0.0),
    (42, 20, 7, 2_500.0),
    (8, 25, 91, 600.0),
    (5, 40, 3, 1_000.0),
)


STREAM_ALGORITHMS = (
    ResSchedAlgorithm("BL_CPAR", "BD_CPAR"),
    ResSchedAlgorithm("BL_1", "BD_ALL"),
    ResSchedAlgorithm("BL_CPA", "BD_CPA"),
)


@pytest.mark.parametrize("algorithm", STREAM_ALGORITHMS, ids=lambda a: a.name)
@pytest.mark.parametrize("tie_break", ["fewest", "most"])
@pytest.mark.parametrize("shards", [None, 1, 4])
def test_stream_digest(shards, tie_break, algorithm):
    assert _stream_digest(shards, tie_break, algorithm) == STREAM_GOLDEN[
        (shards or 1, tie_break, algorithm.name)
    ]


@pytest.mark.parametrize("algorithm", RESSCHED_ALGORITHMS, ids=lambda a: a.name)
def test_batch_digest(algorithm):
    assert _batch_digest(algorithm) == BATCH_GOLDEN[algorithm.name]


def _stream_digest(shards, tie_break, algorithm):
    report = ReservationService(
        _scenario(), algorithm, tie_break=tie_break, shards=shards
    ).run(_requests(20))
    return stream_digest(
        (o.request.request_id, o.admitted, o.schedule) for o in report.outcomes
    )


def _batch_digest(algorithm):
    h = hashlib.sha256()
    for graph_seed, n, scen_seed, now in INSTANCES:
        graph = _graph(graph_seed, n=n)
        scenario = replace(_random_scenario(scen_seed), now=now)
        rng = make_rng(graph_seed + 1)
        floors = [float(rng.uniform(-100.0, 8_000.0)) for _ in range(n)]
        for tie_break in ("fewest", "most"):
            for ready_floors in (None, floors):
                schedule = schedule_ressched(
                    graph,
                    scenario,
                    algorithm,
                    tie_break=tie_break,
                    ready_floors=ready_floors,
                )
                h.update(f"{schedule.now!r}|".encode())
                for p in schedule.placements:
                    h.update(
                        f"{p.task}:{p.start!r}:{p.nprocs}:{p.duration!r};".encode()
                    )
    return h.hexdigest()
