"""Golden digests of the fault paths: clip, revoke, rebook.

Pins the service's :meth:`ServiceReport.digest` (plus its revocation,
denial and rebooking counts) on faulted streams at every shard count,
and a hash of :func:`~repro.resilience.execute_resilient`'s outcomes,
failures, ledger and repairs under the three repair policies.  The
values were recorded before the service's two fault-arrival paths and
the engine's revocation loop were merged into
:func:`repro.resilience.admit_window`; any change to how a fault window
is clipped, which booking is revoked, or how it is rebooked moves them.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.calendar import Reservation
from repro.core import schedule_ressched
from repro.dag import DagGenParams, random_task_graph
from repro.resilience import (
    REPAIR_POLICIES,
    FaultModel,
    execute_resilient,
    faults_for_schedule,
)
from repro.rng import derive_rng, make_rng
from repro.service import ReservationService, ServiceConfig
from repro.sim import LognormalNoise
from repro.workloads.reservations import ReservationScenario
from test_shard import CANCEL_HEAVY, DOWNTIME, _requests, _scenario

#: Fault setups: model, competing reservations and request spacing (s).
SETUPS = {
    "faulted": (FaultModel.from_rate(150.0), 6, 900.0),
    "downtime": (DOWNTIME, 6, 900.0),
    "cancel-heavy": (CANCEL_HEAVY, 40, 600.0),
}

#: (setup, K, commit latency) -> (digest, revocations, denied, rebooked).
#: ``shards=None`` is checked against K = 1 (the two reduce bitwise).
SERVICE_GOLDEN = {
    ("faulted", 1, 0.0): ("2651da71c29d44453a2442a70a36b057bd35918d2214adaf199ccf92863f325c", 316, 153, 398),
    ("faulted", 1, 1800.0): ("9329b76414a1d19db3b0d9ca37f9d8cb4e4d0d88f5af470f152e1d7398ed2559", 283, 154, 339),
    ("faulted", 2, 0.0): ("025f9bfc30adf5888fc49701c8961a557ce1ac6190fd37624f5bf94d52bae26b", 175, 155, 243),
    ("faulted", 2, 1800.0): ("2eceb5204c86759b08444674a866743ad2205975764cdba8a256e55468b592ed", 166, 156, 241),
    ("faulted", 4, 0.0): ("56cb9c30c30f5f51208f87394ffc438e3e1ccfb6bbbd76e613d010dc7e3231cc", 149, 148, 242),
    ("faulted", 4, 1800.0): ("5dae58453344e88f67373510ac2689d618b4689324c9ddf33b312a1e6bce9787", 128, 150, 189),
    ("faulted", 8, 0.0): ("27805a362fafd419da26099f0503d3ac71becfaf821e7bcb5d6aa3e94bafb5c3", 116, 147, 190),
    ("faulted", 8, 1800.0): ("7637c825010e4326b44f8674e9bbe970fc7cb17204bf46fa2f0e7b16dc8eeed5", 104, 146, 164),
    ("downtime", 1, 0.0): ("575639e69f19f64638b2dd10732e129494499889d3589cfef1bb42ec8b73583a", 483, 372, 545),
    ("downtime", 1, 1800.0): ("4890330ca29617a15f8a7cfe26071160b9c7649869d8ae4f7456dfa641bedba4", 205, 388, 238),
    ("downtime", 2, 0.0): ("bdf199d646defb1679cd846d1cc5be636aebed57f929e8c09a5f7ab8776591af", 145, 377, 201),
    ("downtime", 2, 1800.0): ("7dd747aa2d3f7f38f78c5c55b18b6128b9384ed94a50cea9ad06397daac1d374", 130, 383, 161),
    ("downtime", 4, 0.0): ("105b92ad0d56bcbe0084ccb7089e211238cd73b3f5f1415600457ed23b7ba4e2", 99, 380, 159),
    ("downtime", 4, 1800.0): ("d21ea76249771a94e2dcf0d88bc0ad82c36fda2430438116001da8b2ff3571c3", 128, 371, 192),
    ("downtime", 8, 0.0): ("758d74aa0c55ab725e0e8bb34283dc9173bbf57bd831a050d80050acfbafbf10", 108, 371, 186),
    ("downtime", 8, 1800.0): ("31b6a76eb57a53172b691ea003c6fcec7562be35912e995aa147fdead097e726", 104, 369, 162),
    ("cancel-heavy", 1, 0.0): ("21a2fa2cc112639efb4ac45f22a41464eb0e4dc58b52eb6173bab35353baddcd", 278, 29, 319),
    ("cancel-heavy", 1, 1800.0): ("7b0f3cabcb0076c440eb3ab54dd2d13c528660e4d130a1f2be5db78522514c69", 353, 31, 410),
    ("cancel-heavy", 2, 0.0): ("ea55e6a81bb110a92b64c4bad4816d1d385d549efa11dd5617e8a186f5358792", 162, 32, 218),
    ("cancel-heavy", 2, 1800.0): ("828855cbe59590635328b01449acd95df899539883e7f012a2ff2bcd5136a0c2", 130, 34, 175),
    # Value-equal twin bookings on different shards decide the victim
    # here: the faulted shard's copies stand for the latest-keyed twins.
    # Revoking twins in admission order instead reads de8377679257f3e6
    # with 96 revocations.
    ("cancel-heavy", 4, 0.0): ("88592400ce1f9a668a92bdb579ed6fcae2e0c04e27d747b21147a3868821e748", 93, 34, 148),
    ("cancel-heavy", 4, 1800.0): ("38a2bd8a8d71935c84e65799ca6311435db522888498d9c4c8fb85488ef9779e", 92, 36, 138),
    ("cancel-heavy", 8, 0.0): ("62506dceb81a81abf29dbeba96d513c08299a4e2f7a89615c8549599da35f024", 70, 39, 102),
    ("cancel-heavy", 8, 1800.0): ("fb5a83fa3ea20bec0dd00526f84eb44a508137cb7804ae6c95289810f3c34902", 75, 37, 126),
}

#: Repair policy -> (hash over 16 resilient runs, total revocations).
ENGINE_GOLDEN = {
    "local-rebook": ("7c31b7d2789ac2d6c8c2faa58c591d6dbc42fa39d02194786401fb421a091780", 108),
    "replan-remaining": ("73bd57f0b276e5c70247d9b2112d29055c0a33b76d55ac87419a3e7f678efd78", 285),
    "degrade-to-deadline": ("96405bef04884cefc7517a27d32e89f1944227880e91764a10da083ae8416bfd", 268),
}


@pytest.mark.parametrize("latency", [0.0, 1800.0])
@pytest.mark.parametrize("shards", [None, 1, 2, 4, 8])
@pytest.mark.parametrize("setup", sorted(SETUPS))
def test_service_fault_digest(setup, shards, latency):
    model, n_res, spacing = SETUPS[setup]
    report = ReservationService(
        _scenario(n_res=n_res),
        config=ServiceConfig(commit_latency=latency, retry_backoff_base=30.0),
        fault_model=model,
        seed=3,
        shards=shards,
    ).run(_requests(20, spacing=spacing))
    got = (
        report.digest(),
        report.revocations,
        report.faults_denied,
        report.rebooked,
    )
    assert got == SERVICE_GOLDEN[(setup, shards or 1, latency)]


@pytest.mark.parametrize("policy", REPAIR_POLICIES)
def test_engine_fault_digest(policy):
    """Noisy runtimes (kills and attempt caps) under two fault rates on
    eight random DAGs: arrivals, downtimes, cancels and denials."""
    h = hashlib.sha256()
    revocations = 0
    sc = ReservationScenario(
        name="golden",
        capacity=12,
        now=0.0,
        reservations=(Reservation(3000.0, 30_000.0, 3, label="c0"),),
        hist_avg_available=10.0,
    )
    for seed in range(8):
        graph = random_task_graph(DagGenParams(n=12), make_rng(seed))
        schedule = schedule_ressched(graph, sc)
        for rate in (4.0, 16.0):
            faults = faults_for_schedule(
                schedule,
                sc,
                FaultModel.from_rate(rate),
                derive_rng(seed, "golden-faults", f"{rate:g}"),
            )
            res = execute_resilient(
                schedule,
                graph,
                sc,
                policy=policy,
                faults=faults,
                runtime_model=LognormalNoise(0.2),
                rng=derive_rng(seed, "golden-noise"),
            )
            h.update(
                repr(
                    (
                        res.outcomes,
                        res.failures,
                        res.ledger,
                        res.repairs,
                        res.faults_denied,
                        res.revocations,
                    )
                ).encode()
            )
            revocations += res.revocations
    assert (h.hexdigest(), revocations) == ENGINE_GOLDEN[policy]
