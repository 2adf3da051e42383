"""Tests for the fault-tolerant multi-tenant reservation service
(repro.service): reduction proofs, crash-safe resume, CAS-retry
determinism, quotas/shedding, and dead-letter quarantine."""

from __future__ import annotations

import base64
import json
import pickle
from concurrent.futures import ProcessPoolExecutor
from dataclasses import replace

import pytest

from repro.calendar import Reservation
from repro.core.ressched import ResSchedAlgorithm
from repro.dag import DagGenParams, random_task_graph
from repro.errors import QuotaError, ServiceError
from repro.experiments.reporting import run_instrumented
from repro.experiments.stream import StreamRequest, schedule_stream_naive
from repro.jsonlog import encode_payload
from repro.obs import SloSeries, chrome_trace_events, instrumented
from repro.obs import timeline as tl
from repro.resilience.faults import FaultModel
from repro.rng import make_rng
from repro.service import (
    OUTCOME_STATUSES,
    DeadLetter,
    DeadLetterLog,
    ReservationService,
    ServiceConfig,
    ServiceJournal,
    ServiceOutcome,
    TenantQuota,
)
from repro.workloads.reservations import ReservationScenario


def _scenario(capacity=32, n_res=6, seed=5):
    rng = make_rng(seed)
    res = []
    for i in range(n_res):
        start = float(rng.uniform(0.0, 30_000.0))
        dur = float(rng.uniform(300.0, 4_000.0))
        res.append(
            Reservation(
                start=start,
                end=start + dur,
                nprocs=int(rng.integers(1, 4)),
                label=f"r{i}",
            )
        )
    return ReservationScenario(
        name="service-test",
        capacity=capacity,
        now=0.0,
        reservations=tuple(res),
        hist_avg_available=capacity / 2,
    )


def _requests(n=8, spacing=900.0, n_shapes=3, n_tasks=5, **kw):
    graphs = [
        random_task_graph(DagGenParams(n=n_tasks), make_rng(100 + i))
        for i in range(n_shapes)
    ]
    return [
        StreamRequest(
            request_id=f"q{k}",
            arrival_offset=k * spacing,
            graph=graphs[k % n_shapes],
            **kw,
        )
        for k in range(n)
    ]


def _blocked_scenario(until=100_000.0):
    """A platform fully booked on [0, until): every admission must wait."""
    return ReservationScenario(
        name="blocked",
        capacity=8,
        now=0.0,
        reservations=(
            Reservation(start=0.0, end=until, nprocs=8, label="block"),
        ),
        hist_avg_available=4,
    )


def _sig(schedule):
    return [
        (p.task, p.start, p.nprocs, p.duration) for p in schedule.placements
    ]


FAULTED = dict(fault_model=FaultModel.from_rate(150.0), seed=3)
CAS_CONFIG = ServiceConfig(commit_latency=600.0, retry_backoff_base=30.0)


def _cas_digest(_=None):
    """Module-level so worker processes can run the identical replay."""
    service = ReservationService(_scenario(), config=CAS_CONFIG, **FAULTED)
    return service.run(_requests(8)).digest()


class TestReduction:
    def test_rate_zero_defaults_equal_stream_scheduler_bitwise(self):
        """No faults + unlimited quotas: the robustness layer must add
        nothing — placements and booked state match N full passes."""
        reqs = _requests(10)
        naive = schedule_stream_naive(_scenario(), reqs)
        report = ReservationService(_scenario()).run(reqs)
        assert report.n_admitted == len(reqs)
        assert report.n_rejected == 0 and not report.dead_letters
        assert [_sig(s) for s in report.schedules] == [_sig(s) for s in naive]
        booked = list(_scenario().reservations) + [
            r for s in naive for r in s.reservations()
        ]
        assert sorted(
            (r.start, r.end, r.nprocs, r.label) for r in booked
        ) == list(report.booked)

    def test_default_config_is_reduction(self):
        assert ServiceConfig().is_reduction
        assert not ServiceConfig(shed_backlog=2).is_reduction
        assert not ServiceConfig(
            default_quota=TenantQuota(max_active=1)
        ).is_reduction

    def test_infinite_window_equals_no_window(self):
        reqs = _requests(6)
        plain = ReservationService(_scenario()).run(reqs)
        windowed = ReservationService(
            _scenario(),
            config=ServiceConfig(admission_window=float("inf")),
        ).run(reqs)
        assert windowed.n_rejected == 0
        for a, b in zip(plain.schedules, windowed.schedules):
            assert _sig(a) == _sig(b)


class TestFaultInjection:
    def test_faults_perturb_and_stay_deterministic(self):
        reqs = _requests(10)
        a = ReservationService(_scenario(), **FAULTED).run(reqs)
        b = ReservationService(_scenario(), **FAULTED).run(reqs)
        assert a.faults_applied > 0
        assert a.revocations > 0 and a.rebooked >= a.revocations
        assert a.digest() == b.digest()

    def test_different_seed_different_trace(self):
        reqs = _requests(6)
        a = ReservationService(
            _scenario(), fault_model=FaultModel.from_rate(150.0), seed=3
        ).run(reqs)
        b = ReservationService(
            _scenario(), fault_model=FaultModel.from_rate(150.0), seed=4
        ).run(reqs)
        assert a.digest() != b.digest()

    def test_rebooking_preserves_precedence(self):
        """After revocation + rebooking, every surviving request's
        bookings still respect its precedence edges."""
        reqs = _requests(10)
        service = ReservationService(_scenario(), **FAULTED)
        report = service.run(reqs)
        assert report.revocations > 0
        for outcome in report.outcomes:
            if not outcome.admitted:
                continue
            creq = service._committed[outcome.request.request_id]
            graph = outcome.request.graph
            for task, res in creq.reservations.items():
                for pred in graph.predecessors(task):
                    if pred in creq.reservations:
                        assert creq.reservations[pred].end <= res.start

    def test_timeline_records_fault_events(self):
        reqs = _requests(8)
        with tl.recording() as timeline:
            ReservationService(_scenario(), **FAULTED).run(reqs)
        by_type = timeline.summary()["by_type"]
        assert by_type.get("fault_applied", 0) > 0
        assert by_type.get("request_arrived", 0) == len(reqs)


class TestCasRetry:
    def test_commit_conflicts_retry_and_stay_deterministic(self):
        """Nonzero commit latency + faults: some commits must conflict
        and retry, and the retried stream is bitwise-repeatable."""
        reqs = _requests(8)
        service = ReservationService(
            _scenario(), config=CAS_CONFIG, **FAULTED
        )
        report = service.run(reqs)
        assert sum(o.retries for o in report.outcomes) > 0
        assert report.digest() == _cas_digest()

    def test_digest_identical_across_worker_counts(self):
        """The jitter comes from derive_rng keyed by request, not from
        ambient state: any number of worker processes reproduces the
        inline digest bitwise."""
        inline = _cas_digest()
        with ProcessPoolExecutor(max_workers=2) as pool:
            results = list(pool.map(_cas_digest, range(2)))
        assert results == [inline, inline]

    def test_retry_cap_dead_letters(self):
        reqs = _requests(8)
        config = ServiceConfig(
            commit_latency=600.0,
            retry_backoff_base=30.0,
            commit_retry_cap=1,
        )
        service = ReservationService(
            _scenario(), fault_model=FaultModel.from_rate(400.0), seed=3,
            config=config,
        )
        report = service.run(reqs)
        starved = [
            o for o in report.outcomes if o.status == "dead-letter"
        ]
        assert starved
        assert all(
            o.reason == "commit-retries-exhausted" for o in starved
        )
        assert len(report.dead_letters) == len(starved)

    def test_dead_letter_leaves_the_queue(self):
        """A quarantined request closes its arrival: both queue-depth
        folds of the timeline end empty, and the SLO series counts the
        quarantine as a rejection."""
        config = ServiceConfig(
            commit_latency=600.0,
            retry_backoff_base=30.0,
            commit_retry_cap=1,
        )
        with tl.recording() as timeline:
            report = ReservationService(
                _scenario(), fault_model=FaultModel.from_rate(400.0), seed=3,
                config=config,
            ).run(_requests(8))
        assert report.dead_letters
        slo = SloSeries.from_events(timeline.events, bucket_s=900.0).to_dict()
        assert slo["buckets"][-1]["queue_depth"] == 0
        assert slo["admitted"] + slo["rejected"] == slo["requests"] == 8
        depths = [
            ev["args"]["requests"]
            for ev in chrome_trace_events(timeline)
            if ev["name"] == "queue_depth"
        ]
        assert depths[-1] == 0

    def test_backoff_is_capped_exponential(self):
        config = ServiceConfig(
            retry_backoff_base=60.0, retry_backoff_cap=300.0
        )
        assert config.retry_backoff(1) == 60.0
        assert config.retry_backoff(2) == 120.0
        assert config.retry_backoff(3) == 240.0
        assert config.retry_backoff(4) == 300.0  # capped
        assert ServiceConfig(retry_backoff_base=0.0).retry_backoff(5) == 0.0


class TestCrashResume:
    def test_kill_and_resume_is_bitwise_identical(self, tmp_path):
        """A run killed mid-stream and resumed over its journal must be
        indistinguishable from the uninterrupted run."""
        reqs = _requests(12)
        uninterrupted = ReservationService(_scenario(), **FAULTED).run(reqs)
        journal = str(tmp_path / "svc.jsonl")
        partial = ReservationService(
            _scenario(), journal_path=journal, **FAULTED
        ).run(reqs, stop_after=5)
        assert partial.n_requests == 5
        resumed = ReservationService(
            _scenario(), journal_path=journal, **FAULTED
        ).run(reqs)
        assert resumed.resumed == 5
        assert resumed.n_requests == len(reqs)
        assert resumed.digest() == uninterrupted.digest()
        assert resumed.booked == uninterrupted.booked

    def test_double_resume(self, tmp_path):
        """Two crashes, two resumes — still identical."""
        reqs = _requests(12)
        uninterrupted = ReservationService(_scenario(), **FAULTED).run(reqs)
        journal = str(tmp_path / "svc.jsonl")
        for stop in (3, 8):
            ReservationService(
                _scenario(), journal_path=journal, **FAULTED
            ).run(reqs, stop_after=stop)
        final = ReservationService(
            _scenario(), journal_path=journal, **FAULTED
        ).run(reqs)
        assert final.resumed == 8
        assert final.digest() == uninterrupted.digest()

    def test_completed_journal_resumes_everything(self, tmp_path):
        reqs = _requests(6)
        journal = str(tmp_path / "svc.jsonl")
        first = ReservationService(
            _scenario(), journal_path=journal, **FAULTED
        ).run(reqs)
        again = ReservationService(
            _scenario(), journal_path=journal, **FAULTED
        ).run(reqs)
        assert again.resumed == len(reqs)
        assert again.digest() == first.digest()

    def test_truncated_tail_is_tolerated(self, tmp_path):
        """A crash mid-write leaves a partial final line; resume trusts
        everything before it and recomputes the rest."""
        reqs = _requests(8)
        uninterrupted = ReservationService(_scenario(), **FAULTED).run(reqs)
        journal = str(tmp_path / "svc.jsonl")
        ReservationService(
            _scenario(), journal_path=journal, **FAULTED
        ).run(reqs, stop_after=4)
        with open(journal, "a", encoding="utf-8") as fh:
            fh.write('{"type": "outcome", "payload": {"codec": "pi')
        resumed = ReservationService(
            _scenario(), journal_path=journal, **FAULTED
        ).run(reqs)
        assert resumed.resumed == 4
        assert resumed.digest() == uninterrupted.digest()

    def test_torn_tail_survives_a_second_crash(self, tmp_path):
        """The torn fragment is cut off before the resumed run appends,
        so a second crash and resume still trust every record."""
        reqs = _requests(12)
        uninterrupted = ReservationService(_scenario(), **FAULTED).run(reqs)
        journal = tmp_path / "svc.jsonl"
        ReservationService(
            _scenario(), journal_path=str(journal), **FAULTED
        ).run(reqs, stop_after=4)
        with open(journal, "a", encoding="utf-8") as fh:
            fh.write('{"type": "outcome", "payload": {"codec": "pi')
        ReservationService(
            _scenario(), journal_path=str(journal), **FAULTED
        ).run(reqs, stop_after=8)
        for line in journal.read_text(encoding="utf-8").splitlines():
            json.loads(line)
        resumed = ReservationService(
            _scenario(), journal_path=str(journal), **FAULTED
        ).run(reqs)
        assert resumed.resumed == 8
        assert resumed.digest() == uninterrupted.digest()

    def test_undecodable_line_before_the_last_refused(self, tmp_path):
        reqs = _requests(6)
        journal = tmp_path / "svc.jsonl"
        ReservationService(
            _scenario(), journal_path=str(journal), **FAULTED
        ).run(reqs, stop_after=4)
        lines = journal.read_text(encoding="utf-8").splitlines()
        lines[2] = lines[2][: len(lines[2]) // 2]
        journal.write_text("\n".join(lines) + "\n", encoding="utf-8")
        with pytest.raises(ServiceError, match=r"svc\.jsonl: line 3 "):
            ReservationService(
                _scenario(), journal_path=str(journal), **FAULTED
            ).run(reqs)

    def test_payload_in_another_codec_refused(self, tmp_path):
        reqs = _requests(6)
        journal = tmp_path / "svc.jsonl"
        ReservationService(
            _scenario(), journal_path=str(journal), **FAULTED
        ).run(reqs, stop_after=4)
        records = [
            json.loads(line)
            for line in journal.read_text(encoding="utf-8").splitlines()
        ]
        outcome = next(r for r in records if r.get("type") == "outcome")
        outcome["payload"]["codec"] = "marshal"
        journal.write_text(
            "".join(json.dumps(r) + "\n" for r in records), encoding="utf-8"
        )
        with pytest.raises(ServiceError, match="unknown payload codec 'marshal'"):
            ReservationService(
                _scenario(), journal_path=str(journal), **FAULTED
            ).run(reqs)

    @pytest.mark.parametrize(
        "name, kind",
        [("svc.jsonl", "service journal"),
         ("svc.jsonl.deadletter", "dead-letter log")],
    )
    def test_file_without_a_whole_record_refused(self, tmp_path, name, kind):
        """A non-empty journal or dead-letter file that holds no whole
        record is refused, and nothing is appended to it."""
        target = tmp_path / name
        target.write_text("not json", encoding="utf-8")
        with pytest.raises(ServiceError, match=f"not a {kind}"):
            ReservationService(
                _scenario(), journal_path=str(tmp_path / "svc.jsonl")
            ).run(_requests(2))
        assert target.read_text(encoding="utf-8") == "not json"

    def test_fingerprint_mismatch_refuses_resume(self, tmp_path):
        journal = str(tmp_path / "svc.jsonl")
        ReservationService(
            _scenario(), journal_path=journal
        ).run(_requests(4), stop_after=2)
        with pytest.raises(ServiceError, match="fingerprint"):
            ReservationService(
                _scenario(), journal_path=journal
            ).run(_requests(6))

    def test_other_journal_version_refused(self, tmp_path):
        journal = tmp_path / "svc.jsonl"
        ReservationService(
            _scenario(), journal_path=str(journal)
        ).run(_requests(4), stop_after=2)
        lines = journal.read_text(encoding="utf-8").splitlines()
        header = json.loads(lines[0])
        header["version"] = ServiceJournal.VERSION - 1
        journal.write_text(
            "\n".join([json.dumps(header)] + lines[1:]) + "\n",
            encoding="utf-8",
        )
        with pytest.raises(
            ServiceError,
            match=rf"version {ServiceJournal.VERSION - 1}\b.*"
            rf"version {ServiceJournal.VERSION}\b",
        ):
            ReservationService(
                _scenario(), journal_path=str(journal)
            ).run(_requests(4))

    def test_foreign_file_refused(self, tmp_path):
        path = tmp_path / "not-a-journal.jsonl"
        path.write_text('{"format": "something-else"}\n')
        with pytest.raises(ServiceError, match="journal format"):
            ReservationService(
                _scenario(), journal_path=str(path)
            ).run(_requests(2))

    def test_journal_header_and_records(self, tmp_path):
        journal = str(tmp_path / "svc.jsonl")
        ReservationService(
            _scenario(), journal_path=journal, **FAULTED
        ).run(_requests(5))
        lines = [
            json.loads(line)
            for line in open(journal, encoding="utf-8").read().splitlines()
        ]
        header = lines[0]
        assert header["format"] == ServiceJournal.FORMAT
        assert header["version"] == ServiceJournal.VERSION
        assert header["fingerprint"]
        kinds = {rec["type"] for rec in lines[1:]}
        assert kinds == {"outcome", "fault"}
        assert sum(1 for r in lines[1:] if r["type"] == "outcome") == 5


def _first(records, kind):
    """Index in ``records`` (0 = the header) of the first ``kind`` record."""
    return next(i for i, r in enumerate(records) if r.get("type") == kind)


def _drop_idx(records):
    i = _first(records, "fault")
    records[i] = {"type": "fault"}
    return i + 1, "fault record without an integer 'idx'"


def _string_idx(records):
    i = _first(records, "fault")
    records[i] = {"type": "fault", "idx": "x"}
    return i + 1, "fault record without an integer 'idx'"


def _list_record(records):
    records[1] = [1, 2]
    return 2, "is not a JSON object"


def _list_header(records):
    records[0] = [records[0]["format"], records[0]["version"]]
    return 1, "is not a JSON object"


def _misspelt_type(records):
    i = _first(records, "outcome")
    records[i]["type"] = "outcme"
    return i + 1, "unknown record type 'outcme'"


def _drop_payload(records):
    i = _first(records, "outcome")
    del records[i]["payload"]
    return i + 1, "outcome record without a payload"


def _repeated_outcome(records):
    i = _first(records, "outcome")
    records.insert(i + 1, dict(records[i]))
    return i + 2, "outcome for request 'q0', but the stream's next request is 'q1'"


def _payload_without_data(records):
    i = _first(records, "outcome")
    records[i]["payload"] = {"codec": "pickle"}
    return i + 1, "payload without its data"


def _payload_not_an_object(records):
    i = _first(records, "outcome")
    records[i]["payload"] = "x"
    return i + 1, "payload is not a JSON object"


def _payload_not_a_pickle(records):
    i = _first(records, "outcome")
    records[i]["payload"] = {"codec": "pickle", "data": "!!!"}
    return i + 1, "payload does not decode"


def _payload_not_an_outcome(records):
    i = _first(records, "outcome")
    records[i]["payload"] = encode_payload(1)
    return i + 1, "outcome payload holds type 'int', not ServiceOutcome"


def _overbooked_placement(records):
    """The first admission with its task 0 on every processor: the
    placement over-books the platform where another booking runs."""
    for i, rec in enumerate(records):
        if rec.get("type") != "outcome":
            continue
        outcome = pickle.loads(base64.b64decode(rec["payload"]["data"]))
        if outcome.admitted:
            break
    sched = outcome.schedule
    first = replace(sched.placements[0], nprocs=_scenario().capacity)
    records[i]["payload"] = encode_payload(
        replace(
            outcome,
            schedule=replace(
                sched, placements=(first,) + sched.placements[1:]
            ),
        )
    )
    rid = outcome.request.request_id
    return i + 1, f"journal outcome {rid!r}: task 0 does not fit the calendar"


class TestMalformedJournal:
    """A journal line that decodes but is not the record the restore
    expects is refused with the file and line, before any request."""

    @pytest.mark.parametrize(
        "corrupt",
        [
            _drop_idx,
            _string_idx,
            _list_record,
            _list_header,
            _misspelt_type,
            _drop_payload,
            _repeated_outcome,
            _payload_without_data,
            _payload_not_an_object,
            _payload_not_a_pickle,
            _payload_not_an_outcome,
            _overbooked_placement,
        ],
    )
    def test_refused_naming_file_and_line(self, tmp_path, corrupt):
        reqs = _requests(6)
        journal = tmp_path / "svc.jsonl"
        ReservationService(
            _scenario(), journal_path=str(journal), **FAULTED
        ).run(reqs, stop_after=4)
        records = [
            json.loads(line)
            for line in journal.read_text(encoding="utf-8").splitlines()
        ]
        lineno, reason = corrupt(records)
        journal.write_text(
            "".join(json.dumps(r) + "\n" for r in records), encoding="utf-8"
        )
        with pytest.raises(ServiceError) as info:
            ReservationService(
                _scenario(), journal_path=str(journal), **FAULTED
            ).run(reqs)
        assert f"svc.jsonl: line {lineno}" in str(info.value)
        assert reason in str(info.value)


class TestRequestIds:
    def test_repeated_id_refused_before_any_file(self, tmp_path):
        """Two requests with one id would share one booking record; the
        run refuses the stream before it writes the journal or the
        dead-letter file."""
        reqs = _requests(6)
        reqs[1] = replace(reqs[1], request_id="same")
        reqs[3] = replace(reqs[3], request_id="same")
        journal = tmp_path / "svc.jsonl"
        with pytest.raises(ServiceError, match="request id 'same'"):
            ReservationService(
                _scenario(), journal_path=str(journal), **FAULTED
            ).run(reqs)
        assert list(tmp_path.iterdir()) == []


#: One changed input per class the journal fingerprint pins, as
#: keyword overrides of the resuming service.
FINGERPRINTED = {
    "scenario-reservations": dict(scenario=_scenario(seed=6)),
    "scenario-capacity": dict(scenario=_scenario(capacity=16)),
    "algorithm": dict(algorithm=ResSchedAlgorithm("BL_1", "BD_ALL")),
    "tie-break": dict(tie_break="most"),
    "cpa-stopping": dict(cpa_stopping="classic"),
    "shards": dict(shards=4),
    "fault-model-ranges": dict(
        fault_model=replace(
            FAULTED["fault_model"], arrival_lead=(0.0, 3600.0)
        )
    ),
    "default-quota": dict(
        config=ServiceConfig(default_quota=TenantQuota(max_active=1))
    ),
    "tenant-quotas": dict(
        config=ServiceConfig(quotas={"default": TenantQuota(max_active=1)})
    ),
    "retry-backoff-base": dict(config=ServiceConfig(retry_backoff_base=5.0)),
    "retry-backoff-cap": dict(config=ServiceConfig(retry_backoff_cap=60.0)),
    "placement-attempts": dict(config=ServiceConfig(placement_attempts=1)),
}


class TestJournalFingerprint:
    def _journal(self, tmp_path):
        journal = str(tmp_path / "svc.jsonl")
        ReservationService(
            _scenario(), journal_path=journal, **FAULTED
        ).run(_requests(12), stop_after=3)
        return journal

    @pytest.mark.parametrize("changed", sorted(FINGERPRINTED))
    def test_changed_input_refuses_resume(self, tmp_path, changed):
        """Every input that decides outcomes is pinned: resuming under a
        different one raises instead of replaying into another run."""
        journal = self._journal(tmp_path)
        kwargs = dict(
            scenario=_scenario(), journal_path=journal, **FAULTED
        )
        kwargs.update(FINGERPRINTED[changed])
        with pytest.raises(ServiceError, match="fingerprint"):
            ReservationService(**kwargs).run(_requests(12))

    def test_dead_letter_path_is_not_pinned(self, tmp_path):
        reqs = _requests(12)
        uninterrupted = ReservationService(_scenario(), **FAULTED).run(reqs)
        resumed = ReservationService(
            _scenario(),
            journal_path=self._journal(tmp_path),
            dead_letter_path=str(tmp_path / "elsewhere.deadletter"),
            **FAULTED,
        ).run(reqs)
        assert resumed.resumed == 3
        assert resumed.digest() == uninterrupted.digest()


class TestQuotasAndShedding:
    def test_max_active_quota(self):
        reqs = _requests(4, spacing=1.0, tenant="t")
        report = ReservationService(
            _blocked_scenario(),
            config=ServiceConfig(quotas={"t": TenantQuota(max_active=1)}),
        ).run(reqs)
        statuses = [(o.status, o.reason) for o in report.outcomes]
        assert statuses[0] == ("admitted", "")
        assert statuses[1:] == [("rejected", "quota-active")] * 3

    def test_other_tenants_unaffected_by_quota(self):
        reqs = _requests(4, spacing=1.0)  # tenant "default"
        report = ReservationService(
            _blocked_scenario(),
            config=ServiceConfig(quotas={"t": TenantQuota(max_active=1)}),
        ).run(reqs)
        assert report.n_admitted == 4

    def test_cpu_hours_quota(self):
        reqs = _requests(3, spacing=1.0, tenant="t")
        unlimited = ReservationService(_blocked_scenario()).run(reqs)
        first_hours = unlimited.outcomes[0].schedule.cpu_hours
        report = ReservationService(
            _blocked_scenario(),
            config=ServiceConfig(
                quotas={"t": TenantQuota(max_cpu_hours=first_hours * 1.5)}
            ),
        ).run(reqs)
        assert report.outcomes[0].status == "admitted"
        assert report.outcomes[1].status == "rejected"
        assert report.outcomes[1].reason == "quota-cpu-hours"

    def test_priority_aware_load_shedding(self):
        """Batch degrades first: low-priority batch sheds at the
        threshold, high-priority batch at twice it, interactive never."""
        g = random_task_graph(DagGenParams(n=4), make_rng(2))

        def req(i, mode, priority):
            return StreamRequest(
                request_id=f"s{i}",
                arrival_offset=float(i),
                graph=g,
                mode=mode,
                priority=priority,
            )

        reqs = [
            req(0, "interactive", "mid"),
            req(1, "batch", "low"),
            req(2, "batch", "high"),
            req(3, "batch", "high"),
            req(4, "interactive", "low"),
        ]
        report = ReservationService(
            _blocked_scenario(), config=ServiceConfig(shed_backlog=1)
        ).run(reqs)
        got = [(o.request.request_id, o.status) for o in report.outcomes]
        assert got == [
            ("s0", "admitted"),   # interactive, backlog 0
            ("s1", "rejected"),   # batch low, backlog 1 >= threshold
            ("s2", "admitted"),   # batch high rides out backlog 1
            ("s3", "rejected"),   # batch high sheds at backlog 2
            ("s4", "admitted"),   # interactive is never shed
        ]
        assert all(
            o.reason == "load-shed"
            for o in report.outcomes
            if o.status == "rejected"
        )

    def test_quota_validation(self):
        with pytest.raises(QuotaError, match="max_active"):
            TenantQuota(max_active=0)
        with pytest.raises(QuotaError, match="max_cpu_hours"):
            TenantQuota(max_cpu_hours=-1.0)
        with pytest.raises(ServiceError, match="shed_backlog"):
            ServiceConfig(shed_backlog=0)
        with pytest.raises(ServiceError, match="commit_latency"):
            ServiceConfig(commit_latency=-1.0)
        with pytest.raises(ServiceError, match="admission_window"):
            ServiceConfig(admission_window=float("nan"))
        with pytest.raises(ServiceError, match="admission_window"):
            ServiceConfig(admission_window=-5.0)

    def test_admission_window_rejection_keeps_tentative(self):
        report = ReservationService(
            _blocked_scenario(), config=ServiceConfig(admission_window=0.0)
        ).run(_requests(3, spacing=1.0))
        assert report.n_admitted == 0
        for outcome in report.outcomes:
            assert outcome.reason == "admission-window"
            assert outcome.schedule is not None  # kept for diagnostics

    def test_window_rejections_carry_their_latency(self):
        """A planned-then-rejected request reports its planning latency
        and its wait on the timeline, so the SLO series sees it."""
        with tl.recording() as timeline:
            report = ReservationService(
                _blocked_scenario(), config=ServiceConfig(admission_window=0.0)
            ).run(_requests(4, spacing=1.0))
        assert report.n_rejected == 4
        rejected = [
            ev for ev in timeline.events if ev["type"] == "request_rejected"
        ]
        for ev, outcome in zip(rejected, report.outcomes, strict=True):
            assert ev["latency_s"] == outcome.latency_s > 0.0
            first = min(p.start for p in outcome.schedule.placements)
            assert ev["wait_s"] == first - outcome.arrival > 0.0
        slo = SloSeries.from_events(timeline.events, bucket_s=900.0).to_dict()
        assert slo["latency_ms"]["p50"] is not None


class TestDeadLetterIsolation:
    def _poisoned(self, tmp_path, reqs, poison_id):
        journal = str(tmp_path / "svc.jsonl")
        service = ReservationService(_scenario(), journal_path=journal)
        real = service.scheduler.tentative_schedule

        def boom(request, *, arrival, calendar):
            if request.request_id == poison_id:
                raise RuntimeError("planner exploded")
            return real(request, arrival=arrival, calendar=calendar)

        service.scheduler.tentative_schedule = boom
        return service, service.run(reqs)

    def test_poison_request_quarantined_with_structured_reason(
        self, tmp_path
    ):
        reqs = _requests(6)
        service, report = self._poisoned(tmp_path, reqs, "q2")
        (letter,) = report.dead_letters
        assert letter.request_id == "q2"
        assert letter.reason == "placement-error: planner exploded"
        assert letter.attempts == service.config.placement_attempts
        on_disk = DeadLetterLog(
            str(tmp_path / "svc.jsonl.deadletter")
        ).load()
        assert on_disk == [letter]

    @pytest.mark.parametrize(
        "torn",
        [
            '{"request_id": "q',
            # A whole document whose newline never reached the disk.
            '{"request_id": "q9", "tenant": "t0", "arrival": 1.0, '
            '"reason": "x", "attempts": 1}',
        ],
    )
    def test_torn_dead_letter_tail_cut_before_append(self, tmp_path, torn):
        path = str(tmp_path / "svc.jsonl.deadletter")
        first = DeadLetter("q1", "t0", 10.0, "commit-retries-exhausted", 3)
        second = DeadLetter("q2", "t1", 20.0, "placement-error: boom", 2)
        DeadLetterLog(path).append(first)
        with open(path, "a", encoding="utf-8") as fh:
            fh.write(torn)
        assert DeadLetterLog(path).load() == [first]
        DeadLetterLog(path).append(second)
        assert DeadLetterLog(path).load() == [first, second]

    @pytest.mark.parametrize(
        "content, match",
        [
            ('{"request_id": "q\n{}\n', r"deadletter: line 1 "),
            ('{"request": "q1"}\n', "line 1 is not a dead letter"),
        ],
    )
    def test_corrupt_dead_letter_file_refused_at_start(
        self, tmp_path, content, match
    ):
        """The quarantine file is checked when the run starts, not at
        its first quarantine: a run that would quarantine nothing still
        refuses it, before writing its journal."""
        journal = tmp_path / "svc.jsonl"
        dead = tmp_path / "svc.jsonl.deadletter"
        dead.write_text(content, encoding="utf-8")
        with pytest.raises(ServiceError, match=match):
            ReservationService(
                _scenario(), journal_path=str(journal)
            ).run(_requests(4))
        assert not journal.exists()

    def test_subsequent_requests_unaffected_by_poison(self, tmp_path):
        """The stream minus the poison request must schedule exactly as
        if the poison request had never existed."""
        reqs = _requests(6)
        _, poisoned = self._poisoned(tmp_path, reqs, "q2")
        clean = ReservationService(_scenario()).run(
            [r for r in reqs if r.request_id != "q2"]
        )
        assert poisoned.n_admitted == len(reqs) - 1
        for a, b in zip(poisoned.schedules, clean.schedules):
            assert _sig(a) == _sig(b)

    def test_outcome_status_closed_set(self):
        assert set(OUTCOME_STATUSES) == {
            "admitted", "rejected", "dead-letter"
        }
        with pytest.raises(ServiceError, match="unknown outcome status"):
            ServiceOutcome(
                request=_requests(1)[0],
                arrival=0.0,
                status="lost",
                schedule=None,
            )


class TestObservability:
    def test_service_counters_in_valid_run_report(self):
        from repro import obs

        reqs = _requests(8)
        _, report = run_instrumented(
            "service",
            lambda: ReservationService(_scenario(), **FAULTED).run(reqs),
        )
        doc = json.loads(report.to_json())  # to_json validates
        obs.validate_run_report(doc)
        counters = doc["counters"]
        assert counters["service.requests"] == len(reqs)
        assert counters["service.admitted"] == len(reqs)
        assert counters["stream.events"] == sum(r.graph.n for r in reqs)
        assert counters["stream.memo.miss"] >= 1
        assert counters["service.faults.arrival"] >= 1
        assert counters["service.revocations"] >= 1
        assert counters["service.rebooked"] >= 1

    @staticmethod
    def _scans_per_request(n):
        """Per-request ``service.scan.*`` counts of a replay shaped like
        the ``svc_faulted`` workload: quotas, batch shedding, commit
        latency and arrival/cancel/downtime faults over the test
        scenario.  Short tasks keep the offered load sustainable, and
        at 1,800 s spacing both stream lengths used below span more
        than the one-day floor of the fault horizon, so faults arrive
        at one rate per request."""
        graphs = [
            random_task_graph(
                DagGenParams(n=5, max_seq_time=1800.0), make_rng(100 + i)
            )
            for i in range(3)
        ]
        reqs = [
            StreamRequest(
                request_id=f"q{k}",
                arrival_offset=k * 1800.0,
                graph=graphs[k % 3],
                mode="batch" if k % 5 < 3 else "interactive",
                tenant=f"t{k % 4}",
            )
            for k in range(n)
        ]
        config = ServiceConfig(
            default_quota=TenantQuota(max_active=2),
            shed_backlog=2,
            commit_latency=300.0,
        )
        with instrumented() as col:
            report = ReservationService(
                _scenario(),
                config=config,
                fault_model=FaultModel.from_rate(24.0),
                seed=FAULTED["seed"],
            ).run(reqs)
        assert report.revocations > 0
        return {
            name: col.counters[name] / n
            for name in ("service.scan.requests", "service.scan.bookings")
        }

    def test_scans_per_request_flat_from_n_to_2n(self):
        """The booking ledger keeps admission and fault scans to the
        live bookings: doubling the stream may not grow the scans per
        request (without pruning they grow about 2x)."""
        small = self._scans_per_request(150)
        large = self._scans_per_request(300)
        for name, per_request in small.items():
            assert large[name] <= 1.25 * per_request, (name, small, large)

    def test_summary_is_json_ready(self):
        report = ReservationService(_scenario(), **FAULTED).run(_requests(5))
        doc = json.loads(json.dumps(report.summary()))
        assert doc["n_requests"] == 5
        assert doc["digest"] == report.digest()
        assert doc["faults_applied"] == report.faults_applied
