"""The HTTP JSON API and the thin client, over a real socket."""

import threading

import pytest

from repro.sched import scaling_ladder
from repro.service import (
    CampaignService,
    ServiceClient,
    ServiceError,
    build_http_server,
)


@pytest.fixture
def served(tmp_path):
    """A running service + HTTP server + client on an ephemeral port."""
    service = CampaignService(tmp_path / "svc", workers=2,
                              executor="inline", sleep=lambda s: None)
    server = build_http_server(service, port=0)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    host, port = server.server_address[:2]
    client = ServiceClient(f"http://{host}:{port}", sleep=lambda s: None)
    yield service, client
    server.shutdown()


def ladder(nodes=(4, 16)):
    return scaling_ladder(dataset="demo", machine="t3e",
                          node_counts=nodes, hours=1)


class TestAPI:
    def test_health(self, served):
        _, client = served
        assert client.health()["ok"] is True

    def test_submit_wait_results(self, served):
        service, client = served
        cid = client.submit(ladder(), tenant="alice")
        assert cid == "c000001"
        assert client.status(cid)["status"] == "queued"
        service.run_until_idle()
        status = client.wait(cid, timeout=10)
        assert status["status"] == "done"
        rows = client.results(cid)
        assert [r["status"] for r in rows] == ["ok", "ok"]
        assert all(r["sha256"] for r in rows)

    def test_submit_accepts_spec_dicts(self, served):
        service, client = served
        cid = client.submit([s.to_dict() for s in ladder()],
                            tenant="alice")
        service.run_until_idle()
        assert client.wait(cid, timeout=10)["status"] == "done"

    def test_second_tenant_overlap_is_cache_hits(self, served):
        service, client = served
        client.submit(ladder(), tenant="alice")
        service.run_until_idle()
        cid_b = client.submit(ladder(), tenant="bob")
        service.run_until_idle()
        rows = client.results(cid_b)
        assert all(r["from_cache"] for r in rows)
        stats = client.stats()
        assert stats["counters"]["service:tenant:bob:cache_hits"] == 2

    def test_cancel(self, served):
        _, client = served
        cid = client.submit(ladder((1, 4, 16, 64)), tenant="alice")
        assert client.cancel(cid) is True
        assert client.status(cid)["status"] == "cancelled"
        assert client.cancel(cid) is False

    def test_campaigns_listing(self, served):
        _, client = served
        client.submit(ladder(), tenant="alice")
        client.submit(ladder(), tenant="bob")
        listed = client.campaigns()
        assert [c["tenant"] for c in listed] == ["alice", "bob"]


class TestErrors:
    def test_unknown_campaign_is_404(self, served):
        _, client = served
        with pytest.raises(ServiceError) as err:
            client.status("c999999")
        assert err.value.code == 404

    def test_empty_submission_is_400(self, served):
        _, client = served
        with pytest.raises(ServiceError) as err:
            client.submit([], tenant="alice")
        assert err.value.code == 400

    @pytest.mark.parametrize("bad", [
        {"nprocs": "64"},
        {"nprocs": None},
        {"io_nodes": [1]},
        {"machine": 5},
        {"machine": "cray"},
        {"dataset": "mars"},
        {"variant": "task", "nprocs": 2},
        {"variant": "task", "io_nodes": 0},
        {"variant": "mpi"},
        {"no_such_field": 1},
    ])
    def test_malformed_submission_is_400(self, served, bad):
        """Refused at the door: HTTP 400, journal untouched, daemon up."""
        service, client = served
        client.submit(ladder((4,)), tenant="alice")
        journal = service.store.journal_path
        before = journal.read_bytes()
        with pytest.raises(ServiceError) as err:
            client.submit([{"dataset": "demo", "hours": 1, **bad}],
                          tenant="mallory")
        assert err.value.code == 400
        assert journal.read_bytes() == before
        assert client.health() == {"ok": True, "campaigns": 1}
        service.run_until_idle()
        assert client.status("c000001")["status"] == "done"

    def test_unknown_route_is_404(self, served):
        _, client = served
        with pytest.raises(ServiceError) as err:
            client._request("/api/nonsense")
        assert err.value.code == 404

    def test_unreachable_service(self):
        client = ServiceClient("http://127.0.0.1:9", timeout=0.5)
        with pytest.raises(ServiceError, match="unreachable"):
            client.health()

    def test_wait_timeout(self, served):
        _, client = served
        cid = client.submit(ladder(), tenant="alice")
        # the scheduler loop is not running: the campaign stays queued
        with pytest.raises(TimeoutError):
            client.wait(cid, timeout=0.0, poll=0.0)
