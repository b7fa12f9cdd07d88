"""Tests for in-flight coalescing."""

from repro.serve.coalesce import InflightTable
from repro.serve.request import ServeRequest


def _request(request_id: int, url: str = "http://a.com/") -> ServeRequest:
    return ServeRequest(request_id=request_id, url=url, arrival=0.0)


class TestInflightTable:
    def test_lead_then_followers_in_arrival_order(self):
        table = InflightTable()
        leader = _request(1)
        table.lead(leader)
        assert table.leader_for("http://a.com/") == 1
        table.follow(1, _request(2))
        table.follow(1, _request(3))
        assert table.coalesced_total == 2
        followers = table.complete(leader)
        assert [f.request_id for f in followers] == [2, 3]

    def test_complete_clears_the_url(self):
        table = InflightTable()
        leader = _request(1)
        table.lead(leader)
        table.complete(leader)
        assert table.leader_for("http://a.com/") is None
        assert len(table) == 0
        # A later request for the same URL starts a fresh analysis.
        table.lead(_request(4))
        assert table.leader_for("http://a.com/") == 4

    def test_urls_are_independent(self):
        table = InflightTable()
        table.lead(_request(1, "http://a.com/"))
        table.lead(_request(2, "http://b.com/"))
        assert table.leader_for("http://a.com/") == 1
        assert table.leader_for("http://b.com/") == 2
        assert len(table) == 2

    def test_leader_without_followers_completes_empty(self):
        table = InflightTable()
        leader = _request(1)
        table.lead(leader)
        assert table.complete(leader) == []
        assert table.coalesced_total == 0
