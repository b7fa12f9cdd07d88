"""Request coalescing: duplicate in-flight work collapses to one.

Phishing checks are popularity-skewed — a campaign URL going viral
arrives thousands of times a minute — so the single highest-leverage
overload defence is never analyzing the same page twice concurrently.
Two layers implement it:

* :class:`InflightTable` — URL-keyed leader/follower sharing.  The
  first *admitted* request for a URL is the *leader*; requests for the
  same URL arriving while the leader is queued or in flight attach as
  *followers* and receive the leader's outcome at the leader's finish
  time, consuming no queue slot, no tokens and no worker.  A hot-key
  storm therefore costs one analysis, not one per request.
* content-hash memoization — the engine's ``memo``, a plain unbounded
  :class:`~repro.parallel.cache.TtlCache` without a TTL keyed by
  :func:`~repro.parallel.cache.snapshot_fingerprint`.  Once a page body
  has been analyzed, any later request whose loaded snapshot hashes to
  the same fingerprint reuses the verdict and is charged only the
  (cheap) memo-hit cost.  Keyed on content, not URL, so mirrored
  campaign pages coalesce too; the fingerprint covers the whole
  snapshot, so a degraded load (truncated body, lost screenshot) never
  shares a verdict with the clean load.
"""

from __future__ import annotations

from repro.serve.request import ServeRequest


class InflightTable:
    """Tracks which URLs have an analysis pending, with followers."""

    def __init__(self) -> None:
        self._leaders: dict[str, int] = {}          # url -> leader id
        self._followers: dict[int, list[ServeRequest]] = {}
        self.coalesced_total = 0

    def leader_for(self, url: str) -> int | None:
        """The queued/in-flight leader's request id for ``url``, if any."""
        return self._leaders.get(url)

    def lead(self, request: ServeRequest) -> None:
        """Register ``request`` as the pending leader for its URL."""
        self._leaders[request.url] = request.request_id
        self._followers[request.request_id] = []

    def follow(self, leader_id: int, request: ServeRequest) -> None:
        """Attach ``request`` to a pending leader's result."""
        self._followers[leader_id].append(request)
        self.coalesced_total += 1

    def complete(self, request: ServeRequest) -> list[ServeRequest]:
        """Finish a leader; return its followers in arrival order."""
        self._leaders.pop(request.url, None)
        return self._followers.pop(request.request_id, [])

    def __len__(self) -> int:
        return len(self._leaders)
