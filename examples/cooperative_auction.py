#!/usr/bin/env python
"""Cooperative auction management (paper Section 1) — why currency matters.

Bidders race to outbid each other on an item whose state is replicated in the
DHT.  Accepting a bid requires the *current* high bid: if a peer acted on a
stale replica it could accept a bid lower than one already accepted.

The example runs the same bidding war twice:

* with **UMS**, every read is certified current, so the bid history is
  monotone and the winner is the true highest bidder;
* with the **BRK baseline**, two concurrent updates can produce replicas with
  the same version number, and the baseline cannot tell which is current — the
  example surfaces the resulting ambiguity.

:class:`Auction` keeps the item's state under one DHT key and talks to any
:class:`repro.api.CurrencyService`, typically a :class:`repro.api.Session`.

Run with::

    python examples/cooperative_auction.py
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Any, Dict, List, Optional

from repro.api import Cluster


class BidRejected(RuntimeError):
    """A bid was rejected (too low, auction closed, or stale state)."""


@dataclass(frozen=True)
class Bid:
    """One accepted bid."""

    bidder: str
    amount: float
    sequence: int

    def to_dict(self) -> Dict[str, Any]:
        return asdict(self)

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "Bid":
        return cls(bidder=payload["bidder"], amount=payload["amount"],
                   sequence=payload["sequence"])


class Auction:
    """A single-item English auction whose state lives in the replicated DHT."""

    def __init__(self, service, auction_id: str, *,
                 seller: str = "", reserve_price: float = 0.0,
                 minimum_increment: float = 1.0) -> None:
        if reserve_price < 0 or minimum_increment <= 0:
            raise ValueError("reserve_price must be >= 0 and minimum_increment > 0")
        self.service = service
        self.auction_id = auction_id
        self.seller = seller
        self.reserve_price = reserve_price
        self.minimum_increment = minimum_increment

    @property
    def key(self) -> str:
        """The DHT key under which the auction state is replicated."""
        return f"auction:{self.auction_id}"

    # ------------------------------------------------------------------ state
    def open(self) -> None:
        """Create (or reset) the auction state in the DHT."""
        self.service.insert(self.key, {"status": "open", "seller": self.seller,
                                   "reserve_price": self.reserve_price,
                                   "bids": []})

    def _state(self) -> Dict[str, Any]:
        result = self.service.retrieve(self.key)
        if not result.found:
            raise BidRejected(f"auction {self.auction_id!r} does not exist")
        if not result.is_current:
            raise BidRejected(
                f"auction {self.auction_id!r}: current state unavailable, refusing to act "
                "on a stale replica")
        return dict(result.data)

    def status(self) -> str:
        """``"open"`` or ``"closed"``."""
        return self._state()["status"]

    def bids(self) -> List[Bid]:
        """All accepted bids, in acceptance order."""
        return [Bid.from_dict(entry) for entry in self._state()["bids"]]

    def current_high_bid(self) -> Optional[Bid]:
        """The currently winning bid, if any."""
        bids = self.bids()
        return max(bids, key=lambda bid: bid.amount) if bids else None

    # ------------------------------------------------------------------- bids
    def place_bid(self, bidder: str, amount: float) -> Bid:
        """Place a bid; returns the accepted bid or raises :class:`BidRejected`."""
        state = self._state()
        if state["status"] != "open":
            raise BidRejected(f"auction {self.auction_id!r} is closed")
        bids = [Bid.from_dict(entry) for entry in state["bids"]]
        high = max((bid.amount for bid in bids), default=state["reserve_price"])
        minimum_acceptable = high + (self.minimum_increment if bids else 0.0)
        if amount < minimum_acceptable:
            raise BidRejected(
                f"bid of {amount} is below the minimum acceptable amount {minimum_acceptable}")
        accepted = Bid(bidder=bidder, amount=amount, sequence=len(bids))
        state["bids"] = [bid.to_dict() for bid in bids] + [accepted.to_dict()]
        self.service.insert(self.key, state)
        return accepted

    def close(self) -> Optional[Bid]:
        """Close the auction and return the winning bid (if any)."""
        state = self._state()
        state["status"] = "closed"
        self.service.insert(self.key, state)
        bids = [Bid.from_dict(entry) for entry in state["bids"]]
        return max(bids, key=lambda bid: bid.amount) if bids else None



def ums_auction() -> None:
    print("== UMS-backed auction ==")
    cluster = Cluster.build(peers=96, replicas=10, seed=11)
    session = cluster.session()
    auction = Auction(session, "violin-1713", seller="sotheby", reserve_price=100.0,
                      minimum_increment=5.0)
    auction.open()

    bids = [("alice", 100.0), ("bob", 120.0), ("carol", 110.0), ("alice", 140.0),
            ("bob", 139.0), ("carol", 155.0)]
    for bidder, amount in bids:
        try:
            accepted = auction.place_bid(bidder, amount)
            print(f"  accepted  {bidder:<6} {amount:>7.2f}  (bid #{accepted.sequence})")
        except BidRejected as rejection:
            print(f"  rejected  {bidder:<6} {amount:>7.2f}  ({rejection})")

    winner = auction.close()
    print(f"  winner: {winner.bidder} at {winner.amount:.2f}")
    history = [bid.amount for bid in auction.bids()]
    print(f"  accepted bid history is strictly increasing: "
          f"{all(b > a for a, b in zip(history, history[1:]))}")
    print(f"  session traffic: {session.operations} operations, "
          f"{session.messages_sent} messages")
    session.close()
    print()


def brk_auction() -> None:
    print("== BRK-backed auction (no currency guarantee) ==")
    cluster = Cluster.build(peers=96, replicas=10, service="brk", seed=11)
    brk = cluster.service()
    key = "auction:violin-1713"
    opening = brk.insert(key, {"status": "open", "high_bid": 100.0, "bidder": "alice"})

    # Two peers accept bids concurrently: both read {high_bid: 100} (version 1)
    # and both write a new state with version 2 — BRICKS cannot order them.
    # Their messages reach the replica holders in different orders (carol's
    # update does not reach half of them), leaving same-version replicas with
    # different contents.
    holders = sorted({cluster.network.responsible_peer(key, h)
                      for h in cluster.replication})
    brk.insert(key, {"status": "open", "high_bid": 120.0, "bidder": "bob"},
               observed_version=opening.version)
    brk.insert(key, {"status": "open", "high_bid": 110.0, "bidder": "carol"},
               observed_version=opening.version,
               unreachable=frozenset(holders[::2]))

    outcome = brk.retrieve(key)
    print(f"  BRK returned high bid {outcome.data['high_bid']} by {outcome.data['bidder']} "
          f"(version {outcome.version})")
    print(f"  replicas inspected: {outcome.replicas_inspected}, "
          f"messages: {outcome.trace.message_count}")
    print(f"  ambiguous (same version, different data)? {outcome.ambiguous}")
    print("  -> bob's 120.0 may silently lose to carol's 110.0 depending on replica order")


def main() -> None:
    ums_auction()
    brk_auction()


if __name__ == "__main__":
    main()
