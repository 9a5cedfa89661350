"""Tests for the cooperative auction application of ``examples/cooperative_auction.py``."""

from __future__ import annotations

import pytest

from test_examples import load_example

example = load_example("cooperative_auction.py")
Auction = example.Auction
Bid = example.Bid
BidRejected = example.BidRejected


@pytest.fixture
def auction(small_stack):
    auction = Auction(small_stack.service("ums"), "lot-1", seller="house", reserve_price=50.0,
                      minimum_increment=5.0)
    auction.open()
    return auction


class TestAuction:
    def test_open_auction_is_empty(self, auction):
        assert auction.status() == "open"
        assert auction.bids() == []
        assert auction.current_high_bid() is None

    def test_first_bid_must_meet_reserve(self, auction):
        with pytest.raises(BidRejected):
            auction.place_bid("alice", 10.0)
        accepted = auction.place_bid("alice", 50.0)
        assert accepted.amount == 50.0

    def test_subsequent_bids_must_beat_the_increment(self, auction):
        auction.place_bid("alice", 60.0)
        with pytest.raises(BidRejected):
            auction.place_bid("bob", 64.0)
        accepted = auction.place_bid("bob", 65.0)
        assert accepted.sequence == 1

    def test_high_bid_tracks_maximum(self, auction):
        auction.place_bid("alice", 60.0)
        auction.place_bid("bob", 80.0)
        assert auction.current_high_bid().bidder == "bob"

    def test_accepted_history_is_strictly_increasing(self, auction):
        amounts = [50.0, 60.0, 72.0, 99.0]
        for index, amount in enumerate(amounts):
            auction.place_bid(f"bidder-{index}", amount)
        history = [bid.amount for bid in auction.bids()]
        assert history == sorted(history)
        assert len(set(history)) == len(history)

    def test_close_returns_winner_and_blocks_bids(self, auction):
        auction.place_bid("alice", 70.0)
        winner = auction.close()
        assert winner.bidder == "alice"
        assert auction.status() == "closed"
        with pytest.raises(BidRejected):
            auction.place_bid("bob", 200.0)

    def test_close_without_bids_returns_none(self, auction):
        assert auction.close() is None

    def test_bidding_on_unknown_auction_rejected(self, small_stack):
        ghost = Auction(small_stack.service("ums"), "missing")
        with pytest.raises(BidRejected):
            ghost.place_bid("alice", 10.0)

    def test_invalid_configuration_rejected(self, small_stack):
        with pytest.raises(ValueError):
            Auction(small_stack.service("ums"), "bad", reserve_price=-1.0)
        with pytest.raises(ValueError):
            Auction(small_stack.service("ums"), "bad", minimum_increment=0.0)

    def test_auction_survives_churn(self, small_stack, auction):
        auction.place_bid("alice", 75.0)
        for _ in range(10):
            small_stack.network.leave_peer(small_stack.network.random_alive_peer())
            small_stack.network.join_peer()
        assert auction.current_high_bid().amount == 75.0
        auction.place_bid("bob", 90.0)
        assert auction.current_high_bid().bidder == "bob"

    def test_stale_state_blocks_bidding(self, small_stack, auction):
        auction.place_bid("alice", 75.0)
        holders = frozenset(small_stack.network.responsible_peer(auction.key, h)
                            for h in small_stack.replication)
        small_stack.service("ums").insert(auction.key, {"status": "open", "reserve_price": 50.0,
                                             "bids": []}, unreachable=holders)
        with pytest.raises(BidRejected):
            auction.place_bid("bob", 100.0)

    def test_bid_round_trip_through_dict(self):
        bid = Bid(bidder="alice", amount=10.0, sequence=2)
        assert Bid.from_dict(bid.to_dict()) == bid
