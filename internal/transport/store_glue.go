package transport

import (
	"mobweb/internal/core"
	"mobweb/internal/store"
)

// This file glues the client to its packet store (Client.Store): seeding
// a fresh receiver from stored state before touching the wire, and
// draining receiver state back after each round so a crash costs at most
// the round in flight. The store is keyed by the canonical fetch shape
// (fetchShape).

// storeSeed builds a receiver from the store's state for one plan key:
// decoded generations are installed wholesale, then loose packets of
// the still-incomplete generations are re-added under the stored
// layout. It returns the receiver with the packets it holds, a decoded
// generation counting as its M, or (nil, 0) when the store holds nothing
// usable.
// Records the store refuses (CRC re-check) or the receiver rejects are
// simply skipped — seeding is best-effort by design; anything skipped
// is refetched.
func (c *Client) storeSeed(plan string) (*core.Receiver, int) {
	if c.Store == nil {
		return nil, 0
	}
	lo, ok := c.Store.Layout(plan)
	if !ok {
		return nil, 0
	}
	rcv, err := core.NewReceiverFromLayout(lo)
	if err != nil {
		return nil, 0
	}
	seeded := 0
	for _, g := range c.Store.Generations(plan, lo.Codec) {
		if g.Gen < 0 || g.Gen >= len(lo.Shapes) {
			continue
		}
		if err := rcv.SeedDecodedGeneration(g.Gen, g.Raw); err != nil {
			continue
		}
		seeded += len(g.Raw)
	}
	for _, p := range c.Store.Packets(plan, lo.Codec) {
		if p.Gen < 0 || p.Gen >= len(lo.Shapes) {
			continue
		}
		if rcv.GenerationReconstructible(p.Gen) {
			continue
		}
		seq, ok := lo.WireSeq(p.Gen, p.Seq)
		if !ok {
			continue
		}
		if err := rcv.Add(seq, p.Payload); err != nil {
			continue
		}
		seeded++
	}
	if seeded == 0 {
		return nil, 0
	}
	return rcv, seeded
}

// persistReceiver drains a receiver's state to the store under one plan
// key: the layout, each reconstructible generation's decoded raw
// packets, and, in one batch, the loose held packets of generations
// still in flight. Duplicate records are skipped by the store, so
// calling this after every round costs only the round's new packets. An
// incompatible layout change drops the plan's stale records first.
// Write errors are swallowed — the store is a cache, and a fetch must
// not fail because the disk did.
func (c *Client) persistReceiver(plan string, rcv *core.Receiver) {
	if c.Store == nil || rcv == nil {
		return
	}
	lo := rcv.Layout()
	if c.Store.ReplaceLayout(plan, lo) != nil {
		return
	}
	for g := range lo.Shapes {
		if !rcv.GenerationReconstructible(g) || c.Store.HasGeneration(plan, lo.Codec, g) {
			continue
		}
		if raw, err := rcv.DecodedGeneration(g); err == nil {
			c.Store.PutGeneration(plan, lo.Codec, g, raw)
		}
	}
	have := rcv.HaveList()
	loose := make([]store.Packet, 0, len(have))
	for _, seq := range have {
		gen, local, ok := lo.SplitSeq(seq)
		if !ok || rcv.GenerationReconstructible(gen) {
			continue
		}
		if payload, ok := rcv.Packet(seq); ok {
			loose = append(loose, store.Packet{Gen: gen, Seq: local, Payload: payload})
		}
	}
	c.Store.PutPackets(plan, lo.Codec, loose)
}
