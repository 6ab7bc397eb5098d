package core

import (
	"fmt"

	"mobweb/internal/erasure"
	"mobweb/internal/fountain"
)

// genDecoder is one generation's codec state inside a Receiver. It hides
// the decode algorithm — a fixed-rate matrix solve on demand, or rateless
// elimination as packets arrive — so the receiver's bookkeeping (held packets,
// decode memo, availability, rendering) is written once. Packets are
// addressed by generation-local index; Layout.SplitSeq / WireSeq map
// those to and from wire sequence numbers.
type genDecoder interface {
	// add feeds one intact packet. The payload is the receiver's own copy:
	// it stays valid for the decoder's lifetime and must not be written
	// to. solved reports that this
	// packet finished an incremental decode.
	add(local int, payload []byte) (solved bool, err error)
	// complete reports whether the generation can be decoded.
	complete() bool
	// symbol returns raw symbol i when it is readable without solving —
	// a held clear-text row, a resolved fountain symbol — and nil otherwise.
	symbol(i int) []byte
	// decode returns all M raw symbols of a complete generation. solved
	// reports that the call ran a matrix solve, as opposed to collecting
	// symbols already recovered packet by packet.
	decode() (raw [][]byte, solved bool, err error)
}

// newGenDecoders builds the layout's per-generation decoders — the one
// place the receiver asks which codec it is decoding.
func newGenDecoders(layout Layout) ([]genDecoder, error) {
	gens := make([]genDecoder, len(layout.Shapes))
	if layout.Codec == erasure.CodecFountain {
		for g, s := range layout.Shapes {
			dec, err := fountain.NewDecoder(g, layout.Seed, s.M, layout.PacketSize, nil)
			if err != nil {
				return nil, fmt.Errorf("generation %d: %w", g, err)
			}
			gens[g] = fountainGen{dec}
		}
		return gens, nil
	}
	// One backing array each for the decoders and their row tables keeps
	// receiver construction at a fixed allocation count.
	vand := make([]vandermondeGen, len(layout.Shapes))
	rows := make([][]byte, layout.N())
	for g, s := range layout.Shapes {
		coder, err := erasure.Shared(s.M, s.N)
		if err != nil {
			return nil, fmt.Errorf("generation %d: %w", g, err)
		}
		vand[g] = vandermondeGen{coder: coder, rows: rows[:s.N:s.N]}
		rows = rows[s.N:]
		gens[g] = &vand[g]
	}
	return gens, nil
}

// vandermondeGen decodes one systematic fixed-rate generation: any M of
// its N cooked rows reconstruct, and rows below M are raw symbols in
// clear text.
type vandermondeGen struct {
	coder *erasure.Coder
	rows  [][]byte // local cooked index → held payload, nil while missing
	held  int
}

func (d *vandermondeGen) add(local int, payload []byte) (bool, error) {
	d.rows[local] = payload
	d.held++
	return false, nil
}

func (d *vandermondeGen) complete() bool { return d.held >= d.coder.M() }

func (d *vandermondeGen) symbol(i int) []byte { return d.rows[i] }

// heldRows lists every held row in ascending index order: Decode prefers
// clear rows and fills the remainder with redundant rows in input order,
// so a fixed order keeps the chosen row set — and with it the work
// profile — the same run to run.
func (d *vandermondeGen) heldRows() []erasure.Received {
	in := make([]erasure.Received, 0, d.held)
	for i, p := range d.rows {
		if p != nil {
			in = append(in, erasure.Received{Index: i, Data: p})
		}
	}
	return in
}

func (d *vandermondeGen) decode() ([][]byte, bool, error) {
	raw, err := d.coder.Decode(d.heldRows())
	return raw, true, err
}

// fountainGen adapts the rateless decoder, which eliminates each packet
// on arrival and exposes source symbols one by one as their rows resolve.
// Packet count alone does not complete it — a repair can be linearly
// dependent on what is held.
type fountainGen struct{ dec *fountain.Decoder }

func (d fountainGen) add(local int, payload []byte) (bool, error) {
	was := d.dec.Complete()
	if _, err := d.dec.Add(local, payload); err != nil {
		return false, err
	}
	return !was && d.dec.Complete(), nil
}

func (d fountainGen) complete() bool { return d.dec.Complete() }

// symbol is where unequal error protection pays off: the systematic
// prefix carries the high-IC symbols first, each usable on arrival.
func (d fountainGen) symbol(i int) []byte { return d.dec.Symbol(i) }

func (d fountainGen) decode() ([][]byte, bool, error) {
	raw := make([][]byte, d.dec.K())
	for i := range raw {
		if raw[i] = d.dec.Symbol(i); raw[i] == nil {
			return nil, false, fmt.Errorf("core: symbol %d unrecovered", i)
		}
	}
	return raw, false, nil
}
