package fountain

import (
	"encoding/binary"
	"fmt"
	"math/bits"

	"mobweb/internal/gf256"
)

// Decoder reconstructs one generation's source symbols from any
// sufficiently large subset of the cooked stream by online Gauss–Jordan
// elimination: every packet is reduced once, on arrival, against what is
// already known, and source symbols become readable one by one as their
// rows resolve (driving progressive IC accrual). Not safe for concurrent
// use; the owning Receiver serializes access.
//
// Invariant. rows[c], when set, is the pivot row of source column c — k
// coefficient bytes followed by the payload they combine to — with
// coefficient 1 on column c and 0 on every other pivot column, so its
// remaining non-zero coefficients all sit on columns no packet has
// pinned yet. free[c] counts them; a row with none left reads
// "symbol c = payload" and is what Symbol(c) exposes.
type Decoder struct {
	spec  *spec
	seed  uint64
	size  int
	rows  [][]byte
	free  []int
	mixed []bool // the row was combined with a then-unresolved row
	rank  int    // pivot rows installed
	nRec  int    // of which resolved
	seen  map[int]bool

	received  int // distinct useful seqs consumed before completion
	usedGauss bool
	complete  bool

	// Scratch of the forward pass, k entries each: the packet's
	// coefficient on each touched pivot and what that pivot contributes.
	factors []byte
	srcs    [][]byte
}

// NewDecoder builds the decoding side of generation gen's stream. k,
// size and seed must match the encoder exactly; the receiver derives
// them from the layout, the same place the server derived them. weights
// is validated as NewEncoder's is and does not shape the stream.
func NewDecoder(gen int, seed uint64, k, size int, weights []float64) (*Decoder, error) {
	if size <= 0 {
		return nil, fmt.Errorf("fountain: symbol size %d", size)
	}
	sp, err := newSpec(gen, k, weights)
	if err != nil {
		return nil, err
	}
	return &Decoder{
		spec:    sp,
		seed:    seed,
		size:    size,
		rows:    make([][]byte, k),
		free:    make([]int, k),
		mixed:   make([]bool, k),
		seen:    make(map[int]bool, k+k/4),
		factors: make([]byte, k),
		srcs:    make([][]byte, k),
	}, nil
}

// K returns the number of source symbols.
func (d *Decoder) K() int { return d.spec.k }

// SymbolSize returns the payload size in bytes.
func (d *Decoder) SymbolSize() int { return d.size }

// Complete reports whether every source symbol has been recovered.
func (d *Decoder) Complete() bool { return d.complete }

// Recovered reports whether source symbol i has been recovered yet.
func (d *Decoder) Recovered(i int) bool { return d.Symbol(i) != nil }

// RecoveredCount returns how many source symbols are recovered so far.
func (d *Decoder) RecoveredCount() int { return d.nRec }

// Received returns how many distinct cooked packets were consumed
// before completion; received − k is the reception overhead.
func (d *Decoder) Received() int { return d.received }

// UsedGaussian reports whether any recovered symbol needed an
// elimination between two unresolved rows, as opposed to substitutions
// of already-recovered symbols alone (what a peeling decoder can do).
func (d *Decoder) UsedGaussian() bool { return d.usedGauss }

// Symbol returns recovered source symbol i, or nil if not yet
// recovered. The slice is shared with the decoder; callers must not
// mutate it.
func (d *Decoder) Symbol(i int) []byte {
	if i < 0 || i >= len(d.rows) || d.rows[i] == nil || d.free[i] != 0 {
		return nil
	}
	return d.rows[i][d.spec.k:]
}

// Add consumes cooked packet seq and returns how many source symbols it
// newly recovered. Duplicate seqs and packets arriving after completion
// are no-ops. The payload is copied; the caller keeps ownership.
//
//mobweb:hot per intact fountain frame on the client
func (d *Decoder) Add(seq int, payload []byte) (int, error) {
	if len(payload) != d.size {
		return 0, fmt.Errorf("fountain: payload %d bytes, want %d", len(payload), d.size)
	}
	if d.complete || d.seen[seq] {
		return 0, nil
	}
	d.seen[seq] = true
	d.received++
	fountainMetrics.packetsConsumed.Inc()

	k := d.spec.k
	row := make([]byte, k+d.size) //lint:allow hotalloc (the one allocation per packet: the pivot row it becomes)
	d.spec.combination(d.seed, seq, row[:k])
	copy(row[k:], payload)

	before := d.nRec
	d.eliminate(row)
	if d.rank == k {
		d.finish()
	}
	return d.nRec - before, nil
}

// eliminate reduces a packet's expanded row against the pivots it
// touches and, if anything survives, installs it as the pivot of its
// lowest surviving column and clears that column from every other row.
//
//mobweb:hot the row reduction of Decoder.Add
func (d *Decoder) eliminate(row []byte) {
	k := d.spec.k
	// Forward. Pivot rows are zero on each other's columns, so the factor
	// of each is the packet's own coefficient there, whatever the order,
	// and one fused pass applies each kind. A resolved pivot reads
	// "symbol c = payload": it clears column c and contributes its payload
	// only, the peeling substitution. An unresolved one contributes its
	// whole row. The two kinds share the scratch from opposite ends; at
	// most k pivots exist, so they never meet.
	res, unres := 0, k
	for c, f := range row[:k] {
		p := d.rows[c]
		if f == 0 || p == nil {
			continue
		}
		if d.free[c] == 0 {
			d.factors[res], d.srcs[res] = f, p[k:]
			res++
			row[c] = 0
		} else {
			unres--
			d.factors[unres], d.srcs[unres] = f, p
		}
	}
	if res > 0 {
		gf256.MulAddRows(d.factors[:res], row[k:], d.srcs[:res])
	}
	mixed := unres < k
	if mixed {
		gf256.MulAddRows(d.factors[unres:], row, d.srcs[unres:])
	}

	// What survives sits on pivot-less columns only.
	c := 0
	for c < k && row[c] == 0 {
		c++
	}
	if c == k {
		fountainMetrics.packetsRedundant.Inc()
		return
	}
	gf256.MulSlice(gf256.Inv(row[c]), row[c:], row[c:])
	free := nonZero(row[c:k]) - 1
	d.rows[c], d.free[c], d.mixed[c] = row, free, mixed
	d.rank++
	if free == 0 {
		d.resolve(c)
	}

	// Backward: column c now has a pivot, so it leaves every other row.
	// The new row is zero below c; its other entries land on free columns
	// of the row they are added to, which is then recounted.
	for q, r := range d.rows {
		if r == nil || q == c || r[c] == 0 {
			continue
		}
		gf256.MulAddSlice(r[c], r[c:], row[c:])
		d.free[q] = nonZero(r[:k]) - 1
		d.mixed[q] = d.mixed[q] || free > 0
		if d.free[q] == 0 {
			d.resolve(q)
		}
	}
}

// nonZero counts b's non-zero bytes, eight per step: in each word the
// high bit of a byte is raised exactly when the byte is zero, and a
// population count tallies them.
//
//mobweb:hot the free-column recount of every backward elimination
func nonZero(b []byte) int {
	const low7 = 0x7f7f7f7f7f7f7f7f
	n := len(b)
	for ; len(b) >= 8; b = b[8:] {
		x := binary.LittleEndian.Uint64(b)
		n -= bits.OnesCount64(^((x&low7 + low7) | x | low7))
	}
	for _, v := range b {
		if v == 0 {
			n--
		}
	}
	return n
}

// resolve accounts for pivot row c having become source symbol c.
func (d *Decoder) resolve(c int) {
	d.nRec++
	if d.mixed[c] {
		d.usedGauss = true
		fountainMetrics.gaussRecovered.Inc()
	} else {
		fountainMetrics.peelRecovered.Inc()
	}
}

// finish does the completion accounting, once, at rank k — where every
// column has a pivot, so every row is resolved.
func (d *Decoder) finish() {
	d.complete = true
	fountainMetrics.packetsNeeded.Add(int64(d.spec.k))
	if over := d.received - d.spec.k; over > 0 {
		fountainMetrics.overshootPackets.Add(int64(over))
		fountainMetrics.overshootBytes.Add(int64(over) * int64(d.size))
	}
	if d.usedGauss {
		fountainMetrics.gaussDecodes.Inc()
	} else {
		fountainMetrics.peelDecodes.Inc()
	}
}
