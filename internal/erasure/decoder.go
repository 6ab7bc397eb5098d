package erasure

import (
	"fmt"
	"slices"

	"mobweb/internal/gf256"
	"mobweb/internal/matrix"
)

// RowFunc writes the coefficients of repair packet index — the GF(2^8)
// combination of the M source symbols it carries — into coeffs, which
// holds M bytes. It is called for indices >= M only.
type RowFunc func(index int, coeffs []byte)

// Decoder reconstructs one generation of a systematic linear code: packet
// i < M is source symbol i itself, and every later packet is a repair
// whose coefficients a RowFunc supplies — a row of the Vandermonde
// dispersal matrix (Coder.NewDecoder) or a rateless stream's combination
// (fountain.NewDecoder). It is the one decoder of both codecs. Not safe
// for concurrent use.
//
// Packets are held, not eliminated. A source is kept by reference and is
// readable the moment it arrives. A repair is kept with its index, and
// completion is decided on coefficients alone: the generation is complete
// once the held repairs, restricted to the columns of the missing
// sources, have full rank. The payload work runs once, on the first read
// that needs a missing symbol (Solve, Symbol or Raw): syndromes against
// the held sources, then one u×u inverse for the u missing symbols, each
// written into its row of the slots SolveInto named, or of a block of the
// decoder's own.
type Decoder struct {
	m, size int
	rows    RowFunc
	src     [][]byte   // held source symbols by index, nil while missing
	held    int        // non-nil entries of src
	repairs []Received // held repairs in ascending index order
	picked  []int      // positions in repairs of the rows the solve uses
	slots   []byte     // where the solve writes symbol i, at i·size; nil: a block of its own

	received int // distinct packets consumed before completion
	complete bool
	solved   bool     // every source symbol is readable
	raw      [][]byte // every source symbol, once a solve or Raw assembled them
}

// NewDecoder returns an empty decoder for m >= 1 source symbols of size
// bytes whose repair rows come from rows.
func NewDecoder(m, size int, rows RowFunc) *Decoder {
	return &Decoder{m: m, size: size, rows: rows, src: make([][]byte, m)}
}

// NewDecoder returns an empty decoder for one generation of this code
// with packets of size bytes.
func (c *Coder) NewDecoder(size int) *Decoder {
	return NewDecoder(c.m, size, c.row)
}

// row is the Coder's RowFunc: cooked packet index's dispersal row.
func (c *Coder) row(index int, coeffs []byte) { copy(coeffs, c.dispersal.Row(index)) }

// SolveInto has the solve write missing source symbol i into
// slots[i·size:(i+1)·size], M·size bytes whose rows are zero until their
// symbol is added or solved, instead of into a block of its own. A caller
// that Adds each source as its own row of slots ends up with every symbol
// in order in one buffer. Call it before the first read.
func (d *Decoder) SolveInto(slots []byte) {
	if len(slots) != d.m*d.size {
		panic(fmt.Sprintf("erasure: %d slot bytes for %d symbols of %d bytes", len(slots), d.m, d.size))
	}
	d.slots = slots
}

// Complete reports whether every source symbol can be read.
func (d *Decoder) Complete() bool { return d.complete }

// Decoded reports whether a read has made every source symbol readable.
func (d *Decoder) Decoded() bool { return d.solved }

// Received returns how many distinct packets were consumed before
// completion; Received − M is the reception overhead.
func (d *Decoder) Received() int { return d.received }

// Add holds packet index and returns how many source symbols it made
// readable. Duplicates and packets arriving after completion are no-ops,
// but for a source the solve has yet to write: it is held, so the solve
// leaves that row alone. The payload is held by reference: the caller
// must not modify it while the decoder lives.
func (d *Decoder) Add(index int, payload []byte) (int, error) {
	if len(payload) != d.size {
		return 0, fmt.Errorf("erasure: packet %d has %d bytes, want %d", index, len(payload), d.size)
	}
	if index < 0 {
		return 0, fmt.Errorf("erasure: packet index %d negative", index)
	}
	if d.complete {
		if index < d.m && d.src[index] == nil && !d.solved {
			d.src[index] = payload
			d.held++
		}
		return 0, nil
	}
	before := d.held
	if index < d.m {
		if d.src[index] != nil {
			return 0, nil
		}
		d.src[index] = payload
		d.held++
	} else {
		pos, dup := slices.BinarySearchFunc(d.repairs, index, byIndex)
		if dup {
			return 0, nil
		}
		if d.repairs == nil {
			// Room for as many repairs as the sources held so far leave
			// missing, in one allocation.
			d.repairs = slices.Grow(d.repairs, d.m-d.held)
		}
		d.repairs = slices.Insert(d.repairs, pos, Received{Index: index, Data: payload})
	}
	d.received++
	codecMetrics.packetsConsumed.Inc()
	if d.received >= d.m && d.spans() {
		d.finish()
		return d.m - before, nil
	}
	return d.held - before, nil
}

func byIndex(r Received, index int) int { return r.Index - index }

// spans reports whether the held repairs determine the missing sources,
// and picks the rows the solve will use: the repairs in index order, each
// kept when it is independent of those kept before it on the missing
// columns. It touches coefficient bytes only, never payload.
func (d *Decoder) spans() bool {
	u := d.m - d.held
	if u == 0 {
		return true
	}
	if len(d.repairs) < u {
		return false
	}
	// One allocation each for the byte and the index scratch. The kept
	// rows sit in basis in echelon form: each is 1 on its own pivot column
	// and 0 on the pivots of the rows kept before it, so reducing a
	// candidate by them in order clears every pivot.
	scratch := make([]byte, d.m+u*u)
	coeffs, basis := scratch[:d.m], scratch[d.m:]
	ints := make([]int, 3*u)
	missing, pivots, picked := d.missing(ints[:0:u]), ints[u:u:2*u], ints[2*u:2*u]
	for pos, r := range d.repairs {
		row := basis[len(pivots)*u : (len(pivots)+1)*u]
		d.rows(r.Index, coeffs)
		for i, c := range missing {
			row[i] = coeffs[c]
		}
		for b, p := range pivots {
			if f := row[p]; f != 0 {
				gf256.MulAddSlice(f, row, basis[b*u:(b+1)*u])
			}
		}
		p := slices.IndexFunc(row, func(v byte) bool { return v != 0 })
		if p < 0 {
			continue // dependent: the next candidate overwrites the slot
		}
		gf256.MulSlice(gf256.Inv(row[p]), row, row)
		pivots = append(pivots, p)
		picked = append(picked, pos)
		if len(pivots) == u {
			d.picked = picked
			return true
		}
	}
	return false
}

// missing appends the indices of the sources not held to dst, ascending.
func (d *Decoder) missing(dst []int) []int {
	for i, s := range d.src {
		if s == nil {
			dst = append(dst, i)
		}
	}
	return dst
}

// finish does the completion accounting, once.
func (d *Decoder) finish() {
	d.complete = true
	codecMetrics.packetsNeeded.Add(int64(d.m))
	codecMetrics.packetsRedundant.Add(int64(len(d.repairs) - len(d.picked)))
	if over := d.Received() - d.m; over > 0 {
		codecMetrics.overshootPackets.Add(int64(over))
		codecMetrics.overshootBytes.Add(int64(over * d.size))
	}
}

// Symbol returns source symbol i once it is readable and nil before: a
// held source at once, any other after completion, where the first such
// read runs the solve. The slice is the decoder's and must not be
// modified.
func (d *Decoder) Symbol(i int) []byte {
	if i < 0 || i >= d.m {
		return nil
	}
	if s := d.src[i]; s != nil || !d.complete {
		return s
	}
	if d.Solve() != nil {
		return nil
	}
	return d.raw[i]
}

// Solve makes every source symbol of a complete generation readable,
// solving for the missing ones on the first call; later calls do nothing.
// With every source held there is nothing to solve and nothing allocated.
func (d *Decoder) Solve() error {
	if d.solved {
		return nil
	}
	if !d.complete {
		return fmt.Errorf("%w: %d packets held do not span %d symbols", ErrShortSet, d.Received(), d.m)
	}
	if u := d.m - d.held; u > 0 {
		// Sources held since completion shrink the system the rows were
		// picked for; the spans then pick afresh.
		if len(d.picked) != u && !d.spans() {
			return fmt.Errorf("%w: held repairs no longer span %d symbols", ErrShortSet, u)
		}
		// Missing symbol i goes to row i of the slots, or to the next row
		// of a block of the decoder's own.
		rows, next := d.slots, 0
		if rows == nil {
			rows = make([]byte, u*d.size)
		}
		raw := make([][]byte, d.m)
		for i, s := range d.src {
			if s == nil {
				at := next
				if d.slots != nil {
					at = i
				}
				s = rows[at*d.size : (at+1)*d.size : (at+1)*d.size]
				next++
			}
			raw[i] = s
		}
		if err := d.solve(raw); err != nil {
			return err
		}
		d.raw = raw
	}
	d.solved = true
	return nil
}

// Raw returns all M source symbols of a complete generation, solving for
// the missing ones on the first call; later calls return the same slices.
// A held source is its payload as Add received it, not a copy; a solved
// one is its row of the SolveInto slots, or of the decoder's own block.
// None may be modified.
func (d *Decoder) Raw() ([][]byte, error) {
	if err := d.Solve(); err != nil {
		return nil, err
	}
	if d.raw == nil {
		d.raw = d.src // every source held: nothing was solved
	}
	return d.raw, nil
}

// solve fills the missing rows of raw, which hold zeros on entry, and
// only reads the others; the syndromes are scratch of its own. Picked
// repair k carries Σ_j C[k][j]·raw[j]; adding the held sources' terms to
// it leaves the syndrome
// Σ_i C[k][missing i]·raw[missing i], u equations in the u missing
// symbols, solved by one u×u inverse.
func (d *Decoder) solve(raw [][]byte) error {
	u := len(d.picked)
	if u == 0 {
		return nil
	}
	missing := d.missing(make([]int, 0, u))
	coeffs := make([]byte, d.m)
	sub := matrix.New(u, u)
	syndromes := allocPackets(u, d.size)
	for k, pos := range d.picked {
		d.rows(d.repairs[pos].Index, coeffs)
		// Move the missing columns into the system; zeroed, they drop out
		// of the syndrome sum, whose kernel skips zero coefficients.
		for i, c := range missing {
			sub.Row(k)[i], coeffs[c] = coeffs[c], 0
		}
		copy(syndromes[k], d.repairs[pos].Data)
		gf256.MulAddRows(coeffs, syndromes[k], raw)
	}
	inv, err := sub.Invert()
	if err != nil {
		return err
	}
	for i, c := range missing {
		gf256.MulAddRows(inv.Row(i), raw[c], syndromes)
	}
	return nil
}
