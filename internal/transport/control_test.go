package transport

import (
	"bufio"
	"bytes"
	"io"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"

	"mobweb/internal/core"
	"mobweb/internal/corpus"
	"mobweb/internal/erasure"
)

// writeRecordTo writes one Request or Response record to w and flushes
// it, for tests that speak the protocol by hand.
func writeRecordTo(w io.Writer, msg any) error {
	bw := bufio.NewWriter(w)
	var err error
	switch m := msg.(type) {
	case Request:
		err = WriteRequest(bw, m)
	case Response:
		_, err = writeResponse(bw, &m)
	default:
		panic("writeRecordTo: not a control message")
	}
	if err != nil {
		return err
	}
	return bw.Flush()
}

// readReq is readRequest without the byte count.
func readReq(r *bufio.Reader) (Request, error) {
	req, _, err := readRequest(r)
	return req, err
}

// record is writeRecordTo into a fresh slice.
func record(t testing.TB, msg any) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := writeRecordTo(&buf, msg); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// fillRandom sets every settable field reachable from v to a random
// non-zero value: strings of any bytes, ints of either sign, float bits
// other than NaN, non-empty ascending int lists, non-empty slices of
// filled structs, and pointers to filled values.
func fillRandom(rng *rand.Rand, v reflect.Value) {
	switch v.Kind() {
	case reflect.String:
		b := make([]byte, 1+rng.Intn(12))
		rng.Read(b)
		v.SetString(string(b))
	case reflect.Int, reflect.Int64:
		n := rng.Int63() >> rng.Intn(63)
		if n == 0 {
			n = 1
		}
		if rng.Intn(3) == 0 {
			n = -n
		}
		v.SetInt(n)
	case reflect.Uint8, reflect.Uint64:
		v.SetUint(1 + uint64(rng.Int63n(1<<7))<<uint(rng.Intn(v.Type().Bits()-7)))
	case reflect.Float64:
		f := rng.NormFloat64() * math.Pow(10, float64(rng.Intn(20)-10))
		if rng.Intn(10) == 0 {
			f = math.Inf(1)
		}
		v.SetFloat(f)
	case reflect.Bool:
		v.SetBool(true)
	case reflect.Slice:
		n := 1 + rng.Intn(5)
		s := reflect.MakeSlice(v.Type(), n, n)
		for i := 0; i < n; i++ {
			fillRandom(rng, s.Index(i))
		}
		if ints, ok := s.Interface().([]int); ok {
			slices.Sort(ints) // Have and DoneGens are ascending on the wire
		}
		v.Set(s)
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			if v.Type().Field(i).IsExported() {
				fillRandom(rng, v.Field(i))
			}
		}
	case reflect.Pointer:
		p := reflect.New(v.Type().Elem())
		fillRandom(rng, p.Elem())
		v.Set(p)
	default:
		panic("fillRandom: no generator for " + v.Type().String())
	}
}

// zeroSome zeroes each exported field of the struct v with probability
// one half, so the round trip covers absent fields as well as present ones.
func zeroSome(rng *rand.Rand, v reflect.Value) {
	for i := 0; i < v.NumField(); i++ {
		if v.Type().Field(i).IsExported() && rng.Intn(2) == 0 {
			v.Field(i).SetZero()
		}
	}
}

// TestControlRoundTrip: every exported field of Request and Response —
// walked by reflection, so a field added to either type and forgotten by
// the codec fails here — survives a record round trip, alone or beside
// any mix of the others, under every op.
func TestControlRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	ops := []string{"search", "fetch", "stop", "stopgen", "more", "", "bogus"}
	for trial := 0; trial < 2000; trial++ {
		var req Request
		fillRandom(rng, reflect.ValueOf(&req).Elem())
		if trial%2 == 1 {
			zeroSome(rng, reflect.ValueOf(&req).Elem())
		}
		if trial%4 != 3 { // a quarter keep a random op name
			req.Op = ops[rng.Intn(len(ops))]
		}
		got, err := readReq(bufio.NewReader(bytes.NewReader(record(t, req))))
		if err != nil || !reflect.DeepEqual(got, req) {
			t.Fatalf("request round trip:\n got %+v, %v\nwant %+v", got, err, req)
		}

		var resp Response
		fillRandom(rng, reflect.ValueOf(&resp).Elem())
		if trial%2 == 1 {
			zeroSome(rng, reflect.ValueOf(&resp).Elem())
		}
		back, err := ReadResponse(bufio.NewReader(bytes.NewReader(record(t, resp))))
		if err != nil || !reflect.DeepEqual(back, resp) {
			t.Fatalf("response round trip:\n got %+v, %v\nwant %+v", back, err, resp)
		}
	}
}

// TestControlRecordShapes pins what the records cost on the wire: the
// feedback a stream carries takes a few bytes, a fetch header carries its
// layout raw, and a list costs its distances.
func TestControlRecordShapes(t *testing.T) {
	for _, tc := range []struct {
		req  Request
		want int
	}{
		{Request{Op: "stop"}, 3},
		{Request{Op: "stopgen", Gen: 3}, 4},
		{Request{Op: "more", Frames: 100}, 4},
		// size, kind, two field-bit bytes, count, first value, 9 distances
		{Request{Op: "fetch", Have: []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}}, 15},
	} {
		if got := len(record(t, tc.req)); got != tc.want {
			t.Errorf("%+v: %d bytes, want %d", tc.req, got, tc.want)
		}
	}
	layout := draftLayout(t)
	bin, err := layout.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	rec := record(t, Response{OK: true, Layout: &layout, Sending: layout.N()})
	if !bytes.HasSuffix(rec, bin) || len(rec) > len(bin)+8 {
		t.Errorf("a %d-byte header record does not end in the %d-byte layout", len(rec), len(bin))
	}
	var buf bytes.Buffer
	w := bufio.NewWriter(&buf)
	if err := WriteRequest(w, Request{Op: "fetch", Have: []int{4, 2}}); err == nil {
		t.Error("a descending Have list was written")
	}
}

// draftLayout is the layout of the draft document at the server's
// defaults.
func draftLayout(t *testing.T) core.Layout {
	t.Helper()
	srv, err := NewServer(corpusEngine(t), ServerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	layout, err := srv.Layout(FetchOptions{Doc: corpus.DraftName})
	if err != nil {
		t.Fatal(err)
	}
	return layout
}

// TestControlRecordsAllocationFree: on the live path a control record is
// encoded in the connection's write buffer and a feedback record decoded
// in its read buffer, so neither costs an allocation: not a fetch request,
// not a fetch header (the server's, whose layout bytes the planner holds,
// or the front's, which encodes the layout it decoded), not a stop,
// stopgen or more on either side.
func TestControlRecordsAllocationFree(t *testing.T) {
	layout := draftLayout(t)
	bin, err := layout.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	w := bufio.NewWriter(io.Discard)
	fetch := Request{Op: "fetch", Doc: corpus.DraftName, Query: "mobile web", LOD: "paragraph", Gamma: 1.5,
		Codec: "fountain", Have: []int{1, 5, 9}, DoneGens: []int{0}, Seed: layout.Seed}
	hdr := Response{OK: true, Layout: &layout, layoutBin: bin, Sending: layout.N(), Replica: "r1"}
	relayed := Response{OK: true, Layout: &layout, Sending: layout.N()}
	for name, write := range map[string]func() error{
		"fetch request":  func() error { _, err := writeRequest(w, &fetch); return err },
		"stopgen":        func() error { return WriteRequest(w, Request{Op: "stopgen", Gen: 2}) },
		"header":         func() error { _, err := writeResponse(w, &hdr); return err },
		"relayed header": func() error { _, err := writeResponse(w, &relayed); return err },
	} {
		if n := testing.AllocsPerRun(100, func() {
			// A record starts a flushed buffer on the live path: the one
			// before it, or the stream's end marker, was flushed.
			w.Flush()
			if err := write(); err != nil {
				t.Fatal(err)
			}
		}); n != 0 {
			t.Errorf("writing a %s allocates %v times, want 0", name, n)
		}
	}

	var wire []byte
	feedback := []Request{{Op: "stop"}, {Op: "stopgen", Gen: 7}, {Op: "more", Frames: 40}}
	for i := 0; i < 101; i++ {
		wire = append(wire, record(t, feedback[i%3])...)
	}
	r := bufio.NewReader(bytes.NewReader(wire))
	i := 0
	if n := testing.AllocsPerRun(100, func() {
		req, err := readReq(r)
		if want := feedback[i%3]; err != nil || req.Op != want.Op || req.Gen != want.Gen || req.Frames != want.Frames {
			t.Fatalf("read %+v, %v, want %+v", req, err, want)
		}
		i++
	}); n != 0 {
		t.Errorf("reading stop, stopgen and more allocates %v times, want 0", n)
	}
}

// TestReadRecordCutAnywhere: a request stream cut at any byte reads
// every whole record before the cut, then io.EOF at a record boundary and
// io.ErrUnexpectedEOF inside a record — whether its body sits in the
// reader's buffer or is longer than it.
func TestReadRecordCutAnywhere(t *testing.T) {
	reqs := []Request{
		{Op: "fetch", Doc: corpus.DraftName, Have: []int{3, 4, 90}},
		{Op: "stop"},
		{Op: "search", Query: strings.Repeat("q", 40)}, // longer than the 16-byte reader buffer
		{Op: "more", Frames: 300},
	}
	var wire []byte
	var ends []int
	for _, req := range reqs {
		wire = append(wire, record(t, req)...)
		ends = append(ends, len(wire))
	}
	for cut := 0; cut <= len(wire); cut++ {
		r := bufio.NewReaderSize(bytes.NewReader(wire[:cut]), 16)
		n := 0
		var err error
		for {
			var req Request
			if req, err = readReq(r); err != nil {
				break
			}
			if !reflect.DeepEqual(req, reqs[n]) {
				t.Fatalf("cut at %d: record %d is %+v, want %+v", cut, n, req, reqs[n])
			}
			n++
		}
		wantN := 0
		for wantN < len(ends) && ends[wantN] <= cut {
			wantN++
		}
		wantErr := io.EOF
		if wantN == 0 && cut > 0 || wantN > 0 && ends[wantN-1] != cut {
			wantErr = io.ErrUnexpectedEOF
		}
		if n != wantN || err != wantErr {
			t.Fatalf("cut at %d: read %d records then %v, want %d then %v", cut, n, err, wantN, wantErr)
		}
	}
}

// TestControlRecordCodecs: what the header names travels as the header
// names it, a fountain layout's seed and codec included.
func TestControlRecordCodecs(t *testing.T) {
	srv, err := NewServer(corpusEngine(t), ServerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for _, codec := range []erasure.CodecID{erasure.CodecVandermonde, erasure.CodecFountain} {
		hdr, src, end := srv.backend.Fetch(Request{Op: "fetch", Doc: corpus.DraftName, Codec: codec.String()})
		if src == nil {
			t.Fatalf("%v: fetch refused: %s", codec, hdr.Error)
		}
		end(0, nil)
		back, err := ReadResponse(bufio.NewReader(bytes.NewReader(record(t, hdr))))
		if err != nil || !reflect.DeepEqual(*back.Layout, *hdr.Layout) || back.Layout.Codec != codec {
			t.Errorf("%v: header read back as %+v, %v", codec, back.Layout, err)
		}
	}
}
