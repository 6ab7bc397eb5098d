package transport

import (
	"bytes"
	"testing"

	"mobweb/internal/corpus"
	"mobweb/internal/document"
	"mobweb/internal/erasure"
	"mobweb/internal/markup"
	"mobweb/internal/obs"
	"mobweb/internal/search"
	"mobweb/internal/textproc"
)

// editedDraft is the draft document with its first "mobile" changed to
// "nobile": the same length, the same units, other content — the edit
// that the geometry alone cannot tell from the original.
func editedDraft(t *testing.T) *document.Document {
	t.Helper()
	raw, err := corpus.Raw(corpus.DraftName)
	if err != nil {
		t.Fatal(err)
	}
	edited := bytes.Replace(raw, []byte("mobile"), []byte("nobile"), 1)
	if bytes.Equal(edited, raw) {
		t.Fatal("the draft has no \"mobile\" to edit")
	}
	doc, err := markup.ParseXML(bytes.NewReader(edited), corpus.DraftName, markup.DefaultTagMap())
	if err != nil {
		t.Fatal(err)
	}
	return doc
}

// editedCorpusEngine indexes the corpus with editedDraft in place of the
// draft.
func editedCorpusEngine(t *testing.T) (*search.Engine, *document.Document) {
	t.Helper()
	engine := search.NewEngine(textproc.Options{})
	docs, err := corpus.LoadAll()
	if err != nil {
		t.Fatal(err)
	}
	edited := editedDraft(t)
	for _, d := range docs {
		if d.Name == corpus.DraftName {
			d = edited
		}
		if err := engine.Add(d); err != nil {
			t.Fatal(err)
		}
	}
	return engine, edited
}

// TestStoreDriftRefetchesEditedDocument: a client prefetches ten frames
// of the draft from server A into a store; a second process life on that
// store fetches from server B, whose draft is edited to the same length.
// The stored packets are A's content, so the layout's seed (the content
// digest) differs, the store seed is dropped, and the fetch returns B's
// exact body — never A's packets decoded into a wrong body with a nil
// error. The request names the seed its Have list belongs to, so B
// ignores that list and sends every source packet of its own body, and
// the result — and the timeline with it — counts none of A's packets as
// stored.
func TestStoreDriftRefetchesEditedDocument(t *testing.T) {
	for _, codec := range []erasure.CodecID{erasure.CodecVandermonde, erasure.CodecFountain} {
		t.Run(codec.String(), func(t *testing.T) {
			addrA := startServerAddr(t, ServerOptions{})
			engineB, docB := editedCorpusEngine(t)
			addrB := serveEngine(t, engineB, ServerOptions{})
			dir := t.TempDir()
			opts := FetchOptions{Doc: corpus.DraftName, Caching: true, Codec: codec}

			c1 := dialWithStore(t, addrA, dir)
			if _, err := c1.Prefetch(opts, 10); err != nil {
				t.Fatal(err)
			}
			c1.Close()
			c1.Store.Close()

			c2 := dialWithStore(t, addrB, dir)
			tr := obs.NewTrace(0)
			traced := opts
			traced.Trace = tr
			res, err := c2.Fetch(traced)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(res.Body, docB.Body()) {
				t.Fatalf("fetch from the edited server returned a body that is not its document (stored %d packets of the original)", res.StoredPackets)
			}
			if res.StoredPackets != 0 {
				t.Errorf("the fetch counts %d packets of the original document as stored", res.StoredPackets)
			}
			// The timeline agrees: its last store-seed event (none reads
			// as zero) carries the packets the fetch counts as stored.
			seeded := 0
			for _, ev := range tr.Events() {
				if ev.Type == obs.EventStoreSeed {
					seeded = ev.N
				}
			}
			if seeded != res.StoredPackets {
				t.Errorf("the timeline's store seed reads %d packets, the result %d", seeded, res.StoredPackets)
			}
			srvB, err := NewServer(engineB, ServerOptions{})
			if err != nil {
				t.Fatal(err)
			}
			layout, err := srvB.Layout(opts)
			if err != nil {
				t.Fatal(err)
			}
			onWire := make(map[int]bool)
			for _, ev := range tr.Events() {
				if ev.Type == obs.EventPacket {
					onWire[ev.Seq] = true
				}
			}
			missing := 0
			for g, shape := range layout.Shapes {
				for i := 0; i < shape.M; i++ {
					if seq, _ := layout.WireSeq(g, i); !onWire[seq] {
						missing++
					}
				}
			}
			if missing > 0 {
				t.Errorf("%d of the edited body's %d source packets never came over the wire: the server skipped them for the original's Have list", missing, layout.M())
			}
		})
	}
}

// TestSeedIsTheContentDigest: two servers over the same corpus hand out
// the same seed for the same request under both codecs, with no setting
// shared between them, and a one-word edit of the document changes it.
func TestSeedIsTheContentDigest(t *testing.T) {
	newServer := func(engine *search.Engine) *Server {
		srv, err := NewServer(engine, ServerOptions{})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { srv.Close() })
		return srv
	}
	engineB, _ := editedCorpusEngine(t)
	a, b, edited := newServer(corpusEngine(t)), newServer(corpusEngine(t)), newServer(engineB)
	for _, codec := range []erasure.CodecID{erasure.CodecVandermonde, erasure.CodecFountain} {
		opts := FetchOptions{Doc: corpus.DraftName, Query: "mobile web", Codec: codec}
		la, err := a.Layout(opts)
		if err != nil {
			t.Fatal(err)
		}
		lb, err := b.Layout(opts)
		if err != nil {
			t.Fatal(err)
		}
		le, err := edited.Layout(opts)
		if err != nil {
			t.Fatal(err)
		}
		if la.Codec != codec || la.Seed == 0 || la.Seed != lb.Seed {
			t.Errorf("%v: servers over one corpus hand out seeds %#x and %#x", codec, la.Seed, lb.Seed)
		}
		if le.BodySize != la.BodySize || le.Seed == la.Seed {
			t.Errorf("%v: the edited document (%d B) keeps seed %#x of the original (%d B)", codec, le.BodySize, le.Seed, la.BodySize)
		}
		if la.SameStream(le) == nil {
			t.Errorf("%v: the edited document's layout passes as the same stream", codec)
		}
	}
}
