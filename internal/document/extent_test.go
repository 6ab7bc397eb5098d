package document_test

import (
	"bytes"
	"testing"

	"mobweb/internal/corpus"
	"mobweb/internal/document"
)

// wholeBody is the whole-body renderer Body was before extents rendered
// themselves: a field of spaces with every unit's text, and a newline
// after it, written at the unit's offset. It is the oracle the extent
// renderer is held to.
func wholeBody(d *document.Document) []byte {
	buf := make([]byte, d.Size())
	for i := range buf {
		buf[i] = ' '
	}
	d.Root.Walk(func(u *document.Unit) bool {
		if u.Text != "" {
			copy(buf[u.Start:], u.Text)
			if u.Start+len(u.Text) < len(buf) {
				buf[u.Start+len(u.Text)] = '\n'
			}
		}
		return true
	})
	return buf
}

// TestExtentsRenderTheBody: for every bundled document and every LOD, each
// unit renders exactly its slice of the whole body, the partition's
// extents appended in document order are the whole body, and Body is the
// whole body.
func TestExtentsRenderTheBody(t *testing.T) {
	docs, err := corpus.LoadAll()
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range docs {
		want := wholeBody(d)
		if got := d.Body(); !bytes.Equal(got, want) {
			t.Fatalf("%s: Body differs from the whole-body renderer", d.Name)
		}
		for _, lod := range document.AllLODs() {
			units, err := d.UnitsAt(lod)
			if err != nil {
				t.Fatal(err)
			}
			var got []byte
			for _, u := range units {
				if ext := u.AppendBody(nil); !bytes.Equal(ext, want[u.Start:u.End]) {
					t.Fatalf("%s at %v: unit %q renders %q, want %q", d.Name, lod, u.Label, ext, want[u.Start:u.End])
				}
				got = u.AppendBody(got)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("%s at %v: %d units render %d bytes that differ from the %d-byte body", d.Name, lod, len(units), len(got), len(want))
			}
		}
	}
}

// TestAppendBodyKeepsPrefix: appending an extent leaves what dst held.
func TestAppendBodyKeepsPrefix(t *testing.T) {
	d, err := corpus.Load(corpus.DraftName)
	if err != nil {
		t.Fatal(err)
	}
	u := d.Paragraphs()[3]
	got := u.AppendBody([]byte("prefix"))
	if !bytes.HasPrefix(got, []byte("prefix")) || !bytes.Equal(got[6:], d.Body()[u.Start:u.End]) {
		t.Errorf("AppendBody onto a prefix = %q", got)
	}
}
