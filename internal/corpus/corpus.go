// Package corpus embeds the sample document collection used by the
// server, scgen, the Table 1 regenerator and the tests. The
// centerpiece is draft.xml, a reconstruction of the paper's own early
// draft whose structural characteristic Table 1 tabulates.
package corpus

import (
	"bytes"
	"embed"
	"fmt"
	"io/fs"
	"sort"
	"strings"

	"mobweb/internal/document"
	"mobweb/internal/markup"
)

//go:embed *.xml *.html
var files embed.FS

// DraftName is the name of the embedded draft manuscript.
const DraftName = "draft.xml"

// Names lists the embedded document names, sorted.
func Names() []string {
	entries, err := fs.ReadDir(files, ".")
	if err != nil {
		// The embedded FS is compiled in; a read failure is impossible
		// short of a toolchain bug.
		panic(err)
	}
	names := make([]string, 0, len(entries))
	for _, e := range entries {
		names = append(names, e.Name())
	}
	sort.Strings(names)
	return names
}

// Raw returns the raw bytes of an embedded document.
func Raw(name string) ([]byte, error) {
	data, err := files.ReadFile(name)
	if err != nil {
		return nil, fmt.Errorf("corpus: %w", err)
	}
	return data, nil
}

// Load parses an embedded document into the structured model, choosing
// the XML or HTML parser by extension.
func Load(name string) (*document.Document, error) {
	data, err := Raw(name)
	if err != nil {
		return nil, err
	}
	switch {
	case strings.HasSuffix(name, ".xml"):
		return markup.ParseXML(bytes.NewReader(data), name, markup.DefaultTagMap())
	case strings.HasSuffix(name, ".html"):
		return markup.ParseHTML(bytes.NewReader(data), name)
	default:
		return nil, fmt.Errorf("corpus: unsupported extension in %q", name)
	}
}

// LoadAll parses every embedded document.
func LoadAll() ([]*document.Document, error) {
	names := Names()
	docs := make([]*document.Document, 0, len(names))
	for _, n := range names {
		d, err := Load(n)
		if err != nil {
			return nil, err
		}
		docs = append(docs, d)
	}
	return docs, nil
}
