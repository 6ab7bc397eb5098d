// Command scgen computes the structural characteristic of a document:
// per-unit IC, QIC and MQIC for a query — the computation behind Table 1.
//
// Usage:
//
//	scgen -query "browsing mobile web"             # embedded draft
//	scgen -file paper.xml -query "erasure codes"   # any XML/HTML file
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"mobweb/internal/content"
	"mobweb/internal/corpus"
	"mobweb/internal/document"
	"mobweb/internal/figures"
	"mobweb/internal/markup"
	"mobweb/internal/textproc"
)

func main() {
	if err := run(os.Stdout, os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "scgen:", err)
		os.Exit(1)
	}
}

// options is scgen's command line.
type options struct {
	file, query string
	minFreq     int
}

// newFlagSet binds scgen's flags to o; DESIGN.md §22 lists each one.
func newFlagSet(o *options) *flag.FlagSet {
	fs := flag.NewFlagSet("scgen", flag.ContinueOnError)
	fs.StringVar(&o.file, "file", "", "XML or HTML document (default: the embedded draft manuscript)")
	fs.StringVar(&o.query, "query", "browsing mobile web", "keyword query for QIC/MQIC")
	fs.IntVar(&o.minFreq, "minfreq", 1, "minimum keyword frequency")
	return fs
}

func run(w io.Writer, args []string) error {
	var o options
	if err := newFlagSet(&o).Parse(args); errors.Is(err, flag.ErrHelp) {
		return nil
	} else if err != nil {
		return err
	}

	doc, err := loadDoc(o.file)
	if err != nil {
		return err
	}
	idx, err := textproc.BuildIndex(doc, textproc.Options{MinFrequency: o.minFreq})
	if err != nil {
		return err
	}
	sc, err := content.Build(doc, idx)
	if err != nil {
		return err
	}
	qv := textproc.QueryVector(o.query)
	scores := sc.Evaluate(qv)

	t := figures.Table{
		Title:  fmt.Sprintf("Structural characteristic of %s (Q = {%s})", doc.Name, o.query),
		Header: []string{"Unit", "Level", "Title", "IC p", "QIC qQ", "MQIC q~Q"},
	}
	doc.Root.Walk(func(u *document.Unit) bool {
		label := u.Label
		if u.Level == document.LODDocument {
			label = "(document)"
		}
		t.Rows = append(t.Rows, []string{
			label,
			u.Level.String(),
			truncate(u.Title, 28),
			fmt.Sprintf("%.5f", scores.IC[u.ID]),
			fmt.Sprintf("%.5f", scores.QIC[u.ID]),
			fmt.Sprintf("%.5f", scores.MQIC[u.ID]),
		})
		return true
	})
	if err := figures.WriteTable(w, t); err != nil {
		return err
	}
	fmt.Fprintf(w, "\n%d keywords, %d units, %d bytes\n", len(idx.Keywords()), len(doc.Units()), doc.Size())
	return nil
}

func loadDoc(file string) (*document.Document, error) {
	if file == "" {
		return corpus.Load(corpus.DraftName)
	}
	data, err := os.ReadFile(file)
	if err != nil {
		return nil, err
	}
	if strings.HasSuffix(file, ".html") || strings.HasSuffix(file, ".htm") {
		return markup.ParseHTML(strings.NewReader(string(data)), file)
	}
	return markup.ParseXML(strings.NewReader(string(data)), file, markup.DefaultTagMap())
}

func truncate(s string, n int) string {
	if len(s) <= n {
		return s
	}
	return s[:n-1] + "…"
}
