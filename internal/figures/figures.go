// Package figures regenerates every table and figure of the paper's
// evaluation: Table 1 (per-unit IC/QIC/MQIC of the draft manuscript),
// Table 2 (parameter settings), Figure 2 (cooked packets vs raw packets),
// Figure 3 (redundancy ratio vs failure probability), Figure 4 (Caching
// vs NoCaching over γ), Figure 5 (varying I and F), Figure 6 (LOD
// improvement), and Figure 7 (skew impact). The same entry points back
// the mrtfigures binary and the root benchmark suite.
package figures

import (
	"fmt"
	"io"
	"strconv"
	"strings"

	"mobweb/internal/content"
	"mobweb/internal/corpus"
	"mobweb/internal/document"
	"mobweb/internal/nbinom"
	"mobweb/internal/sim"
	"mobweb/internal/textproc"
)

// Table is a rendered table: a title, a header row, and data rows.
type Table struct {
	Title  string
	Header []string
	Rows   [][]string
}

// Series is one labeled curve of a figure.
type Series struct {
	Label string
	X, Y  []float64
}

// Figure is a set of curves sharing axes.
type Figure struct {
	Title  string
	XLabel string
	YLabel string
	Series []Series
}

// SimScale shrinks the simulation workload relative to the paper's 200
// documents × 50 repetitions so figures regenerate in reasonable time.
type SimScale struct {
	// Documents per session; the paper uses 200.
	Documents int
	// Repetitions averaged; the paper uses 50.
	Repetitions int
	// Seed drives all randomness.
	Seed int64
}

// DefaultScale balances fidelity and runtime (~seconds per figure).
func DefaultScale() SimScale {
	return SimScale{Documents: 60, Repetitions: 5, Seed: 1}
}

func (s SimScale) apply(p *sim.Params) {
	p.Documents = s.Documents
	p.Repetitions = s.Repetitions
	p.Seed = s.Seed
}

// Table1 recomputes the draft manuscript's structural characteristic with
// the paper's query Q = {browsing, mobile, web}: IC, QIC and MQIC per
// organizational unit.
func Table1() (Table, error) {
	doc, err := corpus.Load(corpus.DraftName)
	if err != nil {
		return Table{}, err
	}
	idx, err := textproc.BuildIndex(doc, textproc.Options{})
	if err != nil {
		return Table{}, err
	}
	sc, err := content.Build(doc, idx)
	if err != nil {
		return Table{}, err
	}
	q := textproc.QueryVector("browsing mobile web")
	scores := sc.Evaluate(q)

	t := Table{
		Title:  "Table 1: Information content of the draft manuscript (Q = {browsing, mobile, web})",
		Header: []string{"Sect./Subsect./Para.", "IC p", "QIC qQ", "MQIC q~Q"},
	}
	doc.Root.Walk(func(u *document.Unit) bool {
		if u.Level == document.LODDocument {
			return true
		}
		t.Rows = append(t.Rows, []string{
			u.Label,
			fmt.Sprintf("%.5f", scores.IC[u.ID]),
			fmt.Sprintf("%.5f", scores.QIC[u.ID]),
			fmt.Sprintf("%.5f", scores.MQIC[u.ID]),
		})
		return true
	})
	return t, nil
}

// Table2 lists the default experimental parameter settings.
func Table2() Table {
	p := sim.DefaultParams()
	return Table{
		Title:  "Table 2: Parameter settings",
		Header: []string{"Parameter", "Description", "Value"},
		Rows: [][]string{
			{"sp", "Raw size per packet", strconv.Itoa(p.PacketSize)},
			{"sD", "Size per document", strconv.Itoa(p.Doc.SizeBytes)},
			{"O", "Overhead (CRC+sequence number)", "4"},
			{"M", "Number of raw packets", strconv.Itoa(p.Doc.SizeBytes / p.PacketSize)},
			{"N", "Number of cooked packets", strconv.Itoa(int(float64(p.Doc.SizeBytes/p.PacketSize) * p.Gamma))},
			{"B", "Bandwidth (kbps)", fmt.Sprintf("%.1f", p.BandwidthBPS/1000)},
			{"delta", "Skewed factor in information content", fmt.Sprintf("%.0f", p.Doc.Skew)},
			{"I", "Irrelevant documents", fmt.Sprintf("%.0f%%", p.Irrelevant*100)},
			{"F", "Info content to determine relevance", fmt.Sprintf("%.1f", p.Threshold)},
			{"alpha", "Probability of a corrupted packet", fmt.Sprintf("%.1f", p.Alpha)},
			{"gamma", "Redundancy ratio N/M", fmt.Sprintf("%.1f", p.Gamma)},
		},
	}
}

// Figure2 computes the minimal cooked packets N against raw packets M for
// each α, at the given success probability (panels a and b use S = 95%
// and 99%).
func Figure2(successProb float64) (Figure, error) {
	alphas := []float64{0.1, 0.2, 0.3, 0.4, 0.5}
	f := Figure{
		Title:  fmt.Sprintf("Figure 2: cooked packets needed (S = %.0f%%)", successProb*100),
		XLabel: "Raw packets (M)",
		YLabel: "Cooked packets (N)",
	}
	for _, alpha := range alphas {
		s := Series{Label: fmt.Sprintf("alpha=%.1f", alpha)}
		for m := 10; m <= 100; m += 10 {
			n, err := nbinom.MinCooked(m, alpha, successProb)
			if err != nil {
				return Figure{}, err
			}
			s.X = append(s.X, float64(m))
			s.Y = append(s.Y, float64(n))
		}
		f.Series = append(f.Series, s)
	}
	return f, nil
}

// Figure3 computes the redundancy ratio γ versus failure probability α
// for S ∈ {95%, 99%} at M = 50, plus the M = 10 and M = 100 envelopes.
func Figure3() (Figure, error) {
	f := Figure{
		Title:  "Figure 3: redundancy ratio versus failure probability",
		XLabel: "Failure probability (alpha)",
		YLabel: "Redundancy ratio (gamma)",
	}
	for _, cfg := range []struct {
		label string
		m     int
		s     float64
	}{
		{"S=95% M=50", 50, 0.95},
		{"S=99% M=50", 50, 0.99},
		{"S=95% M=10", 10, 0.95},
		{"S=95% M=100", 100, 0.95},
		{"S=99% M=10", 10, 0.99},
		{"S=99% M=100", 100, 0.99},
	} {
		s := Series{Label: cfg.label}
		for alpha := 0.1; alpha <= 0.51; alpha += 0.1 {
			g, err := nbinom.RedundancyRatio(cfg.m, alpha, cfg.s)
			if err != nil {
				return Figure{}, err
			}
			s.X = append(s.X, alpha)
			s.Y = append(s.Y, g)
		}
		f.Series = append(f.Series, s)
	}
	return f, nil
}

// Figure4 sweeps the redundancy ratio γ for each α, in four panels:
// (NoCaching, Caching) × (I=0, I=0.5). It returns the panels in the
// paper's order a-d.
func Figure4(scale SimScale) ([]Figure, error) {
	gammas := []float64{1.1, 1.3, 1.5, 1.7, 1.9, 2.1, 2.3, 2.5}
	alphas := []float64{0.1, 0.2, 0.3, 0.4, 0.5}
	panels := []struct {
		caching    bool
		irrelevant float64
		title      string
	}{
		{false, 0, "Figure 4a: NoCaching (I=0)"},
		{true, 0, "Figure 4b: Caching (I=0)"},
		{false, 0.5, "Figure 4c: NoCaching (I=0.5)"},
		{true, 0.5, "Figure 4d: Caching (I=0.5)"},
	}
	out := make([]Figure, 0, len(panels))
	for _, panel := range panels {
		f := Figure{
			Title:  panel.title,
			XLabel: "Redundancy ratio (gamma)",
			YLabel: "Response time (sec)",
		}
		for _, alpha := range alphas {
			s := Series{Label: fmt.Sprintf("alpha=%.1f", alpha)}
			for _, gamma := range gammas {
				p := sim.DefaultParams()
				scale.apply(&p)
				p.Alpha = alpha
				p.Gamma = gamma
				p.Caching = panel.caching
				p.Irrelevant = panel.irrelevant
				res, err := sim.Run(p)
				if err != nil {
					return nil, err
				}
				s.X = append(s.X, gamma)
				s.Y = append(s.Y, res.MeanResponseTime)
			}
			f.Series = append(f.Series, s)
		}
		out = append(out, f)
	}
	return out, nil
}

// Figure5 sweeps I at F=0.5 (top row) and F at I=0.5 (bottom row), for
// NoCaching and Caching.
func Figure5(scale SimScale) ([]Figure, error) {
	alphas := []float64{0.1, 0.2, 0.3, 0.4, 0.5}
	var out []Figure
	for _, panel := range []struct {
		caching bool
		varyI   bool
		title   string
	}{
		{false, true, "Figure 5a: NoCaching (F=0.5), varying I"},
		{true, true, "Figure 5b: Caching (F=0.5), varying I"},
		{false, false, "Figure 5c: NoCaching (I=0.5), varying F"},
		{true, false, "Figure 5d: Caching (I=0.5), varying F"},
	} {
		f := Figure{
			Title:  panel.title,
			YLabel: "Response time (sec)",
		}
		if panel.varyI {
			f.XLabel = "Irrelevant documents (I)"
		} else {
			f.XLabel = "Information content (F)"
		}
		for _, alpha := range alphas {
			s := Series{Label: fmt.Sprintf("alpha=%.1f", alpha)}
			for x := 0.0; x <= 1.001; x += 0.1 {
				p := sim.DefaultParams()
				scale.apply(&p)
				p.Alpha = alpha
				p.Caching = panel.caching
				if panel.varyI {
					p.Irrelevant = x
					p.Threshold = 0.5
				} else {
					p.Irrelevant = 0.5
					p.Threshold = x
				}
				res, err := sim.Run(p)
				if err != nil {
					return nil, err
				}
				s.X = append(s.X, x)
				s.Y = append(s.Y, res.MeanResponseTime)
			}
			f.Series = append(f.Series, s)
		}
		out = append(out, f)
	}
	return out, nil
}

// Figure6 computes the response-time improvement of each LOD over the
// document LOD as F varies, with all documents irrelevant (I=1) and
// Caching, at α ∈ {0.1, 0.3, 0.5}.
func Figure6(scale SimScale) ([]Figure, error) {
	return lodImprovement(scale, []float64{0.1, 0.3, 0.5}, 3,
		"Figure 6%c: Caching (I=1, alpha=%.1f)")
}

// Figure7 repeats Figure 6's α=0.1 panel for skew δ ∈ {2, 3, 4, 5}.
func Figure7(scale SimScale) ([]Figure, error) {
	var out []Figure
	for i, skew := range []float64{2, 3, 4, 5} {
		figs, err := lodImprovementWithSkew(scale, 0.1, skew,
			fmt.Sprintf("Figure 7%c: Caching (delta=%.0f, alpha=0.1)", 'a'+rune(i), skew))
		if err != nil {
			return nil, err
		}
		out = append(out, figs)
	}
	return out, nil
}

func lodImprovement(scale SimScale, alphas []float64, skew float64, titleFmt string) ([]Figure, error) {
	var out []Figure
	for i, alpha := range alphas {
		f, err := lodImprovementWithSkew(scale, alpha, skew,
			fmt.Sprintf(titleFmt, 'a'+rune(i), alpha))
		if err != nil {
			return nil, err
		}
		out = append(out, f)
	}
	return out, nil
}

func lodImprovementWithSkew(scale SimScale, alpha, skew float64, title string) (Figure, error) {
	f := Figure{
		Title:  title,
		XLabel: "Information content (F)",
		YLabel: "Improvement",
	}
	lods := []document.LOD{
		document.LODDocument,
		document.LODSection,
		document.LODSubsection,
		document.LODParagraph,
	}
	thresholds := []float64{0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1}

	// Compute the document-LOD baseline once per threshold, then each
	// finer LOD against it.
	baseline := make(map[float64]float64, len(thresholds))
	for _, threshold := range thresholds {
		p := params(scale, alpha, skew, threshold, document.LODDocument)
		res, err := sim.Run(p)
		if err != nil {
			return Figure{}, err
		}
		baseline[threshold] = res.MeanResponseTime
	}
	for _, lod := range lods {
		s := Series{Label: lod.String()}
		for _, threshold := range thresholds {
			var improvement float64
			if lod == document.LODDocument {
				improvement = 1
			} else {
				p := params(scale, alpha, skew, threshold, lod)
				res, err := sim.Run(p)
				if err != nil {
					return Figure{}, err
				}
				if res.MeanResponseTime > 0 {
					improvement = baseline[threshold] / res.MeanResponseTime
				}
			}
			s.X = append(s.X, threshold)
			s.Y = append(s.Y, improvement)
		}
		f.Series = append(f.Series, s)
	}
	return f, nil
}

func params(scale SimScale, alpha, skew, threshold float64, lod document.LOD) sim.Params {
	p := sim.DefaultParams()
	scale.apply(&p)
	p.Alpha = alpha
	p.Doc.Skew = skew
	p.Irrelevant = 1
	p.Threshold = threshold
	p.Caching = true
	p.LOD = lod
	return p
}

// WriteTable renders a table as aligned text.
func WriteTable(w io.Writer, t Table) error {
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	if _, err := fmt.Fprintf(w, "%s\n", t.Title); err != nil {
		return err
	}
	writeRow := func(cells []string) error {
		parts := make([]string, len(cells))
		for i, c := range cells {
			parts[i] = pad(c, widths[i])
		}
		_, err := fmt.Fprintf(w, "  %s\n", strings.Join(parts, "  "))
		return err
	}
	if err := writeRow(t.Header); err != nil {
		return err
	}
	for _, row := range t.Rows {
		if err := writeRow(row); err != nil {
			return err
		}
	}
	return nil
}

// WriteFigure renders a figure as aligned text: one row per X value, one
// column per series.
func WriteFigure(w io.Writer, f Figure) error {
	if len(f.Series) == 0 {
		return fmt.Errorf("figures: empty figure %q", f.Title)
	}
	t := Table{
		Title:  f.Title,
		Header: append([]string{f.XLabel}, labels(f.Series)...),
	}
	for i := range f.Series[0].X {
		row := []string{trimFloat(f.Series[0].X[i])}
		for _, s := range f.Series {
			if i < len(s.Y) {
				row = append(row, fmt.Sprintf("%.3f", s.Y[i]))
			} else {
				row = append(row, "-")
			}
		}
		t.Rows = append(t.Rows, row)
	}
	return WriteTable(w, t)
}

func labels(series []Series) []string {
	out := make([]string, len(series))
	for i, s := range series {
		out[i] = s.Label
	}
	return out
}

func pad(s string, width int) string {
	if len(s) >= width {
		return s
	}
	return s + strings.Repeat(" ", width-len(s))
}

func trimFloat(x float64) string {
	return strconv.FormatFloat(x, 'g', 4, 64)
}
