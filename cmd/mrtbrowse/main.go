// Command mrtbrowse is the mobile-side browser client: it searches a
// mrtserver, fetches a document with fault-tolerant multi-resolution
// transmission, and renders organizational units progressively as they
// become available — highest query-relevant content first.
//
// Usage:
//
//	mrtbrowse -addr 127.0.0.1:8047 -search "mobile browsing"
//	mrtbrowse -addr 127.0.0.1:8047 -doc draft.xml -query "mobile web" \
//	          -lod paragraph -notion QIC -stopat 0.5
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"mobweb/internal/planner"
	"mobweb/internal/session"
	"mobweb/internal/store"
	"mobweb/internal/transport"
)

func main() {
	if err := run(os.Stdout, os.Args[1:], os.Stdin); err != nil {
		fmt.Fprintln(os.Stderr, "mrtbrowse:", err)
		os.Exit(1)
	}
}

// options is mrtbrowse's command line.
type options struct {
	addr, search, doc, query, lod, notion, storeDir string
	gamma, stopAt, success, think                   float64
	storeMB                                         int64
	caching, adapt, quiet, repl                     bool
}

// newFlagSet binds mrtbrowse's flags to o; DESIGN.md §22 lists each one.
func newFlagSet(o *options) *flag.FlagSet {
	fs := flag.NewFlagSet("mrtbrowse", flag.ContinueOnError)
	fs.StringVar(&o.addr, "addr", "127.0.0.1:8047", "server address")
	fs.StringVar(&o.search, "search", "", "run a keyword search and list hits")
	fs.StringVar(&o.doc, "doc", "", "document to fetch")
	fs.StringVar(&o.query, "query", "", "query whose QIC orders the units")
	fs.StringVar(&o.lod, "lod", "paragraph", "ranking level of detail")
	fs.StringVar(&o.notion, "notion", "QIC", "content notion: IC, QIC or MQIC")
	fs.Float64Var(&o.gamma, "gamma", 0, "redundancy ratio override (0 = server default)")
	fs.Float64Var(&o.stopAt, "stopat", 0, "stop once this information content arrived (0 = full download)")
	fs.BoolVar(&o.caching, "caching", true, "cache intact packets across retransmission rounds (false is the paper's NoCaching)")
	fs.BoolVar(&o.adapt, "adapt", false, "adapt gamma per round from the observed corruption rate (EWMA)")
	fs.Float64Var(&o.success, "success", 0, "per-round success probability target for -adapt (0 = 0.95)")
	fs.BoolVar(&o.quiet, "quiet", false, "suppress progressive rendering")
	fs.BoolVar(&o.repl, "repl", false, "interactive session (search/skim/read/discard with profile feedback)")
	fs.Float64Var(&o.think, "think", 0, "REPL think-time seconds per interaction, spent prefetching")
	fs.StringVar(&o.storeDir, "store-dir", "", "persistent packet store directory; fetches resume across process lives")
	fs.Int64Var(&o.storeMB, "store-mb", 64, "packet store byte budget in MiB (with -store-dir)")
	return fs
}

// fetchOptions is the fetch o asks for, with -lod and -notion parsed as
// the wire parses them.
func fetchOptions(o options) (transport.FetchOptions, error) {
	lod, err := planner.ParseLOD(o.lod)
	if err != nil {
		return transport.FetchOptions{}, err
	}
	notion, err := planner.ParseNotion(o.notion)
	if err != nil {
		return transport.FetchOptions{}, err
	}
	return transport.FetchOptions{
		Doc:           o.doc,
		Query:         o.query,
		LOD:           lod,
		Notion:        notion,
		Gamma:         o.gamma,
		StopAtIC:      o.stopAt,
		Caching:       o.caching,
		AdaptGamma:    o.adapt,
		TargetSuccess: o.success,
	}, nil
}

// replIgnores names the fetch flags a -repl session does not read.
var replIgnores = map[string]bool{
	"caching": true, "lod": true, "notion": true, "gamma": true,
	"adapt": true, "success": true, "query": true,
}

func run(w io.Writer, args []string, stdin io.Reader) error {
	var o options
	fs := newFlagSet(&o)
	if err := fs.Parse(args); errors.Is(err, flag.ErrHelp) {
		return nil
	} else if err != nil {
		return err
	}
	if !o.repl && o.search == "" && o.doc == "" {
		return fmt.Errorf("need -search, -doc, or -repl")
	}
	if o.repl {
		// A session fetches with its own options (Caching, paragraph LOD,
		// QIC and its query from the REPL): a fetch flag set beside -repl
		// would be silently ignored, so it is refused.
		var ignored error
		fs.Visit(func(f *flag.Flag) {
			if replIgnores[f.Name] && ignored == nil {
				ignored = fmt.Errorf("-%s has no effect with -repl", f.Name)
			}
		})
		if ignored != nil {
			return ignored
		}
	}

	client, err := transport.Dial(o.addr)
	if err != nil {
		return err
	}
	defer client.Close()
	if o.storeDir != "" {
		st, err := store.Open(o.storeDir, store.Options{MaxBytes: o.storeMB << 20})
		if err != nil {
			return err
		}
		defer st.Close()
		client.Store = st
	}

	if o.repl {
		return runREPL(w, stdin, client, session.Options{
			RelevanceThreshold: o.stopAt,
			ProfileBlend:       0.4,
			ThinkTime:          time.Duration(o.think * float64(time.Second)),
		})
	}

	if o.search != "" {
		hits, err := client.Search(o.search, 10)
		if err != nil {
			return err
		}
		if len(hits) == 0 {
			fmt.Fprintln(w, "no documents match")
			return nil
		}
		for i, h := range hits {
			fmt.Fprintf(w, "%2d. %-24s %-48s %.4f\n", i+1, h.Name, h.Title, h.Score)
		}
		if o.doc == "" {
			return nil
		}
	}

	opts, err := fetchOptions(o)
	if err != nil {
		return err
	}
	if !o.quiet {
		opts.OnProgress = func(p transport.Progress) {
			for _, u := range p.NewUnits {
				fmt.Fprintf(w, "\n── unit %s (score %.4f, IC now %.3f) ──\n%s\n",
					u.Segment.Label, u.Segment.Score, p.InfoContent, wrap(u.Text, 76))
			}
		}
	}
	res, err := client.Fetch(opts)
	if err != nil && res == nil {
		return err
	}
	if err != nil {
		// Graceful degradation: report what survived the failure before
		// surfacing the error.
		fmt.Fprintf(w, "\nfetch failed after %d rounds (%d reconnects): %v\n", res.Rounds, res.Reconnects, err)
		fmt.Fprintf(w, "partial result: IC %.3f, %d intact packets held, %d units rendered\n",
			res.InfoContent, res.HeldPackets, len(res.Rendered))
		return err
	}
	fmt.Fprintf(w, "\nfetch complete: IC %.3f, %d rounds, %d packets (%d corrupted), stalled=%v\n",
		res.InfoContent, res.Rounds, res.PacketsReceived, res.PacketsCorrupted, res.Stalled)
	if res.StoredPackets > 0 || res.RefetchedPackets > 0 {
		fmt.Fprintf(w, "store resume: %d packets restored, %d packets refetched\n",
			res.StoredPackets, res.RefetchedPackets)
	}
	if res.Reconnects > 0 {
		fmt.Fprintf(w, "survived %d disconnects\n", res.Reconnects)
	}
	if len(res.AlphaEstimates) > 0 {
		fmt.Fprintf(w, "alpha estimates per round: %v (gammas %v)\n", res.AlphaEstimates, res.GammaRequests)
	}
	if res.Body != nil {
		fmt.Fprintf(w, "document reconstructed: %d bytes\n", len(res.Body))
	} else {
		fmt.Fprintf(w, "stopped early with %d units rendered\n", len(res.Rendered))
	}
	return nil
}

func wrap(s string, width int) string {
	words := strings.Fields(s)
	var b strings.Builder
	line := 0
	for _, word := range words {
		if line > 0 && line+1+len(word) > width {
			b.WriteByte('\n')
			line = 0
		} else if line > 0 {
			b.WriteByte(' ')
			line++
		}
		b.WriteString(word)
		line += len(word)
	}
	return b.String()
}
