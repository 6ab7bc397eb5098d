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
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"mobweb/internal/content"
	"mobweb/internal/document"
	"mobweb/internal/store"
	"mobweb/internal/transport"
)

func main() {
	if err := run(os.Stdout, os.Args[1:], os.Stdin); err != nil {
		fmt.Fprintln(os.Stderr, "mrtbrowse:", err)
		os.Exit(1)
	}
}

func run(w io.Writer, args []string, stdin io.Reader) error {
	fs := flag.NewFlagSet("mrtbrowse", flag.ContinueOnError)
	addr := fs.String("addr", "127.0.0.1:8047", "server address")
	searchQuery := fs.String("search", "", "run a keyword search and list hits")
	doc := fs.String("doc", "", "document to fetch")
	query := fs.String("query", "", "query whose QIC orders the units")
	lodName := fs.String("lod", "paragraph", "ranking level of detail")
	notionName := fs.String("notion", "QIC", "content notion: IC, QIC or MQIC")
	gamma := fs.Float64("gamma", 0, "redundancy ratio override (0 = server default)")
	stopAt := fs.Float64("stopat", 0, "stop once this information content arrived (0 = full download)")
	caching := fs.Bool("caching", true, "cache intact packets across retransmission rounds")
	maxRounds := fs.Int("rounds", 10, "max retransmission rounds")
	adapt := fs.Bool("adapt", false, "adapt gamma per round from the observed corruption rate (EWMA)")
	success := fs.Float64("success", 0, "per-round success probability target for -adapt (0 = 0.95)")
	retries := fs.Int("retries", 0, "redial attempts after a mid-fetch disconnect (0 = default of 4, -1 disables)")
	retryBase := fs.Duration("retry-base", 0, "base reconnect backoff delay (0 = 50ms)")
	roundTimeout := fs.Duration("round-timeout", 0, "deadline per transmission round; overruns reconnect and resume (0 = per-read timeout only)")
	quiet := fs.Bool("quiet", false, "suppress progressive rendering")
	repl := fs.Bool("repl", false, "interactive session (search/skim/read/discard with profile feedback)")
	think := fs.Float64("think", 0, "REPL think-time seconds per interaction, spent prefetching")
	storeDir := fs.String("store-dir", "", "persistent packet store directory; fetches resume across process lives")
	storeMB := fs.Int64("store-mb", 64, "packet store byte budget in MiB (with -store-dir)")
	prefetchTopK := fs.Int("prefetch-topk", 0, "cap REPL think-time prefetching to the top-k predicted hits (0 = all hits)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if !*repl && *searchQuery == "" && *doc == "" {
		return fmt.Errorf("need -search, -doc, or -repl")
	}

	client, err := transport.Dial(*addr)
	if err != nil {
		return err
	}
	defer client.Close()
	client.Retry = transport.RetryPolicy{MaxAttempts: *retries, BaseDelay: *retryBase}
	if *storeDir != "" {
		st, err := store.Open(*storeDir, store.Options{MaxBytes: *storeMB << 20})
		if err != nil {
			return err
		}
		defer st.Close()
		client.Store = st
	}

	if *repl {
		return runREPL(w, stdin, client, replOptions(*stopAt, *think, *prefetchTopK))
	}

	if *searchQuery != "" {
		hits, err := client.Search(*searchQuery, 10)
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
		if *doc == "" {
			return nil
		}
	}

	lod, err := document.ParseLOD(*lodName)
	if err != nil {
		return err
	}
	var notion content.Notion
	switch strings.ToUpper(*notionName) {
	case "IC":
		notion = content.NotionIC
	case "QIC":
		notion = content.NotionQIC
	case "MQIC":
		notion = content.NotionMQIC
	default:
		return fmt.Errorf("unknown notion %q", *notionName)
	}

	opts := transport.FetchOptions{
		Doc:           *doc,
		Query:         *query,
		LOD:           lod,
		Notion:        notion,
		Gamma:         *gamma,
		StopAtIC:      *stopAt,
		Caching:       *caching,
		MaxRounds:     *maxRounds,
		AdaptGamma:    *adapt,
		TargetSuccess: *success,
		RoundTimeout:  *roundTimeout,
	}
	if !*quiet {
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
