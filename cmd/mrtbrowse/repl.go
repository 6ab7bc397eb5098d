package main

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"

	"mobweb/internal/profile"
	"mobweb/internal/session"
	"mobweb/internal/transport"
)

// runREPL drives an interactive browsing session: the user searches,
// skims hits at the relevance threshold, reads or discards them, and the
// profile plus think-time prefetching adapt behind the scenes — the whole
// paper in a prompt.
//
// Commands: search <query> · skim <#|name> · read <#|name> ·
// discard <#|name> · hits · profile · stats · help · quit
func runREPL(w io.Writer, stdin io.Reader, client *transport.Client, opts session.Options) error {
	prof, err := profile.New(profile.Config{})
	if err != nil {
		return err
	}
	sess, err := session.New(client, prof, opts)
	if err != nil {
		return err
	}

	var hits []session.RankedHit
	resolve := func(arg string) (string, error) {
		if n, err := strconv.Atoi(arg); err == nil {
			if n < 1 || n > len(hits) {
				return "", fmt.Errorf("hit %d out of range (have %d)", n, len(hits))
			}
			return hits[n-1].Name, nil
		}
		return arg, nil
	}
	printHits := func() {
		for i, h := range hits {
			fmt.Fprintf(w, "  %2d. %-24s %-40s %.4f\n", i+1, h.Name, h.Title, h.Blended)
		}
	}

	fmt.Fprintln(w, "mrtbrowse interactive session — type 'help' for commands")
	scan := bufio.NewScanner(stdin)
	for {
		fmt.Fprint(w, "> ")
		if !scan.Scan() {
			return scan.Err()
		}
		line := strings.TrimSpace(scan.Text())
		if line == "" {
			continue
		}
		cmd, arg, _ := strings.Cut(line, " ")
		arg = strings.TrimSpace(arg)
		switch cmd {
		case "quit", "exit":
			fmt.Fprintln(w, "bye")
			return nil
		case "help":
			fmt.Fprintln(w, "  search <query>    find documents (re-ranked by your profile)")
			fmt.Fprintln(w, "  hits              list the current hits")
			fmt.Fprintln(w, "  skim <#|name>     fetch a document up to the relevance threshold")
			fmt.Fprintln(w, "  read <#|name>     download in full (positive feedback)")
			fmt.Fprintln(w, "  discard <#|name>  reject a skimmed document (negative feedback)")
			fmt.Fprintln(w, "  profile           show your top interests")
			fmt.Fprintln(w, "  stats             session accounting")
			fmt.Fprintln(w, "  quit              leave")
		case "search":
			if arg == "" {
				fmt.Fprintln(w, "usage: search <query>")
				continue
			}
			var err error
			hits, err = sess.Search(arg, 10)
			if err != nil {
				return err
			}
			if len(hits) == 0 {
				fmt.Fprintln(w, "no documents match")
				continue
			}
			printHits()
		case "hits":
			printHits()
		case "skim":
			name, err := resolve(arg)
			if err != nil {
				fmt.Fprintln(w, " ", err)
				continue
			}
			res, err := sess.Skim(name)
			if err != nil {
				fmt.Fprintln(w, " ", err)
				continue
			}
			for _, u := range res.Rendered {
				fmt.Fprintf(w, "  [%s] %s\n", u.Segment.Label, wrap(u.Text, 72))
			}
			fmt.Fprintf(w, "  -- skimmed to IC %.2f in %d packets --\n", res.InfoContent, res.PacketsReceived)
		case "read":
			name, err := resolve(arg)
			if err != nil {
				fmt.Fprintln(w, " ", err)
				continue
			}
			res, err := sess.Read(name)
			if err != nil {
				fmt.Fprintln(w, " ", err)
				continue
			}
			if res.Body == nil {
				fmt.Fprintln(w, "  download stalled; try again")
				continue
			}
			fmt.Fprintf(w, "  read %d bytes (%d packets, %d stored, %d rounds)\n",
				len(res.Body), res.PacketsReceived, res.StoredPackets, res.Rounds)
		case "discard":
			name, err := resolve(arg)
			if err != nil {
				fmt.Fprintln(w, " ", err)
				continue
			}
			sess.Discard(name)
			fmt.Fprintf(w, "  noted: %s is not what you wanted\n", name)
		case "profile":
			terms := prof.Terms()
			if len(terms) > 8 {
				terms = terms[:8]
			}
			fmt.Fprintf(w, "  interests: %v\n", terms)
		case "stats":
			s := sess.Stats()
			fmt.Fprintf(w, "  searches %d, skims %d, reads %d, discards %d, packets %d (%d from store)\n",
				s.Searches, s.Skims, s.Reads, s.Discards, s.PacketsReceived, s.PrefetchedUsed)
		default:
			fmt.Fprintf(w, "  unknown command %q (try help)\n", cmd)
		}
	}
}
