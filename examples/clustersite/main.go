// Clustersite: the paper treats "a collection of hierarchically linked
// related pages" as one larger document (§1). This example builds a small
// linked site, computes cluster-level information content, derives a
// content-first reading order for a query, and fetches the pages in that
// order over a lossy transport — prefetching the linked pages the reader
// is most likely to open next during each page's think time.
package main

import (
	"fmt"
	"net"
	"os"

	"mobweb"
)

type pageSpec struct {
	name, title string
	links       []string
	paragraphs  []string
}

func sitePages() []pageSpec {
	return []pageSpec{
		{"index.xml", "Mobile Systems Handbook", []string{"radio.xml", "transport.xml"}, []string{
			"This handbook collects notes on building mobile information systems.",
		}},
		{"radio.xml", "Radio Basics", []string{"fading.xml"}, []string{
			"Radio links carry far fewer bits per second than wired networks.",
			"Signal strength varies as the client moves between cells.",
		}},
		{"fading.xml", "Fading and Error Bursts", nil, []string{
			"Multipath fading corrupts packets in bursts rather than uniformly.",
			"Error control must assume clustered packet corruption.",
		}},
		{"transport.xml", "Transmission over Weak Links", []string{"erasure.xml", "caching.xml"}, []string{
			"Transmitting mobile web documents over weak wireless links needs fault tolerance.",
			"Multi-resolution transmission sends high content units of mobile web documents first.",
		}},
		{"erasure.xml", "Erasure Coding", nil, []string{
			"Erasure codes reconstruct mobile web documents from any sufficient packet subset.",
			"Vandermonde dispersal keeps the first packets in clear text for mobile web browsing.",
		}},
		{"caching.xml", "Client Caching", nil, []string{
			"Caching intact packets across retransmission rounds saves wireless bandwidth.",
			"A mobile web client reconstructs documents sooner with cached packets.",
		}},
	}
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "clustersite:", err)
		os.Exit(1)
	}
}

func run() error {
	// Build the cluster and the serving engine from the same pages.
	clu, err := mobweb.NewCluster("handbook", "index.xml")
	if err != nil {
		return err
	}
	engine := mobweb.NewEngine()
	links := make(map[string][]string)
	for _, p := range sitePages() {
		xml := "<document><title>" + p.title + "</title><section><title>" + p.title + "</title>"
		for _, text := range p.paragraphs {
			xml += "<paragraph>" + text + "</paragraph>"
		}
		xml += "</section></document>"
		doc, err := mobweb.ParseXML([]byte(xml), p.name)
		if err != nil {
			return err
		}
		if err := clu.AddPage(doc, p.links); err != nil {
			return err
		}
		if err := engine.Add(doc); err != nil {
			return err
		}
		links[p.name] = p.links
	}
	if err := clu.Validate(); err != nil {
		return err
	}

	const query = "mobile web transmission"
	qv := mobweb.QueryVector(query)

	scores, err := clu.Scores(qv)
	if err != nil {
		return err
	}
	fmt.Printf("cluster %q: %d pages; cluster-level content for %q:\n", clu.Name(), clu.Len(), query)
	for _, s := range scores {
		fmt.Printf("  %-14s IC %.3f  QIC %.3f\n", s.Name, s.IC, s.QIC)
	}

	order, err := clu.ReadingOrder(qv)
	if err != nil {
		return err
	}
	fmt.Printf("\ncontent-first reading order: %v\n", order)

	// Serve the pages over a lossy hop and browse them in reading order,
	// prefetching each page's most promising links during think time.
	injector, err := mobweb.BernoulliInjector(0.25, 9)
	if err != nil {
		return err
	}
	srv, err := mobweb.NewServer(engine, mobweb.ServerOptions{Injector: injector})
	if err != nil {
		return err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		srv.Serve(ln)
	}()
	defer func() {
		srv.Close()
		<-done
	}()
	client, err := mobweb.Dial(ln.Addr().String())
	if err != nil {
		return err
	}
	defer client.Close()

	fmt.Println("\nbrowsing session (α=0.25, caching on):")
	for _, page := range order {
		opts := mobweb.FetchOptions{Doc: page, Query: query, Caching: true, MaxRounds: 20}
		res, err := client.Fetch(opts)
		if err != nil {
			return err
		}
		if res.Body == nil {
			return fmt.Errorf("page %s did not reconstruct", page)
		}
		fmt.Printf("  %-14s %4d bytes, %2d pkts (%d stored, %d corrupted)\n",
			page, len(res.Body), res.PacketsReceived, res.StoredPackets, res.PacketsCorrupted)

		// Think time: prefetch this page's links, best cluster-QIC first.
		cands, err := clu.PrefetchCandidates(page, qv, 256, 1.5)
		if err != nil {
			return err
		}
		budget := mobweb.PrefetchBudget(5, 19200, 260) // 5 s of idle air
		allocs, err := mobweb.PlanPrefetch(cands, budget)
		if err != nil {
			return err
		}
		for _, a := range allocs {
			got, err := client.Prefetch(mobweb.FetchOptions{Doc: a.Name, Query: query, Caching: true}, a.Packets)
			if err != nil {
				return err
			}
			fmt.Printf("      prefetched %-14s %d intact of %d received\n", a.Name, got.Intact, got.Received)
		}
	}
	return nil
}
