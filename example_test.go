package mobweb_test

import (
	"fmt"
	"sort"
	"strings"

	"mobweb"
)

// ExampleChooseCooked sizes the redundancy for the paper's default
// document (M = 40 raw packets) on a channel corrupting 10% of packets,
// targeting a 95% chance of single-round delivery.
func ExampleChooseCooked() {
	n, err := mobweb.ChooseCooked(40, 0.1, 0.95)
	if err != nil {
		fmt.Println(err)
		return
	}
	fmt.Printf("M=40 α=0.1 S=95%% → N=%d (γ=%.2f)\n", n, float64(n)/40)
	// Output: M=40 α=0.1 S=95% → N=48 (γ=1.20)
}

// ExampleAnalyze runs the five-stage pipeline on a small document and
// prints the top-ranked unit for a query.
func ExampleAnalyze() {
	src := `<doc><title>T</title>
	<section><title>Coding</title>
	<paragraph>Vandermonde matrices disperse packets.</paragraph></section>
	<section><title>Browsing</title>
	<paragraph>Mobile web browsing needs mobile bandwidth care.</paragraph></section>
	</doc>`
	doc, err := mobweb.ParseXML([]byte(src), "t.xml")
	if err != nil {
		fmt.Println(err)
		return
	}
	an, err := mobweb.Analyze(doc)
	if err != nil {
		fmt.Println(err)
		return
	}
	plan, err := an.Plan("mobile web", mobweb.PlanConfig{
		LOD:        mobweb.LODSection,
		Notion:     mobweb.NotionQIC,
		PacketSize: 32,
	})
	if err != nil {
		fmt.Println(err)
		return
	}
	fmt.Printf("top unit: %s\n", plan.Segments()[0].Unit.Title)
	// Output: top unit: Browsing
}

// ExampleReceiver demonstrates loss tolerance: drop a third of the cooked
// packets and still reconstruct.
func ExampleReceiver() {
	src := `<doc><section><paragraph>any M of N cooked packets reconstruct the document</paragraph></section></doc>`
	doc, err := mobweb.ParseXML([]byte(src), "t.xml")
	if err != nil {
		fmt.Println(err)
		return
	}
	an, err := mobweb.Analyze(doc)
	if err != nil {
		fmt.Println(err)
		return
	}
	plan, err := an.Plan("", mobweb.PlanConfig{PacketSize: 8, Gamma: 1.5})
	if err != nil {
		fmt.Println(err)
		return
	}
	rcv, err := mobweb.NewReceiver(plan)
	if err != nil {
		fmt.Println(err)
		return
	}
	for seq := 0; seq < plan.N(); seq++ {
		if seq%3 == 0 {
			continue // lost on the wireless hop
		}
		frame, err := plan.Frame(seq)
		if err != nil {
			fmt.Println(err)
			return
		}
		if _, _, err := rcv.AddFrame(frame); err != nil {
			fmt.Println(err)
			return
		}
	}
	body, err := rcv.Reconstruct()
	if err != nil {
		fmt.Println(err)
		return
	}
	fmt.Printf("reconstructed %d bytes despite 33%% loss\n", len(body))
	// Output: reconstructed 51 bytes despite 33% loss
}

// page parses a one-section document. The examples' inputs are fixed,
// so a parse error is a bug in the example.
func page(name, title string, paragraphs ...string) *mobweb.Document {
	xml := "<document><title>" + title + "</title><section><title>" + title + "</title>"
	for _, p := range paragraphs {
		xml += "<paragraph>" + p + "</paragraph>"
	}
	doc, err := mobweb.ParseXML([]byte(xml+"</section></document>"), name)
	if err != nil {
		panic(err)
	}
	return doc
}

// ExampleReceiver_NewUnits shows progressive rendering: the plan sends
// the units that best match the query first, in clear text, so each one
// renders as soon as its own packets arrive, well before the document
// can be reconstructed.
func ExampleReceiver_NewUnits() {
	an, err := mobweb.Analyze(page("notes.xml", "Notes",
		"Vandermonde dispersal protects every packet.",
		"Weak links corrupt mobile packets in bursts.",
		"Mobile web browsing ranks the units of a web page by content."))
	if err != nil {
		fmt.Println(err)
		return
	}
	plan, err := an.Plan("mobile web", mobweb.PlanConfig{
		LOD:        mobweb.LODParagraph,
		Notion:     mobweb.NotionQIC,
		PacketSize: 16,
	})
	if err != nil {
		fmt.Println(err)
		return
	}
	rcv, err := mobweb.NewReceiver(plan)
	if err != nil {
		fmt.Println(err)
		return
	}
	for seq := 0; !rcv.Reconstructible(); seq++ {
		frame, err := plan.Frame(seq)
		if err != nil {
			fmt.Println(err)
			return
		}
		if _, _, err := rcv.AddFrame(frame); err != nil {
			fmt.Println(err)
			return
		}
		for _, u := range rcv.NewUnits() {
			fmt.Printf("packet %d of %d: IC %.2f %s\n", seq+1, plan.M(), rcv.InfoContent(), strings.TrimSpace(u.Text))
		}
	}
	// Output:
	// packet 4 of 10: IC 0.75 Mobile web browsing ranks the units of a web page by content.
	// packet 7 of 10: IC 1.00 Weak links corrupt mobile packets in bursts.
	// packet 10 of 10: IC 1.00 Vandermonde dispersal protects every packet.
}

// ExampleAlphaEstimator adapts the redundancy ratio to the channel
// (§4.2): the moving average of observed corruption re-targets a 95%
// chance of single-round delivery as the client moves from a good cell
// into a bad one and back.
func ExampleAlphaEstimator() {
	est, err := mobweb.NewAlphaEstimator(0.5)
	if err != nil {
		fmt.Println(err)
		return
	}
	for _, corrupted := range []int{3, 2, 27, 30, 4, 3} { // of 60 frames a window
		est.ObserveWindow(corrupted, 60)
		n, err := mobweb.ChooseCooked(40, est.ValueOr(0), 0.95)
		if err != nil {
			fmt.Println(err)
			return
		}
		fmt.Printf("α̂=%.3f → N=%d (γ=%.2f)\n", est.ValueOr(0), n, float64(n)/40)
	}
	// Output:
	// α̂=0.050 → N=45 (γ=1.12)
	// α̂=0.042 → N=44 (γ=1.10)
	// α̂=0.246 → N=60 (γ=1.50)
	// α̂=0.373 → N=74 (γ=1.85)
	// α̂=0.220 → N=58 (γ=1.45)
	// α̂=0.135 → N=51 (γ=1.27)
}

// ExampleProfile_Blend re-ranks an ambiguous query with relevance
// feedback (§6's user profiling): after the user reads the mobile-web
// page and discards the others early, it tops the blended ranking.
func ExampleProfile_Blend() {
	engine := mobweb.NewEngine()
	for _, doc := range []*mobweb.Document{
		page("cpu.xml", "CPU Caching", "Processor caching keeps hot lines in caching arrays."),
		page("web.xml", "Mobile Web Transfers", "Caching intact packets lets a mobile client resume web transfers."),
		page("db.xml", "Database Buffers", "Buffer pool caching holds database pages in memory."),
	} {
		if err := engine.Add(doc); err != nil {
			fmt.Println(err)
			return
		}
	}
	prof, err := mobweb.NewProfile(mobweb.ProfileConfig{})
	if err != nil {
		fmt.Println(err)
		return
	}
	rank := func(label string) []mobweb.Hit {
		hits := engine.Search("caching", 10)
		for i := range hits {
			hits[i].Score = prof.Blend(hits[i].Score, hits[i].SC, 0.6)
		}
		sort.SliceStable(hits, func(i, j int) bool { return hits[i].Score > hits[j].Score })
		fmt.Print(label)
		for _, h := range hits {
			fmt.Printf(" %s %.3f", h.Name, h.Score)
		}
		fmt.Println()
		return hits
	}
	for _, h := range rank("before:") {
		fb := mobweb.ProfileFeedback{SC: h.SC, Relevant: h.Name == "web.xml", FractionRead: 0.2}
		if fb.Relevant {
			fb.Query, fb.FractionRead = "caching mobile", 1
		}
		if err := prof.Observe(fb); err != nil {
			fmt.Println(err)
			return
		}
	}
	rank("after:")
	// Output:
	// before: cpu.xml 0.182 db.xml 0.144 web.xml 0.133
	// after: web.xml 0.626 cpu.xml 0.326 db.xml 0.250
}

// ExampleCluster_ReadingOrder treats a small linked site as one larger
// document (§1): cluster-level content orders the pages for a query, and
// a page's links become the candidates its think time prefetches.
func ExampleCluster_ReadingOrder() {
	clu, err := mobweb.NewCluster("handbook", "index.xml")
	if err != nil {
		fmt.Println(err)
		return
	}
	for _, p := range []struct {
		doc   *mobweb.Document
		links []string
	}{
		{page("index.xml", "Handbook", "Notes on building mobile information systems."), []string{"radio.xml", "transport.xml"}},
		{page("radio.xml", "Radio Basics", "Radio links carry far fewer bits than wired networks."), nil},
		{page("transport.xml", "Weak Links", "Mobile web transmission over weak links needs fault tolerance."), []string{"erasure.xml"}},
		{page("erasure.xml", "Erasure Coding", "Erasure codes rebuild mobile web documents from any packet subset."), nil},
	} {
		if err := clu.AddPage(p.doc, p.links); err != nil {
			fmt.Println(err)
			return
		}
	}
	qv := mobweb.QueryVector("mobile web transmission")
	order, err := clu.ReadingOrder(qv)
	if err != nil {
		fmt.Println(err)
		return
	}
	fmt.Println("reading order:", order)
	cands, err := clu.PrefetchCandidates("index.xml", qv, 16, 1.5)
	if err != nil {
		fmt.Println(err)
		return
	}
	allocs, err := mobweb.PlanPrefetch(cands, 6)
	if err != nil {
		fmt.Println(err)
		return
	}
	fmt.Println("prefetch from index.xml:", allocs)
	// Output:
	// reading order: [index.xml transport.xml erasure.xml radio.xml]
	// prefetch from index.xml: [{transport.xml 4} {radio.xml 2}]
}
