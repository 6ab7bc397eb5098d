package main

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"

	"mobweb/internal/content"
	"mobweb/internal/document"
	"mobweb/internal/erasure"
)

// queryMode says what query, if any, each fetch of a workload carries.
type queryMode int

const (
	queryNone   queryMode = iota // no query: units ordered by plain IC
	queryPool                    // one of the corpus's four pool queries
	queryUnique                  // three of the document's words, never repeated
)

// The relevance threshold F: a skim stops there, and browse_progress
// stamps the moment accrued information content first reaches it.
const thresholdF = 0.5

// workload is one benchmark traffic shape. Everything that decides which
// layers work lives here; BENCHMARK.json carries only name and why.
type workload struct {
	name string
	why  string
	// scriptKey seeds corpus and script; workloads sharing a key run the
	// identical documents, queries and channel realisations.
	scriptKey      string
	docs, docBytes int
	queries        queryMode
	lod            document.LOD
	notion         content.Notion
	codec          erasure.CodecID
	alpha          float64
	caching        bool
	// progress sets FetchOptions.OnProgress, which makes the client render
	// after every intact frame.
	progress bool
	// store makes one op a visit: skim to thresholdF, close, re-read in
	// full from a second client on the same persistent store.
	store bool
	// planCacheBytes and frameCacheBytes of zero keep the planner's
	// defaults, which hold the whole corpus.
	planCacheBytes, frameCacheBytes int64
	// sliceOps is the op count of one of the 12 slices of a 10 s run,
	// sized on the seed commit; main scales it with -seconds.
	sliceOps int
}

// Table 2 of the paper: sD = 10240, sp = 256 (so M = 40), γ = 1.5.
const (
	smallDoc = 10240
	largeDoc = 32768
	gamma    = 1.5
)

var workloads = []workload{
	{
		name: "hot_clean", scriptKey: "hot_clean",
		why:  "Clean channel, cached frames, no query: only transport, packet/crc and the clear-text receiver path work, so a codec change must not show here.",
		docs: 10, docBytes: smallDoc,
		sliceOps: 2500,
	},
	{
		name: "weak_vand", scriptKey: "weak",
		why:  "32 KB documents over a seeded alpha=0.2 channel with the Vandermonde code: plans and frames are cache-hot, so erasure decode and GF(256) dominate.",
		docs: 20, docBytes: largeDoc, queries: queryPool,
		lod: document.LODParagraph, notion: content.NotionQIC,
		alpha: 0.2, caching: true,
		sliceOps: 200,
	},
	{
		name: "weak_fountain", scriptKey: "weak",
		why:  "The weak_vand script, seeds and channel realisations under the fountain code: peeling and Gaussian decode replace erasure decode, exposing CPU-for-bytes trades.",
		docs: 20, docBytes: largeDoc, queries: queryPool,
		lod: document.LODParagraph, notion: content.NotionQIC,
		codec: erasure.CodecFountain,
		alpha: 0.2, caching: true,
		sliceOps: 200,
	},
	{
		name: "cold_query", scriptKey: "cold_query",
		why:  "300 documents, a never-repeated query per fetch and 4 MB caches: every fetch misses, builds a plan, cooks parity and evicts, the opposite cache use of hot_clean.",
		docs: 300, docBytes: smallDoc, queries: queryUnique,
		lod: document.LODParagraph, notion: content.NotionQIC,
		alpha:          0.1,
		planCacheBytes: 4 << 20, frameCacheBytes: 4 << 20,
		sliceOps: 620,
	},
	{
		name: "resume_store", scriptKey: "resume_store",
		why:  "A visit skims to F=0.5, closes, and re-reads from a second client on the same 1 MiB packet store: appends, seeding, Have/DoneGens and recovery in one op.",
		docs: 80, docBytes: largeDoc,
		lod:   document.LODParagraph,
		alpha: 0.1, caching: true, store: true,
		sliceOps: 220,
	},
	{
		name: "browse_progress", scriptKey: "browse_progress",
		why:  "The paper's Table 2 user with OnProgress set: the only workload that renders per intact frame, so the only one whose TTFU and time-to-F precede the end of the fetch.",
		docs: 10, docBytes: smallDoc, queries: queryPool,
		lod: document.LODParagraph, notion: content.NotionQIC,
		alpha: 0.1, caching: true, progress: true,
		sliceOps: 720,
	},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// op is one scripted operation: which document, which query, and the seed
// of the channel its connection sees (a visit's second connection uses
// chanSeed+1).
type op struct {
	doc      int
	query    string
	chanSeed int64
}

// script derives a workload's first n ops from the seed alone. Documents
// go round-robin, so a document's next visit is a whole corpus away (which
// is what lets resume_store's small packet store forget it in between),
// and each lap of the corpus moves on to the next pool query: one lap per
// pool query touches every plan the run will use, all with equal weight.
// Unique queries and channel seeds are the seeded part.
func script(w workload, c *corpus, seed int64, n int) []op {
	r := rand.New(rand.NewSource(subSeed(seed, "script/"+w.scriptKey)))
	used := make(map[string]bool)
	ops := make([]op, n)
	for i := range ops {
		o := op{doc: i % w.docs, chanSeed: r.Int63() &^ 1}
		switch w.queries {
		case queryPool:
			o.query = c.pool[i/w.docs%len(c.pool)]
		case queryUnique:
			o.query = uniqueQuery(r, c.docs[o.doc], used)
		}
		ops[i] = o
	}
	return ops
}

// uniqueQuery draws three distinct words of the document that no earlier
// op of the script has asked of it in any order.
func uniqueQuery(r *rand.Rand, d corpusDoc, used map[string]bool) string {
	for {
		ws := []string{
			d.words[r.Intn(len(d.words))],
			d.words[r.Intn(len(d.words))],
			d.words[r.Intn(len(d.words))],
		}
		if ws[0] == ws[1] || ws[0] == ws[2] || ws[1] == ws[2] {
			continue
		}
		q := strings.Join(ws, " ")
		sort.Strings(ws)
		key := fmt.Sprintf("%s/%s", d.name, strings.Join(ws, " "))
		if !used[key] {
			used[key] = true
			return q
		}
	}
}
