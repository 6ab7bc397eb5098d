// Package session orchestrates the complete mobile browsing loop the
// paper describes, as one reusable client-side component: keyword search,
// personalized re-ranking against the user profile, skimming documents at
// a relevance threshold F, full reads, relevance feedback into the
// profile, and idle-time prefetching of the hits the user is most likely
// to open next. It glues the transport client, the profile, and the
// prefetch planner together.
package session

import (
	"context"
	"fmt"
	"sort"
	"time"

	"mobweb/internal/channel"
	"mobweb/internal/content"
	"mobweb/internal/core"
	"mobweb/internal/document"
	"mobweb/internal/packet"
	"mobweb/internal/prefetch"
	"mobweb/internal/profile"
	"mobweb/internal/transport"
)

// Options tunes the browsing policy. Fetches rank paragraphs by QIC (the
// paper's best performer) and cap each fetch at maxRounds rounds.
type Options struct {
	// RelevanceThreshold is F: skims stop once this information content
	// arrived. Zero means 0.3.
	RelevanceThreshold float64
	// ProfileBlend is β, the weight of profile affinity when re-ranking
	// search hits; zero keeps pure search order.
	ProfileBlend float64
	// ThinkTime is the idle window after each interaction in which the
	// session prefetches, at the paper's 19.2 kbps and 260-byte frames;
	// zero disables prefetching.
	ThinkTime time.Duration
}

// maxRounds caps retransmission rounds per fetch.
const maxRounds = 20

func (o Options) withDefaults() Options {
	if o.RelevanceThreshold == 0 {
		o.RelevanceThreshold = 0.3
	}
	return o
}

// Session is one user's browsing session over one connection. Not safe
// for concurrent use (a session models a single user).
type Session struct {
	client *transport.Client
	prof   *profile.Profile
	opts   Options
	query  string
	hits   []RankedHit
	// skimmed caches skim text per document for feedback on Discard.
	skimmed map[string]string
	stats   Stats
}

// RankedHit is a search hit after personalization.
type RankedHit struct {
	// Name and Title identify the document.
	Name, Title string
	// SearchScore is the engine's query similarity.
	SearchScore float64
	// Blended folds in profile affinity with weight β.
	Blended float64
}

// Stats aggregates session-level accounting.
type Stats struct {
	// Searches, Skims, Reads and Discards count interactions.
	Searches, Skims, Reads, Discards int
	// PacketsReceived counts frames over the wire, including frames
	// received by prefetch windows (which may end before their allocated
	// budget for short documents).
	PacketsReceived int
	// PrefetchedUsed counts the packets fetches started from the client's
	// store (FetchResult.StoredPackets): prefetched by a think-time
	// window, or kept by an earlier skim of the same document.
	PrefetchedUsed int
}

// New starts a session. The profile may be nil (no personalization, no
// feedback).
func New(client *transport.Client, prof *profile.Profile, opts Options) (*Session, error) {
	if client == nil {
		return nil, fmt.Errorf("session: nil client")
	}
	return &Session{
		client:  client,
		prof:    prof,
		opts:    opts.withDefaults(),
		skimmed: make(map[string]string),
	}, nil
}

// Stats returns the session's accounting so far.
func (s *Session) Stats() Stats { return s.stats }

// Search queries the server, re-ranks hits against the profile, and
// prefetches the most promising ones into the idle think-time window.
func (s *Session) Search(query string, limit int) ([]RankedHit, error) {
	return s.SearchContext(context.Background(), query, limit)
}

// SearchContext is Search bounded by a context: cancellation interrupts
// the query and any prefetching riding the idle window after it.
func (s *Session) SearchContext(ctx context.Context, query string, limit int) ([]RankedHit, error) {
	hits, err := s.client.SearchContext(ctx, query, limit)
	if err != nil {
		return nil, err
	}
	s.stats.Searches++
	s.query = query
	ranked := make([]RankedHit, len(hits))
	for i, h := range hits {
		ranked[i] = RankedHit{
			Name:        h.Name,
			Title:       h.Title,
			SearchScore: h.Score,
			Blended:     h.Score,
		}
		if s.prof != nil && s.opts.ProfileBlend > 0 {
			// Client-side personalization uses the hit title plus any
			// previously skimmed text of the document.
			affinity := s.prof.ScoreText(h.Title + " " + s.skimmed[h.Name])
			beta := s.opts.ProfileBlend
			ranked[i].Blended = (1-beta)*h.Score + beta*affinity
		}
	}
	sort.SliceStable(ranked, func(i, j int) bool { return ranked[i].Blended > ranked[j].Blended })
	s.hits = ranked

	if err := s.prefetchHits(ctx); err != nil {
		return nil, err
	}
	return ranked, nil
}

// prefetchHits spends the think-time budget on the ranked hits.
func (s *Session) prefetchHits(ctx context.Context) error {
	if s.opts.ThinkTime <= 0 || len(s.hits) == 0 {
		return nil
	}
	budget := prefetch.Budget(s.opts.ThinkTime.Seconds(), channel.DefaultBandwidthBPS, packet.FrameSize(core.DefaultPacketSize))
	if budget == 0 {
		return nil
	}
	cands := make([]prefetch.Candidate, len(s.hits))
	for i, h := range s.hits {
		// Packet counts are unknown before the first header exchange;
		// budget generously and let the server's stream end early. What
		// the store already holds is netted out.
		cands[i] = prefetch.Candidate{
			Name:         h.Name,
			Score:        h.Blended + 1e-9,
			TotalPackets: budget,
			HavePackets:  s.client.Held(s.fetchOptions(h.Name)),
		}
	}
	allocs, err := prefetch.Plan(cands, budget)
	if err != nil {
		return err
	}
	for _, alloc := range allocs {
		got, err := s.client.PrefetchContext(ctx, s.fetchOptions(alloc.Name), alloc.Packets)
		// Frames received before a failure are still stored; account for
		// them either way.
		s.stats.PacketsReceived += got.Received
		if err != nil {
			return fmt.Errorf("prefetch %s: %w", alloc.Name, err)
		}
	}
	return nil
}

func (s *Session) fetchOptions(doc string) transport.FetchOptions {
	return transport.FetchOptions{
		Doc:       doc,
		Query:     s.query,
		LOD:       document.LODParagraph,
		Notion:    content.NotionQIC,
		Caching:   true,
		MaxRounds: maxRounds,
	}
}

// Skim fetches a document only up to the relevance threshold F and
// returns what arrived, so the user can judge it.
func (s *Session) Skim(doc string) (*transport.FetchResult, error) {
	return s.SkimContext(context.Background(), doc)
}

// SkimContext is Skim bounded by a context.
func (s *Session) SkimContext(ctx context.Context, doc string) (*transport.FetchResult, error) {
	opts := s.fetchOptions(doc)
	opts.StopAtIC = s.opts.RelevanceThreshold
	res, err := s.client.FetchContext(ctx, opts)
	if err != nil {
		return nil, err
	}
	s.stats.Skims++
	s.stats.PacketsReceived += res.PacketsReceived
	s.stats.PrefetchedUsed += res.StoredPackets
	s.skimmed[doc] = renderedText(res)
	return res, nil
}

// Read downloads the document in full and reinforces the profile.
func (s *Session) Read(doc string) (*transport.FetchResult, error) {
	return s.ReadContext(context.Background(), doc)
}

// ReadContext is Read bounded by a context.
func (s *Session) ReadContext(ctx context.Context, doc string) (*transport.FetchResult, error) {
	res, err := s.client.FetchContext(ctx, s.fetchOptions(doc))
	if err != nil {
		return nil, err
	}
	s.stats.Reads++
	s.stats.PacketsReceived += res.PacketsReceived
	s.stats.PrefetchedUsed += res.StoredPackets
	if s.prof != nil {
		text := string(res.Body)
		if text == "" {
			text = renderedText(res)
		}
		s.prof.ObserveText(text, s.query, true, 1)
	}
	return res, nil
}

// Discard records the user's negative judgment of a previously skimmed
// document, depressing its topics in the profile.
func (s *Session) Discard(doc string) {
	s.stats.Discards++
	if s.prof == nil {
		return
	}
	text := s.skimmed[doc]
	if text == "" {
		return
	}
	s.prof.ObserveText(text, "", false, s.opts.RelevanceThreshold)
}

func renderedText(res *transport.FetchResult) string {
	out := ""
	for _, u := range res.Rendered {
		out += u.Text + "\n"
	}
	return out
}
