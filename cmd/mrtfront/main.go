// Command mrtfront is the sharded fleet's entry point: it speaks the
// FT-MRT wire protocol to clients, consistent-hashes each fetch's
// document name onto a ring of mrtserver replicas, health-checks the
// fleet by scraping each replica's /debug/metrics, and re-routes
// in-flight fetches to the next ring replica when the serving one dies
// mid-stream — byte-identically, because cooked frames are
// deterministic per (plan, seq) across replicas serving the same
// corpus.
//
// Usage:
//
//	mrtfront -addr :8040 -replicas a=host1:8047@host1:8049,b=host2:8047@host2:8049
//	mrtfront -addr :8040 -replicas 127.0.0.1:8047,127.0.0.1:8057 -shed-max-inflight 64
//
// Each -replicas entry is [name=]addr[@metricsAddr]. Names default to
// r0, r1, ... in listed order; the ring hashes by name, so keep names
// stable across restarts and fleet changes or every document moves.
// Without a metricsAddr the front falls back to TCP liveness probing
// and assumes full capability.
package main

import (
	"flag"
	"fmt"
	"net"
	"os"
	"strings"
	"time"

	"mobweb/internal/obs"
	"mobweb/internal/shard"
	"mobweb/internal/transport"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "mrtfront:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("mrtfront", flag.ContinueOnError)
	addr := fs.String("addr", "127.0.0.1:8040", "listen address")
	replicas := fs.String("replicas", "", "comma-separated replica list, each [name=]addr[@metricsAddr]")
	name := fs.String("name", "front", "front identity in shed responses and fetch logs")
	shedMax := fs.Int("shed-max-inflight", 0, "admission budget: max concurrent proxied fetches before shedding (0 means 64, negative disables)")
	shedHeadroom := fs.Int("shed-resume-headroom", 0, "slots reserved for resume rounds so retransmissions are never starved by new fetches (0 means a quarter of the budget)")
	shedRetryAfter := fs.Duration("shed-retry-after", 0, "retry-after hint attached to shed refusals (0 means 250ms)")
	healthEvery := fs.Duration("health-every", 0, "replica health-probe period (0 means 500ms)")
	downAfter := fs.Int("health-down-after", 0, "consecutive probe failures that mark a replica down (0 means 3)")
	upAfter := fs.Int("health-up-after", 0, "consecutive probe successes that recover a down replica (0 means 2)")
	vnodes := fs.Int("vnodes", 0, "virtual nodes per replica on the hash ring (0 means 64)")
	seed := fs.Int64("seed", 0, "failover backoff jitter seed (0 means time-based)")
	metricsAddr := fs.String("metrics-addr", "", "serve /debug/metrics, /debug/fetches, /debug/vars and /debug/pprof/ on this address")
	if err := fs.Parse(args); err != nil {
		return err
	}
	fleet, err := parseReplicas(*replicas)
	if err != nil {
		return err
	}

	reg := obs.NewRegistry()
	front, err := shard.NewFront(shard.Options{
		Name:     *name,
		Replicas: fleet,
		VNodes:   *vnodes,
		Gate: shard.GateOptions{
			MaxInFlight:    *shedMax,
			ResumeHeadroom: *shedHeadroom,
			RetryAfter:     *shedRetryAfter,
		},
		Monitor: shard.MonitorOptions{
			Every:     *healthEvery,
			DownAfter: *downAfter,
			UpAfter:   *upAfter,
		},
		Retry:   transport.RetryPolicy{Seed: *seed},
		Metrics: reg,
	})
	if err != nil {
		return err
	}

	if *metricsAddr != "" {
		msrv, err := obs.ServeDebug(*metricsAddr, reg)
		if err != nil {
			return err
		}
		defer msrv.Close()
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	for _, r := range fleet {
		probe := r.MetricsAddr
		if probe == "" {
			probe = "tcp-liveness only"
		}
		fmt.Printf("replica %s at %s (health: %s)\n", r.Name, r.Addr, probe)
	}
	fmt.Printf("fronting %d replicas on %s\n", len(fleet), ln.Addr())
	start := time.Now()
	err = front.Serve(ln)
	fmt.Printf("front stopped after %v: %v\n", time.Since(start).Round(time.Second), err)
	return nil
}

// parseReplicas expands the -replicas flag: comma-separated entries of
// the form [name=]addr[@metricsAddr].
func parseReplicas(spec string) ([]shard.Replica, error) {
	if strings.TrimSpace(spec) == "" {
		return nil, fmt.Errorf("no replicas: pass -replicas [name=]addr[@metricsAddr],...")
	}
	var out []shard.Replica
	for i, entry := range strings.Split(spec, ",") {
		entry = strings.TrimSpace(entry)
		if entry == "" {
			return nil, fmt.Errorf("replica %d: empty entry", i)
		}
		r := shard.Replica{Name: fmt.Sprintf("r%d", i)}
		if name, rest, ok := strings.Cut(entry, "="); ok {
			if strings.TrimSpace(name) == "" {
				return nil, fmt.Errorf("replica %d: empty name in %q", i, entry)
			}
			r.Name = strings.TrimSpace(name)
			entry = rest
		}
		addr, metrics, hasMetrics := strings.Cut(entry, "@")
		if strings.TrimSpace(addr) == "" {
			return nil, fmt.Errorf("replica %s: empty address", r.Name)
		}
		r.Addr = strings.TrimSpace(addr)
		if hasMetrics {
			if strings.TrimSpace(metrics) == "" {
				return nil, fmt.Errorf("replica %s: empty metrics address after @", r.Name)
			}
			r.MetricsAddr = strings.TrimSpace(metrics)
		}
		out = append(out, r)
	}
	return out, nil
}
