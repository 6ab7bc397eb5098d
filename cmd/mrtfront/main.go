// Command mrtfront is the sharded fleet's entry point: it speaks the
// FT-MRT wire protocol to clients, consistent-hashes each fetch's
// document name onto a ring of mrtserver replicas, health-checks the
// fleet by scraping each replica's /debug/metrics, and relays the
// serving replica's stream. When that replica dies mid-stream the front
// ends the client's stream; the client redials, and the front routes its
// resume to the next ring replica like any new fetch. Cooked frames are
// deterministic per (plan, seq) across replicas serving the same corpus,
// so the resumed stream continues the one the dead replica sent.
//
// Usage:
//
//	mrtfront -addr :8040 -replicas a=host1:8047@host1:8049,b=host2:8047@host2:8049
//	mrtfront -addr :8040 -replicas 127.0.0.1:8047,127.0.0.1:8057 -shed-max-inflight 128
//
// Each -replicas entry is [name=]addr[@metricsAddr]. Names default to
// r0, r1, ... in listed order; the ring hashes by name, so keep names
// stable across restarts and fleet changes or every document moves.
// Without a metricsAddr the front falls back to TCP liveness probing
// and assumes full capability.
package main

import (
	"errors"
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

// options is mrtfront's command line.
type options struct {
	addr, replicas, name, metricsAddr string
	shedMax                           int
}

// newFlagSet binds mrtfront's flags to o; DESIGN.md §22 lists each one.
func newFlagSet(o *options) *flag.FlagSet {
	fs := flag.NewFlagSet("mrtfront", flag.ContinueOnError)
	fs.StringVar(&o.addr, "addr", "127.0.0.1:8040", "listen address")
	fs.StringVar(&o.replicas, "replicas", "", "comma-separated replica list, each [name=]addr[@metricsAddr]")
	fs.StringVar(&o.name, "name", "front", "front identity in shed responses and fetch logs")
	fs.IntVar(&o.shedMax, "shed-max-inflight", 64, "admission budget: max concurrent proxied fetches before shedding (0 disables)")
	fs.StringVar(&o.metricsAddr, "metrics-addr", "", "serve /debug/metrics, /debug/fetches, /debug/vars and /debug/pprof/ on this address")
	return fs
}

// newFront builds the front o describes over fleet; it opens no
// listener.
func newFront(o options, fleet []shard.Replica, reg *obs.Registry) (*shard.Front, error) {
	if o.shedMax == 0 {
		o.shedMax = -1 // shard: a negative budget admits everything
	}
	return shard.NewFront(shard.Options{
		Name:     o.name,
		Replicas: fleet,
		Gate:     shard.GateOptions{MaxInFlight: o.shedMax},
		Metrics:  reg,
	})
}

func run(args []string) error {
	var o options
	if err := newFlagSet(&o).Parse(args); errors.Is(err, flag.ErrHelp) {
		return nil
	} else if err != nil {
		return err
	}
	fleet, err := parseReplicas(o.replicas)
	if err != nil {
		return err
	}
	reg := obs.NewRegistry()
	front, err := newFront(o, fleet, reg)
	if err != nil {
		return err
	}

	if o.metricsAddr != "" {
		msrv, err := obs.ServeDebug(o.metricsAddr, reg)
		if err != nil {
			return err
		}
		defer msrv.Close()
	}

	ln, err := listen("tcp", o.addr)
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
	if errors.Is(err, transport.ErrServerClosed) {
		return nil
	}
	return err
}

// listen opens the serving socket; tests swap it for a listener that
// fails.
var listen = net.Listen

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
