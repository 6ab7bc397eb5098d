// Command bench is the repository's fetch benchmark: one command that
// builds a seeded corpus, serves it from in-process transport servers on
// loopback, drives six closed-loop workloads through the real client, checks
// every reconstructed body, and prints user-facing metrics plus a per-layer
// budget measured from outside the layers. See README.md in this directory
// for what each workload and metric means; BENCHMARK.json at the repository
// root is the contract a driver runs it under:
//
//	go run ./bench --workload weak_vand --seed 1 --seconds 10 --trace 0
//
// Without --workload it runs all six, their slices interleaved.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"strings"
	"time"
)

// setupRepeats is how often a run sets a workload up; setup_s is the
// median and the last set-up is the one the run measures on. Three keeps
// the slowest workload's whole run near 16 s, which the driver's 136 runs
// need.
const setupRepeats = 3

// Op counts outside the timed slices. The warm-up covers every (document,
// query) pair of the cached workloads twice over; the traced pass is long
// enough for a stable median per stage.
const (
	warmOps     = 200
	tracedOps   = 200
	minSliceOps = 200 // keeps ten samples beyond each slice's p95
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "all", "workload to run, or all")
	seed := fs.Int64("seed", 1, "seed of corpus text, query draws and channel realisations")
	seconds := fs.Int("seconds", 10, "target length of the timed slices on the seed commit; scales the op counts")
	trace := fs.Int("trace", 1, "1 adds the traced pass and reports the per-layer metrics, 0 reports end-to-end only")
	lanes := fs.Int("lanes", max(1, runtime.NumCPU()/2), "closed-loop clients, each with its own server (a lane keeps two threads busy)")
	procs := fs.Int("gomaxprocs", 0, "GOMAXPROCS override for sweeps; 0 keeps the runtime's choice")
	aa := fs.Int("aa", 0, "A/A mode: run every selected workload 2N times in alternating sets and compare the sets")
	outDir := fs.String("out", "bench/out", "directory for trace files and packet stores")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	selected := workloads
	if *name != "all" {
		w, ok := workloadByName(*name)
		if !ok {
			fmt.Fprintf(stderr, "bench: unknown workload %q\n", *name)
			return 2
		}
		selected = []workload{w}
	}
	if *seconds < 1 || *lanes < 1 {
		fmt.Fprintln(stderr, "bench: -seconds and -lanes must be at least 1")
		return 2
	}
	if *procs > 0 {
		runtime.GOMAXPROCS(*procs)
	}
	if *aa > 0 {
		return runAA(*aa, selected, []string{
			"-seed", fmt.Sprint(*seed), "-seconds", fmt.Sprint(*seconds), "-lanes", fmt.Sprint(*lanes),
			"-gomaxprocs", fmt.Sprint(*procs), "-out", *outDir, "-trace", "0",
		}, stdout, stderr)
	}

	cfg := config{seed: *seed, lanes: *lanes, outDir: *outDir}
	counts := func(w workload) opCounts {
		return opCounts{warm: warmOps, slice: max(minSliceOps, w.sliceOps**seconds/10), traced: tracedOps}
	}
	results, gfKernel, err := benchmark(selected, cfg, counts, setupRepeats, *trace != 0)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	fmt.Fprint(stdout, envBlock(cfg, *seconds, gitHead(), gfKernel))
	ok := true
	for _, r := range results {
		printResult(stdout, r)
		ok = ok && r.correct()
	}
	if len(results) == 1 {
		// The driver's contract: the last line is the result object.
		line, err := resultJSON(results[0], *trace != 0)
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		fmt.Fprintf(stdout, "%s\n", line)
	}
	if !ok {
		return 1
	}
	return 0
}

// benchmark sets the workloads up, runs their slices interleaved, adds the
// traced pass when asked, and tears everything down.
func benchmark(ws []workload, cfg config, counts func(workload) opCounts, setups int, traced bool) (results []result, gfKernel string, err error) {
	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		return nil, "", err
	}
	runs := make([]measured, len(ws))
	defer func() {
		for _, m := range runs {
			if m.b != nil {
				m.b.close()
			}
		}
	}()
	for i, w := range ws {
		for rep := 0; rep < setups; rep++ {
			if runs[i].b != nil {
				runs[i].b.close()
				runs[i].b = nil // or the collection below keeps the old corpus alive
			}
			runtime.GC()
			start := time.Now()
			if runs[i].b, err = setUp(w, cfg, counts(w)); err != nil {
				return nil, "", err
			}
			runs[i].setups = append(runs[i].setups, time.Since(start).Seconds())
		}
	}
	for _, turn := range interleave(len(ws), numSlices) {
		m := &runs[turn.workload]
		m.slices = append(m.slices, m.b.runSlice(turn.slice))
	}
	for i := range runs {
		m := &runs[i]
		var mem runtime.MemStats
		runtime.ReadMemStats(&mem)
		m.heapMiB = float64(mem.HeapAlloc) / (1 << 20)
		if traced {
			if m.live, m.replay, m.traces, err = m.b.tracedPass(); err != nil {
				return nil, "", err
			}
		}
		results = append(results, summarize(*m))
	}
	return results, runs[0].b.planner.Stats().GFKernel, nil
}

// gitHead names the commit measured, when the tree is a git checkout.
func gitHead() string {
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}
