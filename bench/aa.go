package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"slices"
)

// runAA is the benchmark judging itself: every selected workload is run
// 2n times, each in a fresh process exactly as a driver would run it, the
// runs alternating between set A and set B. Identical code on both sides
// means any difference between the set medians is the benchmark's own
// noise, which must stay inside each metric's bound; the count metrics of
// the Vandermonde workloads must not differ at all.
func runAA(n int, ws []workload, base []string, stdout, stderr io.Writer) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	// values[workload][metric][set] lists one value per run.
	values := make(map[string]map[string][2][]float64)
	for i := 0; i < 2*n; i++ {
		for _, w := range ws {
			metrics, err := runChild(self, append([]string{"-workload", w.name}, base...), stderr)
			if err != nil {
				fmt.Fprintf(stderr, "bench: A/A run %d of %s: %v\n", i, w.name, err)
				return 1
			}
			if values[w.name] == nil {
				values[w.name] = make(map[string][2][]float64)
			}
			for name, v := range metrics {
				sets := values[w.name][name]
				sets[i%2] = append(sets[i%2], v)
				values[w.name][name] = sets
			}
		}
	}
	ok := true
	fmt.Fprintf(stdout, "%-16s %-26s %14s %14s %8s %8s\n", "workload", "metric", "median A", "median B", "diff", "bound")
	for _, w := range ws {
		for _, d := range endToEnd {
			sets := values[w.name][d.name]
			a, b := median(sets[0]), median(sets[1])
			diff := math.Abs(ratio(b-a, a))
			verdict := ""
			if diff > d.bound {
				verdict, ok = "  EXCEEDS BOUND", false
			}
			if w.codec == 0 && slices.Contains(exactCounts, d.name) && !allEqual(append(sets[0], sets[1]...)) {
				verdict, ok = "  COUNT NOT EXACT", false
			}
			fmt.Fprintf(stdout, "%-16s %-26s %14.4f %14.4f %7.2f%% %7.2f%%%s\n", w.name, d.name, a, b, 100*diff, 100*d.bound, verdict)
		}
	}
	if !ok {
		return 1
	}
	return 0
}

// runChild runs one benchmark process and parses the result object on the
// last line of its output.
func runChild(self string, args []string, stderr io.Writer) (map[string]float64, error) {
	cmd := exec.Command(self, args...)
	cmd.Stderr = stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, err
	}
	lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
	var res struct {
		Correct bool `json:"correct"`
		Metrics map[string]struct {
			Value float64 `json:"value"`
		} `json:"metrics"`
	}
	if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
		return nil, err
	}
	if !res.Correct {
		return nil, fmt.Errorf("run reported incorrect outputs")
	}
	metrics := make(map[string]float64, len(res.Metrics))
	for name, m := range res.Metrics {
		metrics[name] = m.Value
	}
	return metrics, nil
}

func allEqual(vals []float64) bool {
	for _, v := range vals {
		if v != vals[0] {
			return false
		}
	}
	return true
}
