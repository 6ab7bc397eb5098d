// Command erasurebench drives real transport fetches over loopback and
// compares the rateless fountain codec against adaptive-γ Vandermonde
// across a grid of channel corruption rates α, plus the single-stream
// broadcast fan-out work ratio (see fountain.go). It writes the results
// as JSON (for machines) and a plain-text table (for humans and the
// results/ directory).
//
// Usage:
//
//	erasurebench -gate -json BENCH_fountain.json -txt results/fountain-bench.txt
package main

import (
	"flag"
	"fmt"
	"os"
)

const gamma = 1.5 // paper default redundancy ratio

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "erasurebench:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("erasurebench", flag.ContinueOnError)
	jsonPath := fs.String("json", "BENCH_fountain.json", "write machine-readable results here (empty disables)")
	txtPath := fs.String("txt", "", "also write the text table here (stdout always gets it)")
	parseFountain := fountainFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	cfg, err := parseFountain()
	if err != nil {
		return err
	}
	return runFountain(cfg, *jsonPath, *txtPath)
}
