// Command mobweblint is the repository's multichecker: it runs the
// custom invariant analyzers from internal/lint (planmut, framemut,
// gfarith, locks, errwrap, goroleak, nondet, hotalloc) plus a selected
// set of go vet passes over the given packages.
//
//	go run ./cmd/mobweblint ./...          # everything (the CI gate)
//	go run ./cmd/mobweblint -vet=false ./internal/core
//	go run ./cmd/mobweblint -only=locks ./internal/transport
//	go run ./cmd/mobweblint -baseline lint.baseline ./...
//	go run ./cmd/mobweblint -json -vet=false ./...  > report.json
//
// Exit status: 0 clean, 1 findings, 2 usage or load failure — the vet
// convention. Individual lines can be suppressed with a trailing
// `//lint:allow <analyzer>` comment; suppressions should carry a reason
// in parentheses. A findings baseline (-baseline) grandfathers recorded
// findings so a newly-tightened analyzer can land while its backlog is
// triaged; regenerate it with -write-baseline.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"strings"

	"mobweb/internal/lint"
)

// vetPasses are the go vet analyzers run alongside the custom suite:
// the concurrency-adjacent ones (a copied mutex or a lost context
// cancel is the same bug family locks hunts) plus printf, which
// backstops errwrap's format-string parsing.
var vetPasses = []string{"copylocks", "lostcancel", "atomic", "printf"}

func main() {
	runVet := flag.Bool("vet", true, "also run the selected go vet passes")
	only := flag.String("only", "", "comma-separated analyzer names to run (default: all)")
	jsonOut := flag.Bool("json", false, "emit findings as a JSON array (machine-readable CI artifact)")
	baselinePath := flag.String("baseline", "", "findings baseline file; recorded findings do not fail the run")
	writeBaseline := flag.String("write-baseline", "", "write the current findings to this baseline file and exit 0")
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(), "usage: mobweblint [flags] [packages]\n\nAnalyzers:\n")
		for _, a := range lint.Analyzers() {
			fmt.Fprintf(flag.CommandLine.Output(), "  %-10s %s\n", a.Name, a.Doc)
		}
		fmt.Fprintf(flag.CommandLine.Output(), "\nFlags:\n")
		flag.PrintDefaults()
	}
	flag.Parse()

	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}

	analyzers := lint.Analyzers()
	if *only != "" {
		byName := make(map[string]*lint.Analyzer)
		for _, a := range analyzers {
			byName[a.Name] = a
		}
		analyzers = nil
		for _, name := range strings.Split(*only, ",") {
			a, ok := byName[strings.TrimSpace(name)]
			if !ok {
				fmt.Fprintf(os.Stderr, "mobweblint: unknown analyzer %q\n", name)
				os.Exit(2)
			}
			analyzers = append(analyzers, a)
		}
	}

	diags, err := lint.Run(".", patterns, analyzers)
	if err != nil {
		fmt.Fprintf(os.Stderr, "mobweblint: %v\n", err)
		os.Exit(2)
	}

	root, err := os.Getwd()
	if err != nil {
		root = ""
	}

	if *writeBaseline != "" {
		if err := os.WriteFile(*writeBaseline, lint.FormatBaseline(root, diags), 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "mobweblint: %v\n", err)
			os.Exit(2)
		}
		fmt.Fprintf(os.Stderr, "mobweblint: wrote %d findings to %s\n", len(diags), *writeBaseline)
		return
	}

	if *baselinePath != "" {
		data, err := os.ReadFile(*baselinePath)
		if err != nil {
			fmt.Fprintf(os.Stderr, "mobweblint: %v\n", err)
			os.Exit(2)
		}
		baseline, err := lint.ParseBaseline(data)
		if err != nil {
			fmt.Fprintf(os.Stderr, "mobweblint: %v\n", err)
			os.Exit(2)
		}
		diags = lint.ApplyBaseline(baseline, root, diags)
	}

	if *jsonOut {
		type finding struct {
			Analyzer string `json:"analyzer"`
			File     string `json:"file"`
			Line     int    `json:"line"`
			Column   int    `json:"column"`
			Message  string `json:"message"`
		}
		findings := make([]finding, 0, len(diags))
		for _, d := range diags {
			findings = append(findings, finding{
				Analyzer: d.Analyzer,
				File:     d.Pos.Filename,
				Line:     d.Pos.Line,
				Column:   d.Pos.Column,
				Message:  d.Message,
			})
		}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "\t")
		if err := enc.Encode(findings); err != nil {
			fmt.Fprintf(os.Stderr, "mobweblint: %v\n", err)
			os.Exit(2)
		}
	} else {
		for _, d := range diags {
			fmt.Println(d)
		}
	}

	vetFailed := false
	if *runVet {
		args := []string{"vet"}
		for _, p := range vetPasses {
			args = append(args, "-"+p)
		}
		args = append(args, patterns...)
		cmd := exec.Command("go", args...)
		cmd.Stdout = os.Stdout
		cmd.Stderr = os.Stderr
		if err := cmd.Run(); err != nil {
			vetFailed = true
		}
	}

	if len(diags) > 0 || vetFailed {
		os.Exit(1)
	}
}
