// Package linttest is the fixture harness for the analyzer suite: the
// stdlib stand-in for golang.org/x/tools/go/analysis/analysistest.
//
// A fixture is an ordinary Go package under internal/lint/testdata/src
// (invisible to ./... but loadable as an explicit pattern). Lines where
// an analyzer must report carry analysistest-style want comments:
//
//	s.ch <- v // want "held across a channel send"
//
// Each quoted string is a regexp matched against the diagnostic message;
// several strings on one line expect several diagnostics. The harness
// fails on every unmatched want AND on every unexpected diagnostic, so
// fixtures pin both the true positives and the allowed patterns.
package linttest

import (
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"mobweb/internal/lint"
)

// Run loads the fixture package at pattern (relative to the calling
// test's working directory), applies exactly one analyzer, and checks
// its diagnostics against the fixture's want comments.
func Run(t *testing.T, a *lint.Analyzer, pattern string) {
	t.Helper()
	diags, err := lint.Run(".", []string{pattern}, []*lint.Analyzer{a})
	if err != nil {
		t.Fatalf("loading fixture %s: %v", pattern, err)
	}
	wants, err := parseWants(pattern)
	if err != nil {
		t.Fatalf("parsing want comments in %s: %v", pattern, err)
	}

	matched := make([]bool, len(diags))
	for _, w := range wants {
		found := false
		for i, d := range diags {
			if !matched[i] && filepath.Base(d.Pos.Filename) == w.file && d.Pos.Line == w.line && w.re.MatchString(d.Message) {
				matched[i] = true
				found = true
				break
			}
		}
		if !found {
			t.Errorf("%s:%d: expected diagnostic matching %q, got none", w.file, w.line, w.re)
		}
	}
	for i, d := range diags {
		if !matched[i] {
			t.Errorf("unexpected diagnostic: %s", d)
		}
	}
}

// want is one expected diagnostic: a regexp anchored to a file line.
type want struct {
	file string
	line int
	re   *regexp.Regexp
}

var wantRE = regexp.MustCompile(`//\s*want\s+(.*)$`)
var wantArgRE = regexp.MustCompile("`[^`]*`|\"(?:[^\"\\\\]|\\\\.)*\"")

// parseWants scans every .go file in the fixture directory for
// `// want "re"` comments. Quoted strings may be double-quoted (with Go
// escapes) or backquoted (taken literally).
func parseWants(pattern string) ([]want, error) {
	files, err := filepath.Glob(filepath.Join(filepath.FromSlash(pattern), "*.go"))
	if err != nil {
		return nil, err
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("no .go files under %s", pattern)
	}
	var wants []want
	for _, file := range files {
		data, err := os.ReadFile(file)
		if err != nil {
			return nil, err
		}
		for i, line := range strings.Split(string(data), "\n") {
			m := wantRE.FindStringSubmatch(line)
			if m == nil {
				continue
			}
			args := wantArgRE.FindAllString(m[1], -1)
			if len(args) == 0 {
				return nil, fmt.Errorf("%s:%d: want comment with no quoted regexp", file, i+1)
			}
			for _, arg := range args {
				text := arg
				if strings.HasPrefix(arg, `"`) {
					text, err = strconv.Unquote(arg)
					if err != nil {
						return nil, fmt.Errorf("%s:%d: bad want string %s: %v", file, i+1, arg, err)
					}
				} else {
					text = strings.Trim(arg, "`")
				}
				re, err := regexp.Compile(text)
				if err != nil {
					return nil, fmt.Errorf("%s:%d: bad want regexp %q: %v", file, i+1, text, err)
				}
				wants = append(wants, want{file: filepath.Base(file), line: i + 1, re: re})
			}
		}
	}
	return wants, nil
}
