// Package census reads the knob census, DESIGN.md §22: under a "####"
// heading per command or option struct, one row `| knob | default | who
// sets it |` per flag or field. The commands' tests hold their flag sets
// to it, and the root package's test the option structs under internal/.
package census

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"strings"
)

// Table maps each heading of §22 in the file at path ("mrtserver",
// "transport.FetchOptions") to its rows: knob to default, backticks
// dropped and "—" read as the empty default.
func Table(path string) (map[string]map[string]string, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	table := make(map[string]map[string]string)
	in, heading := false, ""
	for _, line := range strings.Split(string(data), "\n") {
		switch {
		case strings.HasPrefix(line, "## "):
			in = strings.HasPrefix(line, "## 22.")
		case in && strings.HasPrefix(line, "#### "):
			heading = strings.Trim(line[len("#### "):], "` ")
			table[heading] = make(map[string]string)
		case in && heading != "" && strings.HasPrefix(line, "| `"):
			cells := strings.Split(strings.Trim(line, "| "), " | ")
			if len(cells) != 3 || strings.TrimSpace(cells[2]) == "" {
				return nil, fmt.Errorf("census: %s row %q needs a knob, a default and who sets it", heading, line)
			}
			table[heading][strings.Trim(cells[0], "`")] = strings.Trim(strings.TrimPrefix(cells[1], "—"), "`")
		}
	}
	return table, nil
}

// CheckFlags is Check over fs's flags and their defaults.
func CheckFlags(path string, fs *flag.FlagSet) error {
	have := make(map[string]string)
	fs.VisitAll(func(f *flag.Flag) { have["-"+f.Name] = f.DefValue })
	return Check(path, fs.Name(), have, true)
}

// Check reports each knob of have with no row under heading, or, with
// defaults, whose row names a default other than have's; and each row
// that names a knob not in have.
func Check(path, heading string, have map[string]string, defaults bool) error {
	table, err := Table(path)
	if err != nil {
		return err
	}
	var errs []error
	for knob, def := range have {
		if row, ok := table[heading][knob]; !ok {
			errs = append(errs, fmt.Errorf("%s %s: no row in DESIGN.md §22", heading, knob))
		} else if defaults && row != def {
			errs = append(errs, fmt.Errorf("%s %s: DESIGN.md §22 says default %q, the flag's is %q", heading, knob, row, def))
		}
	}
	for knob := range table[heading] {
		if _, ok := have[knob]; !ok {
			errs = append(errs, fmt.Errorf("%s %s: DESIGN.md §22 has a row for a knob that is gone", heading, knob))
		}
	}
	return errors.Join(errs...)
}
