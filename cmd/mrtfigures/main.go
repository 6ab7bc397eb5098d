// Command mrtfigures regenerates the paper's tables and figures as
// aligned text tables.
//
// Usage:
//
//	mrtfigures -exp all
//	mrtfigures -exp fig4 -docs 200 -reps 50   # the paper's full scale
//	mrtfigures -exp table1
//
// Experiments: table1, table2, fig2, fig3, fig4, fig5, fig6, fig7, all.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"mobweb/internal/figures"
)

func main() {
	if err := run(os.Stdout, os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "mrtfigures:", err)
		os.Exit(1)
	}
}

// options is mrtfigures' command line.
type options struct {
	exp   string
	scale figures.SimScale
}

// newFlagSet binds mrtfigures' flags to o; DESIGN.md §22 lists each one.
func newFlagSet(o *options) *flag.FlagSet {
	fs := flag.NewFlagSet("mrtfigures", flag.ContinueOnError)
	fs.StringVar(&o.exp, "exp", "all", "experiment to regenerate (table1, table2, fig2..fig7, all)")
	fs.IntVar(&o.scale.Documents, "docs", figures.DefaultScale().Documents, "documents per simulated session (paper: 200)")
	fs.IntVar(&o.scale.Repetitions, "reps", figures.DefaultScale().Repetitions, "session repetitions averaged (paper: 50)")
	fs.Int64Var(&o.scale.Seed, "seed", 1, "random seed")
	return fs
}

func run(w io.Writer, args []string) error {
	var o options
	if err := newFlagSet(&o).Parse(args); errors.Is(err, flag.ErrHelp) {
		return nil
	} else if err != nil {
		return err
	}

	runners := map[string]func(io.Writer, figures.SimScale) error{
		"table1": func(w io.Writer, _ figures.SimScale) error {
			t, err := figures.Table1()
			if err != nil {
				return err
			}
			return figures.WriteTable(w, t)
		},
		"table2": func(w io.Writer, _ figures.SimScale) error {
			return figures.WriteTable(w, figures.Table2())
		},
		"fig2": func(w io.Writer, _ figures.SimScale) error {
			for _, s := range []float64{0.95, 0.99} {
				f, err := figures.Figure2(s)
				if err != nil {
					return err
				}
				if err := figures.WriteFigure(w, f); err != nil {
					return err
				}
				fmt.Fprintln(w)
			}
			return nil
		},
		"fig3": func(w io.Writer, _ figures.SimScale) error {
			f, err := figures.Figure3()
			if err != nil {
				return err
			}
			return figures.WriteFigure(w, f)
		},
		"fig4": multiPanel(figures.Figure4),
		"fig5": multiPanel(figures.Figure5),
		"fig6": multiPanel(figures.Figure6),
		"fig7": multiPanel(figures.Figure7),
		"ext-baseline": func(w io.Writer, scale figures.SimScale) error {
			t, err := figures.ExtBaseline(scale.Repetitions*4, scale.Seed)
			if err != nil {
				return err
			}
			return figures.WriteTable(w, t)
		},
		"ext-prefetch": singleTable(figures.ExtPrefetch),
		"ext-burst":    singleTable(figures.ExtBurst),
		"ext-adaptive": singleTable(figures.ExtAdaptive),
	}

	order := []string{
		"table1", "table2", "fig2", "fig3", "fig4", "fig5", "fig6", "fig7",
		"ext-baseline", "ext-prefetch", "ext-burst", "ext-adaptive",
	}
	if o.exp != "all" {
		runner, ok := runners[o.exp]
		if !ok {
			return fmt.Errorf("unknown experiment %q (want one of %v or all)", o.exp, order)
		}
		return runner(w, o.scale)
	}
	for _, name := range order {
		fmt.Fprintf(w, "==== %s ====\n", name)
		if err := runners[name](w, o.scale); err != nil {
			return err
		}
		fmt.Fprintln(w)
	}
	return nil
}

func singleTable(gen func(figures.SimScale) (figures.Table, error)) func(io.Writer, figures.SimScale) error {
	return func(w io.Writer, scale figures.SimScale) error {
		t, err := gen(scale)
		if err != nil {
			return err
		}
		return figures.WriteTable(w, t)
	}
}

func multiPanel(gen func(figures.SimScale) ([]figures.Figure, error)) func(io.Writer, figures.SimScale) error {
	return func(w io.Writer, scale figures.SimScale) error {
		figs, err := gen(scale)
		if err != nil {
			return err
		}
		for _, f := range figs {
			if err := figures.WriteFigure(w, f); err != nil {
				return err
			}
			fmt.Fprintln(w)
		}
		return nil
	}
}
