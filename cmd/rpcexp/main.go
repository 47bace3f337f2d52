// Command rpcexp regenerates every table and figure of the paper's
// evaluation plus the repository's ablations, printing paper-comparable
// console tables and writing figure SVGs.
//
// Usage:
//
//	rpcexp                      # run everything
//	rpcexp -exp table2          # one experiment
//	rpcexp -exp fig7 -out ./fig # write SVGs into ./fig
//
// The experiments are the paper's tables (table1–table3) and figures
// (fig2, fig4–fig8), then the repository's ablations: updater (A2, the
// exact box step against the paper's Richardson iteration), degree,
// metarules and scaling. `rpcexp -h` lists every id; the list is built
// from the runner table, so it names exactly what -exp accepts.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"rpcrank/internal/experiments"
	"rpcrank/internal/order"
	"rpcrank/internal/svgplot"
)

type runner func(out io.Writer, svgDir string) error

// experimentTable is every -exp id with its runner, in the order "all" runs
// them.
var experimentTable = []struct {
	id string
	fn runner
}{
	{"table1", runTable1},
	{"table2", runTable2},
	{"table3", runTable3},
	{"fig2", runFig2},
	{"fig4", runFig4},
	{"fig5", runFig5},
	{"fig6", runFig6},
	{"fig7", runFig7},
	{"fig8", runFig8},
	{"updater", runUpdater},
	{"degree", runDegree},
	{"metarules", runMetaRules},
	{"scaling", runScaling},
}

// experimentIDs is the -exp help text: every id in experimentTable, then
// "all".
func experimentIDs() string {
	ids := make([]string, 0, len(experimentTable)+1)
	for _, e := range experimentTable {
		ids = append(ids, e.id)
	}
	return strings.Join(append(ids, "all"), ", ")
}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "rpcexp:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("rpcexp", flag.ContinueOnError)
	exp := fs.String("exp", "all", "experiment id: "+experimentIDs())
	svgDir := fs.String("out", ".", "directory for figure SVGs")
	fs.SetOutput(out)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return nil
		}
		return err
	}

	ran := false
	for _, e := range experimentTable {
		if *exp != "all" && *exp != e.id {
			continue
		}
		ran = true
		fmt.Fprintf(out, "==== %s ====\n", e.id)
		if err := e.fn(out, *svgDir); err != nil {
			return fmt.Errorf("%s: %w", e.id, err)
		}
		fmt.Fprintln(out)
	}
	if !ran {
		return fmt.Errorf("unknown experiment %q", *exp)
	}
	return nil
}

func runTable1(out io.Writer, _ string) error {
	r, err := experiments.RunTable1()
	if err != nil {
		return err
	}
	r.Report(out)
	return nil
}

func runTable2(out io.Writer, _ string) error {
	r, err := experiments.RunTable2()
	if err != nil {
		return err
	}
	r.Report(out)
	return nil
}

func runTable3(out io.Writer, _ string) error {
	r, err := experiments.RunTable3()
	if err != nil {
		return err
	}
	r.Report(out)
	return nil
}

func runFig2(out io.Writer, _ string) error {
	r, err := experiments.RunFig2()
	if err != nil {
		return err
	}
	r.Report(out)
	return nil
}

func runFig4(out io.Writer, svgDir string) error {
	r := experiments.RunFig4()
	r.Report(out)
	return writeSVG(out, svgDir, "fig4-shapes.svg", r.Grid)
}

func runFig5(out io.Writer, svgDir string) error {
	r, err := experiments.RunFig5()
	if err != nil {
		return err
	}
	r.Report(out)
	return writeSVG(out, svgDir, "fig5-skeletons.svg", r.Grid)
}

func runFig6(out io.Writer, svgDir string) error {
	r, err := experiments.RunFig6()
	if err != nil {
		return err
	}
	r.Report(out)
	return writeSVG(out, svgDir, "fig6-sensitivity.svg", r.Grid)
}

func runFig7(out io.Writer, svgDir string) error {
	r, err := experiments.RunFig7()
	if err != nil {
		return err
	}
	r.Report(out)
	return writeSVG(out, svgDir, "fig7-countries.svg", r.Grid)
}

func runFig8(out io.Writer, svgDir string) error {
	r, err := experiments.RunFig8()
	if err != nil {
		return err
	}
	r.Report(out)
	return writeSVG(out, svgDir, "fig8-journals.svg", r.Grid)
}

func runUpdater(out io.Writer, _ string) error {
	r, err := experiments.RunUpdaterAblation(300, order.MustDirection(1, 1, -1, -1))
	if err != nil {
		return err
	}
	r.Report(out)
	return nil
}

func runDegree(out io.Writer, _ string) error {
	r, err := experiments.RunDegreeAblation(300, order.MustDirection(1, 1, -1, -1))
	if err != nil {
		return err
	}
	r.Report(out)
	return nil
}

func runMetaRules(out io.Writer, _ string) error {
	r, err := experiments.RunMetaRuleMatrix()
	if err != nil {
		return err
	}
	r.Report(out)
	return nil
}

func runScaling(out io.Writer, _ string) error {
	r, err := experiments.RunScaling()
	if err != nil {
		return err
	}
	r.Report(out)
	return nil
}

func writeSVG(out io.Writer, dir, name string, grid *svgplot.Grid) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(dir, name)
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := grid.Render(f); err != nil {
		return err
	}
	fmt.Fprintf(out, "wrote %s\n", path)
	return nil
}
