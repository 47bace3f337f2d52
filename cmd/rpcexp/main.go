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
// Experiments: table1 table2 table3 fig2 fig4 fig5 fig6 fig7 fig8
// ablations:   projector updater degree metarules scaling
//
// The projector ablation (A1) compares the two score solvers: grid-seeded
// safeguarded Newton and exact quintic roots.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"rpcrank/internal/experiments"
	"rpcrank/internal/order"
	"rpcrank/internal/svgplot"
)

type runner func(out io.Writer, svgDir string) error

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "rpcexp:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("rpcexp", flag.ContinueOnError)
	exp := fs.String("exp", "all", "experiment id (table1..3, fig2/4/5/6/7/8, projector (grid+Newton vs quintic), updater, degree, metarules, scaling, all)")
	svgDir := fs.String("out", ".", "directory for figure SVGs")
	if err := fs.Parse(args); err != nil {
		return err
	}

	all := []struct {
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
		{"projector", runProjector},
		{"updater", runUpdater},
		{"degree", runDegree},
		{"metarules", runMetaRules},
		{"scaling", runScaling},
	}
	ran := false
	for _, e := range all {
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

func runProjector(out io.Writer, _ string) error {
	r, err := experiments.RunProjectorAblation(300, order.MustDirection(1, 1, -1, -1))
	if err != nil {
		return err
	}
	r.Report(out)
	return nil
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
