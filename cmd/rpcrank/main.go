// Command rpcrank ranks the objects of a CSV table with a ranking principal
// curve and prints the ordered list.
//
// The CSV layout is: header "object,attr1,attr2,...", one row per object.
// The -alpha flag marks each attribute as benefit (+) or cost (-).
//
// Usage:
//
//	rpcrank -alpha +,+,-,- [-top 20] [-scores] [-features] data.csv
//	rpcrank -builtin countries -top 10
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"

	"rpcrank"
	"rpcrank/internal/core"
	"rpcrank/internal/dataset"
	"rpcrank/internal/order"
	"rpcrank/internal/report"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "rpcrank:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("rpcrank", flag.ContinueOnError)
	alphaSpec := fs.String("alpha", "", "comma-separated attribute directions, e.g. +,+,-,-")
	builtin := fs.String("builtin", "", "use a built-in dataset instead of a CSV: countries | journals")
	top := fs.Int("top", 0, "print only the best N objects (0 = all)")
	showScores := fs.Bool("scores", true, "print scores next to positions")
	features := fs.Bool("features", false, "also print the attribute influence report")
	stab := fs.Int("stability", 0, "bootstrap resamples for rank-interval reporting (0 = off)")
	fullReport := fs.Bool("report", false, "emit the full ranking report (diagnostics, dominance structure, model)")
	seed := fs.Int64("seed", 1, "fit seed")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return nil
		}
		return err
	}

	var t *dataset.Table
	switch *builtin {
	case "countries":
		t = dataset.Countries()
	case "journals":
		t = dataset.Journals()
	case "":
		if fs.NArg() != 1 {
			return fmt.Errorf("expected exactly one CSV path (or -builtin), got %d args", fs.NArg())
		}
		if *alphaSpec == "" {
			return fmt.Errorf("-alpha is required for CSV input")
		}
		alpha, err := dataset.ParseAlpha(*alphaSpec)
		if err != nil {
			return err
		}
		f, err := os.Open(fs.Arg(0))
		if err != nil {
			return err
		}
		defer f.Close()
		t, err = dataset.ReadCSV(f, fs.Arg(0), alpha)
		if err != nil {
			return err
		}
	default:
		return fmt.Errorf("unknown builtin dataset %q", *builtin)
	}

	if *fullReport {
		return report.Generate(os.Stdout, t, report.Options{
			Top:       *top,
			Stability: *stab,
			Features:  *features,
			Fit:       core.Options{Alpha: t.Alpha, Seed: *seed, Restarts: 3},
		})
	}

	res, err := rpcrank.Rank(t.Data.ToRows(), rpcrank.Config{Alpha: t.Alpha, Seed: *seed})
	if err != nil {
		return err
	}
	var stabRes *rpcrank.StabilityResult
	if *stab > 0 {
		stabRes, err = rpcrank.Stability(t.Data.ToRows(), rpcrank.Config{Alpha: t.Alpha, Seed: *seed}, *stab)
		if err != nil {
			return err
		}
	}

	byRank := order.SortByScoreDesc(res.Scores)
	limit := len(byRank)
	if *top > 0 && *top < limit {
		limit = *top
	}
	fmt.Printf("ranking of %d objects (%d attributes, explained variance %.1f%%)\n",
		t.N(), t.Dim(), 100*res.ExplainedVariance())
	for pos := 0; pos < limit; pos++ {
		i := byRank[pos]
		switch {
		case stabRes != nil:
			o := stabRes.Objects[i]
			fmt.Printf("%4d  %-28s %.4f  rank interval [%d, %d]\n",
				pos+1, t.Objects[i], res.Scores[i], o.LowRank, o.HighRank)
		case *showScores:
			fmt.Printf("%4d  %-28s %.4f\n", pos+1, t.Objects[i], res.Scores[i])
		default:
			fmt.Printf("%4d  %s\n", pos+1, t.Objects[i])
		}
	}
	if stabRes != nil {
		fmt.Printf("bootstrap agreement (mean Kendall tau over %d resamples): %.3f\n",
			*stab, stabRes.MeanTau)
	}

	if *features {
		reports, err := rpcrank.RankFeatures(t.Data.ToRows(), t.Attrs, rpcrank.Config{Alpha: t.Alpha, Seed: *seed})
		if err != nil {
			return err
		}
		fmt.Println("\nattribute influence (drop-one Kendall tau; lower tau = more influential):")
		for _, r := range reports {
			fmt.Printf("  %-20s drop-tau %.3f  influence %.3f  curvature %.3f\n",
				r.Name, r.DropTau, r.Influence, r.Curvature)
		}
	}
	return nil
}
