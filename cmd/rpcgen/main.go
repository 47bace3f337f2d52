// Command rpcgen emits the repository's datasets as CSV so they can be
// inspected, archived, or fed back through the rpcrank CLI.
//
// Usage:
//
//	rpcgen -dataset countries > countries.csv
//	rpcgen -dataset scurve -n 500 -noise 0.05 -seed 7 > scurve.csv
//
// Datasets: countries, journals, table1a, table1b, scurve, crescent, linear.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"rpcrank/internal/dataset"
	"rpcrank/internal/order"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "rpcgen:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("rpcgen", flag.ContinueOnError)
	name := fs.String("dataset", "countries", "dataset to emit")
	n := fs.Int("n", 200, "row count for synthetic datasets")
	noise := fs.Float64("noise", 0.02, "noise level for synthetic datasets")
	seed := fs.Int64("seed", 1, "seed for synthetic datasets")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return nil
		}
		return err
	}
	var t *dataset.Table
	switch *name {
	case "countries":
		t = dataset.Countries()
	case "journals":
		t = dataset.Journals()
	case "table1a":
		t = dataset.Table1A()
	case "table1b":
		t = dataset.Table1B()
	case "scurve":
		xs, _ := dataset.SCurve(*n, *noise, *seed)
		t = dataset.ToTable("scurve", []string{"x1", "x2"}, order.MustDirection(1, 1), xs)
	case "crescent":
		xs, _ := dataset.Crescent(*n, *noise, *seed)
		t = dataset.ToTable("crescent", []string{"x1", "x2"}, order.MustDirection(1, 1), xs)
	case "linear":
		xs, _ := dataset.Linear(2, *n, *noise, *seed)
		t = dataset.ToTable("linear", []string{"x1", "x2"}, order.MustDirection(1, 1), xs)
	default:
		return fmt.Errorf("unknown dataset %q", *name)
	}
	return dataset.WriteCSV(out, t)
}
