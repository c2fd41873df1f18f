package main

import (
	"fmt"
	"strings"
	"text/tabwriter"

	"aim/internal/experiments"
)

// runServe drives the live-serving experiment: the fleet scenario against a
// real aimd server on loopback, swept across advisor worker counts and
// cross-checked against its offline run (see experiments.RunServeSuite).
func (a *app) runServe(fast bool, workers int) error {
	opts := experiments.DefaultServeSuiteOptions()
	if fast {
		opts.Rounds = 3
	}
	if workers > 0 {
		opts.Parallelism = []int{workers}
	}
	res, err := experiments.RunServeSuite(opts)
	if err != nil {
		return err
	}
	fmt.Fprintf(a.out, "reference index set (offline run): %s\n", strings.Join(res.Reference.FinalIndexKeys, ", "))
	w := tabwriter.NewWriter(a.out, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "Workers\tStmts\tRows\tAdoptions\tReverted\tDrain(s)\tJournal")
	for _, run := range res.Runs {
		fmt.Fprintf(w, "%d\t%d\t%d\t%d\t%d\t%.3f\t%d records\n",
			run.Workers, run.Statements, run.Rows, run.Adoptions, run.Reverted, run.DrainSeconds, len(run.Journal))
	}
	if err := w.Flush(); err != nil {
		return err
	}
	fmt.Fprintln(a.out, "verdicts (identical across workers and vs the offline run):")
	for _, line := range res.Reference.Verdicts {
		fmt.Fprintln(a.out, "  "+line)
	}
	return nil
}
