// dbplbench prints the experiment tables of internal/experiments: every
// figure, worked example, and performance claim of the paper, measured on
// this reproduction.
//
// Usage:
//
//	dbplbench            # run all experiments
//	dbplbench -exp E6    # run one experiment (E1..E8)
//	dbplbench -quick     # smaller workloads for a fast pass
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"

	"repro/internal/experiments"
)

func main() {
	exp := flag.String("exp", "", "experiment to run (E1..E8); empty = all")
	quick := flag.Bool("quick", false, "smaller workloads")
	flag.Parse()

	// A long sweep stops cleanly at the next experiment boundary on the
	// first Ctrl-C; stop() then restores the default handler, so a second
	// Ctrl-C kills an experiment that is still mid-flight.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	context.AfterFunc(ctx, stop)

	e2sizes := []int{16, 32, 64, 128}
	if *quick {
		e2sizes = []int{8, 16, 32}
	}

	runs := []struct {
		name string
		fn   func() error
	}{
		{"E1", func() error { return experiments.PrintE1(os.Stdout) }},
		{"E2", func() error { return experiments.PrintE2(os.Stdout, e2sizes) }},
		{"E3", func() error { return experiments.PrintE3(os.Stdout) }},
		{"E4", func() error { return experiments.PrintE4(os.Stdout) }},
		{"E5", func() error { return experiments.PrintE5(os.Stdout) }},
		{"E6", func() error { return experiments.PrintE6(os.Stdout) }},
		{"E7", func() error { return experiments.PrintE7(os.Stdout) }},
		{"E8", func() error { return experiments.PrintE8(os.Stdout) }},
	}
	ran := false
	for _, r := range runs {
		if *exp != "" && r.name != *exp {
			continue
		}
		if ctx.Err() != nil {
			fmt.Fprintln(os.Stderr, "interrupted")
			os.Exit(1)
		}
		ran = true
		if err := r.fn(); err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", r.name, err)
			os.Exit(1)
		}
		fmt.Println()
	}
	if !ran {
		fmt.Fprintf(os.Stderr, "unknown experiment %q (E1..E8)\n", *exp)
		os.Exit(2)
	}
}
