package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"

	"leakest/internal/conformance"
)

// runVerify implements the `leakest verify` subcommand: the statistical
// conformance harness that cross-validates every estimation path and the
// frozen experiment goldens, then proves its own sensitivity with the
// mutation self-check. Exit codes: 0 all green, 1 conformance or self-check
// failure, 2 bad invocation or infrastructure error.
func runVerify(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("leakest verify", flag.ContinueOnError)
	fs.SetOutput(stderr)
	short := fs.Bool("short", false, "trim fixture sizes and MC trial counts (the CI setting)")
	workers := fs.Int("workers", 0, "goroutines for the estimator loops; 0 = all cores (report identical at any setting)")
	seed := fs.Int64("seed", 0, "override every random stream (0 = the shared characterization seed)")
	jsonPath := fs.String("json", "", "write the full conformance report JSON to this path; \"-\" = stdout")
	qmc := fs.Bool("qmc", false, "run the quasi-Monte-Carlo suite instead: scrambled-Sobol convergence, equal-SE ratio, and frozen-referee gates")
	tiled := fs.Bool("tiled", false, "run the tiled-pipeline suite instead: tile breakdowns leave the moments bitwise unchanged, tile/worker invariance, streaming round trip, and the tiled MC law")
	skipMutation := fs.Bool("skip-mutation", false, "skip the mutation self-check (it roughly doubles the runtime)")
	verbose := fs.Bool("v", false, "list every check, not just failures")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(stderr, "leakest verify: unexpected arguments %q\n", fs.Args())
		return 2
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	cfg := conformance.Config{Short: *short, Seed: *seed, Workers: *workers}

	run, selfCheck := conformance.Run, conformance.MutationSelfCheck
	switch {
	case *qmc && *tiled:
		fmt.Fprintln(stderr, "leakest verify: -qmc and -tiled are mutually exclusive")
		return 2
	case *qmc:
		run, selfCheck = conformance.RunQMC, conformance.QMCSelfCheck
	case *tiled:
		run, selfCheck = conformance.RunTiled, conformance.TiledSelfCheck
	}
	rep, err := run(ctx, cfg)
	if err != nil {
		fmt.Fprintf(stderr, "leakest verify: %v\n", err)
		return 2
	}
	if !*skipMutation {
		results, err := selfCheck(ctx, cfg)
		if err != nil {
			fmt.Fprintf(stderr, "leakest verify: %v\n", err)
			return 2
		}
		rep.SelfCheck = results
	}

	rep.Summarize(stdout, *verbose)
	ok := rep.OK()
	if rep.SelfCheck != nil {
		for _, r := range rep.SelfCheck {
			if r.Caught {
				continue
			}
			ok = false
			fmt.Fprintf(stdout, "SELF-CHECK FAIL: a %g× %s/%s perturbation slipped through every check\n",
				r.Factor, r.Target, r.Moment)
		}
		if conformance.AllCaught(rep.SelfCheck) {
			fmt.Fprintf(stdout, "mutation self-check: %d/%d perturbations caught\n",
				len(rep.SelfCheck), len(rep.SelfCheck))
		}
	}
	if *jsonPath != "" {
		out := stdout
		if *jsonPath != "-" {
			f, err := os.Create(*jsonPath)
			if err != nil {
				fmt.Fprintf(stderr, "leakest verify: %v\n", err)
				return 2
			}
			defer f.Close()
			out = f
		}
		if err := rep.WriteJSON(out); err != nil {
			fmt.Fprintf(stderr, "leakest verify: %v\n", err)
			return 2
		}
		if *jsonPath != "-" {
			fmt.Fprintf(stderr, "wrote %s\n", *jsonPath)
		}
	}
	if !ok {
		return 1
	}
	return 0
}
