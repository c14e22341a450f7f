// Command ffetexp regenerates the paper's tables and figures: text to
// stdout and CSV files under -out. -scale full reproduces the paper's
// sweep resolution on the full RV32 core; -scale quick runs the reduced
// core on coarser sweeps.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"time"

	"repro/internal/cliutil"
	"repro/internal/exp"
)

func main() {
	scaleFlag := flag.String("scale", "quick", "quick or full")
	outDir := flag.String("out", "", "directory for CSV output (optional)")
	only := flag.String("only", "", "comma-separated experiment ids (e.g. fig09,table3)")
	flag.Parse()

	scale, err := exp.ParseScale(*scaleFlag)
	if err != nil {
		cliutil.Fail("ffetexp", err)
	}
	ids := exp.ExperimentIDs()
	want := map[string]bool{}
	for _, id := range strings.Split(*only, ",") {
		if id == "" {
			continue
		}
		if !slices.Contains(ids, id) {
			cliutil.Fail("ffetexp", fmt.Errorf("unknown experiment id %q (want %s)", id, strings.Join(ids, ", ")))
		}
		want[id] = true
	}
	sel := func(id string) bool { return len(want) == 0 || want[id] }

	suite, err := exp.NewSuite(scale)
	if err != nil {
		cliutil.Fail("ffetexp", err)
	}
	// SIGINT/SIGTERM cancel in-flight sweeps: running experiments drain
	// within one stage per in-flight point, their partial tables still
	// print (cancelled points as error cells), and the exit is non-zero.
	ctx, stop := cliutil.SignalContext()
	defer stop()
	suite.Ctx = ctx

	// One failed sweep point doesn't kill the report: its table prints
	// with error cells, the failure goes to stderr, and later experiments
	// still run. Only a cancellation stops the whole job list.
	failed := false
	for _, id := range ids {
		if !sel(id) {
			continue
		}
		run, _ := suite.Experiment(id)
		t0 := time.Now()
		t, err := run()
		if t != nil {
			t.Print(os.Stdout)
			fmt.Printf("  (%s in %s)\n\n", id, time.Since(t0).Round(time.Millisecond))
			if *outDir != "" {
				if err := os.MkdirAll(*outDir, 0o755); err != nil {
					cliutil.Fail("ffetexp", err)
				}
				path := filepath.Join(*outDir, t.ID+".csv")
				if err := os.WriteFile(path, []byte(t.CSV()), 0o644); err != nil {
					cliutil.Fail("ffetexp", err)
				}
			}
		}
		if err != nil {
			failed = true
			fmt.Fprintf(os.Stderr, "%s: %v\n", id, err)
			if cliutil.IsCancel(err) || ctx.Err() != nil {
				fmt.Fprintln(os.Stderr, "interrupted; stopping")
				break
			}
		}
	}
	if failed {
		os.Exit(1)
	}
}
