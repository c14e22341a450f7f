// Command ffetcal sweeps utilization for the key configurations and prints
// DRV counts — the router-calibration companion to the experiment suite.
// Its router flags default to route.DefaultOptions, so a run without
// flags calibrates around the router the experiment tables use.
package main

import (
	"flag"
	"fmt"
	"os"
	"sync"

	"repro/internal/cell"
	"repro/internal/cliutil"
	"repro/internal/core"
	"repro/internal/netlist"
	"repro/internal/riscv"
	"repro/internal/route"
	"repro/internal/tech"
)

func main() {
	defaults := route.DefaultOptions()
	cf := flag.Float64("cf", defaults.CapacityFactor, "capacity factor")
	pb := flag.Float64("pb", defaults.PinSaturation, "pin saturation per um2")
	pexp := flag.Float64("pexp", defaults.PinCrowdingExp, "pin crowding exponent")
	sdc := flag.Float64("sdc", defaults.PinAccessFactor, "CFET pin access factor (1: the flow's CFET rule, 1.5)")
	regs := flag.Int("regs", 32, "register count")
	flag.Parse()

	// The router runs its options as given, so check both variants once,
	// before any flow starts.
	ropt := defaults
	ropt.CapacityFactor = *cf
	ropt.PinSaturation = *pb
	ropt.PinCrowdingExp = *pexp
	cfetOpt := ropt
	cfetOpt.PinAccessFactor = *sdc
	for _, o := range []route.Options{ropt, cfetOpt} {
		if err := o.Validate(); err != nil {
			cliutil.Fail("ffetcal", err)
		}
	}

	// SIGINT/SIGTERM cancel the sweep: in-flight runs stop within one
	// stage, their cells report the cancellation, and the exit is non-zero.
	ctx, stop := cliutil.SignalContext()
	defer stop()

	ffet := cell.NewLibrary(tech.NewFFET())
	cfet := cell.NewLibrary(tech.NewCFET())
	nlF, _, err := riscv.Generate(ffet, riscv.Config{Name: "rv32", Registers: *regs})
	if err != nil {
		cliutil.Fail("ffetcal", err)
	}
	nlC, err := nlF.Remap(cfet)
	if err != nil {
		cliutil.Fail("ffetcal", err)
	}

	type cfgSpec struct {
		label string
		nl    *netlist.Netlist
		pat   tech.Pattern
		bp    float64
	}
	specs := []cfgSpec{
		{"FFET_FM12      ", nlF, tech.Pattern{Front: 12}, 0},
		{"CFET_FM12      ", nlC, tech.Pattern{Front: 12}, 0},
		{"FFET_FM12BM12  ", nlF, tech.Pattern{Front: 12, Back: 12}, 0.5},
		{"FFET_FM4BM4    ", nlF, tech.Pattern{Front: 4, Back: 4}, 0.5},
		{"FFET_FM2BM2    ", nlF, tech.Pattern{Front: 2, Back: 2}, 0.5},
	}
	utils := []float64{0.68, 0.72, 0.76, 0.80, 0.84, 0.86}

	type result struct {
		si, ui int
		drv    int
		valid  bool
		reason string
		wlF    float64
		wlB    float64
	}
	results := make([]result, len(specs)*len(utils))
	sem := make(chan struct{}, 12)
	var wg sync.WaitGroup
	for si, sp := range specs {
		for ui, u := range utils {
			wg.Add(1)
			go func(si, ui int, sp cfgSpec, u float64) {
				defer wg.Done()
				sem <- struct{}{}
				defer func() { <-sem }()
				cfg := core.DefaultFlowConfig(sp.pat, 1.5, u)
				cfg.BackPinFraction = sp.bp
				cfg.Route = ropt
				if sp.label[0] == 'C' {
					cfg.Route = cfetOpt
				}
				res, err := core.RunFlowCtx(ctx, sp.nl, cfg)
				if err != nil {
					results[si*len(utils)+ui] = result{si, ui, -1, false, err.Error(), 0, 0}
					return
				}
				results[si*len(utils)+ui] = result{si, ui, res.DRVs(), res.Valid, res.Reason,
					res.WirelenFrontUm, res.WirelenBackUm}
			}(si, ui, sp, u)
		}
	}
	wg.Wait()
	fmt.Printf("cf=%.2f pb=%.2f\n%-16s", *cf, *pb, "config")
	for _, u := range utils {
		fmt.Printf("  u%.0f%%      ", u*100)
	}
	fmt.Println()
	for si, sp := range specs {
		fmt.Printf("%-16s", sp.label)
		for ui := range utils {
			r := results[si*len(utils)+ui]
			mark := "OK "
			if !r.valid {
				mark = "X  "
			}
			fmt.Printf("  %s d=%-5d", mark, r.drv)
		}
		fmt.Println()
	}
	if ctx.Err() != nil {
		fmt.Fprintln(os.Stderr, "interrupted: sweep incomplete")
		os.Exit(1)
	}
}
