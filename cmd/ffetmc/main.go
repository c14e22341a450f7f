// Command ffetmc runs a Monte Carlo overlay-variation STA study on the
// generated RISC-V core: one physical-implementation flow to the timing
// checkpoint, then thousands of re-timed samples under per-side overlay
// and parasitic perturbations, reporting the WNS/TNS distribution.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"time"

	"repro/internal/cell"
	"repro/internal/cliutil"
	"repro/internal/core"
	"repro/internal/riscv"
	"repro/internal/tech"
	"repro/internal/variation"
)

func main() {
	front := flag.Int("fm", 6, "frontside routing layers")
	back := flag.Int("bm", 6, "backside routing layers")
	target := flag.Float64("target", 1.5, "synthesis target frequency (GHz)")
	util := flag.Float64("util", 0.72, "placement utilization")
	backPins := flag.Float64("backpins", 0.5, "backside input pin density ratio")
	regs := flag.Int("regs", 16, "architectural registers (8/16/32)")
	opt := variation.DefaultOptions()
	flag.IntVar(&opt.Samples, "samples", opt.Samples, "Monte Carlo samples")
	flag.IntVar(&opt.Workers, "workers", opt.Workers, "sampling goroutines (capped at GOMAXPROCS)")
	flag.Uint64Var(&opt.Seed, "seed", opt.Seed, "PRNG seed")
	flag.Float64Var(&opt.SigmaNm, "sigma", opt.SigmaNm, "per-side overlay sigma in nm")
	flag.Float64Var(&opt.FloorFF, "floor", opt.FloorFF, "screening floor in fF (0 screens no net out)")
	flag.Parse()

	if err := opt.Validate(); err != nil {
		cliutil.Fail("ffetmc", err)
	}

	// SIGINT/SIGTERM cancel both the flow and the sampling loop; a
	// cancelled run exits non-zero.
	ctx, stop := cliutil.SignalContext()
	defer stop()

	lib := cell.NewLibrary(tech.NewFFET())
	nl, _, err := riscv.Generate(lib, riscv.Config{Name: "rv32", Registers: *regs})
	if err != nil {
		cliutil.Fail("ffetmc", err)
	}
	cfg := core.DefaultFlowConfig(tech.Pattern{Front: *front, Back: *back}, *target, *util)
	cfg.BackPinFraction = *backPins
	f, err := core.NewFlow(nl, cfg)
	if err != nil {
		cliutil.Fail("ffetmc", err)
	}
	t0 := time.Now()
	if err := f.RunToCtx(ctx, core.StageSTA); err != nil {
		fail(f, err)
	}
	if f.Halted() {
		cliutil.Fail("ffetmc", fmt.Errorf("flow halted: %s", f.Result().Reason))
	}
	basis, err := f.VariationBasis()
	if err != nil {
		cliutil.Fail("ffetmc", err)
	}
	flowDur := time.Since(t0)

	t1 := time.Now()
	sum, err := variation.Study(ctx, basis, opt)
	if err != nil {
		fail(f, err)
	}
	mcDur := time.Since(t1)

	fmt.Printf("design: pattern=%s backpins=%.0f%% nets=%d period=%.1fps (flow %s)\n",
		cfg.Pattern, *backPins*100, len(basis.NetRC), basis.PeriodPs,
		flowDur.Round(time.Millisecond))
	fmt.Printf("model: sigma=%gnm/side capsens=%g/nm parasitic=%g floor=%gfF seed=%d\n",
		opt.SigmaNm, opt.CapSensPerNm, opt.ParasiticSigma, opt.FloorFF, opt.Seed)
	fmt.Printf("%d samples in %s (%.0f samples/sec, %d workers)\n",
		sum.Samples, mcDur.Round(time.Millisecond),
		float64(sum.Samples)/mcDur.Seconds(), min(opt.Workers, runtime.GOMAXPROCS(0)))
	fmt.Printf("WNS ps: mean=%.2f sigma=%.2f P50=%.2f P95=%.2f P99.7=%.2f\n",
		sum.MeanWNSPs, sum.SigmaWNSPs, sum.P50WNSPs, sum.P95WNSPs, sum.P997WNSPs)
	fmt.Printf("TNS ps: mean=%.2f sigma=%.2f P50=%.2f P95=%.2f P99.7=%.2f\n",
		sum.MeanTNSPs, sum.SigmaTNSPs, sum.P50TNSPs, sum.P95TNSPs, sum.P997TNSPs)
}

// fail reports a run error with the flow's partial stage timings (an
// interrupted flow still shows the work it paid for) and exits 1.
func fail(f *core.Flow, err error) {
	cliutil.PrintPartialStageTimes(os.Stderr, f.Result())
	cliutil.Fail("ffetmc", err)
}
