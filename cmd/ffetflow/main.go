// Command ffetflow runs one full physical implementation + PPA flow on the
// generated RISC-V core through the staged pipeline, printing per-stage
// progress and the result summary. With -def it also writes the routed
// layout: the front, back and merged DEF files.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"repro/internal/cell"
	"repro/internal/cliutil"
	"repro/internal/core"
	"repro/internal/def"
	"repro/internal/riscv"
	"repro/internal/tech"
)

func main() {
	archFlag := flag.String("arch", "ffet", "ffet or cfet (any case)")
	front := flag.Int("fm", 12, "frontside routing layers")
	back := flag.Int("bm", 0, "backside routing layers")
	target := flag.Float64("target", 1.5, "synthesis target frequency (GHz)")
	util := flag.Float64("util", 0.76, "placement utilization")
	backPins := flag.Float64("backpins", 0, "backside input pin density ratio")
	regs := flag.Int("regs", 32, "architectural registers (8/16/32)")
	quiet := flag.Bool("quiet", false, "suppress per-stage progress lines")
	defDir := flag.String("def", "", "write <design>_{front,back,merged}.def here after the run")
	flag.Parse()

	arch, err := tech.ParseArch(*archFlag)
	if err != nil {
		cliutil.Fail("ffetflow", err)
	}
	st := tech.New(arch)
	lib := cell.NewLibrary(st)
	nl, _, err := riscv.Generate(lib, riscv.Config{Name: "rv32", Registers: *regs})
	if err != nil {
		cliutil.Fail("ffetflow", err)
	}
	cfg := core.DefaultFlowConfig(tech.Pattern{Front: *front, Back: *back}, *target, *util)
	cfg.BackPinFraction = *backPins
	t0 := time.Now()
	f, err := core.NewFlow(nl, cfg)
	if err != nil {
		cliutil.Fail("ffetflow", err)
	}
	// SIGINT/SIGTERM cancel the in-flight run: the pipeline stops within
	// one stage boundary (or mid-stage inside the long loops), partial
	// stage timings are still reported, and the exit is non-zero with the
	// classified error.
	ctx, stop := cliutil.SignalContext()
	defer stop()
	// Drive the pipeline one stage at a time so progress (and the cost of
	// each stage) is visible as it happens.
	for s := core.StageSynth; int(s) < core.NumStages; s++ {
		if err := f.RunToCtx(ctx, s); err != nil {
			cliutil.PrintPartialStageTimes(os.Stderr, f.Result())
			if cliutil.IsCancel(err) {
				fmt.Fprintf(os.Stderr, "interrupted after %s\n", time.Since(t0).Round(time.Millisecond))
			}
			fmt.Fprintf(os.Stderr, "flow failed: %v\n", err)
			os.Exit(1)
		}
		res := f.Result()
		if !*quiet {
			fmt.Printf("  [%2d/%d] %-9s %8s", int(s)+1, core.NumStages, s,
				res.StageTimes[s].Round(time.Microsecond))
			if f.Halted() {
				fmt.Printf("  (halted: %s)", res.Reason)
			}
			fmt.Println()
		}
		if f.Halted() {
			break
		}
	}
	res := f.Result()
	fmt.Printf("arch=%s pattern=%s target=%.2fGHz util=%.0f%% backpins=%.0f%%\n",
		st.Arch, cfg.Pattern, *target, *util*100, *backPins*100)
	fmt.Printf("valid=%v reason=%q\n", res.Valid, res.Reason)
	fmt.Printf("core=%.1fum2 (%.2fx%.2fum) cells=%.1fum2 realUtil=%.1f%%\n",
		res.CoreAreaUm2, float64(res.CoreW)/1000, float64(res.CoreH)/1000,
		res.CellAreaUm2, res.RealUtilization*100)
	fmt.Printf("HPWL=%.0fum WL front=%.0fum back=%.0fum vias=%d DRV=%d+%d\n",
		res.HPWLUm, res.WirelenFrontUm, res.WirelenBackUm, res.Vias, res.DRVsFront, res.DRVsBack)
	fmt.Printf("freq=%.3fGHz (period %.1fps) power=%.1fuW eff=%.0fGHz/W\n",
		res.AchievedFreqGHz, res.MinPeriodPs, res.PowerUW, res.EffGHzPerW)
	fmt.Printf("ctsbufs=%d synbufs=%d pins F/B=%d/%d rerouted=%d elapsed=%s\n",
		res.CTSBuffers, res.SynthBuffers, res.PinStats.FrontPins, res.PinStats.BackPins,
		res.Rerouted, time.Since(t0).Round(time.Millisecond))
	if res.Power != nil {
		fmt.Printf("power: sw=%.1f int=%.1f clk=%.1f leak=%.2f uW\n",
			res.Power.SwitchingUW, res.Power.InternalUW, res.Power.ClockUW, res.Power.LeakageUW)
	}
	if *defDir != "" {
		if err := writeDEFs(f, *defDir, nl.Name); err != nil {
			fmt.Fprintf(os.Stderr, "ffetflow: -def: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("wrote %s/%s_{front,back,merged}.def\n", *defDir, nl.Name)
	}
}

// writeDEFs renders the session's routed layout and writes one file per
// view into dir: <name>_front.def, <name>_back.def and <name>_merged.def.
func writeDEFs(f *core.Flow, dir, name string) error {
	front, back, merged, err := f.DEF()
	if err != nil {
		return err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for _, v := range []struct {
		kind string
		d    *def.Design
	}{{"front", front}, {"back", back}, {"merged", merged}} {
		if err := cliutil.WriteFile(filepath.Join(dir, name+"_"+v.kind+".def"), v.d.Write); err != nil {
			return err
		}
	}
	return nil
}
