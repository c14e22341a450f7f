// Benchmark harness: one benchmark per table and figure of the paper's
// evaluation section. Each benchmark regenerates its artifact through the
// experiment suite and prints the rows/series the paper reports (once per
// run). `go test -bench=. -benchmem` therefore reproduces the whole
// evaluation at Quick scale; run cmd/ffetexp for the Full-scale sweeps.
package ffet_test

import (
	"context"
	"fmt"
	"os"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/cts"
	"repro/internal/exp"
	"repro/internal/riscv"
	"repro/internal/sta"
	"repro/internal/tech"
	"repro/internal/variation"
)

var (
	suiteOnce sync.Once
	suite     *exp.Suite
	suiteErr  error
)

func getSuite(b *testing.B) *exp.Suite {
	b.Helper()
	suiteOnce.Do(func() {
		suite, suiteErr = exp.NewSuite(exp.Quick)
	})
	if suiteErr != nil {
		b.Fatalf("suite: %v", suiteErr)
	}
	return suite
}

// printOnce renders a table to stdout on the first benchmark iteration.
func printOnce(i int, t *exp.Table) {
	if i == 0 {
		t.Print(os.Stdout)
	}
}

func BenchmarkFig04CellArea(b *testing.B) {
	s := getSuite(b)
	for i := 0; i < b.N; i++ {
		printOnce(i, s.Fig04())
	}
}

func BenchmarkTable1LibChar(b *testing.B) {
	s := getSuite(b)
	for i := 0; i < b.N; i++ {
		printOnce(i, s.Table1())
	}
}

func BenchmarkTable2DesignRules(b *testing.B) {
	s := getSuite(b)
	for i := 0; i < b.N; i++ {
		printOnce(i, s.Table2())
	}
}

func benchFlow(b *testing.B, run func() (*exp.Table, error), metric func(t *exp.Table)) {
	s := getSuite(b)
	_ = s
	for i := 0; i < b.N; i++ {
		t, err := run()
		if err != nil {
			b.Fatal(err)
		}
		printOnce(i, t)
		if metric != nil && i == 0 {
			metric(t)
		}
	}
}

func BenchmarkFig08aAreaUtil(b *testing.B) {
	s := getSuite(b)
	benchFlow(b, s.Fig08a, nil)
}

func BenchmarkFig08bLayout(b *testing.B) {
	s := getSuite(b)
	benchFlow(b, s.Fig08b, nil)
}

func BenchmarkFig08cAreaUtil(b *testing.B) {
	s := getSuite(b)
	benchFlow(b, s.Fig08c, nil)
}

func BenchmarkFig09PowerFreq(b *testing.B) {
	s := getSuite(b)
	benchFlow(b, s.Fig09, nil)
}

func BenchmarkFig10FreqArea(b *testing.B) {
	s := getSuite(b)
	benchFlow(b, s.Fig10, nil)
}

func BenchmarkFig11PinDensityDoE(b *testing.B) {
	s := getSuite(b)
	benchFlow(b, s.Fig11, nil)
}

func BenchmarkTable3CoOpt(b *testing.B) {
	s := getSuite(b)
	benchFlow(b, s.Table3, nil)
}

func BenchmarkFig12MaxUtilLayers(b *testing.B) {
	s := getSuite(b)
	benchFlow(b, s.Fig12, nil)
}

func BenchmarkFig13PowerEff(b *testing.B) {
	s := getSuite(b)
	benchFlow(b, s.Fig13, nil)
}

// BenchmarkSTAReuse measures repeated timing analysis of one design
// through a prebuilt sta.Engine — the unit of work behind incremental
// frequency sweeps. The levelized order and all arrival scratch are
// reused, so steady-state iterations should report ~0 allocs/op.
func BenchmarkSTAReuse(b *testing.B) {
	s := getSuite(b)
	nl, _, err := riscv.Generate(s.FFET, riscv.Config{Name: "rv32sta", Registers: 16})
	if err != nil {
		b.Fatal(err)
	}
	eng, err := sta.NewEngine(nl)
	if err != nil {
		b.Fatal(err)
	}
	in := sta.Input{}
	opt := sta.DefaultOptions()
	if _, err := eng.Analyze(in, opt); err != nil { // warm the path buffer
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eng.Analyze(in, opt); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSweepShared contrasts the two ways of running the paper's
// back-pin-fraction DoE (Fig. 11): "forked" runs the shared prefix
// (synthesis through CTS) once in a staged core.Flow session and forks a
// child per FP(1-x)BP(x) point at StagePartition; "independent" runs one
// complete RunFlow per point, recomputing the prefix every time. Results
// are bit-identical between the two; the forked sweep must show
// measurably less work (allocs/op and ns/op) per sweep.
func BenchmarkSweepShared(b *testing.B) {
	s := getSuite(b)
	nl, _, err := riscv.Generate(s.FFET, riscv.Config{Name: "rv32sweep", Registers: 16})
	if err != nil {
		b.Fatal(err)
	}
	bps := []float64{0.5, 0.4, 0.3, 0.16, 0.04}
	base := core.DefaultFlowConfig(tech.Pattern{Front: 12, Back: 12}, 1.5, 0.70)
	base.BackPinFraction = bps[0]

	b.Run("forked", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			f, err := core.NewFlow(nl, base)
			if err != nil {
				b.Fatal(err)
			}
			if err := f.RunTo(core.StageCTS); err != nil {
				b.Fatal(err)
			}
			for _, bp := range bps {
				g, err := f.Fork(func(c *core.FlowConfig) { c.BackPinFraction = bp })
				if err != nil {
					b.Fatal(err)
				}
				if _, err := g.Run(); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
	b.Run("independent", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for _, bp := range bps {
				cfg := base
				cfg.BackPinFraction = bp
				if _, err := core.RunFlow(nl, cfg); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
}

// BenchmarkSweepIncrementalSTA measures the incremental re-timing path on
// the same back-pin DoE BenchmarkSweepShared runs: "incremental" runs the
// first point through the whole pipeline once and forks every other point
// off that completed session, so each sibling inherits the leader's
// post-STA engine + RC baseline and re-propagates only the timing cones
// its partition delta dirtied; "fullSTA" forks the same points off a
// parent stopped at StageCTS (PR 4's BenchmarkSweepShared/forked shape),
// so every point rebuilds an engine and re-times the whole design.
// Results are bit-identical between the two; the incremental sweep must
// show fewer allocs/op and less wall-clock per sweep.
func BenchmarkSweepIncrementalSTA(b *testing.B) {
	s := getSuite(b)
	nl, _, err := riscv.Generate(s.FFET, riscv.Config{Name: "rv32inc", Registers: 16})
	if err != nil {
		b.Fatal(err)
	}
	bps := []float64{0.5, 0.4, 0.3, 0.16, 0.04}
	base := core.DefaultFlowConfig(tech.Pattern{Front: 12, Back: 12}, 1.5, 0.70)
	base.BackPinFraction = bps[0]

	b.Run("incremental", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			leader, err := core.NewFlow(nl, base)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := leader.Run(); err != nil {
				b.Fatal(err)
			}
			for _, bp := range bps[1:] {
				g, err := leader.Fork(func(c *core.FlowConfig) { c.BackPinFraction = bp })
				if err != nil {
					b.Fatal(err)
				}
				if _, err := g.Run(); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
	b.Run("fullSTA", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			f, err := core.NewFlow(nl, base)
			if err != nil {
				b.Fatal(err)
			}
			if err := f.RunTo(core.StageCTS); err != nil {
				b.Fatal(err)
			}
			for _, bp := range bps {
				g, err := f.Fork(func(c *core.FlowConfig) { c.BackPinFraction = bp })
				if err != nil {
					b.Fatal(err)
				}
				if _, err := g.Run(); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
}

// BenchmarkSweepFreqIncremental measures the frequency-axis diff-chain
// path on a dense 5-point target sweep (the Fig. 9 power/frequency axis
// sampled finely around one operating point): "diffchain" runs the first
// point through the whole pipeline once and walks to each neighboring
// target via core.Flow.ForkSynthDiff — the hop re-synthesizes at its own
// target (the unavoidable cost), then re-stamps the neighbor's placement
// and adopts its partition/route/STA state wherever the netlist diff
// gates hold; "forkAtSynth" forks every later point off the first
// completed session at StageSynth, re-running the entire back end per
// point (the pre-diff sweep shape). Results are bit-identical between
// the two (pinned by core.TestSynthDiffForkMatchesScratch); the chained
// sweep must show materially less wall-clock per sweep.
func BenchmarkSweepFreqIncremental(b *testing.B) {
	s := getSuite(b)
	nl, _, err := riscv.Generate(s.FFET, riscv.Config{Name: "rv32freq", Registers: 16})
	if err != nil {
		b.Fatal(err)
	}
	targets := []float64{2.0, 2.02, 2.04, 2.06, 2.08}
	base := core.DefaultFlowConfig(tech.Pattern{Front: 6, Back: 6}, targets[0], 0.72)
	base.BackPinFraction = 0.5

	b.Run("diffchain", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			prev, err := core.NewFlow(nl, base)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := prev.Run(); err != nil {
				b.Fatal(err)
			}
			for _, tgt := range targets[1:] {
				g, st, err := prev.ForkSynthDiff(func(c *core.FlowConfig) { c.TargetFreqGHz = tgt })
				if err != nil {
					b.Fatal(err)
				}
				if !st.DiffPath {
					b.Fatalf("tgt %v fell off the diff path: %q", tgt, st.Fallback)
				}
				if _, err := g.Run(); err != nil {
					b.Fatal(err)
				}
				prev = g
			}
		}
	})
	b.Run("forkAtSynth", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			leader, err := core.NewFlow(nl, base)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := leader.Run(); err != nil {
				b.Fatal(err)
			}
			for _, tgt := range targets[1:] {
				g, err := leader.Fork(func(c *core.FlowConfig) { c.TargetFreqGHz = tgt })
				if err != nil {
					b.Fatal(err)
				}
				if _, err := g.Run(); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
}

// BenchmarkSweepIncrementalPlace measures the incremental placement path
// on a CTS-option sweep (a MaxLeafFanout DoE — the fork-at-StageCTS
// shape behind clock-tree exploration): both arms run the parent to
// StagePlace once and fork a child per fanout point at StageCTS.
// "incremental" hands each child the parent's retained legalization +
// refinement bases, so its StageCTS re-legalizes only the inserted
// buffer delta and re-collects refinement endpoints only for the clock
// cone; "replay" disables the fast path and replays full legalization +
// the 3-pass refinement collection from the post-place snapshot.
// Placements are bit-identical between the two (pinned by
// core.TestFlowForkIncrementalPlacement); the incremental sweep must
// show materially less wall-clock per sweep.
func BenchmarkSweepIncrementalPlace(b *testing.B) {
	s := getSuite(b)
	nl, _, err := riscv.Generate(s.FFET, riscv.Config{Name: "rv32incp", Registers: 16})
	if err != nil {
		b.Fatal(err)
	}
	fanouts := []int{24, 16, 12, 20, 8}
	base := core.DefaultFlowConfig(tech.Pattern{Front: 12, Back: 12}, 1.5, 0.70)
	base.BackPinFraction = 0.5

	// The parent (synthesis through global placement, basis build for
	// the incremental arm) is built once per arm outside the timed loop:
	// it is identical work in both arms and amortized over the
	// thousands-of-points sweeps this path serves, while the measured
	// unit — fork a point, run its StageCTS — is what every sweep point
	// pays per configuration.
	run := func(b *testing.B, incremental bool) {
		parent, err := core.NewFlow(nl, base)
		if err != nil {
			b.Fatal(err)
		}
		parent.SetIncrementalPlacement(incremental)
		if err := parent.RunTo(core.StagePlace); err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for _, mf := range fanouts {
				g, err := parent.Fork(func(c *core.FlowConfig) {
					c.CTS = cts.Options{MaxLeafFanout: mf, BufferDrive: 4}
				})
				if err != nil {
					b.Fatal(err)
				}
				if err := g.RunTo(core.StageCTS); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
	b.Run("incremental", func(b *testing.B) { run(b, true) })
	b.Run("replay", func(b *testing.B) { run(b, false) })
}

// BenchmarkFlowSingleRun measures one complete physical implementation +
// PPA flow on the quick-scale core (the unit of work behind every figure).
// Each iteration varies the seed so memoization never short-circuits it.
func BenchmarkFlowSingleRun(b *testing.B) {
	s := getSuite(b)
	for i := 0; i < b.N; i++ {
		cfg := core.DefaultFlowConfig(tech.Pattern{Front: 6, Back: 6}, 1.5, 0.72)
		cfg.BackPinFraction = 0.5
		cfg.Seed = int64(i + 1)
		res, err := s.Run(tech.FFET, cfg)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			fmt.Printf("single flow: %.3f GHz, %.1f uW, %.1f um2, valid=%v\n",
				res.AchievedFreqGHz, res.PowerUW, res.CoreAreaUm2, res.Valid)
		}
	}
}

// BenchmarkVariationMC measures the Monte Carlo overlay-variation STA
// sampling engine on the default quick-scale RISC-V design at the
// default sigma: one placed-and-clocked flow provides the StageSTA
// checkpoint, the sampler is built once, and each iteration runs a full
// default-size study through it. The custom samples/sec metric is the
// headline throughput number (target: >= 10,000 samples/sec); the
// per-sample inner loop itself is pinned at 0 allocs/op by
// variation.TestAllocsPerRunZero.
func BenchmarkVariationMC(b *testing.B) {
	s := getSuite(b)
	nl, _, err := riscv.Generate(s.FFET, riscv.Config{Name: "rv32mc", Registers: 16})
	if err != nil {
		b.Fatal(err)
	}
	cfg := core.DefaultFlowConfig(tech.Pattern{Front: 6, Back: 6}, 1.5, 0.72)
	cfg.BackPinFraction = 0.5
	f, err := core.NewFlow(nl, cfg)
	if err != nil {
		b.Fatal(err)
	}
	if _, err := f.Run(); err != nil {
		b.Fatal(err)
	}
	basis, err := f.VariationBasis()
	if err != nil {
		b.Fatal(err)
	}
	opt := variation.DefaultOptions()
	sampler, err := variation.NewSampler(basis, opt)
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	if _, err := sampler.Run(ctx); err != nil { // warm worker scratch
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sampler.Run(ctx); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.N*opt.Samples)/b.Elapsed().Seconds(), "samples/sec")
}
