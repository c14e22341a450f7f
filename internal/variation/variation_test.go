package variation

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/cell"
	"repro/internal/extract"
	"repro/internal/netlist"
	"repro/internal/sta"
	"repro/internal/tech"
)

var lib = cell.NewLibrary(tech.NewFFET())

// web builds a deterministic pseudo-random reconvergent circuit (the
// sta-package property-test shape): flops feeding a gate DAG whose
// outputs the flops recapture.
func web(t *testing.T, nFlops, nGates int, seed int64) *netlist.Netlist {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	nl := netlist.New(fmt.Sprintf("mcweb%d", seed), lib)
	nl.AddPort("clk", netlist.In)
	nl.MarkClock("clk")
	nl.AddPort("pi0", netlist.In)
	nl.AddPort("pi1", netlist.In)
	pool := []string{"pi0", "pi1"}
	for i := 0; i < nFlops; i++ {
		pool = append(pool, fmt.Sprintf("q%d", i))
	}
	for g := 0; g < nGates; g++ {
		out := fmt.Sprintf("g%d", g)
		a := pool[rng.Intn(len(pool))]
		if rng.Intn(3) == 0 {
			nl.MustAdd("inv"+out, lib.MustCell("INVD1"), map[string]string{"I": a, "ZN": out})
		} else {
			b := pool[rng.Intn(len(pool))]
			nl.MustAdd("nd"+out, lib.MustCell("NAND2D1"), map[string]string{"A1": a, "A2": b, "ZN": out})
		}
		pool = append(pool, out)
	}
	for i := 0; i < nFlops; i++ {
		d := pool[2+nFlops+rng.Intn(nGates)]
		nl.MustAdd(fmt.Sprintf("ff%d", i), lib.MustCell("DFFD1"),
			map[string]string{"D": d, "CP": "clk", "Q": fmt.Sprintf("q%d", i)})
	}
	if err := nl.Validate(); err != nil {
		t.Fatal(err)
	}
	return nl
}

// testBasis builds an analyzed basis over a synthetic circuit with
// pseudo-random RC and per-side wirelen splits, returning the netlist
// alongside so tests can build fresh reference engines.
func testBasis(t *testing.T, seed int64) (*Basis, *netlist.Netlist) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	nl := web(t, 6, 40, seed)
	clk := make([]float64, len(nl.Instances))
	for i := range clk {
		clk[i] = 8 * rng.Float64()
	}
	rc := make([]*extract.NetRC, len(nl.Nets))
	fw := make([]int64, len(nl.Nets))
	bw := make([]int64, len(nl.Nets))
	for _, n := range nl.Nets {
		if n.IsClock {
			continue
		}
		el := make([]float64, len(n.Sinks))
		for j := range el {
			el[j] = 2 + 25*rng.Float64()
		}
		wl := int64(500 + rng.Intn(8000))
		fw[n.Seq] = int64(float64(wl) * rng.Float64())
		bw[n.Seq] = wl - fw[n.Seq]
		rc[n.Seq] = &extract.NetRC{
			Name:       n.Name,
			TotalCapFF: 2 + 10*rng.Float64(),
			WireCapFF:  0.2 + 4*rng.Float64(),
			ElmorePs:   el,
			WirelenNm:  wl,
		}
	}
	eng, err := sta.NewEngine(nl)
	if err != nil {
		t.Fatal(err)
	}
	opt := sta.DefaultOptions()
	var res sta.Result
	if err := eng.AnalyzeInto(&res, sta.Input{NetRC: rc, ClockArrivalPs: clk}, opt); err != nil {
		t.Fatal(err)
	}
	return &Basis{
		Engine:         eng,
		NetRC:          rc,
		ClockArrivalPs: clk,
		STAOpt:         opt,
		// Slightly infeasible target so TNS is nonzero and both tails of
		// the distribution are exercised.
		PeriodPs:       res.MinPeriodPs * 0.99,
		FrontWirelenNm: fw,
		BackWirelenNm:  bw,
	}, nl
}

// TestStudyDeterministicAcrossWorkers pins the headline determinism
// contract: for a fixed seed, the per-sample arrays and every summary
// statistic are bit-identical for any worker count.
func TestStudyDeterministicAcrossWorkers(t *testing.T) {
	// Workers are clamped to GOMAXPROCS; raise it so the 3- and 7-way
	// shardings below run as written on any machine.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(8))
	b, _ := testBasis(t, 7)
	opt := DefaultOptions()
	opt.Samples, opt.Workers, opt.Seed, opt.FloorFF = 257, 1, 42, 0.1
	ref, err := Study(context.Background(), b, opt)
	if err != nil {
		t.Fatal(err)
	}
	varies := false
	for _, v := range ref.WNSPs {
		if v != ref.WNSPs[0] {
			varies = true
			break
		}
	}
	if !varies {
		t.Fatal("degenerate study: every sample produced the same WNS")
	}
	for _, workers := range []int{2, 3, 7} {
		opt.Workers = workers
		got, err := Study(context.Background(), b, opt)
		if err != nil {
			t.Fatal(err)
		}
		for i := range ref.WNSPs {
			if math.Float64bits(got.WNSPs[i]) != math.Float64bits(ref.WNSPs[i]) ||
				math.Float64bits(got.TNSPs[i]) != math.Float64bits(ref.TNSPs[i]) {
				t.Fatalf("workers=%d: sample %d (%v, %v) != workers=1 (%v, %v)",
					workers, i, got.WNSPs[i], got.TNSPs[i], ref.WNSPs[i], ref.TNSPs[i])
			}
		}
		if !sameScalars(got, ref) {
			t.Fatalf("workers=%d: summary %+v != workers=1 %+v", workers, got, ref)
		}
	}
}

// sameScalars compares every scalar summary statistic bit-exactly (the
// per-sample slices are compared element-wise by the caller).
func sameScalars(a, b *Summary) bool {
	eq := func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) }
	return a.Samples == b.Samples &&
		eq(a.MeanWNSPs, b.MeanWNSPs) && eq(a.SigmaWNSPs, b.SigmaWNSPs) &&
		eq(a.P50WNSPs, b.P50WNSPs) && eq(a.P95WNSPs, b.P95WNSPs) && eq(a.P997WNSPs, b.P997WNSPs) &&
		eq(a.MeanTNSPs, b.MeanTNSPs) && eq(a.SigmaTNSPs, b.SigmaTNSPs) &&
		eq(a.P50TNSPs, b.P50TNSPs) && eq(a.P95TNSPs, b.P95TNSPs) && eq(a.P997TNSPs, b.P997TNSPs)
}

// TestSampleMatchesFullAnalyze is the correctness property of the MC
// inner loop: after each chained sample on one worker, the worker
// engine's slack stats must be bit-identical to a fresh engine running a
// full analysis of that worker's current perturbed view — across random
// samples, the restore path (nets falling out of the perturbed set
// between consecutive samples), and a re-forked worker engine mid-chain.
func TestSampleMatchesFullAnalyze(t *testing.T) {
	b, nl := testBasis(t, 11)
	opt := DefaultOptions()
	opt.Samples, opt.Workers, opt.Seed, opt.FloorFF = 64, 1, 9, 0.1
	s, err := NewSampler(b, opt)
	if err != nil {
		t.Fatal(err)
	}
	if s.Candidates() == 0 {
		t.Fatal("no screenable candidates")
	}
	w := s.workers[0]
	sawPerturbed, sawRestored := false, false
	inSet := func(set []int32, v int32) bool {
		for _, x := range set {
			if x == v {
				return true
			}
		}
		return false
	}
	for i := 0; i < 64; i++ {
		if i == 32 {
			w.eng = w.eng.Fork()
		}
		// After sample() the current perturbed-net list lives in w.prev
		// (buffers are swapped at the end of each sample), so snapshot it
		// before the call to detect nets that fall out and get restored.
		before := append([]int32(nil), w.prev...)
		if err := s.sample(context.Background(), w, i); err != nil {
			t.Fatal(err)
		}
		if len(w.prev) > 0 {
			sawPerturbed = true
		}
		for _, seq := range before {
			if !inSet(w.prev, seq) {
				sawRestored = true
			}
		}
		fresh, err := sta.NewEngine(nl)
		if err != nil {
			t.Fatal(err)
		}
		var res sta.Result
		in := sta.Input{NetRC: w.view, ClockArrivalPs: b.ClockArrivalPs}
		if err := fresh.AnalyzeInto(&res, in, b.STAOpt); err != nil {
			t.Fatal(err)
		}
		wantW, wantT := fresh.SlackStats(b.PeriodPs)
		if math.Float64bits(s.wns[i]) != math.Float64bits(wantW) ||
			math.Float64bits(s.tns[i]) != math.Float64bits(wantT) {
			t.Fatalf("sample %d (perturbed=%d, before=%d): incremental (%v, %v) != full (%v, %v)",
				i, len(w.prev), len(before), s.wns[i], s.tns[i], wantW, wantT)
		}
	}
	if !sawPerturbed || !sawRestored {
		t.Fatalf("weak coverage: perturbed=%v restored=%v — tune test sigma/floor", sawPerturbed, sawRestored)
	}
}

// TestAllocsPerRunZero pins the steady-state inner loop at zero
// allocations per sample once the sampler is warmed (mirroring
// BenchmarkSTAReuse's contract).
func TestAllocsPerRunZero(t *testing.T) {
	b, _ := testBasis(t, 13)
	opt := DefaultOptions()
	opt.Samples, opt.Workers = 512, 1
	s, err := NewSampler(b, opt)
	if err != nil {
		t.Fatal(err)
	}
	w := s.workers[0]
	ctx := context.Background()
	// Warm: one pass over a few samples seeds the engine scratch and the
	// perturbation prefix bookkeeping.
	for i := 0; i < 8; i++ {
		if err := s.sample(ctx, w, i); err != nil {
			t.Fatal(err)
		}
	}
	i := 0
	if allocs := testing.AllocsPerRun(200, func() {
		if err := s.sample(ctx, w, i%512); err != nil {
			t.Fatal(err)
		}
		i++
	}); allocs != 0 {
		t.Errorf("sample allocates %.1f objects/op, want 0", allocs)
	}
}

// TestStudyCancellation: a cancelled context aborts the run with the
// cause in the chain.
func TestStudyCancellation(t *testing.T) {
	b, _ := testBasis(t, 17)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	opt := DefaultOptions()
	opt.Samples, opt.Workers = 128, 2
	if _, err := Study(ctx, b, opt); err == nil {
		t.Fatal("cancelled study returned nil error")
	}
}

// TestOptionsValidate: out-of-range sample counts, fewer than one worker
// and negative or non-finite model parameters are rejected, by Validate
// and by NewSampler; a zero model parameter or seed is valid, and an
// oversized worker count is clamped to GOMAXPROCS instead.
func TestOptionsValidate(t *testing.T) {
	with := func(mutate func(*Options)) Options {
		o := DefaultOptions()
		mutate(&o)
		return o
	}
	bad := []Options{
		with(func(o *Options) { o.Samples = maxSamples + 1 }),
		with(func(o *Options) { o.Samples = 0 }),
		with(func(o *Options) { o.Samples = -5 }),
		with(func(o *Options) { o.Workers = 0 }),
		with(func(o *Options) { o.Workers = -1 }),
		with(func(o *Options) { o.SigmaNm = -1 }),
		with(func(o *Options) { o.SigmaNm = math.NaN() }),
		with(func(o *Options) { o.CapSensPerNm = math.Inf(1) }),
		with(func(o *Options) { o.ParasiticSigma = -0.05 }),
		with(func(o *Options) { o.FloorFF = math.Inf(-1) }),
	}
	for _, o := range bad {
		if err := o.Validate(); err == nil {
			t.Errorf("%+v: Validate accepted it", o)
		}
	}
	good := []Options{
		DefaultOptions(),
		with(func(o *Options) { o.Samples = maxSamples }),
		with(func(o *Options) { o.Seed, o.SigmaNm, o.CapSensPerNm, o.ParasiticSigma, o.FloorFF = 0, 0, 0, 0, 0 }),
	}
	for _, o := range good {
		if err := o.Validate(); err != nil {
			t.Errorf("%+v: %v", o, err)
		}
	}
	b, _ := testBasis(t, 19)
	if _, err := NewSampler(b, with(func(o *Options) { o.Samples = -5 })); err == nil {
		t.Error("NewSampler accepted a negative sample count")
	}
	s, err := NewSampler(b, with(func(o *Options) { o.Samples, o.Workers = 64, 1000 }))
	if err != nil {
		t.Fatal(err)
	}
	if n := runtime.GOMAXPROCS(0); len(s.workers) != min(n, 64) {
		t.Errorf("%d workers, want GOMAXPROCS %d", len(s.workers), n)
	}
}

// TestZeroSpreadKeepsBase: a zero overlay sigma and a zero parasitic
// sigma mean no perturbation, not the defaults, so every sample re-times
// to the basis's own WNS and TNS, where the default sigmas move them.
func TestZeroSpreadKeepsBase(t *testing.T) {
	b, _ := testBasis(t, 7)
	wantW, wantT := b.Engine.SlackStats(b.PeriodPs)
	opt := DefaultOptions()
	opt.Samples, opt.Seed, opt.FloorFF = 64, 42, 0.1
	moved := func() int {
		sum, err := Study(context.Background(), b, opt)
		if err != nil {
			t.Fatal(err)
		}
		n := 0
		for i := range sum.WNSPs {
			if sum.WNSPs[i] != wantW || sum.TNSPs[i] != wantT {
				n++
			}
		}
		return n
	}
	if moved() == 0 {
		t.Fatal("degenerate basis: the default sigmas move no sample")
	}
	opt.SigmaNm, opt.ParasiticSigma = 0, 0
	if n := moved(); n != 0 {
		t.Errorf("%d of %d samples moved off the base with zero sigmas", n, opt.Samples)
	}
}

// TestQuantileReduction pins the exact order-statistic definition on a
// hand-checkable array.
func TestQuantileReduction(t *testing.T) {
	vals := make([]float64, 100)
	for i := range vals {
		vals[i] = float64(i) // sorted ascending: worst (smallest) first
	}
	if got := worstQuantile(vals, 0.95); got != 4 {
		t.Errorf("P95 = %v, want 4 (5th-worst of 100)", got)
	}
	if got := worstQuantile(vals, 0.997); got != 0 {
		t.Errorf("P99.7 = %v, want 0 (worst of 100)", got)
	}
	if got := worstQuantile(vals, 0.50); got != 49 {
		t.Errorf("P50 = %v, want 49", got)
	}
	mean, sigma := meanSigma(vals)
	if math.Abs(mean-49.5) > 1e-12 {
		t.Errorf("mean = %v, want 49.5", mean)
	}
	if math.Abs(sigma-math.Sqrt(833.25)) > 1e-9 {
		t.Errorf("sigma = %v", sigma)
	}
}
