// Package variation implements Monte Carlo overlay-variation STA: the
// workload of PAPERS.md's "Overlay-aware Variation Study of Flip FET and
// Benchmark with CFET", which re-times one placed-and-routed design
// thousands of times under sampled per-side overlay and parasitic
// perturbations.
//
// Each sample draws a per-side overlay shift and parasitic multiplier
// from seeded per-sample PRNG streams, perturbs a scratch RC view
// (scaling each affected net's wire capacitance and Elmore delays by its
// side-weighted multiplier; pin capacitance is overlay-independent), and
// re-times only the perturbed fanout cones via sta.Engine.ReanalyzeStateCtx
// on a per-worker engine fork, reducing each sample with SlackStats. The screening floor keeps the per-sample
// dirty set to the nets whose wire cap actually moves by a material
// amount: candidates are sorted by wire cap once, a conservative prefix
// bounds the scan, and a per-net check of the sample's side-blended
// scale picks the perturbed subset inside it.
//
// The steady-state inner loop is allocation-free, and results are
// bit-identical for any worker count: sample i's perturbation depends
// only on (seed, i), per-sample WNS/TNS land in index-addressed arrays,
// and the summary reduces them in sample order.
package variation

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"sort"
	"sync"

	"repro/internal/extract"
	"repro/internal/sta"
)

// Options configures a study. Start from DefaultOptions: every field is
// used as given, so a zero model parameter means zero (no overlay shift,
// no parasitic spread, no screening floor) and seed 0 is a seed like any
// other.
type Options struct {
	// Samples is the number of Monte Carlo samples, in [1, 1<<22].
	Samples int
	// Workers is the number of sampling goroutines, each owning a forked
	// engine and a private RC scratch view: at least 1, and clamped to
	// GOMAXPROCS, since summaries are bit-identical for any worker count
	// and more workers than CPUs only cost memory.
	Workers int
	// Seed keys the per-sample PRNG streams: sample i draws from a
	// splitmix64 stream derived from (Seed, i) alone, so results are
	// reproducible and independent of scheduling.
	Seed uint64
	// SigmaNm is the per-side overlay-shift sigma in nm.
	SigmaNm float64
	// CapSensPerNm is the relative wire-cap increase per nm of absolute
	// overlay shift on a side: misalignment tightens the effective
	// wire-to-wire spacing on that side of the wafer.
	CapSensPerNm float64
	// ParasiticSigma is the sigma of the per-side lognormal parasitic
	// multiplier stacked on the overlay term.
	ParasiticSigma float64
	// FloorFF screens the dirty set: a net is perturbed only when its
	// side-blended scale actually moves its wire cap by at least this
	// floor. Nets below the floor keep their base view bit-identically,
	// which is what holds the per-sample dirty set to the nets whose
	// perturbation is material; 0 screens nothing out.
	//
	// The floor is the study's speed/fidelity dial: lowering it admits
	// smaller-cap nets into the perturbed set, recovering more of the
	// distribution's sigma at the cost of larger re-timed cones. On the
	// quick-scale RISC-V core, 0.40 sustains >10k samples/sec while 0.25
	// retains nearly the full-fidelity sigma at ~3x the cost — the exp
	// suite's variation tables use the latter.
	FloorFF float64
}

// DefaultOptions returns the study defaults: 4096 samples on GOMAXPROCS
// workers, seed 1, a 2 nm overlay sigma per side, 0.02/nm cap
// sensitivity, a 0.05 parasitic sigma and a 0.40 fF screening floor.
func DefaultOptions() Options {
	return Options{
		Samples:        4096,
		Workers:        runtime.GOMAXPROCS(0),
		Seed:           1,
		SigmaNm:        2,
		CapSensPerNm:   0.02,
		ParasiticSigma: 0.05,
		FloorFF:        0.40,
	}
}

// maxSamples bounds Options.Samples: a sampler allocates two float64 per
// sample up front, and the largest documented study is 16384 samples.
const maxSamples = 1 << 22

// Validate rejects options no study runs with: a sample count outside
// [1, 1<<22], fewer than one worker, or a model parameter that is
// negative, NaN or infinite. A zero model parameter is valid and means
// zero.
func (o Options) Validate() error {
	if o.Samples < 1 || o.Samples > maxSamples {
		return fmt.Errorf("variation: samples %d outside [1, %d]", o.Samples, maxSamples)
	}
	if o.Workers < 1 {
		return fmt.Errorf("variation: workers %d must be at least 1", o.Workers)
	}
	for _, p := range []struct {
		name string
		v    float64
	}{
		{"sigma_nm", o.SigmaNm}, {"cap_sens_per_nm", o.CapSensPerNm},
		{"parasitic_sigma", o.ParasiticSigma}, {"floor_ff", o.FloorFF},
	} {
		if !(p.v >= 0) || math.IsInf(p.v, 1) {
			return fmt.Errorf("variation: %s %v must be finite and >= 0", p.name, p.v)
		}
	}
	return nil
}

// Basis is the timing checkpoint a study perturbs around: the analyzed
// engine (its retained state must match NetRC and ClockArrivalPs under
// STAOpt — core.Flow.VariationBasis hands exactly that out of the
// StageSTA checkpoint), the base extraction view, and the per-net
// per-side routed lengths that weight the two overlay axes.
type Basis struct {
	// Engine holds the base view's full propagation state. The study
	// forks it per worker and never mutates it; the caller must not run
	// analyses on it concurrently with NewSampler.
	Engine *sta.Engine
	// NetRC is the base extraction database, net-Seq indexed.
	NetRC []*extract.NetRC
	// ClockArrivalPs and STAOpt are the analysis conditions the engine's
	// retained state was computed under.
	ClockArrivalPs []float64
	STAOpt         sta.Options
	// PeriodPs is the target clock period slacks are taken against.
	PeriodPs float64
	// FrontWirelenNm/BackWirelenNm are per-net routed lengths by side,
	// net-Seq indexed; they weight each net's sensitivity to the two
	// sides' overlay shifts. A net absent from both is treated as
	// front-only.
	FrontWirelenNm []int64
	BackWirelenNm  []int64
}

// Summary is the outcome of a study. Quantiles are taken from the worst
// side of the distribution: PqWNSPs is the WNS met or beaten by fraction
// q of the samples (the 1-q worst-tail bound), and likewise for TNS.
// All reductions run in sample order over the index-addressed per-sample
// arrays, so a Summary is bit-identical for any worker count.
type Summary struct {
	Samples int
	// WNSPs and TNSPs are the per-sample results, sample-indexed.
	WNSPs, TNSPs []float64

	MeanWNSPs, SigmaWNSPs         float64
	P50WNSPs, P95WNSPs, P997WNSPs float64
	MeanTNSPs, SigmaTNSPs         float64
	P50TNSPs, P95TNSPs, P997TNSPs float64
}

// Study runs a Monte Carlo study over a basis: NewSampler + Run.
func Study(ctx context.Context, b *Basis, opt Options) (*Summary, error) {
	s, err := NewSampler(b, opt)
	if err != nil {
		return nil, err
	}
	return s.Run(ctx)
}

// candidate is one screenable net, precomputed at sampler build time.
type candidate struct {
	seq       int32
	wireCapFF float64 // base wire cap — the screening magnitude
	frontFrac float64 // fraction of routed length on the front side
}

// Sampler is a reusable study: workers (forked engines, RC scratch,
// perturbed-net arenas) are built once, and Run may be called repeatedly
// (not concurrently with itself). Reuse is what lets a benchmark measure
// the steady-state sampling loop alone.
type Sampler struct {
	opt   Options
	basis *Basis

	cands   []candidate // sorted by wireCapFF descending (ties: seq asc)
	candCap []float64   // cands[i].wireCapFF, for threshold search
	candSeq []int32     // cands[i].seq — every dirty set is a prefix of this

	wns, tns []float64 // per-sample results, index-addressed

	workers []*worker
}

// worker owns one shard's mutable state. Its engine basis is always its
// own previous sample's view, so the dirty set handed to ReanalyzeStateCtx
// is the union of the nets perturbed now and the nets perturbed last
// time — both ascending candidate-index lists, merged per sample.
type worker struct {
	eng   *sta.Engine
	view  []*extract.NetRC // base pointers, except the perturbed nets
	pert  []extract.NetRC  // perturbed copies, aligned with cands
	cur   []int32          // scratch for this sample's perturbed candidate indices
	prev  []int32          // previous sample's perturbed candidate indices, ascending
	dirty []int32          // scratch for the merged dirty net-Seq list
}

// NewSampler validates the basis, screens and sorts the candidate nets,
// and builds the per-worker engines and scratch arenas.
func NewSampler(b *Basis, opt Options) (*Sampler, error) {
	if b == nil || b.Engine == nil || len(b.NetRC) == 0 {
		return nil, fmt.Errorf("variation: basis needs an analyzed engine and an RC view")
	}
	if b.PeriodPs <= 0 {
		return nil, fmt.Errorf("variation: basis needs a positive target period")
	}
	if err := opt.Validate(); err != nil {
		return nil, err
	}
	opt.Workers = min(opt.Workers, runtime.GOMAXPROCS(0))
	s := &Sampler{opt: opt, basis: b}

	for seq, rc := range b.NetRC {
		if rc == nil || rc.WireCapFF <= 0 {
			continue
		}
		var fw, bw int64
		if seq < len(b.FrontWirelenNm) {
			fw = b.FrontWirelenNm[seq]
		}
		if seq < len(b.BackWirelenNm) {
			bw = b.BackWirelenNm[seq]
		}
		frac := 1.0
		if fw+bw > 0 {
			frac = float64(fw) / float64(fw+bw)
		}
		s.cands = append(s.cands, candidate{seq: int32(seq), wireCapFF: rc.WireCapFF, frontFrac: frac})
	}
	sort.Slice(s.cands, func(i, j int) bool {
		if s.cands[i].wireCapFF != s.cands[j].wireCapFF {
			return s.cands[i].wireCapFF > s.cands[j].wireCapFF
		}
		return s.cands[i].seq < s.cands[j].seq
	})
	s.candCap = make([]float64, len(s.cands))
	s.candSeq = make([]int32, len(s.cands))
	totalSinks := 0
	for i, c := range s.cands {
		s.candCap[i] = c.wireCapFF
		s.candSeq[i] = c.seq
		totalSinks += len(b.NetRC[c.seq].ElmorePs)
	}

	s.wns = make([]float64, opt.Samples)
	s.tns = make([]float64, opt.Samples)

	nw := opt.Workers
	if nw > opt.Samples {
		nw = opt.Samples
	}
	s.workers = make([]*worker, nw)
	for wi := range s.workers {
		w := &worker{
			eng:   b.Engine.Fork(),
			view:  append([]*extract.NetRC(nil), b.NetRC...),
			pert:  make([]extract.NetRC, len(s.cands)),
			cur:   make([]int32, 0, len(s.cands)),
			prev:  make([]int32, 0, len(s.cands)),
			dirty: make([]int32, 0, len(s.cands)),
		}
		elm := make([]float64, totalSinks)
		carved := 0
		for i, c := range s.cands {
			base := b.NetRC[c.seq]
			n := len(base.ElmorePs)
			w.pert[i] = *base
			w.pert[i].ElmorePs = elm[carved : carved+n : carved+n]
			carved += n
		}
		// Warm the fork's reanalysis scratch with an empty-dirty call, so
		// the first real sample is already in the allocation-free steady
		// state.
		in := sta.Input{NetRC: w.view, ClockArrivalPs: b.ClockArrivalPs}
		if err := w.eng.ReanalyzeStateCtx(context.Background(), in, b.STAOpt, nil); err != nil {
			return nil, err
		}
		s.workers[wi] = w
	}
	return s, nil
}

// Candidates reports how many nets survive screening eligibility (have
// wire cap at all); the per-sample dirty set is a floor-dependent subset
// of them.
func (s *Sampler) Candidates() int { return len(s.cands) }

// Run executes the study: workers sample disjoint contiguous index
// ranges, then the per-sample arrays are reduced in sample order. The
// Summary (and its per-sample arrays) is freshly allocated per call; the
// workers' engines and scratch are reused across calls.
func (s *Sampler) Run(ctx context.Context) (*Summary, error) {
	n := s.opt.Samples
	nw := len(s.workers)
	chunk := (n + nw - 1) / nw
	var wg sync.WaitGroup
	errs := make([]error, nw)
	for wi, w := range s.workers {
		lo := wi * chunk
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		if lo >= hi {
			continue
		}
		wg.Add(1)
		go func(w *worker, lo, hi int, errp *error) {
			defer wg.Done()
			for i := lo; i < hi; i++ {
				if i&63 == 0 && ctx.Err() != nil {
					*errp = ctx.Err()
					return
				}
				if err := s.sample(ctx, w, i); err != nil {
					*errp = err
					return
				}
			}
		}(w, lo, hi, &errs[wi])
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return s.summarize(), nil
}

// sample perturbs worker w's RC view for sample i and re-times the dirty
// cones. Steady-state allocation-free: perturbations write into
// preallocated per-candidate copies, the perturbed/dirty lists live in
// preallocated worker scratch, and the engine's state-only reanalysis
// reuses its warmed scratch.
func (s *Sampler) sample(ctx context.Context, w *worker, i int) error {
	r := rngFor(s.opt.Seed, i)
	shiftF, shiftB := r.normPair()
	parF, parB := r.normPair()
	o := &s.opt
	mF := (1 + o.CapSensPerNm*math.Abs(shiftF*o.SigmaNm)) * math.Exp(o.ParasiticSigma*parF)
	mB := (1 + o.CapSensPerNm*math.Abs(shiftB*o.SigmaNm)) * math.Exp(o.ParasiticSigma*parB)
	dev := math.Max(math.Abs(mF-1), math.Abs(mB-1))
	kMax := 0
	if dev > 0 {
		thr := o.FloorFF / dev
		// candCap is sorted descending: beyond this prefix even the worse
		// of the two side multipliers cannot move a net's wire cap by the
		// floor, so the per-net screen below never scans further.
		kMax = sort.Search(len(s.candCap), func(j int) bool { return s.candCap[j] < thr })
	}

	// Per-net screen over the conservative prefix: a net is perturbed only
	// when its own side-blended scale actually moves its wire cap by the
	// floor. Nets whose front/back deviations cancel drop out here, which
	// is what keeps the re-timed cones to the nets that matter.
	base := s.basis.NetRC
	cur := w.cur[:0]
	for j := 0; j < kMax; j++ {
		c := &s.cands[j]
		scale := 1 + c.frontFrac*(mF-1) + (1-c.frontFrac)*(mB-1)
		if math.Abs(scale-1)*c.wireCapFF < o.FloorFF {
			continue
		}
		cur = append(cur, int32(j))
		rc := base[c.seq]
		p := &w.pert[j]
		wire := rc.WireCapFF * scale
		p.WireCapFF = wire
		p.TotalCapFF = rc.TotalCapFF - rc.WireCapFF + wire
		pe, be := p.ElmorePs, rc.ElmorePs
		for t := range be {
			pe[t] = be[t] * scale
		}
		w.view[c.seq] = p
	}

	// Merge this sample's perturbed list with the previous one (both
	// ascending): nets that fell out revert to the base view
	// bit-identically, and the union is the dirty set — every net whose
	// RC differs between the worker engine's basis (last sample's view)
	// and the current view.
	dirty := w.dirty[:0]
	pi, ci := 0, 0
	for pi < len(w.prev) || ci < len(cur) {
		switch {
		case ci >= len(cur) || (pi < len(w.prev) && w.prev[pi] < cur[ci]):
			j := w.prev[pi]
			pi++
			w.view[s.candSeq[j]] = base[s.candSeq[j]]
			dirty = append(dirty, s.candSeq[j])
		case pi >= len(w.prev) || cur[ci] < w.prev[pi]:
			dirty = append(dirty, s.candSeq[cur[ci]])
			ci++
		default:
			dirty = append(dirty, s.candSeq[cur[ci]])
			pi++
			ci++
		}
	}
	w.prev, w.cur = cur, w.prev[:0]
	w.dirty = dirty[:0]

	in := sta.Input{NetRC: w.view, ClockArrivalPs: s.basis.ClockArrivalPs}
	if err := w.eng.ReanalyzeStateCtx(ctx, in, s.basis.STAOpt, dirty); err != nil {
		return err
	}
	s.wns[i], s.tns[i] = w.eng.SlackStats(s.basis.PeriodPs)
	return nil
}

// summarize reduces the per-sample arrays in sample order. The quantiles
// are exact order statistics of the full sample multiset, so they (like
// the Welford mean/sigma, which runs strictly in sample index order) are
// independent of which worker produced which sample.
func (s *Sampler) summarize() *Summary {
	out := &Summary{
		Samples: s.opt.Samples,
		WNSPs:   append([]float64(nil), s.wns...),
		TNSPs:   append([]float64(nil), s.tns...),
	}
	out.MeanWNSPs, out.SigmaWNSPs = meanSigma(s.wns)
	out.MeanTNSPs, out.SigmaTNSPs = meanSigma(s.tns)
	sw := append([]float64(nil), s.wns...)
	st := append([]float64(nil), s.tns...)
	sort.Float64s(sw)
	sort.Float64s(st)
	out.P50WNSPs = worstQuantile(sw, 0.50)
	out.P95WNSPs = worstQuantile(sw, 0.95)
	out.P997WNSPs = worstQuantile(sw, 0.997)
	out.P50TNSPs = worstQuantile(st, 0.50)
	out.P95TNSPs = worstQuantile(st, 0.95)
	out.P997TNSPs = worstQuantile(st, 0.997)
	return out
}

// meanSigma is Welford's algorithm in sample order (population sigma).
func meanSigma(v []float64) (mean, sigma float64) {
	if len(v) == 0 {
		return 0, 0
	}
	m2 := 0.0
	for i, x := range v {
		d := x - mean
		mean += d / float64(i+1)
		m2 += d * (x - mean)
	}
	return mean, math.Sqrt(m2 / float64(len(v)))
}

// worstQuantile returns, from an ascending-sorted sample array (worst
// values first for slack metrics), the value met or beaten by fraction q
// of the samples: the exact (1-q) worst-tail order statistic.
func worstQuantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	// Nudge below the exact rank before ceiling so binary fractions like
	// (1-0.95)*100 = 5.000000000000004 don't round an exact rank upward.
	idx := int(math.Ceil((1-q)*float64(len(sorted))-1e-9)) - 1
	if idx < 0 {
		idx = 0
	}
	return sorted[idx]
}

// rng is a splitmix64 stream; rngFor derives an independent stream per
// (seed, sample) pair, so a sample's draws never depend on scheduling.
type rng struct{ s uint64 }

func rngFor(seed uint64, sample int) rng {
	return rng{s: seed + 0x9E3779B97F4A7C15*uint64(sample+1)}
}

func (r *rng) next() uint64 {
	r.s += 0x9E3779B97F4A7C15
	z := r.s
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// normPair draws two independent standard gaussians (Box-Muller).
func (r *rng) normPair() (float64, float64) {
	u1 := (float64(r.next()>>11) + 1) / (1 << 53) // (0,1]
	u2 := float64(r.next()>>11) / (1 << 53)       // [0,1)
	rad := math.Sqrt(-2 * math.Log(u1))
	sin, cos := math.Sincos(2 * math.Pi * u2)
	return rad * cos, rad * sin
}
