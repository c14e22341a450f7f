// Command perfbench is the repository benchmark. One process runs one
// named workload through the entry points users call, measures it for a
// fixed wall-clock budget, checks every result outside the timed region,
// and prints a report ending in one JSON line:
//
//	go run . --workload design --seed 7 --seconds 20 --trace 0
//
// Workloads (why each was chosen is in BENCHMARK.json):
//
//	paper   every table and figure of the evaluation at Quick scale, each
//	        pass from a fresh exp.Suite, as cmd/ffetexp runs them
//	design  seeded, independent flows of the 32-register RV32I core,
//	        stepped stage by stage like cmd/ffetflow, each valid result
//	        followed by a cmd/ffetmc-style Monte Carlo study
//	serve   a seeded closed loop of nproc clients against the ffetd
//	        handler on an in-process loopback httptest server
//
// With --trace 0 the JSON carries the end-to-end metrics. With --trace 1
// the run alternates untraced and traced units of work, prints both sets
// of end-to-end numbers and their difference (the tracing overhead), and
// the JSON carries the per-layer metrics. Spans are recorded only around
// the benchmark's own calls into each layer's public functions; they are
// written to <out>/trace-<workload>-seed<n>.json when the run ends.
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"hash"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// setupReps is how many times each workload builds its set-up; setup_s
// is the median.
const setupReps = 9

type workload interface {
	// setup builds what the timed region needs before its first
	// operation: libraries, RV32 netlists, the suite or the daemon.
	setup(b *bench) error
	// teardown releases one set-up that will not be used.
	teardown()
	// run executes units of work until the budget is spent.
	run(b *bench) error
	// gate checks the results of the timed region against references.
	gate(b *bench) error
}

var workloads = map[string]func() workload{
	"paper":  func() workload { return &paperWL{} },
	"design": func() workload { return &designWL{} },
	"serve":  func() workload { return &serveWL{} },
}

// phase accumulates one half of a run: the untraced units, or the traced
// ones. A --trace 0 run has only the untraced phase.
type phase struct {
	opLat []float64 // per-operation latency, seconds
	ops   int       // operations completed
	wall  float64   // timed wall seconds of the phase's units
	units int       // passes (paper, serve) or flows (design)
	// opRates are operations per second of each pass (paper, serve) or
	// block of flows (design); mcRates are samples per second of each
	// study (design), mc table (paper) or /v1/mc request (serve). The
	// throughput metrics are their medians, so a burst of load from
	// outside the process moves one sample, not the run's figure.
	opRates, mcRates []float64
	blockWall        float64 // design: wall of the block in progress
	// layer holds per-layer sums over the phase's units; perLayer divides
	// them by units. ratio metrics are built from their parts.
	layer map[string]float64
	rt    rtTotals
}

func newPhase() *phase { return &phase{layer: map[string]float64{}} }

// bench is the state of one run shared by the workloads.
type bench struct {
	name    string
	seed    uint64
	seconds float64
	traced  bool
	tr      *tracer // spans of the traced units
	start   time.Time
	ph      [2]*phase // [0] untraced, [1] traced
	setupS  []float64

	attempted, failed int
	failures          []string
	mismatches        []string
	digest            hash.Hash
	digestNote        string
	notes             []string
}

func (b *bench) elapsed() float64 { return time.Since(b.start).Seconds() }

// phaseFor returns the phase and tracer a unit records into.
func (b *bench) phaseFor(traced bool) (*phase, *tracer) {
	if traced {
		return b.ph[1], b.tr
	}
	return b.ph[0], nil
}

// budget is the timed region's length: --seconds for each half of the
// run, so a traced run, which does every kind of unit twice, takes twice
// as long.
func (b *bench) budget() float64 {
	if b.traced {
		return 2 * b.seconds
	}
	return b.seconds
}

// more reports whether another pass should start: the budget is not yet
// spent, or a traced run has not yet run traced, untraced, untraced,
// traced.
func (b *bench) more(passes int) bool {
	return b.elapsed() < b.budget() || (b.traced && passes < 4)
}

// tracedUnit reports whether pass i of a pass-based workload is traced.
// A traced run alternates traced, untraced, untraced, traced, so drift
// weighs on both halves alike and the cold first pass counts against
// tracing: the overhead is never understated.
func (b *bench) tracedUnit(i int) bool { return b.traced && (i%4 == 0 || i%4 == 3) }

func (b *bench) fail(format string, args ...any) {
	b.failed++
	if len(b.failures) < 20 {
		b.failures = append(b.failures, fmt.Sprintf(format, args...))
	}
}

func (b *bench) mismatch(format string, args ...any) {
	if len(b.mismatches) < 20 {
		b.mismatches = append(b.mismatches, fmt.Sprintf(format, args...))
	}
}

func (b *bench) note(format string, args ...any) {
	b.notes = append(b.notes, fmt.Sprintf(format, args...))
}

func main() { os.Exit(realMain(os.Args[1:], os.Stdout)) }

func realMain(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "paper, design or serve")
	seed := fs.Uint64("seed", 1, "workload generator seed")
	seconds := fs.Float64("seconds", 20, "measurement budget in seconds")
	traceFlag := fs.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	out := fs.String("out", ".bench_build/perfbench", "directory for the span dump")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	mk, ok := workloads[*name]
	if !ok || *seconds <= 0 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: want --workload paper|design|serve, --seconds > 0, --trace 0|1\n")
		return 2
	}
	procs := runtime.NumCPU()
	runtime.GOMAXPROCS(procs)

	b := &bench{
		name: *name, seed: *seed, seconds: *seconds, traced: *traceFlag == 1,
		ph: [2]*phase{newPhase(), newPhase()}, digest: sha256.New(),
	}
	if b.traced {
		b.tr = newTracer()
	}
	stamp := map[string]any{"workload": b.name, "seed": b.seed, "seconds": b.seconds, "trace": *traceFlag,
		"gomaxprocs": procs, "go": runtime.Version(), "commit": commit()}
	fmt.Fprintf(stdout, "perfbench workload=%s seed=%d seconds=%g trace=%d gomaxprocs=%d go=%s commit=%s\n",
		b.name, b.seed, b.seconds, *traceFlag, procs, runtime.Version(), commit())

	w := mk()
	for i := 0; i < setupReps; i++ {
		runtime.GC()
		t0 := time.Now()
		if err := w.setup(b); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: setup: %v\n", err)
			return 1
		}
		b.setupS = append(b.setupS, time.Since(t0).Seconds())
		if i < setupReps-1 {
			w.teardown()
		}
	}
	runtime.GC()
	b.start = time.Now()
	if err := w.run(b); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", b.name, err)
		return 1
	}
	rssMB := peakRSSMB()
	if err := w.gate(b); err != nil {
		b.mismatch("gate: %v", err)
	}
	if b.attempted == 0 {
		fmt.Fprintln(os.Stderr, "perfbench: no operation attempted")
		return 1
	}

	e2e := [2]map[string]float64{b.endToEnd(b.ph[0], rssMB), b.endToEnd(b.ph[1], rssMB)}
	b.printReport(stdout, e2e)
	if b.tr != nil {
		path := filepath.Join(*out, fmt.Sprintf("trace-%s-seed%d.json", b.name, b.seed))
		if err := b.tr.write(path, stamp); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
			return 1
		}
		fmt.Fprintf(stdout, "spans: %s\n", path)
	}

	correct := len(b.mismatches) == 0
	var vals map[string]float64
	var defs []metricDef
	if b.traced {
		vals, defs = b.perLayer(b.ph[1]), perLayer
	} else {
		vals, defs = e2e[0], endToEnd
	}
	type mv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	ms := make(map[string]mv, len(defs))
	for _, d := range defs {
		ms[d.Name] = mv{vals[d.Name], d.Unit}
	}
	line, err := json.Marshal(struct {
		Correct   bool          `json:"correct"`
		Attempted int           `json:"attempted"`
		Failed    int           `json:"failed"`
		Metrics   map[string]mv `json:"metrics"`
	}{correct, b.attempted, b.failed, ms})
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !correct {
		return 1
	}
	return 0
}

// endToEnd derives the user-visible metrics of one phase.
func (b *bench) endToEnd(ph *phase, rssMB float64) map[string]float64 {
	tv, _ := tail(ph.opLat)
	return map[string]float64{
		"setup_s":          median(b.setupS),
		"op_p50_s":         median(ph.opLat),
		"op_tail_s":        tv,
		"ops_per_s":        median(ph.opRates),
		"mc_samples_per_s": median(ph.mcRates),
		"peak_rss_mb":      rssMB,
	}
}

// perLayer derives the traced phase's per-layer metrics: sums per unit of
// work (pass or flow), hit ratios from their parts, and the Go runtime's
// counters over the traced units.
func (b *bench) perLayer(ph *phase) map[string]float64 {
	out := map[string]float64{}
	n := float64(max(ph.units, 1))
	for k, v := range ph.layer {
		out[k] = v / n
	}
	hit := func(name, hits, attempts string) {
		out[name] = ratio(ph.layer[hits], ph.layer[attempts])
		delete(out, hits)
		delete(out, attempts)
	}
	hit("exp.memo_hit_ratio", "exp.memo_hits", "exp.memo_lookups")
	hit("exp.synth_root_hit_ratio", "exp.synth_root_hits", "exp.synth_root_lookups")
	hit("serve.ckpt_hit_ratio", "serve.ckpt_hits", "serve.ckpt_lookups")
	hit("serve.memo_hit_ratio", "serve.memo_hits", "serve.memo_lookups")
	out["serve.diff_hit_ratio"] = ratio(ph.layer["serve.diff_forks"], ph.layer["serve.diff_forks"]+ph.layer["serve.diff_fallbacks"])
	out["go.alloc_mb"] = float64(ph.rt.alloc) / (1 << 20) / n
	out["go.gc_cycles"] = float64(ph.rt.gcs) / n
	out["go.gc_pause_s"] = float64(ph.rt.pauseNs) / 1e9 / n
	out["go.heap_peak_mb"] = float64(ph.rt.heapPeak) / (1 << 20)
	return out
}

func (b *bench) printReport(w io.Writer, e2e [2]map[string]float64) {
	alias := e2eAlias[b.name]
	show := func(label string, ph *phase, vals map[string]float64) {
		_, tp := tail(ph.opLat)
		fmt.Fprintf(w, "end-to-end (%s, %d ops in %d units, %.2f s timed):\n", label, ph.ops, ph.units, ph.wall)
		for _, d := range endToEnd {
			extra := ""
			if a := alias[d.Name]; a != "" {
				extra = " = " + a
			}
			if d.Name == "op_tail_s" {
				extra += fmt.Sprintf(" (p%s, n=%d)", pctStr(tp), len(ph.opLat))
			}
			fmt.Fprintf(w, "  %-18s %14s %-4s%s\n", d.Name, formatFloat(vals[d.Name], 6), d.Unit, extra)
		}
		fmt.Fprintf(w, "  %-18s %14s %-4s (%d failed or refused of %d attempted)\n", "fail_ratio",
			formatFloat(ratio(float64(b.failed), float64(b.attempted)), 6), "-", b.failed, b.attempted)
	}
	show("untraced", b.ph[0], e2e[0])
	if b.traced {
		show("traced", b.ph[1], e2e[1])
		fmt.Fprintln(w, "tracing overhead (traced minus untraced):")
		for _, d := range endToEnd {
			if d.Name == "setup_s" || d.Name == "peak_rss_mb" {
				continue
			}
			u, t := e2e[0][d.Name], e2e[1][d.Name]
			fmt.Fprintf(w, "  %-18s %+14s %-4s (%+.1f%%)\n", d.Name, formatFloat(t-u, 6), d.Unit, 100*ratio(t-u, u))
		}
		vals := b.perLayer(b.ph[1])
		fmt.Fprintln(w, "per-layer (traced units; per pass for paper and serve, per flow for design):")
		for _, d := range perLayer {
			fmt.Fprintf(w, "  %-28s %14s %-6s -> %s on %s\n", d.Name, formatFloat(vals[d.Name], 6), d.Unit, d.Moves, d.On)
		}
		b.printSelfTimes(w)
		b.printLedger(w, vals)
	}
	for _, n := range b.notes {
		fmt.Fprintln(w, n)
	}
	fmt.Fprintf(w, "setup_s samples: %s\n", floats(b.setupS))
	fmt.Fprintf(w, "digest %s sha256=%s\n", b.digestNote, hex.EncodeToString(b.digest.Sum(nil)))
	for _, f := range b.failures {
		fmt.Fprintf(w, "failed: %s\n", f)
	}
	if len(b.mismatches) == 0 {
		fmt.Fprintln(w, "correctness: ok")
	}
	for _, m := range b.mismatches {
		fmt.Fprintf(w, "correctness MISMATCH: %s\n", m)
	}
}

// printSelfTimes lists every span name with its busy and self time.
func (b *bench) printSelfTimes(w io.Writer) {
	lt := b.tr.layerTimes()
	names := make([]string, 0, len(lt))
	for n := range lt {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintln(w, "spans (all traced units):")
	fmt.Fprintf(w, "  %-26s %8s %12s %12s\n", "name", "count", "busy_s", "self_s")
	for _, n := range names {
		fmt.Fprintf(w, "  %-26s %8d %12.6f %12.6f\n", n, lt[n].Count, lt[n].Busy, lt[n].Self)
	}
}

// printLedger is the fast-path ledger: every reuse path's hit ratio with
// its attempt count, and re-timed cells against placed cells.
func (b *bench) printLedger(w io.Writer, vals map[string]float64) {
	l := b.ph[1].layer
	row := func(path string, hits, attempts float64) {
		fmt.Fprintf(w, "  %-22s hits %8.0f of %8.0f attempts  ratio %s\n", path, hits, attempts,
			formatFloat(ratio(hits, attempts), 4))
	}
	fmt.Fprintln(w, "fast-path ledger (sums over traced units):")
	row("exp memo", l["exp.memo_hits"], l["exp.memo_lookups"])
	row("exp synth roots", l["exp.synth_root_hits"], l["exp.synth_root_lookups"])
	row("exp diff forks", l["exp.diff_forks"], l["exp.diff_forks"]+l["exp.diff_fallbacks"])
	row("serve memo", l["serve.memo_hits"], l["serve.memo_lookups"])
	row("serve checkpoints", l["serve.ckpt_hits"], l["serve.ckpt_lookups"])
	row("serve diff forks", l["serve.diff_forks"], l["serve.diff_forks"]+l["serve.diff_fallbacks"])
	fmt.Fprintf(w, "  %-22s %s of %s placed cells per flow (ratio %s)\n", "sta cells timed",
		formatFloat(vals["sta.cells_timed"], 1), formatFloat(vals["place.cells"], 1),
		formatFloat(ratio(vals["sta.cells_timed"], vals["place.cells"]), 4))
}

// rtTotals are Go runtime counters summed over traced units.
type rtTotals struct {
	alloc, gcs, pauseNs, heapPeak uint64
}

// rtProbe samples the live heap while a traced unit runs.
type rtProbe struct {
	before runtime.MemStats
	stop   chan struct{}
	done   chan uint64
}

const heapMetric = "/memory/classes/heap/objects:bytes"

func startRT() *rtProbe {
	p := &rtProbe{stop: make(chan struct{}), done: make(chan uint64, 1)}
	runtime.ReadMemStats(&p.before)
	go func() {
		s := []metrics.Sample{{Name: heapMetric}}
		var peak uint64
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		for {
			metrics.Read(s)
			if s[0].Value.Kind() == metrics.KindUint64 {
				peak = max(peak, s[0].Value.Uint64())
			}
			select {
			case <-p.stop:
				p.done <- peak
				return
			case <-tick.C:
			}
		}
	}()
	return p
}

// finish stops the sampler and adds the unit's runtime deltas to t.
func (p *rtProbe) finish(t *rtTotals) {
	close(p.stop)
	peak := <-p.done
	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	t.alloc += after.TotalAlloc - p.before.TotalAlloc
	t.gcs += uint64(after.NumGC - p.before.NumGC)
	t.pauseNs += after.PauseTotalNs - p.before.PauseTotalNs
	t.heapPeak = max(t.heapPeak, peak)
}

// peakRSSMB is the process's peak resident set so far.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// commit is the source revision the wrapper script found, "unknown"
// outside a git checkout.
func commit() string {
	if c := os.Getenv("PERFBENCH_COMMIT"); c != "" {
		return c
	}
	return "unknown"
}

func formatFloat(v float64, prec int) string { return strconv.FormatFloat(v, 'f', prec, 64) }

func floats(xs []float64) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = formatFloat(x, 6)
	}
	return strings.Join(parts, " ")
}

// writeG renders a float at full precision for result digests.
func writeG(w io.Writer, name string, v float64) {
	fmt.Fprintf(w, "%s=%.17g\n", name, v)
}
