package main

import (
	"bytes"
	"encoding/json"
	"math/rand/v2"
	"os"
	"reflect"
	"sort"
	"testing"

	"repro/internal/exp"
)

func TestDesignGeneratorSeeded(t *testing.T) {
	gen := func(seed uint64) []designSpec {
		out := make([]designSpec, 3*len(designStrata))
		for i := range out {
			out[i] = designSpecAt(seed, i)
		}
		return out
	}
	a, b, c := gen(7), gen(7), gen(8)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("one seed yields different design streams")
	}
	if reflect.DeepEqual(a, c) {
		t.Fatal("two seeds yield the same design stream")
	}
	// Every block draws each stratum exactly once.
	for blk := 0; blk < 3; blk++ {
		seen := map[designStratum]int{}
		for _, d := range a[blk*len(designStrata) : (blk+1)*len(designStrata)] {
			for _, st := range designStrata {
				if d.Arch == st.arch && d.Pattern.Front == st.front && d.Pattern.Back == st.back &&
					d.BackPins >= st.bpLo && d.BackPins <= st.bpHi && d.Util >= st.uLo && d.Util <= st.uHi &&
					d.TargetGHz >= st.tLo && d.TargetGHz <= st.tHi {
					seen[st]++
					break
				}
			}
		}
		if len(seen) != len(designStrata) {
			t.Errorf("block %d covers %d of %d strata", blk, len(seen), len(designStrata))
		}
	}
}

func TestServeGeneratorSeeded(t *testing.T) {
	enc := func(seed uint64) string {
		b, err := json.Marshal(serveScript(seed))
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	if enc(7) != enc(7) {
		t.Fatal("one seed yields different scripts")
	}
	if enc(7) == enc(8) {
		t.Fatal("two seeds yield the same script")
	}
	script := serveScript(7)
	if len(script) != serveBlock*serveBlocks {
		t.Fatalf("script has %d requests, want %d", len(script), serveBlock*serveBlocks)
	}
	seen := map[string]bool{}
	repeats := 0
	for blk := 0; blk < serveBlocks; blk++ {
		kinds := map[string]int{}
		for _, rq := range script[blk*serveBlock : (blk+1)*serveBlock] {
			if rq.Flow != nil {
				b, _ := rq.body()
				if seen[string(b)] {
					repeats++
				}
				seen[string(b)] = true
			}
			k := rq.Kind
			if rq.Sweep != nil {
				k += "." + rq.Sweep.Axis
				if rq.Sweep.Axis == "target_ghz" {
					v := rq.Sweep.Values
					for i := 1; i < len(v); i++ {
						if v[i]-v[i-1] > exp.DiffChainMaxRelGap*v[i-1] {
							t.Errorf("block %d: target sweep %v has a gap past the chain bound", blk, v)
						}
					}
				}
			}
			kinds[k]++
		}
		want := map[string]int{"flow": 9, "sweep.back_pins": 2, "sweep.target_ghz": 1, "mc": 3}
		if !reflect.DeepEqual(kinds, want) {
			t.Errorf("block %d mix %v, want %v", blk, kinds, want)
		}
	}
	// Exactly one exact repeat per block after the first: leaves never
	// collide by chance.
	if repeats != serveBlocks-1 {
		t.Errorf("%d repeated flows, want %d", repeats, serveBlocks-1)
	}
	for _, rq := range script {
		if _, err := rq.body(); err != nil {
			t.Fatal(err)
		}
	}
}

func TestProgramGeneratorSeeded(t *testing.T) {
	if !reflect.DeepEqual(rvProgram(3, 48), rvProgram(3, 48)) {
		t.Fatal("one seed yields different programs")
	}
	if reflect.DeepEqual(rvProgram(3, 48), rvProgram(4, 48)) {
		t.Fatal("two seeds yield the same program")
	}
}

func TestTailRule(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i) // unsorted on purpose
		}
		return xs
	}
	for _, c := range []struct {
		n        int
		val, pct float64
	}{
		{0, 0, 0},
		{1, 1, 100},
		{10, 10, 100},
		{11, 1, 100.0 / 11},
		{20, 10, 50},
		{100, 90, 90},
		{1000, 990, 99},
	} {
		v, p := tail(seq(c.n))
		if v != c.val || p != c.pct {
			t.Errorf("n=%d: tail = %g at p%g, want %g at p%g", c.n, v, p, c.val, c.pct)
		}
	}
	// The reported value leaves at least tailBeyond samples above it, and
	// the next larger sample does not.
	r := rand.New(rand.NewPCG(1, 2))
	for trial := 0; trial < 50; trial++ {
		xs := make([]float64, 11+r.IntN(500))
		for i := range xs {
			xs[i] = r.Float64()
		}
		v, _ := tail(xs)
		s := sorted(xs)
		above := len(s) - sort.SearchFloat64s(s, v) - 1
		if above != tailBeyond {
			t.Fatalf("n=%d: %d samples above the tail, want %d", len(xs), above, tailBeyond)
		}
	}
}

func TestMedian(t *testing.T) {
	if m := median([]float64{3, 1, 2}); m != 2 {
		t.Errorf("median odd = %g", m)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("median even = %g", m)
	}
}

func TestCovered(t *testing.T) {
	ivs := [][2]float64{{1, 3}, {2, 4}, {6, 7}, {-1, 0.5}, {8, 12}}
	if got := covered(ivs, 0, 10); got != 0.5+3+1+2 {
		t.Errorf("covered = %g, want 6.5", got)
	}
	tr := newTracer()
	root := tr.add("root", 0, 1, 0, 10)
	tr.add("kid", root, 1, 1, 4)
	tr.add("kid", root, 1, 3, 5)
	lt := tr.layerTimes()
	if lt["root"].Self != 6 || lt["kid"].Busy != 5 || lt["kid"].Count != 2 {
		t.Errorf("layer times %+v", lt)
	}
	var nilTracer *tracer
	if nilTracer.add("x", 0, 0, 0, 1) != 0 || nilTracer.request() != 0 {
		t.Error("a nil tracer must record nothing")
	}
}

// TestBenchmarkJSON keeps BENCHMARK.json in step with the metric catalog
// and the workload registry.
func TestBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct {
			Name, Why string
		} `json:"workloads"`
		EndToEnd []struct {
			Name   string  `json:"name"`
			Unit   string  `json:"unit"`
			Better string  `json:"better"`
			Bound  float64 `json:"bound"`
		} `json:"end_to_end"`
		PerLayer []struct {
			Name   string `json:"name"`
			Unit   string `json:"unit"`
			Better string `json:"better"`
		} `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&doc); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range doc.Workloads {
		names = append(names, w.Name)
		if w.Why == "" || len(w.Why) > 200 {
			t.Errorf("workload %s: why must be 1..200 characters", w.Name)
		}
	}
	var reg []string
	for n := range workloads {
		reg = append(reg, n)
	}
	sort.Strings(names)
	sort.Strings(reg)
	if !reflect.DeepEqual(names, reg) {
		t.Errorf("workloads %v, registry %v", names, reg)
	}
	if len(doc.EndToEnd) != len(endToEnd) {
		t.Fatalf("%d end-to-end metrics, catalog has %d", len(doc.EndToEnd), len(endToEnd))
	}
	maxBound := 0.0
	for i, m := range doc.EndToEnd {
		d := endToEnd[i]
		if m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better {
			t.Errorf("end_to_end[%d] = %+v, catalog %+v", i, m, d)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %g out of (0, 0.25]", m.Name, m.Bound)
		}
		maxBound = max(maxBound, m.Bound)
	}
	for _, m := range doc.EndToEnd {
		if m.Name == "setup_s" && m.Bound != maxBound {
			t.Errorf("setup_s must have the largest bound")
		}
	}
	if len(doc.PerLayer) != len(perLayer) {
		t.Fatalf("%d per-layer metrics, catalog has %d", len(doc.PerLayer), len(perLayer))
	}
	for i, m := range doc.PerLayer {
		d := perLayer[i]
		if m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better {
			t.Errorf("per_layer[%d] = %+v, catalog %+v", i, m, d)
		}
		if d.Moves == "" || d.On == "" {
			t.Errorf("%s: catalog names no end-to-end metric or workload it moves", d.Name)
		}
	}
}
