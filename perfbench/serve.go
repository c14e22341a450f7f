package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/exp"
	"repro/internal/serve"
	"repro/internal/variation"
)

// serveBlocks is the number of request blocks in one pass's script.
const serveBlocks = 5

// serveMCSamples is the size of each /v1/mc study.
const serveMCSamples = 2048

// serveReq is one scripted request.
type serveReq struct {
	Kind  string // "flow", "sweep" or "mc"
	Flow  *serve.FlowSpec
	Sweep *serve.SweepRequest
	MC    *serve.MCRequest
}

func (r serveReq) path() string { return "/v1/" + r.Kind }

func (r serveReq) body() ([]byte, error) {
	switch r.Kind {
	case "flow":
		return json.Marshal(r.Flow)
	case "sweep":
		return json.Marshal(r.Sweep)
	}
	return json.Marshal(r.MC)
}

// serveClass is a flow spec without back pins: the points of one class
// share the daemon's synth-root and placed-and-clocked checkpoints.
type serveClass struct {
	arch        string
	front, back int
	target      float64
	util        float64
}

func (c serveClass) spec(bp float64) serve.FlowSpec {
	if c.back == 0 {
		bp = 0
	}
	return serve.FlowSpec{Arch: c.arch, Front: c.front, Back: c.back, TargetGHz: c.target, Util: c.util, BackPins: bp}
}

// serveHot are the classes most requests land on, all dual-sided: their
// leaves, back-pin sweeps and studies vary the back-pin density.
var serveHot = []serveClass{
	{"FFET", 12, 12, 1.2, 0.70}, {"FFET", 8, 8, 1.5, 0.72}, {"FFET", 6, 6, 1.8, 0.68},
	{"FFET", 4, 4, 2.1, 0.66}, {"FFET", 12, 12, 1.6, 0.66}, {"FFET", 8, 8, 2.0, 0.70},
	{"FFET", 12, 12, 2.2, 0.74}, {"FFET", 6, 6, 1.3, 0.72},
}

// serveCold are one-off classes, three per block: they grow the
// checkpoint working set past the daemon's default 256 MiB budget within
// a pass.
var serveCold = []serveClass{
	{"FFET", 12, 12, 1.05, 0.66}, {"FFET", 8, 8, 2.35, 0.70}, {"FFET", 6, 6, 1.6, 0.74},
	{"FFET", 4, 4, 1.25, 0.68}, {"FFET", 12, 0, 2.0, 0.64}, {"CFET", 12, 0, 1.15, 0.76},
	{"FFET", 12, 12, 1.9, 0.64}, {"FFET", 8, 8, 1.1, 0.76}, {"FFET", 6, 6, 2.4, 0.66},
	{"FFET", 4, 4, 1.7, 0.72}, {"FFET", 12, 0, 1.3, 0.70}, {"CFET", 12, 0, 2.3, 0.68},
	{"FFET", 12, 12, 2.45, 0.72}, {"FFET", 8, 8, 1.35, 0.64}, {"CFET", 12, 0, 1.55, 0.72},
}

// serveEasy are target-sweep bases whose synth-diff hops mostly hold.
var serveEasy = []serveClass{
	{"FFET", 12, 12, 1.35, 0.70}, {"FFET", 8, 8, 1.75, 0.68}, {"FFET", 6, 6, 1.45, 0.72},
}

// serveFallback are target-sweep bases whose hops partly fall back:
// CFET FM12, whose neighboring targets diverge structurally, and
// low-back-pin FM4BM4, whose congested leaves break the diff gates.
// Bases further into congestion cost ten times more per sweep and would
// dominate the pass.
var serveFallback = []struct {
	c  serveClass
	bp float64
}{
	{serveClass{"CFET", 12, 0, 1.3, 0.70}, 0}, {serveClass{"FFET", 4, 4, 1.5, 0.62}, 0.05},
}

// serveBlock is the number of requests in one block of the script.
const serveBlock = 15

// serveScript is the seed's request sequence for one pass. Every block
// holds the same mix over fixed classes, and the seed picks each hot
// class's first back-pin value, which earlier flow a block repeats, the
// study seeds and the order within each block. Seeded classes, back pins
// and sweep values moved a whole pass's cost with the seed; the order
// alone still decides which requests find their checkpoints cached.
//
//   - nine /v1/flow leaves: five on hot classes, three on cold classes
//     and one exact repeat of a flow from an earlier block (a memo hit;
//     block 0 has a sixth hot leaf instead);
//   - two back_pins sweeps over four of five back-pin values on hot
//     classes;
//   - one close-target target_ghz sweep (gaps under exp's 12% chain
//     bound), on an easy base in even blocks and a fallback base in odd
//     ones;
//   - three small /v1/mc studies on hot classes.
//
// Leaves take back pins off a grid disjoint from the sweeps', each hot
// class cycling through it, so the memo hits exactly the repeats and the
// sweep points a later sweep of the same class asks again.
func serveScript(seed uint64) []serveReq {
	r := rand.New(rand.NewPCG(seed, 0x5e7e))
	sweepBP := []float64{0.1, 0.2, 0.3, 0.4, 0.5}
	leafBP := []float64{0.15, 0.25, 0.35, 0.45}
	next := make([]int, len(serveHot))
	for i := range next {
		next[i] = r.IntN(len(leafBP))
	}
	hotFlow := func(k int) serve.FlowSpec {
		c := k % len(serveHot)
		next[c]++
		return serveHot[c].spec(leafBP[next[c]%len(leafBP)])
	}
	var script []serveReq
	var earlier []serve.FlowSpec
	nHot := 0
	for blk := 0; blk < serveBlocks; blk++ {
		var block []serveReq
		var flows []serve.FlowSpec
		hot := 5
		if blk == 0 {
			hot = 6
		}
		for i := 0; i < hot; i++ {
			flows = append(flows, hotFlow(nHot))
			nHot++
		}
		for i := 0; i < 3; i++ {
			flows = append(flows, serveCold[(3*blk+i)%len(serveCold)].spec(leafBP[(3*blk+i)%len(leafBP)]))
		}
		if blk > 0 {
			flows = append(flows, earlier[r.IntN(len(earlier))])
		}
		for i := range flows {
			block = append(block, serveReq{Kind: "flow", Flow: &flows[i]})
		}
		earlier = append(earlier, flows...)
		for i := 0; i < 2; i++ {
			var vals []float64
			for k, v := range sweepBP {
				if k != (2*blk+i)%len(sweepBP) {
					vals = append(vals, v)
				}
			}
			base := serveHot[(2*blk+i)%len(serveHot)].spec(0.5)
			block = append(block, serveReq{Kind: "sweep", Sweep: &serve.SweepRequest{Base: base, Axis: "back_pins", Values: vals}})
		}
		base := serveEasy[blk/2%len(serveEasy)].spec(0.3)
		if blk%2 == 1 {
			fb := serveFallback[blk/2%len(serveFallback)]
			base = fb.c.spec(fb.bp)
		}
		vals := make([]float64, 4)
		for k := range vals {
			vals[k] = math.Round(base.TargetGHz*(1+0.04*float64(k))*1000) / 1000
		}
		block = append(block, serveReq{Kind: "sweep", Sweep: &serve.SweepRequest{Base: base, Axis: "target_ghz", Values: vals}})
		for i := 0; i < 3; i++ {
			base := serveHot[(3*blk+i+5)%len(serveHot)].spec(sweepBP[(3*blk+i)%len(sweepBP)])
			block = append(block, serveReq{Kind: "mc", MC: &serve.MCRequest{Base: base, Samples: serveMCSamples, Seed: r.Uint64()>>1 | 1}})
		}
		r.Shuffle(len(block), func(i, j int) { block[i], block[j] = block[j], block[i] })
		script = append(script, block...)
	}
	return script
}

// daemon is one ffetd handler on a loopback test server.
type daemon struct {
	srv *serve.Server
	ts  *httptest.Server
}

func newDaemon() (*daemon, error) {
	s, err := serve.New(serve.Options{Scale: exp.Quick})
	if err != nil {
		return nil, err
	}
	return &daemon{srv: s, ts: httptest.NewServer(s.Handler())}, nil
}

func (d *daemon) close() {
	d.ts.Close()
	d.srv.Close()
}

// serveWL drives the daemon from a closed loop of nproc clients: each
// sends its next request only after the previous reply, as the scripts
// that call ffetd do. Every pass starts from a cold daemon and runs the
// seed's whole script.
type serveWL struct {
	next   *daemon
	script []serveReq
	// ref are the first pass's response bodies; later passes must match.
	ref [][]byte
}

func (w *serveWL) setup(b *bench) error {
	d, err := newDaemon()
	w.next = d
	return err
}

func (w *serveWL) teardown() {
	if w.next != nil {
		w.next.close()
		w.next = nil
	}
}

func (w *serveWL) run(b *bench) error {
	w.script = serveScript(b.seed)
	b.digestNote = fmt.Sprintf("over the %d response bodies of one pass (every pass must match)", len(w.script))
	// lat[t][k] are request k's latencies over the untraced (t=0) or
	// traced (t=1) passes.
	var lat [2][][]float64
	for t := range lat {
		lat[t] = make([][]float64, len(w.script))
	}
	for i := 0; b.more(i); i++ {
		if w.next == nil {
			if err := w.setup(b); err != nil {
				return err
			}
		}
		d := w.next
		w.next = nil
		traced := b.tracedUnit(i)
		l := w.pass(b, d, traced)
		d.close()
		for k, v := range l {
			lat[btoi(traced)][k] = append(lat[btoi(traced)][k], v)
		}
	}
	// A request's latency is its median over the phase's passes, so the
	// tail is taken over the script's requests whatever the pass count.
	for t, ph := range b.ph {
		for k, ls := range lat[t] {
			if len(ls) == 0 {
				continue
			}
			m := median(ls)
			ph.opLat = append(ph.opLat, m)
			if rq := w.script[k]; rq.Kind == "mc" {
				ph.mcRates = append(ph.mcRates, float64(rq.MC.Samples)/m)
			}
		}
	}
	for _, body := range w.ref {
		b.digest.Write(body)
		b.digest.Write([]byte{'\n'})
	}
	return nil
}

// event mirrors the daemon's NDJSON progress line.
type event struct {
	Event string          `json:"event"`
	Point *int            `json:"point"`
	Kind  string          `json:"kind"`
	Stage string          `json:"stage"`
	Ms    float64         `json:"ms"`
	Data  json.RawMessage `json:"data"`
	Error json.RawMessage `json:"error"`
}

// pass runs the whole script against one cold daemon and returns each
// request's latency in script order.
func (w *serveWL) pass(b *bench, d *daemon, traced bool) []float64 {
	ph, tr := b.phaseFor(traced)
	var probe *rtProbe
	if traced {
		probe = startRT()
	}
	n := len(w.script)
	lat := make([]float64, n)
	bodies := make([][]byte, n)
	errs := make([]error, n)
	layers := make([]map[string]float64, n)
	var next atomic.Int64
	var wg sync.WaitGroup
	t0 := time.Now()
	for c := 0; c < runtime.GOMAXPROCS(0); c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				lat[i], bodies[i], layers[i], errs[i] = w.do(d, w.script[i], tr)
			}
		}()
	}
	wg.Wait()
	wall := time.Since(t0).Seconds()
	if probe != nil {
		probe.finish(&ph.rt)
	}
	ph.wall += wall
	ph.ops += n
	ph.opRates = append(ph.opRates, float64(n)/wall)
	ph.units++
	for i, rq := range w.script {
		b.attempted++
		if errs[i] != nil {
			b.fail("request %d (%s): %v", i, rq.Kind, errs[i])
		}
		for k, v := range layers[i] {
			ph.layer[k] += v
		}
	}
	st := d.srv.StatsSnapshot()
	ph.layer["serve.ckpt_hits"] += float64(st.Checkpoint.Hits)
	ph.layer["serve.ckpt_lookups"] += float64(st.Checkpoint.Hits + st.Checkpoint.Misses)
	ph.layer["serve.ckpt_coalesced"] += float64(st.Checkpoint.Coalesced)
	ph.layer["serve.ckpt_evictions"] += float64(st.Checkpoint.Evictions)
	ph.layer["serve.ckpt_resident_mb"] += float64(st.Checkpoint.ResidentBytes) / (1 << 20)
	ph.layer["serve.memo_hits"] += float64(st.Memo.Hits)
	ph.layer["serve.memo_lookups"] += float64(st.Memo.Hits + st.Memo.Misses)
	ph.layer["serve.diff_forks"] += float64(st.Sweep.DiffForks)
	ph.layer["serve.diff_fallbacks"] += float64(st.Sweep.DiffFallbacks)
	ph.layer["serve.rejected"] += float64(st.Requests.Rejected)

	if w.ref == nil {
		w.ref = bodies
	} else {
		for i := range bodies {
			if !bytes.Equal(bodies[i], w.ref[i]) {
				b.mismatch("pass %d request %d: body differs from the first pass", ph.units, i)
			}
		}
	}
	return lat
}

// do sends one request and waits for the whole reply. Traced requests
// stream (?stream=1) and rebuild the request's phases from the arrival
// times of its events: admission wait, checkpoint, leaf stages, the
// study of an MC request, and the remainder (decode, encode, HTTP) as the
// request span's self time.
func (w *serveWL) do(d *daemon, rq serveReq, tr *tracer) (float64, []byte, map[string]float64, error) {
	body, err := rq.body()
	if err != nil {
		return 0, nil, nil, err
	}
	url := d.ts.URL + rq.path()
	if tr != nil {
		url += "?stream=1"
	}
	var start float64
	if tr != nil {
		start = tr.now()
	}
	t0 := time.Now()
	resp, err := d.ts.Client().Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, nil, nil, err
	}
	defer resp.Body.Close()
	if tr == nil {
		got, err := io.ReadAll(resp.Body)
		lat := time.Since(t0).Seconds()
		if err != nil {
			return lat, nil, nil, err
		}
		if resp.StatusCode != http.StatusOK {
			return lat, nil, nil, fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(got))
		}
		return lat, bytes.TrimSuffix(got, []byte("\n")), nil, nil
	}

	type arrival struct {
		at float64
		ev event
	}
	var evs []arrival
	var done []byte
	rd := bufio.NewReader(resp.Body)
	for {
		line, err := rd.ReadBytes('\n')
		if len(bytes.TrimSpace(line)) > 0 {
			var ev event
			if jerr := json.Unmarshal(line, &ev); jerr != nil {
				return 0, nil, nil, fmt.Errorf("bad event %q: %w", line, jerr)
			}
			evs = append(evs, arrival{tr.now(), ev})
			switch ev.Event {
			case "done":
				done = ev.Data
			case "error":
				return 0, nil, nil, fmt.Errorf("error event: %s", ev.Error)
			}
		}
		if err == io.EOF {
			break
		}
		if err != nil {
			return 0, nil, nil, err
		}
	}
	lat := time.Since(t0).Seconds()
	end := tr.now()
	if resp.StatusCode != http.StatusOK || done == nil {
		return lat, nil, nil, fmt.Errorf("status %d without a done event", resp.StatusCode)
	}

	layer := map[string]float64{}
	req := tr.request()
	root := tr.add("serve.request", 0, req, start, end)
	var kids [][2]float64
	child := func(name string, parent int, a, z float64) {
		tr.add(name, parent, req, a, z)
		if parent == root {
			kids = append(kids, [2]float64{a, z})
		}
	}
	prev := start
	type leaf struct {
		lo, hi float64
		stages []arrival
	}
	leaves := map[int]*leaf{}
	var order []int
	for _, a := range evs {
		pt := -1
		if a.ev.Point != nil {
			pt = *a.ev.Point
		}
		switch a.ev.Event {
		case "accepted":
			if rq.Kind != "sweep" {
				child("serve.admit", root, start, a.at)
				layer["serve.admit_wait_s"] += a.at - start
			}
		case "checkpoint":
			child("serve.checkpoint", root, prev, a.at)
			layer["serve.checkpoint_s"] += a.at - prev
		case "stage":
			l := leaves[pt]
			lo := a.at - a.ev.Ms/1e3
			if l == nil {
				l = &leaf{lo: lo}
				leaves[pt] = l
				order = append(order, pt)
			}
			l.hi = a.at
			l.stages = append(l.stages, a)
			layer["serve.stage."+a.ev.Stage+"_s"] += a.ev.Ms / 1e3
		case "done":
			// A study streams no events: it runs between the leaf's last
			// stage and the reply.
			if rq.Kind == "mc" {
				child("serve.study", root, prev, a.at)
				layer["serve.study_s"] += a.at - prev
			}
		}
		prev = a.at
	}
	for _, pt := range order {
		l := leaves[pt]
		id := tr.add("serve.leaf", root, req, l.lo, l.hi)
		kids = append(kids, [2]float64{l.lo, l.hi})
		layer["serve.leaf_s"] += l.hi - l.lo
		for _, s := range l.stages {
			tr.add("serve.stage."+s.ev.Stage, id, req, s.at-s.ev.Ms/1e3, s.at)
		}
	}
	layer["serve.io_s"] += (end - start) - covered(kids, start, end)
	return lat, done, layer, nil
}

// gate recomputes every distinct leaf of the script on the offline path —
// core.RunFlow into serve.NewSummary for flows, a scratch flow's
// variation.Study for MC — and requires every first-pass body to be
// byte-identical to it.
func (w *serveWL) gate(b *bench) error {
	suite, err := exp.NewSuite(exp.Quick)
	if err != nil {
		return err
	}
	type job struct {
		Spec serve.FlowSpec
		MC   *serve.MCRequest
	}
	keyOf := func(j job) string {
		k, _ := json.Marshal(j)
		return string(k)
	}
	refs := map[string][]byte{}
	var jobs []job
	want := func(j job) {
		k := keyOf(j)
		if _, ok := refs[k]; !ok {
			refs[k] = nil
			jobs = append(jobs, j)
		}
	}
	for _, rq := range w.script {
		switch rq.Kind {
		case "flow":
			want(job{Spec: *rq.Flow})
		case "sweep":
			pts, err := rq.Sweep.Points()
			if err != nil {
				return err
			}
			for _, sp := range pts {
				want(job{Spec: sp})
			}
		case "mc":
			want(job{Spec: rq.MC.Base, MC: rq.MC})
		}
	}
	out := make([][]byte, len(jobs))
	errs := make([]error, len(jobs))
	var next atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < runtime.GOMAXPROCS(0); c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(jobs) {
					return
				}
				out[i], errs[i] = offlineBody(suite, jobs[i].Spec, jobs[i].MC)
			}
		}()
	}
	wg.Wait()
	for i, j := range jobs {
		if errs[i] != nil {
			return fmt.Errorf("reference %+v: %w", j.Spec, errs[i])
		}
		refs[keyOf(j)] = out[i]
	}
	for i, rq := range w.script {
		var exp []byte
		switch rq.Kind {
		case "flow":
			exp, _ = json.Marshal(struct {
				Result json.RawMessage `json:"result"`
			}{refs[keyOf(job{Spec: *rq.Flow})]})
		case "sweep":
			pts, _ := rq.Sweep.Points()
			rs := make([]json.RawMessage, len(pts))
			for k, sp := range pts {
				rs[k] = refs[keyOf(job{Spec: sp})]
			}
			exp, _ = json.Marshal(struct {
				Results []json.RawMessage `json:"results"`
			}{rs})
		case "mc":
			exp = refs[keyOf(job{Spec: rq.MC.Base, MC: rq.MC})]
		}
		if w.ref[i] == nil {
			continue // failed request, already counted
		}
		if !bytes.Equal(w.ref[i], exp) {
			return fmt.Errorf("request %d (%s): body differs from the offline path:\n got %s\nwant %s", i, rq.Kind, w.ref[i], exp)
		}
	}
	b.note("gate: %d bodies byte-identical to the offline path (%d distinct leaves recomputed)", len(w.script), len(jobs))
	return nil
}

// offlineBody is the offline reference of one leaf: the marshaled
// Summary of a from-scratch flow, or for MC the marshaled study of a
// scratch flow's timing checkpoint under the request's options.
func offlineBody(suite *exp.Suite, sp serve.FlowSpec, mc *serve.MCRequest) ([]byte, error) {
	arch, cfg, err := sp.Config()
	if err != nil {
		return nil, err
	}
	nl := suite.Netlist(arch)
	if mc == nil {
		res, err := core.RunFlow(nl, cfg)
		if err != nil {
			return nil, err
		}
		return json.Marshal(serve.NewSummary(res))
	}
	f, err := core.NewFlow(nl, cfg)
	if err != nil {
		return nil, err
	}
	if _, err := f.Run(); err != nil {
		return nil, err
	}
	basis, err := f.VariationBasis()
	if err != nil {
		return nil, err
	}
	opt := variation.DefaultOptions()
	opt.Samples = mc.Samples
	opt.Seed = mc.Seed
	sum, err := variation.Study(context.Background(), basis, opt)
	if err != nil {
		return nil, err
	}
	return json.Marshal(struct {
		MC serve.MCSummary `json:"mc"`
	}{serve.NewMCSummary(sum)})
}
