package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/exp"
	"repro/internal/faultinject"
	"repro/internal/variation"
)

// baseSpec is the cheap quick-scale point the tests revolve around.
var baseSpec = FlowSpec{Front: 4, Back: 4, TargetGHz: 1.4, Util: 0.72, BackPins: 0.4}

func newTestServer(t testing.TB, opt Options) *Server {
	t.Helper()
	s, err := New(opt)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	return s
}

// offlineBody runs sp through the from-scratch offline path — no staged
// sessions, no forks, no caches — and returns the marshaled Summary. The
// daemon path shares only the config mapping and the Summary encoding, so
// byte-equality against this is the golden contract.
func offlineBody(t testing.TB, s *Server, sp FlowSpec) json.RawMessage {
	t.Helper()
	arch, cfg, err := sp.Config()
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.RunFlowCtx(context.Background(), s.suite.Netlist(arch), cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(NewSummary(res))
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func wrapResult(t testing.TB, b json.RawMessage) []byte {
	t.Helper()
	resp, err := json.Marshal(struct {
		Result json.RawMessage `json:"result"`
	}{b})
	if err != nil {
		t.Fatal(err)
	}
	return append(resp, '\n')
}

func wrapResults(t testing.TB, bs []json.RawMessage) []byte {
	t.Helper()
	resp, err := json.Marshal(struct {
		Results []json.RawMessage `json:"results"`
	}{bs})
	if err != nil {
		t.Fatal(err)
	}
	return append(resp, '\n')
}

func post(t testing.TB, ts *httptest.Server, path string, req any) (int, []byte) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := ts.Client().Post(ts.URL+path, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	got, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, got
}

func getStats(t testing.TB, ts *httptest.Server) Stats {
	t.Helper()
	resp, err := ts.Client().Get(ts.URL + "/debug/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st Stats
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st
}

// TestFlowGoldenMemoAndStream: a /v1/flow response is byte-identical to
// the offline path, an exact repeat is served from the result memo with
// the same bytes, and the streaming variant's terminal "done" event
// carries those bytes verbatim.
func TestFlowGoldenMemoAndStream(t *testing.T) {
	s := newTestServer(t, Options{Scale: exp.Quick})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	want := wrapResult(t, offlineBody(t, s, baseSpec))
	status, got := post(t, ts, "/v1/flow", baseSpec)
	if status != http.StatusOK {
		t.Fatalf("status %d: %s", status, got)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("daemon response differs from offline path:\n got %s\nwant %s", got, want)
	}

	// Exact repeat: memo hit, identical bytes.
	status, again := post(t, ts, "/v1/flow", baseSpec)
	if status != http.StatusOK || !bytes.Equal(again, got) {
		t.Fatalf("memoized repeat differs: status %d\n got %s\nwant %s", status, again, got)
	}
	st := getStats(t, ts)
	if st.Memo.Hits < 1 || st.Memo.Entries != 1 {
		t.Fatalf("memo counters after repeat: %+v", st.Memo)
	}

	// Streaming: NDJSON events terminated by a "done" event whose Data is
	// the exact non-streaming body.
	body, _ := json.Marshal(baseSpec)
	resp, err := ts.Client().Post(ts.URL+"/v1/flow?stream=1", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("stream content type %q", ct)
	}
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(raw)), "\n")
	var last event
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
		t.Fatalf("bad final event %q: %v", lines[len(lines)-1], err)
	}
	if last.Event != "done" {
		t.Fatalf("final event %q, want done (lines: %v)", last.Event, lines)
	}
	if !bytes.Equal(append(last.Data, '\n'), want) {
		t.Fatalf("stream done payload differs from plain body:\n got %s\nwant %s", last.Data, want)
	}
	// Single-flow events are not sweep points: the point field must be
	// omitted so stream consumers can tell them from a sweep's point 0.
	for _, ln := range lines {
		if strings.Contains(ln, `"point"`) {
			t.Errorf("single-flow stream event carries a sweep point field: %s", ln)
		}
	}
}

// TestHaltedFlowTerminates: an API-valid but infeasible config — util
// past the FFET powerplan's tap ceiling — halts mid-pipeline, and a
// halted session stops advancing its stage cursor. Regression test for
// the handler busy-loop: the daemon must answer with the offline path's
// Valid=false summary (and a finite stream) instead of spinning on
// NextStage forever, and an MC study on the halted base must come back
// as a classified error.
func TestHaltedFlowTerminates(t *testing.T) {
	s := newTestServer(t, Options{Scale: exp.Quick})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	sp := baseSpec
	sp.Util = 0.99

	// The config must actually halt offline, or this test degenerates
	// into a second copy of the plain golden check.
	arch, cfg, err := sp.Config()
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.RunFlowCtx(context.Background(), s.suite.Netlist(arch), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Valid || res.Reason == "" {
		t.Fatalf("util %.2f did not halt offline (valid=%v reason=%q)", sp.Util, res.Valid, res.Reason)
	}
	b, err := json.Marshal(NewSummary(res))
	if err != nil {
		t.Fatal(err)
	}
	want := wrapResult(t, b)

	// Bound every request so a reintroduced busy-loop fails the test
	// instead of hanging it (and the suite) forever.
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	do := func(path string, payload any) (int, []byte) {
		t.Helper()
		body, err := json.Marshal(payload)
		if err != nil {
			t.Fatal(err)
		}
		req, err := http.NewRequestWithContext(ctx, "POST", ts.URL+path, bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("Content-Type", "application/json")
		resp, err := ts.Client().Do(req)
		if err != nil {
			t.Fatalf("%s with halted config did not complete: %v", path, err)
		}
		defer resp.Body.Close()
		got, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatalf("%s with halted config: body read: %v", path, err)
		}
		return resp.StatusCode, got
	}

	status, got := do("/v1/flow", sp)
	if status != http.StatusOK || !bytes.Equal(got, want) {
		t.Fatalf("halted flow: status %d\n got %s\nwant %s", status, got, want)
	}

	// The streaming variant must terminate with the same done payload,
	// not an unbounded stage-event stream.
	status, raw := do("/v1/flow?stream=1", sp)
	if status != http.StatusOK {
		t.Fatalf("halted stream: status %d: %s", status, raw)
	}
	lines := strings.Split(strings.TrimSpace(string(raw)), "\n")
	var last event
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
		t.Fatalf("bad final event %q: %v", lines[len(lines)-1], err)
	}
	if last.Event != "done" || !bytes.Equal(append(last.Data, '\n'), want) {
		t.Fatalf("halted stream final event %q payload differs:\n got %s\nwant %s", last.Event, last.Data, want)
	}

	// MC on a halted base: VariationBasis rejects the invalid flow, and
	// the rejection must surface as a classified error body.
	status, got = do("/v1/mc", MCRequest{Base: sp, Samples: 16, Seed: 7})
	if status != http.StatusInternalServerError {
		t.Fatalf("mc on halted base: status %d: %s", status, got)
	}
	var eb struct {
		Error *ErrorBody `json:"error"`
	}
	if err := json.Unmarshal(got, &eb); err != nil || eb.Error == nil ||
		eb.Error.Kind == "" || eb.Error.Kind == "unclassified" {
		t.Fatalf("mc on halted base: not a classified error body: %s", got)
	}
}

// TestSweepGoldenAndCheckpointSharing: a 5-point back-pin sweep through
// the daemon is byte-identical to the offline per-point path. The points
// form one prefix group whose prefix node the leader and the four
// siblings resolve together: the first resolution builds the synth root
// and the placed-and-clocked prefix through the store (two misses), the
// other four reuse the node without touching the store.
func TestSweepGoldenAndCheckpointSharing(t *testing.T) {
	s := newTestServer(t, Options{Scale: exp.Quick})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	req := SweepRequest{Base: baseSpec, Axis: "back_pins", Values: []float64{0.1, 0.3, 0.5, 0.7, 0.9}}
	specs, err := req.Points()
	if err != nil {
		t.Fatal(err)
	}
	offline := make([]json.RawMessage, len(specs))
	for i, sp := range specs {
		offline[i] = offlineBody(t, s, sp)
	}
	want := wrapResults(t, offline)

	status, got := post(t, ts, "/v1/sweep", req)
	if status != http.StatusOK {
		t.Fatalf("status %d: %s", status, got)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("sweep response differs from offline path:\n got %s\nwant %s", got, want)
	}

	st := getStats(t, ts)
	ck := st.Checkpoint
	if ck.Misses != 2 {
		t.Fatalf("checkpoint misses = %d, want 2 (one synth root + one prefix): %+v", ck.Misses, ck)
	}
	if ck.Hits+ck.Coalesced != 0 {
		t.Fatalf("hits %d + coalesced %d, want 0 (the group's prefix node reads the store once): %+v", ck.Hits, ck.Coalesced, ck)
	}
	if st.Sweep.FullSynthForks != 1 {
		t.Fatalf("full-synth leaders = %d, want 1 (one group leader): %+v", st.Sweep.FullSynthForks, st.Sweep)
	}
	// The leader and its four siblings all fork the group's prefix: one
	// resolution builds it, the other four reuse it.
	if st.Sweep.PrefixMisses != 1 || st.Sweep.PrefixHits != 4 {
		t.Fatalf("prefix misses %d, hits %d, want 1 and 4: %+v", st.Sweep.PrefixMisses, st.Sweep.PrefixHits, st.Sweep)
	}
	if ck.Entries != 2 {
		t.Fatalf("checkpoint entries = %d, want 2", ck.Entries)
	}
	if ck.ResidentBytes <= 0 || ck.ResidentBytes > ck.BudgetBytes {
		t.Fatalf("resident %d outside (0, budget %d]", ck.ResidentBytes, ck.BudgetBytes)
	}
	if st.Memo.Entries != len(specs) {
		t.Fatalf("memo entries = %d, want %d", st.Memo.Entries, len(specs))
	}

	// Streamed repeat (all memo hits): per-point events carry their
	// point index — unlike single-flow streams, which omit it — and the
	// terminal done event is the exact non-streaming body.
	body, _ := json.Marshal(req)
	resp, err := ts.Client().Post(ts.URL+"/v1/sweep?stream=1", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(raw)), "\n")
	var sawPoint bool
	for _, ln := range lines {
		var ev event
		if err := json.Unmarshal([]byte(ln), &ev); err != nil {
			t.Fatalf("bad stream event %q: %v", ln, err)
		}
		sawPoint = sawPoint || ev.Point != nil
	}
	if !sawPoint {
		t.Fatalf("no sweep stream event carried a point index: %s", raw)
	}
	var last event
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
		t.Fatal(err)
	}
	if last.Event != "done" || !bytes.Equal(append(last.Data, '\n'), want) {
		t.Fatalf("sweep stream final event %q payload differs from plain body", last.Event)
	}
}

// TestSweepFreqDiffChain: a dense target_ghz sweep chains its later
// points through the synth-diff fork — the sweep counters and the
// "synthdiff" stream events prove it — while every point's bytes stay
// identical to the offline from-scratch path, cold and warm.
func TestSweepFreqDiffChain(t *testing.T) {
	s := newTestServer(t, Options{Scale: exp.Quick})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	checkOffline := func(req SweepRequest, got []byte) {
		t.Helper()
		specs, err := req.Points()
		if err != nil {
			t.Fatal(err)
		}
		offline := make([]json.RawMessage, len(specs))
		for i, sp := range specs {
			offline[i] = offlineBody(t, s, sp)
		}
		if want := wrapResults(t, offline); !bytes.Equal(got, want) {
			t.Fatalf("chained sweep differs from offline path:\n got %s\nwant %s", got, want)
		}
	}

	cold := SweepRequest{Base: baseSpec, Axis: "target_ghz", Values: []float64{1.4, 1.403, 1.406}}
	status, got := post(t, ts, "/v1/sweep", cold)
	if status != http.StatusOK {
		t.Fatalf("status %d: %s", status, got)
	}
	checkOffline(cold, got)

	st := getStats(t, ts)
	if st.Sweep.FullSynthForks != 1 {
		t.Fatalf("cold chain must run exactly one full leader, got %+v", st.Sweep)
	}
	if n := st.Sweep.DiffForks + st.Sweep.DiffFallbacks; n != 2 {
		t.Fatalf("cold chain must attempt 2 diff hops, got %d: %+v", n, st.Sweep)
	}
	if st.Sweep.DiffForks == 0 {
		t.Fatalf("no cold hop stayed on the diff path: %+v", st.Sweep)
	}

	// Warm daemon, fresh neighboring targets: the checkpoint cache feeds
	// the chain's first point, the second diff-forks it, and the stream
	// says so.
	warm := SweepRequest{Base: baseSpec, Axis: "target_ghz", Values: []float64{1.4015, 1.4045}}
	body, _ := json.Marshal(warm)
	resp, err := ts.Client().Post(ts.URL+"/v1/sweep?stream=1", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(raw)), "\n")
	var sawDiff bool
	for _, ln := range lines {
		var ev event
		if err := json.Unmarshal([]byte(ln), &ev); err != nil {
			t.Fatalf("bad stream event %q: %v", ln, err)
		}
		if ev.Event == "checkpoint" && ev.Kind == "synthdiff" && ev.Hit != nil && *ev.Hit {
			sawDiff = true
		}
	}
	var last event
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
		t.Fatal(err)
	}
	if last.Event != "done" {
		t.Fatalf("stream ended with %q: %s", last.Event, raw)
	}
	checkOffline(warm, append(last.Data, '\n'))
	if !sawDiff {
		t.Fatalf("warm sweep stream carried no taken synthdiff event:\n%s", raw)
	}
	wst := getStats(t, ts)
	if wst.Sweep.FullSynthForks != 2 {
		t.Fatalf("warm chain must add exactly one full leader, got %+v", wst.Sweep)
	}
	if wst.Sweep.DiffForks <= st.Sweep.DiffForks {
		t.Fatalf("warm sweep did not take the diff path: cold %+v warm %+v", st.Sweep, wst.Sweep)
	}
}

// TestConcurrentClientsShareCheckpoints: N clients firing the same sweep
// at once still build each checkpoint exactly once (misses stays 2, the
// rest coalesce or hit) and every client reads identical bytes.
func TestConcurrentClientsShareCheckpoints(t *testing.T) {
	s := newTestServer(t, Options{Scale: exp.Quick})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	req := SweepRequest{Base: baseSpec, Axis: "back_pins", Values: []float64{0.15, 0.45, 0.75}}
	const clients = 4
	bodies := make([][]byte, clients)
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			status, got := post(t, ts, "/v1/sweep", req)
			if status != http.StatusOK {
				t.Errorf("client %d: status %d: %s", i, status, got)
				return
			}
			bodies[i] = got
		}(i)
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}
	for i := 1; i < clients; i++ {
		if !bytes.Equal(bodies[i], bodies[0]) {
			t.Fatalf("client %d response differs from client 0:\n%s\nvs\n%s", i, bodies[i], bodies[0])
		}
	}
	st := getStats(t, ts)
	if st.Checkpoint.Misses != 2 {
		t.Fatalf("%d clients caused %d checkpoint builds, want 2: %+v", clients, st.Checkpoint.Misses, st.Checkpoint)
	}
	if st.Memo.Entries != len(req.Values) {
		t.Fatalf("memo entries = %d, want %d", st.Memo.Entries, len(req.Values))
	}
}

// TestEvictionUnderPressure: with a budget sized for roughly one sharing
// class, flows across three synth classes force evictions, the resident
// footprint never exceeds the budget, and an evicted class rebuilds
// correctly on re-request.
func TestEvictionUnderPressure(t *testing.T) {
	// Measure one class's retained footprint on an unconstrained server.
	probe := newTestServer(t, Options{Scale: exp.Quick})
	pts := httptest.NewServer(probe.Handler())
	status, got := post(t, pts, "/v1/flow", baseSpec)
	if status != http.StatusOK {
		t.Fatalf("probe flow: status %d: %s", status, got)
	}
	classBytes := getStats(t, pts).Checkpoint.ResidentBytes
	pts.Close()
	probe.Close()
	if classBytes <= 0 {
		t.Fatalf("probe resident bytes = %d", classBytes)
	}

	// Budget: one class plus 25% headroom — two classes cannot coexist.
	s := newTestServer(t, Options{Scale: exp.Quick, CacheBytes: classBytes + classBytes/4})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	targets := []float64{1.2, 1.5, 1.8} // distinct synth classes
	wants := make([][]byte, len(targets))
	for i, tg := range targets {
		sp := baseSpec
		sp.TargetGHz = tg
		wants[i] = wrapResult(t, offlineBody(t, s, sp))
		status, got := post(t, ts, "/v1/flow", sp)
		if status != http.StatusOK {
			t.Fatalf("target %.1f: status %d: %s", tg, status, got)
		}
		if !bytes.Equal(got, wants[i]) {
			t.Fatalf("target %.1f differs from offline path", tg)
		}
		if st := getStats(t, ts).Checkpoint; st.ResidentBytes > st.BudgetBytes {
			t.Fatalf("after target %.1f: resident %d > budget %d", tg, st.ResidentBytes, st.BudgetBytes)
		}
	}
	st := getStats(t, ts).Checkpoint
	if st.Evictions == 0 {
		t.Fatalf("three classes under a one-class budget caused no evictions: %+v", st)
	}

	// Re-request the first (long evicted) class with a fresh leaf config
	// so the memo can't answer: the checkpoints must rebuild cleanly.
	sp := baseSpec
	sp.TargetGHz = targets[0]
	sp.BackPins = 0.9
	want := wrapResult(t, offlineBody(t, s, sp))
	status, got = post(t, ts, "/v1/flow", sp)
	if status != http.StatusOK || !bytes.Equal(got, want) {
		t.Fatalf("rebuild after eviction: status %d\n got %s\nwant %s", status, got, want)
	}
	if st := getStats(t, ts).Checkpoint; st.ResidentBytes > st.BudgetBytes {
		t.Fatalf("after rebuild: resident %d > budget %d", st.ResidentBytes, st.BudgetBytes)
	}
}

// TestAdmissionAndDrain: requests past the queue bound are rejected with
// 429, a draining server answers 503, and freed slots admit again. Every
// refusal says what happened, never that a stage failed.
func TestAdmissionAndDrain(t *testing.T) {
	s := newTestServer(t, Options{Scale: exp.Quick, MaxWorkers: 1, MaxQueue: 1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// Occupy the only worker slot so real requests queue behind it. The
	// admission bound is MaxWorkers+MaxQueue = 2 waiters, so two blocked
	// clients fill it and a third must bounce.
	s.sem <- struct{}{}

	ctx, cancel := context.WithCancel(context.Background())
	const waiters = 2
	// A cancelled waiter either errors client-side or races the server's
	// 499 response; both count as a clean abandon.
	blocked := make(chan int, waiters)
	for i := 0; i < waiters; i++ {
		go func() {
			body, _ := json.Marshal(baseSpec)
			req, _ := http.NewRequestWithContext(ctx, "POST", ts.URL+"/v1/flow", bytes.NewReader(body))
			resp, err := ts.Client().Do(req)
			if err != nil {
				blocked <- -1
				return
			}
			resp.Body.Close()
			blocked <- resp.StatusCode
		}()
	}
	// Wait until both are actually queued.
	deadline := time.Now().Add(5 * time.Second)
	for s.queued.Load() < waiters {
		if time.Now().After(deadline) {
			t.Fatalf("only %d of %d requests queued", s.queued.Load(), waiters)
		}
		time.Sleep(5 * time.Millisecond)
	}

	// The next request exceeds MaxQueue+MaxWorkers and must bounce.
	status, got := post(t, ts, "/v1/flow", baseSpec)
	if status != http.StatusTooManyRequests {
		t.Fatalf("over-queue request: status %d: %s", status, got)
	}
	requireRefusal(t, "429 body", got, "busy")
	// A sweep point refused because other requests fill the queue says
	// so too, inside the sweep's 200 response.
	status, got = post(t, ts, "/v1/sweep", SweepRequest{Base: baseSpec, Axis: "back_pins", Values: []float64{0.5}})
	var sw struct {
		Results []json.RawMessage `json:"results"`
	}
	if err := json.Unmarshal(got, &sw); status != http.StatusOK || err != nil || len(sw.Results) != 1 {
		t.Fatalf("over-queue sweep: status %d: %s (%v)", status, got, err)
	}
	requireRefusal(t, "refused sweep point", sw.Results[0], "busy")

	// Abandon the queued clients and free the worker slot.
	cancel()
	for i := 0; i < waiters; i++ {
		if code := <-blocked; code != -1 && code != 499 {
			t.Errorf("cancelled queued request finished with status %d", code)
		}
	}
	<-s.sem

	s.StartDrain()
	status, got = post(t, ts, "/v1/flow", baseSpec)
	if status != http.StatusServiceUnavailable {
		t.Fatalf("draining request: status %d: %s", status, got)
	}
	requireRefusal(t, "503 body", got, "draining")
	s.draining.Store(false)

	want := wrapResult(t, offlineBody(t, s, baseSpec))
	status, got = post(t, ts, "/v1/flow", baseSpec)
	if status != http.StatusOK || !bytes.Equal(got, want) {
		t.Fatalf("post-drain request: status %d\n got %s\nwant %s", status, got, want)
	}
}

// requireErrorKind asserts that body is an {"error": ErrorBody} of the
// given kind and returns its message.
func requireErrorKind(t *testing.T, tag string, body []byte, kind string) string {
	t.Helper()
	var eb struct {
		Error ErrorBody `json:"error"`
	}
	if err := json.Unmarshal(body, &eb); err != nil || eb.Error.Kind != kind {
		t.Errorf("%s: want an error of kind %q, got %s (%v)", tag, kind, body, err)
	}
	return eb.Error.Message
}

// requireRefusal asserts that body is an admission refusal of the given
// kind whose message does not claim that a stage failed: none ran.
func requireRefusal(t *testing.T, tag string, body []byte, kind string) {
	t.Helper()
	if msg := requireErrorKind(t, tag, body, kind); strings.Contains(msg, "stage failed") {
		t.Errorf("%s: refusal message %q claims a stage failed", tag, msg)
	}
}

// TestInvalidRequests: malformed specs and configs core would refuse are
// 400 invalid-config before any flow work is admitted.
func TestInvalidRequests(t *testing.T) {
	s := newTestServer(t, Options{Scale: exp.Quick})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	cases := []struct {
		path string
		body string
	}{
		{"/v1/flow", `{"front":4,"target_ghz":0,"util":0.7}`},
		{"/v1/flow", `{"front":4,"target_ghz":1.4,"util":0.7,"arch":"GAA"}`},
		{"/v1/flow", `{"front":4,"target_ghz":1.4,"util":0.7,"bogus":1}`},
		{"/v1/flow", `{"front":4,"back":4,"target_ghz":1.4,"util":1.5}`},
		{"/v1/flow", `{"front":4,"back":4,"target_ghz":1.4,"util":0.7,"back_pins":1.5}`},
		{"/v1/flow", `{"front":4,"back":4,"target_ghz":1.4,"util":0.7,"back_pins":-0.2}`},
		// Patterns and pin assignments no flow can take.
		{"/v1/flow", `{"front":99,"target_ghz":1.4,"util":0.7}`},
		{"/v1/flow", `{"arch":"CFET","front":4,"back":4,"target_ghz":1.4,"util":0.7}`},
		{"/v1/flow", `{"front":4,"target_ghz":1.4,"util":0.7,"back_pins":0.3}`},
		// Only an absent (zero) aspect or DRV budget takes the default.
		{"/v1/flow", `{"front":4,"back":4,"target_ghz":1.4,"util":0.72,"aspect":-2}`},
		{"/v1/flow", `{"front":4,"back":4,"target_ghz":1.4,"util":0.72,"max_drvs":-5}`},
		{"/v1/sweep", `{"base":{"front":4,"back":4,"target_ghz":1.4,"util":0.72},"axis":"aspect","values":[1,-1]}`},
		{"/v1/sweep", `{"base":{"front":4,"target_ghz":1.4,"util":0.7},"axis":"back_pins","values":[0,0.3]}`},
		// Values the wire form would silently change: a seed is truncated
		// to an int64, and 0 is the absent seed or aspect (the default).
		{"/v1/sweep", `{"base":{"front":4,"back":4,"target_ghz":1.4,"util":0.72},"axis":"seed","values":[1.5,2]}`},
		{"/v1/sweep", `{"base":{"front":4,"back":4,"target_ghz":1.4,"util":0.72},"axis":"seed","values":[1e19]}`},
		{"/v1/sweep", `{"base":{"front":4,"back":4,"target_ghz":1.4,"util":0.72},"axis":"seed","values":[2,0]}`},
		{"/v1/sweep", `{"base":{"front":4,"back":4,"target_ghz":1.4,"util":0.72},"axis":"aspect","values":[0,1]}`},
		{"/v1/mc", `{"base":{"arch":"CFET","front":4,"back":4,"target_ghz":1.4,"util":0.7}}`},
		{"/v1/sweep", `{"base":{"front":4,"target_ghz":1.4,"util":0.7},"axis":"nm","values":[1]}`},
		{"/v1/sweep", `{"base":{"front":4,"target_ghz":1.4,"util":0.7},"axis":"util","values":[]}`},
		{"/v1/mc", `{"base":{"front":4,"back":4,"target_ghz":1.4,"util":0.7},"samples":100000000}`},
		{"/v1/mc", `{"base":{"front":4,"back":4,"target_ghz":1.4,"util":0.7},"samples":-5}`},
		{"/v1/mc", `{"base":{"front":4,"back":4,"target_ghz":1.4,"util":0.7},"sigma_nm":-1}`},
		// A valid spec behind more than a MiB of whitespace.
		{"/v1/flow", "{" + strings.Repeat(" ", 1<<20) + `"front":4,"back":4,"target_ghz":1.4,"util":0.7}`},
	}
	for _, tc := range cases {
		before := getStats(t, ts).Requests.Accepted
		resp, err := ts.Client().Post(ts.URL+tc.path, "application/json", strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		got, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		req := strings.Join(strings.Fields(tc.body), " ")
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s %s: status %d, want 400: %s", tc.path, req, resp.StatusCode, got)
		}
		if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
			t.Errorf("%s %s: Content-Type %q, want application/json", tc.path, req, ct)
		}
		requireErrorKind(t, tc.path+" "+req, got, "invalid-config")
		if st := getStats(t, ts); st.Requests.Accepted != before {
			t.Errorf("%s %s was admitted: %+v", tc.path, req, st.Requests)
		}
	}
}

// TestSweepAdmissionBound: every sweep point is a unit of admitted work,
// all spawned at once, so a sweep with more values than MaxQueue +
// MaxWorkers is refused up front instead of refusing its own points; a
// sweep at the bound answers every point.
func TestSweepAdmissionBound(t *testing.T) {
	s := newTestServer(t, Options{Scale: exp.Quick, MaxWorkers: 1, MaxQueue: 2})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	wide := SweepRequest{Base: baseSpec, Axis: "back_pins", Values: []float64{0.2, 0.4, 0.6, 0.8}}
	status, got := post(t, ts, "/v1/sweep", wide)
	if status != http.StatusBadRequest {
		t.Fatalf("4-value sweep at bound 3: status %d, want 400: %s", status, got)
	}
	requireErrorKind(t, "4-value sweep", got, "invalid-config")
	if st := getStats(t, ts); st.Requests.Accepted != 0 {
		t.Fatalf("over-bound sweep was admitted: %+v", st.Requests)
	}

	wide.Values = wide.Values[:3]
	status, got = post(t, ts, "/v1/sweep", wide)
	var sw struct {
		Results []json.RawMessage `json:"results"`
	}
	if err := json.Unmarshal(got, &sw); status != http.StatusOK || err != nil || len(sw.Results) != 3 {
		t.Fatalf("3-value sweep at bound 3: status %d: %s (%v)", status, got, err)
	}
	for i, r := range sw.Results {
		if bytes.Contains(r, []byte(`"error"`)) {
			t.Errorf("point %d refused: %s", i, r)
		}
	}
}

// TestSweepSpecs: the sweep checks the daemon and ffetd -oneshot share
// refuse what the daemon answers 400 before admission — a sweep wider
// than MaxQueue + MaxWorkers after defaults, an unknown axis, a point
// core refuses — and map a valid sweep onto one validated spec per value.
func TestSweepSpecs(t *testing.T) {
	suite, err := exp.NewSuite(exp.Quick)
	if err != nil {
		t.Fatal(err)
	}
	small := Options{MaxWorkers: 1, MaxQueue: 2}
	sweep := SweepRequest{Base: baseSpec, Axis: "back_pins", Values: []float64{0.2, 0.4, 0.6}}

	specs, err := sweep.Specs(suite, small)
	if err != nil || len(specs) != 3 {
		t.Fatalf("3-value sweep at bound 3: %d specs, %v", len(specs), err)
	}
	for i, sp := range specs {
		pt := baseSpec
		pt.BackPins = sweep.Values[i]
		if arch, cfg, _ := pt.Config(); sp != (exp.Spec{Arch: arch, Cfg: cfg}) {
			t.Errorf("point %d: spec %+v, want %v %+v", i, sp, arch, cfg)
		}
	}

	wide := sweep
	wide.Values = []float64{0.2, 0.4, 0.6, 0.8}
	if _, err := wide.Specs(suite, small); err == nil || !strings.Contains(err.Error(), "more than the 3 units") {
		t.Errorf("4-value sweep at bound 3: err %v", err)
	}
	// Zero options take the daemon defaults: MaxQueue 64 plus
	// min(GOMAXPROCS, 12) workers.
	bound := 64 + min(runtime.GOMAXPROCS(0), 12)
	wide.Values = make([]float64, bound+1)
	if _, err := wide.Specs(suite, Options{}); err == nil {
		t.Errorf("%d-value sweep at the default bound %d accepted", bound+1, bound)
	}

	bad := sweep
	bad.Axis = "nm"
	if _, err := bad.Specs(suite, small); err == nil {
		t.Error("unknown axis accepted")
	}
	bad = sweep
	bad.Base.Back = 0 // back pins without back layers
	if _, err := bad.Specs(suite, small); !errors.Is(err, core.ErrInvalidConfig) {
		t.Errorf("sweep of points without back layers: err %v, want ErrInvalidConfig", err)
	}
}

// TestCancelDisconnectStress hammers the daemon with clients that vanish
// at varied points of the flow — while queued, mid-build, mid-tail — and
// asserts the server stays coherent: later requests still produce
// offline-identical bytes, the cache respects its budget, and no
// goroutines are left behind. Run with -race.
func TestCancelDisconnectStress(t *testing.T) {
	base := runtime.NumGoroutine()
	s := newTestServer(t, Options{Scale: exp.Quick, MaxWorkers: 3, MaxQueue: 32})
	ts := httptest.NewServer(s.Handler())

	iters := 28
	if testing.Short() {
		iters = 10
	}
	var wg sync.WaitGroup
	for i := 0; i < iters; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			// Deterministically varied deadlines: some die while queued,
			// some mid-stage, some finish.
			timeout := time.Duration(5+i*17%140) * time.Millisecond
			ctx, cancel := context.WithTimeout(context.Background(), timeout)
			defer cancel()
			sp := baseSpec
			sp.BackPins = float64(i%5) * 0.2
			body, _ := json.Marshal(sp)
			req, err := http.NewRequestWithContext(ctx, "POST", ts.URL+"/v1/flow", bytes.NewReader(body))
			if err != nil {
				t.Error(err)
				return
			}
			resp, err := ts.Client().Do(req)
			if err != nil {
				return // client-side cancellation: expected
			}
			defer resp.Body.Close()
			got, _ := io.ReadAll(resp.Body)
			switch resp.StatusCode {
			case http.StatusOK:
			case 499:
				var eb struct {
					Error ErrorBody `json:"error"`
				}
				if err := json.Unmarshal(got, &eb); err != nil || eb.Error.Kind != "cancelled" {
					t.Errorf("499 body not a cancelled error: %s", got)
				}
			default:
				t.Errorf("iter %d: unexpected status %d: %s", i, resp.StatusCode, got)
			}
		}(i)
	}
	wg.Wait()

	// The daemon must still serve correct bytes after the carnage.
	sp := baseSpec
	sp.BackPins = 0.6
	want := wrapResult(t, offlineBody(t, s, sp))
	status, got := post(t, ts, "/v1/flow", sp)
	if status != http.StatusOK || !bytes.Equal(got, want) {
		t.Fatalf("post-stress request: status %d\n got %s\nwant %s", status, got, want)
	}
	st := getStats(t, ts)
	if st.Checkpoint.ResidentBytes > st.Checkpoint.BudgetBytes {
		t.Fatalf("resident %d > budget %d", st.Checkpoint.ResidentBytes, st.Checkpoint.BudgetBytes)
	}
	if st.Requests.Inflight != 0 || st.Requests.Queued != 0 {
		t.Fatalf("leftover inflight/queued work: %+v", st.Requests)
	}

	ts.Close()
	s.Close()
	checkGoroutines(t, base)
}

// TestCancelledPrefixBuilderKeepsStoreWarm: a prefix build that waits on
// another request's pending synth root keeps waiting when its own client
// vanishes, so a live client coalesced on that prefix still gets its
// result and the prefix stays stored. Request C builds the root of one
// synthesis class, held at the exp.synthroot site; request A, of another
// prefix class with the same synthesis class, starts that prefix's build
// and coalesces onto C's root; request B coalesces onto A's prefix; then
// A's client disconnects.
func TestCancelledPrefixBuilderKeepsStoreWarm(t *testing.T) {
	s := newTestServer(t, Options{Scale: exp.Quick, MaxWorkers: 4})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	entered, held := make(chan struct{}), make(chan struct{})
	var hold, unhold sync.Once
	unblock := func() { unhold.Do(func() { close(held) }) }
	defer unblock() // before ts.Close, which waits for the handlers
	defer faultinject.Activate(faultinject.New(1,
		faultinject.WithSites("exp.synthroot"), faultinject.WithRate(1),
		faultinject.WithKinds(faultinject.Cancel),
		faultinject.WithCancelFunc(func() {
			hold.Do(func() {
				close(entered)
				<-held
			})
		})))()

	type reply struct {
		status int
		body   []byte
		err    error
	}
	send := func(ctx context.Context, sp FlowSpec) chan reply {
		ch := make(chan reply, 1)
		go func() {
			body, _ := json.Marshal(sp)
			req, err := http.NewRequestWithContext(ctx, "POST", ts.URL+"/v1/flow", bytes.NewReader(body))
			if err != nil {
				ch <- reply{err: err}
				return
			}
			resp, err := ts.Client().Do(req)
			if err != nil {
				ch <- reply{err: err}
				return
			}
			defer resp.Body.Close()
			got, err := io.ReadAll(resp.Body)
			ch <- reply{resp.StatusCode, got, err}
		}()
		return ch
	}
	await := func(what string, ok func() bool) {
		t.Helper()
		for deadline := time.Now().Add(time.Minute); !ok(); time.Sleep(5 * time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatalf("timed out waiting for %s: %+v", what, getStats(t, ts).Checkpoint)
			}
		}
	}
	coalesced := func(n int64) func() bool {
		return func() bool { return getStats(t, ts).Checkpoint.Coalesced >= n }
	}

	cSpec, aSpec, bSpec := baseSpec, baseSpec, baseSpec
	cSpec.Util = 0.76
	bSpec.BackPins = 0.6
	cDone := send(context.Background(), cSpec)
	await("the held root build", func() bool {
		select {
		case <-entered:
			return true
		default:
			return false
		}
	})
	aCtx, aCancel := context.WithCancel(context.Background())
	defer aCancel()
	aDone := send(aCtx, aSpec)
	await("A to wait on C's root", coalesced(1))
	bDone := send(context.Background(), bSpec)
	await("B to wait on A's prefix", coalesced(2))

	aCancel()
	if r := <-aDone; r.err == nil {
		t.Fatalf("cancelled client got a response: %d %s", r.status, r.body)
	}
	select {
	case r := <-bDone:
		t.Fatalf("live client answered while the root was still held: %d %s", r.status, r.body)
	case <-time.After(300 * time.Millisecond):
	}
	unblock()

	for _, c := range []struct {
		sp   FlowSpec
		done chan reply
	}{{bSpec, bDone}, {cSpec, cDone}} {
		r := <-c.done
		if r.err != nil {
			t.Fatal(r.err)
		}
		if want := wrapResult(t, offlineBody(t, s, c.sp)); r.status != http.StatusOK || !bytes.Equal(r.body, want) {
			t.Fatalf("status %d\n got %s\nwant %s", r.status, r.body, want)
		}
	}
	// Root, C's prefix and A's prefix: the vanished client's build finished.
	if ck := getStats(t, ts).Checkpoint; ck.Misses != 3 || ck.Entries != 3 {
		t.Fatalf("checkpoint misses %d, entries %d, want 3 and 3: %+v", ck.Misses, ck.Entries, ck)
	}
}

// checkGoroutines waits for the goroutine count to settle back near base.
func checkGoroutines(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		runtime.GC()
		n := runtime.NumGoroutine()
		if n <= base+3 {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			t.Fatalf("goroutine leak: %d live, started with %d\n%s",
				n, base, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(50 * time.Millisecond)
	}
}

// TestMCEndpoint: /v1/mc through the daemon matches the offline basis +
// variation.Study path byte for byte (summaries are worker-count
// independent by the variation package's contract), and a cold MC stream
// reports the executor's synth-root and prefix builds, in that order.
func TestMCEndpoint(t *testing.T) {
	s := newTestServer(t, Options{Scale: exp.Quick})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	req := MCRequest{Base: baseSpec, Samples: 256, Seed: 7}
	body, _ := json.Marshal(req)
	resp, err := ts.Client().Post(ts.URL+"/v1/mc?stream=1", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(raw)), "\n")
	var checkpoints []string
	var last event
	for _, ln := range lines {
		var ev event
		if err := json.Unmarshal([]byte(ln), &ev); err != nil {
			t.Fatalf("bad stream event %q: %v", ln, err)
		}
		if ev.Event == "checkpoint" {
			checkpoints = append(checkpoints, ev.Kind)
		}
		last = ev
	}
	if want := []string{"synth", "prefix"}; strings.Join(checkpoints, ",") != strings.Join(want, ",") {
		t.Fatalf("cold mc stream checkpoints %v, want %v:\n%s", checkpoints, want, raw)
	}
	if last.Event != "done" {
		t.Fatalf("mc stream ended with %q: %s", last.Event, raw)
	}
	streamed := append(last.Data, '\n')

	status, got := post(t, ts, "/v1/mc", req)
	if status != http.StatusOK {
		t.Fatalf("status %d: %s", status, got)
	}
	if !bytes.Equal(got, streamed) {
		t.Fatalf("warm mc body differs from the streamed one:\n got %s\nwant %s", got, streamed)
	}

	arch, cfg, err := req.Base.Config()
	if err != nil {
		t.Fatal(err)
	}
	f, err := core.NewFlow(s.suite.Netlist(arch), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.RunCtx(context.Background()); err != nil {
		t.Fatal(err)
	}
	basis, err := f.VariationBasis()
	if err != nil {
		t.Fatal(err)
	}
	opt := variation.DefaultOptions()
	opt.Samples = req.Samples
	opt.Seed = req.Seed
	sum, err := variation.Study(context.Background(), basis, opt)
	if err != nil {
		t.Fatal(err)
	}
	want, err := json.Marshal(struct {
		MC MCSummary `json:"mc"`
	}{NewMCSummary(sum)})
	if err != nil {
		t.Fatal(err)
	}
	want = append(want, '\n')
	if !bytes.Equal(got, want) {
		t.Fatalf("mc response differs from offline path:\n got %s\nwant %s", got, want)
	}
}

// TestExpEndpoint: /v1/exp serves an experiment table, and the stats
// endpoint's sweep section counts the table's executor calls.
func TestExpEndpoint(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment tables are slow; skipped under -short")
	}
	s := newTestServer(t, Options{Scale: exp.Quick})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp, err := ts.Client().Get(ts.URL + "/v1/exp?id=fig04")
	if err != nil {
		t.Fatal(err)
	}
	got, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, got)
	}
	var out struct {
		Table *exp.Table `json:"table"`
		Err   string     `json:"error"`
	}
	if err := json.Unmarshal(got, &out); err != nil {
		t.Fatal(err)
	}
	if out.Table == nil || out.Err != "" || len(out.Table.Rows) == 0 {
		t.Fatalf("bad table payload: %s", got)
	}

	// fig04 is a cell-area table (no flows); a sweep experiment must leave
	// synth-root traffic in the suite counters /debug/stats republishes.
	resp, err = ts.Client().Get(ts.URL + "/v1/exp?id=fig08a")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("fig08a: status %d", resp.StatusCode)
	}
	if st := getStats(t, ts); st.Sweep.SynthRootMisses == 0 {
		t.Fatalf("table synth-root counters not published: %+v", st.Sweep)
	}

	resp, err = ts.Client().Get(ts.URL + "/v1/exp?id=nope")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("unknown id: status %d", resp.StatusCode)
	}
}

// TestFlowAnswersFromTableMemo: tables and flow requests share one result
// memo, so a /v1/flow of a point a /v1/exp table already ran answers from
// it: offline-identical bytes under the requested spec's name, one memo
// hit, and no checkpoint built.
func TestFlowAnswersFromTableMemo(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment tables are slow; skipped under -short")
	}
	s := newTestServer(t, Options{Scale: exp.Quick})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp, err := ts.Client().Get(ts.URL + "/v1/exp?id=fig13")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("fig13: status %d", resp.StatusCode)
	}

	// fig13's 12-layer point.
	sp := FlowSpec{Front: 12, Back: 12, TargetGHz: 1.5, Util: 0.76, BackPins: 0.5}
	want := wrapResult(t, offlineBody(t, s, sp))
	before := getStats(t, ts)
	status, got := post(t, ts, "/v1/flow", sp)
	if status != http.StatusOK || !bytes.Equal(got, want) {
		t.Fatalf("flow after fig13: status %d\n got %s\nwant %s", status, got, want)
	}
	after := getStats(t, ts)
	if after.Memo.Hits != before.Memo.Hits+1 {
		t.Errorf("memo hits %d -> %d, want +1", before.Memo.Hits, after.Memo.Hits)
	}
	if after.Checkpoint.Misses != before.Checkpoint.Misses {
		t.Errorf("checkpoint misses %d -> %d, want unchanged", before.Checkpoint.Misses, after.Checkpoint.Misses)
	}
}
