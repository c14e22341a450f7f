package serve

import (
	"container/list"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/exp"
	"repro/internal/faultinject"
	"repro/internal/variation"
)

// Options configures a Server. Zero values take the documented defaults.
type Options struct {
	// Scale selects the benchmark workload size (exp.Quick or exp.Full).
	Scale exp.Scale
	// CacheBytes bounds the checkpoint store's measured resident
	// footprint (default 256 MiB).
	CacheBytes int64
	// MaxWorkers bounds concurrent flow executions (default
	// min(GOMAXPROCS, 12), matching exp's pool).
	MaxWorkers int
	// MaxQueue bounds admitted requests waiting for a worker slot beyond
	// the in-flight ones; past it requests are rejected with 429
	// (default 64).
	MaxQueue int
	// MemoEntries bounds the exact-config result memo: past it the
	// least-recently-used marshaled Summary is evicted (default 4096).
	MemoEntries int
}

func (o Options) withDefaults() Options {
	if o.CacheBytes <= 0 {
		o.CacheBytes = 256 << 20
	}
	if o.MaxWorkers <= 0 {
		o.MaxWorkers = min(runtime.GOMAXPROCS(0), 12)
	}
	if o.MaxQueue <= 0 {
		o.MaxQueue = 64
	}
	if o.MemoEntries <= 0 {
		o.MemoEntries = 4096
	}
	return o
}

// Server is the ffetd daemon state: the exp suite (libraries, netlists,
// the experiment tables and their result memo), the checkpoint store
// every flow, sweep and MC request's executor call builds through, the
// marshaled-result memo, and the admission pool. Create with New, mount
// Handler on an http.Server, and Close on shutdown.
type Server struct {
	opt   Options
	suite *exp.Suite
	// suiteMu serializes /v1/exp table runs: the suite's sweeps already
	// parallelize internally, so concurrent tables would only fight over
	// the pool.
	suiteMu sync.Mutex
	store   *exp.Store

	// mu guards the memo and the summed executor reports. The memo holds
	// the marshaled Summary of completed exact-config runs, keyed by
	// exp.MemoKey and bounded by an entry-count LRU
	// (Options.MemoEntries) — bodies are a few hundred bytes, so a count
	// bound suffices where the checkpoint store needs measured bytes.
	// Error responses are never memoized.
	mu        sync.Mutex
	memo      map[exp.RunKey]*list.Element
	memoLRU   list.List // Front = most recent; values are memoEntry
	memoStats memoStats // Entries and MaxEntries unset
	sweep     exp.Report

	// baseCtx bounds every checkpoint build and outlives any single
	// request; Close cancels it, killing in-flight work.
	baseCtx    context.Context
	baseCancel context.CancelFunc

	sem      chan struct{}
	queued   atomic.Int64
	draining atomic.Bool

	accepted, rejected atomic.Int64
	inflight           atomic.Int64
}

// New builds a daemon: libraries and benchmark netlists for both
// architectures plus an empty checkpoint store.
func New(opt Options) (*Server, error) {
	opt = opt.withDefaults()
	suite, err := exp.NewSuite(opt.Scale)
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	suite.Ctx = ctx
	return &Server{
		opt:        opt,
		suite:      suite,
		store:      exp.NewStore(ctx, opt.CacheBytes),
		memo:       make(map[exp.RunKey]*list.Element),
		baseCtx:    ctx,
		baseCancel: cancel,
		sem:        make(chan struct{}, opt.MaxWorkers),
	}, nil
}

// StartDrain rejects new requests with 503 while in-flight ones finish.
// The HTTP layer's Shutdown does the actual waiting.
func (s *Server) StartDrain() { s.draining.Store(true) }

// Close cancels the base context: every in-flight build and leaf run
// dies with ErrCancelled at its next stage boundary.
func (s *Server) Close() { s.baseCancel() }

// Handler returns the daemon's HTTP surface.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/flow", s.handleFlow)
	mux.HandleFunc("POST /v1/sweep", s.handleSweep)
	mux.HandleFunc("POST /v1/mc", s.handleMC)
	mux.HandleFunc("GET /v1/exp", s.handleExp)
	mux.HandleFunc("GET /debug/stats", s.handleStats)
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte("ok\n"))
	})
	return mux
}

// Errors the admission gate reports.
var (
	errBusy     = errors.New("serve: request queue full")
	errDraining = errors.New("serve: draining")
)

// admit admits one unit of flow work into the worker pool, waiting for a
// slot under the request context, and returns the slot's release. It
// fails fast when the queue bound is exceeded or the daemon is draining.
func (s *Server) admit(ctx context.Context) (release func(), err error) {
	defer func() {
		if err != nil {
			s.rejected.Add(1)
		}
	}()
	if err := faultinject.Fire("serve.admit"); err != nil {
		return nil, err
	}
	if s.draining.Load() {
		return nil, errDraining
	}
	if int(s.queued.Add(1)) > s.opt.MaxQueue+s.opt.MaxWorkers {
		s.queued.Add(-1)
		return nil, errBusy
	}
	defer s.queued.Add(-1)
	select {
	case s.sem <- struct{}{}:
	case <-ctx.Done():
		return nil, ctx.Err()
	case <-s.baseCtx.Done():
		return nil, errDraining
	}
	s.accepted.Add(1)
	s.inflight.Add(1)
	return func() {
		s.inflight.Add(-1)
		<-s.sem
	}, nil
}

// reqCtx derives the context one request's flow work runs under: the
// request context (client disconnect cancels it) joined with the daemon
// base context (Close cancels everything).
func (s *Server) reqCtx(r *http.Request) (context.Context, context.CancelFunc) {
	ctx, cancel := context.WithCancel(r.Context())
	stop := context.AfterFunc(s.baseCtx, cancel)
	return ctx, func() { stop(); cancel() }
}

// outcome is one spec's answer: a marshaled Summary, or the error that
// killed it with the session as far as it got.
type outcome struct {
	body    json.RawMessage
	err     error
	partial *core.Flow
}

// run answers specs from the result memo and the rest through one
// executor call, memoizing what it computes. admit gates each unit of
// executor work (nil when the caller already holds a worker slot); a
// sweep tags progress with the spec index and streams a "point" event
// per answered spec.
func (s *Server) run(ctx context.Context, specs []exp.Spec, admit func() (func(), error), st *streamer, sweep bool) []outcome {
	out := make([]outcome, len(specs))
	answer := func(i int, o outcome) {
		out[i] = o
		if sweep && o.err == nil {
			st.emit(event{Event: "point", Point: &i, Data: o.body})
		}
	}
	plan := exp.PlanSweep(specs, func(i int) bool {
		if err := faultinject.Fire("serve.memo"); err != nil {
			out[i] = outcome{err: err}
			return true
		}
		body := s.memoGet(exp.MemoKey(specs[i].Arch, specs[i].Cfg))
		if body == nil {
			return false
		}
		hit := true
		st.emit(event{Event: "checkpoint", Point: pointTag(sweep, i), Kind: "memo", Hit: &hit})
		answer(i, outcome{body: body})
		return true
	})
	s.execute(ctx, plan, admit, st, sweep, func(p int, res *core.FlowResult, f *core.Flow, err error) {
		o := outcome{err: err}
		if err != nil {
			o.partial = f
		} else if o.body, o.err = json.Marshal(NewSummary(res)); o.err == nil {
			pt := plan.Points[p].Spec
			s.memoPut(exp.MemoKey(pt.Arch, pt.Cfg), o.body)
		}
		for _, i := range plan.Points[p].Idxs {
			answer(i, o)
		}
	})
	return out
}

// execute runs plan through the suite's executor over the checkpoint
// store, streams its progress tagged with each plan point's first spec,
// and adds its report to the daemon's sweep statistics.
func (s *Server) execute(ctx context.Context, plan *exp.Plan, admit func() (func(), error), st *streamer, sweep bool, done func(int, *core.FlowResult, *core.Flow, error)) {
	rep := s.suite.Execute(plan, exp.Exec{Ctx: ctx, Store: s.store, Admit: admit, Done: done,
		Emit: func(p int, ev exp.Event) {
			pt := pointTag(sweep, plan.Points[p].Idxs[0])
			if ev.Checkpoint != "" {
				st.emit(event{Event: "checkpoint", Point: pt, Kind: ev.Checkpoint, Hit: &ev.Hit})
				return
			}
			st.emit(event{Event: "stage", Point: pt, Stage: ev.Stage.String(),
				Ms: float64(ev.Dur) / float64(time.Millisecond)})
		},
	})
	s.mu.Lock()
	s.sweep.Add(rep)
	s.mu.Unlock()
}

// pointTag is the point field of a progress event: the spec index for
// sweeps, omitted from single-flow and MC streams.
func pointTag(sweep bool, i int) *int {
	if !sweep {
		return nil
	}
	return &i
}

// memoEntry is one LRU-listed memo record.
type memoEntry struct {
	key  exp.RunKey
	body json.RawMessage
}

func (s *Server) memoGet(key exp.RunKey) json.RawMessage {
	s.mu.Lock()
	defer s.mu.Unlock()
	el, ok := s.memo[key]
	if !ok {
		s.memoStats.Misses++
		return nil
	}
	s.memoStats.Hits++
	s.memoLRU.MoveToFront(el)
	return el.Value.(memoEntry).body
}

func (s *Server) memoPut(key exp.RunKey, body json.RawMessage) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.memo[key]; ok {
		return
	}
	s.memo[key] = s.memoLRU.PushFront(memoEntry{key: key, body: body})
	for len(s.memo) > s.opt.MemoEntries {
		back := s.memoLRU.Back()
		delete(s.memo, back.Value.(memoEntry).key)
		s.memoLRU.Remove(back)
		s.memoStats.Evictions++
	}
}

// streamer serializes NDJSON event lines onto one response. A nil
// streamer discards events (non-streaming requests).
type streamer struct {
	mu sync.Mutex
	w  http.ResponseWriter
	fl http.Flusher
}

func newStreamer(w http.ResponseWriter, r *http.Request) *streamer {
	if r.URL.Query().Get("stream") == "" {
		return nil
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	fl, _ := w.(http.Flusher)
	return &streamer{w: w, fl: fl}
}

func (st *streamer) emit(ev event) {
	if st == nil {
		return
	}
	line, err := json.Marshal(ev)
	if err != nil {
		return
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	st.w.Write(append(line, '\n'))
	if st.fl != nil {
		st.fl.Flush()
	}
}

// writeBody terminates a request: streaming responses get the final body
// as a "done" event line, plain responses get it as the entire payload.
// The body bytes are identical either way.
func (st *streamer) writeBody(w http.ResponseWriter, body []byte) {
	if st != nil {
		st.emit(event{Event: "done", Data: body})
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(append(body, '\n'))
}

// fail terminates a request with err classified onto a status + JSON
// error body, attaching partial's stage timings. Once a stream has
// started the status line is gone; the error becomes a terminal event
// instead.
func (st *streamer) fail(w http.ResponseWriter, name string, err error, partial *core.Flow) {
	body := newErrorBody(name, err, partial)
	if st != nil {
		st.emit(event{Event: "error", Error: body})
		return
	}
	writeError(w, errStatus(err), body)
}

// writeError writes a plain (non-streamed) error response.
func writeError(w http.ResponseWriter, status int, body *ErrorBody) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	b, _ := json.Marshal(struct {
		Error *ErrorBody `json:"error"`
	}{body})
	w.Write(append(b, '\n'))
}

// containPanic converts a panicking request path into a classified 500
// error response: an injected or organic panic kills the request, never
// the daemon. Deferred before admission so even admission-gate panics
// (faultinject's serve.admit site) are contained.
func containPanic(st *streamer, w http.ResponseWriter, name string) {
	if r := recover(); r != nil {
		st.fail(w, name, core.NewPanicError(name, r), nil)
	}
}

// errStatus maps an admission verdict or a flow error to its HTTP status.
func errStatus(err error) int {
	switch {
	case errors.Is(err, errBusy):
		return http.StatusTooManyRequests
	case errors.Is(err, errDraining):
		return http.StatusServiceUnavailable
	case errors.Is(err, core.ErrInvalidConfig):
		return http.StatusBadRequest
	case errors.Is(err, core.ErrCancelled), errors.Is(err, context.Canceled):
		return 499 // client closed request (or daemon shutdown)
	default:
		return http.StatusInternalServerError
	}
}

// maxBodyBytes bounds every request body.
const maxBodyBytes = 1 << 20

func decodeJSON(w http.ResponseWriter, r *http.Request, v any) bool {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		badRequest(w, "bad request body: "+err.Error())
		return false
	}
	return true
}

// badRequest answers 400 invalid-config before any flow work is admitted.
func badRequest(w http.ResponseWriter, msg string) {
	writeError(w, http.StatusBadRequest, &ErrorBody{Kind: exp.ErrClass(core.ErrInvalidConfig), Message: msg})
}

func (s *Server) handleFlow(w http.ResponseWriter, r *http.Request) {
	var spec FlowSpec
	if !decodeJSON(w, r, &spec) {
		return
	}
	s.serveOne(w, r, spec, func(ctx context.Context, st *streamer, sp exp.Spec) ([]byte, *core.Flow, error) {
		o := s.run(ctx, []exp.Spec{sp}, nil, st, false)[0]
		if o.err != nil {
			return nil, o.partial, o.err
		}
		resp, _ := json.Marshal(struct {
			Result json.RawMessage `json:"result"`
		}{o.body})
		return resp, nil, nil
	})
}

// serveOne answers a single-spec request: it maps spec, admits one unit
// of work under the request context, streams "accepted", and writes what
// answer returns — the response body, or an error with the session as
// far as it got.
func (s *Server) serveOne(w http.ResponseWriter, r *http.Request, spec FlowSpec, answer func(context.Context, *streamer, exp.Spec) ([]byte, *core.Flow, error)) {
	sp, err := spec.Spec(s.suite)
	if err != nil {
		badRequest(w, err.Error())
		return
	}
	st := newStreamer(w, r)
	defer containPanic(st, w, sp.Cfg.Name)
	ctx, cancel := s.reqCtx(r)
	defer cancel()
	release, err := s.admit(ctx)
	if err != nil {
		st.fail(w, sp.Cfg.Name, err, nil)
		return
	}
	defer release()
	st.emit(event{Event: "accepted"})

	body, partial, err := answer(ctx, st, sp)
	if err != nil {
		st.fail(w, sp.Cfg.Name, err, partial)
		return
	}
	st.writeBody(w, body)
}

func (s *Server) handleSweep(w http.ResponseWriter, r *http.Request) {
	var req SweepRequest
	if !decodeJSON(w, r, &req) {
		return
	}
	specs, err := req.Specs(s.suite, s.opt)
	if err != nil {
		badRequest(w, err.Error())
		return
	}
	st := newStreamer(w, r)
	// The executor contains per-point panics; this catches the outer
	// sweep path (planning, result assembly, marshal) so those too die as
	// a classified 500 instead of a dropped connection.
	defer containPanic(st, w, "sweep")
	ctx, cancel := s.reqCtx(r)
	defer cancel()
	st.emit(event{Event: "accepted"})

	// Every unit of executor work takes its own pool slot: a sweep is N
	// admissions, so a big sweep cannot starve single-flow clients for
	// its whole duration.
	out := s.run(ctx, specs, func() (func(), error) { return s.admit(ctx) }, st, true)
	results := make([]json.RawMessage, len(out))
	for i, o := range out {
		results[i] = o.body
		if o.err != nil {
			results[i], _ = json.Marshal(struct {
				Error *ErrorBody `json:"error"`
			}{newErrorBody(specs[i].Cfg.Name, o.err, o.partial)})
		}
	}
	resp, _ := json.Marshal(struct {
		Results []json.RawMessage `json:"results"`
	}{results})
	st.writeBody(w, resp)
}

// handleMC samples a variation study off the completed flow of the base
// spec. The flow runs through the same executor and checkpoint store as
// /v1/flow, so concurrent MC requests on one design share its prefix; the
// basis needs the live session (engine + RC), so this never reads the
// result memo.
func (s *Server) handleMC(w http.ResponseWriter, r *http.Request) {
	var req MCRequest
	if !decodeJSON(w, r, &req) {
		return
	}
	if err := req.Options().Validate(); err != nil {
		badRequest(w, err.Error())
		return
	}
	s.serveOne(w, r, req.Base, func(ctx context.Context, st *streamer, sp exp.Spec) ([]byte, *core.Flow, error) {
		var leaf *core.Flow
		var err error
		s.execute(ctx, exp.PlanSweep([]exp.Spec{sp}, nil), nil, st, false, func(_ int, _ *core.FlowResult, f *core.Flow, e error) {
			leaf, err = f, e
		})
		if err != nil {
			return nil, leaf, err
		}
		// A halted base reaches here as a completed session;
		// VariationBasis rejects the invalid flow cleanly.
		basis, err := leaf.VariationBasis()
		if err != nil {
			return nil, leaf, err
		}
		sum, err := variation.Study(ctx, basis, req.Options())
		if err != nil {
			return nil, leaf, err
		}
		body, _ := json.Marshal(struct {
			MC MCSummary `json:"mc"`
		}{NewMCSummary(sum)})
		return body, nil, nil
	})
}

// handleExp runs one experiment table (?id=fig09) through the embedded
// exp suite — the batch runner served over HTTP. Tables share the
// suite's result memo across requests but, like every batch sweep,
// neither read nor fill the checkpoint store; /debug/stats republishes
// the suite's counters.
func (s *Server) handleExp(w http.ResponseWriter, r *http.Request) {
	id := r.URL.Query().Get("id")
	run, ok := s.suite.Experiment(id)
	if !ok {
		badRequest(w, "unknown experiment id "+id)
		return
	}
	defer containPanic(nil, w, id)
	ctx, cancel := s.reqCtx(r)
	defer cancel()
	release, err := s.admit(ctx)
	if err != nil {
		(*streamer)(nil).fail(w, id, err, nil)
		return
	}
	defer release()

	s.suiteMu.Lock()
	table, err := run()
	s.suiteMu.Unlock()
	if err != nil && table == nil {
		(*streamer)(nil).fail(w, id, err, nil)
		return
	}
	var msg string
	if err != nil {
		msg = err.Error()
	}
	resp, _ := json.Marshal(struct {
		Table *exp.Table `json:"table"`
		Err   string     `json:"error,omitempty"`
	}{table, msg})
	w.Header().Set("Content-Type", "application/json")
	w.Write(append(resp, '\n'))
}

// Stats is the /debug/stats payload. Sweep sums the executor reports of
// every flow, sweep and MC request; Exp sums the suite's /v1/exp sweeps.
type Stats struct {
	Checkpoint exp.StoreStats `json:"checkpoint"`
	Memo       memoStats      `json:"memo"`
	Exp        exp.CacheStats `json:"exp"`
	Sweep      exp.Report     `json:"sweep"`
	Requests   reqStats       `json:"requests"`
}

type memoStats struct {
	Hits       int64 `json:"hits"`
	Misses     int64 `json:"misses"`
	Evictions  int64 `json:"evictions"`
	Entries    int   `json:"entries"`
	MaxEntries int   `json:"max_entries"`
}

type reqStats struct {
	Accepted int64 `json:"accepted"`
	Rejected int64 `json:"rejected"`
	Inflight int64 `json:"inflight"`
	Queued   int64 `json:"queued"`
	Draining bool  `json:"draining"`
}

// StatsSnapshot collects every cache and admission counter.
func (s *Server) StatsSnapshot() Stats {
	s.mu.Lock()
	memo, sweep := s.memoStats, s.sweep
	memo.Entries, memo.MaxEntries = len(s.memo), s.opt.MemoEntries
	s.mu.Unlock()
	return Stats{
		Checkpoint: s.store.Stats(),
		Memo:       memo,
		Exp:        s.suite.Stats(),
		Sweep:      sweep,
		Requests: reqStats{
			Accepted: s.accepted.Load(),
			Rejected: s.rejected.Load(),
			Inflight: s.inflight.Load(),
			Queued:   s.queued.Load(),
			Draining: s.draining.Load(),
		},
	}
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	body, _ := json.Marshal(s.StatsSnapshot())
	w.Header().Set("Content-Type", "application/json")
	w.Write(append(body, '\n'))
}
