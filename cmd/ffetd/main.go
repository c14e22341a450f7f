// Command ffetd serves the staged implementation flow over HTTP: single
// flows, sweeps and Monte Carlo variation studies, planned and executed
// like the batch tables, through the same exact-config result memo the
// /v1/exp tables fill, but with a cross-request checkpoint store,
// request coalescing and NDJSON progress streaming. SIGINT/SIGTERM drain
// in-flight work before exit; a second signal cancels it immediately
// (cancelled requests still report their partial stage timings in the
// error payload).
//
// -oneshot FILE bypasses the daemon entirely: the request JSON in FILE
// runs through the offline from-scratch path and the response body is
// printed to stdout — the reference the CI smoke test compares daemon
// responses against, byte for byte. It refuses what a daemon started with
// the same -workers and -queue would refuse before admission, such as a
// sweep with more values than the two admit at once.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"time"

	"repro/internal/cliutil"
	"repro/internal/core"
	"repro/internal/exp"
	"repro/internal/serve"
	"repro/internal/variation"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:8077", "listen address")
	scaleFlag := flag.String("scale", "quick", "workload scale: quick or full")
	cacheMB := flag.Int64("cache-mb", 256, "checkpoint store budget (MiB)")
	workers := flag.Int("workers", 0, "max concurrent flow executions (0 = min(GOMAXPROCS, 12))")
	queue := flag.Int("queue", 0, "admission queue bound beyond in-flight workers (0 = 64)")
	drain := flag.Duration("drain", 30*time.Second, "graceful drain timeout on SIGTERM")
	oneshot := flag.String("oneshot", "", "run the request JSON in FILE offline and print the response body")
	flag.Parse()

	scale, err := exp.ParseScale(*scaleFlag)
	if err != nil {
		cliutil.Fail("ffetd", err)
	}
	opt := serve.Options{
		Scale:      scale,
		CacheBytes: *cacheMB << 20,
		MaxWorkers: *workers,
		MaxQueue:   *queue,
	}
	if *oneshot != "" {
		if err := runOneshot(*oneshot, opt); err != nil {
			cliutil.Fail("ffetd", err)
		}
		return
	}

	s, err := serve.New(opt)
	if err != nil {
		cliutil.Fail("ffetd", err)
	}
	httpSrv := &http.Server{Addr: *addr, Handler: s.Handler()}

	ctx, stop := cliutil.SignalContext()
	defer stop()
	done := make(chan struct{})
	go func() {
		defer close(done)
		<-ctx.Done()
		// First signal: stop admitting, drain in-flight requests. stop()
		// restores default signal handling, so a second signal kills the
		// process outright.
		stop()
		log.Printf("ffetd: draining (timeout %s)", *drain)
		s.StartDrain()
		dctx, cancel := context.WithTimeout(context.Background(), *drain)
		defer cancel()
		if err := httpSrv.Shutdown(dctx); err != nil {
			// Drain timed out: cancel the base context so in-flight flows
			// die at their next stage boundary and report partial stage
			// timings, then give their handlers a moment to flush.
			log.Printf("ffetd: drain incomplete (%v), cancelling in-flight work", err)
			s.Close()
			fctx, fcancel := context.WithTimeout(context.Background(), 2*time.Second)
			defer fcancel()
			httpSrv.Shutdown(fctx)
		}
		s.Close()
	}()

	log.Printf("ffetd: listening on %s (scale=%s, cache=%dMiB)", *addr, *scaleFlag, *cacheMB)
	if err := httpSrv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
		cliutil.Fail("ffetd", err)
	}
	<-done
	log.Printf("ffetd: bye")
}

// oneshotRequest is the -oneshot input: exactly one of the fields set.
type oneshotRequest struct {
	Flow  *serve.FlowSpec     `json:"flow,omitempty"`
	Sweep *serve.SweepRequest `json:"sweep,omitempty"`
	MC    *serve.MCRequest    `json:"mc,omitempty"`
}

// runOneshot executes the request through the offline from-scratch path
// — core.RunFlowCtx per point, no sessions, no forking, no caches — and
// prints exactly the bytes a daemon under opt would respond with. This is
// the independent reference for the byte-identity smoke test: the two
// paths share only the request checks (FlowSpec.Spec, SweepRequest.Specs)
// and the Summary encoding.
func runOneshot(path string, opt serve.Options) error {
	raw, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var req oneshotRequest
	if err := json.Unmarshal(raw, &req); err != nil {
		return err
	}
	suite, err := exp.NewSuite(opt.Scale)
	if err != nil {
		return err
	}
	ctx, stop := cliutil.SignalContext()
	defer stop()

	runPoint := func(sp exp.Spec) (json.RawMessage, error) {
		res, err := core.RunFlowCtx(ctx, suite.Netlist(sp.Arch), sp.Cfg)
		if err != nil {
			return nil, err
		}
		return json.Marshal(serve.NewSummary(res))
	}

	var body []byte
	switch {
	case req.Flow != nil:
		sp, err := req.Flow.Spec(suite)
		if err != nil {
			return err
		}
		point, err := runPoint(sp)
		if err != nil {
			return err
		}
		body, err = json.Marshal(struct {
			Result json.RawMessage `json:"result"`
		}{point})
		if err != nil {
			return err
		}
	case req.Sweep != nil:
		specs, err := req.Sweep.Specs(suite, opt)
		if err != nil {
			return err
		}
		results := make([]json.RawMessage, len(specs))
		for i, sp := range specs {
			if results[i], err = runPoint(sp); err != nil {
				return err
			}
		}
		body, err = json.Marshal(struct {
			Results []json.RawMessage `json:"results"`
		}{results})
		if err != nil {
			return err
		}
	case req.MC != nil:
		sp, err := req.MC.Base.Spec(suite)
		if err != nil {
			return err
		}
		f, err := core.NewFlow(suite.Netlist(sp.Arch), sp.Cfg)
		if err != nil {
			return err
		}
		if _, err := f.RunCtx(ctx); err != nil {
			return err
		}
		basis, err := f.VariationBasis()
		if err != nil {
			return err
		}
		sum, err := variation.Study(ctx, basis, req.MC.Options())
		if err != nil {
			return err
		}
		body, err = json.Marshal(struct {
			MC serve.MCSummary `json:"mc"`
		}{serve.NewMCSummary(sum)})
		if err != nil {
			return err
		}
	default:
		return fmt.Errorf("oneshot request must set one of flow, sweep, mc")
	}
	fmt.Println(string(body))
	return nil
}
