package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"runtime"
	"testing"

	"repro/internal/exp"
	"repro/internal/faultinject"
)

// TestFaultSchedulesThroughHandlers drives seeded fault schedules —
// errors and panics at the serve admission site, the memo lookup and the
// executor's exp.* sites and inside every core stage — through live
// flow, sweep and MC handlers. For every seed:
// failures must surface as classified JSON error bodies (never an
// unclassified kind, never a daemon crash), and with the schedule
// deactivated the daemon must immediately serve offline-identical bytes
// again from a cache that still respects its budget. Run with -race.
func TestFaultSchedulesThroughHandlers(t *testing.T) {
	base := runtime.NumGoroutine()
	s := newTestServer(t, Options{Scale: exp.Quick, MaxWorkers: 3})
	ts := httptest.NewServer(s.Handler())

	probe := baseSpec
	probe.BackPins = 0.25
	want := wrapResult(t, offlineBody(t, s, probe))

	seeds := 10
	if testing.Short() {
		seeds = 4
	}
	var faulted, served int
	for seed := uint64(0); seed < uint64(seeds); seed++ {
		sched := faultinject.New(seed,
			faultinject.WithRate(2+seed%6),
			faultinject.WithKinds(faultinject.Error, faultinject.Panic))
		deactivate := faultinject.Activate(sched)

		// A single flow, a small sweep and a small MC study per seed: the
		// sweep exercises the coalescing path under faults (waiters must
		// see the builder's error, not hang).
		sp := baseSpec
		sp.BackPins = float64(seed%4) * 0.2
		status, got := post(t, ts, "/v1/flow", sp)
		checkFaultResponse(t, seed, "/v1/flow", status, got, &faulted, &served)

		sw := SweepRequest{Base: baseSpec, Axis: "util",
			Values: []float64{0.70, 0.74, 0.78}}
		status, got = post(t, ts, "/v1/sweep", sw)
		if status == http.StatusOK {
			// Sweeps report per-point failures inline: every errored point
			// must still carry a classified kind.
			var out struct {
				Results []json.RawMessage `json:"results"`
			}
			if err := json.Unmarshal(got, &out); err != nil {
				t.Fatalf("seed %d: bad sweep body: %v: %s", seed, err, got)
			}
			for i, raw := range out.Results {
				var pt struct {
					Error *ErrorBody `json:"error"`
				}
				if err := json.Unmarshal(raw, &pt); err != nil {
					t.Fatalf("seed %d point %d: %v", seed, i, err)
				}
				if pt.Error != nil {
					faulted++
					if pt.Error.Kind == "" || pt.Error.Kind == "unclassified" {
						t.Errorf("seed %d point %d: unclassified sweep error: %s", seed, i, raw)
					}
				} else {
					served++
				}
			}
		} else {
			checkFaultResponse(t, seed, "/v1/sweep", status, got, &faulted, &served)
		}

		mc := MCRequest{Base: sp, Samples: 16, Seed: seed + 1}
		status, got = post(t, ts, "/v1/mc", mc)
		checkFaultResponse(t, seed, "/v1/mc", status, got, &faulted, &served)
		deactivate()

		// Faults off: the daemon must be healthy right now.
		status, got = post(t, ts, "/v1/flow", probe)
		if status != http.StatusOK || !bytes.Equal(got, want) {
			t.Fatalf("seed %d: post-fault probe broken: status %d\n got %s\nwant %s", seed, status, got, want)
		}
		if st := getStats(t, ts).Checkpoint; st.ResidentBytes > st.BudgetBytes {
			t.Fatalf("seed %d: resident %d > budget %d", seed, st.ResidentBytes, st.BudgetBytes)
		}
	}
	if faulted == 0 {
		t.Error("no injected fault surfaced across all seeds; schedule rates too low to test anything")
	}
	t.Logf("fault sweep: %d failures surfaced, %d points served clean", faulted, served)

	ts.Close()
	s.Close()
	checkGoroutines(t, base)
}

// checkFaultResponse asserts a handler response under fault injection is
// either a success or a classified error body.
func checkFaultResponse(t *testing.T, seed uint64, path string, status int, body []byte, faulted, served *int) {
	t.Helper()
	if status == http.StatusOK {
		*served++
		return
	}
	*faulted++
	var eb struct {
		Error *ErrorBody `json:"error"`
	}
	if err := json.Unmarshal(body, &eb); err != nil || eb.Error == nil {
		t.Errorf("seed %d %s: status %d body not an error envelope: %s", seed, path, status, body)
		return
	}
	if eb.Error.Kind == "" || eb.Error.Kind == "unclassified" {
		t.Errorf("seed %d %s: unclassified error (status %d): %s", seed, path, status, body)
	}
}
