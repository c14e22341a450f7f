package exp

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/faultinject"
	"repro/internal/riscv"
	"repro/internal/tech"
)

// faultSpecs is the sweep the fault-injection tests hammer: a three-point
// back-pin-fraction group (shared synth root + placed-and-clocked prefix,
// leader + two leaf forks) plus one CFET singleton — together they cross
// every exp.* fault site and, through the flows they launch, every
// core.stage.* site.
func faultSpecs() []Spec {
	var specs []Spec
	for _, bp := range []float64{0.5, 0.3, 0.16} {
		cfg := core.DefaultFlowConfig(tech.Pattern{Front: 6, Back: 6}, 1.5, 0.70)
		cfg.BackPinFraction = bp
		cfg.Name = fmt.Sprintf("bp%.2f", bp)
		specs = append(specs, Spec{Arch: tech.FFET, Cfg: cfg})
	}
	cfg := core.DefaultFlowConfig(tech.Pattern{Front: 12}, 1.5, 0.70)
	cfg.Name = "cfet12"
	specs = append(specs, Spec{Arch: tech.CFET, Cfg: cfg})
	return specs
}

// sameOutcome is the bit-identity proxy the retry checks compare on: the
// PPA numbers a table would render. The flow is deterministic, so a clean
// rerun must reproduce these exactly — any drift means a fault leaked
// state into a cache or session.
func sameOutcome(a, b *core.FlowResult) bool {
	return a.Valid == b.Valid && a.Reason == b.Reason &&
		a.AchievedFreqGHz == b.AchievedFreqGHz && a.PowerUW == b.PowerUW &&
		a.WirelenFrontUm == b.WirelenFrontUm && a.WirelenBackUm == b.WirelenBackUm
}

// TestFaultScheduleSweep is the property test of ISSUE 6: sweep hundreds
// of seeded deterministic fault schedules over a shared-prefix sweep and
// require, for every schedule:
//
//   - runAll always returns a full-length, nil-free result slice;
//   - every failed point carries exactly one classified taxonomy error,
//     and the sweep's joined error contains each of them;
//   - the sweep errors iff some point failed; a schedule that fired
//     nothing yields the baseline tables exactly;
//   - a clean retry on the SAME suite reproduces the no-fault baseline
//     bit-identically — no cache poisoning, no poisoned synth roots;
//   - the test ends with no leaked goroutines.
func TestFaultScheduleSweep(t *testing.T) {
	tmpl := quickSuite(t)
	// An 8-register core keeps a full flow run cheap enough to afford
	// hundreds of schedules.
	nlF, _, err := riscv.Generate(tmpl.FFET, riscv.Config{Name: "rv8", Registers: 8})
	if err != nil {
		t.Fatal(err)
	}
	nlC, err := nlF.Remap(tmpl.CFET)
	if err != nil {
		t.Fatal(err)
	}
	fresh := func() *Suite {
		return &Suite{
			Scale:       Quick,
			FFET:        tmpl.FFET,
			CFET:        tmpl.CFET,
			ffetNl:      nlF,
			cfetNl:      nlC,
			memo:        newMemo(maxMemoEntries),
			MaxParallel: 4,
		}
	}
	specs := faultSpecs()
	baseline, err := fresh().runAll(specs)
	if err != nil {
		t.Fatalf("baseline sweep: %v", err)
	}
	goroutinesBefore := runtime.NumGoroutine()

	seeds := 200
	retryEvery := 5
	if testing.Short() {
		seeds, retryEvery = 24, 3
	}
	for seed := uint64(0); seed < uint64(seeds); seed++ {
		s := fresh()
		// Alternate sharing modes so the scratch path's containment and
		// site are swept too.
		s.DisablePrefixSharing = seed%4 == 3
		ctx, cancel := context.WithCancel(context.Background())
		s.Ctx = ctx
		sched := faultinject.New(seed,
			faultinject.WithRate(2+seed%8),
			faultinject.WithCancelFunc(cancel))
		deactivate := faultinject.Activate(sched)
		rs, err := s.runAll(specs)
		deactivate()
		cancel()

		if len(rs) != len(specs) {
			t.Fatalf("seed %d: %d results for %d specs", seed, len(rs), len(specs))
		}
		failed := 0
		for i, r := range rs {
			if r == nil {
				t.Fatalf("seed %d: nil result at %d", seed, i)
			}
			if r.Err == nil {
				continue
			}
			failed++
			if c := ErrClass(r.Err); c == "unclassified" {
				t.Errorf("seed %d point %d: unclassified error %v", seed, i, r.Err)
			}
			if !errors.Is(err, r.Err) {
				t.Errorf("seed %d point %d: error missing from sweep join", seed, i)
			}
			if r.Valid {
				t.Errorf("seed %d point %d: failed point marked valid", seed, i)
			}
		}
		if (err != nil) != (failed > 0) {
			t.Errorf("seed %d: sweep err %v with %d failed points", seed, err, failed)
		}
		if len(sched.Fired()) == 0 {
			for i, r := range rs {
				if !sameOutcome(r, baseline[i]) {
					t.Errorf("seed %d (no faults fired) point %d: %+v != baseline", seed, i, r)
				}
			}
		}
		if seed%uint64(retryEvery) != 0 {
			continue
		}
		// Clean retry on the same suite: failed points rerun from scratch,
		// healthy memo entries are reused, and the output is bit-identical
		// to the never-faulted baseline.
		s.Ctx = nil
		rs2, err2 := s.runAll(specs)
		if err2 != nil {
			t.Errorf("seed %d: clean retry failed: %v", seed, err2)
			continue
		}
		for i, r := range rs2 {
			if r.Err != nil {
				t.Errorf("seed %d retry point %d: error survived deactivation: %v", seed, i, r.Err)
			} else if !sameOutcome(r, baseline[i]) {
				t.Errorf("seed %d retry point %d differs from baseline", seed, i)
			}
		}
	}

	// Every pool goroutine must have drained; give stragglers a moment.
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > goroutinesBefore && time.Now().Before(deadline) {
		time.Sleep(20 * time.Millisecond)
	}
	if g := runtime.NumGoroutine(); g > goroutinesBefore {
		t.Errorf("goroutines leaked: %d before sweep, %d after", goroutinesBefore, g)
	}
}

// TestLeafFaultErrorCells pins the table-facing containment contract
// deterministically: a fault that kills only leaf forks leaves the group
// leader's numbers in the table, renders classified error cells for the
// dead siblings, and clears completely on the next sweep.
func TestLeafFaultErrorCells(t *testing.T) {
	s := quickSuite(t)
	specs := faultSpecs()[:3]
	deactivate := faultinject.Activate(faultinject.New(11,
		faultinject.WithRate(1),
		faultinject.WithKinds(faultinject.Error),
		faultinject.WithSites("exp.leaf")))
	rs, err := s.runAll(specs)
	deactivate()
	if len(rs) != 3 {
		t.Fatalf("results = %d", len(rs))
	}
	if rs[0].Err != nil {
		t.Fatalf("leader point died off an exp.leaf fault: %v", rs[0].Err)
	}
	if err == nil {
		t.Fatal("sweep with dead leaves reported no error")
	}
	for i := 1; i < 3; i++ {
		if rs[i].Err == nil {
			t.Fatalf("leaf %d survived a rate-1 leaf fault", i)
		}
		if !errors.Is(rs[i].Err, faultinject.ErrInjected) {
			t.Errorf("leaf %d: injected sentinel lost: %v", i, rs[i].Err)
		}
		if got := validCell(rs[i]); got != "error: stage-failed" {
			t.Errorf("leaf %d valid cell = %q", i, got)
		}
		if got := numCell(rs[i], "1.23"); got != "-" {
			t.Errorf("leaf %d numeric cell = %q, want -", i, got)
		}
		if !errors.Is(err, rs[i].Err) {
			t.Errorf("leaf %d error missing from sweep join", i)
		}
	}
	// Error placeholders are never memoized: the next sweep reruns only
	// the dead leaves and reuses the leader's memo entry by pointer.
	rs2, err2 := s.runAll(specs)
	if err2 != nil {
		t.Fatalf("post-fault sweep: %v", err2)
	}
	if rs2[0] != rs[0] {
		t.Error("leader result not reused from memo")
	}
	for i := 1; i < 3; i++ {
		if rs2[i].Err != nil {
			t.Errorf("leaf %d still failing after deactivation: %v", i, rs2[i].Err)
		}
	}
}

// TestFailedPrefixCountsNoHit: when a group's prefix build fails, the
// dead leader's siblings find the failed node, reuse nothing and share
// its one error, so the report counts every lookup as a miss and none as
// a hit.
func TestFailedPrefixCountsNoHit(t *testing.T) {
	s := quickSuite(t)
	deactivate := faultinject.Activate(faultinject.New(3,
		faultinject.WithRate(1),
		faultinject.WithKinds(faultinject.Error),
		faultinject.WithSites("exp.group")))
	rs, err := s.runAll(faultSpecs()[:3])
	deactivate()
	if err == nil {
		t.Fatal("sweep over a failed prefix reported no error")
	}
	for i, r := range rs {
		if r.Err != rs[0].Err {
			t.Errorf("point %d error %v, want the prefix's shared %v", i, r.Err, rs[0].Err)
		}
	}
	if st := s.Stats(); st.PrefixHits != 0 || st.PrefixMisses != 3 || st.SynthRootHits+st.SynthRootMisses != 0 {
		t.Fatalf("report %+v, want 3 prefix misses and nothing else resolved", st.Report)
	}
}
