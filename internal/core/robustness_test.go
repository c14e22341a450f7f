package core

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"sync"
	"testing"
	"time"

	"repro/internal/faultinject"
	"repro/internal/route"
	"repro/internal/tech"
)

// robustCfg is the small dual-sided config the robustness tests run.
func robustCfg() FlowConfig {
	cfg := DefaultFlowConfig(tech.Pattern{Front: 6, Back: 6}, 1.5, 0.70)
	cfg.BackPinFraction = 0.5
	cfg.Name = "robust"
	return cfg
}

// TestErrInvalidConfigTaxonomy drives every class of bad config — a
// structural mismatch, NaN, ±Inf and out-of-range numeric knobs —
// through NewFlow, RunFlow and Fork: each entry point must reject it
// up front as an ErrInvalidConfig *FlowError with config provenance and
// no stage.
func TestErrInvalidConfigTaxonomy(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	cases := []struct {
		name   string
		mutate func(*FlowConfig)
	}{
		{"backpins_without_back_layers", func(c *FlowConfig) { c.Pattern = tech.Pattern{Front: 6} }},
		// No stage checks the pattern again, so Validate must refuse it.
		{"pattern_out_of_range", func(c *FlowConfig) { c.Pattern.Front = 13 }},
		{"target_nan", func(c *FlowConfig) { c.TargetFreqGHz = nan }},
		{"target_pos_inf", func(c *FlowConfig) { c.TargetFreqGHz = inf }},
		{"target_neg_inf", func(c *FlowConfig) { c.TargetFreqGHz = -inf }},
		{"target_zero", func(c *FlowConfig) { c.TargetFreqGHz = 0 }},
		{"target_negative", func(c *FlowConfig) { c.TargetFreqGHz = -1.5 }},
		{"util_nan", func(c *FlowConfig) { c.Utilization = nan }},
		{"util_pos_inf", func(c *FlowConfig) { c.Utilization = inf }},
		{"util_neg_inf", func(c *FlowConfig) { c.Utilization = -inf }},
		{"util_zero", func(c *FlowConfig) { c.Utilization = 0 }},
		{"util_above_one", func(c *FlowConfig) { c.Utilization = 1.5 }},
		{"aspect_nan", func(c *FlowConfig) { c.AspectRatio = nan }},
		{"aspect_pos_inf", func(c *FlowConfig) { c.AspectRatio = inf }},
		{"aspect_neg_inf", func(c *FlowConfig) { c.AspectRatio = -inf }},
		{"aspect_negative", func(c *FlowConfig) { c.AspectRatio = -1 }},
		// Zero is no default: an aspect or DRV budget left unset is refused
		// rather than run as 1.0 or 10.
		{"aspect_zero", func(c *FlowConfig) { c.AspectRatio = 0 }},
		{"maxdrvs_zero", func(c *FlowConfig) { c.MaxDRVs = 0 }},
		{"maxdrvs_negative", func(c *FlowConfig) { c.MaxDRVs = -1 }},
		{"backpins_nan", func(c *FlowConfig) { c.BackPinFraction = nan }},
		{"backpins_pos_inf", func(c *FlowConfig) { c.BackPinFraction = inf }},
		{"backpins_neg_inf", func(c *FlowConfig) { c.BackPinFraction = -inf }},
		{"backpins_above_one", func(c *FlowConfig) { c.BackPinFraction = 1.5 }},
		{"backpins_negative", func(c *FlowConfig) { c.BackPinFraction = -0.2 }},
		// A partly set Route is run as given, so one without a gcell
		// edge is refused rather than replaced by the defaults.
		{"route_partial", func(c *FlowConfig) { c.Route = route.Options{CapacityFactor: 2} }},
		{"route_gcell_negative", func(c *FlowConfig) { c.Route.GCellNm = -1000 }},
		// The router runs its options as given, so every value it would
		// have clamped or replaced is refused up front.
		{"route_iterations_negative", func(c *FlowConfig) { c.Route.Iterations = -1 }},
		{"route_capacity_zero", func(c *FlowConfig) { c.Route.CapacityFactor = 0 }},
		{"route_capacity_pos_inf", func(c *FlowConfig) { c.Route.CapacityFactor = inf }},
		{"route_pin_saturation_zero", func(c *FlowConfig) { c.Route.PinSaturation = 0 }},
		{"route_pin_saturation_nan", func(c *FlowConfig) { c.Route.PinSaturation = nan }},
		{"route_pin_crowding_below_one", func(c *FlowConfig) { c.Route.PinCrowdingExp = 0.5 }},
		{"route_pin_crowding_pos_inf", func(c *FlowConfig) { c.Route.PinCrowdingExp = inf }},
		{"route_pin_access_zero", func(c *FlowConfig) { c.Route.PinAccessFactor = 0 }},
		{"route_pin_access_below_one", func(c *FlowConfig) { c.Route.PinAccessFactor = 0.5 }},
		{"route_pin_access_nan", func(c *FlowConfig) { c.Route.PinAccessFactor = nan }},
		{"route_history_negative", func(c *FlowConfig) { c.Route.HistoryGain = -1 }},
		{"route_history_neg_inf", func(c *FlowConfig) { c.Route.HistoryGain = -inf }},
	}
	nl := smallCore(t, ffetLib)
	parent, err := NewFlow(nl, robustCfg())
	if err != nil {
		t.Fatal(err)
	}
	check := func(t *testing.T, entry string, err error) {
		t.Helper()
		if !errors.Is(err, ErrInvalidConfig) {
			t.Fatalf("%s: err = %v, want ErrInvalidConfig", entry, err)
		}
		var fe *FlowError
		if !errors.As(err, &fe) {
			t.Fatalf("%s: err %T is not a *FlowError", entry, err)
		}
		if fe.Config != "badcfg" {
			t.Errorf("%s: Config provenance = %q, want badcfg", entry, fe.Config)
		}
		if fe.Stage >= 0 {
			t.Errorf("%s: pre-stage error carries stage %v", entry, fe.Stage)
		}
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := robustCfg()
			cfg.Name = "badcfg"
			tc.mutate(&cfg)
			_, err := NewFlow(nl, cfg)
			check(t, "NewFlow", err)
			_, err = RunFlow(nl, cfg)
			check(t, "RunFlow", err)
			_, err = parent.Fork(func(c *FlowConfig) { *c = cfg })
			check(t, "Fork", err)
		})
	}
}

func TestCancelledBeforeRunKillsSession(t *testing.T) {
	nl := smallCore(t, ffetLib)
	f, err := NewFlow(nl, robustCfg())
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	err = f.RunToCtx(ctx, StagePower)
	if !errors.Is(err, ErrCancelled) {
		t.Fatalf("err = %v, want ErrCancelled", err)
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("context cause lost from chain: %v", err)
	}
	// A cancelled run is a hard error: the session is dead, and the
	// original classified error stays reachable through ErrSessionDead.
	err = f.RunTo(StagePower)
	if !errors.Is(err, ErrSessionDead) || !errors.Is(err, ErrCancelled) {
		t.Fatalf("post-death RunTo = %v, want ErrSessionDead wrapping ErrCancelled", err)
	}
	if _, err := f.Fork(nil); !errors.Is(err, ErrSessionDead) {
		t.Fatalf("Fork off dead session = %v, want ErrSessionDead", err)
	}
	if f.Err() == nil {
		t.Error("Err() nil on a dead session")
	}
}

func TestStagePanicContained(t *testing.T) {
	nl := smallCore(t, ffetLib)
	f, err := NewFlow(nl, robustCfg())
	if err != nil {
		t.Fatal(err)
	}
	deactivate := faultinject.Activate(faultinject.New(1,
		faultinject.WithRate(1),
		faultinject.WithKinds(faultinject.Panic),
		faultinject.WithSites("core.stage.route")))
	defer deactivate()
	_, err = f.Run()
	if !errors.Is(err, ErrStagePanic) {
		t.Fatalf("err = %v, want ErrStagePanic", err)
	}
	var fe *FlowError
	if !errors.As(err, &fe) || fe.Stage != StageRoute {
		t.Fatalf("panic provenance = %+v, want StageRoute", fe)
	}
	// Session dead, process alive.
	if err := f.RunTo(StagePower); !errors.Is(err, ErrSessionDead) {
		t.Fatalf("post-panic RunTo = %v, want ErrSessionDead", err)
	}
}

func TestInjectedErrorClassifiedStageFailed(t *testing.T) {
	nl := smallCore(t, ffetLib)
	f, err := NewFlow(nl, robustCfg())
	if err != nil {
		t.Fatal(err)
	}
	deactivate := faultinject.Activate(faultinject.New(1,
		faultinject.WithRate(1),
		faultinject.WithKinds(faultinject.Error),
		faultinject.WithSites("core.stage.cts")))
	defer deactivate()
	_, err = f.Run()
	if !errors.Is(err, ErrStageFailed) {
		t.Fatalf("err = %v, want ErrStageFailed", err)
	}
	if !errors.Is(err, faultinject.ErrInjected) {
		t.Fatalf("injected sentinel lost from chain: %v", err)
	}
	var fe *FlowError
	if !errors.As(err, &fe) || fe.Stage != StageCTS {
		t.Fatalf("provenance = %+v, want StageCTS", fe)
	}
}

// TestCancellationObservedWithinOneStage injects a Cancel fault at route
// stage entry and requires the pipeline to die inside that same stage —
// the cancel must be observed by the route inner loop, not dragged
// through later stages — and promptly.
func TestCancellationObservedWithinOneStage(t *testing.T) {
	nl := smallCore(t, ffetLib)
	f, err := NewFlow(nl, robustCfg())
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var cancelledAt time.Time
	deactivate := faultinject.Activate(faultinject.New(1,
		faultinject.WithRate(1),
		faultinject.WithKinds(faultinject.Cancel),
		faultinject.WithSites("core.stage.route"),
		faultinject.WithCancelFunc(func() { cancelledAt = time.Now(); cancel() })))
	defer deactivate()
	err = f.RunToCtx(ctx, StagePower)
	if !errors.Is(err, ErrCancelled) {
		t.Fatalf("err = %v, want ErrCancelled", err)
	}
	var fe *FlowError
	if !errors.As(err, &fe) {
		t.Fatalf("err %T is not a *FlowError", err)
	}
	if fe.Stage != StageRoute {
		t.Fatalf("cancel observed at stage %v, want StageRoute (within one stage)", fe.Stage)
	}
	if elapsed := time.Since(cancelledAt); elapsed > 10*time.Second {
		t.Fatalf("cancel took %v to be observed", elapsed)
	}
}

func TestDoubleRunAndDeadForkSemantics(t *testing.T) {
	nl := smallCore(t, ffetLib)
	f, err := NewFlow(nl, robustCfg())
	if err != nil {
		t.Fatal(err)
	}
	res1, err := f.Run()
	if err != nil {
		t.Fatal(err)
	}
	// A second Run on a completed session re-executes nothing and returns
	// the same result object.
	res2, err := f.Run()
	if err != nil {
		t.Fatalf("double Run: %v", err)
	}
	if res1 != res2 {
		t.Error("double Run produced a different result object")
	}
	// Forking a healthy, halted parent works (covered in session_test);
	// forking a dead parent must not. Kill a fresh session and pin the
	// chain: ErrSessionDead wraps the original classified error.
	g, err := NewFlow(nl, robustCfg())
	if err != nil {
		t.Fatal(err)
	}
	deactivate := faultinject.Activate(faultinject.New(3,
		faultinject.WithRate(1),
		faultinject.WithKinds(faultinject.Error),
		faultinject.WithSites("core.stage.synth")))
	_, runErr := g.Run()
	deactivate()
	if !errors.Is(runErr, ErrStageFailed) {
		t.Fatalf("injected synth failure = %v", runErr)
	}
	_, err = g.Fork(nil)
	if !errors.Is(err, ErrSessionDead) || !errors.Is(err, faultinject.ErrInjected) {
		t.Fatalf("Fork off dead parent = %v, want ErrSessionDead wrapping the injected cause", err)
	}
}

func TestForkAndRunToRaceFailFast(t *testing.T) {
	nl := smallCore(t, ffetLib)
	f, err := NewFlow(nl, robustCfg())
	if err != nil {
		t.Fatal(err)
	}
	// Hold the session mid-RunTo at StagePlace entry via the test hook.
	entered := make(chan struct{})
	release := make(chan struct{})
	stageEnterHook = func(flow *Flow, s Stage) {
		if flow == f && s == StagePlace {
			close(entered)
			<-release
		}
	}
	defer func() { stageEnterHook = nil }()

	runDone := make(chan error, 1)
	go func() { runDone <- f.RunTo(StageCTS) }()
	<-entered

	if _, err := f.Fork(nil); !errors.Is(err, ErrForkRace) {
		t.Errorf("Fork mid-RunTo = %v, want ErrForkRace", err)
	}
	if err := f.RunTo(StagePower); !errors.Is(err, ErrForkRace) {
		t.Errorf("overlapping RunTo = %v, want ErrForkRace", err)
	}
	close(release)
	if err := <-runDone; err != nil {
		t.Fatalf("held RunTo failed: %v", err)
	}
	// Quiescent again: Fork works.
	if _, err := f.Fork(nil); err != nil {
		t.Fatalf("Fork after RunTo returned: %v", err)
	}
}

// TestConcurrentForkRunCancelStress hammers one parent session with
// randomized concurrent fork/run/cancel interleavings under -race. Every
// operation must either succeed or fail with a classified taxonomy error;
// successful sibling runs of the same config must agree bit-identically.
func TestConcurrentForkRunCancelStress(t *testing.T) {
	nl := smallCore(t, ffetLib)
	parent, err := NewFlow(nl, robustCfg())
	if err != nil {
		t.Fatal(err)
	}
	if err := parent.RunTo(StageCTS); err != nil {
		t.Fatal(err)
	}

	workers := 8
	itersPer := 3
	if testing.Short() {
		workers, itersPer = 4, 2
	}
	type outcome struct {
		bp   float64
		freq float64
	}
	var mu sync.Mutex
	seen := map[float64]outcome{}
	var wg sync.WaitGroup
	// One goroutine advances the parent itself, creating genuine windows
	// where Fork must fail fast instead of copying torn state.
	wg.Add(1)
	go func() {
		defer wg.Done()
		_ = parent.RunTo(StagePower)
	}()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			bps := []float64{0.5, 0.3, 0.16}
			for i := 0; i < itersPer; i++ {
				bp := bps[rng.Intn(len(bps))]
				child, err := parent.Fork(func(c *FlowConfig) { c.BackPinFraction = bp })
				if err != nil {
					if !errors.Is(err, ErrForkRace) && !errors.Is(err, ErrSessionDead) {
						t.Errorf("Fork: unclassified error %v", err)
					}
					continue
				}
				ctx := context.Background()
				var cancel context.CancelFunc
				if rng.Intn(3) == 0 {
					ctx, cancel = context.WithCancel(context.Background())
					go func() {
						time.Sleep(time.Duration(rng.Intn(30)) * time.Millisecond)
						cancel()
					}()
				}
				res, err := child.RunCtx(ctx)
				if cancel != nil {
					defer cancel()
				}
				if err != nil {
					if !errors.Is(err, ErrCancelled) && !errors.Is(err, ErrForkRace) &&
						!errors.Is(err, ErrSessionDead) {
						t.Errorf("RunCtx: unclassified error %v", err)
					}
					continue
				}
				mu.Lock()
				if prev, ok := seen[bp]; ok && prev.freq != res.AchievedFreqGHz {
					t.Errorf("bp=%.2f: freq %v vs %v across siblings", bp, prev.freq, res.AchievedFreqGHz)
				} else {
					seen[bp] = outcome{bp, res.AchievedFreqGHz}
				}
				mu.Unlock()
			}
		}(w)
	}
	wg.Wait()
	if parent.Err() != nil {
		t.Fatalf("parent session died under concurrent forks: %v", parent.Err())
	}
}
