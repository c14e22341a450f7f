// Package serve implements the ffetd daemon: a long-running HTTP+JSON
// front end over the staged flow. Single-flow, sweep and Monte Carlo
// variation requests are thin callers of exp's sweep planner and
// executor, the same ones the batch tables run; the daemon adds what a
// long-lived process needs around them: the exp.Store checkpoint store
// the executor builds synthesis roots and prefixes through (so concurrent
// and later requests whose sharing classes match reuse one staged
// prefix), an exact-config memo of marshaled results, NDJSON progress
// streaming, and admission through a bounded worker pool. Responses are
// byte-identical to the offline ffetexp/ffetflow paths: the daemon runs
// the same staged sessions, forked at the same class boundaries, under
// the same configs.
package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/exp"
	"repro/internal/tech"
	"repro/internal/variation"
)

// FlowSpec is the wire form of one flow configuration. It maps onto
// core.DefaultFlowConfig exactly the way the CLIs do, so a daemon run
// and an offline run of the same spec execute the same FlowConfig.
// TargetGHz, Util and Front are required; zero Aspect, Seed and MaxDRVs
// take the flow defaults (1.0, 1, 10).
type FlowSpec struct {
	Arch      string  `json:"arch,omitempty"` // "FFET" (default) or "CFET"
	Front     int     `json:"front"`
	Back      int     `json:"back,omitempty"`
	TargetGHz float64 `json:"target_ghz"`
	Util      float64 `json:"util"`
	Aspect    float64 `json:"aspect,omitempty"`
	BackPins  float64 `json:"back_pins,omitempty"`
	Seed      int64   `json:"seed,omitempty"`
	MaxDRVs   int     `json:"max_drvs,omitempty"`
}

// Config resolves the spec to the architecture and full flow config.
// The config name is rendered from the config fields alone, so identical
// specs — from any client — produce identical configs, results and
// response bytes. Config only parses the wire form (the arch name and the
// required front); Spec also checks the resulting config.
func (sp FlowSpec) Config() (tech.Arch, core.FlowConfig, error) {
	var arch tech.Arch
	switch strings.ToUpper(sp.Arch) {
	case "", "FFET":
		arch = tech.FFET
	case "CFET":
		arch = tech.CFET
	default:
		return 0, core.FlowConfig{}, fmt.Errorf("serve: unknown arch %q (want FFET or CFET)", sp.Arch)
	}
	if sp.Front <= 0 {
		return 0, core.FlowConfig{}, fmt.Errorf("serve: front metal count must be > 0")
	}
	cfg := core.DefaultFlowConfig(tech.Pattern{Front: sp.Front, Back: sp.Back}, sp.TargetGHz, sp.Util)
	if sp.Aspect > 0 {
		cfg.AspectRatio = sp.Aspect
	}
	cfg.BackPinFraction = sp.BackPins
	if sp.Seed != 0 {
		cfg.Seed = sp.Seed
	}
	if sp.MaxDRVs > 0 {
		cfg.MaxDRVs = sp.MaxDRVs
	}
	cfg.Name = fmt.Sprintf("%s-F%dB%d-t%.3g-u%.3g-a%.3g-bp%.3g-s%d",
		arch, cfg.Pattern.Front, cfg.Pattern.Back, cfg.TargetFreqGHz,
		cfg.Utilization, cfg.AspectRatio, cfg.BackPinFraction, cfg.Seed)
	return arch, cfg, nil
}

// Spec resolves the spec to the run it describes and refuses every
// config core would: Config, then core's FlowConfig.Validate against the
// stack of the spec's architecture in suite's library. The daemon runs
// it before admitting any work.
func (sp FlowSpec) Spec(suite *exp.Suite) (exp.Spec, error) {
	arch, cfg, err := sp.Config()
	if err != nil {
		return exp.Spec{}, err
	}
	if err := cfg.Validate(suite.Netlist(arch).Lib.Stack); err != nil {
		return exp.Spec{}, err
	}
	return exp.Spec{Arch: arch, Cfg: cfg}, nil
}

// SweepRequest sweeps one axis of a base spec. The points are planned and
// executed exactly like an exp sweep, with the checkpoint store behind
// them.
type SweepRequest struct {
	Base   FlowSpec  `json:"base"`
	Axis   string    `json:"axis"` // back_pins | util | target_ghz | aspect | seed
	Values []float64 `json:"values"`
}

// Points expands the sweep into one spec per value.
func (r SweepRequest) Points() ([]FlowSpec, error) {
	if len(r.Values) == 0 {
		return nil, fmt.Errorf("serve: sweep needs at least one value")
	}
	out := make([]FlowSpec, len(r.Values))
	for i, v := range r.Values {
		sp := r.Base
		switch r.Axis {
		case "back_pins":
			sp.BackPins = v
		case "util":
			sp.Util = v
		case "target_ghz":
			sp.TargetGHz = v
		case "aspect":
			sp.Aspect = v
		case "seed":
			sp.Seed = int64(v)
		default:
			return nil, fmt.Errorf("serve: unknown sweep axis %q", r.Axis)
		}
		out[i] = sp
	}
	return out, nil
}

// Specs maps the sweep onto the runs it asks for and refuses every sweep
// the daemon answers 400 before admitting any work: no values or an
// unknown axis (Points); more values than a daemon under opt admits at
// once, MaxQueue + MaxWorkers after defaults (every point is one unit of
// admitted work, all spawned together, so a wider sweep would refuse its
// own points); or a point Spec refuses. ffetd -oneshot runs it too, so
// the offline reference refuses what the daemon refuses.
func (r SweepRequest) Specs(suite *exp.Suite, opt Options) ([]exp.Spec, error) {
	points, err := r.Points()
	if err != nil {
		return nil, err
	}
	opt = opt.withDefaults()
	if bound := opt.MaxQueue + opt.MaxWorkers; len(points) > bound {
		return nil, fmt.Errorf("serve: sweep has %d values, more than the %d units the daemon admits at once", len(points), bound)
	}
	specs := make([]exp.Spec, len(points))
	for i, sp := range points {
		if specs[i], err = sp.Spec(suite); err != nil {
			return nil, fmt.Errorf("serve: sweep point %d: %w", i, err)
		}
	}
	return specs, nil
}

// MCRequest runs a Monte Carlo overlay-variation study on the flow the
// base spec describes. Zero option fields take variation.DefaultOptions.
type MCRequest struct {
	Base    FlowSpec `json:"base"`
	Samples int      `json:"samples,omitempty"`
	Workers int      `json:"workers,omitempty"`
	Seed    uint64   `json:"seed,omitempty"`
	SigmaNm float64  `json:"sigma_nm,omitempty"`
	FloorFF float64  `json:"floor_ff,omitempty"`
}

// Options maps the request onto variation.Options; fields the request
// leaves zero take the study defaults.
func (r MCRequest) Options() variation.Options {
	return variation.Options{Samples: r.Samples, Workers: r.Workers, Seed: r.Seed,
		SigmaNm: r.SigmaNm, FloorFF: r.FloorFF}
}

// Summary is the deterministic result payload of one flow run: the PPA
// metrics the paper's tables report, with stable field order and Go's
// shortest-round-trip float rendering. Deliberately excluded: StageTimes
// (wall-clock, nondeterministic) and the routed layout (megabytes of DEF;
// ffetflow -def writes it). Byte-identity between daemon and offline
// paths is asserted over this encoding.
type Summary struct {
	Arch   string `json:"arch"`
	Name   string `json:"name"`
	Valid  bool   `json:"valid"`
	Reason string `json:"reason,omitempty"`

	CoreAreaUm2     float64 `json:"core_area_um2"`
	RealUtilization float64 `json:"real_utilization"`
	CellAreaUm2     float64 `json:"cell_area_um2"`
	HPWLUm          float64 `json:"hpwl_um"`
	WirelenFrontUm  float64 `json:"wirelen_front_um"`
	WirelenBackUm   float64 `json:"wirelen_back_um"`
	DRVsFront       int     `json:"drvs_front"`
	DRVsBack        int     `json:"drvs_back"`
	Vias            int     `json:"vias"`
	CTSBuffers      int     `json:"cts_buffers"`
	SynthBuffers    int     `json:"synth_buffers"`

	AchievedFreqGHz float64 `json:"achieved_freq_ghz"`
	MinPeriodPs     float64 `json:"min_period_ps"`
	PowerUW         float64 `json:"power_uw"`
	EffGHzPerW      float64 `json:"eff_ghz_per_w"`
}

// NewSummary projects a flow result onto the wire form.
func NewSummary(res *core.FlowResult) Summary {
	return Summary{
		Arch:            res.Arch.String(),
		Name:            res.Config.Name,
		Valid:           res.Valid,
		Reason:          res.Reason,
		CoreAreaUm2:     res.CoreAreaUm2,
		RealUtilization: res.RealUtilization,
		CellAreaUm2:     res.CellAreaUm2,
		HPWLUm:          res.HPWLUm,
		WirelenFrontUm:  res.WirelenFrontUm,
		WirelenBackUm:   res.WirelenBackUm,
		DRVsFront:       res.DRVsFront,
		DRVsBack:        res.DRVsBack,
		Vias:            res.Vias,
		CTSBuffers:      res.CTSBuffers,
		SynthBuffers:    res.SynthBuffers,
		AchievedFreqGHz: res.AchievedFreqGHz,
		MinPeriodPs:     res.MinPeriodPs,
		PowerUW:         res.PowerUW,
		EffGHzPerW:      res.EffGHzPerW,
	}
}

// MCSummary is the wire form of a variation study: the distribution
// statistics, not the per-sample vectors.
type MCSummary struct {
	Samples    int     `json:"samples"`
	MeanWNSPs  float64 `json:"mean_wns_ps"`
	SigmaWNSPs float64 `json:"sigma_wns_ps"`
	P50WNSPs   float64 `json:"p50_wns_ps"`
	P95WNSPs   float64 `json:"p95_wns_ps"`
	P997WNSPs  float64 `json:"p997_wns_ps"`
	MeanTNSPs  float64 `json:"mean_tns_ps"`
	SigmaTNSPs float64 `json:"sigma_tns_ps"`
	P50TNSPs   float64 `json:"p50_tns_ps"`
	P95TNSPs   float64 `json:"p95_tns_ps"`
	P997TNSPs  float64 `json:"p997_tns_ps"`
}

// NewMCSummary projects a variation study onto the wire form.
func NewMCSummary(sum *variation.Summary) MCSummary {
	return MCSummary{
		Samples:    sum.Samples,
		MeanWNSPs:  sum.MeanWNSPs,
		SigmaWNSPs: sum.SigmaWNSPs,
		P50WNSPs:   sum.P50WNSPs,
		P95WNSPs:   sum.P95WNSPs,
		P997WNSPs:  sum.P997WNSPs,
		MeanTNSPs:  sum.MeanTNSPs,
		SigmaTNSPs: sum.SigmaTNSPs,
		P50TNSPs:   sum.P50TNSPs,
		P95TNSPs:   sum.P95TNSPs,
		P997TNSPs:  sum.P997TNSPs,
	}
}

// ErrorBody is the wire form of a classified failure. PartialStageMs
// reports the stage timings a cancelled or failed session completed
// before dying — the daemon-side mirror of the CLIs' partial-timings
// report on SIGTERM.
type ErrorBody struct {
	Kind           string             `json:"kind"`
	Message        string             `json:"message"`
	PartialStageMs map[string]float64 `json:"partial_stage_ms,omitempty"`
}

// newErrorBody classifies err and, when a partially-run session is
// available, attaches its completed stage timings. An admission refusal
// is kind busy or draining with the refusal's own message, since no stage
// ran; every other error takes exp.ErrClass's spelling of its class.
func newErrorBody(name string, err error, partial *core.Flow) *ErrorBody {
	var body *ErrorBody
	switch {
	case errors.Is(err, errBusy):
		body = &ErrorBody{Kind: "busy", Message: errBusy.Error()}
	case errors.Is(err, errDraining):
		body = &ErrorBody{Kind: "draining", Message: errDraining.Error()}
	default:
		cerr := core.Classify(name, err)
		body = &ErrorBody{Kind: exp.ErrClass(cerr), Message: cerr.Error()}
	}
	if partial != nil {
		times := partial.Result().StageTimes
		for s, d := range times {
			if d > 0 {
				if body.PartialStageMs == nil {
					body.PartialStageMs = make(map[string]float64, len(times))
				}
				body.PartialStageMs[core.Stage(s).String()] = float64(d) / float64(time.Millisecond)
			}
		}
	}
	return body
}

// event is one NDJSON progress line. The final "done" event carries the
// full response body — the same bytes a non-streaming request receives.
type event struct {
	Event string          `json:"event"`
	Point *int            `json:"point,omitempty"` // sweep point index; absent on single-flow/MC streams
	Kind  string          `json:"kind,omitempty"`
	Hit   *bool           `json:"hit,omitempty"`
	Stage string          `json:"stage,omitempty"`
	Ms    float64         `json:"ms,omitempty"`
	Data  json.RawMessage `json:"data,omitempty"`
	Error *ErrorBody      `json:"error,omitempty"`
}
