package core

import (
	"context"
	"fmt"
	"math"
	"slices"
	"strings"
	"time"

	"repro/internal/def"
	"repro/internal/floorplan"
	"repro/internal/geom"
	"repro/internal/netlist"
	"repro/internal/power"
	"repro/internal/powerplan"
	"repro/internal/route"
	"repro/internal/sta"
	"repro/internal/tech"
)

// FlowConfig parameterizes one physical implementation + PPA run: what
// the paper's evaluation varies (metal pattern, synthesis target,
// utilization, back-pin density; the architecture is the netlist's
// library), the placement seed, the validity rule and the router's
// options. Every other tool setting of the Fig. 7 flow is fixed: each
// stage runs its package's DefaultOptions.
//
// No field has a zero value that stands for a default: start from
// DefaultFlowConfig, since Validate refuses a zero where a positive value
// is needed. Before is the one table of which stage reads which field;
// Flow.Fork resumes a fork at the first stage a config delta reaches.
type FlowConfig struct {
	Name          string
	Pattern       tech.Pattern // routing layers per side (e.g. FM12BM12)
	TargetFreqGHz float64
	Utilization   float64
	AspectRatio   float64
	// BackPinFraction is the backside input-pin density ratio
	// (FP(1-x)BP(x)); must be 0 for CFET or frontside-only patterns.
	BackPinFraction float64
	Seed            int64
	// MaxDRVs is the validity rule: a P&R result is valid only if the
	// total design-rule violation count stays below this (paper: 10).
	MaxDRVs int
	// Route tunes the router. Validate refuses what
	// route.Options.Validate refuses, and the rest is used as given,
	// except that a CFET run lifts a PinAccessFactor of 1 (the least
	// Validate accepts) to 1.5.
	Route route.Options
}

// DefaultFlowConfig returns the evaluation defaults for a target.
func DefaultFlowConfig(pattern tech.Pattern, targetGHz, util float64) FlowConfig {
	return FlowConfig{
		Pattern:       pattern,
		TargetFreqGHz: targetGHz,
		Utilization:   util,
		AspectRatio:   1.0,
		Seed:          1,
		MaxDRVs:       10,
		Route:         route.DefaultOptions(),
	}
}

// Before returns the config a checkpoint that has run every stage before
// s is opened under: the fields those stages read come from c, every
// other field takes its neutral value (DefaultFlowConfig's, over a
// frontside-only FM1 pattern at 1 GHz and 70% utilization), and Name is
// empty. It is the one record of which stage reads which field, each
// listed at its earliest reader (Seed also feeds pin assignment; Pattern,
// read first by the partition, also feeds routing and names the layer
// Flow.DEF draws the power stripes on), since resuming there re-runs
// every later stage anyway. Before(Stage(NumStages)) is c without its
// Name, and every Before of a valid config is valid.
func (c FlowConfig) Before(s Stage) FlowConfig {
	n := DefaultFlowConfig(tech.Pattern{Front: 1}, 1, 0.70)
	if s > StageSynth {
		n.TargetFreqGHz = c.TargetFreqGHz
	}
	if s > StageFloorplan {
		n.Utilization, n.AspectRatio = c.Utilization, c.AspectRatio
	}
	if s > StagePlace {
		n.Seed = c.Seed
	}
	if s > StagePartition {
		n.Pattern, n.BackPinFraction = c.Pattern, c.BackPinFraction
	}
	if s > StageRoute {
		n.Route, n.MaxDRVs = c.Route, c.MaxDRVs
	}
	return n
}

// Validate rejects a config no run on stack st can take: an out-of-range
// knob (the target frequency and the aspect ratio must be positive and
// finite, the utilization in (0, 1], the back-pin fraction in [0, 1] and
// the DRV budget MaxDRVs positive; NaN fails every check), router options
// route.Options.Validate refuses, a metal pattern st.Validate refuses, or
// backside pins without backside routing layers. No field has a zero
// that means "the default", so a zero is refused like any other
// out-of-range value.
// Every entry point — NewFlow, Fork, RunFlow and the daemon's request
// decoding — runs it, so all of them reject a bad config the same way,
// classified as ErrInvalidConfig.
func (c FlowConfig) Validate(st *tech.Stack) error {
	var err error
	switch {
	case !(c.TargetFreqGHz > 0) || math.IsInf(c.TargetFreqGHz, 1):
		err = fmt.Errorf("target frequency %v GHz must be positive and finite", c.TargetFreqGHz)
	case !(c.Utilization > 0 && c.Utilization <= 1):
		err = fmt.Errorf("utilization %v must be in (0, 1]", c.Utilization)
	case !(c.AspectRatio > 0) || math.IsInf(c.AspectRatio, 1):
		err = fmt.Errorf("aspect ratio %v must be positive and finite", c.AspectRatio)
	case !(c.BackPinFraction >= 0 && c.BackPinFraction <= 1):
		err = fmt.Errorf("back-pin fraction %v must be in [0, 1]", c.BackPinFraction)
	case c.MaxDRVs <= 0:
		err = fmt.Errorf("DRV budget %d must be positive", c.MaxDRVs)
	default:
		if err = c.Route.Validate(); err == nil {
			err = st.Validate(c.Pattern)
		}
		if err == nil && c.BackPinFraction > 0 && c.Pattern.Back == 0 {
			err = fmt.Errorf("backside pins need backside routing layers")
		}
	}
	if err == nil {
		return nil
	}
	return &FlowError{Kind: ErrInvalidConfig, Stage: stageNone, Config: c.Name, Err: err}
}

// FlowResult is the complete outcome of one run.
type FlowResult struct {
	Config FlowConfig
	Arch   tech.Arch

	Valid  bool
	Reason string // why the run is invalid, if it is

	// Err carries the classified error that killed this point's run when
	// the result is a failure placeholder in a sweep table (exp fills it
	// in so one dead point cannot abort its whole table). Always nil on a
	// result produced by a completed run.
	Err error

	// Physical metrics.
	CoreAreaUm2     float64
	CoreW, CoreH    int64 // nm
	RealUtilization float64
	CellAreaUm2     float64
	HPWLUm          float64
	WirelenFrontUm  float64
	WirelenBackUm   float64
	DRVsFront       int
	DRVsBack        int
	Vias            int
	CTSBuffers      int
	SynthBuffers    int
	Rerouted        int
	PowerStripes    int // BSPDN stripes (VDD and VSS) the powerplan laid out

	// PPA.
	AchievedFreqGHz float64
	MinPeriodPs     float64
	PowerUW         float64
	EffGHzPerW      float64

	// StageTimes records the wall-clock spent in each pipeline stage,
	// indexed by Stage. Forked sessions inherit the entries of the
	// stages they reuse from their parent (the prefix was computed once;
	// its cost is attributed to every run built on it). A synth-diff
	// fork that took its parent's placement ran no StagePlace, so that
	// entry is 0; the copy of the netlist its positions are stamped on
	// is timed in StageCTS, as on every fork resuming there.
	// Deliberately excluded from golden artifacts — it is the one
	// nondeterministic field here.
	StageTimes [NumStages]time.Duration

	// Artifacts. The routed layout is not among them: Flow.DEF renders
	// it on demand from the session.
	STA      *sta.Result
	Power    *power.Result
	PinStats PartitionStats
}

// DRVs returns the total violation count.
func (r *FlowResult) DRVs() int { return r.DRVsFront + r.DRVsBack }

// RunFlow executes the full Fig. 7 framework over a technology-mapped
// netlist: synthesis sizing -> floorplan -> powerplan (BSPDN + Power Tap
// Cells) -> placement -> CTS -> Algorithm 1 partition -> dual-sided
// routing -> dual-sided RC extraction -> STA -> power. Extraction reads
// the routed trees directly; the per-side and merged DEF views of the
// layout are rendered on demand by Flow.DEF, so a one-shot run builds
// none.
//
// It is a thin facade over the staged pipeline: NewFlow(nl, cfg).Run()
// with checkpointing disabled. A one-shot run forks nothing, so it keeps
// neither the synthesis netlist nor the placement positions a Flow
// session keeps, and its session copies the netlist once, in synthesis
// (synth.Run's Snapshot of nl), then works on that copy.
//
// Invalid runs (tap-cell placement violations or DRVs >= MaxDRVs) return a
// FlowResult with Valid=false rather than an error; errors indicate
// malformed inputs.
func RunFlow(nl *netlist.Netlist, cfg FlowConfig) (*FlowResult, error) {
	return RunFlowCtx(context.Background(), nl, cfg)
}

// RunFlowCtx is RunFlow under a context; see Flow.RunToCtx for the
// cancellation and error-classification semantics.
func RunFlowCtx(ctx context.Context, nl *netlist.Netlist, cfg FlowConfig) (*FlowResult, error) {
	f, err := newFlow(nl, cfg, false)
	if err != nil {
		return nil, err
	}
	return f.RunCtx(ctx)
}

// pinLocation returns the physical location of a pin: port position or the
// instance pin offset on its row.
func pinLocation(ref netlist.PinRef, fp *floorplan.Plan) geom.Point {
	if ref.IsPort() {
		return ref.Port.Pos
	}
	inst := ref.Inst
	var offCPP float64
	if p, ok := inst.Cell.InputPin(ref.Pin); ok {
		offCPP = p.OffsetCPP
	} else {
		offCPP = inst.Cell.Out.OffsetCPP
	}
	return geom.Pt(
		inst.Pos.X+int64(offCPP*float64(fp.Stack.CPPNm)),
		inst.Pos.Y+fp.Stack.CellHeightNm()/2,
	)
}

// DEF renders the session's routed layout: one DEF database per wafer
// side (the paper's "two separate DEF files") and their merge. Nothing is
// cached; every call renders anew from the routed state, which no stage
// mutates once StageRoute completes, so concurrent calls on one session
// or on forks sharing its checkpoint are safe. Treat the returned
// databases as read-only: their tap-cell components are the session's.
// A session that has not completed StageRoute, including one halted
// before routing, has no layout and gets an error.
func (f *Flow) DEF() (front, back, merged *def.Design, err error) {
	f.mu.Lock()
	next, halted := f.next, f.halted
	f.mu.Unlock()
	if halted {
		return nil, nil, nil, fmt.Errorf("core: no routed layout: the run halted before %v", StageRoute)
	}
	if next <= StageRoute {
		return nil, nil, nil, fmt.Errorf("core: no routed layout: %v has not run", StageRoute)
	}
	pdn := fmt.Sprintf("BM%d", f.st.HighestPDNLayer(f.cfg.Pattern))
	front = buildDEF(f.work, f.fp, f.pp, pdn, f.frontRes, tech.Front)
	back = buildDEF(f.work, f.fp, f.pp, pdn, f.backRes, tech.Back)
	merged, err = def.Merge(f.work.Name, front, back)
	if err != nil {
		return nil, nil, nil, fmt.Errorf("core: merge DEF: %w", err)
	}
	return front, back, merged, nil
}

// buildDEF renders one side's physical database; pdn names the backside
// layer the power stripes are drawn on.
func buildDEF(nl *netlist.Netlist, fp *floorplan.Plan, pp *powerplan.Result, pdn string, rr *route.Result, side tech.Side) *def.Design {
	d := def.New(nl.Name + "_" + sideSuffix(side))
	d.Die = fp.Core
	d.Rows = make([]def.Row, 0, len(fp.Rows))
	d.Components = make([]*def.Component, 0, len(nl.Instances)+len(pp.TapComponents()))
	d.Pins = make([]*def.IOPin, 0, len(nl.Ports))
	for _, r := range fp.Rows {
		d.Rows = append(d.Rows, def.Row{
			Name:   fmt.Sprintf("row%d", r.Index),
			Site:   "core_site",
			Origin: geom.Pt(r.X0, r.Y),
			NumX:   r.SitesX(fp.Stack.CPPNm),
			StepX:  fp.Stack.CPPNm,
		})
	}
	// Components, pins and nets are bulk-allocated (one arena per kind,
	// pointers into it): a DEF view is rebuilt per side on every render,
	// and per-object allocation here dominated its alloc count.
	compArena := make([]def.Component, len(nl.Instances))
	for i, inst := range nl.Instances {
		compArena[i] = def.Component{
			Name:  inst.Name,
			Macro: inst.Cell.Name,
			Pos:   inst.Pos,
			Fixed: inst.Fixed,
		}
		d.AddComponent(&compArena[i])
	}
	pinLayer := fmt.Sprintf("%sM2", side)
	ioArena := make([]def.IOPin, len(nl.Ports))
	for i, p := range nl.Ports {
		dir := "INPUT"
		if p.Dir == netlist.Out {
			dir = "OUTPUT"
		}
		ioArena[i] = def.IOPin{
			Name: p.Name, Net: p.Name, Dir: dir,
			Layer: pinLayer, Pos: p.Pos,
		}
		d.Pins = append(d.Pins, &ioArena[i])
	}
	// BSPDN stripes live on the backside; tap cells appear in both views
	// (they span the wafer).
	if side == tech.Back {
		d.SpecialNets = pp.SpecialNets(fp, pdn)
	}
	for _, c := range pp.TapComponents() {
		d.AddComponent(c)
	}
	if rr != nil {
		// Trees is net-Seq indexed; nets without a sub-net on this side
		// are nil slots. Pre-count so every per-net slice comes out of a
		// shared arena (capacity-capped, so stray appends reallocate
		// instead of clobbering the next net's range).
		nNets, nPins, nWires, nVias := 0, 0, 0, 0
		for _, tree := range rr.Trees {
			if tree == nil {
				continue
			}
			nNets++
			nPins += len(tree.Pins)
			nWires += len(tree.Edges)
			for _, e := range tree.Edges {
				if e.Vias > 0 {
					nVias++
				}
			}
		}
		d.Nets = make([]*def.Net, 0, nNets)
		netArena := make([]def.Net, 0, nNets)
		pinArena := make([]def.NetPin, 0, nPins)
		wireArena := make([]def.Wire, 0, nWires)
		viaArena := make([]def.Via, 0, nVias)
		m1Layer := fmt.Sprintf("%sM1", side)
		for _, tree := range rr.Trees {
			if tree == nil {
				continue
			}
			po, wo, vo := len(pinArena), len(wireArena), len(viaArena)
			nv := 0
			for _, e := range tree.Edges {
				if e.Vias > 0 {
					nv++
				}
			}
			pinArena = pinArena[:po+len(tree.Pins)]
			wireArena = wireArena[:wo+len(tree.Edges)]
			viaArena = viaArena[:vo+nv]
			netArena = append(netArena, def.Net{
				Name:  tree.Name,
				Pins:  pinArena[po : po : po+len(tree.Pins)],
				Wires: wireArena[wo : wo : wo+len(tree.Edges)],
				Vias:  viaArena[vo : vo : vo+nv],
			})
			dn := &netArena[len(netArena)-1]
			// Names are rendered only here, at the serialization
			// boundary — and "rendered" means referencing the existing
			// instance/pin name strings, never concatenating them.
			for _, p := range tree.Pins {
				comp, pin := nl.PinNames(p.ID)
				dn.Pins = append(dn.Pins, def.NetPin{Comp: comp, Pin: pin})
			}
			sortNetPins(dn)
			for _, e := range tree.Edges {
				layer := e.Layer.Name
				if layer == "" {
					layer = m1Layer
				}
				dn.Wires = append(dn.Wires, def.Wire{
					Layer: layer,
					From:  tree.Nodes[e.From],
					To:    tree.Nodes[e.To],
				})
				if e.Vias > 0 {
					dn.Vias = append(dn.Vias, def.Via{
						At:        tree.Nodes[e.To],
						FromLayer: layer,
						ToLayer:   layer,
					})
				}
			}
			d.Nets = append(d.Nets, dn)
		}
		sortNets(d)
	}
	return d
}

func sideSuffix(s tech.Side) string {
	if s == tech.Front {
		return "front"
	}
	return "back"
}

// sortNetPins and sortNets canonicalize DEF ordering. Keys are unique
// ((comp,pin) within a net; net names within a design), so any correct
// sort produces the same result the seed's insertion sorts did — without
// their O(n²) cost on thousands of nets.
func sortNetPins(n *def.Net) {
	slices.SortFunc(n.Pins, func(a, b def.NetPin) int {
		if c := strings.Compare(a.Comp, b.Comp); c != 0 {
			return c
		}
		return strings.Compare(a.Pin, b.Pin)
	})
}

func sortNets(d *def.Design) {
	slices.SortFunc(d.Nets, func(a, b *def.Net) int {
		return strings.Compare(a.Name, b.Name)
	})
}
