package exp

import (
	"context"
	"sort"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/faultinject"
	"repro/internal/tech"
)

// Spec is one flow point of a sweep: an architecture and its full config.
type Spec struct {
	Arch tech.Arch
	Cfg  core.FlowConfig
}

// Point is one distinct pending flow run of a plan.
type Point struct {
	Spec Spec
	// Idxs are the input specs the point answers: every spec with its
	// memo key, in input order.
	Idxs []int
}

// Group is the plan points sharing one placed-and-clocked prefix: the
// checkpoint of their configs' Before(StagePartition). Points[0] leads;
// the others are its siblings.
type Group struct {
	prefix ckKey
	Points []int // indices into Plan.Points
}

// Plan is a sweep mapped onto the executor's work: its distinct pending
// points, grouped by prefix, the groups chained along the synthesis
// target.
type Plan struct {
	Points []Point
	// Chains hold every group exactly once. A chain's groups differ only
	// in synthesis target, ascending, each within DiffChainMaxRelGap of
	// its predecessor; distinct chains run in parallel.
	Chains [][]*Group
}

// DiffChainMaxRelGap bounds the relative target gap between neighboring
// groups worth attempting a synth-diff hop across. Past it the resized
// fraction (and with it the floorplan) almost always diverges, so the
// attempt would serialize the two groups for nothing: groups further
// apart start chains of their own and run in parallel.
const DiffChainMaxRelGap = 0.12

// PlanSweep maps specs to a plan without running any flow. cached, when
// non-nil, reports whether the caller's memo already answered spec i;
// those specs drop out. The rest dedupe by MemoKey, group by prefix key
// (first seen leads) and chain by target: groups whose prefix keys differ
// only in the target share a chain.
func PlanSweep(specs []Spec, cached func(i int) bool) *Plan {
	pl := &Plan{}
	points := make(map[RunKey]int)
	groups := make(map[ckKey]*Group)
	chains := make(map[ckKey][]*Group) // keyed by the target-free prefix key
	var chainOrder []ckKey
	for i, sp := range specs {
		if cached != nil && cached(i) {
			continue
		}
		key := MemoKey(sp.Arch, sp.Cfg)
		if p, ok := points[key]; ok {
			pl.Points[p].Idxs = append(pl.Points[p].Idxs, i)
			continue
		}
		p := len(pl.Points)
		points[key] = p
		pl.Points = append(pl.Points, Point{Spec: sp, Idxs: []int{i}})
		pk := keyAt(core.StagePartition, sp.Arch, sp.Cfg)
		g := groups[pk]
		if g == nil {
			g = &Group{prefix: pk}
			groups[pk] = g
			ck := pk
			ck.cfg.TargetFreqGHz = 0
			if _, ok := chains[ck]; !ok {
				chainOrder = append(chainOrder, ck)
			}
			chains[ck] = append(chains[ck], g)
		}
		g.Points = append(g.Points, p)
	}
	for _, ck := range chainOrder {
		gs := chains[ck]
		sort.SliceStable(gs, func(a, b int) bool { return gs[a].target() < gs[b].target() })
		for len(gs) > 0 {
			j := 1
			for ; j < len(gs); j++ {
				lo := gs[j-1].target()
				if lo <= 0 || gs[j].target()-lo > DiffChainMaxRelGap*lo {
					break
				}
			}
			pl.Chains = append(pl.Chains, gs[:j])
			gs = gs[j:]
		}
	}
	return pl
}

// target is the synthesis target of the group's points.
func (g *Group) target() float64 { return g.prefix.cfg.TargetFreqGHz }

// Report counts what one executor call did. Execute adds each call's
// report to its suite's sum, which Suite.Stats reports.
type Report struct {
	// Group leaders that forked their chain predecessor through the
	// synth-diff path and stayed on it, leaders whose diff attempt fell
	// back to the full pipeline, and leaders that forked the group prefix
	// with no diff attempt.
	DiffForks      int64 `json:"diff_forks"`
	DiffFallbacks  int64 `json:"diff_fallbacks"`
	FullSynthForks int64 `json:"full_synth_forks"`
	// Synthesis-root and prefix resolutions: a hit reused a built node
	// from earlier in the call or the store; a miss built it, failed to,
	// or found it failed.
	SynthRootHits   int64 `json:"synth_root_hits"`
	SynthRootMisses int64 `json:"synth_root_misses"`
	PrefixHits      int64 `json:"prefix_hits"`
	PrefixMisses    int64 `json:"prefix_misses"`
}

// Add accumulates another report.
func (r *Report) Add(o Report) {
	r.DiffForks += o.DiffForks
	r.DiffFallbacks += o.DiffFallbacks
	r.FullSynthForks += o.FullSynthForks
	r.SynthRootHits += o.SynthRootHits
	r.SynthRootMisses += o.SynthRootMisses
	r.PrefixHits += o.PrefixHits
	r.PrefixMisses += o.PrefixMisses
}

// Event is one progress record of an executor call: a checkpoint
// resolution ("synth", "prefix" or "synthdiff", with whether it reused
// existing work) or one completed stage of a point's session.
type Event struct {
	Checkpoint string
	Hit        bool
	Stage      core.Stage
	Dur        time.Duration
}

// Exec is what one executor call needs from its caller: everything that
// differs between the batch suite and the daemon. Execute indexes Emit
// and Done by plan point; Sweep, by spec.
type Exec struct {
	// Ctx (required) bounds the call's point work and, without a Store,
	// its checkpoint builds.
	Ctx context.Context
	// Store, when non-nil, backs the call's synthesis roots and prefixes
	// with the cross-call checkpoint store. Without one every node is
	// built directly and dropped when the call returns.
	Store *Store
	// Admit, when non-nil, gates each unit of work — a group leader, a
	// sibling, a scratch point — and returns the slot's release.
	Admit func() (release func(), err error)
	// Emit receives progress events of plan point p.
	Emit func(p int, ev Event)
	// Done receives each plan point's outcome exactly once: the result
	// and the session that produced it, or a classified error with the
	// session as far as it got (nil when none was opened).
	Done func(p int, res *core.FlowResult, f *core.Flow, err error)
}

// Execute runs a plan. Each chain runs its groups in target order. A
// group's leader forks its chain predecessor's completed leader through
// the synth-diff path (core.Flow.ForkSynthDiff) or, with no predecessor
// or on a hard fork failure, the group's prefix. Siblings start alongside
// their leader and fork that prefix, so no point waits for another
// point's flow. Synthesis roots and prefixes are plan nodes, built at
// most once per call by the first point that needs one, under the config
// core.FlowConfig.Before gives at the stage they resume at
// (Before(StageFloorplan) for a root, Before(StagePartition) for a
// prefix), so a node never depends on which point built it. A root lives
// for the call, a prefix only as long as its group's points.
//
// Failures are contained per point: a dead point (hard error, contained
// panic, cancellation) reports its classified error while its siblings
// and chain successors carry on. A failed node fails every point that
// needs it with one shared error value.
//
// With DisablePrefixSharing set, every point instead runs in its own
// session opened with core.NewFlow, sharing nothing: the reference path.
// Its points reach Done with their sessions like any other.
//
// The call's Report is added to the suite's sum (Suite.Stats). Execute
// neither reads nor fills the result memo: Sweep does, around it, and
// only a caller that needs the live sessions of completed points, such as
// the Monte Carlo table and the daemon's Monte Carlo requests, calls
// Execute directly.
func (s *Suite) Execute(plan *Plan, x Exec) {
	e := &executor{s: s, x: x, plan: plan}
	var wg sync.WaitGroup
	spawn := func(f func()) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			f()
		}()
	}
	if s.DisablePrefixSharing {
		for p := range plan.Points {
			spawn(func() { e.scratch(p) })
		}
	} else {
		for _, chain := range plan.Chains {
			spawn(func() {
				var prev *core.Flow
				for _, g := range chain {
					// The group's prefix node lives only as long as the
					// group's points: nothing staged outlives its use.
					pn := &node{}
					for _, p := range g.Points[1:] {
						spawn(func() { e.sibling(g, pn, p) })
					}
					prev = e.leader(g, pn, prev)
				}
			})
		}
	}
	wg.Wait()
	s.mu.Lock()
	s.stats.Report.Add(e.rep)
	s.mu.Unlock()
}

// executor is one Execute call's state.
type executor struct {
	s     *Suite
	x     Exec
	plan  *Plan
	roots sync.Map // root ckKey -> *node; prefix nodes belong to their group
	mu    sync.Mutex
	rep   Report // guarded by mu until the call drains
}

// count adds one to a report counter.
func (e *executor) count(c *int64) {
	e.mu.Lock()
	*c++
	e.mu.Unlock()
}

// node is one synthesis root or prefix of a call, resolved once.
type node struct {
	once sync.Once
	flow *core.Flow
	err  error
}

// unit runs one admitted unit of work for point p — fault site, then run
// — containing panics, reports the outcome to Done, and returns the
// session that completed the point (nil when it died).
func (e *executor) unit(p int, site string, run func(cfg core.FlowConfig) (*core.FlowResult, *core.Flow, error)) *core.Flow {
	cfg := e.plan.Points[p].Spec.Cfg
	var res *core.FlowResult
	var f *core.Flow
	err := func() (err error) {
		defer func() {
			if r := recover(); r != nil {
				err = core.NewPanicError(cfg.Name, r)
			}
		}()
		if e.x.Admit != nil {
			release, err := e.x.Admit()
			if err != nil {
				return err
			}
			defer release()
		}
		if err := faultinject.Fire(site); err != nil {
			return err
		}
		res, f, err = run(cfg)
		return err
	}()
	// res is nil whenever err is set.
	err = core.Classify(cfg.Name, err)
	e.x.Done(p, res, f, err)
	if err != nil {
		return nil
	}
	return f
}

// scratch runs point p in a session of its own.
func (e *executor) scratch(p int) {
	arch := e.plan.Points[p].Spec.Arch
	e.unit(p, "exp.scratch", func(cfg core.FlowConfig) (*core.FlowResult, *core.Flow, error) {
		f, err := core.NewFlow(e.s.Netlist(arch), cfg)
		if err != nil {
			return nil, nil, err
		}
		return e.drive(p, f)
	})
}

// leader runs group g's first point off prev (the chain predecessor's
// completed leader, or nil), or else off the group's prefix node pn —
// which the group's siblings fork meanwhile — and returns its completed
// session, the next group's prev.
func (e *executor) leader(g *Group, pn *node, prev *core.Flow) *core.Flow {
	p := g.Points[0]
	return e.unit(p, "exp.leader", func(cfg core.FlowConfig) (*core.FlowResult, *core.Flow, error) {
		if prev != nil {
			// A hard diff-fork failure (race, cancellation) falls through
			// to the prefix, which classifies its own errors.
			if child, st, err := prev.ForkSynthDiffCtx(e.x.Ctx, func(c *core.FlowConfig) { *c = cfg }); err == nil {
				if st.DiffPath {
					e.count(&e.rep.DiffForks)
				} else {
					e.count(&e.rep.DiffFallbacks)
				}
				e.x.Emit(p, Event{Checkpoint: "synthdiff", Hit: st.DiffPath})
				return e.drive(p, child)
			}
		}
		e.count(&e.rep.FullSynthForks)
		return e.forkDrive(p, cfg, g.prefix, pn)
	})
}

// sibling runs point p of group g off the prefix node pn.
func (e *executor) sibling(g *Group, pn *node, p int) {
	e.unit(p, "exp.leaf", func(cfg core.FlowConfig) (*core.FlowResult, *core.Flow, error) {
		return e.forkDrive(p, cfg, g.prefix, pn)
	})
}

// forkDrive forks the prefix under key pk, node pn, under cfg and drives
// the fork to completion.
func (e *executor) forkDrive(p int, cfg core.FlowConfig, pk ckKey, pn *node) (*core.FlowResult, *core.Flow, error) {
	base, err := e.prefix(p, pk, pn)
	if err != nil {
		return nil, nil, err
	}
	f, err := base.Fork(func(c *core.FlowConfig) { *c = cfg })
	if err != nil {
		return nil, nil, err
	}
	return e.drive(p, f)
}

// drive runs a session's remaining stages one at a time — each boundary
// a progress event and a cancellation point. A halted session (an
// infeasible powerplan, a placement violation) stops advancing
// NextStage, so the loop also stops on Halted; its Valid=false result
// matches the one-shot flow's early return.
func (e *executor) drive(p int, f *core.Flow) (*core.FlowResult, *core.Flow, error) {
	for st := f.NextStage(); int(st) < core.NumStages && !f.Halted(); st = f.NextStage() {
		t0 := time.Now()
		if err := f.RunToCtx(e.x.Ctx, st); err != nil {
			return nil, f, err
		}
		e.x.Emit(p, Event{Stage: st, Dur: time.Since(t0)})
	}
	return f.Result(), f, nil
}

// prefix resolves the placed-and-clocked prefix under key pk, node pn,
// for point p: a fork of the synthesis root run through StageCTS under
// the key's config.
func (e *executor) prefix(p int, pk ckKey, pn *node) (*core.Flow, error) {
	return e.resolve(e.x.Ctx, p, pn, pk, func(ctx context.Context) (*core.Flow, error) {
		if err := faultinject.Fire("exp.group"); err != nil {
			return nil, err
		}
		// The root is resolved inside the prefix build, so it waits under
		// the build's context: a stored prefix must not die with the
		// request that happened to start it.
		rk := keyAt(core.StageFloorplan, pk.arch, pk.cfg)
		rn, _ := e.roots.LoadOrStore(rk, &node{})
		root, err := e.resolve(ctx, p, rn.(*node), rk, func(ctx context.Context) (*core.Flow, error) {
			if err := faultinject.Fire("exp.synthroot"); err != nil {
				return nil, err
			}
			f, err := core.NewFlow(e.s.Netlist(rk.arch), rk.cfg)
			if err != nil {
				return nil, err
			}
			return f, f.RunToCtx(ctx, core.StageSynth)
		})
		if err != nil {
			return nil, err
		}
		f, err := root.Fork(func(c *core.FlowConfig) { *c = pk.cfg })
		if err != nil {
			return nil, err
		}
		return f, f.RunToCtx(ctx, core.StageCTS)
	})
}

// resolve returns node n's session for point p, building it on first use
// — through the store, under key, when the call has one — and counts and
// reports the resolution. ctx is what the first resolution waits under:
// it builds under ctx itself without a store, and waits under it for a
// pending store build. The first resolution's classified error is the
// node's for as long as it lives; a later lookup of a failed node reused
// nothing, so it counts and reports as a miss.
func (e *executor) resolve(ctx context.Context, p int, n *node, key ckKey, build func(context.Context) (*core.Flow, error)) (*core.Flow, error) {
	hit := true
	n.once.Do(func() {
		if e.x.Store != nil {
			n.flow, hit, n.err = e.x.Store.getOrBuild(ctx, key, build)
		} else {
			n.flow, n.err = runBuild(ctx, build)
			hit = false
		}
		n.err = core.Classify(e.plan.Points[p].Spec.Cfg.Name, n.err)
	})
	hit = hit && n.err == nil
	kind, c := "synth", &e.rep.SynthRootMisses
	prefix := key.at == core.StagePartition
	switch {
	case prefix && hit:
		kind, c = "prefix", &e.rep.PrefixHits
	case prefix:
		kind, c = "prefix", &e.rep.PrefixMisses
	case hit:
		c = &e.rep.SynthRootHits
	}
	e.count(c)
	e.x.Emit(p, Event{Checkpoint: kind, Hit: hit})
	return n.flow, n.err
}
