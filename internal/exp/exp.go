// Package exp contains one runner per table and figure of the paper's
// evaluation (Section IV): workload setup, parameter sweep, baseline and a
// printer that emits the same rows/series the paper reports. The bench
// harness at the repository root and cmd/ffetexp both drive this package.
//
// It also holds the one sweep orchestration every caller shares: the
// pure planner PlanSweep (dedupe by MemoKey, group by the placed prefix
// each point forks, chain groups along the synthesis target) and the
// executor Suite.Execute (leaders diff-fork their chain predecessor or
// fork the group's prefix, siblings fork the prefix alongside their
// leader, roots and prefixes are built once per call), joined by
// Suite.Sweep, the one memoized entry, around the suite's one result
// memo. Which checkpoint a point shares is core's to say: roots and
// prefixes are keyed by, and opened under, core.FlowConfig.Before at the
// stage they resume at. The batch tables sweep with no checkpoint store
// and retain nothing staged across calls; the serve daemon sweeps over a
// Store, the byte-bounded cross-call checkpoint LRU, and shares the
// tables' memo.
package exp

import (
	"container/list"
	"context"
	"errors"
	"fmt"
	"io"
	"runtime"
	"strings"
	"sync"

	"repro/internal/cell"
	"repro/internal/core"
	"repro/internal/faultinject"
	"repro/internal/netlist"
	"repro/internal/riscv"
	"repro/internal/tech"
)

// Scale selects sweep density and workload size. Quick keeps every
// experiment's structure but runs the reduced 16-register core on coarser
// sweeps so the whole suite fits in a test run; Full reproduces the
// paper's sweep resolution on the full RV32 core.
type Scale int

// Scales.
const (
	Quick Scale = iota
	Full
)

// ParseScale returns the scale a name stands for: "quick" or "full".
func ParseScale(name string) (Scale, error) {
	switch name {
	case "quick":
		return Quick, nil
	case "full":
		return Full, nil
	}
	return 0, fmt.Errorf("unknown scale %q (want quick or full)", name)
}

// Table is a printable experiment result.
type Table struct {
	ID     string // e.g. "fig09"
	Title  string
	Header []string
	Rows   [][]string
	Notes  []string
}

// Print renders the table as aligned text.
func (t *Table) Print(w io.Writer) {
	fmt.Fprintf(w, "== %s: %s ==\n", t.ID, t.Title)
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, r := range t.Rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cols []string) {
		parts := make([]string, len(cols))
		for i, c := range cols {
			parts[i] = pad(c, widths[i])
		}
		fmt.Fprintln(w, "  "+strings.Join(parts, "  "))
	}
	line(t.Header)
	for _, r := range t.Rows {
		line(r)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(w, "  note: %s\n", n)
	}
	fmt.Fprintln(w)
}

func pad(s string, w int) string {
	if len(s) >= w {
		return s
	}
	return s + strings.Repeat(" ", w-len(s))
}

// CSV renders the table as RFC 4180 comma-separated text: cells containing
// commas, quotes, or line breaks are quoted, with embedded quotes doubled.
func (t *Table) CSV() string {
	var b strings.Builder
	writeRow := func(cols []string) {
		for i, c := range cols {
			if i > 0 {
				b.WriteByte(',')
			}
			if strings.ContainsAny(c, ",\"\r\n") {
				b.WriteByte('"')
				b.WriteString(strings.ReplaceAll(c, `"`, `""`))
				b.WriteByte('"')
			} else {
				b.WriteString(c)
			}
		}
		b.WriteByte('\n')
	}
	writeRow(t.Header)
	for _, r := range t.Rows {
		writeRow(r)
	}
	return b.String()
}

// Suite owns the libraries and benchmark netlists shared by experiments,
// and the one result memo: the tables, Suite.Run and the serve daemon's
// flows and sweeps all answer through Sweep, which reads and fills it. It
// retains no staged session across calls: each sweep shares synthesis
// roots and prefixes only within itself, unless its caller backs it with
// a Store (see Execute).
type Suite struct {
	Scale Scale
	FFET  *cell.Library
	CFET  *cell.Library
	// MaxParallel bounds the goroutine pool sweep experiments fan their
	// flow runs over (the flow is deterministic and data-race-free, so
	// points are independent). 0 picks min(GOMAXPROCS, 12); 1 forces
	// serial execution. Tables are byte-identical at any setting —
	// results land by sweep index, never by completion order.
	MaxParallel int
	// DisablePrefixSharing forces every sweep point through a full
	// from-scratch flow instead of forking staged sessions at their
	// deepest shared stage. Sharing is purely a work optimization —
	// forked runs are bit-identical to scratch runs — so this knob
	// exists only for differential tests and apples-to-apples
	// benchmarking of the sharing itself.
	DisablePrefixSharing bool
	// Ctx, when non-nil, cancels in-flight sweeps: every flow session a
	// sweep starts runs under it, so a cancel drains the pool within one
	// stage per in-flight point and the cancelled points report
	// core.ErrCancelled in their error cells.
	Ctx    context.Context
	ffetNl *netlist.Netlist
	cfetNl *netlist.Netlist
	mu     sync.Mutex
	memo   memo       // guarded by mu
	stats  CacheStats // guarded by mu; MemoEntries unset
}

// CacheStats is a point-in-time snapshot of the suite's result memo
// (lookups by every Sweep caller, evictions, resident entries) and the
// summed reports of every executor call on the suite.
type CacheStats struct {
	MemoHits      int64 `json:"memo_hits"`
	MemoMisses    int64 `json:"memo_misses"`
	MemoEvictions int64 `json:"memo_evictions"`
	MemoEntries   int   `json:"memo_entries"`
	Report
}

// Stats snapshots the suite's counters.
func (s *Suite) Stats() CacheStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := s.stats
	st.MemoEntries = len(s.memo.entries)
	return st
}

// NewSuite builds libraries and the RISC-V benchmark core for both archs.
func NewSuite(scale Scale) (*Suite, error) {
	s := &Suite{
		Scale: scale,
		FFET:  cell.NewLibrary(tech.NewFFET()),
		CFET:  cell.NewLibrary(tech.NewCFET()),
		memo:  newMemo(maxMemoEntries),
	}
	regs := 32
	if scale == Quick {
		regs = 16
	}
	nlF, _, err := riscv.Generate(s.FFET, riscv.Config{Name: "rv32", Registers: regs})
	if err != nil {
		return nil, err
	}
	s.ffetNl = nlF
	nlC, err := nlF.Remap(s.CFET)
	if err != nil {
		return nil, err
	}
	s.cfetNl = nlC
	return s, nil
}

// Netlist returns the pre-synthesis netlist for an arch.
func (s *Suite) Netlist(arch tech.Arch) *netlist.Netlist {
	if arch == tech.FFET {
		return s.ffetNl
	}
	return s.cfetNl
}

// ctx returns the suite's sweep context.
func (s *Suite) ctx() context.Context {
	if s.Ctx != nil {
		return s.Ctx
	}
	return context.Background()
}

// RunKey is the comparable memo key of a flow run: the architecture and
// the entire FlowConfig (which is comparable) at full float precision,
// minus only the cosmetic Name, which no stage reads. Embedding the
// whole config means every result-affecting field — MaxDRVs and the
// router options included — keeps distinct memo entries, and no field
// has a zero that stands for a default. Router values the router could
// not run as given are refused (route.Options.Validate), so only the CFET
// pin-access lift of core's route stage still runs two distinct configs
// alike: a PinAccessFactor of 1, lifted to 1.5, and 1.5 itself.
type RunKey struct {
	arch tech.Arch
	cfg  core.FlowConfig
}

// MemoKey builds the memo key of (arch, cfg): the exact-config identity
// under which a completed run may be replayed from the suite's memo, and
// under which PlanSweep dedupes a sweep's points.
func MemoKey(arch tech.Arch, cfg core.FlowConfig) RunKey {
	cfg.Name = ""
	return RunKey{arch: arch, cfg: cfg}
}

// maxMemoEntries bounds the suite's result memo: past it the least
// recently used result is evicted. A result holds metrics and no session
// state, so a count bound suffices where the checkpoint store needs
// measured bytes.
const maxMemoEntries = 4096

// memo is an entry-count LRU of completed runs keyed by MemoKey. Error
// placeholders are never put, so a retry after a fault clears gets a
// clean run.
type memo struct {
	max     int
	entries map[RunKey]*list.Element // values are memoEntry
	lru     list.List                // Front = most recent
}

type memoEntry struct {
	key RunKey
	res *core.FlowResult
}

func newMemo(max int) memo {
	return memo{max: max, entries: make(map[RunKey]*list.Element)}
}

// get returns key's result, nil on a miss, and refreshes its recency.
func (m *memo) get(key RunKey) *core.FlowResult {
	el, ok := m.entries[key]
	if !ok {
		return nil
	}
	m.lru.MoveToFront(el)
	return el.Value.(memoEntry).res
}

// put stores res under key, unless key already has a result, and returns
// the number of entries it evicted.
func (m *memo) put(key RunKey, res *core.FlowResult) (evicted int64) {
	if _, ok := m.entries[key]; ok {
		return 0
	}
	m.entries[key] = m.lru.PushFront(memoEntry{key: key, res: res})
	for len(m.entries) > m.max {
		back := m.lru.Back()
		delete(m.entries, back.Value.(memoEntry).key)
		m.lru.Remove(back)
		evicted++
	}
	return evicted
}

// recall looks sp up in the memo and counts the hit or miss. The lookup
// is a fault site: an injected error or panic there becomes sp's
// classified error, and the lookup counts as neither.
func (s *Suite) recall(sp Spec) (res *core.FlowResult, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = core.NewPanicError(sp.Cfg.Name, r)
		}
	}()
	if err := faultinject.Fire("exp.memo"); err != nil {
		return nil, core.Classify(sp.Cfg.Name, err)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if res = s.memo.get(MemoKey(sp.Arch, sp.Cfg)); res == nil {
		s.stats.MemoMisses++
	} else {
		s.stats.MemoHits++
	}
	return res, nil
}

// Sweep is the suite's one memoized sweep entry, shared by the batch
// tables (runAll) and the serve daemon's flows and sweeps: it refuses
// each spec core.FlowConfig.Validate refuses, answers the rest from the
// result memo, plans the misses (PlanSweep), runs the plan as one
// executor call over x, and memoizes every completed run.
//
// x's Emit and Done take spec indices, not plan point indices. A refused
// spec reaches Done with its ErrInvalidConfig error before any work is
// planned for it. A memo hit emits a "memo" checkpoint event, then
// reaches Done with no session; a spec whose lookup faulted reaches Done
// with its classified error. A computed point's progress is tagged with
// the first spec it answers, and its outcome reaches Done once for every
// spec it answers.
func (s *Suite) Sweep(specs []Spec, x Exec) {
	plan := PlanSweep(specs, func(i int) bool {
		sp := specs[i]
		if err := sp.Cfg.Validate(s.Netlist(sp.Arch).Lib.Stack); err != nil {
			x.Done(i, nil, nil, err)
			return true
		}
		res, err := s.recall(sp)
		if res == nil && err == nil {
			return false
		}
		if err == nil {
			x.Emit(i, Event{Checkpoint: "memo", Hit: true})
		}
		x.Done(i, res, nil, err)
		return true
	})
	s.Execute(plan, Exec{Ctx: x.Ctx, Store: x.Store, Admit: x.Admit,
		Emit: func(p int, ev Event) { x.Emit(plan.Points[p].Idxs[0], ev) },
		Done: func(p int, res *core.FlowResult, f *core.Flow, err error) {
			pt := plan.Points[p]
			if err == nil {
				s.mu.Lock()
				s.stats.MemoEvictions += s.memo.put(MemoKey(pt.Spec.Arch, pt.Spec.Cfg), res)
				s.mu.Unlock()
			}
			for _, i := range pt.Idxs {
				x.Done(i, res, f, err)
			}
		},
	})
}

// Run executes (or recalls) one flow run: a one-point sweep.
func (s *Suite) Run(arch tech.Arch, cfg core.FlowConfig) (*core.FlowResult, error) {
	rs, _ := s.runAll([]Spec{{arch, cfg}})
	if err := rs[0].Err; err != nil {
		return nil, err
	}
	return rs[0], nil
}

// runAll runs specs through Sweep over the suite's bounded goroutine
// pool, preserving order, with no checkpoint store, so nothing staged
// outlives the call. Forked runs are bit-identical to from-scratch runs,
// so tables are byte-identical to the DisablePrefixSharing path at any
// parallelism.
//
// A dead point (hard error, contained panic, cancellation) lands in the
// table as an error placeholder while its siblings and the memo stay
// healthy. runAll still reports the damage — the returned error joins
// every distinct point error — but callers get the full table either
// way.
func (s *Suite) runAll(specs []Spec) ([]*core.FlowResult, error) {
	out := make([]*core.FlowResult, len(specs))
	s.Sweep(specs, s.batchExec(func(i int, res *core.FlowResult, _ *core.Flow, err error) {
		if err != nil {
			// A dead point's table placeholder: an invalid result
			// carrying the classified error.
			res = &core.FlowResult{Config: specs[i].Cfg, Arch: specs[i].Arch, Reason: "error: " + err.Error(), Err: err}
		}
		out[i] = res
	}))
	// Points a node failure killed share one error value, so the root
	// cause is reported once, not once per sibling.
	var errs []error
	seen := make(map[error]bool)
	for _, r := range out {
		if err := r.Err; err != nil && !seen[err] {
			seen[err] = true
			errs = append(errs, err)
		}
	}
	return out, errors.Join(errs...)
}

// batchExec is the Exec of one batch executor call: the suite's context,
// a pool of maxParallel slots, no checkpoint store and no progress sink.
func (s *Suite) batchExec(done func(i int, res *core.FlowResult, f *core.Flow, err error)) Exec {
	sem := make(chan struct{}, s.maxParallel())
	return Exec{
		Ctx: s.ctx(),
		Admit: func() (func(), error) {
			sem <- struct{}{}
			return func() { <-sem }, nil
		},
		Emit: func(int, Event) {},
		Done: done,
	}
}

func (s *Suite) maxParallel() int {
	if s.MaxParallel > 0 {
		return s.MaxParallel
	}
	n := runtime.GOMAXPROCS(0)
	if n > 12 {
		n = 12
	}
	if n < 1 {
		n = 1
	}
	return n
}

// utilSweep returns the utilization grid for max-util experiments.
func (s *Suite) utilSweep() []float64 {
	if s.Scale == Quick {
		return []float64{0.68, 0.72, 0.76, 0.80, 0.84, 0.86, 0.88}
	}
	return []float64{0.68, 0.70, 0.72, 0.74, 0.76, 0.78, 0.80, 0.82, 0.84, 0.86, 0.88, 0.90}
}

// freqSweep returns the synthesis-target grid (paper: 0.5 to 3 GHz).
func (s *Suite) freqSweep() []float64 {
	if s.Scale == Quick {
		return []float64{0.5, 1.0, 1.5, 2.0, 3.0}
	}
	return []float64{0.5, 0.75, 1.0, 1.25, 1.5, 2.0, 2.5, 3.0}
}

func f1(v float64) string  { return fmt.Sprintf("%.1f", v) }
func f2(v float64) string  { return fmt.Sprintf("%.2f", v) }
func f3s(v float64) string { return fmt.Sprintf("%.3f", v) }
func pc(v float64) string  { return fmt.Sprintf("%+.1f%%", v) }
