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
// leader, roots and prefixes are built once per call). Which checkpoint
// a point shares is core's to say: roots and prefixes are keyed by, and
// opened under, core.FlowConfig.Before at the stage they resume at. The
// batch tables run it with no checkpoint store and retain nothing staged
// across calls; the serve daemon runs it over a Store, the byte-bounded
// cross-call checkpoint LRU.
package exp

import (
	"context"
	"errors"
	"fmt"
	"io"
	"runtime"
	"strings"
	"sync"

	"repro/internal/cell"
	"repro/internal/core"
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
// and the result memo their tables read. It retains no staged session
// across calls: each sweep shares synthesis roots and prefixes only
// within itself (see Execute).
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
	Ctx     context.Context
	ffetNl  *netlist.Netlist
	cfetNl  *netlist.Netlist
	mu      sync.Mutex
	results map[RunKey]*core.FlowResult
	stats   CacheStats // guarded by mu; MemoEntries unset
}

// CacheStats is a point-in-time snapshot of the suite's result memo and
// the summed executor reports of its sweeps.
type CacheStats struct {
	MemoHits    int64 `json:"memo_hits"`
	MemoMisses  int64 `json:"memo_misses"`
	MemoEntries int   `json:"memo_entries"`
	Report
}

// Stats snapshots the suite's counters.
func (s *Suite) Stats() CacheStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := s.stats
	st.MemoEntries = len(s.results)
	return st
}

// NewSuite builds libraries and the RISC-V benchmark core for both archs.
func NewSuite(scale Scale) (*Suite, error) {
	s := &Suite{
		Scale:   scale,
		FFET:    cell.NewLibrary(tech.NewFFET()),
		CFET:    cell.NewLibrary(tech.NewCFET()),
		results: make(map[RunKey]*core.FlowResult),
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
// router options included — keeps distinct memo entries.
type RunKey struct {
	arch tech.Arch
	cfg  core.FlowConfig
}

// MemoKey builds the memo key of (arch, cfg): the exact-config identity
// under which a completed run may be replayed from cache. The serve
// daemon's result memo uses the same key, so daemon and batch memoization
// can never disagree about which configs are "the same run".
func MemoKey(arch tech.Arch, cfg core.FlowConfig) RunKey {
	cfg.Name = ""
	return RunKey{arch: arch, cfg: cfg}
}

// Run executes (or recalls) one flow run: a one-point sweep.
func (s *Suite) Run(arch tech.Arch, cfg core.FlowConfig) (*core.FlowResult, error) {
	rs, _ := s.runAll([]Spec{{arch, cfg}})
	if err := rs[0].Err; err != nil {
		return nil, err
	}
	return rs[0], nil
}

// runAll runs specs as one batch executor call over the suite's bounded
// goroutine pool, preserving order: memo hits answer directly, the rest
// are planned (PlanSweep) and executed (Execute) with no checkpoint
// store, so nothing staged outlives the call. Forked runs are
// bit-identical to from-scratch runs, so tables are byte-identical to
// the DisablePrefixSharing path at any parallelism.
//
// A dead point (hard error, contained panic, cancellation) lands in the
// table as an error placeholder while its siblings and the memo stay
// healthy. runAll still reports the damage — the returned error joins
// every distinct point error — but callers get the full table either
// way.
func (s *Suite) runAll(specs []Spec) ([]*core.FlowResult, error) {
	out := make([]*core.FlowResult, len(specs))
	plan := PlanSweep(specs, func(i int) bool {
		s.mu.Lock()
		defer s.mu.Unlock()
		out[i] = s.results[MemoKey(specs[i].Arch, specs[i].Cfg)]
		if out[i] == nil {
			s.stats.MemoMisses++
			return false
		}
		s.stats.MemoHits++
		return true
	})
	sem := make(chan struct{}, s.maxParallel())
	rep := s.Execute(plan, Exec{
		Ctx: s.ctx(),
		Admit: func() (func(), error) {
			sem <- struct{}{}
			return func() { <-sem }, nil
		},
		Emit: func(int, Event) {},
		Done: func(p int, res *core.FlowResult, _ *core.Flow, err error) {
			pt := plan.Points[p]
			if err != nil {
				// A dead point's table placeholder: an invalid result
				// carrying the classified error. Never memoized, so a
				// retry after the fault clears gets a clean run.
				res = &core.FlowResult{Config: pt.Spec.Cfg, Arch: pt.Spec.Arch, Reason: "error: " + err.Error(), Err: err}
			} else {
				s.mu.Lock()
				s.results[MemoKey(pt.Spec.Arch, pt.Spec.Cfg)] = res
				s.mu.Unlock()
			}
			for _, i := range pt.Idxs {
				out[i] = res
			}
		},
	})
	s.mu.Lock()
	s.stats.Report.Add(rep)
	s.mu.Unlock()
	// Points a node failure killed share one error value, so the root
	// cause is reported once, not once per sibling.
	var errs []error
	seen := make(map[error]bool)
	for _, pt := range plan.Points {
		if err := out[pt.Idxs[0]].Err; err != nil && !seen[err] {
			seen[err] = true
			errs = append(errs, err)
		}
	}
	return out, errors.Join(errs...)
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
