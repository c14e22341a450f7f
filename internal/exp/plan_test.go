package exp

import (
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/tech"
)

// TestPlanSweep pins the pure planner: dedupe, memo drop-out, prefix
// grouping and target chaining. It runs no flow, so it also runs under
// -short.
func TestPlanSweep(t *testing.T) {
	ffet := func(target, bp float64) Spec {
		cfg := core.DefaultFlowConfig(tech.Pattern{Front: 12, Back: 12}, target, 0.70)
		cfg.BackPinFraction = bp
		return Spec{tech.FFET, cfg}
	}
	cfet := func(target float64) Spec {
		return Spec{tech.CFET, core.DefaultFlowConfig(tech.Pattern{Front: 12}, target, 0.70)}
	}
	renamed := ffet(1.5, 0.5)
	renamed.Cfg.Name = "renamed"
	under := 1.0 + DiffChainMaxRelGap - 1e-9
	over := 1.0 + DiffChainMaxRelGap + 1e-9

	cases := []struct {
		name   string
		specs  []Spec
		cached map[int]bool
		// want lists, per chain and group, the input indices of each
		// point (its Idxs); a group's first point is its leader.
		want [][][][]int
	}{
		{
			name:  "name-only duplicates dedupe",
			specs: []Spec{ffet(1.5, 0.5), renamed, ffet(1.5, 0.3)},
			want:  [][][][]int{{{{0, 1}, {2}}}},
		},
		{
			name:   "memo hits drop out",
			specs:  []Spec{ffet(1.5, 0.5), ffet(1.5, 0.3), ffet(1.5, 0.1)},
			cached: map[int]bool{1: true},
			want:   [][][][]int{{{{0}, {2}}}},
		},
		{
			name:  "back_pins points share one group",
			specs: []Spec{ffet(1.5, 0.1), ffet(1.5, 0.3), ffet(1.5, 0.5), ffet(1.5, 0.7)},
			want:  [][][][]int{{{{0}, {1}, {2}, {3}}}},
		},
		{
			name:  "FFET and CFET never chain together",
			specs: []Spec{ffet(1.5, 0), cfet(1.5), cfet(1.52)},
			want:  [][][][]int{{{{0}}}, {{{1}}, {{2}}}},
		},
		{
			name:  "targets are ordered",
			specs: []Spec{ffet(1.1, 0.5), ffet(1.0, 0.5), ffet(1.05, 0.5)},
			want:  [][][][]int{{{{1}}, {{2}}, {{0}}}},
		},
		{
			name:  "gap just under the bound stays chained",
			specs: []Spec{ffet(1.0, 0.5), ffet(under, 0.5)},
			want:  [][][][]int{{{{0}}, {{1}}}},
		},
		{
			name:  "gap just over the bound splits",
			specs: []Spec{ffet(1.0, 0.5), ffet(over, 0.5)},
			want:  [][][][]int{{{{0}}}, {{{1}}}},
		},
		{
			name: "target x back_pins grid forms one chain of groups",
			specs: []Spec{
				ffet(1.55, 0.1), ffet(1.55, 0.3),
				ffet(1.5, 0.1), ffet(1.5, 0.3),
				ffet(1.6, 0.1), ffet(1.6, 0.3),
			},
			want: [][][][]int{{{{2}, {3}}, {{0}, {1}}, {{4}, {5}}}},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var asked []int
			pl := PlanSweep(tc.specs, func(i int) bool {
				asked = append(asked, i)
				return tc.cached[i]
			})
			if len(asked) != len(tc.specs) {
				t.Errorf("memo consulted for %v, want every spec once", asked)
			}
			var got [][][][]int
			seen := 0
			for _, chain := range pl.Chains {
				var gs [][][]int
				for _, g := range chain {
					var ps [][]int
					for _, p := range g.Points {
						ps = append(ps, pl.Points[p].Idxs)
						if ClassOf(pl.Points[p].Spec.Arch, pl.Points[p].Spec.Cfg) != g.Class {
							t.Errorf("point %d outside its group's class", p)
						}
						seen++
					}
					gs = append(gs, ps)
				}
				got = append(got, gs)
			}
			if seen != len(pl.Points) {
				t.Errorf("%d points planned, %d in groups", len(pl.Points), seen)
			}
			if !reflect.DeepEqual(got, tc.want) {
				t.Errorf("plan %v, want %v", got, tc.want)
			}
		})
	}
}
