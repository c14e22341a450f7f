package netlist_test

import (
	"testing"

	"repro/internal/cell"
	"repro/internal/riscv"
	"repro/internal/tech"
)

// TestRemapAllocatesLikeSnapshot: Remap is a Snapshot whose instances are
// rebound to the target library's same-named cells, so on the 8-register
// core it allocates no more than 1.1x what a Snapshot does. A replay of
// every port and instance allocates several times as much.
func TestRemapAllocatesLikeSnapshot(t *testing.T) {
	nl, _, err := riscv.Generate(cell.NewLibrary(tech.NewFFET()), riscv.Config{Name: "rv", Registers: 8})
	if err != nil {
		t.Fatal(err)
	}
	cfet := cell.NewLibrary(tech.NewCFET())
	snap := testing.AllocsPerRun(5, func() { nl.Snapshot() })
	remap := testing.AllocsPerRun(5, func() {
		if _, err := nl.Remap(cfet); err != nil {
			t.Fatal(err)
		}
	})
	if remap > 1.1*snap {
		t.Errorf("Remap allocates %.0f times, Snapshot %.0f: want at most 1.1x", remap, snap)
	}
}
