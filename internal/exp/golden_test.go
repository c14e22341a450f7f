package exp

import (
	"bytes"
	"crypto/sha256"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

// -update rewrites testdata/quick_tables.txt from a fresh Quick pass.
var updateTables = flag.Bool("update", false, "rewrite the Quick table golden")

// TestQuickTablesGolden pins every table's bytes: one fresh Quick suite
// prints each experiment in ExperimentIDs order, and the text must equal
// the committed golden. Forked runs are bit-identical to scratch runs, so
// no change to how the tables share work may move a byte; the checkpoint
// counts pin the sharing itself.
func TestQuickTablesGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("every table's flows in -short mode")
	}
	s := quickSuite(t)
	var got bytes.Buffer
	for _, id := range ExperimentIDs() {
		run, _ := s.Experiment(id)
		tab, err := run()
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		tab.Print(&got)
	}
	path := filepath.Join("testdata", "quick_tables.txt")
	if *updateTables {
		if err := os.WriteFile(path, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Errorf("Quick tables differ from %s (sha256 %x, golden %x):\n%s",
			path, sha256.Sum256(got.Bytes()), sha256.Sum256(want), got.String())
	}
	// What the pass shares: the 106 distinct memoized points and the mc
	// table's two flows fork 46 prefixes off 17 synthesis roots.
	if st := s.Stats(); st.SynthRootMisses != 17 || st.PrefixMisses != 46 {
		t.Errorf("pass built %d synthesis roots and %d prefixes, want 17 and 46", st.SynthRootMisses, st.PrefixMisses)
	}
}
