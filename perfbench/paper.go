package main

import (
	"bytes"
	"fmt"
	"time"

	"repro/internal/exp"
)

// staticTables are the experiments that run no flow of their own
// (characterization tables, or views over results earlier tables
// memoized); their times are reported together as exp.static_s.
var staticTables = map[string]bool{"fig04": true, "table1": true, "table2": true, "fig08b": true, "fig13": true}

// paperWL regenerates every table and figure of the evaluation at Quick
// scale. Its input is the paper's fixed grid, so the seed does not apply.
type paperWL struct {
	next *exp.Suite // set-up suite for the next pass
	ref  [][]byte   // the first pass's rendered tables, in report order
}

func (w *paperWL) setup(*bench) error {
	s, err := exp.NewSuite(exp.Quick)
	w.next = s
	return err
}

func (w *paperWL) teardown() { w.next = nil }

func (w *paperWL) run(b *bench) error {
	b.digestNote = "over every table of one pass (every pass must match)"
	for i := 0; b.more(i); i++ {
		if w.next == nil {
			if err := w.setup(b); err != nil {
				return err
			}
		}
		suite := w.next
		w.next = nil
		if err := w.pass(b, suite, b.tracedUnit(i)); err != nil {
			return err
		}
	}
	return nil
}

// pass runs every experiment once on a fresh suite.
func (w *paperWL) pass(b *bench, s *exp.Suite, traced bool) error {
	ph, tr := b.phaseFor(traced)
	var probe *rtProbe
	if traced {
		probe = startRT()
	}
	root := tr.open("paper.pass", 0, tr.request())
	var texts [][]byte
	t0 := time.Now()
	for _, id := range exp.ExperimentIDs() {
		run, ok := s.Experiment(id)
		if !ok {
			return fmt.Errorf("unknown experiment %q", id)
		}
		sp := tr.open("exp."+id, root, tr.request())
		ts := time.Now()
		t, err := run()
		d := time.Since(ts).Seconds()
		tr.close(sp)
		b.attempted++
		if err != nil {
			b.fail("%s: %v", id, err)
		}
		var buf bytes.Buffer
		if t != nil {
			t.Print(&buf)
		}
		texts = append(texts, buf.Bytes())
		key := "exp." + id + "_s"
		if staticTables[id] {
			key = "exp.static_s"
		}
		ph.layer[key] += d
		if id == "mc" && t != nil {
			ph.mcRates = append(ph.mcRates, float64(mcTableSamples(t))/d)
		}
	}
	wall := time.Since(t0).Seconds()
	tr.close(root)
	if probe != nil {
		probe.finish(&ph.rt)
	}
	ph.opLat = append(ph.opLat, wall)
	ph.ops++
	ph.opRates = append(ph.opRates, 1/wall)
	ph.wall += wall
	ph.units++

	st := s.Stats()
	ph.layer["exp.points"] += float64(st.MemoEntries)
	ph.layer["exp.memo_hits"] += float64(st.MemoHits)
	ph.layer["exp.memo_lookups"] += float64(st.MemoHits + st.MemoMisses)
	ph.layer["exp.synth_root_hits"] += float64(st.SynthRootHits)
	ph.layer["exp.synth_root_lookups"] += float64(st.SynthRootHits + st.SynthRootMisses)
	ph.layer["exp.diff_forks"] += float64(st.DiffForks)
	ph.layer["exp.diff_fallbacks"] += float64(st.DiffFallbacks)
	ph.layer["exp.full_synth_forks"] += float64(st.FullSynthForks)

	if w.ref == nil {
		w.ref = texts
		for _, t := range texts {
			b.digest.Write(t)
		}
		return nil
	}
	for i, id := range exp.ExperimentIDs() {
		if !bytes.Equal(texts[i], w.ref[i]) {
			b.mismatch("%s differs from the first pass", id)
		}
	}
	return nil
}

// mcTableSamples reads the per-variant sample count from the mc table's
// first note ("2048 samples, ...") and multiplies it by its rows.
func mcTableSamples(t *exp.Table) int {
	var n int
	if len(t.Notes) == 0 {
		return 0
	}
	if _, err := fmt.Sscanf(t.Notes[0], "%d samples", &n); err != nil {
		return 0
	}
	return n * len(t.Rows)
}

// gate regenerates every table with prefix sharing disabled — every
// sweep point a from-scratch flow — and requires byte-identical text.
func (w *paperWL) gate(b *bench) error {
	s, err := exp.NewSuite(exp.Quick)
	if err != nil {
		return err
	}
	s.DisablePrefixSharing = true
	for i, id := range exp.ExperimentIDs() {
		run, _ := s.Experiment(id)
		t, err := run()
		if err != nil {
			return fmt.Errorf("reference %s: %w", id, err)
		}
		var buf bytes.Buffer
		t.Print(&buf)
		if !bytes.Equal(buf.Bytes(), w.ref[i]) {
			return fmt.Errorf("%s differs from the DisablePrefixSharing reference", id)
		}
	}
	b.note("gate: %d tables byte-identical to the DisablePrefixSharing reference", len(exp.ExperimentIDs()))
	return nil
}
