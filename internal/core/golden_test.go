package core

import (
	"bytes"
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/def"
	"repro/internal/netlist"
	"repro/internal/tech"
)

// -update regenerates the golden artifacts. The committed files were
// captured before the PinID refactor (string pin identities) and have
// not been regenerated since, so a clean run proves that neither the
// string-free identities nor extraction's sink-index accumulation order
// (the string-keyed flow summed sinks in pin-name order) changes a DEF
// byte or a FlowResult metric on these configs.
var updateGolden = flag.Bool("update", false, "rewrite golden flow artifacts")

// goldenConfigs spans the paper's main knobs: dual-sided vs single-sided
// patterns, both architectures, several pin-density fractions and seeds.
var goldenConfigs = []struct {
	name    string
	arch    tech.Arch
	pattern tech.Pattern
	bp      float64
	tgt     float64
	util    float64
	seed    int64
}{
	{"ffet_fm12bm12_bp50", tech.FFET, tech.Pattern{Front: 12, Back: 12}, 0.5, 1.5, 0.70, 1},
	{"ffet_fm6bm6_bp50", tech.FFET, tech.Pattern{Front: 6, Back: 6}, 0.5, 1.5, 0.72, 4},
	{"ffet_fm12_front", tech.FFET, tech.Pattern{Front: 12}, 0, 1.5, 0.70, 2},
	{"cfet_fm12", tech.CFET, tech.Pattern{Front: 12}, 0, 1.5, 0.70, 1},
	{"ffet_fm8bm4_bp16", tech.FFET, tech.Pattern{Front: 8, Back: 4}, 0.16, 2.0, 0.68, 3},
}

// flowArtifact renders a finished session's complete observable outcome:
// every FlowResult metric at full float precision plus the SHA-256 of the
// front, back and merged DEF texts Flow.DEF renders (the DEFs themselves
// are too large to commit per config; the hash pins them byte-for-byte).
func flowArtifact(t *testing.T, f *Flow) string {
	t.Helper()
	res := f.Result()
	var b strings.Builder
	g := func(k string, v float64) { fmt.Fprintf(&b, "%s %.17g\n", k, v) }
	d := func(k string, v int) { fmt.Fprintf(&b, "%s %d\n", k, v) }
	fmt.Fprintf(&b, "valid %v\n", res.Valid)
	fmt.Fprintf(&b, "reason %q\n", res.Reason)
	g("core_area_um2", res.CoreAreaUm2)
	fmt.Fprintf(&b, "core_wh_nm %d %d\n", res.CoreW, res.CoreH)
	g("real_util", res.RealUtilization)
	g("cell_area_um2", res.CellAreaUm2)
	g("hpwl_um", res.HPWLUm)
	g("wirelen_front_um", res.WirelenFrontUm)
	g("wirelen_back_um", res.WirelenBackUm)
	d("drvs_front", res.DRVsFront)
	d("drvs_back", res.DRVsBack)
	d("vias", res.Vias)
	d("cts_buffers", res.CTSBuffers)
	d("synth_buffers", res.SynthBuffers)
	d("rerouted", res.Rerouted)
	g("achieved_ghz", res.AchievedFreqGHz)
	g("min_period_ps", res.MinPeriodPs)
	g("power_uw", res.PowerUW)
	g("eff_ghz_per_w", res.EffGHzPerW)
	fmt.Fprintf(&b, "pin_stats %d %d %d %d\n",
		res.PinStats.FrontNets, res.PinStats.BackNets,
		res.PinStats.FrontPins, res.PinStats.BackPins)
	var front, back, merged *def.Design
	if f.NextStage() > StageRoute {
		var err error
		if front, back, merged, err = f.DEF(); err != nil {
			t.Fatalf("render DEF: %v", err)
		}
	}
	hash := func(k string, dd *def.Design) {
		if dd == nil {
			// Runs halted before routing have no layout; keep the row
			// so partial results stay comparable.
			fmt.Fprintf(&b, "%s_def nil\n", k)
			return
		}
		var buf bytes.Buffer
		if err := dd.Write(&buf); err != nil {
			t.Fatalf("write %s DEF: %v", k, err)
		}
		fmt.Fprintf(&b, "%s_def sha256:%x bytes:%d wirelen_nm:%d\n",
			k, sha256.Sum256(buf.Bytes()), buf.Len(), dd.TotalWirelengthNm())
	}
	hash("front", front)
	hash("back", back)
	hash("merged", merged)
	return b.String()
}

// scratchRun runs cfg the way RunFlow does (a one-shot session that keeps
// no fork checkpoints) and returns the finished session, so tests can
// render its layout.
func scratchRun(t *testing.T, nl *netlist.Netlist, cfg FlowConfig) *Flow {
	t.Helper()
	f, err := newFlow(nl, cfg, false)
	if err != nil {
		t.Fatalf("newFlow: %v", err)
	}
	if _, err := f.Run(); err != nil {
		t.Fatalf("run: %v", err)
	}
	return f
}

// TestFlowGolden locks the DEF text Flow.DEF renders for a one-shot run
// and every FlowResult metric to artifacts captured before the
// string-free PinID refactor.
// Any byte of drift in the front/back/merged DEF or any metric ULP is a
// failure: the pin-identity representation must not be observable.
func TestFlowGolden(t *testing.T) {
	for _, gc := range goldenConfigs {
		t.Run(gc.name, func(t *testing.T) {
			lib := ffetLib
			if gc.arch == tech.CFET {
				lib = cfetLib
			}
			nl := smallCore(t, lib)
			cfg := DefaultFlowConfig(gc.pattern, gc.tgt, gc.util)
			cfg.BackPinFraction = gc.bp
			cfg.Seed = gc.seed
			got := flowArtifact(t, scratchRun(t, nl, cfg))
			path := filepath.Join("testdata", "golden_"+gc.name+".txt")
			if *updateGolden {
				if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing golden (run with -update): %v", err)
			}
			if got != string(want) {
				t.Errorf("flow artifact drifted from golden:\n--- want\n%s--- got\n%s", want, got)
			}
		})
	}
}

// TestFrontBackDEFGoldenText keeps one full DEF pair as committed text
// (not just a hash) so drift is diffable: the smallest config's front and
// back DEF bodies, byte for byte.
func TestFrontBackDEFGoldenText(t *testing.T) {
	nl := smallCore(t, ffetLib)
	cfg := DefaultFlowConfig(tech.Pattern{Front: 6, Back: 6}, 1.5, 0.72)
	cfg.BackPinFraction = 0.5
	cfg.Seed = 4
	front, back, _, err := scratchRun(t, nl, cfg).DEF()
	if err != nil {
		t.Fatal(err)
	}
	for _, side := range []struct {
		name string
		d    *def.Design
	}{{"front", front}, {"back", back}} {
		var buf bytes.Buffer
		if err := side.d.Write(&buf); err != nil {
			t.Fatal(err)
		}
		path := filepath.Join("testdata", "golden_def_"+side.name+".def")
		if *updateGolden {
			if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("missing golden (run with -update): %v", err)
		}
		if !bytes.Equal(buf.Bytes(), want) {
			t.Errorf("%s DEF text drifted from golden (%d vs %d bytes)",
				side.name, buf.Len(), len(want))
		}
	}
}
