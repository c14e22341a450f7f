// Command cellgen prints the generated standard-cell libraries: Fig. 4 area
// comparison, Table I characterization diffs, and optional LEF/.lib dumps.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"

	"repro/internal/cell"
	"repro/internal/cliutil"
	"repro/internal/lef"
	"repro/internal/tech"
)

func main() {
	outDir := flag.String("out", "", "write <arch>.lib and <arch>.lef files here")
	flag.Parse()
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	ffet := cell.NewLibrary(tech.NewFFET())
	cfet := cell.NewLibrary(tech.NewCFET())
	fmt.Println("== Fig 4: area gain w.r.t 4T CFET ==")
	for _, name := range ffet.CellNames() {
		f, c := ffet.Cell(name), cfet.Cell(name)
		gain := 100 * (1 - f.AreaUm2(ffet.Stack)/c.AreaUm2(cfet.Stack))
		fmt.Printf("%-10s FFET %.4f um2  CFET %.4f um2  gain %+.1f%%\n", name, f.AreaUm2(ffet.Stack), c.AreaUm2(cfet.Stack), gain)
	}
	fmt.Println("== Table I: KPI diff of FFET vs CFET (slew=20ps, load=1fF*drive) ==")
	for _, name := range []string{"INVD1", "INVD2", "INVD4", "BUFD1", "BUFD2", "BUFD4"} {
		f, c := ffet.Cell(name), cfet.Cell(name)
		slew, load := 20.0, 1.0*float64(f.Drive)
		fa, ca := f.Arc("I"), c.Arc("I")
		d := func(x, y float64) float64 { return 100 * (x/y - 1) }
		fe := fa.EnergyRise.Lookup(slew, load) + fa.EnergyFall.Lookup(slew, load)
		ce := ca.EnergyRise.Lookup(slew, load) + ca.EnergyFall.Lookup(slew, load)
		fmt.Printf("%-6s transPwr %+6.1f%%  riseT %+6.1f%%  fallT %+6.1f%%  riseS %+6.1f%%  fallS %+6.1f%%  leak %+6.1f%%\n",
			name,
			d(fe, ce),
			d(fa.DelayRise.Lookup(slew, load), ca.DelayRise.Lookup(slew, load)),
			d(fa.DelayFall.Lookup(slew, load), ca.DelayFall.Lookup(slew, load)),
			d(fa.SlewRise.Lookup(slew, load), ca.SlewRise.Lookup(slew, load)),
			d(fa.SlewFall.Lookup(slew, load), ca.SlewFall.Lookup(slew, load)),
			d(f.LeakageNW, c.LeakageNW))
	}
	inv := ffet.Cell("INVD1")
	fo4 := inv.Arc("I").DelayFall.Lookup(20, 4*inv.InputCap("I"))
	fmt.Printf("FFET INVD1 FO4-ish fall delay: %.2f ps, Cin=%.3f fF\n", fo4, inv.InputCap("I"))
	dff := ffet.Cell("DFFD1")
	fmt.Printf("FFET DFF clkq %.2f ps setup %.2f | CFET clkq %.2f setup %.2f\n",
		dff.Seq.ClkQWorst(20, 1), dff.Seq.SetupPs,
		cfet.Cell("DFFD1").Seq.ClkQWorst(20, 1), cfet.Cell("DFFD1").Seq.SetupPs)

	if *outDir != "" {
		// Don't start writing library files into an interrupted run's
		// output directory.
		if ctx.Err() != nil {
			fmt.Fprintln(os.Stderr, "interrupted: skipping library dump")
			os.Exit(1)
		}
		if err := os.MkdirAll(*outDir, 0o755); err != nil {
			cliutil.Fail("cellgen", err)
		}
		for _, lib := range []*cell.Library{ffet, cfet} {
			name := "ffet"
			if lib.Arch == tech.CFET {
				name = "cfet"
			}
			if err := cliutil.WriteFile(filepath.Join(*outDir, name+".lib"), func(w io.Writer) error {
				return cell.WriteLiberty(w, lib)
			}); err != nil {
				cliutil.Fail("cellgen", err)
			}
			if err := cliutil.WriteFile(filepath.Join(*outDir, name+".lef"), func(w io.Writer) error {
				return lef.Write(w, lib, lef.SideConfig{})
			}); err != nil {
				cliutil.Fail("cellgen", err)
			}
			fmt.Printf("wrote %s/%s.{lib,lef}\n", *outDir, name)
		}
	}
}
