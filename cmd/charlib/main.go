// Command charlib characterizes and dumps the standard-cell library for
// a node: the master inventory and, for one master, the NLDM delay/slew
// tables across the dose-variant grid — the data the paper's coefficient
// fitting consumes.
//
// Usage:
//
//	charlib [-node N65] [-master INVX1] [-tables] [-workers 0]
package main

import (
	"flag"
	"fmt"
	"time"

	"repro/internal/cli"
	"repro/internal/liberty"
	"repro/internal/tech"
)

func main() {
	nodeName := flag.String("node", "N65", "technology node: N65 or N90")
	master := flag.String("master", "INVX1", "master to dump NLDM tables for")
	tables := flag.Bool("tables", false, "dump dose-variant NLDM tables for -master")
	com := cli.AddFlags("charlib")
	flag.Parse()
	com.Init()
	defer com.Close()

	ctx := com.Context()
	start := time.Now()

	node, err := tech.ByName(*nodeName)
	com.Check(err)
	lib := liberty.New(node)
	fmt.Printf("library %s: %d combinational + %d sequential masters\n",
		node.Name, len(lib.CombMasters()), len(lib.SeqMasters()))
	fmt.Printf("%-10s %-6s %-4s %-8s %-8s %-10s %-10s\n",
		"master", "func", "in", "drive", "area", "cin (fF)", "leak (nW)")
	for _, m := range lib.Masters {
		fmt.Printf("%-10s %-6s %-4d %-8.1f %-8.2f %-10.2f %-10.2f\n",
			m.Name, m.Func, m.Inputs, m.Drive, m.Area, m.CIn, m.Leakage(0, 0, 0))
	}

	if !*tables {
		com.Finish("charlib "+node.Name, 1, 0, com.Workers, time.Since(start))
		return
	}
	m, ok := lib.Master(*master)
	if !ok {
		com.Fatalf("unknown master %q", *master)
	}
	fmt.Printf("\nNLDM tables for %s across the 21 poly-dose variants:\n", m.Name)
	variants, err := liberty.Characterize(ctx, []*liberty.Master{m}, liberty.DoseSteps(), com.Workers)
	com.Check(err)
	for _, v := range variants {
		tab := v.Table
		fmt.Printf("\ndose %+.1f%% (ΔL = %+.1f nm), leakage %.2f nW\n", v.Dose, v.DL, v.Leak)
		fmt.Printf("%8s", "slew\\load")
		for _, c := range tab.Loads {
			fmt.Printf(" %7.1f", c)
		}
		fmt.Println()
		for i, s := range tab.Slews {
			fmt.Printf("%8.1f ", s)
			for j := range tab.Loads {
				fmt.Printf("%7.2f ", tab.Delay[i][j])
			}
			fmt.Println()
		}
	}
	com.Finish("charlib "+node.Name, 1, 0, com.Workers, time.Since(start))
}
