// Command tracegen extracts bus value traces from the SPEC95-analog
// workloads running on the out-of-order simulator — the paper's §4.1 bus
// timing generators as a standalone tool. A trace file is a BUSTRC05
// container (internal/trace) named after the trace, e.g. "gcc/reg", with
// one 32-bit section named after the bus, or "random"; cmd/transcode
// reads it.
//
// Usage:
//
//	tracegen -workloads                          # list benchmarks
//	tracegen -workload gcc -bus reg -o gcc.trc   # capture a trace
//	tracegen -workload swim -bus mem -stats      # print §4.2 statistics
//	tracegen -random 100000 -o rand.trc          # uniformly random values
package main

import (
	"flag"
	"fmt"
	"os"

	"buspower/internal/trace"
	"buspower/internal/workload"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "tracegen:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		listFlag = flag.Bool("workloads", false, "list available workloads and exit")
		name     = flag.String("workload", "", "workload to simulate")
		bus      = flag.String("bus", "reg", "which bus to capture: reg or mem")
		instrs   = flag.Uint64("instrs", 1_500_000, "max simulated instructions")
		values   = flag.Int("values", 120_000, "max captured bus values")
		random   = flag.Int("random", 0, "emit N uniformly random 32-bit values instead of simulating")
		seed     = flag.Uint64("seed", 1, "seed for -random")
		out      = flag.String("o", "", "output trace file (a one-section BUSTRC05 container); stdout summary if omitted")
		statsF   = flag.Bool("stats", false, "print unique-value CDF and window-uniqueness statistics")
	)
	flag.Parse()

	if *listFlag {
		for _, w := range workload.All() {
			fmt.Printf("%-10s %-8s %s\n", w.Name, w.Suite, w.Description)
		}
		return nil
	}

	var vals []uint32
	label, section := "", ""
	switch {
	case *random > 0:
		vals = make([]uint32, *random)
		for i, v := range workload.RandomTrace(*random, *seed) {
			vals[i] = uint32(v)
		}
		label, section = "random", "random"
	case *name != "":
		if *bus != "reg" && *bus != "mem" {
			return fmt.Errorf("invalid -bus %q (want reg or mem)", *bus)
		}
		tr, err := workload.Resident(*name, workload.RunConfig{
			MaxInstructions: *instrs, MaxBusValues: *values,
		})
		if err != nil {
			return err
		}
		vals = tr.Reg
		if *bus == "mem" {
			vals = tr.Mem
		}
		label, section = *name+"/"+*bus, *bus
		fmt.Fprintf(os.Stderr, "simulated %d instructions in %d cycles (IPC %.2f, L1D miss %.1f%%, branch acc %.1f%%)\n",
			tr.Instructions, tr.Cycles, tr.IPC, 100*tr.L1DMissRate, 100*tr.BranchAccuracy)
	default:
		flag.Usage()
		return fmt.Errorf("need -workload, -random or -workloads")
	}

	fmt.Printf("trace %s: %d values\n", label, len(vals))
	if *statsF {
		c := trace.Characterize(vals, []int{1, 10, 100, 1000, 10000})
		fmt.Printf("unique values: %d (%.2f%% of trace)\n", c.Unique, 100*float64(c.Unique)/float64(c.Values))
		for _, n := range []int{1, 10, 100, 1000, 10000} {
			fmt.Printf("coverage of top %6d values: %.4f\n", n, c.CoverageAt(n))
		}
		for _, w := range []int{1, 10, 100, 1000, 10000} {
			if f, ok := c.WindowUnique[w]; ok && f > 0 {
				fmt.Printf("window %6d unique fraction: %.4f\n", w, f)
			}
		}
	}
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			return err
		}
		c := &trace.Container{Name: label, Sections: []trace.Section{{Name: section, Width: 32, Values: vals}}}
		if err := c.Write(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Printf("wrote %s\n", *out)
	}
	return nil
}
