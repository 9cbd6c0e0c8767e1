// Command transcode applies one coding scheme to a bus trace and reports
// the activity and energy consequences: transitions, coupling events,
// normalized energy removed, and — for the window design — break-even
// wire lengths per technology.
//
// The scheme is written in the grammar /v1/eval and buspower accept
// (coding.ParseSchemeSpec): kind[:key=value,...]. -lambda is the Λ the
// meters are read at; the coder's own assumed Λ is the spec's lambda=
// key (default 1).
//
// Usage:
//
//	transcode -coder window:entries=8 -in gcc.trc
//	transcode -coder context:table=32,sr=8 -workload gcc -bus reg
//	transcode -coder businvert:lambda=0.67 -workload swim -bus mem -lambda 0.67
package main

import (
	"flag"
	"fmt"
	"math"
	"os"
	"strings"

	"buspower/internal/circuit"
	"buspower/internal/coding"
	"buspower/internal/energy"
	"buspower/internal/trace"
	"buspower/internal/wire"
	"buspower/internal/workload"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "transcode:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		coder  = flag.String("coder", "window:entries=8", "coding scheme, kind[:key=value,...] (kinds: "+strings.Join(coding.SchemeKinds(), ", ")+")")
		in     = flag.String("in", "", "input trace file (from tracegen: a one-section BUSTRC05 container)")
		name   = flag.String("workload", "", "simulate this workload instead of reading a file")
		bus    = flag.String("bus", "reg", "bus to capture with -workload: reg or mem")
		lambda = flag.Float64("lambda", 1.0, "coupling ratio Λ the meters are read at (the coder's assumed Λ is the scheme's lambda= key)")
		instrs = flag.Uint64("instrs", 1_500_000, "max simulated instructions with -workload")
		values = flag.Int("values", 120_000, "max bus values with -workload")
	)
	flag.Parse()

	if *in == "" && *name == "" {
		flag.Usage()
		return fmt.Errorf("need -in or -workload")
	}
	label, vals, err := load(*in, *name, *bus, workload.RunConfig{MaxInstructions: *instrs, MaxBusValues: *values})
	if err != nil {
		return err
	}

	spec, err := coding.ParseSchemeSpec(*coder)
	if err != nil {
		return err
	}
	tc, err := spec.Build()
	if err != nil {
		return err
	}
	res, err := coding.Evaluate(tc, vals, *lambda)
	if err != nil {
		return err
	}
	fmt.Printf("trace:          %s (%d values)\n", label, len(vals))
	fmt.Printf("coder:          %s (%d -> %d wires)\n", res.Scheme, res.DataWidth, res.CodedWidth)
	fmt.Printf("raw activity:   %d transitions, %d coupling events\n", res.Raw.Transitions(), res.Raw.Couplings())
	fmt.Printf("coded activity: %d transitions, %d coupling events\n", res.Coded.Transitions(), res.Coded.Couplings())
	fmt.Printf("energy removed: %.2f%% (Λ=%g)\n", 100*res.EnergyRemoved(), *lambda)

	if spec.Kind == "window" && res.Ops.Cycles > 0 {
		fmt.Println("\nbreak-even wire lengths (window design):")
		for _, tech := range wire.Technologies() {
			a, err := energy.NewAnalysis(tech, res, circuit.WindowDesign, spec.Entries)
			if err != nil {
				return err
			}
			x := a.CrossoverMM()
			if math.IsInf(x, 1) {
				fmt.Printf("  %-8s never (coding does not pay on this trace)\n", tech.Name)
			} else {
				fmt.Printf("  %-8s %6.1f mm  (transcoder pair %.2f pJ/cycle)\n", tech.Name, x, a.PairEnergyPerCyclePJ())
			}
		}
	}
	return nil
}

// load returns the trace to transcode and its label: the trace file in
// when it is set, else bus (reg or mem) of workload name simulated under
// run.
func load(in, name, bus string, run workload.RunConfig) (string, []uint32, error) {
	if in != "" {
		return readTrace(in)
	}
	if bus != "reg" && bus != "mem" {
		return "", nil, fmt.Errorf("invalid -bus %q (want reg or mem)", bus)
	}
	tr, err := workload.Resident(name, run)
	if err != nil {
		return "", nil, err
	}
	if bus == "mem" {
		return name + "/" + bus, tr.Mem, nil
	}
	return name + "/" + bus, tr.Reg, nil
}

// readTrace reads a trace file as cmd/tracegen writes it: a BUSTRC05
// container holding exactly one plain section, labelled with the
// container's name. The container's checksum and bounds are checked by
// the same parser the disk trace cache uses.
func readTrace(path string) (string, []uint32, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return "", nil, err
	}
	c, err := trace.ParseContainer(data)
	if err != nil {
		return "", nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(c.Sections) != 1 {
		return "", nil, fmt.Errorf("%s: %d sections, want the one a trace file holds", path, len(c.Sections))
	}
	s := c.Sections[0]
	if s.Packed != nil {
		return "", nil, fmt.Errorf("%s: section %s is packed, want plain values", path, s.Name)
	}
	return c.Name, s.Values, nil
}
