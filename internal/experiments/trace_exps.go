package experiments

import (
	"fmt"

	"buspower/internal/stats"
	"buspower/internal/workload"
)

// fig7Benchmarks are the four benchmarks the paper's Figures 7-8 examine.
var fig7Benchmarks = []string{"gcc", "su2cor", "swim", "turb3d"}

func init() {
	register(Runner{
		ID:    "fig7",
		Title: "CDF of most frequent unique values in 10M-value traces (Figure 7)",
		Run:   runFig7,
	})
	register(Runner{
		ID:    "fig8",
		Title: "Average fraction of unique values within a window vs window size (Figure 8)",
		Run:   runFig8,
	})
}

// busTrace fetches one bus of a workload's traffic: for the data buses,
// the trace cache's resident 32-bit stream, shared and read-only; for the
// address bus, which the cache keeps packed, a fresh decoded copy.
func busTrace(name, bus string, run workload.RunConfig) ([]uint32, error) {
	tr, err := workload.Resident(name, run)
	if err != nil {
		return nil, err
	}
	switch bus {
	case "reg":
		return tr.Reg, nil
	case "mem":
		return tr.Mem, nil
	case "addr":
		return tr.Addr()
	default:
		return nil, fmt.Errorf("unknown bus %q", bus)
	}
}

func runFig7(cfg Config) (*Table, error) {
	counts := []int{1, 10, 100, 1000, 10000, 100000}
	if cfg.Quick {
		counts = []int{1, 10, 100, 1000}
	}
	t := &Table{
		ID:      "fig7",
		Title:   "Fraction of total trace covered by the N most frequent unique values",
		Columns: []string{"benchmark", "bus", "unique_values", "coverage"},
	}
	pairs := benchBusPairs(fig7Benchmarks)
	err := gatherRows(t, cfg, len(pairs), func(i int, out *Table) error {
		name, bus := pairs[i].name, pairs[i].bus
		tr, err := busTrace(name, bus, cfg.Run)
		if err != nil {
			return err
		}
		cdf := stats.FrequencyCDF(tr)
		for _, n := range counts {
			out.AddRow(name, bus, n, stats.CoverageAt(cdf, n))
		}
		return nil
	})
	return t, err
}

// benchBusPairs flattens the (benchmark, bus) double loop the §4.2 trace
// statistics share, in the serial traversal's order.
type benchBus struct{ name, bus string }

func benchBusPairs(names []string) []benchBus {
	out := make([]benchBus, 0, 2*len(names))
	for _, name := range names {
		for _, bus := range []string{"reg", "mem"} {
			out = append(out, benchBus{name, bus})
		}
	}
	return out
}

func runFig8(cfg Config) (*Table, error) {
	windows := []int{1, 4, 10, 40, 100, 400, 1000, 4000, 10000}
	if cfg.Quick {
		windows = []int{1, 10, 100, 1000}
	}
	t := &Table{
		ID:      "fig8",
		Title:   "Average fraction of values unique within a sliding window",
		Columns: []string{"benchmark", "bus", "window", "unique_fraction"},
	}
	pairs := benchBusPairs(fig7Benchmarks)
	err := gatherRows(t, cfg, len(pairs), func(i int, out *Table) error {
		name, bus := pairs[i].name, pairs[i].bus
		tr, err := busTrace(name, bus, cfg.Run)
		if err != nil {
			return err
		}
		prof := stats.NewWindowUniqueProfile(tr)
		for _, w := range windows {
			if w > len(tr) {
				continue
			}
			out.AddRow(name, bus, w, prof.Fraction(w))
		}
		return nil
	})
	return t, err
}
