package experiments

import (
	"fmt"

	"buspower/internal/coding"
	"buspower/internal/workload"
)

// busWidth is the data width of the paper's studied buses.
const busWidth = 32

// evalLambda is the coupling ratio assumed in §4.4's coding-effectiveness
// studies ("unless otherwise noted, Λ = 1").
const evalLambda = 1.0

// randomSeed feeds the uniformly random comparison trace.
const randomSeed = 20031294 // the report number

func init() {
	register(Runner{ID: "fig15", Title: "Inversion coder: normalized energy remaining vs actual Λ (Figure 15)", Run: runFig15})
	register(Runner{ID: "fig16", Title: "Strided predictor: normalized energy removed vs strides, memory bus (Figure 16)", Run: strideSweep("fig16", "mem")})
	register(Runner{ID: "fig17", Title: "Strided predictor: normalized energy removed vs strides, register bus (Figure 17)", Run: strideSweep("fig17", "reg")})
	register(Runner{ID: "fig18", Title: "Window transcoder: energy removed vs shift register size, memory bus (Figure 18)", Run: windowSweep("fig18", "mem")})
	register(Runner{ID: "fig19", Title: "Window transcoder: energy removed vs shift register size, register bus (Figure 19)", Run: windowSweep("fig19", "reg")})
	register(Runner{ID: "fig20", Title: "Context transcoder (transition-based): energy removed vs table size, memory bus (Figure 20)", Run: contextSweep("fig20", "mem", true)})
	register(Runner{ID: "fig21", Title: "Context transcoder (transition-based): energy removed vs table size, register bus (Figure 21)", Run: contextSweep("fig21", "reg", true)})
	register(Runner{ID: "fig22", Title: "Context transcoder (value-based): energy removed vs table size, memory bus (Figure 22)", Run: contextSweep("fig22", "mem", false)})
	register(Runner{ID: "fig23", Title: "Context transcoder (value-based): energy removed vs table size, register bus (Figure 23)", Run: contextSweep("fig23", "reg", false)})
	register(Runner{ID: "fig24", Title: "Context transcoder: energy removed vs shift register size, tables of 16 and 64 (Figure 24)",
		Run: contextAxisSweep("fig24", "Energy removed vs shift register size on the register bus (value-based, tables of 16 and 64)",
			"shift_register_size", []int{2, 4, 8, 12, 16, 24, 32}, []int{4, 8, 16},
			func(c *coding.ContextConfig, v int) { c.ShiftEntries = v })})
	register(Runner{ID: "fig25", Title: "Context transcoder: energy removed vs counter divide period, tables of 16 and 64 (Figure 25)",
		Run: contextAxisSweep("fig25", "Energy removed vs counter divide period on the register bus (value-based, shift register size 8)",
			"divide_period", []int{4, 16, 64, 256, 1024, 4096, 16384}, []int{16, 1024, 16384},
			func(c *coding.ContextConfig, v int) { c.DividePeriod = v })})
}

// sweepRows runs a builder over every workload (plus the random source)
// and a parameter axis, emitting one row per (source, parameter). Sources
// are evaluated concurrently when the engine is attached; row order is
// the serial traversal's regardless. Each source's parameter family goes
// through the grid engine in one pass, so e.g. a stride sweep encodes the
// trace once for all bank depths instead of once per depth.
func sweepRows(t *Table, busName string, cfg Config, params []int, includeRandom bool,
	build func(param int) (coding.Transcoder, error)) error {
	sources := workload.Names()
	if includeRandom {
		sources = append([]string{randomSource}, sources...)
	}
	n := cfg.Run.MaxBusValues
	if n <= 0 {
		n = 100_000
	}
	return gatherRows(t, cfg, len(sources), func(i int, out *Table) error {
		src := sources[i]
		id := workloadTraceID(src, busName, cfg)
		if src == randomSource {
			id = randomTraceID(n)
		}
		points := make([]gridPoint, len(params))
		for k, p := range params {
			tc, err := build(p)
			if err != nil {
				return err
			}
			points[k] = gridPoint{tc: tc, lambda: evalLambda}
		}
		results, err := evalGridPoints(points, id, cfg)
		if err != nil {
			return err
		}
		for k, p := range params {
			out.AddRow(src, p, 100*results[k].EnergyRemoved())
		}
		return nil
	})
}

func strideSweep(id, bus string) func(Config) (*Table, error) {
	return func(cfg Config) (*Table, error) {
		params := []int{1, 2, 3, 4, 5, 8, 10, 15, 20, 25, 30}
		if cfg.Quick {
			params = []int{2, 5, 15, 30}
		}
		t := &Table{
			ID:      id,
			Title:   "Normalized energy removed by the strided predictor (" + bus + " bus)",
			Columns: []string{"benchmark", "strides", "energy_removed_pct"},
		}
		err := sweepRows(t, bus, cfg, params, true, func(p int) (coding.Transcoder, error) {
			return coding.NewStride(busWidth, p, evalLambda)
		})
		return t, err
	}
}

func windowSweep(id, bus string) func(Config) (*Table, error) {
	return func(cfg Config) (*Table, error) {
		params := []int{2, 4, 8, 12, 16, 24, 32, 48, 64}
		if cfg.Quick {
			params = []int{4, 8, 32}
		}
		t := &Table{
			ID:      id,
			Title:   "Normalized energy removed by the window-based transcoder (" + bus + " bus)",
			Columns: []string{"benchmark", "shift_register_size", "energy_removed_pct"},
		}
		err := sweepRows(t, bus, cfg, params, false, func(p int) (coding.Transcoder, error) {
			return coding.NewWindow(busWidth, p, evalLambda)
		})
		return t, err
	}
}

func contextSweep(id, bus string, transitionBased bool) func(Config) (*Table, error) {
	return func(cfg Config) (*Table, error) {
		params := []int{4, 8, 16, 24, 32, 48, 64}
		if cfg.Quick {
			params = []int{8, 32}
		}
		t := &Table{
			ID:      id,
			Title:   fmt.Sprintf("Normalized energy removed by the context-based transcoder (%s bus, shift register size 8)", bus),
			Columns: []string{"benchmark", "table_size", "energy_removed_pct"},
		}
		err := sweepRows(t, bus, cfg, params, true, func(p int) (coding.Transcoder, error) {
			return coding.NewContext(coding.ContextConfig{
				Width: busWidth, TableSize: p, ShiftEntries: 8,
				DividePeriod: 4096, TransitionBased: transitionBased, Lambda: evalLambda,
			})
		})
		return t, err
	}
}

// fig24Benchmarks mirror the paper's Figure 24/25 legend.
var fig24Benchmarks = []string{"li", "compress", "gcc", "perl", "fpppp", "apsi", "swim"}

// contextAxisSweep is Figures 24 and 25: value-based context coders with
// tables of 16 and 64 on the register bus (shift register size 8, divide
// period 4096) with one of those two parameters swept. set applies a
// swept value.
func contextAxisSweep(id, title, axis string, full, quick []int, set func(c *coding.ContextConfig, v int)) func(Config) (*Table, error) {
	return func(cfg Config) (*Table, error) {
		values := full
		if cfg.Quick {
			values = quick
		}
		t := &Table{
			ID:      id,
			Title:   title,
			Columns: []string{"benchmark", "table_size", axis, "energy_removed_pct"},
		}
		err := gatherRows(t, cfg, len(fig24Benchmarks), func(i int, out *Table) error {
			name := fig24Benchmarks[i]
			var points []gridPoint
			for _, tbl := range []int{16, 64} {
				for _, v := range values {
					cc := coding.ContextConfig{
						Width: busWidth, TableSize: tbl, ShiftEntries: 8,
						DividePeriod: 4096, Lambda: evalLambda,
					}
					set(&cc, v)
					ctx, err := coding.NewContext(cc)
					if err != nil {
						return err
					}
					points = append(points, gridPoint{tc: ctx, lambda: evalLambda})
				}
			}
			results, err := evalGridPoints(points, workloadTraceID(name, "reg", cfg), cfg)
			if err != nil {
				return err
			}
			k := 0
			for _, tbl := range []int{16, 64} {
				for _, v := range values {
					out.AddRow(name, tbl, v, 100*results[k].EnergyRemoved())
					k++
				}
			}
			return nil
		})
		return t, err
	}
}

func runFig15(cfg Config) (*Table, error) {
	lambdas := []float64{0.1, 0.2, 0.5, 1, 2, 5, 10, 20, 50, 100}
	if cfg.Quick {
		lambdas = []float64{0.1, 1, 10, 100}
	}
	t := &Table{
		ID:      "fig15",
		Title:   "Inversion coder: normalized energy remaining (%) vs actual wire Λ for cost functions assuming Λ=0, Λ=1 and the true Λ",
		Columns: []string{"source", "cost_function", "actual_lambda", "energy_remaining_pct"},
	}
	pats, err := coding.DefaultInversionPatterns(busWidth, 4)
	if err != nil {
		return nil, err
	}
	// Sources: benchmark-average register bus, benchmark-average memory
	// bus, and uniformly random traffic.
	type source struct {
		name string
		bus  string
	}
	sources := []source{{"register bus average", "reg"}, {"memory bus average", "mem"}, {"random", ""}}
	n := cfg.Run.MaxBusValues
	if n <= 0 {
		n = 100_000
	}
	err = gatherRows(t, cfg, len(sources), func(i int, out *Table) error {
		src := sources[i]
		var ids []traceID
		if src.bus == "" {
			ids = []traceID{randomTraceID(n)}
		} else {
			for _, b := range fig7Benchmarks {
				ids = append(ids, workloadTraceID(b, src.bus, cfg))
			}
		}
		variants := []struct {
			label   string
			assumed func(actual float64) float64
		}{
			{"lambda0", func(float64) float64 { return 0 }},
			{"lambda1", func(float64) float64 { return 1 }},
			{"lambdaN", func(actual float64) float64 { return actual }},
		}
		// One grid family per trace covering every (cost function, actual Λ)
		// point: the λ0 and λ1 variants are each a single encoder config read
		// at all actual Λs, so the grid encodes each trace once per config
		// instead of once per (variant, Λ) pair.
		var points []gridPoint
		for _, variant := range variants {
			for _, actual := range lambdas {
				inv, err := coding.NewInversion(busWidth, pats, variant.assumed(actual))
				if err != nil {
					return err
				}
				points = append(points, gridPoint{tc: inv, lambda: actual})
			}
		}
		perTrace := make([][]coding.Result, len(ids))
		for j, id := range ids {
			res, err := evalGridPoints(points, id, cfg)
			if err != nil {
				return err
			}
			perTrace[j] = res
		}
		k := 0
		for _, variant := range variants {
			for _, actual := range lambdas {
				sum := 0.0
				for j := range ids {
					sum += 100 * perTrace[j][k].EnergyRemaining()
				}
				out.AddRow(src.name, variant.label, actual, sum/float64(len(ids)))
				k++
			}
		}
		return nil
	})
	return t, err
}
