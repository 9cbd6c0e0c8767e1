package experiments

import (
	"buspower/internal/circuit"
	"buspower/internal/coding"
	"buspower/internal/energy"
	"buspower/internal/stats"
	"buspower/internal/wire"
	"buspower/internal/workload"
)

// Extension experiments beyond the paper's published artifacts.
//
// extaddr evaluates the related-work address-bus coders the paper cites in
// §2 — workzone encoding (Musoll et al. [15], extended by sector-based
// encoding [1]) and partial bus-invert (Shin et al. [20]) — against the
// paper's own prediction-based transcoders, on the memory *address* bus
// the simulator extracts. The paper argues its value-prediction approach
// targets data buses; this table shows the flip side: on address streams
// the special-purpose zone coder dominates, confirming that coding schemes
// must match their bus's traffic structure.
func init() {
	register(Runner{
		ID:    "extaddr",
		Title: "Extension: coding schemes on the memory address bus (workzone vs the paper's transcoders)",
		Run:   runExtAddr,
	})
	register(Runner{
		ID:    "extvlc",
		Title: "Extension: §6 variable-length coding vs the fixed-length window design (register bus)",
		Run:   runExtVLC,
	})
	register(Runner{
		ID:    "extscale",
		Title: "Extension: break-even length vs feature size as a continuous axis (§6 scaling outlook)",
		Run:   runExtScale,
	})
	register(Runner{
		ID:    "extctx",
		Title: "Extension: the §5.4.3 design decision quantified — window vs context crossover lengths",
		Run:   runExtCtx,
	})
}

// runExtCtx pushes the Context-based design through the same crossover
// analysis the paper only performed for the Window-based design, making
// §5.4.3's decision quantitative: the context transcoder removes somewhat
// more activity, but its counters, counter-match and swap circuitry
// (±50% energy overhead) must be repaid by the extra savings — which, for
// short wires, they are not.
func runExtCtx(cfg Config) (*Table, error) {
	t := &Table{
		ID:      "extctx",
		Title:   "Median register-bus crossover: window vs context designs (matched total entries)",
		Columns: []string{"design", "technology", "median_savings_pct", "median_crossover_mm"},
	}
	names := workload.Names()
	if cfg.Quick {
		names = names[:3]
	}
	type design struct {
		label   string
		kind    circuit.DesignKind
		entries int
		build   func() (coding.Transcoder, error)
	}
	designs := []design{
		{"window-32", circuit.WindowDesign, 32, func() (coding.Transcoder, error) {
			return coding.NewWindow(busWidth, 32, evalLambda)
		}},
		{"context-24t+8s", circuit.ContextDesign, 32, func() (coding.Transcoder, error) {
			return coding.NewContext(coding.ContextConfig{
				Width: busWidth, TableSize: 24, ShiftEntries: 8,
				DividePeriod: 4096, Lambda: evalLambda,
			})
		}},
	}
	techs := wire.Technologies()
	type unit struct {
		tech wire.Technology
		d    design
	}
	var units []unit
	for _, tech := range techs {
		for _, d := range designs {
			units = append(units, unit{tech, d})
		}
	}
	err := gatherRows(t, cfg, len(units), func(i int, out *Table) error {
		tech, d := units[i].tech, units[i].d
		tc, err := d.build()
		if err != nil {
			return err
		}
		var savings, xovers []float64
		for _, name := range names {
			tr, err := busTrace(name, "reg", cfg)
			if err != nil {
				return err
			}
			raw, err := rawMeterFor(name, "reg", cfg)
			if err != nil {
				return err
			}
			// The same (transcoder, trace, Λ) evaluation repeats across the
			// technology axis; the memo collapses those to one computation.
			res, err := evalResult(tc, workloadTraceID(name, "reg", cfg), tr, evalLambda, raw, cfg)
			if err != nil {
				return err
			}
			a, err := energy.NewAnalysis(tech, res, d.kind, d.entries)
			if err != nil {
				return err
			}
			savings = append(savings, 100*a.EnergyRemovedFraction())
			xovers = append(xovers, a.CrossoverMM())
		}
		out.AddRow(d.label, tech.Name, stats.Median(savings), stats.Median(xovers))
		return nil
	})
	return t, err
}

// runExtScale sweeps feature size continuously between the paper's
// anchored nodes (interpolating both the wire and circuit models) and
// reports the median break-even length — the quantitative form of §6's
// claim that transcoding grows more attractive as technology shrinks.
func runExtScale(cfg Config) (*Table, error) {
	t := &Table{
		ID:      "extscale",
		Title:   "Median register-bus crossover length vs feature size (window design)",
		Columns: []string{"feature_nm", "entries", "median_crossover_mm"},
	}
	sizes := []int{130, 120, 110, 100, 90, 80, 70}
	if cfg.Quick {
		sizes = []int{130, 100, 70}
	}
	names := workload.Names()
	if cfg.Quick {
		names = names[:3]
	}
	err := gatherRows(t, cfg, len(sizes), func(i int, out *Table) error {
		nm := sizes[i]
		tech, err := wire.Interpolate(nm)
		if err != nil {
			return err
		}
		for _, entries := range []int{8, 16} {
			var xs []float64
			for _, name := range names {
				res, err := windowResultFor(name, "reg", entries, cfg)
				if err != nil {
					return err
				}
				a, err := energy.NewAnalysis(tech, res, circuit.WindowDesign, entries)
				if err != nil {
					return err
				}
				xs = append(xs, a.CrossoverMM())
			}
			out.AddRow(nm, entries, stats.Median(xs))
		}
		return nil
	})
	return t, err
}

// runExtVLC implements the paper's §6 future work — variable-length
// coding — and quantifies its trade-off against the fixed-length window
// design with the same dictionary: the VLC coder compresses transmission
// *time* (beat ratio), while fixed-length one-hot codes stay more
// transition-efficient per value.
func runExtVLC(cfg Config) (*Table, error) {
	t := &Table{
		ID:      "extvlc",
		Title:   "Variable-length vs fixed-length window coding on the register bus",
		Columns: []string{"benchmark", "vlc_energy_removed_pct", "vlc_beat_ratio", "fixed_energy_removed_pct"},
	}
	names := workload.Names()
	if cfg.Quick {
		names = names[:4]
	}
	err := gatherRows(t, cfg, len(names), func(i int, out *Table) error {
		name := names[i]
		tr, err := busTrace(name, "reg", cfg)
		if err != nil {
			return err
		}
		raw, err := rawMeterFor(name, "reg", cfg)
		if err != nil {
			return err
		}
		vlcCfg := coding.VLCConfig{Width: busWidth, Entries: 14}
		vlc, err := coding.EvaluateVLC(vlcCfg, tr, evalLambda, raw)
		if err != nil {
			return err
		}
		fixed, err := windowResultFor(name, "reg", 14, cfg)
		if err != nil {
			return err
		}
		out.AddRow(name, 100*vlc.EnergyRemoved(), vlc.BeatRatio(), 100*fixed.EnergyRemoved())
		return nil
	})
	return t, err
}

func runExtAddr(cfg Config) (*Table, error) {
	t := &Table{
		ID:      "extaddr",
		Title:   "Normalized energy removed on the memory address bus",
		Columns: []string{"benchmark", "scheme", "energy_removed_pct"},
	}
	builders := []func() (coding.Transcoder, error){
		func() (coding.Transcoder, error) {
			return coding.NewWorkzone(coding.WorkzoneConfig{Width: busWidth, Zones: 4, MaxDelta: 64, Lambda: evalLambda})
		},
		func() (coding.Transcoder, error) { return coding.NewBusInvert(busWidth, evalLambda) },
		func() (coding.Transcoder, error) { return coding.NewPartialBusInvert(busWidth, 4, evalLambda) },
		func() (coding.Transcoder, error) { return coding.NewWindow(busWidth, 8, evalLambda) },
		func() (coding.Transcoder, error) { return coding.NewStride(busWidth, 8, evalLambda) },
		func() (coding.Transcoder, error) { return coding.NewGray(busWidth) },
	}
	names := workload.Names()
	if cfg.Quick {
		names = names[:4]
	}
	err := gatherRows(t, cfg, len(names), func(i int, out *Table) error {
		name := names[i]
		tr, err := busTrace(name, "addr", cfg)
		if err != nil {
			return err
		}
		if len(tr) < 100 {
			return nil
		}
		raw, err := rawMeterFor(name, "addr", cfg)
		if err != nil {
			return err
		}
		points := make([]gridPoint, len(builders))
		for k, build := range builders {
			tc, err := build()
			if err != nil {
				return err
			}
			points[k] = gridPoint{tc: tc, lambda: evalLambda}
		}
		results, err := evalGridPoints(points, workloadTraceID(name, "addr", cfg), tr, raw, cfg)
		if err != nil {
			return err
		}
		for k, res := range results {
			out.AddRow(name, points[k].tc.Name(), 100*res.EnergyRemoved())
		}
		return nil
	})
	return t, err
}
