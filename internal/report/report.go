// Package report builds a self-checking reproduction report: it takes
// the tables of an experiment run, extracts the quantities the paper
// publishes numbers for, compares measured against published, and
// renders a Markdown document with a verdict per check. cmd/buspower
// exposes it as -report, grading the tables of the run it belongs to.
package report

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"

	"buspower/internal/experiments"
)

// Verdict grades one comparison.
type Verdict string

const (
	// VerdictMatch: within tolerance of the published value.
	VerdictMatch Verdict = "MATCH"
	// VerdictShape: outside tolerance but the qualitative claim holds.
	VerdictShape Verdict = "SHAPE"
	// VerdictDiverges: the qualitative claim does not hold.
	VerdictDiverges Verdict = "DIVERGES"
)

// Check is one paper-vs-measured comparison.
type Check struct {
	// Artifact is the experiment id the quantity comes from.
	Artifact string
	// Name describes the quantity.
	Name string
	// Paper is the published value (0 when the paper states only a trend;
	// then Tolerance is ignored and Grade decides from the trend).
	Paper float64
	// Measured is our value.
	Measured float64
	// Tolerance is the relative deviation accepted as MATCH.
	Tolerance float64
	// TrendHolds reports whether the qualitative claim held (used when the
	// deviation exceeds Tolerance, and exclusively when Paper is 0).
	TrendHolds bool
	// Unit annotates the values.
	Unit string
}

// Grade returns the check's verdict. A trend-only check (Paper == 0) that
// holds is a MATCH — the paper published no number to deviate from.
func (c Check) Grade() Verdict {
	if c.Paper == 0 {
		if c.TrendHolds {
			return VerdictMatch
		}
		return VerdictDiverges
	}
	if math.Abs(c.Measured-c.Paper)/math.Abs(c.Paper) <= c.Tolerance {
		return VerdictMatch
	}
	if c.TrendHolds {
		return VerdictShape
	}
	return VerdictDiverges
}

// Report is the assembled document.
type Report struct {
	Checks []Check
	Tables map[string]*experiments.Table
}

// Experiments returns the ids of the experiments whose tables the
// report grades.
func Experiments() []string {
	return []string{"table1", "table2", "table3", "fig15", "fig19", "fig21", "fig23"}
}

// Build grades the tables of one experiment run, keyed by experiment id;
// tables must hold every id Experiments lists.
func Build(tables map[string]*experiments.Table) (*Report, error) {
	r := &Report{Tables: map[string]*experiments.Table{}}
	var errs []string
	for _, id := range Experiments() {
		if tables[id] == nil {
			errs = append(errs, "no "+id+" table")
		}
		r.Tables[id] = tables[id]
	}
	if len(errs) == 0 {
		for _, f := range []func(*Report) error{
			checkTable1, checkTable2, checkTable3, checkFig15, checkFig19, checkValueVsTransition,
		} {
			if err := f(r); err != nil {
				errs = append(errs, err.Error())
			}
		}
	}
	if len(errs) > 0 {
		return nil, fmt.Errorf("report: %s", strings.Join(errs, "; "))
	}
	sort.SliceStable(r.Checks, func(i, j int) bool { return r.Checks[i].Artifact < r.Checks[j].Artifact })
	return r, nil
}

// cell finds a numeric cell by matching leading key columns.
func cell(t *experiments.Table, valueCol int, keys ...string) (float64, error) {
rows:
	for i, row := range t.Rows {
		for k, key := range keys {
			if row[k] != key {
				continue rows
			}
		}
		if row[valueCol] == "inf" {
			return math.Inf(1), nil
		}
		return t.Float(i, valueCol)
	}
	return 0, fmt.Errorf("no row %v in %s", keys, t.ID)
}

func checkTable1(r *Report) error {
	t := r.Tables["table1"]
	for _, c := range []struct {
		tech, kind string
		paper      float64
	}{
		{"0.13um", "With repeaters", 0.670},
		{"0.10um", "With repeaters", 0.576},
		{"0.07um", "With repeaters", 0.591},
		{"0.13um", "Unbuffered wire", 14.0},
		{"0.10um", "Unbuffered wire", 16.6},
		{"0.07um", "Unbuffered wire", 14.5},
	} {
		v, err := cell(t, 2, c.tech, c.kind)
		if err != nil {
			return err
		}
		r.Checks = append(r.Checks, Check{
			Artifact: "table1", Name: "effective Λ " + c.tech + " " + strings.ToLower(c.kind),
			Paper: c.paper, Measured: v, Tolerance: 0.02, TrendHolds: v > 0, Unit: "",
		})
	}
	return nil
}

func checkTable2(r *Report) error {
	t := r.Tables["table2"]
	for _, c := range []struct {
		tech  string
		paper float64
	}{{"0.13um", 1.39}, {"0.10um", 1.07}, {"0.07um", 0.55}} {
		measured, err := cell(t, 5, "window-8", c.tech)
		if err != nil {
			return err
		}
		r.Checks = append(r.Checks, Check{
			Artifact: "table2", Name: "avg encoder energy " + c.tech,
			Paper: c.paper, Measured: measured, Tolerance: 0.10,
			TrendHolds: measured > 0 && measured < 2*c.paper, Unit: "pJ/cycle",
		})
	}
	return nil
}

func checkTable3(r *Report) error {
	t := r.Tables["table3"]
	get := func(tech string, entries int, suite string) (float64, error) {
		return cell(t, 3, tech, strconv.Itoa(entries), suite)
	}
	for _, c := range []struct {
		tech    string
		entries int
		suite   string
		paper   float64
	}{
		{"0.13um", 8, "ALL", 11.5},
		{"0.13um", 16, "ALL", 7.0},
		{"0.10um", 8, "ALL", 8.0},
		{"0.10um", 16, "ALL", 6.4},
		{"0.07um", 8, "ALL", 4.1},
		{"0.07um", 16, "ALL", 2.7},
	} {
		v, err := get(c.tech, c.entries, c.suite)
		if err != nil {
			return err
		}
		// Trend: crossovers shrink with technology and with more entries.
		v13, err := get("0.13um", c.entries, c.suite)
		if err != nil {
			return err
		}
		v07, err := get("0.07um", c.entries, c.suite)
		if err != nil {
			return err
		}
		r.Checks = append(r.Checks, Check{
			Artifact: "table3",
			Name:     fmt.Sprintf("median crossover %s %d-entry %s", c.tech, c.entries, c.suite),
			Paper:    c.paper, Measured: v, Tolerance: 0.25,
			TrendHolds: v07 < v13 && !math.IsInf(v, 1), Unit: "mm",
		})
	}
	return nil
}

func checkFig15(r *Report) error {
	t := r.Tables["fig15"]
	randV, err := cell(t, 3, "random", "lambda1", "1")
	if err != nil {
		return err
	}
	regV, err := cell(t, 3, "register bus average", "lambda1", "1")
	if err != nil {
		return err
	}
	r.Checks = append(r.Checks, Check{
		Artifact: "fig15", Name: "random minus real energy remaining at Λ=1 (random must look better)",
		Paper: 0, Measured: randV - regV, TrendHolds: randV < regV, Unit: "pct points",
	})
	return nil
}

func checkFig19(r *Report) error {
	t := r.Tables["fig19"]
	// Median savings at 8 entries across benchmarks, and the knee: the
	// step from 8 to 32 entries must be smaller than from 2..4 to 8.
	perSize := map[int][]float64{}
	for i, row := range t.Rows {
		size, err := strconv.Atoi(row[1])
		if err != nil {
			return err
		}
		v, err := t.Float(i, 2)
		if err != nil {
			return err
		}
		perSize[size] = append(perSize[size], v)
	}
	med := func(xs []float64) float64 {
		if len(xs) == 0 {
			return math.NaN()
		}
		s := append([]float64(nil), xs...)
		sort.Float64s(s)
		return s[len(s)/2]
	}
	m8 := med(perSize[8])
	m32 := med(perSize[32])
	m4 := med(perSize[4])
	r.Checks = append(r.Checks, Check{
		Artifact: "fig19", Name: "median register-bus savings at 8 entries (paper: 19-25%)",
		Paper: 22, Measured: m8, Tolerance: 0.35,
		TrendHolds: m8 > 5 && (m32-m8) < (m8-m4), Unit: "%",
	})
	return nil
}

func checkValueVsTransition(r *Report) error {
	avgOf := func(t *experiments.Table) (float64, error) {
		sum, n := 0.0, 0
		for i, row := range t.Rows {
			if row[0] == "random" {
				continue
			}
			v, err := t.Float(i, 2)
			if err != nil {
				return 0, err
			}
			sum += v
			n++
		}
		if n == 0 {
			return 0, fmt.Errorf("no rows")
		}
		return sum / float64(n), nil
	}
	value, err := avgOf(r.Tables["fig23"])
	if err != nil {
		return err
	}
	transition, err := avgOf(r.Tables["fig21"])
	if err != nil {
		return err
	}
	r.Checks = append(r.Checks, Check{
		Artifact: "fig23", Name: "value-based minus transition-based average savings (must be positive)",
		Paper: 0, Measured: value - transition, TrendHolds: value > transition, Unit: "pct points",
	})
	return nil
}

// Markdown renders the report.
func (r *Report) Markdown() string {
	var b strings.Builder
	b.WriteString("# Reproduction self-check\n\n")
	b.WriteString("Automated comparison of measured quantities against the values\n")
	b.WriteString("published in \"Exploiting Prediction to Reduce Power on Buses\".\n")
	b.WriteString("`MATCH` = within tolerance; `SHAPE` = outside tolerance but the\n")
	b.WriteString("qualitative claim holds; `DIVERGES` = the claim failed.\n\n")
	b.WriteString("| artifact | quantity | paper | measured | verdict |\n")
	b.WriteString("|---|---|---|---|---|\n")
	counts := map[Verdict]int{}
	for _, c := range r.Checks {
		v := c.Grade()
		counts[v]++
		paper := "trend"
		if c.Paper != 0 {
			paper = trim(c.Paper) + " " + c.Unit
		}
		fmt.Fprintf(&b, "| %s | %s | %s | %s %s | %s |\n",
			c.Artifact, c.Name, paper, trim(c.Measured), c.Unit, v)
	}
	fmt.Fprintf(&b, "\n**Summary: %d MATCH, %d SHAPE, %d DIVERGES of %d checks.**\n",
		counts[VerdictMatch], counts[VerdictShape], counts[VerdictDiverges], len(r.Checks))
	return b.String()
}

func trim(v float64) string {
	if math.IsInf(v, 1) {
		return "inf"
	}
	return strconv.FormatFloat(v, 'g', 4, 64)
}
