package trace

import (
	"bytes"
	"slices"
	"testing"
)

// roundTrip writes a one-section trace file (the layout tracegen writes)
// and parses it back.
func roundTrip(t *testing.T, label, bus string, vals []uint32) *Container {
	t.Helper()
	orig := &Container{Name: label, Sections: []Section{{Name: bus, Width: 32, Values: vals}}}
	var buf bytes.Buffer
	if err := orig.Write(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ParseContainer(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Sections) != 1 {
		t.Fatalf("%d sections, want 1", len(got.Sections))
	}
	return got
}

func TestRoundTrip(t *testing.T) {
	vals := []uint32{1, 2, 3, 0xFFFFFFFF, 0}
	got := roundTrip(t, "gcc/reg", "reg", vals)
	s := got.Sections[0]
	if got.Name != "gcc/reg" || s.Name != "reg" || s.Width != 32 || s.Packed != nil {
		t.Fatalf("round trip mismatch: name %q section %q width %d", got.Name, s.Name, s.Width)
	}
	if !slices.Equal(s.Values, vals) {
		t.Fatalf("values %v, want %v", s.Values, vals)
	}
}

func TestRoundTripEmpty(t *testing.T) {
	got := roundTrip(t, "", "random", nil)
	if got.Name != "" || len(got.Sections[0].Values) != 0 {
		t.Errorf("empty trace read back as %q with %d values", got.Name, len(got.Sections[0].Values))
	}
}

func TestCharacterize(t *testing.T) {
	values := []uint64{5, 5, 5, 5, 7, 7, 9, 11}
	c := Characterize(values, []int{1, 2, 4})
	if c.Values != 8 || c.Unique != 4 {
		t.Errorf("values=%d unique=%d", c.Values, c.Unique)
	}
	if got := c.CoverageAt(1); got != 0.5 {
		t.Errorf("CoverageAt(1) = %v", got)
	}
	if got := c.CoverageAt(4); got != 1.0 {
		t.Errorf("CoverageAt(4) = %v", got)
	}
	if c.WindowUnique[1] != 1 {
		t.Error("window 1 should be fully unique")
	}
	if c.WindowUnique[4] >= 1 {
		t.Error("window 4 over repeated values should be below 1")
	}
}
