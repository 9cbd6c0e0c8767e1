// Package circuit models the transcoder hardware of §5: the statistical
// energy methodology the paper validated against SPICE netlist simulation
// (within 6%, §5.4.2) — per-operation energies extracted once from the
// layout, multiplied by operation counts gathered from the architectural
// simulation — and behavioural models of two of its custom low-power
// circuits, the Johnson counter and the selective-precharge CAM. Those
// two count in hardware terms what the coders count for themselves, so
// tests use them as oracles: the CAM for the Window coder's probe counts,
// the Johnson counter for the Context coder's counter range.
//
// The per-technology characteristics (area, average operation energy,
// leakage, delay, cycle time) are anchored to the paper's Table 2; the
// per-operation energy split is a calibrated decomposition consistent with
// that table's averages.
package circuit

// JohnsonCounter models the energy-efficient counter of §5.3.3: a ring of
// flip-flops through an inverted feedback tap, so exactly one bit toggles
// per count. The transcoder concatenates four 4-bit Johnson counters:
// 4096 states, so it counts from 0 to 4095 and saturates there.
//
// The model tracks the actual register bits so tests can verify the
// one-transition-per-count property that makes the counter cheap.
type JohnsonCounter struct {
	stages []johnsonStage
	count  uint32
	max    uint32
	// BitTransitions accumulates the total number of flip-flop output
	// toggles — the counter's dynamic switching activity.
	BitTransitions uint64
}

type johnsonStage struct {
	bits uint8 // ring register, low `width` bits
	pos  int   // current phase within the 2*width state cycle
}

// johnsonStageWidth is the per-stage register width used by the paper's
// design (4 bits -> 8 states per stage).
const johnsonStageWidth = 4

// NewJohnsonCounter builds a counter of the given number of concatenated
// 4-bit stages. The paper's transcoder uses 4 stages (max count 4095).
func NewJohnsonCounter(stages int) *JohnsonCounter {
	if stages < 1 {
		panic("circuit: Johnson counter needs at least one stage")
	}
	max := uint32(1)
	for i := 0; i < stages; i++ {
		max *= 2 * johnsonStageWidth
	}
	return &JohnsonCounter{stages: make([]johnsonStage, stages), max: max - 1}
}

// Increment advances the counter by one, saturating at Max. It returns the
// number of register bits that toggled (0 when saturated, otherwise 1 for
// the incremented stage plus 1 per carry into the next stage).
func (j *JohnsonCounter) Increment() int {
	if j.count >= j.max {
		return 0
	}
	j.count++
	toggles := 0
	for s := range j.stages {
		st := &j.stages[s]
		// Shift the ring: new LSB is the complement of the old MSB.
		msb := (st.bits >> (johnsonStageWidth - 1)) & 1
		st.bits = ((st.bits << 1) | (msb ^ 1)) & (1<<johnsonStageWidth - 1)
		toggles++ // exactly one bit differs between consecutive ring states
		st.pos++
		if st.pos < 2*johnsonStageWidth {
			break // no carry
		}
		st.pos = 0 // carry into the next stage
	}
	j.BitTransitions += uint64(toggles)
	return toggles
}

// Value returns the current count.
func (j *JohnsonCounter) Value() uint32 { return j.count }

// Max returns the saturation value.
func (j *JohnsonCounter) Max() uint32 { return j.max }

// Saturated reports whether the counter has reached its maximum.
func (j *JohnsonCounter) Saturated() bool { return j.count >= j.max }

// Halve divides the count by two (the counter division operation). In
// hardware this reloads the rings; the model charges one toggle per stage.
func (j *JohnsonCounter) Halve() {
	j.count /= 2
	v := j.count
	for s := range j.stages {
		st := &j.stages[s]
		phase := int(v % uint32(2*johnsonStageWidth))
		v /= uint32(2 * johnsonStageWidth)
		st.pos = phase
		st.bits = johnsonPattern(phase)
		j.BitTransitions++
	}
}

// johnsonPattern returns the ring register contents at the given phase of
// the 2·width cycle: phases 0..width fill with ones from the LSB, phases
// width..2·width drain them.
func johnsonPattern(phase int) uint8 {
	if phase <= johnsonStageWidth {
		return uint8(1<<phase - 1)
	}
	drained := phase - johnsonStageWidth
	full := uint8(1<<johnsonStageWidth - 1)
	return full &^ uint8(1<<drained-1)
}

// Reset returns the counter to zero.
func (j *JohnsonCounter) Reset() {
	j.count = 0
	for s := range j.stages {
		j.stages[s] = johnsonStage{}
	}
}
