package cpu

import (
	"fmt"
	"math"
	"math/bits"
)

// Config parameterizes the out-of-order timing model
// (SimpleScalar sim-outorder defaults).
type Config struct {
	FetchWidth  int
	IssueWidth  int
	CommitWidth int
	RUUSize     int // register update unit (reorder window) entries
	LSQSize     int // load/store queue entries

	// Functional unit counts per class.
	FUCounts [fuClassCount]int

	// Memory hierarchy.
	L1DSize, L1DWays, L1DLine int
	L2Size, L2Ways, L2Line    int
	L1Latency                 int // load-to-use on L1 hit
	L2Latency                 int // additional cycles on L1 miss / L2 hit
	MemLatency                int // additional cycles on L2 miss

	MispredictPenalty int
	PredictorEntries  int
}

// DefaultConfig returns the configuration used for all experiments.
func DefaultConfig() Config {
	return Config{
		FetchWidth:  4,
		IssueWidth:  4,
		CommitWidth: 4,
		RUUSize:     64,
		LSQSize:     32,
		FUCounts: [fuClassCount]int{
			ClassIntALU: 4,
			ClassIntMul: 1,
			ClassMem:    2,
			ClassBranch: 1,
			ClassFPAdd:  2,
			ClassFPMul:  1,
			ClassFPDiv:  1,
		},
		L1DSize: 16 << 10, L1DWays: 4, L1DLine: 32,
		L2Size: 256 << 10, L2Ways: 8, L2Line: 64,
		L1Latency:         2,
		L2Latency:         10,
		MemLatency:        80,
		MispredictPenalty: 3,
		PredictorEntries:  2048,
	}
}

// BusTraces carries the simulator outputs the paper's study consumes: the
// re-timed value streams of the integer register-file output port and the
// external memory data bus (§4.1), plus summary statistics.
type BusTraces struct {
	// RegisterBus is the sequence of 32-bit values appearing on the
	// integer register file's output port, ordered by issue time.
	RegisterBus []uint32
	// MemoryBus is the sequence of 32-bit data values crossing the
	// memory data bus (cache-fill words of L1 misses and outgoing store
	// data), ordered by the cycle the value appears on the bus.
	MemoryBus []uint32
	// MemoryAddrBus is the sequence of addresses on the memory address
	// bus, one per MemoryBus beat — the traffic the related-work
	// address-bus coders (workzone, sector) target.
	MemoryAddrBus []uint32

	RunStats
}

// RunStats summarizes a simulation run.
type RunStats struct {
	Instructions   uint64
	Cycles         uint64
	IPC            float64
	L1DMissRate    float64
	L2MissRate     float64
	BranchAccuracy float64
}

// instrMeta is the pre-decoded per-opcode timing metadata: one dense array
// load in the simulation loop replaces the opTable indirections (Class,
// Latency, IsFP, usesRs2, destOf, isConditional) the loop used to chase
// per instruction.
type instrMeta struct {
	class   uint8
	latency uint8
	dest    uint8 // destKind
	flags   uint8
}

const (
	mfFP uint8 = 1 << iota
	mfUsesRs2
	mfCond
)

var metaTable [opCount]instrMeta

func init() {
	for op := Op(0); op < opCount; op++ {
		m := instrMeta{
			class:   uint8(op.Class()),
			latency: uint8(op.Latency()),
			dest:    uint8(destOf(op)),
		}
		if op.IsFP() {
			m.flags |= mfFP
		}
		if usesRs2(op) {
			m.flags |= mfUsesRs2
		}
		if isConditional(op) {
			m.flags |= mfCond
		}
		metaTable[op] = m
	}
}

// storeTable maps each data-memory word to the completion cycle of the
// youngest store to it, 0 for a word never stored. It is paged: a page of
// storePageWords entries is allocated on the first store into it, so a
// simulation pays for the pages its program writes, not 8 bytes for every
// word of data memory. Pages are fixed-size arrays behind pointers, so an
// access costs one pointer load and no bounds check inside the page.
type storeTable struct {
	pages []*[storePageWords]uint64
}

// storePageWords is the page size: 1024 words (4 KiB of data memory,
// 8 KiB of table).
const (
	storePageBits  = 10
	storePageWords = 1 << storePageBits
)

func newStoreTable(words int) storeTable {
	return storeTable{pages: make([]*[storePageWords]uint64, words>>storePageBits+1)}
}

// get returns the completion of the youngest store to word.
func (t *storeTable) get(word uint32) uint64 {
	if p := t.pages[word>>storePageBits]; p != nil {
		return p[word%storePageWords]
	}
	return 0
}

// set records a store to word completing at cycle c.
func (t *storeTable) set(word uint32, c uint64) {
	p := t.pages[word>>storePageBits]
	if p == nil {
		p = new([storePageWords]uint64)
		t.pages[word>>storePageBits] = p
	}
	p[word%storePageWords] = c
}

// slotRing is an index-based replacement for the per-cycle bandwidth maps:
// a power-of-two ring of (cycle tag, reservation count) slots. A slot
// whose tag differs from the queried cycle is empty — stale tags belong to
// cycles the simulation has provably moved past (reservations only ever
// start at or after monotonically increasing frontiers), so they are
// overwritten in place instead of being pruned in batches.
//
// The ring must be larger than the maximum spread between the oldest cycle
// still queryable and the newest cycle reserved. reserve panics if it ever
// observes a slot tagged with a *future* cycle — the signature of that
// invariant breaking — so aliasing can never silently corrupt timing.
type slotRing struct {
	tags   []uint64
	counts []int32
	mask   uint64
}

func newSlotRing(size int) slotRing {
	if size <= 0 || size&(size-1) != 0 {
		panic("cpu: slot ring size must be a positive power of two")
	}
	return slotRing{
		tags:   make([]uint64, size),
		counts: make([]int32, size),
		mask:   uint64(size - 1),
	}
}

// reserve finds the first cycle >= from with a free slot (capacity cap)
// and consumes it. Cycles are always >= 1, so the zero tag means "never
// used".
func (r *slotRing) reserve(from uint64, cap int32) uint64 {
	c := from
	for {
		i := c & r.mask
		t := r.tags[i]
		if t != c {
			if t > c {
				panic(fmt.Sprintf("cpu: slot ring aliasing: cycle %d collides with live cycle %d (ring too small)", c, t))
			}
			r.tags[i] = c
			r.counts[i] = 1
			return c
		}
		if r.counts[i] < cap {
			r.counts[i]++
			return c
		}
		c++
	}
}

// Simulator re-times the functional core's dynamic instruction stream
// through an out-of-order pipeline model: per-instruction fetch, dispatch,
// issue, completion and commit times are derived from dependence,
// bandwidth and structural constraints — the same functional-first
// organization the paper built its bus timing generators on.
//
// This is the optimized implementation; ReferenceSimulator (a test-only
// oracle in ooo_reference_test.go) is the map-based original, and the
// golden differential test requires both to produce byte-identical
// BusTraces.
type Simulator struct {
	cfg  Config
	core *Core
	l1d  *Cache
	l2   *Cache
	pred *BimodalPredictor

	// Per-architectural-register ready times.
	intReady [32]uint64
	fpReady  [32]uint64

	// Ring buffer of commit times of the last RUUSize instructions (for
	// the dispatch window constraint), and LSQ analog for memory ops.
	commitRing []uint64
	ringPos    int
	lsqRing    []uint64
	lsqPos     int

	// Per-functional-unit next-free cycle.
	fuFree [fuClassCount][]uint64

	// Bandwidth accounting: issued/committed/fetched counts per cycle.
	issueSlots  slotRing
	commitSlots slotRing
	fetchSlots  slotRing

	// Store forwarding/conflict tracking: completion of the youngest
	// store to each memory word (exact — no pruning, no hashing). Entries
	// the map-based original pruned are provably unreachable: a later
	// load's ready time already exceeds any completion old enough to have
	// been pruned.
	storeDone storeTable

	fetchFrontier uint64 // earliest cycle the next instruction can fetch
	lastCommit    uint64 // commit time of the previous instruction (in-order)
	lastCycle     uint64

	// Return-address stack for predicting returns (depth-limited ring;
	// overflow silently wraps like real hardware).
	ras    [16]int32
	rasTop int
}

// rasPush records a call's return address.
func (s *Simulator) rasPush(addr int32) {
	s.rasTop = (s.rasTop + 1) % len(s.ras)
	s.ras[s.rasTop] = addr
}

// rasPop predicts a return target (and consumes the entry).
func (s *Simulator) rasPop() int32 {
	addr := s.ras[s.rasTop]
	s.rasTop = (s.rasTop - 1 + len(s.ras)) % len(s.ras)
	return addr
}

// busEvent is one value beat and the cycle it crosses the bus.
type busEvent struct {
	cycle uint64
	value uint32
}

// busCapture places one bus's beats in cycle order as the simulation
// runs, the way the paper's bus timing generators put each value on the
// bus in the cycle it crosses (§4.1). Beats arrive in program order, not
// cycle order, so pending[head:] holds the ones still open, sorted by
// cycle with ties in arrival order (insertion from the back). flush
// emits every pending beat below a watermark no later beat can fall
// under. The output is therefore the stable sort of all beats by cycle,
// cut to max values (0 = unlimited), while only the beats in flight are
// buffered. Once the output is full every later beat sorts after it, so
// the capture drops it.
type busCapture struct {
	pending   []busEvent
	head      int
	out       []uint32
	max       int
	watermark uint64 // every beat below it has been emitted
	generated int    // beats added, kept or dropped
}

func newBusCapture(max int) busCapture {
	c := busCapture{max: max}
	if max > 0 {
		c.out = make([]uint32, 0, max)
	}
	return c
}

func (c *busCapture) full() bool { return c.max > 0 && len(c.out) >= c.max }

// add records a beat. A beat below the last flushed watermark would
// have to be emitted before beats already emitted: the watermark proof
// broke, so add panics rather than reorder the trace silently.
func (c *busCapture) add(cycle uint64, value uint32) {
	if cycle < c.watermark {
		panic(fmt.Sprintf("cpu: bus beat at cycle %d falls below the flushed watermark %d", cycle, c.watermark))
	}
	c.generated++
	if c.full() {
		return
	}
	p := append(c.pending, busEvent{})
	i := len(p) - 1
	for i > c.head && p[i-1].cycle > cycle {
		p[i] = p[i-1]
		i--
	}
	p[i] = busEvent{cycle, value}
	c.pending = p
}

// flush emits every pending beat below watermark w; the caller promises
// that no later beat falls below w.
func (c *busCapture) flush(w uint64) {
	c.watermark = w
	if c.head < len(c.pending) && c.pending[c.head].cycle < w {
		c.emit(w)
	}
}

func (c *busCapture) emit(w uint64) {
	p, h := c.pending, c.head
	for h < len(p) && p[h].cycle < w && !c.full() {
		c.out = append(c.out, p[h].value)
		h++
	}
	switch {
	case h == len(p) || c.full():
		p, h = p[:0], 0
	case 2*h >= len(p):
		// Reclaim the emitted prefix once it outweighs the live beats,
		// so the copies cost O(1) per beat.
		p, h = p[:copy(p, p[h:])], 0
	}
	c.pending, c.head = p, h
}

// finish emits the remaining beats and returns the trace trimmed to
// cap == len, so a short trace does not pin its whole allocation in the
// trace cache. An empty trace is empty, not nil.
func (c *busCapture) finish() []uint32 {
	c.flush(math.MaxUint64)
	if c.out != nil && cap(c.out) == len(c.out) {
		return c.out
	}
	out := make([]uint32, len(c.out))
	copy(out, c.out)
	return out
}

// ringSizeFor picks the bandwidth-ring capacity: comfortably above the
// worst-case spread between the oldest queryable cycle (the fetch
// frontier) and the newest reserved cycle, which is bounded by the reorder
// window depth times the longest per-instruction latency chain
// (RUUSize * ~(L1+L2+Mem+slack)). The aliasing panic in reserve guards the
// bound.
func ringSizeFor(cfg Config) int {
	span := cfg.RUUSize * 512
	if span < 1<<15 {
		span = 1 << 15
	}
	return 1 << bits.Len(uint(span-1))
}

// NewSimulator wraps a functional core in the timing model.
func NewSimulator(p *Program, cfg Config) (*Simulator, error) {
	core, err := NewCore(p)
	if err != nil {
		return nil, err
	}
	ringSize := ringSizeFor(cfg)
	s := &Simulator{
		cfg:           cfg,
		core:          core,
		l1d:           NewCache("l1d", cfg.L1DSize, cfg.L1DWays, cfg.L1DLine),
		l2:            NewCache("l2", cfg.L2Size, cfg.L2Ways, cfg.L2Line),
		pred:          NewBimodalPredictor(cfg.PredictorEntries),
		commitRing:    make([]uint64, cfg.RUUSize),
		lsqRing:       make([]uint64, cfg.LSQSize),
		issueSlots:    newSlotRing(ringSize),
		commitSlots:   newSlotRing(ringSize),
		fetchSlots:    newSlotRing(ringSize),
		storeDone:     newStoreTable(core.Mem.Size() / 4),
		fetchFrontier: 1,
	}
	for class := range s.fuFree {
		n := cfg.FUCounts[class]
		if n < 1 {
			return nil, fmt.Errorf("cpu: functional unit class %d has no units", class)
		}
		s.fuFree[class] = make([]uint64, n)
	}
	return s, nil
}

// Run executes up to maxInstrs instructions (or until HALT), collecting at
// most maxBusValues per bus (0 = unlimited).
func (s *Simulator) Run(maxInstrs uint64, maxBusValues int) BusTraces {
	var (
		fetchWidth  = int32(s.cfg.FetchWidth)
		issueWidth  = int32(s.cfg.IssueWidth)
		commitWidth = int32(s.cfg.CommitWidth)
		mispredict  = uint64(s.cfg.MispredictPenalty)
		core        = s.core
		executed    uint64
		info        StepInfo
	)
	reg, mem, addr := newBusCapture(maxBusValues), newBusCapture(maxBusValues), newBusCapture(maxBusValues)
	var watermark uint64
	for executed < maxInstrs && !core.halted {
		// Every later beat lands at or after fetchFrontier+3: a later
		// instruction fetches no earlier than the frontier, dispatches at
		// least two cycles after fetch and issues at least one after
		// that, a memory beat lands at completion (never before issue),
		// and the frontier never decreases.
		if w := s.fetchFrontier + 3; w != watermark {
			watermark = w
			reg.flush(w)
			mem.flush(w)
			addr.flush(w)
		}
		core.StepInto(&info)
		if info.Halted && info.Instr.Op != OpHalt {
			break
		}
		executed++

		in := info.Instr
		meta := metaTable[in.Op]
		isMem := info.IsLoad || info.IsStore

		// --- Fetch ---
		fetch := s.fetchSlots.reserve(s.fetchFrontier, fetchWidth)

		// --- Dispatch: decode depth + reorder window slot ---
		dispatch := fetch + 2
		if windowFree := s.commitRing[s.ringPos]; dispatch < windowFree {
			dispatch = windowFree
		}
		if isMem {
			if lsqFree := s.lsqRing[s.lsqPos]; dispatch < lsqFree {
				dispatch = lsqFree
			}
		}
		// A full reorder window (or LSQ) backpressures the front end: the
		// fetch buffer is finite, so fetch cannot run ahead of dispatch.
		if dispatch > fetch+2 && dispatch-2 > s.fetchFrontier {
			s.fetchFrontier = dispatch - 2
		}

		// --- Source operands ---
		ready := dispatch + 1
		if meta.flags&mfFP != 0 {
			// FP ops read f sources; loads/stores also read the int base.
			if t := fpSrcReadyTimes(&s.fpReady, &s.intReady, in); t > ready {
				ready = t
			}
			if isMem && s.intReady[in.Rs1] > ready {
				ready = s.intReady[in.Rs1]
			}
		} else {
			if t := s.intReady[in.Rs1]; t > ready {
				ready = t
			}
			if meta.flags&mfUsesRs2 != 0 {
				if t := s.intReady[in.Rs2]; t > ready {
					ready = t
				}
			}
		}
		// Memory ordering: a load may not issue before the youngest
		// earlier store to the same word completes (no speculation).
		if info.IsLoad {
			if t := s.storeDone.get(info.Addr >> 2); t > ready {
				ready = t
			}
		}

		// --- Issue: bandwidth + functional unit ---
		issue := s.issueSlots.reserve(ready, issueWidth)
		issue = s.acquireFU(FUClass(meta.class), issue)

		// --- Execute/complete ---
		complete := issue + uint64(meta.latency)
		l1Miss := false
		if isMem {
			var lat int
			lat, l1Miss = s.memoryLatency(&info)
			complete = issue + uint64(lat)
		}

		// --- Register bus events: operand reads at issue ---
		for i := 0; i < info.NSrcInt; i++ {
			reg.add(issue, info.SrcInt[i])
		}

		// --- Memory bus events (§4.1): load data crossing the external
		// bus on an L1 miss arrives at completion; store data leaves the
		// store buffer at completion. ---
		if (info.IsLoad && l1Miss) || info.IsStore {
			mem.add(complete, info.Data)
			addr.add(complete, info.Addr)
		}

		// --- Writeback: destination ready ---
		switch destKind(meta.dest) {
		case destInt:
			if in.Rd != 0 {
				s.intReady[in.Rd] = complete
			}
		case destFP:
			s.fpReady[in.Rd] = complete
		}
		if info.IsStore {
			s.storeDone.set(info.Addr>>2, complete)
		}

		// --- Commit: in order ---
		commit := complete + 1
		if commit < s.lastCommit {
			commit = s.lastCommit
		}
		commit = s.commitSlots.reserve(commit, commitWidth)
		s.lastCommit = commit
		s.commitRing[s.ringPos] = commit
		s.ringPos++
		if s.ringPos == len(s.commitRing) {
			s.ringPos = 0
		}
		if isMem {
			s.lsqRing[s.lsqPos] = commit
			s.lsqPos++
			if s.lsqPos == len(s.lsqRing) {
				s.lsqPos = 0
			}
		}
		if commit > s.lastCycle {
			s.lastCycle = commit
		}

		// --- Control flow: train predictor, charge mispredictions ---
		// (fetch bandwidth itself is enforced by the slot reservation; the
		// frontier only ever moves forward.)
		if fetch > s.fetchFrontier {
			s.fetchFrontier = fetch
		}
		if info.IsControl {
			mispredicted := false
			switch {
			case meta.flags&mfCond != 0:
				predictedTaken := s.pred.PredictAndUpdate(info.Index, info.Taken)
				mispredicted = predictedTaken != info.Taken
			case in.Op == OpJal:
				// Direct jumps and calls resolve in decode (BTB hit
				// assumed); calls push the return-address stack.
				if in.Rd == 31 {
					s.rasPush(info.Index + 1)
				}
			case in.Op == OpJalr:
				// Returns predict through the RAS; other indirect jumps
				// are unpredicted and always redirect.
				if in.Rs1 == 31 && in.Rd == 0 {
					mispredicted = s.rasPop() != info.NextPC
				} else {
					mispredicted = true
				}
			}
			if mispredicted {
				redirect := complete + mispredict
				if redirect > s.fetchFrontier {
					s.fetchFrontier = redirect
				}
			}
		}

		if maxBusValues > 0 && reg.generated >= maxBusValues && mem.generated >= maxBusValues {
			break
		}
	}
	t := BusTraces{
		RegisterBus:   reg.finish(),
		MemoryBus:     mem.finish(),
		MemoryAddrBus: addr.finish(),
		RunStats: RunStats{
			Instructions:   executed,
			Cycles:         s.lastCycle,
			L1DMissRate:    s.l1d.MissRate(),
			L2MissRate:     s.l2.MissRate(),
			BranchAccuracy: s.pred.Accuracy(),
		},
	}
	if t.Cycles > 0 {
		t.IPC = float64(t.Instructions) / float64(t.Cycles)
	}
	return t
}

// fpSrcReadyTimes returns the cycle the FP instruction's source operands
// become available. Shared by the optimized and reference simulators.
func fpSrcReadyTimes(fpReady, intReady *[32]uint64, in Instr) uint64 {
	t := uint64(0)
	switch in.Op {
	case OpFadd, OpFsub, OpFmul, OpFdiv, OpFmin, OpFmax, OpFeq, OpFlt, OpFle:
		if fpReady[in.Rs1] > t {
			t = fpReady[in.Rs1]
		}
		if fpReady[in.Rs2] > t {
			t = fpReady[in.Rs2]
		}
	case OpFneg, OpFabs, OpFmov, OpFcvtWS:
		t = fpReady[in.Rs1]
	case OpFcvtSW:
		t = intReady[in.Rs1]
	case OpFsw:
		t = fpReady[in.Rs2]
	case OpFlw:
		// base handled by caller
	}
	return t
}

// destKind classifies an opcode's destination register file.
type destKind int

const (
	destNone destKind = iota
	destInt
	destFP
)

func destOf(op Op) destKind {
	info := opTable[op]
	switch {
	case info.isStor, info.isCtrl && op != OpJal && op != OpJalr:
		return destNone
	case op == OpNop, op == OpHalt:
		return destNone
	case op == OpFcvtWS, op == OpFeq, op == OpFlt, op == OpFle:
		return destInt
	case info.isFP:
		return destFP
	default:
		return destInt
	}
}

// memoryLatency performs the cache accesses for a memory instruction and
// returns its load-to-use (or store completion) latency plus whether the
// access missed the L1 (i.e. the data word crossed the memory bus).
func (s *Simulator) memoryLatency(info *StepInfo) (int, bool) {
	cfg := &s.cfg
	lat := cfg.L1Latency
	res := s.l1d.Access(info.Addr, info.IsStore)
	if res.Hit {
		return lat, false
	}
	lat += cfg.L2Latency
	l2res := s.l2.Access(info.Addr, false)
	if !l2res.Hit {
		lat += cfg.MemLatency
	}
	if res.Writeback {
		s.l2.Access(res.WritebackAddr, true)
	}
	return lat, true
}

func (s *Simulator) acquireFU(class FUClass, from uint64) uint64 {
	units := s.fuFree[class]
	best := 0
	for i := 1; i < len(units); i++ {
		if units[i] < units[best] {
			best = i
		}
	}
	start := from
	if units[best] > start {
		start = units[best]
	}
	units[best] = start + 1 // fully pipelined units
	return start
}

func usesRs2(op Op) bool {
	switch opTable[op].format {
	case fmtRRR, fmtBranch:
		return !opTable[op].isFP || op == OpFeq || op == OpFlt || op == OpFle
	case fmtMem:
		return opTable[op].isStor && !opTable[op].isFP
	}
	return false
}

func isConditional(op Op) bool {
	switch op {
	case OpBeq, OpBne, OpBlt, OpBge, OpBltu, OpBgeu:
		return true
	}
	return false
}
