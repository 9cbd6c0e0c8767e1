package cpu

import (
	"fmt"
	"sort"
)

// This file preserves the straightforward map-based timing model as a
// correctness oracle for the optimized Simulator in ooo.go. The two
// implementations must stay cycle-identical: the golden differential test
// (golden_test.go) runs real workloads through both and requires the
// resulting BusTraces to match exactly. When changing pipeline semantics,
// change BOTH implementations; when optimizing, change only ooo.go.

// refSlotMap counts bandwidth consumption per cycle with pruning — the
// unoptimized analog of slotRing.
type refSlotMap map[uint64]int

// reserve finds the first cycle >= from with a free slot (capacity cap)
// and consumes it.
func (s refSlotMap) reserve(from uint64, cap int) uint64 {
	c := from
	for s[c] >= cap {
		c++
	}
	s[c]++
	return c
}

// ReferenceSimulator is the unoptimized out-of-order timing model. It
// exists solely as a differential-testing oracle; production code uses
// Simulator.
type ReferenceSimulator struct {
	cfg  Config
	core *Core
	l1d  *Cache
	l2   *Cache
	pred *BimodalPredictor

	intReady [32]uint64
	fpReady  [32]uint64

	commitRing []uint64
	ringPos    int
	lsqRing    []uint64
	lsqPos     int

	fuFree [fuClassCount][]uint64

	issueSlots  refSlotMap
	commitSlots refSlotMap
	fetchSlots  refSlotMap

	storeComplete map[uint32]uint64

	fetchFrontier  uint64
	lastCommit     uint64
	lastCycle      uint64
	pruneCountdown int

	ras    [16]int32
	rasTop int

	regEvents  []refBusEvent
	memEvents  []refBusEvent
	addrEvents []refBusEvent
}

func (s *ReferenceSimulator) rasPush(addr int32) {
	s.rasTop = (s.rasTop + 1) % len(s.ras)
	s.ras[s.rasTop] = addr
}

func (s *ReferenceSimulator) rasPop() int32 {
	addr := s.ras[s.rasTop]
	s.rasTop = (s.rasTop - 1 + len(s.ras)) % len(s.ras)
	return addr
}

type refBusEvent struct {
	cycle uint64
	seq   int // tie-break: program order
	value uint32
}

// NewReferenceSimulator wraps a functional core in the unoptimized timing
// model.
func NewReferenceSimulator(p *Program, cfg Config) (*ReferenceSimulator, error) {
	core, err := NewCore(p)
	if err != nil {
		return nil, err
	}
	s := &ReferenceSimulator{
		cfg:           cfg,
		core:          core,
		l1d:           NewCache("l1d", cfg.L1DSize, cfg.L1DWays, cfg.L1DLine),
		l2:            NewCache("l2", cfg.L2Size, cfg.L2Ways, cfg.L2Line),
		pred:          NewBimodalPredictor(cfg.PredictorEntries),
		commitRing:    make([]uint64, cfg.RUUSize),
		lsqRing:       make([]uint64, cfg.LSQSize),
		issueSlots:    make(refSlotMap),
		commitSlots:   make(refSlotMap),
		fetchSlots:    make(refSlotMap),
		storeComplete: make(map[uint32]uint64),
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
func (s *ReferenceSimulator) Run(maxInstrs uint64, maxBusValues int) BusTraces {
	cfg := s.cfg
	var executed uint64
	for executed < maxInstrs && !s.core.Halted() {
		info := s.core.Step()
		if info.Halted && info.Instr.Op != OpHalt {
			break
		}
		executed++

		// --- Fetch ---
		fetch := s.fetchSlots.reserve(s.fetchFrontier, cfg.FetchWidth)
		s.pruneSlots(fetch)

		// --- Dispatch: decode depth + reorder window slot ---
		dispatch := fetch + 2
		if windowFree := s.commitRing[s.ringPos]; dispatch < windowFree {
			dispatch = windowFree
		}
		if info.IsLoad || info.IsStore {
			if lsqFree := s.lsqRing[s.lsqPos]; dispatch < lsqFree {
				dispatch = lsqFree
			}
		}
		if dispatch > fetch+2 && dispatch-2 > s.fetchFrontier {
			s.fetchFrontier = dispatch - 2
		}

		// --- Source operands ---
		ready := dispatch + 1
		in := info.Instr
		switch {
		case in.Op.IsFP():
			if t := fpSrcReadyTimes(&s.fpReady, &s.intReady, in); t > ready {
				ready = t
			}
			if (info.IsLoad || info.IsStore) && s.intReady[in.Rs1] > ready {
				ready = s.intReady[in.Rs1]
			}
		default:
			if t := s.intReady[in.Rs1]; t > ready {
				ready = t
			}
			if usesRs2(in.Op) {
				if t := s.intReady[in.Rs2]; t > ready {
					ready = t
				}
			}
		}
		if info.IsLoad {
			if t := s.storeComplete[info.Addr&^3]; t > ready {
				ready = t
			}
		}

		// --- Issue: bandwidth + functional unit ---
		issue := s.issueSlots.reserve(ready, cfg.IssueWidth)
		issue = s.acquireFU(in.Op.Class(), issue)

		// --- Execute/complete ---
		complete := issue + uint64(in.Op.Latency())
		l1Miss := false
		if info.IsLoad || info.IsStore {
			var lat int
			lat, l1Miss = s.memoryLatency(info)
			complete = issue + uint64(lat)
		}

		// --- Register bus events: operand reads at issue ---
		for i := 0; i < info.NSrcInt; i++ {
			s.regEvents = append(s.regEvents, refBusEvent{issue, len(s.regEvents), info.SrcInt[i]})
		}

		// --- Memory bus events ---
		if (info.IsLoad && l1Miss) || info.IsStore {
			s.memEvents = append(s.memEvents, refBusEvent{complete, len(s.memEvents), info.Data})
			s.addrEvents = append(s.addrEvents, refBusEvent{complete, len(s.addrEvents), info.Addr})
		}

		// --- Writeback: destination ready ---
		s.setDestReady(in, complete)
		if info.IsStore {
			s.storeComplete[info.Addr&^3] = complete
			if len(s.storeComplete) > 4*cfg.LSQSize {
				s.pruneStores(complete)
			}
		}

		// --- Commit: in order ---
		commit := complete + 1
		if commit < s.lastCommit {
			commit = s.lastCommit
		}
		commit = s.commitSlots.reserve(commit, cfg.CommitWidth)
		s.lastCommit = commit
		s.commitRing[s.ringPos] = commit
		s.ringPos = (s.ringPos + 1) % len(s.commitRing)
		if info.IsLoad || info.IsStore {
			s.lsqRing[s.lsqPos] = commit
			s.lsqPos = (s.lsqPos + 1) % len(s.lsqRing)
		}
		if commit > s.lastCycle {
			s.lastCycle = commit
		}

		// --- Control flow: train predictor, charge mispredictions ---
		if fetch > s.fetchFrontier {
			s.fetchFrontier = fetch
		}
		if info.IsControl {
			mispredicted := false
			switch {
			case isConditional(in.Op):
				predictedTaken := s.pred.PredictAndUpdate(info.Index, info.Taken)
				mispredicted = predictedTaken != info.Taken
			case in.Op == OpJal:
				if in.Rd == 31 {
					s.rasPush(info.Index + 1)
				}
			case in.Op == OpJalr:
				if in.Rs1 == 31 && in.Rd == 0 {
					mispredicted = s.rasPop() != info.NextPC
				} else {
					mispredicted = true
				}
			}
			if mispredicted {
				redirect := complete + uint64(cfg.MispredictPenalty)
				if redirect > s.fetchFrontier {
					s.fetchFrontier = redirect
				}
			}
		}

		if maxBusValues > 0 && len(s.regEvents) >= maxBusValues && len(s.memEvents) >= maxBusValues {
			break
		}
	}
	return s.collect(executed, maxBusValues)
}

func (s *ReferenceSimulator) setDestReady(in Instr, complete uint64) {
	switch destOf(in.Op) {
	case destInt:
		if in.Rd != 0 {
			s.intReady[in.Rd] = complete
		}
	case destFP:
		s.fpReady[in.Rd] = complete
	}
}

func (s *ReferenceSimulator) memoryLatency(info StepInfo) (int, bool) {
	cfg := s.cfg
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

func (s *ReferenceSimulator) acquireFU(class FUClass, from uint64) uint64 {
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

func (s *ReferenceSimulator) pruneSlots(frontier uint64) {
	s.pruneCountdown--
	if s.pruneCountdown > 0 {
		return
	}
	s.pruneCountdown = 16384
	cut := frontier
	if window := uint64(s.cfg.RUUSize) * 4; cut > window {
		cut -= window
	} else {
		cut = 0
	}
	for _, m := range []refSlotMap{s.issueSlots, s.commitSlots, s.fetchSlots} {
		for c := range m {
			if c < cut {
				delete(m, c)
			}
		}
	}
}

func (s *ReferenceSimulator) pruneStores(frontier uint64) {
	cut := frontier
	if cut > 512 {
		cut -= 512
	} else {
		cut = 0
	}
	for a, t := range s.storeComplete {
		if t < cut {
			delete(s.storeComplete, a)
		}
	}
}

func (s *ReferenceSimulator) collect(executed uint64, maxBusValues int) BusTraces {
	sortEvents := func(ev []refBusEvent) []uint32 {
		sort.Slice(ev, func(i, j int) bool {
			if ev[i].cycle != ev[j].cycle {
				return ev[i].cycle < ev[j].cycle
			}
			return ev[i].seq < ev[j].seq
		})
		out := make([]uint32, len(ev))
		for i, e := range ev {
			out[i] = e.value
		}
		if maxBusValues > 0 && len(out) > maxBusValues {
			out = out[:maxBusValues]
		}
		return out
	}
	t := BusTraces{
		RegisterBus:   sortEvents(s.regEvents),
		MemoryBus:     sortEvents(s.memEvents),
		MemoryAddrBus: sortEvents(s.addrEvents),
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
