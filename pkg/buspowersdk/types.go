package buspowersdk

// The SDK defines its own wire types rather than re-exporting the
// server's internal ones: internal/ packages are unimportable outside
// this module, and the JSON shapes — not the Go identifiers — are the
// API contract. Parity tests in this package round-trip every mirror
// against its internal counterpart, so a drifting field breaks the
// build, not a user.

// EvalRequest is the POST /v1/eval payload. Exactly one source must be
// set: Workload+Bus, Random, or Values.
type EvalRequest struct {
	// Workload names a registered benchmark; Bus selects its captured
	// stream: "reg", "mem" or "addr".
	Workload string `json:"workload,omitempty"`
	Bus      string `json:"bus,omitempty"`
	// Random asks for the shared uniformly random trace of this length.
	Random int `json:"random,omitempty"`
	// Values is an inline submitted trace.
	Values []uint64 `json:"values,omitempty"`
	// Scheme is the coding-scheme spec, e.g. "window:entries=8" or
	// "context:table=64,sr=8".
	Scheme string `json:"scheme"`
	// Lambda is the coupling ratio Λ the meters are read at (default 1).
	Lambda float64 `json:"lambda,omitempty"`
	// Verify is the decoder round-trip policy: "full", "sampled[:N]" or
	// "off".
	Verify string `json:"verify,omitempty"`
	// Quick selects reduced workload simulation bounds; the Max fields
	// override individual bounds.
	Quick           bool   `json:"quick,omitempty"`
	MaxInstructions uint64 `json:"max_instructions,omitempty"`
	MaxBusValues    int    `json:"max_bus_values,omitempty"`
}

// BusStats is one bus's activity accounting.
type BusStats struct {
	Width        int     `json:"width"`
	Cycles       uint64  `json:"cycles"`
	Transitions  uint64  `json:"transitions"`
	Couplings    uint64  `json:"couplings"`
	Cost         float64 `json:"cost"`
	CostPerCycle float64 `json:"cost_per_cycle"`
}

// OpStats counts the encoder's hardware operations (§5.3.2 of the
// paper). Field names are the wire names — the server's type carries no
// JSON tags.
type OpStats struct {
	Cycles            uint64
	PartialMatches    uint64
	FullMatches       uint64
	Shifts            uint64
	CounterIncrements uint64
	CounterCompares   uint64
	Swaps             uint64
	TableWrites       uint64
	CodeSends         uint64
	RawSends          uint64
	LastHits          uint64
}

// EvalResponse is the POST /v1/eval result.
type EvalResponse struct {
	Scheme             string   `json:"scheme"`
	ConfigKey          string   `json:"config_key"`
	Source             string   `json:"source"`
	Lambda             float64  `json:"lambda"`
	Verify             string   `json:"verify"`
	Raw                BusStats `json:"raw"`
	Coded              BusStats `json:"coded"`
	EnergyRemovedPct   float64  `json:"energy_removed_pct"`
	EnergyRemainingPct float64  `json:"energy_remaining_pct"`
	Ops                OpStats  `json:"ops"`
}

// SchemeInfo describes one accepted scheme kind (GET /v1/schemes).
type SchemeInfo struct {
	Kind    string `json:"kind"`
	Example string `json:"example"`
}

// SchemesResponse is the GET /v1/schemes payload.
type SchemesResponse struct {
	Schemes []SchemeInfo `json:"schemes"`
	Grammar string       `json:"grammar"`
}

// WorkloadInfo describes one registered workload (GET /v1/workloads).
type WorkloadInfo struct {
	Name        string   `json:"name"`
	Suite       string   `json:"suite"`
	Description string   `json:"description"`
	Buses       []string `json:"buses"`
}

// Health is the GET /healthz payload.
type Health struct {
	Status string `json:"status"`
}
