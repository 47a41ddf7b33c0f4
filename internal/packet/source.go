package packet

import (
	"math"
	"sort"

	"rapid/internal/minheap"
)

// Source is a streaming workload: packets are produced one at a time in
// nondecreasing Created order, so a run can schedule creation events on
// demand instead of materializing the whole workload slice up front —
// at mega-constellation scales a full horizon of traffic never needs to
// live in memory at once.
//
// Implementations must be deterministic: the same source configuration
// always yields the same packet sequence (the reproducibility contract
// every generator in this package honors).
type Source interface {
	// Next returns the next packet, or ok=false when the workload is
	// exhausted. Created times never decrease across calls.
	Next() (*Packet, bool)
	// Endpoints returns the sorted set of node IDs that can appear as a
	// packet source or destination — the participant universe a run
	// must construct nodes for before the first packet arrives.
	Endpoints() []NodeID
}

// SliceSource adapts a materialized (time-sorted) Workload to the
// Source interface.
type SliceSource struct {
	w Workload
	i int
}

// NewSliceSource wraps w, which must already be sorted (Workload.Sort).
func NewSliceSource(w Workload) *SliceSource { return &SliceSource{w: w} }

// Next implements Source.
func (s *SliceSource) Next() (*Packet, bool) {
	if s.i >= len(s.w) {
		return nil, false
	}
	p := s.w[s.i]
	s.i++
	return p, true
}

// Endpoints implements Source.
func (s *SliceSource) Endpoints() []NodeID {
	seen := map[NodeID]bool{}
	for _, p := range s.w {
		seen[p.Src] = true
		seen[p.Dst] = true
	}
	return sortedIDs(seen)
}

// PoissonSource streams the Poisson workload of Generate without
// materializing it: every ordered (src, dst) pair owns an independent
// counter-based exponential arrival stream, and a heap merges the
// pairs' next arrivals into one global time-sorted sequence. Memory is
// O(pairs), independent of duration and load.
//
// The per-pair streams are counter-indexed splitmix64 draws, so the
// sequence is a pure function of (seed, pair, arrival index) — the same
// determinism idiom the disruption layer uses — rather than a shared
// consumption-ordered rand.Rand, which is what makes lazy pair
// interleaving possible at all. The sequence therefore differs from
// Generate's for the same seed; scenarios choose one generator and keep
// it (figures are regenerated, not mixed).
type PoissonSource struct {
	cfg    GenConfig
	rate   float64
	seed   uint64
	nextID ID
	h      minheap.Heap[arrival]
	nodes  []NodeID
}

// arrival is one pair's pending packet creation.
type arrival struct {
	t        float64
	src, dst NodeID
	ctr      uint64 // per-pair draw counter
	pairSeed uint64
}

// arrivalLess orders pending arrivals by (time, src, dst); each pair
// has one pending arrival, so the order is total.
func arrivalLess(a, b arrival) bool {
	if a.t != b.t {
		return a.t < b.t
	}
	if a.src != b.src {
		return a.src < b.src
	}
	return a.dst < b.dst
}

// NewPoissonSource returns a streaming Poisson workload for cfg. Packet
// IDs are assigned in emission order starting at cfg.FirstID, so the
// drained sequence satisfies the (Created, ID) ordering the runtime's
// delivery queues assume.
func NewPoissonSource(cfg GenConfig, seed uint64) *PoissonSource {
	s := &PoissonSource{cfg: cfg, seed: seed, nextID: cfg.FirstID}
	s.h.Less = arrivalLess
	set := map[NodeID]bool{}
	for _, id := range cfg.Nodes {
		set[id] = true
	}
	s.nodes = sortedIDs(set)
	if cfg.PacketsPerHourPerDest <= 0 || cfg.LoadWindow <= 0 || cfg.Duration <= 0 {
		return s
	}
	s.rate = cfg.PacketsPerHourPerDest / cfg.LoadWindow
	for _, src := range cfg.Nodes {
		for _, dst := range cfg.Nodes {
			if src == dst {
				continue
			}
			ps := pairSeed(seed, src, dst)
			a := arrival{src: src, dst: dst, pairSeed: ps}
			a.t = expGap(ps, a.ctr) / s.rate
			a.ctr++
			if a.t < cfg.Duration {
				s.h.Items = append(s.h.Items, a)
			}
		}
	}
	s.h.Init()
	return s
}

// Next implements Source.
func (s *PoissonSource) Next() (*Packet, bool) {
	if s.h.Len() == 0 {
		return nil, false
	}
	a := s.h.Pop()
	p := &Packet{
		ID: s.nextID, Src: a.src, Dst: a.dst,
		Size: s.cfg.PacketSize, Created: a.t,
	}
	if s.cfg.Deadline > 0 {
		p.Deadline = a.t + s.cfg.Deadline
	}
	s.nextID++
	a.t += expGap(a.pairSeed, a.ctr) / s.rate
	a.ctr++
	if a.t < s.cfg.Duration {
		s.h.Push(a)
	}
	return p, true
}

// Endpoints implements Source.
func (s *PoissonSource) Endpoints() []NodeID {
	return s.nodes
}

// Drain materializes the remaining sequence — the reference form the
// streaming-equivalence tests compare against.
func (s *PoissonSource) Drain() Workload {
	var out Workload
	for {
		p, ok := s.Next()
		if !ok {
			return out
		}
		out = append(out, p)
	}
}

// pairSeed derives one (src, dst) pair's independent stream seed.
func pairSeed(seed uint64, src, dst NodeID) uint64 {
	return splitmix64(seed ^ splitmix64(uint64(src)<<32|uint64(uint32(dst))))
}

// expGap draws the ctr-th unit-mean exponential gap of a pair stream.
func expGap(pairSeed, ctr uint64) float64 {
	u := splitmix64(pairSeed + 0x9e3779b97f4a7c15*(ctr+1))
	// Map to (0, 1]: the +1 excludes 0 so the log below stays finite.
	f := float64(u>>11+1) / float64(1<<53)
	return -math.Log(f)
}

// splitmix64 is the standard 64-bit finalizer-based generator.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// sortedIDs flattens a node set to a sorted slice.
func sortedIDs(set map[NodeID]bool) []NodeID {
	out := make([]NodeID, 0, len(set))
	for id := range set {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
