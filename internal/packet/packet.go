// Package packet defines the DTN data-plane objects of §3.1: packets,
// node identifiers, and the workload — the set of (source, destination,
// size, creation-time) tuples a routing algorithm must deliver — plus
// the Poisson workload generator used by the deployment and the
// simulations (§5.1: "exponential inter-arrival time").
package packet

import (
	"fmt"
	"math/rand"
	"sort"
)

// NodeID identifies a DTN node (a bus in DieselNet). IDs are small
// non-negative integers assigned by the scenario.
type NodeID int

// ID uniquely identifies a packet within a simulation run.
type ID int64

// MaxID bounds packet IDs: a run accepts only packets with IDs in
// [0, MaxID). Every generator numbers packets sequentially from
// GenConfig.FirstID, and the control plane keeps each node's ack set as
// a bitset indexed by ID (DESIGN.md §3), so a huge ID would size a
// node's ack set to it; the bound caps that at MaxID/8 bytes (32 MiB),
// and a Table's directory at 4 MiB.
const MaxID = 1 << 28

// Packet is an immutable description of a DTN bundle. Replicas share the
// same *Packet; per-replica state lives with the node holding the copy.
type Packet struct {
	ID      ID
	Src     NodeID
	Dst     NodeID
	Size    int64   // bytes
	Created float64 // creation time at the source, seconds
	// Deadline is the absolute time after which delivery is worthless
	// (L(i) in Eq. 2 measured from Created). Zero means no deadline.
	Deadline float64
	// Cohort tags packets created in the same parallel batch, used by
	// the fairness experiment (Fig. 15). Zero means no cohort.
	Cohort int
}

// Age returns T(i): the time since creation at the given clock.
func (p *Packet) Age(now float64) float64 { return now - p.Created }

// String implements fmt.Stringer for debugging output.
func (p *Packet) String() string {
	return fmt.Sprintf("pkt(%d %d→%d %dB t=%.1f)", p.ID, p.Src, p.Dst, p.Size, p.Created)
}

// Workload is a time-sorted set of packets to be injected at their
// sources.
type Workload []*Packet

// Sort orders the workload by creation time, then ID (stable across
// runs).
func (w Workload) Sort() {
	sort.Slice(w, func(i, j int) bool {
		if w[i].Created != w[j].Created {
			return w[i].Created < w[j].Created
		}
		return w[i].ID < w[j].ID
	})
}

// GenConfig parameterizes the Poisson workload generator.
type GenConfig struct {
	// Nodes lists the participating nodes; every node generates packets
	// for every other listed node (the deployment generated packets
	// "for every other bus on the road", §5.1).
	Nodes []NodeID
	// PacketsPerHourPerDest is the paper's load axis: the rate at which
	// each (src,dst) pair generates packets, in packets per LoadWindow.
	PacketsPerHourPerDest float64
	// LoadWindow is the unit of the rate above, in seconds (3600 for
	// trace experiments, 50 for the synthetic ones — Table 4).
	LoadWindow float64
	// Duration is the generation horizon in seconds.
	Duration float64
	// PacketSize in bytes (1 KB everywhere in the paper).
	PacketSize int64
	// Deadline, if positive, stamps every packet with
	// Created+Deadline (the delivery deadline metric's L(i)).
	Deadline float64
	// FirstID seeds packet ID assignment.
	FirstID ID
}

// Generate draws a Poisson workload: for every ordered (src, dst) pair
// of distinct nodes, packet creations form a Poisson process with rate
// PacketsPerHourPerDest/LoadWindow. The result is time-sorted.
func Generate(cfg GenConfig, r *rand.Rand) Workload {
	var out Workload
	if cfg.PacketsPerHourPerDest <= 0 || cfg.LoadWindow <= 0 || cfg.Duration <= 0 {
		return out
	}
	rate := cfg.PacketsPerHourPerDest / cfg.LoadWindow
	id := cfg.FirstID
	for _, src := range cfg.Nodes {
		for _, dst := range cfg.Nodes {
			if src == dst {
				continue
			}
			t := 0.0
			for {
				t += r.ExpFloat64() / rate
				if t >= cfg.Duration {
					break
				}
				p := &Packet{
					ID:      id,
					Src:     src,
					Dst:     dst,
					Size:    cfg.PacketSize,
					Created: t,
				}
				if cfg.Deadline > 0 {
					p.Deadline = t + cfg.Deadline
				}
				id++
				out = append(out, p)
			}
		}
	}
	out.Sort()
	return out
}

// GenerateOnOff draws a bursty workload: each ordered (src, dst) pair
// alternates exponential ON periods (mean onMean seconds), during which
// packets arrive as a Poisson process at the configured rate, with
// exponential OFF periods (mean offMean) of silence. The long-run
// offered load is the Poisson load scaled by the duty cycle
// onMean/(onMean+offMean). offMean <= 0 degenerates to Generate.
func GenerateOnOff(cfg GenConfig, onMean, offMean float64, r *rand.Rand) Workload {
	if offMean <= 0 {
		return Generate(cfg, r)
	}
	var out Workload
	if cfg.PacketsPerHourPerDest <= 0 || cfg.LoadWindow <= 0 || cfg.Duration <= 0 || onMean <= 0 {
		return out
	}
	rate := cfg.PacketsPerHourPerDest / cfg.LoadWindow
	id := cfg.FirstID
	for _, src := range cfg.Nodes {
		for _, dst := range cfg.Nodes {
			if src == dst {
				continue
			}
			// Each pair starts a fresh on/off cycle at a random phase
			// within its first cycle so bursts are not synchronized
			// fleet-wide.
			t := -r.Float64() * (onMean + offMean)
			for t < cfg.Duration {
				on := t + r.ExpFloat64()*onMean
				arrival := t
				for {
					arrival += r.ExpFloat64() / rate
					if arrival >= on || arrival >= cfg.Duration {
						break
					}
					if arrival < 0 {
						continue // before the horizon (phase offset)
					}
					p := &Packet{
						ID:      id,
						Src:     src,
						Dst:     dst,
						Size:    cfg.PacketSize,
						Created: arrival,
					}
					if cfg.Deadline > 0 {
						p.Deadline = arrival + cfg.Deadline
					}
					id++
					out = append(out, p)
				}
				t = on + r.ExpFloat64()*offMean
			}
		}
	}
	out.Sort()
	return out
}

// GenerateParallel creates `cohorts` batches of `parallel` packets each;
// all packets in a batch are created at the same instant with distinct
// (src,dst) pairs drawn round-robin over Nodes. This reproduces the
// fairness workload of Fig. 15 ("20 to 30 parallel packets").
func GenerateParallel(nodes []NodeID, cohorts, parallel int, spacing float64, size int64, r *rand.Rand) Workload {
	var out Workload
	if len(nodes) < 2 {
		return out
	}
	id := ID(1)
	for c := 0; c < cohorts; c++ {
		t := spacing * float64(c+1)
		for k := 0; k < parallel; k++ {
			src := nodes[r.Intn(len(nodes))]
			dst := nodes[r.Intn(len(nodes))]
			for dst == src {
				dst = nodes[r.Intn(len(nodes))]
			}
			out = append(out, &Packet{
				ID: id, Src: src, Dst: dst, Size: size, Created: t, Cohort: c + 1,
			})
			id++
		}
	}
	out.Sort()
	return out
}
