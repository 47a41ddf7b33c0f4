package rapid_test

// Benchmarks of the library: the ablation benches DESIGN.md §5 calls
// out, micro-benchmarks of the hot paths, and the constellation-scale
// end-to-end runs (BenchmarkConstellation is the CI regression gate).
// The paper's figures are regenerated by `cmd/experiments -fig all`,
// not timed here.
//
//	go test -bench=. -benchmem

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"rapid"
	"rapid/internal/buffer"
	"rapid/internal/control"
	"rapid/internal/core"
	"rapid/internal/exp"
	"rapid/internal/meet"
	"rapid/internal/packet"
	"rapid/internal/routing"
	"rapid/internal/routing/optimal"
	"rapid/internal/scenario"
	"rapid/internal/sim"
	"rapid/internal/trace"
)

// ---------------------------------------------------------------------
// Ablation benches (DESIGN.md §5): each contrasts a design choice by
// running the same scenario with the alternative setting and reporting
// the resulting average delay as a benchmark metric.

func ablationScenario() (*rapid.Schedule, rapid.Workload) {
	sched := rapid.ExponentialMobility(rapid.MobilityConfig{
		Nodes: 16, Duration: 500, MeanMeeting: 50, TransferBytes: 40 << 10,
	}, 3)
	w := rapid.PoissonWorkload(rapid.WorkloadConfig{
		Nodes: sched.Nodes(), PacketsPerWindowPerDest: 2, Window: 50,
		Duration: 400, PacketBytes: 1 << 10, Deadline: 60,
	}, 4)
	return sched, w
}

// BenchmarkAblationHops contrasts the h-hop meeting-estimation horizon
// (paper: h = 3).
func BenchmarkAblationHops(b *testing.B) {
	sched, w := ablationScenario()
	for _, hops := range []int{1, 2, 3} {
		b.Run(fmt.Sprintf("h=%d", hops), func(b *testing.B) {
			var delay float64
			for i := 0; i < b.N; i++ {
				res := rapid.Run(sched, w, rapid.RAPID(rapid.MinimizeAvgDelay),
					rapid.Config{Seed: 5, Hops: hops})
				delay = res.Summary.AvgDelay
			}
			b.ReportMetric(delay, "avgDelay_s")
		})
	}
}

// BenchmarkAblationDelta contrasts delta metadata exchange with a
// disabled control channel (full-exchange vs none bounds the channel's
// value; Fig. 8 sweeps the middle).
func BenchmarkAblationDelta(b *testing.B) {
	sched, w := ablationScenario()
	for _, mode := range []struct {
		name string
		frac float64
	}{{"full-metadata", 0}, {"no-metadata", -1}} {
		b.Run(mode.name, func(b *testing.B) {
			var delay float64
			for i := 0; i < b.N; i++ {
				res := rapid.Run(sched, w, rapid.RAPID(rapid.MinimizeAvgDelay),
					rapid.Config{Seed: 5, MetaFraction: mode.frac})
				delay = res.Summary.AvgDelay
			}
			b.ReportMetric(delay, "avgDelay_s")
		})
	}
}

// BenchmarkAblationWorkConserving contrasts the max-delay metric (whose
// plan order embodies the §3.5.3 work-conserving recomputation) with
// the avg-delay metric on the same scenario, reporting max delay.
func BenchmarkAblationWorkConserving(b *testing.B) {
	sched, w := ablationScenario()
	for _, m := range []rapid.Metric{rapid.MinimizeMaxDelay, rapid.MinimizeAvgDelay} {
		b.Run(m.String(), func(b *testing.B) {
			var maxDelay float64
			for i := 0; i < b.N; i++ {
				res := rapid.Run(sched, w, rapid.RAPID(m), rapid.Config{Seed: 5})
				maxDelay = res.Summary.MaxDelay
			}
			b.ReportMetric(maxDelay, "maxDelay_s")
		})
	}
}

// BenchmarkAblationDAGDelay contrasts Estimate-Delay's closed form with
// the Appendix-C DAG Monte Carlo on the Fig. 2 scenario.
func BenchmarkAblationDAGDelay(b *testing.B) {
	sc := core.DagScenario{
		Queues: map[packet.NodeID][]packet.ID{1: {200}, 2: {100, 200}, 3: {100, 200}},
		Rate:   map[packet.NodeID]float64{1: 0.2, 2: 0.2, 3: 0.2},
	}
	b.Run("dag-delay", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			core.DagDelay(sc, 2048, int64(i))
		}
	})
	b.Run("estimate-delay", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			core.EstimateDelayExpectation(sc)
		}
	})
}

// ---------------------------------------------------------------------
// Micro-benchmarks of the hot paths.

func BenchmarkEngineScheduleRun(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e := sim.New(1)
		for j := 0; j < 1000; j++ {
			e.ScheduleFunc(float64(j%97), func(*sim.Engine) {})
		}
		e.Run()
	}
}

// BenchmarkPlanReplication measures RAPID's slice replication plan at
// one contact (planContact): each op is the pass that prices every
// candidate plus the sort.
func BenchmarkPlanReplication(b *testing.B) {
	own, peer := planContact()
	b.ReportAllocs()
	for b.Loop() {
		own.Router.PlanReplication(peer, 2e4)
	}
}

// BenchmarkPullReplication measures the plan a point session pulls at
// the same contact: each op prices every candidate, heapifies them and
// pulls until a 400 KB budget is spent — 400 of the 4,000 candidates,
// about the tenth of its plan that a RAPID session sends on the
// DieselNet trace.
func BenchmarkPullReplication(b *testing.B) {
	own, peer := planContact()
	puller := own.Router.(routing.PlanPuller)
	b.ReportAllocs()
	for b.Loop() {
		plan := puller.PullReplication(peer, 2e4)
		budget := int64(400 << 10)
		for e := plan.Next(budget); e != nil; e = plan.Next(budget) {
			budget -= e.P.Size
		}
	}
}

// planContact builds the contact the plan benchmarks price: a
// 4,000-entry own buffer over 20 destinations, a third of its packets
// with a remote replica estimate, against a 4,000-entry peer buffer
// that holds a quarter of them too, under the average-delay metric.
func planContact() (own, peer *routing.Node) {
	const entries, dsts = 4000, 20
	ids := make([]packet.NodeID, dsts+2)
	for i := range ids {
		ids[i] = packet.NodeID(i)
	}
	net := routing.NewNetwork(sim.New(1), ids, core.New(core.AvgDelay),
		routing.Config{Mode: routing.ControlInBand, MetaFraction: -1, DefaultTransferBytes: 64 << 10})
	net.Horizon = 1e5
	own, peer = net.Node(0), net.Node(1)
	peerRow := map[packet.NodeID]float64{}
	for d := packet.NodeID(2); d < dsts+2; d++ {
		own.Ctl.Meet.ObserveMeeting(d, float64(100+10*d))
		peerRow[d] = float64(50 + 20*d)
	}
	own.Ctl.Meet.MergeTable(1, peerRow)
	own.Ctl.ObserveTransfer(64 << 10)
	r := rand.New(rand.NewSource(1))
	mk := func(id int) *packet.Packet {
		return &packet.Packet{
			ID: packet.ID(id), Src: 0, Dst: packet.NodeID(2 + r.Intn(dsts)),
			Size: 1 << 10, Created: r.Float64() * 1e4,
		}
	}
	for i := 0; i < entries; i++ {
		p := mk(i)
		own.Store.Insert(&buffer.Entry{P: p}, nil)
		if i%4 == 0 {
			peer.Store.Insert(&buffer.Entry{P: p}, nil)
		}
		if i%3 == 0 {
			own.Ctl.NoteReplica(control.InventoryItem{
				ID: p.ID, Dst: p.Dst, Size: p.Size, Created: p.Created,
				Delay: 200 + r.Float64()*1000,
			}, packet.NodeID(100+i%50), 1)
		}
	}
	for i := entries; peer.Store.Len() < entries; i++ {
		peer.Store.Insert(&buffer.Entry{P: mk(i)}, nil)
	}
	return own, peer
}

// BenchmarkSaturatedAccept measures buffer eviction: a RAPID avg-delay
// router on a full 100 KB store of 1 KB packets accepting replicas, so
// every op is an insert plus a utility-ranked eviction over the whole
// buffer. The incoming replicas are built off the clock in chunks, so
// B/op and allocs/op count only the router.
func BenchmarkSaturatedAccept(b *testing.B) {
	const size, capacity = 1 << 10, 100 << 10
	net := routing.NewNetwork(sim.New(1), []packet.NodeID{0, 1}, core.New(core.AvgDelay),
		routing.Config{BufferBytes: capacity, Mode: routing.ControlInBand, MetaFraction: -1, DefaultTransferBytes: 4 * size})
	net.Horizon = 1e5
	n := net.Node(0)
	for d := packet.NodeID(2); d < 12; d++ {
		n.Ctl.Meet.ObserveMeeting(d, float64(40+10*d))
	}
	n.Ctl.ObserveTransfer(4 * size)
	next := packet.ID(1)
	var chunk []buffer.Entry
	refill := func() {
		ps := make([]packet.Packet, 1024)
		chunk = make([]buffer.Entry, len(ps))
		for i := range ps {
			ps[i] = packet.Packet{ID: next, Src: 1, Dst: 2 + packet.NodeID(next%10), Size: size, Created: float64(next)}
			chunk[i].P = &ps[i]
			next++
		}
	}
	accept := func(now float64) bool {
		e := &chunk[0]
		chunk = chunk[1:]
		return n.Router.Accept(e, 1, now)
	}
	refill()
	for i := 0; i < capacity/size; i++ {
		accept(0)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if len(chunk) == 0 {
			b.StopTimer()
			refill()
			b.StartTimer()
		}
		if !accept(1e4) {
			b.Fatal("saturated accept rejected")
		}
	}
}

func BenchmarkControlExchange(b *testing.B) {
	inv := make([]control.InventoryItem, 500)
	for i := range inv {
		inv[i] = control.InventoryItem{
			ID: packet.ID(i), Dst: packet.NodeID(i % 20), Size: 1024, Delay: 100,
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a := control.NewState(0, 3, nil)
		c := control.NewState(1, 3, nil)
		control.Exchange(a, c, inv, nil, 10, control.Options{MaxBytes: -1})
	}
}

// BenchmarkReplicaGossip is the control exchange's third-party replica
// gossip in steady state: a sender holding 50,000 replica records meets
// eight receivers in turn, each carrying 2,000 of those packets in
// store (not ID) order. Before each meeting the sender hears a fresh
// estimate for the next 6,250 records, off the clock, so every
// exchange finds all 50,000 records changed since that pair's last
// meeting and gossips the 2,000 its receiver carries. The world is
// rebuilt off the clock every 64 meetings to bound changelog growth.
func BenchmarkReplicaGossip(b *testing.B) {
	const records, carried, receivers = 50000, 2000, 8
	const heard = records / receivers
	item := func(id int, delay float64) control.InventoryItem {
		return control.InventoryItem{
			ID: packet.ID(id), Dst: packet.NodeID(100 + id%64), Size: 1024,
			Created: float64(id % 1000), Deadline: 1e6, Delay: delay,
		}
	}
	var (
		sender *control.State
		recv   [receivers]*control.State
		invs   [receivers][]control.InventoryItem
		now    float64
		meets  int
	)
	meet := func() int {
		r := meets % receivers
		now++
		delay := math.Inf(1) // a reachability flip is always re-gossiped
		if (meets/receivers)%2 == 1 {
			delay = 100
		}
		for id := r * heard; id < (r+1)*heard; id++ {
			sender.NoteReplica(item(id, delay), packet.NodeID(200+id%64), now)
		}
		meets++
		b.StartTimer()
		res := control.Exchange(sender, recv[r], nil, invs[r], now, control.Options{MaxBytes: -1})
		b.StopTimer()
		return res.Replicas
	}
	build := func() {
		sender = control.NewState(0, 3, nil)
		now, meets = 1, 0
		for id := 0; id < records; id++ {
			sender.NoteReplica(item(id, 100), packet.NodeID(200+id%64), now)
		}
		for r := range recv {
			recv[r] = control.NewState(packet.NodeID(1+r), 3, nil)
			if invs[r] == nil {
				for _, j := range rand.New(rand.NewSource(int64(r))).Perm(carried) {
					invs[r] = append(invs[r], item(j*(records/carried)+r, 100))
				}
			}
			control.Exchange(sender, recv[r], nil, invs[r], now, control.Options{MaxBytes: -1})
		}
		for i := 0; i < receivers; i++ {
			meet()
		}
	}
	b.StopTimer()
	build()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if meets == 64 {
			build()
		}
		if got := meet(); got != carried {
			b.Fatalf("gossiped %d replica records, want %d", got, carried)
		}
	}
}

func BenchmarkMeetExpected(b *testing.B) {
	e := meet.New(0, 3)
	r := rand.New(rand.NewSource(2))
	for owner := 1; owner < 30; owner++ {
		t := meet.Table{}
		for peer := 0; peer < 30; peer++ {
			if peer != owner && r.Float64() < 0.4 {
				t[packet.NodeID(peer)] = 10 + r.Float64()*1000
			}
		}
		e.MergeTable(packet.NodeID(owner), t)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = e.Expected(packet.NodeID(i%30), packet.NodeID((i+7)%30))
	}
}

// BenchmarkMeetMerge is the gossip merge: 512 owners with ~10-entry
// tables, each merge re-delivering one owner's table after one of its
// meetings moved a single entry.
func BenchmarkMeetMerge(b *testing.B) {
	const owners = 512
	srcs := make([]*meet.Estimator, owners)
	e := meet.New(owners, 3)
	for o := range srcs {
		srcs[o] = meet.New(packet.NodeID(o), 3)
		for k := 1; k <= 10; k++ {
			srcs[o].ObserveMeeting(packet.NodeID((o+k)%owners), float64(10*k))
		}
		e.MergeTableFrom(srcs[o], packet.NodeID(o))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		o := i % owners
		peer := packet.NodeID((o + 1 + (i/owners)%10) % owners)
		srcs[o].ObserveMeeting(peer, float64(200+i))
		e.MergeTableFrom(srcs[o], packet.NodeID(o))
	}
}

// BenchmarkMeetMergeFanout is gossip's common shape: one owner's
// published ten-entry row merged into 32 receivers after each of its
// meetings. An op is one merge, so every 32nd op also pays the meeting
// and the one publication the 32 merges share.
func BenchmarkMeetMergeFanout(b *testing.B) {
	const receivers = 32
	src := meet.New(0, 3)
	for k := 1; k <= 10; k++ {
		src.ObserveMeeting(packet.NodeID(k), float64(10*k))
	}
	dsts := make([]*meet.Estimator, receivers)
	for r := range dsts {
		dsts[r] = meet.New(packet.NodeID(100+r), 3)
		dsts[r].MergeTableFrom(src, 0)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := i % receivers
		if r == 0 {
			src.ObserveMeeting(packet.NodeID(1+(i/receivers)%10), float64(200+i))
		}
		dsts[r].MergeTableFrom(src, 0)
	}
}

// BenchmarkCGRPlan is the plan-ahead CGR search over a primed 12×24+12
// constellation-passes graph (the cgr-windowed-lossy population).
// Each iteration generates one packet at a ground station at
// mid-horizon, so the multi-copy arm plans and commits up to three
// window- and relay-disjoint routes, then delivers it, releasing every
// reservation: each iteration plans against the same graph.
func BenchmarkCGRPlan(b *testing.B) {
	scs, err := scenario.Expand("constellation-passes", scenario.Params{
		Tag: "bench-cgr-plan", Runs: 1, Loads: []float64{4},
		Planes: 12, SatsPerPlane: 24, Ground: 12, OrbitPeriod: 900, Duration: 900,
		Protocols: []scenario.Proto{scenario.ProtoCGRMulti},
	})
	if err != nil {
		b.Fatal(err)
	}
	rs := scs[0].Materialize()
	sched := rs.Plan.Expand()
	net := routing.NewNetwork(sim.New(rs.Seed), sched.Nodes(), rs.Factory, rs.Cfg)
	src := net.Nodes[0]
	src.Router.(routing.SchedulePrimer).PrimeSchedule(sched, net)
	deliver := src.Router.(routing.DeliveryObserver)
	const now = 450
	p := &packet.Packet{ID: 1, Src: 0, Dst: 11, Size: 1 << 10, Created: now}
	src.Router.Generate(p, now)
	if !src.Store.Has(p.ID) {
		b.Fatal("the source refused the packet")
	}
	deliver.OnDelivered(p.ID, now)
	if src.Store.Has(p.ID) {
		b.Fatal("no route planned: delivery left the packet at its source")
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		src.Router.Generate(p, now)
		deliver.OnDelivered(p.ID, now)
	}
}

func BenchmarkOptimalOracle(b *testing.B) {
	gen := trace.NewDieselNet(trace.DefaultDieselNet())
	cfg := trace.DefaultDieselNet()
	cfg.DayHours = 2
	gen = trace.NewDieselNet(cfg)
	sched := gen.Day(0)
	w := rapid.PoissonWorkload(rapid.WorkloadConfig{
		Nodes: sched.Nodes(), PacketsPerWindowPerDest: 2, Window: 3600,
		Duration: sched.Duration, PacketBytes: 1 << 10,
	}, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		optimal.Solve(sched, w, optimal.Options{ImprovePasses: 1})
	}
}

func BenchmarkRapidSessionHeavyBuffer(b *testing.B) {
	// One full contact session between two nodes carrying 2k packets.
	sched := &trace.Schedule{Duration: 1000}
	for i := 0; i < 40; i++ {
		sched.Meetings = append(sched.Meetings, trace.Meeting{
			A: packet.NodeID(i % 8), B: packet.NodeID((i + 3) % 8),
			Time: float64(i * 20), Bytes: 256 << 10,
		})
	}
	w := rapid.PoissonWorkload(rapid.WorkloadConfig{
		Nodes: []rapid.NodeID{0, 1, 2, 3, 4, 5, 6, 7}, PacketsPerWindowPerDest: 40,
		Window: 100, Duration: 800, PacketBytes: 1 << 10,
	}, 2)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rapid.Run(sched, w, rapid.RAPID(rapid.MinimizeAvgDelay), rapid.Config{Seed: int64(i)})
	}
}

// BenchmarkWindowedSession is the windowed twin of
// BenchmarkRapidSessionHeavyBuffer: the same 8 nodes, contact pairs and
// workload, but every contact is a 16 s window at 16 KB/s (the same
// 256 KB of capacity), so transfers stream through the windowed
// runtime: contact start and end events, one completion event per
// packet, and RAPID re-planning as each transfer lands.
func BenchmarkWindowedSession(b *testing.B) {
	sched := &trace.Schedule{Duration: 1000}
	for i := 0; i < 40; i++ {
		sched.Contacts = append(sched.Contacts, trace.Contact{
			A: packet.NodeID(i % 8), B: packet.NodeID((i + 3) % 8),
			Start: float64(i * 20), Duration: 16, RateBps: 16 << 10,
		})
	}
	w := rapid.PoissonWorkload(rapid.WorkloadConfig{
		Nodes: []rapid.NodeID{0, 1, 2, 3, 4, 5, 6, 7}, PacketsPerWindowPerDest: 40,
		Window: 100, Duration: 800, PacketBytes: 1 << 10,
	}, 2)
	if res := rapid.Run(sched, w, rapid.RAPID(rapid.MinimizeAvgDelay), rapid.Config{}); res.Summary.Delivered == 0 {
		b.Fatal("windowed sessions delivered nothing")
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rapid.Run(sched, w, rapid.RAPID(rapid.MinimizeAvgDelay), rapid.Config{Seed: int64(i)})
	}
}

// ---------------------------------------------------------------------
// Constellation scale (DESIGN.md §5): a 200-node orbital contact plan —
// 8 planes × 24 satellites + 8 ground stations, the tiny-scale
// constellation the CI benchmark job gates on — run end to end through
// the parallel experiment engine. This is the routing hot path an order
// of magnitude past the paper's 20 buses; its ns/op is the headline
// number of the recorded perf trajectory (BENCH_*.json).

// constellationGrid expands the tiny-scale constellation-ground family
// (exp.TinyScale's constellation dimensions) for one RAPID arm.
func constellationGrid(tag string) []scenario.Scenario {
	sc := exp.TinyScale()
	scs, err := scenario.Expand("constellation-ground", scenario.Params{
		Tag: tag, Runs: 1, Loads: sc.ConstelLoads,
		Protocols: []scenario.Proto{scenario.ProtoRapid},
		Planes:    sc.ConstelPlanes, SatsPerPlane: sc.ConstelSats,
		Ground: sc.ConstelGround, OrbitPeriod: sc.ConstelPeriod,
		Duration: sc.ConstelPeriod,
	})
	if err != nil {
		panic(err)
	}
	return scs
}

func BenchmarkConstellation(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e := exp.NewEngine(0, 0)
		grid := constellationGrid(fmt.Sprintf("bench-constel-%d", i))
		sums := e.Summaries(grid)
		for _, s := range sums {
			if s.Generated == 0 || s.Delivered == 0 {
				b.Fatal("constellation run delivered nothing")
			}
		}
	}
}

// BenchmarkConstellationPasses is the windowed twin of
// BenchmarkConstellation: the same 200-node population under
// duration-aware pass windows, exercising the streaming transfer path
// (contact-start/end event pairs, per-packet completion events, radio
// sharing) instead of instantaneous sessions.
func BenchmarkConstellationPasses(b *testing.B) {
	sc := exp.TinyScale()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e := exp.NewEngine(0, 0)
		grid, err := scenario.Expand("constellation-passes", scenario.Params{
			Tag: fmt.Sprintf("bench-passes-%d", i), Runs: 1, Loads: sc.ConstelLoads,
			Protocols: []scenario.Proto{scenario.ProtoRapid},
			Planes:    sc.ConstelPlanes, SatsPerPlane: sc.ConstelSats,
			Ground: sc.ConstelGround, OrbitPeriod: sc.ConstelPeriod,
			Duration: sc.ConstelPeriod,
		})
		if err != nil {
			b.Fatal(err)
		}
		for _, s := range e.Summaries(grid) {
			if s.Generated == 0 || s.Delivered == 0 {
				b.Fatal("windowed constellation run delivered nothing")
			}
		}
	}
}

// ---------------------------------------------------------------------
// Mega-constellation scale (DESIGN.md §10): the 2,024-node LEO shell —
// DefaultScale's 40 planes × 50 satellites + 24 ground stations over one
// orbital period — run lazily off the periodic contact plan with a
// streaming ground-segment workload. This is the structure-of-arrays
// hot path at its design scale; CI runs it at -benchtime=1x.

// megaGrid expands the mega-constellation family at DefaultScale's mega
// dimensions for one RAPID arm.
func megaGrid(tag string) []scenario.Scenario {
	sc := exp.DefaultScale()
	scs, err := scenario.Expand("mega-constellation", scenario.Params{
		Tag: tag, Runs: 1, Loads: []float64{1},
		Planes: sc.MegaPlanes, SatsPerPlane: sc.MegaSats,
		Ground: sc.MegaGround, OrbitPeriod: sc.MegaPeriod,
		Duration: sc.MegaPeriod,
	})
	if err != nil {
		panic(err)
	}
	// The mega run measures the intra-run parallel engine at full
	// hardware width (one worker per CPU; single-core machines degrade
	// gracefully to the serial loop, byte-identically).
	for i := range scs {
		scs[i].Config.Workers = -1
	}
	return scs
}

func BenchmarkMegaConstellation(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e := exp.NewEngine(0, 0)
		grid := megaGrid(fmt.Sprintf("bench-mega-%d", i))
		for _, s := range e.Summaries(grid) {
			if s.Generated == 0 || s.Delivered == 0 {
				b.Fatal("mega-constellation run delivered nothing")
			}
		}
	}
}

// ---------------------------------------------------------------------
// Parallel sweep engine (DESIGN.md §6): the same ≥4-scenario registry
// sweep executed with one worker and with GOMAXPROCS workers. On
// multi-core hardware the workers=N variant shows the engine's
// wall-clock speedup; each iteration uses a fresh engine so caching
// never short-circuits the measurement.
//
//	go test -bench 'Sweep' -cpu 1,4,8

func sweepGrid(tag string) []scenario.Scenario {
	scs, err := scenario.Expand("synth-exponential", scenario.Params{
		Tag: tag, Runs: 2, Loads: []float64{10, 40},
		Protocols: []scenario.Proto{scenario.ProtoRapid, scenario.ProtoMaxProp},
		Nodes:     12, Duration: 300,
	})
	if err != nil {
		panic(err)
	}
	return scs
}

// constelSweepGrid is the constellation arm of the sweep benchmark: a
// small orbital population so the sweep measures engine fan-out, not
// one giant scenario (BenchmarkConstellation covers the 200-node run).
func constelSweepGrid(tag string) []scenario.Scenario {
	scs, err := scenario.Expand("constellation-ground", scenario.Params{
		Tag: tag, Runs: 2, Loads: []float64{2, 8},
		Protocols: []scenario.Proto{scenario.ProtoRapid, scenario.ProtoMaxProp},
		Planes:    3, SatsPerPlane: 4, Ground: 2,
		OrbitPeriod: 150, Duration: 300,
	})
	if err != nil {
		panic(err)
	}
	return scs
}

func BenchmarkSweep(b *testing.B) {
	families := []struct {
		name string
		grid func(tag string) []scenario.Scenario
	}{
		{"synth-exponential", sweepGrid},
		{"constellation-ground", constelSweepGrid},
	}
	pools := []int{1}
	if n := runtime.GOMAXPROCS(0); n > 1 {
		pools = append(pools, n)
	}
	for _, fam := range families {
		for _, workers := range pools {
			b.Run(fmt.Sprintf("family=%s/workers=%d", fam.name, workers), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					e := exp.NewEngine(workers, 0)
					grid := fam.grid(fmt.Sprintf("bench-sweep-%s-%d-%d", fam.name, workers, i))
					if got := e.Summaries(grid); len(got) != len(grid) {
						b.Fatalf("got %d summaries for %d scenarios", len(got), len(grid))
					}
				}
			})
		}
	}
}

// BenchmarkSweepCached measures a fully warm cache: the second pass
// over a sweep costs map lookups only.
func BenchmarkSweepCached(b *testing.B) {
	e := exp.NewEngine(0, 0)
	grid := sweepGrid("bench-sweep-cached")
	e.Summaries(grid)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Summaries(grid)
	}
}
