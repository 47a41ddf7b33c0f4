package rapid_test

import (
	"fmt"
	"math/rand"

	"rapid"
)

// Example_quickstart simulates RAPID against Random replication on a
// small exponential-mobility DTN and prints both summaries.
func Example_quickstart() {
	// 20 nodes meeting pairwise every ~60 s on average for 15 minutes,
	// 100 KB per transfer opportunity (Table 4's synthetic setup).
	sched := rapid.ExponentialMobility(rapid.MobilityConfig{
		Nodes:         20,
		Duration:      900,
		MeanMeeting:   60,
		TransferBytes: 100 << 10,
	}, 1)

	// Each (src, dst) pair generates 2 packets per 50 s window.
	workload := rapid.PoissonWorkload(rapid.WorkloadConfig{
		Nodes:                   sched.Nodes(),
		PacketsPerWindowPerDest: 2,
		Window:                  50,
		Duration:                600,
		PacketBytes:             1 << 10,
	}, 2)

	fmt.Printf("scenario: %d nodes, %d meetings, %d packets\n\n",
		len(sched.Nodes()), len(sched.Meetings), len(workload))

	for _, proto := range []rapid.Protocol{
		rapid.RAPID(rapid.MinimizeAvgDelay),
		rapid.Random(),
	} {
		res := rapid.Run(sched, workload, proto, rapid.Config{
			BufferBytes: 100 << 10,
			Seed:        7,
		})
		s := res.Summary
		fmt.Printf("%-18s delivered %5.1f%%   avg delay %5.1f s   max delay %5.1f s\n",
			proto.Name(), 100*s.DeliveryRate, s.AvgDelay, s.MaxDelay)
	}
	// Output:
	// scenario: 20 nodes, 2843 meetings, 9061 packets
	//
	// rapid/avg-delay    delivered 100.0%   avg delay  15.6 s   max delay 261.8 s
	// random             delivered 100.0%   avg delay  48.9 s   max delay 431.6 s
}

// Example_hybrid is the hybrid-DTN study of §6.2.3: what does RAPID
// gain if its control traffic moves over an instant long-range channel
// (the paper's XTEND radio idea) instead of riding the data contacts?
// It sweeps load over a DieselNet day and prints the in-band versus
// instant-global comparison behind Figs. 10-12. It is the public API's
// only run of the instant global channel.
func Example_hybrid() {
	cfg := rapid.DefaultDieselNet()
	cfg.DayHours = 6 // keep the example quick
	sched := rapid.DieselNetDay(cfg, 2)

	fmt.Println("hybrid DTN: in-band vs instant global control channel")
	fmt.Printf("%6s | %22s | %22s\n", "", "in-band", "instant global")
	fmt.Printf("%6s | %9s %12s | %9s %12s\n",
		"load", "delivered", "avg delay", "delivered", "avg delay")

	for _, load := range []float64{4, 12, 24} {
		w := rapid.PoissonWorkload(rapid.WorkloadConfig{
			Nodes:                   sched.Nodes(),
			PacketsPerWindowPerDest: load,
			Window:                  3600,
			Duration:                sched.Duration,
			PacketBytes:             1 << 10,
			Deadline:                2.7 * 3600,
		}, int64(load))

		inband := rapid.Run(sched, w, rapid.RAPID(rapid.MinimizeAvgDelay),
			rapid.Config{Seed: 5})
		global := rapid.Run(sched, w, rapid.RAPID(rapid.MinimizeAvgDelay),
			rapid.Config{Seed: 5, Control: rapid.InstantGlobal})

		fmt.Printf("%6.0f | %8.1f%% %9.1f min | %8.1f%% %9.1f min\n",
			load,
			100*inband.Summary.DeliveryRate, inband.Summary.AvgDelay/60,
			100*global.Summary.DeliveryRate, global.Summary.AvgDelay/60)
	}
	fmt.Println("\nthe global channel removes metadata cost and staleness; the gap")
	fmt.Println("bounds what better control information could buy (Figs. 10-12).")
	// Output:
	// hybrid DTN: in-band vs instant global control channel
	//        |                in-band |         instant global
	//   load | delivered    avg delay | delivered    avg delay
	//      4 |     63.3%     100.4 min |     65.4%      99.3 min
	//     12 |     52.8%     106.9 min |     55.4%     104.0 min
	//     24 |     46.3%     111.9 min |     48.7%     106.8 min
	//
	// the global channel removes metadata cost and staleness; the gap
	// bounds what better control information could buy (Figs. 10-12).
}

// Example_newsfeed is the paper's motivating application (§1): "a
// simple news and information application is better served by
// maximizing the number of news stories delivered before they are
// outdated, rather than maximizing the number of stories eventually
// delivered."
//
// A publisher node pushes stories with a freshness deadline into a
// power-law mobility DTN (§6.3's skewed human-contact model). RAPID is
// run with the missed-deadlines metric (Eq. 2) and compared against
// protocols that only incidentally care about deadlines.
func Example_newsfeed() {
	const (
		readers   = 19
		publisher = rapid.NodeID(0)
		freshness = 25.0 // a story is stale after 25 s
	)
	sched := rapid.PowerLawMobility(rapid.MobilityConfig{
		Nodes:         readers + 1,
		Duration:      900,
		MeanMeeting:   60,
		TransferBytes: 60 << 10,
		PowerLawAlpha: 1,
	}, 11)

	// Stories: every 2 s the publisher addresses a random reader; each
	// story carries the freshness deadline.
	r := rand.New(rand.NewSource(3))
	var stories rapid.Workload
	id := int64(1)
	for t := 5.0; t < 800; t += 2 {
		dst := rapid.NodeID(1 + r.Intn(readers))
		stories = append(stories, &rapid.Packet{
			ID: rapid.PacketID(id), Src: publisher, Dst: dst,
			Size: 1 << 10, Created: t, Deadline: t + freshness,
		})
		id++
	}
	stories.Sort()

	fmt.Printf("newsfeed: %d stories, %.0f s freshness window, %d readers\n\n",
		len(stories), freshness, readers)
	fmt.Printf("%-24s %12s %14s %10s\n", "protocol", "fresh", "eventually", "avg delay")

	for _, proto := range []rapid.Protocol{
		rapid.RAPID(rapid.MinimizeMissedDeadlines),
		rapid.RAPID(rapid.MinimizeAvgDelay),
		rapid.MaxProp(),
		rapid.SprayAndWait(0),
		rapid.Random(),
	} {
		res := rapid.Run(sched, stories, proto, rapid.Config{
			BufferBytes: 100 << 10,
			Seed:        21,
		})
		s := res.Summary
		fmt.Printf("%-24s %11.1f%% %13.1f%% %8.1f s\n",
			proto.Name(), 100*s.WithinDeadline, 100*s.DeliveryRate, s.AvgDelay)
	}
	fmt.Println("\n'fresh' = delivered before going stale; the deadline-metric")
	fmt.Println("RAPID arm spends bandwidth only where freshness can still be saved.")
	// Output:
	// newsfeed: 398 stories, 25 s freshness window, 19 readers
	//
	// protocol                        fresh     eventually  avg delay
	// rapid/deadline                  97.5%         100.0%     10.0 s
	// rapid/avg-delay                 97.5%         100.0%     10.0 s
	// maxprop                         97.5%         100.0%     10.0 s
	// spray-and-wait                  94.7%         100.0%     11.1 s
	// random                          97.5%         100.0%     10.0 s
	//
	// 'fresh' = delivered before going stale; the deadline-metric
	// RAPID arm spends bandwidth only where freshness can still be saved.
}

// Example_fleetmonitor is a DieselNet-style daily operations report
// (§5's deployment viewpoint). It generates a synthetic bus day, routes
// a default-load workload with RAPID, and prints the Table-3 statistics
// an operator would watch, plus the offline-optimal bound for the day.
func Example_fleetmonitor() {
	const (
		day  = 0
		load = 4.0 // packets per hour per destination pair
	)
	cfg := rapid.DefaultDieselNet()
	sched := rapid.DieselNetDay(cfg, day)
	buses := sched.Nodes()

	w := rapid.PoissonWorkload(rapid.WorkloadConfig{
		Nodes:                   buses,
		PacketsPerWindowPerDest: load,
		Window:                  3600,
		Duration:                sched.Duration,
		PacketBytes:             1 << 10,
		Deadline:                2.7 * 3600,
	}, day+1)

	res := rapid.Run(sched, w, rapid.RAPID(rapid.MinimizeAvgDelay), rapid.Config{
		Seed: day,
	})
	s := res.Summary

	fmt.Printf("DieselNet day %d — operations report\n", day)
	fmt.Printf("------------------------------------\n")
	fmt.Printf("buses on the road          %d\n", len(buses))
	fmt.Printf("bus meetings               %d\n", s.Meetings)
	fmt.Printf("contact capacity           %.1f MB\n", float64(s.OpportunityBytes)/1e6)
	fmt.Printf("packets generated          %d (load %.0f/h/destination)\n", s.Generated, load)
	fmt.Printf("packets delivered          %d (%.1f%%)\n", s.Delivered, 100*s.DeliveryRate)
	fmt.Printf("average delivery delay     %.1f min\n", s.AvgDelay/60)
	fmt.Printf("worst delivery delay       %.1f min\n", s.MaxDelay/60)
	fmt.Printf("delivered within 2.7 h     %.1f%%\n", 100*s.WithinDeadline)
	fmt.Printf("channel utilization        %.1f%%\n", 100*s.Utilization)
	fmt.Printf("metadata / data            %.2f%%\n", 100*s.MetaOverData)
	fmt.Printf("metadata / bandwidth       %.3f%%\n", 100*s.MetaOverBandwidth)

	opt := rapid.Optimal(sched, w)
	fmt.Printf("\noffline optimal bound       %.1f%% delivery, %.1f min avg delay incl. undelivered\n",
		100*opt.DeliveryRate(), opt.AvgDelayAll()/60)
	fmt.Printf("RAPID vs optimal           %.1f min vs %.1f min (incl. undelivered)\n",
		s.AvgDelayAll/60, opt.AvgDelayAll()/60)
	// Output:
	// DieselNet day 0 — operations report
	// ------------------------------------
	// buses on the road          20
	// bus meetings               167
	// contact capacity           231.2 MB
	// packets generated          28962 (load 4/h/destination)
	// packets delivered          19260 (66.5%)
	// average delivery delay     277.3 min
	// worst delivery delay       1107.4 min
	// delivered within 2.7 h     19.1%
	// channel utilization        70.8%
	// metadata / data            8.97%
	// metadata / bandwidth       5.826%
	//
	// offline optimal bound       74.5% delivery, 221.8 min avg delay incl. undelivered
	// RAPID vs optimal           270.0 min vs 221.8 min (incl. undelivered)
}
