// Fleetmonitor: a DieselNet-style daily operations report (§5's
// deployment viewpoint). It generates a synthetic bus day, routes a
// default-load workload with RAPID, and prints the Table-3 statistics
// an operator would watch, plus the offline-optimal bound for the day.
//
//	go run ./examples/fleetmonitor -day 7
package main

import (
	"flag"
	"fmt"

	"rapid"
)

func main() {
	day := flag.Int("day", 0, "day index to simulate")
	load := flag.Float64("load", 4, "packets per hour per destination pair")
	flag.Parse()

	cfg := rapid.DefaultDieselNet()
	sched := rapid.DieselNetDay(cfg, *day)
	buses := sched.Nodes()

	w := rapid.PoissonWorkload(rapid.WorkloadConfig{
		Nodes:                   buses,
		PacketsPerWindowPerDest: *load,
		Window:                  3600,
		Duration:                sched.Duration,
		PacketBytes:             1 << 10,
		Deadline:                2.7 * 3600,
	}, int64(*day)+1)

	res := rapid.Run(sched, w, rapid.RAPID(rapid.MinimizeAvgDelay), rapid.Config{
		Seed: int64(*day),
	})
	s := res.Summary

	fmt.Printf("DieselNet day %d — operations report\n", *day)
	fmt.Printf("------------------------------------\n")
	fmt.Printf("buses on the road          %d\n", len(buses))
	fmt.Printf("bus meetings               %d\n", s.Meetings)
	fmt.Printf("contact capacity           %.1f MB\n", float64(s.OpportunityBytes)/1e6)
	fmt.Printf("packets generated          %d (load %.0f/h/destination)\n", s.Generated, *load)
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
}
