package exp

import (
	"fmt"

	"rapid/internal/metrics"
	"rapid/internal/report"
	"rapid/internal/scenario"
)

// RenderFamilySummaryTable renders one summary row per scenario of a
// family sweep — the table cmd/experiments prints for -family and the
// one the simulation service returns for a finished job. Both front
// ends build it here so a job submitted over HTTP is byte-identical to
// the batch CLI run of the same scenarios.
func RenderFamilySummaryTable(scs []scenario.Scenario, sums []metrics.Summary) string {
	tbl := &report.Table{Header: []string{
		"protocol", "load", "run", "generated", "delivered", "rate", "avg delay (s)", "within deadline", "lost",
	}}
	for i, s := range sums {
		tbl.AddRow(
			string(scs[i].Protocol),
			report.F(scs[i].Workload.Load),
			fmt.Sprint(scs[i].Run),
			fmt.Sprint(s.Generated),
			fmt.Sprint(s.Delivered),
			report.Pct(s.DeliveryRate),
			report.F(s.AvgDelay),
			report.Pct(s.WithinDeadline),
			fmt.Sprint(s.LostTransfers),
		)
	}
	return tbl.Render()
}
