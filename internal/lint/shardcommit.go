package lint

import (
	"go/ast"

	"rapid/internal/lint/analysis"
)

// ShardCommit enforces the two-phase ShardEvent contract of the
// parallel event engine (DESIGN.md §12): ExecuteShard runs
// concurrently with events on other shard keys, so everything
// statically reachable from it inside the package must stay off globally ordered state —
// metrics.Collector, the engine's scheduling API, the engine clock,
// and the engine-owned random streams. Those belong exclusively to
// CommitShard (serial, exact pop order) and OnCollect (engine
// goroutine, collection time).
//
// Detection is structural: any type whose method set carries
// ExecuteShard, CommitShard and ShardKeys is treated as a ShardEvent
// implementation, so the check needs no import of rapid/internal/sim
// and applies equally to fixture packages. The walk follows direct
// calls to same-package functions and methods; calls through function
// values, interfaces, or into other packages are not expanded (a
// deliberate cross-package escape warrants a //rapidlint:allow with
// its safety argument — as the per-packet delivery-record reads in
// internal/routing/session.go do).
var ShardCommit = &analysis.Analyzer{
	Name: "shardcommit",
	Doc: `enforce the ExecuteShard/CommitShard two-phase contract

Walks the same-package call graph of every ExecuteShard method and
reports reachable touches of metrics.Collector, sim.Engine scheduling
methods (Schedule*), the engine clock (Now), and the
engine-owned RNG (Rand). Only CommitShard and OnCollect may touch
globally ordered state.`,
	Run: runShardCommit,
}

// forbiddenEngine lists sim.Engine members whose use inside
// ExecuteShard breaks the contract, with the reason used in the
// diagnostic.
var forbiddenEngine = map[string]string{
	"Schedule":         "schedules events (commit-phase only)",
	"ScheduleBand":     "schedules events (commit-phase only)",
	"ScheduleFunc":     "schedules events (commit-phase only)",
	"ScheduleBandFunc": "schedules events (commit-phase only)",
	"Now":              "reads the engine clock, which may already have advanced past the event's instant — carry the timestamp in the event",
	"Rand":             "draws from an engine-owned random stream, which is shared mutable state across concurrent events",
	"Run":              "re-enters the event loop",
	"RunUntil":         "re-enters the event loop",
	"Step":             "re-enters the event loop",
	"SetWorkers":       "mutates engine configuration",
	"Executed":         "touches engine bookkeeping",
	"AfterEvent":       "touches engine bookkeeping",
}

func runShardCommit(pass *analysis.Pass) (any, error) {
	sup := newSuppressor(pass, false)
	idx := indexFuncs(pass)

	scope := pass.Pkg.Scope()
	for _, name := range scope.Names() {
		obj := scope.Lookup(name)
		named := namedType(obj.Type())
		if named == nil || named.Obj() != obj {
			continue
		}
		if !hasMethod(named, "ExecuteShard") || !hasMethod(named, "CommitShard") || !hasMethod(named, "ShardKeys") {
			continue
		}
		exec := methodDecl(idx, named, "ExecuteShard")
		if exec == nil {
			continue // method promoted from an embedded foreign type
		}
		checkExecuteShard(pass, sup, idx, name, exec)
	}
	return nil, nil
}

func checkExecuteShard(pass *analysis.Pass, sup *suppressor, idx funcIndex, typeName string, exec *ast.FuncDecl) {
	walkReachable(pass, idx, exec, func(chain string, n ast.Node) {
		sel, ok := n.(*ast.SelectorExpr)
		if !ok {
			return
		}
		base := pass.TypesInfo.TypeOf(sel.X)
		switch {
		case isType(base, "metrics", "Collector"):
			sup.reportf(sel.Pos(), "(%s) %s touches metrics.Collector (.%s): globally ordered collector effects belong in CommitShard or OnCollect", typeName, chain, sel.Sel.Name)
		case isType(base, "sim", "Engine"):
			if why, bad := forbiddenEngine[sel.Sel.Name]; bad {
				sup.reportf(sel.Pos(), "(%s) %s uses sim.Engine.%s inside the execute phase: %s", typeName, chain, sel.Sel.Name, why)
			}
		}
	})
}
