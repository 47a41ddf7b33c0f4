// Package lint holds rapidlint, the project's static-analysis suite:
// four analyzers that enforce the social contracts the simulator's
// correctness rests on but the compiler cannot see —
//
//   - nondeterminism: no wall-clock reads or global math/rand draws in
//     simulation paths; randomness flows only through explicit seeded
//     *rand.Rand values (sim.Engine.Rand, counter-based splitmix64
//     streams).
//   - maporder: no float accumulation, escaping unsorted appends, or
//     I/O driven by Go's randomized map iteration order — the bug
//     class the sorted row-mirror merge of DESIGN.md §11 exists to
//     kill.
//   - shardcommit: ExecuteShard bodies (and everything they reach
//     inside the package) stay off metrics.Collector, off the engine's
//     scheduling API, clock, and RNG — those belong to CommitShard /
//     OnCollect, per the two-phase contract of DESIGN.md §12.
//   - sessionconfined: routers carrying the SessionConfined marker hold
//     no *rand.Rand fields and reference no package-level mutable
//     state, so they really are safe to run concurrently.
//
// plus two general-purpose passes (nilness, shadow) bundled into the
// cmd/rapidlint multichecker. The latter are deliberately "lite",
// offline reimplementations of the core checks of the standard
// x/tools passes of the same names (the build environment has no
// module proxy, so the real ones cannot be vendored): nilness flags
// dereferences inside `if x == nil` bodies, shadow flags inner
// redeclarations whose shadowed variable is used again after the
// inner scope closes.
//
// Any diagnostic can be suppressed for one intentional site with a
// comment on the same line or the line above:
//
//	//rapidlint:allow <analyzer> — <reason>
//
// The analyzer name and a non-empty reason are mandatory; malformed
// allow comments are themselves diagnostics (reported by the
// nondeterminism pass so the suite emits them exactly once).
package lint

import "rapid/internal/lint/analysis"

// All returns the full rapidlint suite in the order cmd/rapidlint
// registers it: the four project-contract analyzers first, then the
// bundled general-purpose passes.
func All() []*analysis.Analyzer {
	return []*analysis.Analyzer{
		Nondeterminism,
		MapOrder,
		ShardCommit,
		SessionConfined,
		Nilness,
		Shadow,
	}
}

// analyzerNames is the set of analyzer names a //rapidlint:allow
// comment may reference. It is a literal rather than derived from
// All() because every analyzer's Run closure references it through
// newSuppressor, which would otherwise be an initialization cycle;
// TestAllNames locks the two in sync.
var analyzerNames = map[string]bool{
	"nondeterminism":  true,
	"maporder":        true,
	"shardcommit":     true,
	"sessionconfined": true,
	"nilness":         true,
	"shadow":          true,
}
