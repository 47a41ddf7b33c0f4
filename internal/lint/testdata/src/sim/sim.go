// Package sim is a structural stand-in for rapid/internal/sim: the
// contract analyzers match by package name and type name, so this
// fixture exercises exactly the paths the real engine types do.
package sim

// Engine mirrors the members the shardcommit analyzer treats as
// forbidden inside the execute phase.
type Engine struct {
	now float64
}

func (e *Engine) Now() float64                             { return e.now }
func (e *Engine) Schedule(at float64, ev any)              {}
func (e *Engine) ScheduleFunc(at float64, f func(*Engine)) {}
func (e *Engine) Rand(stream string) uint64                { return 0 }
func (e *Engine) Step() bool                               { return false }
