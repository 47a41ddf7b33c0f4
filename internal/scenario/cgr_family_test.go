package scenario

import (
	"testing"

	"rapid/internal/routing"
	"rapid/internal/routing/optimal"
)

// cgrFamilyParams is a shrunk cgr-constellation grid point: small
// enough for the unit-test budget, large enough that relaying through
// the space segment is the only way ground traffic moves.
func cgrFamilyParams() Params {
	return Params{
		Tag: "cgr-test", Runs: 1, Loads: []float64{2},
		Planes: 4, SatsPerPlane: 6, Ground: 4, OrbitPeriod: 240,
		Duration: 240,
	}
}

// TestCGRFamilyBracketsBaselinesAndOracle is the family's acceptance
// gate: over the deterministic orbital contact plan, plan-ahead CGR
// must deliver at least as much as every reactive arm in the family's
// lineup, and no more than the offline earliest-arrival oracle solving
// the same materialized schedule and workload.
func TestCGRFamilyBracketsBaselinesAndOracle(t *testing.T) {
	scs, err := Expand("cgr-constellation", cgrFamilyParams())
	if err != nil {
		t.Fatal(err)
	}
	delivered := map[Proto]int{}
	var generated int
	for _, s := range scs {
		sum := s.Summary()
		delivered[s.Protocol] = sum.Delivered
		generated = sum.Generated
	}
	cgrDelivered, ok := delivered[ProtoCGR]
	if !ok {
		t.Fatal("family lineup is missing the CGR arm")
	}
	if generated == 0 {
		t.Fatal("empty workload — the family grid produced no traffic")
	}
	for proto, d := range delivered {
		if proto == ProtoCGR {
			continue
		}
		if cgrDelivered < d {
			t.Errorf("CGR delivered %d < reactive arm %s's %d", cgrDelivered, proto, d)
		}
	}

	// The oracle solves the identical materialized schedule + workload
	// (CGR's scenario; all arms share the schedule spec and seeds).
	var cgrScenario *Scenario
	for i := range scs {
		if scs[i].Protocol == ProtoCGR {
			cgrScenario = &scs[i]
			break
		}
	}
	rs := cgrScenario.Materialize()
	res := optimal.Solve(rs.Plan.Expand(), rs.Workload, optimal.Options{})
	oracleDelivered := 0
	for _, d := range res.Deliveries {
		if d.Delivered {
			oracleDelivered++
		}
	}
	if cgrDelivered > oracleDelivered {
		t.Errorf("CGR delivered %d > offline oracle's %d — the oracle must upper-bound every online protocol",
			cgrDelivered, oracleDelivered)
	}
	t.Logf("generated %d: oracle %d >= CGR %d >= reactive %v",
		generated, oracleDelivered, cgrDelivered, delivered)
}

// TestCGRPolicyArmsNoPristineRegression pins the allocation-policy
// arms to the classic baseline on a pristine (disruption-free)
// constellation grid: a policy that helps under loss must not cost
// deliveries when the plan holds — k-path only detours within its
// slack onto feasible alternates, multi-copy only adds disjoint
// replicas, and admission only refuses traffic the capacity view says
// cannot fit.
func TestCGRPolicyArmsNoPristineRegression(t *testing.T) {
	p := cgrFamilyParams()
	p.Protocols = []Proto{ProtoCGR, ProtoCGRK, ProtoCGRMulti, ProtoCGRAdmit}
	scs, err := Expand("cgr-constellation", p)
	if err != nil {
		t.Fatal(err)
	}
	delivered := map[Proto]int{}
	for _, s := range scs {
		sum := s.Summary()
		if sum.Generated == 0 {
			t.Fatalf("%s: empty workload", s.Protocol)
		}
		delivered[s.Protocol] = sum.Delivered
	}
	base := delivered[ProtoCGR]
	if base == 0 {
		t.Fatal("classic CGR delivered nothing — the grid point is vacuous")
	}
	for _, proto := range []Proto{ProtoCGRK, ProtoCGRMulti, ProtoCGRAdmit} {
		if delivered[proto] < base {
			t.Errorf("%s delivered %d < classic CGR's %d on the pristine grid", proto, delivered[proto], base)
		}
	}
	t.Logf("pristine deliveries: %v", delivered)
}

// TestAllProtosHaveArms pins the registration contract: every arm
// declared through newProto must resolve to a router factory that
// builds a named router, so a new Proto cannot exist without both an
// Arm case and (via AllProtos) a slot in the cross-protocol invariant
// harness.
func TestAllProtosHaveArms(t *testing.T) {
	protos := AllProtos()
	if len(protos) < 10 {
		t.Fatalf("AllProtos lists %d arms, expected at least the 10 shipped ones", len(protos))
	}
	for _, p := range protos {
		factory, _ := Arm(p, 0, routing.Config{})
		if factory == nil {
			t.Errorf("arm %q resolved to a nil factory", p)
			continue
		}
		if r := factory(0); r == nil {
			t.Errorf("arm %q built a nil router", p)
		} else if r.Name() == "" {
			t.Errorf("arm %q built an unnamed router", p)
		}
	}
}
