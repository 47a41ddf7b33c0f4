package trace

import (
	"reflect"
	"testing"

	"rapid/internal/packet"
)

// TestContactGraph: edges come in execution rank (meetings, then
// contacts) with the runtime's capacity rule, incidence lists are
// start-sorted with ties in rank order, and the lookups agree.
func TestContactGraph(t *testing.T) {
	s := &Schedule{
		Duration: 100,
		Meetings: []Meeting{
			{A: 0, B: 1, Time: 20, Bytes: 500},
			{A: 1, B: 2, Time: 10, Bytes: 600},
		},
		Contacts: []Contact{
			{A: 1, B: 0, Start: 10, Bytes: 700},                          // point
			{A: 0, B: 2, Start: 20, Duration: 30, RateBps: 10},           // in horizon
			{A: 2, B: 1, Start: 90, Duration: 30, RateBps: 10, Bytes: 9}, // clipped at 100
		},
	}
	g := NewContactGraph(s)
	want := []Edge{
		{A: 0, B: 1, Start: 20, End: 20, Cap: 500},
		{A: 1, B: 2, Start: 10, End: 10, Cap: 600},
		{A: 1, B: 0, Start: 10, End: 10, Cap: 700},
		{A: 0, B: 2, Start: 20, End: 50, Rate: 10, Cap: 300},
		{A: 2, B: 1, Start: 90, End: 100, Rate: 10, Cap: 100},
	}
	if !reflect.DeepEqual(g.Edges, want) {
		t.Fatalf("edges\n got %+v\nwant %+v", g.Edges, want)
	}
	if g.NumNodes() != 3 {
		t.Fatalf("NumNodes %d, want 3", g.NumNodes())
	}
	for v, inc := range [][]int{{2, 0, 3}, {1, 2, 0, 4}, {1, 3, 4}} {
		if got := g.Incident(packet.NodeID(v)); !reflect.DeepEqual(got, inc) {
			t.Errorf("Incident(%d) = %v, want %v", v, got, inc)
		}
	}
	if got := g.Incident(7); got != nil {
		t.Errorf("Incident of an unknown node = %v, want nil", got)
	}
	if got := g.IncidentFrom(1, 15); !reflect.DeepEqual(got, []int{0, 4}) {
		t.Errorf("IncidentFrom(1, 15) = %v, want [0 4]", got)
	}
	if got := g.IncidentFrom(1, 91); len(got) != 0 {
		t.Errorf("IncidentFrom(1, 91) = %v, want none", got)
	}
	for _, c := range []struct {
		a, b packet.NodeID
		t    float64
		want int
	}{
		{0, 1, 10, 2}, {1, 0, 20, 0}, {2, 0, 20, 3}, {1, 2, 10, 1}, {1, 2, 90, 4}, {0, 2, 10, -1},
	} {
		if got := g.Live(c.a, c.b, c.t, 1e-9); got != c.want {
			t.Errorf("Live(%d, %d, %v) = %d, want %d", c.a, c.b, c.t, got, c.want)
		}
	}
	if got := g.ByStart(); !reflect.DeepEqual(got, []int{1, 2, 0, 3, 4}) {
		t.Errorf("ByStart = %v, want [1 2 0 3 4]", got)
	}
}
