package stat

import "testing"

func TestPowerLawWeights(t *testing.T) {
	w := PowerLawWeights(5, 1)
	if len(w) != 5 {
		t.Fatalf("len=%d", len(w))
	}
	for i := 1; i < len(w); i++ {
		if w[i] >= w[i-1] {
			t.Errorf("weights must strictly decrease: %v", w)
		}
	}
	if w[0] != 1 {
		t.Errorf("first weight %v want 1", w[0])
	}
	if !almostEqual(w[1], 0.5, 1e-12) {
		t.Errorf("w[1]=%v want 0.5 for alpha=1", w[1])
	}
}
