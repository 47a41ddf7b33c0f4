package scenario

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"reflect"
	"testing"

	"rapid/internal/disrupt"
	"rapid/internal/metrics"
)

// summaryFingerprint hashes every field of a run summary — integers by
// value, floats by their IEEE-754 bits — so two fingerprints agree only
// when the summaries are bit-identical.
func summaryFingerprint(t *testing.T, s metrics.Summary) string {
	t.Helper()
	h := sha256.New()
	v := reflect.ValueOf(s)
	var buf [8]byte
	for i := 0; i < v.NumField(); i++ {
		h.Write([]byte(v.Type().Field(i).Name))
		f := v.Field(i)
		switch f.Kind() {
		case reflect.Int, reflect.Int64:
			binary.LittleEndian.PutUint64(buf[:], uint64(f.Int()))
		case reflect.Float64:
			binary.LittleEndian.PutUint64(buf[:], math.Float64bits(f.Float()))
		default:
			t.Fatalf("summary field %s has unhashed kind %s", v.Type().Field(i).Name, f.Kind())
		}
		h.Write(buf[:])
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestCGRArmFingerprints pins the windowed plan-ahead path the golden
// figure checksums do not reach (cgr-policies runs point contacts
// only): all four CGR arms over tiny-scale constellation passes —
// streamed windows, radio sharing — under loss and contact failure,
// with 4 KB buffers (four packets) so the planner's headroom check
// refuses relays. Any change to planning, reservation or re-planning
// shows up as a different summary.
func TestCGRArmFingerprints(t *testing.T) {
	p := Params{
		Tag: "cgr-fingerprint", Runs: 1, Loads: []float64{2},
		Planes: 8, SatsPerPlane: 24, Ground: 8, OrbitPeriod: 300, Duration: 300,
		Protocols: []Proto{ProtoCGR, ProtoCGRK, ProtoCGRMulti, ProtoCGRAdmit},
	}
	scs, err := Expand("constellation-passes", p)
	if err != nil {
		t.Fatal(err)
	}
	want := map[Proto]string{
		ProtoCGR:      "a6558bbfe10b823f09d23ec856a10de4d00e5d2a7da34d71dec8c73a40adcacd",
		ProtoCGRK:     "9ab40cb87a8170da0cee453c4189424a69dc4c16de664c85ca9e1105ccf00395",
		ProtoCGRMulti: "5c42f6bedf81d196889f96159790d9716514f9e327082eef64cd73beb41ad25b",
		// Pass capacity dwarfs the offered load, so the admission quota
		// never refuses and the arm coincides with classic CGR.
		ProtoCGRAdmit: "a6558bbfe10b823f09d23ec856a10de4d00e5d2a7da34d71dec8c73a40adcacd",
	}
	if len(scs) != len(want) {
		t.Fatalf("expanded to %d scenarios, want %d", len(scs), len(want))
	}
	for _, s := range scs {
		s.Config.BufferBytes, s.Config.BufferBytesSet = 4<<10, true
		s.Config.Disrupt = disrupt.Spec{Enabled: true, PLoss: 0.15, PContactFail: 0.1}
		s.Config.DisruptSet = true
		sum := s.Summary()
		if sum.Delivered == 0 || sum.LostTransfers == 0 {
			t.Errorf("%s: vacuous run (delivered %d, lost %d)", s.Protocol, sum.Delivered, sum.LostTransfers)
		}
		if got := summaryFingerprint(t, sum); got != want[s.Protocol] {
			t.Errorf("%s: summary fingerprint %s, want %s\nsummary: %+v", s.Protocol, got, want[s.Protocol], sum)
		}
	}
}
