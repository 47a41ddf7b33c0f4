package scenario

import (
	"testing"

	"rapid/internal/metrics"
	"rapid/internal/routing"
)

// TestReplicaRecordsOnlyWhereRead pins which runs keep replica records.
// A replica record has two readers: RAPID's estimator (a router that is
// a routing.ReplicaDelayEstimator) and a control channel that gossips
// and prices records (global, or full in-band). Arms with neither — the
// CGR arms, Spray-and-Wait, Prophet and Random under ControlNone,
// MaxProp and Random+acks under the acks-only exchange — must end with
// no record at any node. RAPID forced onto ControlNone still reads its
// own records, and Epidemic's in-band exchange still gossips them, so
// both must keep records: the rule keys on the reader, not the arm.
// Every run's summary must match the fingerprint its arm produced when
// every protocol wrote records, so skipping them changes no outcome.
// Each arm runs over point meetings (synthetic power-law mobility) and
// over windowed constellation passes. Arms sharing a fingerprint in a
// setting coincide at its load (capacity dwarfs the offered traffic).
func TestReplicaRecordsOnlyWhereRead(t *testing.T) {
	type armCase struct {
		proto       Proto
		modeNone    bool // force ControlNone through Overrides.ModeSet
		wantRecords bool
	}
	arms := []armCase{
		{ProtoCGR, false, false},
		{ProtoCGRK, false, false},
		{ProtoCGRMulti, false, false},
		{ProtoCGRAdmit, false, false},
		{ProtoSprayWait, false, false},
		{ProtoProphet, false, false},
		{ProtoRandom, false, false},
		{ProtoMaxProp, false, false},
		{ProtoRandomAcks, false, false},
		{ProtoRapid, true, true},
		{ProtoEpidemic, false, true},
	}
	passes, err := Expand("constellation-passes", Params{
		Tag: "replica-records", Runs: 1, Loads: []float64{8},
		Planes: 3, SatsPerPlane: 4, Ground: 3, OrbitPeriod: 120, Duration: 360,
		Protocols: []Proto{ProtoRapid},
	})
	if err != nil || len(passes) != 1 {
		t.Fatalf("constellation-passes: %d scenarios, %v", len(passes), err)
	}
	settings := []struct {
		name string
		base Scenario
		want map[Proto]string
	}{
		{"point", smallSynth(SourcePowerLaw), map[Proto]string{
			ProtoCGR:        "59efde5c4afe90a275d62d4593e82259caa11a7f95785776371b2ff1475d0a10",
			ProtoCGRK:       "a54bed705ac6a2bf4b147879a07bcf17136fd6303875d814cd56ac70b964e19b",
			ProtoCGRMulti:   "1b56f12e6002f186d73d94dbaa5f0922713d797a4dd946779719e6d4e7718484",
			ProtoCGRAdmit:   "59efde5c4afe90a275d62d4593e82259caa11a7f95785776371b2ff1475d0a10",
			ProtoSprayWait:  "feb80a4f2ded97dc038af407771e377faf402826f90450439c03f78d1f11b536",
			ProtoProphet:    "215435386ecec240ac1cc16a5289df5a08471fa1a54b8060537b37a56539584f",
			ProtoRandom:     "3ba0c332b2f7b998c31f2766815f47a84d167aa1f8d3b17cc953c4456deaa5a3",
			ProtoMaxProp:    "97b1ff99a1478ce6979af186acaed2269b87c3b231e9336bfda1b91523113d21",
			ProtoRandomAcks: "97b1ff99a1478ce6979af186acaed2269b87c3b231e9336bfda1b91523113d21",
			ProtoRapid:      "e5388f8631dbd4f03f895f672a2632650a2b628a7ce7cc38ef45fcdd3053fee4",
			ProtoEpidemic:   "a92d1ca8e8282fa259ac97e287eba3cf9c96d5a2acbf040aa8bd519ec4143ef9",
		}},
		{"windowed", passes[0], map[Proto]string{
			ProtoCGR:        "18f2ea738d5dc769e981ca6fad3a71e372056abed63d9c05f91aacd316b08d88",
			ProtoCGRK:       "f5fce710d1b65f912751fcce7f74a17e07e221f8eced87fcc37269368004cb0a",
			ProtoCGRMulti:   "5fee6fd27e22fd0b86b511ceb0cb43c2b9509b0846168de6093bc1d8f7f0a612",
			ProtoCGRAdmit:   "18f2ea738d5dc769e981ca6fad3a71e372056abed63d9c05f91aacd316b08d88",
			ProtoSprayWait:  "1995c2c2f644d8f084c737874ab6e3febfb34999d688d00becc730d5e8583fad",
			ProtoProphet:    "a127ce4cfc1f6e9abe29d5bd9bcca5b540a40b1a3bf081d7ce52d3e1e8369ad1",
			ProtoRandom:     "c7b1ceb6e39603eae7697d926967d4bcc3f4db7180b8b3b6ee5bcd7595d33997",
			ProtoMaxProp:    "7ae37ba75a9931508b61bf7e5d34fe9b313b35331eb338f7dc884ea2392e68e5",
			ProtoRandomAcks: "3907e565f0eb6bf1ca2006c7f0ac62ba7507ddc020e47fee9dcbee6890ab0d48",
			ProtoRapid:      "58b80b1437f4079b3666fe28aed47b0f26408389cec5c7d245763910e9747374",
			ProtoEpidemic:   "bc77c5826364a22fbc74ebcf81ca7fddb26a14a4cb37703662caa85355a7ba7a",
		}},
	}
	for _, st := range settings {
		for _, a := range arms {
			s := st.base
			s.Protocol = a.proto
			if a.modeNone {
				s.Config.Mode, s.Config.ModeSet = routing.ControlNone, true
			}
			rs := s.Materialize()
			var net *routing.Network
			rs.Hooks = &routing.Hooks{AfterEvent: func(n *routing.Network) { net = n }}
			col := routing.Run(rs)
			sum := col.Summarize(runHorizon(rs))
			if col.Replications == 0 {
				t.Errorf("%s/%s: vacuous run (no replications)", st.name, a.proto)
			}
			if got := replicaRecords(net, col); (got > 0) != a.wantRecords {
				t.Errorf("%s/%s: %d replica records after the run, want records: %v", st.name, a.proto, got, a.wantRecords)
			}
			if got := summaryFingerprint(t, sum); got != st.want[a.proto] {
				t.Errorf("%s/%s: summary fingerprint %s, want %s\nsummary: %+v", st.name, a.proto, got, st.want[a.proto], sum)
			}
		}
	}
}

// runHorizon returns the run's schedule or plan duration.
func runHorizon(rs routing.Scenario) float64 {
	if rs.Schedule != nil {
		return rs.Schedule.Duration
	}
	return rs.Plan.Duration
}

// replicaRecords counts the (node, packet) pairs that hold a replica
// record over every generated packet.
func replicaRecords(net *routing.Network, col *metrics.Collector) int {
	n := 0
	for _, r := range col.Records() {
		for _, nd := range net.Nodes {
			if nd.Ctl.Meta(r.P.ID) != nil {
				n++
			}
		}
	}
	return n
}
