package service

import (
	"bytes"
	"testing"
)

// FuzzJobRequest decodes arbitrary bytes as simd decodes a POST
// /v1/jobs body and expands the result. Neither step may panic, and a
// spec that expands must stay within maxScenariosPerJob.
func FuzzJobRequest(f *testing.F) {
	for _, seed := range []string{
		`{"family":"synth-exponential","protocols":["Random"]}`,
		`{"family":"trace-comparison","reps":100000}`,
		`{"family":"trace-comparison","scale":"full"}`,
		`{"family":"deployment","scale":"default","reps":3}`,
		`{"family":"mega-constellation","reps":-1}`,
		`{"scenario":{"protocol":"Rapid"}}`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		spec, err := decodeSpec(bytes.NewReader(body))
		if err != nil {
			return
		}
		scs, err := expandSpec(spec)
		if err == nil && len(scs) > maxScenariosPerJob {
			t.Fatalf("accepted a job of %d scenarios, cap %d", len(scs), maxScenariosPerJob)
		}
	})
}
