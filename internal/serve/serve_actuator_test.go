package serve

import (
	"encoding/json"
	"net/http"
	"testing"

	"repro/internal/api"
)

// TestHTTPJointJob: joint-mode (dose+bias) jobs flow through the same
// cached Prepare/Execute path as dose-only jobs — the daemon returns a
// bias summary alongside the dose map, and the document is bit-identical
// to the direct in-process run (cmd/dmopt -actuators joint).
func TestHTTPJointJob(t *testing.T) {
	_, ts, _ := newTestServer(t, Config{MaxRunning: 1})
	spec := testSpec()
	spec.Actuators = api.ActuatorsJoint

	resp, body := postJSON(t, ts.URL+"/v1/solve", spec)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("joint solve: %d %s", resp.StatusCode, body)
	}
	var res api.JobResult
	if err := json.Unmarshal(body, &res); err != nil {
		t.Fatalf("solve body: %v", err)
	}
	if res.Bias == nil {
		t.Fatal("joint job returned no bias summary")
	}
	if res.Bias.Domains == 0 {
		t.Fatalf("joint job has no bias domains: %+v", res.Bias)
	}
	if res.Bias.MinV > res.Bias.MeanV || res.Bias.MeanV > res.Bias.MaxV {
		t.Fatalf("bias summary not ordered: %+v", res.Bias)
	}
	if res.Dose.MaxPct == 0 && res.Dose.MinPct == 0 {
		t.Fatal("joint job returned a flat dose map; the dose actuator went missing")
	}

	ref := directRun(t, spec)
	if got, want := resultFingerprint(t, &res), resultFingerprint(t, ref); got != want {
		t.Fatalf("joint result differs from direct path:\n  http   %s\n  direct %s", got, want)
	}
}

// TestHTTPActuatorSpecErrors: malformed actuator specs are rejected at
// the door with 400 — an unknown actuator set, bias knobs without a bias
// actuator, a degenerate bias box, and bias combined with modes that
// forbid it (wafer, dosePl).
func TestHTTPActuatorSpecErrors(t *testing.T) {
	_, ts, _ := newTestServer(t, Config{MaxRunning: 1})
	cases := []struct {
		name string
		mut  func(*api.JobSpec)
	}{
		{"unknown actuator set", func(s *api.JobSpec) { s.Actuators = "warp" }},
		{"bias knobs without bias actuator", func(s *api.JobSpec) { s.BiasGridUm = 20 }},
		{"negative bias pitch", func(s *api.JobSpec) {
			s.Actuators = api.ActuatorsJoint
			s.BiasGridUm = -5
		}},
		{"empty bias box", func(s *api.JobSpec) {
			s.Actuators = api.ActuatorsJoint
			s.BiasLoV, s.BiasHiV = 0.1, -0.2
		}},
		{"bias on wafer job", func(s *api.JobSpec) {
			s.Actuators = api.ActuatorsJoint
			s.Mode = api.ModeWafer
			s.Wafer = &api.WaferSpec{FieldWmm: 58, FieldHmm: 58}
		}},
		{"bias on dosePl job", func(s *api.JobSpec) {
			s.Actuators = api.ActuatorsJoint
			s.DosePl = true
		}},
	}
	for _, tc := range cases {
		spec := testSpec()
		tc.mut(&spec)
		resp, body := postJSON(t, ts.URL+"/v1/jobs", spec)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: %d %s, want 400", tc.name, resp.StatusCode, body)
		}
	}
}
