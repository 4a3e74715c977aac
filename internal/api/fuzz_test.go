package api

import (
	"bytes"
	"encoding/json"
	"testing"
)

// decodeStrict decodes one dmopt-job/v1 document the way dmopt-serve
// reads a request body: unknown fields are an error.
func decodeStrict(data []byte) (JobSpec, error) {
	var spec JobSpec
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	err := dec.Decode(&spec)
	return spec, err
}

// FuzzJobSpec drives the request boundary: JSON → Normalized →
// Validate.  Every accepted spec must survive its canonical form —
// MarshalCanonical decodes and canonicalizes back to the same bytes,
// the identity the server deduplicates on — and the accessors the
// server calls before any design work (Options, GenPreset, DesignKey)
// must succeed without panicking.  Prepare stays out: it generates a
// design per input.
func FuzzJobSpec(f *testing.F) {
	for _, s := range []string{
		// One spec per mode.
		`{"design":"AES-65","scale":0.1}`,
		`{"design":"JPEG-65","mode":"QCP","xi_nw":50,"grid_um":10,"no_snap":true}`,
		`{"design":"AES-90","mode":"qp","actuators":"joint","bias_grid_um":20,"tau_ps":900}`,
		`{"design":"AES-65","mode":"wafer","wafer":{"center_nm":-2,"edge_nm":4,"max_outer":3}}`,
		`{"design":"AES-65","mode":"qcp","dosepl":true,"workers":-3,"linsys":"ldlt"}`,
		`{"schema":"dmopt-job/v1","preset":{"Name":"tiny","Tech":"N65","Cells":300,"ChipW":40,"ChipH":40,"Depth":12,"PIs":8,"POs":8,"LeakAdjust":1,"Seed":3},"scale":0.5}`,
		// Malformed or rejected.
		``,
		`{`,
		`null`,
		`[]`,
		`{"design":1}`,
		`{"design":"AES-65","bogus":true}`,
		`{"design":"AES-65","preset":{"Name":"x"}}`,
		`{"design":"NOPE"}`,
		`{"design":"AES-65","scale":-0.5}`,
		`{"design":"AES-65","mode":"wafer","tiled":true}`,
		`{"design":"AES-65","wafer":{}}`,
		`{"design":"AES-65","actuators":"bias","dosepl":true}`,
		`{"design":"AES-65","bias_lo_v":0.1}`,
		`{"design":"AES-65","dose_lo":3,"dose_hi":-3}`,
		`{"design":"AES-65","linsys":"qr"}`,
		`{"design":"AES-65","linsys":"cg"}`,
		`{"design":"AES-65","scale":1e400}`,
		`{"schema":"dmopt-job/v0","design":"AES-65"}`,
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		raw, err := decodeStrict(data)
		if err != nil {
			return
		}
		spec := raw.Normalized()
		if spec.Validate() != nil {
			return
		}
		canon := spec.MarshalCanonical()
		back, err := decodeStrict([]byte(canon))
		if err != nil {
			t.Fatalf("canonical form does not decode: %v\ncanonical: %s", err, canon)
		}
		if again := back.MarshalCanonical(); again != canon {
			t.Fatalf("canonical form not stable\nfirst:  %s\nsecond: %s", canon, again)
		}
		if _, err := spec.Options(); err != nil {
			t.Fatalf("accepted spec has no options: %v\ncanonical: %s", err, canon)
		}
		if _, err := spec.GenPreset(); err != nil {
			t.Fatalf("accepted spec has no preset: %v\ncanonical: %s", err, canon)
		}
		if spec.DesignKey() == "" {
			t.Fatalf("accepted spec has an empty design key\ncanonical: %s", canon)
		}
	})
}
