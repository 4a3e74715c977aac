package api

import (
	"context"
	"testing"

	"repro/internal/gen"
)

// BenchmarkSmallJob executes jobs of a serve-mix job's size — the AES-65
// preset at scale 0.02, G = 5 µm — on one prepared artifact each: a QP,
// a QCP and a joint dose+bias QP, with their allocations reported.
// Preparing the artifact (generation, golden analysis, fit, compile)
// stays outside the timer, as a cache hit in the service does.
func BenchmarkSmallJob(b *testing.B) {
	p := gen.AES65().Scaled(0.02)
	for _, c := range []struct {
		name string
		spec JobSpec
	}{
		{"qp", JobSpec{Mode: ModeQP}},
		{"qcp", JobSpec{Mode: ModeQCP}},
		{"joint-qp", JobSpec{Mode: ModeQP, Actuators: ActuatorsJoint}},
	} {
		spec := c.spec
		spec.Preset, spec.GridUm = &p, 5
		b.Run(c.name, func(b *testing.B) {
			ctx := context.Background()
			art, err := Prepare(ctx, spec, nil)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, err := Execute(ctx, art, spec); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
