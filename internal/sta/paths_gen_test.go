package sta_test

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/gen"
	"repro/internal/sta"
)

// TestTopPathsMatchHeapOracleGenerated compares the path search with the
// container/heap oracle on generated designs at two generator seeds of
// two presets.
func TestTopPathsMatchHeapOracleGenerated(t *testing.T) {
	bindingCaps := 0
	for _, base := range []gen.Preset{gen.AES65().Scaled(0.03), gen.JPEG65().Scaled(0.008)} {
		for _, off := range []int64{0, 17} {
			p := base
			p.Seed += off
			d, err := gen.GenerateCtx(context.Background(), p)
			if err != nil {
				t.Fatal(err)
			}
			in := sta.Input{Circ: d.Circ, Masters: d.Masters, Pl: d.Pl, Node: d.Node}
			r, err := sta.AnalyzeCtx(context.Background(), in, sta.DefaultConfig(), nil)
			if err != nil {
				t.Fatal(err)
			}
			bindingCaps += sta.CheckTopPathsOracle(t, fmt.Sprintf("%s seed %d", p.Name, p.Seed), r, p.Seed)
		}
	}
	t.Logf("%d state caps truncated the oracle on these designs", bindingCaps)
}
