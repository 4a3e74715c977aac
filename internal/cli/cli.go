// Package cli is the shared flag surface and run scaffolding of the
// repro commands.  Every binary speaks the same dialect — -workers,
// -stats, -bench-json, -cpuprofile, -memprofile — and the boilerplate
// around it (profile lifecycles, recorder wiring, the dmopt-bench/v1
// report) lives here once instead of being copy-pasted per main.
//
// Usage shape:
//
//	com := cli.AddFlags("dmopt")
//	flag.Parse()
//	com.Init()
//	defer com.Close()
//	ctx := com.Context()
//	... run ...
//	com.Finish("dmopt", scale, 0, time.Since(start))
package cli

import (
	"context"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"time"

	"repro/internal/api"
	"repro/internal/obs"
	"repro/internal/par"
)

// Common holds the shared flag values after flag.Parse.
type Common struct {
	// Prog prefixes error messages ("prog: err").
	Prog string
	// Workers bounds the command's parallel fan-out; 0 = GOMAXPROCS.
	Workers int
	// Stats requests the stderr telemetry tree.
	Stats bool
	// BenchJSON is the machine-readable report path ("" disables).
	BenchJSON string

	cpuprofile string
	memprofile string

	rec      *obs.Recorder
	profStop func()
}

// AddFlags registers the shared flags on the default flag set and
// returns the holder to query after flag.Parse.
func AddFlags(prog string) *Common {
	return AddFlagsTo(flag.CommandLine, prog)
}

// AddFlagsTo registers the shared flags on an explicit flag set.
func AddFlagsTo(fs *flag.FlagSet, prog string) *Common {
	c := &Common{Prog: prog, profStop: func() {}}
	fs.IntVar(&c.Workers, "workers", 0, "fan-out across independent work (table rows, sweep points, wafer fields, STA levels, model fit); each solve runs on one goroutine; 0 = GOMAXPROCS (bit-identical results)")
	fs.BoolVar(&c.Stats, "stats", false, "print run telemetry (spans, counters) to stderr")
	fs.StringVar(&c.BenchJSON, "bench-json", "", "write a machine-readable benchmark report to this file")
	fs.StringVar(&c.cpuprofile, "cpuprofile", "", "write a CPU profile to this file")
	fs.StringVar(&c.memprofile, "memprofile", "", "write a heap profile to this file on exit")
	return c
}

// ActuatorFlags is the shared actuator flag group of the dmopt-family
// commands: which knobs to optimize and the body-bias domain/box
// parameters.  Zero values reproduce the dose-only pipeline.
type ActuatorFlags struct {
	// Actuators is the selection string: dose (default), bias,
	// dose+bias or joint.
	Actuators string
	// BiasGridUm is the bias-domain tiling pitch in µm (0 = default).
	BiasGridUm float64
	// BiasLoV, BiasHiV bound the per-domain bias voltage in V.
	BiasLoV, BiasHiV float64
}

// AddActuatorFlags registers the actuator flag group on fs.
func AddActuatorFlags(fs *flag.FlagSet) *ActuatorFlags {
	a := &ActuatorFlags{}
	fs.StringVar(&a.Actuators, "actuators", "dose", "optimization knobs: dose, bias, dose+bias (alias: joint)")
	fs.Float64Var(&a.BiasGridUm, "bias-grid", 0, "body-bias domain pitch in µm (0 = default 20; bias actuators only)")
	fs.Float64Var(&a.BiasLoV, "bias-lo", 0, "lower body-bias bound in V (0 with -bias-hi 0 = default box)")
	fs.Float64Var(&a.BiasHiV, "bias-hi", 0, "upper body-bias bound in V")
	return a
}

// Apply copies the actuator flag group onto a job spec.  The "dose"
// default maps to the spec's empty selection so legacy invocations
// produce byte-identical canonical specs.
func (a *ActuatorFlags) Apply(spec *api.JobSpec) {
	if a.Actuators == "" || a.Actuators == api.ActuatorsDose {
		return
	}
	spec.Actuators = a.Actuators
	spec.BiasGridUm = a.BiasGridUm
	spec.BiasLoV, spec.BiasHiV = a.BiasLoV, a.BiasHiV
}

// Init starts the CPU profile (call after flag.Parse); pair it with a
// deferred Close.
func (c *Common) Init() {
	if c.cpuprofile != "" {
		f, err := os.Create(c.cpuprofile)
		c.Check(err)
		c.Check(pprof.StartCPUProfile(f))
		c.profStop = func() {
			pprof.StopCPUProfile()
			c.Check(f.Close())
		}
	}
}

// Close stops the CPU profile and dumps the post-GC heap profile.
func (c *Common) Close() {
	c.profStop()
	c.profStop = func() {}
	if c.memprofile != "" {
		f, err := os.Create(c.memprofile)
		c.Check(err)
		runtime.GC()
		c.Check(pprof.WriteHeapProfile(f))
		c.Check(f.Close())
	}
}

// Check prints "prog: err" and exits nonzero on a non-nil error.
func (c *Common) Check(err error) {
	if err != nil {
		fmt.Fprintf(os.Stderr, "%s: %v\n", c.Prog, err)
		os.Exit(1)
	}
}

// Fatalf prints a formatted "prog: ..." message and exits nonzero.
func (c *Common) Fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, c.Prog+": "+format+"\n", args...)
	os.Exit(1)
}

// Context returns the run context, with a telemetry Recorder attached
// when -stats or -bench-json asked for one.
func (c *Common) Context() context.Context {
	if c.rec == nil && (c.Stats || c.BenchJSON != "") {
		c.rec = obs.New()
	}
	if c.rec == nil {
		return context.Background()
	}
	return obs.With(context.Background(), c.rec)
}

// Recorder exposes the telemetry recorder (nil unless requested).
func (c *Common) Recorder() *obs.Recorder { return c.rec }

// Finish emits the requested telemetry: the stderr tree under -stats
// and the dmopt-bench/v1 report under -bench-json.  label, scale, topK
// and workers annotate the report; wall is the run wall time.
func (c *Common) Finish(label string, scale float64, topK int, workers int, wall time.Duration) {
	if c.rec == nil {
		return
	}
	if c.Stats {
		c.rec.WriteTree(os.Stderr, wall)
	}
	if c.BenchJSON != "" {
		rep := c.rec.Report(label, scale, topK, par.Workers(workers), wall)
		c.Check(rep.WriteJSON(c.BenchJSON))
		fmt.Fprintf(os.Stderr, "%s: wrote benchmark report to %s\n", c.Prog, c.BenchJSON)
	}
}
