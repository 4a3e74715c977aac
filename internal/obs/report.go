// Report exporters: a human-readable tree for the -stats flag and a
// schema-versioned JSON document for `cmd/tables -bench-json` / `make
// bench-json`.
package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"strings"
	"time"
)

// Schema identifies the JSON report layout.  Bump the suffix on any
// incompatible change so trajectory diffing tools can dispatch.
const Schema = "dmopt-bench/v1"

// Report is the machine-readable run record.  GOMAXPROCS and NumCPU
// record the machine the numbers came from: runtime.GOMAXPROCS(0) and
// runtime.NumCPU() when the report was assembled.  The embedded
// RuntimeStats are read at the same moment.
type Report struct {
	Schema     string  `json:"schema"`
	GitRev     string  `json:"git_rev"`
	GoVersion  string  `json:"go_version"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	NumCPU     int     `json:"nproc"`
	Timestamp  string  `json:"timestamp"`
	Label      string  `json:"label,omitempty"`
	Scale      float64 `json:"scale,omitempty"`
	TopK       int     `json:"top_k,omitempty"`
	Workers    int     `json:"workers"`
	WallNS     int64   `json:"wall_ns"`
	RuntimeStats
	Snapshot
}

// RuntimeStats are the Go runtime's cumulative process totals: bytes
// allocated on the heap, completed garbage-collection cycles, and the
// CPU time the collector has used (the runtime's estimate, which it
// updates as cycles finish).  They show how much of a run's time the
// collector took, which no span or counter of the program can.
type RuntimeStats struct {
	HeapAllocBytes uint64  `json:"heap_alloc_bytes"`
	GCCycles       uint64  `json:"gc_cycles"`
	GCCPUSeconds   float64 `json:"gc_cpu_seconds"`
}

// readRuntimeStats reads the process's RuntimeStats now from
// runtime/metrics.  A series the runtime does not support reads as
// zero.
func readRuntimeStats() RuntimeStats {
	samples := []metrics.Sample{
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/gc/cycles/total:gc-cycles"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
	}
	metrics.Read(samples)
	var st RuntimeStats
	if v := samples[0].Value; v.Kind() == metrics.KindUint64 {
		st.HeapAllocBytes = v.Uint64()
	}
	if v := samples[1].Value; v.Kind() == metrics.KindUint64 {
		st.GCCycles = v.Uint64()
	}
	if v := samples[2].Value; v.Kind() == metrics.KindFloat64 {
		st.GCCPUSeconds = v.Float64()
	}
	return st
}

// GitRev returns the VCS revision baked into the binary by the Go
// toolchain, suffixed with "+dirty" for modified trees.  Binaries built
// without a VCS stamp (`go test`, `go run` from a subdirectory) fall
// back to asking git at report time; "unknown" only when both fail.
func GitRev() string {
	bi, ok := debug.ReadBuildInfo()
	if ok {
		rev, dirty := "", false
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value
			case "vcs.modified":
				dirty = s.Value == "true"
			}
		}
		if rev != "" {
			if len(rev) > 12 {
				rev = rev[:12]
			}
			if dirty {
				rev += "+dirty"
			}
			return rev
		}
	}
	if out, err := exec.Command("git", "rev-parse", "--short=12", "HEAD").Output(); err == nil {
		if rev := strings.TrimSpace(string(out)); rev != "" {
			return rev
		}
	}
	return "unknown"
}

// Report assembles the JSON document from the recorder state.  The
// caller supplies run parameters; wall is the end-to-end wall time.
func (r *Recorder) Report(label string, scale float64, topK, workers int, wall time.Duration) Report {
	return Report{
		Schema:       Schema,
		GitRev:       GitRev(),
		GoVersion:    runtime.Version(),
		GOMAXPROCS:   runtime.GOMAXPROCS(0),
		NumCPU:       runtime.NumCPU(),
		Timestamp:    time.Now().UTC().Format(time.RFC3339),
		Label:        label,
		Scale:        scale,
		TopK:         topK,
		Workers:      workers,
		WallNS:       int64(wall),
		RuntimeStats: readRuntimeStats(),
		Snapshot:     r.Snapshot(),
	}
}

// WriteJSON writes the report to path (indented, trailing newline).
func (rep Report) WriteJSON(path string) error {
	b, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// WriteTree renders the human-readable stats tree to w: the span
// hierarchy with counts and durations, then counters, gauges and
// timers in lexical order, then the process's RuntimeStats.
func (r *Recorder) WriteTree(w io.Writer, wall time.Duration) {
	snap := r.Snapshot()
	rt := readRuntimeStats()
	fmt.Fprintf(w, "── run stats (wall %v) ──\n", wall.Round(time.Millisecond))
	if len(snap.Spans) > 0 {
		fmt.Fprintln(w, "spans:")
		writeSpans(w, snap.Spans, 1)
	}
	if len(snap.Counters) > 0 {
		fmt.Fprintln(w, "counters:")
		for _, k := range sortedKeys(snap.Counters) {
			fmt.Fprintf(w, "  %-36s %d\n", k, snap.Counters[k])
		}
	}
	if len(snap.Gauges) > 0 {
		fmt.Fprintln(w, "gauges:")
		for _, k := range sortedKeys(snap.Gauges) {
			fmt.Fprintf(w, "  %-36s %g\n", k, snap.Gauges[k])
		}
	}
	if len(snap.Timers) > 0 {
		fmt.Fprintln(w, "timers:")
		for _, k := range sortedKeys(snap.Timers) {
			t := snap.Timers[k]
			fmt.Fprintf(w, "  %-36s %d × avg %v = %v\n", k, t.Count,
				avgDur(t), time.Duration(t.TotalNS).Round(time.Microsecond))
		}
	}
	fmt.Fprintln(w, "runtime:")
	fmt.Fprintf(w, "  %-36s %d\n", "heap_alloc_bytes", rt.HeapAllocBytes)
	fmt.Fprintf(w, "  %-36s %d\n", "gc_cycles", rt.GCCycles)
	fmt.Fprintf(w, "  %-36s %.3f\n", "gc_cpu_seconds", rt.GCCPUSeconds)
}

func avgDur(t TimerStat) time.Duration {
	if t.Count == 0 {
		return 0
	}
	return (time.Duration(t.TotalNS) / time.Duration(t.Count)).Round(time.Microsecond)
}

func writeSpans(w io.Writer, spans []SpanStat, depth int) {
	indent := strings.Repeat("  ", depth)
	for _, s := range spans {
		fmt.Fprintf(w, "%s%-*s ×%-5d %v\n", indent, 38-2*depth, s.Name, s.Count,
			time.Duration(s.TotalNS).Round(time.Microsecond))
		writeSpans(w, s.Children, depth+1)
	}
}
