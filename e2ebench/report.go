package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"anycastmap/internal/obs"
	"anycastmap/internal/prober"
)

// endToEnd lists the metrics of an untraced run, in BENCHMARK.json order.
// Every workload reports every one; what "operation" means is per
// workload (see README.md).
var endToEnd = []struct{ name, unit string }{
	{"op_p50_ms", "ms"},
	{"ops_per_s", "1/s"},
	{"peak_heap_mib", "MiB"},
	{"anycast_recall", "ratio"},
	{"anycast_precision", "ratio"},
	{"setup_s", "s"},
}

// perLayer lists the metrics of a traced run. Times and counts are per
// traced operation; a layer the workload does not call reports 0.
var perLayer = []struct{ name, unit string }{
	{"netsim.world_build_s", "s"},
	{"hitlist.self_s", "s"},
	{"platform.self_s", "s"},
	{"prober.self_s", "s"},
	{"prober.blacklist_s", "s"},
	{"prober.probes_sent", "count"},
	{"prober.span_busy_s", "s"},
	{"census.self_s", "s"},
	{"census.round_s", "s"},
	{"census.probe_yield", "ratio"},
	{"census.analyze_s", "s"},
	{"census.cert_hit_rate", "ratio"},
	{"census.full_scans", "count"},
	{"census.dirty_targets", "count"},
	{"analysis.self_s", "s"},
	{"analysis.attribute_s", "s"},
	{"store.self_s", "s"},
	{"store.snapshot_build_s", "s"},
	{"store.persist_s", "s"},
	{"store.snapshot_bytes", "bytes"},
	{"store.open_s", "s"},
	{"store.publish_us", "us"},
	{"store.lookup_ns", "ns"},
	{"store.cache_hit_rate", "ratio"},
	{"store.api_ns", "ns"},
	{"store.swaps", "count"},
	{"route.self_s", "s"},
	{"route.respond_ns", "ns"},
	{"route.socket_us", "us"},
	{"route.cache_hit_rate", "ratio"},
	{"runtime.gc_cycles", "count"},
	{"runtime.gc_pause_s", "s"},
	{"unattributed_share", "ratio"},
	{"trace_overhead", "ratio"},
}

// report accumulates one run's checks and metrics.
type report struct {
	opt          options
	tr           *tracer
	attempted    int
	failed       int
	firstFailure error
	values       map[string]float64
}

func newReport(opt options) *report {
	r := &report{opt: opt, values: map[string]float64{}}
	if opt.trace {
		r.tr = newTracer()
	}
	return r
}

// check counts one attempted unit of output, failed when err is non-nil.
func (r *report) check(err error) {
	failed := 0
	if err != nil {
		failed = 1
	}
	r.tally(1, failed, err)
}

// tally counts n attempted units of which failed failed; err describes
// the first failure.
func (r *report) tally(n, failed int, err error) {
	r.attempted += n
	r.failed += failed
	if failed > 0 && r.firstFailure == nil {
		r.firstFailure = err
	}
}

// set records a metric value by name.
func (r *report) set(name string, v float64) { r.values[name] = v }

// result renders the output object: the end-to-end metrics untraced, the
// per-layer ones traced.
func (r *report) result() *result {
	res := &result{
		Correct:   r.failed == 0 && r.attempted > 0,
		Attempted: r.attempted,
		Failed:    r.failed,
		Metrics:   map[string]metric{},
	}
	list := endToEnd
	if r.opt.trace {
		list = perLayer
	}
	for _, m := range list {
		res.Metrics[m.name] = metric{Value: r.values[m.name], Unit: m.unit}
	}
	return res
}

// setBreakdown fills the per-layer self times, the named-call timings
// and unattributed_share from the traced operations, averaged over ops.
func (r *report) setBreakdown(b breakdown, ops int) {
	if ops == 0 {
		return
	}
	n := float64(ops)
	for _, layer := range []string{"hitlist", "platform", "prober", "census", "analysis", "store", "route"} {
		r.set(layer+".self_s", b.self[layer]/n)
	}
	r.set("prober.blacklist_s", b.byName["prober.BuildBlacklist"]/n)
	r.set("census.round_s", b.byName["census.ExecuteRoundPipelined"]/n)
	r.set("census.analyze_s", (b.byName["census.AnalyzeAll"]+b.byName["census.AnalyzeDirty"])/n)
	r.set("analysis.attribute_s", b.byName["analysis.Attribute"]/n)
	r.set("store.snapshot_build_s", b.byName["store.NewSnapshot"]/n)
	r.set("store.persist_s", b.byName["store.SaveSnapshotFile"]/n)
	r.set("store.open_s", b.byName["store.OpenSnapshotFile"]/n)
	r.set("store.publish_us", b.byName["store.Publish"]/n*1e6)
	if b.rootWall > 0 {
		r.set("unattributed_share", b.unattributed/b.rootWall)
	}
}

// fingerprint identifies the machine and inputs a result was measured
// on. Results are only comparable when their fingerprints are equal.
type fingerprint struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	Seed       uint64 `json:"seed"`
}

func machineFingerprint(seed uint64) fingerprint {
	return fingerprint{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		Seed:       seed,
	}
}

// record is the file form of one run's result.
type record struct {
	Workload    string      `json:"workload"`
	Trace       bool        `json:"trace"`
	Seconds     float64     `json:"seconds"`
	Fingerprint fingerprint `json:"fingerprint"`
	Result      *result     `json:"result"`
}

func writeRecord(opt options, fp fingerprint, res *result) error {
	if err := os.MkdirAll(opt.outDir, 0o755); err != nil {
		return err
	}
	t := 0
	if opt.trace {
		t = 1
	}
	b, err := json.MarshalIndent(record{Workload: opt.workload, Trace: opt.trace, Seconds: opt.seconds, Fingerprint: fp, Result: res}, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(opt.outDir, fmt.Sprintf("%s-seed%d-trace%d.json", opt.workload, opt.seed, t)), b, 0o644)
}

// compareFiles prints metric-by-metric deltas between two result records,
// refusing records from different machines, seeds, workloads or modes.
func compareFiles(args []string) error {
	if len(args) != 2 {
		return errors.New("usage: e2ebench compare A.json B.json")
	}
	var recs [2]record
	for i, p := range args {
		b, err := os.ReadFile(p)
		if err != nil {
			return err
		}
		if err := json.Unmarshal(b, &recs[i]); err != nil {
			return fmt.Errorf("%s: %w", p, err)
		}
		if recs[i].Result == nil {
			return fmt.Errorf("%s: no result", p)
		}
	}
	a, b := recs[0], recs[1]
	if a.Fingerprint != b.Fingerprint {
		return fmt.Errorf("fingerprints differ, refusing to compare: %+v vs %+v", a.Fingerprint, b.Fingerprint)
	}
	if a.Workload != b.Workload || a.Trace != b.Trace || a.Seconds != b.Seconds {
		return fmt.Errorf("runs differ in workload, mode or length: %s/%v/%gs vs %s/%v/%gs",
			a.Workload, a.Trace, a.Seconds, b.Workload, b.Trace, b.Seconds)
	}
	names := make([]string, 0, len(a.Result.Metrics))
	for n := range a.Result.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		ma, mb := a.Result.Metrics[n], b.Result.Metrics[n]
		delta := math.NaN()
		if ma.Value != 0 {
			delta = (mb.Value - ma.Value) / ma.Value
		}
		fmt.Printf("%-26s %14.6g %14.6g %+8.2f%% %s\n", n, ma.Value, mb.Value, 100*delta, ma.Unit)
	}
	return nil
}

// heapSampler tracks the peak of live-plus-unswept heap objects (the
// HeapAlloc figure) by polling runtime/metrics, which does not stop the
// world.
type heapSampler struct {
	peak atomic.Uint64
	stop chan struct{}
	done chan struct{}
}

const heapObjectsMetric = "/memory/classes/heap/objects:bytes"

func heapObjects() uint64 {
	s := []metrics.Sample{{Name: heapObjectsMetric}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

func startHeapSampler() *heapSampler {
	h := &heapSampler{stop: make(chan struct{}), done: make(chan struct{})}
	h.reset()
	go func() {
		defer close(h.done)
		t := time.NewTicker(2 * time.Millisecond)
		defer t.Stop()
		s := []metrics.Sample{{Name: heapObjectsMetric}}
		for {
			select {
			case <-h.stop:
				return
			case <-t.C:
				metrics.Read(s)
				v := s[0].Value.Uint64()
				for {
					old := h.peak.Load()
					if v <= old || h.peak.CompareAndSwap(old, v) {
						break
					}
				}
			}
		}
	}()
	return h
}

// reset restarts the peak from the current heap.
func (h *heapSampler) reset() { h.peak.Store(heapObjects()) }

// peakMiB returns the peak since the last reset, including now.
func (h *heapSampler) peakMiB() float64 {
	return float64(max(h.peak.Load(), heapObjects())) / (1 << 20)
}

func (h *heapSampler) close() {
	close(h.stop)
	<-h.done
}

// gcStats is a GC counter reading, taken outside timed sections.
type gcStats struct {
	cycles  uint32
	pauseNs uint64
}

func readGC() gcStats {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return gcStats{cycles: ms.NumGC, pauseNs: ms.PauseTotalNs}
}

// probeRegistry exposes prober.DefaultMetrics the way the daemons do;
// the benchmark reads span busy time back from its scrape text. The
// prober's histogram hook is process-wide, so it is registered once.
var probeRegistry = func() *obs.Registry {
	r := obs.NewRegistry()
	prober.DefaultMetrics.Register(r)
	return r
}()

// probeSpanSeconds reads anycastmap_probe_span_seconds_sum.
func probeSpanSeconds() float64 {
	var buf bytes.Buffer
	if err := probeRegistry.WriteText(&buf); err != nil {
		return 0
	}
	for _, line := range strings.Split(buf.String(), "\n") {
		if v, ok := strings.CutPrefix(line, "anycastmap_probe_span_seconds_sum "); ok {
			f, _ := strconv.ParseFloat(strings.TrimSpace(v), 64)
			return f
		}
	}
	return 0
}

// median of a sample; 0 for an empty one.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}
