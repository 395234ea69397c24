// Command e2ebench is the repository's end-to-end benchmark. One command
// runs one named workload over inputs generated from a seed, checks every
// output against the simulator's ground truth or the live snapshot, and
// prints every metric by name and unit. The last line of standard output
// is one JSON object:
//
//	{"correct": true, "attempted": 12, "failed": 0, "metrics": {"op_p50_ms": {"value": 9812.4, "unit": "ms"}, ...}}
//
// With --trace 0 the metrics are the end-to-end ones; with --trace 1 a
// separate traced run times every call the benchmark makes into a layer's
// public functions and reports per-layer metrics instead. Nothing inside
// the program is instrumented: spans are opened and closed here, around
// the calls.
//
// Usage (from the repository root; run.sh builds first):
//
//	e2ebench --workload census-full --seed 1 --seconds 20 --trace 0
//	e2ebench compare A.json B.json
//
// Every run also writes its result, with the machine fingerprint, to
// .bench_build/results/; compare refuses two results whose fingerprints
// differ.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's output contract.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// options is one run's configuration.
type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	scale    scale
	// outDir receives the result record and, when tracing, the spans.
	outDir string
}

// scale sizes the generated inputs. The defaults are the benchmark's;
// tests shrink them.
type scale struct {
	// Census workloads: the world's unicast /24s, the VP sample per
	// round and the rounds per cold census.
	unicast24s  int
	vpsPerRound int
	rounds      int
	// patchRoundS is a nominal patch round's length: census-patch runs
	// ceil(seconds / patchRoundS) rounds (at least 2), a count fixed by
	// the run length alone, so every commit times the same rounds. Its
	// greylists are built at set-up.
	patchRoundS float64
	// Serve workloads: the world behind the served snapshot and its
	// one-round census.
	serveUnicast24s int
	serveVPs        int
	// serveQueries is how many pre-generated (client, service) pairs a
	// serve phase replays in a loop.
	serveQueries int
	// setupRepeats is how many times the world set-up is repeated to
	// report its median.
	setupRepeats int
	// publishEvery is the serve workloads' snapshot republish interval.
	publishEvery time.Duration
	// microSeconds bounds each in-process per-layer timing loop of the
	// traced serve runs.
	microSeconds float64
}

func defaultScale() scale {
	return scale{
		unicast24s:      50000,
		vpsPerRound:     261,
		rounds:          2,
		patchRoundS:     1.25,
		serveUnicast24s: 20000,
		serveVPs:        261,
		serveQueries:    1 << 15,
		setupRepeats:    3,
		publishEvery:    250 * time.Millisecond,
		microSeconds:    0.5,
	}
}

// workloads maps each workload name to its runner.
var workloads = map[string]func(options, *report) error{
	"census-full":  runCensusFull,
	"census-patch": runCensusPatch,
	"serve-dns":    runServeDNS,
	"serve-http":   runServeHTTP,
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		if err := compareFiles(os.Args[2:]); err != nil {
			fmt.Fprintln(os.Stderr, "e2ebench compare:", err)
			os.Exit(1)
		}
		return
	}
	opt := options{scale: defaultScale(), outDir: filepath.Join(".bench_build", "results")}
	var traceFlag int
	flag.StringVar(&opt.workload, "workload", "", "workload: "+strings.Join(workloadNames(), ", "))
	flag.Uint64Var(&opt.seed, "seed", 1, "input seed")
	flag.Float64Var(&opt.seconds, "seconds", 15, "measured seconds")
	flag.IntVar(&traceFlag, "trace", 0, "1 = traced run reporting per-layer metrics")
	flag.Parse()
	opt.trace = traceFlag != 0
	res, fp, err := run(opt)
	if err != nil && res == nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		os.Exit(1)
	}
	if werr := writeRecord(opt, fp, res); werr != nil {
		fmt.Fprintln(os.Stderr, "e2ebench: write result:", werr)
	}
	fpLine, _ := json.Marshal(map[string]fingerprint{"fingerprint": fp})
	fmt.Println(string(fpLine))
	line, _ := json.Marshal(res)
	fmt.Println(string(line))
	if err != nil || !res.Correct {
		fmt.Fprintln(os.Stderr, "e2ebench: output check failed:", err)
		os.Exit(1)
	}
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// run executes one workload. A nil result means the run could not start
// (bad flags, set-up failure); a non-nil result with an error means an
// output check failed.
func run(opt options) (*result, fingerprint, error) {
	fp := machineFingerprint(opt.seed)
	runner, ok := workloads[opt.workload]
	if !ok {
		return nil, fp, fmt.Errorf("unknown workload %q (want one of %s)", opt.workload, strings.Join(workloadNames(), ", "))
	}
	if opt.seconds <= 0 {
		return nil, fp, errors.New("--seconds must be positive")
	}
	rep := newReport(opt)
	if err := runner(opt, rep); err != nil {
		return nil, fp, err
	}
	if opt.trace {
		if err := rep.tr.writeFile(filepath.Join(opt.outDir, fmt.Sprintf("%s-seed%d.spans.jsonl", opt.workload, opt.seed))); err != nil {
			return nil, fp, fmt.Errorf("write spans: %w", err)
		}
	}
	res := rep.result()
	if !res.Correct {
		return res, fp, rep.firstFailure
	}
	return res, fp, nil
}
