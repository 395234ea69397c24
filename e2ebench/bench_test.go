package main

import (
	"encoding/binary"
	"encoding/json"
	"net/netip"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"

	"anycastmap/internal/analysis"
	"anycastmap/internal/census"
	"anycastmap/internal/netsim"
	"anycastmap/internal/route"
)

// spec is the part of BENCHMARK.json the tests hold the program to.
type spec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func loadSpec(t *testing.T) spec {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var s spec
	if err := json.Unmarshal(b, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

// tinyOptions shrinks every workload to a few hundred milliseconds.
func tinyOptions(t *testing.T, workload string, trace bool) options {
	return options{
		workload: workload,
		seed:     7,
		seconds:  0.6,
		trace:    trace,
		outDir:   t.TempDir(),
		scale: scale{
			unicast24s:      4000,
			vpsPerRound:     60,
			rounds:          2,
			patchRoundS:     0.1,
			serveUnicast24s: 4000,
			serveVPs:        60,
			// A short replay loop, so the store LRU and the decision
			// cache see repeats between republishes even in a slow
			// (-race) run.
			serveQueries: 64,
			setupRepeats: 1,
			publishEvery: 100 * time.Millisecond,
			microSeconds: 0.02,
		},
	}
}

// layerMetrics lists, per workload, the per-layer metrics of the layers
// the workload calls: a traced run must report each as positive, so a
// broken wiring between a layer and its metric shows. Metrics of layers a
// workload does not call are 0 (README.md).
var layerMetrics = map[string][]string{
	"census-full": {
		"hitlist.self_s", "platform.self_s", "prober.self_s", "prober.blacklist_s",
		"prober.probes_sent", "prober.span_busy_s", "census.self_s", "census.round_s",
		"census.probe_yield", "census.analyze_s", "analysis.self_s", "analysis.attribute_s",
		"store.self_s", "store.snapshot_build_s", "store.persist_s", "store.snapshot_bytes",
		"store.open_s", "store.publish_us", "unattributed_share",
	},
	"census-patch": {
		"prober.probes_sent", "prober.span_busy_s", "census.self_s", "census.round_s",
		"census.probe_yield", "census.analyze_s", "census.cert_hit_rate", "census.dirty_targets",
		"analysis.attribute_s", "store.snapshot_build_s", "store.persist_s", "store.snapshot_bytes",
		"store.open_s", "store.publish_us", "unattributed_share",
	},
	"serve-dns": {
		"route.self_s", "route.respond_ns", "route.socket_us", "route.cache_hit_rate",
		"store.open_s", "store.publish_us", "store.swaps",
	},
	"serve-http": {
		"store.self_s", "store.lookup_ns", "store.cache_hit_rate", "store.api_ns",
		"store.open_s", "store.publish_us", "store.swaps",
	},
}

// Every workload BENCHMARK.json names runs, passes its output checks and
// emits every declared metric with its declared unit, untraced and traced.
func TestWorkloadsEmitEveryMetric(t *testing.T) {
	s := loadSpec(t)
	var names []string
	for _, w := range s.Workloads {
		names = append(names, w.Name)
	}
	sort.Strings(names)
	if got := workloadNames(); !equal(got, names) {
		t.Fatalf("program workloads %v, BENCHMARK.json %v", got, names)
	}
	for _, w := range names {
		for _, trace := range []bool{false, true} {
			res, _, err := run(tinyOptions(t, w, trace))
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w, trace, err)
			}
			if !res.Correct || res.Attempted == 0 || res.Failed != 0 {
				t.Fatalf("%s trace=%v: correct=%v attempted=%d failed=%d", w, trace, res.Correct, res.Attempted, res.Failed)
			}
			want := s.EndToEnd
			if trace {
				want = s.PerLayer
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics, BENCHMARK.json declares %d", w, trace, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				switch {
				case !ok:
					t.Errorf("%s trace=%v: metric %s missing", w, trace, m.Name)
				case got.Unit != m.Unit:
					t.Errorf("%s trace=%v: metric %s unit %q, want %q", w, trace, m.Name, got.Unit, m.Unit)
				case !trace && got.Value == 0:
					t.Errorf("%s: end-to-end metric %s is 0", w, m.Name)
				}
			}
			if !trace {
				continue
			}
			for _, m := range append([]string{"netsim.world_build_s"}, layerMetrics[w]...) {
				if res.Metrics[m].Value <= 0 {
					t.Errorf("%s: per-layer metric %s is %v, want > 0: the workload calls its layer", w, m, res.Metrics[m].Value)
				}
			}
			// The stage spans must account for at least 98% of a census
			// operation's wall time.
			if u := res.Metrics["unattributed_share"].Value; strings.HasPrefix(w, "census") && (u <= 0 || u > 0.02) {
				t.Errorf("%s: unattributed share %v, want (0, 0.02]", w, u)
			}
		}
	}
}

func equal(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// Corrupted DNS answers, HTTP answers and census outcomes fail their
// checks, and a failed check makes the run incorrect.
func TestCorruptedOutputsCountAsFailed(t *testing.T) {
	opt := tinyOptions(t, "serve-dns", false)
	rep := newReport(opt)
	se, e, err := setupServe(opt, rep)
	if err != nil {
		t.Fatal(err)
	}
	var svc, unicast netsim.Prefix24
	for _, p := range se.targets {
		if n, ok := se.instances[p]; ok && n > 0 {
			svc = p
		} else if !ok {
			unicast = p
		}
	}
	eng, err := route.NewEngine(route.Config{Store: se.st, Locator: route.HashLocator{Seed: se.seed}, VPs: se.vps})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := route.NewResponder(eng, "", 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	zone, _ := route.EncodeName(nil, route.DefaultZone)
	if svc == 0 || unicast == 0 {
		t.Fatalf("served map lacks an anycast prefix with replicas (%v) or a unicast one (%v)", svc, unicast)
	}
	pkt := route.AppendQuery(nil, 9, svc, route.PolicyNone, zone, qtypeA, unicast)
	q := &dnsQuery{pkt: pkt, qname: qnameLen(pkt), service: svc, anycast: true, withA: true}
	answer := append([]byte(nil), resp.Respond(new(route.Scratch), pkt, netip.MustParseAddrPort("127.0.0.1:53"))...)
	if err := checkDNS(answer, 9, q); err != nil {
		t.Fatalf("genuine answer rejected: %v", err)
	}
	corrupt := map[string]func([]byte){
		"rcode": func(b []byte) { b[3] = b[3]&0xf0 | route.RcodeNXDomain },
		"id":    func(b []byte) { b[1]++ },
		"addr": func(b []byte) {
			off := 12 + q.qname + 4 + 12
			binary.BigEndian.PutUint32(b[off:], binary.BigEndian.Uint32(b[off:])+256)
		},
	}
	for name, f := range corrupt {
		b := append([]byte(nil), answer...)
		f(b)
		rep.check(checkDNS(b, 9, q))
		if rep.failed == 0 {
			t.Errorf("corrupted %s accepted", name)
		}
		rep.failed = 0
	}

	if err := checkHTTP(200, []byte(`{"ip":"1.0.0.1","anycast":true,"snapshot_version":3}`), 0, true); err != nil {
		t.Fatalf("genuine HTTP answer rejected: %v", err)
	}
	for _, body := range []string{`{"anycast":false,"snapshot_version":3}`, `{"snapshot_version":3}`, `{"anycast":true,"snapshot_version":0}`, `not json`} {
		if checkHTTP(200, []byte(body), 0, true) == nil {
			t.Errorf("corrupted HTTP answer %s accepted", body)
		}
	}

	// Census: identical outcomes pass the bit-identity check, a perturbed
	// one fails it, and a planted unicast outcome fails the map check.
	snap, release := se.st.Acquire()
	entries := snap.Entries()
	release()
	var outcomes []census.Outcome
	for _, ent := range entries {
		outcomes = append(outcomes, census.Outcome{Target: ent.Prefix.Host(1)})
	}
	batch := append([]census.Outcome(nil), outcomes...)
	if err := checkBitIdentity(outcomes, batch); err != nil {
		t.Fatalf("identical outcomes rejected: %v", err)
	}
	batch[0].Result.Iterations++
	rep.check(checkBitIdentity(outcomes, batch))
	if rep.failed != 1 {
		t.Error("perturbed outcome accepted by the bit-identity check")
	}
	rep.failed = 0
	planted := append(append([]census.Outcome(nil), outcomes...), census.Outcome{Target: unicast.Host(1)})
	_, precision := score(e.w, nil, planted)
	findings := analysis.Attribute(planted, e.table)
	rep.check(checkMap(se.st, planted, findings, census.CampaignHealth{}, 1, precision))
	if rep.failed != 1 {
		t.Error("planted unicast outcome accepted by the map check")
	}

	res := rep.result()
	if res.Correct || res.Failed != 1 {
		t.Errorf("failed check not counted: %+v", res)
	}
}

// compare refuses results measured on different machines or seeds.
func TestCompareRefusesDifferentFingerprints(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, fp fingerprint) string {
		b, _ := json.Marshal(record{Workload: "serve-dns", Seconds: 1, Fingerprint: fp,
			Result: &result{Correct: true, Attempted: 1, Metrics: map[string]metric{"op_p50_ms": {Value: 1, Unit: "ms"}}}})
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, b, 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	fp := machineFingerprint(1)
	a := write("a.json", fp)
	if err := compareFiles([]string{a, write("b.json", fp)}); err != nil {
		t.Fatalf("same fingerprint refused: %v", err)
	}
	other := fp
	other.NProc++
	if compareFiles([]string{a, write("c.json", other)}) == nil {
		t.Error("nproc mismatch compared")
	}
	other = fp
	other.Seed++
	if compareFiles([]string{a, write("d.json", other)}) == nil {
		t.Error("seed mismatch compared")
	}
}

// Self time subtracts child coverage once even when children overlap;
// unattributed time is the root's uncovered remainder.
func TestBreakdownSelfTime(t *testing.T) {
	tr := newTracer()
	tr.spans = []span{
		{ID: 1, Name: "bench.op", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "census.A", Start: 0, End: 60},
		{ID: 3, Parent: 1, Name: "census.B", Start: 50, End: 90},
		{ID: 4, Parent: 2, Name: "prober.C", Start: 10, End: 30},
	}
	b := tr.analyze(func(int) bool { return true })
	if got := b.unattributed / b.rootWall; got < 0.0999 || got > 0.1001 {
		t.Errorf("unattributed share %v, want 0.1", got)
	}
	if got := b.self["census"] * 1e9; got < 79.9 || got > 80.1 {
		t.Errorf("census self %v ns, want 80 (60-20 + 40)", got)
	}
	if got := b.self["prober"] * 1e9; got < 19.9 || got > 20.1 {
		t.Errorf("prober self %v ns, want 20", got)
	}
}
