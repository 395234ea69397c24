package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"time"

	"anycastmap/internal/analysis"
	"anycastmap/internal/bgp"
	"anycastmap/internal/census"
	"anycastmap/internal/cities"
	"anycastmap/internal/core"
	"anycastmap/internal/detrand"
	"anycastmap/internal/experiments"
	"anycastmap/internal/hitlist"
	"anycastmap/internal/netsim"
	"anycastmap/internal/platform"
	"anycastmap/internal/prober"
	"anycastmap/internal/store"
)

// Fidelity floors for the census output check: a published map whose
// detection falls below either is a failed output. The simulator plants
// anycast /24s whose replicas sit too close together for any VP sample to
// separate (the paper's conservative lower bound), so recall is well
// below 1 by design; precision is not.
const (
	minRecall    = 0.5
	minPrecision = 0.95
)

// env is one generated world and the fixed data derived from it.
type env struct {
	seed  uint64
	w     *netsim.World
	db    *cities.DB
	pl    *platform.Platform
	table *bgp.Table
	full  *hitlist.Hitlist
}

// setupWorld builds the world opt.scale.setupRepeats times (set-up time is
// reported as a median) and returns the last build with the median.
func setupWorld(opt options, rep *report, unicast24s int) (*env, float64) {
	var walls, worldBuilds []float64
	var e *env
	for i := 0; i < max(opt.scale.setupRepeats, 1); i++ {
		rep.tr.setRun(-1)
		root := rep.tr.start("bench.setup", 0)
		t0 := time.Now()
		cfg := netsim.DefaultConfig()
		cfg.Seed = opt.seed
		cfg.Unicast24s = unicast24s
		e = &env{seed: opt.seed}
		rep.tr.call("netsim.New", root, func() { e.w = netsim.New(cfg) })
		worldBuilds = append(worldBuilds, time.Since(t0).Seconds())
		rep.tr.call("cities.Default", root, func() { e.db = cities.Default() })
		rep.tr.call("platform.PlanetLab", root, func() { e.pl = platform.PlanetLab(e.db) })
		rep.tr.call("bgp.FromWorld", root, func() { e.table = bgp.FromWorld(e.w) })
		rep.tr.call("hitlist.FromWorld", root, func() { e.full = hitlist.FromWorld(e.w) })
		rep.tr.end(root)
		walls = append(walls, time.Since(t0).Seconds())
	}
	rep.set("netsim.world_build_s", median(worldBuilds))
	return e, median(walls)
}

// blacklistAndTargets is the preliminary single-VP census (Sec. 3.3) and
// the target list it prunes.
func (e *env) blacklistAndTargets(tr *tracer, parent int) (*prober.Greylist, *hitlist.Hitlist, error) {
	var black *prober.Greylist
	var err error
	tr.call("prober.BuildBlacklist", parent, func() {
		black, err = prober.BuildBlacklist(e.w, e.pl.VPs()[0], e.full.Targets(), prober.Config{Seed: e.seed})
	})
	if err != nil {
		return nil, nil, fmt.Errorf("blacklist census: %w", err)
	}
	var blocked map[netsim.IP]bool
	tr.call("prober.Greylist.Targets", parent, func() { blocked = black.Targets() })
	var pruned, targets *hitlist.Hitlist
	tr.call("hitlist.PruneNeverAlive", parent, func() { pruned = e.full.PruneNeverAlive() })
	tr.call("hitlist.Without", parent, func() { targets = pruned.Without(blocked) })
	return black, targets, nil
}

// publish is the tail every census shares: attribute, build the snapshot,
// persist it, reopen it mmap-backed and publish it (store.Refresher with
// a SnapshotPath).
func (e *env) publish(tr *tracer, parent int, outcomes []census.Outcome, round uint64, rounds int, health census.CampaignHealth, path string, st *store.Store) ([]analysis.Finding, error) {
	var findings []analysis.Finding
	tr.call("analysis.Attribute", parent, func() { findings = analysis.Attribute(outcomes, e.table) })
	var snap *store.Snapshot
	tr.call("store.NewSnapshot", parent, func() {
		snap = store.NewSnapshot(findings, e.w.Registry, round, rounds)
		snap.SetHealth(health)
	})
	var err error
	tr.call("store.SaveSnapshotFile", parent, func() { err = store.SaveSnapshotFile(path, snap) })
	if err != nil {
		return nil, fmt.Errorf("persist snapshot: %w", err)
	}
	var mapped *store.Snapshot
	tr.call("store.OpenSnapshotFile", parent, func() { mapped, err = store.OpenSnapshotFile(path) })
	if err != nil {
		return nil, fmt.Errorf("open snapshot: %w", err)
	}
	tr.call("store.Publish", parent, func() { st.Publish(mapped) })
	return findings, nil
}

// score rates detected anycast /24s against the world's ground truth.
// Recall counts the planted anycast /24s present in the target list.
func score(w *netsim.World, targets []netsim.IP, outcomes []census.Outcome) (recall, precision float64) {
	planted := 0
	for _, t := range targets {
		if w.IsAnycast(t.Prefix()) {
			planted++
		}
	}
	tp := 0
	for _, o := range outcomes {
		if w.IsAnycast(o.Prefix()) {
			tp++
		}
	}
	if planted > 0 {
		recall = float64(tp) / float64(planted)
	}
	if len(outcomes) > 0 {
		precision = float64(tp) / float64(len(outcomes))
	}
	return recall, precision
}

// checkMap is the census output check: the live snapshot holds exactly
// the attributed findings, the findings cover the outcomes, every VP
// finished its rounds, and detection meets the fidelity floors.
func checkMap(st *store.Store, outcomes []census.Outcome, findings []analysis.Finding, health census.CampaignHealth, recall, precision float64) error {
	if health.Degraded() {
		return fmt.Errorf("campaign quarantined %d VP(s): %s", len(health.Quarantined), health)
	}
	if len(findings) != len(outcomes) {
		return fmt.Errorf("%d outcomes attributed to %d findings", len(outcomes), len(findings))
	}
	snap, release := st.Acquire()
	defer release()
	if snap == nil {
		return errors.New("no snapshot published")
	}
	if snap.Len() != len(findings) {
		return fmt.Errorf("live snapshot has %d prefixes, census found %d", snap.Len(), len(findings))
	}
	for _, f := range findings {
		ent, ok := snap.LookupPrefix(f.Prefix)
		if !ok || ent.ASN != f.ASN {
			return fmt.Errorf("finding %v (AS%d) not served by the live snapshot", f.Prefix, f.ASN)
		}
	}
	if recall < minRecall || precision < minPrecision {
		return fmt.Errorf("fidelity below floor: recall %.3f (min %.2f), precision %.3f (min %.2f)",
			recall, minRecall, precision, minPrecision)
	}
	return nil
}

// opSample is what one timed census operation reports.
type opSample struct {
	wall              float64
	recall, precision float64
	peakMiB           float64
	traced            bool
	// Per-layer counts, read outside the timed section.
	probesSent, spanBusy float64
	roundProbes, slots   float64
	certHits, analyzed   float64
	fullScans, dirty     float64
	snapshotBytes        float64
	gc                   gcStats
}

// opLoop runs timed operations: exactly fixedOps of them when fixedOps is
// positive, else until opt.seconds have passed. Each operation calls done
// at the point its user-visible result exists (the snapshot is
// published); its output checks run after that, untimed. In a traced run
// operations alternate untraced and traced, so one run yields both the
// per-layer figures and trace_overhead; at least one of each runs.
func opLoop(opt options, rep *report, fixedOps int, op func(i int, tr *tracer, root int, done func()) (opSample, error)) []opSample {
	heap := startHeapSampler()
	defer heap.close()
	var out []opSample
	start := time.Now()
	for i := 0; fixedOps == 0 || i < fixedOps; i++ {
		traced := opt.trace && i%2 == 1
		var tr *tracer
		if traced {
			tr = rep.tr
		}
		runtime.GC()
		heap.reset()
		gc0, busy0, sent0 := readGC(), probeSpanSeconds(), prober.DefaultMetrics.ProbesSent.Load()
		tr.setRun(i)
		var tEnd time.Time
		var peak float64
		t0 := time.Now()
		root := tr.start("bench.op", 0)
		done := func() {
			tEnd = time.Now()
			tr.end(root)
			peak = heap.peakMiB()
		}
		s, err := op(i, tr, root, done)
		if tEnd.IsZero() {
			done()
		}
		s.wall = tEnd.Sub(t0).Seconds()
		s.peakMiB = peak
		gc1 := readGC()
		s.gc = gcStats{cycles: gc1.cycles - gc0.cycles, pauseNs: gc1.pauseNs - gc0.pauseNs}
		s.spanBusy = probeSpanSeconds() - busy0
		s.probesSent = float64(prober.DefaultMetrics.ProbesSent.Load() - sent0)
		s.traced = traced
		rep.check(err)
		fmt.Fprintf(os.Stderr, "e2ebench: op %d %.3fs traced=%v\n", i, s.wall, traced)
		out = append(out, s)
		if fixedOps == 0 && time.Since(start).Seconds() >= opt.seconds && (!opt.trace || len(out) >= 2) {
			break
		}
	}
	return out
}

// reportOps turns the operation samples into metrics. Untraced: the
// end-to-end figures over every operation. Traced: the per-layer figures
// over the traced operations, and trace_overhead from both kinds.
func reportOps(rep *report, ops []opSample) {
	var walls, heaps, recalls, precisions []float64
	var tracedWalls, plainWalls []float64
	traced := map[int]bool{}
	var tsum opSample
	nt := 0
	for i, s := range ops {
		walls = append(walls, s.wall)
		heaps = append(heaps, s.peakMiB)
		recalls = append(recalls, s.recall)
		precisions = append(precisions, s.precision)
		if !s.traced {
			plainWalls = append(plainWalls, s.wall)
			continue
		}
		traced[i] = true
		nt++
		tracedWalls = append(tracedWalls, s.wall)
		tsum.probesSent += s.probesSent
		tsum.spanBusy += s.spanBusy
		tsum.roundProbes += s.roundProbes
		tsum.slots += s.slots
		tsum.certHits += s.certHits
		tsum.analyzed += s.analyzed
		tsum.fullScans += s.fullScans
		tsum.dirty += s.dirty
		tsum.snapshotBytes += s.snapshotBytes
		tsum.gc.cycles += s.gc.cycles
		tsum.gc.pauseNs += s.gc.pauseNs
	}
	total := 0.0
	for _, w := range walls {
		total += w
	}
	rep.set("op_p50_ms", median(walls)*1e3)
	rep.set("ops_per_s", float64(len(walls))/total)
	rep.set("peak_heap_mib", median(heaps))
	rep.set("anycast_recall", median(recalls))
	rep.set("anycast_precision", median(precisions))
	if nt == 0 {
		return
	}
	n := float64(nt)
	rep.setBreakdown(rep.tr.analyze(func(run int) bool { return traced[run] }), nt)
	rep.set("prober.probes_sent", tsum.probesSent/n)
	rep.set("prober.span_busy_s", tsum.spanBusy/n)
	if tsum.slots > 0 {
		rep.set("census.probe_yield", tsum.roundProbes/tsum.slots)
	}
	if tsum.analyzed > 0 {
		rep.set("census.cert_hit_rate", tsum.certHits/tsum.analyzed)
	}
	rep.set("census.full_scans", tsum.fullScans/n)
	rep.set("census.dirty_targets", tsum.dirty/n)
	rep.set("store.snapshot_bytes", tsum.snapshotBytes/n)
	rep.set("runtime.gc_cycles", float64(tsum.gc.cycles)/n)
	rep.set("runtime.gc_pause_s", float64(tsum.gc.pauseNs)/1e9/n)
	if len(plainWalls) > 0 {
		rep.set("trace_overhead", median(tracedWalls)/median(plainWalls)-1)
	}
}

func fileSize(path string) float64 {
	fi, err := os.Stat(path)
	if err != nil {
		return 0
	}
	return float64(fi.Size())
}

// snapshotPath is where census operations persist their snapshot.
func snapshotPath(opt options) string {
	return filepath.Join(opt.outDir, fmt.Sprintf("%s-seed%d.snap", opt.workload, opt.seed))
}

// runCensusFull times cold censuses: blacklist, two pipelined rounds with
// fresh VP samples, batch analysis and the publish tail — what
// store.CensusSource.Build and the refresher do for a new map. Every
// operation runs the same census of the seed (the same VP samples and
// round numbers), so however many fit in the run, each commit times the
// same inputs. Set-up runs the census once untimed: the first census of a
// world also builds the simulator's per-VP probe sessions, and is counted
// in setup_s rather than in the operations.
func runCensusFull(opt options, rep *report) error {
	e, setup := setupWorld(opt, rep, opt.scale.unicast24s)
	if err := os.MkdirAll(opt.outDir, 0o755); err != nil {
		return err
	}
	path := snapshotPath(opt)
	defer os.Remove(path)
	st := store.New(store.Options{})
	rounds := max(opt.scale.rounds, 1)
	censusOp := func(tr *tracer, root int, done func()) (opSample, error) {
		var s opSample
		black, targets, err := e.blacklistAndTargets(tr, root)
		if err != nil {
			return s, err
		}
		var cp *census.Campaign
		tr.call("census.NewCampaign", root, func() {
			cp = census.NewCampaign(census.CampaignConfig{Census: census.Config{Seed: e.seed}})
		})
		for r := 0; r < rounds; r++ {
			round := uint64(r + 1)
			var vps []platform.VP
			tr.call("platform.Sample", root, func() { vps = e.pl.Sample(opt.scale.vpsPerRound, e.seed+round) })
			var sum census.RoundSummary
			tr.call("census.ExecuteRoundPipelined", root, func() {
				sum, err = cp.ExecuteRoundPipelined(context.Background(), e.w, vps, targets, black, round, census.PipelineConfig{})
			})
			if err != nil {
				return s, fmt.Errorf("census round %d: %w", round, err)
			}
			s.roundProbes += float64(sum.Probes)
			s.slots += float64(targets.Len() * len(vps))
		}
		var outcomes []census.Outcome
		tr.call("census.AnalyzeAll", root, func() {
			outcomes = census.AnalyzeAll(e.db, cp.Combined(), core.Options{}, 2, 0)
		})
		findings, err := e.publish(tr, root, outcomes, uint64(rounds), rounds, cp.Health(), path, st)
		done()
		if err != nil {
			return s, err
		}
		s.recall, s.precision = score(e.w, targets.Targets(), outcomes)
		if tr != nil {
			s.snapshotBytes = fileSize(path)
		}
		return s, checkMap(st, outcomes, findings, cp.Health(), s.recall, s.precision)
	}
	t0 := time.Now()
	_, err := censusOp(nil, 0, func() {})
	rep.set("setup_s", setup+time.Since(t0).Seconds())
	rep.check(err)
	ops := opLoop(opt, rep, 0, func(_ int, tr *tracer, root int, done func()) (opSample, error) {
		return censusOp(tr, root, done)
	})
	reportOps(rep, ops)
	return nil
}

// churnGreylist is a census-patch round's greylist: the base blacklist
// plus every target outside the round's deterministic churn slice
// (experiments.LongitudinalChurnPerMil per mil of the targets), so the
// round re-probes only the /24s that plausibly changed (Sec. 3.2).
func churnGreylist(seed uint64, round uint64, black *prober.Greylist, targets []netsim.IP) *prober.Greylist {
	g := prober.NewGreylist()
	g.Merge(black)
	for _, t := range targets {
		if detrand.Hash64(seed, 60+round, uint64(t), 0xC4)%1000 >= experiments.LongitudinalChurnPerMil {
			g.Add(t, netsim.ReplyTimeout)
		}
	}
	g.Freeze()
	return g
}

// runCensusPatch times patch refreshes over one base census: each round
// re-probes only the churn slice with the base VP sample, re-analyzes the
// dirty targets incrementally and publishes. The number of rounds depends
// on the run length only (scale.patchRoundS), so every commit times the
// same rounds, not as many as fit. After the timed loop the
// incremental outcomes must deep-equal a batch AnalyzeAll of the same
// combined matrix (the bit-identity contract).
func runCensusPatch(opt options, rep *report) error {
	e, worldSetup := setupWorld(opt, rep, opt.scale.unicast24s)
	if err := os.MkdirAll(opt.outDir, 0o755); err != nil {
		return err
	}
	path := snapshotPath(opt)
	defer os.Remove(path)
	st := store.New(store.Options{})

	t0 := time.Now()
	black, targets, err := e.blacklistAndTargets(nil, 0)
	if err != nil {
		return err
	}
	sample := e.pl.Sample(opt.scale.vpsPerRound, e.seed+200)
	cp := census.NewCampaign(census.CampaignConfig{Census: census.Config{Seed: e.seed}})
	an := census.NewAnalyzer(e.db, census.AnalyzerConfig{})
	cp.AttachAnalyzer(an)
	if _, err := cp.ExecuteRoundPipelined(context.Background(), e.w, sample, targets, black, 1, census.PipelineConfig{}); err != nil {
		return fmt.Errorf("base census: %w", err)
	}
	cp.AnalyzeDirty()
	if _, err := e.publish(nil, 0, cp.Outcomes(), 1, 1, cp.Health(), path, st); err != nil {
		return err
	}
	greys := make([]*prober.Greylist, max(int(math.Ceil(opt.seconds/opt.scale.patchRoundS)), 2))
	for i := range greys {
		greys[i] = churnGreylist(e.seed, uint64(i+2), black, targets.Targets())
	}
	rep.set("setup_s", worldSetup+time.Since(t0).Seconds())

	ops := opLoop(opt, rep, len(greys), func(i int, tr *tracer, root int, done func()) (opSample, error) {
		var s opSample
		round := uint64(i + 2)
		before := an.Stats()
		var sum census.RoundSummary
		var err error
		tr.call("census.ExecuteRoundPipelined", root, func() {
			sum, err = cp.ExecuteRoundPipelined(context.Background(), e.w, sample, targets, greys[i], round, census.PipelineConfig{})
		})
		if err != nil {
			return s, fmt.Errorf("patch round %d: %w", round, err)
		}
		var dirty int
		tr.call("census.AnalyzeDirty", root, func() { dirty = cp.AnalyzeDirty() })
		var outcomes []census.Outcome
		tr.call("census.Campaign.Outcomes", root, func() { outcomes = cp.Outcomes() })
		findings, err := e.publish(tr, root, outcomes, round, int(round), cp.Health(), path, st)
		done()
		if err != nil {
			return s, err
		}
		after := an.Stats()
		s.roundProbes = float64(sum.Probes)
		s.slots = float64(targets.Len() * len(sample))
		s.dirty = float64(dirty)
		s.analyzed = float64(after.Analyzed - before.Analyzed)
		s.certHits = float64(after.CertHits - before.CertHits)
		s.fullScans = float64(after.FullScans - before.FullScans)
		s.recall, s.precision = score(e.w, targets.Targets(), outcomes)
		if tr != nil {
			s.snapshotBytes = fileSize(path)
		}
		return s, checkMap(st, outcomes, findings, cp.Health(), s.recall, s.precision)
	})
	reportOps(rep, ops)

	batch := census.AnalyzeAll(e.db, cp.Combined(), core.Options{}, 2, 0)
	rep.check(checkBitIdentity(cp.Outcomes(), batch))
	return nil
}

// checkBitIdentity is the incremental engine's contract: its outcomes
// equal batch analysis of the same combined matrix exactly.
func checkBitIdentity(incremental, batch []census.Outcome) error {
	if !reflect.DeepEqual(incremental, batch) {
		return fmt.Errorf("incremental outcomes (%d anycast /24s) diverge from batch AnalyzeAll (%d)", len(incremental), len(batch))
	}
	return nil
}
