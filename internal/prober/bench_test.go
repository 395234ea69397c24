package prober

import (
	"sync"
	"testing"

	"anycastmap/internal/cities"
	"anycastmap/internal/detrand"
	"anycastmap/internal/netsim"
	"anycastmap/internal/platform"
	"anycastmap/internal/record"
)

var (
	pbOnce    sync.Once
	pbWorld   *netsim.World
	pbVP      platform.VP
	pbTargets []netsim.IP
	pbSkip    *Greylist
)

func pbSetup(b *testing.B) {
	b.Helper()
	pbOnce.Do(func() {
		cfg := netsim.DefaultConfig()
		cfg.Unicast24s = 8000
		pbWorld = netsim.New(cfg)
		pbVP = platform.PlanetLab(cities.Default()).VPs()[0]
		pbWorld.Prefixes(func(p netsim.Prefix24) {
			if ip, alive := pbWorld.Representative(p); alive {
				pbTargets = append(pbTargets, ip)
			}
		})
		// A realistic blacklist: the hosts that object to probing.
		skip, err := BuildBlacklist(pbWorld, pbVP, pbTargets, Config{Seed: 1})
		if err != nil {
			panic(err)
		}
		pbSkip = skip
	})
	b.ResetTimer()
}

// BenchmarkProberRun measures one full probing run (the census hot loop):
// LFSR walk, greylist check, probe, stats, sink. allocs/op divided by the
// target count is the per-probe allocation rate the acceptance criteria
// bound at zero.
func BenchmarkProberRun(b *testing.B) {
	pbSetup(b)
	b.ReportAllocs()
	sink := func(record.Sample) {}
	for i := 0; i < b.N; i++ {
		stats, _, err := Run(pbWorld, pbVP, pbTargets, pbSkip, Config{Seed: 7, Round: uint64(i%4 + 1)}, sink)
		if err != nil {
			b.Fatal(err)
		}
		if stats.Sent == 0 {
			b.Fatal("no probes sent")
		}
	}
	b.ReportMetric(float64(len(pbTargets)), "probes/op")
}

// BenchmarkProberRunChurn measures a patch-round run: RunIndexed over a
// span whose targets are ~95% greylisted, the shape of a census round
// that re-probes only the churned slice. ns/slot is the cost per
// permutation slot, skipped or sent, including the per-run greylist
// resolution and span-session set-up.
func BenchmarkProberRunChurn(b *testing.B) {
	pbSetup(b)
	churn := NewGreylist()
	churn.Merge(pbSkip)
	for _, ip := range pbTargets {
		if detrand.Hash64(1, uint64(ip), 0xC4)%1000 >= 50 {
			churn.Add(ip, netsim.ReplyTimeout)
		}
	}
	churn.Freeze()
	b.ReportAllocs()
	b.ResetTimer()
	sink := func(int, record.Sample) {}
	for i := 0; i < b.N; i++ {
		stats, _, err := RunIndexed(pbWorld, pbVP, pbTargets, churn, Config{Seed: 7, Round: uint64(i%4 + 1)}, sink)
		if err != nil {
			b.Fatal(err)
		}
		if stats.Sent == 0 || stats.Skipped == 0 {
			b.Fatal("churn run sent or skipped nothing")
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(pbTargets)), "ns/slot")
}
