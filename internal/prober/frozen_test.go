package prober

import (
	"testing"

	"anycastmap/internal/cities"
	"anycastmap/internal/netsim"
	"anycastmap/internal/platform"
	"anycastmap/internal/record"
)

// frozenHas reports membership through the frozen view's SkipMask.
func frozenHas(f *FrozenGreylist, ip netsim.IP) bool {
	return f.SkipMask([]netsim.IP{ip}) != nil
}

func TestFrozenGreylistMatchesMutable(t *testing.T) {
	g := NewGreylist()
	for i := 0; i < 5000; i += 3 {
		g.Add(netsim.IP(1<<24+i*977), netsim.ReplyAdminFiltered)
	}
	f := g.Freeze()
	if f.Len() != g.Len() {
		t.Fatalf("frozen Len %d != mutable Len %d", f.Len(), g.Len())
	}
	for i := 0; i < 5000; i++ {
		ip := netsim.IP(1<<24 + i*977)
		if frozenHas(f, ip) != g.Contains(ip) {
			t.Fatalf("frozen/mutable disagree on %v", ip)
		}
	}
	if g.Freeze() != f {
		t.Fatal("Freeze without mutation should return the cached view")
	}
	g.Add(netsim.IP(42), netsim.ReplyNetProhibited)
	f2 := g.Freeze()
	if f2 == f {
		t.Fatal("Add did not invalidate the frozen view")
	}
	if !frozenHas(f2, netsim.IP(42)) || frozenHas(f, netsim.IP(42)) {
		t.Fatal("new view must see the addition, old view must not")
	}

	other := NewGreylist()
	other.Add(netsim.IP(99), netsim.ReplyHostProhibited)
	g.Merge(other)
	if !frozenHas(g.Freeze(), netsim.IP(99)) {
		t.Fatal("Merge did not invalidate the frozen view")
	}

	var nilG *Greylist
	if frozenHas(nilG.Freeze(), netsim.IP(1)) {
		t.Fatal("nil greylist must freeze to an empty view")
	}
}

// TestFrozenGreylistSkipMask pins the span resolution the probing hot
// path relies on: bit i of the mask is set exactly when the mutable
// greylist holds targets[i], for ascending spans anywhere in the address
// range, spans that break order (reversed, duplicates, jumps back) and
// spans that miss the greylist entirely, which yield a nil mask.
func TestFrozenGreylistSkipMask(t *testing.T) {
	g := NewGreylist()
	for i := 0; i < 4000; i += 2 {
		g.Add(netsim.IP(1<<20+i*131), netsim.ReplyAdminFiltered)
	}
	f := g.Freeze()
	var all []netsim.IP
	for i := 0; i < 4000; i++ {
		all = append(all, netsim.IP(1<<20+i*131))
	}
	rev := make([]netsim.IP, len(all))
	for i, ip := range all {
		rev[len(all)-1-i] = ip
	}
	spans := map[string][]netsim.IP{
		"everything": all,
		"head":       all[:9],
		"middle":     all[1501:2700],
		"tail edge":  all[3998:],
		"single":     all[2:3],
		"reversed":   rev,
		"duplicates": {all[4], all[4], all[5], all[5], all[4]},
		"jump back":  append(append([]netsim.IP{}, all[3000:3100]...), all[10:200]...),
		"outside":    {netsim.IP(5), netsim.IP(9), netsim.IP(1 << 30)},
		"between":    {all[0] + 1, all[2] + 1, all[3000] + 7},
		"empty":      nil,
	}
	for name, span := range spans {
		mask := f.SkipMask(span)
		hits := 0
		for i, ip := range span {
			want := g.Contains(ip)
			if want {
				hits++
			}
			got := mask != nil && mask[i>>6]&(1<<(i&63)) != 0
			if got != want {
				t.Fatalf("%s span: bit %d (%v) = %v, greylist says %v", name, i, ip, got, want)
			}
		}
		if (mask == nil) != (hits == 0) {
			t.Fatalf("%s span: mask nil = %v with %d greylisted targets", name, mask == nil, hits)
		}
		if mask != nil && len(mask) != (len(span)+63)/64 {
			t.Fatalf("%s span: mask has %d words for %d targets", name, len(mask), len(span))
		}
	}
	var nilF *FrozenGreylist
	if nilF.SkipMask(all) != nil || NewGreylist().Freeze().SkipMask(all) != nil {
		t.Fatal("nil and empty views must mask nothing")
	}
}

// TestRunZeroAllocsPerProbe pins the acceptance criterion that the probing
// inner loop does not allocate per probe: the allocation count of a full
// run is a small constant independent of the target count.
func TestRunZeroAllocsPerProbe(t *testing.T) {
	cfg := netsim.DefaultConfig()
	cfg.Unicast24s = 3000
	w := netsim.New(cfg)
	vp := platform.PlanetLab(cities.Default()).VPs()[0]
	var targets []netsim.IP
	w.Prefixes(func(p netsim.Prefix24) {
		if ip, alive := w.Representative(p); alive {
			targets = append(targets, ip)
		}
	})
	skip, err := BuildBlacklist(w, vp, targets, Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	sink := func(record.Sample) {}

	runAllocs := func(lo, hi int) float64 {
		sub := targets[lo:hi]
		// Warm the session, the frozen view and the found-map buckets so
		// the measured passes only see steady-state work.
		if _, _, err := Run(w, vp, sub, skip, Config{Seed: 7, Round: 1}, sink); err != nil {
			t.Fatal(err)
		}
		return testing.AllocsPerRun(3, func() {
			if _, _, err := Run(w, vp, sub, skip, Config{Seed: 7, Round: 1}, sink); err != nil {
				t.Fatal(err)
			}
		})
	}

	small, large := runAllocs(0, len(targets)/4), runAllocs(0, len(targets))
	// A mid-list span exercises the span-session resolver's cursor
	// repositioning and the greylist merge walk under the same budget.
	mid := runAllocs(len(targets)/3, 2*len(targets)/3)
	// The per-run constant covers the stats, permutation, span-slab and
	// greylist objects; what it must NOT do is scale with the probe count.
	if large > small+8 {
		t.Fatalf("allocations scale with target count: %v allocs at n=%d vs %v at n=%d",
			small, len(targets)/4, large, len(targets))
	}
	if large > 24 {
		t.Fatalf("full run allocated %v times; the inner loop must be allocation-free", large)
	}
	if mid > 24 {
		t.Fatalf("mid-list span run allocated %v times; the span path must be allocation-free per probe", mid)
	}
}
