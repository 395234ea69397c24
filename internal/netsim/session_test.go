package netsim

import (
	"testing"

	"anycastmap/internal/cities"
	"anycastmap/internal/detrand"
	"anycastmap/internal/geo"
	"anycastmap/internal/platform"
)

// sessionTestWorlds builds two identically-configured small worlds, one
// with the probe cache and one forced down the uncached reference path.
func sessionTestWorlds(t testing.TB) (cached, uncached *World) {
	t.Helper()
	cfg := DefaultConfig()
	cfg.Unicast24s = 600
	cached = New(cfg)
	cfg.DisableProbeCache = true
	uncached = New(cfg)
	return cached, uncached
}

// sessionTestVPs mixes PlanetLab and RIPE vantage points: the two
// platforms assign overlapping ID ranges, so this doubles as a check that
// the session key keeps their caches apart.
func sessionTestVPs() []platform.VP {
	pl := platform.PlanetLab(cities.Default()).VPs()
	ripe := platform.RIPEAtlas(cities.Default()).VPs()
	vps := append([]platform.VP{}, pl[:6]...)
	return append(vps, ripe[:6]...)
}

// TestSessionCacheBitIdentical is the tentpole's contract: every probe
// reply - kind and RTT, anycast and unicast, ICMP, TCP and DNS - is
// bit-identical with the memoization on or off.
func TestSessionCacheBitIdentical(t *testing.T) {
	cached, uncached := sessionTestWorlds(t)
	vps := sessionTestVPs()

	var targets []IP
	cached.Prefixes(func(p Prefix24) {
		if ip, _ := cached.Representative(p); ip != 0 {
			targets = append(targets, ip)
		}
	})
	if len(targets) < 2000 {
		t.Fatalf("expected >2000 targets, got %d", len(targets))
	}

	for _, vp := range vps {
		probe := cached.ProbeSession(vp)
		for ti, target := range targets {
			for round := uint64(1); round <= 3; round++ {
				got, want := probe.ICMP(target, round), uncached.ProbeICMP(vp, target, round)
				if got != want {
					t.Fatalf("ICMP vp=%s target=%v round=%d: cached %+v, uncached %+v", vp.Name, target, round, got, want)
				}
				// TCP and DNS are cheaper to spot-check on a slice.
				if ti%7 == 0 {
					got, want = probe.TCP(target, 80, round), uncached.ProbeTCP(vp, target, 80, round)
					if got != want {
						t.Fatalf("TCP vp=%s target=%v round=%d: cached %+v, uncached %+v", vp.Name, target, round, got, want)
					}
					got, want = probe.DNSUDP(target, round), uncached.ProbeDNSUDP(vp, target, round)
					if got != want {
						t.Fatalf("DNS vp=%s target=%v round=%d: cached %+v, uncached %+v", vp.Name, target, round, got, want)
					}
				}
			}
		}
	}

	// Replica selection (the CHAOS/ground-truth path) agrees too.
	for _, vp := range vps[:4] {
		for _, d := range cached.Deployments() {
			for round := uint64(1); round <= 3; round++ {
				got, _ := cached.ServingReplica(vp, d.Prefix, round)
				want, _ := uncached.ServingReplica(vp, d.Prefix, round)
				if got.ID != want.ID || got.Loc != want.Loc {
					t.Fatalf("ServingReplica vp=%s prefix=%v round=%d: cached %v, uncached %v", vp.Name, d.Prefix, round, got.ID, want.ID)
				}
			}
		}
	}
}

// TestSessionCacheHijackBypass verifies the cache interplay with injected
// hijacks: hijacked prefixes take the live path (the hijack shows up even
// in a pre-warmed session), and clearing the hijack restores the original
// cached behavior.
func TestSessionCacheHijackBypass(t *testing.T) {
	cached, uncached := sessionTestWorlds(t)
	vps := sessionTestVPs()

	// Find a responsive unicast prefix.
	var prefix Prefix24
	var target IP
	cached.Prefixes(func(p Prefix24) {
		if prefix != 0 {
			return
		}
		if cached.IsAnycast(p) {
			return
		}
		ip, alive := cached.Representative(p)
		if alive && cached.ProbeICMP(vps[0], ip, 1).OK() { // warms the session pre-hijack
			prefix, target = p, ip
		}
	})
	if prefix == 0 {
		t.Fatal("no responsive unicast prefix found")
	}

	hijacker := geo.Coord{Lat: -33.9, Lon: 151.2} // far from most hosts
	for _, w := range []*World{cached, uncached} {
		if err := w.InjectHijack(prefix, hijacker, 1.0); err != nil {
			t.Fatal(err)
		}
	}
	for _, vp := range vps {
		for round := uint64(1); round <= 3; round++ {
			got, want := cached.ProbeICMP(vp, target, round), uncached.ProbeICMP(vp, target, round)
			if got != want {
				t.Fatalf("hijacked ICMP vp=%s round=%d: cached %+v, uncached %+v", vp.Name, round, got, want)
			}
		}
	}

	cached.ClearHijack(prefix)
	uncached.ClearHijack(prefix)
	for _, vp := range vps {
		got, want := cached.ProbeICMP(vp, target, 2), uncached.ProbeICMP(vp, target, 2)
		if got != want {
			t.Fatalf("post-clear ICMP vp=%s: cached %+v, uncached %+v", vp.Name, got, want)
		}
	}
}

// TestSessionSharedAcrossFaultViews checks that WithFaults views reuse the
// receiver's session table rather than rebuilding caches per view.
func TestSessionSharedAcrossFaultViews(t *testing.T) {
	cached, _ := sessionTestWorlds(t)
	vp := sessionTestVPs()[0]
	cached.ProbeSession(vp) // warm
	view := cached.WithFaults(nil)
	if view.sessions != cached.sessions {
		t.Fatal("WithFaults view does not share the session table")
	}
	if _, ok := view.sessions.m.Load(sessionKey{id: vp.ID, lat: vp.Loc.Lat, lon: vp.Loc.Lon}); !ok {
		t.Fatal("warmed session not visible through the fault view")
	}
}

// TestSpanSessionBitIdentical pins the span-resident hot path: a span
// session resolved over any window of the target list — every width, any
// alignment — answers bit-identically to the uncached reference path, for
// every reply kind the world produces (echo, the three greylistable
// errors, structural timeouts, anycast and unicast alike).
func TestSpanSessionBitIdentical(t *testing.T) {
	cached, uncached := sessionTestWorlds(t)
	vps := sessionTestVPs()

	var targets []IP
	cached.Prefixes(func(p Prefix24) {
		if ip, _ := cached.Representative(p); ip != 0 {
			targets = append(targets, ip)
		}
	})

	for _, width := range []int{1, 17, 256, len(targets)} {
		for _, vp := range vps {
			for lo := 0; lo < len(targets); lo += width {
				hi := lo + width
				if hi > len(targets) {
					hi = len(targets)
				}
				span := cached.ProbeSpanSession(vp, targets[lo:hi], nil)
				for i := lo; i < hi; i++ {
					for round := uint64(1); round <= 2; round++ {
						got, want := span.ICMP(i-lo, round), uncached.ProbeICMP(vp, targets[i], round)
						if got != want {
							t.Fatalf("span[%d:%d] vp=%s target=%v round=%d: span %+v, uncached %+v",
								lo, hi, vp.Name, targets[i], round, got, want)
						}
					}
				}
			}
		}
	}

	// The resolver's sequential cursor must survive arbitrary target
	// order (reversed spans break order at every step) and targets the
	// world never allocated.
	rev := make([]IP, 0, 512)
	for i := 400; i >= 0; i-- {
		rev = append(rev, targets[i])
	}
	rev = append(rev, IP(0xDF000001), targets[0], IP(0x01000001))
	span := cached.ProbeSpanSession(vps[0], rev, nil)
	for i, target := range rev {
		got, want := span.ICMP(i, 1), uncached.ProbeICMP(vps[0], target, 1)
		if got != want {
			t.Fatalf("reversed span i=%d target=%v: span %+v, uncached %+v", i, target, got, want)
		}
	}

	// With the probe cache disabled the span session must degrade to the
	// reference path, not to stale slabs.
	slow := uncached.ProbeSpanSession(vps[1], targets[:64], nil)
	for i := range targets[:64] {
		got, want := slow.ICMP(i, 3), uncached.ProbeICMP(vps[1], targets[i], 3)
		if got != want {
			t.Fatalf("nocache span i=%d: span %+v, reference %+v", i, got, want)
		}
	}
}

// TestSpanSessionMaskMatchesUnmasked pins the skip mask's contract: a
// session resolved with ~95% of its span masked answers every unmasked
// index exactly as the nil-mask session does, on an ascending span and on
// one that breaks order at every step, and masked indices answer as
// timeouts.
func TestSpanSessionMaskMatchesUnmasked(t *testing.T) {
	cached, _ := sessionTestWorlds(t)
	vps := sessionTestVPs()

	var targets []IP
	cached.Prefixes(func(p Prefix24) {
		if ip, _ := cached.Representative(p); ip != 0 {
			targets = append(targets, ip)
		}
	})
	rev := make([]IP, 0, len(targets)+3)
	for i := len(targets) - 1; i >= 0; i-- {
		rev = append(rev, targets[i])
	}
	rev = append(rev, IP(0xDF000001), targets[0], IP(0x01000001))

	for name, span := range map[string][]IP{"ascending": targets, "order-break": rev} {
		mask := make([]uint64, (len(span)+63)/64)
		for i := range span {
			if detrand.Hash64(uint64(i), 0xC4)%20 != 0 {
				mask[i>>6] |= 1 << (i & 63)
			}
		}
		for _, vp := range vps {
			masked := cached.ProbeSpanSession(vp, span, mask)
			full := cached.ProbeSpanSession(vp, span, nil)
			for i := range span {
				for round := uint64(1); round <= 2; round++ {
					got := masked.ICMP(i, round)
					want := full.ICMP(i, round)
					if mask[i>>6]&(1<<(i&63)) != 0 {
						want = Reply{Kind: ReplyTimeout}
					}
					if got != want {
						t.Fatalf("%s span vp=%s i=%d round=%d: masked %+v, want %+v", name, vp.Name, i, round, got, want)
					}
				}
			}
		}
	}
}

// TestSpanSessionHijackBypass checks that a span resolved after a hijack
// injection routes the hijacked prefix down the live per-probe path, and
// that clearing the hijack restores fast-path behavior in later spans.
func TestSpanSessionHijackBypass(t *testing.T) {
	cached, uncached := sessionTestWorlds(t)
	vps := sessionTestVPs()

	var prefix Prefix24
	var target IP
	cached.Prefixes(func(p Prefix24) {
		if prefix != 0 || cached.IsAnycast(p) {
			return
		}
		if ip, alive := cached.Representative(p); alive && cached.ProbeICMP(vps[0], ip, 1).OK() {
			prefix, target = p, ip
		}
	})
	if prefix == 0 {
		t.Fatal("no responsive unicast prefix found")
	}

	hijacker := geo.Coord{Lat: -33.9, Lon: 151.2}
	for _, w := range []*World{cached, uncached} {
		if err := w.InjectHijack(prefix, hijacker, 1.0); err != nil {
			t.Fatal(err)
		}
	}
	for _, vp := range vps {
		span := cached.ProbeSpanSession(vp, []IP{target}, nil)
		for round := uint64(1); round <= 3; round++ {
			got, want := span.ICMP(0, round), uncached.ProbeICMP(vp, target, round)
			if got != want {
				t.Fatalf("hijacked span vp=%s round=%d: span %+v, uncached %+v", vp.Name, round, got, want)
			}
		}
	}

	cached.ClearHijack(prefix)
	uncached.ClearHijack(prefix)
	for _, vp := range vps {
		span := cached.ProbeSpanSession(vp, []IP{target}, nil)
		got, want := span.ICMP(0, 2), uncached.ProbeICMP(vp, target, 2)
		if got != want {
			t.Fatalf("post-clear span vp=%s: span %+v, uncached %+v", vp.Name, got, want)
		}
	}
}
