package core

import (
	"math/rand"
	"testing"

	"anycastmap/internal/geo"
)

// shrinkable returns disks in a certified-unicast configuration: a tight
// witness disk around Frankfurt plus wide disks from distant VPs, all
// containing the witness center.
func unicastDisks() []geo.Disk {
	return disksOf(unicastScenario())
}

func anycastDisks() []geo.Disk {
	return disksOf(anycastScenario())
}

func TestDetectCertKinds(t *testing.T) {
	if c := DetectCert(unicastDisks(), nil, nil); c.Kind != CertUnicast {
		t.Fatalf("unicast scenario yielded certificate %+v", c)
	}
	if c := DetectCert(anycastDisks(), nil, nil); c.Kind != CertAnycast {
		t.Fatalf("anycast scenario yielded certificate %+v", c)
	}
	if c := DetectCert(nil, nil, nil); c.Kind != CertNone || c.Anycast() {
		t.Fatalf("empty input yielded certificate %+v", c)
	}
}

// TestCertUnicastInvalidatedByShrink: an improved min-RTT shrinks one
// non-witness disk until it excludes the cached witness center — the
// certificate must refuse to conclude, and the fresh pass must agree
// with the naive ground truth.
func TestCertUnicastInvalidatedByShrink(t *testing.T) {
	disks := unicastDisks()
	cert := DetectCert(disks, nil, nil)
	if cert.Kind != CertUnicast {
		t.Fatalf("expected unicast certificate, got %+v", cert)
	}
	// Sanity: the certificate revalidates against unchanged disks.
	if any, ok := cert.Revalidate(disks, nil, nil); !ok || any {
		t.Fatalf("certificate did not revalidate unchanged disks (anycast=%v ok=%v)", any, ok)
	}
	// Shrink a far VP's disk (Tokyo, index 3) to a sliver: the witness
	// center is no longer inside it.
	far := 3
	if far == cert.I {
		far = 4
	}
	disks[far].RadiusKm = 10
	if !disks[far].Contains(disks[cert.I].Center) {
		if _, ok := cert.Revalidate(disks, nil, nil); ok {
			t.Fatal("certificate revalidated after its witness was excluded")
		}
	} else {
		t.Fatal("shrink did not exclude the witness; test fixture broken")
	}
	// The fallback pass decides the new configuration; it must agree with
	// the naive pairwise check.
	fresh := DetectCert(disks, nil, nil)
	naive := false
	for i := range disks {
		for j := i + 1; j < len(disks); j++ {
			if !disks[i].Overlaps(disks[j]) {
				naive = true
			}
		}
	}
	if fresh.Anycast() != naive {
		t.Fatalf("fallback verdict %v, naive %v", fresh.Anycast(), naive)
	}
}

// TestCertUnicastBrokenByNewVP: a vantage point newly answering the
// target appends a measurement whose disk is disjoint from an existing
// one — the cached unicast bound cannot stand.
func TestCertUnicastBrokenByNewVP(t *testing.T) {
	disks := unicastDisks()
	cert := DetectCert(disks, nil, nil)
	if cert.Kind != CertUnicast {
		t.Fatalf("expected unicast certificate, got %+v", cert)
	}
	// A new VP in Auckland reports a tiny RTT: its disk is nowhere near
	// Frankfurt.
	akl := geo.Disk{Center: geo.Coord{Lat: -36.85, Lon: 174.76}, RadiusKm: 50}
	disks = append(disks, akl)
	if _, ok := cert.Revalidate(disks, nil, nil); ok {
		t.Fatal("unicast certificate survived a disjoint new-VP disk")
	}
	fresh := DetectCert(disks, nil, nil)
	if !fresh.Anycast() {
		t.Fatal("fresh detection missed the speed-of-light violation")
	}
	if any, ok := fresh.Revalidate(disks, nil, nil); !ok || !any {
		t.Fatalf("fresh anycast certificate did not revalidate (anycast=%v ok=%v)", any, ok)
	}
}

// TestCertAnycastSurvivesShrink: under a minimum-RTT combine disks only
// shrink, and a disjoint pair stays disjoint — the cached anycast
// certificate keeps deciding the target without a full scan.
func TestCertAnycastSurvivesShrink(t *testing.T) {
	disks := anycastDisks()
	cert := DetectCert(disks, nil, nil)
	if cert.Kind != CertAnycast {
		t.Fatalf("expected anycast certificate, got %+v", cert)
	}
	disks[cert.I].RadiusKm *= 0.7
	disks[cert.J].RadiusKm *= 0.9
	any, ok := cert.Revalidate(disks, nil, nil)
	if !ok || !any {
		t.Fatalf("anycast certificate did not survive shrink (anycast=%v ok=%v)", any, ok)
	}
	if fresh := DetectCert(disks, nil, nil); !fresh.Anycast() {
		t.Fatal("revalidation and fresh detection disagree")
	}
}

// TestCertAnycastInvalidatedByGrowth: growing a pair disk until the pair
// overlaps (only possible through the API, never under min-combine) must
// invalidate, not mis-certify.
func TestCertAnycastInvalidatedByGrowth(t *testing.T) {
	disks := anycastDisks()
	cert := DetectCert(disks, nil, nil)
	if cert.Kind != CertAnycast {
		t.Fatalf("expected anycast certificate, got %+v", cert)
	}
	disks[cert.I].RadiusKm = geo.MaxSurfaceDistanceKm
	if _, ok := cert.Revalidate(disks, nil, nil); ok {
		t.Fatal("anycast certificate survived overlapping pair")
	}
}

// TestCertOutOfRange: stale indices (e.g. from a shorter measurement
// sequence) must invalidate cleanly.
func TestCertOutOfRange(t *testing.T) {
	disks := unicastDisks()
	for _, c := range []Certificate{
		{Kind: CertUnicast, I: len(disks)},
		{Kind: CertUnicast, I: -1},
		{Kind: CertAnycast, I: 0, J: len(disks)},
		{Kind: CertAnycast, I: 2, J: 2},
		{},
	} {
		if _, ok := c.Revalidate(disks, nil, nil); ok {
			t.Fatalf("certificate %+v revalidated out-of-range input", c)
		}
	}
}

// TestRevalidateAgreesWithDetect is the bit-identity property the
// incremental analyzer rests on: whenever Revalidate is conclusive about
// a perturbed disk set, its verdict equals a from-scratch DetectCert.
func TestRevalidateAgreesWithDetect(t *testing.T) {
	r := rand.New(rand.NewSource(71))
	conclusive := 0
	for trial := 0; trial < 500; trial++ {
		disks := randomDisks(r, 2+r.Intn(24))
		cert := DetectCert(disks, nil, nil)
		// Perturb like a census round would: a few disks shrink,
		// occasionally one new VP appears.
		for i := range disks {
			if r.Intn(3) == 0 {
				disks[i].RadiusKm *= 0.5 + r.Float64()*0.5
			}
		}
		if r.Intn(4) == 0 {
			disks = append(disks, randomDisks(r, 1)...)
		}
		any, ok := cert.Revalidate(disks, nil, nil)
		if !ok {
			continue
		}
		conclusive++
		if fresh := DetectCert(disks, nil, nil); fresh.Anycast() != any {
			t.Fatalf("trial %d: revalidated verdict %v, fresh %v (cert %+v, disks %v)",
				trial, any, fresh.Anycast(), cert, disks)
		}
	}
	if conclusive == 0 {
		t.Fatal("no trial revalidated conclusively; property untested")
	}
}
