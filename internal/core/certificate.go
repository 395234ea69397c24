package core

import (
	"slices"

	"anycastmap/internal/geo"
)

// Detection reduces to a single small certificate (Cicalese et al.,
// INFOCOM 2015): either one point provably inside every disk (no
// speed-of-light violation is possible — unicast), or one disjoint disk
// pair (a violation — anycast). Successive censuses mostly shrink a few
// disks of a few targets, so the certificate from the previous analysis
// usually still decides the target: Revalidate re-checks it in O(n)
// without sorting, and only targets whose certificate broke pay the full
// DetectCert pass again. The incremental census analyzer
// (internal/census/analyzer.go) caches one Certificate per target.

// CertKind classifies a detection certificate.
type CertKind uint8

const (
	// CertNone is the zero value: no certificate is known. Borderline
	// unicast targets (no containment witness, no disjoint pair) always
	// end up here and pay the full pairwise scan.
	CertNone CertKind = iota
	// CertUnicast records a witness disk whose center lies inside every
	// disk, certifying that all disks pairwise overlap.
	CertUnicast
	// CertAnycast records a proven disjoint disk pair.
	CertAnycast
)

// Certificate is the cached outcome of one detection pass over one
// target's disks. Indices are positions in the disks slice the
// certificate was extracted from; callers caching certificates across
// rounds must remap them if measurement positions shift (the census
// analyzer stores vantage-point slots and remaps).
type Certificate struct {
	Kind CertKind
	// I is the witness disk for CertUnicast, or the first disk of the
	// disjoint pair for CertAnycast.
	I int
	// J is the second disk of the disjoint pair (CertAnycast only).
	J int
}

// Anycast reports whether the certificate proves the target anycast.
func (c Certificate) Anycast() bool { return c.Kind == CertAnycast }

// DetectCert runs the detection pass over the disks and returns its
// certificate. The verdict is exactly Detect's: CertAnycast means proven
// anycast, anything else means no violation was found. The comparisons
// spell out Disk.Contains and Disk.Overlaps (same epsilon, same
// association) so the VPMatrix and the live haversine path are
// interchangeable bit for bit. With a non-nil m, slots[i] is the vantage
// point disk i is centred at; with m nil, slots is ignored.
func DetectCert(disks []geo.Disk, m *VPMatrix, slots []int) Certificate {
	n := len(disks)
	if n < 2 {
		return Certificate{}
	}
	c := centres{disks: disks, m: m, slots: slots}
	// Early-exit unicast rejection: when one radius is strictly the
	// smallest, it is the first candidate the sort below would yield under
	// any tie resolution, so certifying it up front skips the O(n log n)
	// sort (and its allocations) for the overwhelmingly common
	// certified-unicast target.
	minI, ties := 0, 0
	for i := 1; i < n; i++ {
		switch r := disks[i].RadiusKm; {
		case r < disks[minI].RadiusKm:
			minI, ties = i, 0
		case r == disks[minI].RadiusKm:
			ties++
		}
	}
	strictMin := ties == 0
	if strictMin && c.contained(minI) {
		return Certificate{Kind: CertUnicast, I: minI}
	}
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	slices.SortFunc(order, byRadius(disks))
	// Candidate certificate points: centers of the three smallest disks.
	// A point contained in every disk certifies pairwise overlap.
	for _, ci := range order[:min(3, n)] {
		if strictMin && ci == minI {
			continue // already tried (and failed) above
		}
		if c.contained(ci) {
			return Certificate{Kind: CertUnicast, I: ci}
		}
	}
	// Pairwise scan ordered by radius: small disks are the most likely to
	// be disjoint, so true anycast exits early. A pair can only be
	// disjoint when its centre distance exceeds the radius sum, and no
	// centre distance exceeds bound: the ceiling of DistanceKm, or the
	// distance from disk i's vantage point to the farthest other one. The
	// sum only grows along the radius order, so the first pair reaching
	// the bound ends disk i's row, and reaching the ceiling on the
	// row's first pair ends every later row too. Only pairs that cannot
	// be disjoint are skipped, so the first disjoint pair is the one an
	// unpruned scan finds.
	for a := 0; a < n-1; a++ {
		i := order[a]
		ri := disks[i].RadiusKm
		bound := geo.MaxDistanceKm
		var row []float64
		if m != nil {
			row = m.row(slots[i])
			bound = min(bound, m.far[slots[i]])
		}
		for b := a + 1; b < n; b++ {
			j := order[b]
			sum := ri + disks[j].RadiusKm + 1e-9
			if sum >= bound {
				if b == a+1 && sum >= geo.MaxDistanceKm {
					return Certificate{}
				}
				break
			}
			var d float64
			if row != nil {
				d = row[slots[j]]
			} else {
				d = geo.DistanceKm(disks[i].Center, disks[j].Center)
			}
			if d > sum { // !Overlaps
				return Certificate{Kind: CertAnycast, I: i, J: j}
			}
		}
	}
	return Certificate{}
}

// Revalidate re-checks a certificate extracted from a previous analysis of
// the same target against the current disks, in O(n) and without sorting.
// When ok is true the verdict (anycast) is exactly what DetectCert would
// conclude from scratch on these disks; ok false means the certificate no
// longer decides the target and the caller must fall back to DetectCert.
//
// Under a minimum-RTT combine, disks only ever shrink: a disjoint pair
// stays disjoint (CertAnycast mostly revalidates) while containment can
// break (a shrunken disk may exclude the witness). Both paths are written
// to be conclusive only when they provably agree with the full pass:
//
//   - CertUnicast: the witness must still be guaranteed among the three
//     smallest-radius candidates under any sort tie resolution, and its
//     center must still lie in every disk.
//   - CertAnycast: the pair must still be disjoint, and no disk that
//     could rank among the three smallest may certify containment —
//     DetectCert believes a containment witness over any disjoint pair,
//     so a surviving pair alone is not enough in the (epsilon-window)
//     corner where both exist.
//
// m and slots are DetectCert's.
func (c Certificate) Revalidate(disks []geo.Disk, m *VPMatrix, slots []int) (anycast, ok bool) {
	n := len(disks)
	if n < 2 {
		return false, false
	}
	cs := centres{disks: disks, m: m, slots: slots}
	switch c.Kind {
	case CertUnicast:
		w := c.I
		if w < 0 || w >= n {
			return false, false
		}
		// Still guaranteed in the top-3 candidate set: at most two other
		// disks may sort before it under any tie resolution.
		ahead := 0
		for i := range disks {
			if i != w && disks[i].RadiusKm <= disks[w].RadiusKm {
				ahead++
				if ahead > 2 {
					return false, false
				}
			}
		}
		if !cs.contained(w) {
			return false, false
		}
		return false, true
	case CertAnycast:
		i, j := c.I, c.J
		if i < 0 || j < 0 || i >= n || j >= n || i == j {
			return false, false
		}
		if cs.dist(i, j) <= disks[i].RadiusKm+disks[j].RadiusKm+1e-9 { // Overlaps
			return false, false
		}
		// The pair is disjoint, so DetectCert's pairwise scan would find a
		// violation — unless its candidate phase certifies first. Check
		// every disk that could rank among the three smallest under some
		// tie resolution (radius ≤ third-smallest value).
		r3 := thirdSmallestRadius(disks)
		for k := range disks {
			if disks[k].RadiusKm > r3 {
				continue
			}
			if cs.contained(k) {
				return false, false // witness and pair coexist: inconclusive
			}
		}
		return true, true
	}
	return false, false
}

// thirdSmallestRadius returns the third order statistic (with
// multiplicity) of the disk radii, or +Inf when there are fewer than
// three disks (every disk is then a candidate).
func thirdSmallestRadius(disks []geo.Disk) float64 {
	const inf = 1e308
	m1, m2, m3 := inf, inf, inf
	for i := range disks {
		switch r := disks[i].RadiusKm; {
		case r < m1:
			m1, m2, m3 = r, m1, m2
		case r < m2:
			m2, m3 = r, m2
		case r < m3:
			m3 = r
		}
	}
	return m3
}

// AppendDisks appends each measurement's constraint disk to buf and
// returns the extended slice, letting hot-path callers reuse one scratch
// buffer across targets.
func AppendDisks(buf []geo.Disk, ms []Measurement) []geo.Disk {
	for _, m := range ms {
		buf = append(buf, m.Disk())
	}
	return buf
}
