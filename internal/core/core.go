// Package core implements the paper's primary analysis technique
// (Fig. 3; Cicalese et al., "A fistful of pings", INFOCOM 2015, applied at
// census scale in the CoNEXT 2015 paper this repository reproduces):
// latency-based anycast detection, enumeration and geolocation.
//
// Given RTT samples from geographically dispersed vantage points toward one
// target address:
//
//  1. each sample is mapped to a disk centred at the vantage point whose
//     radius is the distance light travels in fiber in RTT/2 — the answering
//     replica provably lies inside the disk;
//  2. two disjoint disks are a speed-of-light violation, proving the target
//     is announced from at least two locations (detection);
//  3. a Maximum Independent Set over the disk intersection graph
//     lower-bounds the number of replicas; the NP-hard MIS is approximated
//     greedily over disks of increasing radius, a 5-approximation for unit
//     ball graphs (enumeration);
//  4. each independent disk is classified to the most populated city it
//     contains — the maximum-likelihood classifier with population bias
//     that the paper found ~75% accurate at city level (geolocation);
//  5. classified disks are collapsed onto their city and the process
//     repeats until the replica set converges, increasing recall
//     (iteration).
package core

import (
	"fmt"
	"slices"
	"sort"
	"time"

	"anycastmap/internal/cities"
	"anycastmap/internal/geo"
)

// Measurement is one latency sample toward the target under analysis.
type Measurement struct {
	// VP names the vantage point (for reporting only).
	VP string
	// VPLoc is the vantage point location.
	VPLoc geo.Coord
	// RTT is the minimum observed round-trip time from this vantage
	// point; the caller should combine repeated probes by minimum so the
	// sample approaches the propagation delay.
	RTT time.Duration
}

// Disk maps the measurement to its constraint disk.
func (m Measurement) Disk() geo.Disk { return geo.DiskFromRTT(m.VPLoc, m.RTT) }

// GeoReplica is one enumerated (and, when possible, geolocated) replica.
type GeoReplica struct {
	// VP is the vantage point whose disk isolated this replica.
	VP string
	// Disk is the final (possibly city-collapsed) disk.
	Disk geo.Disk
	// City is the classified location; valid only when Located.
	City cities.City
	// Located is false when the disk contains no known city; the replica
	// still counts toward enumeration.
	Located bool
}

func (g GeoReplica) String() string {
	if g.Located {
		return fmt.Sprintf("%v (via %s)", g.City, g.VP)
	}
	return fmt.Sprintf("unlocated %v (via %s)", g.Disk, g.VP)
}

// Result is the outcome of the full analysis of one target.
type Result struct {
	// Anycast is true when a speed-of-light violation proves at least
	// two replicas.
	Anycast bool
	// Replicas is the conservative enumeration: pairwise geo-consistent
	// replicas, each carrying its classification. Empty for unicast
	// targets.
	Replicas []GeoReplica
	// Iterations is how many enumerate-geolocate rounds ran before
	// convergence.
	Iterations int
}

// Count returns the conservative replica count (the MIS lower bound).
func (r Result) Count() int { return len(r.Replicas) }

// Cities returns the sorted distinct city keys of located replicas.
func (r Result) Cities() []string {
	set := map[string]bool{}
	for _, g := range r.Replicas {
		if g.Located {
			set[g.City.Key()] = true
		}
	}
	out := make([]string, 0, len(set))
	for k := range set {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// Options tunes the analysis.
type Options struct {
	// MaxIterations bounds the enumerate-geolocate loop; 0 means the
	// default of 10. The loop normally converges in 2-3 iterations.
	MaxIterations int
}

func (o Options) maxIter() int {
	if o.MaxIterations <= 0 {
		return 10
	}
	return o.MaxIterations
}

// Detect reports whether the measurements prove the target anycast: some
// pair of disks is disjoint. It is the cheap census-wide pass; Analyze
// gives the full enumeration and geolocation.
//
// The implementation certifies the (overwhelmingly common) unicast case in
// O(n): if any single point — tried from the centers of the smallest
// disks — lies inside every disk, all disks pairwise overlap. Only when no
// certificate is found does it fall back to the pairwise scan, which for
// true anycast terminates at the first disjoint pair.
func Detect(ms []Measurement) bool {
	return DetectCert(disksOf(ms), nil, nil).Anycast()
}

// VPMatrix holds the great-circle distances between a campaign's vantage
// points. Every disk of a census target is centred at a vantage point, so
// the detection and enumeration scans read centre distances from it,
// bitwise equal to the geo.DistanceKm they replace, instead of evaluating
// a haversine per pair. Each vantage point's distance to its farthest
// other one bounds how far any disk centre can lie from it, which lets
// the pair scan skip pairs that cannot be disjoint.
type VPMatrix struct {
	n   int
	km  []float64 // row-major n×n: km[i*n+j] = geo.DistanceKm(locs[i], locs[j])
	far []float64 // far[i] = max over j of km[i*n+j]
}

// NewVPMatrix computes the distance matrix of the vantage points at locs;
// slot i of the matrix is locs[i].
func NewVPMatrix(locs []geo.Coord) *VPMatrix {
	n := len(locs)
	m := &VPMatrix{n: n, km: make([]float64, n*n), far: make([]float64, n)}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			d := geo.DistanceKm(locs[i], locs[j])
			m.km[i*n+j], m.km[j*n+i] = d, d
			m.far[i], m.far[j] = max(m.far[i], d), max(m.far[j], d)
		}
	}
	return m
}

func (m *VPMatrix) row(slot int) []float64 { return m.km[slot*m.n : (slot+1)*m.n] }

// centres measures distances between disk centres: through m when both
// disks' slots are non-negative (still centred at those vantage points),
// by live haversine otherwise.
type centres struct {
	disks []geo.Disk
	m     *VPMatrix
	slots []int
}

func (c centres) dist(i, j int) float64 {
	if c.m != nil && c.slots[i] >= 0 && c.slots[j] >= 0 {
		return c.m.km[c.slots[i]*c.m.n+c.slots[j]]
	}
	return geo.DistanceKm(c.disks[i].Center, c.disks[j].Center)
}

// contained reports whether disk ci's centre lies in every disk.
func (c centres) contained(ci int) bool {
	for i := range c.disks {
		if c.dist(i, ci) > c.disks[i].RadiusKm+1e-9 { // !Contains
			return false
		}
	}
	return true
}

// overlaps is Disk.Overlaps for disks i and j. A radius sum reaching
// geo.MaxDistanceKm overlaps whatever the centres, so it skips the
// distance.
func (c centres) overlaps(i, j int) bool {
	sum := c.disks[i].RadiusKm + c.disks[j].RadiusKm + 1e-9
	return sum >= geo.MaxDistanceKm || c.dist(i, j) <= sum
}

// disksOf maps measurements to disks.
func disksOf(ms []Measurement) []geo.Disk {
	out := make([]geo.Disk, len(ms))
	for i, m := range ms {
		out[i] = m.Disk()
	}
	return out
}

// MISGreedy returns the indices of an independent (pairwise disjoint) set
// of disks, built greedily over disks of increasing radius. For disk
// graphs this is a 5-approximation of the maximum independent set, and in
// practice it is near-optimal (the paper validates it against brute
// force).
func MISGreedy(disks []geo.Disk) []int { return misGreedy(centres{disks: disks}) }

// misGreedy is MISGreedy over c.disks, with centre distances measured by c.
func misGreedy(c centres) []int {
	order := make([]int, len(c.disks))
	for i := range order {
		order[i] = i
	}
	slices.SortStableFunc(order, byRadius(c.disks))
	var chosen []int
	for _, i := range order {
		ok := true
		for _, j := range chosen {
			if c.overlaps(i, j) {
				ok = false
				break
			}
		}
		if ok {
			chosen = append(chosen, i)
		}
	}
	sort.Ints(chosen)
	return chosen
}

// byRadius compares disk indices by increasing radius: negative exactly
// when disk a's radius is the smaller.
func byRadius(disks []geo.Disk) func(a, b int) int {
	return func(a, b int) int {
		switch ra, rb := disks[a].RadiusKm, disks[b].RadiusKm; {
		case ra < rb:
			return -1
		case ra > rb:
			return 1
		}
		return 0
	}
}

// MISBrute returns an exact maximum independent set by exhaustive search.
// It exists to validate MISGreedy in tests and is exponential: inputs are
// limited to 24 disks.
func MISBrute(disks []geo.Disk) []int {
	n := len(disks)
	if n > 24 {
		panic("core: MISBrute limited to 24 disks")
	}
	// Precompute the conflict graph.
	conflict := make([]uint32, n)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if disks[i].Overlaps(disks[j]) {
				conflict[i] |= 1 << j
				conflict[j] |= 1 << i
			}
		}
	}
	var best uint32
	bestSize := 0
	for mask := uint32(0); mask < 1<<n; mask++ {
		size := popcount(mask)
		if size <= bestSize {
			continue
		}
		ok := true
		for i := 0; i < n && ok; i++ {
			if mask&(1<<i) != 0 && conflict[i]&mask != 0 {
				ok = false
			}
		}
		if ok {
			best, bestSize = mask, size
		}
	}
	out := make([]int, 0, bestSize)
	for i := 0; i < n; i++ {
		if best&(1<<i) != 0 {
			out = append(out, i)
		}
	}
	return out
}

func popcount(x uint32) int {
	n := 0
	for x != 0 {
		x &= x - 1
		n++
	}
	return n
}

// Locator is the geolocation side channel the analysis classifies disks
// with: *cities.DB satisfies it directly, *cities.Index satisfies it with a
// spatial index (the census pipeline uses the latter - LargestInDisk runs
// once per MIS disk per iteration per anycast target).
type Locator interface {
	LargestInDisk(geo.Disk) (cities.City, bool)
}

// Analyze runs the full detection / enumeration / geolocation / iteration
// pipeline over the measurements for one target.
func Analyze(db *cities.DB, ms []Measurement, opt Options) Result {
	return AnalyzeWith(db, ms, opt)
}

// AnalyzeWith is Analyze over any Locator.
func AnalyzeWith(db Locator, ms []Measurement, opt Options) Result {
	return AnalyzeWithDist(db, ms, nil, nil, opt)
}

// AnalyzeWithDist is AnalyzeWith with a VPMatrix serving the centre
// distances (the dominant cost for borderline unicast targets, which fail
// the O(n) certificate and pay the pairwise scan). slots[i] is the
// vantage point of measurement i; the result is identical to AnalyzeWith.
// The iterative enumeration measures city-collapsed disks, whose centres
// are no longer vantage points, by live haversine.
func AnalyzeWithDist(db Locator, ms []Measurement, m *VPMatrix, slots []int, opt Options) Result {
	if len(ms) < 2 {
		return Result{}
	}
	disks := disksOf(ms)
	if !DetectCert(disks, m, slots).Anycast() {
		return Result{}
	}
	return AnalyzeDetected(db, ms, disks, m, slots, opt)
}

// AnalyzeDetected is the enumeration / geolocation / iteration tail of
// AnalyzeWithDist for a target already proven anycast — by DetectCert or a
// revalidated Certificate. disks must be the measurements' constraint
// disks (AppendDisks(nil, ms)); given those, the result is identical to
// AnalyzeWithDist on the same input. The caller's certificate is
// deliberately not taken as input: the rare single-disk-MIS fallback
// below re-derives the proven pair with a fresh detection pass so the
// reported replicas never depend on which certificate decided the target.
func AnalyzeDetected(db Locator, ms []Measurement, disks []geo.Disk, m *VPMatrix, slots []int, opt Options) Result {
	// work keeps the evolving disk of each measurement plus its
	// classification state.
	type work struct {
		disk      geo.Disk
		city      cities.City
		located   bool
		collapsed bool
	}
	ws := make([]work, len(disks))
	for i, d := range disks {
		ws[i] = work{disk: d}
	}

	cur := centres{disks: make([]geo.Disk, len(ws)), m: m}
	if m != nil {
		// A disk collapsed onto a city leaves its vantage point: its slot
		// becomes -1 and its distances are measured live.
		cur.slots = append([]int(nil), slots...)
	}
	var mis, prev []int
	iters := 0
	for iters < opt.maxIter() {
		iters++
		for i := range ws {
			cur.disks[i] = ws[i].disk
		}
		mis = misGreedy(cur)

		// Geolocate and collapse the newly independent disks.
		changed := false
		for _, i := range mis {
			if ws[i].collapsed {
				continue
			}
			if city, ok := db.LargestInDisk(ws[i].disk); ok {
				ws[i].city = city
				ws[i].located = true
				ws[i].disk = geo.Disk{Center: city.Loc, RadiusKm: 0}
				if cur.slots != nil {
					cur.slots[i] = -1
				}
			}
			ws[i].collapsed = true
			changed = true
		}

		// Converged when the replica set is stable and nothing collapsed.
		if !changed && slices.Equal(mis, prev) {
			break
		}
		prev = mis
	}

	// The greedy MIS can (rarely) return a single disk even though
	// detection proved two disjoint ones exist; enumeration must still
	// report at least the proven pair.
	if len(mis) < 2 {
		cert := DetectCert(disks, m, slots)
		mis = []int{cert.I, cert.J}
		for _, k := range mis {
			if !ws[k].collapsed {
				if city, ok := db.LargestInDisk(disks[k]); ok {
					ws[k].city = city
					ws[k].located = true
				}
			}
		}
	}

	reps := make([]GeoReplica, 0, len(mis))
	for _, i := range mis {
		reps = append(reps, GeoReplica{
			VP:      ms[i].VP,
			Disk:    ws[i].disk,
			City:    ws[i].city,
			Located: ws[i].located,
		})
	}
	return Result{Anycast: true, Replicas: reps, Iterations: iters}
}
