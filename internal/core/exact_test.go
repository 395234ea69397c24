package core

import (
	"math"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"
	"time"

	"anycastmap/internal/geo"
)

// The pruned detection and enumeration scans must return exactly what the
// unpruned ones do. detectCertRef and misGreedyRef are the scans as they
// were before pruning: every pair checked, the candidate list taken from
// its own sort, and centre distances from an arbitrary oracle.

func detectCertRef(disks []geo.Disk, dist func(i, j int) float64) Certificate {
	n := len(disks)
	if n < 2 {
		return Certificate{}
	}
	contained := func(ci int) bool {
		for i := range disks {
			if dist(i, ci) > disks[i].RadiusKm+1e-9 {
				return false
			}
		}
		return true
	}
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
	if strictMin && contained(minI) {
		return Certificate{Kind: CertUnicast, I: minI}
	}
	byRadius := func() []int {
		idx := make([]int, n)
		for i := range idx {
			idx[i] = i
		}
		sort.Slice(idx, func(a, b int) bool { return disks[idx[a]].RadiusKm < disks[idx[b]].RadiusKm })
		return idx
	}
	for _, ci := range byRadius()[:min(3, n)] {
		if strictMin && ci == minI {
			continue
		}
		if contained(ci) {
			return Certificate{Kind: CertUnicast, I: ci}
		}
	}
	order := byRadius()
	for a := 0; a < n; a++ {
		for b := a + 1; b < n; b++ {
			i, j := order[a], order[b]
			if dist(i, j) > disks[i].RadiusKm+disks[j].RadiusKm+1e-9 {
				return Certificate{Kind: CertAnycast, I: i, J: j}
			}
		}
	}
	return Certificate{}
}

func misGreedyRef(disks []geo.Disk) []int {
	order := make([]int, len(disks))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return disks[order[a]].RadiusKm < disks[order[b]].RadiusKm })
	var chosen []int
	for _, i := range order {
		ok := true
		for _, j := range chosen {
			if disks[i].Overlaps(disks[j]) {
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

// TestByRadiusOrdersAsSortSlice: the radius sorts must place tied disks
// where sort.Slice and sort.SliceStable did, since tie order picks the
// certificate's candidates and the scan's first disjoint pair.
// slices.SortFunc runs the same pdqsort as sort.Slice.
func TestByRadiusOrdersAsSortSlice(t *testing.T) {
	r := rand.New(rand.NewSource(47))
	for trial := 0; trial < 300; trial++ {
		disks := make([]geo.Disk, 1+r.Intn(400))
		levels := 1 + r.Intn(40)
		for i := range disks {
			disks[i].RadiusKm = float64(r.Intn(levels)) * 100
		}
		idx := func() []int {
			o := make([]int, len(disks))
			for i := range o {
				o[i] = i
			}
			return o
		}
		less := func(o []int) func(a, b int) bool {
			return func(a, b int) bool { return disks[o[a]].RadiusKm < disks[o[b]].RadiusKm }
		}
		want, got := idx(), idx()
		sort.Slice(want, less(want))
		slices.SortFunc(got, byRadius(disks))
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d: SortFunc order %v, sort.Slice %v", trial, got, want)
		}
		want, got = idx(), idx()
		sort.SliceStable(want, less(want))
		slices.SortStableFunc(got, byRadius(disks))
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d: SortStableFunc order %v, sort.SliceStable %v", trial, got, want)
		}
	}
}

// capRadius is the largest radius DiskFromRTT produces.
var capRadius = geo.DiskFromRTT(geo.Coord{}, time.Hour).RadiusKm

// exactWorld is a vantage-point set with its distance matrix. A global
// world puts every eighth VP at the exact antipode of an earlier one, so
// centre distances reach the ceiling; a regional world packs its VPs into
// a box, so the farthest-VP bounds differ widely between VPs.
type exactWorld struct {
	locs []geo.Coord
	m    *VPMatrix
}

func newExactWorld(r *rand.Rand, n int, global bool) exactWorld {
	locs := make([]geo.Coord, n)
	lat0, lon0, span := -90.0, -180.0, 1.0
	if !global {
		span = 0.02 + r.Float64()*0.5
		lat0, lon0 = r.Float64()*(180-180*span)-90, r.Float64()*(360-360*span)-180
	}
	for i := range locs {
		if global && i%8 == 7 {
			a := locs[r.Intn(i)]
			locs[i] = geo.Coord{Lat: -a.Lat, Lon: a.Lon - math.Copysign(180, a.Lon)}
			continue
		}
		locs[i] = geo.Coord{Lat: lat0 + r.Float64()*180*span, Lon: lon0 + r.Float64()*360*span}
	}
	return exactWorld{locs: locs, m: NewVPMatrix(locs)}
}

// nudge moves x by k ulps.
func nudge(x float64, k int) float64 {
	for ; k > 0; k-- {
		x = math.Nextafter(x, math.Inf(1))
	}
	for ; k < 0; k++ {
		x = math.Nextafter(x, math.Inf(-1))
	}
	return x
}

// target draws VP-centred disks over an ascending subset of the VP slots,
// as the census analyzer presents them. Half the targets mix small and
// large radii, the DiskFromRTT cap and ties with earlier disks. The
// other half pair one disk with the disk of its farthest VP, radii summing
// to within a few ulps of their centre distance, which is that VP's
// farthest-VP bound (and the ceiling, for antipodes); every other disk
// has the cap radius, so the pair alone decides the target.
func (w exactWorld) target(r *rand.Rand) ([]geo.Disk, []int) {
	var slots []int
	for s := range w.locs {
		if r.Intn(3) == 0 {
			slots = append(slots, s)
		}
	}
	if len(slots) < 2 {
		slots = []int{0, len(w.locs) - 1}
	}
	disks := make([]geo.Disk, len(slots))
	if r.Intn(2) == 0 {
		k := r.Intn(len(slots))
		s := slots[k]
		row := w.m.row(s)
		far := 0
		for v, d := range row {
			if d > row[far] {
				far = v
			}
		}
		if p := sort.SearchInts(slots, far); p == len(slots) || slots[p] != far {
			slots = append(slots[:p], append([]int{far}, slots[p:]...)...)
			disks = append(disks, geo.Disk{})
		}
		for k, v := range slots {
			disks[k] = geo.Disk{Center: w.locs[v], RadiusKm: capRadius}
		}
		d := row[far]
		ri := d * (0.1 + 0.4*r.Float64())
		disks[k].RadiusKm = ri
		disks[sort.SearchInts(slots, far)].RadiusKm = nudge(d-ri-1e-9, r.Intn(7)-3)
		return disks, slots
	}
	for k, s := range slots {
		var rad float64
		switch r.Intn(8) {
		case 0, 1:
			rad = 100 + r.Float64()*6000
		case 2, 3:
			rad = r.Float64() * capRadius
		case 4:
			rad = capRadius
		case 5:
			if k > 0 {
				rad = disks[r.Intn(k)].RadiusKm
			} else {
				rad = capRadius / 2
			}
		case 6:
			// The far side of an overlap boundary with an earlier disk.
			rad = capRadius / 2
			if k > 0 {
				j := r.Intn(k)
				rad = nudge(w.m.km[s*w.m.n+slots[j]]-disks[j].RadiusKm-1e-9, r.Intn(5)-2)
			}
		default:
			rad = 10 + r.Float64()*200
		}
		disks[k] = geo.Disk{Center: w.locs[s], RadiusKm: math.Max(0, math.Min(rad, capRadius))}
	}
	return disks, slots
}

func TestDetectCertMatchesUnpruned(t *testing.T) {
	r := rand.New(rand.NewSource(29))
	kinds := map[CertKind]int{}
	for world := 0; world < 20; world++ {
		w := newExactWorld(r, 8+r.Intn(120), world%2 == 0)
		for trial := 0; trial < 100; trial++ {
			disks, slots := w.target(r)
			live := func(i, j int) float64 { return geo.DistanceKm(disks[i].Center, disks[j].Center) }
			matrix := func(i, j int) float64 { return w.m.km[slots[i]*w.m.n+slots[j]] }
			want := detectCertRef(disks, live)
			if got := DetectCert(disks, nil, nil); got != want {
				t.Fatalf("world %d trial %d: haversine DetectCert = %+v, unpruned %+v", world, trial, got, want)
			}
			if ref := detectCertRef(disks, matrix); ref != want {
				t.Fatalf("world %d trial %d: matrix distances differ from haversine (%+v vs %+v)", world, trial, ref, want)
			}
			if got := DetectCert(disks, w.m, slots); got != want {
				t.Fatalf("world %d trial %d: matrix DetectCert = %+v, unpruned %+v", world, trial, got, want)
			}
			kinds[want.Kind]++
		}
	}
	// Each path of the scan must be exercised.
	for _, k := range []CertKind{CertNone, CertUnicast, CertAnycast} {
		if kinds[k] == 0 {
			t.Fatalf("no trial produced certificate kind %d (%v)", k, kinds)
		}
	}
}

func TestMISGreedyMatchesUnpruned(t *testing.T) {
	r := rand.New(rand.NewSource(31))
	for world := 0; world < 20; world++ {
		w := newExactWorld(r, 8+r.Intn(60), world%2 == 0)
		for trial := 0; trial < 50; trial++ {
			disks, slots := w.target(r)
			want := misGreedyRef(disks)
			if got := MISGreedy(disks); !reflect.DeepEqual(got, want) {
				t.Fatalf("world %d trial %d: MISGreedy = %v, unpruned %v", world, trial, got, want)
			}
			if got := misGreedy(centres{disks: disks, m: w.m, slots: slots}); !reflect.DeepEqual(got, want) {
				t.Fatalf("world %d trial %d: matrix MIS = %v, unpruned %v", world, trial, got, want)
			}
			// Collapse some disks onto a point elsewhere, as enumeration
			// does when it geolocates a replica: those leave the matrix.
			cs := append([]int(nil), slots...)
			for i := range disks {
				if r.Intn(4) == 0 {
					disks[i] = geo.Disk{Center: w.locs[r.Intn(len(w.locs))]}
					disks[i].Center.Lat /= 2
					cs[i] = -1
				}
			}
			want = misGreedyRef(disks)
			if got := misGreedy(centres{disks: disks, m: w.m, slots: cs}); !reflect.DeepEqual(got, want) {
				t.Fatalf("world %d trial %d: collapsed matrix MIS = %v, unpruned %v", world, trial, got, want)
			}
		}
	}
}

// TestAnalyzeWithDistMatchesLive: the whole analysis over a VPMatrix
// equals the analysis by live haversine, replicas included.
func TestAnalyzeWithDistMatchesLive(t *testing.T) {
	r := rand.New(rand.NewSource(37))
	anycast := 0
	for world := 0; world < 10; world++ {
		w := newExactWorld(r, 8+r.Intn(60), world%2 == 0)
		for trial := 0; trial < 40; trial++ {
			var ms []Measurement
			var slots []int
			for s, loc := range w.locs {
				if r.Intn(3) == 0 {
					rtt := time.Duration(1+r.Intn(300)) * time.Millisecond
					ms = append(ms, Measurement{VP: "vp", VPLoc: loc, RTT: rtt})
					slots = append(slots, s)
				}
			}
			want := AnalyzeWith(db, ms, Options{})
			got := AnalyzeWithDist(db, ms, w.m, slots, Options{})
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("world %d trial %d: matrix analysis %+v, live %+v", world, trial, got, want)
			}
			if want.Anycast {
				anycast++
			}
		}
	}
	if anycast == 0 {
		t.Fatal("no trial was anycast; enumeration untested")
	}
}

// TestIterationsCountsBudget: a loop that uses up its budget reports the
// budget, not one more.
func TestIterationsCountsBudget(t *testing.T) {
	fra := db.MustByName("Frankfurt", "DE").Loc
	tyo := db.MustByName("Tokyo", "JP").Loc
	nyc := db.MustByName("New York", "US").Loc
	ms := []Measurement{
		synth("Paris,FR", db.MustByName("Paris", "FR").Loc, fra, 1.1, 1),
		synth("Warsaw,PL", db.MustByName("Warsaw", "PL").Loc, fra, 1.1, 1),
		synth("Osaka,JP", db.MustByName("Osaka", "JP").Loc, tyo, 1.1, 1),
		synth("Seoul,KR", db.MustByName("Seoul", "KR").Loc, tyo, 1.1, 1),
		synth("Boston,US", db.MustByName("Boston", "US").Loc, nyc, 1.1, 1),
		synth("Chicago,US", db.MustByName("Chicago", "US").Loc, nyc, 1.9, 6),
	}
	full := Analyze(db, ms, Options{}).Iterations
	if full < 2 {
		t.Fatalf("unbounded analysis converged after %d iterations; the first always collapses a disk", full)
	}
	for budget := 1; budget <= 3; budget++ {
		if got, want := Analyze(db, ms, Options{MaxIterations: budget}).Iterations, min(budget, full); got != want {
			t.Errorf("MaxIterations %d: Iterations = %d, want %d", budget, got, want)
		}
	}
}

// borderlineUnicast builds the census's costliest target: every pair of
// disks overlaps (all contain the host), yet none of the three smallest
// disks contains the others' centres, so DetectCert finds no certificate
// and pays the pairwise scan. The three smallest disks sit 500 km from
// the host at 120° apart; the rest come from VPs spread over the globe.
func borderlineUnicast(n int) ([]geo.Disk, *VPMatrix, []int) {
	host := db.MustByName("Frankfurt", "DE").Loc
	r := rand.New(rand.NewSource(41))
	locs := make([]geo.Coord, n)
	disks := make([]geo.Disk, n)
	slots := make([]int, n)
	for i := range locs {
		var rad float64
		if i < 3 {
			locs[i] = geo.Destination(host, float64(120*i), 500)
			rad = 510 + 10*float64(i)
		} else {
			locs[i] = geo.Coord{Lat: r.Float64()*140 - 70, Lon: r.Float64()*360 - 180}
			rad = max(600, geo.DistanceKm(locs[i], host)*(1.1+0.3*r.Float64())+150)
		}
		disks[i] = geo.Disk{Center: locs[i], RadiusKm: min(rad, capRadius)}
		slots[i] = i
	}
	return disks, NewVPMatrix(locs), slots
}

func BenchmarkDetectBorderlineUnicast(b *testing.B) {
	disks, m, slots := borderlineUnicast(290)
	for _, bc := range []struct {
		name  string
		m     *VPMatrix
		slots []int
	}{{"matrix", m, slots}, {"haversine", nil, nil}} {
		b.Run(bc.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if c := DetectCert(disks, bc.m, bc.slots); c.Kind != CertNone {
					b.Fatalf("borderline unicast fixture yielded %+v", c)
				}
			}
		})
	}
}
