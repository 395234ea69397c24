package main

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"net/netip"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"anycastmap/internal/census"
	"anycastmap/internal/core"
	"anycastmap/internal/geo"
	"anycastmap/internal/netsim"
	"anycastmap/internal/platform"
	"anycastmap/internal/route"
	"anycastmap/internal/store"
)

// Serving population. Clients and services are both drawn from the
// serving census's own targets, the responsive /24s of the simulated
// Internet. Services are drawn uniformly, so the query mix follows the
// map: a query names an anycast service, and gets NOERROR, as often as
// the census detected anycast /24s among its targets, and NXDOMAIN
// otherwise. Clients are drawn Zipf-skewed: the route decision cache is
// built for resolver traffic in which a few client /24s repeat heavily
// (internal/route/cache.go). The exponent is an assumption, not a
// measurement; a traced run reports route.cache_hit_rate, so its effect
// on the engine shows.
const (
	clientZipfS = 1.1 // skew of the client /24 popularity
	qtypeA      = 1   // DNS A query
	// dnsClients is the DNS closed loop's client count. One resolver
	// gives the steadiest per-query figure: with two clients on a 2-CPU
	// machine the kernel's SO_REUSEPORT hash puts both flows on one
	// listener in about half the runs, and the median flips between two
	// modes. HTTP has one listener and uses nproc clients.
	dnsClients = 1
	// batch is how many requests a client sends between deadline checks;
	// a traced run covers each batch with one span (a span per request
	// would cost as much as the request).
	batch = 512
)

// serveEnv is the served map and what the serving phases need of its
// census: the published store, the snapshot file, the platform's VPs and
// the target /24s queries are drawn from. It holds no reference to the
// world or the census, so their memory is released before a phase and
// peak_heap_mib measures serving.
type serveEnv struct {
	seed uint64
	// queries is how many (client, service) pairs a phase replays.
	queries int
	st      *store.Store
	path    string
	vps     []platform.VP
	targets []netsim.Prefix24
	// instances is how many replicas each served anycast prefix lists:
	// an A answer exists exactly when it is positive.
	instances map[netsim.Prefix24]int
}

// setupServe builds the small census behind the served snapshot and
// publishes it. Fidelity of the served map is scored here. The world and
// its derived data are returned apart from the serving state, so a caller
// that drops them leaves them to the collector.
func setupServe(opt options, rep *report) (*serveEnv, *env, error) {
	e, worldSetup := setupWorld(opt, rep, opt.scale.serveUnicast24s)
	if err := os.MkdirAll(opt.outDir, 0o755); err != nil {
		return nil, nil, err
	}
	t0 := time.Now()
	se := &serveEnv{seed: e.seed, queries: opt.scale.serveQueries, st: store.New(store.Options{}), path: snapshotPath(opt), vps: e.pl.VPs(), instances: map[netsim.Prefix24]int{}}
	black, targets, err := e.blacklistAndTargets(nil, 0)
	if err != nil {
		return nil, nil, err
	}
	cp := census.NewCampaign(census.CampaignConfig{Census: census.Config{Seed: e.seed}})
	vps := e.pl.Sample(opt.scale.serveVPs, e.seed+1)
	if _, err := cp.ExecuteRoundPipelined(context.Background(), e.w, vps, targets, black, 1, census.PipelineConfig{}); err != nil {
		return nil, nil, fmt.Errorf("serve census: %w", err)
	}
	outcomes := census.AnalyzeAll(e.db, cp.Combined(), core.Options{}, 2, 0)
	findings, err := e.publish(nil, 0, outcomes, 1, 1, cp.Health(), se.path, se.st)
	if err != nil {
		return nil, nil, err
	}
	rep.set("setup_s", worldSetup+time.Since(t0).Seconds())
	recall, precision := score(e.w, targets.Targets(), outcomes)
	rep.set("anycast_recall", recall)
	rep.set("anycast_precision", precision)
	rep.check(checkMap(se.st, outcomes, findings, cp.Health(), recall, precision))

	snap, release := se.st.Acquire()
	for _, ent := range snap.Entries() {
		se.instances[ent.Prefix] = len(ent.Instances)
	}
	release()
	for _, t := range targets.Targets() {
		se.targets = append(se.targets, t.Prefix())
	}
	if len(se.instances) == 0 || len(se.instances) == len(se.targets) {
		return nil, nil, fmt.Errorf("served map has %d anycast prefixes among %d targets", len(se.instances), len(se.targets))
	}
	fmt.Fprintf(os.Stderr, "e2ebench: serving %d target /24s, %d of them anycast in the map (%.1f%% of queries)\n",
		len(se.targets), len(se.instances), 100*float64(len(se.instances))/float64(len(se.targets)))
	return se, e, nil
}

// draws generates n (client, service) prefix pairs from the seed.
func (se *serveEnv) draws(n int) (clients []netsim.Prefix24, services []netsim.Prefix24) {
	r := rand.New(rand.NewSource(int64(se.seed)))
	byPopularity := append([]netsim.Prefix24(nil), se.targets...)
	r.Shuffle(len(byPopularity), func(i, j int) { byPopularity[i], byPopularity[j] = byPopularity[j], byPopularity[i] })
	zc := rand.NewZipf(r, clientZipfS, 1, uint64(len(byPopularity)-1))
	clients = make([]netsim.Prefix24, n)
	services = make([]netsim.Prefix24, n)
	for i := range clients {
		clients[i] = byPopularity[zc.Uint64()]
		services[i] = se.targets[r.Intn(len(se.targets))]
	}
	return clients, services
}

// publisher republishes the snapshot file as a new mmap generation every
// interval until stopped, so store writes run beside the reads.
type publisher struct {
	stop chan struct{}
	done chan struct{}
	err  error
}

func startPublisher(st *store.Store, path string, tr *tracer, root int, every time.Duration) *publisher {
	p := &publisher{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(p.done)
		t := time.NewTicker(every)
		defer t.Stop()
		for {
			select {
			case <-p.stop:
				return
			case <-t.C:
			}
			var snap *store.Snapshot
			var err error
			tr.call("store.OpenSnapshotFile", root, func() { snap, err = store.OpenSnapshotFile(path) })
			if err != nil {
				p.err = fmt.Errorf("republish: %w", err)
				return
			}
			tr.call("store.Publish", root, func() { st.Publish(snap) })
		}
	}()
	return p
}

// close stops the publisher and waits for it.
func (p *publisher) close() error {
	close(p.stop)
	<-p.done
	return p.err
}

// latHist is a log-bucketed latency histogram with 0.2% wide buckets
// from 100ns: clients record into it without allocating, so the
// benchmark's own bookkeeping stays out of peak_heap_mib.
type latHist struct {
	counts [histBuckets]uint64
	n      uint64
}

const (
	histBaseNs  = 100
	histGrowth  = 1.002
	histBuckets = 9000 // up to ~6.5s
)

var logGrowth = math.Log(histGrowth)

func (h *latHist) add(d time.Duration) {
	i := 0
	if ns := float64(d.Nanoseconds()); ns > histBaseNs {
		i = min(int(math.Log(ns/histBaseNs)/logGrowth), histBuckets-1)
	}
	h.counts[i]++
	h.n++
}

func (h *latHist) merge(o *latHist) {
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.n += o.n
}

// quantile interpolates the q-quantile inside its bucket, in ns.
func (h *latHist) quantile(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	rank := q * float64(h.n)
	cum := 0.0
	for i, c := range h.counts {
		if c == 0 {
			continue
		}
		if cum+float64(c) >= rank {
			lo := histBaseNs * math.Pow(histGrowth, float64(i))
			return lo + (lo*histGrowth-lo)*(rank-cum)/float64(c)
		}
		cum += float64(c)
	}
	return histBaseNs * math.Pow(histGrowth, histBuckets)
}

// phase is one closed-loop measurement: the latency of every answered
// request, request and failure counts.
type phase struct {
	lat      latHist
	sent     int
	failed   int
	firstErr error
	// qps is the median over the phase's one-second windows of the
	// answer rate in each (summed over clients), so a transient stall
	// moves one window and not the figure.
	qps     float64
	peakMiB float64
	// swaps is the store's count of snapshot swaps over the phase.
	swaps int
}

func (ph *phase) p50() float64 { return ph.lat.quantile(0.5) }

// closedLoop runs clients workers for d, each calling req(worker, i) for
// its i-th request until the deadline, one request in flight per worker.
// req returns the request's latency and whether its answer checked out.
// In a traced run each worker's requests are grouped into batch spans
// named spanName under root.
func closedLoop(se *serveEnv, tr *tracer, spanName string, clients int, d time.Duration, every time.Duration, req func(worker, i int) (time.Duration, error)) *phase {
	runtime.GC()
	heap := startHeapSampler()
	swaps0 := se.st.Stats().Swaps
	root := tr.start("bench.op", 0)
	pub := startPublisher(se.st, se.path, tr, root, every)
	nWin := max(int(d/time.Second), 1)
	winLen := d / time.Duration(nWin)
	// window is one client's answers and busy time in one window; a
	// batch is credited whole to the window it ends in.
	type window struct {
		answered int
		busy     time.Duration
	}
	type out struct {
		lat      latHist
		windows  []window
		failed   int
		firstErr error
	}
	outs := make([]out, clients)
	for w := range outs {
		outs[w].windows = make([]window, nWin)
	}
	start := time.Now()
	deadline := start.Add(d)
	var wg sync.WaitGroup
	for w := 0; w < clients; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			o := &outs[w]
			i := w * (se.queries / max(clients, 1))
			for time.Now().Before(deadline) {
				sp := tr.start(spanName, root)
				bStart := time.Since(start)
				answered := 0
				for k := 0; k < batch; k++ {
					lat, err := req(w, i)
					i++
					if err != nil {
						o.failed++
						if o.firstErr == nil {
							o.firstErr = err
						}
						continue
					}
					o.lat.add(lat)
					answered++
				}
				tr.end(sp)
				bEnd := time.Since(start)
				// The batch that overruns the deadline counts in the
				// last window.
				win := min(int(bEnd/winLen), nWin-1)
				o.windows[win].answered += answered
				o.windows[win].busy += bEnd - bStart
			}
		}(w)
	}
	wg.Wait()
	ph := &phase{}
	perr := pub.close()
	tr.end(root)
	ph.peakMiB = heap.peakMiB()
	heap.close()
	ph.swaps = int(se.st.Stats().Swaps - swaps0)
	rates := make([]float64, nWin)
	for i := range outs {
		o := &outs[i]
		for win, x := range o.windows {
			if x.busy > 0 {
				rates[win] += float64(x.answered) / x.busy.Seconds()
			}
		}
		ph.lat.merge(&o.lat)
		ph.failed += o.failed
		if ph.firstErr == nil {
			ph.firstErr = o.firstErr
		}
	}
	ph.qps = median(rates)
	ph.sent = int(ph.lat.n) + ph.failed
	if perr != nil {
		ph.failed++
		ph.sent++
		if ph.firstErr == nil {
			ph.firstErr = perr
		}
	}
	return ph
}

// runPhases runs the measured phase(s) and reports the end-to-end serving
// metrics. Untraced: one phase of opt.seconds. Traced: an untraced and a
// traced half, for trace_overhead and the per-layer spans.
func runPhases(opt options, rep *report, se *serveEnv, clients int, spanName string, req func(worker, i int) (time.Duration, error)) *phase {
	d := time.Duration(opt.seconds * float64(time.Second))
	var phases []*phase
	if opt.trace {
		plain := closedLoop(se, nil, spanName, clients, d/2, opt.scale.publishEvery, req)
		rep.tr.setRun(1)
		traced := closedLoop(se, rep.tr, spanName, clients, d/2, opt.scale.publishEvery, req)
		phases = []*phase{plain, traced}
		b := rep.tr.analyze(func(run int) bool { return run == 1 })
		rep.setBreakdown(b, 1)
		rep.set("store.publish_us", b.byName["store.Publish"]/float64(max(traced.swaps, 1))*1e6)
		rep.set("store.open_s", b.byName["store.OpenSnapshotFile"]/float64(max(traced.swaps, 1)))
		rep.set("store.swaps", float64(traced.swaps))
		if p := plain.p50(); p > 0 {
			rep.set("trace_overhead", traced.p50()/p-1)
		}
	} else {
		phases = []*phase{closedLoop(se, nil, spanName, clients, d, opt.scale.publishEvery, req)}
	}
	for _, ph := range phases {
		rep.tally(ph.sent, ph.failed, ph.firstErr)
	}
	last := phases[len(phases)-1]
	rep.set("op_p50_ms", last.p50()/1e6)
	rep.set("ops_per_s", last.qps)
	rep.set("peak_heap_mib", last.peakMiB)
	return last
}

// dnsQuery is one pre-generated DNS question with its expected answer.
type dnsQuery struct {
	pkt     []byte
	qname   int // wire length of the question name
	service netsim.Prefix24
	anycast bool
	withA   bool
}

// qnameLen is the wire length of a query's question name: everything
// from the header to the root label (the names carry no zero octets).
func qnameLen(pkt []byte) int { return bytes.IndexByte(pkt[12:], 0) + 1 }

// checkDNS verifies a response against the live map: the ID echoes the
// query, the rcode is NOERROR for an anycast service and NXDOMAIN for a
// unicast one, and an anycast answer carries one A record inside the
// service /24 exactly when the entry lists replicas.
func checkDNS(resp []byte, id uint16, q *dnsQuery) error {
	if len(resp) < 12 || binary.BigEndian.Uint16(resp) != id {
		return fmt.Errorf("dns %v: bad header or id", q.service)
	}
	rcode := int(resp[3] & 0xf)
	an := binary.BigEndian.Uint16(resp[6:])
	if !q.anycast {
		if rcode != route.RcodeNXDomain || an != 0 {
			return fmt.Errorf("dns %v: unicast service answered rcode %d with %d records, want NXDOMAIN", q.service, rcode, an)
		}
		return nil
	}
	if rcode != route.RcodeNoError {
		return fmt.Errorf("dns %v: anycast service answered rcode %d, want NOERROR", q.service, rcode)
	}
	if !q.withA {
		if an != 0 {
			return fmt.Errorf("dns %v: answer for an entry without replicas", q.service)
		}
		return nil
	}
	// Answer: 2-byte name pointer, type, class, TTL, RDLENGTH, RDATA.
	off := 12 + q.qname + 4
	if an != 1 || len(resp) < off+16 || binary.BigEndian.Uint16(resp[off+10:]) != 4 {
		return fmt.Errorf("dns %v: want one A record, got %d", q.service, an)
	}
	addr := netsim.IP(binary.BigEndian.Uint32(resp[off+12:]))
	if addr.Prefix() != q.service {
		return fmt.Errorf("dns %v: answer %v outside the service /24", q.service, addr)
	}
	return nil
}

// countingLocator is the engine's client locator with a count of its
// calls. The engine locates a client only when it decides an anycast
// query afresh, so the count is the decision cache's misses on anycast
// queries.
type countingLocator struct {
	route.HashLocator
	calls atomic.Uint64
}

func (l *countingLocator) Locate(p netsim.Prefix24) (geo.Coord, bool) {
	l.calls.Add(1)
	return l.HashLocator.Locate(p)
}

// runServeDNS measures the DNS/UDP front-end (route.NewServer over a
// route.Engine) under a closed loop of dnsClients resolvers.
func runServeDNS(opt options, rep *report) error {
	se, _, err := setupServe(opt, rep)
	if err != nil {
		return err
	}
	defer os.Remove(se.path)
	loc := &countingLocator{HashLocator: route.HashLocator{Seed: se.seed}}
	eng, err := route.NewEngine(route.Config{Store: se.st, Locator: loc, VPs: se.vps})
	if err != nil {
		return err
	}
	srv, err := route.NewServer(route.ServerConfig{Addr: "127.0.0.1:0", Listeners: runtime.NumCPU(), Engine: eng})
	if err != nil {
		return err
	}
	defer srv.Close()
	zone, err := route.EncodeName(nil, route.DefaultZone)
	if err != nil {
		return err
	}
	clients, services := se.draws(se.queries)
	qs := make([]dnsQuery, se.queries)
	for i := range qs {
		pkt := route.AppendQuery(nil, 0, services[i], route.PolicyNone, zone, qtypeA, clients[i])
		n, ok := se.instances[services[i]]
		qs[i] = dnsQuery{pkt: pkt, qname: qnameLen(pkt), service: services[i], anycast: ok, withA: n > 0}
	}
	nc := dnsClients
	conns := make([]*net.UDPConn, nc)
	for w := range conns {
		c, err := net.DialUDP("udp", nil, srv.Addr().(*net.UDPAddr))
		if err != nil {
			return err
		}
		defer c.Close()
		conns[w] = c
	}
	type wstate struct {
		pkt, buf []byte
		id       uint16
		// deadline is the connection's read deadline: it is moved
		// 2 s ahead whenever less than 1 s of it is left, so every
		// query waits at least 1 s for its answer without a deadline
		// update per query.
		deadline time.Time
		// anycast counts the answered queries for anycast services.
		anycast uint64
	}
	ws := make([]wstate, nc)
	for w := range ws {
		ws[w] = wstate{pkt: make([]byte, 0, 512), buf: make([]byte, 2048)}
	}
	req := func(w, i int) (time.Duration, error) {
		q := &qs[i%len(qs)]
		s := &ws[w]
		c := conns[w]
		s.id++
		s.pkt = append(s.pkt[:0], q.pkt...)
		binary.BigEndian.PutUint16(s.pkt, s.id)
		t0 := time.Now()
		if s.deadline.Sub(t0) < time.Second {
			s.deadline = t0.Add(2 * time.Second)
			c.SetReadDeadline(s.deadline)
		}
		if _, err := c.Write(s.pkt); err != nil {
			return 0, err
		}
		for {
			n, err := c.Read(s.buf)
			if err != nil {
				return 0, fmt.Errorf("dns %v: %w", q.service, err)
			}
			// A late answer to a timed-out query is skipped.
			if n >= 2 && binary.BigEndian.Uint16(s.buf) != s.id {
				continue
			}
			lat := time.Since(t0)
			if q.anycast {
				s.anycast++
			}
			return lat, checkDNS(s.buf[:n], s.id, q)
		}
	}
	located0 := loc.calls.Load()
	last := runPhases(opt, rep, se, nc, "route.Server.UDP", req)
	if opt.trace {
		var anycast uint64
		for w := range ws {
			anycast += ws[w].anycast
		}
		if located := loc.calls.Load() - located0; anycast > 0 && located <= anycast {
			rep.set("route.cache_hit_rate", 1-float64(located)/float64(anycast))
		}
		// route.respond_ns: the in-process answer path over the phase's
		// own packets, without sockets.
		resp, err := route.NewResponder(eng, "", 0, nil)
		if err != nil {
			return err
		}
		sc := new(route.Scratch)
		src := netip.MustParseAddrPort("127.0.0.1:5353")
		respondNs := microLoop(opt, func(n int) { resp.Respond(sc, qs[n%len(qs)].pkt, src) })
		rep.set("route.respond_ns", respondNs)
		rep.set("route.socket_us", (last.p50()-respondNs)/1e3)
	}
	return nil
}

// lookupBody is the part of a /v1/lookup answer the check reads.
type lookupBody struct {
	Anycast *bool  `json:"anycast"`
	Version uint64 `json:"snapshot_version"`
}

// checkHTTP verifies one /v1/lookup answer: 200, and an anycast flag that
// equals Snapshot.Lookup on the served map.
func checkHTTP(status int, body []byte, ip netsim.IP, want bool) error {
	if status != http.StatusOK {
		return fmt.Errorf("http %v: status %d", ip, status)
	}
	var lb lookupBody
	if err := json.Unmarshal(body, &lb); err != nil {
		return fmt.Errorf("http %v: %w", ip, err)
	}
	if lb.Anycast == nil || *lb.Anycast != want || lb.Version == 0 {
		return fmt.Errorf("http %v: anycast=%v version %d, want anycast=%v", ip, lb.Anycast, lb.Version, want)
	}
	return nil
}

// runServeHTTP measures GET /v1/lookup through store.NewAPI over
// loopback TCP with keep-alive connections, closed loop, at most nproc
// clients.
func runServeHTTP(opt options, rep *report) error {
	se, _, err := setupServe(opt, rep)
	if err != nil {
		return err
	}
	defer os.Remove(se.path)
	api := store.NewAPI(se.st, nil, store.APIConfig{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	hs := &http.Server{Handler: api}
	served := make(chan error, 1)
	go func() { served <- hs.Serve(ln) }()
	defer func() {
		hs.Close()
		<-served
	}()
	nc := runtime.NumCPU()
	client := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: nc, DisableCompression: true}, Timeout: 5 * time.Second}
	defer client.CloseIdleConnections()

	clients, services := se.draws(se.queries)
	snap, release := se.st.Acquire()
	ips := make([]netsim.IP, se.queries)
	urls := make([]string, se.queries)
	want := make([]bool, se.queries)
	base := "http://" + ln.Addr().String() + "/v1/lookup?ip="
	for i := range ips {
		// The client /24 picks the host inside the service /24.
		ips[i] = services[i].Host(byte(clients[i]))
		urls[i] = base + ips[i].String()
		_, want[i] = snap.Lookup(ips[i])
	}
	release()
	bufs := make([]bytes.Buffer, nc)
	req := func(w, i int) (time.Duration, error) {
		k := i % len(urls)
		b := &bufs[w]
		b.Reset()
		t0 := time.Now()
		resp, err := client.Get(urls[k])
		if err != nil {
			return 0, err
		}
		_, err = b.ReadFrom(resp.Body)
		resp.Body.Close()
		lat := time.Since(t0)
		if err != nil {
			return 0, err
		}
		return lat, checkHTTP(resp.StatusCode, b.Bytes(), ips[k], want[k])
	}
	st0 := se.st.Stats()
	runPhases(opt, rep, se, nc, "store.API.HTTP", req)
	if opt.trace {
		st1 := se.st.Stats()
		if n := (st1.CacheHits - st0.CacheHits) + (st1.Misses - st0.Misses); n > 0 {
			rep.set("store.cache_hit_rate", float64(st1.CacheHits-st0.CacheHits)/float64(n))
		}
		rep.set("store.lookup_ns", microLoop(opt, func(n int) { se.st.Lookup(ips[n%len(ips)]) }))
		reqs := make([]*http.Request, min(4096, len(urls)))
		for i := range reqs {
			reqs[i] = httptest.NewRequest(http.MethodGet, urls[i], nil)
		}
		var apiErr error
		rep.set("store.api_ns", microLoop(opt, func(n int) {
			rec := httptest.NewRecorder()
			api.ServeHTTP(rec, reqs[n%len(reqs)])
			if rec.Code != http.StatusOK && apiErr == nil {
				apiErr = errors.New("in-process API answered " + http.StatusText(rec.Code))
			}
		}))
		rep.check(apiErr)
	}
	return nil
}

// microLoop times f over a fixed share of the run and returns ns per call.
func microLoop(opt options, f func(n int)) float64 {
	n := 0
	t0 := time.Now()
	for time.Since(t0).Seconds() < opt.scale.microSeconds {
		for k := 0; k < 256; k++ {
			f(n)
			n++
		}
	}
	return float64(time.Since(t0).Nanoseconds()) / float64(n)
}
