package main

import (
	"fmt"
	"net/http"
	"runtime"
	"strings"
	"sync"
	"time"

	"nakika/internal/core"
	"nakika/internal/httpmsg"
	"nakika/internal/pipeline"
	"nakika/internal/policy"
	"nakika/internal/script"
	"nakika/internal/store"
	"nakika/internal/vocab"
)

// rpcTypes are the message types whose round trip is reported by name.
var rpcTypes = []string{"rep.put", "rep.get", "rep.store", "cache.get", "ov.locate", "ov.publish", "lob.seg"}

// nodeSnap is one node's counters at a point in time.
type nodeSnap struct {
	st    core.Stats
	store store.LogStats
	lob   core.LargeObjectStats
}

func (d *deployment) snapshot() []nodeSnap {
	out := make([]nodeSnap, len(d.nodes))
	for i, n := range d.nodes {
		out[i] = nodeSnap{st: n.Stats(), store: n.StoreStats(), lob: n.LargeObject()}
	}
	return out
}

// spanRec is the part of one recorded request sample the ledger needs:
// the node's own time and its child spans, by stage.
type spanRec struct {
	elapsed                               float64
	serverwall, site, clientwall, origin  float64
	ranServerwall, ranSite, ranClientwall bool
	handlerSpans                          int
}

// harvester polls the ingress node's trace ring while the traced phase
// runs, keeping each sample that started inside the window once.
type harvester struct {
	d       *deployment
	from    time.Time
	seen    map[uint64]bool
	recs    []spanRec
	stop    chan struct{}
	stopped sync.WaitGroup
}

func startHarvest(d *deployment, from time.Time) *harvester {
	h := &harvester{d: d, from: from, seen: make(map[uint64]bool), stop: make(chan struct{})}
	h.stopped.Add(1)
	go func() {
		defer h.stopped.Done()
		t := time.NewTicker(harvestEvery)
		defer t.Stop()
		for {
			select {
			case <-h.stop:
				return
			case <-t.C:
				h.poll(time.Time{})
			}
		}
	}()
	return h
}

// finish stops polling and takes a last pass over samples started
// before until.
func (h *harvester) finish(until time.Time) []spanRec {
	close(h.stop)
	h.stopped.Wait()
	h.poll(until)
	return h.recs
}

func (h *harvester) poll(until time.Time) {
	for _, s := range h.d.ingress.Traces().Snapshot() {
		if h.seen[s.TraceID] || s.Start.Before(h.from) || (!until.IsZero() && s.Start.After(until)) {
			continue
		}
		h.seen[s.TraceID] = true
		r := spanRec{elapsed: s.Elapsed.Seconds()}
		for _, sp := range s.Spans {
			d := sp.Dur.Seconds()
			switch {
			case sp.Name == "origin":
				r.origin += d
				continue
			case strings.HasSuffix(sp.Name, "/serverwall.js"):
				r.serverwall += d
				r.ranServerwall = true
			case strings.HasSuffix(sp.Name, "/clientwall.js"):
				r.clientwall += d
				r.ranClientwall = true
			default:
				r.site += d
				r.ranSite = true
			}
			r.handlerSpans++
		}
		h.recs = append(h.recs, r)
	}
}

// runTraced splits the measured time into an untraced and a traced half
// and derives the per-layer metrics from the traced one.
func (d *deployment) runTraced(seq *sequence, measure time.Duration, setupS float64) (result, error) {
	half := measure / 2
	s0 := d.snapshot()
	un, err := d.runPhase(seq, half)
	if err != nil {
		return result{}, err
	}
	printPhase("untraced", un)
	s1 := d.snapshot()
	d.probe.on.Store(true)
	h := startHarvest(d, time.Now())
	tr, err := d.runPhase(seq, measure-half)
	d.probe.on.Store(false)
	if err != nil {
		h.finish(time.Now())
		return result{}, err
	}
	recs := h.finish(tr.end)
	printPhase("traced", tr)
	s2 := d.snapshot()

	l := &ledger{m: map[string]metric{}, n: float64(tr.attempted)}
	l.fromPhases(un, tr, s0, s1, s2, d.ingressIndex())
	pd := d.probe.take()
	l.fromProbe(pd, recs)
	l.fromMicro(d.microLayers())
	l.printDecomposition(pd, recs)
	fmt.Printf("setup_s median %.3fs (reported by the untraced run)\n", setupS)
	return result{
		Correct:   un.failed+tr.failed == 0,
		Attempted: un.attempted + tr.attempted,
		Failed:    un.failed + tr.failed,
		Metrics:   l.m,
	}, nil
}

func (d *deployment) ingressIndex() int {
	for i, n := range d.nodes {
		if n == d.ingress {
			return i
		}
	}
	return 0
}

// ledger accumulates the per-layer metrics of one traced run. n is the
// traced phase's request count, the base of every per-request figure.
type ledger struct {
	m map[string]metric
	n float64

	// Figures the decomposition prints next to the spans.
	matchNs, bindReqNs, bindRespNs, callNs, cacheGetNs float64
}

func (l *ledger) set(name string, v float64, unit string) { l.m[name] = metric{v, unit} }

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func p50us(xs []float64) float64 { return quantile(xs, 0.50) * 1e6 }

func (l *ledger) fromPhases(un, tr *phase, s0, s1, s2 []nodeSnap, ing int) {
	a, b := s1[ing].st, s2[ing].st
	hits := float64(b.CacheHits - a.CacheHits)
	peers := float64(b.PeerHits - a.PeerHits)
	origin := float64(b.OriginFetches - a.OriginFetches)
	fetches := hits + peers + origin
	l.set("core.cache_hit_ratio", ratio(hits, fetches), "ratio")
	l.set("core.peer_hit_ratio", ratio(peers, fetches), "ratio")
	l.set("core.coalesced_per_kreq", float64(b.CoalescedFetches-a.CoalescedFetches)*1000/l.n, "count")

	ca, cb := a.Cache, b.Cache
	l.set("cache.l2_hit_ratio", ratio(float64(cb.DiskHits-ca.DiskHits), float64(cb.DiskHits-ca.DiskHits+cb.Misses-ca.Misses)), "ratio")
	l.set("cache.evictions_per_kreq", float64(cb.Evictions-ca.Evictions)*1000/l.n, "count")

	var appends, syncs, pushes, forwarded, throttled, terminated int64
	for i := range s2 {
		appends += int64(s2[i].store.Appends - s1[i].store.Appends)
		syncs += int64(s2[i].store.Syncs - s1[i].store.Syncs)
		pushes += s2[i].st.Replication.ReplicaPushes - s1[i].st.Replication.ReplicaPushes
		forwarded += s2[i].st.Replication.ForwardedOps - s1[i].st.Replication.ForwardedOps
		throttled += s2[i].st.Resources.Throttled - s0[i].st.Resources.Throttled
		terminated += s2[i].st.Resources.Terminations - s0[i].st.Resources.Terminations
	}
	l.set("store.records_per_fsync", ratio(float64(appends), float64(syncs)), "count")
	l.set("state.replica_pushes_per_write", ratio(float64(pushes), float64(tr.writes)), "count")
	l.set("state.forwarded_ops_per_kreq", float64(forwarded)*1000/l.n, "count")
	l.set("resource.throttled", float64(throttled), "count")
	l.set("resource.terminated", float64(terminated), "count")

	la, lb := s1[ing].lob, s2[ing].lob
	l.set("largeobject.resident_ratio", ratio(float64(lb.Tier.Slab.Hits-la.Tier.Slab.Hits), float64(lb.Tier.Slab.Hits-la.Tier.Slab.Hits+lb.Tier.Slab.Misses-la.Tier.Slab.Misses)), "ratio")
	l.set("largeobject.range_refetch_per_kreq", float64(lb.SegOriginFetches-la.SegOriginFetches)*1000/l.n, "count")

	l.set("runtime.gc_cycles_per_kreq", float64(tr.gcCycles)*1000/l.n, "count")
	l.set("runtime.gc_pause_us_p99", quantile(tr.gcPauses, 0.99)*1e6, "us")

	unRPS := float64(un.attempted) / un.elapsed.Seconds()
	trRPS := float64(tr.attempted) / tr.elapsed.Seconds()
	l.set("trace.overhead_pct", (1-ratio(trRPS, unRPS))*100, "%")
	fmt.Printf("trace overhead: untraced %.1f req/s, traced %.1f req/s\n", unRPS, trRPS)
}

// probeData is everything the probe recorded during the traced phase.
type probeData struct {
	serve, upstream                                  []float64
	rpc                                              map[string][]float64
	rpcErrors                                        int64
	walWrite, walSync, slabRead, slabWrite, diskFile []float64
	walBytes                                         int64
}

func (p *probe) take() probeData {
	pd := probeData{
		serve:     p.serve.take(),
		upstream:  p.upstream.take(),
		rpc:       p.takeRPC(),
		rpcErrors: p.rpcErrors.Load(),
		walWrite:  p.files[fileWAL].write.take(),
		walSync:   p.files[fileWAL].sync.take(),
		walBytes:  p.files[fileWAL].writeBytes.Load(),
		slabRead:  p.files[fileSlab].readFile.take(),
		slabWrite: p.files[fileSlab].writeFile.take(),
	}
	pd.diskFile = append(p.files[fileDisk].readFile.take(), p.files[fileDisk].writeFile.take()...)
	return pd
}

func (l *ledger) fromProbe(pd probeData, recs []spanRec) {
	l.set("core.serve_us_p50", p50us(pd.serve), "us")
	l.set("core.serve_us_p99", quantile(pd.serve, 0.99)*1e6, "us")

	var self, sw, site, cw []float64
	var handlers int
	for _, r := range recs {
		self = append(self, r.elapsed-r.serverwall-r.site-r.clientwall-r.origin)
		if r.ranServerwall {
			sw = append(sw, r.serverwall)
		}
		if r.ranSite {
			site = append(site, r.site)
		}
		if r.ranClientwall {
			cw = append(cw, r.clientwall)
		}
		handlers += r.handlerSpans
	}
	l.set("core.self_us_p50", p50us(self), "us")
	l.set("pipeline.serverwall_us_p50", p50us(sw), "us")
	l.set("pipeline.site_us_p50", p50us(site), "us")
	l.set("pipeline.clientwall_us_p50", p50us(cw), "us")
	l.set("pipeline.handler_runs_per_req", ratio(float64(handlers), float64(len(recs))), "count")

	l.set("origin.fetch_us_p50", p50us(pd.upstream), "us")

	l.set("store.wal_write_us_p50", p50us(pd.walWrite), "us")
	l.set("store.fsync_us_p50", p50us(pd.walSync), "us")
	l.set("store.fsync_us_p99", quantile(pd.walSync, 0.99)*1e6, "us")
	l.set("store.bytes_per_write", ratio(float64(pd.walBytes), float64(len(pd.walWrite))), "B")

	l.set("largeobject.slab_read_us_p50", p50us(pd.slabRead), "us")
	l.set("largeobject.slab_write_us_p50", p50us(pd.slabWrite), "us")
	l.set("largeobject.segments_read_per_req", float64(len(pd.slabRead))/l.n, "count")

	calls := 0
	for _, durs := range pd.rpc {
		calls += len(durs)
	}
	for _, typ := range rpcTypes {
		l.set("transport.rpc_us_p50."+typ, p50us(pd.rpc[typ]), "us")
	}
	l.set("transport.rpcs_per_req", float64(calls)/l.n, "count")
	l.set("transport.rpc_errors", float64(pd.rpcErrors), "count")
}

// microResult holds the layers timed directly on captured inputs.
type microResult struct {
	matches, binds, calls, gets int
	matchDur, bindReqDur        time.Duration
	bindRespDur, callDur        time.Duration
	getDur                      time.Duration
	bindMallocs                 uint64
	requests                    int
}

func (l *ledger) fromMicro(mr microResult) {
	l.matchNs = ratio(float64(mr.matchDur.Nanoseconds()), float64(mr.matches))
	l.bindReqNs = ratio(float64(mr.bindReqDur.Nanoseconds()), float64(mr.binds))
	l.bindRespNs = ratio(float64(mr.bindRespDur.Nanoseconds()), float64(mr.binds))
	l.callNs = ratio(float64(mr.callDur.Nanoseconds()), float64(mr.calls))
	l.cacheGetNs = ratio(float64(mr.getDur.Nanoseconds()), float64(mr.gets))
	l.set("policy.match_ns", l.matchNs, "ns")
	l.set("vocab.bind_request_ns", l.bindReqNs, "ns")
	l.set("vocab.bind_response_ns", l.bindRespNs, "ns")
	l.set("vocab.bind_allocs", ratio(float64(mr.bindMallocs), float64(mr.binds)), "count")
	l.set("script.call_ns", l.callNs, "ns")
	l.set("cache.get_ns", l.cacheGetNs, "ns")
	fmt.Printf("micro layers on %d captured requests: %d matches, %d bind pairs, %d handler calls, %d cache gets\n",
		mr.requests, mr.matches, mr.binds, mr.calls, mr.gets)
}

// microReps is how often each captured request is replayed into a layer.
const microReps = 64

// microLayers times the layers that have no injectable boundary — the
// stage's policy match, the vocabulary bindings, the handler call and
// the proxy cache lookup — on the requests the front captured during the
// traced phase, against the stages the ingress node has loaded.
// Registrations are skipped: their handler writes replicated state.
func (d *deployment) microLayers() microResult {
	var mr microResult
	d.probe.capMu.Lock()
	captured := d.probe.captured
	d.probe.capMu.Unlock()
	loader := d.ingress.Loader()
	for _, c := range captured {
		hr, err := http.NewRequest(c.method, c.url, nil)
		if err != nil {
			continue
		}
		hr.Header = c.header
		hr.RemoteAddr = c.remote
		req, err := httpmsg.FromHTTPRequest(hr, 8<<20)
		if err != nil || strings.HasSuffix(req.Path(), "/register") {
			continue
		}
		mr.requests++
		in := policy.Input{Host: req.Host(), Port: req.URL.Port(), Path: req.Path(), ClientIP: req.ClientIP, Method: req.Method, Header: req.Header}
		site := req.SiteKey()
		urls := []string{pipeline.DefaultServerWallURL, "http://" + req.URL.Host + "/" + pipeline.SiteScriptName, pipeline.DefaultClientWallURL}
		for _, u := range urls {
			stage, err := loader.Load(u, site)
			if err != nil {
				continue
			}
			t0 := time.Now()
			var pol *policy.Policy
			for i := 0; i < microReps; i++ {
				pol = stage.Match(in)
			}
			mr.matchDur += time.Since(t0)
			mr.matches += microReps
			if pol == nil || (pol.OnRequest == nil && pol.OnResponse == nil) {
				continue
			}
			resp := d.ingress.CacheGet(req.CacheKey())
			if resp == nil {
				resp = vocab.NewGeneratedResponse()
			}
			_ = stage.WithRun(func(run *pipeline.Run) error {
				ctx := run.Ctx
				var ms0, ms1 runtime.MemStats
				runtime.ReadMemStats(&ms0)
				t0 := time.Now()
				for i := 0; i < microReps; i++ {
					vocab.BindRequest(ctx, req)
				}
				t1 := time.Now()
				for i := 0; i < microReps; i++ {
					vocab.BindResponse(ctx, resp)
				}
				t2 := time.Now()
				runtime.ReadMemStats(&ms1)
				mr.bindReqDur += t1.Sub(t0)
				mr.bindRespDur += t2.Sub(t1)
				mr.bindMallocs += ms1.Mallocs - ms0.Mallocs
				mr.binds += microReps
				for _, hv := range []script.Value{pol.OnRequest, pol.OnResponse} {
					if hv == nil {
						continue
					}
					fn := run.Handler(hv)
					t0 := time.Now()
					for i := 0; i < microReps; i++ {
						if _, err := ctx.Call(fn, script.Undefined{}); err != nil {
							return err
						}
						req.ClearTermination()
					}
					mr.callDur += time.Since(t0)
					mr.calls += microReps
				}
				return nil
			})
		}
		t0 := time.Now()
		for i := 0; i < microReps; i++ {
			d.ingress.Cache().Get(req.CacheKey())
		}
		mr.getDur += time.Since(t0)
		mr.gets += microReps
	}
	return mr
}

// printDecomposition prints the ingress node's blocking path, layer by
// layer, against core.serve_us_p50: the median of each layer's own time
// and, in brackets, its per-request mean (means add up exactly), then
// what the layer medians leave unexplained.
func (l *ledger) printDecomposition(pd probeData, recs []spanRec) {
	var elapsed, self, sw, site, cw, origin []float64
	var sumElapsed, sumSelf, sumSW, sumSite, sumCW, sumOrigin float64
	for _, r := range recs {
		s := r.elapsed - r.serverwall - r.site - r.clientwall - r.origin
		elapsed = append(elapsed, r.elapsed)
		self = append(self, s)
		sw = append(sw, r.serverwall)
		site = append(site, r.site)
		cw = append(cw, r.clientwall)
		origin = append(origin, r.origin)
		sumElapsed += r.elapsed
		sumSelf += s
		sumSW += r.serverwall
		sumSite += r.site
		sumCW += r.clientwall
		sumOrigin += r.origin
	}
	n := float64(len(recs))
	serveP50 := p50us(pd.serve)
	nodeP50 := p50us(elapsed)
	rows := []struct {
		name      string
		p50, mean float64
		note      string
	}{
		{"http front (ServeHTTP - node)", serveP50 - nodeP50, (mean(pd.serve) - ratio(sumElapsed, n)) * 1e6,
			"request staging, Range narrowing, response write"},
		{"core self (node - child spans)", p50us(self), ratio(sumSelf, n) * 1e6,
			fmt.Sprintf("includes 3 policy matches ~ %.2f", 3*l.matchNs/1e3)},
		{"pipeline serverwall span", p50us(sw), ratio(sumSW, n) * 1e6, ""},
		{"pipeline site span", p50us(site), ratio(sumSite, n) * 1e6,
			fmt.Sprintf("bind req+resp ~ %.2f, one handler call ~ %.2f", (l.bindReqNs+l.bindRespNs)/1e3, l.callNs/1e3)},
		{"pipeline clientwall span", p50us(cw), ratio(sumCW, n) * 1e6, ""},
		{"origin span (cache, peer or origin fetch)", p50us(origin), ratio(sumOrigin, n) * 1e6,
			fmt.Sprintf("cache.get ~ %.2f", l.cacheGetNs/1e3)},
	}
	fmt.Printf("blocking path at the ingress node, us (%d traced samples; p50, [mean]):\n", len(recs))
	fmt.Printf("  %-44s %10.2f  [mean %8.2f]\n", "core.serve_us_p50", serveP50, mean(pd.serve)*1e6)
	sum, sumMean := 0.0, 0.0
	for _, r := range rows {
		sum += r.p50
		sumMean += r.mean
		fmt.Printf("    %-42s %10.2f  [mean %8.2f]  %s\n", r.name, r.p50, r.mean, r.note)
	}
	fmt.Printf("    %-42s %10.2f  [mean %8.2f]  core.serve minus the layers above\n", "unexplained remainder", serveP50-sum, mean(pd.serve)*1e6-sumMean)
	perReq := func(xs ...[]float64) float64 {
		t := 0.0
		for _, x := range xs {
			for _, v := range x {
				t += v
			}
		}
		return t / l.n * 1e6
	}
	var rpcs [][]float64
	for _, durs := range pd.rpc {
		rpcs = append(rpcs, durs)
	}
	fmt.Printf("  boundaries crossed inside those layers, us per request:\n")
	fmt.Printf("    %-42s %10.2f\n", "transport RPC round trips", perReq(rpcs...))
	fmt.Printf("    %-42s %10.2f\n", "WAL writes and fsyncs", perReq(pd.walWrite, pd.walSync))
	fmt.Printf("    %-42s %10.2f\n", "disk cache tier files", perReq(pd.diskFile))
	fmt.Printf("    %-42s %10.2f\n", "slab segment reads and writes", perReq(pd.slabRead, pd.slabWrite))
	fmt.Printf("    %-42s %10.2f\n", "upstream origin fetches", perReq(pd.upstream))
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t / float64(len(xs))
}
