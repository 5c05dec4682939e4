package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"net/url"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"nakika/internal/cache"
	"nakika/internal/core"
	"nakika/internal/overlay"
	"nakika/internal/resource"
	"nakika/internal/store"
	"nakika/internal/transport"
)

// nakikadConfig is the core.Config cmd/nakikad builds from its flag
// defaults (-resource-controls, -cpu-capacity, -replication, -lease-ttl,
// -large-threshold, -segment-size, -large-capacity, -local): resource
// controls and the observability plane on, the large-object tier at
// 1 MiB. A main package cannot be imported, so the values are restated
// here flag by flag.
func nakikadConfig(name, region string) core.Config {
	return core.Config{
		Name:                 name,
		Region:               region,
		ReplicationFactor:    3,
		LeaseTTL:             30 * time.Second,
		EnableResources:      true,
		LargeObjectThreshold: 1 << 20,
		LargeObjectSegment:   256 << 10,
		LargeObjectCapacity:  512 << 20,
		LocalNetworks:        []string{"127.0.0.0/8"},
		Resources: resource.Config{
			Capacity: map[resource.Kind]float64{
				resource.CPU:    50_000_000,
				resource.Memory: 256 << 20,
			},
		},
	}
}

// dataFS is where a node keeps its persistent engines.
type dataFS int

const (
	dataNone dataFS = iota // no data filesystem: hard state and caches in memory
	dataDir                // store.DirFS under the run's work directory
	dataMem                // store.MemFS: the same engines, no device under them
)

// nodeSpec is one node of a deployment.
type nodeSpec struct {
	name, region string
	// data selects the node's data filesystem (WAL, disk cache tier and
	// large-object slab).
	data dataFS
	// cache, diskCache and lobCapacity override the nakikad defaults
	// where the workload sizes a tier against its working set.
	cache       cache.Config
	diskCache   int64
	lobCapacity int64
}

// clusterSpec describes a deployment: its nodes, whether they form a TCP
// overlay, the client region the redirector picks the ingress for, and
// the origin's sites.
type clusterSpec struct {
	nodes        []nodeSpec
	overlay      bool
	clientRegion string
	sites        map[string]http.Handler
	originDelay  time.Duration
}

// deployment is a running set of nodes with their origin, the ingress
// front listener and the generator's clients.
type deployment struct {
	nodes   []*core.Node
	ingress *core.Node
	origin  *originServer
	front   *http.Server
	tcps    []*transport.TCP
	clients []*client
	probe   *probe // nil unless the deployment is traced

	cursor    atomic.Int64
	conns     atomic.Int64 // client connections the front accepted
	stop      chan struct{}
	loops     sync.WaitGroup
	closeOnce sync.Once
	closeErr  error
}

// build starts the origin, the nodes and the ingress front. With traced
// set every injected boundary is wrapped by a probe, switched off until
// the traced phase.
func build(dir string, spec clusterSpec, traced bool, workers int) (*deployment, error) {
	d := &deployment{stop: make(chan struct{})}
	if traced {
		d.probe = newProbe()
	}
	var err error
	if d.origin, err = startOrigin(spec.sites, spec.originDelay); err != nil {
		return nil, err
	}
	if err := d.startNodes(dir, spec); err != nil {
		d.close()
		return nil, err
	}
	for _, n := range d.nodes {
		n := n
		d.loops.Add(1)
		go func() {
			// The congestion controller's loop, at nakikad's period.
			defer d.loops.Done()
			t := time.NewTicker(250 * time.Millisecond)
			defer t.Stop()
			for {
				select {
				case <-d.stop:
					return
				case <-t.C:
					n.Resources().ControlOnce()
				}
			}
		}()
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		d.close()
		return nil, err
	}
	var h http.Handler = d.ingress
	if d.probe != nil {
		h = d.probe.handler(d.ingress)
	}
	d.front = &http.Server{Handler: h}
	go d.front.Serve(countingListener{Listener: ln, n: &d.conns})
	proxy := &url.URL{Scheme: "http", Host: ln.Addr().String()}
	for i := 0; i < workers; i++ {
		d.clients = append(d.clients, newClient(proxy))
	}
	return d, nil
}

func (d *deployment) startNodes(dir string, spec clusterSpec) error {
	n := len(spec.nodes)
	addrs := make([]string, n)
	if spec.overlay {
		for i := 0; i < n; i++ {
			tcp := transport.NewTCP()
			addr, err := tcp.Listen("127.0.0.1:0")
			if err != nil {
				return fmt.Errorf("rpc listen: %w", err)
			}
			d.tcps = append(d.tcps, tcp)
			addrs[i] = addr.String()
		}
	}
	var ingressRing *overlay.Ring
	for i, ns := range spec.nodes {
		cfg := nakikadConfig(ns.name, ns.region)
		cfg.Cache = ns.cache
		cfg.Persist.DiskCacheBytes = ns.diskCache
		if ns.lobCapacity > 0 {
			cfg.LargeObjectCapacity = ns.lobCapacity
		}
		up := d.origin.fetcher()
		cfg.Upstream = up
		if d.probe != nil {
			cfg.Upstream = d.probe.wrapUpstream(up)
		}
		var fs store.FS
		switch ns.data {
		case dataDir:
			dirFS, err := store.NewDirFS(filepath.Join(dir, ns.name))
			if err != nil {
				return err
			}
			fs = dirFS
		case dataMem:
			fs = store.NewMemFS()
		}
		if fs != nil {
			cfg.DataFS = fs
			if d.probe != nil {
				cfg.DataFS = d.probe.fs(fs)
			}
		}
		if spec.overlay {
			// Cluster mode as nakikad runs it: an overlay ring over the TCP
			// transport, every other node a remote member reached through
			// the address book.
			var tr transport.Transport = d.tcps[i]
			if d.probe != nil {
				tr = d.probe.transport(d.tcps[i])
			}
			ring := overlay.NewRing()
			ring.Transport = tr
			for j, peer := range spec.nodes {
				if j != i {
					ring.AddRemote(peer.name, peer.region)
					d.tcps[i].AddPeer(peer.name, addrs[j])
				}
			}
			cfg.Ring = ring
			cfg.Transport = tr
			if i == 0 {
				ingressRing = ring
			}
		}
		if d.probe != nil {
			cfg.TraceRingSize = traceRingSize
		}
		node, err := core.NewNode(cfg)
		if err != nil {
			return err
		}
		d.nodes = append(d.nodes, node)
	}
	d.ingress = d.nodes[0]
	if ingressRing != nil {
		// All clients enter the node the redirector picks for their region.
		name := overlay.NewRedirector(ingressRing).Pick(spec.clientRegion)
		for _, node := range d.nodes {
			if node.Name() == name {
				d.ingress = node
			}
		}
	}
	return nil
}

// warm drives the deployment's set-up requests (every one verified), then
// count requests of the measured sequence, so caches, pools and the
// resource controller's averages reach steady state before measuring.
func (d *deployment) warm(seq *sequence, count int64) error {
	if len(seq.warm) > 0 {
		var cur atomic.Int64
		ph := drive(d.clients, seq.warm, seq, d.ingress.Name(), &cur, 0, int64(len(seq.warm)))
		if ph.failed > 0 {
			return fmt.Errorf("warm-up: %d of %d failed, first: %s", ph.failed, ph.attempted, ph.failures[0])
		}
	}
	if count > 0 {
		ph := drive(d.clients, seq.reqs, seq, d.ingress.Name(), &d.cursor, 0, count)
		if ph.failed > 0 {
			return fmt.Errorf("warm-up: %d of %d failed, first: %s", ph.failed, ph.attempted, ph.failures[0])
		}
	}
	return nil
}

// runPhase measures one closed-loop window over the measured sequence.
func (d *deployment) runPhase(seq *sequence, dur time.Duration) (*phase, error) {
	o0, b0 := d.origin.reqs.Load(), d.origin.bytes.Load()
	p0 := readProcess()
	ph := drive(d.clients, seq.reqs, seq, d.ingress.Name(), &d.cursor, dur, 0)
	p1 := readProcess()
	ph.originReqs = d.origin.reqs.Load() - o0
	ph.originBytes = d.origin.bytes.Load() - b0
	ph.cpu = p1.cpu - p0.cpu
	ph.mallocs = p1.mallocs - p0.mallocs
	ph.gcCycles = p1.numGC - p0.numGC
	ph.gcPauses = gcPausesBetween(p0, p1)
	if ph.attempted == 0 {
		return nil, errors.New("no request completed in the measured phase")
	}
	return ph, nil
}

// close stops everything the deployment started and waits for it.
func (d *deployment) close() error {
	d.closeOnce.Do(func() {
		for _, c := range d.clients {
			c.close()
		}
		if d.front != nil {
			d.front.Close()
		}
		close(d.stop)
		d.loops.Wait()
		for _, t := range d.tcps {
			t.Close()
		}
		for _, n := range d.nodes {
			if err := n.Shutdown(); err != nil && d.closeErr == nil {
				d.closeErr = fmt.Errorf("shutdown %s: %w", n.Name(), err)
			}
		}
		if d.origin != nil {
			d.origin.close()
		}
	})
	return d.closeErr
}

// countingListener counts the connections it accepts.
type countingListener struct {
	net.Listener
	n *atomic.Int64
}

func (l countingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err == nil {
		l.n.Add(1)
	}
	return c, err
}

// originServer is the in-process origin: one loopback HTTP server
// answering for every site by Host header, counting the requests and body
// bytes that reach it.
type originServer struct {
	srv   *http.Server
	addr  string
	sites map[string]http.Handler
	delay time.Duration
	// transports are the nodes' upstream HTTP transports, closed with the
	// origin.
	mu         sync.Mutex
	transports []*http.Transport

	reqs, bytes atomic.Int64
}

func startOrigin(sites map[string]http.Handler, delay time.Duration) (*originServer, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	o := &originServer{addr: ln.Addr().String(), sites: sites, delay: delay}
	o.srv = &http.Server{Handler: o}
	go o.srv.Serve(ln)
	return o, nil
}

func (o *originServer) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	o.reqs.Add(1)
	host := r.Host
	if h, _, err := net.SplitHostPort(host); err == nil {
		host = h
	}
	site := o.sites[host]
	if site == nil {
		// No such site (for example the default administrative walls on
		// nakika.net): the node negative-caches the 404.
		http.NotFound(w, r)
		return
	}
	if o.delay > 0 {
		time.Sleep(o.delay)
	}
	site.ServeHTTP(&countingWriter{ResponseWriter: w, n: &o.bytes}, r)
}

// fetcher returns an upstream for one node: cmd/nakikad's default
// HTTPFetcher, with a dialer that resolves every origin host to this
// server.
func (o *originServer) fetcher() *core.HTTPFetcher {
	var dialer net.Dialer
	tr := &http.Transport{
		DialContext: func(ctx context.Context, network, _ string) (net.Conn, error) {
			return dialer.DialContext(ctx, network, o.addr)
		},
		MaxIdleConnsPerHost: 16,
		DisableCompression:  true,
	}
	o.mu.Lock()
	o.transports = append(o.transports, tr)
	o.mu.Unlock()
	return &core.HTTPFetcher{Client: &http.Client{Transport: tr}}
}

func (o *originServer) close() {
	o.srv.Close()
	o.mu.Lock()
	defer o.mu.Unlock()
	for _, tr := range o.transports {
		tr.CloseIdleConnections()
	}
}

// countingWriter counts the body bytes an origin site writes.
type countingWriter struct {
	http.ResponseWriter
	n *atomic.Int64
}

func (c *countingWriter) Write(p []byte) (int, error) {
	n, err := c.ResponseWriter.Write(p)
	c.n.Add(int64(n))
	return n, err
}

// Flush lets streaming sites (largefile) flush through the counter.
func (c *countingWriter) Flush() {
	if f, ok := c.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}
