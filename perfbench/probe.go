package main

import (
	"io"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"nakika/internal/core"
	"nakika/internal/httpmsg"
	"nakika/internal/store"
	"nakika/internal/transport"
)

// The probe measures the node from outside: it wraps every boundary the
// node already takes as an injected interface — the http.Handler in front
// of Node.ServeHTTP, Config.Upstream (Do and DoStream), the overlay and
// cluster transport's Call, and the data filesystem's file operations —
// and records a duration per crossing while switched on. Switched off, a
// wrapper costs one atomic load.

// traceRingSize is the nodes' sample ring in traced deployments: larger
// than the default so the harvester, polling every harvestEvery, never
// loses a sample to wrap-around.
const (
	traceRingSize = 1 << 14
	harvestEvery  = 200 * time.Millisecond
	captureMax    = 256
)

// recorder collects the durations of one boundary, in seconds.
type recorder struct {
	mu   sync.Mutex
	durs []float64
}

func (r *recorder) add(d time.Duration) {
	r.mu.Lock()
	r.durs = append(r.durs, d.Seconds())
	r.mu.Unlock()
}

// take returns the recorded durations and clears the recorder.
func (r *recorder) take() []float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := r.durs
	r.durs = nil
	return out
}

// fileClass names the store files a data-filesystem operation touched.
type fileClass int

const (
	fileWAL   fileClass = iota // state/wal-*.log, the hard-state log
	fileSlab                   // lob/slot-*.seg, large-object segments
	fileDisk                   // cache/, the disk cache tier
	fileOther                  // snapshots, manifests
	numFileClasses
)

func classify(name string) fileClass {
	switch {
	case strings.HasPrefix(name, "state/wal-"):
		return fileWAL
	case strings.HasPrefix(name, "lob/slot-"):
		return fileSlab
	case strings.HasPrefix(name, "cache/"):
		return fileDisk
	default:
		return fileOther
	}
}

// fileStats are one file class's recorded operations: write and sync
// calls, and whole-file reads and writes (open to close).
type fileStats struct {
	write, sync, readFile, writeFile recorder
	writeBytes                       atomic.Int64
}

// capturedReq is one client request as the front received it, kept so
// the layers without an injectable boundary can be timed on the
// workload's own inputs.
type capturedReq struct {
	method, url, remote string
	header              http.Header
}

type probe struct {
	on atomic.Bool

	serve    recorder
	upstream recorder

	rpcMu     sync.Mutex
	rpc       map[string]*recorder
	rpcErrors atomic.Int64

	files [numFileClasses]fileStats

	capMu    sync.Mutex
	captured []capturedReq
}

func newProbe() *probe { return &probe{rpc: make(map[string]*recorder)} }

// handler wraps the ingress node's http.Handler.
func (p *probe) handler(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !p.on.Load() {
			h.ServeHTTP(w, r)
			return
		}
		p.capMu.Lock()
		if len(p.captured) < captureMax {
			p.captured = append(p.captured, capturedReq{method: r.Method, url: r.URL.String(), remote: r.RemoteAddr, header: r.Header.Clone()})
		}
		p.capMu.Unlock()
		t0 := time.Now()
		h.ServeHTTP(w, r)
		p.serve.add(time.Since(t0))
	})
}

// upstream wraps a node's Config.Upstream, keeping its streaming path.
func (p *probe) wrapUpstream(f *core.HTTPFetcher) core.Fetcher { return &probedUpstream{p: p, f: f} }

type probedUpstream struct {
	p *probe
	f *core.HTTPFetcher
}

func (u *probedUpstream) Do(req *httpmsg.Request) (*httpmsg.Response, error) {
	if !u.p.on.Load() {
		return u.f.Do(req)
	}
	t0 := time.Now()
	resp, err := u.f.Do(req)
	u.p.upstream.add(time.Since(t0))
	return resp, err
}

// DoStream times a streamed fetch from the request to the body's close.
func (u *probedUpstream) DoStream(req *httpmsg.Request) (core.StreamHead, io.ReadCloser, error) {
	if !u.p.on.Load() {
		return u.f.DoStream(req)
	}
	t0 := time.Now()
	head, body, err := u.f.DoStream(req)
	if err != nil {
		u.p.upstream.add(time.Since(t0))
		return head, body, err
	}
	return head, &timedReadCloser{ReadCloser: body, t0: t0, rec: &u.p.upstream}, nil
}

// timedReadCloser records the time from t0 to Close once.
type timedReadCloser struct {
	io.ReadCloser
	t0   time.Time
	rec  *recorder
	once sync.Once
}

func (t *timedReadCloser) Close() error {
	err := t.ReadCloser.Close()
	t.once.Do(func() { t.rec.add(time.Since(t.t0)) })
	return err
}

// transport wraps a node's cluster transport, timing Call by message type.
func (p *probe) transport(t transport.Transport) transport.Transport {
	return &probedTransport{p: p, t: t}
}

type probedTransport struct {
	p *probe
	t transport.Transport
}

func (pt *probedTransport) Register(name string, h transport.Handler) { pt.t.Register(name, h) }
func (pt *probedTransport) Unregister(name string)                    { pt.t.Unregister(name) }

func (pt *probedTransport) Call(from, to string, msg transport.Message) (transport.Message, error) {
	if !pt.p.on.Load() {
		return pt.t.Call(from, to, msg)
	}
	t0 := time.Now()
	reply, err := pt.t.Call(from, to, msg)
	d := time.Since(t0)
	pt.p.rpcMu.Lock()
	r := pt.p.rpc[msg.Type]
	if r == nil {
		r = &recorder{}
		pt.p.rpc[msg.Type] = r
	}
	pt.p.rpcMu.Unlock()
	r.add(d)
	if err != nil {
		pt.p.rpcErrors.Add(1)
	}
	return reply, err
}

// takeRPC returns the recorded RPC durations by message type.
func (p *probe) takeRPC() map[string][]float64 {
	p.rpcMu.Lock()
	defer p.rpcMu.Unlock()
	out := make(map[string][]float64, len(p.rpc))
	for k, r := range p.rpc {
		out[k] = r.take()
	}
	return out
}

// fs wraps a node's data filesystem.
func (p *probe) fs(fs store.FS) store.FS { return &probedFS{p: p, fs: fs} }

type probedFS struct {
	p  *probe
	fs store.FS
}

func (f *probedFS) Create(name string) (store.File, error) {
	return f.wrapFile(name, func() (store.File, error) { return f.fs.Create(name) })
}

func (f *probedFS) OpenAppend(name string) (store.File, error) {
	return f.wrapFile(name, func() (store.File, error) { return f.fs.OpenAppend(name) })
}

func (f *probedFS) wrapFile(name string, open func() (store.File, error)) (store.File, error) {
	t0 := time.Now()
	file, err := open()
	if err != nil {
		return nil, err
	}
	return &probedFile{File: file, p: f.p, st: &f.p.files[classify(name)], t0: t0}, nil
}

func (f *probedFS) Open(name string) (io.ReadCloser, error) {
	t0 := time.Now()
	rc, err := f.fs.Open(name)
	if err != nil || !f.p.on.Load() {
		return rc, err
	}
	return &timedReadCloser{ReadCloser: rc, t0: t0, rec: &f.p.files[classify(name)].readFile}, nil
}

func (f *probedFS) List(prefix string) ([]string, error) { return f.fs.List(prefix) }
func (f *probedFS) Remove(name string) error             { return f.fs.Remove(name) }
func (f *probedFS) Rename(oldName, newName string) error { return f.fs.Rename(oldName, newName) }
func (f *probedFS) SyncDir(name string) error            { return f.fs.SyncDir(name) }

// probedFile times Write and Sync calls, and the whole life of the handle
// (create to close) as one file write.
type probedFile struct {
	store.File
	p  *probe
	st *fileStats
	t0 time.Time
}

func (f *probedFile) Write(b []byte) (int, error) {
	if !f.p.on.Load() {
		return f.File.Write(b)
	}
	t0 := time.Now()
	n, err := f.File.Write(b)
	f.st.write.add(time.Since(t0))
	f.st.writeBytes.Add(int64(n))
	return n, err
}

func (f *probedFile) Sync() error {
	if !f.p.on.Load() {
		return f.File.Sync()
	}
	t0 := time.Now()
	err := f.File.Sync()
	f.st.sync.add(time.Since(t0))
	return err
}

func (f *probedFile) Close() error {
	err := f.File.Close()
	if f.p.on.Load() {
		f.st.writeFile.add(time.Since(f.t0))
	}
	return err
}
