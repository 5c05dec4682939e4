package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash/crc32"
	"net/http"
	"net/url"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// kind says how a generated request's response is verified.
type kind int

const (
	kStatic   kind = iota // cacheable object: 200, exact length and CRC
	kDynamic              // uncacheable origin page: 200, exact length and CRC
	kRegister             // SPECweb registration handled at the edge
	kProfile              // SPECweb profile read of a registered user
	kRange                // byte range of a large object: 206, bytes equal to Fill
	kWhole                // whole large object: 200, bytes equal to Fill
)

// genReq is one generated client request and what its response must be.
type genReq struct {
	kind kind
	url  string
	// from and to bound a kRange request's bytes, [from, to).
	from, to int64
	// user is the SPECweb user a registration or profile read names.
	user string
	// obj is the large object a kRange or kWhole request reads.
	obj int
	// size and crc describe a kStatic or kDynamic body.
	size int
	crc  uint32
}

// rangeHeader returns the Range header a kRange request sends.
func (r *genReq) rangeHeader() string {
	return fmt.Sprintf("bytes=%d-%d", r.from, r.to-1)
}

// sequence is a workload's generated input: the requests set-up sends to
// reach steady state, then the measured requests the workers cycle
// through, and what every response must carry.
type sequence struct {
	warm []genReq
	reqs []genReq
	// header, when set, must appear with value headerValue on every
	// response (the site script's onResponse stamp).
	header, headerValue string
	// objects holds each large object's content and total their length;
	// set for media_range only.
	objects [][]byte
	total   int64
}

// digest hashes everything the nodes will be sent, so two runs with the
// same seed can be shown to send identical inputs.
func (s *sequence) digest() string {
	h := sha256.New()
	for _, list := range [][]genReq{s.warm, s.reqs} {
		for i := range list {
			r := &list[i]
			fmt.Fprintf(h, "GET %s", r.url)
			if r.kind == kRange {
				fmt.Fprintf(h, " Range: %s", r.rangeHeader())
			}
			h.Write([]byte{'\n'})
		}
		h.Write([]byte{0})
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// verify checks one response against the request's expectation. node is
// the ingress node's name, which must appear exactly once.
func (s *sequence) verify(r *genReq, status int, h http.Header, body []byte, node string) error {
	if got := h.Values("X-Na-Kika-Node"); len(got) != 1 || got[0] != node {
		return fmt.Errorf("%s: X-Na-Kika-Node %q, want exactly [%s]", r.url, got, node)
	}
	if s.header != "" && h.Get(s.header) != s.headerValue {
		return fmt.Errorf("%s: %s %q, want %q", r.url, s.header, h.Get(s.header), s.headerValue)
	}
	switch r.kind {
	case kStatic, kDynamic:
		if status != http.StatusOK {
			return fmt.Errorf("%s: status %d", r.url, status)
		}
		if len(body) != r.size {
			return fmt.Errorf("%s: %d body bytes, want %d", r.url, len(body), r.size)
		}
		if c := crc32.Checksum(body, castagnoli); c != r.crc {
			return fmt.Errorf("%s: body crc %08x, want %08x", r.url, c, r.crc)
		}
	case kRegister:
		if status != http.StatusOK || !bytes.Contains(body, []byte("<p>registered</p><p>user="+r.user+"<")) {
			return fmt.Errorf("%s: status %d, registration page not confirmed", r.url, status)
		}
	case kProfile:
		want := "profile ads=" + strconv.Itoa(len(r.user)%360) + "</p><p>user=" + r.user + "<"
		if status != http.StatusOK || !bytes.Contains(body, []byte(want)) {
			return fmt.Errorf("%s: status %d, profile page lacks %q", r.url, status, want)
		}
	case kRange:
		if status != http.StatusPartialContent {
			return fmt.Errorf("%s %s: status %d, want 206", r.url, r.rangeHeader(), status)
		}
		want := fmt.Sprintf("bytes %d-%d/%d", r.from, r.to-1, s.total)
		if got := h.Get("Content-Range"); got != want {
			return fmt.Errorf("%s: Content-Range %q, want %q", r.url, got, want)
		}
		if int64(len(body)) != r.to-r.from || !bytes.Equal(body, s.objects[r.obj][r.from:r.to]) {
			return fmt.Errorf("%s %s: body differs from the object's bytes", r.url, r.rangeHeader())
		}
	case kWhole:
		if status != http.StatusOK {
			return fmt.Errorf("%s: status %d", r.url, status)
		}
		if int64(len(body)) != s.total || !bytes.Equal(body, s.objects[r.obj]) {
			return fmt.Errorf("%s: whole body differs from the object's bytes (%d bytes)", r.url, len(body))
		}
	default:
		return fmt.Errorf("%s: unknown request kind %d", r.url, r.kind)
	}
	return nil
}

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// client is one generator worker's keep-alive connection to the ingress
// node, used as an HTTP proxy (absolute-URI requests, like curl -x).
type client struct {
	hc  *http.Client
	buf bytes.Buffer
}

func newClient(proxy *url.URL) *client {
	return &client{hc: &http.Client{Transport: &http.Transport{
		Proxy:               http.ProxyURL(proxy),
		MaxConnsPerHost:     1,
		MaxIdleConnsPerHost: 1,
		DisableCompression:  true,
	}}}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// do sends r and reads the whole body into the client's buffer; the
// returned body aliases it until the next call.
func (c *client) do(r *genReq) (int, http.Header, []byte, error) {
	hr, err := http.NewRequest(http.MethodGet, r.url, nil)
	if err != nil {
		return 0, nil, nil, err
	}
	if r.kind == kRange {
		hr.Header.Set("Range", r.rangeHeader())
	}
	resp, err := c.hc.Do(hr)
	if err != nil {
		return 0, nil, nil, err
	}
	defer resp.Body.Close()
	c.buf.Reset()
	if _, err := c.buf.ReadFrom(resp.Body); err != nil {
		return 0, nil, nil, fmt.Errorf("%s: reading body: %w", r.url, err)
	}
	return resp.StatusCode, resp.Header, c.buf.Bytes(), nil
}

// phase is one closed-loop measurement window and the process counters
// taken around it.
type phase struct {
	start, end  time.Time
	elapsed     time.Duration
	attempted   int64
	failed      int64
	writes      int64 // registrations (replicated writes) attempted
	clientBytes int64
	samples     []reqSample // one per attempted request
	failures    []string

	originReqs, originBytes int64
	cpu                     time.Duration
	mallocs                 uint64
	gcCycles                uint32
	gcPauses                []float64 // seconds
}

// reqSample is one request's outcome: when it completed (seconds into the
// phase) and how long it took.
type reqSample struct {
	done, latency float64
}

// windowSize is the fewest requests a window holds, so its p99 has at
// least twenty samples beyond it; maxWindows bounds how many a phase
// splits into.
const (
	windowSize = 2000
	maxWindows = 20
)

// windowStats are the medians, over consecutive equal-count windows of
// the phase's requests in completion order, of each window's request rate
// and latency quantiles. A median over windows keeps a burst of
// interference from the machine's other tenants, which stalls a minority
// of windows, from moving the phase's figures.
type windowStats struct {
	windows, perWindow int
	rps, p50, p99      float64
}

func (ph *phase) windowStats() windowStats {
	s := append([]reqSample(nil), ph.samples...)
	sort.Slice(s, func(i, j int) bool { return s[i].done < s[j].done })
	w := len(s) / windowSize
	if w > maxWindows {
		w = maxWindows
	}
	if w < 1 {
		w = 1
	}
	per := len(s) / w
	var rps, p50, p99 []float64
	prev := 0.0
	for i := 0; i < w; i++ {
		chunk := s[i*per : (i+1)*per]
		end := chunk[len(chunk)-1].done
		lats := make([]float64, len(chunk))
		for j, r := range chunk {
			lats[j] = r.latency
		}
		rps = append(rps, ratio(float64(len(chunk)), end-prev))
		p50 = append(p50, quantile(lats, 0.50))
		p99 = append(p99, quantile(lats, 0.99))
		prev = end
	}
	return windowStats{windows: w, perWindow: per, rps: median(rps), p50: median(p50), p99: median(p99)}
}

// quantile sorts xs in place and returns its nearest-rank q-quantile.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	i := int(q*float64(len(xs))+0.5) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(xs) {
		i = len(xs) - 1
	}
	return xs[i]
}

// processCounters is a snapshot of what the process has spent so far.
type processCounters struct {
	cpu     time.Duration
	mallocs uint64
	numGC   uint32
	pauses  [256]uint64
}

func readProcess() processCounters {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return processCounters{
		cpu:     time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		mallocs: ms.Mallocs,
		numGC:   ms.NumGC,
		pauses:  ms.PauseNs,
	}
}

// peakRSSMB is the process's peak resident set so far.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	return float64(ru.Maxrss) / 1024                // Linux reports KiB
}

// drive runs the closed loop: each worker sends its next request only
// after the previous reply arrived and was verified. Requests are taken
// from list in order through the shared cursor (wrapping around), until
// the deadline passes, or, with a zero duration, until count requests
// were sent.
func drive(clients []*client, list []genReq, seq *sequence, node string, cursor *atomic.Int64, d time.Duration, count int64) *phase {
	ph := &phase{}
	var mu sync.Mutex
	var wg sync.WaitGroup
	var sent atomic.Int64
	ph.start = time.Now()
	deadline := ph.start.Add(d)
	for _, c := range clients {
		wg.Add(1)
		go func(c *client) {
			defer wg.Done()
			var attempted, failed, writes, bytesIn int64
			samples := make([]reqSample, 0, 1<<14)
			var fails []string
			for {
				if d > 0 && !time.Now().Before(deadline) {
					break
				}
				if d == 0 && sent.Add(1) > count {
					break
				}
				r := &list[int(cursor.Add(1)-1)%len(list)]
				t0 := time.Now()
				status, h, body, err := c.do(r)
				t1 := time.Now()
				sample := reqSample{done: t1.Sub(ph.start).Seconds(), latency: t1.Sub(t0).Seconds()}
				attempted++
				if r.kind == kRegister {
					writes++
				}
				if err == nil {
					err = seq.verify(r, status, h, body, node)
				}
				if err != nil {
					failed++
					if len(fails) < 8 {
						fails = append(fails, err.Error())
					}
				} else {
					bytesIn += int64(len(body))
				}
				samples = append(samples, sample)
			}
			mu.Lock()
			ph.attempted += attempted
			ph.failed += failed
			ph.writes += writes
			ph.clientBytes += bytesIn
			ph.samples = append(ph.samples, samples...)
			ph.failures = append(ph.failures, fails...)
			mu.Unlock()
		}(c)
	}
	wg.Wait()
	ph.end = time.Now()
	ph.elapsed = ph.end.Sub(ph.start)
	return ph
}

// gcPausesBetween returns the GC pauses recorded between two snapshots:
// the runtime keeps the most recent 256, so of more cycles only the last
// 256 are seen.
func gcPausesBetween(a, b processCounters) []float64 {
	first := a.numGC
	if b.numGC-first > 256 {
		first = b.numGC - 256
	}
	var out []float64
	for i := first; i < b.numGC; i++ {
		out = append(out, float64(b.pauses[i%256])/1e9)
	}
	return out
}

// selfCheck proves the verifier rejects a corrupted body and an
// off-by-one range before any number is trusted.
func selfCheck() error {
	fill := make([]byte, 1<<16)
	for i := range fill {
		fill[i] = byte(i * 7)
	}
	seq := &sequence{objects: [][]byte{fill}, total: int64(len(fill))}
	page := []byte(strings.Repeat("na kika ", 262))
	static := genReq{kind: kStatic, url: "http://s.example/p", size: len(page), crc: crc32.Checksum(page, castagnoli)}
	rng := genReq{kind: kRange, url: "http://m.example/blob", from: 100, to: 4196}
	hdr := func(extra ...string) http.Header {
		h := http.Header{"X-Na-Kika-Node": {"n"}}
		for i := 0; i+1 < len(extra); i += 2 {
			h.Set(extra[i], extra[i+1])
		}
		return h
	}
	cr := "bytes 100-4195/65536"
	if err := seq.verify(&static, 200, hdr(), page, "n"); err != nil {
		return fmt.Errorf("intact static body rejected: %v", err)
	}
	if err := seq.verify(&rng, 206, hdr("Content-Range", cr), fill[100:4196], "n"); err != nil {
		return fmt.Errorf("intact range rejected: %v", err)
	}
	bad := append([]byte(nil), page...)
	bad[len(bad)/2] ^= 1
	if seq.verify(&static, 200, hdr(), bad, "n") == nil {
		return fmt.Errorf("corrupted static body accepted")
	}
	if seq.verify(&rng, 206, hdr("Content-Range", cr), fill[101:4197], "n") == nil {
		return fmt.Errorf("off-by-one range body accepted")
	}
	if seq.verify(&rng, 206, hdr("Content-Range", "bytes 100-4196/65536"), fill[100:4196], "n") == nil {
		return fmt.Errorf("off-by-one Content-Range accepted")
	}
	twice := hdr()
	twice.Add("X-Na-Kika-Node", "n")
	if seq.verify(&static, 200, twice, page, "n") == nil {
		return fmt.Errorf("duplicated X-Na-Kika-Node accepted")
	}
	return nil
}
