package main

import (
	"fmt"
	"hash/crc32"
	"math/rand"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"time"

	"nakika/internal/apps/largefile"
	"nakika/internal/apps/specweb"
	"nakika/internal/cache"
	"nakika/internal/httpmsg"
)

// workload is one traffic mix: how its inputs are generated from the seed
// and how its deployment is built and warmed.
type workload struct {
	why      string
	generate func(seed int64) *sequence
	setup    func(dir string, seq *sequence, traced bool, workers int) (*deployment, error)
}

var workloads = map[string]*workload{
	"edge_hit": {
		why:      "warm scripted hits on one in-memory node: the per-request fixed cost of the HTTP front, pipeline, policy, vocabulary and script layers",
		generate: edgeHitSequence,
		setup:    edgeHitSetup,
	},
	"specweb": {
		why:      "SPECweb99 mix on a 3-node K=3 TCP cluster: replicated writes, hard-state reads over RPC and every static cache tier block requests",
		generate: specwebSequence,
		setup:    specwebSetup,
	},
	"media_range": {
		why:      "seeded byte-range reads of large objects through a slab half the object set: segment I/O, Range narrowing and LRU refetches dominate",
		generate: mediaSequence,
		setup:    mediaSetup,
	},
}

func workloadNames() []string {
	var names []string
	for k := range workloads {
		names = append(names, k)
	}
	sort.Strings(names)
	return names
}

// ---------------------------------------------------------------------------
// edge_hit
// ---------------------------------------------------------------------------

const (
	edgeHost    = "static.example.org"
	edgeObjects = 64
	// edgeDynamicEvery: one request in this many is an uncacheable page,
	// at a seeded position within each block, so the origin is never idle
	// and its share is exact while p99 still falls among cache hits.
	edgeDynamicEvery = 256
	// googlePageBytes is the paper's micro-benchmark page (Table 2).
	googlePageBytes = 2096
)

// edgeSiteScript is a Match-1 stage whose handlers use the vocabulary:
// onRequest reads the method, URL and client, onResponse stamps a header.
const edgeSiteScript = `
var p = new Policy();
p.url = [ "` + edgeHost + `" ];
p.onRequest = function() {
	var m = Request.method;
	var u = Request.url;
	var c = Request.clientIP;
	if (m != "GET" || u == null || c == null) { Request.terminate(405); }
};
p.onResponse = function() {
	Response.setHeader("X-Edge-Site", "1");
};
p.register();
`

// edgeWallScript is the administrative wall both walls load: a matching
// policy with empty handlers, the paper's Admin configuration.
const edgeWallScript = `
var p = new Policy();
p.url = [ "` + edgeHost + `" ];
p.onRequest = function() { };
p.onResponse = function() { };
p.register();
`

// edgeObject returns static object i's body: 1-8 KB, object 0 the paper's
// 2,096-byte page. The catalogue does not depend on the seed.
func edgeObject(i int) []byte {
	size := googlePageBytes
	if i > 0 {
		size = 1024 + rand.New(rand.NewSource(int64(i))).Intn(7*1024+1)
	}
	return patterned(fmt.Sprintf("<p>object %d</p>\n", i), size)
}

// edgeDynamicPage is the uncacheable search page for query q.
func edgeDynamicPage(q int) []byte {
	return patterned(fmt.Sprintf("<p>results for %d</p>\n", q), googlePageBytes)
}

func patterned(unit string, size int) []byte {
	return []byte(strings.Repeat(unit, size/len(unit)+1)[:size])
}

func edgeHitSequence(seed int64) *sequence {
	seq := &sequence{header: "X-Edge-Site", headerValue: "1"}
	objects := make([]genReq, edgeObjects)
	for i := range objects {
		body := edgeObject(i)
		objects[i] = genReq{kind: kStatic, url: fmt.Sprintf("http://%s/obj/%d", edgeHost, i), size: len(body), crc: crc32.Checksum(body, castagnoli)}
	}
	seq.warm = append(seq.warm, objects...)
	rng := rand.New(rand.NewSource(seed))
	zipf := rand.NewZipf(rng, 1.1, 1, edgeObjects-1)
	dynamicAt := 0
	for i := 0; i < 1<<16; i++ {
		if i%edgeDynamicEvery == 0 {
			dynamicAt = i + rng.Intn(edgeDynamicEvery)
		}
		if i == dynamicAt {
			q := rng.Intn(1000)
			body := edgeDynamicPage(q)
			seq.reqs = append(seq.reqs, genReq{kind: kDynamic, url: fmt.Sprintf("http://%s/search?q=%d", edgeHost, q), size: len(body), crc: crc32.Checksum(body, castagnoli)})
			continue
		}
		seq.reqs = append(seq.reqs, objects[zipf.Uint64()])
	}
	return seq
}

// edgeOrigin serves the static catalogue, the uncacheable search page and
// the site script.
func edgeOrigin() http.Handler {
	bodies := make([][]byte, edgeObjects)
	for i := range bodies {
		bodies[i] = edgeObject(i)
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/nakika.js", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Cache-Control", "max-age=3600")
		fmt.Fprint(w, edgeSiteScript)
	})
	mux.HandleFunc("/obj/", func(w http.ResponseWriter, r *http.Request) {
		i, err := strconv.Atoi(strings.TrimPrefix(r.URL.Path, "/obj/"))
		if err != nil || i < 0 || i >= edgeObjects {
			http.NotFound(w, r)
			return
		}
		w.Header().Set("Content-Type", "text/html")
		w.Header().Set("Cache-Control", "max-age=3600")
		w.Write(bodies[i])
	})
	mux.HandleFunc("/search", func(w http.ResponseWriter, r *http.Request) {
		q, err := strconv.Atoi(r.URL.Query().Get("q"))
		if err != nil {
			http.Error(w, "bad query", http.StatusBadRequest)
			return
		}
		w.Header().Set("Content-Type", "text/html")
		w.Header().Set("Cache-Control", "no-store")
		w.Write(edgeDynamicPage(q))
	})
	return mux
}

// wallOrigin serves both administrative walls at their default URLs
// (http://nakika.net/clientwall.js and serverwall.js).
func wallOrigin() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/clientwall.js" && r.URL.Path != "/serverwall.js" {
			http.NotFound(w, r)
			return
		}
		w.Header().Set("Cache-Control", "max-age=3600")
		fmt.Fprint(w, edgeWallScript)
	})
}

func edgeHitSetup(dir string, seq *sequence, traced bool, workers int) (*deployment, error) {
	d, err := build(dir, clusterSpec{
		nodes: []nodeSpec{{name: "edge-1", region: "local"}},
		sites: map[string]http.Handler{edgeHost: edgeOrigin(), "nakika.net": wallOrigin()},
	}, traced, workers)
	if err != nil {
		return nil, err
	}
	if err := d.warm(seq, 4096); err != nil {
		d.close()
		return nil, err
	}
	return d, nil
}

// ---------------------------------------------------------------------------
// specweb
// ---------------------------------------------------------------------------

// specwebConfig is the SPECweb99 mix: 80% dynamic (15% of it
// registrations), static over the four size classes.
var specwebConfig = specweb.Config{Users: 200}.Defaults()

// specwebStatic returns the URL of static file (class, k) and its body as
// the origin serves it.
func specwebStatic(o *specweb.Origin, class, k int) (string, []byte, error) {
	u := fmt.Sprintf("http://%s/file_set/dir/class%d_%d", specwebConfig.Host, class, k)
	resp, err := o.Do(httpmsg.MustRequest(http.MethodGet, u))
	if err != nil {
		return "", nil, err
	}
	if resp.Status != http.StatusOK {
		return "", nil, fmt.Errorf("specweb origin: %s: status %d", u, resp.Status)
	}
	return u, resp.Body, nil
}

func specwebSequence(seed int64) *sequence {
	ref := specweb.NewOrigin(specwebConfig)
	static := map[string]genReq{}
	seq := &sequence{}
	for u := 0; u < specwebConfig.Users; u++ {
		user := fmt.Sprintf("user-%d", u)
		seq.warm = append(seq.warm, genReq{kind: kRegister, user: user,
			url: fmt.Sprintf("http://%s/cgi-bin/register?user=%s", specwebConfig.Host, user)})
	}
	for class := 0; class < specwebConfig.StaticClasses; class++ {
		for k := 0; k < specwebConfig.StaticPerClass; k++ {
			u, body, err := specwebStatic(ref, class, k)
			if err != nil {
				panic(err) // the reference origin serves every file it lists
			}
			r := genReq{kind: kStatic, url: u, size: len(body), crc: crc32.Checksum(body, castagnoli)}
			static[u] = r
			seq.warm = append(seq.warm, r)
		}
	}
	// Dynamic requests repeat over 200 users; one genReq per distinct URL
	// keeps the long sequence small.
	dynamic := map[string]genReq{}
	for _, g := range specweb.GenerateMix(specwebConfig, 1<<18, seed) {
		r, ok := static[g.URL]
		if !ok {
			if r, ok = dynamic[g.URL]; !ok {
				r = genReq{kind: kProfile, url: g.URL, user: userOf(g.URL)}
				if g.Kind == specweb.ReqRegister {
					r.kind = kRegister
				}
				dynamic[g.URL] = r
			}
		}
		seq.reqs = append(seq.reqs, r)
	}
	return seq
}

func userOf(u string) string { return u[strings.LastIndex(u, "user=")+len("user="):] }

// fetcherSite serves an in-process core.Fetcher-style origin over HTTP.
type fetcherSite func(*httpmsg.Request) (*httpmsg.Response, error)

func (f fetcherSite) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	req, err := httpmsg.FromHTTPRequest(r, 1<<20)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	resp, err := f(req)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadGateway)
		return
	}
	resp.WriteToMethod(w, r.Method)
}

// specwebOrigin is the SPECweb origin plus the nakika.js of the Na Kika
// port, which moves registrations and profiles to the edge.
func specwebOrigin() http.Handler {
	o := specweb.NewOrigin(specwebConfig)
	host := specwebConfig.Host
	return fetcherSite(func(req *httpmsg.Request) (*httpmsg.Response, error) {
		if req.Path() == "/nakika.js" {
			r := httpmsg.NewTextResponse(http.StatusOK, specweb.EdgeScript(host))
			r.SetMaxAge(3600)
			return r, nil
		}
		return o.Do(req)
	})
}

func specwebSetup(dir string, seq *sequence, traced bool, workers int) (*deployment, error) {
	spec := clusterSpec{
		// Static requests spread over every tier by size class: the
		// ingress memory cache (256 KiB) holds the 1 KB and 10 KB classes,
		// the 100 KB class churns through it into the disk tier (512 KiB) and
		// past that to the peers, and the 512 KB class, larger than the
		// memory cache admits, always comes from the origin.
		//
		// The stores run on MemFS: every node still appends to a
		// group-committed WAL and keeps a disk cache tier, but no device
		// sits under them. On a 2-vCPU VM's shared disk, fsync latency swung 3x
		// between runs minutes apart (p50 94-268 us, p99 1.5-9 ms) and throughput
		// with it (2.6k-7k req/s), which no longer run could steady.
		nodes: []nodeSpec{
			{name: "edge-west", region: "us-west", data: dataMem, cache: cache.Config{MaxBytes: 256 << 10}, diskCache: 512 << 10},
			{name: "edge-east", region: "us-east", data: dataMem},
			{name: "edge-eu", region: "eu", data: dataMem},
		},
		overlay:      true,
		clientRegion: "us-west",
		sites:        map[string]http.Handler{specwebConfig.Host: specwebOrigin()},
		// A distant origin: every fetch that reaches it waits 2 ms.
		originDelay: 2 * time.Millisecond,
	}
	d, err := build(dir, spec, traced, workers)
	if err != nil {
		return nil, err
	}
	// The peers hold the three smaller static classes, which the ingress
	// finds through the overlay index; the 512 KB class only the origin.
	ref := specweb.NewOrigin(specwebConfig)
	for _, n := range d.nodes {
		if n == d.ingress {
			continue
		}
		for class := 0; class < 3; class++ {
			for k := 0; k < specwebConfig.StaticPerClass; k++ {
				u, _, err := specwebStatic(ref, class, k)
				if err == nil {
					var resp *httpmsg.Response
					resp, _, err = n.Handle(httpmsg.MustRequest(http.MethodGet, u))
					if err == nil && resp.Status != http.StatusOK {
						err = fmt.Errorf("%s: status %d", u, resp.Status)
					}
				}
				if err != nil {
					d.close()
					return nil, fmt.Errorf("warming %s: %w", n.Name(), err)
				}
			}
		}
	}
	if err := d.warm(seq, 4096); err != nil {
		d.close()
		return nil, err
	}
	return d, nil
}

// ---------------------------------------------------------------------------
// media_range
// ---------------------------------------------------------------------------

const (
	mediaObjects     = 8
	mediaObjectBytes = 4 << 20
	// The slab holds half the object set, so the Zipf tail refetches.
	mediaSlabBytes = mediaObjects * mediaObjectBytes / 2
	mediaMinRange  = 64 << 10
	mediaMaxRange  = 1 << 20
	// Whole-object reads stay well under 1% of requests, so p99 falls
	// inside the many range reads rather than on the boundary between
	// them and the few 4 MiB reads.
	mediaWholeShare  = 0.0025
	mediaRequestsLen = 1 << 14
)

func mediaHost(i int) string { return fmt.Sprintf("m%d.media.example", i) }

// mediaBase is where object i starts in largefile's offset-derived
// content. largefile.Fill repeats every 23 segments at 256 KiB alignment
// and the tier addresses segments by content, so objects that all began at
// offset 0 would share one small set of segments. A distinct base per
// object, off the 8 KiB grid Fill's pattern steps on, keeps every object's
// segments distinct; 4 MiB objects (16 segments) repeat none internally.
func mediaBase(i int) int64 { return int64(i) * (mediaObjectBytes + 4099) }

// mediaSite serves object i at /blob with single-range support, and the
// header-only largefile.EdgeScript as the site's nakika.js.
type mediaSite struct {
	host string
	base int64
}

func (m mediaSite) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	switch r.URL.Path {
	case "/nakika.js":
		w.Header().Set("Cache-Control", "max-age=3600")
		fmt.Fprint(w, largefile.EdgeScript(m.host))
		return
	case "/blob":
	default:
		http.NotFound(w, r)
		return
	}
	from, to := int64(0), int64(mediaObjectBytes)
	status := http.StatusOK
	if spec := r.Header.Get("Range"); spec != "" {
		f, t, err := httpmsg.ParseRange(spec, mediaObjectBytes)
		switch err {
		case nil:
			from, to, status = f, t, http.StatusPartialContent
			w.Header().Set("Content-Range", fmt.Sprintf("bytes %d-%d/%d", from, to-1, mediaObjectBytes))
		case httpmsg.ErrNotRange:
		default:
			http.Error(w, "range not satisfiable", http.StatusRequestedRangeNotSatisfiable)
			return
		}
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("Cache-Control", "max-age=600")
	w.Header().Set("Accept-Ranges", "bytes")
	w.Header().Set("Content-Length", strconv.FormatInt(to-from, 10))
	w.WriteHeader(status)
	buf := make([]byte, 64<<10)
	for off := from; off < to && r.Method != http.MethodHead; {
		n := min(int64(len(buf)), to-off)
		largefile.Fill(buf[:n], m.base+off)
		if _, err := w.Write(buf[:n]); err != nil {
			return
		}
		off += n
	}
}

func mediaSequence(seed int64) *sequence {
	seq := &sequence{header: "X-Largefile-Edge", headerValue: "1", total: mediaObjectBytes}
	for i := 0; i < mediaObjects; i++ {
		content := make([]byte, mediaObjectBytes)
		largefile.Fill(content, mediaBase(i))
		seq.objects = append(seq.objects, content)
		seq.warm = append(seq.warm, genReq{kind: kWhole, obj: i, url: "http://" + mediaHost(i) + "/blob"})
	}
	rng := rand.New(rand.NewSource(seed))
	zipf := rand.NewZipf(rng, 1.1, 1, mediaObjects-1)
	for i := 0; i < mediaRequestsLen; i++ {
		obj := int(zipf.Uint64())
		u := "http://" + mediaHost(obj) + "/blob"
		if rng.Float64() < mediaWholeShare {
			seq.reqs = append(seq.reqs, genReq{kind: kWhole, obj: obj, url: u})
			continue
		}
		n := mediaMinRange + rng.Int63n(mediaMaxRange-mediaMinRange+1)
		from := rng.Int63n(mediaObjectBytes - n + 1)
		seq.reqs = append(seq.reqs, genReq{kind: kRange, obj: obj, url: u, from: from, to: from + n})
	}
	return seq
}

func mediaSetup(dir string, seq *sequence, traced bool, workers int) (*deployment, error) {
	sites := map[string]http.Handler{}
	for i := 0; i < mediaObjects; i++ {
		sites[mediaHost(i)] = mediaSite{host: mediaHost(i), base: mediaBase(i)}
	}
	d, err := build(dir, clusterSpec{
		nodes: []nodeSpec{{name: "edge-media", region: "local", data: dataDir, lobCapacity: mediaSlabBytes}},
		sites: sites,
	}, traced, workers)
	if err != nil {
		return nil, err
	}
	if err := d.warm(seq, 512); err != nil {
		d.close()
		return nil, err
	}
	return d, nil
}
