package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/codec"
	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/field"
	"repro/internal/flightrec"
	"repro/internal/server"
	"repro/internal/telemetry"
)

// The ocean-serve workload: an in-process topozipd with its default
// admission sizing, driven as a closed loop by serveClients callers that
// each wait for their reply before sending the next request.
const (
	serveNX, serveNY = 192, 192
	serveClients     = 2
	serveSpec        = core.ST1 // the `cpbench load` default
)

// Request kinds, in the order of the compress:decompress:verify mix.
const (
	kindCompress = iota
	kindDecompress
	kindVerify
	numKinds
)

var kindNames = [numKinds]string{"compress", "decompress", "verify"}

// serveMix is the compress:decompress:verify request ratio; serveBlock is
// its sum, the length of one shuffled block of the request order.
var serveMix = [numKinds]int{6, 2, 2}

const serveBlock = 10

// serveLayers are the layers ocean-serve's traced run measures. The 2D
// kernel and the entropy coders run inside the daemon and the shm
// pipeline, and are measured there as server and shm time.
var serveLayers = []string{"bench", "datagen", "fixed", "cp", "codec", "shm", "server"}

func runOceanServe(cfg config, rep *report) error {
	var col *telemetry.Collector
	if cfg.trace {
		col = telemetry.New()
	}
	spool := filepath.Join(cfg.outDir, "spool")
	var d *daemon
	var t *serveTarget
	stop := func() {
		if err := d.stop(); err != nil {
			rep.problem("daemon stop: %v", err)
		}
		d = nil
	}
	s, err := repeatSetup(rep, func() (*subject, error) {
		sp := col.Span("bench.setup")
		defer sp.End()
		var f *field.Field2D
		timed(sp, "datagen.ocean", func() { f = datagen.Ocean(serveNX, serveNY) })
		s, err := newSubject(vfield{f2: f}, serveSpec, sp)
		if err != nil {
			return nil, err
		}
		if t, err = newServeTarget(s, sp); err != nil {
			return nil, err
		}
		timed(sp, "server.boot", func() { d, err = startDaemon(spool) })
		return s, err
	}, stop)
	if d != nil {
		defer stop()
	}
	if err != nil {
		return err
	}
	kinds := requestOrder(cfg.seed)
	// Warm-up: one block of the mix, checked but not timed, opens the
	// clients' connections and grows the daemon's heap and pools.
	d.checkAfterLoad(rep, d.load(t, kinds, serveClients, 0, serveBlock, nil))

	if !cfg.trace {
		lr := d.load(t, kinds, serveClients, cfg.measure, 0, nil)
		serveEndToEnd(rep, t, lr)
		d.checkAfterLoad(rep, lr)
		return setPeakRSS(rep)
	}
	lr := d.load(t, kinds, serveClients, cfg.measure, 0, col)
	d.checkAfterLoad(rep, lr)
	serverLayerMetrics(rep, lr)
	rep.set("bench.trace_overhead_pct", overheadPct(lr.compressMBps(t, false), lr.compressMBps(t, true)))
	rep.set("cp.critical_points", float64(len(s.cps)))
	// The containment sweep times the 3D predicate nek-st4 compresses with.
	rep.set("cp.contains_ns_per_cell", 0)
	if err := shmSweep(rep, s, col); err != nil {
		return err
	}
	return finishTrace(rep, col, cfg, "ocean-serve", serveLayers)
}

// requestOrder is the seed's request sequence: blocks of ten requests in
// the exact serveMix proportions, each block shuffled.
func requestOrder(seed int64) []int {
	rng := rand.New(rand.NewSource(seed))
	var block []int
	for k, n := range serveMix {
		for i := 0; i < n; i++ {
			block = append(block, k)
		}
	}
	var order []int
	for b := 0; b < 100; b++ {
		rng.Shuffle(len(block), func(i, j int) { block[i], block[j] = block[j], block[i] })
		order = append(order, block...)
	}
	return order
}

// serveTarget is a request body per kind and the response each must get.
type serveTarget struct {
	s         *subject
	paths     [numKinds]string
	bodies    [numKinds][]byte
	container []byte // the compress response: an in-process codec compress of the body
	decoded   []byte // the decompress response: the container decoded to raw bytes
}

// newServeTarget builds the request bodies and expected responses for a
// subject. The expected container comes from the codec in process, and is
// itself checked: it must decode within the error contract and with every
// critical point preserved.
func newServeTarget(s *subject, sp *telemetry.Span) (*serveTarget, error) {
	t := &serveTarget{s: s}
	raw, err := s.orig.raw()
	if err != nil {
		return nil, err
	}
	c, err := codec.Lookup(codec.FormatCP, 0)
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	timed(sp, "codec.compress", func() {
		_, err = c.Compress(s.orig.source(), &buf, codec.Params{Tau: tauRel, Spec: s.spec.String()})
	})
	if err != nil {
		return nil, fmt.Errorf("codec compress: %w", err)
	}
	t.container = buf.Bytes()
	var dec vfield
	timed(sp, "shm.decompress", func() { dec, err = shmDecompress(t.container, 0) })
	if err != nil {
		return nil, fmt.Errorf("decode the expected container: %w", err)
	}
	if _, _, err := s.checkDecoded(dec, sp); err != nil {
		return nil, fmt.Errorf("expected container: %w", err)
	}
	if t.decoded, err = dec.raw(); err != nil {
		return nil, err
	}
	dims := make([]string, 0, 3)
	for _, n := range s.orig.dims() {
		dims = append(dims, strconv.Itoa(n))
	}
	q := fmt.Sprintf("?dims=%s&tau=%g&spec=%s", strings.Join(dims, "x"), tauRel, s.spec)
	t.paths = [numKinds]string{"/v1/compress" + q, "/v1/decompress", "/v1/verify" + q}
	t.bodies = [numKinds][]byte{raw, t.container, raw}
	return t, nil
}

// check validates one response: the exact expected bytes for compress and
// decompress, a preserving report for verify.
func (t *serveTarget) check(kind, status int, body []byte) error {
	if status != http.StatusOK {
		return fmt.Errorf("%s: status %d: %.200s", kindNames[kind], status, body)
	}
	switch kind {
	case kindCompress:
		if !bytes.Equal(body, t.container) {
			return errors.New("compress: response differs from the in-process codec output")
		}
	case kindDecompress:
		if !bytes.Equal(body, t.decoded) {
			return errors.New("decompress: response differs from the expected raw bytes")
		}
	case kindVerify:
		var v struct {
			TP, FP, FN, FT  int
			Preserved       bool
			CompressedBytes int `json:"compressed_bytes"`
		}
		if err := json.Unmarshal(body, &v); err != nil {
			return fmt.Errorf("verify: %w", err)
		}
		if !v.Preserved || v.FP+v.FN+v.FT != 0 || v.TP != len(t.s.cps) || v.CompressedBytes != len(t.container) {
			return fmt.Errorf("verify: report %.200s does not match the expected preservation", body)
		}
	}
	return nil
}

// daemon is an in-process topozipd on a loopback port.
type daemon struct {
	srv    *server.Server
	base   string
	client *http.Client
	served chan error
}

// startDaemon boots a daemon with topozipd's default admission sizing,
// spooling request bodies under spool, and waits until it answers /healthz.
func startDaemon(spool string) (*daemon, error) {
	if err := os.MkdirAll(spool, 0o755); err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	d := &daemon{
		srv: server.New(server.Config{Queue: -1, SpoolDir: spool,
			Tel: telemetry.New(), Rec: flightrec.New(0)}),
		base:   "http://" + ln.Addr().String(),
		client: &http.Client{Timeout: 2 * time.Minute},
		served: make(chan error, 1),
	}
	go func() { d.served <- d.srv.Serve(ln) }()
	if err := d.healthy(); err != nil {
		d.stop()
		return nil, err
	}
	return d, nil
}

// stop drains the daemon and waits for its serve loop to return.
func (d *daemon) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := d.srv.Drain(ctx)
	if serr := <-d.served; err == nil {
		err = serr
	}
	d.client.CloseIdleConnections()
	return err
}

func (d *daemon) healthy() error {
	resp, err := d.client.Get(d.base + "/healthz")
	if err != nil {
		return fmt.Errorf("healthz: %w", err)
	}
	defer resp.Body.Close()
	var h struct {
		OK bool `json:"ok"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		return fmt.Errorf("healthz: %w", err)
	}
	if resp.StatusCode != http.StatusOK || !h.OK {
		return fmt.Errorf("healthz: status %d, ok=%v", resp.StatusCode, h.OK)
	}
	return nil
}

// counters scrapes the counter families of /metrics.
func (d *daemon) counters() (map[string]int64, error) {
	resp, err := d.client.Get(d.base + "/metrics")
	if err != nil {
		return nil, fmt.Errorf("metrics: %w", err)
	}
	defer resp.Body.Close()
	out := map[string]int64{}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if len(f) == 2 && strings.HasSuffix(f[0], "_total") {
			if v, err := strconv.ParseInt(f[1], 10, 64); err == nil {
				out[f[0]] = v
			}
		}
	}
	return out, sc.Err()
}

// reqResult is one client-observed request.
type reqResult struct {
	kind          int
	traced        bool
	status        int // 0 when no response arrived
	ttfb, latency time.Duration
	err           error
}

// loadResult is one closed-loop load phase.
type loadResult struct {
	reqs          []reqResult
	elapsed       time.Duration
	before, after map[string]int64 // /metrics counters around the phase
	scrapeErr     error
}

func (lr loadResult) ok() []reqResult {
	var out []reqResult
	for _, r := range lr.reqs {
		if r.err == nil {
			out = append(out, r)
		}
	}
	return out
}

func (lr loadResult) rps() float64 { return float64(len(lr.ok())) / lr.elapsed.Seconds() }

// compressMBps is the median rate of the traced or the untraced compress
// requests.
func (lr loadResult) compressMBps(t *serveTarget, traced bool) float64 {
	var x sample
	for _, r := range lr.ok() {
		if r.kind == kindCompress && r.traced == traced {
			x = append(x, mbps(t.s.orig.rawBytes(), r.latency))
		}
	}
	return x.median()
}

// load runs a closed loop of clients over the kinds sequence: count
// requests when count > 0, otherwise until dur has passed. With a
// collector, every second request is traced, so the traced and untraced
// requests see the same drift of the host.
func (d *daemon) load(t *serveTarget, kinds []int, clients int, dur time.Duration, count int, col *telemetry.Collector) loadResult {
	var lr loadResult
	before, err := d.counters()
	var mu sync.Mutex
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				seq := int(next.Add(1) - 1)
				if (count > 0 && seq >= count) || (count == 0 && time.Since(start) >= dur) {
					return
				}
				c := col
				if seq%2 == 0 {
					c = nil
				}
				r := d.request(t, kinds[seq%len(kinds)], c)
				mu.Lock()
				lr.reqs = append(lr.reqs, r)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	lr.elapsed = time.Since(start)
	after, aerr := d.counters()
	lr.before, lr.after, lr.scrapeErr = before, after, errors.Join(err, aerr)
	return lr
}

// request sends one request and times it from send to response headers
// (admission wait, spool-in and compute) and to the last body byte.
func (d *daemon) request(t *serveTarget, kind int, col *telemetry.Collector) reqResult {
	root := col.Span("bench.request")
	defer root.End()
	r := reqResult{kind: kind, traced: col != nil}
	t0 := time.Now()
	sp := root.Child("server.ttfb")
	resp, err := d.client.Post(d.base+t.paths[kind], "application/octet-stream", bytes.NewReader(t.bodies[kind]))
	r.ttfb = time.Since(t0)
	sp.End()
	if err != nil {
		r.err = fmt.Errorf("%s: %w", kindNames[kind], err)
		return r
	}
	sp = root.Child("server.body")
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	r.latency = time.Since(t0)
	sp.End()
	r.status = resp.StatusCode
	if err != nil {
		r.err = fmt.Errorf("%s: read body: %w", kindNames[kind], err)
		return r
	}
	r.err = t.check(kind, resp.StatusCode, body)
	return r
}

// checkAfterLoad counts every request of a phase as a checked operation,
// cross-checks the client's accounting with the daemon's counters, and
// requires the daemon to report healthy afterwards.
func (d *daemon) checkAfterLoad(rep *report, lr loadResult) {
	for _, r := range lr.reqs {
		rep.check(r.err)
	}
	for _, p := range accounting(lr) {
		rep.problem("accounting: %s", p)
	}
	if err := d.healthy(); err != nil {
		rep.problem("after load: %v", err)
	}
}

// accounting compares what the clients saw with the deltas of the daemon's
// counters: requests per endpoint, 429 sheds, and server-side errors.
func accounting(lr loadResult) []string {
	if lr.scrapeErr != nil {
		return []string{lr.scrapeErr.Error()}
	}
	delta := func(name string) int64 {
		return lr.after["topozip_"+name+"_total"] - lr.before["topozip_"+name+"_total"]
	}
	var sent [numKinds]int64
	var shed, errs int64
	for _, r := range lr.reqs {
		sent[r.kind]++
		switch {
		case r.status == http.StatusTooManyRequests:
			shed++
		case r.status >= 400:
			errs++
		}
	}
	var out []string
	for k, n := range sent {
		if got := delta("server_" + kindNames[k] + "_requests"); got != n {
			out = append(out, fmt.Sprintf("%s: clients sent %d, daemon counted %d", kindNames[k], n, got))
		}
	}
	if got := delta("server_shed"); got != shed {
		out = append(out, fmt.Sprintf("clients saw %d sheds, daemon counted %d", shed, got))
	}
	if got := delta("server_errors"); got != errs {
		out = append(out, fmt.Sprintf("clients saw %d error responses, daemon counted %d", errs, got))
	}
	return out
}

// serveEndToEnd reports the end-to-end metrics of a load phase. Latency is
// client-observed from send to last byte over the requests that passed
// their checks; failed ones count in error_rate.
func serveEndToEnd(rep *report, t *serveTarget, lr loadResult) {
	raw := t.s.orig.rawBytes()
	var lat, comp, decomp sample
	for _, r := range lr.ok() {
		lat = append(lat, ms(r.latency))
		switch r.kind {
		case kindCompress:
			comp = append(comp, mbps(raw, r.latency))
		case kindDecompress:
			decomp = append(decomp, mbps(raw, r.latency))
		}
	}
	rep.setSample("compress_mbps", comp)
	rep.setSample("decompress_mbps", decomp)
	rep.set("ratio", float64(raw)/float64(len(t.container)))
	rep.setValue("rps", lr.rps(), len(lat))
	rep.setSample("latency_p50_ms", lat)
	rep.setValue("latency_p90_ms", lat.quantile(0.9), len(lat))
}

// serverLayerMetrics reports the per-endpoint and per-phase request times
// and the daemon's shed and error counters.
func serverLayerMetrics(rep *report, lr loadResult) {
	var per [numKinds]sample
	var ttfb, body sample
	for _, r := range lr.ok() {
		per[r.kind] = append(per[r.kind], ms(r.latency))
		ttfb = append(ttfb, ms(r.ttfb))
		body = append(body, ms(r.latency-r.ttfb))
	}
	for k, s := range per {
		rep.setSample("server."+kindNames[k]+"_p50_ms", s)
	}
	rep.setSample("server.ttfb_p50_ms", ttfb)
	rep.setSample("server.body_p50_ms", body)
	rep.set("server.shed", float64(lr.after["topozip_server_shed_total"]-lr.before["topozip_server_shed_total"]))
	rep.set("server.errors", float64(lr.after["topozip_server_errors_total"]-lr.before["topozip_server_errors_total"]))
}
