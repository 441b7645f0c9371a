package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"time"

	"leakest"
	"leakest/internal/cells"
	"leakest/internal/iscas"
	"leakest/internal/placement"
	"leakest/internal/server"
	"leakest/internal/telemetry"
)

// serviceMix drives an in-process leakestd (default server.Config) over
// loopback with two closed-loop clients. The request sequence is built from
// blocks of serviceBlock requests with a fixed class composition, shuffled
// per block, so every seed sends the same mix.
type serviceMix struct {
	seed   int64
	srv    *server.Server
	hs     *http.Server
	served chan struct{}
	url    string
	client *http.Client
	reqs   []serviceReq
	lib    *leakest.Library
	est    *leakest.Estimator
	charS  float64
	before map[string]float64 // /metrics counters when the timed phases start
	mu     sync.Mutex
	selfMS []float64
}

// serviceReq is one request body with what the reference needs.
type serviceReq struct {
	class string
	body  []byte
	req   server.EstimateRequest
	gates int
}

// The block composition: early-mode designs, repeated inline .bench bodies
// (cache hits), fresh name/seed pairs (parse and placement on every
// request), exact truth, and Monte Carlo. The shares are assumptions, not
// measured traffic. The fresh share sets how often the artifact cache
// evicts the characterized library: once per 64 fresh bodies, so about
// every 530 requests.
var serviceBlock = []struct {
	class string
	count int
}{{"early", 25}, {"bench", 10}, {"fresh", 6}, {"truth", 5}, {"mc", 4}}

// serviceBlocks is the number of blocks in one round. A round is long
// enough for the latency p99 to have at least ten samples beyond it.
const (
	serviceBlocks        = 24
	handlerProbeRequests = 100
)

// Circuits per bench class; MC and fresh bodies stay at or below 1k gates.
var (
	benchCircuits = []string{"c432", "c880", "c1355", "c2670", "c5315", "c7552"}
	freshCircuits = []string{"c432", "c499", "c880", "c1355"}
	truthCircuits = []string{"c1908", "c2670", "c3540"}
	mcCircuits    = []string{"c880", "c1908"}
	earlySizes    = []int{1000, 4000, 16000, 64000, 256000, 1000000}
	earlyMethods  = []string{"auto", "linear", "integral"}
)

func (w *serviceMix) clients() int { return 2 }

func (w *serviceMix) close() {
	if w.hs == nil {
		return
	}
	w.hs.Close()
	<-w.served
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := w.srv.Shutdown(ctx); err != nil {
		logf("server shutdown: %v", err)
	}
	w.client.CloseIdleConnections()
	w.hs, w.srv = nil, nil
}

func (w *serviceMix) setup(seed int64) error {
	w.close()
	w.seed = seed
	reqs, err := serviceRequests(seed)
	if err != nil {
		return err
	}
	w.reqs = reqs
	w.srv = server.New(server.Config{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	w.hs = &http.Server{Handler: w.srv.Handler()}
	w.served = make(chan struct{})
	go func() {
		defer close(w.served)
		if err := w.hs.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
			logf("serve: %v", err)
		}
	}()
	w.url = "http://" + ln.Addr().String()
	w.client = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 4}}
	// Warm every process the mix uses: the library characterization, each
	// early-mode design, and the repeated bodies, which also fills the
	// artifact cache they hit during the timed phase.
	warmed := map[string]bool{}
	for _, r := range w.reqs {
		key := string(r.body)
		if r.class == "fresh" || warmed[key] {
			continue
		}
		warmed[key] = true
		if _, _, err := w.post(context.Background(), r.body); err != nil {
			return fmt.Errorf("warm-up %s: %w", r.class, err)
		}
	}
	return nil
}

// serviceRequests generates the seeded request sequence.
func serviceRequests(seed int64) ([]serviceReq, error) {
	rng := rand.New(rand.NewSource(seed))
	arity := map[string]int{}
	for _, c := range cells.Library() {
		arity[c.Name] = c.NumInputs
	}
	benchText := map[string]string{}
	gates := map[string]int{}
	for _, name := range iscas.Names() {
		ckt, err := iscas.Build(name, seed, func(t string) (int, error) {
			if n, ok := arity[t]; ok {
				return n, nil
			}
			return 0, fmt.Errorf("unknown cell %q", t)
		})
		if err != nil {
			return nil, err
		}
		var b strings.Builder
		if err := leakest.WriteBench(&b, ckt.Netlist); err != nil {
			return nil, err
		}
		benchText[name], gates[name] = b.String(), len(ckt.Netlist.Gates)
	}

	// Early-mode pool: every size with each method, a seeded cell mix,
	// and the tiled pipeline on the larger linear designs.
	labels := sortedKeys(benchWeights)
	var early []serviceReq
	for i, n := range earlySizes {
		for j, method := range earlyMethods {
			hist := map[string]float64{}
			for _, l := range labels {
				hist[l] = float64(1 + rng.Intn(20))
			}
			side := math.Sqrt(float64(n)) * placement.DefaultSitePitch
			r := server.EstimateRequest{
				Design: &server.DesignRequest{Hist: hist, N: n, W: side, H: side},
				Method: method,
			}
			if method == "linear" && n >= 64000 && (i+j)%2 == 0 {
				r.Tiles = &server.TilesRequest{T: 4}
			}
			early = append(early, serviceReq{class: "early", req: r, gates: n})
		}
	}
	bench := func(class, circuit, name string, s int64) serviceReq {
		r := server.EstimateRequest{Bench: benchText[circuit], Name: name, Seed: s, Method: "linear"}
		switch class {
		case "truth":
			r.Truth = true
		case "mc":
			r.MCSamples = 32
		}
		return serviceReq{class: class, req: r, gates: gates[circuit]}
	}

	next := map[string]int{}
	pick := func(class string) serviceReq {
		i := next[class]
		next[class]++
		switch class {
		case "early":
			return early[i%len(early)]
		case "bench":
			c := benchCircuits[i%len(benchCircuits)]
			return bench(class, c, "rep-"+c, seed)
		case "fresh":
			c := freshCircuits[i%len(freshCircuits)]
			return bench(class, c, fmt.Sprintf("fresh-%d", i), seed*100000+int64(i))
		case "truth":
			c := truthCircuits[i%len(truthCircuits)]
			return bench(class, c, "truth-"+c, seed)
		default:
			c := mcCircuits[i%len(mcCircuits)]
			return bench(class, c, "mc-"+c, seed)
		}
	}
	var seq []serviceReq
	for b := 0; b < serviceBlocks; b++ {
		var block []serviceReq
		for _, c := range serviceBlock {
			for k := 0; k < c.count; k++ {
				block = append(block, pick(c.class))
			}
		}
		rng.Shuffle(len(block), func(i, j int) { block[i], block[j] = block[j], block[i] })
		seq = append(seq, block...)
	}
	for i := range seq {
		body, err := json.Marshal(&seq[i].req)
		if err != nil {
			return nil, err
		}
		seq[i].body = body
	}
	return seq, nil
}

// post sends one estimate request and decodes a 200 response.
func (w *serviceMix) post(ctx context.Context, body []byte) (*server.EstimateResponse, int, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, w.url+"/v1/estimate", bytes.NewReader(body))
	if err != nil {
		return nil, 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := w.client.Do(req)
	if err != nil {
		return nil, 0, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, resp.StatusCode, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, resp.StatusCode, fmt.Errorf("HTTP %d: %s", resp.StatusCode, bytes.TrimSpace(raw))
	}
	var out server.EstimateResponse
	if err := json.Unmarshal(raw, &out); err != nil {
		return nil, resp.StatusCode, err
	}
	return &out, resp.StatusCode, nil
}

// reference computes in process what the server must answer for r: the
// same characterization, signal-probability choice, estimator and Monte
// Carlo settings as a request admitted at normal load.
func (w *serviceMix) reference(r *server.EstimateRequest) (outcome, error) {
	est := *w.est
	est.ApplyVtMean = r.Vt == nil || *r.Vt
	if r.Tiles != nil {
		est.Tiles = r.Tiles.T
	}
	if r.Design != nil {
		hist, err := leakest.NewHistogram(r.Design.Hist)
		if err != nil {
			return outcome{}, err
		}
		sp, err := est.MaxLeakageSignalProb(hist)
		if err != nil {
			return outcome{}, err
		}
		method := map[string]leakest.Method{"auto": leakest.Auto, "linear": leakest.Linear, "integral": leakest.Integral2D}[r.Method]
		res, err := est.Estimate(leakest.Design{Hist: hist, N: r.Design.N, W: r.Design.W, H: r.Design.H, SignalProb: sp}, method)
		return outcome{Mean: res.Mean, Std: res.Std}, err
	}
	nl, err := leakest.ReadBench(strings.NewReader(r.Bench), r.Name)
	if err != nil {
		return outcome{}, err
	}
	pl, err := leakest.AutoPlace(nl, r.Seed)
	if err != nil {
		return outcome{}, err
	}
	counts := map[string]float64{}
	for _, g := range nl.Gates {
		counts[g.Type]++
	}
	hist, err := leakest.NewHistogram(counts)
	if err != nil {
		return outcome{}, err
	}
	sp, err := est.MaxLeakageSignalProb(hist)
	if err != nil {
		return outcome{}, err
	}
	var res leakest.Result
	if r.Truth {
		res, err = est.TrueLeakageBudgeted(context.Background(), nl, pl, sp, leakest.EstimateBudget{})
	} else {
		var design leakest.Design
		if design, err = est.ExtractDesign(nl, pl, sp); err == nil {
			res, err = est.Estimate(design, leakest.Linear)
		}
	}
	if err != nil {
		return outcome{}, err
	}
	o := outcome{Mean: res.Mean, Std: res.Std}
	if r.MCSamples > 0 {
		mc, err := est.MonteCarlo(nl, pl, 0.5, r.MCSamples, r.Seed)
		if err != nil {
			return outcome{}, err
		}
		o.MCMean, o.MCStd = mc.Mean, mc.Std
	}
	return o, nil
}

func (w *serviceMix) prepare() ([]op, error) {
	start := time.Now()
	lib, err := leakest.Characterize(leakest.BuiltinCells(), leakest.CharConfig{
		Process: leakest.DefaultProcess(), Seed: charSeed})
	if err != nil {
		return nil, err
	}
	w.charS = time.Since(start).Seconds()
	if w.est, err = leakest.NewEstimator(lib, nil); err != nil {
		return nil, err
	}
	w.lib = lib
	w.est.Workers = 2

	refs := map[string]outcome{}
	ops := make([]op, len(w.reqs))
	for i, r := range w.reqs {
		ref, ok := refs[string(r.body)]
		if !ok {
			if ref, err = w.reference(&r.req); err != nil {
				return nil, fmt.Errorf("%s reference: %w", r.class, err)
			}
			refs[string(r.body)] = ref
		}
		ops[i] = op{
			name:  "request/" + r.class,
			gates: r.gates,
			do: func(ctx context.Context, _ int) (outcome, error) {
				resp, code, err := w.post(ctx, r.body)
				if err != nil {
					return outcome{Code: code}, err
				}
				w.traced(ctx, resp.Trace)
				o := outcome{Code: code, Mean: resp.Result.Mean, Std: resp.Result.Std}
				if resp.Conformance != nil {
					o.Conformance = resp.Conformance.Status
				}
				if resp.MonteCarlo != nil {
					o.MCMean, o.MCStd = resp.MonteCarlo.Mean, resp.MonteCarlo.Std
				}
				return o, nil
			},
			check: func(o outcome) error {
				if o.Code != http.StatusOK {
					return fmt.Errorf("HTTP %d", o.Code)
				}
				if o.Conformance != "ok" {
					return fmt.Errorf("conformance status %q", o.Conformance)
				}
				if err := sameAs("served estimate", o.Mean, o.Std, ref.Mean, ref.Std); err != nil {
					return err
				}
				if r.req.MCSamples > 0 {
					return sameAs("served Monte Carlo", o.MCMean, o.MCStd, ref.MCMean, ref.MCStd)
				}
				return nil
			},
			mutations: []func(outcome) outcome{func(o outcome) outcome { o.Mean *= 1.02; return o }},
		}
	}
	w.before, err = w.counters()
	return ops, err
}

// traced attaches a served trace under the client span and records the
// request's server-side self time, when the run is traced.
func (w *serviceMix) traced(ctx context.Context, snap *telemetry.TraceSnapshot) {
	if telemetry.TraceFrom(ctx) == nil || snap == nil {
		return
	}
	attachSnapshot(ctx, snap)
	for _, sp := range snap.Spans {
		if sp.Stage == "server.request" {
			self := selfTime(*snap, sp.ID)
			w.mu.Lock()
			w.selfMS = append(w.selfMS, 1e3*self)
			w.mu.Unlock()
			return
		}
	}
}

// counters reads the server's Prometheus counters from /metrics.
func (w *serviceMix) counters() (map[string]float64, error) {
	resp, err := w.client.Get(w.url + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "server_") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		if v, err := strconv.ParseFloat(line[i+1:], 64); err == nil {
			out[line[:i]] = v
		}
	}
	return out, sc.Err()
}

func (w *serviceMix) probe(m map[string]float64, t *spanTree) error {
	after, err := w.counters()
	if err != nil {
		return err
	}
	delta := func(name string) float64 { return after[name] - w.before[name] }
	ratio := func(artifacts ...string) float64 {
		hits, total := 0.0, 0.0
		for _, a := range artifacts {
			h := delta(`server_cache_hits_total{artifact="` + a + `"}`)
			hits += h
			total += h + delta(`server_cache_misses_total{artifact="`+a+`"}`)
		}
		if total == 0 {
			return 0
		}
		return hits / total
	}
	requests := 0.0
	for name := range after {
		if strings.HasPrefix(name, "server_requests_total") {
			requests += delta(name)
		}
	}
	m["server.cache_hit_ratio"] = ratio("library", "netlist", "embedding")
	m["server.cache_hit_ratio.library"] = ratio("library")
	m["server.cache_hit_ratio.netlist"] = ratio("netlist")
	m["server.shed_ratio"] = delta("server_shed_total") / requests
	m["server.conformance_mismatches"] = delta("server_conformance_mismatch_total")
	m["server.self_ms_p50"] = median(w.selfMS)
	m["server.roundtrip_ms_p50"] = 1e3 * clientLatency(t)

	// Handler and codec probes over the first two blocks of the mix:
	// ServeHTTP into a recorder (no socket), and the request/response JSON
	// round trip.
	var handlerMS, jsonMS []float64
	h := w.srv.Handler()
	for _, r := range w.reqs[:handlerProbeRequests] {
		rec := httptest.NewRecorder()
		hreq := httptest.NewRequest(http.MethodPost, "/v1/estimate", bytes.NewReader(r.body))
		start := time.Now()
		h.ServeHTTP(rec, hreq)
		handlerMS = append(handlerMS, 1e3*time.Since(start).Seconds())
		if rec.Code != http.StatusOK {
			return fmt.Errorf("handler probe: HTTP %d", rec.Code)
		}
		start = time.Now()
		var req server.EstimateRequest
		var resp server.EstimateResponse
		if err := json.Unmarshal(r.body, &req); err != nil {
			return err
		}
		if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
			return err
		}
		if _, err := json.Marshal(&resp); err != nil {
			return err
		}
		jsonMS = append(jsonMS, 1e3*time.Since(start).Seconds())
	}
	m["server.handler_ms_p50"] = median(handlerMS)
	m["server.json_ms_p50"] = median(jsonMS)

	m["charlib.characterize_s"] = w.charS
	m["charlib.leakage_evals_per_s"] = probeLeakage(w.lib)

	// Placement and netlist probes over the distinct inline bodies.
	var placed, mcDesigns []placedDesign
	var placeSec float64
	seen := map[string]bool{}
	for _, r := range w.reqs {
		if r.req.Bench == "" || seen[r.req.Name] {
			continue
		}
		seen[r.req.Name] = true
		nl, err := leakest.ReadBench(strings.NewReader(r.req.Bench), r.req.Name)
		if err != nil {
			return err
		}
		start := time.Now()
		pl, err := leakest.AutoPlace(nl, r.req.Seed)
		if err != nil {
			return err
		}
		placeSec += time.Since(start).Seconds()
		d := placedDesign{name: r.req.Name, nl: nl, pl: pl}
		placed = append(placed, d)
		if r.class == "mc" {
			mcDesigns = append(mcDesigns, d)
		}
	}
	m["placement.autoplace_s"] = placeSec / float64(len(placed))
	if err := probeDesignIO(m, placed); err != nil {
		return err
	}
	return probeGrids(m, w.est.Process(), gridsOf(mcDesigns), w.seed)
}

// clientLatency is the median duration of the benchmark's request spans.
func clientLatency(t *spanTree) float64 {
	var ds []float64
	for _, sp := range t.spans {
		if strings.HasPrefix(sp.Stage, "bench.request/") {
			ds = append(ds, sp.DurS)
		}
	}
	return median(ds)
}
