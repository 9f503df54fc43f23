package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"sync"
	"syscall"
	"time"

	"teasim/tea"
	"teasim/tea/serve"
	"teasim/tea/store"
)

const (
	// serveHitBudget is the per-cell budget of repeat requests; every cell
	// at it is in the store before timing starts.
	serveHitBudget = 10_000
	// Cold requests use budgets serveColdBase, +serveColdStep, ..., one per
	// cold request, so none was used earlier in the run.
	serveColdBase = 2_000
	serveColdStep = 7
	// Per step, in percent: a cold request, and both clients sending the
	// same cold request at once.
	serveColdPct = 3
	servePairPct = 1
	// serveStepsPerSecond sizes the timed phase from --seconds: steps per
	// client per second.
	serveStepsPerSecond = 260
	serveMinSteps       = 1500 // enough hits for p99 and colds for p90
	serveWarmup         = 10   // untimed steps per client
	serveRestarts       = 21   // daemon starts timed for setup_s
	serveInProcess      = 300  // traced: requests to the in-process server
	// serveHitWindow is how many consecutive timed hits make one window of
	// the hit percentiles: enough for a p99 with 12 samples beyond it.
	serveHitWindow = 1200
)

var serveExps = []string{"fig5", "fig6", "fig7", "fig8", "table3"}

// serveReq is the POST /v1/run body the benchmark sends.
type serveReq struct {
	Experiment      string   `json:"experiment"`
	Workloads       []string `json:"workloads"`
	MaxInstructions uint64   `json:"max_instructions"`
	Format          string   `json:"format"`
}

func (r serveReq) key() string {
	b, _ := json.Marshal(r)
	return string(b)
}

// planStep is one request of a client's closed loop.
type planStep struct {
	Req  serveReq
	Cold bool // at a budget no earlier request used
	Pair bool // both clients send it at once
	Warm bool // warm-up: checked, but excluded from the timings
}

// servePlan draws both clients' request sequences from the seed. The mix
// is a fixed multiset of request shapes (experiment, format, subset size,
// and for cold requests the kernel), so every seed asks for the same amount
// of work; the seed picks the kernels of each repeat request's subset, the
// order of the requests and where the cold and paired requests fall. Cold
// steps sit at the same indices in both sequences; a pair step carries the
// same request in both.
func servePlan(seed int64, steps int) [2][]planStep {
	rng := newRand(seed, "serve-plan")
	all := tea.Workloads()
	nExp, nFmt := len(serveExps), len(formats)
	hitShape := func(k int) planStep {
		n := 1 + (k/(nExp*nFmt))%len(all)
		keep := make([]bool, len(all))
		for _, i := range rng.Perm(len(all))[:n] {
			keep[i] = true
		}
		r := serveReq{Experiment: serveExps[k%nExp], Format: formats[(k/nExp)%nFmt].String(),
			MaxInstructions: serveHitBudget}
		for i, w := range all {
			if keep[i] {
				r.Workloads = append(r.Workloads, w)
			}
		}
		return planStep{Req: r}
	}
	coldShape := func(k int) planStep {
		return planStep{Cold: true, Req: serveReq{Experiment: serveExps[k%nExp], Format: formats[k%nFmt].String(),
			Workloads: []string{all[(k/nExp)%len(all)]}}}
	}

	nPair := steps * servePairPct / 100
	nCold := steps * serveColdPct / 100
	body := steps - nPair
	// Cold steps sit at the same seeded positions in both loops, and
	// serveLoad starts and ends them together, so the daemon simulates only
	// while both clients wait on cold requests and never beside a hit.
	coldAt := make([]bool, body)
	for _, i := range rng.Perm(body)[:nCold] {
		coldAt[i] = true
	}
	hits, colds := 0, nPair
	var plan [2][]planStep
	for c := range plan {
		var seq []planStep
		for i := 0; i < serveWarmup-1; i++ {
			seq = append(seq, hitShape(hits))
			hits++
		}
		seq = append(seq, coldShape(colds))
		colds++
		for i := range seq {
			seq[i].Warm = true
		}
		var hs, cs []planStep
		for i := 0; i < body-nCold; i++ {
			hs = append(hs, hitShape(hits))
			hits++
		}
		for i := 0; i < nCold; i++ {
			cs = append(cs, coldShape(colds))
			colds++
		}
		rng.Shuffle(len(hs), func(a, b int) { hs[a], hs[b] = hs[b], hs[a] })
		rng.Shuffle(len(cs), func(a, b int) { cs[a], cs[b] = cs[b], cs[a] })
		for _, cold := range coldAt {
			if cold {
				seq, cs = append(seq, cs[0]), cs[1:]
			} else {
				seq, hs = append(seq, hs[0]), hs[1:]
			}
		}
		plan[c] = seq
	}
	// Paired cold requests go in at the same seeded positions of both loops.
	for k, pos := range rng.Perm(steps)[:nPair] {
		st := coldShape(k)
		st.Pair = true
		at := serveWarmup + min(pos, len(plan[0])-serveWarmup)
		for c := range plan {
			plan[c] = append(plan[c][:at], append([]planStep{st}, plan[c][at:]...)...)
		}
	}
	// Every cold request gets a budget of its own, in plan order.
	budget := uint64(serveColdBase)
	for i := range plan[0] {
		for c := range plan {
			st := &plan[c][i]
			if !st.Cold || (c == 1 && st.Pair) {
				continue
			}
			st.Req.MaxInstructions = budget
			if st.Pair {
				plan[1][i].Req.MaxInstructions = budget
			}
			budget += serveColdStep
		}
	}
	return plan
}

// reqRecord is one request's outcome as the client saw it.
type reqRecord struct {
	step      planStep
	idx       int // position in its client's sequence
	traced    bool
	latMS     float64
	ok        bool // 200 and the expected bytes
	simulated bool // the daemon simulated or coalesced a cell for it
}

// expected holds the in-process answer to every request of the plan.
type expected struct {
	body    map[string][]byte
	reports map[string]*tea.Report
	instr   map[string]uint64 // cold request -> instructions of its cells
}

func runServe(ctx context.Context, rc runConfig, tr *tracer) (*outcome, error) {
	o := newOutcome()
	plan := servePlan(rc.seed, max(serveMinSteps, serveStepsPerSecond*rc.seconds))
	dir := filepath.Join(rc.workdir, "store")

	exp, err := serveReference(ctx, o, tr, plan, dir)
	if err != nil {
		return nil, err
	}
	if tr != nil {
		if err := serveInProc(ctx, o, tr, plan, exp, dir); err != nil {
			return nil, err
		}
	}

	var setup []float64
	var d *daemon
	for i := 0; i < serveRestarts; i++ {
		if d != nil {
			if err := d.stop(); err != nil {
				return nil, err
			}
		}
		d, err = startDaemon(ctx, rc, dir, i)
		if err != nil {
			return nil, err
		}
		setup = append(setup, d.setup.Seconds())
	}
	defer d.kill()

	recs, wall := serveLoad(ctx, d.url, plan, exp, tr)
	statz, statzErr := d.statz()
	if err := d.stop(); err != nil {
		return nil, err
	}
	if statzErr != nil {
		o.problemf("statz: %v", statzErr)
	}

	t := tally(o, recs, exp)
	if o.failed > 0 {
		o.problemf("%d of %d requests failed or answered other bytes than the in-process run", o.failed, o.attempted)
	}
	o.notef("timed phase: %d requests in %.3fs over 2 clients; %d hit, %d cold; daemon setup %v s",
		t.timed, wall, len(t.hit), len(t.cold), setup)
	if rc.trace {
		o.metrics["serve.simulated"] = float64(statz.Simulations)
		o.metrics["serve.store_hits"] = float64(statz.StoreHits)
		o.metrics["serve.coalesced"] = float64(statz.Coalesced)
		o.metrics["serve.rejected"] = float64(statz.RejectedQuota + statz.RejectedBusy + statz.RejectedDrain)
		if s := statz.Store; s != nil && s.Hits+s.Misses > 0 {
			o.metrics["store.hit_ratio"] = float64(s.Hits) / float64(s.Hits+s.Misses)
		}
		o.metrics["trace.hit_ms_p50_overhead"] = median(t.hitTraced) - median(t.hitUntraced)
		o.notef("trace.wall_s_overhead is 0 on serve: tracing alternates per request, so no untraced wall exists")
		o.metrics["trace.wall_s_overhead"] = 0
		return o, nil
	}
	o.metrics["setup_s"] = median(setup)
	o.metrics["wall_s"] = wall
	o.metrics["sim_kips"] = float64(t.simInstr) / 1e3 / wall
	o.metrics["peak_rss_mb"] = d.rssMiB
	o.metrics["req_per_s"] = float64(t.timed) / wall
	// Hit percentiles are taken per window of consecutive hits and their
	// median reported, so that a burst of host noise over part of the
	// phase does not set the tail.
	o.setBatchPct("hit_ms_p50", t.hitWindows, 50)
	o.setBatchPct("hit_ms_p99", t.hitWindows, 99)
	o.setPct("cold_ms_p50", t.cold, 50)
	o.setPct("cold_ms_p90", t.cold, 90)
	return o, nil
}

// serveTally is the timed phase sorted into latency classes.
type serveTally struct {
	hit, cold              []float64 // ms; +Inf for a failed request
	hitWindows             [][]float64
	hitTraced, hitUntraced []float64
	timed                  int
	simInstr               uint64 // instructions the daemon simulated
}

// tally counts every request, warm-up included, as attempted, and every
// failed, refused or wrong answer as failed. A timed request that failed
// enters its class's latencies as +Inf, so it misses every limit instead of
// dropping out of the sample. A request is cold when the daemon simulated or
// coalesced a cell for it (or, without the daemon's word, when it was
// planned cold).
func tally(o *outcome, recs []reqRecord, exp *expected) serveTally {
	var t serveTally
	simulated := map[string]bool{}
	type stepLat struct {
		idx int
		lat float64
	}
	var hits []stepLat
	for _, r := range recs {
		o.attempted++
		if !r.ok {
			o.failed++
		}
		if r.step.Warm {
			continue
		}
		t.timed++
		lat := r.latMS
		if !r.ok {
			lat = math.Inf(1)
		}
		if r.simulated {
			t.cold = append(t.cold, lat)
		} else {
			t.hit = append(t.hit, lat)
			hits = append(hits, stepLat{r.idx, lat})
			if r.traced {
				t.hitTraced = append(t.hitTraced, lat)
			} else {
				t.hitUntraced = append(t.hitUntraced, lat)
			}
		}
		if k := r.step.Req.key(); r.step.Cold && !simulated[k] {
			simulated[k] = true // a pair's two requests simulate its cells once
			t.simInstr += exp.instr[k]
		}
	}
	// Both clients' hits in step order, which in closed loops is close to
	// the order in time.
	sort.SliceStable(hits, func(a, b int) bool { return hits[a].idx < hits[b].idx })
	ordered := make([]float64, len(hits))
	for i, h := range hits {
		ordered[i] = h.lat
	}
	t.hitWindows = windows(ordered, serveHitWindow)
	return t
}

// serveReference computes every answer in-process and fills the store the
// daemon will open with every cell the repeat requests need.
func serveReference(ctx context.Context, o *outcome, tr *tracer, plan [2][]planStep, dir string) (*expected, error) {
	st, err := store.Open(dir, store.Options{})
	if err != nil {
		return nil, err
	}
	defer st.Close() // error path; the success path checks Close below
	exp := &expected{body: map[string][]byte{}, reports: map[string]*tea.Report{}, instr: map[string]uint64{}}

	// Fill: every repeat-request cell, simulated once on a 1-worker engine
	// and written to the store.
	fill := &cellRunner{tr: tr, store: st}
	jobs := 0
	eng := tea.NewEngine(1, tea.WithRunFunc(fill.run), tea.WithProgress(func(ev tea.JobEvent) {
		if ev.Phase == tea.JobStarted {
			jobs++
		}
	}))
	start := time.Now()
	for _, name := range serveExps {
		ectx, end := tr.begin(ctx, "engine")
		_, err := tea.RunExperiment(ectx, name, tea.ExpOptions{MaxInstructions: serveHitBudget, Scale: 1, Engine: eng})
		end()
		if err != nil {
			return nil, err
		}
	}
	fillWall := time.Since(start)
	fillCells := fill.samples()
	if tr != nil {
		cellLayers(o, fillCells)
		var busy int64
		for _, c := range fillCells {
			busy += c.NS
		}
		o.metrics["engine.jobs"] = float64(jobs)
		o.metrics["engine.memo_hit_ratio"] = float64(eng.MemoStats().Hits) / float64(jobs)
		o.metrics["engine.overhead_ms"] = float64(int64(fillWall)-busy) / 1e6
		if v, ok := percentile(fill.putNS, 50); ok {
			o.metrics["store.put_ms_p50"] = v / 1e6
		}
	}

	// Repeat requests come from the warm engine's memo; cold ones simulate
	// on two goroutines sharing another engine.
	var colds []serveReq
	seen := map[string]bool{}
	for _, seq := range plan {
		for _, s := range seq {
			k := s.Req.key()
			if seen[k] {
				continue
			}
			seen[k] = true
			if s.Cold {
				colds = append(colds, s.Req)
				continue
			}
			rep, body, err := answer(ctx, eng, s.Req)
			if err != nil {
				return nil, err
			}
			exp.reports[k], exp.body[k] = rep, body
		}
	}
	coldRun := &cellRunner{}
	coldEng := tea.NewEngine(1, tea.WithRunFunc(coldRun.run))
	var mu sync.Mutex
	var wg sync.WaitGroup
	errs := make([]error, 2)
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := g; i < len(colds); i += 2 {
				_, body, err := answer(ctx, coldEng, colds[i])
				if err != nil {
					errs[g] = err
					return
				}
				mu.Lock()
				exp.body[colds[i].key()] = body
				mu.Unlock()
			}
		}(g)
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return nil, err
	}
	byBudget := map[uint64]uint64{}
	for _, c := range coldRun.samples() {
		byBudget[c.Budget] += c.Instr
	}
	for _, r := range colds {
		exp.instr[r.key()] = byBudget[r.MaxInstructions]
	}
	return exp, st.Close()
}

// answer runs one request in-process the way the daemon does.
func answer(ctx context.Context, eng *tea.Engine, r serveReq) (*tea.Report, []byte, error) {
	f, err := tea.ParseFormat(r.Format)
	if err != nil {
		return nil, nil, err
	}
	rep, err := tea.RunExperiment(ctx, r.Experiment, tea.ExpOptions{
		MaxInstructions: r.MaxInstructions, Scale: 1, Workloads: r.Workloads, Engine: eng})
	if err != nil {
		return nil, nil, err
	}
	body, err := render(rep, f)
	return rep, body, err
}

// serveLoad runs both clients' closed loops against url and returns every
// request's record and the timed phase's wall time in seconds.
func serveLoad(ctx context.Context, url string, plan [2][]planStep, exp *expected, tr *tracer) ([]reqRecord, float64) {
	// A cold step (both loops have one at the same index) holds each client
	// until the other arrives, so both send their requests at once, and
	// again until both have their answers, so that no hit runs beside the
	// simulation. Clients run every step, so both always arrive.
	type gate struct{ sent, done sync.WaitGroup }
	gates := map[int]*gate{}
	for i, s := range plan[0] {
		if s.Cold {
			g := &gate{}
			g.sent.Add(2)
			g.done.Add(2)
			gates[i] = g
		}
	}
	recs := make([][]reqRecord, 2)
	var timedStart sync.WaitGroup // both clients leave warm-up together
	timedStart.Add(2)
	starts := make(chan time.Time, 2)
	var wg sync.WaitGroup
	for c := 0; c < 2; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			cl := &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1,
				DisableCompression: true}}
			defer cl.CloseIdleConnections()
			for i, s := range plan[c] {
				if i == serveWarmup {
					timedStart.Done()
					timedStart.Wait()
					starts <- time.Now()
				}
				g := gates[i]
				if g != nil {
					g.sent.Done()
					g.sent.Wait()
				}
				// Traced runs trace every other request, so one run also
				// gives the untraced latency the overhead is taken against.
				traced := tr != nil && i%2 == 1
				rctx, end := ctx, noop
				if traced {
					rctx, end = tr.begin(withReq(ctx, int64(c*len(plan[0])+i+1)), "request")
				}
				rec := post(rctx, cl, url, s, exp)
				end()
				if g != nil {
					g.done.Done()
					g.done.Wait()
				}
				rec.traced, rec.idx = traced, i
				recs[c] = append(recs[c], rec)
			}
		}(c)
	}
	wg.Wait()
	end := time.Now()
	start := <-starts
	if s2 := <-starts; s2.Before(start) {
		start = s2
	}
	return append(recs[0], recs[1]...), end.Sub(start).Seconds()
}

// post sends one request and checks the answer against the in-process one.
func post(ctx context.Context, cl *http.Client, url string, s planStep, exp *expected) reqRecord {
	// Until the daemon's counters say otherwise (it sends them only with a
	// 200), a request is in the class it was planned in.
	rec := reqRecord{step: s, simulated: s.Cold}
	body, _ := json.Marshal(s.Req)
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url+"/v1/run", bytes.NewReader(body))
	if err != nil {
		return rec
	}
	req.Header.Set("Content-Type", "application/json")
	if ref, ok := ctx.Value(spanKey{}).(spanRef); ok {
		req.Header.Set("X-Bench-Req", strconv.FormatInt(ref.req, 10))
		req.Header.Set("X-Bench-Span", strconv.FormatInt(ref.id, 10))
	}
	t := time.Now()
	resp, err := cl.Do(req)
	if err != nil {
		return rec
	}
	got, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	rec.latMS = float64(time.Since(t)) / 1e6
	sim, coal := resp.Header.Get("X-Tea-Simulated"), resp.Header.Get("X-Tea-Coalesced")
	if resp.StatusCode == http.StatusOK && sim != "" && coal != "" {
		rec.simulated = sim != "0" || coal != "0"
	}
	want, known := exp.body[s.Req.key()]
	rec.ok = err == nil && resp.StatusCode == http.StatusOK && known && bytes.Equal(got, want)
	return rec
}

// daemon is one teasrvd process.
type daemon struct {
	cmd    *exec.Cmd
	url    string
	setup  time.Duration // exec until the first /healthz 200
	done   chan error
	exited bool
	rssMiB float64
}

func startDaemon(ctx context.Context, rc runConfig, dir string, i int) (*daemon, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	addr := ln.Addr().String()
	ln.Close()
	logf, err := os.Create(filepath.Join(rc.workdir, fmt.Sprintf("teasrvd-%d.log", i)))
	if err != nil {
		return nil, err
	}
	defer logf.Close()
	cmd := exec.Command(filepath.Join(rc.exe, "teasrvd"), "-listen", addr, "-store", dir,
		"-workers", "1", "-max-concurrent", "2", "-queue", "8", "-n", fmt.Sprint(serveHitBudget),
		"-drain-timeout", "20s")
	cmd.Stdout, cmd.Stderr = logf, logf
	d := &daemon{cmd: cmd, url: "http://" + addr, done: make(chan error, 1)}
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	go func() { d.done <- cmd.Wait() }()
	probe := &http.Client{Timeout: time.Second}
	for {
		resp, err := probe.Get(d.url + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				d.setup = time.Since(start)
				return d, nil
			}
		}
		select {
		case err := <-d.done:
			d.exited = true
			return nil, fmt.Errorf("teasrvd exited during start-up: %v (log: %s)", err, logf.Name())
		case <-ctx.Done():
			d.kill()
			return nil, ctx.Err()
		case <-time.After(200 * time.Microsecond):
		}
	}
}

func (d *daemon) statz() (serve.Statz, error) {
	var st serve.Statz
	resp, err := http.Get(d.url + "/statz")
	if err != nil {
		return st, err
	}
	defer resp.Body.Close()
	return st, json.NewDecoder(resp.Body).Decode(&st)
}

// stop drains the daemon with SIGTERM and waits for it to exit.
func (d *daemon) stop() error {
	if d.exited {
		return nil
	}
	_ = d.cmd.Process.Signal(syscall.SIGTERM) // a daemon already gone is reaped below
	select {
	case err := <-d.done:
		d.exited = true
		d.rssMiB = procMaxRSS(d.cmd.ProcessState)
		if err != nil {
			return fmt.Errorf("teasrvd drain: %w", err)
		}
		return nil
	case <-time.After(30 * time.Second):
		d.kill()
		return errors.New("teasrvd did not drain within 30s")
	}
}

// kill stops the daemon at once if it is still running, and reaps it.
func (d *daemon) kill() {
	if d.exited {
		return
	}
	d.cmd.Process.Kill()
	<-d.done
	d.exited = true
}

// serveInProc times repeat requests against an in-process serve.New on
// loopback. The benchmark's RunFunc records the spec and store spans of
// every cell, and the request's report is re-rendered to time the render
// the server does inside, so what remains of a hit's latency is the serve
// layer's own share (its own per-cell fingerprint included).
func serveInProc(ctx context.Context, o *outcome, tr *tracer, plan [2][]planStep, exp *expected, dir string) error {
	t := time.Now()
	st, err := store.Open(dir, store.Options{})
	if err != nil {
		return err
	}
	defer st.Close()
	o.metrics["store.open_ms"] = float64(time.Since(t)) / 1e6
	o.metrics["store.open_records"] = float64(st.Len())

	var mu sync.Mutex
	var getNS, fpNS []float64
	perReq := map[int64]time.Duration{}
	run := func(ctx context.Context, workload string, cfg tea.Config) (tea.Result, error) {
		ref, _ := ctx.Value(spanKey{}).(spanRef)
		_, end := tr.begin(ctx, "spec")
		t := time.Now()
		fp, err := cfg.SpecFingerprint()
		fd := time.Since(t)
		end()
		if err != nil {
			return tea.RunContext(ctx, workload, cfg)
		}
		_, end = tr.begin(ctx, "store")
		t = time.Now()
		res, ok := st.Get(store.Key{Workload: workload, Mode: cfg.Mode.String(),
			Spec: fmt.Sprintf("%016x", fp), MaxInstr: cfg.MaxInstructions, Scale: cfg.Scale})
		gd := time.Since(t)
		end()
		mu.Lock()
		fpNS, getNS = append(fpNS, float64(fd)), append(getNS, float64(gd))
		perReq[ref.req] += fd + gd
		mu.Unlock()
		if ok {
			return res, nil
		}
		return tea.RunContext(ctx, workload, cfg)
	}
	srv := serve.New(serve.Config{Workers: 1, MaxConcurrent: 2, DefaultInstructions: serveHitBudget, RunFunc: run})
	inner := srv.Handler()
	handler := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		req, _ := strconv.ParseInt(r.Header.Get("X-Bench-Req"), 10, 64)
		id, _ := strconv.ParseInt(r.Header.Get("X-Bench-Span"), 10, 64)
		inner.ServeHTTP(w, r.WithContext(context.WithValue(r.Context(), spanKey{}, spanRef{id: id, req: req})))
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	hs := &http.Server{Handler: handler}
	served := make(chan error, 1)
	go func() { served <- hs.Serve(ln) }()
	url := "http://" + ln.Addr().String()
	cl := &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1, DisableCompression: true}}

	var self []float64
	var renderNS [3][]float64
	n := 0
	for _, seq := range plan {
		for _, s := range seq {
			if s.Cold || n >= serveInProcess {
				continue
			}
			n++
			req := int64(1_000_000 + n)
			rctx, end := tr.begin(withReq(ctx, req), "serve")
			rec := post(rctx, cl, url, s, exp)
			end()
			o.attempted++
			// Without a store of its own the server counts every cell it
			// hands the RunFunc as simulated, so only the bytes are checked.
			if !rec.ok {
				o.failed++
				continue
			}
			f, _ := tea.ParseFormat(s.Req.Format)
			_, endR := tr.begin(withReq(ctx, req), "render")
			t := time.Now()
			_, _ = render(exp.reports[s.Req.key()], f) // timed only; the bytes were checked
			rd := time.Since(t)
			endR()
			for i, ff := range formats {
				if ff == f {
					renderNS[i] = append(renderNS[i], float64(rd))
				}
			}
			mu.Lock()
			spent := perReq[req]
			mu.Unlock()
			self = append(self, rec.latMS-float64(spent+rd)/1e6)
		}
	}
	o.roots += n
	cl.CloseIdleConnections()
	shutCtx, cancel := context.WithTimeout(ctx, 10*time.Second)
	defer cancel()
	if err := hs.Shutdown(shutCtx); err != nil {
		return err
	}
	if err := <-served; !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	o.metrics["serve.self_ms_p50"] = median(self)
	o.metrics["spec.fingerprint_us"] = mean(fpNS) / 1e3
	for i, name := range []string{"render.json_us", "render.csv_us", "render.text_us"} {
		o.metrics[name] = mean(renderNS[i]) / 1e3
	}
	if v, ok := percentile(getNS, 50); ok {
		o.metrics["store.get_us_p50"] = v / 1e3
	}
	if v, ok := percentile(getNS, 99); ok {
		o.metrics["store.get_us_p99"] = v / 1e3
	}
	return nil
}
