package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"ccncoord/internal/daemon"
	"ccncoord/internal/timeline"
	"ccncoord/internal/topology"
)

// ccnd-open load shape. The open loop offers openRate requests/s as
// fixed-size batches at a fixed schedule; the closed loop keeps
// closedInFlight larger batches outstanding to find the capacity.
const (
	openBatch      = 250
	openBatchesPS  = 400 // 100k requests/s
	closedBatch    = 1000
	closedInFlight = 8
	pollPeriod     = time.Millisecond
	warmPhase      = time.Second
	openShare      = 0.6 // of --seconds; the closed loop gets the rest
	startTimeout   = 60 * time.Second
	drainTimeout   = 60 * time.Second
	// ccnd's defaults: US-A, N=20000, c=150, x=75, re-plan every 50k.
	ccndCatalog = 20000
	ccndZipfS   = 0.8
)

// ccndProc is one spawned ccnd process.
type ccndProc struct {
	cmd      *exec.Cmd
	base     string // http://host:port
	manifest string
	done     chan struct{} // closed once the process has been waited for
	waitErr  error
	mu       sync.Mutex
	log      bytes.Buffer // ccnd's standard error
}

// startCCND spawns ccnd with its defaults on a loopback port and returns
// once /healthz answers 200, with the spawn-to-healthy time.
func startCCND(o Options, manifest string) (*ccndProc, float64, error) {
	t0 := time.Now()
	cmd := exec.Command(filepath.Join(o.Bin, "ccnd"), "-http", "127.0.0.1:0",
		"-seed", strconv.FormatInt(o.Seed, 10), "-manifest", manifest)
	// ccnd must not outlive the benchmark, even when it is killed.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, 0, err
	}
	if err := cmd.Start(); err != nil {
		return nil, 0, fmt.Errorf("starting ccnd: %w", err)
	}
	p := &ccndProc{cmd: cmd, manifest: manifest, done: make(chan struct{})}
	addrc := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			line := sc.Text()
			p.mu.Lock()
			p.log.WriteString(line + "\n")
			p.mu.Unlock()
			if _, rest, ok := strings.Cut(line, "serving on http://"); ok {
				addr, _, _ := strings.Cut(rest, " ")
				select {
				case addrc <- addr:
				default:
				}
			}
		}
		p.waitErr = cmd.Wait()
		close(p.done)
	}()
	select {
	case addr := <-addrc:
		p.base = "http://" + addr
	case <-p.done:
		return nil, 0, fmt.Errorf("ccnd exited before serving: %v\n%s", p.waitErr, p.stderr())
	case <-time.After(startTimeout):
		p.kill()
		return nil, 0, fmt.Errorf("ccnd printed no address within %v", startTimeout)
	}
	c := newClient()
	for {
		resp, err := c.Get(p.base + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return p, time.Since(t0).Seconds(), nil
			}
		}
		if time.Since(t0) > startTimeout {
			p.kill()
			return nil, 0, fmt.Errorf("ccnd not healthy within %v", startTimeout)
		}
		time.Sleep(pollPeriod)
	}
}

func (p *ccndProc) stderr() string {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.log.String()
}

// kill stops the process and waits for it.
func (p *ccndProc) kill() {
	_ = p.cmd.Process.Kill() // fails only if it already exited
	<-p.done
}

// shutdown drains ccnd through POST /shutdown and waits for it to exit.
func (p *ccndProc) shutdown(c *http.Client) error {
	resp, err := c.Post(p.base+"/shutdown", "application/json", nil)
	if err != nil {
		p.kill()
		return fmt.Errorf("POST /shutdown: %w", err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	select {
	case <-p.done:
	case <-time.After(drainTimeout):
		p.kill()
		return fmt.Errorf("ccnd did not exit within %v of /shutdown", drainTimeout)
	}
	if p.waitErr != nil {
		return fmt.Errorf("ccnd exited with %v\n%s", p.waitErr, p.stderr())
	}
	return nil
}

// newClient returns a client that holds at most one connection.
func newClient() *http.Client {
	return &http.Client{
		Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true},
		Timeout:   30 * time.Second,
	}
}

func getJSON(c *http.Client, url string, v any) error {
	resp, err := c.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: %s", url, resp.Status)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

func (p *ccndProc) stats(c *http.Client) (daemon.Snapshot, error) {
	var s daemon.Snapshot
	err := getJSON(c, p.base+"/stats", &s)
	return s, err
}

// post admits one batch of count requests, spread uniformly over the
// routers. It returns the batch's admission sequence number (0 when
// refused) and the HTTP status.
func (p *ccndProc) post(c *http.Client, count int) (uint64, int, error) {
	resp, err := c.Post(p.base+"/requests", "application/json",
		strings.NewReader(fmt.Sprintf(`{"count":%d}`, count)))
	if err != nil {
		return 0, 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		io.Copy(io.Discard, resp.Body)
		return 0, resp.StatusCode, nil
	}
	var body struct {
		Seq uint64 `json:"seq"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		return 0, resp.StatusCode, err
	}
	return body.Seq, resp.StatusCode, nil
}

// loadStats is what one load phase observed.
type loadStats struct {
	latency   []float64     // ms, batch due time -> completion seen by /stats
	lag       []float64     // ms, send start - due time
	admitRTT  []float64     // ms, POST /requests round trip
	statsRTT  []float64     // ms, GET /stats round trip
	queued    []float64     // /stats queued batches
	windowRPS []float64     // closed loop: completions per second of each whole second, steal excluded
	stolen    time.Duration // host steal per CPU during the phase
	attempted int64         // requests offered
	refused   int64         // requests refused (429 or other non-2xx)
	completed int64         // ccnd completions during the phase
	cpu       time.Duration
	elapsed   time.Duration
}

// completionWatch polls /stats every pollPeriod on its own connection
// and stamps each admission sequence number with the time the poll first
// showed it simulated.
type completionWatch struct {
	mu       sync.Mutex
	done     map[uint64]time.Time
	last     uint64
	statsRTT []float64
	queued   []float64
	err      error
	stop     chan struct{}
	exited   chan struct{}
}

func watchCompletions(p *ccndProc, c *http.Client) (*completionWatch, error) {
	s, err := p.stats(c)
	if err != nil {
		return nil, err
	}
	w := &completionWatch{done: map[uint64]time.Time{}, last: uint64(s.Totals.BatchesSimulated),
		stop: make(chan struct{}), exited: make(chan struct{})}
	go func() {
		defer close(w.exited)
		next := time.Now()
		for {
			select {
			case <-w.stop:
				return
			default:
			}
			t0 := time.Now()
			s, err := p.stats(c)
			t1 := time.Now()
			w.mu.Lock()
			if err != nil {
				w.err = err
				w.mu.Unlock()
				return
			}
			w.statsRTT = append(w.statsRTT, float64(t1.Sub(t0).Nanoseconds())/1e6)
			w.queued = append(w.queued, float64(s.Queued))
			for q := w.last + 1; q <= uint64(s.Totals.BatchesSimulated); q++ {
				w.done[q] = t1
			}
			if uint64(s.Totals.BatchesSimulated) > w.last {
				w.last = uint64(s.Totals.BatchesSimulated)
			}
			w.mu.Unlock()
			next = next.Add(pollPeriod)
			if d := time.Until(next); d > 0 {
				time.Sleep(d)
			} else {
				next = time.Now()
			}
		}
	}()
	return w, nil
}

// waitFor blocks until the watch has seen seq simulated.
func (w *completionWatch) waitFor(seq uint64) error {
	deadline := time.Now().Add(drainTimeout)
	for {
		w.mu.Lock()
		last, err := w.last, w.err
		w.mu.Unlock()
		if err != nil {
			return err
		}
		if last >= seq {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("batch %d not simulated within %v", seq, drainTimeout)
		}
		time.Sleep(pollPeriod)
	}
}

func (w *completionWatch) close() error {
	close(w.stop)
	<-w.exited
	return w.err
}

// openLoop offers openBatch-request batches at openBatchesPS for dur,
// timing each from its due time until /stats shows it simulated.
func openLoop(p *ccndProc, post, poll *http.Client, dur time.Duration) (loadStats, error) {
	var ls loadStats
	w, err := watchCompletions(p, poll)
	if err != nil {
		return ls, err
	}
	s0, cpu0, err := p.mark(post)
	if err != nil {
		w.close()
		return ls, err
	}
	type batchDue struct {
		seq uint64
		due time.Time
	}
	var batches []batchDue // in due order
	period := time.Second / openBatchesPS
	t0 := time.Now()
	n := int(dur / period)
	st0 := hostSteal()
	for i := 0; i < n; i++ {
		at := t0.Add(time.Duration(i) * period)
		if d := time.Until(at); d > 0 {
			time.Sleep(d)
		}
		sent := time.Now()
		seq, code, err := p.post(post, openBatch)
		rtt := time.Since(sent)
		if err != nil {
			w.close()
			return ls, err
		}
		ls.attempted += openBatch
		ls.lag = append(ls.lag, float64(sent.Sub(at).Nanoseconds())/1e6)
		ls.admitRTT = append(ls.admitRTT, float64(rtt.Nanoseconds())/1e6)
		if seq == 0 {
			ls.refused += openBatch
			fmt.Fprintf(os.Stderr, "perfbench: batch refused with HTTP %d\n", code)
			continue
		}
		batches = append(batches, batchDue{seq, at})
	}
	var last uint64
	if len(batches) > 0 {
		last = batches[len(batches)-1].seq
	}
	if err := w.waitFor(last); err != nil {
		w.close()
		return ls, err
	}
	ls.elapsed = time.Since(t0)
	ls.stolen = hostSteal() - st0
	s1, cpu1, err := p.mark(post)
	if err := firstErr(err, w.close()); err != nil {
		return ls, err
	}
	ls.completed = s1.Totals.Completed - s0.Totals.Completed
	ls.cpu = cpu1 - cpu0
	for _, b := range batches {
		ls.latency = append(ls.latency, float64(w.done[b.seq].Sub(b.due).Nanoseconds())/1e6)
	}
	ls.statsRTT, ls.queued = w.statsRTT, w.queued
	return ls, nil
}

// closedLoop keeps closedInFlight batches outstanding for dur and
// records the completion rate of each whole second of the phase, over the
// time the host did not steal.
func closedLoop(p *ccndProc, post, poll *http.Client, dur time.Duration) (loadStats, error) {
	var ls loadStats
	s0, err := p.stats(poll)
	if err != nil {
		return ls, err
	}
	t0 := time.Now()
	posted := uint64(s0.Totals.BatchesAdmitted)
	st0 := hostSteal()
	winStart, winDone, winSteal := t0, s0.Totals.Completed, st0
	var s daemon.Snapshot
	for {
		s, err = p.stats(poll)
		if err != nil {
			return ls, err
		}
		now := time.Now()
		if d := now.Sub(winStart); d >= time.Second {
			st := hostSteal()
			ls.windowRPS = append(ls.windowRPS, float64(s.Totals.Completed-winDone)/(d-(st-winSteal)).Seconds())
			winStart, winDone, winSteal = now, s.Totals.Completed, st
		}
		if now.Sub(t0) >= dur {
			break
		}
		for posted-uint64(s.Totals.BatchesSimulated) < closedInFlight {
			seq, code, err := p.post(post, closedBatch)
			if err != nil {
				return ls, err
			}
			ls.attempted += closedBatch
			if seq == 0 {
				ls.refused += closedBatch
				fmt.Fprintf(os.Stderr, "perfbench: batch refused with HTTP %d\n", code)
				break
			}
			posted = seq
		}
		time.Sleep(pollPeriod)
	}
	ls.elapsed = time.Since(t0)
	ls.stolen = hostSteal() - st0
	ls.completed = s.Totals.Completed - s0.Totals.Completed
	return ls, nil
}

// mark reads /stats and ccnd's CPU time together.
func (p *ccndProc) mark(c *http.Client) (daemon.Snapshot, time.Duration, error) {
	s, err := p.stats(c)
	if err != nil {
		return s, 0, err
	}
	cpu, err := procCPU(p.cmd.Process.Pid)
	return s, cpu, err
}

// quiesce waits until every admitted batch is simulated and returns the
// final /stats.
func (p *ccndProc) quiesce(c *http.Client) (daemon.Snapshot, error) {
	deadline := time.Now().Add(drainTimeout)
	for {
		s, err := p.stats(c)
		if err != nil {
			return s, err
		}
		if s.Totals.BatchesSimulated == s.Totals.BatchesAdmitted {
			return s, nil
		}
		if time.Now().After(deadline) {
			return s, fmt.Errorf("%d batches still queued after %v", s.Queued, drainTimeout)
		}
		time.Sleep(pollPeriod)
	}
}

func firstErr(errs ...error) error {
	for _, e := range errs {
		if e != nil {
			return e
		}
	}
	return nil
}

func runCCNDOpen(o Options) (*Outcome, error) {
	out := &Outcome{Metrics: map[string]float64{}, Stamp: map[string]any{"shards": 1, "shard_reason": "", "routing": "dense"}}
	manifest := filepath.Join(o.Work, "ccnd-manifest.json")

	// Set-up: setupReps spawns until healthy; the last one is measured.
	var setups []float64
	var p *ccndProc
	spawns := setupReps
	if o.Trace {
		spawns = 1
	}
	for i := 0; i < spawns; i++ {
		q, s, err := startCCND(o, manifest)
		if err != nil {
			return nil, err
		}
		setups = append(setups, s)
		if i < spawns-1 {
			q.kill()
		} else {
			p = q
		}
	}
	defer func() {
		select {
		case <-p.done:
		default:
			p.kill()
		}
	}()

	post, poll := newClient(), newClient()
	if _, err := openLoop(p, post, poll, warmPhase); err != nil {
		return nil, err
	}
	if o.Trace {
		if err := traceCCND(o, out, p, post, poll); err != nil {
			return nil, err
		}
	} else {
		openDur := time.Duration(openShare * o.Seconds * float64(time.Second))
		open, err := openLoop(p, post, poll, openDur)
		if err != nil {
			return nil, err
		}
		closed, err := closedLoop(p, post, poll, time.Duration(o.Seconds*float64(time.Second))-openDur)
		if err != nil {
			return nil, err
		}
		rss, err := peakRSSMB(p.cmd.Process.Pid)
		if err != nil {
			return nil, err
		}
		printOpenLoop(open)
		rps := summarize(closed.windowRPS)
		fmt.Printf("closed loop: %d requests in %.3fs (host steal %.1f%%); per-second rate, steal excluded: %s\n",
			closed.completed, closed.elapsed.Seconds(), 100*closed.stolen.Seconds()/closed.elapsed.Seconds(), rps)
		out.Metrics["setup_s"] = median(setups)
		out.Metrics["sim_rps"] = rps.P50
		out.Metrics["cpu_us_per_req"] = ratio(float64(open.cpu.Microseconds()), float64(open.completed))
		out.Metrics["peak_rss_mb"] = rss
		out.Attempted += open.attempted + closed.attempted
		out.Failed += open.refused + closed.refused
	}

	last, err := p.quiesce(poll)
	if err != nil {
		return nil, err
	}
	if err := p.shutdown(post); err != nil {
		return nil, err
	}
	checkCCND(out, p, last)
	out.Failed += last.Totals.Failed
	return out, nil
}

// latencyLimitMs is the open loop's latency limit on the batch p99.
const latencyLimitMs = 50

// printOpenLoop prints the open loop's batch latency against its limit
// and the generator's lag, flagging a generator that fell behind its
// schedule by more than one batch period at the 99th percentile. The
// latencies are printed, not gated: they follow the host's steal time,
// which no per-batch correction can remove.
func printOpenLoop(ls loadStats) (lat, lag Dist) {
	lat, lag = summarize(ls.latency), summarize(ls.lag)
	verdict := "met"
	if lat.P99 > latencyLimitMs {
		verdict = "NOT met"
	}
	fmt.Printf("open loop: batch latency ms %s; limit p99 <= %d ms %s; host steal %.1f%%\n",
		lat, latencyLimitMs, verdict, 100*ls.stolen.Seconds()/ls.elapsed.Seconds())
	fmt.Printf("open loop: generator lag ms %s\n", lag)
	if lag.P99 > float64(time.Second/openBatchesPS)/1e6 {
		fmt.Printf("warning: load generator fell behind (lag p99 %.3f ms)\n", lag.P99)
	}
	return lat, lag
}

// checkCCND applies the output checks: nothing failed or was refused,
// the serving tiers partition the completions, and the drained manifest
// totals equal the last /stats.
func checkCCND(out *Outcome, p *ccndProc, last daemon.Snapshot) {
	t := last.Totals
	if t.Completed != t.RequestsAdmitted {
		out.checkf("ccnd completed %d of %d admitted requests", t.Completed, t.RequestsAdmitted)
	}
	if t.Failed != 0 || t.RequestsRejected != 0 {
		out.checkf("ccnd failed %d and rejected %d requests", t.Failed, t.RequestsRejected)
	}
	if t.LocalHits+t.PeerHits+t.OriginServes != t.Completed {
		out.checkf("local+peer+origin = %d, completed %d", t.LocalHits+t.PeerHits+t.OriginServes, t.Completed)
	}
	data, err := os.ReadFile(p.manifest)
	if err != nil {
		out.checkf("reading the drained manifest: %v", err)
		return
	}
	var m daemon.Manifest
	if err := json.Unmarshal(data, &m); err != nil {
		out.checkf("parsing the drained manifest: %v", err)
		return
	}
	if !reflect.DeepEqual(m.Final.Totals, t) {
		out.checkf("manifest totals %+v differ from the last /stats %+v", m.Final.Totals, t)
	}
}

// traceCCND is the traced variant: an untraced open-loop phase, then the
// same load while /debug/pprof/profile records ccnd's CPU on a third
// connection, and the per-layer table.
func traceCCND(o Options, out *Outcome, p *ccndProc, post, poll *http.Client) error {
	m := out.Metrics
	half := time.Duration(o.Seconds / 2 * float64(time.Second))
	base, err := openLoop(p, post, poll, half)
	if err != nil {
		return err
	}
	lat, lag := printOpenLoop(base)
	m["daemon.batch_ms_p50"] = lat.P50
	m["daemon.batch_ms_p99"] = lat.P99
	m["daemon.admit_rtt_ms_p50"] = summarize(base.admitRTT).P50
	m["daemon.admit_rtt_ms_p99"] = summarize(base.admitRTT).P99
	m["daemon.stats_rtt_ms_p50"] = summarize(base.statsRTT).P50
	m["daemon.queued_p99"] = summarize(base.queued).P99
	m["loadgen.lag_ms_p99"] = lag.P99
	m["loadgen.lag_ms_max"] = lag.Max
	m["loadgen.latency_samples"] = float64(lat.N)

	prof := newClient()
	secs := int(math.Max(1, math.Round(half.Seconds())))
	mallocs0, bytes0, err := heapCounters(prof, p.base)
	if err != nil {
		return err
	}
	profPath := filepath.Join(o.Work, "ccnd-cpu.pprof")
	profErr := make(chan error, 1)
	go func() {
		profErr <- fetchFile(prof, fmt.Sprintf("%s/debug/pprof/profile?seconds=%d", p.base, secs), profPath)
	}()
	traced, err := openLoop(p, post, poll, time.Duration(secs)*time.Second)
	if err := firstErr(err, <-profErr); err != nil {
		return err
	}
	mallocs1, bytes1, err := heapCounters(prof, p.base)
	if err != nil {
		return err
	}
	out.Attempted += base.attempted + traced.attempted
	out.Failed += base.refused + traced.refused

	basePerReq := ratio(float64(base.cpu), float64(base.completed))
	m["trace.overhead_frac"] = ratio(float64(traced.cpu), float64(traced.completed))/basePerReq - 1
	m["host.steal_frac"] = ratio(traced.stolen.Seconds(), traced.elapsed.Seconds())
	m["runtime.allocs_per_req"] = ratio(float64(mallocs1-mallocs0), float64(traced.completed))
	m["runtime.alloc_bytes_per_req"] = ratio(float64(bytes1-bytes0), float64(traced.completed))

	a, err := attributeProfile(profPath)
	if err != nil {
		return err
	}
	layerMetrics(a, m)

	s, err := p.stats(poll)
	if err != nil {
		return err
	}
	var records []timeline.EpochRecord
	if err := getJSON(poll, p.base+"/timeline", &records); err != nil {
		return err
	}
	var walls []float64
	for _, r := range records {
		walls = append(walls, r.WallMs)
	}
	rp := summarize(walls)
	fmt.Printf("re-plan wall ms: %s\n", rp)
	m["coord.messages"] = float64(s.Coordination.Messages)
	m["coord.replans"] = float64(s.Coordination.Replans)
	m["coord.replan_ms_p50"], m["coord.replan_ms_max"] = rp.P50, rp.Max
	m["des.events_per_req"] = ratio(float64(s.Engine.EventsProcessed), float64(s.Totals.Completed))
	m["des.pending_peak"] = float64(s.Engine.PendingPeak)
	// ccnd runs the serial engine and does not expose per-router
	// data-plane counters, so these read 0 here.
	for _, k := range []string{"des.cross_shard_frac", "des.windows", "des.barrier_wait_frac",
		"ccn.tx_per_req", "ccn.pit_aggregated_frac", "cache.hit_ratio", "sim.fixed_ms"} {
		m[k] = 0
	}

	tb := time.Now()
	g := topology.USA()
	m["topology.build_ms"] = msSince(tb)
	if m["topology.partition_ms"], err = microMs(func() error { _, err := topology.PartitionGraph(g, 2); return err }); err != nil {
		return err
	}
	if m["topology.maxdist_ms"], err = microMs(func() error { topology.NewLRUPaths(g, 0).MaxDist(); return nil }); err != nil {
		return err
	}
	m["workload.draw_ns"], err = zipfDrawNs(ccndZipfS, ccndCatalog, o.Seed)
	return err
}

// heapCounters reads the cumulative allocation counters from the
// MemStats trailer of /debug/pprof/heap?debug=1.
func heapCounters(c *http.Client, base string) (mallocs, totalAlloc float64, err error) {
	resp, err := c.Get(base + "/debug/pprof/heap?debug=1")
	if err != nil {
		return 0, 0, err
	}
	defer resp.Body.Close()
	found := 0
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<16), 1<<20)
	for sc.Scan() {
		if v, ok := strings.CutPrefix(sc.Text(), "# Mallocs = "); ok {
			mallocs, err = strconv.ParseFloat(v, 64)
			found++
		} else if v, ok := strings.CutPrefix(sc.Text(), "# TotalAlloc = "); ok {
			totalAlloc, err = strconv.ParseFloat(v, 64)
			found++
		}
		if err != nil {
			return 0, 0, fmt.Errorf("parsing heap profile: %w", err)
		}
	}
	if found != 2 {
		return 0, 0, fmt.Errorf("heap profile lacks the MemStats trailer")
	}
	return mallocs, totalAlloc, sc.Err()
}

// fetchFile stores the body of GET url at path.
func fetchFile(c *http.Client, url, path string) error {
	ctx, cancel := context.WithTimeout(context.Background(), drainTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return err
	}
	resp, err := (&http.Client{Transport: c.Transport}).Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: %s", url, resp.Status)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if _, err := io.Copy(f, resp.Body); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
