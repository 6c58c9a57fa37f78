package main

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"runtime"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"sqpr/internal/dsps"
	"sqpr/internal/plan"
)

const (
	// restarts is how many times the set-up journal is reopened and timed.
	restarts = 5
	// verdictWindow is how many window verdicts the repeatability digest
	// covers: a prefix every run at one seed reaches.
	verdictWindow = 50
)

// pass is one set-up and timed window against a fresh daemon.
type pass struct {
	spec   spec
	traced bool

	setup         time.Duration
	generate      time.Duration
	prefill       time.Duration
	prefillDigest digest

	elapsed           time.Duration
	writes, writeFail int
	reads, readFail   int // reader goroutine only, until the window ends
	submitMS          []float64
	removeMS          []float64
	repairMS          []float64
	writeMS           []float64
	readMS            []float64 // reader goroutine only
	readBytes         int       // reader goroutine only
	fresh, admitted   int
	verdicts          digest
	before, after     map[string]float64
	rt0, rt1          runtimeSample
	heapPeak          uint64

	restartMS    []float64
	replayReadMS []float64
	spans        []span
	failedChecks []string
}

func (p *pass) fail(format string, args ...any) {
	p.failedChecks = append(p.failedChecks, fmt.Sprintf(format, args...))
}

func (p *pass) acked() int { return p.writes - p.writeFail }

func (p *pass) delta(name string) float64 { return p.after[name] - p.before[name] }

// runPass is one episode: it sets the daemon up, times reopening the
// set-up's journal (whose length depends only on the seed), serves the
// timed window from the reopened journal, checks the outcome and reopens
// the final journal once more.
func runPass(sp spec, seed int64, window time.Duration, tr *tracer, workdir string) (*pass, error) {
	p := &pass{spec: sp, traced: tr != nil}
	ids := new(atomic.Int64)
	dir, err := os.MkdirTemp(workdir, sp.name+"-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	t0 := time.Now()
	d, generate, err := startDaemon(sp, dir, tr)
	if err != nil {
		return nil, err
	}
	p.generate = generate
	wc := newClient(d.base, tr, ids)
	w := newWriter(sp, seed, d.env.Queries)
	t1 := time.Now()
	if p.prefillDigest, err = prefill(sp, w, wc); err != nil {
		return nil, fmt.Errorf("prefill: %w", err)
	}
	p.prefill = time.Since(t1)
	p.setup = time.Since(t0)
	wc.close()
	if err := d.stop(); err != nil {
		return nil, err
	}

	live := d.planner.ExportState()
	for i := 0; i < restarts; i++ {
		runtime.GC()
		took, read, err := p.checkReopen(sp, dir, tr, live)
		if err != nil {
			return nil, err
		}
		p.restartMS = append(p.restartMS, ms(took))
		p.replayReadMS = append(p.replayReadMS, ms(read))
	}
	if d, _, err = startDaemon(sp, dir, tr); err != nil {
		return nil, err
	}
	wc = newClient(d.base, tr, ids)

	if p.before, err = scrape(wc); err != nil {
		return nil, err
	}
	runtime.GC()
	if tr != nil {
		tr.reset()
	}
	if p.rt0, err = readRuntime(); err != nil {
		return nil, err
	}
	start := time.Now()
	deadline := start.Add(window)
	rc := newClient(d.base, tr, ids)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(2)
	go func() { defer wg.Done(); p.readLoop(rc, start, deadline) }()
	go func() { defer wg.Done(); p.sampleHeap(stop) }()
	werr := p.writeLoop(w, wc, deadline)
	p.elapsed = time.Since(start)
	close(stop)
	wg.Wait()
	rc.close()
	if werr != nil {
		return nil, werr
	}
	if p.rt1, err = readRuntime(); err != nil {
		return nil, err
	}
	if p.after, err = scrape(wc); err != nil {
		return nil, err
	}

	var adm struct {
		Count   int             `json:"count"`
		Queries []dsps.StreamID `json:"queries"`
	}
	if err := wc.getJSON("/v1/admitted", &adm); err != nil {
		return nil, err
	}
	var final dsps.Assignment
	if err := wc.getJSON("/v1/assignment", &final); err != nil {
		return nil, err
	}
	wc.close()
	if err := d.stop(); err != nil {
		return nil, err
	}

	// The dispatcher has exited: the planner and its system may be read.
	tally := slices.Clone(w.live)
	slices.Sort(tally)
	if adm.Count != len(tally) || !slices.Equal(adm.Queries, tally) {
		p.fail("/v1/admitted reports %d queries, the client tallied %d", adm.Count, len(tally))
	}
	if err := final.Validate(d.env.Sys); err != nil {
		p.fail("final assignment does not validate: %v", err)
	}
	if tr != nil {
		p.spans = tr.snapshot()
	}
	if _, _, err := p.checkReopen(sp, dir, tr, d.planner.ExportState()); err != nil {
		return nil, err
	}
	return p, nil
}

// checkReopen replays the journal into a fresh planner and checks it
// recovers the live state without planning. It returns the reopen time and,
// when traced, the time spent reading journal files.
func (p *pass) checkReopen(sp spec, dir string, tr *tracer, live plan.State) (took, read time.Duration, err error) {
	root := -1
	if tr != nil {
		root = tr.begin("restart", 0, -1)
		tr.setCurrent(roleWrite, root)
	}
	took, st, solves, err := reopen(sp, dir, tr)
	if tr != nil {
		tr.setCurrent(roleWrite, -1)
		tr.end(root, 0)
		for _, s := range tr.snapshot()[root:] {
			if s.Name == "wal.read" && s.Parent == root {
				read += s.dur()
			}
		}
	}
	if err != nil {
		return 0, 0, fmt.Errorf("reopening journal: %w", err)
	}
	if !st.Equal(live) {
		p.fail("journal reopen recovered a state different from the live one (%d vs %d admitted)", len(st.Admitted), len(live.Admitted))
	}
	if solves != 0 {
		p.fail("journal reopen made %d planning calls, want 0", solves)
	}
	return took, read, nil
}

func scrape(c *client) (map[string]float64, error) {
	status, body, err := c.do(http.MethodGet, "/metrics", nil, "")
	if err != nil {
		return nil, err
	}
	if status != http.StatusOK {
		return nil, fmt.Errorf("GET /metrics: status %d", status)
	}
	return parseMetrics(body)
}

// send issues one write and decodes what the writer needs from the reply.
func send(c *client, o op) (reply, error) {
	var (
		path string
		body any
	)
	switch o.kind {
	case opSubmit:
		path, body = "/v1/submit", map[string]any{"query": o.query}
	case opRemove:
		path, body = "/v1/remove", map[string]any{"query": o.query}
	case opRepair:
		path, body = "/v1/repair", map[string]any{"events": o.events}
	}
	status, data, err := c.do(http.MethodPost, path, body, "write")
	if err != nil {
		return reply{}, err
	}
	if status != http.StatusOK {
		return reply{}, fmt.Errorf("POST %s: status %d: %s", path, status, data)
	}
	var r struct {
		Admitted bool            `json:"admitted"`
		Dropped  []dsps.StreamID `json:"dropped"`
	}
	if err := json.Unmarshal(data, &r); err != nil {
		return reply{}, fmt.Errorf("POST %s: %w", path, err)
	}
	return reply{admitted: r.Admitted, dropped: r.Dropped}, nil
}

// prefill brings the daemon to the state the timed window starts from and
// returns the digest of the submit verdicts on the way.
func prefill(sp spec, w *writer, c *client) (digest, error) {
	var dg digest
	step := func(o op) error {
		r, err := send(c, o)
		if err != nil {
			return err
		}
		if o.kind == opSubmit {
			dg.add(o.query, r.admitted)
		}
		w.observe(o, r)
		return nil
	}
	for i := 0; i < sp.prefillOps; i++ {
		if err := step(w.next()); err != nil {
			return dg, err
		}
	}
	for tries := 0; len(w.live) < sp.prefillAdmitted; tries++ {
		if tries > 2*len(w.pool) {
			return dg, fmt.Errorf("only %d of %d queries admitted", len(w.live), sp.prefillAdmitted)
		}
		if err := step(op{kind: opSubmit, query: w.fresh()}); err != nil {
			return dg, err
		}
	}
	return dg, nil
}

// writeLoop is the closed-loop writer: one request at a time until the
// window ends. A failed write is counted and the writer moves on.
func (p *pass) writeLoop(w *writer, c *client, deadline time.Time) error {
	for time.Now().Before(deadline) {
		o := w.next()
		t0 := time.Now()
		r, err := send(c, o)
		lat := ms(time.Since(t0))
		p.writes++
		if err != nil {
			p.writeFail++
			continue
		}
		p.writeMS = append(p.writeMS, lat)
		switch o.kind {
		case opSubmit:
			p.submitMS = append(p.submitMS, lat)
			p.fresh++
			if r.admitted {
				p.admitted++
			}
			if p.verdicts.n < verdictWindow {
				p.verdicts.add(o.query, r.admitted)
			}
		case opRemove:
			p.removeMS = append(p.removeMS, lat)
		case opRepair:
			p.repairMS = append(p.repairMS, lat)
		}
		w.observe(o, r)
	}
	return nil
}

// readLoop is the reader: one GET every readEvery from start, each timed
// from when it was due, so a read stalled behind a solve also charges the
// reads queued behind it.
func (p *pass) readLoop(c *client, start, deadline time.Time) {
	for k := 0; ; k++ {
		due := start.Add(time.Duration(k) * p.spec.readEvery)
		if !due.Before(deadline) {
			return
		}
		time.Sleep(time.Until(due))
		status, body, err := c.do(http.MethodGet, p.spec.readPath, nil, "read")
		lat := ms(time.Since(due))
		p.reads++
		if err != nil || status != http.StatusOK {
			p.readFail++
			continue
		}
		p.readMS = append(p.readMS, lat)
		p.readBytes += len(body)
	}
}

func (p *pass) sampleHeap(stop <-chan struct{}) {
	t := time.NewTicker(10 * time.Millisecond)
	defer t.Stop()
	for {
		select {
		case <-stop:
			return
		case <-t.C:
			p.heapPeak = max(p.heapPeak, liveHeapBytes())
		}
	}
}

func (p *pass) writeRPS() float64 { return ratio(float64(p.acked()), p.elapsed.Seconds()) }

func (p *pass) perSolve(name string) float64 {
	return ratio(p.delta(name), p.delta("sqpr_planner_submissions_total"))
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// report prints the episode's counts and its repeatability evidence: the
// verdict digests beside the deterministic counters, with the deadline
// share that makes verdicts drift.
func (p *pass) report(out io.Writer, seed int64) {
	kind := "untraced"
	if p.traced {
		kind = "traced"
	}
	fmt.Fprintf(out, "%s episode %s seed=%d: setup=%.3fs window=%.2fs writes=%d (failed %d) reads=%d (failed %d)\n",
		kind, p.spec.name, seed, p.setup.Seconds(), p.elapsed.Seconds(), p.writes, p.writeFail, p.reads, p.readFail)
	fmt.Fprintf(out, "  repeatability: prefill_verdicts=%s window_verdicts=%s admitted_frac=%.4f milp.nodes_per_solve=%.4f wal.syncs_per_write=%.4f milp.deadline_frac=%.4f\n",
		p.prefillDigest, p.verdicts, ratio(float64(p.admitted), float64(p.fresh)),
		p.perSolve("sqpr_planner_nodes_total"), ratio(p.delta("sqpr_wal_syncs_total"), float64(p.acked())),
		p.perSolve("sqpr_planner_timeouts_total"))
}

// endToEnd pools the episodes' samples into the end-to-end metrics and
// prints which percentile each latency metric used.
func endToEnd(m map[string]metric, ps []*pass, out io.Writer) {
	var (
		setup, restart               []float64
		submit, remove, repair, read []float64
		acked, fresh, admitted       int
		elapsed, cpu                 time.Duration
		heapPeak                     uint64
	)
	for _, p := range ps {
		setup = append(setup, p.setup.Seconds())
		restart = append(restart, p.restartMS...)
		submit = append(submit, p.submitMS...)
		remove = append(remove, p.removeMS...)
		repair = append(repair, p.repairMS...)
		read = append(read, p.readMS...)
		acked += p.acked()
		fresh += p.fresh
		admitted += p.admitted
		elapsed += p.elapsed
		cpu += p.rt1.cpu - p.rt0.cpu
		heapPeak = max(heapPeak, p.heapPeak)
	}
	lat := func(name string, samples []float64, want int) {
		l := percentile(samples, want)
		fmt.Fprintf(out, "  %s: %s\n", name, l)
		m[name] = metric{l.value, "ms"}
	}
	lat("submit_p50_ms", submit, 500)
	lat("submit_p99_ms", submit, 990)
	lat("remove_p50_ms", remove, 500)
	lat("repair_p50_ms", repair, 500)
	lat("read_p99_ms", read, 990)
	// The read median is printed, not reported: it falls where reads stop
	// finding the planner mutex free and start waiting out a solve, so it
	// moves with the handful of solves per run that end at their
	// deadline (see README.md).
	l := percentile(read, 500)
	fmt.Fprintf(out, "  read_p50_ms (printed only): %.4f ms, %s\n", l.value, l)
	m["setup_s"] = metric{median(setup), "s"}
	m["write_rps"] = metric{float64(acked) / elapsed.Seconds(), "1/s"}
	m["admitted_frac"] = metric{ratio(float64(admitted), float64(fresh)), "fraction"}
	m["restart_ms"] = metric{median(restart), "ms"}
	m["cpu_ms_per_write"] = metric{ratio(ms(cpu), float64(acked)), "ms"}
	m["heap_peak_mb"] = metric{float64(heapPeak) / (1 << 20), "MiB"}
}

// spanMS returns the durations, in ms, of the spans named name.
func spanMS(spans []span, name string) []float64 {
	var out []float64
	for _, s := range spans {
		if s.Name == name {
			out = append(out, ms(s.dur()))
		}
	}
	return out
}

func layerMetrics(m map[string]metric, tp, plain *pass) {
	acked := float64(tp.acked())
	planMS := tp.delta("sqpr_planner_plan_seconds_total") * 1000
	requests := tp.delta("sqpr_service_request_seconds_count")
	serviceMS := ratio(tp.delta("sqpr_service_request_seconds_sum")*1000, requests)
	p50 := func(name string) float64 { return percentile(spanMS(tp.spans, name), 500).value }

	m["core.plan_ms_per_write"] = metric{ratio(planMS, acked), "ms"}
	m["core.submit_p50_ms"] = metric{p50("core.submit"), "ms"}
	m["core.submit_p99_ms"] = metric{percentile(spanMS(tp.spans, "core.submit"), 990).value, "ms"}
	m["core.remove_p50_ms"] = metric{p50("core.remove"), "ms"}
	m["core.repair_p50_ms"] = metric{p50("core.repair"), "ms"}

	m["milp.nodes_per_solve"] = metric{tp.perSolve("sqpr_planner_nodes_total"), "count"}
	m["milp.deadline_frac"] = metric{tp.perSolve("sqpr_planner_timeouts_total"), "fraction"}
	m["milp.stall_frac"] = metric{tp.perSolve("sqpr_planner_stalls_total"), "fraction"}
	m["milp.cuts_per_solve"] = metric{tp.perSolve("sqpr_planner_cuts_total"), "count"}
	m["milp.presolve_fixed_per_solve"] = metric{tp.perSolve("sqpr_planner_presolve_fixed_total"), "count"}
	m["lp.iters_per_solve"] = metric{tp.perSolve("sqpr_planner_lp_iterations_total"), "count"}
	m["lp.refactors_per_solve"] = metric{tp.perSolve("sqpr_lp_refactors_total"), "count"}

	m["plan.service_ms_per_request"] = metric{serviceMS, "ms"}
	m["plan.outside_planner_ms_per_request"] = metric{serviceMS - ratio(planMS, requests), "ms"}
	m["plan.export_p50_ms"] = metric{p50("plan.export"), "ms"}
	m["plan.mean_batch"] = metric{ratio(tp.delta("sqpr_service_batched_submits_total"), tp.delta("sqpr_service_solves_total")), "count"}
	m["plan.read_handler_p50_ms"] = metric{p50("serve.read"), "ms"}

	var walBytes int
	for _, s := range tp.spans {
		if s.Name == "wal.write" {
			walBytes += s.Bytes
		}
	}
	m["wal.write_p50_ms"] = metric{p50("wal.write"), "ms"}
	m["wal.fsync_p50_ms"] = metric{p50("wal.fsync"), "ms"}
	m["wal.fsync_p99_ms"] = metric{percentile(spanMS(tp.spans, "wal.fsync"), 990).value, "ms"}
	m["wal.syncs_per_write"] = metric{ratio(tp.delta("sqpr_wal_syncs_total"), acked), "count"}
	m["wal.bytes_per_write"] = metric{ratio(float64(walBytes), acked), "bytes"}
	m["wal.snapshots"] = metric{tp.delta("sqpr_wal_snapshots_total"), "count"}
	m["wal.replay_read_ms"] = metric{median(tp.replayReadMS), "ms"}

	self := selfTimes(tp.spans)
	var handlerSelf []float64
	for i, s := range tp.spans {
		if s.Name == "serve.write" || s.Name == "serve.read" {
			handlerSelf = append(handlerSelf, ms(self[i]))
		}
	}
	var writeSum float64
	for _, x := range tp.writeMS {
		writeSum += x
	}
	m["serve.http_ms_per_request"] = metric{ratio(writeSum, float64(len(tp.writeMS))) - serviceMS, "ms"}
	m["serve.handler_self_p50_ms"] = metric{percentile(handlerSelf, 500).value, "ms"}
	m["serve.read_bytes"] = metric{ratio(float64(tp.readBytes), float64(tp.reads-tp.readFail)), "bytes"}

	m["workload.generate_ms"] = metric{ms(tp.generate), "ms"}
	m["setup.prefill_s"] = metric{tp.prefill.Seconds(), "s"}
	m["runtime.alloc_kb_per_write"] = metric{ratio(float64(tp.rt1.allocBytes-tp.rt0.allocBytes)/1024, acked), "KiB"}
	m["runtime.gc_cpu_frac"] = metric{ratio(tp.rt1.gcCPU-tp.rt0.gcCPU, tp.rt1.totalCPU-tp.rt0.totalCPU), "fraction"}
	m["trace.overhead_frac"] = metric{1 - ratio(tp.writeRPS(), plain.writeRPS()), "fraction"}
	failed := tp.writeFail + tp.readFail + plain.writeFail + plain.readFail
	attempted := tp.writes + tp.reads + plain.writes + plain.reads
	m["failed_frac"] = metric{ratio(float64(failed), float64(attempted)), "fraction"}
}

func printMetrics(out io.Writer, m map[string]metric) {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(out, "  %-36s %14.4f %s\n", n, m[n].Value, m[n].Unit)
	}
}
