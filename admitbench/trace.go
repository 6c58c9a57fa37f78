package main

import (
	"bufio"
	"context"
	"encoding/json"
	"net/http"
	"os"
	"sort"
	"strconv"
	"sync"
	"time"

	"sqpr/internal/dsps"
	"sqpr/internal/plan"
	"sqpr/internal/wal"
)

// span is one timed call at a layer boundary. Spans of one HTTP request
// share Req; Parent indexes the span that caused this one (-1 for a root).
type span struct {
	Name   string        `json:"name"`
	Req    int64         `json:"req"`
	Parent int           `json:"parent"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
	Bytes  int           `json:"bytes,omitempty"`
}

func (s span) dur() time.Duration { return s.End - s.Start }

// Roles of the in-flight request a span nested below the HTTP handler
// belongs to. One connection carries all writes and one all reads, so at
// most one request of each role is in flight and calls the daemon makes on
// its own goroutines attribute to it unambiguously.
const (
	roleWrite = iota
	roleRead
	roles
)

// tracer keeps spans in memory, recorded only from the benchmark's own
// decorators around the daemon's public interfaces.
type tracer struct {
	origin time.Time

	mu      sync.Mutex
	spans   []span
	current [roles]int // in-flight handler span per role, -1 when idle
}

func newTracer() *tracer {
	return &tracer{origin: time.Now(), current: [roles]int{-1, -1}}
}

func (t *tracer) begin(name string, req int64, parent int) int {
	now := time.Since(t.origin)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Req: req, Parent: parent, Start: now, End: -1})
	return len(t.spans) - 1
}

func (t *tracer) end(i, bytes int) {
	now := time.Since(t.origin)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[i].End = now
	t.spans[i].Bytes = bytes
}

// child begins a span under the in-flight request of role.
func (t *tracer) child(name string, role int) int {
	t.mu.Lock()
	p := t.current[role]
	var req int64
	if p >= 0 {
		req = t.spans[p].Req
	}
	t.mu.Unlock()
	return t.begin(name, req, p)
}

func (t *tracer) setCurrent(role, i int) {
	t.mu.Lock()
	t.current[role] = i
	t.mu.Unlock()
}

// reset drops every span recorded so far (set-up traffic).
func (t *tracer) reset() {
	t.mu.Lock()
	t.spans = t.spans[:0]
	t.current = [roles]int{-1, -1}
	t.mu.Unlock()
}

func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// writeFile writes the spans as JSON lines.
func (t *tracer) writeFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range t.snapshot() {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// selfTimes returns, per span, its duration minus the part of its interval
// that its children cover. Overlapping children count once.
func selfTimes(spans []span) []time.Duration {
	kids := make([][]int, len(spans))
	for i, s := range spans {
		if s.Parent >= 0 && s.Parent < len(spans) {
			kids[s.Parent] = append(kids[s.Parent], i)
		}
	}
	self := make([]time.Duration, len(spans))
	type iv struct{ a, b time.Duration }
	for i, s := range spans {
		var ivs []iv
		for _, k := range kids[i] {
			a, b := max(spans[k].Start, s.Start), min(spans[k].End, s.End)
			if b > a {
				ivs = append(ivs, iv{a, b})
			}
		}
		sort.Slice(ivs, func(x, y int) bool { return ivs[x].a < ivs[y].a })
		covered := time.Duration(0)
		var cur iv
		for j, v := range ivs {
			switch {
			case j == 0:
				cur = v
			case v.a <= cur.b:
				cur.b = max(cur.b, v.b)
			default:
				covered += cur.b - cur.a
				cur = v
			}
		}
		if len(ivs) > 0 {
			covered += cur.b - cur.a
		}
		self[i] = s.dur() - covered
	}
	return self
}

// Header names carrying the client's request ID, span index and role to
// the handler middleware (both sides live in this process).
const (
	hdrReq    = "X-Admitbench-Req"
	hdrParent = "X-Admitbench-Span"
	hdrRole   = "X-Admitbench-Role"
)

var roleNames = [roles]string{"write", "read"}

// middleware wraps the daemon's handler in a span per request. Requests
// outside the two timed roles (the writer's own host-load reads, metric
// scrapes) get a span but never become a parent.
func (t *tracer) middleware(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		req, _ := strconv.ParseInt(r.Header.Get(hdrReq), 10, 64)
		parent, err := strconv.Atoi(r.Header.Get(hdrParent))
		if err != nil {
			parent = -1
		}
		role := -1
		for i, n := range roleNames {
			if r.Header.Get(hdrRole) == n {
				role = i
			}
		}
		name := "serve.other"
		if role >= 0 {
			name = "serve." + roleNames[role]
		}
		i := t.begin(name, req, parent)
		if role >= 0 {
			t.setCurrent(role, i)
		}
		next.ServeHTTP(w, r)
		if role >= 0 {
			t.setCurrent(role, -1)
		}
		t.end(i, 0)
	})
}

// plannerT is the plan.QueryPlanner + plan.StatePorter decorator. The
// service calls the planner from its dispatcher goroutine for writes and
// from handler goroutines for reads, always under its planner mutex.
type plannerT struct {
	p interface {
		plan.QueryPlanner
		plan.StatePorter
	}
	tr *tracer
	// journaling is set between a mutating call and the journal's state
	// export: the planner mutex is held across both, so the next export
	// belongs to the write and any other to a read.
	journaling bool
}

func (d *plannerT) Submit(ctx context.Context, q dsps.StreamID, opts ...plan.SubmitOption) (plan.Result, error) {
	i := d.tr.child("core.submit", roleWrite)
	res, err := d.p.Submit(ctx, q, opts...)
	d.tr.end(i, 0)
	d.journaling = true
	return res, err
}

func (d *plannerT) Remove(q dsps.StreamID) error {
	i := d.tr.child("core.remove", roleWrite)
	err := d.p.Remove(q)
	d.tr.end(i, 0)
	d.journaling = true
	return err
}

func (d *plannerT) Repair(ctx context.Context, events []plan.Event, opts ...plan.SubmitOption) (plan.RepairResult, error) {
	i := d.tr.child("core.repair", roleWrite)
	rr, err := d.p.Repair(ctx, events, opts...)
	d.tr.end(i, 0)
	d.journaling = true
	return rr, err
}

func (d *plannerT) ExportState() plan.State {
	role := roleRead
	if d.journaling {
		role, d.journaling = roleWrite, false
	}
	i := d.tr.child("plan.export", role)
	st := d.p.ExportState()
	d.tr.end(i, 0)
	return st
}

func (d *plannerT) ImportState(s plan.State) error { return d.p.ImportState(s) }
func (d *plannerT) Assignment() *dsps.Assignment   { return d.p.Assignment() }
func (d *plannerT) Admitted(q dsps.StreamID) bool  { return d.p.Admitted(q) }
func (d *plannerT) AdmittedCount() int             { return d.p.AdmittedCount() }
func (d *plannerT) Stats() plan.Stats              { return d.p.Stats() }

// fsT is the wal.FS decorator; only the service's dispatcher writes the
// journal, so its calls belong to the in-flight write.
type fsT struct {
	fs wal.FS
	tr *tracer
}

type fileT struct {
	f  wal.File
	tr *tracer
}

func (d fsT) Create(name string) (wal.File, error) {
	i := d.tr.child("wal.create", roleWrite)
	f, err := d.fs.Create(name)
	d.tr.end(i, 0)
	if err != nil {
		return nil, err
	}
	return fileT{f: f, tr: d.tr}, nil
}

func (d fsT) ReadFile(name string) ([]byte, error) {
	i := d.tr.child("wal.read", roleWrite)
	b, err := d.fs.ReadFile(name)
	d.tr.end(i, len(b))
	return b, err
}

func (d fsT) List() ([]string, error) { return d.fs.List() }

func (d fsT) Remove(name string) error {
	i := d.tr.child("wal.remove", roleWrite)
	err := d.fs.Remove(name)
	d.tr.end(i, 0)
	return err
}

func (d fsT) Truncate(name string, size int64) error { return d.fs.Truncate(name, size) }

func (d fsT) SyncDir() error {
	i := d.tr.child("wal.syncdir", roleWrite)
	err := d.fs.SyncDir()
	d.tr.end(i, 0)
	return err
}

func (d fsT) CrashPoint(p string) error { return d.fs.CrashPoint(p) }

func (f fileT) Write(b []byte) (int, error) {
	i := f.tr.child("wal.write", roleWrite)
	n, err := f.f.Write(b)
	f.tr.end(i, n)
	return n, err
}

func (f fileT) Sync() error {
	i := f.tr.child("wal.fsync", roleWrite)
	err := f.f.Sync()
	f.tr.end(i, 0)
	return err
}

func (f fileT) Close() error { return f.f.Close() }
