package main

import (
	"fmt"
	"math/rand"
	"time"

	"sqpr/internal/dsps"
	"sqpr/internal/sim"
)

// spec is one benchmark workload: the substrate and query pool the daemon
// serves, how the single writer fills the daemon during set-up, and what
// the reader polls.
type spec struct {
	name string
	// scale is the substrate and query pool. Its Seed is fixed: the
	// substrate is a deployment, not an input; the benchmark seed drives
	// the request sequence the writer derives from the pool.
	scale sim.Scale
	// prefillOps runs this many writer operations before the timed window
	// (admit-steady: ramps the admitted population to its steady state).
	prefillOps int
	// prefillAdmitted submits fresh queries before the timed window until
	// this many are admitted (repair-churn: a large journaled state).
	prefillAdmitted int
	// readPath is polled by the reader every readEvery.
	readPath  string
	readEvery time.Duration
}

// The daemon's own configuration: sqpr-cluster -serve plans over
// sim.DefaultDeployScale with these planner settings.
const (
	candidateHosts = 8
	freeStreams    = 30
)

// substrateSeed is sim.DefaultDeployScale().Seed: the daemon's substrate.
var substrateSeed = sim.DefaultDeployScale().Seed

// deployScale is the deploy study's substrate and query generator at the
// given size; queries is how many queries the pool draws.
func deployScale(hosts, baseStreams int, bwFactor float64, queries int) sim.Scale {
	ds := sim.DefaultDeployScale()
	return sim.Scale{
		Hosts: hosts, CPUPerHost: ds.CPUPerHost,
		OutBW: ds.OutBW * bwFactor, InBW: ds.InBW * bwFactor, LinkCap: ds.LinkCap * bwFactor,
		BaseStreams: baseStreams, BaseRate: ds.BaseRate, Queries: queries, Zipf: 1,
		Arities: []int{2, 3}, Timeout: ds.Timeout, MaxCandHost: candidateHosts, Seed: substrateSeed,
	}
}

var specs = []spec{
	{
		// The daemon's own substrate. Lifetimes (see admit) keep the
		// admitted population just above the point where submits start to
		// be rejected, so planner Submit dominates the write path on both
		// verdicts while the journaled state stays small.
		name:       "admit-steady",
		scale:      deployScale(sim.DefaultDeployScale().Hosts, sim.DefaultDeployScale().BaseStreams, 1, 1500),
		prefillOps: 200,
		readPath:   "/v1/admitted",
		readEvery:  50 * time.Millisecond,
	},
	{
		// Well below saturation: room for a few hundred admitted queries
		// with little solver contention, so removes, state export and
		// diff, journal records, snapshots and assignment reads all grow
		// with the state while drift repairs exercise the delta MILP. The
		// pool is not much larger than the admitted state, so every seed
		// admits mostly the same queries and the seed orders the churn;
		// with a large pool each seed's state differed enough to move
		// write_rps by a fifth between seeds.
		name:            "repair-churn",
		scale:           deployScale(40, 400, 3, 400),
		prefillAdmitted: 200,
		readPath:        "/v1/assignment",
		readEvery:       100 * time.Millisecond,
	},
}

func specByName(name string) (spec, error) {
	for _, s := range specs {
		if s.name == name {
			return s, nil
		}
	}
	return spec{}, fmt.Errorf("unknown workload %q", name)
}

type opKind int8

const (
	opSubmit opKind = iota
	opRemove
	opRepair
)

// event is one churn event in the /v1/repair wire form.
type event struct {
	Kind  string        `json:"kind"`
	Query dsps.StreamID `json:"query"`
}

// op is one write request.
type op struct {
	kind   opKind
	query  dsps.StreamID
	events []event
}

// reply is what the writer learns from a write's response.
type reply struct {
	admitted bool
	dropped  []dsps.StreamID
}

// writer is the single closed-loop writer. Its next request is a function
// of the seed and the replies it has seen, never of timing, so every run
// at one seed sends the planner the same request order (up to solves that
// end at their deadline, whose verdicts may differ).
type writer struct {
	workload string
	rng      *rand.Rand
	pool     []dsps.StreamID // distinct queries in seeded submission order
	cursor   int
	ops      int // writer operations issued so far

	// live is the client's own tally of admitted queries; pos indexes it
	// and expiry holds each query's removal time in writer operations.
	live   []dsps.StreamID
	pos    map[dsps.StreamID]int
	expiry map[dsps.StreamID]int

	dropped []dsps.StreamID // queries a repair dropped, resubmitted first
}

func newWriter(sp spec, seed int64, queries []dsps.StreamID) *writer {
	seen := make(map[dsps.StreamID]bool, len(queries))
	var pool []dsps.StreamID
	for _, q := range queries {
		if !seen[q] {
			seen[q] = true
			pool = append(pool, q)
		}
	}
	rng := rand.New(rand.NewSource(seed))
	rng.Shuffle(len(pool), func(i, j int) { pool[i], pool[j] = pool[j], pool[i] })
	return &writer{
		workload: sp.name, rng: rng, pool: pool,
		pos: make(map[dsps.StreamID]int), expiry: make(map[dsps.StreamID]int),
	}
}

// fresh returns the next pool query not currently admitted.
func (w *writer) fresh() dsps.StreamID {
	for {
		q := w.pool[w.cursor%len(w.pool)]
		w.cursor++
		if _, ok := w.pos[q]; !ok {
			return q
		}
	}
}

func (w *writer) randomLive() dsps.StreamID { return w.live[w.rng.Intn(len(w.live))] }

// next returns the writer's next request.
func (w *writer) next() op {
	w.ops++
	if w.workload == "admit-steady" {
		return w.nextSteady()
	}
	return w.nextChurn()
}

// nextSteady: remove the query whose lifetime ended first, else every
// 16th operation a drift repair of a live query (so repair latency is
// measured on this workload too), else a fresh submit.
func (w *writer) nextSteady() op {
	due := dsps.StreamID(-1)
	for _, q := range w.live {
		e := w.expiry[q]
		if e <= w.ops && (due < 0 || e < w.expiry[due] || (e == w.expiry[due] && q < due)) {
			due = q
		}
	}
	if due >= 0 {
		return op{kind: opRemove, query: due}
	}
	if w.ops%16 == 0 && len(w.live) > 0 {
		return op{kind: opRepair, events: []event{{Kind: "drift", Query: w.randomLive()}}}
	}
	return op{kind: opSubmit, query: w.fresh()}
}

// nextChurn: resubmit what a repair dropped; otherwise a seeded mix of
// removes, fresh submits and drift repairs.
func (w *writer) nextChurn() op {
	for len(w.dropped) > 0 {
		q := w.dropped[0]
		w.dropped = w.dropped[1:]
		if _, ok := w.pos[q]; !ok {
			return op{kind: opSubmit, query: q}
		}
	}
	x := w.rng.Float64()
	switch {
	case x < 0.4 && len(w.live) > 0:
		return op{kind: opRemove, query: w.randomLive()}
	case x < 0.8 || len(w.live) == 0:
		return op{kind: opSubmit, query: w.fresh()}
	}
	return op{kind: opRepair, events: []event{{Kind: "drift", Query: w.randomLive()}}}
}

// observe folds a write's reply into the client's tally.
func (w *writer) observe(o op, r reply) {
	switch o.kind {
	case opSubmit:
		if r.admitted {
			w.admit(o.query)
		}
	case opRemove:
		w.drop(o.query)
	case opRepair:
		for _, q := range r.dropped {
			w.drop(q)
			if w.workload == "repair-churn" {
				w.dropped = append(w.dropped, q)
			}
		}
	}
}

func (w *writer) admit(q dsps.StreamID) {
	if _, ok := w.pos[q]; ok {
		return
	}
	w.pos[q] = len(w.live)
	w.live = append(w.live, q)
	// Lifetimes of 60–160 operations only matter to admit-steady: they
	// hold enough queries that a few percent of submits run to the solve
	// deadline, which keeps the submit tail on that plateau. Drawing them
	// on both workloads keeps one random stream per writer.
	w.expiry[q] = w.ops + 60 + w.rng.Intn(100)
}

func (w *writer) drop(q dsps.StreamID) {
	i, ok := w.pos[q]
	if !ok {
		return
	}
	last := w.live[len(w.live)-1]
	w.live[i] = last
	w.pos[last] = i
	w.live = w.live[:len(w.live)-1]
	delete(w.pos, q)
	delete(w.expiry, q)
}
