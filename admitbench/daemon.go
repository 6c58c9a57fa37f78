package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"time"

	"sqpr/internal/core"
	"sqpr/internal/engine"
	"sqpr/internal/plan"
	"sqpr/internal/serve"
	"sqpr/internal/sim"
	"sqpr/internal/wal"
)

// daemon is the admission daemon as sqpr-cluster -serve -wal runs it, in
// this process: the SQPR planner behind a durable plan.Service journaling
// to a real directory with the default SyncAlways policy, behind the
// internal/serve control plane on a loopback http.Server.
type daemon struct {
	env     *sim.Env
	planner *core.Planner
	svc     *plan.Service
	hs      *http.Server
	served  chan error
	base    string
}

// plannerConfig is the -serve planner configuration: the deploy scale's
// 150 ms solve budget, 8 candidate hosts, 30 free streams, serial search.
func plannerConfig(sc sim.Scale) core.Config {
	cfg := core.DefaultConfig()
	cfg.SolveTimeout = sc.Timeout
	cfg.MaxCandidateHosts = sc.MaxCandHost
	cfg.MaxFreeStreams = freeStreams
	return cfg
}

// journalFS opens the journal directory, wrapped in the tracing decorator
// when tr is non-nil.
func journalFS(dir string, tr *tracer) (wal.FS, error) {
	fs, err := wal.DirFS(dir)
	if err != nil || tr == nil {
		return fs, err
	}
	return fsT{fs: fs, tr: tr}, nil
}

// startDaemon generates the substrate, opens the journal in dir and starts
// serving. It returns the daemon and the substrate generation time.
func startDaemon(sp spec, dir string, tr *tracer) (*daemon, time.Duration, error) {
	t0 := time.Now()
	env := sim.BuildEnv(sp.scale)
	generate := time.Since(t0)

	fs, err := journalFS(dir, tr)
	if err != nil {
		return nil, 0, err
	}
	p := core.NewPlanner(env.Sys, plannerConfig(sp.scale))
	var qp plan.QueryPlanner = p
	if tr != nil {
		qp = &plannerT{p: p, tr: tr}
	}
	svc, _, err := plan.OpenService(qp, plan.ServiceConfig{}, fs, wal.Options{})
	if err != nil {
		return nil, 0, err
	}
	srv, err := serve.New(serve.Config{Service: svc, System: env.Sys, Monitor: engine.New(env.Sys, engine.Config{}).Monitor()})
	if err != nil {
		svc.Close()
		return nil, 0, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		svc.Close()
		return nil, 0, err
	}
	h := srv.Handler()
	if tr != nil {
		h = tr.middleware(h)
	}
	d := &daemon{
		env: env, planner: p, svc: svc,
		hs:     &http.Server{Handler: h},
		served: make(chan error, 1),
		base:   "http://" + ln.Addr().String(),
	}
	go func() { d.served <- d.hs.Serve(ln) }()
	return d, generate, nil
}

// stop shuts the daemon down the way -serve does on SIGTERM: stop serving,
// flush the journal, close the service. Once it returns the dispatcher has
// exited, so the planner may be read directly.
func (d *daemon) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := d.hs.Shutdown(ctx)
	if serr := <-d.served; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	if werr := d.svc.SyncWAL(); werr != nil && err == nil {
		err = werr
	}
	d.svc.Close()
	if err != nil {
		return fmt.Errorf("stopping daemon: %w", err)
	}
	return nil
}

// reopen replays the journal in dir into a fresh planner, the way a
// restarted daemon recovers. It returns the time from planner construction
// to a running service, the recovered state and the planning calls the
// recovery made.
func reopen(sp spec, dir string, tr *tracer) (time.Duration, plan.State, int, error) {
	env := sim.BuildEnv(sp.scale)
	fs, err := journalFS(dir, tr)
	if err != nil {
		return 0, plan.State{}, 0, err
	}
	t0 := time.Now()
	p := core.NewPlanner(env.Sys, plannerConfig(sp.scale))
	svc, _, err := plan.OpenService(p, plan.ServiceConfig{}, fs, wal.Options{})
	took := time.Since(t0)
	if err != nil {
		return 0, plan.State{}, 0, err
	}
	svc.Close()
	return took, p.ExportState(), p.Stats().Submissions, nil
}
