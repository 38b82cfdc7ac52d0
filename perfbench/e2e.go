package main

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"sync"
	"time"

	"mqdp/internal/server"
)

// loadgen is the single-process load generator: one ingest connection
// (ingest, churn and polls, in schedule order) plus one SSE stream.
type loadgen struct {
	in  *serverInputs
	res *result
	c   *server.Client

	subLat []time.Duration // churn subscribe / unsubscribe latencies
	// polled[id] is what incremental polls returned; final[id] is a full
	// read (before an unsubscribe, or after the flush).
	polled map[int64][]server.Emission
	cursor map[int64]int64
	final  map[int64][]server.Emission
}

func newClient(base string, jsonWire bool, timeout time.Duration) *server.Client {
	c := server.NewClient(base)
	c.HTTPClient = &http.Client{Timeout: timeout, Transport: &http.Transport{MaxIdleConnsPerHost: 2, DisableCompression: true}}
	c.DisableBinaryWire = jsonWire
	return c
}

// do runs one scheduled request and counts it.
func (l *loadgen) do(o op) error {
	var err error
	switch o.kind {
	case opIngest:
		var n int
		n, err = l.c.IngestAccepted(l.in.posts[o.lo:o.hi]...)
		if err == nil && n != o.hi-o.lo {
			err = fmt.Errorf("ingest accepted %d of %d posts", n, o.hi-o.lo)
		}
	case opSubscribe:
		t := time.Now()
		var id int64
		id, err = l.c.Subscribe(l.in.pool[o.cfg])
		l.subLat = append(l.subLat, time.Since(t))
		if err == nil && id != o.id {
			err = fmt.Errorf("subscribe returned id %d, want %d", id, o.id)
		}
	case opUnsubscribe:
		t := time.Now()
		err = l.c.Unsubscribe(o.id)
		l.subLat = append(l.subLat, time.Since(t))
	case opPoll:
		var es []server.Emission
		if o.full {
			es, err = l.c.Emissions(o.id, 0, 0)
			l.final[o.id] = es
		} else {
			es, err = l.c.Emissions(o.id, l.cursor[o.id], 0)
			if n := len(es); n > 0 {
				l.cursor[o.id] = es[n-1].Seq
			}
			l.polled[o.id] = append(l.polled[o.id], es...)
		}
	}
	if err != nil {
		err = fmt.Errorf("op %v id %d: %w", o.kind, o.id, err)
	}
	l.res.op(err)
	return err
}

// setupServer execs mqdp-server and registers the initial profiles,
// returning the process and the set-up time (exec to last subscribe).
func setupServer(bin string, args []string, in *serverInputs, jsonWire bool) (*child, *server.Client, time.Duration, error) {
	c, err := startServer(bin, args)
	if err != nil {
		return nil, nil, 0, err
	}
	cl := newClient("http://"+c.addr, jsonWire, 60*time.Second)
	if err := waitHealthy(cl, func(server.Health) bool { return true }); err != nil {
		c.kill()
		return nil, nil, 0, err
	}
	for i, cfg := range in.subs {
		id, err := cl.Subscribe(cfg)
		if err != nil || id != int64(i+1) {
			c.kill()
			return nil, nil, 0, fmt.Errorf("subscribe %d: id %d, %v", i+1, id, err)
		}
	}
	return c, cl, time.Since(c.started), nil
}

// waitHealthy polls /healthz until ok reports true on an "ok" answer.
func waitHealthy(cl *server.Client, ok func(server.Health) bool) error {
	deadline := time.Now().Add(60 * time.Second)
	for {
		h, err := cl.Health()
		if err == nil && h.Status == "ok" && ok(h) {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("server not ready: %+v, %v", h, err)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

type sseRec struct {
	em server.Emission
	at time.Time
}

func runServerWorkload(o options, sp spec, res *result) error {
	in := genServer(sp, o.seed, o.seconds)
	res.diag["posts"] = len(in.posts)
	res.diag["requests"] = len(in.ops)

	args := []string{"-addr", "127.0.0.1:0"}
	var dataDir string
	setupReps := sp.setupReps
	var setups []float64
	var srv *child
	var cl *server.Client
	for rep := 0; rep < setupReps; rep++ {
		a := args
		if sp.durable {
			dataDir = filepath.Join(o.workdir, fmt.Sprintf("data-%s-%d", sp.name, rep))
			if err := os.RemoveAll(dataDir); err != nil {
				return err
			}
			a = append(append([]string(nil), args...), "-data-dir", dataDir, "-fsync", "batch")
			if rep == setupReps-1 {
				args = a
			}
		}
		c, client, d, err := setupServer(o.server, a, in, sp.jsonWire)
		if err != nil {
			return fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, d.Seconds())
		if rep < setupReps-1 {
			c.kill()
			if sp.durable {
				os.RemoveAll(dataDir)
			}
			continue
		}
		srv, cl = c, client
	}
	res.add("setup_s", median(setups), "s", len(setups))

	l := &loadgen{in: in, res: res, c: cl,
		polled: map[int64][]server.Emission{}, cursor: map[int64]int64{}, final: map[int64][]server.Emission{}}

	// The SSE subscriber, on its own connection.
	sseClient := newClient("http://"+srv.addr, sp.jsonWire, 0)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var sseMu sync.Mutex
	var sse []sseRec
	first := make(chan struct{})
	var firstOnce sync.Once
	sseDone := make(chan error, 1)
	go func() {
		sseDone <- sseClient.Stream(ctx, in.sseID, 0, func(ev server.StreamEvent) error {
			firstOnce.Do(func() { close(first) })
			if ev.Emission != nil {
				now := time.Now()
				sseMu.Lock()
				sse = append(sse, sseRec{*ev.Emission, now})
				sseMu.Unlock()
			}
			return nil
		})
	}()
	select {
	case <-first:
	case <-time.After(5 * time.Second):
		return errors.New("SSE stream did not connect")
	}

	runtime.GC()
	// Open-loop phase: ingest request k is due at t0 + k·interval whatever
	// happened before; latency runs from the due time.
	due := make([]time.Time, len(in.ops))
	interval := time.Duration(float64(sp.batch) / sp.openRate * float64(time.Second))
	var ingestLat, late []time.Duration
	t0 := time.Now().Add(10 * time.Millisecond)
	k := 0
	for i, op := range in.ops[:in.nOpen] {
		if op.kind != opIngest {
			_ = l.do(op)
			continue
		}
		due[i] = t0.Add(time.Duration(k) * interval)
		k++
		sleepUntil(due[i])
		late = append(late, time.Since(due[i]))
		if l.do(op) == nil {
			ingestLat = append(ingestLat, time.Since(due[i]))
		}
	}

	// Closed-loop phase, split into equal request-count chunks; each chunk
	// yields a throughput and a server CPU cost per post.
	var closedIngest []int
	for i := in.nOpen; i < in.tailOp; i++ {
		if in.ops[i].kind == opIngest {
			closedIngest = append(closedIngest, i)
		}
	}
	per := len(closedIngest) / sp.chunks
	runtime.GC()
	var rates, cpus []float64
	next := in.nOpen
	for ch := 0; ch < sp.chunks; ch++ {
		last := closedIngest[(ch+1)*per-1]
		if ch == sp.chunks-1 {
			last = in.tailOp - 1
		}
		cpu0, err := procCPU(srv.pid)
		if err != nil {
			return err
		}
		start := time.Now()
		posts := 0
		for ; next <= last; next++ {
			op := in.ops[next]
			if op.kind == opIngest {
				posts += op.hi - op.lo
			}
			_ = l.do(op)
		}
		wall := time.Since(start).Seconds()
		cpu1, err := procCPU(srv.pid)
		if err != nil {
			return err
		}
		rates = append(rates, float64(posts)/wall)
		cpus = append(cpus, (cpu1-cpu0)/float64(posts)*1e6)
	}

	m, err := cl.Metrics()
	res.op(err)
	rss, err := procHWM(srv.pid)
	if err != nil {
		return err
	}

	crashDir := ""
	var recovery time.Duration
	if sp.durable {
		// Crash: read every live subscription's acknowledged emissions, kill
		// -9, restart on the same data dir, and check the recovered state.
		live := liveIDs(in, in.tailOp)
		acked := map[int64][]server.Emission{}
		for _, id := range live {
			es, err := cl.Emissions(id, 0, 0)
			res.op(err)
			acked[id] = es
		}
		h, err := cl.Health()
		res.op(err)
		srv.kill()
		cancel()
		<-sseDone
		if o.trace {
			crashDir = dataDir + "-crashed"
			if err := copyDir(dataDir, crashDir); err != nil {
				return err
			}
		}
		srv, err = startServer(o.server, args)
		if err != nil {
			return fmt.Errorf("restart: %w", err)
		}
		cl = newClient("http://"+srv.addr, sp.jsonWire, 60*time.Second)
		l.c = cl
		err = waitHealthy(cl, func(g server.Health) bool {
			return g.Subscriptions == h.Subscriptions && g.Ingested == h.Ingested
		})
		res.op(err)
		recovery = time.Since(srv.started)
		res.diag["recovery_s"] = recovery.Seconds()
		for _, id := range live {
			es, err := cl.Emissions(id, 0, 0)
			res.op(err)
			res.check(sameEmissions(es, acked[id]), "subscription %d: %d emissions after restart, %d acknowledged before the kill", id, len(es), len(acked[id]))
		}
		// The post-restart batch is applied exactly once and the seqs
		// continue (checked against the reference below).
		tail := in.ops[in.tailOp]
		_ = l.do(tail)
		g, err := cl.Health()
		res.op(err)
		res.check(g.Ingested == h.Ingested+int64(tail.hi-tail.lo), "post-restart batch: ingested %d, want %d", g.Ingested, h.Ingested+int64(tail.hi-tail.lo))
	}

	res.op(cl.Flush())
	for _, id := range liveIDs(in, len(in.ops)) {
		es, err := cl.Emissions(id, 0, 0)
		res.op(err)
		l.final[id] = es
	}
	if !sp.durable {
		select {
		case <-sseDone:
		case <-time.After(10 * time.Second):
			res.fail(errors.New("SSE stream did not end after the flush"))
			cancel()
			<-sseDone
		}
	}
	cancel()
	srv.kill()

	// Reference (and, with --trace 1, traced) replay of the same inputs.
	var rec *recorder
	if o.trace {
		rec = newRecorder()
	}
	rep := newReplica(rec)
	tr := startTraced(sp, rep, in)
	refStart := time.Now()
	if err := rep.registerInitial(in); err != nil {
		return err
	}
	if err := tr.run(); err != nil {
		return err
	}
	rep.flush()
	res.diag["reference_replay_s"] = time.Since(refStart).Seconds()

	// Correctness: emissions identical to the replay, polls consistent,
	// every live subscription's output a λ-cover of what it matched.
	cover := 0
	for _, s := range rep.all {
		got, ok := l.final[s.id]
		res.check(ok, "subscription %d: emissions never read", s.id)
		cover += len(got)
		res.check(sameEmissions(got, s.emissions), "subscription %d: %d emissions, replay has %d (or they differ)", s.id, len(got), len(s.emissions))
	}
	for id, es := range l.polled {
		s := subByID(rep, id)
		for _, e := range es {
			ok := e.Seq >= 1 && int(e.Seq) <= len(s.emissions) && reflect.DeepEqual(e, s.emissions[e.Seq-1])
			res.check(ok, "subscription %d: polled seq %d differs from the replay", id, e.Seq)
		}
	}
	coverCheck(in, rep, res)

	// Delivery latency over the open-loop phase: from the due time of the
	// request carrying the triggering post to the SSE frame's receipt.
	postOp := make([]int, len(in.posts))
	for i, op := range in.ops {
		if op.kind == opIngest {
			for p := op.lo; p < op.hi; p++ {
				postOp[p] = i
			}
		}
	}
	sseMu.Lock()
	got := map[int64]sseRec{}
	for _, r := range sse {
		got[r.em.Seq] = r
	}
	sseMu.Unlock()
	s := subByID(rep, in.sseID)
	var deliver []time.Duration
	for i, e := range s.emissions {
		if r, ok := got[e.Seq]; ok {
			res.check(reflect.DeepEqual(r.em, e), "SSE seq %d differs from the replay", e.Seq)
		}
		tp := s.trigger[i]
		if tp < 0 || postOp[tp] >= in.nOpen {
			continue
		}
		r, ok := got[e.Seq]
		res.check(ok, "SSE: open-loop emission seq %d never arrived", e.Seq)
		if ok {
			deliver = append(deliver, r.at.Sub(due[postOp[tp]]))
		}
	}

	ingMs, delMs := millis(ingestLat), millis(deliver)
	res.add("ingest_posts_per_s", median(rates), "posts/s", len(rates))
	// Quantiles per window of at least 100 requests (so a p90 has ten
	// samples beyond it), median over the windows.
	res.add("ingest_p50_ms", windowedQuantile(ingMs, 0.5, 100), "ms", len(ingMs))
	res.add("ingest_p90_ms", windowedQuantile(ingMs, 0.9, 100), "ms", len(ingMs))
	res.add("deliver_p50_ms", windowedQuantile(delMs, 0.5, 100), "ms", len(delMs))
	res.add("deliver_p90_ms", windowedQuantile(delMs, 0.9, 100), "ms", len(delMs))
	res.add("server_cpu_us_per_post", median(cpus), "us", len(cpus))
	res.add("rss_mb", rss, "MiB", 1)
	res.add("cover_size", float64(cover), "count", 1)
	subMs := millis(l.subLat)
	res.add("subscribe_p50_ms", quantile(subMs, 0.5), "ms", len(subMs))
	res.diag["ingest_p99_ms"] = quantile(ingMs, 0.99)
	res.diag["deliver_p99_ms"] = quantile(delMs, 0.99)
	res.diag["loadgen.late_p90_ms"] = quantile(millis(late), 0.9)
	res.diag["closed_loop_rates"] = rates

	if o.trace {
		e2e := &e2eCounters{metrics: m, postsPerSec: median(rates), recovery: recovery.Seconds(), crashDir: crashDir}
		res.metrics = nil
		return serverLayers(o, sp, in, rep, tr, e2e, res)
	}
	return nil
}

// sleepUntil returns at t: a timer sleep can overshoot by up to a
// millisecond on a virtual machine, so it sleeps to 1ms short and yields
// the processor for the rest.
func sleepUntil(t time.Time) {
	if d := time.Until(t) - time.Millisecond; d > 0 {
		time.Sleep(d)
	}
	for time.Now().Before(t) {
		runtime.Gosched()
	}
}

// liveIDs lists the subscriptions registered after ops[:upTo], in id order.
func liveIDs(in *serverInputs, upTo int) []int64 {
	live := map[int64]bool{}
	for i := range in.subs {
		live[int64(i+1)] = true
	}
	for _, o := range in.ops[:upTo] {
		switch o.kind {
		case opSubscribe:
			live[o.id] = true
		case opUnsubscribe:
			delete(live, o.id)
		}
	}
	var ids []int64
	for id := int64(1); id <= int64(len(in.subs)+len(in.pool)); id++ {
		if live[id] {
			ids = append(ids, id)
		}
	}
	return ids
}

// sameEmissions compares two emission lists element by element (a nil and
// an empty list are the same).
func sameEmissions(a, b []server.Emission) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !reflect.DeepEqual(a[i], b[i]) {
			return false
		}
	}
	return true
}

func subByID(rep *replica, id int64) *rsub {
	for _, s := range rep.all {
		if s.id == id {
			return s
		}
	}
	return &rsub{}
}

func copyDir(src, dst string) error {
	if err := os.RemoveAll(dst); err != nil {
		return err
	}
	return filepath.Walk(src, func(path string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(src, path)
		target := filepath.Join(dst, rel)
		if info.IsDir() {
			return os.MkdirAll(target, 0o755)
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(target, b, 0o644)
	})
}
