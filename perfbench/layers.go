package main

import (
	"context"
	"encoding/gob"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"runtime/metrics"
	"strings"
	"time"

	"mqdp/internal/core"
	"mqdp/internal/index"
	"mqdp/internal/obs"
	"mqdp/internal/server"
	"mqdp/internal/stream"
	"mqdp/internal/synth"
	"mqdp/internal/wal"
	"mqdp/internal/wire"
)

// probePosts bounds the schedule prefix the in-process probes (apply at
// GOMAXPROCS 1 and all cores, the obs tax, the untraced replay for the
// tracing overhead, the WAL probe) run over, per workload.
var probePosts = map[string]int{"firehose": 40960, "durable-fanout": 6144, "digest": 20480}

// tracedRun drives the reference replica over the schedule, timing the
// probe prefix separately so it can be compared with the untraced replay.
type tracedRun struct {
	rep         *replica
	in          *serverInputs
	prefixOps   int
	prefixPosts int
	prefixWall  time.Duration
	prefixSpans int
	bytes       int // encoded request bytes (traced only)
}

// prefixOf returns the number of ops whose ingests cover the first n posts.
func prefixOf(in *serverInputs, n int) (ops, posts int) {
	for i, o := range in.ops {
		if o.kind == opIngest {
			if posts >= n {
				return i, posts
			}
			posts += o.hi - o.lo
		}
	}
	return len(in.ops), posts
}

// startTraced wires the replica for the traced run: with a recorder, every
// request body is round-tripped through the wire codec.
func startTraced(sp spec, rep *replica, in *serverInputs) *tracedRun {
	tr := &tracedRun{rep: rep, in: in}
	tr.prefixOps, tr.prefixPosts = prefixOf(in, probePosts[sp.name])
	if rep.rec != nil {
		rep.wire = wireRoundTrip(sp.jsonWire, rep.rec, &tr.bytes)
	}
	return tr
}

// wireRoundTrip encodes each request body as the client does (binary
// frame or JSON) and decodes it as the server does.
func wireRoundTrip(jsonWire bool, rec *recorder, bytes *int) func([]server.Post) ([]server.Post, error) {
	return func(batch []server.Post) ([]server.Post, error) {
		sp := rec.begin(spEncode)
		var body []byte
		if jsonWire {
			body, _ = json.Marshal(batch)
		} else {
			enc := wire.GetEncoder()
			sps := make([]wire.StreamPost, len(batch))
			for i := range batch {
				sps[i] = wire.StreamPost(batch[i])
			}
			body = append([]byte(nil), enc.EncodeStreamPosts(sps, wire.DefaultCompressThreshold)...)
			wire.PutEncoder(enc)
		}
		rec.end(sp)
		*bytes += len(body)
		sp = rec.begin(spDecode)
		defer rec.end(sp)
		var out []server.Post
		if jsonWire {
			err := json.Unmarshal(body, &out)
			return out, err
		}
		dec := wire.GetDecoder()
		defer wire.PutDecoder(dec)
		_, frame, _, err := dec.DecodeFrame(body)
		if err != nil {
			return nil, err
		}
		sps, err := wire.AppendStreamPosts(nil, frame)
		out = make([]server.Post, len(sps))
		for i := range sps {
			out[i] = server.Post(sps[i])
		}
		return out, err
	}
}

func (tr *tracedRun) run() error {
	t := time.Now()
	if err := tr.rep.run(tr.in, 0, tr.prefixOps); err != nil {
		return err
	}
	tr.prefixWall = time.Since(t)
	if tr.rep.rec != nil {
		tr.prefixSpans = len(tr.rep.rec.spans)
	}
	return tr.rep.run(tr.in, tr.prefixOps, len(tr.in.ops))
}

// e2eCounters is what the traced run takes from its own e2e run.
type e2eCounters struct {
	metrics     server.Metrics
	postsPerSec float64
	recovery    float64 // seconds from exec after the kill -9 to ready; 0 = no crash
	crashDir    string
}

// applyJob is one apply probe: a schedule prefix replayed into
// server.(*Server).IngestBatch in a child process, so the server's heap and
// GC look like a server's rather than the load generator's.
type applyJob struct {
	Posts      []server.Post
	Subs, Pool []server.SubscriptionConfig
	Ops        []applyOp
	DurDir     string // non-empty: EnableDurability here (fsync batch)
	Obs        bool   // mqdp-server's default registry and tracer
	Procs      int    // GOMAXPROCS; 0 = all cores
	// Snapshot copies DurDir to DurDir+"-replay" after the run, then times
	// one state snapshot.
	Snapshot bool
}

type applyOp struct {
	Kind   opKind
	Lo, Hi int
	Cfg    int
	ID     int64
	Full   bool
}

// applyStats is what one apply probe measured.
type applyStats struct {
	ApplyUs, SubscribeUs, PollUs float64
	AllocPerPost, GCFraction     float64
	WALAppendUs, WALCommitUs     float64 // per batch
	WALUsPerPost                 float64 // append plus commit time per post
	SpansPerPost, SnapshotMs     float64
	Metrics                      server.Metrics
}

var rtSamples = []metrics.Sample{
	{Name: "/gc/heap/allocs:bytes"},
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
	{Name: "/cpu/classes/total:cpu-seconds"},
	{Name: "/cpu/classes/idle:cpu-seconds"},
}

func readRuntime() [4]float64 {
	metrics.Read(rtSamples)
	var out [4]float64
	out[0] = float64(rtSamples[0].Value.Uint64())
	for i := 1; i < 4; i++ {
		out[i] = rtSamples[i].Value.Float64()
	}
	return out
}

// defaultRegistry wires a registry and tracer exactly as mqdp-server's
// defaults do.
func defaultRegistry(s *server.Server) *obs.Registry {
	reg := obs.NewRegistry()
	tr := obs.NewTracer(4096)
	tr.SetRetention(100*time.Millisecond, 10)
	reg.SetTracer(tr)
	core.SetObs(reg)
	stream.SetObs(reg)
	index.SetObs(reg)
	s.SetObs(reg)
	return reg
}

// runApply runs one apply probe over ops[:upto] in a child process.
func runApply(o options, in *serverInputs, upto int, durDir string, withObs bool, procs int, snapshot bool) (*applyStats, error) {
	job := applyJob{Subs: in.subs, Pool: in.pool, DurDir: durDir, Obs: withObs, Procs: procs, Snapshot: snapshot}
	for _, op := range in.ops[:upto] {
		job.Ops = append(job.Ops, applyOp{op.kind, op.lo, op.hi, op.cfg, op.id, op.full})
		if op.kind == opIngest {
			job.Posts = in.posts[:op.hi]
		}
	}
	path := filepath.Join(o.workdir, "apply-job.gob")
	if err := writeGob(path, &job); err != nil {
		return nil, err
	}
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	var line string
	c, err := startChild(self, []string{"-apply-worker", path}, func(l string, _ time.Time) {
		if r, ok := strings.CutPrefix(l, "perfbench-apply result "); ok {
			line = r
		}
	})
	if err != nil {
		return nil, err
	}
	select {
	case <-c.done:
	case <-time.After(150 * time.Second):
		c.kill()
		return nil, errors.New("apply probe did not finish")
	}
	if !c.cmd.ProcessState.Success() || line == "" {
		return nil, fmt.Errorf("apply probe failed: %v", c.cmd.ProcessState)
	}
	st := &applyStats{}
	return st, json.Unmarshal([]byte(line), st)
}

// applyWorker is the apply probe's child process.
func applyWorker(path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	var job applyJob
	err = gob.NewDecoder(f).Decode(&job)
	f.Close()
	if err != nil {
		return err
	}
	if job.Procs > 0 {
		runtime.GOMAXPROCS(job.Procs)
	}
	s := server.New(10, 8192)
	var reg *obs.Registry
	if job.Obs {
		reg = defaultRegistry(s)
	}
	if job.DurDir != "" {
		if err := os.RemoveAll(job.DurDir); err != nil {
			return err
		}
		if err := s.EnableDurability(server.DurabilityConfig{Dir: job.DurDir, Fsync: wal.SyncBatch}); err != nil {
			return err
		}
	}
	for _, cfg := range job.Subs {
		if _, err := s.Subscribe(cfg); err != nil {
			return err
		}
	}
	runtime.GC()
	r0 := readRuntime()
	var apply, sub, poll time.Duration
	var posts, subs, polls int
	cursor := map[int64]int64{}
	ctx := context.Background()
	for _, o := range job.Ops {
		t := time.Now()
		switch o.Kind {
		case opIngest:
			res, _, err := s.IngestBatch(ctx, job.Posts[o.Lo:o.Hi], "")
			apply += time.Since(t)
			posts += o.Hi - o.Lo
			if err != nil || res.Accepted != o.Hi-o.Lo {
				return fmt.Errorf("in-process ingest: %v (accepted %d)", err, res.Accepted)
			}
		case opSubscribe, opUnsubscribe:
			if o.Kind == opSubscribe {
				_, err = s.Subscribe(job.Pool[o.Cfg])
			} else {
				err = s.Unsubscribe(o.ID)
			}
			sub += time.Since(t)
			subs++
			if err != nil {
				return err
			}
		case opPoll:
			after := cursor[o.ID]
			if o.Full {
				after = 0
			}
			es, err := s.Emissions(o.ID, after, 0)
			poll += time.Since(t)
			polls++
			if err != nil {
				return err
			}
			if n := len(es); n > 0 && !o.Full {
				cursor[o.ID] = es[n-1].Seq
			}
		}
	}
	r1 := readRuntime()
	st := &applyStats{Metrics: s.Metrics()}
	st.ApplyUs = us(apply) / float64(posts)
	st.SubscribeUs = us(sub) / float64(max(subs, 1))
	st.PollUs = us(poll) / float64(max(polls, 1))
	st.AllocPerPost = (r1[0] - r0[0]) / float64(posts)
	if busy := (r1[2] - r0[2]) - (r1[3] - r0[3]); busy > 0 {
		st.GCFraction = (r1[1] - r0[1]) / busy
	}
	if reg != nil {
		if h := reg.Histogram("mqdp_server_wal_append_seconds", "", obs.TimeBuckets); h.Count() > 0 {
			st.WALAppendUs = h.Mean() * 1e6
			st.WALUsPerPost += h.Sum() * 1e6 / float64(posts)
		}
		if h := reg.Histogram("mqdp_server_wal_commit_seconds", "", obs.TimeBuckets); h.Count() > 0 {
			st.WALCommitUs = h.Mean() * 1e6
			st.WALUsPerPost += h.Sum() * 1e6 / float64(posts)
		}
		ts := reg.Tracer().Stats()
		st.SpansPerPost = float64(ts.Recorded+ts.SampledOut+ts.Pending) / float64(posts)
	}
	if job.Snapshot {
		// The copy is the crash image the parent replays; the snapshot is
		// timed after it so the replay still has every record to apply.
		if err := copyDir(job.DurDir, job.DurDir+"-replay"); err != nil {
			return err
		}
		t := time.Now()
		if err := s.Snapshot(); err != nil {
			return err
		}
		st.SnapshotMs = float64(time.Since(t)) / 1e6
	}
	b, err := json.Marshal(st)
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "perfbench-apply result %s\n", b)
	return nil
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

func dirBytes(dir string) int64 {
	var n int64
	_ = filepath.Walk(dir, func(_ string, info os.FileInfo, err error) error {
		if err == nil && !info.IsDir() {
			n += info.Size()
		}
		return nil
	})
	return n
}

// serverLayers measures every server-path layer on the workload's inputs:
// the traced replay (rep, already run), then the in-process probes over
// the schedule prefix. e2e is nil for the digest workload, whose server
// path exists only in these probes. A traced run reports every per-layer
// metric BENCHMARK.json lists, so layers off a workload's path (the WAL on
// firehose and digest, index and core on the server workloads) are
// measured by probes on its inputs too; only its own path feeds its
// share.* figures.
func serverLayers(o options, sp spec, in *serverInputs, rep *replica, tr *tracedRun, e2e *e2eCounters, res *result) error {
	posts := float64(len(in.posts))
	admitted := 0.0
	for _, a := range rep.admitted {
		if a {
			admitted++
		}
	}
	lt := rep.rec.aggregate(len(rep.rec.spans))
	per := func(d time.Duration, n float64) float64 { return us(d) / n }
	matches := float64(max(rep.matches, 1))
	res.add("wire.encode_us_per_post", per(lt.total[spEncode], posts), "us", lt.calls[spEncode])
	res.add("wire.decode_us_per_post", per(lt.total[spDecode], posts), "us", lt.calls[spDecode])
	res.add("wire.bytes_per_post", float64(tr.bytes)/posts, "bytes", lt.calls[spEncode])
	res.add("simhash.offer_us_per_post", per(lt.total[spOffer], posts), "us", lt.calls[spOffer])
	res.add("simhash.drop_ratio", (posts-admitted)/posts, "ratio", len(rep.admitted))
	res.add("textutil.tokenize_us_per_post", per(lt.total[spTokenize], admitted), "us", lt.calls[spTokenize])
	res.add("textutil.tokens_per_post", float64(rep.tokens)/admitted, "count", lt.calls[spTokenize])
	res.add("route.lookup_us_per_post", per(lt.total[spLookup], admitted), "us", lt.calls[spLookup])
	res.add("route.candidates_us_per_post", per(lt.total[spCands], admitted), "us", lt.calls[spCands])
	res.add("route.candidates_per_post", float64(rep.candidates)/admitted, "count", lt.calls[spCands])
	res.add("match.us_per_candidate", per(lt.total[spMatch], float64(max(lt.calls[spMatch], 1))), "us", lt.calls[spMatch])
	res.add("match.hit_ratio", float64(rep.matches)/float64(max(rep.candidates, 1)), "ratio", rep.candidates)
	res.add("stream.process_us_per_match", per(lt.total[spProcess], matches), "us", lt.calls[spProcess])
	res.add("stream.emissions_per_match", float64(rep.emissions)/matches, "ratio", rep.matches)
	res.add("stream.deliver_us_per_match", per(lt.self[spDeliver], matches), "us", lt.calls[spDeliver])
	res.add("stream.topk_insert_us_per_emission", per(lt.total[spTopK], float64(max(lt.calls[spTopK], 1))), "us", lt.calls[spTopK])
	res.check(rep.misses == 0, "replay: %d decisions lost their text", rep.misses)

	serverSide := []int{spBatch, spPost, spOffer, spTokenize, spLookup, spCands, spMatch, spProcess, spDeliver, spTopK, spDecode}

	// Untraced replay of the prefix: the tracing overhead.
	plain := newReplica(nil)
	plain.wire = wireRoundTrip(sp.jsonWire, nil, new(int))
	if err := plain.registerInitial(in); err != nil {
		return err
	}
	t := time.Now()
	if err := plain.run(in, 0, tr.prefixOps); err != nil {
		return err
	}
	untraced := time.Since(t)
	overhead := float64(tr.prefixWall) / float64(untraced)
	res.add("trace.overhead_ratio", overhead, "ratio", tr.prefixPosts)
	res.diag["replay.traced_us_per_post"] = us(tr.prefixWall) / float64(tr.prefixPosts)
	res.diag["replay.untraced_us_per_post"] = us(untraced) / float64(tr.prefixPosts)

	// In-process apply: all cores, GOMAXPROCS=1, and with mqdp-server's
	// default registry and tracer (the obs tax).
	durDir := func(name string) string {
		if !sp.durable {
			return ""
		}
		return filepath.Join(o.workdir, "apply-"+name)
	}
	all, err := runApply(o, in, tr.prefixOps, durDir("all"), false, 0, false)
	if err != nil {
		return err
	}
	one, err := runApply(o, in, tr.prefixOps, durDir("one"), false, 1, false)
	if err != nil {
		return err
	}
	withReg, err := runApply(o, in, tr.prefixOps, durDir("obs"), true, 0, sp.durable)
	if err != nil {
		return err
	}
	pre := rep.rec.aggregate(tr.prefixSpans)
	var attributed time.Duration
	for _, n := range serverSide {
		if n != spDecode {
			attributed += pre.self[n]
		}
	}
	pp := float64(tr.prefixPosts)
	// The replay has no WAL; on the durable workload the WAL's time per
	// post comes from the server's own wal_append and wal_commit
	// histograms in the probe with mqdp-server's registry.
	walUs := 0.0
	if sp.durable {
		walUs = withReg.WALUsPerPost
	}
	res.add("server.apply_us_per_post", all.ApplyUs, "us", tr.prefixPosts)
	res.add("server.apply_us_per_post_gomaxprocs1", one.ApplyUs, "us", tr.prefixPosts)
	// The layers' self times carry the tracing overhead; scale them back to
	// the untraced replay before taking the remainder of the apply time.
	res.add("server.unattributed_us_per_post", one.ApplyUs-us(attributed)/pp/overhead-walUs, "us", tr.prefixPosts)
	res.add("server.poll_us_per_call", all.PollUs, "us", 1)
	res.add("server.subscribe_us", all.SubscribeUs, "us", 1)
	res.add("obs.tax_ratio", withReg.ApplyUs/all.ApplyUs, "ratio", tr.prefixPosts)

	// Layer shares of the server-side time per post: the replay's self
	// times scaled back by the tracing overhead, plus the WAL's.
	selfUs := func(ns ...int) float64 {
		var d time.Duration
		for _, n := range ns {
			d += lt.self[n]
		}
		return us(d) / posts / overhead
	}
	total := selfUs(serverSide...) + walUs
	shares := map[string]float64{
		"wire": selfUs(spDecode) / total, "simhash": selfUs(spOffer) / total, "textutil": selfUs(spTokenize) / total,
		"route": selfUs(spLookup, spCands) / total, "match": selfUs(spMatch) / total,
		"stream": selfUs(spProcess, spDeliver, spTopK) / total, "wal": walUs / total,
		"index": 0, "core": 0,
	}
	res.add("runtime.alloc_bytes_per_post", all.AllocPerPost, "bytes", tr.prefixPosts)
	res.add("runtime.gc_cpu_fraction", all.GCFraction, "ratio", 1)

	// WAL: the durable workload's own journal; the others journal the
	// same prefix in a probe server, so the layer's cost on their posts
	// is still measured.
	walSt, walDir := withReg, durDir("obs")
	if !sp.durable {
		walDir = filepath.Join(o.workdir, "wal-probe")
		walSt, err = runApply(o, in, tr.prefixOps, walDir, true, 0, true)
		if err != nil {
			return err
		}
	}
	res.add("wal.append_us_per_batch", walSt.WALAppendUs, "us", 1)
	res.add("wal.commit_us_per_batch", walSt.WALCommitUs, "us", 1)
	res.add("wal.bytes_per_post", float64(dirBytes(walDir+"-replay"))/pp, "bytes", tr.prefixPosts)
	res.add("wal.snapshot_ms", walSt.SnapshotMs, "ms", 1)
	replayDir := walDir + "-replay"
	if e2e != nil && e2e.crashDir != "" {
		replayDir = e2e.crashDir
	}
	rs := server.New(10, 8192)
	t = time.Now()
	if err := rs.EnableDurability(server.DurabilityConfig{Dir: replayDir, Fsync: wal.SyncBatch}); err != nil {
		return err
	}
	replay := time.Since(t)
	rm := rs.Metrics()
	res.add("wal.replay_us_per_post", us(replay)/float64(max(rm.Durability.ReplayedPosts, 1)), "us", int(rm.Durability.ReplayedPosts))
	recovery := replay.Seconds()
	if e2e != nil && e2e.recovery > 0 {
		recovery = e2e.recovery
	}
	res.add("wal.recovery_s", recovery, "s", 1)

	// Server counters: scraped from the e2e run's /metrics, or from the
	// probe server for the digest workload, whose HTTP cost comes from a
	// closed-loop ingest of the prefix into a real mqdp-server.
	m := withReg.Metrics
	var closedUs float64
	if e2e != nil {
		m = e2e.metrics
		closedUs = 1e6 / e2e.postsPerSec
	} else if closedUs, err = httpProbe(o, in, tr.prefixOps); err != nil {
		return err
	}
	// Both the e2e server and the probe server run mqdp-server's default
	// registry and tracer, so the apply they are compared with does too.
	res.add("http.overhead_us_per_post", closedUs-withReg.ApplyUs, "us", 1)
	fed := float64(m.Ingested - m.DroppedDups)
	res.add("server.routing_skip_ratio", float64(m.RoutingSkipped)/(fed*float64(m.Subscriptions)), "ratio", 1)
	res.add("server.matched_per_post", float64(m.MatchedTotal)/float64(m.Ingested), "ratio", 1)
	res.add("server.emitted_per_post", float64(m.EmittedTotal)/float64(m.Ingested), "ratio", 1)
	res.add("server.trace_spans_per_post", withReg.SpansPerPost, "ratio", 1)

	if e2e != nil {
		// Index and core on this workload's posts: its first hour through
		// the digest path with the first eight profiles.
		if err := digestProbe(in, res); err != nil {
			return err
		}
		for name, v := range shares {
			res.add("share."+name, v, "ratio", 1)
		}
	}
	path := filepath.Join(o.workdir, "spans-"+sp.name+".tsv")
	res.diag["span_dump"] = path
	return rep.rec.dump(path)
}

// httpProbe ingests the ingest requests of ops[:upto] into a real
// mqdp-server (shipped defaults, binary wire) back to back and returns the
// wall time per post.
func httpProbe(o options, in *serverInputs, upto int) (float64, error) {
	c, cl, _, err := setupServer(o.server, []string{"-addr", "127.0.0.1:0"}, in, false)
	if err != nil {
		return 0, err
	}
	defer c.kill()
	posts := 0
	t := time.Now()
	for _, op := range in.ops[:upto] {
		if op.kind != opIngest {
			continue
		}
		n, err := cl.IngestAccepted(in.posts[op.lo:op.hi]...)
		if err != nil || n != op.hi-op.lo {
			return 0, fmt.Errorf("http probe: accepted %d of %d: %v", n, op.hi-op.lo, err)
		}
		posts += n
	}
	return us(time.Since(t)) / float64(posts), nil
}

// digestProbe runs the digest path over a server workload's first hour
// with its first eight profiles and reports the index and core metrics.
func digestProbe(in *serverInputs, res *result) error {
	din := &digestInputs{Lambda: 60, Hours: 1, Trail: 1, Passes: 1}
	for _, p := range in.posts {
		if p.Time >= 3600 {
			break
		}
		din.Posts = append(din.Posts, p)
	}
	for _, s := range in.subs[:min(8, len(in.subs))] {
		din.Profiles = append(din.Profiles, s.Topics)
	}
	run := &digestRun{}
	if err := digestPath(din, 1, run, true); err != nil {
		return err
	}
	for _, f := range run.Failed {
		res.fail(fmt.Errorf("digest probe: %s", f))
	}
	res.attempted += int64(run.Checks)
	indexCoreMetrics(run, res)
	return nil
}

func indexCoreMetrics(run *digestRun, res *result) {
	docs := 0
	for _, n := range run.AddDocs {
		docs += n
	}
	res.add("index.add_us_per_doc", run.AddTotal*1000/float64(docs), "us", len(run.AddMs))
	res.add("index.query_us_per_window", median(run.QueryMs)*1000, "us", len(run.QueryMs))
	res.add("index.posts_per_query", median(run.QueryPosts), "count", len(run.QueryPosts))
	for _, name := range []string{"scanplus.p0", "scanplus.p1", "greedysc.p0", "greedysc.p1"} {
		res.add("core.solve_ms."+name, median(run.SolveMs[name]), "ms", len(run.SolveMs[name]))
	}
	verify := 0.0
	if run.VerifyMs > 0 {
		verify = (run.VerifyMs - run.SkipMs) / run.VerifyMs
	}
	res.add("core.verify_share", verify, "ratio", len(run.QueryMs))
}

// digestLayers is the digest workload's traced run: the digest path again
// in-process with per-call timings (its covers must equal the worker's),
// then every server-path layer probed on the digest's posts and profiles.
func digestLayers(o options, sp spec, in *digestInputs, worker *digestRun, res *result) error {
	one := *in
	one.Passes = 1
	run := &digestRun{}
	if err := digestPath(&one, 1, run, true); err != nil {
		return err
	}
	for _, f := range run.Failed {
		res.fail(fmt.Errorf("traced digest: %s", f))
	}
	res.attempted += int64(run.Checks)
	res.check(reflect.DeepEqual(run.Covers, worker.Covers), "traced digest covers differ from the worker's")
	indexCoreMetrics(run, res)
	path := run.AddTotal + run.QueryTotal + run.SolveTo
	for name, v := range map[string]float64{
		"index": (run.AddTotal + run.QueryTotal) / path, "core": run.SolveTo / path,
		"wire": 0, "simhash": 0, "textutil": 0, "route": 0, "match": 0, "stream": 0, "wal": 0,
	} {
		res.add("share."+name, v, "ratio", 1)
	}

	// The server path on the digest's posts: binary 256-post batches, the
	// profiles as streamscan+ subscriptions, firehose-style churn and polls.
	w := synth.NewWorld(synth.WorldConfig{Seed: o.seed})
	rng := rand.New(rand.NewSource(o.seed + 3))
	ssp := specs["firehose"]
	ssp.name, ssp.profiles, ssp.churnSlots = "digest", len(in.Profiles), 2
	sin := &serverInputs{sseID: 1}
	for _, topics := range in.Profiles {
		sin.subs = append(sin.subs, server.SubscriptionConfig{Topics: topics, Lambda: 60, Tau: 30, Algorithm: "streamscan+"})
	}
	n := min(probePosts["digest"], len(in.Posts)) / ssp.batch * ssp.batch
	sin.posts = in.Posts[:n]
	buildSchedule(sin, ssp, n, 0, 0, func(int) server.SubscriptionConfig {
		return server.SubscriptionConfig{Topics: profile(w, rng, sp.topicsPerProf), Lambda: 60, Tau: 30, Algorithm: "streamscan+"}
	})
	rep := newReplica(newRecorder())
	tr := startTraced(ssp, rep, sin)
	if err := rep.registerInitial(sin); err != nil {
		return err
	}
	if err := tr.run(); err != nil {
		return err
	}
	rep.flush()
	return serverLayers(o, ssp, sin, rep, tr, nil, res)
}
