package main

import (
	"math"
	"math/rand"

	"mqdp/internal/match"
	"mqdp/internal/server"
	"mqdp/internal/synth"
)

type workloadKind int

const (
	kindServer workloadKind = iota
	kindDigest
)

// spec is one workload's fixed shape. Every constant here is part of the
// benchmark definition: changing one changes what the metrics mean.
type spec struct {
	name string
	kind workloadKind

	// Server workloads.
	durable    bool    // -data-dir with -fsync batch; crash + recovery at the end
	jsonWire   bool    // JSON request bodies instead of binary frames
	batch      int     // posts per ingest request
	profiles   int     // registry size, held fixed through churn
	churnSlots int     // profiles that are replaced on the churn schedule
	churnEvery int     // ingest requests between churn events
	pollEvery  int     // ingest requests between emission polls
	dupRatio   float64 // near-duplicate retweet share of the stream
	// streamRate is the stream's posts per second of event time. It sets
	// how much event time a run covers, and with it how many emissions the
	// server retains.
	streamRate float64
	openRate   float64 // open-loop offered load, posts/s (never adapted)
	closedRate float64 // nominal closed-loop rate sizing that phase, posts/s
	// chunks splits the closed-loop phase into equal request-count chunks;
	// throughput and CPU per post are the medians over the chunks.
	chunks int
	// setupReps is how many times a run sets the system up; setup_s is
	// the median.
	setupReps int

	// Digest workload.
	streamHours   int // stream length; one window per hour
	topicsPerProf int
	digestLambda  float64
	digestRate    float64 // stream posts/s
	trailHours    int     // each digest covers the trailing this many hours
}

var specs = map[string]spec{
	"firehose": {
		name: "firehose", kind: kindServer,
		batch: 256, profiles: 48, churnSlots: 4, churnEvery: 8, pollEvery: 4,
		dupRatio: 0.1, streamRate: 5.8, openRate: 6000, closedRate: 16000, chunks: 12, setupReps: 9,
	},
	"durable-fanout": {
		name: "durable-fanout", kind: kindServer,
		durable: true, jsonWire: true,
		batch: 16, profiles: 1000, churnSlots: 32, churnEvery: 8, pollEvery: 4,
		streamRate: 58, openRate: 1200, closedRate: 4600, chunks: 12, setupReps: 3,
	},
	"digest": {
		name: "digest", kind: kindDigest, setupReps: 210,
		streamHours: 12, profiles: 8, topicsPerProf: 6, digestLambda: 300, digestRate: 5.8, trailHours: 6,
	},
}

// serverInputs is a server workload's pre-generated input: the post stream,
// the initial registry, the churn pool and the request schedule.
type serverInputs struct {
	posts []server.Post
	subs  []server.SubscriptionConfig // initial registry, ids 1..len
	pool  []server.SubscriptionConfig // churn replacements, in order
	ops   []op
	// nOpen is the number of ops in the open-loop phase; the post-restart
	// (durable) tail starts at tailOp.
	nOpen, tailOp int
	// sseID is the subscription the SSE subscriber follows.
	sseID int64
}

type opKind uint8

const (
	opIngest opKind = iota
	opSubscribe
	opUnsubscribe
	opPoll
)

// op is one request of the load generator's single ingest connection.
type op struct {
	kind   opKind
	lo, hi int   // opIngest: posts[lo:hi]
	cfg    int   // opSubscribe: index into pool
	id     int64 // opSubscribe: the id the server will assign; opUnsubscribe, opPoll: target
	full   bool  // opPoll: from seq 0 (before an unsubscribe) instead of the cursor
}

var algorithms = []string{"streamscan+", "streamgreedy+", "instant", "streamscan"}

// profile draws one §7.1 profile: a broad topic, then size topics in it.
func profile(w *synth.World, rng *rand.Rand, size int) []match.Topic {
	return w.MatchTopics(w.SampleLabelSet(rng, size))
}

// tweets generates at least n posts of the synthetic stream (rate posts/s)
// and returns the first n.
func tweets(w *synth.World, n int, rate, dupRatio float64, seed int64) []server.Post {
	dur := math.Ceil(float64(n)/rate*1.05) + 60
	for {
		ts := synth.TweetStream(w, synth.StreamConfig{Duration: dur, RatePerSec: rate, DupRatio: dupRatio, Seed: seed})
		if len(ts) >= n {
			out := make([]server.Post, n)
			for i := range out {
				out[i] = server.Post{ID: ts[i].ID + 1, Time: ts[i].Time, Text: ts[i].Text}
			}
			return out
		}
		dur *= 1.2
	}
}

// genServer builds a server workload's inputs from the seed. The post
// counts depend only on the spec and the measured seconds, never on the
// machine, so the same seed always yields the same stream and schedule.
func genServer(sp spec, seed int64, seconds float64) *serverInputs {
	w := synth.NewWorld(synth.WorldConfig{Seed: seed})
	rng := rand.New(rand.NewSource(seed + 1))
	in := &serverInputs{}
	cfg := func(i int, topics []match.Topic) server.SubscriptionConfig {
		c := server.SubscriptionConfig{Topics: topics, Lambda: 60, Tau: 30, Algorithm: "streamscan+"}
		if sp.durable {
			c.Algorithm = algorithms[i%len(algorithms)]
			c.Tau = float64(10 * (i % 4))
		}
		return c
	}
	// Subscription 1 is the SSE subscriber's: every topic of the first
	// broad topic at λ = 116/streamRate seconds of event time (20 s at
	// synth's default 5.8 posts/s) and τ = λ/2, so it emits often enough
	// for steady delivery quantiles whatever the stream rate.
	lam := 116 / sp.streamRate
	in.subs = append(in.subs, server.SubscriptionConfig{Topics: w.MatchTopics(w.ByBroad[0]), Lambda: lam, Tau: lam / 2, Algorithm: "streamscan+"})
	for i := 1; i < sp.profiles; i++ {
		in.subs = append(in.subs, cfg(i, profile(w, rng, 3)))
	}
	in.sseID = 1

	nOpen := roundTo(sp.openRate*seconds/2, sp.batch)
	nClosed := roundTo(sp.closedRate*seconds/2, sp.batch*sp.chunks)
	nTail := 0
	if sp.durable {
		nTail = sp.batch
	}
	in.posts = tweets(w, nOpen+nClosed+nTail, sp.streamRate, sp.dupRatio, seed+2)

	buildSchedule(in, sp, nOpen, nClosed, nTail, func(id int) server.SubscriptionConfig {
		return cfg(id, profile(w, rng, 3))
	})
	return in
}

// buildSchedule lays out the request schedule over in.posts: ingest
// batches with churn and polls interleaved on fixed request counts. Churn
// polls the oldest churn profile in full, unsubscribes it and subscribes
// the next pool profile (drawn by poolCfg, given its id), so the registry
// size never changes.
func buildSchedule(in *serverInputs, sp spec, nOpen, nClosed, nTail int, poolCfg func(id int) server.SubscriptionConfig) {
	var churn []int64
	for i := sp.profiles - sp.churnSlots; i < sp.profiles; i++ {
		churn = append(churn, int64(i+1))
	}
	nextID := int64(sp.profiles + 1)
	stable := int64(sp.profiles - sp.churnSlots)
	pollTarget := int64(0)
	req := 0
	add := func(lo, hi int) {
		in.ops = append(in.ops, op{kind: opIngest, lo: lo, hi: hi})
		req++
		if sp.pollEvery > 0 && req%sp.pollEvery == 0 {
			in.ops = append(in.ops, op{kind: opPoll, id: 1 + pollTarget%stable})
			pollTarget++
		}
		if sp.churnEvery > 0 && req%sp.churnEvery == 0 {
			old := churn[0]
			churn = append(churn[1:], nextID)
			in.pool = append(in.pool, poolCfg(int(nextID)))
			in.ops = append(in.ops,
				op{kind: opPoll, id: old, full: true},
				op{kind: opUnsubscribe, id: old},
				op{kind: opSubscribe, cfg: len(in.pool) - 1, id: nextID})
			nextID++
		}
	}
	for lo := 0; lo < nOpen; lo += sp.batch {
		add(lo, lo+sp.batch)
	}
	in.nOpen = len(in.ops)
	for lo := nOpen; lo < nOpen+nClosed; lo += sp.batch {
		add(lo, lo+sp.batch)
	}
	in.tailOp = len(in.ops)
	if nTail > 0 {
		in.ops = append(in.ops, op{kind: opIngest, lo: nOpen + nClosed, hi: nOpen + nClosed + nTail})
	}
}

func roundTo(x float64, unit int) int {
	n := int(x) / unit * unit
	if n < unit {
		n = unit
	}
	return n
}

// digestInputs is the digest workload's pre-generated input.
type digestInputs struct {
	Posts    []server.Post
	Profiles [][]match.Topic
	Lambda   float64
	Hours    int
	Trail    int // digest window: the trailing Trail hours (≥ 1)
	Passes   int
	// SetupReps is how many times the worker sets the path up (every
	// profile's matcher plus an empty index) before the passes.
	SetupReps int
}

func genDigest(sp spec, seed int64, passes int) *digestInputs {
	w := synth.NewWorld(synth.WorldConfig{Seed: seed})
	in := &digestInputs{Lambda: sp.digestLambda, Hours: sp.streamHours, Trail: sp.trailHours, Passes: passes, SetupReps: sp.setupReps}
	// §7.1-shaped profiles (topics within one broad topic) with the choice
	// fixed instead of drawn: profile i takes the first topics of broad
	// topic i. Topic popularity is Zipf-skewed by topic index, so drawn
	// profiles would make the digest sizes, and every timing with them,
	// depend on the seed; the seed still makes the world and the stream.
	for i := 0; i < sp.profiles; i++ {
		b := w.ByBroad[i%len(w.ByBroad)]
		in.Profiles = append(in.Profiles, w.MatchTopics(b[:min(sp.topicsPerProf, len(b))]))
	}
	dur := float64(sp.streamHours * 3600)
	ts := synth.TweetStream(w, synth.StreamConfig{Duration: dur, RatePerSec: sp.digestRate, Seed: seed + 2})
	in.Posts = make([]server.Post, len(ts))
	for i, t := range ts {
		in.Posts[i] = server.Post{ID: t.ID + 1, Time: t.Time, Text: t.Text}
	}
	return in
}
