package main

import (
	"bufio"
	"fmt"
	"os"
	"time"

	"mqdp"
	"mqdp/internal/core"
	"mqdp/internal/match"
	"mqdp/internal/route"
	"mqdp/internal/server"
	"mqdp/internal/simhash"
	"mqdp/internal/stream"
	"mqdp/internal/textutil"
)

// Span names of the traced replay. Each wraps one call into a layer's
// public API, made in the order mqdp-server makes it.
const (
	spBatch    = iota // one ingest request (parent of everything below)
	spEncode          // client-side wire encode of the request body
	spDecode          // server-side wire decode of the request body
	spPost            // one post through admission and fan-out
	spOffer           // simhash.(*Deduper).Offer
	spTokenize        // textutil.AppendWords
	spLookup          // route.(*Table).AppendSyms + route.DedupSyms
	spCands           // route.(*Index).Candidates
	spMatch           // match.(*Matcher).MatchSymbolsInto, per candidate
	spProcess         // stream processor Process, per matched candidate
	spDeliver         // emission build-out, text cache and gc
	spTopK            // stream.(*TopK).Insert, per emission
	numSpans
)

var spanNames = [numSpans]string{
	"ingest.batch", "wire.encode", "wire.decode", "ingest.post", "simhash.offer",
	"textutil.tokenize", "route.lookup", "route.candidates", "match", "stream.process",
	"stream.deliver", "stream.topk_insert",
}

// span is one recorded call: name, parent index (-1 = root), start and
// end in nanoseconds since the recorder's base time.
type span struct {
	name       uint8
	parent     int32
	start, end int64
}

// recorder keeps every span in memory; dump writes them out at the end.
type recorder struct {
	base  time.Time
	spans []span
	cur   int32
}

func newRecorder() *recorder { return &recorder{base: time.Now(), cur: -1} }

// begin opens a span as a child of the innermost open span. A nil
// recorder is the untraced replay and costs one branch.
func (r *recorder) begin(name int) int32 {
	if r == nil {
		return -1
	}
	r.spans = append(r.spans, span{name: uint8(name), parent: r.cur, start: int64(time.Since(r.base))})
	r.cur = int32(len(r.spans) - 1)
	return r.cur
}

func (r *recorder) end(i int32) {
	if r == nil {
		return
	}
	r.spans[i].end = int64(time.Since(r.base))
	r.cur = r.spans[i].parent
}

// layerTimes aggregates total time, self time (span minus its children)
// and calls per span name over the first n spans, which must be whole root
// trees.
type layerTimes struct {
	self  [numSpans]time.Duration
	total [numSpans]time.Duration
	calls [numSpans]int
}

func (r *recorder) aggregate(n int) layerTimes {
	var lt layerTimes
	child := make([]int64, n)
	for i := n - 1; i >= 0; i-- {
		s := r.spans[i]
		d := s.end - s.start
		lt.total[s.name] += time.Duration(d)
		lt.self[s.name] += time.Duration(d - child[i])
		lt.calls[s.name]++
		if s.parent >= 0 {
			child[s.parent] += d
		}
	}
	return lt
}

// dump writes every span as TSV: index, name, parent, start_ns, end_ns.
func (r *recorder) dump(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	fmt.Fprintln(w, "span\tname\tparent\tstart_ns\tend_ns")
	for i, s := range r.spans {
		fmt.Fprintf(w, "%d\t%s\t%d\t%d\t%d\n", i, spanNames[s.name], s.parent, s.start, s.end)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// replica re-implements mqdp-server's ingest path from the layers' public
// calls, single-threaded, recording what every subscription emits and
// which post triggered each emission. It is both the reference the e2e
// run is checked against and (with a recorder) the traced run.
type replica struct {
	dedup  *simhash.Deduper
	symtab *route.Table
	routes *route.Index[*rsub]
	subs   map[int64]*rsub
	all    []*rsub // every subscription ever registered, by id
	nposts int     // posts offered so far (the next post index)

	words []string
	syms  []uint32
	cands []route.Entry[*rsub]

	rec *recorder
	// wire, when set, round-trips each request body through the wire
	// codec (client encode, server decode) and ingests the decoded posts.
	wire func(batch []server.Post) ([]server.Post, error)

	admitted   []bool
	candidates int
	matches    int
	emissions  int
	tokens     int
	misses     int
}

type pendingText struct {
	id   int64
	time float64
}

// rsub mirrors one server subscription.
type rsub struct {
	id       int64
	cfg      server.SubscriptionConfig
	matcher  *match.Matcher
	syms     []uint32
	proc     mqdp.Processor
	labelBuf []core.Label
	texts    map[int64]server.Post
	pending  []pendingText
	head     int
	topk     *stream.TopK[server.Emission]
	nextSeq  int64

	emissions []server.Emission
	trigger   []int // post index that triggered emissions[i]; -1 = flush
	from, to  int   // alive for post indexes [from, to); to = -1 while alive
	flushed   bool  // alive at the end of the stream
}

func newReplica(rec *recorder) *replica {
	return &replica{
		dedup:  simhash.NewDeduper(10, 8192), // mqdp-server's -dedup / -dedup-window defaults
		symtab: route.NewTable(),
		routes: route.NewIndex[*rsub](),
		subs:   map[int64]*rsub{},
		rec:    rec,
	}
}

func streamAlgo(name string) (mqdp.StreamAlgorithm, error) {
	switch name {
	case "", "streamscan+":
		return mqdp.StreamScanPlus, nil
	case "streamscan":
		return mqdp.StreamScan, nil
	case "streamgreedy":
		return mqdp.StreamGreedy, nil
	case "streamgreedy+":
		return mqdp.StreamGreedyPlus, nil
	case "instant":
		return mqdp.Instant, nil
	}
	return 0, fmt.Errorf("unknown algorithm %q", name)
}

func (r *replica) subscribe(id int64, cfg server.SubscriptionConfig) error {
	m, err := match.NewMatcher(cfg.Topics)
	if err != nil {
		return err
	}
	syms := m.CompileSymbols(r.symtab)
	algo, err := streamAlgo(cfg.Algorithm)
	if err != nil {
		return err
	}
	proc, err := mqdp.NewStream(algo, m.NumTopics(), cfg.Lambda, cfg.Tau)
	if err != nil {
		return err
	}
	k := cfg.TopK
	if k == 0 {
		k = 10
	}
	s := &rsub{id: id, cfg: cfg, matcher: m, syms: syms, proc: proc,
		texts: map[int64]server.Post{}, topk: stream.NewTopK[server.Emission](k, cfg.TopKWindow),
		from: r.nposts, to: -1}
	r.subs[id] = s
	r.all = append(r.all, s)
	r.routes.Add(id, s, syms)
	return nil
}

func (r *replica) unsubscribe(id int64) error {
	s, ok := r.subs[id]
	if !ok {
		return fmt.Errorf("replica: no subscription %d", id)
	}
	delete(r.subs, id)
	r.routes.Remove(id, s.syms)
	s.to = r.nposts
	return nil
}

// ingestBatch applies one request's posts.
func (r *replica) ingestBatch(batch []server.Post) error {
	if r.wire != nil {
		var err error
		if batch, err = r.wire(batch); err != nil {
			return err
		}
	}
	for i := range batch {
		r.ingest(batch[i])
	}
	return nil
}

func (r *replica) ingest(p server.Post) {
	idx := r.nposts
	r.nposts++
	ps := r.rec.begin(spPost)
	sp := r.rec.begin(spOffer)
	ok := r.dedup.Offer(p.Text)
	r.rec.end(sp)
	r.admitted = append(r.admitted, ok)
	if !ok {
		r.rec.end(ps)
		return
	}
	sp = r.rec.begin(spTokenize)
	r.words = textutil.AppendWords(r.words[:0], p.Text)
	r.rec.end(sp)
	r.tokens += len(r.words)
	sp = r.rec.begin(spLookup)
	r.syms = route.DedupSyms(r.symtab.AppendSyms(r.syms[:0], r.words))
	r.rec.end(sp)
	sp = r.rec.begin(spCands)
	r.cands = r.routes.Candidates(r.cands[:0], r.syms)
	r.rec.end(sp)
	r.candidates += len(r.cands)
	for _, c := range r.cands {
		r.feed(c.V, p, idx)
	}
	r.rec.end(ps)
}

func (r *replica) feed(s *rsub, p server.Post, idx int) {
	sp := r.rec.begin(spMatch)
	labels := s.matcher.MatchSymbolsInto(s.labelBuf, r.syms)
	if labels != nil {
		s.labelBuf = labels[:0]
	}
	r.rec.end(sp)
	if len(labels) == 0 {
		return
	}
	r.matches++
	labels = append(make([]core.Label, 0, len(labels)), labels...)
	s.texts[p.ID] = p
	s.pending = append(s.pending, pendingText{id: p.ID, time: p.Time})
	sp = r.rec.begin(spProcess)
	es, err := s.proc.Process(mqdp.Post{ID: p.ID, Value: p.Time, Labels: labels})
	r.rec.end(sp)
	if err != nil {
		panic(fmt.Sprintf("replica: subscription %d: %v", s.id, err))
	}
	sp = r.rec.begin(spDeliver)
	r.deliver(s, es, idx)
	// Text-cache horizon and top-k window slide, as the server does after
	// every processed post.
	horizon := p.Time - s.cfg.Lambda - s.cfg.Tau - 1
	for s.head < len(s.pending) && s.pending[s.head].time < horizon {
		delete(s.texts, s.pending[s.head].id)
		s.head++
	}
	if s.head > 64 && s.head*2 >= len(s.pending) {
		s.pending = append(s.pending[:0], s.pending[s.head:]...)
		s.head = 0
	}
	s.topk.Advance(p.Time)
	r.rec.end(sp)
}

func (r *replica) deliver(s *rsub, es []mqdp.Emission, idx int) {
	for _, e := range es {
		src, ok := s.texts[e.Post.ID]
		if !ok {
			r.misses++
			continue
		}
		delete(s.texts, e.Post.ID)
		names := make([]string, len(e.Post.Labels))
		for i, a := range e.Post.Labels {
			names[i] = s.matcher.Topic(a).Name
		}
		s.nextSeq++
		em := server.Emission{Seq: s.nextSeq, PostID: e.Post.ID, Time: e.Post.Value, Text: src.Text, Topics: names, EmitAt: e.EmitAt}
		s.emissions = append(s.emissions, em)
		s.trigger = append(s.trigger, idx)
		r.emissions++
		sp := r.rec.begin(spTopK)
		s.topk.Insert(stream.TopKItem[server.Emission]{Value: em.Time, Coverage: len(names), Seq: s.nextSeq, Payload: em})
		r.rec.end(sp)
	}
}

// flush ends the stream for every live subscription in id order.
func (r *replica) flush() {
	for _, s := range r.all {
		if s.to >= 0 {
			continue
		}
		r.deliver(s, s.proc.Flush(), -1)
		s.to = r.nposts
		s.flushed = true
	}
}

// run applies the schedule ops[from:to] (polls are no-ops here).
func (r *replica) run(in *serverInputs, from, to int) error {
	for _, o := range in.ops[from:to] {
		switch o.kind {
		case opIngest:
			b := r.rec.begin(spBatch)
			err := r.ingestBatch(in.posts[o.lo:o.hi])
			r.rec.end(b)
			if err != nil {
				return err
			}
		case opSubscribe:
			if err := r.subscribe(o.id, in.pool[o.cfg]); err != nil {
				return err
			}
		case opUnsubscribe:
			if err := r.unsubscribe(o.id); err != nil {
				return err
			}
		}
	}
	return nil
}

// registerInitial subscribes the initial registry with ids 1..n.
func (r *replica) registerInitial(in *serverInputs) error {
	for i, cfg := range in.subs {
		if err := r.subscribe(int64(i+1), cfg); err != nil {
			return err
		}
	}
	return nil
}
